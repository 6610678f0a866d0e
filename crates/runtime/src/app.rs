//! The host-language side: application logic behind `⌊H⌉{V⃗}`, `save`
//! and `restore`.
//!
//! Substrate applications (mini-redis, mini-curl, mini-suricata)
//! implement [`InstanceApp`]. The DSL invokes host code by name; the
//! [`HostCtx`] handed to the host enforces the paper's contract that
//! "only junction state V⃗ may be written to by the host language
//! statement H; arbitrary junction state may be read" (§4).

use csaw_core::names::SetElem;
use csaw_core::value::Value;
use csaw_kv::{KeyId, Table, TableError};

/// Error type host code reports (stringly — host errors are opaque to the
/// DSL, which only cares that the statement failed).
pub type AppError = String;

/// A view of the executing junction's table handed to host code.
pub struct HostCtx<'a> {
    table: &'a mut Table,
    writes: &'a [KeyId],
    instance: &'a str,
    junction: &'a str,
}

impl<'a> HostCtx<'a> {
    /// Construct a host context (runtime-internal).
    pub fn new(
        table: &'a mut Table,
        writes: &'a [KeyId],
        instance: &'a str,
        junction: &'a str,
    ) -> Self {
        HostCtx { table, writes, instance, junction }
    }

    /// Containing instance name.
    pub fn instance(&self) -> &str {
        self.instance
    }

    /// Containing junction name.
    pub fn junction(&self) -> &str {
        self.junction
    }

    /// Read any proposition (reads are unrestricted).
    pub fn prop(&self, key: &str) -> Option<bool> {
        self.table.prop(key)
    }

    /// Read any datum.
    pub fn data(&self, key: &str) -> Option<&Value> {
        self.table.data(key)
    }

    /// Read an `idx` cursor.
    pub fn idx(&self, name: &str) -> Option<&str> {
        self.table.idx(name)
    }

    /// The base set of an `idx`, for host choice functions.
    pub fn idx_base(&self, name: &str) -> Option<&[SetElem]> {
        self.table.idx_base(name)
    }

    /// The base set of a `subset`.
    pub fn subset_base(&self, name: &str) -> Option<&[SetElem]> {
        self.table.subset_base(name)
    }

    /// `key`, if the write set lists it: the lowered id, so a host
    /// write looks no key up.
    fn writable(&self, key: &str) -> Result<KeyId, AppError> {
        self.writes.iter().find(|w| **w == key).copied().ok_or_else(|| {
            format!(
                "host code in {}::{} attempted to write `{key}` outside its declared \
                 write-set {:?}",
                self.instance, self.junction, self.writes
            )
        })
    }

    /// Write a proposition — only if listed in `{V⃗}`.
    pub fn set_prop(&mut self, key: &str, value: bool) -> Result<(), AppError> {
        let key = self.writable(key)?;
        self.table
            .set_prop_local(key, value)
            .map(drop)
            .map_err(|e: TableError| e.to_string())
    }

    /// Write a datum — only if listed in `{V⃗}`.
    pub fn set_data(&mut self, key: &str, value: Value) -> Result<(), AppError> {
        let key = self.writable(key)?;
        self.table
            .set_data_local(key, value)
            .map_err(|e: TableError| e.to_string())
    }

    /// Set an `idx` cursor — only if listed in `{V⃗}`. This is the §6
    /// "choice function over a given set" provided by external code
    /// (`⌊Choose()⌉{tgt}` in Fig. 5).
    pub fn set_idx(&mut self, name: &str, elem_key: &str) -> Result<(), AppError> {
        let name = self.writable(name)?;
        self.table
            .set_idx(name, elem_key)
            .map_err(|e: TableError| e.to_string())
    }

    /// Populate a `subset` — only if listed in `{V⃗}`.
    pub fn set_subset(&mut self, name: &str, elems: Vec<SetElem>) -> Result<(), AppError> {
        let name = self.writable(name)?;
        self.table
            .set_subset(name, elems)
            .map_err(|e: TableError| e.to_string())
    }
}

/// Application logic bound to an instance.
///
/// One implementation per substrate; the same implementation can back
/// several instances (each instance gets its own boxed copy).
pub trait InstanceApp: Send {
    /// Execute `⌊name⌉{V⃗}`.
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), AppError>;

    /// Produce the serialized state for `save(…, key)`.
    fn save(&mut self, key: &str) -> Result<Value, AppError>;

    /// Consume the value of `restore(key, …)` back into host state.
    fn restore(&mut self, key: &str, value: &Value) -> Result<(), AppError>;

    /// Called when the owning instance starts.
    fn on_start(&mut self) {}

    /// Called when the owning instance stops or crashes.
    fn on_stop(&mut self) {}

    /// Digest of app-internal state, folded into the sim executor's
    /// state fingerprint during exhaustive exploration. The default
    /// claims "no internal state": two runtime states differing only
    /// in app internals then hash equal, and the explorer may prune a
    /// revisit it should not. Apps driven under DFS exploration whose
    /// behavior depends on internal state should override this.
    fn sim_digest(&self) -> u64 {
        0
    }
}

/// An app that ignores host calls and saves/restores empty state. The
/// default for instances whose architecture needs no application logic.
#[derive(Debug, Default, Clone)]
pub struct NoopApp;

impl InstanceApp for NoopApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), AppError> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, AppError> {
        Ok(Value::from(Vec::new()))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), AppError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new();
        t.declare_prop("Cacheable", false);
        t.declare_data("n");
        t.declare_idx("tgt", vec![SetElem::Instance("b1".into()), SetElem::Instance("b2".into())]);
        t
    }

    #[test]
    fn writes_outside_write_set_rejected() {
        let mut t = table();
        let writes = vec![KeyId::new("Cacheable")];
        let mut ctx = HostCtx::new(&mut t, &writes, "a", "j");
        ctx.set_prop("Cacheable", true).unwrap();
        assert!(ctx.set_data("n", Value::Int(1)).is_err());
        assert!(ctx.set_idx("tgt", "b1").is_err());
    }

    #[test]
    fn reads_unrestricted() {
        let mut t = table();
        t.set_prop_local("Cacheable", true).unwrap();
        let writes: Vec<KeyId> = vec![];
        let ctx = HostCtx::new(&mut t, &writes, "a", "j");
        assert_eq!(ctx.prop("Cacheable"), Some(true));
        assert_eq!(ctx.data("n"), Some(&Value::Undef));
        assert_eq!(ctx.idx_base("tgt").unwrap().len(), 2);
    }

    #[test]
    fn idx_write_respects_base_set() {
        let mut t = table();
        let writes = vec![KeyId::new("tgt")];
        let mut ctx = HostCtx::new(&mut t, &writes, "a", "j");
        ctx.set_idx("tgt", "b2").unwrap();
        assert_eq!(ctx.idx("tgt"), Some("b2"));
        assert!(ctx.set_idx("tgt", "nope").is_err());
    }

    #[test]
    fn noop_app_accepts_everything() {
        let mut app = NoopApp;
        let mut t = table();
        let writes: Vec<KeyId> = vec![];
        let mut ctx = HostCtx::new(&mut t, &writes, "a", "j");
        app.host_call("anything", &mut ctx).unwrap();
        assert_eq!(app.save("n").unwrap(), Value::from(vec![]));
        app.restore("n", &Value::Int(3)).unwrap();
    }
}
