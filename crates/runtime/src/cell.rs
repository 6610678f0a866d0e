//! Junction cells: the runtime home of one junction's state.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use csaw_core::value::Value;
use csaw_kv::{Table, Update};
use parking_lot::{Condvar, Mutex, MutexGuard};

/// Fully-qualified junction identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JunctionId {
    /// Instance name.
    pub instance: String,
    /// Junction name.
    pub junction: String,
}

impl JunctionId {
    /// Construct from parts.
    pub fn new(instance: impl Into<String>, junction: impl Into<String>) -> Self {
        JunctionId { instance: instance.into(), junction: junction.into() }
    }
    /// `instance::junction` rendering.
    pub fn qualified(&self) -> String {
        format!("{}::{}", self.instance, self.junction)
    }
}

impl std::fmt::Display for JunctionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}", self.instance, self.junction)
    }
}

/// One junction's runtime state: KV table + parameter environment +
/// activation lock + wake-up machinery for `wait`.
pub struct Cell {
    /// Identity.
    pub id: JunctionId,
    table: Mutex<Table>,
    cond: Condvar,
    env: Mutex<HashMap<String, Value>>,
    /// Serializes activations of this junction.
    activation: Mutex<()>,
}

impl Cell {
    /// Create a cell around an initialized table.
    pub fn new(id: JunctionId, table: Table) -> Arc<Cell> {
        Arc::new(Cell {
            id,
            table: Mutex::new(table),
            cond: Condvar::new(),
            env: Mutex::new(HashMap::new()),
            activation: Mutex::new(()),
        })
    }

    /// Lock the table.
    pub fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock()
    }

    /// Mailbox depth (pending-update count) without blocking: `None`
    /// when the table lock is held. The overload layer's mailbox probe
    /// uses this — a blocking lock here could deadlock a junction
    /// sending to itself while its own table is locked, and an
    /// unobservable depth is treated as "not overloaded".
    pub fn try_pending_len(&self) -> Option<usize> {
        self.table.try_lock().map(|t| t.pending_len())
    }

    /// Deliver a remote update and wake any waiter. Set `CSAW_TRACE=1`
    /// to log every delivery (debugging distributed coordination).
    pub fn deliver(&self, update: Update) {
        static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let trace = *TRACE.get_or_init(|| std::env::var("CSAW_TRACE").is_ok());
        {
            let mut t = self.table.lock();
            if trace {
                eprintln!("[deliver] {} <- {:?} (running={})", self.id, update, t.is_running());
            }
            t.deliver(update);
        }
        self.cond.notify_all();
    }

    /// Wake waiters without delivering (e.g. liveness changes that may
    /// satisfy `wait`ed formulas indirectly, or shutdown).
    pub fn nudge(&self) {
        self.cond.notify_all();
    }

    /// Block until woken or `deadline`; returns `true` on timeout. The
    /// caller re-checks its predicate under the returned lock.
    pub fn wait_on(&self, guard: &mut MutexGuard<'_, Table>, deadline: Instant) -> bool {
        self.cond.wait_until(guard, deadline).timed_out()
    }

    /// Bind the junction's parameter environment (at `start`).
    pub fn bind_env(&self, env: HashMap<String, Value>) {
        *self.env.lock() = env;
    }

    /// Look up a parameter value.
    pub fn param(&self, name: &str) -> Option<Value> {
        self.env.lock().get(name).cloned()
    }

    /// Snapshot the whole parameter environment (used when evaluating
    /// `start` arguments inside a junction).
    pub fn env_clone(&self) -> HashMap<String, Value> {
        self.env.lock().clone()
    }

    /// Acquire the activation lock (one activation at a time).
    pub fn lock_activation(&self) -> MutexGuard<'_, ()> {
        self.activation.lock()
    }

    /// Attempt to acquire the activation lock without blocking.
    pub fn try_lock_activation(&self) -> Option<MutexGuard<'_, ()>> {
        self.activation.try_lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_kv::Update;
    use std::time::Duration;

    fn cell() -> Arc<Cell> {
        let mut t = Table::new();
        t.declare_prop("Work", false);
        Cell::new(JunctionId::new("f", "junction"), t)
    }

    #[test]
    fn id_rendering() {
        let id = JunctionId::new("f", "b");
        assert_eq!(id.qualified(), "f::b");
        assert_eq!(id.to_string(), "f::b");
    }

    #[test]
    fn deliver_queues_and_wakes() {
        let c = cell();
        c.deliver(Update::assert("Work", "g::junction"));
        assert_eq!(c.table().pending_len(), 1);
    }

    #[test]
    fn env_binding() {
        let c = cell();
        let mut env = HashMap::new();
        env.insert("t".to_string(), Value::Duration(Duration::from_millis(10)));
        c.bind_env(env);
        assert_eq!(
            c.param("t").unwrap().as_duration(),
            Some(Duration::from_millis(10))
        );
        assert!(c.param("zz").is_none());
    }

    #[test]
    fn wait_on_times_out() {
        let c = cell();
        let mut guard = c.table();
        let timed_out = c.wait_on(&mut guard, Instant::now() + Duration::from_millis(5));
        assert!(timed_out);
    }

    #[test]
    fn waiter_woken_by_delivery() {
        let c = cell();
        let c2 = Arc::clone(&c);
        let handle = std::thread::spawn(move || {
            let mut guard = c2.table();
            guard.open_window(vec!["Work".to_string()]);
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if guard.prop("Work") == Some(true) {
                    return true;
                }
                if c2.wait_on(&mut guard, deadline) {
                    return false;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        c.deliver(Update::assert("Work", "g::junction"));
        assert!(handle.join().unwrap(), "waiter should observe the assert");
    }

    #[test]
    fn activation_lock_is_exclusive() {
        let c = cell();
        let g = c.lock_activation();
        assert!(c.try_lock_activation().is_none());
        drop(g);
        assert!(c.try_lock_activation().is_some());
    }
}
