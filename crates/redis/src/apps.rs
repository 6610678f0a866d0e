//! `InstanceApp` adapters binding the store into the `csaw-arch`
//! architectures. This is the "typification" work of §3: the application
//! is divided into parts (server, router, cache) that junctions invoke
//! through host hooks. The LoC of these adapters corresponds to the
//! paper's **Redis(DSL)** column in Table 2 (code edited in the
//! application to define junctions).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use csaw_core::value::Value;
use csaw_runtime::{HostCtx, InstanceApp};
use parking_lot::Mutex;

use crate::command::{Command, Reply};
use crate::hash::{shard_of, size_class};
use crate::store::Store;

/// A queue of requests a driver deposits and an app consumes.
pub type RequestQueue = Arc<Mutex<VecDeque<Command>>>;
/// A queue of replies an app produces and a driver consumes.
pub type ReplyQueue = Arc<Mutex<VecDeque<Reply>>>;

/// How the shard front-end routes (§5.2: "the simplest sharding is
/// key-based … we implemented … feature-based sharding based on object
/// size").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardMode {
    /// djb2(key) mod N.
    ByKey,
    /// Size-class of the object (0–4KB / 4–64KB / >64KB), tracked in a
    /// custom key→size table maintained on writes.
    BySize,
}

// SECTION: server
// ---------------------------------------------------------------------
// Back-end server
// ---------------------------------------------------------------------

/// A Redis back-end instance: executes commands against its own store.
/// Serves the sharding (`Handle`), fail-over (`H2`) and checkpointing
/// hook names.
pub struct ServerApp {
    /// The keyspace (shared so drivers/tests can inspect).
    pub store: Arc<Mutex<Store>>,
    /// Commands executed.
    pub handled: Arc<AtomicU64>,
    pending: Option<Command>,
    last_reply: Option<Reply>,
}

impl ServerApp {
    /// New server with a fresh store.
    pub fn new() -> ServerApp {
        ServerApp {
            store: Arc::new(Mutex::new(Store::new())),
            handled: Arc::new(AtomicU64::new(0)),
            pending: None,
            last_reply: None,
        }
    }

    /// New server sharing the given store handle.
    pub fn with_store(store: Arc<Mutex<Store>>) -> ServerApp {
        ServerApp {
            store,
            handled: Arc::new(AtomicU64::new(0)),
            pending: None,
            last_reply: None,
        }
    }

    fn execute_pending(&mut self) -> Result<(), String> {
        let cmd = self.pending.take().ok_or("no pending command")?;
        let reply = cmd.execute_owned(&mut self.store.lock());
        self.handled.fetch_add(1, Ordering::Relaxed);
        self.last_reply = Some(reply);
        Ok(())
    }
}

impl Default for ServerApp {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceApp for ServerApp {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        match name {
            // Sharding back-end and fail-over back-end work hooks.
            "Handle" | "H2" | "F" => self.execute_pending(),
            _ => Ok(()),
        }
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            // Response payloads.
            "m" | "preresp" => Ok(Value::Bytes(
                self.last_reply
                    .as_ref()
                    .ok_or("no reply to save")?
                    .encode(),
            )),
            // Full-state checkpoint.
            "state" => Ok(Value::from(self.store.lock().checkpoint()?)),
            other => Err(format!("server: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        let bytes = value.as_bytes().ok_or("expected bytes")?;
        match key {
            // Incoming requests.
            "n" | "req" => {
                self.pending = Some(Command::decode(bytes)?);
                Ok(())
            }
            // Checkpoint restore / replica sync.
            "state" => self.store.lock().restore(bytes),
            other => Err(format!("server: unexpected restore({other})")),
        }
    }
}

// ENDSECTION: server
// SECTION: sharding
// ---------------------------------------------------------------------
// Shard front-end
// ---------------------------------------------------------------------

/// The routing half of a shard front-end, shared by [`ShardFrontApp`]
/// and [`CachedShardFrontApp`].
struct Router {
    mode: ShardMode,
    n_backends: usize,
    backend_prefix: String,
    /// Explicit backend names overriding `backend_prefix` numbering —
    /// the routing-side counterpart of `ShardingSpec::over`: after a
    /// shard re-homing repair the survivor set (`[Bck1, Bck3]`) is not
    /// expressible as prefix + contiguous index.
    backends: Option<Vec<String>>,
    /// "a custom table that maps keys to object sizes" (§5.2).
    size_table: HashMap<String, usize>,
}

impl Router {
    fn new(mode: ShardMode, n_backends: usize) -> Router {
        Router {
            mode,
            n_backends,
            backend_prefix: "Bck".into(),
            backends: None,
            size_table: HashMap::new(),
        }
    }

    fn over(mode: ShardMode, backends: Vec<String>) -> Router {
        Router {
            n_backends: backends.len(),
            backends: Some(backends),
            ..Router::new(mode, 0)
        }
    }

    fn route(&mut self, cmd: &Command) -> usize {
        match self.mode {
            ShardMode::ByKey => cmd.key().map_or(0, |k| shard_of(k, self.n_backends)),
            ShardMode::BySize => {
                let key = match cmd.key() {
                    Some(k) => k,
                    None => return 0,
                };
                // Track sizes on writes; route by the recorded size.
                if let Command::Set(_, v) = cmd {
                    self.size_table.insert(key.to_string(), v.len());
                }
                let size = self.size_table.get(key).copied().unwrap_or(0);
                size_class(size).min(self.n_backends - 1)
            }
        }
    }

    fn target(&mut self, cmd: &Command) -> String {
        let shard = self.route(cmd);
        match &self.backends {
            Some(names) => names[shard].clone(),
            None => format!("{}{}", self.backend_prefix, shard + 1),
        }
    }
}

/// The sharding front-end: `Choose()` routes the pending command.
pub struct ShardFrontApp {
    /// Incoming client requests.
    pub requests: RequestQueue,
    /// Outgoing replies.
    pub replies: ReplyQueue,
    router: Router,
    current: Option<Command>,
}

impl ShardFrontApp {
    /// Build a front-end for `n_backends` shards.
    pub fn new(mode: ShardMode, n_backends: usize) -> ShardFrontApp {
        ShardFrontApp {
            requests: Arc::new(Mutex::new(VecDeque::new())),
            replies: Arc::new(Mutex::new(VecDeque::new())),
            router: Router::new(mode, n_backends),
            current: None,
        }
    }

    /// Build a front-end sharding over an explicit backend list (the
    /// survivor set after a re-homing repair).
    pub fn over(mode: ShardMode, backends: Vec<String>) -> ShardFrontApp {
        ShardFrontApp {
            router: Router::over(mode, backends),
            ..ShardFrontApp::new(mode, 0)
        }
    }
}

impl InstanceApp for ShardFrontApp {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "Choose" {
            let cmd = self
                .requests
                .lock()
                .pop_front()
                .ok_or("no pending request")?;
            let target = self.router.target(&cmd);
            self.current = Some(cmd);
            ctx.set_idx("tgt", &target)?;
        }
        Ok(())
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            "n" => Ok(Value::Bytes(
                self.current.as_ref().ok_or("no current command")?.encode(),
            )),
            other => Err(format!("shard-front: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        match key {
            "m" => {
                let reply = Reply::decode(value.as_bytes().ok_or("expected bytes")?)?;
                self.replies.lock().push_back(reply);
                Ok(())
            }
            other => Err(format!("shard-front: unexpected restore({other})")),
        }
    }
}

/// The cache-fronted shard front-end (`csaw_arch::sharding::
/// sharding_cached`): Fig. 7's memoizing cache merged into the Fig. 5
/// router. Pure reads are served from the in-process cache when
/// possible; misses and writes route to a shard, and fresh read
/// replies are memoized on the way back. Writes invalidate.
///
/// This is the autoscaler's cache-tier target app: when the read
/// fraction crosses the high watermark, the planner swaps the plain
/// [`ShardFrontApp`] front-end for this one in a single-quiesce phase.
pub struct CachedShardFrontApp {
    /// Incoming client requests.
    pub requests: RequestQueue,
    /// Outgoing replies.
    pub replies: ReplyQueue,
    /// Cache hits.
    pub hits: Arc<AtomicU64>,
    /// Cache misses.
    pub misses: Arc<AtomicU64>,
    router: Router,
    cache: HashMap<String, Reply>,
    capacity: usize,
    current: Option<Command>,
    fresh: Option<Reply>,
}

impl CachedShardFrontApp {
    /// Build for `n_backends` shards with a bounded cache.
    pub fn new(mode: ShardMode, n_backends: usize, capacity: usize) -> CachedShardFrontApp {
        CachedShardFrontApp {
            requests: Arc::new(Mutex::new(VecDeque::new())),
            replies: Arc::new(Mutex::new(VecDeque::new())),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            router: Router::new(mode, n_backends),
            cache: HashMap::new(),
            capacity,
            current: None,
            fresh: None,
        }
    }

    /// Build over an explicit backend list.
    pub fn over(mode: ShardMode, backends: Vec<String>, capacity: usize) -> CachedShardFrontApp {
        CachedShardFrontApp {
            router: Router::over(mode, backends),
            ..CachedShardFrontApp::new(mode, 0, capacity)
        }
    }
}

impl InstanceApp for CachedShardFrontApp {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        match name {
            "CheckCacheable" => {
                let cmd = self
                    .requests
                    .lock()
                    .pop_front()
                    .ok_or("no pending request")?;
                let cacheable = !cmd.is_write();
                if cmd.is_write() {
                    if let Some(k) = cmd.key() {
                        self.cache.remove(k);
                    }
                }
                self.current = Some(cmd);
                self.fresh = None;
                ctx.set_prop("Cacheable", cacheable)?;
                Ok(())
            }
            "LookupCache" => {
                let key = self
                    .current
                    .as_ref()
                    .and_then(|c| c.key())
                    .ok_or("no key to look up")?
                    .to_string();
                if let Some(reply) = self.cache.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.replies.lock().push_back(reply.clone());
                    ctx.set_prop("Cached", true)?;
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    ctx.set_prop("Cached", false)?;
                }
                Ok(())
            }
            // The miss arm routes like the plain front-end — but the
            // command was already pulled by `CheckCacheable`.
            "Choose" => {
                let cmd = self.current.clone().ok_or("no current command")?;
                let target = self.router.target(&cmd);
                ctx.set_idx("tgt", &target)?;
                Ok(())
            }
            "UpdateCache" => {
                if self.capacity == 0 {
                    return Ok(());
                }
                let key = self
                    .current
                    .as_ref()
                    .and_then(|c| c.key())
                    .ok_or("no key to cache")?
                    .to_string();
                let reply = self.fresh.clone().ok_or("no fresh value")?;
                if self.cache.len() >= self.capacity {
                    if let Some(k) = self.cache.keys().next().cloned() {
                        self.cache.remove(&k);
                    }
                }
                self.cache.insert(key, reply);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            "n" => Ok(Value::Bytes(
                self.current.as_ref().ok_or("no current command")?.encode(),
            )),
            other => Err(format!("cached-shard-front: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        match key {
            "m" => {
                let reply = Reply::decode(value.as_bytes().ok_or("expected bytes")?)?;
                self.fresh = Some(reply.clone());
                self.replies.lock().push_back(reply);
                Ok(())
            }
            other => Err(format!("cached-shard-front: unexpected restore({other})")),
        }
    }
}

// ENDSECTION: sharding
// SECTION: caching
// ---------------------------------------------------------------------
// Cache front-end
// ---------------------------------------------------------------------

/// The caching layer of Fig. 7: consults an in-process cache before
/// forwarding to the `Fun` instance (which runs a [`ServerApp`] under
/// hook name `F`).
pub struct CacheApp {
    /// Incoming requests.
    pub requests: RequestQueue,
    /// Outgoing replies.
    pub replies: ReplyQueue,
    /// Cache hits (for the Fig. 23c gain measurement).
    pub hits: Arc<AtomicU64>,
    /// Cache misses.
    pub misses: Arc<AtomicU64>,
    cache: HashMap<String, Reply>,
    capacity: usize,
    current: Option<Command>,
    fresh: Option<Reply>,
}

impl CacheApp {
    /// Build with a bounded cache.
    pub fn new(capacity: usize) -> CacheApp {
        CacheApp {
            requests: Arc::new(Mutex::new(VecDeque::new())),
            replies: Arc::new(Mutex::new(VecDeque::new())),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            cache: HashMap::new(),
            capacity,
            current: None,
            fresh: None,
        }
    }
}

impl InstanceApp for CacheApp {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        match name {
            "CheckCacheable" => {
                let cmd = self
                    .requests
                    .lock()
                    .pop_front()
                    .ok_or("no pending request")?;
                // Only pure reads are memoizable; writes invalidate.
                let cacheable = !cmd.is_write();
                if cmd.is_write() {
                    if let Some(k) = cmd.key() {
                        self.cache.remove(k);
                    }
                }
                self.current = Some(cmd);
                self.fresh = None;
                ctx.set_prop("Cacheable", cacheable)?;
                Ok(())
            }
            "LookupCache" => {
                let key = self
                    .current
                    .as_ref()
                    .and_then(|c| c.key())
                    .ok_or("no key to look up")?
                    .to_string();
                if let Some(reply) = self.cache.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.replies.lock().push_back(reply.clone());
                    ctx.set_prop("Cached", true)?;
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    ctx.set_prop("Cached", false)?;
                }
                Ok(())
            }
            "UpdateCache" => {
                if self.capacity == 0 {
                    // Cache disabled (the "No Caching" arm of Fig. 23c).
                    return Ok(());
                }
                let key = self
                    .current
                    .as_ref()
                    .and_then(|c| c.key())
                    .ok_or("no key to cache")?
                    .to_string();
                let reply = self.fresh.clone().ok_or("no fresh value")?;
                if self.cache.len() >= self.capacity {
                    // Host-side eviction policy ("outside of the DSL's
                    // scope"): drop an arbitrary entry.
                    if let Some(k) = self.cache.keys().next().cloned() {
                        self.cache.remove(&k);
                    }
                }
                self.cache.insert(key, reply);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            "n" => Ok(Value::Bytes(
                self.current.as_ref().ok_or("no current command")?.encode(),
            )),
            other => Err(format!("cache: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        match key {
            "m" => {
                let reply = Reply::decode(value.as_bytes().ok_or("expected bytes")?)?;
                self.fresh = Some(reply.clone());
                self.replies.lock().push_back(reply);
                Ok(())
            }
            other => Err(format!("cache: unexpected restore({other})")),
        }
    }
}

// ENDSECTION: caching
// SECTION: failover
// ---------------------------------------------------------------------
// Fail-over front-end
// ---------------------------------------------------------------------

/// The fail-over front-end for Redis: keeps a mirror of the canonical
/// store so `save("state")` reflects each served request.
pub struct FailoverFrontApp {
    /// Incoming requests.
    pub requests: RequestQueue,
    /// Outgoing replies.
    pub replies: ReplyQueue,
    mirror: Store,
    current: Option<Command>,
    /// Whether `current` has already been folded into the mirror.
    /// `save("state")` runs both per request (the Call arm) and per
    /// back-end (re-)registration (`Initialize`); without this flag a
    /// re-registration between two requests would apply the same
    /// command to the mirror twice, corrupting it for non-idempotent
    /// commands (APPEND, INCR).
    advanced: bool,
}

impl FailoverFrontApp {
    /// New front-end with an empty canonical store.
    pub fn new() -> FailoverFrontApp {
        FailoverFrontApp {
            requests: Arc::new(Mutex::new(VecDeque::new())),
            replies: Arc::new(Mutex::new(VecDeque::new())),
            mirror: Store::new(),
            current: None,
            advanced: false,
        }
    }
}

impl Default for FailoverFrontApp {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceApp for FailoverFrontApp {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        match name {
            "H1" => {
                self.current = Some(
                    self.requests
                        .lock()
                        .pop_front()
                        .ok_or("no pending request")?,
                );
                self.advanced = false;
                Ok(())
            }
            // H3 (emit response) has no host-side work here: the reply
            // queue was filled by restore("preresp").
            _ => Ok(()),
        }
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            "req" => Ok(Value::Bytes(
                self.current.as_ref().ok_or("no current command")?.encode(),
            )),
            "state" => {
                // Advance the canonical state by the served command —
                // at most once per command, however many times the
                // state is saved before the next request.
                if !self.advanced {
                    if let Some(cmd) = &self.current {
                        if cmd.is_write() {
                            let _ = cmd.execute(&mut self.mirror);
                        }
                    }
                    self.advanced = true;
                }
                Ok(Value::from(self.mirror.checkpoint()?))
            }
            other => Err(format!("failover-front: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        let bytes = value.as_bytes().ok_or("expected bytes")?;
        match key {
            "state" => self.mirror.restore(bytes),
            "preresp" => {
                self.replies.lock().push_back(Reply::decode(bytes)?);
                Ok(())
            }
            other => Err(format!("failover-front: unexpected restore({other})")),
        }
    }
}

// ENDSECTION: failover
// SECTION: checkpoint
// ---------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------

/// The checkpoint-store instance: keeps the latest blob.
pub struct CheckpointStoreApp {
    /// Latest checkpoint (shared for driver inspection).
    pub latest: Arc<Mutex<Option<Vec<u8>>>>,
}

impl CheckpointStoreApp {
    /// Empty store.
    pub fn new() -> CheckpointStoreApp {
        CheckpointStoreApp {
            latest: Arc::new(Mutex::new(None)),
        }
    }
}

impl Default for CheckpointStoreApp {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceApp for CheckpointStoreApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::from(
            self.latest.lock().clone().ok_or("no checkpoint stored")?,
        ))
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        *self.latest.lock() = Some(value.as_bytes().ok_or("expected bytes")?.to_vec());
        Ok(())
    }
}

// ENDSECTION: checkpoint

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_kv::KeyId;

    fn table() -> csaw_kv::Table {
        let mut t = csaw_kv::Table::new();
        t.declare_prop("Cacheable", false);
        t.declare_prop("Cached", false);
        t.declare_idx(
            "tgt",
            (1..=4)
                .map(|i| csaw_core::names::SetElem::Instance(format!("Bck{i}")))
                .collect(),
        );
        t
    }

    #[test]
    fn server_executes_and_replies() {
        let mut app = ServerApp::new();
        app.restore("n", &Value::Bytes(Command::Set("k".into(), b"v".to_vec()).encode()))
            .unwrap();
        let mut t = table();
        let writes: Vec<KeyId> = vec![];
        let mut ctx = HostCtx::new(&mut t, &writes, "b", "j");
        app.host_call("Handle", &mut ctx).unwrap();
        let m = app.save("m").unwrap();
        assert_eq!(Reply::decode(m.as_bytes().unwrap()).unwrap(), Reply::Ok);
        assert_eq!(app.store.lock().get("k"), Some(&b"v"[..]));
        assert_eq!(app.handled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn server_checkpoint_round_trip() {
        let mut a = ServerApp::new();
        a.store.lock().set("x", b"1".to_vec());
        let state = a.save("state").unwrap();
        let mut b = ServerApp::new();
        b.restore("state", &state).unwrap();
        assert_eq!(b.store.lock().get("x"), Some(&b"1"[..]));
    }

    #[test]
    fn shard_front_routes_by_key() {
        let mut app = ShardFrontApp::new(ShardMode::ByKey, 4);
        let cmd = Command::Get("user:7".into());
        let expected = shard_of("user:7", 4) + 1;
        app.requests.lock().push_back(cmd);
        let mut t = table();
        let writes = vec![KeyId::new("tgt")];
        let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "junction");
        app.host_call("Choose", &mut ctx).unwrap();
        assert_eq!(ctx.idx("tgt"), Some(format!("Bck{expected}").as_str()));
    }

    #[test]
    fn shard_front_routes_by_size_class() {
        let mut app = ShardFrontApp::new(ShardMode::BySize, 3);
        let mut t = table();
        let writes = vec![KeyId::new("tgt")];
        // A big SET lands in class 2; a subsequent GET of the same key
        // routes to the same shard via the size table.
        for cmd in [
            Command::Set("big".into(), vec![0; 128_000]),
            Command::Get("big".into()),
        ] {
            app.requests.lock().push_back(cmd);
            let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "junction");
            app.host_call("Choose", &mut ctx).unwrap();
            assert_eq!(ctx.idx("tgt"), Some("Bck3"));
        }
    }

    #[test]
    fn cache_app_protocol() {
        let mut app = CacheApp::new(100);
        let mut t = table();
        let writes = vec![KeyId::new("Cacheable"), KeyId::new("Cached")];
        // Miss path.
        app.requests.lock().push_back(Command::Get("k".into()));
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Cache", "j");
            app.host_call("CheckCacheable", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cacheable"), Some(true));
            app.host_call("LookupCache", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cached"), Some(false));
        }
        // Fun's reply comes back; cache it.
        app.restore("m", &Value::Bytes(Reply::Bulk(b"v".to_vec()).encode()))
            .unwrap();
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Cache", "j");
            app.host_call("UpdateCache", &mut ctx).unwrap();
        }
        // Hit path.
        app.requests.lock().push_back(Command::Get("k".into()));
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Cache", "j");
            app.host_call("CheckCacheable", &mut ctx).unwrap();
            app.host_call("LookupCache", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cached"), Some(true));
        }
        assert_eq!(app.hits.load(Ordering::Relaxed), 1);
        assert_eq!(app.misses.load(Ordering::Relaxed), 1);
        // A write invalidates.
        app.requests
            .lock()
            .push_back(Command::Set("k".into(), b"2".to_vec()));
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Cache", "j");
            app.host_call("CheckCacheable", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cacheable"), Some(false));
        }
        assert!(app.cache.is_empty());
    }

    #[test]
    fn cached_shard_front_protocol() {
        let mut app = CachedShardFrontApp::new(ShardMode::ByKey, 4, 100);
        let mut t = table();
        let writes = vec![
            KeyId::new("Cacheable"),
            KeyId::new("Cached"),
            KeyId::new("tgt"),
        ];
        let expected = format!("Bck{}", shard_of("k", 4) + 1);
        // Miss: classify, look up (miss), route to a shard.
        app.requests.lock().push_back(Command::Get("k".into()));
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "junction");
            app.host_call("CheckCacheable", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cacheable"), Some(true));
            app.host_call("LookupCache", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cached"), Some(false));
            app.host_call("Choose", &mut ctx).unwrap();
            assert_eq!(ctx.idx("tgt"), Some(expected.as_str()));
        }
        // Shard reply comes back; memoize it.
        app.restore("m", &Value::Bytes(Reply::Bulk(b"v".to_vec()).encode()))
            .unwrap();
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "junction");
            app.host_call("UpdateCache", &mut ctx).unwrap();
        }
        // Hit: served locally, no routing needed.
        app.requests.lock().push_back(Command::Get("k".into()));
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "junction");
            app.host_call("CheckCacheable", &mut ctx).unwrap();
            app.host_call("LookupCache", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cached"), Some(true));
        }
        assert_eq!(app.hits.load(Ordering::Relaxed), 1);
        assert_eq!(app.misses.load(Ordering::Relaxed), 1);
        assert_eq!(app.replies.lock().len(), 2);
        // A write invalidates and routes (writes are never cacheable).
        app.requests
            .lock()
            .push_back(Command::Set("k".into(), b"2".to_vec()));
        {
            let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "junction");
            app.host_call("CheckCacheable", &mut ctx).unwrap();
            assert_eq!(ctx.prop("Cacheable"), Some(false));
            app.host_call("Choose", &mut ctx).unwrap();
            assert_eq!(ctx.idx("tgt"), Some(expected.as_str()));
        }
        assert!(app.cache.is_empty());
    }

    #[test]
    fn failover_front_state_advances_with_writes() {
        let mut app = FailoverFrontApp::new();
        app.requests
            .lock()
            .push_back(Command::Set("k".into(), b"v".to_vec()));
        let mut t = table();
        let writes: Vec<KeyId> = vec![];
        let mut ctx = HostCtx::new(&mut t, &writes, "f", "c");
        app.host_call("H1", &mut ctx).unwrap();
        let state1 = app.save("state").unwrap();
        // A fresh server restored from state1 has the write.
        let mut server = ServerApp::new();
        server.restore("state", &state1).unwrap();
        assert_eq!(server.store.lock().get("k"), Some(&b"v"[..]));
    }

    #[test]
    fn checkpoint_store_round_trip() {
        let mut app = CheckpointStoreApp::new();
        assert!(app.save("state").is_err());
        app.restore("state", &Value::from(vec![1, 2, 3])).unwrap();
        assert_eq!(app.save("state").unwrap(), Value::from(vec![1, 2, 3]));
    }
}
