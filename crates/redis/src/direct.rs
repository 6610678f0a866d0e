//! The **Redis(C) control**: the paper's Table 2 compares DSL-based
//! re-architecting against the same features "developed without knowledge
//! of the DSL, as a control experiment", written directly in the host
//! language, including "its own internal management system for
//! communication and synchronization between different instances of
//! Redis, which adds 195 lines to each feature".
//!
//! This module is that control, in Rust: checkpointing, sharding and
//! caching implemented directly on threads + channels with a hand-rolled
//! management layer — no C-Saw. It is fully functional (exercised by the
//! tests below) and its per-section line counts feed the Table-2 harness
//! (`loc_mgmt`, `loc_checkpoint`, `loc_sharding`, `loc_caching`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::command::{Command, Reply};
use crate::hash::shard_of;
use crate::store::Store;

// SECTION: mgmt
// ---------------------------------------------------------------------
// Management layer: naming, framing, request/response plumbing, health
// tracking and timeouts between directly-connected instances. This is
// the fixed cost the paper attributes to every direct feature.
// ---------------------------------------------------------------------

/// A framed management message between instances.
pub enum Frame {
    /// A client command with a reply channel.
    Request(Command, SyncSender<Reply>),
    /// A state transfer (checkpoint payload).
    State(Vec<u8>),
    /// A state request with a reply channel.
    NeedState(SyncSender<Option<Vec<u8>>>),
    /// Health probe with an ack channel.
    Ping(SyncSender<()>),
    /// Orderly shutdown.
    Shutdown,
}

/// One registered endpoint: a named mailbox plus liveness flag.
pub struct Endpoint {
    name: String,
    tx: Sender<Frame>,
    alive: Arc<AtomicBool>,
}

impl Endpoint {
    fn send(&self, f: Frame) -> Result<(), String> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(format!("endpoint `{}` is down", self.name));
        }
        self.tx.send(f).map_err(|_| format!("endpoint `{}` closed", self.name))
    }
}

/// The instance registry: names → endpoints, with health probing.
#[derive(Default)]
pub struct Mgmt {
    endpoints: Mutex<HashMap<String, Arc<Endpoint>>>,
}

impl Mgmt {
    /// Fresh registry.
    pub fn new() -> Arc<Mgmt> {
        Arc::new(Mgmt::default())
    }

    /// Register an endpoint; returns its mailbox receiver and liveness
    /// flag (the instance thread owns both).
    pub fn register(&self, name: &str) -> (Receiver<Frame>, Arc<AtomicBool>) {
        let (tx, rx) = channel();
        let alive = Arc::new(AtomicBool::new(true));
        self.endpoints.lock().insert(
            name.to_string(),
            Arc::new(Endpoint { name: name.to_string(), tx, alive: Arc::clone(&alive) }),
        );
        (rx, alive)
    }

    /// Send a frame to a named endpoint.
    pub fn send(&self, to: &str, f: Frame) -> Result<(), String> {
        let ep = self
            .endpoints
            .lock()
            .get(to)
            .cloned()
            .ok_or_else(|| format!("unknown endpoint `{to}`"))?;
        ep.send(f)
    }

    /// Round-trip request with timeout.
    pub fn request(&self, to: &str, cmd: Command, timeout: Duration) -> Result<Reply, String> {
        let (rtx, rrx) = sync_channel(1);
        self.send(to, Frame::Request(cmd, rtx))?;
        rrx.recv_timeout(timeout)
            .map_err(|_| format!("request to `{to}` timed out"))
    }

    /// Health check: ping with timeout.
    pub fn healthy(&self, name: &str, timeout: Duration) -> bool {
        let (ptx, prx) = sync_channel(1);
        if self.send(name, Frame::Ping(ptx)).is_err() {
            return false;
        }
        prx.recv_timeout(timeout).is_ok()
    }

    /// Mark an endpoint dead (crash simulation).
    pub fn kill(&self, name: &str) {
        if let Some(ep) = self.endpoints.lock().get(name) {
            ep.alive.store(false, Ordering::SeqCst);
            let _ = ep.tx.send(Frame::Shutdown);
        }
    }
}

/// A server thread: owns a store, drains its mailbox.
fn spawn_server(mgmt: &Arc<Mgmt>, name: &str, store: Arc<Mutex<Store>>) -> JoinHandle<()> {
    let (rx, alive) = mgmt.register(name);
    std::thread::Builder::new()
        .name(format!("direct-{name}"))
        .spawn(move || loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Frame::Request(cmd, reply_to)) => {
                    let reply = cmd.execute(&mut store.lock());
                    let _ = reply_to.send(reply);
                }
                Ok(Frame::State(bytes)) => {
                    let _ = store.lock().restore(&bytes);
                }
                Ok(Frame::NeedState(reply_to)) => {
                    let _ = reply_to.send(store.lock().checkpoint().ok());
                }
                Ok(Frame::Ping(ack)) => {
                    let _ = ack.send(());
                }
                Ok(Frame::Shutdown) => return,
                Err(RecvTimeoutError::Timeout) => {
                    if !alive.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        })
        .expect("spawn server")
}
// ENDSECTION: mgmt

// SECTION: checkpoint
// ---------------------------------------------------------------------
// Direct checkpointing: a primary server and a checkpoint-store thread,
// with a ticker pushing state at fixed intervals and a recovery path.
// ---------------------------------------------------------------------

/// Directly-implemented checkpointing (no DSL).
pub struct DirectCheckpointed {
    mgmt: Arc<Mgmt>,
    /// The primary's store.
    pub store: Arc<Mutex<Store>>,
    latest: Arc<Mutex<Option<Vec<u8>>>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Checkpoints taken.
    pub checkpoints: Arc<AtomicU64>,
}

impl DirectCheckpointed {
    /// Start primary + store + ticker.
    pub fn start(interval: Duration) -> DirectCheckpointed {
        let mgmt = Mgmt::new();
        let store = Arc::new(Mutex::new(Store::new()));
        let primary = spawn_server(&mgmt, "primary", Arc::clone(&store));
        let latest = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let checkpoints = Arc::new(AtomicU64::new(0));
        // Checkpoint-store thread.
        let (srx, salive) = mgmt.register("ckpt-store");
        let latest2 = Arc::clone(&latest);
        let store_thread = std::thread::spawn(move || loop {
            match srx.recv_timeout(Duration::from_millis(50)) {
                Ok(Frame::State(bytes)) => *latest2.lock() = Some(bytes),
                Ok(Frame::NeedState(reply_to)) => {
                    let _ = reply_to.send(latest2.lock().clone());
                }
                Ok(Frame::Ping(ack)) => {
                    let _ = ack.send(());
                }
                Ok(Frame::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {
                    if !salive.load(Ordering::SeqCst) {
                        return;
                    }
                }
            }
        });
        // Ticker thread.
        let mgmt2 = Arc::clone(&mgmt);
        let stop2 = Arc::clone(&stop);
        let store2 = Arc::clone(&store);
        let counts = Arc::clone(&checkpoints);
        let ticker = std::thread::spawn(move || {
            let mut next = Instant::now() + interval;
            while !stop2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
                if Instant::now() >= next {
                    next += interval;
                    if let Ok(blob) = store2.lock().checkpoint() {
                        if mgmt2.send("ckpt-store", Frame::State(blob)).is_ok() {
                            counts.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }
        });
        DirectCheckpointed {
            mgmt,
            store,
            latest,
            stop,
            threads: vec![primary, store_thread, ticker],
            checkpoints,
        }
    }

    /// Execute a client command against the primary.
    pub fn request(&self, cmd: Command) -> Result<Reply, String> {
        self.mgmt.request("primary", cmd, Duration::from_secs(5))
    }

    /// Simulate a crash (state loss) and recover from the last
    /// checkpoint.
    pub fn crash_and_recover(&self) -> Result<(), String> {
        self.store.lock().flush();
        let blob = self
            .latest
            .lock()
            .clone()
            .ok_or("no checkpoint available")?;
        self.store.lock().restore(&blob)
    }

    /// Stop all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.mgmt.kill("primary");
        self.mgmt.kill("ckpt-store");
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
// ENDSECTION: checkpoint

// SECTION: sharding
// ---------------------------------------------------------------------
// Direct sharding: N server threads and a router that hashes keys.
// ---------------------------------------------------------------------

/// Directly-implemented key sharding (no DSL).
pub struct DirectSharded {
    mgmt: Arc<Mgmt>,
    n: usize,
    /// Per-shard stores (driver inspection).
    pub stores: Vec<Arc<Mutex<Store>>>,
    threads: Vec<JoinHandle<()>>,
    /// Per-shard request counts.
    pub routed: Vec<Arc<AtomicU64>>,
}

impl DirectSharded {
    /// Start N shard servers.
    pub fn start(n: usize) -> DirectSharded {
        let mgmt = Mgmt::new();
        let mut stores = Vec::new();
        let mut threads = Vec::new();
        let mut routed = Vec::new();
        for i in 0..n {
            let store = Arc::new(Mutex::new(Store::new()));
            threads.push(spawn_server(&mgmt, &format!("shard{i}"), Arc::clone(&store)));
            stores.push(store);
            routed.push(Arc::new(AtomicU64::new(0)));
        }
        DirectSharded { mgmt, n, stores, threads, routed }
    }

    /// Route and execute a command.
    pub fn request(&self, cmd: Command) -> Result<Reply, String> {
        let shard = cmd.key().map_or(0, |k| shard_of(k, self.n));
        self.routed[shard].fetch_add(1, Ordering::SeqCst);
        self.mgmt
            .request(&format!("shard{shard}"), cmd, Duration::from_secs(5))
    }

    /// Stop all threads.
    pub fn shutdown(mut self) {
        for i in 0..self.n {
            self.mgmt.kill(&format!("shard{i}"));
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
// ENDSECTION: sharding

// SECTION: caching
// ---------------------------------------------------------------------
// Direct caching: a cache in front of a single server thread.
// ---------------------------------------------------------------------

/// Directly-implemented caching layer (no DSL).
pub struct DirectCached {
    mgmt: Arc<Mgmt>,
    cache: Mutex<HashMap<String, Reply>>,
    capacity: usize,
    threads: Vec<JoinHandle<()>>,
    /// Cache hits.
    pub hits: Arc<AtomicU64>,
    /// Cache misses.
    pub misses: Arc<AtomicU64>,
    /// The backing store.
    pub store: Arc<Mutex<Store>>,
}

impl DirectCached {
    /// Start the backing server.
    pub fn start(capacity: usize) -> DirectCached {
        let mgmt = Mgmt::new();
        let store = Arc::new(Mutex::new(Store::new()));
        let server = spawn_server(&mgmt, "backend", Arc::clone(&store));
        DirectCached {
            mgmt,
            cache: Mutex::new(HashMap::new()),
            capacity,
            threads: vec![server],
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            store,
        }
    }

    /// Execute a command through the cache.
    pub fn request(&self, cmd: Command) -> Result<Reply, String> {
        if cmd.is_write() {
            if let Some(k) = cmd.key() {
                self.cache.lock().remove(k);
            }
            return self.mgmt.request("backend", cmd, Duration::from_secs(5));
        }
        let key = match cmd.key() {
            Some(k) => k.to_string(),
            None => return self.mgmt.request("backend", cmd, Duration::from_secs(5)),
        };
        if let Some(hit) = self.cache.lock().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        let reply = self.mgmt.request("backend", cmd, Duration::from_secs(5))?;
        let mut cache = self.cache.lock();
        if cache.len() >= self.capacity {
            if let Some(k) = cache.keys().next().cloned() {
                cache.remove(&k);
            }
        }
        cache.insert(key, reply.clone());
        Ok(reply)
    }

    /// Stop all threads.
    pub fn shutdown(mut self) {
        self.mgmt.kill("backend");
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
// ENDSECTION: caching

// ---------------------------------------------------------------------
// Table-2 LoC accounting
// ---------------------------------------------------------------------

fn section_loc(name: &str) -> usize {
    let src = include_str!("direct.rs");
    let start = format!("// SECTION: {name}");
    let end = format!("// ENDSECTION: {name}");
    let mut counting = false;
    let mut count = 0;
    for line in src.lines() {
        if line.trim() == start {
            counting = true;
            continue;
        }
        if line.trim() == end {
            break;
        }
        if counting && !line.trim().is_empty() {
            count += 1;
        }
    }
    count
}

/// LoC of the shared management layer (the paper's +195 per feature).
pub fn loc_mgmt() -> usize {
    section_loc("mgmt")
}
/// LoC of direct checkpointing (excluding mgmt).
pub fn loc_checkpoint() -> usize {
    section_loc("checkpoint")
}
/// LoC of direct sharding (excluding mgmt).
pub fn loc_sharding() -> usize {
    section_loc("sharding")
}
/// LoC of direct caching (excluding mgmt).
pub fn loc_caching() -> usize {
    section_loc("caching")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_checkpoint_recovers() {
        let sys = DirectCheckpointed::start(Duration::from_millis(20));
        sys.request(Command::Set("a".into(), b"1".to_vec())).unwrap();
        // Wait for at least one checkpoint.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sys.checkpoints.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "no checkpoint taken");
            std::thread::sleep(Duration::from_millis(5));
        }
        sys.crash_and_recover().unwrap();
        assert_eq!(
            sys.request(Command::Get("a".into())).unwrap(),
            Reply::Bulk(b"1".to_vec())
        );
        sys.shutdown();
    }

    #[test]
    fn direct_sharding_routes_consistently() {
        let sys = DirectSharded::start(4);
        for i in 0..40 {
            sys.request(Command::Set(format!("k{i}"), vec![i as u8])).unwrap();
        }
        for i in 0..40 {
            assert_eq!(
                sys.request(Command::Get(format!("k{i}"))).unwrap(),
                Reply::Bulk(vec![i as u8])
            );
        }
        // Keys live only on their shard.
        let total: usize = sys.stores.iter().map(|s| s.lock().len()).sum();
        assert_eq!(total, 40);
        assert!(sys.stores.iter().all(|s| s.lock().len() < 40));
        sys.shutdown();
    }

    #[test]
    fn direct_cache_hits_and_invalidates() {
        let sys = DirectCached::start(128);
        sys.request(Command::Set("k".into(), b"v".to_vec())).unwrap();
        assert_eq!(
            sys.request(Command::Get("k".into())).unwrap(),
            Reply::Bulk(b"v".to_vec())
        );
        assert_eq!(
            sys.request(Command::Get("k".into())).unwrap(),
            Reply::Bulk(b"v".to_vec())
        );
        assert_eq!(sys.hits.load(Ordering::SeqCst), 1);
        assert_eq!(sys.misses.load(Ordering::SeqCst), 1);
        // Writes invalidate.
        sys.request(Command::Set("k".into(), b"w".to_vec())).unwrap();
        assert_eq!(
            sys.request(Command::Get("k".into())).unwrap(),
            Reply::Bulk(b"w".to_vec())
        );
        assert_eq!(sys.misses.load(Ordering::SeqCst), 2);
        sys.shutdown();
    }

    #[test]
    fn mgmt_health_and_kill() {
        let mgmt = Mgmt::new();
        let store = Arc::new(Mutex::new(Store::new()));
        let t = spawn_server(&mgmt, "s", store);
        assert!(mgmt.healthy("s", Duration::from_secs(1)));
        mgmt.kill("s");
        assert!(!mgmt.healthy("s", Duration::from_millis(100)));
        let _ = t.join();
        assert!(mgmt
            .request("s", Command::DbSize, Duration::from_millis(100))
            .is_err());
    }

    #[test]
    fn loc_sections_nonzero() {
        assert!(loc_mgmt() > 80, "mgmt loc = {}", loc_mgmt());
        assert!(loc_checkpoint() > 50);
        assert!(loc_sharding() > 30);
        assert!(loc_caching() > 40);
    }
}
