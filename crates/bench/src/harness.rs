//! Drivers the benches share: the closed-loop request driver and its
//! workload, the lost-acked-write count, booted sharding and checkpoint
//! architectures with their apps, and the polling helper.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_arch::checkpoint::{checkpoint, CheckpointSpec};
use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_core::expr::Arg;
use csaw_core::names::JRef;
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{HostCtx, InstanceApp, ReconfigSpec, Runtime, RuntimeConfig};
use mini_redis::apps::{
    CheckpointStoreApp, ReplyQueue, RequestQueue, ServerApp, ShardFrontApp, ShardMode,
};
use mini_redis::{Command, Store};
use parking_lot::Mutex;

/// The front-end `wait` deadline the traffic-driven benches boot with.
pub(crate) const FRONT_TIMEOUT: Duration = Duration::from_millis(400);
/// How long a single request may retry (through a reconfiguration hold
/// or a repair window) before it counts as refused.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Poll `f` every millisecond until it holds or `timeout` passes.
pub(crate) fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// Deterministic workload: a small hot set written once up front, then
/// unique-key SETs interleaved with hot GETs. Unique SET keys make
/// retries idempotent (a late-landing duplicate can never clobber a
/// newer acknowledged value), and the hot GETs give a caching tier
/// something to memoize.
pub(crate) fn command_for(i: usize) -> Command {
    if i < 8 {
        Command::Set(format!("hot{i}"), format!("hv{i}").into_bytes())
    } else if i.is_multiple_of(3) {
        Command::Get(format!("hot{}", i % 8))
    } else {
        Command::Set(format!("k{i}"), format!("v{i}").into_bytes())
    }
}

/// What a driver thread observed.
#[derive(Debug, Default)]
pub(crate) struct DriveStats {
    pub(crate) sent: usize,
    pub(crate) acked: usize,
    pub(crate) retried: usize,
    pub(crate) refused: usize,
    pub(crate) acked_sets: Vec<(String, Vec<u8>)>,
}

/// Drive one command to completion: (re)queue it, invoke the front-end,
/// and only count it acknowledged once a reply actually lands. Failed
/// or reply-less attempts retry until [`REQUEST_DEADLINE`] — the
/// retries are what carry a request across a reconfiguration hold or a
/// detection + repair window, onto whatever topology resumes.
pub(crate) fn drive_one<F: Fn() -> usize>(
    rt: &Runtime,
    target: (&str, &str),
    requests: &Arc<Mutex<VecDeque<Command>>>,
    replies_len: F,
    cmd: &Command,
    stats: &mut DriveStats,
) {
    stats.sent += 1;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut first = true;
    loop {
        if Instant::now() >= deadline {
            stats.refused += 1;
            requests.lock().clear();
            return;
        }
        if !first {
            stats.retried += 1;
        }
        first = false;
        {
            let mut q = requests.lock();
            if q.is_empty() {
                q.push_back(cmd.clone());
            }
        }
        let before = replies_len();
        let invoked = rt.invoke(target.0, target.1).is_ok();
        if invoked && wait_until(Duration::from_millis(400), || replies_len() > before) {
            stats.acked += 1;
            if let Command::Set(k, v) = cmd {
                stats.acked_sets.push((k.clone(), v.clone()));
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Call `drive(i, stats)` for `i` = 0, 1, … every `pace` until `stop`
/// is set; returns what was driven.
pub(crate) fn drive_until(
    stop: &AtomicBool,
    pace: Duration,
    mut drive: impl FnMut(usize, &mut DriveStats),
) -> DriveStats {
    let mut stats = DriveStats::default();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        drive(i, &mut stats);
        i += 1;
        std::thread::sleep(pace);
    }
    stats
}

/// A migrate step that re-homes a live keyspace: drain
/// `stores[..from]` and insert every entry into `stores[home(key)]`.
/// Returns the entries that changed store and their key + value bytes.
pub(crate) fn rehome(
    stores: &[Arc<Mutex<Store>>],
    from: usize,
    home: impl Fn(&str) -> usize,
) -> (u64, u64) {
    let (mut moved, mut bytes) = (0u64, 0u64);
    for idx in 0..from {
        // Bind the drained entries first: iterating the lock's
        // temporary directly would hold the guard across the
        // re-inserting `lock()` below.
        let drained: Vec<(String, Vec<u8>)> = stores[idx].lock().drain_entries();
        for (key, val) in drained {
            let to = home(&key);
            if to != idx {
                moved += 1;
                bytes += (key.len() + val.len()) as u64;
            }
            stores[to].lock().set(&key, val);
        }
    }
    (moved, bytes)
}

/// Add shard back-end `Bck{i}` to a reconfiguration: a [`ServerApp`]
/// over `store`, started the way `sharding(n)` starts its back-ends,
/// with the front-end's junction and `wait` deadline.
pub(crate) fn join_shard(
    rs: &mut ReconfigSpec,
    i: usize,
    store: &Arc<Mutex<Store>>,
    front_timeout: Duration,
) {
    let name = format!("Bck{i}");
    rs.apps.push((name.clone(), Box::new(ServerApp::with_store(Arc::clone(store)))));
    let front = Arg::Junction(JRef::qualified("Fnt", "junction"));
    rs.start.push((name, vec![(None, vec![front, Arg::Value(Value::Duration(front_timeout))])]));
}

/// Acked SETs with no home in any store afterwards — the lost-write
/// count, which must be zero.
pub(crate) fn lost_acked_sets(
    acked: &[(String, Vec<u8>)],
    stores: &[Arc<Mutex<Store>>],
) -> usize {
    acked
        .iter()
        .filter(|(k, v)| !stores.iter().any(|s| s.lock().get(k) == Some(v.as_slice())))
        .count()
}

/// A booted §5.2 `sharding(n)` architecture: the front-end `Fnt`
/// routing by its mode on demand, and `n` fresh [`ServerApp`] back-ends
/// `Bck1..=n`.
pub(crate) struct Sharded {
    pub(crate) rt: Runtime,
    pub(crate) requests: RequestQueue,
    pub(crate) replies: ReplyQueue,
    /// Each back-end's store and executed-command count.
    pub(crate) backends: Vec<(Arc<Mutex<Store>>, Arc<AtomicU64>)>,
}

/// Boot `sharding(n)` routing by `mode`, with tracing on or off and the
/// front-end's `wait` deadline `timeout`.
pub(crate) fn boot_sharded(n: usize, mode: ShardMode, tracing: bool, timeout: Duration) -> Sharded {
    let spec = ShardingSpec { n_backends: n, ..Default::default() };
    let cp = csaw_core::compile(sharding(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(tracing);
    let front = ShardFrontApp::new(mode, n);
    let (requests, replies) = (Arc::clone(&front.requests), Arc::clone(&front.replies));
    rt.bind_app("Fnt", Box::new(front));
    let mut backends = Vec::new();
    for i in 1..=n {
        let app = ServerApp::new();
        backends.push((Arc::clone(&app.store), Arc::clone(&app.handled)));
        rt.bind_app(&format!("Bck{i}"), Box::new(app));
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(timeout)]).unwrap();
    Sharded { rt, requests, replies, backends }
}

/// A booted §10.1 checkpoint architecture over a mini-redis primary:
/// `Prim`, a [`ServerApp`], checkpoints every `every` to `Store`.
/// Returns the runtime and the primary's store.
pub(crate) fn boot_redis_checkpoint(
    every: Duration,
    tracing: bool,
) -> (Runtime, Arc<Mutex<Store>>) {
    let cp = csaw_core::compile(checkpoint(&CheckpointSpec::default()), &LoadConfig::new());
    let rt = Runtime::new(&cp.unwrap(), RuntimeConfig::default());
    rt.set_tracing(tracing);
    let prim = ServerApp::new();
    let store = Arc::clone(&prim.store);
    rt.bind_app("Prim", Box::new(prim));
    rt.bind_app("Store", Box::new(CheckpointStoreApp::new()));
    rt.set_policy("Prim", "checkpoint", Policy::Periodic(every));
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();
    (rt, store)
}

/// A booted §10.1 checkpoint architecture: `Prim` runs a [`CounterApp`]
/// and checkpoints every 20 ms to `Store`, a [`BlobStoreApp`].
pub(crate) struct CheckpointRig {
    pub(crate) rt: Runtime,
    pub(crate) counter: Arc<AtomicU64>,
    pub(crate) checkpointed: Arc<Mutex<Vec<i64>>>,
    pub(crate) recovered: Arc<Mutex<Option<i64>>>,
    pub(crate) latest: Arc<Mutex<Option<Value>>>,
}

pub(crate) fn boot_checkpoint(tracing: bool) -> CheckpointRig {
    let cp = csaw_core::compile(checkpoint(&CheckpointSpec::default()), &LoadConfig::new());
    let rt = Runtime::new(&cp.unwrap(), RuntimeConfig::default());
    rt.set_tracing(tracing);
    let (counter, checkpointed, recovered, latest) = Default::default();
    let prim = CounterApp {
        counter: Arc::clone(&counter),
        checkpointed: Arc::clone(&checkpointed),
        recovered: Arc::clone(&recovered),
    };
    rt.bind_app("Prim", Box::new(prim));
    rt.bind_app("Store", Box::new(BlobStoreApp { latest: Arc::clone(&latest) }));
    rt.set_policy("Prim", "checkpoint", Policy::Periodic(Duration::from_millis(20)));
    rt.run_main(vec![Value::Duration(Duration::from_millis(600))]).unwrap();
    CheckpointRig { rt, counter, checkpointed, recovered, latest }
}

/// Counter app for the §10.1 checkpoint architecture's primary: every
/// `save("state")` records what was checkpointed, so recovery can be
/// validated against the set of states that were actually captured.
/// The simulator's checkpoint mesh runs the same app.
pub(crate) struct CounterApp {
    pub(crate) counter: Arc<AtomicU64>,
    pub(crate) checkpointed: Arc<Mutex<Vec<i64>>>,
    pub(crate) recovered: Arc<Mutex<Option<i64>>>,
}

impl InstanceApp for CounterApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        let v = self.counter.load(Ordering::SeqCst) as i64;
        self.checkpointed.lock().push(v);
        Ok(Value::Int(v))
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        let v = value.as_int().ok_or("bad checkpoint")?;
        self.counter.store(v as u64, Ordering::SeqCst);
        *self.recovered.lock() = Some(v);
        Ok(())
    }
    // The counter and recovery mark drive behavior the DFS fingerprint
    // must see, or hash-pruning could collapse genuinely distinct
    // states.
    fn sim_digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for word in [
            self.counter.load(Ordering::SeqCst),
            self.checkpointed.lock().len() as u64,
            self.recovered.lock().map_or(u64::MAX, |v| v as u64),
        ] {
            h = (h ^ word).wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// Blob store app: keeps the latest checkpoint value.
pub(crate) struct BlobStoreApp {
    pub(crate) latest: Arc<Mutex<Option<Value>>>,
}

impl InstanceApp for BlobStoreApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        self.latest.lock().clone().ok_or("no checkpoint stored".into())
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        *self.latest.lock() = Some(value.clone());
        Ok(())
    }
    fn sim_digest(&self) -> u64 {
        self.latest
            .lock()
            .as_ref()
            .and_then(|v| v.as_int())
            .map_or(0x9e3779b97f4a7c15, |v| (v as u64).wrapping_mul(0x100000001b3))
    }
}
