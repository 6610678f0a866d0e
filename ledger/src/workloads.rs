//! The five pinned workloads: how each is set up, how one closed-loop
//! request runs, and the oracle that checks every reply.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csaw_arch::caching::{caching, CachingSpec};
use csaw_arch::checkpoint::{checkpoint, CheckpointSpec};
use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_core::program::{LoadConfig, Program};
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{LinkKind, Runtime, RuntimeConfig};
use mini_redis::apps::{
    CacheApp, CheckpointStoreApp, ReplyQueue, RequestQueue, ServerApp, ShardFrontApp, ShardMode,
};
use mini_redis::hash::shard_of;
use mini_redis::workload::{KeyDist, Workload, WorkloadSpec};
use mini_redis::{Command, Reply, Store};

use crate::span::{self, now_ns, Spanned};
use crate::stats::{median, Latencies};
use crate::sys::{self, Pin};

/// Back-ends of the sharding workloads.
pub const SHARDS: usize = 4;
/// Cadence of `checkpoint_bg`'s periodic checkpoint.
const CHECKPOINT_EVERY: Duration = Duration::from_millis(100);
/// `checkpoint_bg` runs millions of requests a second; its traced run
/// records the root span of one request in this many.
const ROOT_SAMPLING: u64 = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    Sharding,
    Caching,
    Checkpoint,
}

/// A workload's definition. Everything here is fixed; only the seed of
/// the request stream is an argument.
pub struct Def {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists the workload, so that the driver
    /// runs it and holds later changes to its bounds.
    pub listed: bool,
    pub arch: Arch,
    pub link: LinkKind,
    pub pin: Pin,
    pub keys: usize,
    pub value_size: usize,
    pub read_ratio: f64,
    pub dist: KeyDist,
}

pub const WORKLOADS: [Def; 5] = [
    Def {
        name: "relay_small",
        why: "sharding N=4 by key, Direct links, 4000 keys x 128 B, 70/30 GET/SET, one CPU: pure coordination (interpretation, table deliver, two thread hand-offs); codec and link near 0",
        listed: true,
        arch: Arch::Sharding,
        link: LinkKind::Direct,
        pin: Pin::OneCore,
        keys: 4000,
        value_size: 128,
        read_ratio: 0.7,
        dist: KeyDist::Uniform,
    },
    Def {
        name: "relay_2core",
        why: "relay_small's program, data and seed with the client on CPU 0 and the junction threads on CPU 1: every hand-off crosses CPUs, exposing wake-up loss and polling that one CPU hides",
        // Not listed: inside one run on this VM the rate switches between
        // about 3.5 K and about 11 K req/s for seconds at a time (cause
        // not established), so `req_per_s` spreads 25 % between identical
        // runs. `--workload relay_2core` and `--all` run it.
        listed: false,
        arch: Arch::Sharding,
        link: LinkKind::Direct,
        pin: Pin::TwoCore,
        keys: 4000,
        value_size: 128,
        read_ratio: 0.7,
        dist: KeyDist::Uniform,
    },
    Def {
        name: "tcp_large",
        why: "sharding N=4 over loopback TCP links, 256 keys x 64 KiB, 50/50 GET/SET, one CPU: frame encode/decode, value copies and the kernel socket do about half the work",
        listed: true,
        arch: Arch::Sharding,
        link: LinkKind::Tcp,
        pin: Pin::OneCore,
        keys: 256,
        value_size: 64 << 10,
        read_ratio: 0.5,
        dist: KeyDist::Uniform,
    },
    Def {
        name: "cache_hot",
        why: "caching architecture, 10000 keys x 256 B, 90/10 hotspot, 90% reads, one CPU: most requests end in one local junction pass with no transport and no hand-off",
        listed: true,
        arch: Arch::Caching,
        link: LinkKind::Direct,
        pin: Pin::OneCore,
        keys: 10_000,
        value_size: 256,
        read_ratio: 0.9,
        dist: KeyDist::Hotspot { hot: 0.1, p: 0.9 },
    },
    Def {
        name: "checkpoint_bg",
        why: "checkpoint architecture every 100 ms beside direct store requests, 20000 keys x 256 B, 70/30, one CPU: the architecture is off the request path; serializer, one bulk frame and store-lock hold",
        listed: true,
        arch: Arch::Checkpoint,
        link: LinkKind::Direct,
        pin: Pin::OneCore,
        keys: 20_000,
        value_size: 256,
        read_ratio: 0.7,
        dist: KeyDist::Uniform,
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    WORKLOADS.iter().find(|d| d.name == name)
}

impl Def {
    /// The DSL program this workload runs.
    pub fn program(&self) -> Program {
        match self.arch {
            Arch::Sharding => sharding(&ShardingSpec {
                n_backends: SHARDS,
                ..Default::default()
            }),
            Arch::Caching => caching(&CachingSpec::default()),
            Arch::Checkpoint => checkpoint(&CheckpointSpec::default()),
        }
    }

    /// The instance the client invokes (none for `checkpoint_bg`, whose
    /// requests run beside the architecture, not through it).
    pub fn front(&self) -> &'static str {
        match self.arch {
            Arch::Sharding => "Fnt",
            Arch::Caching => "Cache",
            Arch::Checkpoint => "",
        }
    }

    pub fn instances(&self) -> Vec<String> {
        match self.arch {
            Arch::Sharding => std::iter::once("Fnt".to_string())
                .chain((1..=SHARDS).map(|i| format!("Bck{i}")))
                .collect(),
            Arch::Caching => vec!["Cache".into(), "Fun".into()],
            Arch::Checkpoint => vec!["Prim".into(), "Store".into()],
        }
    }

    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            keyspace: self.keys,
            read_ratio: self.read_ratio,
            value_size: self.value_size,
            dist: self.dist,
            seed,
        }
    }
}

/// A value whose first eight bytes name the write that produced it, so
/// a stale or misrouted reply cannot pass for the right one.
pub fn stamped_value(stamp: u64, size: usize) -> Vec<u8> {
    let mut v = vec![0xAB; size];
    v[..8].copy_from_slice(&stamp.to_le_bytes());
    v
}

fn well_formed(v: &[u8], stamp: u64, size: usize) -> bool {
    v.len() == size && v[..8] == stamp.to_le_bytes() && v[8..].iter().all(|&b| b == 0xAB)
}

/// What the reply to a generated command must be.
enum Expect {
    /// SET: `+OK`; once acknowledged, `slot` holds `stamp`.
    Stored { slot: usize, stamp: u64 },
    /// GET: the value last acknowledged for the key.
    Value { stamp: u64 },
}

/// The client's model of the store: the stamp last acknowledged per key.
struct Oracle {
    slot: HashMap<String, usize>,
    acked: Vec<u64>,
    next_stamp: u64,
    value_size: usize,
}

impl Oracle {
    /// The model after preload: key `i` holds stamp `i + 1`.
    fn preloaded(def: &Def) -> Oracle {
        Oracle {
            slot: (0..def.keys).map(|i| (format!("key:{i}"), i)).collect(),
            acked: (1..=def.keys as u64).collect(),
            next_stamp: def.keys as u64,
            value_size: def.value_size,
        }
    }

    /// Stamp a generated command and say what its reply must be.
    fn expect(&mut self, cmd: &mut Command) -> Expect {
        match cmd {
            Command::Set(k, v) => {
                self.next_stamp += 1;
                v[..8].copy_from_slice(&self.next_stamp.to_le_bytes());
                Expect::Stored {
                    slot: self.slot[k.as_str()],
                    stamp: self.next_stamp,
                }
            }
            Command::Get(k) => Expect::Value {
                stamp: self.acked[self.slot[k.as_str()]],
            },
            other => unreachable!("the workload generates only GET and SET, got {other:?}"),
        }
    }

    fn check(&mut self, expect: Expect, reply: Option<Reply>) -> bool {
        match (expect, reply) {
            (Expect::Stored { slot, stamp }, Some(Reply::Ok)) => {
                self.acked[slot] = stamp;
                true
            }
            (Expect::Value { stamp }, Some(Reply::Bulk(v))) => {
                well_formed(&v, stamp, self.value_size)
            }
            _ => false,
        }
    }
}

/// How one request reaches the program.
enum Path {
    /// `Runtime::invoke` on the front junction; the reply comes back on
    /// the front app's queue.
    Invoke {
        requests: RequestQueue,
        replies: ReplyQueue,
    },
    /// `Command::execute` on the store the architecture checkpoints.
    Store(Box<dyn FnMut(&Command) -> Reply>),
}

/// A stretch is measured in windows of about this length, and a rate or
/// a latency percentile is reported as the median over the windows: a
/// disturbance from outside the process (this is a shared VM) that lasts
/// a second or two then moves the number little, while a cost every
/// window pays (a checkpoint every 100 ms, a tick stall every hundredth
/// request) stays in it.
const WINDOW_S: f64 = 0.5;

/// One window of a stretch.
pub struct Window {
    pub seconds: f64,
    pub verified: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// CPU time of all threads, user + system.
    pub cpu_us: f64,
    /// Resident set when the window ended.
    pub rss_mib: f64,
}

/// One measured stretch of the closed loop.
pub struct Segment {
    pub windows: Vec<Window>,
    /// Every sample of the stretch, for the tail figures.
    pub lat: Latencies,
    pub attempted: u64,
    pub failed: u64,
    pub seconds: f64,
}

impl Segment {
    /// Median over the windows of `f`.
    pub fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }
    pub fn req_per_s(&self) -> f64 {
        self.median_of(|w| w.verified as f64 / w.seconds)
    }
}

/// A set-up workload, ready to serve requests.
pub struct Rig {
    pub def: &'static Def,
    pub rt: Runtime,
    path: Path,
    wl: Workload,
    oracle: Oracle,
    requests: u64,
    last_end: u64,
    /// `(hits, misses)` of the cache app, when there is one.
    pub cache: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>,
    /// The latest checkpoint blob, when the architecture takes them.
    latest_checkpoint: Option<Box<dyn Fn() -> Option<Vec<u8>>>>,
}

impl Rig {
    /// Compile, start, preload and serve one verified request: exactly
    /// what `setup_s` times.
    pub fn set_up(def: &'static Def, seed: u64) -> Result<Rig, String> {
        let cp = csaw_core::compile(def.program(), &LoadConfig::new())
            .map_err(|e| format!("compile: {e}"))?;
        let rt = Runtime::new(
            &cp,
            RuntimeConfig {
                default_link: def.link,
                ..Default::default()
            },
        );
        let preload = |i: usize| {
            (
                format!("key:{i}"),
                stamped_value(i as u64 + 1, def.value_size),
            )
        };
        let mut cache = None;
        let mut latest_checkpoint: Option<Box<dyn Fn() -> Option<Vec<u8>>>> = None;
        let path = match def.arch {
            Arch::Sharding => {
                let front = ShardFrontApp::new(ShardMode::ByKey, SHARDS);
                let path = Path::Invoke {
                    requests: front.requests.clone(),
                    replies: front.replies.clone(),
                };
                rt.bind_app("Fnt", Box::new(Spanned::new("Fnt", front)));
                let mut stores = Vec::new();
                for i in 1..=SHARDS {
                    let name = format!("Bck{i}");
                    let app = ServerApp::new();
                    stores.push(app.store.clone());
                    rt.bind_app(&name, Box::new(Spanned::new(&name, app)));
                }
                for (k, v) in (0..def.keys).map(preload) {
                    stores[shard_of(&k, SHARDS)].lock().set(&k, v);
                }
                path
            }
            Arch::Caching => {
                let app = CacheApp::new(100_000);
                let path = Path::Invoke {
                    requests: app.requests.clone(),
                    replies: app.replies.clone(),
                };
                cache = Some((app.hits.clone(), app.misses.clone()));
                rt.bind_app("Cache", Box::new(Spanned::new("Cache", app)));
                let fun = ServerApp::new();
                let store = fun.store.clone();
                rt.bind_app("Fun", Box::new(Spanned::new("Fun", fun)));
                for (k, v) in (0..def.keys).map(preload) {
                    store.lock().set(&k, v);
                }
                path
            }
            Arch::Checkpoint => {
                let prim = ServerApp::new();
                let store = prim.store.clone();
                rt.bind_app("Prim", Box::new(Spanned::new("Prim", prim)));
                let keeper = CheckpointStoreApp::new();
                let latest = keeper.latest.clone();
                latest_checkpoint = Some(Box::new(move || latest.lock().clone()));
                rt.bind_app("Store", Box::new(Spanned::new("Store", keeper)));
                rt.set_policy("Prim", "checkpoint", Policy::Periodic(CHECKPOINT_EVERY));
                for (k, v) in (0..def.keys).map(preload) {
                    store.lock().set(&k, v);
                }
                Path::Store(Box::new(move |cmd| cmd.execute(&mut store.lock())))
            }
        };
        if !def.front().is_empty() {
            rt.set_policy(def.front(), "junction", Policy::OnDemand);
        }
        rt.run_main(vec![Value::Duration(Duration::from_secs(5))])
            .map_err(|e| format!("main: {e:?}"))?;
        let mut rig = Rig {
            def,
            rt,
            path,
            wl: Workload::new(def.spec(seed)),
            oracle: Oracle::preloaded(def),
            requests: 0,
            last_end: now_ns(),
            cache,
            latest_checkpoint,
        };
        let (_, _, ok) = rig.request();
        if ok {
            Ok(rig)
        } else {
            Err("first request failed verification".into())
        }
    }

    /// One closed-loop request: `(end, latency)` in ns and whether the
    /// reply was the one the model expects. On the `invoke` path latency
    /// runs from handing the command to the front app until `invoke`
    /// returns; on the store path it is the time since the previous
    /// completion (one clock read per request).
    fn request(&mut self) -> (u64, u64, bool) {
        let mut cmd = self.wl.next();
        let expect = self.oracle.expect(&mut cmd);
        self.requests += 1;
        let (end, latency, reply) = match &mut self.path {
            Path::Invoke { requests, replies } => {
                span::begin_request(self.requests as u32);
                let start = now_ns();
                requests.lock().push_back(cmd);
                let served = self.rt.invoke(self.def.front(), "junction");
                let end = now_ns();
                span::end_request(start, end);
                // Exactly one reply per request; drained so that queues
                // never grow and memory measures the runtime.
                let mut q = replies.lock();
                let reply = if served.is_ok() && q.len() == 1 {
                    q.pop_front()
                } else {
                    None
                };
                q.clear();
                (end, end - start, reply)
            }
            Path::Store(execute) => {
                let reply = execute(&cmd);
                let end = now_ns();
                let start = std::mem::replace(&mut self.last_end, end);
                if self.requests.is_multiple_of(ROOT_SAMPLING) {
                    span::record_root(self.requests as u32, start, end);
                }
                (end, end - start, Some(reply))
            }
        };
        (end, latency, self.oracle.check(expect, reply))
    }

    /// Serve requests for `seconds`, in windows.
    pub fn run(&mut self, seconds: f64) -> Segment {
        let windows = ((seconds / WINDOW_S) as usize).max(1);
        let window_ns = (seconds / windows as f64 * 1e9) as u64;
        let mut seg = Segment {
            windows: Vec::new(),
            lat: Latencies::new(),
            attempted: 0,
            failed: 0,
            seconds: 0.0,
        };
        let mut lat = Latencies::new();
        let mut cpu0 = sys::cpu_time_us();
        for _ in 0..windows {
            let (mut attempted, mut failed) = (0, 0);
            let start = now_ns();
            self.last_end = start;
            let seconds = loop {
                let (end, latency, ok) = self.request();
                lat.record(latency);
                seg.lat.record(latency);
                attempted += 1;
                failed += u64::from(!ok);
                if end >= start + window_ns {
                    break (end - start) as f64 / 1e9;
                }
            };
            let cpu1 = sys::cpu_time_us();
            seg.windows.push(Window {
                seconds,
                verified: attempted - failed,
                p50_ns: lat.percentile(0.5),
                p99_ns: lat.percentile(0.99),
                cpu_us: cpu1 - cpu0,
                rss_mib: sys::rss_mib(),
            });
            lat.clear();
            cpu0 = sys::cpu_time_us();
            seg.attempted += attempted;
            seg.failed += failed;
            seg.seconds += seconds;
        }
        seg
    }

    /// Checks on the program's output that are not replies: the latest
    /// checkpoint must restore to a store holding, for every key, a
    /// well-formed value no newer than the last acknowledged write.
    pub fn final_check(&self) -> Result<(), String> {
        let Some(latest) = &self.latest_checkpoint else {
            return Ok(());
        };
        let blob = latest().ok_or("no checkpoint was taken")?;
        let mut store = Store::new();
        store.restore(&blob)?;
        if store.len() != self.def.keys {
            return Err(format!(
                "checkpoint holds {} keys, expected {}",
                store.len(),
                self.def.keys
            ));
        }
        for (key, value) in store.entries() {
            let acked = self.oracle.acked[self.oracle.slot[key]];
            let stamp = u64::from_le_bytes(value[..8].try_into().expect("eight bytes"));
            if stamp > acked || !well_formed(value, stamp, self.def.value_size) {
                return Err(format!(
                    "checkpoint value of {key} is malformed or from the future"
                ));
            }
        }
        Ok(())
    }

    /// Activations run so far, over all instances.
    pub fn activations(&self) -> u64 {
        self.def
            .instances()
            .iter()
            .map(|i| self.rt.activations(i))
            .sum()
    }

    pub fn cache_counts(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), |(h, m)| {
            (h.load(Ordering::Relaxed), m.load(Ordering::Relaxed))
        })
    }
}
