//! Chaos-grade soak harness for the fail-over architectures.
//!
//! Drives the §7.3 write-to-all fail-over, the §7.4 watched fail-over
//! and the §10.1 checkpoint architectures under *seeded* randomized
//! fault schedules — probabilistic message drop and duplication, delivery
//! jitter, and a scheduled directional partition — and checks end-to-end
//! invariants:
//!
//! 1. **No lost accepted requests**: every request the front-end accepted
//!    eventually produces a reply.
//! 2. **Eventual single active back-end**: the arbitration props never
//!    end up contradictory, and at least one back-end is serving.
//! 3. **KV convergence**: after partitions heal and the back-ends
//!    re-register, the replicas agree with a reference model that applied
//!    the answered commands in order.
//!
//! Every schedule is derived from one master seed, so a failing soak can
//! be replayed. The same schedule with the reliability layer disabled
//! ([`ChaosSchedule::without_reliability`]) demonstrably violates the
//! invariants — that asymmetry is the point of the harness.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_kv::Update;
use csaw_runtime::{
    FaultPlan, HeartbeatConfig, HostCtx, InstanceApp, LinkStats, RetryPolicy, Runtime,
    RuntimeConfig,
};
use mini_redis::apps::{FailoverFrontApp, ServerApp};
use mini_redis::{Command, Reply, Store};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::conformance_runs::{check_runtime_trace, ConformanceSummary};
use crate::harness::{boot_checkpoint, wait_until, CheckpointRig};
use crate::report::{Outcome, Report};

/// The soak keyspace: all generated commands target these keys, so
/// convergence can be checked per key.
const DATA_KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "k4", "k5"];
/// Counter keys (kept separate so `INCR` never hits binary values).
const CTR_KEYS: [&str; 2] = ["c0", "c1"];

/// A seeded fault schedule for one soak run.
#[derive(Clone, Debug)]
pub struct ChaosSchedule {
    /// Master seed: workload and per-link fault dice derive from it.
    pub seed: u64,
    /// Number of client requests to drive.
    pub requests: usize,
    /// Per-message drop probability on the request-path links.
    pub drop: f64,
    /// Per-message duplication probability on the request-path links.
    pub dup: f64,
    /// Uniform extra delivery jitter bound.
    pub jitter: Duration,
    /// When the scheduled directional partition opens (relative to
    /// fault-plan installation).
    pub partition_after: Duration,
    /// Partition length ([`Duration::ZERO`] = no partition).
    pub partition_len: Duration,
    /// Whether the reliability layer (retry + dedup) is active.
    pub reliability: bool,
    /// Inter-request pacing, so a soak spans its partition window
    /// instead of finishing before the outage opens.
    pub pace: Duration,
    /// How long the driver waits for any single request before declaring
    /// it lost.
    pub request_deadline: Duration,
    /// Record a causal trace during the soak and replay it through the
    /// `csaw-semantics` conformance checker as a fourth invariant.
    pub conformance: bool,
}

impl ChaosSchedule {
    /// The acceptance schedule: 5% drop, 5% dup, 1ms jitter, and one 2s
    /// directional partition starting 400ms in.
    pub fn acceptance(seed: u64) -> ChaosSchedule {
        ChaosSchedule {
            seed,
            requests: 120,
            drop: 0.05,
            dup: 0.05,
            jitter: Duration::from_millis(1),
            partition_after: Duration::from_millis(400),
            partition_len: Duration::from_secs(2),
            reliability: true,
            pace: Duration::from_millis(20),
            request_deadline: Duration::from_secs(5),
            conformance: false,
        }
    }

    /// Enable (or disable) trace recording + conformance replay.
    pub fn with_conformance(mut self, on: bool) -> ChaosSchedule {
        self.conformance = on;
        self
    }

    /// The same schedule with retry and dedup switched off (the ablation
    /// that demonstrates the invariants failing).
    pub fn without_reliability(mut self) -> ChaosSchedule {
        self.reliability = false;
        // Don't stall the whole run on requests that are provably lost.
        self.request_deadline = self.request_deadline.min(Duration::from_millis(1500));
        self
    }

    /// Set the drop probability (ablation sweeps).
    pub fn with_drop(mut self, p: f64) -> ChaosSchedule {
        self.drop = p;
        self
    }

    /// Set the request count.
    pub fn with_requests(mut self, n: usize) -> ChaosSchedule {
        self.requests = n;
        self
    }

    /// Remove the scheduled partition (pure-loss ablations).
    pub fn without_partition(mut self) -> ChaosSchedule {
        self.partition_len = Duration::ZERO;
        self
    }

    /// Set the inter-request pacing (0 = drive as fast as possible).
    pub fn with_pace(mut self, pace: Duration) -> ChaosSchedule {
        self.pace = pace;
        self
    }

    /// The drop/dup/jitter plan for one directed request-path link, with
    /// a per-link seed derived from the master seed.
    fn lossy_plan(&self, from: &str, to: &str) -> FaultPlan {
        FaultPlan::none()
            .with_drop(self.drop)
            .with_dup(self.dup)
            .with_jitter(self.jitter)
            .with_seed(mix_seed(self.seed, from, to))
    }

    /// The scheduled-outage plan for the partitioned direction.
    fn partition_plan(&self, from: &str, to: &str) -> FaultPlan {
        self.lossy_plan(from, to).with_outage(
            self.partition_after,
            self.partition_after + self.partition_len,
        )
    }

    /// Generate the deterministic command workload.
    fn workload(&self) -> Vec<Command> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0FFEE);
        (0..self.requests)
            .map(|i| {
                let key = DATA_KEYS[rng.gen_range(0..DATA_KEYS.len())].to_string();
                match rng.gen_range(0..6u32) {
                    0 | 1 => {
                        let len = rng.gen_range(8..64usize);
                        Command::Set(key, vec![(i % 251) as u8; len])
                    }
                    2 => Command::Append(key, vec![(i % 13) as u8; 8]),
                    3 => Command::Incr(CTR_KEYS[rng.gen_range(0..CTR_KEYS.len())].into()),
                    4 => Command::Get(key),
                    _ => Command::Del(key),
                }
            })
            .collect()
    }

    fn apply(&self, rt: &Runtime, links: &[(&str, &str)], partition: Option<(&str, &str)>) {
        for (a, b) in links {
            rt.set_fault_plan(a, b, self.lossy_plan(a, b));
        }
        if let Some((a, b)) = partition {
            if !self.partition_len.is_zero() {
                rt.set_fault_plan(a, b, self.partition_plan(a, b));
            }
        }
        if !self.reliability {
            rt.set_retry_policy(RetryPolicy::disabled());
            rt.set_dedup(false);
        }
    }
}

fn b2f(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Deterministic per-link seed from the master seed and the endpoints.
fn mix_seed(seed: u64, from: &str, to: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for b in from.bytes().chain([0xff]).chain(to.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// What one soak run observed.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Architecture label (`failover`, `watched`, `checkpoint`).
    pub arch: String,
    /// The schedule's master seed.
    pub seed: u64,
    /// Requests the driver tried to submit.
    pub requests: usize,
    /// Requests the system accepted (front-end took them).
    pub accepted: usize,
    /// Accepted requests that produced a reply.
    pub answered: usize,
    /// Accepted requests that never produced a reply — invariant 1.
    pub lost: usize,
    /// Requests the front-end refused to accept at all.
    pub refused: usize,
    /// Arbitration props consistent and ≥1 back-end serving — invariant 2.
    pub single_active: bool,
    /// Replicas agree with each other (and the model) — invariant 3.
    pub converged: bool,
    /// The architecture actually exercised its fail-over path (the
    /// watchdog engaged fail-over mode, or an arm hit the partition).
    pub failed_over: bool,
    /// Replies matched the reference model's replies.
    pub model_match: bool,
    /// Network reliability counters at the end of the run.
    pub stats: LinkStats,
    /// Wall-clock seconds.
    pub elapsed: f64,
    /// Conformance replay of the recorded trace — invariant 4, present
    /// only when [`ChaosSchedule::conformance`] was set.
    pub conformance: Option<ConformanceSummary>,
    /// The recorded JSONL trace (for artifact dumps on failure).
    pub trace_jsonl: Option<String>,
}

impl SoakOutcome {
    /// Whether every invariant held.
    pub fn invariants_hold(&self) -> bool {
        self.lost == 0
            && self.refused == 0
            && self.single_active
            && self.converged
            && self.model_match
            && self.conformance.as_ref().is_none_or(|c| c.ok)
    }

    /// The deterministic verdict tuple (what must replay bit-for-bit
    /// across runs of the same seed).
    pub fn verdict(&self) -> (bool, bool, bool, bool) {
        (self.lost == 0 && self.refused == 0, self.single_active, self.converged, self.model_match)
    }

    /// Render as a persistable report (`results/chaos_<arch>.json`).
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            &format!("chaos_{}", self.arch),
            "Chaos soak: fault-injected fail-over invariants",
        );
        r.note("seed", self.seed as f64);
        r.note("requests", self.requests as f64);
        r.note("accepted", self.accepted as f64);
        r.note("answered", self.answered as f64);
        r.note("lost", self.lost as f64);
        r.note("refused", self.refused as f64);
        r.note("single_active", b2f(self.single_active));
        r.note("converged", b2f(self.converged));
        r.note("model_match", b2f(self.model_match));
        r.note("failed_over", b2f(self.failed_over));
        r.note("msgs_sent", self.stats.msgs_sent as f64);
        r.note("drops", self.stats.drops as f64);
        r.note("dups", self.stats.dups as f64);
        r.note("deduped", self.stats.deduped as f64);
        r.note("retries", self.stats.retries as f64);
        r.note("partitioned_sends", self.stats.partitioned as f64);
        r.note("elapsed_s", self.elapsed);
        if let Some(c) = &self.conformance {
            r.note("trace_events", c.events as f64);
            r.note("conformance_violations", c.violations as f64);
            r.note("conformance_ok", b2f(c.ok));
        }
        r.note("invariants_hold", b2f(self.invariants_hold()));
        r.remark(if self.invariants_hold() {
            "PASS: zero lost accepted requests, consistent arbitration, converged KV"
        } else {
            "FAIL: at least one invariant violated (expected when the reliability layer is disabled)"
        });
        r
    }
}

/// The `chaos` command: the three soaks under the acceptance schedule
/// at `seed` with `requests` requests, one `results/chaos_<arch>.json`
/// each. With `conformance`, each trace is also replayed through the
/// conformance checker and a rejected one is dumped to
/// `results/trace_<arch>.jsonl`. Any broken invariant fails the run;
/// with `unreliable` (retry and dedup off) the expectation inverts: at
/// least one invariant must break, or the harness proves nothing.
pub fn command(seed: u64, requests: usize, unreliable: bool, conformance: bool) -> Outcome {
    let mut schedule = ChaosSchedule::acceptance(seed)
        .with_requests(requests)
        .with_conformance(conformance && !unreliable);
    if unreliable {
        schedule = schedule.without_reliability();
    }
    let soaks = [soak_watched(&schedule), soak_failover(&schedule), soak_checkpoint(&schedule)];
    let mut out = Outcome::default();
    for o in &soaks {
        out.reports.push(o.report());
        if let Some(c) = &o.conformance {
            println!(
                "{}: conformance {} ({} events, {} violations)",
                o.arch,
                if c.ok { "ok" } else { "VIOLATED" },
                c.events,
                c.violations
            );
            if !c.ok {
                println!("{}", c.detail);
                let jsonl = o.trace_jsonl.clone().unwrap_or_default();
                out.dumps.push((format!("trace_{}.jsonl", o.arch), jsonl));
            }
        }
        if !unreliable {
            out.require(
                o.invariants_hold(),
                format!("chaos_{}: invariant violated; reproduce with --seed {seed}", o.arch),
            );
        }
    }
    if unreliable {
        let demonstrated = soaks.iter().any(|o| !o.invariants_hold());
        println!(
            "unreliable run: invariant violation {}",
            if demonstrated { "demonstrated" } else { "NOT demonstrated" }
        );
        out.require(
            demonstrated,
            format!("no invariant broke; reproduce with --seed {seed} --unreliable"),
        );
    }
    out
}

/// Per-key comparison over the soak keyspace (checkpoint blobs are not
/// byte-stable across hash-map iteration orders).
fn stores_agree(a: &Store, b: &Store) -> bool {
    DATA_KEYS
        .iter()
        .chain(CTR_KEYS.iter())
        .all(|k| a.get(k) == b.get(k))
}

// ---------------------------------------------------------------------
// Shared KV apps
// ---------------------------------------------------------------------

/// A KV front-end for the watched architecture: `H1` pops the pending
/// command, `save("n")` ships it, `restore("m")` collects the reply.
pub struct KvFront {
    /// Incoming commands (driver side).
    pub requests: Arc<Mutex<VecDeque<Command>>>,
    /// Collected replies (driver side).
    pub replies: Arc<Mutex<Vec<Reply>>>,
    current: Option<Command>,
}

impl KvFront {
    /// New front with empty queues.
    pub fn new() -> KvFront {
        KvFront {
            requests: Arc::new(Mutex::new(VecDeque::new())),
            replies: Arc::new(Mutex::new(Vec::new())),
            current: None,
        }
    }
}

impl Default for KvFront {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceApp for KvFront {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "H1" {
            self.current = Some(self.requests.lock().pop_front().ok_or("no request")?);
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::Bytes(self.current.as_ref().ok_or("no current")?.encode()))
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        self.replies
            .lock()
            .push(Reply::decode(value.as_bytes().ok_or("bytes")?)?);
        Ok(())
    }
}

/// The watched architecture's apps, bound: a [`KvFront`] at `f` and
/// [`ServerApp`] back-ends at `o` and `s`.
pub(crate) struct WatchedApps {
    pub(crate) requests: Arc<Mutex<VecDeque<Command>>>,
    pub(crate) replies: Arc<Mutex<Vec<Reply>>>,
    pub(crate) store_o: Arc<Mutex<Store>>,
    pub(crate) store_s: Arc<Mutex<Store>>,
}

/// Bind [`WatchedApps`] on `rt`.
pub(crate) fn bind_watched(rt: &Runtime) -> WatchedApps {
    let front = KvFront::new();
    let (requests, replies) = (Arc::clone(&front.requests), Arc::clone(&front.replies));
    rt.bind_app("f", Box::new(front));
    let (o, s) = (ServerApp::new(), ServerApp::new());
    let (store_o, store_s) = (Arc::clone(&o.store), Arc::clone(&s.store));
    rt.bind_app("o", Box::new(o));
    rt.bind_app("s", Box::new(s));
    WatchedApps { requests, replies, store_o, store_s }
}

// ---------------------------------------------------------------------
// §7.3 write-to-all fail-over soak
// ---------------------------------------------------------------------

/// Soak the §7.3 fail-over architecture: faults on every front↔back-end
/// direction, plus one directional partition `f → b1`. Recovery is
/// architectural — the faulted arm times out, `b1` is demoted, and its
/// periodic `startup` junction re-registers it once the link heals.
pub fn soak_failover(schedule: &ChaosSchedule) -> SoakOutcome {
    use csaw_arch::failover::{self, failover, FailoverSpec};

    let t0 = Instant::now();
    let spec = FailoverSpec::default();
    let cp = csaw_core::compile(failover(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(schedule.conformance);

    let front = FailoverFrontApp::new();
    let requests = Arc::clone(&front.requests);
    let replies = Arc::clone(&front.replies);
    rt.bind_app("f", Box::new(front));
    let b1 = ServerApp::new();
    let b2 = ServerApp::new();
    let store1 = Arc::clone(&b1.store);
    let store2 = Arc::clone(&b2.store);
    rt.bind_app("b1", Box::new(b1));
    rt.bind_app("b2", Box::new(b2));

    let t = Duration::from_millis(600);
    failover::configure_policies(&rt, &spec, t);
    rt.run_main(vec![Value::Duration(t)]).unwrap();
    wait_until(Duration::from_secs(10), || {
        rt.peek_prop("f", "c", "Starting") == Some(false)
    });

    // Faults go in after boot so registration is clean; the partition
    // clock starts here.
    schedule.apply(
        &rt,
        &[("f", "b1"), ("b1", "f"), ("f", "b2"), ("b2", "f")],
        Some(("f", "b1")),
    );

    let mut model = Store::new();
    let mut accepted = 0usize;
    let mut answered = 0usize;
    let mut lost = 0usize;
    let mut model_match = true;

    let mut drive = |cmd: &Command, model: &mut Store| {
        requests.lock().push_back(cmd.clone());
        accepted += 1;
        let expect = answered + 1;
        rt.deliver_for_test("f", "c", Update::assert("Req", "chaos-driver"));
        let got = wait_until(schedule.request_deadline, || replies.lock().len() >= expect);
        if got {
            answered += 1;
            let reply = replies.lock()[expect - 1].clone();
            if reply != cmd.execute(model) {
                model_match = false;
            }
        } else {
            lost += 1;
            // The un-served command may still sit in the queue; drop it
            // so it cannot skew a later request's pairing.
            requests.lock().clear();
        }
    };

    for cmd in schedule.workload() {
        drive(&cmd, &mut model);
        std::thread::sleep(schedule.pace);
    }

    // Let demoted back-ends re-register (startup/reactivate are
    // periodic), then fence: a final write-to-all so both replicas catch
    // up. A fence can race a still-settling re-registration and demote
    // the back-end again, so allow a few rounds — each round waits for
    // both registrations and drives one more write.
    let mut fence_rounds = 0usize;
    let mut both_registered = false;
    while fence_rounds < 3 && !both_registered {
        let reregistered = wait_until(Duration::from_secs(10), || {
            rt.peek_prop("f", "c", "Backend[b1::serve]") == Some(true)
                && rt.peek_prop("f", "c", "Backend[b2::serve]") == Some(true)
        });
        if !reregistered {
            break;
        }
        let fence = Command::Set("k0".into(), b"fence".to_vec());
        drive(&fence, &mut model);
        fence_rounds += 1;
        both_registered = rt.peek_prop("f", "c", "Backend[b1::serve]") == Some(true)
            && rt.peek_prop("f", "c", "Backend[b2::serve]") == Some(true);
    }

    let single_active = both_registered;
    let converged = {
        let s1 = store1.lock();
        let s2 = store2.lock();
        stores_agree(&s1, &model) && stores_agree(&s2, &model)
    };
    let stats = rt.link_stats();
    rt.shutdown();
    let (conformance, trace_jsonl) =
        schedule.conformance.then(|| check_runtime_trace(&rt, false)).unzip();

    SoakOutcome {
        arch: "failover".into(),
        failed_over: stats.partitioned > 0,
        seed: schedule.seed,
        requests: schedule.requests + fence_rounds,
        accepted,
        answered,
        lost,
        refused: 0,
        single_active,
        converged,
        model_match,
        stats,
        elapsed: t0.elapsed().as_secs_f64(),
        conformance,
        trace_jsonl,
    }
}

// ---------------------------------------------------------------------
// §7.4 watched fail-over soak
// ---------------------------------------------------------------------

/// Soak the §7.4 watched fail-over: faults on the request paths
/// (`f ↔ o`, `f ↔ s`) and one directional partition `o → w` — the
/// watchdog's *heartbeat* path. The heartbeat failure detector makes the
/// watchdog suspect `o` (its registry status never changes), raising
/// `failover` so the spare serves; requests keep flowing throughout.
pub fn soak_watched(schedule: &ChaosSchedule) -> SoakOutcome {
    use csaw_arch::watched::{self, watched_failover, WatchedSpec};

    let t0 = Instant::now();
    let spec = WatchedSpec::default();
    let cp = csaw_core::compile(watched_failover(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(schedule.conformance);
    let WatchedApps { requests, replies, store_o, store_s } = bind_watched(&rt);

    watched::configure_policies(&rt, &spec, Duration::from_millis(30));
    rt.run_main(vec![Value::Duration(Duration::from_millis(800))])
        .unwrap();
    rt.enable_heartbeats(HeartbeatConfig::default());
    // Give the detector one full suspicion window of clean pings so the
    // partition, not cold-start silence, is what trips it.
    std::thread::sleep(HeartbeatConfig::default().suspicion);

    schedule.apply(
        &rt,
        &[("f", "o"), ("o", "f"), ("f", "s"), ("s", "f")],
        Some(("o", "w")),
    );

    let mut model = Store::new();
    let mut accepted = 0usize;
    let mut answered = 0usize;
    let mut lost = 0usize;
    let mut refused = 0usize;
    let mut model_match = true;
    let mut consecutive_refusals = 0usize;

    for cmd in schedule.workload() {
        if consecutive_refusals >= 3 {
            // The front-end is wedged (stuck Reply from a lost retract —
            // exactly what the reliability layer prevents). Count the
            // rest as refused rather than stalling a failing run.
            refused += 1;
            continue;
        }
        let deadline = Instant::now() + schedule.request_deadline;
        let mut ok = false;
        while Instant::now() < deadline {
            if requests.lock().is_empty() {
                requests.lock().push_back(cmd.clone());
            }
            if rt.invoke("f", "junction").is_ok() {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if !ok {
            refused += 1;
            consecutive_refusals += 1;
            requests.lock().clear();
            continue;
        }
        consecutive_refusals = 0;
        accepted += 1;
        // `invoke` returns after the reply restored — or after the
        // bounded wait gave up (Fig. 16's "prioritize throughput"), so
        // in the common case the reply is already queued and this wait
        // returns immediately; the allowance is for late stragglers.
        let expect = answered + 1;
        let got = wait_until(Duration::from_millis(250), || replies.lock().len() >= expect);
        if got {
            answered += 1;
            let reply = replies.lock()[expect - 1].clone();
            if reply != cmd.execute(&mut model) {
                model_match = false;
            }
        } else {
            lost += 1;
        }
        std::thread::sleep(schedule.pace);
    }

    let in_failover = rt.peek_prop("f", "junction", "failover") == Some(true);
    let contradictory = in_failover
        && rt.peek_prop("f", "junction", "nofailover") == Some(true);
    let single_active = !contradictory;
    // The active replica must agree with the model. The warm spare
    // executes every pre-fail-over command too, so it always agrees;
    // `o` may legitimately miss fail-over-era commands.
    let converged = {
        let active = if in_failover { store_s.lock() } else { store_o.lock() };
        stores_agree(&active, &model)
    };
    let stats = rt.link_stats();
    rt.shutdown();
    let (conformance, trace_jsonl) =
        schedule.conformance.then(|| check_runtime_trace(&rt, false)).unzip();

    SoakOutcome {
        arch: "watched".into(),
        failed_over: in_failover,
        seed: schedule.seed,
        requests: schedule.requests,
        accepted,
        answered,
        lost,
        refused,
        single_active,
        converged,
        model_match,
        stats,
        elapsed: t0.elapsed().as_secs_f64(),
        conformance,
        trace_jsonl,
    }
}

// ---------------------------------------------------------------------
// §10.1 checkpoint soak
// ---------------------------------------------------------------------

/// Soak the checkpoint architecture: periodic checkpoints flow over a
/// lossy primary↔store link while the counter advances; then the primary
/// crashes and must recover a state that was genuinely checkpointed.
pub fn soak_checkpoint(schedule: &ChaosSchedule) -> SoakOutcome {
    let t0 = Instant::now();
    let CheckpointRig { rt, counter, checkpointed, recovered, latest } =
        boot_checkpoint(schedule.conformance);

    schedule.apply(&rt, &[("Prim", "Store"), ("Store", "Prim")], None);

    // Advance the counter while checkpoints flow through the faults.
    let mut accepted = 0usize;
    for _ in 0..schedule.requests {
        counter.fetch_add(1, Ordering::SeqCst);
        accepted += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    // Wait for a checkpoint at (or past) a known landmark to actually
    // land in the store, so recovery has something fresh to find.
    let landmark = counter.load(Ordering::SeqCst) as i64;
    let stored_fresh = wait_until(Duration::from_secs(10), || {
        matches!(*latest.lock(), Some(Value::Int(v)) if v >= landmark)
    });

    // Crash, lose state, recover.
    rt.crash("Prim");
    counter.store(0, Ordering::SeqCst);
    rt.set_policy("Prim", "checkpoint", csaw_runtime::runtime::Policy::OnDemand);
    rt.restart("Prim").unwrap();
    rt.deliver_for_test("Prim", "recover", Update::assert("NeedState", "chaos-driver"));
    let recovered_ok = wait_until(Duration::from_secs(10), || recovered.lock().is_some());

    let got = *recovered.lock();
    // Invariant: the recovered state is one that was genuinely
    // checkpointed — never invented, never torn.
    let genuine = got.is_some_and(|v| checkpointed.lock().contains(&v));
    let answered = if recovered_ok { accepted } else { 0 };
    let stats = rt.link_stats();
    rt.shutdown();
    let (conformance, trace_jsonl) =
        schedule.conformance.then(|| check_runtime_trace(&rt, false)).unzip();

    SoakOutcome {
        arch: "checkpoint".into(),
        failed_over: false,
        seed: schedule.seed,
        requests: schedule.requests,
        accepted,
        answered,
        lost: accepted - answered,
        refused: 0,
        single_active: true,
        converged: stored_fresh && genuine,
        model_match: genuine,
        stats,
        elapsed: t0.elapsed().as_secs_f64(),
        conformance,
        trace_jsonl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_per_seed() {
        let a = ChaosSchedule::acceptance(7).workload();
        let b = ChaosSchedule::acceptance(7).workload();
        let c = ChaosSchedule::acceptance(8).workload();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn link_seeds_are_direction_sensitive() {
        assert_ne!(mix_seed(1, "f", "b1"), mix_seed(1, "b1", "f"));
        assert_ne!(mix_seed(1, "f", "b1"), mix_seed(2, "f", "b1"));
        // Concatenation ambiguity ("fb" → "1" vs "f" → "b1") must not
        // collide.
        assert_ne!(mix_seed(1, "fb", "1"), mix_seed(1, "f", "b1"));
    }

    #[test]
    fn schedule_builders_compose() {
        let s = ChaosSchedule::acceptance(1)
            .with_drop(0.2)
            .with_requests(10)
            .without_partition()
            .without_reliability();
        assert_eq!(s.drop, 0.2);
        assert_eq!(s.requests, 10);
        assert!(s.partition_len.is_zero());
        assert!(!s.reliability);
    }
}
