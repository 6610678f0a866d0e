//! Deterministic-simulation schedules: the parametric scenario family
//! behind `csaw-sim`.
//!
//! Every scenario builds a program *family* indexed by `(shards: N,
//! replicas: K)` on a [`Clock::simulated`] runtime, single-threaded
//! under a [`SimExecutor`], with oracles written against N/K rather
//! than a fixed topology:
//!
//! * [`Scenario::Failover`] — N independent §7.4 supervised fail-over
//!   groups (`f{g}`/`o{g}`/`s{g}`); `min(K, N)` preferred back-ends are
//!   partitioned away mid-traffic, heartbeats raise suspicion, the
//!   supervisor promotes each group's spare (fencing the zombie), the
//!   partitions heal and the zombies are poked. Oracles: a counting
//!   bound on lost acknowledged writes per group, no poke-induced
//!   split-brain, fencing evidence, cross-epoch conformance.
//! * [`Scenario::Reshard`] — a live `sharding(N) → sharding(N+K)`
//!   reconfiguration lands mid-schedule under request traffic; the
//!   migrate closure re-homes every store entry by the new shard
//!   formula. Oracles: every acknowledged key readable at exactly one
//!   store (and, once the reshard lands, at the `shard_of(key, N+K)`
//!   home), no lost acked writes, conformance across both epochs.
//! * [`Scenario::Restore`] — the checkpoint mesh (`checkpoint_mesh(N,
//!   K)`: N primaries × K store replicas); `p1` crashes between
//!   scripted checkpoints, the supervisor restarts it and triggers
//!   recovery. Oracles: the recovered state is genuinely checkpointed
//!   and not older than the crash landmark, every replica blob is a
//!   genuinely checkpointed state.
//! * [`Scenario::Churn`] — K alternating grow/shrink reconfiguration
//!   waves over the sharded architecture under sustained traffic, each
//!   wave re-homing the keyspace. Same oracles as `Reshard`, with the
//!   conformance chain spanning every epoch.
//! * [`Scenario::Planned`] — planner-driven multi-phase resharding:
//!   a grow wave `sharding(N) → sharding(N+K)` and a shrink wave back
//!   to N (true instance removal), each compiled into a phased `Plan`
//!   under `max_concurrent_quiesce = 1` and executed through
//!   `Runtime::reconfigure_plan`. Extra oracles on top of the sharded
//!   ones: no wave's plan is refused by the plan-validity check
//!   `reconfigure_plan` runs before phase 0, and no *executed* phase
//!   quiesces more instances than the constraint allows; the
//!   conformance chain gets one epoch per phase, so cross-epoch
//!   conformance is judged at every phase boundary, not just at wave
//!   ends.
//! * [`Scenario::Overload`] — N open-loop storm pipelines
//!   (`storm_pipeline(N)`: a never-blocking pump fanning units out to
//!   two sinks over bandwidth-limited links) driven at ~2K× the
//!   saturated routes' capacity, every request under a per-request
//!   ingress budget (`otherwise[d]`, which the interpreter stamps onto
//!   each send). The runtime's overload layer — bounded outboxes,
//!   deadline shedding, retry budgets, and a control-plane priority
//!   lane for heartbeats — must degrade gracefully. Oracles: a
//!   per-group goodput floor at overload, *zero* false crash
//!   classifications (nothing actually failed, so the supervisor must
//!   stay quiet), post-storm probe units all land (no congestion
//!   collapse), overload control actually engaged (sheds + queue-full
//!   refusals non-vacuous), and shed-aware conformance.
//!
//! Each scenario carries a deliberate *fence-off* bug mode
//! ([`ScheduleSpec::buggy`], or the `fence-off-bug` cargo feature which
//! compiles the bug in unconditionally): fail-over skips zombie
//! fencing (split-brain), the sharded scenarios copy instead of drain
//! re-homed entries (double-homed keys), restore skips parking the
//! checkpoint junction across the crash (a restart-time checkpoint of
//! reset state races recovery), overload drops the control-plane
//! priority lane (heartbeats are refused by the data plane's bounded
//! outboxes on saturated routes, so the failure detector starves and
//! the supervisor falsely repairs a healthy pump). The oracle must
//! catch every one.
//!
//! A red schedule serializes to a JSON [`Artifact`] (pinned to the
//! instance set it was recorded against); [`replay_schedule`]
//! re-executes it, [`shrink_failure`] minimizes it, and
//! [`dfs_schedule`] hands the whole scenario to the runtime's bounded
//! DFS/DPOR explorer for exhaustive small-model checking.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csaw_arch::checkpoint::{checkpoint_mesh, mesh_primary, mesh_store};
use csaw_arch::overload::{storm_names, storm_pipeline};
use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_arch::watched::supervised_failover_groups;
use csaw_core::expr::Arg;
use csaw_core::names::JRef;
use csaw_core::plan::{plan_break_before_make, plan_reconfiguration, PlanConstraints};
use csaw_core::program::{CompiledProgram, LoadConfig};
use csaw_core::value::Value;
use csaw_kv::Update;
use csaw_runtime::runtime::Policy;
use csaw_runtime::supervisor::RepairAction;
use csaw_runtime::{
    Artifact, Clock, DfsConfig, DfsStats, FailureClass, FaultPlan, HeartbeatConfig,
    HostCtx, InstanceApp, LinkKind, OverloadConfig, ReconfigSpec, RepairPolicy, RetryPolicy,
    Runtime, RuntimeConfig, SimConfig, SimExecutor, SimOutcome, StepRecord, Supervisor,
    SupervisorConfig,
};
use mini_redis::apps::{ServerApp, ShardFrontApp, ShardMode};
use mini_redis::hash::shard_of;
use mini_redis::{Command, Reply, Store};
use parking_lot::Mutex;

use crate::chaos::KvFront;
use crate::conformance_runs::{check_runtime_trace, ConformanceSummary};

/// Front-end `wait` deadline (virtual).
const FRONT_TIMEOUT: Duration = Duration::from_millis(200);
/// Per-request invoke deadline (virtual). Kept short: a blocked invoke
/// runs nested, where supervisor polls cannot fire, so a long deadline
/// would starve detection.
const REQUEST_DEADLINE: Duration = Duration::from_millis(80);

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The scenario families the simulator can schedule. All are
/// parametric in `(shards, replicas)` — see the module doc for what
/// each axis means per scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// N supervised fail-over groups, `min(K, N)` of them partitioned.
    Failover,
    /// One live `sharding(N) → sharding(N+K)` re-homing reconfiguration.
    Reshard,
    /// `checkpoint_mesh(N, K)` with a crash + restart-and-recover repair.
    Restore,
    /// K alternating grow/shrink resharding waves under traffic.
    Churn,
    /// Planner-driven phased grow + shrink under a quiesce bound.
    Planned,
    /// N open-loop storm pipelines at ~2K× saturation under ingress
    /// budgets; graceful degradation + control-plane isolation.
    Overload,
}

impl Scenario {
    /// Every scenario, in sweep order.
    pub fn all() -> [Scenario; 6] {
        [
            Scenario::Failover,
            Scenario::Reshard,
            Scenario::Restore,
            Scenario::Churn,
            Scenario::Planned,
            Scenario::Overload,
        ]
    }

    /// Stable CLI / report label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Failover => "failover",
            Scenario::Reshard => "reshard",
            Scenario::Restore => "restore",
            Scenario::Churn => "churn",
            Scenario::Planned => "planned",
            Scenario::Overload => "overload",
        }
    }

    /// Inverse of [`Scenario::label`].
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|sc| sc.label() == s)
    }
}

/// One schedule's parameters. Everything that shapes the run is here,
/// so `(spec, steps)` fully determines a replay.
#[derive(Clone, Debug)]
pub struct ScheduleSpec {
    /// Which scenario family to build.
    pub scenario: Scenario,
    /// Topology width N (groups / initial shards / primaries).
    pub shards: usize,
    /// Redundancy / churn depth K (partitioned groups / joining shards
    /// / store replicas / reconfiguration waves).
    pub replicas: usize,
    /// Seed for the explorer's random walk *and* the link-chaos dice.
    pub seed: u64,
    /// Whether the scenario's ordering fence is up. `false`
    /// re-introduces the scenario's deliberate bug on purpose; the
    /// oracle must catch it.
    pub fence: bool,
    /// Mild seeded link chaos (reordering) on top of scripted faults.
    pub chaos: bool,
    /// Step budget per schedule.
    pub max_steps: usize,
    /// Virtual-time horizon.
    pub horizon: Duration,
}

impl ScheduleSpec {
    /// The standard schedule for a scenario at `(shards, replicas)`:
    /// fence on, chaos on, budget and horizon scaled to the topology.
    pub fn new(scenario: Scenario, shards: usize, replicas: usize, seed: u64) -> ScheduleSpec {
        assert!(shards >= 1 && replicas >= 1, "grid axes are 1-based");
        let (n, k) = (shards as u64, replicas as u64);
        let cut = n.min(k);
        let (max_steps, horizon) = match scenario {
            Scenario::Failover => (6000 + 5000 * (shards - 1), ms(1500 + 30 * (cut - 1))),
            Scenario::Reshard => (9000 + 1500 * shards, ms(900)),
            Scenario::Restore => (9000 + 2500 * shards * replicas, ms(900)),
            Scenario::Churn => (9000 + 3000 * replicas, ms(250 + 200 * (k - 1) + 450)),
            // Two planner waves (grow at 300 ms, shrink at 600 ms),
            // each an adds/changes/removals phase sequence.
            Scenario::Planned => (9000 + 2500 * (shards + replicas), ms(900)),
            // A 400 ms storm at ~2K× saturation per group, then a
            // post-storm probe window; the step budget scales with the
            // offered load (N groups × K storm multiplier).
            Scenario::Overload => (20_000 + 30_000 * shards * replicas, ms(600)),
        };
        ScheduleSpec {
            scenario,
            shards,
            replicas,
            seed,
            fence: true,
            chaos: true,
            max_steps,
            horizon,
        }
    }

    /// The original single-group fail-over schedule for one seed.
    pub fn for_seed(seed: u64) -> ScheduleSpec {
        ScheduleSpec::new(Scenario::Failover, 1, 1, seed)
    }

    /// The deliberate-bug variant: identical schedule, fence disabled.
    pub fn buggy(seed: u64) -> ScheduleSpec {
        ScheduleSpec { fence: false, ..ScheduleSpec::for_seed(seed) }
    }

    /// Fence-off variant of any spec.
    pub fn with_fence_off(mut self) -> ScheduleSpec {
        self.fence = false;
        self
    }

    /// Override the step budget — the knob the exhaustive explorer
    /// turns to keep small-model DFS trees finite.
    pub fn with_budget(mut self, max_steps: usize) -> ScheduleSpec {
        self.max_steps = max_steps;
        self
    }
}

/// Whether the spec's fence survives the build. The `fence-off-bug`
/// cargo feature compiles every scenario's deliberate ordering bug in
/// unconditionally, so CI can prove the oracles catch it on an
/// otherwise-default spec.
fn fence_enabled(spec: &ScheduleSpec) -> bool {
    !cfg!(feature = "fence-off-bug") && spec.fence
}

/// What one schedule run produced, plus the oracle's verdict.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The seed the schedule ran under.
    pub seed: u64,
    /// The recorded schedule (explore) or the re-recorded one (replay).
    pub steps: Vec<StepRecord>,
    /// Sorted instance names of the *boot* program — what an
    /// [`Artifact`] is pinned to.
    pub instances: Vec<String>,
    /// Virtual time covered.
    pub virtual_ms: f64,
    /// The walk hit its step budget before the horizon.
    pub truncated: bool,
    /// Requests (or scripted ticks, for `Restore`) that landed.
    pub acked: usize,
    /// Restored OK acks in excess of durable serve footprints — must
    /// be 0 (every acknowledged write is backed by a durable serve).
    pub lost_acked: usize,
    /// A healed zombie's stale reply landed — must stay false.
    pub stale_applied: bool,
    /// Every scripted repair / reconfiguration wave verified.
    pub repair_ok: bool,
    /// Sends rejected by the fence over the run.
    pub fenced_sends: u64,
    /// Instances still held at the horizon — must be 0.
    pub held_at_end: usize,
    /// One line per supervisor repair: `instance class action ok×attempts`.
    pub repairs: Vec<String>,
    /// Cross-epoch conformance verdict.
    pub conformance: ConformanceSummary,
    /// `None` if every invariant held; otherwise what broke.
    pub failure: Option<String>,
    /// The recorded trace (virtual timestamps — byte-stable per seed).
    pub trace_jsonl: String,
}

impl ScheduleOutcome {
    /// Package a red schedule for replay.
    pub fn artifact(&self) -> Option<Artifact> {
        self.failure.as_ref().map(|reason| Artifact {
            seed: self.seed,
            reason: reason.clone(),
            instances: self.instances.clone(),
            steps: self.steps.clone(),
        })
    }
}

/// What the oracle measured over one finished run. [`ScheduleOutcome`]
/// is this plus the walk's own numbers.
struct Verdict {
    acked: usize,
    lost_acked: usize,
    stale_applied: bool,
    repair_ok: bool,
    fenced_sends: u64,
    held_at_end: usize,
    repairs: Vec<String>,
    conformance: ConformanceSummary,
    failure: Option<String>,
    trace_jsonl: String,
}

/// One wired scenario: an executor with its injections registered, a
/// `fresh` closure that resets all driver-shared state and builds a new
/// runtime from the boot program, and the parametric oracle. The
/// injections and the oracle share state through `Arc`s that `fresh`
/// re-zeroes, so the same `Scene` drives explore, replay, *and* the
/// many re-executions of a DFS run.
struct Scene {
    exec: SimExecutor,
    boot_instances: Vec<String>,
    fresh: Box<dyn Fn() -> Runtime>,
    check: OracleFn,
}

/// The parametric oracle: inspects the final runtime + sim outcome and
/// returns the verdict (failure reason, repair status, counters).
type OracleFn = Box<dyn Fn(&Runtime, &SimOutcome) -> Verdict>;

fn wire(spec: &ScheduleSpec) -> Scene {
    match spec.scenario {
        Scenario::Failover => wire_failover(spec),
        Scenario::Reshard | Scenario::Churn => wire_sharded(spec),
        Scenario::Restore => wire_restore(spec),
        Scenario::Planned => wire_planned(spec),
        Scenario::Overload => wire_overload(spec),
    }
}

/// Explore one schedule from the spec's seed.
pub fn run_schedule(spec: &ScheduleSpec) -> ScheduleOutcome {
    drive(spec, None)
}

/// Re-execute a recorded schedule (from an [`Artifact`] or a shrink
/// candidate) against a fresh runtime built from the same spec.
pub fn replay_schedule(spec: &ScheduleSpec, steps: &[StepRecord]) -> ScheduleOutcome {
    drive(spec, Some(steps))
}

/// Minimize a red schedule: greedy chunk deletion, re-replaying the
/// candidate and re-running the oracle each time. A candidate must
/// fail for the artifact's exact reason — deleting an `inj:` record
/// suppresses that injection on replay, and a schedule with no crash
/// or no reconfigure wave can go red on a *different* (liveness)
/// oracle, which would shrink past the bug being minimized.
pub fn shrink_failure(spec: &ScheduleSpec, artifact: &Artifact) -> Vec<StepRecord> {
    csaw_runtime::sim::shrink_steps(&artifact.steps, |cand| {
        replay_schedule(spec, cand).failure.as_deref() == Some(artifact.reason.as_str())
    })
}

/// Exhaustively explore the scenario's schedule tree up to the spec's
/// step budget: bounded DFS with sleep-set partial-order reduction and
/// state-fingerprint revisit pruning (both switchable off through
/// `dfs` for the naive baseline). Every schedule re-runs the full
/// parametric oracle; red schedules come back as replayable artifacts.
pub fn dfs_schedule(spec: &ScheduleSpec, dfs: &DfsConfig) -> DfsStats {
    let scene = wire(spec);
    scene.exec.dfs_explore(
        dfs,
        || ((scene.fresh)(), ()),
        |_, rt, out| match (scene.check)(rt, out).failure {
            Some(reason) => Err(reason),
            None => Ok(()),
        },
    )
}

fn drive(spec: &ScheduleSpec, replay: Option<&[StepRecord]>) -> ScheduleOutcome {
    let scene = wire(spec);
    let rt = (scene.fresh)();
    let out = match replay {
        None => scene.exec.explore(&rt),
        Some(steps) => scene.exec.replay(&rt, steps),
    };
    let v = (scene.check)(&rt, &out);
    rt.shutdown();
    ScheduleOutcome {
        seed: spec.seed,
        steps: out.steps,
        instances: scene.boot_instances,
        virtual_ms: out.virtual_time.as_secs_f64() * 1e3,
        truncated: out.truncated,
        acked: v.acked,
        lost_acked: v.lost_acked,
        stale_applied: v.stale_applied,
        repair_ok: v.repair_ok,
        fenced_sends: v.fenced_sends,
        held_at_end: v.held_at_end,
        repairs: v.repairs,
        conformance: v.conformance,
        failure: v.failure,
        trace_jsonl: v.trace_jsonl,
    }
}

fn repair_lines(records: &[csaw_runtime::RepairRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            format!(
                "{} {} {} ok={} attempts={}",
                r.instance,
                r.class.label(),
                r.action,
                r.ok,
                r.attempts
            )
        })
        .collect()
}

// =====================================================================
// Fail-over groups
// =====================================================================

/// Deterministic request workload for fail-over group `g`: a handful
/// of unique-key SETs, one GET. Index is the injection's position in
/// the group's request series.
fn fo_command(g: usize, i: usize) -> Command {
    if i == 2 {
        Command::Get(fo_key(g, 0))
    } else {
        Command::Set(fo_key(g, i), fo_value(g, i).into_bytes())
    }
}

fn fo_key(g: usize, i: usize) -> String {
    format!("rq{g}_{i}")
}

fn fo_value(g: usize, i: usize) -> String {
    format!("rv{g}_{i}")
}

/// The scripted SET windows (window 2 is the GET).
const FO_SET_WINDOWS: [usize; 5] = [0, 1, 3, 4, 5];
/// Request window offsets, in virtual ms (per group, staggered by 3 ms
/// per extra group): three before the partitions, three on the
/// promoted architectures.
const FO_REQUEST_TIMES: [u64; 6] = [10, 25, 40, 550, 620, 690];

/// Directed links between group `g`'s preferred back-end and the rest.
fn fo_links(g: usize) -> [(String, String); 4] {
    let (f, o, s) = (format!("f{g}"), format!("o{g}"), format!("s{g}"));
    [(o.clone(), f.clone()), (f, o.clone()), (o.clone(), s.clone()), (s, o)]
}

/// Driver-shared state for the fail-over scenario; everything the
/// `(preferred, spare)` store handles for one replication group.
type StorePair = (Arc<Mutex<Store>>, Arc<Mutex<Store>>);

/// injections write and the oracle reads, re-zeroed per runtime.
struct FoShared {
    n: usize,
    cut: usize,
    requests: Vec<Arc<Mutex<std::collections::VecDeque<Command>>>>,
    replies: Vec<Arc<Mutex<Vec<Reply>>>>,
    /// `(preferred, spare)` store handles per group, rebound per run.
    stores: Mutex<Vec<StorePair>>,
    acked: AtomicUsize,
    /// `Reply@f{g}` just before each partitioned group's zombie poke.
    /// The split-brain oracle only counts a *transition* to true caused
    /// by the poke: the write-to-all mode routinely leaves a benign
    /// trailing `Reply` assert, which is protocol residue.
    poke_reply_before: Mutex<Vec<Option<bool>>>,
    /// Cumulative per-group promotion flags the repair closure compiles
    /// targets from — two partitioned groups compose.
    promoted: Mutex<Vec<bool>>,
    sup: Mutex<Option<Supervisor>>,
    boot: CompiledProgram,
}

fn wire_failover(spec: &ScheduleSpec) -> Scene {
    let n = spec.shards;
    let cut = spec.replicas.min(n);
    let boot =
        csaw_core::compile(supervised_failover_groups(n, &vec![false; n]), &LoadConfig::new())
            .unwrap();
    let boot_instances: Vec<String> = {
        let mut v: Vec<String> =
            (1..=n).flat_map(|g| [format!("f{g}"), format!("o{g}"), format!("s{g}")]).collect();
        v.sort();
        v
    };

    let shared = Arc::new(FoShared {
        n,
        cut,
        requests: (0..n).map(|_| Arc::new(Mutex::new(Default::default()))).collect(),
        replies: (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect(),
        stores: Mutex::new(Vec::new()),
        acked: AtomicUsize::new(0),
        poke_reply_before: Mutex::new(vec![None; cut]),
        promoted: Mutex::new(vec![false; n]),
        sup: Mutex::new(None),
        boot,
    });

    let mut exec = SimExecutor::new(SimConfig {
        seed: spec.seed,
        max_steps: spec.max_steps,
        horizon: spec.horizon,
        max_nested: 4,
    });

    // Requests: per group, three before the partition window and three
    // on the promoted architecture, staggered 3 ms per group so the
    // invokes interleave. Each injection enqueues one command and
    // invokes the front; the invoke's blocking drives nested progress.
    for g in 1..=n {
        for (i, at_ms) in FO_REQUEST_TIMES.iter().enumerate() {
            let sh = Arc::clone(&shared);
            let at = ms(at_ms + 3 * (g as u64 - 1));
            exec.inject_at(at, &format!("request-{g}-{i}"), move |rt| {
                let cmd = fo_command(g, i);
                {
                    let mut q = sh.requests[g - 1].lock();
                    q.clear();
                    q.push_back(cmd);
                }
                let before = sh.replies[g - 1].lock().len();
                let deadline = rt.clock().now() + REQUEST_DEADLINE;
                let _ = rt.invoke_deadline(&format!("f{g}"), "junction", deadline);
                if sh.replies[g - 1].lock().len() > before {
                    sh.acked.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    }

    // A benign live reconfiguration in the detection window: same
    // program, fresh epoch — reconfigure interleaved with the
    // supervisor's detect → repair machinery.
    {
        let sh = Arc::clone(&shared);
        exec.inject_at(ms(100), "reconfig-identity", move |rt| {
            let _ = rt.reconfigure(&sh.boot, ReconfigSpec::default());
        });
    }

    // The partitions, then the heals + zombie pokes, staggered 30 ms
    // per partitioned group.
    for g in 1..=cut {
        exec.inject_at(ms(60 + 30 * (g as u64 - 1)), &format!("partition-o{g}"), move |rt| {
            for (from, to) in fo_links(g) {
                rt.set_fault_plan(&from, &to, FaultPlan::none().with_drop(1.0));
            }
        });
    }
    for g in 1..=cut {
        let sh = Arc::clone(&shared);
        exec.inject_at(ms(900 + 30 * (g as u64 - 1)), &format!("heal-and-poke-{g}"), move |rt| {
            sh.poke_reply_before.lock()[g - 1] =
                Some(rt.peek_prop(&format!("f{g}"), "junction", "Reply") == Some(true));
            for (from, to) in fo_links(g) {
                rt.set_fault_plan(&from, &to, FaultPlan::none());
            }
            // Re-arm the zombie's guard: with the fence up its stale
            // reply dies on the wire; without it, split-brain.
            rt.deliver_for_test(
                &format!("o{g}"),
                "junction",
                Update::assert(format!("Run[o{g}]"), "sim-driver"),
            );
        });
    }

    let fence = fence_enabled(spec);
    let chaos = spec.chaos;
    let seed = spec.seed;
    let fresh = {
        let sh = Arc::clone(&shared);
        Box::new(move || {
            for q in &sh.requests {
                q.lock().clear();
            }
            for r in &sh.replies {
                r.lock().clear();
            }
            sh.acked.store(0, Ordering::SeqCst);
            *sh.poke_reply_before.lock() = vec![None; sh.cut];
            *sh.promoted.lock() = vec![false; sh.n];
            if let Some(old) = sh.sup.lock().take() {
                old.stop();
            }

            let rt = Runtime::new(
                &sh.boot,
                RuntimeConfig {
                    default_link: LinkKind::Sim { latency: ms(1), bandwidth: 0 },
                    clock: Clock::simulated(),
                    ..RuntimeConfig::default()
                },
            );
            rt.set_tracing(true);
            let mut stores = Vec::new();
            for g in 1..=sh.n {
                let mut front = KvFront::new();
                front.requests = Arc::clone(&sh.requests[g - 1]);
                front.replies = Arc::clone(&sh.replies[g - 1]);
                rt.bind_app(&format!("f{g}"), Box::new(front));
                let o = ServerApp::new();
                let s = ServerApp::new();
                stores.push((Arc::clone(&o.store), Arc::clone(&s.store)));
                rt.bind_app(&format!("o{g}"), Box::new(o));
                rt.bind_app(&format!("s{g}"), Box::new(s));
                rt.set_policy(&format!("f{g}"), "junction", Policy::OnDemand);
            }
            *sh.stores.lock() = stores;
            rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();
            rt.enable_heartbeats(HeartbeatConfig {
                interval: ms(20),
                suspicion: ms(80),
                k_missed: 2,
            });
            if chaos {
                // Mild seeded reordering on each group's surviving
                // path. Deliberately no drops (the partition script
                // owns those) and no duplicates: the watched reply
                // protocol is not idempotent, so duplication makes the
                // driver's acked attribution (and thus the lost-write
                // oracle) unsound. The reorder delay stays well under
                // the gap between scripted requests for the same
                // reason.
                for g in 1..=sh.n {
                    let base = 0x51D0 + 2 * (g as u64 - 1);
                    let plan =
                        FaultPlan::none().with_reorder(0.20, ms(4)).with_seed(seed ^ base);
                    rt.set_fault_plan(&format!("f{g}"), &format!("s{g}"), plan.clone());
                    rt.set_fault_plan(
                        &format!("s{g}"),
                        &format!("f{g}"),
                        plan.with_seed(seed ^ (base + 1)),
                    );
                }
            }

            let repair_shared = Arc::clone(&sh);
            let sup = rt.supervise(SupervisorConfig {
                poll: ms(20),
                quorum: 2,
                confirm_polls: 2,
                verify_timeout: ms(500),
                fence_on_reconfigure: fence,
                policy: RepairPolicy::new().on(
                    FailureClass::Partition,
                    vec![RepairAction::Reconfigure(Arc::new(move |_rt, inst| {
                        // Promote the partitioned group's spare; the
                        // target composes every promotion so far.
                        if let Some(g) =
                            inst.strip_prefix('o').and_then(|v| v.parse::<usize>().ok())
                        {
                            repair_shared.promoted.lock()[g - 1] = true;
                        }
                        let flags = repair_shared.promoted.lock().clone();
                        let target = csaw_core::compile(
                            supervised_failover_groups(repair_shared.n, &flags),
                            &LoadConfig::new(),
                        )
                        .unwrap();
                        (target, ReconfigSpec::default())
                    }))],
                ),
                ..SupervisorConfig::default()
            });
            *sh.sup.lock() = Some(sup);
            rt
        }) as Box<dyn Fn() -> Runtime>
    };

    let check = {
        let sh = Arc::clone(&shared);
        Box::new(move |rt: &Runtime, _out: &SimOutcome| -> Verdict {
            // Lost-acked-write invariant, stated soundly for an
            // *anonymous* reply protocol, per group. The front's reply
            // carries no request identity and the wait abandons late
            // replies, so per-window attribution of acks to commands
            // is unsound by construction. What *is* guaranteed: every
            // restored `+OK` consumed one `Reply` assertion, which
            // came from one `reply` call, which a back-end only makes
            // after durably serving one scripted SET — and the unique
            // keys are never overwritten or deleted. So with
            // at-most-once links the number of restored OK acks can
            // never exceed the number of durable per-store serve
            // footprints. An excess means an ack with no durable
            // write behind it: a genuinely lost acknowledged write.
            let stores = sh.stores.lock();
            let mut lost_acked = 0usize;
            let mut detail = String::new();
            for g in 1..=sh.n {
                let ok_acks =
                    sh.replies[g - 1].lock().iter().filter(|r| matches!(r, Reply::Ok)).count();
                let footprints = |store: &Arc<Mutex<Store>>| -> usize {
                    let s = store.lock();
                    FO_SET_WINDOWS
                        .iter()
                        .filter(|i| {
                            s.get(&fo_key(g, **i))
                                .is_some_and(|v| v == fo_value(g, **i).into_bytes())
                        })
                        .count()
                };
                let (so, ss) = &stores[g - 1];
                let durable = footprints(so) + footprints(ss);
                if ok_acks > durable {
                    lost_acked += ok_acks - durable;
                    detail =
                        format!("group {g}: {ok_acks} OK acks, {durable} durable serves");
                }
            }
            let poke = sh.poke_reply_before.lock();
            let stale_applied = (1..=sh.cut).any(|g| {
                poke[g - 1] == Some(false)
                    && rt.peek_prop(&format!("f{g}"), "junction", "Reply") == Some(true)
            });
            let sup_guard = sh.sup.lock();
            let sup = sup_guard.as_ref().expect("scene runtime has a supervisor");
            let records = sup.records();
            let repairs = repair_lines(&records);
            let repair_ok = (1..=sh.cut)
                .all(|g| records.iter().any(|r| r.instance == format!("o{g}") && r.ok));
            let fenced_sends = rt.link_stats().fenced;
            let held_at_end = rt.held_instances().len();
            // The zombie pokes and heal-window retries inject applies
            // with no matching send in the trace.
            let (conformance, jsonl) = check_runtime_trace(rt, true);

            let failure = if lost_acked > 0 {
                Some(format!("lost {lost_acked} acked write(s): {detail}"))
            } else if stale_applied {
                Some("split-brain: zombie reply applied after heal".to_string())
            } else if held_at_end > 0 {
                Some(format!("{held_at_end} instance(s) left held"))
            } else if !conformance.ok {
                Some(format!("conformance: {}", conformance.detail))
            } else {
                None
            };
            Verdict {
                acked: sh.acked.load(Ordering::SeqCst),
                lost_acked,
                stale_applied,
                repair_ok,
                fenced_sends,
                held_at_end,
                repairs,
                conformance,
                failure,
                trace_jsonl: jsonl,
            }
        }) as Box<dyn Fn(&Runtime, &SimOutcome) -> Verdict>
    };

    Scene { exec, boot_instances, fresh, check }
}

// =====================================================================
// Overload scenario: open-loop storms under ingress budgets
// =====================================================================

/// Per-request ingress budget `d` (virtual): the `otherwise[d]`
/// deadline the interpreter stamps onto every storm send. Sized so a
/// shallow outbox queue is survivable but a deep one is not — both the
/// admission gate and the arrival-prediction shed get exercised.
const OV_BUDGET: Duration = Duration::from_millis(30);
/// Storm window (virtual ms): units are offered in `[start, end)`.
const OV_STORM_START_MS: u64 = 30;
const OV_STORM_END_MS: u64 = 430;
/// Saturated-route bandwidth (bytes/s). One unit is a payload + a
/// `Run` trigger (~85 wire bytes ≈ 11 ms serialized), so the base
/// inter-arrival of [`ov_spacing_us`] offers ~4× a route's capacity —
/// dense enough that the bounded outboxes stay pinned full for the
/// whole storm (a half-full queue would let fence-off heartbeats
/// slip through and mask the priority lane's absence).
const OV_BANDWIDTH: u64 = 8_000;

/// Storm inter-arrival in µs for storm multiplier `k` (~4k× saturation).
fn ov_spacing_us(k: u64) -> u64 {
    (2_750 / k).max(250)
}

/// The pump's host side: synthesizes one unique unit per `save`.
struct StormPump {
    prefix: String,
    next: usize,
}

impl InstanceApp for StormPump {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        self.next += 1;
        Ok(Value::Bytes(format!("{}:{}", self.prefix, self.next).into_bytes()))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// A sink's host side: counts *distinct* restored units — the
/// scenario's goodput meter. (An update can be restored twice when a
/// shed payload's surviving trigger re-activates the junction on a
/// stale datum; distinctness keeps the meter sound.)
struct StormSink {
    seen: std::collections::HashSet<Vec<u8>>,
    count: Arc<AtomicUsize>,
}

impl InstanceApp for StormSink {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, key: &str) -> Result<Value, String> {
        Err(format!("sink has nothing to save for `{key}`"))
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        let unit = value.as_bytes().ok_or("unit payload must be bytes")?;
        if self.seen.insert(unit.to_vec()) {
            self.count.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// Driver-shared state for the overload scenario.
struct OvShared {
    n: usize,
    /// Storm units offered per group (injections fired; probes excluded).
    offered: Vec<Arc<AtomicUsize>>,
    /// Distinct units landed at each group's preferred sink `k{g}`.
    goodput: Vec<Arc<AtomicUsize>>,
    /// `goodput` snapshot taken after the storm drained, before probes.
    pre_probe: Mutex<Vec<usize>>,
    /// Times the supervisor's repair ladder fired — must stay 0:
    /// nothing in this scenario ever actually fails.
    false_repairs: AtomicUsize,
    sup: Mutex<Option<Supervisor>>,
    boot: CompiledProgram,
}

fn wire_overload(spec: &ScheduleSpec) -> Scene {
    let n = spec.shards;
    let k = spec.replicas as u64;
    let boot = csaw_core::compile(storm_pipeline(n), &LoadConfig::new()).unwrap();
    let boot_instances: Vec<String> = {
        let mut v: Vec<String> = (1..=n)
            .flat_map(|g| {
                let (p, kk, x) = storm_names(g);
                [p, kk, x]
            })
            .collect();
        v.sort();
        v
    };

    let shared = Arc::new(OvShared {
        n,
        offered: (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect(),
        goodput: (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect(),
        pre_probe: Mutex::new(vec![0; n]),
        false_repairs: AtomicUsize::new(0),
        sup: Mutex::new(None),
        boot,
    });

    let mut exec = SimExecutor::new(SimConfig {
        seed: spec.seed,
        max_steps: spec.max_steps,
        horizon: spec.horizon,
        max_nested: 8,
    });

    // The storm: open-loop — the pump never blocks, so each injection
    // is one quick invoke regardless of how congested the links are,
    // and the offered rate is set by the script, not by completions.
    let spacing = ov_spacing_us(k);
    let storm_count = (OV_STORM_END_MS - OV_STORM_START_MS) * 1000 / spacing;
    for g in 1..=n {
        for i in 0..storm_count {
            let sh = Arc::clone(&shared);
            let at = Duration::from_micros(
                OV_STORM_START_MS * 1000 + i * spacing + 137 * (g as u64 - 1),
            );
            exec.inject_at(at, &format!("storm-{g}-{i}"), move |rt| {
                sh.offered[g - 1].fetch_add(1, Ordering::SeqCst);
                let deadline = rt.clock().now() + OV_BUDGET;
                let _ = rt.invoke_deadline(&format!("p{g}"), "junction", deadline);
            });
        }
    }

    // Post-storm probes: the congestion-collapse oracle. Once the
    // storm stops, the bounded queues must have drained — a fresh
    // trickle of units must land comfortably inside the same budget.
    {
        let sh = Arc::clone(&shared);
        exec.inject_at(ms(460), "probe-baseline", move |_rt| {
            let mut pre = sh.pre_probe.lock();
            for g in 1..=sh.n {
                pre[g - 1] = sh.goodput[g - 1].load(Ordering::SeqCst);
            }
        });
    }
    for g in 1..=n {
        for (j, at) in [470u64, 485, 500].into_iter().enumerate() {
            exec.inject_at(
                ms(at + 2 * (g as u64 - 1)),
                &format!("probe-{g}-{j}"),
                move |rt| {
                    let deadline = rt.clock().now() + OV_BUDGET;
                    let _ = rt.invoke_deadline(&format!("p{g}"), "junction", deadline);
                },
            );
        }
    }

    let lane = fence_enabled(spec);
    let fresh = {
        let sh = Arc::clone(&shared);
        Box::new(move || {
            for c in sh.offered.iter().chain(sh.goodput.iter()) {
                c.store(0, Ordering::SeqCst);
            }
            *sh.pre_probe.lock() = vec![0; sh.n];
            sh.false_repairs.store(0, Ordering::SeqCst);
            if let Some(old) = sh.sup.lock().take() {
                old.stop();
            }

            let rt = Runtime::new(
                &sh.boot,
                RuntimeConfig {
                    default_link: LinkKind::Sim { latency: ms(1), bandwidth: 0 },
                    clock: Clock::simulated(),
                    overload: OverloadConfig {
                        // Must bind *before* the 30 ms budget's
                        // admission prediction (~5 queued packets)
                        // does, so saturated routes actually refuse
                        // admission — that refusal is what the
                        // priority lane shields heartbeats from.
                        outbox_bound: 3,
                        mailbox_bound: 64,
                        // Budgets come from the DSL (`otherwise[d]`),
                        // not a network-wide default.
                        ingress_deadline: None,
                        shed_expired: true,
                        priority_lane: lane,
                    },
                    ..RuntimeConfig::default()
                },
            );
            rt.set_tracing(true);
            // Fail fast at a full outbox: one sub-millisecond retry,
            // then surface `QueueFull` to the pump's `otherwise[d]`
            // handler. Sized so a whole storm activation costs less
            // virtual time than the injection spacing — the walk must
            // come back up to top level between injections, or
            // supervisor polls (top-level-only events) starve for the
            // entire storm. The default wall-clock policy would burn
            // ~100 virtual ms per refused send.
            rt.set_retry_policy(RetryPolicy {
                enabled: true,
                max_retries: 1,
                base: Duration::from_micros(100),
                cap: Duration::from_micros(200),
            });
            for g in 1..=sh.n {
                let (p, kk, x) = storm_names(g);
                rt.bind_app(
                    &p,
                    Box::new(StormPump { prefix: format!("u{g}"), next: 0 }),
                );
                rt.bind_app(
                    &kk,
                    Box::new(StormSink {
                        seen: Default::default(),
                        count: Arc::clone(&sh.goodput[g - 1]),
                    }),
                );
                // The aux sink receives the same fan-out but is not
                // the goodput meter; it exists as the second saturated
                // route and the second live observer of the pump.
                rt.bind_app(
                    &x,
                    Box::new(StormSink {
                        seen: Default::default(),
                        count: Arc::new(AtomicUsize::new(0)),
                    }),
                );
                rt.set_policy(&p, "junction", Policy::OnDemand);
                rt.set_link(&p, &kk, LinkKind::Sim { latency: ms(1), bandwidth: OV_BANDWIDTH });
                rt.set_link(&p, &x, LinkKind::Sim { latency: ms(1), bandwidth: OV_BANDWIDTH });
            }
            rt.run_main(vec![Value::Duration(OV_BUDGET)]).unwrap();
            // Suspicion sizing: with the lane ON a beat is never
            // refused, only queued behind ≤ outbox_bound data packets
            // (≤ ~20 ms at this bandwidth), so the max inter-beat gap
            // an observer sees is ~interval + queueing ≈ 40 ms — 60 ms
            // cannot false-suspect. With the lane OFF, refused beats
            // open storm-long gaps that blow way past it.
            // One 60 ms window (`k_missed: 1` — the detector requires
            // `suspicion × k_missed` of silence): three consecutive
            // refused beats on a route open it.
            rt.enable_heartbeats(HeartbeatConfig {
                interval: ms(20),
                suspicion: ms(60),
                k_missed: 1,
            });

            // Any repair is a false one: the scenario never partitions,
            // crashes, or stops anything. The ladder records the
            // misclassification and "repairs" with the identity program.
            let repair_shared = Arc::clone(&sh);
            let repair = RepairAction::Reconfigure(Arc::new(move |_rt, _inst| {
                repair_shared.false_repairs.fetch_add(1, Ordering::SeqCst);
                (repair_shared.boot.clone(), ReconfigSpec::default())
            }));
            let sup = rt.supervise(SupervisorConfig {
                poll: ms(10),
                quorum: 2,
                confirm_polls: 2,
                verify_timeout: ms(200),
                fence_on_reconfigure: true,
                policy: RepairPolicy::new()
                    .on(FailureClass::Partition, vec![repair.clone()])
                    .on(FailureClass::Crash, vec![repair]),
                ..SupervisorConfig::default()
            });
            *sh.sup.lock() = Some(sup);
            rt
        }) as Box<dyn Fn() -> Runtime>
    };

    let check = {
        let sh = Arc::clone(&shared);
        Box::new(move |rt: &Runtime, out: &SimOutcome| -> Verdict {
            let goodput: Vec<usize> =
                (1..=sh.n).map(|g| sh.goodput[g - 1].load(Ordering::SeqCst)).collect();
            let offered: Vec<usize> =
                (1..=sh.n).map(|g| sh.offered[g - 1].load(Ordering::SeqCst)).collect();
            let acked: usize = goodput.iter().sum();
            let stats = rt.link_stats();

            let sup_guard = sh.sup.lock();
            let sup = sup_guard.as_ref().expect("scene runtime has a supervisor");
            let records = sup.records();
            let repairs = repair_lines(&records);
            // `Slow` (a single suspecting observer) carries no repair
            // ladder; anything stronger on a healthy fleet is a false
            // crash classification.
            let false_class = sh.false_repairs.load(Ordering::SeqCst) > 0
                || records.iter().any(|r| r.class != FailureClass::Slow);
            let repair_ok = records.is_empty();
            let fenced_sends = stats.fenced;
            let held_at_end = rt.held_instances().len();
            let (conformance, jsonl) = check_runtime_trace(rt, false);

            // Strict fail-fast admission sheds *almost everything* at
            // 4× offered: once the outbox pins at its bound, each
            // drained slot is grabbed by the next unit's payload, so
            // payload+trigger pairs complete only at the storm's edges
            // (~0–1 units in-storm). The floor therefore rejects
            // near-zero *totals* — a healthy run still banks the
            // storm-edge pair plus the post-storm probes (observed
            // 3–4), while congestion collapse (wedged queues, probes
            // lost) lands 0–1. The quantitative goodput-vs-offered
            // curves live in the open-loop bench, not here.
            let floor = 2;
            let worst =
                goodput.iter().copied().enumerate().min_by_key(|(_, c)| *c).unwrap_or((0, 0));
            let pre = sh.pre_probe.lock().clone();
            let probes_ok =
                (1..=sh.n).all(|g| goodput[g - 1].saturating_sub(pre[g - 1]) >= 2);
            let engaged = stats.shed + stats.queue_full;

            let failure = if false_class {
                Some(format!(
                    "false crash classification: supervisor repaired healthy instance(s) [{}]",
                    repairs.join("; ")
                ))
            } else if !out.truncated && worst.1 < floor {
                Some(format!(
                    "goodput collapse: group {} landed {} unit(s) (< floor {floor}) of {} offered",
                    worst.0 + 1,
                    worst.1,
                    offered.get(worst.0).copied().unwrap_or(0)
                ))
            } else if !out.truncated && !probes_ok {
                Some("congestion collapse: post-storm probe units failed to land".to_string())
            } else if !out.truncated && engaged == 0 {
                Some("vacuous: the storm never engaged overload control".to_string())
            } else if held_at_end > 0 {
                Some(format!("{held_at_end} instance(s) left held"))
            } else if !conformance.ok {
                Some(format!("conformance: {}", conformance.detail))
            } else {
                None
            };
            Verdict {
                acked,
                lost_acked: 0,
                stale_applied: false,
                repair_ok,
                fenced_sends,
                held_at_end,
                repairs,
                conformance,
                failure,
                trace_jsonl: jsonl,
            }
        }) as Box<dyn Fn(&Runtime, &SimOutcome) -> Verdict>
    };

    Scene { exec, boot_instances, fresh, check }
}

// =====================================================================
// Sharded scenarios: reshard (one wave) and churn (K waves)
// =====================================================================

/// Scan for a key that provably re-homes between `from_n` and `to_n`
/// shards — written first, it guarantees every wave migrates at least
/// one entry (and the fence-off copy bug double-homes it).
fn mover_key(from_n: usize, to_n: usize) -> String {
    (0..)
        .map(|j| format!("mv{j}"))
        .find(|k| shard_of(k, from_n) != shard_of(k, to_n))
        .expect("some key re-homes between distinct shard counts")
}

/// One scripted request: key, value, time, plus the driver-side flag
/// recording whether its invoke saw a reply (set during the run).
struct ShardRequest {
    key: String,
    value: Vec<u8>,
    at: Duration,
    acked: AtomicBool,
}

/// Driver-shared state for the sharded scenarios.
struct ShardShared {
    base_n: usize,
    max_n: usize,
    /// `(at, routing_n)` per scripted reconfiguration wave.
    waves: Vec<(Duration, usize)>,
    requests_q: Arc<Mutex<std::collections::VecDeque<Command>>>,
    replies_q: Arc<Mutex<std::collections::VecDeque<Reply>>>,
    reqs: Vec<ShardRequest>,
    stores: Mutex<Vec<Arc<Mutex<Store>>>>,
    /// Routing shard count currently live; waves compare-and-advance
    /// it. Shrink waves narrow only the routing formula — de-routed
    /// back-ends stay alive (and drained), so instance lifetimes are
    /// monotone and the conformance epoch rule applies cleanly.
    cur_n: Mutex<usize>,
    /// Instances currently materialized (monotone: `max` of base and
    /// every landed routing target).
    live_n: Mutex<usize>,
    /// `(routing_n, instances_n)` of every wave that landed, in order.
    landed: Mutex<Vec<(usize, usize)>>,
    /// First wave-time re-homing violation, recorded atomically right
    /// after the wave's migrate ran: at that instant nothing scripted
    /// can be in flight (injections are single executor steps), so
    /// every durable key must sit at exactly its new home. Checked here
    /// rather than at the horizon because a walk-deferred back-end
    /// pass may legitimately serve a timed-out request *after* a later
    /// wave, parking its key off-home on a green run.
    homing: Mutex<Option<String>>,
    /// How many wave injections actually fired this run. A shrunk
    /// replay can suppress a wave's `inj:` record entirely; the
    /// waves-landed liveness oracle only counts waves that fired.
    waves_fired: AtomicUsize,
    programs: BTreeMap<usize, CompiledProgram>,
}

fn wire_sharded(spec: &ScheduleSpec) -> Scene {
    let base_n = spec.shards;
    let waves: Vec<(Duration, usize)> = match spec.scenario {
        Scenario::Reshard => vec![(ms(300), base_n + spec.replicas)],
        Scenario::Churn => (1..=spec.replicas as u64)
            .map(|w| {
                (ms(250 + 200 * (w - 1)), if w % 2 == 1 { base_n + 1 } else { base_n })
            })
            .collect(),
        _ => unreachable!("wire_sharded only handles sharded scenarios"),
    };
    let max_n = waves.iter().map(|(_, n)| *n).max().unwrap().max(base_n);
    let mut programs = BTreeMap::new();
    for n in base_n..=max_n {
        programs.insert(
            n,
            csaw_core::compile(
                sharding(&ShardingSpec { n_backends: n, ..ShardingSpec::default() }),
                &LoadConfig::new(),
            )
            .unwrap(),
        );
    }
    let boot_instances: Vec<String> = {
        let mut v: Vec<String> = (1..=base_n).map(|i| format!("Bck{i}")).collect();
        v.push("Fnt".to_string());
        v.sort();
        v
    };

    // Scripted unique-key SETs on a 40 ms cadence, keeping a quiet
    // margin before each wave: the margin exceeds the request deadline
    // plus chaos delay, so nothing scripted is in flight when a wave
    // reconfigures and the store-level oracles below stay sound. The
    // first request writes a scanned mover key so every wave provably
    // re-homes at least one entry.
    let horizon_ms = spec.horizon.as_millis() as u64;
    let mut reqs: Vec<ShardRequest> = Vec::new();
    let mover = mover_key(base_n, waves[0].1);
    let mut t = 20u64;
    while t + 250 <= horizon_ms {
        let quiet = waves.iter().any(|(w, _)| {
            let w = w.as_millis() as u64;
            t + 95 >= w && t <= w + 5
        });
        if !quiet {
            let idx = reqs.len();
            let key = if idx == 0 { mover.clone() } else { format!("k{idx}") };
            reqs.push(ShardRequest {
                key,
                value: format!("v{idx}").into_bytes(),
                at: ms(t),
                acked: AtomicBool::new(false),
            });
        }
        t += 40;
    }

    let shared = Arc::new(ShardShared {
        base_n,
        max_n,
        waves,
        requests_q: Arc::new(Mutex::new(Default::default())),
        replies_q: Arc::new(Mutex::new(Default::default())),
        reqs,
        stores: Mutex::new(Vec::new()),
        cur_n: Mutex::new(base_n),
        live_n: Mutex::new(base_n),
        landed: Mutex::new(Vec::new()),
        homing: Mutex::new(None),
        waves_fired: AtomicUsize::new(0),
        programs,
    });

    let mut exec = SimExecutor::new(SimConfig {
        seed: spec.seed,
        max_steps: spec.max_steps,
        horizon: spec.horizon,
        max_nested: 4,
    });

    for i in 0..shared.reqs.len() {
        let sh = Arc::clone(&shared);
        let at = shared.reqs[i].at;
        exec.inject_at(at, &format!("request-{i}"), move |rt| {
            let r = &sh.reqs[i];
            {
                let mut q = sh.requests_q.lock();
                q.clear();
                q.push_back(Command::Set(r.key.clone(), r.value.clone()));
            }
            let before = sh.replies_q.lock().len();
            let deadline = rt.clock().now() + REQUEST_DEADLINE;
            let _ = rt.invoke_deadline("Fnt", "junction", deadline);
            if sh.replies_q.lock().len() > before {
                r.acked.store(true, Ordering::SeqCst);
            }
        });
    }

    let fence = fence_enabled(spec);
    for (w, (at, to_n)) in shared.waves.clone().into_iter().enumerate() {
        let sh = Arc::clone(&shared);
        exec.inject_at(at, &format!("wave-{}-to-{to_n}", w + 1), move |rt| {
            let from_n = *sh.cur_n.lock();
            if from_n == to_n {
                return;
            }
            sh.waves_fired.fetch_add(1, Ordering::SeqCst);
            let live = *sh.live_n.lock();
            let inst_n = live.max(to_n);
            let mut rs = ReconfigSpec::default();
            let mut front = ShardFrontApp::new(ShardMode::ByKey, to_n);
            front.requests = Arc::clone(&sh.requests_q);
            front.replies = Arc::clone(&sh.replies_q);
            rs.apps.push(("Fnt".to_string(), Box::new(front)));
            let stores = sh.stores.lock().clone();
            for i in live + 1..=inst_n {
                rs.apps.push((
                    format!("Bck{i}"),
                    Box::new(ServerApp::with_store(Arc::clone(&stores[i - 1]))),
                ));
                rs.start.push((
                    format!("Bck{i}"),
                    vec![(
                        None,
                        vec![
                            Arg::Junction(JRef::qualified("Fnt", "junction")),
                            Arg::Value(Value::Duration(FRONT_TIMEOUT)),
                        ],
                    )],
                ));
            }
            let mig = stores.clone();
            rs.migrate = Some(Box::new(move |ctx| {
                let (mut moved, mut bytes) = (0u64, 0u64);
                for idx in 0..mig.len() {
                    let entries = mig[idx].lock().drain_entries();
                    for (k, v) in entries {
                        let home = shard_of(&k, to_n);
                        if home != idx {
                            moved += 1;
                            bytes += v.len() as u64;
                            if !fence {
                                // The deliberate fence-off bug: the old
                                // home keeps serving its copy of a
                                // re-homed entry.
                                mig[idx].lock().set(&k, v.clone());
                            }
                        }
                        mig[home].lock().set(&k, v);
                    }
                }
                ctx.note_moved(moved, bytes);
                Ok(())
            }));
            if rt.reconfigure(&sh.programs[&inst_n], rs).is_ok() {
                *sh.cur_n.lock() = to_n;
                *sh.live_n.lock() = inst_n;
                sh.landed.lock().push((to_n, inst_n));
                // Atomic post-migrate snapshot: every durable scripted
                // key sits at exactly its `shard_of(key, to_n)` home.
                let mut viol = sh.homing.lock();
                if viol.is_none() {
                    'keys: for r in &sh.reqs {
                        let homes: Vec<usize> = (0..sh.max_n)
                            .filter(|i| stores[*i].lock().get(&r.key).is_some())
                            .collect();
                        if homes.is_empty() {
                            continue;
                        }
                        let home = shard_of(&r.key, to_n);
                        if homes.len() > 1 {
                            *viol = Some(format!(
                                "key {} double-homed after re-homing to {to_n} \
                                 shards: stores {:?}",
                                r.key,
                                homes.iter().map(|i| i + 1).collect::<Vec<_>>()
                            ));
                            break 'keys;
                        }
                        if homes[0] != home {
                            *viol = Some(format!(
                                "key {} homed at store {} instead of {} after \
                                 re-homing to {to_n} shards",
                                r.key,
                                homes[0] + 1,
                                home + 1
                            ));
                            break 'keys;
                        }
                    }
                }
            }
        });
    }

    let fresh = {
        let sh = Arc::clone(&shared);
        Box::new(move || {
            sh.requests_q.lock().clear();
            sh.replies_q.lock().clear();
            for r in &sh.reqs {
                r.acked.store(false, Ordering::SeqCst);
            }
            *sh.cur_n.lock() = sh.base_n;
            *sh.live_n.lock() = sh.base_n;
            sh.landed.lock().clear();
            *sh.homing.lock() = None;
            sh.waves_fired.store(0, Ordering::SeqCst);

            let rt = Runtime::new(
                &sh.programs[&sh.base_n],
                RuntimeConfig {
                    default_link: LinkKind::Sim { latency: ms(1), bandwidth: 0 },
                    clock: Clock::simulated(),
                    ..RuntimeConfig::default()
                },
            );
            rt.set_tracing(true);
            let mut front = ShardFrontApp::new(ShardMode::ByKey, sh.base_n);
            front.requests = Arc::clone(&sh.requests_q);
            front.replies = Arc::clone(&sh.replies_q);
            rt.bind_app("Fnt", Box::new(front));
            // One store handle per *maximum* shard: joiners bind to
            // their pre-created store when a grow wave adds them.
            let mut stores = Vec::new();
            for i in 1..=sh.max_n {
                let store = Arc::new(Mutex::new(Store::new()));
                stores.push(Arc::clone(&store));
                if i <= sh.base_n {
                    rt.bind_app(&format!("Bck{i}"), Box::new(ServerApp::with_store(store)));
                }
            }
            *sh.stores.lock() = stores;
            rt.set_policy("Fnt", "junction", Policy::OnDemand);
            rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();
            // Deliberately no link chaos here: the sharded front's
            // two-message request protocol (`n` payload, then `Work`)
            // assumes FIFO links, and reordering makes a back-end
            // serve a stale payload while the front acks the new
            // request — an ack without a serve, red by construction.
            // The explorer's walk/DFS over pump and pass orderings is
            // the nondeterminism under test.
            rt
        }) as Box<dyn Fn() -> Runtime>
    };

    let check = {
        let sh = Arc::clone(&shared);
        Box::new(move |rt: &Runtime, out: &SimOutcome| -> Verdict {
            let stores = sh.stores.lock();
            let landed = sh.landed.lock().clone();

            // Wave-time re-homing violations (recorded atomically right
            // after each migrate) take precedence: they are the
            // exactly-once-re-home oracle.
            let mut failure: Option<String> = sh.homing.lock().clone();

            // Horizon-time double-home: every serve writes a key into
            // exactly one store and a green migrate *moves* entries, so
            // two live copies can only come from the copy bug. (A
            // single off-home copy at the horizon is NOT a violation: a
            // walk-deferred pass may serve a timed-out request after
            // the last wave through the old routing.)
            if failure.is_none() {
                for r in &sh.reqs {
                    let homes: Vec<usize> = (0..sh.max_n)
                        .filter(|i| stores[*i].lock().get(&r.key).is_some())
                        .collect();
                    if homes.len() > 1 {
                        failure = Some(format!(
                            "key {} double-homed at horizon: stores {:?}",
                            r.key,
                            homes.iter().map(|i| i + 1).collect::<Vec<_>>()
                        ));
                        break;
                    }
                }
            }

            // Counting bound on lost acked writes: each restored `+OK`
            // consumed one reply, each reply follows one durable serve,
            // and each scripted key is served at most once — so OK
            // acks can never exceed durable scripted keys. (The
            // per-request `acked` flags are reporting only: a deferred
            // reply pump can land inside the *next* request's window,
            // so per-request attribution is approximate.)
            let ok_acks =
                sh.replies_q.lock().iter().filter(|r| matches!(r, Reply::Ok)).count();
            let durable = sh
                .reqs
                .iter()
                .filter(|r| {
                    (0..sh.max_n)
                        .any(|i| stores[i].lock().get(&r.key).is_some_and(|v| v == r.value))
                })
                .count();
            let lost_acked = ok_acks.saturating_sub(durable);
            let acked =
                sh.reqs.iter().filter(|r| r.acked.load(Ordering::SeqCst)).count();
            let held_at_end = rt.held_instances().len();
            let fenced_sends = rt.link_stats().fenced;
            let (conformance, jsonl) = check_runtime_trace(rt, false);
            // Count against waves that actually fired: a shrunk replay
            // can suppress a wave injection, and a wave that never
            // fired owes no reconfiguration.
            let waves_fired = sh.waves_fired.load(Ordering::SeqCst);
            let repair_ok = landed.len() == waves_fired;
            let repairs: Vec<String> = landed
                .iter()
                .map(|(route, inst)| format!("wave -> {route} shards ({inst} instances) ok"))
                .collect();

            let failure = failure
                .or_else(|| {
                    (lost_acked > 0).then(|| {
                        format!(
                            "lost {lost_acked} acked write(s): {ok_acks} OK acks, \
                             {durable} durable keys"
                        )
                    })
                })
                .or_else(|| {
                    (held_at_end > 0).then(|| format!("{held_at_end} instance(s) left held"))
                })
                .or_else(|| {
                    (!conformance.ok).then(|| format!("conformance: {}", conformance.detail))
                })
                .or_else(|| {
                    (!out.truncated && !repair_ok).then(|| {
                        format!(
                            "only {}/{waves_fired} reconfiguration waves landed",
                            landed.len()
                        )
                    })
                });
            Verdict {
                acked,
                lost_acked,
                stale_applied: false,
                repair_ok,
                fenced_sends,
                held_at_end,
                repairs,
                conformance,
                failure,
                trace_jsonl: jsonl,
            }
        }) as Box<dyn Fn(&Runtime, &SimOutcome) -> Verdict>
    };

    Scene { exec, boot_instances, fresh, check }
}

// =====================================================================
// Planner-driven phased resharding
// =====================================================================

/// Driver-shared state for the planned scenario.
struct PlShared {
    base_n: usize,
    max_n: usize,
    /// `(at, routing_n)` per scripted planner wave.
    waves: Vec<(Duration, usize)>,
    requests_q: Arc<Mutex<std::collections::VecDeque<Command>>>,
    replies_q: Arc<Mutex<std::collections::VecDeque<Reply>>>,
    reqs: Vec<ShardRequest>,
    stores: Mutex<Vec<Arc<Mutex<Store>>>>,
    cur_n: Mutex<usize>,
    /// Per-wave summary lines (`wave -> N shards in P phases ok`).
    wave_log: Mutex<Vec<String>>,
    /// First plan the executor refused (`check_plan` red on a wave).
    plan_bad: Mutex<Option<String>>,
    /// First executed phase that quiesced more than the bound allows.
    over_quiesce: Mutex<Option<String>>,
    /// First post-wave re-homing violation (see [`ShardShared::homing`]).
    homing: Mutex<Option<String>>,
    waves_fired: AtomicUsize,
    waves_landed: AtomicUsize,
    programs: BTreeMap<usize, CompiledProgram>,
}

fn wire_planned(spec: &ScheduleSpec) -> Scene {
    let base_n = spec.shards;
    let grow_n = base_n + spec.replicas;
    let max_n = grow_n;
    // Grow to N+K mid-traffic, then shrink back to N with true
    // instance removal — both as phased plans under the quiesce bound.
    let waves: Vec<(Duration, usize)> = vec![(ms(300), grow_n), (ms(600), base_n)];
    let constraints = PlanConstraints::max_quiesce(1);

    let mut programs = BTreeMap::new();
    for n in [base_n, grow_n] {
        programs.insert(
            n,
            csaw_core::compile(
                sharding(&ShardingSpec { n_backends: n, ..ShardingSpec::default() }),
                &LoadConfig::new(),
            )
            .unwrap(),
        );
    }
    let boot_instances: Vec<String> = {
        let mut v: Vec<String> = (1..=base_n).map(|i| format!("Bck{i}")).collect();
        v.push("Fnt".to_string());
        v.sort();
        v
    };

    // Same scripted cadence and quiet margins as the sharded
    // scenarios: nothing is in flight while a wave's phases run, so
    // the store-level oracles stay sound across every phase boundary.
    let horizon_ms = spec.horizon.as_millis() as u64;
    let mut reqs: Vec<ShardRequest> = Vec::new();
    let mover = mover_key(base_n, grow_n);
    let mut t = 20u64;
    while t + 250 <= horizon_ms {
        let quiet = waves.iter().any(|(w, _)| {
            let w = w.as_millis() as u64;
            t + 95 >= w && t <= w + 5
        });
        if !quiet {
            let idx = reqs.len();
            let key = if idx == 0 { mover.clone() } else { format!("k{idx}") };
            reqs.push(ShardRequest {
                key,
                value: format!("v{idx}").into_bytes(),
                at: ms(t),
                acked: AtomicBool::new(false),
            });
        }
        t += 40;
    }

    let shared = Arc::new(PlShared {
        base_n,
        max_n,
        waves,
        requests_q: Arc::new(Mutex::new(Default::default())),
        replies_q: Arc::new(Mutex::new(Default::default())),
        reqs,
        stores: Mutex::new(Vec::new()),
        cur_n: Mutex::new(base_n),
        wave_log: Mutex::new(Vec::new()),
        plan_bad: Mutex::new(None),
        over_quiesce: Mutex::new(None),
        homing: Mutex::new(None),
        waves_fired: AtomicUsize::new(0),
        waves_landed: AtomicUsize::new(0),
        programs,
    });

    let mut exec = SimExecutor::new(SimConfig {
        seed: spec.seed,
        max_steps: spec.max_steps,
        horizon: spec.horizon,
        max_nested: 4,
    });

    for i in 0..shared.reqs.len() {
        let sh = Arc::clone(&shared);
        let at = shared.reqs[i].at;
        exec.inject_at(at, &format!("request-{i}"), move |rt| {
            let r = &sh.reqs[i];
            {
                let mut q = sh.requests_q.lock();
                q.clear();
                q.push_back(Command::Set(r.key.clone(), r.value.clone()));
            }
            let before = sh.replies_q.lock().len();
            let deadline = rt.clock().now() + REQUEST_DEADLINE;
            let _ = rt.invoke_deadline("Fnt", "junction", deadline);
            if sh.replies_q.lock().len() > before {
                r.acked.store(true, Ordering::SeqCst);
            }
        });
    }

    let fence = fence_enabled(spec);
    for (w, (at, to_n)) in shared.waves.clone().into_iter().enumerate() {
        let sh = Arc::clone(&shared);
        let constraints = constraints.clone();
        exec.inject_at(at, &format!("plan-wave-{}-to-{to_n}", w + 1), move |rt| {
            let from_n = *sh.cur_n.lock();
            if from_n == to_n {
                return;
            }
            sh.waves_fired.fetch_add(1, Ordering::SeqCst);
            let a = rt.current_program();
            let b = &sh.programs[&to_n];

            // The deliberate fence-off bug: a constraint-violating
            // phase ordering (break-before-make, unbounded chunks)
            // instead of the real planner. The plan-validity checker
            // is the oracle that must catch it.
            let plan = if fence {
                match plan_reconfiguration(&a, b, &constraints) {
                    Ok(p) => p,
                    Err(e) => {
                        let mut bad = sh.plan_bad.lock();
                        if bad.is_none() {
                            *bad = Some(format!("wave {} unplannable: {e}", w + 1));
                        }
                        return;
                    }
                }
            } else {
                plan_break_before_make(&a, b, &constraints)
            };

            let stores = sh.stores.lock().clone();
            let (req_q, rep_q) = (Arc::clone(&sh.requests_q), Arc::clone(&sh.replies_q));
            let report = rt.reconfigure_plan(&plan, |phase| {
                let mut rs = ReconfigSpec::default();
                for added in &phase.diff.added {
                    let i: usize = added
                        .strip_prefix("Bck")
                        .and_then(|s| s.parse().ok())
                        .expect("planned scenario only adds Bck shards");
                    rs.apps.push((
                        added.clone(),
                        Box::new(ServerApp::with_store(Arc::clone(&stores[i - 1]))),
                    ));
                    rs.start.push((
                        added.clone(),
                        vec![(
                            None,
                            vec![
                                Arg::Junction(JRef::qualified("Fnt", "junction")),
                                Arg::Value(Value::Duration(FRONT_TIMEOUT)),
                            ],
                        )],
                    ));
                }
                if phase.diff.changed.iter().any(|c| c.name == "Fnt") {
                    let mut front = ShardFrontApp::new(ShardMode::ByKey, to_n);
                    front.requests = Arc::clone(&req_q);
                    front.replies = Arc::clone(&rep_q);
                    rs.apps.push(("Fnt".to_string(), Box::new(front)));
                    // Re-home the keyspace in the same phase that cuts
                    // the routing over — the front is held, so no
                    // request can race the redistribution.
                    let mig = stores.clone();
                    rs.migrate = Some(Box::new(move |ctx| {
                        let (mut moved, mut bytes) = (0u64, 0u64);
                        for idx in 0..mig.len() {
                            let entries = mig[idx].lock().drain_entries();
                            for (k, v) in entries {
                                let home = shard_of(&k, to_n);
                                if home != idx {
                                    moved += 1;
                                    bytes += v.len() as u64;
                                }
                                mig[home].lock().set(&k, v);
                            }
                        }
                        ctx.note_moved(moved, bytes);
                        Ok(())
                    }));
                }
                rs
            });
            let report = match report {
                Ok(report) => report,
                Err(verdict) => {
                    let mut bad = sh.plan_bad.lock();
                    if bad.is_none() {
                        *bad = Some(format!(
                            "wave {} plan invalid under max_concurrent_quiesce={}: {}",
                            w + 1,
                            constraints.max_concurrent_quiesce,
                            verdict
                        ));
                    }
                    return;
                }
            };

            if report.max_phase_quiesce() > constraints.max_concurrent_quiesce {
                let mut over = sh.over_quiesce.lock();
                if over.is_none() {
                    *over = Some(format!(
                        "wave {} quiesced {} instances in one phase (bound {})",
                        w + 1,
                        report.max_phase_quiesce(),
                        constraints.max_concurrent_quiesce
                    ));
                }
            }

            if report.ok() {
                sh.waves_landed.fetch_add(1, Ordering::SeqCst);
                *sh.cur_n.lock() = to_n;
                sh.wave_log.lock().push(format!(
                    "wave -> {to_n} shards in {} phases ok",
                    report.phases.len()
                ));
                // Atomic post-wave snapshot: every durable scripted key
                // sits at exactly its `shard_of(key, to_n)` home.
                let mut viol = sh.homing.lock();
                if viol.is_none() {
                    'keys: for r in &sh.reqs {
                        let homes: Vec<usize> = (0..sh.max_n)
                            .filter(|i| stores[*i].lock().get(&r.key).is_some())
                            .collect();
                        if homes.is_empty() {
                            continue;
                        }
                        let home = shard_of(&r.key, to_n);
                        if homes.len() > 1 {
                            *viol = Some(format!(
                                "key {} double-homed after planned re-homing to \
                                 {to_n} shards: stores {:?}",
                                r.key,
                                homes.iter().map(|i| i + 1).collect::<Vec<_>>()
                            ));
                            break 'keys;
                        }
                        if homes[0] != home {
                            *viol = Some(format!(
                                "key {} homed at store {} instead of {} after \
                                 planned re-homing to {to_n} shards",
                                r.key,
                                homes[0] + 1,
                                home + 1
                            ));
                            break 'keys;
                        }
                    }
                }
            } else {
                sh.wave_log.lock().push(format!(
                    "wave -> {to_n} shards FAILED at phase {:?}",
                    report.error.as_ref().map(|(i, _)| i)
                ));
            }
        });
    }

    let fresh = {
        let sh = Arc::clone(&shared);
        Box::new(move || {
            sh.requests_q.lock().clear();
            sh.replies_q.lock().clear();
            for r in &sh.reqs {
                r.acked.store(false, Ordering::SeqCst);
            }
            *sh.cur_n.lock() = sh.base_n;
            sh.wave_log.lock().clear();
            *sh.plan_bad.lock() = None;
            *sh.over_quiesce.lock() = None;
            *sh.homing.lock() = None;
            sh.waves_fired.store(0, Ordering::SeqCst);
            sh.waves_landed.store(0, Ordering::SeqCst);

            let rt = Runtime::new(
                &sh.programs[&sh.base_n],
                RuntimeConfig {
                    default_link: LinkKind::Sim { latency: ms(1), bandwidth: 0 },
                    clock: Clock::simulated(),
                    ..RuntimeConfig::default()
                },
            );
            rt.set_tracing(true);
            let mut front = ShardFrontApp::new(ShardMode::ByKey, sh.base_n);
            front.requests = Arc::clone(&sh.requests_q);
            front.replies = Arc::clone(&sh.replies_q);
            rt.bind_app("Fnt", Box::new(front));
            let mut stores = Vec::new();
            for i in 1..=sh.max_n {
                let store = Arc::new(Mutex::new(Store::new()));
                stores.push(Arc::clone(&store));
                if i <= sh.base_n {
                    rt.bind_app(&format!("Bck{i}"), Box::new(ServerApp::with_store(store)));
                }
            }
            *sh.stores.lock() = stores;
            rt.set_policy("Fnt", "junction", Policy::OnDemand);
            rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();
            // No link chaos, for the same FIFO reason as the sharded
            // scenarios.
            rt
        }) as Box<dyn Fn() -> Runtime>
    };

    let check = {
        let sh = Arc::clone(&shared);
        Box::new(move |rt: &Runtime, out: &SimOutcome| -> Verdict {
            let stores = sh.stores.lock();

            // Plan-validity and quiesce-bound oracles take precedence:
            // they are what this scenario exists to judge.
            let mut failure: Option<String> = sh
                .plan_bad
                .lock()
                .clone()
                .or_else(|| sh.over_quiesce.lock().clone())
                .or_else(|| sh.homing.lock().clone());

            if failure.is_none() {
                for r in &sh.reqs {
                    let homes: Vec<usize> = (0..sh.max_n)
                        .filter(|i| stores[*i].lock().get(&r.key).is_some())
                        .collect();
                    if homes.len() > 1 {
                        failure = Some(format!(
                            "key {} double-homed at horizon: stores {:?}",
                            r.key,
                            homes.iter().map(|i| i + 1).collect::<Vec<_>>()
                        ));
                        break;
                    }
                }
            }

            let ok_acks =
                sh.replies_q.lock().iter().filter(|r| matches!(r, Reply::Ok)).count();
            let durable = sh
                .reqs
                .iter()
                .filter(|r| {
                    (0..sh.max_n)
                        .any(|i| stores[i].lock().get(&r.key).is_some_and(|v| v == r.value))
                })
                .count();
            let lost_acked = ok_acks.saturating_sub(durable);
            let acked =
                sh.reqs.iter().filter(|r| r.acked.load(Ordering::SeqCst)).count();
            let held_at_end = rt.held_instances().len();
            let fenced_sends = rt.link_stats().fenced;
            // One epoch per phase that cut: conformance is judged at
            // every phase boundary.
            let (conformance, jsonl) = check_runtime_trace(rt, false);
            let waves_fired = sh.waves_fired.load(Ordering::SeqCst);
            let waves_landed = sh.waves_landed.load(Ordering::SeqCst);
            let repair_ok = waves_landed == waves_fired;
            let repairs = sh.wave_log.lock().clone();

            let failure = failure
                .or_else(|| {
                    (lost_acked > 0).then(|| {
                        format!(
                            "lost {lost_acked} acked write(s): {ok_acks} OK acks, \
                             {durable} durable keys"
                        )
                    })
                })
                .or_else(|| {
                    (held_at_end > 0).then(|| format!("{held_at_end} instance(s) left held"))
                })
                .or_else(|| {
                    (!conformance.ok).then(|| format!("conformance: {}", conformance.detail))
                })
                .or_else(|| {
                    (!out.truncated && !repair_ok).then(|| {
                        format!("only {waves_landed}/{waves_fired} planner waves landed")
                    })
                });
            Verdict {
                acked,
                lost_acked,
                stale_applied: false,
                repair_ok,
                fenced_sends,
                held_at_end,
                repairs,
                conformance,
                failure,
                trace_jsonl: jsonl,
            }
        }) as Box<dyn Fn(&Runtime, &SimOutcome) -> Verdict>
    };

    Scene { exec, boot_instances, fresh, check }
}

// =====================================================================
// Checkpoint/restore mesh
// =====================================================================

/// Counter app for the mesh primaries: `save` checkpoints the counter
/// and records what was captured, so recovery can be validated against
/// genuinely checkpointed states only.
struct MeshCounterApp {
    counter: Arc<AtomicUsize>,
    checkpointed: Arc<Mutex<Vec<i64>>>,
    recovered: Arc<Mutex<Option<i64>>>,
}

impl InstanceApp for MeshCounterApp {
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
        self.counter.store(v as usize, Ordering::SeqCst);
        *self.recovered.lock() = Some(v);
        Ok(())
    }
    // The counter and recovery mark drive behavior the DFS fingerprint
    // must see, or hash-pruning could collapse genuinely distinct
    // states.
    fn sim_digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for word in [
            self.counter.load(Ordering::SeqCst) as u64,
            self.checkpointed.lock().len() as u64,
            self.recovered.lock().map_or(u64::MAX, |v| v as u64),
        ] {
            h = (h ^ word).wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// Blob store app: keeps the latest checkpoint value.
struct MeshBlobApp {
    latest: Arc<Mutex<Option<Value>>>,
}

impl InstanceApp for MeshBlobApp {
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

/// Scripted virtual times (ms) for the restore scenario.
const RS_CRASH_AT: u64 = 260;
const RS_RESUME_AT: u64 = 700;

struct RsShared {
    n: usize,
    k: usize,
    counters: Vec<Arc<AtomicUsize>>,
    checkpointed: Vec<Arc<Mutex<Vec<i64>>>>,
    recovered: Vec<Arc<Mutex<Option<i64>>>>,
    /// `blobs[i][j]`: store `d{i+1}_{j+1}`'s latest checkpoint.
    blobs: Vec<Vec<Arc<Mutex<Option<Value>>>>>,
    /// While true, scripted checkpoints skip `p1` (the green fence:
    /// park the junction across the crash window so a restart-time
    /// checkpoint of reset state cannot race recovery).
    parked: AtomicBool,
    /// Whether the scripted crash actually fired this run. A shrunk
    /// replay can suppress the crash injection entirely; the recovery
    /// liveness oracle must not demand recovery from a crash that
    /// never happened.
    crashed: AtomicBool,
    landmark: Mutex<Option<i64>>,
    ticks: AtomicUsize,
    sup: Mutex<Option<Supervisor>>,
    boot: CompiledProgram,
}

fn wire_restore(spec: &ScheduleSpec) -> Scene {
    let (n, k) = (spec.shards, spec.replicas);
    let boot = csaw_core::compile(checkpoint_mesh(n, k), &LoadConfig::new()).unwrap();
    let boot_instances = {
        let mut v: Vec<String> = (1..=n)
            .flat_map(|i| {
                std::iter::once(mesh_primary(i)).chain((1..=k).map(move |j| mesh_store(i, j)))
            })
            .collect();
        v.sort();
        v
    };

    let shared = Arc::new(RsShared {
        n,
        k,
        counters: (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect(),
        checkpointed: (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect(),
        recovered: (0..n).map(|_| Arc::new(Mutex::new(None))).collect(),
        blobs: (0..n)
            .map(|_| (0..k).map(|_| Arc::new(Mutex::new(None))).collect())
            .collect(),
        parked: AtomicBool::new(false),
        crashed: AtomicBool::new(false),
        landmark: Mutex::new(None),
        ticks: AtomicUsize::new(0),
        sup: Mutex::new(None),
        boot,
    });

    let mut exec = SimExecutor::new(SimConfig {
        seed: spec.seed,
        max_steps: spec.max_steps,
        horizon: spec.horizon,
        max_nested: 4,
    });

    // Counters advance on scripted ticks; checkpoints are scripted
    // invokes (no periodic policy), so both sides of the crash race
    // live at fixed virtual times and the walk orders everything else
    // around them.
    let mut tick_times: Vec<u64> = (1..=24).map(|i| i * 10).collect();
    tick_times.extend((21..=30).map(|i| i * 20));
    for t in tick_times {
        let sh = Arc::clone(&shared);
        exec.inject_at(ms(t), &format!("tick-{t}"), move |_rt| {
            for c in &sh.counters {
                c.fetch_add(1, Ordering::SeqCst);
            }
            sh.ticks.fetch_add(sh.n, Ordering::SeqCst);
        });
    }
    // Dense checkpoints through the crash/restart window. The parked
    // flag suppresses them for `p1` until the resume mark: a scripted
    // checkpoint invoked mid-recovery cannot corrupt anything — the
    // runtime flushes pending junction deliveries before an invoked
    // activation, so `recover` always schedules first and the invoke
    // serializes behind it — but parking keeps the crash window quiet
    // so the recovery path itself is what the walk reorders. The other
    // primaries keep checkpointing throughout.
    let mut ckpt_times: Vec<u64> = (0..12).map(|i| 30 + i * 20).collect();
    ckpt_times.extend((0..15).map(|i| RS_CRASH_AT + i * 10));
    ckpt_times.extend([RS_RESUME_AT, RS_RESUME_AT + 20, RS_RESUME_AT + 40]);
    for t in ckpt_times {
        let sh = Arc::clone(&shared);
        exec.inject_at(ms(t), &format!("ckpt-{t}"), move |rt| {
            for i in 1..=sh.n {
                if i == 1 && sh.parked.load(Ordering::SeqCst) {
                    continue;
                }
                let deadline = rt.clock().now() + REQUEST_DEADLINE;
                let _ = rt.invoke_deadline(&mesh_primary(i), "checkpoint", deadline);
            }
        });
    }
    {
        let sh = Arc::clone(&shared);
        exec.inject_at(ms(RS_CRASH_AT), "crash-p1", move |rt| {
            sh.parked.store(true, Ordering::SeqCst);
            sh.crashed.store(true, Ordering::SeqCst);
            // The durable floor: the blob `p1`'s first store replica has
            // *applied* at crash time. A later save may still be in
            // flight on the link; recovery serving the applied blob
            // instead of the in-flight one is correct, so the oracle
            // must not anchor on the primary's in-memory counter.
            *sh.landmark.lock() = sh.blobs[0][0].lock().as_ref().and_then(|v| v.as_int());
            rt.crash(&mesh_primary(1));
            // The crash loses in-memory state; the repair must restore
            // it from the checkpoint mesh.
            sh.counters[0].store(0, Ordering::SeqCst);
        });
    }
    {
        let sh = Arc::clone(&shared);
        exec.inject_at(ms(RS_RESUME_AT), "resume-checkpoints", move |_rt| {
            sh.parked.store(false, Ordering::SeqCst);
        });
    }

    let fresh = {
        let sh = Arc::clone(&shared);
        let fence = fence_enabled(spec);
        Box::new(move || {
            for c in &sh.counters {
                c.store(0, Ordering::SeqCst);
            }
            for c in &sh.checkpointed {
                c.lock().clear();
            }
            for r in &sh.recovered {
                *r.lock() = None;
            }
            for row in &sh.blobs {
                for b in row {
                    *b.lock() = None;
                }
            }
            sh.parked.store(false, Ordering::SeqCst);
            sh.crashed.store(false, Ordering::SeqCst);
            *sh.landmark.lock() = None;
            sh.ticks.store(0, Ordering::SeqCst);
            if let Some(old) = sh.sup.lock().take() {
                old.stop();
            }

            let rt = Runtime::new(
                &sh.boot,
                RuntimeConfig {
                    default_link: LinkKind::Sim { latency: ms(1), bandwidth: 0 },
                    clock: Clock::simulated(),
                    ..RuntimeConfig::default()
                },
            );
            rt.set_tracing(true);
            for i in 1..=sh.n {
                rt.bind_app(
                    &mesh_primary(i),
                    Box::new(MeshCounterApp {
                        counter: Arc::clone(&sh.counters[i - 1]),
                        checkpointed: Arc::clone(&sh.checkpointed[i - 1]),
                        recovered: Arc::clone(&sh.recovered[i - 1]),
                    }),
                );
                for j in 1..=sh.k {
                    rt.bind_app(
                        &mesh_store(i, j),
                        Box::new(MeshBlobApp {
                            latest: Arc::clone(&sh.blobs[i - 1][j - 1]),
                        }),
                    );
                }
                rt.set_policy(&mesh_primary(i), "checkpoint", Policy::OnDemand);
            }
            rt.run_main(vec![Value::Duration(ms(600))]).unwrap();

            let verify_recovered = Arc::clone(&sh.recovered[0]);
            // The deliberate bug: with the fence off, the repair policy
            // restarts the crashed primary but never re-arms recovery —
            // the process comes back "healthy" and empty, `recovered`
            // stays `None`, and the liveness oracle reports it at the
            // horizon. The green policy asserts `NeedState` after the
            // restart so the `recover` junction's guard fires.
            let sup = rt.supervise(SupervisorConfig {
                poll: ms(20),
                verify_timeout: ms(500),
                policy: RepairPolicy::new()
                    .on(
                        FailureClass::Crash,
                        vec![RepairAction::RestartThen(Arc::new(
                            move |rt: &Runtime, inst: &str| {
                                if fence {
                                    rt.deliver_for_test(
                                        inst,
                                        "recover",
                                        Update::assert("NeedState", "sim-driver"),
                                    );
                                }
                            },
                        ))],
                    )
                    .verify_with(move |_rt| verify_recovered.lock().is_some()),
                ..SupervisorConfig::default()
            });
            *sh.sup.lock() = Some(sup);
            rt
        }) as Box<dyn Fn() -> Runtime>
    };

    let check = {
        let sh = Arc::clone(&shared);
        Box::new(move |rt: &Runtime, out: &SimOutcome| -> Verdict {
            let landmark = *sh.landmark.lock();
            let recovered = *sh.recovered[0].lock();
            let mut failure: Option<String> = None;

            // Safety: a recovered state must be one that was genuinely
            // checkpointed, and not older than the checkpoint the
            // store had durably applied when the primary crashed.
            if let Some(r) = recovered {
                if !sh.checkpointed[0].lock().contains(&r) {
                    failure = Some(format!("recovered state {r} was never checkpointed"));
                } else if let Some(l) = landmark {
                    if r < l {
                        failure = Some(format!(
                            "recovered state {r} predates the crash landmark {l}"
                        ));
                    }
                }
            }
            // Replica agreement: every store blob is a genuinely
            // checkpointed state of its primary.
            if failure.is_none() {
                'outer: for i in 1..=sh.n {
                    for j in 1..=sh.k {
                        if let Some(v) = sh.blobs[i - 1][j - 1].lock().clone() {
                            let genuine = v
                                .as_int()
                                .is_some_and(|v| sh.checkpointed[i - 1].lock().contains(&v));
                            if !genuine {
                                failure = Some(format!(
                                    "store {} holds a never-checkpointed state {v:?}",
                                    mesh_store(i, j)
                                ));
                                break 'outer;
                            }
                        }
                    }
                }
            }

            let sup_guard = sh.sup.lock();
            let sup = sup_guard.as_ref().expect("scene runtime has a supervisor");
            let records = sup.records();
            let repairs = repair_lines(&records);
            let repair_ok =
                records.iter().any(|r| r.instance == mesh_primary(1) && r.ok);
            let held_at_end = rt.held_instances().len();
            // Restart keeps the program; the only epoch is the boot
            // one. The repair hook injects a NeedState apply.
            let (conformance, jsonl) = check_runtime_trace(rt, true);

            // Liveness, only when the walk reached the horizon and the
            // scripted crash actually fired (a shrunk replay can
            // suppress the crash injection).
            if failure.is_none() && !out.truncated && sh.crashed.load(Ordering::SeqCst) {
                if recovered.is_none() {
                    failure = Some("crash recovery never completed".to_string());
                } else if !repair_ok {
                    failure = Some("restart repair did not verify".to_string());
                }
            }
            if failure.is_none() && held_at_end > 0 {
                failure = Some(format!("{held_at_end} instance(s) left held"));
            }
            if failure.is_none() && !conformance.ok {
                failure = Some(format!("conformance: {}", conformance.detail));
            }
            Verdict {
                acked: sh.ticks.load(Ordering::SeqCst),
                lost_acked: 0,
                stale_applied: false,
                repair_ok,
                fenced_sends: rt.link_stats().fenced,
                held_at_end,
                repairs,
                conformance,
                failure,
                trace_jsonl: jsonl,
            }
        }) as Box<dyn Fn(&Runtime, &SimOutcome) -> Verdict>
    };

    Scene { exec, boot_instances, fresh, check }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "debug aid"]
    fn debug_red_seed() {
        let seed: u64 = std::env::var("DBG_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(501);
        let scenario = std::env::var("DBG_SCENARIO")
            .ok()
            .and_then(|s| Scenario::parse(&s))
            .unwrap_or(Scenario::Failover);
        let n: usize = std::env::var("DBG_N").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
        let k: usize = std::env::var("DBG_K").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
        let mut spec = ScheduleSpec::new(scenario, n, k, seed);
        if std::env::var("DBG_BUGGY").is_ok() {
            spec = spec.with_fence_off();
        }
        let out = run_schedule(&spec);
        if let Ok(p) = std::env::var("DBG_TRACE") {
            std::fs::write(p, &out.trace_jsonl).ok();
        }
        eprintln!(
            "seed {seed}: failure={:?} acked={} vms={} steps={} truncated={} repairs={:?}",
            out.failure,
            out.acked,
            out.virtual_ms,
            out.steps.len(),
            out.truncated,
            out.repairs
        );
    }

    /// One green schedule end to end: requests acked, the supervisor
    /// promotes the spare, the fence holds, the oracle is green.
    #[test]
    fn green_schedule_repairs_and_keeps_invariants() {
        let out = run_schedule(&ScheduleSpec::for_seed(7));
        assert!(out.failure.is_none(), "oracle: {:?}\nsteps: {}", out.failure, out.steps.len());
        assert!(
            out.repair_ok,
            "promotion repair did not verify; repairs: {:?}, steps: {}, truncated: {}, vms: {}",
            out.repairs,
            out.steps.len(),
            out.truncated,
            out.virtual_ms
        );
        assert!(out.acked >= 2, "too few acked requests: {}", out.acked);
        assert!(out.fenced_sends > 0, "fence never rejected the zombie");
        assert!(!out.truncated, "step budget too small for the scenario");
    }

    /// Same seed, two fresh runtimes → byte-identical schedules and
    /// byte-identical traces (the determinism contract).
    #[test]
    fn same_seed_is_byte_identical() {
        let a = run_schedule(&ScheduleSpec::for_seed(11));
        let b = run_schedule(&ScheduleSpec::for_seed(11));
        assert_eq!(a.steps, b.steps, "schedules diverged for one seed");
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(a.trace_jsonl, b.trace_jsonl, "traces diverged for one seed");
        assert!(!a.trace_jsonl.is_empty(), "trace recording was off");
    }

    /// The deliberate ordering bug (fence disabled): the oracle flags
    /// split-brain, the artifact shrinks, and the shrunk schedule still
    /// reproduces the same failure under replay.
    #[test]
    fn fencing_bug_is_caught_shrunk_and_replayed() {
        let spec = ScheduleSpec::buggy(3);
        let out = run_schedule(&spec);
        let art = out.artifact().expect("fence-off schedule must go red");
        assert!(
            art.reason.contains("split-brain"),
            "wrong failure class: {}",
            art.reason
        );

        // Unshrunk replay reproduces it exactly.
        let replayed = replay_schedule(&spec, &art.steps);
        assert_eq!(replayed.failure.as_deref(), Some(art.reason.as_str()));

        // Shrinking keeps the failure and loses schedule noise.
        let shrunk = shrink_failure(&spec, &art);
        assert!(shrunk.len() < art.steps.len(), "shrink removed nothing");
        let again = replay_schedule(&spec, &shrunk);
        assert!(again.failure.is_some(), "shrunk schedule went green");

        // And the artifact survives a JSON roundtrip into a new replay.
        let json = Artifact {
            seed: art.seed,
            reason: art.reason.clone(),
            instances: art.instances.clone(),
            steps: shrunk,
        }
        .to_json();
        let back = Artifact::from_json(&json).expect("artifact parses");
        let final_run = replay_schedule(&spec, &back.steps);
        assert!(final_run.failure.is_some(), "replay-from-JSON went green");
    }

    /// Satellite check: an artifact recorded against one scenario's
    /// instance set is loudly refused when replayed against another's.
    #[test]
    fn replay_artifact_rejects_cross_scenario_instances() {
        let out = run_schedule(&ScheduleSpec::for_seed(1));
        let art = Artifact {
            seed: 1,
            reason: "synthetic".into(),
            instances: out.instances.clone(),
            steps: out.steps.clone(),
        };
        let other = ScheduleSpec::new(Scenario::Reshard, 2, 2, 1);
        let scene = wire(&other);
        let rt = (scene.fresh)();
        let err = scene.exec.replay_artifact(&rt, &art).unwrap_err();
        assert!(
            err.contains("instance set mismatch"),
            "wrong refusal message: {err}"
        );
        rt.shutdown();
    }

    /// Tentpole smoke: bounded DFS with the reductions on exhausts the
    /// small-budget tree green, and the naive no-reduction baseline
    /// needs at least 5x more schedules (here it blows a low cap
    /// without finishing, so the factor is a lower bound).
    #[test]
    fn dfs_small_budget_completes_and_prunes() {
        let spec = ScheduleSpec::new(Scenario::Restore, 1, 1, 2).with_budget(12);
        let full = dfs_schedule(&spec, &DfsConfig::default());
        assert!(full.complete, "reduced DFS did not exhaust the tree");
        assert!(full.failures.is_empty(), "red at small budget: {:?}", full.failures);
        assert!(full.hash_pruned > 0, "state-hash pruning never fired");

        let naive = dfs_schedule(
            &spec,
            &DfsConfig { sleep_sets: false, hash_prune: false, max_schedules: 500 },
        );
        assert!(naive.failures.is_empty(), "naive found a red the reduced run missed");
        assert!(
            naive.schedules >= 5 * full.schedules,
            "reduction under 5x: naive {} vs reduced {}",
            naive.schedules,
            full.schedules
        );
    }
}
