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
//! * The sharded family — `sharding(N)` under request traffic while
//!   scripted waves re-home the keyspace. Oracles: every acknowledged
//!   key readable at exactly one store (and, once a wave lands, at its
//!   `shard_of(key, n)` home), no lost acked writes, every fired wave
//!   landed, conformance across every epoch. Three schedules, which
//!   differ in their waves and in how a wave is executed:
//!   - [`Scenario::Reshard`]: one live `sharding(N) → sharding(N+K)`
//!     wave; [`Scenario::Churn`]: K alternating grow/shrink waves. Each
//!     wave is one single-step `Runtime::reconfigure`. Shrinks narrow
//!     only the routing formula, so instance lifetimes are monotone.
//!   - [`Scenario::Planned`]: a grow wave to N+K and a shrink wave back
//!     to N (true instance removal), each a phased `Plan` under
//!     `max_concurrent_quiesce = 1` executed through
//!     `Runtime::reconfigure_plan`. Extra oracles: no wave's plan is
//!     refused by the check `reconfigure_plan` runs before phase 0, and
//!     no executed phase quiesces more instances than the bound allows;
//!     the epoch chain gets one epoch per phase, so conformance is
//!     judged at every phase boundary.
//! * [`Scenario::Restore`] — the checkpoint mesh (`checkpoint_mesh(N,
//!   K)`: N primaries × K store replicas); `p1` crashes between
//!   scripted checkpoints, the supervisor restarts it and triggers
//!   recovery. Oracles: the recovered state is genuinely checkpointed
//!   and not older than the crash landmark, every replica blob is a
//!   genuinely checkpointed state.
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
//! A family is its topology, its injections and its oracle; the rest is
//! one harness (`Harness`): the executor, the simulated runtime with
//! tracing on, the supervisor slot, per-run state rebuilt whole for
//! every run (explore, replay, and each re-execution of a DFS run), and
//! the checks every family shares (nothing left held, the trace
//! conforms).
//!
//! Each scenario carries a deliberate *fence-off* bug mode
//! ([`ScheduleSpec::with_fence_off`], or the `fence-off-bug` cargo
//! feature which compiles the bug in unconditionally): fail-over skips
//! zombie fencing (split-brain), the single-step sharded waves copy
//! instead of drain re-homed entries (double-homed keys), the planned
//! waves run a break-before-make plan (refused by the plan check),
//! restore skips re-arming recovery after the restart (recovery never
//! completes), overload drops the control-plane priority lane
//! (heartbeats are refused by the data plane's bounded outboxes on
//! saturated routes, so the failure detector starves and the
//! supervisor falsely repairs a healthy pump). The oracle must catch
//! every one.
//!
//! A red schedule serializes to a JSON [`Artifact`] (pinned to the
//! instance set it was recorded against); [`replay_schedule`]
//! re-executes it after checking that pin, [`shrink_failure`] minimizes
//! it, and [`dfs_schedule`] hands the whole scenario to the runtime's
//! bounded DFS/DPOR explorer for exhaustive small-model checking.

use std::collections::{BTreeMap, HashSet, VecDeque};
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
    Artifact, Clock, DfsConfig, DfsStats, FailureClass, FaultPlan, HeartbeatConfig, HostCtx,
    InstanceApp, LinkKind, OverloadConfig, ReconfigSpec, RepairPolicy, RepairRecord, RetryPolicy,
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
    /// One line per supervisor repair: `instance class action ok×attempts`
    /// (one line per wave for the sharded family).
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

fn wire(spec: &ScheduleSpec) -> Scene {
    match spec.scenario {
        Scenario::Failover => wire_failover(spec),
        Scenario::Reshard | Scenario::Churn | Scenario::Planned => wire_sharded(spec),
        Scenario::Restore => wire_restore(spec),
        Scenario::Overload => wire_overload(spec),
    }
}

/// Explore one schedule from the spec's seed.
pub fn run_schedule(spec: &ScheduleSpec) -> ScheduleOutcome {
    drive(spec, |exec, rt| Ok(exec.explore(rt))).expect("an explored run is never refused")
}

/// Re-execute a recorded [`Artifact`] against a fresh runtime built
/// from the same spec. `Err` when the spec builds a different instance
/// set than the one the artifact is pinned to: such a replay would
/// diverge silently.
pub fn replay_schedule(
    spec: &ScheduleSpec,
    artifact: &Artifact,
) -> Result<ScheduleOutcome, String> {
    drive(spec, |exec, rt| exec.replay_artifact(rt, artifact))
}

/// Minimize a red schedule: greedy chunk deletion, re-replaying the
/// candidate and re-running the oracle each time. A candidate must
/// fail for the artifact's exact reason — deleting an `inj:` record
/// suppresses that injection on replay, and a schedule with no crash
/// or no reconfigure wave can go red on a *different* (liveness)
/// oracle, which would shrink past the bug being minimized.
pub fn shrink_failure(spec: &ScheduleSpec, artifact: &Artifact) -> Vec<StepRecord> {
    csaw_runtime::sim::shrink_steps(&artifact.steps, |cand| {
        drive(spec, |exec, rt| Ok(exec.replay(rt, cand)))
            .is_ok_and(|out| out.failure.as_deref() == Some(artifact.reason.as_str()))
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
        |_, rt, out| (scene.judge)(rt, out).failure.map_or(Ok(()), Err),
    )
}

/// Build the scene, boot a fresh runtime, walk it, and judge the run.
fn drive(
    spec: &ScheduleSpec,
    walk: impl FnOnce(&SimExecutor, &Runtime) -> Result<SimOutcome, String>,
) -> Result<ScheduleOutcome, String> {
    let scene = wire(spec);
    let rt = (scene.fresh)();
    let instances = rt.instance_names();
    let judged = walk(&scene.exec, &rt).map(|out| {
        let judged = (scene.judge)(&rt, &out);
        ScheduleOutcome { steps: out.steps, instances, ..judged }
    });
    rt.shutdown();
    judged
}

fn repair_lines(records: &[RepairRecord]) -> Vec<String> {
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
// The harness every family shares
// =====================================================================

/// One wired scenario: the executor with the family's injections
/// registered, `fresh` (new per-run state and a new runtime on the boot
/// program), and `judge` (the family's oracle plus the shared checks).
/// The same `Scene` drives explore, replay *and* the many
/// re-executions of a DFS run.
struct Scene {
    exec: SimExecutor,
    fresh: Box<dyn Fn() -> Runtime>,
    judge: JudgeFn,
}

/// Judges a finished run: everything but `steps` and `instances`, which
/// the caller has.
type JudgeFn = Box<dyn Fn(&Runtime, &SimOutcome) -> ScheduleOutcome>;

/// What a family's oracle found broken: before and after the shared
/// checks (see [`Harness::scene`]).
type Broke = (Option<String>, Option<String>);

/// A family under construction. Injections are registered once, on the
/// executor, and act on the *current* run's state `R`, which `fresh`
/// replaces whole: nothing one run wrote reaches the next.
struct Harness<R> {
    seed: u64,
    exec: SimExecutor,
    state: Box<dyn Fn() -> R>,
    slot: Arc<Mutex<Arc<R>>>,
}

impl<R: 'static> Harness<R> {
    fn new(spec: &ScheduleSpec, max_nested: usize, state: impl Fn() -> R + 'static) -> Harness<R> {
        Harness {
            seed: spec.seed,
            exec: SimExecutor::new(SimConfig {
                seed: spec.seed,
                max_steps: spec.max_steps,
                horizon: spec.horizon,
                max_nested,
            }),
            slot: Arc::new(Mutex::new(Arc::new(state()))),
            state: Box::new(state),
        }
    }

    /// Schedule `f` against the runtime and the current run's state.
    fn inject(&mut self, at: Duration, label: &str, f: impl Fn(&Runtime, &R) + 'static) {
        let slot = Arc::clone(&self.slot);
        self.exec.inject_at(at, label, move |rt| {
            let st = Arc::clone(&slot.lock());
            f(rt, &st)
        });
    }

    /// Finish the scene. `start` binds apps, runs `main` and arms the
    /// family's faults on a freshly booted runtime, returning its
    /// supervisor, if any; the harness stops that supervisor before the
    /// next run. `injected_applies` tells the conformance check that
    /// driver injections apply updates with no traced send.
    ///
    /// `oracle` fills the family's own outcome fields (`repairs`
    /// arrives filled from the supervisor's records) and returns what
    /// broke, split around the checks every family shares — nothing left
    /// held, the trace conforms: `.0` outranks them, `.1` counts only if
    /// they pass. It runs before them, since it may probe the runtime (a
    /// `peek_prop` applies pending deliveries, which the trace records).
    fn scene(
        self,
        boot: CompiledProgram,
        overload: OverloadConfig,
        start: impl Fn(&Runtime, &Arc<R>) -> Option<Supervisor> + 'static,
        injected_applies: bool,
        oracle: impl Fn(&Runtime, &SimOutcome, &R, &[RepairRecord], &mut ScheduleOutcome) -> Broke
            + 'static,
    ) -> Scene {
        let Harness { seed, exec, state, slot } = self;
        let sup: Arc<Mutex<Option<Supervisor>>> = Arc::new(Mutex::new(None));
        let fresh = {
            let (slot, sup) = (Arc::clone(&slot), Arc::clone(&sup));
            move || {
                if let Some(old) = sup.lock().take() {
                    old.stop();
                }
                let st = Arc::new(state());
                *slot.lock() = Arc::clone(&st);
                let rt = Runtime::new(
                    &boot,
                    RuntimeConfig {
                        default_link: LinkKind::Sim { latency: ms(1), bandwidth: 0 },
                        clock: Clock::simulated(),
                        overload,
                        ..RuntimeConfig::default()
                    },
                );
                rt.set_tracing(true);
                *sup.lock() = start(&rt, &st);
                rt
            }
        };
        let judge = move |rt: &Runtime, out: &SimOutcome| {
            let st = Arc::clone(&slot.lock());
            let records = sup.lock().as_ref().map(Supervisor::records).unwrap_or_default();
            let mut judged = ScheduleOutcome {
                seed,
                steps: Vec::new(),
                instances: Vec::new(),
                virtual_ms: out.virtual_time.as_secs_f64() * 1e3,
                truncated: out.truncated,
                acked: 0,
                lost_acked: 0,
                stale_applied: false,
                repair_ok: false,
                fenced_sends: 0,
                held_at_end: 0,
                repairs: repair_lines(&records),
                conformance: ConformanceSummary::default(),
                failure: None,
                trace_jsonl: String::new(),
            };
            let (first, last) = oracle(rt, out, &st, &records, &mut judged);
            judged.fenced_sends = rt.link_stats().fenced;
            judged.held_at_end = rt.held_instances().len();
            (judged.conformance, judged.trace_jsonl) = check_runtime_trace(rt, injected_applies);
            judged.failure = first
                .or_else(|| {
                    (judged.held_at_end > 0)
                        .then(|| format!("{} instance(s) left held", judged.held_at_end))
                })
                .or_else(|| {
                    (!judged.conformance.ok)
                        .then(|| format!("conformance: {}", judged.conformance.detail))
                })
                .or(last);
            judged
        };
        Scene { exec, fresh: Box::new(fresh), judge: Box::new(judge) }
    }
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

/// The `(preferred, spare)` store handles for one replication group.
type StorePair = (Arc<Mutex<Store>>, Arc<Mutex<Store>>);

/// One fail-over run's state.
struct FoRun {
    requests: Vec<Arc<Mutex<VecDeque<Command>>>>,
    replies: Vec<Arc<Mutex<Vec<Reply>>>>,
    stores: Vec<StorePair>,
    acked: AtomicUsize,
    /// `Reply@f{g}` just before each partitioned group's zombie poke.
    /// The split-brain oracle only counts a *transition* to true caused
    /// by the poke: the write-to-all mode routinely leaves a benign
    /// trailing `Reply` assert, which is protocol residue.
    poke_reply_before: Mutex<Vec<Option<bool>>>,
    /// Cumulative per-group promotion flags the repair closure compiles
    /// targets from — two partitioned groups compose.
    promoted: Mutex<Vec<bool>>,
}

fn wire_failover(spec: &ScheduleSpec) -> Scene {
    let n = spec.shards;
    let cut = spec.replicas.min(n);
    let boot =
        csaw_core::compile(supervised_failover_groups(n, &vec![false; n]), &LoadConfig::new())
            .unwrap();
    let store = || Arc::new(Mutex::new(Store::new()));
    let mut h = Harness::new(spec, 4, move || FoRun {
        requests: (0..n).map(|_| Default::default()).collect(),
        replies: (0..n).map(|_| Default::default()).collect(),
        stores: (0..n).map(|_| (store(), store())).collect(),
        acked: AtomicUsize::new(0),
        poke_reply_before: Mutex::new(vec![None; cut]),
        promoted: Mutex::new(vec![false; n]),
    });

    // Requests: per group, three before the partition window and three
    // on the promoted architecture, staggered 3 ms per group so the
    // invokes interleave. Each injection enqueues one command and
    // invokes the front; the invoke's blocking drives nested progress.
    for g in 1..=n {
        for (i, at_ms) in FO_REQUEST_TIMES.iter().enumerate() {
            let at = ms(at_ms + 3 * (g as u64 - 1));
            h.inject(at, &format!("request-{g}-{i}"), move |rt, st| {
                let cmd = fo_command(g, i);
                {
                    let mut q = st.requests[g - 1].lock();
                    q.clear();
                    q.push_back(cmd);
                }
                let before = st.replies[g - 1].lock().len();
                let deadline = rt.clock().now() + REQUEST_DEADLINE;
                let _ = rt.invoke_deadline(&format!("f{g}"), "junction", deadline);
                if st.replies[g - 1].lock().len() > before {
                    st.acked.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    }

    // A benign live reconfiguration in the detection window: same
    // program, fresh epoch — reconfigure interleaved with the
    // supervisor's detect → repair machinery.
    {
        let boot = boot.clone();
        h.inject(ms(100), "reconfig-identity", move |rt, _| {
            let _ = rt.reconfigure(&boot, ReconfigSpec::default());
        });
    }

    // The partitions, then the heals + zombie pokes, staggered 30 ms
    // per partitioned group.
    for g in 1..=cut {
        h.inject(ms(60 + 30 * (g as u64 - 1)), &format!("partition-o{g}"), move |rt, _| {
            for (from, to) in fo_links(g) {
                rt.set_fault_plan(&from, &to, FaultPlan::none().with_drop(1.0));
            }
        });
    }
    for g in 1..=cut {
        h.inject(ms(900 + 30 * (g as u64 - 1)), &format!("heal-and-poke-{g}"), move |rt, st| {
            st.poke_reply_before.lock()[g - 1] =
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
    let start = move |rt: &Runtime, st: &Arc<FoRun>| {
        for g in 1..=n {
            let mut front = KvFront::new();
            front.requests = Arc::clone(&st.requests[g - 1]);
            front.replies = Arc::clone(&st.replies[g - 1]);
            rt.bind_app(&format!("f{g}"), Box::new(front));
            let (o, s) = &st.stores[g - 1];
            rt.bind_app(&format!("o{g}"), Box::new(ServerApp::with_store(Arc::clone(o))));
            rt.bind_app(&format!("s{g}"), Box::new(ServerApp::with_store(Arc::clone(s))));
            rt.set_policy(&format!("f{g}"), "junction", Policy::OnDemand);
        }
        rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();
        rt.enable_heartbeats(HeartbeatConfig { interval: ms(20), suspicion: ms(80), k_missed: 2 });
        if chaos {
            // Mild seeded reordering on each group's surviving path.
            // Deliberately no drops (the partition script owns those)
            // and no duplicates: the watched reply protocol is not
            // idempotent, so duplication makes the driver's acked
            // attribution (and thus the lost-write oracle) unsound. The
            // reorder delay stays well under the gap between scripted
            // requests for the same reason.
            for g in 1..=n {
                let base = 0x51D0 + 2 * (g as u64 - 1);
                let plan = FaultPlan::none().with_reorder(0.20, ms(4)).with_seed(seed ^ base);
                rt.set_fault_plan(&format!("f{g}"), &format!("s{g}"), plan.clone());
                rt.set_fault_plan(
                    &format!("s{g}"),
                    &format!("f{g}"),
                    plan.with_seed(seed ^ (base + 1)),
                );
            }
        }

        let st = Arc::clone(st);
        Some(rt.supervise(SupervisorConfig {
            poll: ms(20),
            quorum: 2,
            confirm_polls: 2,
            verify_timeout: ms(500),
            fence_on_reconfigure: fence,
            policy: RepairPolicy::new().on(
                FailureClass::Partition,
                vec![RepairAction::Reconfigure(Arc::new(move |_rt, inst| {
                    // Promote the partitioned group's spare; the target
                    // composes every promotion so far.
                    if let Some(g) = inst.strip_prefix('o').and_then(|v| v.parse::<usize>().ok()) {
                        st.promoted.lock()[g - 1] = true;
                    }
                    let flags = st.promoted.lock().clone();
                    let target = csaw_core::compile(
                        supervised_failover_groups(n, &flags),
                        &LoadConfig::new(),
                    )
                    .unwrap();
                    (target, ReconfigSpec::default())
                }))],
            ),
            ..SupervisorConfig::default()
        }))
    };

    // The zombie pokes and heal-window retries inject applies with no
    // matching send in the trace.
    h.scene(boot, OverloadConfig::default(), start, true, move |rt, _out, st, records, o| {
        // Lost-acked-write invariant, stated soundly for an *anonymous*
        // reply protocol, per group. The front's reply carries no
        // request identity and the wait abandons late replies, so
        // per-window attribution of acks to commands is unsound by
        // construction. What *is* guaranteed: every restored `+OK`
        // consumed one `Reply` assertion, which came from one `reply`
        // call, which a back-end only makes after durably serving one
        // scripted SET — and the unique keys are never overwritten or
        // deleted. So with at-most-once links the number of restored OK
        // acks can never exceed the number of durable per-store serve
        // footprints. An excess means an ack with no durable write
        // behind it: a genuinely lost acknowledged write.
        let mut detail = String::new();
        for g in 1..=n {
            let ok_acks =
                st.replies[g - 1].lock().iter().filter(|r| matches!(r, Reply::Ok)).count();
            let footprints = |store: &Arc<Mutex<Store>>| -> usize {
                let s = store.lock();
                FO_SET_WINDOWS
                    .iter()
                    .filter(|i| {
                        s.get(&fo_key(g, **i)).is_some_and(|v| v == fo_value(g, **i).into_bytes())
                    })
                    .count()
            };
            let (so, ss) = &st.stores[g - 1];
            let durable = footprints(so) + footprints(ss);
            if ok_acks > durable {
                o.lost_acked += ok_acks - durable;
                detail = format!("group {g}: {ok_acks} OK acks, {durable} durable serves");
            }
        }
        let poke = st.poke_reply_before.lock();
        o.stale_applied = (1..=cut).any(|g| {
            poke[g - 1] == Some(false)
                && rt.peek_prop(&format!("f{g}"), "junction", "Reply") == Some(true)
        });
        o.repair_ok =
            (1..=cut).all(|g| records.iter().any(|r| r.instance == format!("o{g}") && r.ok));
        o.acked = st.acked.load(Ordering::SeqCst);
        let failure = if o.lost_acked > 0 {
            Some(format!("lost {} acked write(s): {detail}", o.lost_acked))
        } else if o.stale_applied {
            Some("split-brain: zombie reply applied after heal".to_string())
        } else {
            None
        };
        (failure, None)
    })
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
    seen: HashSet<Vec<u8>>,
    count: Arc<AtomicUsize>,
}

impl StormSink {
    fn new(count: Arc<AtomicUsize>) -> StormSink {
        StormSink { seen: HashSet::new(), count }
    }
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

/// One overload run's state.
struct OvRun {
    /// Storm units offered per group (injections fired; probes excluded).
    offered: Vec<AtomicUsize>,
    /// Distinct units landed at each group's preferred sink `k{g}`.
    goodput: Vec<Arc<AtomicUsize>>,
    /// `goodput` snapshot taken after the storm drained, before probes.
    pre_probe: Mutex<Vec<usize>>,
    /// Times the supervisor's repair ladder fired — must stay 0:
    /// nothing in this scenario ever actually fails.
    false_repairs: AtomicUsize,
}

fn wire_overload(spec: &ScheduleSpec) -> Scene {
    let n = spec.shards;
    let k = spec.replicas as u64;
    let boot = csaw_core::compile(storm_pipeline(n), &LoadConfig::new()).unwrap();
    let mut h = Harness::new(spec, 8, move || OvRun {
        offered: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        goodput: (0..n).map(|_| Default::default()).collect(),
        pre_probe: Mutex::new(vec![0; n]),
        false_repairs: AtomicUsize::new(0),
    });

    // The storm: open-loop — the pump never blocks, so each injection
    // is one quick invoke regardless of how congested the links are,
    // and the offered rate is set by the script, not by completions.
    let spacing = ov_spacing_us(k);
    let storm_count = (OV_STORM_END_MS - OV_STORM_START_MS) * 1000 / spacing;
    for g in 1..=n {
        for i in 0..storm_count {
            let at = Duration::from_micros(
                OV_STORM_START_MS * 1000 + i * spacing + 137 * (g as u64 - 1),
            );
            h.inject(at, &format!("storm-{g}-{i}"), move |rt, st| {
                st.offered[g - 1].fetch_add(1, Ordering::SeqCst);
                let deadline = rt.clock().now() + OV_BUDGET;
                let _ = rt.invoke_deadline(&format!("p{g}"), "junction", deadline);
            });
        }
    }

    // Post-storm probes: the congestion-collapse oracle. Once the
    // storm stops, the bounded queues must have drained — a fresh
    // trickle of units must land comfortably inside the same budget.
    h.inject(ms(460), "probe-baseline", |_rt, st| {
        let mut pre = st.pre_probe.lock();
        for (p, g) in pre.iter_mut().zip(&st.goodput) {
            *p = g.load(Ordering::SeqCst);
        }
    });
    for g in 1..=n {
        for (j, at) in [470u64, 485, 500].into_iter().enumerate() {
            h.inject(ms(at + 2 * (g as u64 - 1)), &format!("probe-{g}-{j}"), move |rt, _| {
                let deadline = rt.clock().now() + OV_BUDGET;
                let _ = rt.invoke_deadline(&format!("p{g}"), "junction", deadline);
            });
        }
    }

    let overload = OverloadConfig {
        // Must bind *before* the 30 ms budget's admission prediction
        // (~5 queued packets) does, so saturated routes actually refuse
        // admission — that refusal is what the priority lane shields
        // heartbeats from.
        outbox_bound: 3,
        mailbox_bound: 64,
        // Budgets come from the DSL (`otherwise[d]`), not a
        // network-wide default.
        ingress_deadline: None,
        shed_expired: true,
        priority_lane: fence_enabled(spec),
    };
    let identity = boot.clone();
    let start = move |rt: &Runtime, st: &Arc<OvRun>| {
        // Fail fast at a full outbox: one sub-millisecond retry, then
        // surface `QueueFull` to the pump's `otherwise[d]` handler.
        // Sized so a whole storm activation costs less virtual time
        // than the injection spacing — the walk must come back up to
        // top level between injections, or supervisor polls
        // (top-level-only events) starve for the entire storm. The
        // default wall-clock policy would burn ~100 virtual ms per
        // refused send.
        rt.set_retry_policy(RetryPolicy {
            enabled: true,
            max_retries: 1,
            base: Duration::from_micros(100),
            cap: Duration::from_micros(200),
        });
        for g in 1..=n {
            let (p, kk, x) = storm_names(g);
            rt.bind_app(&p, Box::new(StormPump { prefix: format!("u{g}"), next: 0 }));
            rt.bind_app(&kk, Box::new(StormSink::new(Arc::clone(&st.goodput[g - 1]))));
            // The aux sink receives the same fan-out but is not the
            // goodput meter; it exists as the second saturated route
            // and the second live observer of the pump.
            rt.bind_app(&x, Box::new(StormSink::new(Default::default())));
            rt.set_policy(&p, "junction", Policy::OnDemand);
            rt.set_link(&p, &kk, LinkKind::Sim { latency: ms(1), bandwidth: OV_BANDWIDTH });
            rt.set_link(&p, &x, LinkKind::Sim { latency: ms(1), bandwidth: OV_BANDWIDTH });
        }
        rt.run_main(vec![Value::Duration(OV_BUDGET)]).unwrap();
        // Suspicion sizing: with the lane ON a beat is never refused,
        // only queued behind ≤ outbox_bound data packets (≤ ~20 ms at
        // this bandwidth), so the max inter-beat gap an observer sees
        // is ~interval + queueing ≈ 40 ms — 60 ms cannot false-suspect.
        // With the lane OFF, refused beats open storm-long gaps that
        // blow way past it. One 60 ms window (`k_missed: 1` — the
        // detector requires `suspicion × k_missed` of silence): three
        // consecutive refused beats on a route open it.
        rt.enable_heartbeats(HeartbeatConfig { interval: ms(20), suspicion: ms(60), k_missed: 1 });

        // Any repair is a false one: the scenario never partitions,
        // crashes, or stops anything. The ladder records the
        // misclassification and "repairs" with the identity program.
        let (st, identity) = (Arc::clone(st), identity.clone());
        let repair = RepairAction::Reconfigure(Arc::new(move |_rt, _inst| {
            st.false_repairs.fetch_add(1, Ordering::SeqCst);
            (identity.clone(), ReconfigSpec::default())
        }));
        Some(
            rt.supervise(SupervisorConfig {
                poll: ms(10),
                quorum: 2,
                confirm_polls: 2,
                verify_timeout: ms(200),
                fence_on_reconfigure: true,
                policy: RepairPolicy::new()
                    .on(FailureClass::Partition, vec![repair.clone()])
                    .on(FailureClass::Crash, vec![repair]),
                ..SupervisorConfig::default()
            }),
        )
    };

    h.scene(boot, overload, start, false, move |rt, out, st, records, o| {
        let goodput: Vec<usize> = st.goodput.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        let offered: Vec<usize> = st.offered.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        o.acked = goodput.iter().sum();
        let stats = rt.link_stats();
        // `Slow` (a single suspecting observer) carries no repair
        // ladder; anything stronger on a healthy fleet is a false crash
        // classification.
        let false_class = st.false_repairs.load(Ordering::SeqCst) > 0
            || records.iter().any(|r| r.class != FailureClass::Slow);
        o.repair_ok = records.is_empty();

        // Strict fail-fast admission sheds *almost everything* at 4×
        // offered: once the outbox pins at its bound, each drained slot
        // is grabbed by the next unit's payload, so payload+trigger
        // pairs complete only at the storm's edges (~0–1 units
        // in-storm). The floor therefore rejects near-zero *totals* — a
        // healthy run still banks the storm-edge pair plus the
        // post-storm probes (observed 3–4), while congestion collapse
        // (wedged queues, probes lost) lands 0–1. The quantitative
        // goodput-vs-offered curves live in the open-loop bench, not
        // here.
        let floor = 2;
        let worst = goodput.iter().copied().enumerate().min_by_key(|(_, c)| *c).unwrap_or((0, 0));
        let pre = st.pre_probe.lock().clone();
        let probes_ok = goodput.iter().zip(&pre).all(|(g, p)| g.saturating_sub(*p) >= 2);
        let engaged = stats.shed + stats.queue_full;

        let failure = if false_class {
            Some(format!(
                "false crash classification: supervisor repaired healthy instance(s) [{}]",
                o.repairs.join("; ")
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
        } else {
            None
        };
        (failure, None)
    })
}

// =====================================================================
// The sharded family: reshard and churn (single-step waves), planned
// (checked phased plans)
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

/// One scripted request: a unique key's SET at a fixed virtual time.
struct ShardRequest {
    key: String,
    value: Vec<u8>,
    at: Duration,
}

/// The sharded family's script, built once per scene.
struct ShardScript {
    /// Waves run as checked phased plans (`Planned`) rather than one
    /// single-step `reconfigure` each.
    planned: bool,
    base_n: usize,
    /// Store handles per run: one per shard any wave can reach.
    max_n: usize,
    /// `(at, routing_n)` per scripted wave.
    waves: Vec<(Duration, usize)>,
    reqs: Vec<ShardRequest>,
    programs: BTreeMap<usize, CompiledProgram>,
}

/// One sharded run's state.
struct ShardRun {
    requests: Arc<Mutex<VecDeque<Command>>>,
    replies: Arc<Mutex<VecDeque<Reply>>>,
    /// Per scripted request: its invoke saw a reply (reporting only).
    acked: Vec<AtomicBool>,
    /// One store per *maximum* shard: joiners bind to their pre-created
    /// store when a grow wave adds them.
    stores: Vec<Arc<Mutex<Store>>>,
    /// Routing shard count currently live; waves compare-and-advance it.
    cur_n: Mutex<usize>,
    /// Instances currently materialized by single-step waves (monotone:
    /// `max` of base and every landed routing target). Shrinks narrow
    /// only the routing formula — de-routed back-ends stay alive (and
    /// drained), so the conformance epoch rule applies cleanly.
    live_n: Mutex<usize>,
    /// Wave injections that actually fired. A shrunk replay can
    /// suppress a wave's `inj:` record entirely; the waves-landed
    /// liveness oracle only counts waves that fired.
    fired: AtomicUsize,
    landed: AtomicUsize,
    /// One line per wave (`repairs` in the outcome).
    log: Mutex<Vec<String>>,
    /// First plan the executor refused (`check_plan` red on a wave).
    plan_bad: Mutex<Option<String>>,
    /// First executed phase that quiesced more than the bound allows.
    over_quiesce: Mutex<Option<String>>,
    /// First wave-time re-homing violation, recorded atomically right
    /// after the wave landed: at that instant nothing scripted can be in
    /// flight (injections are single executor steps), so every durable
    /// key must sit at exactly its new home. Checked here rather than at
    /// the horizon because a walk-deferred back-end pass may
    /// legitimately serve a timed-out request *after* a later wave,
    /// parking its key off-home on a green run.
    homing: Mutex<Option<String>>,
}

impl ShardRun {
    /// A front routing by key over `n` shards, on this run's queues.
    fn front(&self, n: usize) -> ShardFrontApp {
        let mut front = ShardFrontApp::new(ShardMode::ByKey, n);
        front.requests = Arc::clone(&self.requests);
        front.replies = Arc::clone(&self.replies);
        front
    }

    /// Add back-end `Bck{i}` on its pre-created store, started against
    /// the front.
    fn join(&self, rs: &mut ReconfigSpec, i: usize) {
        let name = format!("Bck{i}");
        rs.apps
            .push((name.clone(), Box::new(ServerApp::with_store(Arc::clone(&self.stores[i - 1])))));
        rs.start.push((
            name,
            vec![(
                None,
                vec![
                    Arg::Junction(JRef::qualified("Fnt", "junction")),
                    Arg::Value(Value::Duration(FRONT_TIMEOUT)),
                ],
            )],
        ));
    }

    /// Migrate every store entry to its `shard_of(key, to_n)` home.
    /// `keep_copy` is the single-step fence-off bug: the old home keeps
    /// serving its copy of a re-homed entry.
    fn rehome(&self, rs: &mut ReconfigSpec, to_n: usize, keep_copy: bool) {
        let stores = self.stores.clone();
        rs.migrate = Some(Box::new(move |ctx| {
            let (mut moved, mut bytes) = (0u64, 0u64);
            for idx in 0..stores.len() {
                let entries = stores[idx].lock().drain_entries();
                for (k, v) in entries {
                    let home = shard_of(&k, to_n);
                    if home != idx {
                        moved += 1;
                        bytes += v.len() as u64;
                        if keep_copy {
                            stores[idx].lock().set(&k, v.clone());
                        }
                    }
                    stores[home].lock().set(&k, v);
                }
            }
            ctx.note_moved(moved, bytes);
            Ok(())
        }));
    }

    /// Stores (0-based) holding `key`.
    fn homes(&self, key: &str) -> Vec<usize> {
        (0..self.stores.len()).filter(|i| self.stores[*i].lock().get(key).is_some()).collect()
    }
}

/// 1-based store numbers, as failure texts print them.
fn store_numbers(homes: &[usize]) -> Vec<usize> {
    homes.iter().map(|i| i + 1).collect()
}

fn wire_sharded(spec: &ScheduleSpec) -> Scene {
    let base_n = spec.shards;
    let planned = spec.scenario == Scenario::Planned;
    let waves: Vec<(Duration, usize)> = match spec.scenario {
        Scenario::Reshard => vec![(ms(300), base_n + spec.replicas)],
        Scenario::Churn => (1..=spec.replicas as u64)
            .map(|w| (ms(250 + 200 * (w - 1)), if w % 2 == 1 { base_n + 1 } else { base_n }))
            .collect(),
        // Grow to N+K mid-traffic, then shrink back to N with true
        // instance removal — both as phased plans under the quiesce
        // bound.
        Scenario::Planned => vec![(ms(300), base_n + spec.replicas), (ms(600), base_n)],
        _ => unreachable!("wire_sharded only handles sharded scenarios"),
    };
    let max_n = waves.iter().map(|(_, n)| *n).max().unwrap().max(base_n);
    let mut programs = BTreeMap::new();
    for n in std::iter::once(base_n).chain(waves.iter().map(|(_, n)| *n)) {
        programs.entry(n).or_insert_with(|| {
            csaw_core::compile(
                sharding(&ShardingSpec { n_backends: n, ..ShardingSpec::default() }),
                &LoadConfig::new(),
            )
            .unwrap()
        });
    }

    // Scripted unique-key SETs on a 40 ms cadence, keeping a quiet
    // margin before each wave: the margin exceeds the request deadline
    // plus chaos delay, so nothing scripted is in flight when a wave
    // reconfigures (or while a planned wave's phases run) and the
    // store-level oracles below stay sound. The first request writes a
    // scanned mover key so every wave provably re-homes at least one
    // entry.
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
            reqs.push(ShardRequest { key, value: format!("v{idx}").into_bytes(), at: ms(t) });
        }
        t += 40;
    }

    let boot = programs[&base_n].clone();
    let sc = Arc::new(ShardScript { planned, base_n, max_n, waves, reqs, programs });
    let state = {
        let sc = Arc::clone(&sc);
        move || ShardRun {
            requests: Default::default(),
            replies: Default::default(),
            acked: sc.reqs.iter().map(|_| AtomicBool::new(false)).collect(),
            stores: (0..sc.max_n).map(|_| Arc::new(Mutex::new(Store::new()))).collect(),
            cur_n: Mutex::new(sc.base_n),
            live_n: Mutex::new(sc.base_n),
            fired: AtomicUsize::new(0),
            landed: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
            plan_bad: Mutex::new(None),
            over_quiesce: Mutex::new(None),
            homing: Mutex::new(None),
        }
    };
    let mut h = Harness::new(spec, 4, state);

    for (i, r) in sc.reqs.iter().enumerate() {
        let sc = Arc::clone(&sc);
        h.inject(r.at, &format!("request-{i}"), move |rt, st| {
            let r = &sc.reqs[i];
            {
                let mut q = st.requests.lock();
                q.clear();
                q.push_back(Command::Set(r.key.clone(), r.value.clone()));
            }
            let before = st.replies.lock().len();
            let deadline = rt.clock().now() + REQUEST_DEADLINE;
            let _ = rt.invoke_deadline("Fnt", "junction", deadline);
            if st.replies.lock().len() > before {
                st.acked[i].store(true, Ordering::SeqCst);
            }
        });
    }

    let fence = fence_enabled(spec);
    let label = if planned { "plan-wave" } else { "wave" };
    for (w, &(at, to_n)) in sc.waves.iter().enumerate() {
        let sc = Arc::clone(&sc);
        h.inject(at, &format!("{label}-{}-to-{to_n}", w + 1), move |rt, st| {
            if *st.cur_n.lock() == to_n {
                return;
            }
            st.fired.fetch_add(1, Ordering::SeqCst);
            let landed = if sc.planned {
                planned_wave(rt, &sc, st, w, to_n, fence)
            } else {
                single_step_wave(rt, &sc, st, to_n, fence)
            };
            if !landed {
                return;
            }
            st.landed.fetch_add(1, Ordering::SeqCst);
            *st.cur_n.lock() = to_n;
            // Atomic post-wave snapshot: every durable scripted key
            // sits at exactly its `shard_of(key, to_n)` home.
            let mut viol = st.homing.lock();
            if viol.is_none() {
                *viol = homing_violation(&sc, st, to_n);
            }
        });
    }

    let start = move |rt: &Runtime, st: &Arc<ShardRun>| {
        rt.bind_app("Fnt", Box::new(st.front(base_n)));
        for i in 1..=base_n {
            rt.bind_app(
                &format!("Bck{i}"),
                Box::new(ServerApp::with_store(Arc::clone(&st.stores[i - 1]))),
            );
        }
        rt.set_policy("Fnt", "junction", Policy::OnDemand);
        rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();
        // Deliberately no link chaos here: the sharded front's
        // two-message request protocol (`n` payload, then `Work`)
        // assumes FIFO links, and reordering makes a back-end serve a
        // stale payload while the front acks the new request — an ack
        // without a serve, red by construction. The explorer's walk/DFS
        // over pump and pass orderings is the nondeterminism under test.
        None
    };

    h.scene(boot, OverloadConfig::default(), start, false, move |_rt, out, st, _records, o| {
        // Horizon-time double-home: every serve writes a key into
        // exactly one store and a green migrate *moves* entries, so two
        // live copies can only come from the copy bug. (A single
        // off-home copy at the horizon is NOT a violation: a
        // walk-deferred pass may serve a timed-out request after the
        // last wave through the old routing.)
        let double_homed = sc.reqs.iter().find_map(|r| {
            let homes = st.homes(&r.key);
            (homes.len() > 1).then(|| {
                format!("key {} double-homed at horizon: stores {:?}", r.key, store_numbers(&homes))
            })
        });
        // Counting bound on lost acked writes: each restored `+OK`
        // consumed one reply, each reply follows one durable serve, and
        // each scripted key is served at most once — so OK acks can
        // never exceed durable scripted keys. (The per-request `acked`
        // flags are reporting only: a deferred reply pump can land
        // inside the *next* request's window, so per-request
        // attribution is approximate.)
        let ok_acks = st.replies.lock().iter().filter(|r| matches!(r, Reply::Ok)).count();
        let durable = sc
            .reqs
            .iter()
            .filter(|r| {
                st.stores.iter().any(|s| s.lock().get(&r.key).is_some_and(|v| v == r.value))
            })
            .count();
        o.lost_acked = ok_acks.saturating_sub(durable);
        o.acked = st.acked.iter().filter(|a| a.load(Ordering::SeqCst)).count();
        // Count against waves that actually fired: a shrunk replay can
        // suppress a wave injection, and a wave that never fired owes
        // no reconfiguration.
        let (fired, landed) = (st.fired.load(Ordering::SeqCst), st.landed.load(Ordering::SeqCst));
        o.repair_ok = landed == fired;
        o.repairs = st.log.lock().clone();

        // Plan validity and the quiesce bound, then wave-time re-homing
        // (the exactly-once-re-home oracle), take precedence.
        let failure = st
            .plan_bad
            .lock()
            .clone()
            .or_else(|| st.over_quiesce.lock().clone())
            .or_else(|| st.homing.lock().clone())
            .or(double_homed)
            .or_else(|| {
                (o.lost_acked > 0).then(|| {
                    format!(
                        "lost {} acked write(s): {ok_acks} OK acks, {durable} durable keys",
                        o.lost_acked
                    )
                })
            });
        let waves = if sc.planned { "planner" } else { "reconfiguration" };
        let unlanded = (!out.truncated && !o.repair_ok)
            .then(|| format!("only {landed}/{fired} {waves} waves landed"));
        (failure, unlanded)
    })
}

/// The first scripted key not at exactly its `shard_of(key, to_n)`
/// home right after a wave landed.
fn homing_violation(sc: &ShardScript, st: &ShardRun, to_n: usize) -> Option<String> {
    let how = if sc.planned { "planned re-homing" } else { "re-homing" };
    sc.reqs.iter().find_map(|r| {
        let homes = st.homes(&r.key);
        let home = shard_of(&r.key, to_n);
        if homes.len() > 1 {
            Some(format!(
                "key {} double-homed after {how} to {to_n} shards: stores {:?}",
                r.key,
                store_numbers(&homes)
            ))
        } else if homes.first().is_some_and(|h| *h != home) {
            Some(format!(
                "key {} homed at store {} instead of {} after {how} to {to_n} shards",
                r.key,
                homes[0] + 1,
                home + 1
            ))
        } else {
            None
        }
    })
}

/// A Reshard/Churn wave: one single-step `Runtime::reconfigure` to the
/// monotone instance set. Returns whether it landed.
fn single_step_wave(
    rt: &Runtime,
    sc: &ShardScript,
    st: &ShardRun,
    to_n: usize,
    fence: bool,
) -> bool {
    let live = *st.live_n.lock();
    let inst_n = live.max(to_n);
    let mut rs = ReconfigSpec::default();
    rs.apps.push(("Fnt".to_string(), Box::new(st.front(to_n))));
    for i in live + 1..=inst_n {
        st.join(&mut rs, i);
    }
    st.rehome(&mut rs, to_n, !fence);
    let landed = rt.reconfigure(&sc.programs[&inst_n], rs).is_ok();
    if landed {
        *st.live_n.lock() = inst_n;
        st.log.lock().push(format!("wave -> {to_n} shards ({inst_n} instances) ok"));
    }
    landed
}

/// A Planned wave: a phased plan under `max_concurrent_quiesce = 1`,
/// run through the checked `Runtime::reconfigure_plan`. With the fence
/// off the wave builds a break-before-make plan instead of asking the
/// planner, and the executor's plan check is the oracle that must catch
/// it. Returns whether the wave landed.
fn planned_wave(
    rt: &Runtime,
    sc: &ShardScript,
    st: &ShardRun,
    w: usize,
    to_n: usize,
    fence: bool,
) -> bool {
    let constraints = PlanConstraints::max_quiesce(1);
    let a = rt.current_program();
    let b = &sc.programs[&to_n];
    let plan = if fence {
        match plan_reconfiguration(&a, b, &constraints) {
            Ok(p) => p,
            Err(e) => {
                st.plan_bad
                    .lock()
                    .get_or_insert_with(|| format!("wave {} unplannable: {e}", w + 1));
                return false;
            }
        }
    } else {
        plan_break_before_make(&a, b, &constraints)
    };

    let report = rt.reconfigure_plan(&plan, |phase| {
        let mut rs = ReconfigSpec::default();
        for added in &phase.diff.added {
            let i: usize = added
                .strip_prefix("Bck")
                .and_then(|s| s.parse().ok())
                .expect("planned scenario only adds Bck shards");
            st.join(&mut rs, i);
        }
        if phase.diff.changed.iter().any(|c| c.name == "Fnt") {
            rs.apps.push(("Fnt".to_string(), Box::new(st.front(to_n))));
            // Re-home the keyspace in the same phase that cuts the
            // routing over — the front is held, so no request can race
            // the redistribution.
            st.rehome(&mut rs, to_n, false);
        }
        rs
    });
    let report = match report {
        Ok(report) => report,
        Err(verdict) => {
            st.plan_bad.lock().get_or_insert_with(|| {
                format!(
                    "wave {} plan invalid under max_concurrent_quiesce={}: {}",
                    w + 1,
                    constraints.max_concurrent_quiesce,
                    verdict
                )
            });
            return false;
        }
    };
    if report.max_phase_quiesce() > constraints.max_concurrent_quiesce {
        st.over_quiesce.lock().get_or_insert_with(|| {
            format!(
                "wave {} quiesced {} instances in one phase (bound {})",
                w + 1,
                report.max_phase_quiesce(),
                constraints.max_concurrent_quiesce
            )
        });
    }
    st.log.lock().push(if report.ok() {
        format!("wave -> {to_n} shards in {} phases ok", report.phases.len())
    } else {
        format!("wave -> {to_n} shards FAILED at phase {:?}", report.error.as_ref().map(|(i, _)| i))
    });
    report.ok()
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

/// One restore run's state.
struct RsRun {
    counters: Vec<Arc<AtomicUsize>>,
    checkpointed: Vec<Arc<Mutex<Vec<i64>>>>,
    recovered: Vec<Arc<Mutex<Option<i64>>>>,
    /// `blobs[i][j]`: store `d{i+1}_{j+1}`'s latest checkpoint.
    blobs: Vec<Vec<Arc<Mutex<Option<Value>>>>>,
    /// While true, scripted checkpoints skip `p1` (park the junction
    /// across the crash window so the recovery path itself is what the
    /// walk reorders).
    parked: AtomicBool,
    /// Whether the scripted crash actually fired this run. A shrunk
    /// replay can suppress the crash injection entirely; the recovery
    /// liveness oracle must not demand recovery from a crash that
    /// never happened.
    crashed: AtomicBool,
    landmark: Mutex<Option<i64>>,
    ticks: AtomicUsize,
}

fn wire_restore(spec: &ScheduleSpec) -> Scene {
    let (n, k) = (spec.shards, spec.replicas);
    let boot = csaw_core::compile(checkpoint_mesh(n, k), &LoadConfig::new()).unwrap();
    let mut h = Harness::new(spec, 4, move || RsRun {
        counters: (0..n).map(|_| Default::default()).collect(),
        checkpointed: (0..n).map(|_| Default::default()).collect(),
        recovered: (0..n).map(|_| Default::default()).collect(),
        blobs: (0..n).map(|_| (0..k).map(|_| Default::default()).collect()).collect(),
        parked: AtomicBool::new(false),
        crashed: AtomicBool::new(false),
        landmark: Mutex::new(None),
        ticks: AtomicUsize::new(0),
    });

    // Counters advance on scripted ticks; checkpoints are scripted
    // invokes (no periodic policy), so both sides of the crash race
    // live at fixed virtual times and the walk orders everything else
    // around them.
    let mut tick_times: Vec<u64> = (1..=24).map(|i| i * 10).collect();
    tick_times.extend((21..=30).map(|i| i * 20));
    for t in tick_times {
        h.inject(ms(t), &format!("tick-{t}"), move |_rt, st| {
            for c in &st.counters {
                c.fetch_add(1, Ordering::SeqCst);
            }
            st.ticks.fetch_add(n, Ordering::SeqCst);
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
        h.inject(ms(t), &format!("ckpt-{t}"), move |rt, st| {
            for i in 1..=n {
                if i == 1 && st.parked.load(Ordering::SeqCst) {
                    continue;
                }
                let deadline = rt.clock().now() + REQUEST_DEADLINE;
                let _ = rt.invoke_deadline(&mesh_primary(i), "checkpoint", deadline);
            }
        });
    }
    h.inject(ms(RS_CRASH_AT), "crash-p1", |rt, st| {
        st.parked.store(true, Ordering::SeqCst);
        st.crashed.store(true, Ordering::SeqCst);
        // The durable floor: the blob `p1`'s first store replica has
        // *applied* at crash time. A later save may still be in flight
        // on the link; recovery serving the applied blob instead of the
        // in-flight one is correct, so the oracle must not anchor on
        // the primary's in-memory counter.
        *st.landmark.lock() = st.blobs[0][0].lock().as_ref().and_then(|v| v.as_int());
        rt.crash(&mesh_primary(1));
        // The crash loses in-memory state; the repair must restore it
        // from the checkpoint mesh.
        st.counters[0].store(0, Ordering::SeqCst);
    });
    h.inject(ms(RS_RESUME_AT), "resume-checkpoints", |_rt, st| {
        st.parked.store(false, Ordering::SeqCst);
    });

    let fence = fence_enabled(spec);
    let start = move |rt: &Runtime, st: &Arc<RsRun>| {
        for i in 1..=n {
            rt.bind_app(
                &mesh_primary(i),
                Box::new(MeshCounterApp {
                    counter: Arc::clone(&st.counters[i - 1]),
                    checkpointed: Arc::clone(&st.checkpointed[i - 1]),
                    recovered: Arc::clone(&st.recovered[i - 1]),
                }),
            );
            for j in 1..=k {
                rt.bind_app(
                    &mesh_store(i, j),
                    Box::new(MeshBlobApp { latest: Arc::clone(&st.blobs[i - 1][j - 1]) }),
                );
            }
            rt.set_policy(&mesh_primary(i), "checkpoint", Policy::OnDemand);
        }
        rt.run_main(vec![Value::Duration(ms(600))]).unwrap();

        let verify_recovered = Arc::clone(&st.recovered[0]);
        // The deliberate bug: with the fence off, the repair policy
        // restarts the crashed primary but never re-arms recovery — the
        // process comes back "healthy" and empty, `recovered` stays
        // `None`, and the liveness oracle reports it at the horizon.
        // The green policy asserts `NeedState` after the restart so the
        // `recover` junction's guard fires.
        Some(
            rt.supervise(SupervisorConfig {
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
            }),
        )
    };

    // Restart keeps the program; the only epoch is the boot one. The
    // repair hook injects a NeedState apply.
    h.scene(boot, OverloadConfig::default(), start, true, move |_rt, out, st, records, o| {
        let landmark = *st.landmark.lock();
        let recovered = *st.recovered[0].lock();
        let mut failure: Option<String> = None;

        // Safety: a recovered state must be one that was genuinely
        // checkpointed, and not older than the checkpoint the store had
        // durably applied when the primary crashed.
        if let Some(r) = recovered {
            if !st.checkpointed[0].lock().contains(&r) {
                failure = Some(format!("recovered state {r} was never checkpointed"));
            } else if let Some(l) = landmark {
                if r < l {
                    failure = Some(format!("recovered state {r} predates the crash landmark {l}"));
                }
            }
        }
        // Replica agreement: every store blob is a genuinely
        // checkpointed state of its primary.
        if failure.is_none() {
            'outer: for i in 1..=n {
                for j in 1..=k {
                    if let Some(v) = st.blobs[i - 1][j - 1].lock().clone() {
                        let genuine =
                            v.as_int().is_some_and(|v| st.checkpointed[i - 1].lock().contains(&v));
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

        o.acked = st.ticks.load(Ordering::SeqCst);
        o.repair_ok = records.iter().any(|r| r.instance == mesh_primary(1) && r.ok);
        // Liveness, only when the walk reached the horizon and the
        // scripted crash actually fired (a shrunk replay can suppress
        // the crash injection).
        if failure.is_none() && !out.truncated && st.crashed.load(Ordering::SeqCst) {
            if recovered.is_none() {
                failure = Some("crash recovery never completed".to_string());
            } else if !o.repair_ok {
                failure = Some("restart repair did not verify".to_string());
            }
        }
        (failure, None)
    })
}
