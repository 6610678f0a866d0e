//! Diurnal autoscale bench: close the full loop — metrics gauges →
//! [`csaw_runtime::Runtime::autoscale`] → planned, phased
//! reconfigurations — under sustained traffic over a scripted diurnal
//! load model, and prove the invariants held across every transition.
//!
//! The day has six stages. Each stage sets the `offered_rate` and
//! `read_fraction` gauges the autoscaler samples, then keeps real
//! SET/GET traffic flowing while the monitor thread reacts:
//!
//! 1. `morning_low` — in-band load; the scaler must hold at 2 shards.
//! 2. `midday_peak` — per-shard rate crosses the split watermark;
//!    planner-driven **split 2→4** (make-before-break: new shards come
//!    up before the front re-routes and the keyspace re-homes).
//! 3. `read_heavy` — read fraction crosses the cache watermark;
//!    **cache-tier insertion** as a single-quiesce front-end swap
//!    ([`csaw_arch::sharding::sharding_cached`]).
//! 4. `shard_crash` — fail-over interplay: `Bck1` crashes mid-stage
//!    and the supervisor restarts it while the autoscaler (steady
//!    gauges) correctly stays quiet.
//! 5. `write_heavy` — read fraction falls below the low watermark;
//!    **cache-tier removal**.
//! 6. `night_low` — per-shard rate falls below the merge watermark;
//!    planner-driven **merge 4→2** with true instance removal, the
//!    keyspace re-homed before the spare shards retire.
//!
//! Every plan is checked by [`csaw_core::plan::check_plan`] before
//! execution, inside [`csaw_runtime::Runtime::reconfigure_plan`].
//! Oracles: all four transitions
//! land, zero lost acknowledged writes, zero permanently refused
//! requests, every phase quiesces at most `max_concurrent_quiesce`
//! instances, the crash repair verifies, and the recorded trace passes
//! cross-epoch conformance against the runtime's epoch chain: the boot
//! program plus every phase target it cut to, in cut order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_arch::sharding::{sharding, sharding_cached, CachedShardingSpec, ShardingSpec};
use csaw_core::plan::{PlanConstraints, PlanPhase};
use csaw_core::program::{CompiledProgram, LoadConfig};
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{
    AutoscaleConfig, AutoscaleDriver, AutoscaleGoal, AutoscaleStats, FailureClass, ReconfigSpec,
    RepairAction, RepairPolicy, Runtime, RuntimeConfig, ScaleError, SupervisorConfig,
};
use mini_redis::apps::{
    CachedShardFrontApp, ReplyQueue, RequestQueue, ServerApp, ShardFrontApp, ShardMode,
};
use mini_redis::hash::shard_of;
use mini_redis::Store;
use parking_lot::Mutex;

use crate::conformance_runs::{check_runtime_trace, ConformanceSummary};
use crate::harness::{
    command_for, drive_one, drive_until, join_shard, lost_acked_sets, wait_until, FRONT_TIMEOUT,
};
use crate::report::{Outcome, Report};

/// Smallest / largest shard count the scaler may reach.
const MIN_SHARDS: usize = 2;
const MAX_SHARDS: usize = 4;
/// Cache capacity of the inserted tier.
const CACHE_CAPACITY: usize = 64;

/// Timing knobs. Smoke mode (CI) compresses the per-stage traffic
/// holds; settle windows stay generous because they are upper bounds,
/// not sleeps.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalKnobs {
    /// Driver pacing between requests.
    pub pace: Duration,
    /// Traffic hold per stage after its condition is met.
    pub hold: Duration,
    /// Upper bound on gauge-set → transition-landed (or repair
    /// verified) per stage.
    pub settle: Duration,
    /// Autoscaler sampling period.
    pub poll: Duration,
    /// Autoscaler hold-fire window after each transition.
    pub cooldown: Duration,
    /// Consecutive samples a goal change must persist.
    pub confirm_polls: u32,
}

/// Knobs for full vs smoke runs.
pub fn knobs(smoke: bool) -> DiurnalKnobs {
    if smoke {
        DiurnalKnobs {
            pace: Duration::from_millis(1),
            hold: Duration::from_millis(120),
            settle: Duration::from_secs(10),
            poll: Duration::from_millis(20),
            cooldown: Duration::from_millis(80),
            confirm_polls: 2,
        }
    } else {
        DiurnalKnobs {
            pace: Duration::from_micros(300),
            hold: Duration::from_millis(400),
            settle: Duration::from_secs(10),
            poll: Duration::from_millis(30),
            cooldown: Duration::from_millis(150),
            confirm_polls: 2,
        }
    }
}

// ---------------------------------------------------------------------
// The driver: goals → programs, plan phases → specs
// ---------------------------------------------------------------------

/// [`AutoscaleDriver`] for the sharded KV architecture: `goal.shards`
/// back-ends (`sharding`) with an optional cache-fronted variant
/// (`sharding_cached`), phase specs that bind fresh shard apps over the
/// bench-owned stores and re-home the keyspace in the same phase that
/// cuts the routing over.
struct ShardDriver {
    requests: RequestQueue,
    replies: ReplyQueue,
    /// One store per potential shard, bench-owned so state survives
    /// instance removal and the lost-write oracle can see everything.
    stores: Vec<Arc<Mutex<Store>>>,
    /// Latest cache tier's hit/miss counters (refreshed on insertion).
    cache_hits: Mutex<Arc<std::sync::atomic::AtomicU64>>,
    cache_misses: Mutex<Arc<std::sync::atomic::AtomicU64>>,
}

impl ShardDriver {
    fn front_over(&self, goal: &AutoscaleGoal) -> Box<dyn csaw_runtime::InstanceApp> {
        if goal.cache {
            let mut front = CachedShardFrontApp::new(ShardMode::ByKey, goal.shards, CACHE_CAPACITY);
            front.requests = Arc::clone(&self.requests);
            front.replies = Arc::clone(&self.replies);
            *self.cache_hits.lock() = Arc::clone(&front.hits);
            *self.cache_misses.lock() = Arc::clone(&front.misses);
            Box::new(front)
        } else {
            let mut front = ShardFrontApp::new(ShardMode::ByKey, goal.shards);
            front.requests = Arc::clone(&self.requests);
            front.replies = Arc::clone(&self.replies);
            Box::new(front)
        }
    }
}

impl AutoscaleDriver for ShardDriver {
    fn program(&self, goal: &AutoscaleGoal) -> Result<CompiledProgram, String> {
        let base = ShardingSpec { n_backends: goal.shards, ..ShardingSpec::default() };
        let program = if goal.cache {
            sharding_cached(&CachedShardingSpec { base, ..CachedShardingSpec::default() })
        } else {
            sharding(&base)
        };
        csaw_core::compile(program, &LoadConfig::new()).map_err(|e| e.to_string())
    }

    fn phase_spec(&self, goal: &AutoscaleGoal, phase: &PlanPhase) -> ReconfigSpec {
        let mut rs = ReconfigSpec::default();
        for added in &phase.diff.added {
            let i: usize = added
                .strip_prefix("Bck")
                .and_then(|s| s.parse().ok())
                .expect("the autoscale architecture only adds Bck shards");
            join_shard(&mut rs, i, &self.stores[i - 1], FRONT_TIMEOUT);
        }
        if phase.diff.changed.iter().any(|c| c.name == "Fnt") {
            rs.apps.push(("Fnt".to_string(), self.front_over(goal)));
            // Re-home the keyspace in the same phase that cuts the
            // routing over — the front is held, so no request races
            // the redistribution. For cache-only transitions the shard
            // count is unchanged and every entry stays put.
            let mig = self.stores.clone();
            let to_n = goal.shards;
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
    }
}

// ---------------------------------------------------------------------
// The diurnal script
// ---------------------------------------------------------------------

/// One stage of the diurnal model.
struct Stage {
    name: &'static str,
    /// Gauge values the stage presents to the autoscaler.
    rate: f64,
    read_frac: f64,
    /// The goal the system must embody by the end of the stage.
    expect: AutoscaleGoal,
    /// The transition kind this stage must trigger (`None` = the
    /// scaler must stay quiet).
    expect_kind: Option<&'static str>,
    /// Instance crashed mid-stage (fail-over interplay).
    crash: Option<&'static str>,
}

fn day() -> Vec<Stage> {
    let g = |shards, cache| AutoscaleGoal { shards, cache };
    vec![
        // 60 r/s/shard: inside the (30, 100) watermark band.
        Stage { name: "morning_low", rate: 120.0, read_frac: 0.3, expect: g(2, false), expect_kind: None, crash: None },
        // 150 r/s/shard > 100: split. Post-split 75 r/s/shard is in-band.
        Stage { name: "midday_peak", rate: 300.0, read_frac: 0.3, expect: g(4, false), expect_kind: Some("split"), crash: None },
        // Read fraction 0.9 ≥ 0.8: insert the cache tier.
        Stage { name: "read_heavy", rate: 300.0, read_frac: 0.9, expect: g(4, true), expect_kind: Some("cache_in"), crash: None },
        // Steady gauges; Bck1 crashes and the supervisor restarts it.
        Stage { name: "shard_crash", rate: 300.0, read_frac: 0.9, expect: g(4, true), expect_kind: None, crash: Some("Bck1") },
        // Read fraction 0.3 ≤ 0.5: remove the cache tier.
        Stage { name: "write_heavy", rate: 300.0, read_frac: 0.3, expect: g(4, false), expect_kind: Some("cache_out"), crash: None },
        // 20 r/s/shard < 30: merge. Post-merge 40 r/s/shard is in-band.
        Stage { name: "night_low", rate: 80.0, read_frac: 0.3, expect: g(2, false), expect_kind: Some("merge"), crash: None },
    ]
}

/// What one diurnal stage measured.
#[derive(Debug)]
pub struct StageResult {
    /// Stage name (report note prefix).
    pub name: &'static str,
    /// `split` / `cache_in` / `cache_out` / `merge` / `steady` / `failover`.
    pub event: &'static str,
    /// The stage's condition was met (expected transition landed
    /// cleanly, repair verified, or — for steady stages — the scaler
    /// stayed quiet and on-goal).
    pub ok: bool,
    /// Gauge set → condition met.
    pub settle_ms: f64,
    /// Phases of the stage's plan (0 when no transition).
    pub phases: usize,
    /// Largest per-phase quiesce set the stage's plan execution used.
    pub max_phase_quiesce: usize,
    /// Requests driven / acknowledged / retried / permanently refused.
    pub sent: usize,
    pub acked: usize,
    pub retried: usize,
    pub refused: usize,
}

impl StageResult {
    /// One console status line.
    pub fn line(&self) -> String {
        format!(
            "{:12} {:4}  event={:<9} settle={:>7.1}ms phases={} quiesce={} \
             sent={:<4} acked={:<4} retried={:<3} refused={}",
            self.name,
            if self.ok { "OK" } else { "FAIL" },
            self.event,
            self.settle_ms,
            self.phases,
            self.max_phase_quiesce,
            self.sent,
            self.acked,
            self.retried,
            self.refused,
        )
    }
}

/// The whole day's verdict.
#[derive(Debug)]
pub struct DiurnalOutcome {
    /// Per-stage results, in stage order.
    pub stages: Vec<StageResult>,
    /// Clean planner-driven transitions (must be ≥ 4).
    pub transitions: usize,
    /// The per-phase quiesce bound every plan ran under.
    pub quiesce_bound: usize,
    /// Largest per-phase quiesce set any transition used.
    pub max_phase_quiesce: usize,
    /// Plans the executor's `check_plan` judged (one per transition).
    pub plans_validated: usize,
    /// One verdict line per judged plan.
    pub validations: Vec<String>,
    /// Cache tier hit/miss counters over its lifetime.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Autoscaler lifetime counters.
    pub stats: AutoscaleStats,
    /// Acknowledged SETs checked against the stores.
    pub acked_sets: usize,
    /// Acknowledged SETs missing from every store — must be 0.
    pub lost_acked_sets: usize,
    /// Requests permanently refused — must be 0.
    pub refused: usize,
    /// Cross-epoch conformance against boot + every installed phase
    /// target in cut order.
    pub conformance: ConformanceSummary,
    /// Every invariant that broke, human-readable.
    pub failures: Vec<String>,
    /// The raw trace (dumped as an artifact on failure).
    pub trace_jsonl: String,
}

impl DiurnalOutcome {
    /// Fold the outcome into the bench report as notes.
    pub fn note_into(&self, r: &mut Report) {
        for s in &self.stages {
            let p = |k: &str| format!("{}_{k}", s.name);
            r.note(&p("ok"), if s.ok { 1.0 } else { 0.0 });
            r.note(&p("settle_ms"), s.settle_ms);
            r.note(&p("phases"), s.phases as f64);
            r.note(&p("max_phase_quiesce"), s.max_phase_quiesce as f64);
            r.note(&p("sent"), s.sent as f64);
            r.note(&p("acked"), s.acked as f64);
            r.note(&p("retried"), s.retried as f64);
            r.note(&p("refused"), s.refused as f64);
        }
        r.note("transitions", self.transitions as f64);
        r.note("quiesce_bound", self.quiesce_bound as f64);
        r.note("max_phase_quiesce", self.max_phase_quiesce as f64);
        r.note("plans_validated", self.plans_validated as f64);
        r.note("cache_hits", self.cache_hits as f64);
        r.note("cache_misses", self.cache_misses as f64);
        r.note("samples", self.stats.samples as f64);
        r.note("confirmed", self.stats.confirmed as f64);
        r.note("suppressed", self.stats.suppressed as f64);
        r.note("failed_transitions", self.stats.failed as f64);
        r.note("acked_sets", self.acked_sets as f64);
        r.note("lost_acked_sets", self.lost_acked_sets as f64);
        r.note("refused", self.refused as f64);
        r.note("conformance_ok", if self.conformance.ok { 1.0 } else { 0.0 });
        r.note("conformance_events", self.conformance.events as f64);
        r.note("conformance_violations", self.conformance.violations as f64);
    }
}

/// The `autoscale` command: one diurnal day into
/// `results/autoscale.json`. Fewer than four transitions, a plan the
/// executor's `check_plan` refused, a phase over the quiesce bound, a
/// lost acknowledged write, a permanently refused request, an
/// unverified crash repair or a cross-epoch conformance violation fails
/// the run and dumps the trace to
/// `results/autoscale_offending_trace.jsonl`.
pub fn command(smoke: bool) -> Outcome {
    let day = run_diurnal(knobs(smoke));
    let mut report = Report::new(
        "autoscale",
        "metrics-driven autoscaler: planner-driven reshard over a diurnal day",
    );
    report.remark(if smoke {
        "smoke run (compressed traffic holds)"
    } else {
        "full run"
    });
    report.remark(
        "six-stage diurnal model; every transition is planned under \
         max_concurrent_quiesce=1, independently validated by check_plan, \
         and executed as phased reconfigurations under live traffic",
    );
    for v in &day.validations {
        report.remark(format!("plan: {v}"));
    }
    for s in &day.stages {
        println!("{}", s.line());
    }
    println!(
        "day: {} transitions, max phase quiesce {}/{}, {} plans validated, \
         cache {}h/{}m, {} acked SETs ({} lost), {} refused, conformance {}",
        day.transitions,
        day.max_phase_quiesce,
        day.quiesce_bound,
        day.plans_validated,
        day.cache_hits,
        day.cache_misses,
        day.acked_sets,
        day.lost_acked_sets,
        day.refused,
        if day.conformance.ok { "ok" } else { "VIOLATED" },
    );
    day.note_into(&mut report);
    let mut out = Outcome::from(report);
    let dump = "autoscale_offending_trace.jsonl".into();
    out.fail_run("autoscale", day.failures, dump, day.trace_jsonl);
    out
}

/// Run the six-stage diurnal day and judge it.
pub fn run_diurnal(k: DiurnalKnobs) -> DiurnalOutcome {
    let constraints = PlanConstraints::max_quiesce(1);
    let boot = csaw_core::compile(
        sharding(&ShardingSpec { n_backends: MIN_SHARDS, ..ShardingSpec::default() }),
        &LoadConfig::new(),
    )
    .unwrap();

    let rt = Runtime::new(&boot, RuntimeConfig::default());
    rt.set_tracing(true);
    let front = ShardFrontApp::new(ShardMode::ByKey, MIN_SHARDS);
    let requests = Arc::clone(&front.requests);
    let replies = Arc::clone(&front.replies);
    rt.bind_app("Fnt", Box::new(front));
    let mut stores: Vec<Arc<Mutex<Store>>> = Vec::new();
    for i in 1..=MAX_SHARDS {
        let app = ServerApp::new();
        stores.push(Arc::clone(&app.store));
        if i <= MIN_SHARDS {
            rt.bind_app(&format!("Bck{i}"), Box::new(app));
        }
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();

    // Gauges first, then the autoscaler: its first sample must see the
    // morning load, not zeros.
    let metrics = rt.metrics();
    let rate_gauge = metrics.gauge("offered_rate");
    let read_gauge = metrics.gauge("read_fraction");
    let stages = day();
    rate_gauge.set(stages[0].rate);
    read_gauge.set(stages[0].read_frac);

    let driver = Arc::new(ShardDriver {
        requests: Arc::clone(&requests),
        replies: Arc::clone(&replies),
        stores: stores.clone(),
        cache_hits: Mutex::new(Arc::new(std::sync::atomic::AtomicU64::new(0))),
        cache_misses: Mutex::new(Arc::new(std::sync::atomic::AtomicU64::new(0))),
    });
    let scaler = rt.autoscale(
        AutoscaleConfig {
            poll: k.poll,
            split_above: 100.0,
            merge_below: 30.0,
            cache_above: 0.8,
            cache_below: 0.5,
            confirm_polls: k.confirm_polls,
            cooldown: k.cooldown,
            min_shards: MIN_SHARDS,
            max_shards: MAX_SHARDS,
            constraints: constraints.clone(),
            ..AutoscaleConfig::default()
        },
        AutoscaleGoal { shards: MIN_SHARDS, cache: false },
        Arc::clone(&driver) as Arc<dyn AutoscaleDriver>,
    );

    let mut failures: Vec<String> = Vec::new();
    let mut stage_results: Vec<StageResult> = Vec::new();
    let mut acked_sets: Vec<(String, Vec<u8>)> = Vec::new();
    let next_i = AtomicUsize::new(0);
    let mut cache_high = (0u64, 0u64);

    for stage in &stages {
        let prev_records = scaler.records().len();
        rate_gauge.set(stage.rate);
        read_gauge.set(stage.read_frac);
        let t0 = Instant::now();

        // Keep real traffic flowing while the monitor thread reacts.
        let stop = AtomicBool::new(false);
        let sup = stage.crash.map(|_| {
            rt.supervise(SupervisorConfig {
                poll: Duration::from_millis(10),
                verify_timeout: Duration::from_secs(2),
                policy: RepairPolicy::new()
                    .on(FailureClass::Crash, vec![RepairAction::Restart]),
                ..Default::default()
            })
        });
        let (traffic, settled, repair_ok) = std::thread::scope(|s| {
            let rt_ref = &rt;
            let requests = &requests;
            let replies = &replies;
            let stop_ref = &stop;
            let next_ref = &next_i;
            let driver_thread = s.spawn(move || {
                // The command index runs on across stages.
                drive_until(stop_ref, k.pace, |_, t| {
                    let cmd = command_for(next_ref.fetch_add(1, Ordering::Relaxed));
                    let replies_len = || replies.lock().len();
                    drive_one(rt_ref, ("Fnt", "junction"), requests, replies_len, &cmd, t);
                })
            });

            let mut repair_ok = None;
            let settled = if let Some(victim) = stage.crash {
                // Let the stage's steady traffic establish, then fail
                // the shard under the supervisor's watch.
                std::thread::sleep(k.hold / 2);
                rt.crash(victim);
                let sup = sup.as_ref().unwrap();
                let ok = wait_until(k.settle, || {
                    sup.records().iter().any(|r| r.instance == victim && r.ok)
                });
                repair_ok = Some(ok);
                ok
            } else if stage.expect_kind.is_some() {
                wait_until(k.settle, || {
                    scaler.records().len() > prev_records
                        && scaler.goal() == Some(stage.expect)
                })
            } else {
                true
            };
            std::thread::sleep(k.hold);
            stop.store(true, Ordering::Relaxed);
            (driver_thread.join().expect("traffic driver"), settled, repair_ok)
        });
        let settle_ms = t0.elapsed().as_secs_f64() * 1e3 - k.hold.as_secs_f64() * 1e3;
        if let Some(sup) = sup {
            sup.stop();
        }

        // Judge the stage.
        let new_records: Vec<_> = scaler.records().into_iter().skip(prev_records).collect();
        let (mut ok, mut event) = (settled, "steady");
        let (mut phases, mut quiesce) = (0usize, 0usize);
        match stage.expect_kind {
            Some(kind) => {
                event = kind;
                let fired = new_records.iter().find(|r| r.kind() == kind);
                match fired {
                    Some(r) if r.ok() => {
                        phases = r.phases;
                        quiesce = r.max_phase_quiesce;
                    }
                    Some(r) => {
                        ok = false;
                        failures.push(format!(
                            "{}: {kind} transition failed: {:?}",
                            stage.name, r.error
                        ));
                    }
                    None => {
                        ok = false;
                        failures.push(format!(
                            "{}: expected a {kind} transition, scaler fired {:?}",
                            stage.name,
                            new_records.iter().map(|r| r.kind()).collect::<Vec<_>>()
                        ));
                    }
                }
            }
            None => {
                if stage.crash.is_some() {
                    event = "failover";
                    if repair_ok != Some(true) {
                        ok = false;
                        failures.push(format!("{}: shard repair never verified", stage.name));
                    }
                }
                if !new_records.is_empty() {
                    ok = false;
                    failures.push(format!(
                        "{}: scaler fired {:?} during a steady stage",
                        stage.name,
                        new_records.iter().map(|r| r.kind()).collect::<Vec<_>>()
                    ));
                }
            }
        }
        if !settled && stage.expect_kind.is_some() {
            failures.push(format!(
                "{}: goal {:?} not reached within {:?} (goal now {:?})",
                stage.name,
                stage.expect,
                k.settle,
                scaler.goal()
            ));
        }
        if scaler.goal() != Some(stage.expect) {
            ok = false;
            failures.push(format!(
                "{}: ended on goal {:?}, expected {:?}",
                stage.name,
                scaler.goal(),
                stage.expect
            ));
        }
        // Snapshot cache counters while the tier exists; cache_out
        // replaces the app (and the counters) with fresh zeros.
        let hits = driver.cache_hits.lock().load(Ordering::Relaxed);
        let misses = driver.cache_misses.lock().load(Ordering::Relaxed);
        if hits + misses > cache_high.0 + cache_high.1 {
            cache_high = (hits, misses);
        }
        stage_results.push(StageResult {
            name: stage.name,
            event,
            ok,
            settle_ms: settle_ms.max(0.0),
            phases,
            max_phase_quiesce: quiesce,
            sent: traffic.sent,
            acked: traffic.acked,
            retried: traffic.retried,
            refused: traffic.refused,
        });
        acked_sets.extend(traffic.acked_sets);
    }

    let records = scaler.records();
    let stats = scaler.stats();
    scaler.stop();
    // Cross-epoch conformance over the runtime's own chain: the boot
    // program + every phase target it cut to. The crash repair
    // restarts in place, so it adds no epoch.
    let (conformance, jsonl) = check_runtime_trace(&rt, false);
    rt.shutdown();

    // ----------------------------------------------------------------
    // Day-level oracles
    // ----------------------------------------------------------------
    let transitions = records.iter().filter(|r| r.ok()).count();
    if transitions < 4 {
        failures.push(format!("only {transitions} clean transitions (need ≥ 4)"));
    }
    let max_phase_quiesce = records.iter().map(|r| r.max_phase_quiesce).max().unwrap_or(0);
    if max_phase_quiesce > constraints.max_concurrent_quiesce {
        failures.push(format!(
            "a phase quiesced {max_phase_quiesce} instances (bound {})",
            constraints.max_concurrent_quiesce
        ));
    }
    // The executor checks every plan; a refusal comes back as
    // `ScaleError::Plan` carrying the verdict.
    let validations: Vec<String> = records
        .iter()
        .map(|r| {
            let verdict = match &r.error {
                Some(ScaleError::Plan(v)) => v.as_str(),
                _ => "valid",
            };
            format!(
                "{} phases under max_concurrent_quiesce={}: {verdict}",
                r.phases, constraints.max_concurrent_quiesce
            )
        })
        .collect();

    let lost = lost_acked_sets(&acked_sets, &stores);
    if lost > 0 {
        failures.push(format!("{lost} acknowledged SETs lost"));
    }
    let refused: usize = stage_results.iter().map(|s| s.refused).sum();
    if refused > 0 {
        failures.push(format!("{refused} requests permanently refused"));
    }
    if cache_high.0 == 0 {
        failures.push("the cache tier never served a hit".to_string());
    }

    if !conformance.ok {
        failures.push(format!("cross-epoch conformance: {}", conformance.detail));
    }

    DiurnalOutcome {
        stages: stage_results,
        transitions,
        quiesce_bound: constraints.max_concurrent_quiesce,
        max_phase_quiesce,
        plans_validated: validations.len(),
        validations,
        cache_hits: cache_high.0,
        cache_misses: cache_high.1,
        stats,
        acked_sets: acked_sets.len(),
        lost_acked_sets: lost,
        refused,
        conformance,
        failures,
        trace_jsonl: jsonl,
    }
}
