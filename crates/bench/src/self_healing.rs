//! Self-healing MTTR bench: inject a fault of each failure class under
//! sustained traffic, let [`csaw_runtime::Runtime::supervise`] run its
//! detect → plan → act → verify loop, and measure how long the outage
//! really lasted.
//!
//! Three scenarios, one per failure class the supervisor distinguishes:
//!
//! 1. `crash_rehoming` — a shard of a 3-way sharded store crashes; the
//!    repair live-reconfigures to the same architecture over the
//!    survivor set ([`ShardingSpec::over`]) and the migrate closure
//!    re-homes the dead shard's entries while the front is held.
//! 2. `partition_promote` — the preferred back-end of the §7.4
//!    supervised fail-over architecture is partitioned away; a quorum of
//!    observers confirms, the repair fences it and promotes the spare,
//!    and after the partition heals the fenced zombie provably cannot
//!    ack anything stale.
//! 3. `crash_restore` — the checkpoint architecture's primary crashes
//!    and is repaired by [`RepairAction::RestartThen`] with a hook that
//!    triggers the §10.1 checkpoint-restore protocol; recovery must land
//!    on a genuinely checkpointed state.
//!
//! Per scenario the report carries the MTTR split three ways —
//! `detect_ms` (fault injection → anomaly confirmed and planned),
//! `repair_ms` (plan → verified converged), `mttr_ms` (injection →
//! verified) — plus the invariants: **zero lost acknowledged writes**,
//! no permanently refused requests, traffic served after the repair,
//! and a cross-epoch conformance pass of the recorded trace against the
//! runtime's own epoch chain
//! ([`crate::conformance_runs::check_runtime_trace`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_arch::watched::{promoted, supervised_failover, WatchedSpec};
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_kv::Update;
use csaw_runtime::runtime::Policy;
use csaw_runtime::supervisor::{RebuildFn, RepairAction, RepairHook};
use csaw_runtime::{
    FailureClass, FaultPlan, HeartbeatConfig, ReconfigSpec, RepairPolicy, RepairRecord, Runtime,
    RuntimeConfig, Supervisor, SupervisorConfig,
};
use mini_redis::apps::{RequestQueue, ServerApp, ShardFrontApp, ShardMode};
use mini_redis::hash::shard_of;
use mini_redis::Store;
use parking_lot::Mutex;

use crate::chaos::{bind_watched, WatchedApps};
use crate::conformance_runs::{check_runtime_trace, ConformanceSummary};
use crate::harness::{
    boot_checkpoint, command_for, drive_one, drive_until, lost_acked_sets, rehome, wait_until,
    CheckpointRig, DriveStats, FRONT_TIMEOUT,
};
use crate::reconfig_runs::BenchKnobs;
use crate::report::{Outcome, Report};

/// Knobs for full vs smoke runs: `warm` runs before the fault, `after`
/// once the repair verified.
pub fn knobs(smoke: bool) -> BenchKnobs {
    if smoke {
        BenchKnobs {
            warm: Duration::from_millis(100),
            after: Duration::from_millis(150),
            pace: Duration::from_millis(1),
        }
    } else {
        BenchKnobs {
            warm: Duration::from_millis(500),
            after: Duration::from_millis(500),
            pace: Duration::from_micros(300),
        }
    }
}

/// What one self-healing scenario measured.
#[derive(Debug)]
pub struct RepairOutcome {
    /// Scenario id (report note prefix).
    pub name: String,
    /// Failure class the supervisor confirmed.
    pub class: String,
    /// Repair action it took.
    pub action: String,
    /// The repair passed its verify phase.
    pub repair_ok: bool,
    /// Fault injection → anomaly confirmed and planned.
    pub detect_ms: f64,
    /// Plan → verified converged (act + verify).
    pub repair_ms: f64,
    /// Fault injection → repair verified: the headline MTTR.
    pub mttr_ms: f64,
    /// Reconfigure attempts spent (0 for restarts).
    pub attempts: u32,
    /// Longest per-instance pause a reconfigure attempt caused (µs).
    pub reconfig_pause_us: u64,
    /// Fence floor installed by the repair (-1 = repair did not fence).
    pub fence_epoch: i64,
    /// Sends rejected by the fence over the whole run.
    pub fenced_sends: u64,
    /// Requests driven.
    pub sent: usize,
    /// Requests that produced a reply.
    pub acked: usize,
    /// Retry attempts (these carry requests across the repair window).
    pub retried: usize,
    /// Requests that never completed within the deadline — must be 0.
    pub refused: usize,
    /// Acknowledged SETs checked against the stores.
    pub acked_sets: usize,
    /// Acknowledged SETs missing from every store — must be 0.
    pub lost_acked_sets: usize,
    /// Traffic completed after the repair verified.
    pub served_after_repair: bool,
    /// A fenced zombie's stale write landed post-heal — must stay false.
    pub stale_applied: bool,
    /// Cross-epoch conformance verdict for the recorded trace.
    pub conformance: ConformanceSummary,
    /// The raw trace (dumped as an artifact on failure).
    pub trace_jsonl: String,
}

impl RepairOutcome {
    /// Every invariant the scenario broke, one line each.
    pub fn broke(&self) -> Vec<String> {
        let (lost, refused, c) = (self.lost_acked_sets, self.refused, &self.conformance);
        [
            (!self.repair_ok).then(|| {
                format!("repair never verified (class={}, action={})", self.class, self.action)
            }),
            (!self.served_after_repair).then(|| "no traffic served after the repair".into()),
            (lost > 0).then(|| format!("{lost} acknowledged SETs lost")),
            (refused > 0).then(|| format!("{refused} requests permanently refused")),
            self.stale_applied.then(|| "a fenced zombie's stale ack landed (split-brain)".into()),
            (!c.ok).then(|| format!("cross-epoch violations:\n{}", c.detail)),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Whether the scenario's invariants held.
    pub fn ok(&self) -> bool {
        self.broke().is_empty()
    }

    /// One console status line.
    pub fn line(&self) -> String {
        format!(
            "{:18} {:4}  class={:<9} action={:<11} detect={:>7.1}ms repair={:>7.1}ms \
             mttr={:>7.1}ms lost={:<2} refused={:<2} fenced={:<3} conf={}",
            self.name,
            if self.ok() { "OK" } else { "FAIL" },
            self.class,
            self.action,
            self.detect_ms,
            self.repair_ms,
            self.mttr_ms,
            self.lost_acked_sets,
            self.refused,
            self.fenced_sends,
            if self.conformance.ok { "ok" } else { "VIOLATED" },
        )
    }

    /// Fold the outcome into the bench report as prefixed notes.
    pub fn note_into(&self, r: &mut Report) {
        let p = |k: &str| format!("{}_{k}", self.name);
        r.note(&p("repair_ok"), if self.repair_ok { 1.0 } else { 0.0 });
        r.note(&p("detect_ms"), self.detect_ms);
        r.note(&p("repair_ms"), self.repair_ms);
        r.note(&p("mttr_ms"), self.mttr_ms);
        r.note(&p("attempts"), self.attempts as f64);
        r.note(&p("reconfig_pause_us"), self.reconfig_pause_us as f64);
        r.note(&p("fence_epoch"), self.fence_epoch as f64);
        r.note(&p("fenced_sends"), self.fenced_sends as f64);
        r.note(&p("sent"), self.sent as f64);
        r.note(&p("acked"), self.acked as f64);
        r.note(&p("retried"), self.retried as f64);
        r.note(&p("refused"), self.refused as f64);
        r.note(&p("acked_sets"), self.acked_sets as f64);
        r.note(&p("lost_acked_sets"), self.lost_acked_sets as f64);
        r.note(&p("served_after_repair"), if self.served_after_repair { 1.0 } else { 0.0 });
        r.note(&p("stale_applied"), if self.stale_applied { 1.0 } else { 0.0 });
        r.note(&p("conformance_ok"), if self.conformance.ok { 1.0 } else { 0.0 });
        r.note(&p("conformance_events"), self.conformance.events as f64);
        r.note(&p("conformance_violations"), self.conformance.violations as f64);
    }
}

/// The MTTR split, measured from the moment the bench injected the
/// fault (the supervisor's own records start at first detection — the
/// silence window before that is part of what users experience).
fn mttr_split(record: &RepairRecord, injected_at: Instant) -> (f64, f64, f64) {
    let detect = record
        .detected_at
        .saturating_duration_since(injected_at)
        .saturating_add(record.detect_latency);
    let repair = record.repair_latency;
    let mttr = record.done_at.saturating_duration_since(injected_at);
    (
        detect.as_secs_f64() * 1e3,
        repair.as_secs_f64() * 1e3,
        mttr.as_secs_f64() * 1e3,
    )
}

// ---------------------------------------------------------------------
// Scenario 1 — crash → shard re-homing
// ---------------------------------------------------------------------

/// Crash `Bck2` of a 3-way sharded store under traffic. The supervisor
/// classifies the registry crash immediately and repairs by
/// live-reconfiguring to the same architecture over the survivor set
/// `[Bck1, Bck3]`; the migrate closure drains every store (including
/// the dead shard's, whose state survives in-process) and re-homes each
/// entry by the 2-way shard formula before the front resumes.
pub fn scenario_crash_rehoming(k: BenchKnobs) -> RepairOutcome {
    let a = csaw_core::compile(
        sharding(&ShardingSpec { n_backends: 3, ..Default::default() }),
        &LoadConfig::new(),
    )
    .unwrap();
    let b = csaw_core::compile(
        sharding(&ShardingSpec::over(vec!["Bck1".into(), "Bck3".into()])),
        &LoadConfig::new(),
    )
    .unwrap();
    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.set_tracing(true);
    let front = ShardFrontApp::new(ShardMode::ByKey, 3);
    let requests = Arc::clone(&front.requests);
    let replies = Arc::clone(&front.replies);
    rt.bind_app("Fnt", Box::new(front));
    let mut stores: Vec<Arc<Mutex<Store>>> = Vec::new();
    for i in 1..=3 {
        let app = ServerApp::new();
        stores.push(Arc::clone(&app.store));
        rt.bind_app(&format!("Bck{i}"), Box::new(app));
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();

    // The repair target: reshard over the survivors. Rebuilt per
    // attempt, so each retry gets fresh app boxes over the same shared
    // queues and stores.
    let rebuild: RebuildFn = {
        let target = b.clone();
        let requests = Arc::clone(&requests);
        let replies = Arc::clone(&replies);
        let stores = stores.clone();
        Arc::new(move |_rt, _failed| {
            let mut new_front =
                ShardFrontApp::over(ShardMode::ByKey, vec!["Bck1".into(), "Bck3".into()]);
            new_front.requests = Arc::clone(&requests);
            new_front.replies = Arc::clone(&replies);
            let mut spec = ReconfigSpec::default();
            spec.apps.push(("Fnt".to_string(), Box::new(new_front)));
            let mig = stores.clone();
            // Survivor homes by 2-way shard index: 0 → Bck1, 1 → Bck3.
            spec.migrate = Some(Box::new(move |ctx| {
                let (moved, bytes) = rehome(&mig, 3, |key| [0, 2][shard_of(key, 2)]);
                ctx.note_moved(moved, bytes);
                Ok(())
            }));
            (target.clone(), spec)
        })
    };
    let sup = rt.supervise(SupervisorConfig {
        poll: Duration::from_millis(10),
        verify_timeout: Duration::from_secs(2),
        policy: RepairPolicy::new()
            .on(FailureClass::Crash, vec![RepairAction::Reconfigure(rebuild)]),
        ..Default::default()
    });

    let replies_len = || replies.lock().len();
    let (stats, injected_at, record) =
        drive_through_repair(&rt, &sup, ("Fnt", &requests), &replies_len, "Bck2", k, || {
            rt.crash("Bck2")
        });
    sup.stop();

    let lost = lost_acked_sets(&stats.acked_sets, &stores);
    let fenced_sends = rt.link_stats().fenced;
    let (conformance, jsonl) = check_runtime_trace(&rt, false);
    rt.shutdown();
    outcome_from("crash_rehoming", record, injected_at, stats, lost, fenced_sends, false, conformance, jsonl)
}

// ---------------------------------------------------------------------
// Scenario 2 — partition → fenced promotion
// ---------------------------------------------------------------------

/// Every directed link between the preferred back-end and the rest.
const O_LINKS: [(&str, &str); 4] = [("o", "f"), ("f", "o"), ("o", "s"), ("s", "o")];

/// Partition the preferred back-end `o` of the §7.4 supervised
/// fail-over architecture. Two live observers (`f`, `s`) confirm the
/// silence, the repair fences `o` and promotes the spare via a live
/// reconfiguration; after the partition heals, the zombie is poked into
/// replaying its last ack — which the fence must reject.
pub fn scenario_partition_promote(k: BenchKnobs) -> RepairOutcome {
    let spec = WatchedSpec::default();
    let a = csaw_core::compile(supervised_failover(&spec), &LoadConfig::new()).unwrap();
    let b = csaw_core::compile(promoted(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.set_tracing(true);
    let WatchedApps { requests, replies, store_o, store_s } = bind_watched(&rt);
    rt.set_policy("f", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();
    rt.enable_heartbeats(HeartbeatConfig {
        interval: Duration::from_millis(10),
        suspicion: Duration::from_millis(40),
        k_missed: 2,
    });

    let target = b.clone();
    let sup = rt.supervise(SupervisorConfig {
        poll: Duration::from_millis(10),
        quorum: 2,
        confirm_polls: 2,
        verify_timeout: Duration::from_secs(1),
        policy: RepairPolicy::new().on(
            FailureClass::Partition,
            vec![RepairAction::Reconfigure(Arc::new(move |_rt, _inst| {
                (target.clone(), ReconfigSpec::default())
            }))],
        ),
        ..Default::default()
    });

    let replies_len = || replies.lock().len();
    let (stats, injected_at, record) =
        drive_through_repair(&rt, &sup, ("f", &requests), &replies_len, "o", k, || {
            for (from, to) in O_LINKS {
                rt.set_fault_plan(from, to, FaultPlan::none().with_drop(1.0));
            }
        });

    // Heal the partition and poke the fenced zombie into replaying its
    // last request; with the fence up its acks are dead on the wire.
    for (from, to) in O_LINKS {
        rt.set_fault_plan(from, to, FaultPlan::none());
    }
    rt.deliver_for_test("o", "junction", Update::assert("Run[o]", "mttr-driver"));
    let stale_applied = wait_until(Duration::from_millis(300), || {
        rt.peek_prop("f", "junction", "Reply") == Some(true)
    });
    sup.stop();

    let lost = lost_acked_sets(&stats.acked_sets, &[store_o, store_s]);
    let fenced_sends = rt.link_stats().fenced;
    // The zombie poke injects an apply with no matching send.
    let (conformance, jsonl) = check_runtime_trace(&rt, true);
    rt.shutdown();
    outcome_from("partition_promote", record, injected_at, stats, lost, fenced_sends, stale_applied, conformance, jsonl)
}

// ---------------------------------------------------------------------
// Scenario 3 — crash → restart + checkpoint restore
// ---------------------------------------------------------------------

/// Crash the checkpoint architecture's primary while its counter
/// advances. The repair is [`RepairAction::RestartThen`]: restart in
/// place, then a hook triggers the recovery junction (`NeedState`), and
/// the verify predicate holds out until the restored state is live.
/// The recovered value must be one that was genuinely checkpointed.
pub fn scenario_crash_restore(k: BenchKnobs) -> RepairOutcome {
    let CheckpointRig { rt, counter, checkpointed, recovered, latest } = boot_checkpoint(true);

    // The repair: restart, then trigger the §10.1 restore protocol. The
    // verify predicate keeps the repair open until the state is back.
    let hook: RepairHook = Arc::new(|rt: &Runtime, inst: &str| {
        rt.deliver_for_test(inst, "recover", Update::assert("NeedState", "mttr-driver"));
    });
    let recovered_probe = Arc::clone(&recovered);
    let sup = rt.supervise(SupervisorConfig {
        poll: Duration::from_millis(10),
        verify_timeout: Duration::from_secs(5),
        policy: RepairPolicy::new()
            .on(FailureClass::Crash, vec![RepairAction::RestartThen(hook)])
            .verify_with(move |_rt| recovered_probe.lock().is_some()),
        ..Default::default()
    });

    // Advance the counter while checkpoints flow; wait for a checkpoint
    // at (or past) a landmark so recovery has something fresh to find.
    let t0 = Instant::now();
    while t0.elapsed() < k.warm {
        counter.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(2));
    }
    let landmark = counter.load(Ordering::SeqCst) as i64;
    let stored_fresh = wait_until(Duration::from_secs(10), || {
        matches!(*latest.lock(), Some(Value::Int(v)) if v >= landmark)
    });

    // Crash and lose the in-memory state. The periodic checkpoint is
    // parked first so a post-restart checkpoint of the zeroed counter
    // cannot clobber the blob before recovery reads it back.
    rt.set_policy("Prim", "checkpoint", Policy::OnDemand);
    let injected_at = Instant::now();
    rt.crash("Prim");
    counter.store(0, Ordering::SeqCst);
    let repaired = wait_until(Duration::from_secs(10), || {
        sup.records().iter().any(|r| r.instance == "Prim" && r.ok)
    });
    let got = *recovered.lock();
    let genuine = got.is_some_and(|v| checkpointed.lock().contains(&v) && v >= landmark);

    // Post-repair health: the counter advances and checkpoints flow
    // again.
    rt.set_policy("Prim", "checkpoint", Policy::Periodic(Duration::from_millis(20)));
    let t1 = Instant::now();
    while t1.elapsed() < k.after {
        counter.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(2));
    }
    let new_landmark = counter.load(Ordering::SeqCst) as i64;
    let checkpoints_resumed = wait_until(Duration::from_secs(10), || {
        matches!(*latest.lock(), Some(Value::Int(v)) if v >= new_landmark)
    });
    let record = sup.records().into_iter().find(|r| r.instance == "Prim");
    sup.stop();

    let fenced_sends = rt.link_stats().fenced;
    // No reconfiguring repair → single-epoch chain. The recovery hook
    // injects a `NeedState` apply with no matching send.
    let (conformance, jsonl) = check_runtime_trace(&rt, true);
    rt.shutdown();
    let stats = DriveStats {
        sent: landmark.max(0) as usize,
        acked: if repaired && genuine { landmark.max(0) as usize } else { 0 },
        refused: usize::from(!(stored_fresh && genuine)),
        ..Default::default()
    };
    outcome_from(
        "crash_restore",
        record,
        injected_at,
        stats,
        0,
        fenced_sends,
        false,
        conformance,
        jsonl,
    )
    .with_served_after(checkpoints_resumed)
}

impl RepairOutcome {
    fn with_served_after(mut self, served: bool) -> RepairOutcome {
        self.served_after_repair = served;
        self
    }
}

/// Assemble the outcome from the supervisor's record plus the driver's
/// observations. `served_after_repair` defaults to "the driver acked
/// something and the repair verified"; scenario 3 overrides it with its
/// checkpoint-resumption probe.
#[allow(clippy::too_many_arguments)]
fn outcome_from(
    name: &str,
    record: Option<RepairRecord>,
    injected_at: Instant,
    stats: DriveStats,
    lost: usize,
    fenced_sends: u64,
    stale_applied: bool,
    conformance: ConformanceSummary,
    trace_jsonl: String,
) -> RepairOutcome {
    let (class, action, repair_ok, attempts, pause, fence_epoch, splits) = match &record {
        Some(r) => (
            r.class.label().to_string(),
            r.action.to_string(),
            r.ok,
            r.attempts,
            r.reconfig_pause.as_micros() as u64,
            r.fence_epoch.map_or(-1, |e| e as i64),
            mttr_split(r, injected_at),
        ),
        None => ("undetected".into(), "-".into(), false, 0, 0, -1, (f64::NAN, f64::NAN, f64::NAN)),
    };
    RepairOutcome {
        name: name.to_string(),
        class,
        action,
        repair_ok,
        detect_ms: splits.0,
        repair_ms: splits.1,
        mttr_ms: splits.2,
        attempts,
        reconfig_pause_us: pause,
        fence_epoch,
        fenced_sends,
        sent: stats.sent,
        acked: stats.acked,
        retried: stats.retried,
        refused: stats.refused,
        acked_sets: stats.acked_sets.len(),
        lost_acked_sets: lost,
        served_after_repair: repair_ok && stats.acked > 0,
        stale_applied,
        conformance,
        trace_jsonl,
    }
}

/// Drive traffic through `front`'s junction from a second thread while
/// this one waits out the warm window, runs `inject`, waits for the
/// supervisor to repair `victim`, and lets traffic run `k.after` more.
/// Returns the traffic, the injection instant and `victim`'s record.
fn drive_through_repair(
    rt: &Runtime,
    sup: &Supervisor,
    (front, requests): (&str, &RequestQueue),
    replies_len: &(dyn Fn() -> usize + Sync),
    victim: &str,
    k: BenchKnobs,
    inject: impl FnOnce(),
) -> (DriveStats, Instant, Option<RepairRecord>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let driver = s.spawn(|| {
            drive_until(&stop, k.pace, |i, stats| {
                drive_one(rt, (front, "junction"), requests, replies_len, &command_for(i), stats)
            })
        });
        std::thread::sleep(k.warm);
        let injected_at = Instant::now();
        inject();
        let repaired = wait_until(Duration::from_secs(10), || {
            sup.records().iter().any(|r| r.instance == victim && r.ok)
        });
        if repaired {
            std::thread::sleep(k.after);
        }
        stop.store(true, Ordering::Relaxed);
        let stats = driver.join().expect("driver thread");
        (stats, injected_at, sup.records().into_iter().find(|r| r.instance == victim))
    })
}

/// Run all three scenarios in sequence.
pub fn run_all(k: BenchKnobs) -> Vec<RepairOutcome> {
    vec![
        scenario_crash_rehoming(k),
        scenario_partition_promote(k),
        scenario_crash_restore(k),
    ]
}

/// The `self-healing` command: all three failure classes into
/// `results/self_healing.json`. A scenario whose repair never verifies,
/// that loses an acknowledged write, permanently refuses a request,
/// lets a fenced zombie's stale ack land or fails cross-epoch
/// conformance fails the run and dumps its trace to
/// `results/self_healing_offending_trace_<name>.jsonl`.
pub fn command(smoke: bool) -> Outcome {
    let mut report = Report::new(
        "self_healing",
        "self-healing supervisor: MTTR per failure class under traffic",
    );
    report.remark(if smoke {
        "smoke run (compressed traffic windows)"
    } else {
        "full run"
    });
    report.remark(
        "mttr_ms measures fault injection -> repair verified; detect_ms is \
         injection -> anomaly confirmed+planned (includes the detector's \
         silence window), repair_ms is plan -> verified convergence",
    );
    let mut out = Outcome::default();
    for o in run_all(knobs(smoke)) {
        println!("{}", o.line());
        o.note_into(&mut report);
        let dump = format!("self_healing_offending_trace_{}.jsonl", o.name);
        out.fail_run(&o.name, o.broke(), dump, o.trace_jsonl);
    }
    out.reports.push(report);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compressed crash → shard re-homing repair: the supervisor must
    /// detect the crash, re-home the dead shard's entries, lose nothing
    /// acked, and the cross-epoch trace must conform.
    #[test]
    fn smoke_crash_rehoming_repairs_under_traffic() {
        let out = scenario_crash_rehoming(knobs(true));
        assert!(out.repair_ok, "repair did not verify: {out:?}");
        assert_eq!(out.class, "crash");
        assert_eq!(out.action, "reconfigure");
        assert_eq!(out.lost_acked_sets, 0, "lost acked writes");
        assert_eq!(out.refused, 0, "refused requests");
        assert!(out.served_after_repair, "no traffic after the repair");
        assert!(out.mttr_ms > 0.0);
        assert!(out.conformance.ok, "cross-epoch violations:\n{}", out.conformance.detail);
    }
}
