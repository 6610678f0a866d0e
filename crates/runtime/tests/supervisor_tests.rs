//! Self-healing supervisor tests: automatic crash repair, anti-flapping
//! escalation, race-safe crash/restart, suspicion hysteresis under
//! jitter, and the supervisor epoch fence at the transport level.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csaw_core::builder::*;
use csaw_core::compile;
use csaw_core::decl::Decl;
use csaw_core::names::JRef;
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig, Program};
use csaw_core::value::Value;
use csaw_runtime::app::AppError;
use csaw_runtime::runtime::Policy;
use csaw_runtime::supervisor::RepairAction;
use csaw_runtime::{
    FailureClass, FaultPlan, HeartbeatConfig, HostCtx, InstanceApp, InstanceStatus, LinkKind,
    RepairPolicy, Runtime, RuntimeConfig, SupervisorConfig, TraceKind,
};

fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// `w : tau_w` (prop P), `z : tau_z` (prop Q) — the minimal two-instance
/// topology the reconfig tests use.
fn two_instance_program() -> Program {
    let tau_w = InstanceType::new(
        "tau_w",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("P"), Decl::data("n")],
            host("H"),
        )],
    );
    let tau_z = InstanceType::new(
        "tau_z",
        vec![JunctionDef::new("j", vec![], vec![Decl::prop_false("Q")], skip())],
    );
    ProgramBuilder::new()
        .ty(tau_w)
        .ty(tau_z)
        .instance("w", "tau_w")
        .instance("z", "tau_z")
        .main(vec![], par([start("w", vec![]), start("z", vec![])]))
        .build()
}

fn quick_supervisor(policy: RepairPolicy) -> SupervisorConfig {
    SupervisorConfig {
        poll: Duration::from_millis(10),
        quorum: 1,
        confirm_polls: 1,
        verify_timeout: Duration::from_millis(500),
        policy,
        ..Default::default()
    }
}

#[test]
fn supervisor_repairs_a_crash_by_restart() {
    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();
    let sup = rt.supervise(quick_supervisor(
        RepairPolicy::new().on(FailureClass::Crash, vec![RepairAction::Restart]),
    ));

    rt.crash("z");
    assert!(
        wait_until(Duration::from_secs(3), || {
            rt.status("z") == Some(InstanceStatus::Running)
        }),
        "supervisor must restart the crashed instance"
    );
    assert!(wait_until(Duration::from_secs(2), || sup.stats().succeeded >= 1));

    let records = sup.records();
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].instance, "z");
    assert_eq!(records[0].class, FailureClass::Crash);
    assert_eq!(records[0].action, "restart");
    assert_eq!(records[0].rung, 0);
    assert!(records[0].ok);
    assert!(records[0].mttr() > Duration::ZERO);

    // The full repair protocol is in the trace, tied by one id.
    let events = rt.trace_events();
    let id_of = |needle: &str| {
        events.iter().find_map(|e| match &e.kind {
            TraceKind::RepairDetect { id, class } if needle == "detect" => {
                assert_eq!(&**class, "crash");
                Some(*id)
            }
            TraceKind::RepairPlan { id, action, .. } if needle == "plan" => {
                assert_eq!(&**action, "restart");
                Some(*id)
            }
            TraceKind::RepairVerify { id, ok } if needle == "verify" => {
                assert!(ok);
                Some(*id)
            }
            TraceKind::RepairDone { id, mttr_us } if needle == "done" => {
                assert!(*mttr_us > 0);
                Some(*id)
            }
            _ => None,
        })
    };
    let detect = id_of("detect").expect("repair_detect in trace");
    assert_eq!(id_of("plan"), Some(detect));
    assert_eq!(id_of("verify"), Some(detect));
    assert_eq!(id_of("done"), Some(detect));
    sup.stop();
    rt.shutdown();
}

#[test]
fn supervisor_escalates_flapping_instance_to_quarantine() {
    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();
    // Crash ladder: restart first, quarantine a recurrence within the
    // cooldown (default 2 s — the re-crash below lands well inside it).
    let sup = rt.supervise(quick_supervisor(RepairPolicy::new().on(
        FailureClass::Crash,
        vec![RepairAction::Restart, RepairAction::Quarantine],
    )));

    rt.crash("z");
    assert!(wait_until(Duration::from_secs(3), || {
        rt.status("z") == Some(InstanceStatus::Running)
    }));
    // Flap: crash again right away — inside the cooldown, so the ladder
    // escalates to quarantine instead of restart-storming.
    rt.crash("z");
    assert!(
        wait_until(Duration::from_secs(3), || sup.is_quarantined("z")),
        "a flapping instance must climb the ladder to quarantine"
    );
    assert!(rt.is_fenced("z"), "quarantine must fence the instance out");
    assert_eq!(rt.status("z"), Some(InstanceStatus::Crashed), "quarantine leaves it down");
    let stats = sup.stats();
    assert_eq!(stats.quarantined, 1);
    assert!(stats.escalations >= 1);
    assert!(
        rt.trace_events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::RepairEscalate { rung: 1, .. })),
        "escalation must be visible in the trace"
    );

    // Quarantine is sticky: further crashes of z do not repair it.
    let attempted = sup.stats().attempted;
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(sup.stats().attempted, attempted);
    sup.stop();
    rt.shutdown();
}

/// App counting lifecycle callbacks, to prove crash/restart races keep
/// them balanced.
struct CountingApp {
    starts: Arc<AtomicU64>,
    stops: Arc<AtomicU64>,
}

impl InstanceApp for CountingApp {
    fn host_call(&mut self, _: &str, _: &mut HostCtx<'_>) -> Result<(), AppError> {
        Ok(())
    }
    fn save(&mut self, _: &str) -> Result<Value, AppError> {
        Ok(Value::from(Vec::new()))
    }
    fn restore(&mut self, _: &str, _: &Value) -> Result<(), AppError> {
        Ok(())
    }
    fn on_start(&mut self) {
        self.starts.fetch_add(1, Ordering::SeqCst);
    }
    fn on_stop(&mut self) {
        self.stops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Satellite: `crash`/`restart` must be idempotent and race-safe — a
/// storm of concurrent crashes and restarts (the "supervisor repair
/// races the chaos harness" interleaving) must neither panic nor leave
/// the registry status torn, and every `on_stop` must pair with exactly
/// one crash transition (CAS winner), every `on_start` with one restart.
#[test]
fn crash_restart_interleaving_is_idempotent_and_race_safe() {
    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let starts = Arc::new(AtomicU64::new(0));
    let stops = Arc::new(AtomicU64::new(0));
    rt.bind_app(
        "z",
        Box::new(CountingApp { starts: Arc::clone(&starts), stops: Arc::clone(&stops) }),
    );
    rt.run_main(vec![]).unwrap();

    // Idempotency first, single-threaded: restart of a running instance
    // is Ok (the desired state holds), crash of a crashed instance is a
    // no-op.
    rt.restart("z").expect("restarting a running instance is Ok");
    rt.crash("z");
    let stops_after_first = stops.load(Ordering::SeqCst);
    rt.crash("z");
    assert_eq!(
        stops.load(Ordering::SeqCst),
        stops_after_first,
        "double crash must not re-run on_stop"
    );
    rt.restart("z").unwrap();
    rt.restart("z").expect("double restart is Ok");

    // Now the storm: 8 threads × 200 alternating crash/restart calls.
    std::thread::scope(|scope| {
        for t in 0..8 {
            let rt = &rt;
            scope.spawn(move || {
                for i in 0..200 {
                    if (t + i) % 2 == 0 {
                        rt.crash("z");
                    } else {
                        let _ = rt.restart("z");
                    }
                }
            });
        }
    });

    // The registry settled in a legal state, not a torn one.
    let settled = rt.status("z").unwrap();
    assert!(
        matches!(settled, InstanceStatus::Running | InstanceStatus::Crashed),
        "status must be a legal transition endpoint, got {settled:?}"
    );
    // Lifecycle callbacks balance: transitions alternate under CAS, so
    // the counts differ by exactly the final state (one extra start if
    // it ended Running).
    rt.restart("z").unwrap();
    let s = starts.load(Ordering::SeqCst);
    let p = stops.load(Ordering::SeqCst);
    assert_eq!(s, p + 1, "starts {s} / stops {p} out of balance after settling to Running");
    rt.shutdown();
}

/// Satellite: with `k_missed = 2` hysteresis, heartbeat jitter that can
/// stretch a single silent window past the base suspicion timeout never
/// flips `is_live_from`. Worst silence between heard pings is bounded by
/// interval + jitter = 80 ms, beneath the 2×60 ms hysteresis bar — but
/// well over the 60 ms single-window bar that `k_missed = 1` would use.
#[test]
fn heartbeat_jitter_does_not_flip_liveness_under_hysteresis() {
    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    // Pings traverse the network: jitter the z → w ping link.
    rt.set_link("z", "w", LinkKind::Direct);
    rt.set_fault_plan(
        "z",
        "w",
        FaultPlan::none().with_jitter(Duration::from_millis(60)).with_seed(7),
    );
    rt.run_main(vec![]).unwrap();
    rt.enable_heartbeats(HeartbeatConfig {
        interval: Duration::from_millis(20),
        suspicion: Duration::from_millis(60),
        k_missed: 2,
    });
    // Let the first rounds prime the clocks.
    std::thread::sleep(Duration::from_millis(100));
    let deadline = std::time::Instant::now() + Duration::from_millis(1200);
    while std::time::Instant::now() < deadline {
        assert!(
            rt.is_live_from("w", "z"),
            "jittered ping must not flip observer-relative liveness at k_missed = 2"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    rt.shutdown();
}

/// Program where `f` pushes `Work` to `g` on demand — the transport
/// vehicle for the fence tests.
fn push_program() -> Program {
    let tau_send = InstanceType::new(
        "tau_send",
        vec![JunctionDef::new(
            "a",
            vec![p_junction("g")],
            vec![Decl::prop_false("Work")],
            assert_at(JRef::var("g"), "Work"),
        )],
    );
    let tau_recv = InstanceType::new(
        "tau_recv",
        vec![JunctionDef::new("j", vec![], vec![Decl::prop_false("Work")], skip())],
    );
    ProgramBuilder::new()
        .ty(tau_send)
        .ty(tau_recv)
        .instance("f", "tau_send")
        .instance("g", "tau_recv")
        .main(
            vec![],
            par([
                start_junctions("f", vec![("a", vec![Arg::Junction(JRef::instance("g"))])]),
                start("g", vec![]),
            ]),
        )
        .build()
}

use csaw_core::expr::Arg;

/// The epoch fence rejects a fenced instance's sends, passes them again
/// after re-admission, and — the ablation the split-brain test builds
/// on — lets them through when fencing is disabled.
#[test]
fn fence_rejects_stale_sends_until_readmitted() {
    let cp = compile(push_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    rt.set_policy("f", "a", Policy::OnDemand);

    rt.invoke("f", "a").unwrap();
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("g", "j", "Work") == Some(true)
    }));
    rt.deliver_for_test("g", "j", csaw_kv::Update::retract("Work", "test::j"));
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("g", "j", "Work") == Some(false)
    }));

    // Fence f: its sends are rejected at the source.
    let floor = rt.fence_instance("f");
    assert!(floor >= 1);
    assert!(rt.is_fenced("f"));
    let _ = rt.invoke("f", "a"); // the send inside must be fenced
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        rt.peek_prop("g", "j", "Work"),
        Some(false),
        "a fenced instance's assert must never apply"
    );
    assert!(rt.link_stats().fenced >= 1, "rejections must be counted");

    // Ablation: with the fence switched off the same stale send lands —
    // this is exactly why the split-brain test fails fence-disabled.
    rt.set_fencing(false);
    let _ = rt.invoke("f", "a");
    assert!(
        wait_until(Duration::from_secs(2), || {
            rt.peek_prop("g", "j", "Work") == Some(true)
        }),
        "fence disabled: the send goes through (ablation baseline)"
    );
    rt.set_fencing(true);
    rt.deliver_for_test("g", "j", csaw_kv::Update::retract("Work", "test::j"));
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("g", "j", "Work") == Some(false)
    }));

    // Re-admission lifts the fence: sends stamp the current floor.
    rt.admit_instance("f");
    assert!(!rt.is_fenced("f"));
    rt.invoke("f", "a").unwrap();
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("g", "j", "Work") == Some(true)
    }));
    rt.shutdown();
}

/// Property-style loop (48 seeds, like the Table tests): a message
/// in flight on a slow/jittered link when its sender is fenced must be
/// dropped at delivery — the fence catches zombie traffic both at the
/// source *and* on the wire. Zero stale applications across all seeds.
#[test]
fn fence_drops_in_flight_sends_across_48_seeds() {
    for seed in 0..48u64 {
        let cp = compile(push_program(), &LoadConfig::new()).unwrap();
        let rt = Runtime::new(&cp, RuntimeConfig::default());
        // A slow link keeps the send in flight long enough to fence the
        // sender behind it; per-seed jitter varies the race.
        rt.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(30), bandwidth: 0 },
        );
        rt.set_fault_plan(
            "f",
            "g",
            FaultPlan::none()
                .with_jitter(Duration::from_millis(1 + seed % 7))
                .with_seed(seed),
        );
        rt.run_main(vec![]).unwrap();
        rt.set_policy("f", "a", Policy::OnDemand);

        // Launch the send; it sits on the simulated wire ~30 ms.
        let _ = rt.invoke("f", "a");
        // Fence the sender while its update is still in flight.
        rt.fence_instance("f");
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(
            rt.peek_prop("g", "j", "Work"),
            Some(false),
            "seed {seed}: in-flight send from a fenced instance applied"
        );
        assert!(
            rt.link_stats().fenced >= 1,
            "seed {seed}: the drop must be visible in link stats"
        );
        rt.shutdown();
    }
}

// ---------------------------------------------------------------------
// Shutdown promptness: every supervisor sleep is interruptible
// ---------------------------------------------------------------------

/// A repair stuck in an escalated retry backoff must not hold up
/// `Supervisor::stop` / `Runtime::shutdown`: the backoff here is 60 s,
/// so anything but an interrupted sleep blows the assertion.
#[test]
fn supervisor_stop_interrupts_escalated_repair_backoff() {
    use csaw_runtime::ReconfigSpec;

    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();

    let attempts = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&attempts);
    let target = cp.clone();
    let sup = rt.supervise(SupervisorConfig {
        poll: Duration::from_millis(10),
        quorum: 1,
        confirm_polls: 1,
        max_retries: 10,
        backoff: Duration::from_secs(60),
        policy: RepairPolicy::new().on(
            FailureClass::Crash,
            vec![RepairAction::Reconfigure(Arc::new(move |_rt, _inst| {
                seen.fetch_add(1, Ordering::SeqCst);
                (
                    target.clone(),
                    ReconfigSpec {
                        migrate: Some(Box::new(|_| Err("induced migration failure".into()))),
                        ..ReconfigSpec::default()
                    },
                )
            }))],
        ),
        ..SupervisorConfig::default()
    });

    rt.crash("z");
    assert!(
        wait_until(Duration::from_secs(5), || attempts.load(Ordering::SeqCst) >= 1),
        "repair attempt never ran"
    );
    // The first attempt failed its migration; the retry loop is now in
    // (or headed into) the 60 s backoff sleep.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    sup.stop();
    rt.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop took {:?} — backoff sleep was not interrupted",
        t0.elapsed()
    );
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "no further repair attempt may run after stop"
    );
}

/// Regression: the epoch chain is complete by construction. A
/// `Reconfigure` repair whose migration fails on the first attempt and
/// succeeds on the second cuts twice — both attempts committed their
/// cut before the migration ran — so the trace holds two `reconfig_cut`
/// events and [`Runtime::epoch_chain`] holds a program for each. (The
/// supervisor's own list recorded a target only when the migration
/// succeeded: two cuts against one program, and a trace no checker
/// could split into the right epochs.)
#[test]
fn repair_that_succeeds_on_its_second_attempt_leaves_a_complete_epoch_chain() {
    use csaw_runtime::ReconfigSpec;

    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();

    let attempts = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&attempts);
    let target = cp.clone();
    let sup = rt.supervise(SupervisorConfig {
        backoff: Duration::from_millis(5),
        ..quick_supervisor(RepairPolicy::new().on(
            FailureClass::Crash,
            vec![RepairAction::Reconfigure(Arc::new(move |_rt, _inst| {
                let first = seen.fetch_add(1, Ordering::SeqCst) == 0;
                let migrate: csaw_runtime::reconfig::MigrateFn = if first {
                    Box::new(|_| Err("induced migration failure".into()))
                } else {
                    Box::new(|_| Ok(()))
                };
                (target.clone(), ReconfigSpec { migrate: Some(migrate), ..Default::default() })
            }))],
        ))
    });

    rt.crash("z");
    assert!(
        wait_until(Duration::from_secs(5), || sup.records().iter().any(|r| r.ok)),
        "the second attempt must verify: {:?}",
        sup.records()
    );
    sup.stop();
    let records = sup.records();
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].action, "reconfigure");
    assert_eq!(records[0].attempts, 2);
    assert!(records[0].ok);

    let cuts = rt
        .trace_events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ReconfigCut))
        .count();
    assert_eq!(cuts, 2, "each attempt committed its cut");
    assert_eq!(rt.epoch_chain().len(), 1 + cuts, "one program per cut");
    rt.shutdown();
}

/// Regression: a supervisor repair is a checked plan. The repair's
/// target and spec are built from the epoch the supervisor saw before it
/// called the builder; here the builder's first call cuts an identity
/// `reconfigure` before it returns, so that attempt is stale. The
/// executor refuses it — no cut of its own, no epoch — and the retry
/// loop's second attempt lands. (Repairs used to call the unchecked
/// single-step engine, so the stale attempt cut anyway.)
#[test]
fn repair_built_across_another_cut_is_refused_as_stale_and_retried() {
    use csaw_runtime::ReconfigSpec;

    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();

    let calls = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&calls);
    let target = cp.clone();
    let sup = rt.supervise(SupervisorConfig {
        backoff: Duration::from_millis(5),
        ..quick_supervisor(RepairPolicy::new().on(
            FailureClass::Crash,
            vec![RepairAction::Reconfigure(Arc::new(move |rt, _inst| {
                if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                    rt.reconfigure(&rt.current_program(), ReconfigSpec::default())
                        .expect("the identity cut lands");
                }
                (target.clone(), ReconfigSpec::default())
            }))],
        ))
    });

    rt.crash("z");
    assert!(
        wait_until(Duration::from_secs(5), || sup.records().iter().any(|r| r.ok)),
        "the second attempt must verify: {:?}",
        sup.records()
    );
    sup.stop();
    let records = sup.records();
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].attempts, 2, "the stale first attempt is retried");
    assert_eq!(calls.load(Ordering::SeqCst), 2);

    // Two cuts: the builder's identity cut and attempt 2. Attempt 1
    // added neither a `reconfig_cut` nor an epoch.
    let cuts = rt
        .trace_events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ReconfigCut))
        .count();
    assert_eq!(cuts, 2, "the stale attempt must not cut");
    assert_eq!(rt.epoch_chain().len(), 1 + cuts, "one program per cut");
    rt.shutdown();
}

/// A supervisor parked between detection polls (60 s period) must exit
/// promptly on stop — the poll sleep is interruptible too.
#[test]
fn supervisor_stop_interrupts_long_poll_sleep() {
    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    let sup = rt.supervise(SupervisorConfig {
        poll: Duration::from_secs(60),
        quorum: 1,
        confirm_polls: 1,
        policy: RepairPolicy::new(),
        ..SupervisorConfig::default()
    });
    // Let the monitor thread reach its first poll sleep.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    sup.stop();
    rt.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop took {:?} — poll sleep was not interrupted",
        t0.elapsed()
    );
}

/// A runtime runs one heartbeat monitor: a second `enable_heartbeats`
/// replaces the config and does not start a second monitor, which would
/// double the ping rate.
#[test]
fn service_loop_second_enable_heartbeats_keeps_one_monitor() {
    const INTERVAL: Duration = Duration::from_millis(10);
    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    let config = HeartbeatConfig {
        interval: INTERVAL,
        ..HeartbeatConfig::default()
    };
    rt.enable_heartbeats(config.clone());
    rt.enable_heartbeats(config);
    std::thread::sleep(Duration::from_millis(50));
    // Nothing but pings is sent: two a round (w → z, z → w).
    let sent = || rt.metrics().counter_value("link_send_total");
    let (before, started) = (sent(), std::time::Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let (pings, elapsed) = (sent() - before, started.elapsed());
    // One monitor fires at most one round per interval (plus one each
    // end of the window); two would fire twice that.
    let rounds = (elapsed.as_millis() / INTERVAL.as_millis()) as u64 + 2;
    assert!(
        pings <= 2 * rounds,
        "{pings} pings in {elapsed:?}: more than one monitor"
    );
    assert!(pings > 0, "no monitor runs");
    rt.shutdown();
}

/// The heartbeat monitor parks until its next round; shutdown signals
/// it instead of waiting that round out.
#[test]
fn service_loop_heartbeat_stops_promptly_on_shutdown() {
    let cp = compile(two_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    rt.enable_heartbeats(HeartbeatConfig {
        interval: Duration::from_secs(60),
        ..HeartbeatConfig::default()
    });
    let sent = || rt.metrics().counter_value("link_send_total");
    assert!(
        wait_until(Duration::from_secs(5), || sent() >= 2),
        "no first round"
    );
    let t0 = std::time::Instant::now();
    rt.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} — the heartbeat slept out its interval",
        t0.elapsed()
    );
}
