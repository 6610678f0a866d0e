//! Live-reconfiguration end-to-end tests, plus regression tests for
//! restart heartbeat re-priming and `set_link` route flushing.

use std::time::Duration;

use csaw_core::builder::*;
use csaw_core::decl::Decl;
use csaw_core::expr::Arg;
use csaw_core::names::JRef;
use csaw_core::plan::{
    plan_break_before_make, plan_reconfiguration, PlanConstraints, PlanViolation,
};
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig, Program};
use csaw_core::compile;
use csaw_core::value::Value;
use csaw_kv::Update;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{
    Failure, HeartbeatConfig, InstanceStatus, LinkKind, ReconfigSpec, Runtime, RuntimeConfig,
    TraceKind,
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

/// `w : tau_w` (prop P, data n), `z : tau_z` (prop Q). The `extra_body`
/// parameter varies `w`'s junction body so two builds of this program
/// diff as "w changed, z unchanged".
fn two_instance_program(w_extra: bool) -> Program {
    let mut body = vec![host("H")];
    if w_extra {
        body.push(skip());
    }
    let tau_w = InstanceType::new(
        "tau_w",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("P"), Decl::data("n")],
            seq(body),
        )],
    );
    let tau_z = InstanceType::new(
        "tau_z",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("Q")],
            skip(),
        )],
    );
    ProgramBuilder::new()
        .ty(tau_w)
        .ty(tau_z)
        .instance("w", "tau_w")
        .instance("z", "tau_z")
        .main(
            vec![],
            par([start("w", vec![]), start("z", vec![])]),
        )
        .build()
}

/// Like [`two_instance_program`] with an added `extra : tau_z`.
fn three_instance_program() -> Program {
    let mut p = two_instance_program(true);
    p.instances.push(("extra".to_string(), "tau_z".to_string()));
    p
}

#[test]
fn identity_reconfigure_is_a_no_op() {
    let cp = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    let report = rt.reconfigure(&cp, ReconfigSpec::default()).unwrap();
    assert!(report.plan.is_identity());
    assert!(report.pauses.is_empty());
    assert_eq!(report.migrated_bytes, 0);
    assert!(report.migration_error.is_none());
    assert_eq!(rt.status("w"), Some(InstanceStatus::Running));
    assert_eq!(rt.status("z"), Some(InstanceStatus::Running));
    rt.shutdown();
}

#[test]
fn reconfigure_carries_state_and_leaves_bystanders_alone() {
    let a = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let b = compile(three_instance_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();

    // Give `w` observable state to carry across the cut.
    rt.deliver_for_test("w", "j", csaw_kv::Update::assert("P", "test::j"));
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("w", "j", "P") == Some(true)
    }));
    let z_activations = rt.activations("z");

    let report = rt
        .reconfigure(
            &b,
            ReconfigSpec {
                start: vec![("extra".to_string(), vec![(None, vec![])])],
                ..Default::default()
            },
        )
        .unwrap();

    // Plan shape: w changed (body differs), extra added, z untouched.
    assert_eq!(report.plan.changed.len(), 1);
    assert_eq!(report.plan.changed[0].name, "w");
    assert_eq!(report.plan.added, vec!["extra"]);
    assert_eq!(report.plan.unchanged, vec!["z"]);
    // Only the changed instance paused; state and status carried.
    assert_eq!(report.pauses.len(), 1);
    assert_eq!(report.pauses[0].0, "w");
    assert!(report.migrated_bytes > 0);
    assert!(report.migration_error.is_none());
    assert_eq!(rt.status("w"), Some(InstanceStatus::Running));
    assert_eq!(rt.peek_prop("w", "j", "P"), Some(true));
    assert_eq!(rt.status("z"), Some(InstanceStatus::Running));
    assert!(rt.activations("z") >= z_activations);
    assert_eq!(rt.status("extra"), Some(InstanceStatus::Running));

    // The new instance's scheduler works: its junction is invokable.
    rt.set_policy("extra", "j", Policy::OnDemand);
    rt.invoke("extra", "j").unwrap();

    // The trace spans the cut.
    let events = rt.trace_events();
    assert!(events.iter().any(|e| e.kind == TraceKind::ReconfigCut));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceKind::ReconfigMigrate { bytes } if bytes > 0)));
    rt.shutdown();
}

#[test]
fn reconfigure_removes_instances() {
    let a = compile(three_instance_program(), &LoadConfig::new()).unwrap();
    let b = compile(two_instance_program(true), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    rt.start("extra", vec![(None, vec![])]).unwrap();

    let report = rt.reconfigure(&b, ReconfigSpec::default()).unwrap();
    assert_eq!(report.plan.removed, vec!["extra"]);
    assert!(rt.status("extra").is_none());
    assert_eq!(rt.status("w"), Some(InstanceStatus::Running));
    rt.shutdown();
}

/// Sender `f` targets `w : tau_recv`, whose junction declares two data
/// keys that can be loaded past the snapshot codec's 64 MB budget. The
/// `extra` flag varies `w`'s body so two builds diff as "w changed".
fn abortable_program(extra: bool) -> Program {
    let tau_send = InstanceType::new(
        "tau_send",
        vec![JunctionDef::new(
            "a",
            vec![p_junction("t")],
            vec![Decl::prop_false("Work")],
            assert_at(JRef::var("t"), "Work"),
        )],
    );
    let mut body = vec![skip()];
    if extra {
        body.push(skip());
    }
    let tau_recv = InstanceType::new(
        "tau_recv",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("Work"), Decl::data("b1"), Decl::data("b2")],
            seq(body),
        )],
    );
    ProgramBuilder::new()
        .ty(tau_send)
        .ty(tau_recv)
        .instance("f", "tau_send")
        .instance("w", "tau_recv")
        .main(
            vec![],
            par([
                start_junctions("f", vec![("a", vec![Arg::Junction(JRef::instance("w"))])]),
                start("w", vec![]),
            ]),
        )
        .build()
}

/// Regression: a snapshot failure in the migrate phase used to `?`-return
/// with the quiesce-set holds still installed, permanently freezing the
/// affected instances (inbound updates buffered forever, activations
/// always skipped). An aborted transition must release its holds and
/// leave the system serving the old program.
#[test]
fn failed_snapshot_aborts_reconfigure_before_cut_and_releases_holds() {
    let a = compile(abortable_program(false), &LoadConfig::new()).unwrap();
    let b = compile(abortable_program(true), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    rt.set_policy("f", "a", Policy::OnDemand);

    // Two 32 MB blobs push the table snapshot past the codec's 64 MB
    // byte budget, so exporting `w` fails deterministically.
    let blob = vec![0u8; 32 << 20];
    rt.deliver_for_test("w", "j", Update::data("b1", Value::from(blob.clone()), "test::j"));
    rt.deliver_for_test("w", "j", Update::data("b2", Value::from(blob), "test::j"));

    let err = rt.reconfigure(&b, ReconfigSpec::default()).unwrap_err();
    assert!(matches!(err, Failure::Internal(_)), "unexpected failure: {err:?}");
    assert_eq!(rt.epoch_chain().len(), 1, "a pre-cut abort must add no epoch");

    // Not applied: `w` is still running its old cell…
    assert_eq!(rt.status("w"), Some(InstanceStatus::Running));
    // …and not frozen: a real network send still reaches it and its
    // scheduler still applies updates. A leaked hold would buffer the
    // send unboundedly and veto every activation.
    rt.invoke("f", "a").unwrap();
    assert!(
        wait_until(Duration::from_secs(2), || {
            rt.peek_prop("w", "j", "Work") == Some(true)
        }),
        "instance must keep serving traffic after an aborted reconfiguration"
    );

    // Shrink the oversized state and the same transition goes through.
    rt.deliver_for_test("w", "j", Update::data("b1", Value::Int(1), "test::j"));
    rt.deliver_for_test("w", "j", Update::data("b2", Value::Int(2), "test::j"));
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_data("w", "j", "b1") == Some(Value::Int(1))
            && rt.peek_data("w", "j", "b2") == Some(Value::Int(2))
    }));
    let report = rt.reconfigure(&b, ReconfigSpec::default()).unwrap();
    assert_eq!(report.plan.changed.len(), 1);
    assert_eq!(report.plan.changed[0].name, "w");
    assert!(report.migration_error.is_none());
    assert_eq!(rt.status("w"), Some(InstanceStatus::Running));
    assert_eq!(rt.epoch_chain().len(), 2);
    rt.shutdown();
}

/// A failing migration closure cannot un-commit the cut — the system is
/// already running program B when it executes. The failure must surface
/// in the report (not as a bare `Err` that hides whether the transition
/// happened), with holds released and the system live on B.
#[test]
fn reconfigure_migration_failure_reports_but_commits_the_cut() {
    let a = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let b = compile(two_instance_program(true), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();

    let spec = ReconfigSpec {
        migrate: Some(Box::new(|_| Err("boom".to_string()))),
        ..Default::default()
    };
    let report = rt.reconfigure(&b, spec).unwrap();
    let err = report
        .migration_error
        .expect("migration failure must surface in the report");
    assert!(format!("{err:?}").contains("boom"));
    assert_eq!(report.pauses.len(), 1, "the accounting still arrives");

    // The cut is committed: reconfiguring to B again diffs as identity.
    assert_eq!(rt.status("w"), Some(InstanceStatus::Running));
    let again = rt.reconfigure(&b, ReconfigSpec::default()).unwrap();
    assert!(again.plan.is_identity());
    assert!(again.migration_error.is_none());

    // Holds were released despite the failure: updates still apply.
    rt.deliver_for_test("w", "j", Update::assert("P", "test::j"));
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("w", "j", "P") == Some(true)
    }));
    rt.shutdown();
}

/// Regression: the epoch chain is complete by construction. A
/// two-phase plan whose second phase fails *after* its cut stops the
/// walk with that phase named in the report — and every cut that
/// happened, the failed phase's included, has its program in
/// [`Runtime::epoch_chain`], because the chain is pushed at the cut and
/// not by whoever drove it. (The autoscaler's own list recorded phase
/// targets only when the whole plan ran clean, so this plan left two
/// cuts in the trace and no program to judge them by.)
#[test]
fn reconfig_plan_stopped_by_a_post_cut_error_leaves_a_complete_epoch_chain() {
    let a = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let b = compile(three_instance_program(), &LoadConfig::new()).unwrap();
    let plan = plan_reconfiguration(&a, &b, &PlanConstraints::default()).unwrap();
    assert_eq!(plan.phases.len(), 2, "add `extra`, then change `w`");

    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();
    assert_eq!(*rt.current_program(), a, "the chain starts at the boot program");
    assert_eq!(rt.epoch_chain().len(), 1);

    let report = rt
        .reconfigure_plan(&plan, |phase| match phase.index {
            0 => ReconfigSpec {
                start: vec![("extra".to_string(), vec![(None, vec![])])],
                ..Default::default()
            },
            _ => ReconfigSpec {
                migrate: Some(Box::new(|_| Err("boom".to_string()))),
                ..Default::default()
            },
        })
        .expect("a planner-built plan passes the check");
    let (failed_phase, failure) = report.error.as_ref().expect("phase 1 must stop the walk");
    assert_eq!(*failed_phase, 1);
    assert!(format!("{failure:?}").contains("boom"));
    assert_eq!(report.phases.len(), 2, "phase 1 cut before its migration failed");

    let cuts = rt
        .trace_events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ReconfigCut))
        .count();
    assert_eq!(cuts, 2);
    let chain = rt.epoch_chain();
    assert_eq!(chain.len(), 1 + cuts, "one program per cut, whatever followed the cut");
    assert_eq!(*chain[0], a);
    assert_eq!(*chain[1], plan.phases[0].target);
    assert_eq!(*chain[2], plan.phases[1].target);
    assert_eq!(*rt.current_program(), b);
    rt.shutdown();
}

/// Drain the trace and count its `reconfig_*` events of every kind.
fn reconfig_events(rt: &Runtime) -> usize {
    rt.trace_events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::ReconfigPlan { .. }
                    | TraceKind::ReconfigQuiesce { .. }
                    | TraceKind::ReconfigMigrate { .. }
                    | TraceKind::ReconfigCut
                    | TraceKind::ReconfigResume { .. }
                    | TraceKind::ReconfigDone { .. }
            )
        })
        .count()
}

/// The executor checks every plan: a break-before-make plan is refused
/// before phase 0 — no cut, no epoch, no hold, no phase spec built.
#[test]
fn reconfigure_plan_refuses_a_break_before_make_plan() {
    let a = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let b = compile(three_instance_program(), &LoadConfig::new()).unwrap();
    let plan = plan_break_before_make(&a, &b, &PlanConstraints::default());

    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();
    let (chain, held) = (rt.epoch_chain().len(), rt.held_instances());

    let mut specs_built = 0;
    let verdict = rt
        .reconfigure_plan(&plan, |_| {
            specs_built += 1;
            ReconfigSpec::default()
        })
        .expect_err("a break-before-make plan must be refused");
    assert!(
        verdict.violations.iter().any(|v| matches!(v, PlanViolation::BreakBeforeMake { .. })),
        "{verdict}"
    );
    assert_eq!(specs_built, 0);
    assert_eq!(rt.epoch_chain().len(), chain);
    assert_eq!(rt.held_instances(), held);
    assert_eq!(reconfig_events(&rt), 0);
    assert_eq!(*rt.current_program(), a);
    rt.shutdown();
}

/// A plan built from A is stale once the runtime has moved to A′: its
/// phase 0 no longer starts where the runtime stands, so the executor
/// refuses it instead of walking its targets.
#[test]
fn reconfigure_plan_refuses_a_stale_plan() {
    let a = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let a2 = compile(two_instance_program(true), &LoadConfig::new()).unwrap();
    let b = compile(three_instance_program(), &LoadConfig::new()).unwrap();
    let plan = plan_reconfiguration(&a, &b, &PlanConstraints::default()).unwrap();

    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.run_main(vec![]).unwrap();
    rt.reconfigure(&a2, ReconfigSpec::default()).unwrap();
    assert!(reconfig_events(&rt) > 0, "the direct reconfigure is traced");
    let chain = rt.epoch_chain().len();

    let mut specs_built = 0;
    let verdict = rt
        .reconfigure_plan(&plan, |_| {
            specs_built += 1;
            ReconfigSpec::default()
        })
        .expect_err("a plan from a program no longer current must be refused");
    assert!(
        verdict
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::ContinuityBroken { phase: 0, .. })),
        "{verdict}"
    );
    assert_eq!(specs_built, 0);
    assert_eq!(rt.epoch_chain().len(), chain);
    assert_eq!(reconfig_events(&rt), 0);
    assert_eq!(*rt.current_program(), a2);
    rt.shutdown();
}

/// Regression: a plan is atomic against every other live change. Phase
/// 0's spec callback starts a single-step `reconfigure` on another
/// thread and waits (bounded) for it to finish. The executor holds the
/// reconfiguration lock from the check through the last phase, so the
/// other change waits for the whole plan and cuts last. (The plan used
/// to release the lock between phases and build specs outside it, so
/// the other cut landed inside the plan, which then ran its phases on
/// a program it was never checked against.)
#[test]
fn reconfigure_plan_holds_the_lock_across_all_phases() {
    let a = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let other = compile(two_instance_program(true), &LoadConfig::new()).unwrap();
    let b = compile(three_instance_program(), &LoadConfig::new()).unwrap();
    let plan = plan_reconfiguration(&a, &b, &PlanConstraints::default()).unwrap();
    assert_eq!(plan.phases.len(), 2, "add `extra`, then change `w`");

    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let mut early = None;
    std::thread::scope(|s| {
        let report = rt
            .reconfigure_plan(&plan, |phase| {
                if phase.index == 0 {
                    let (rt, other, tx) = (&rt, &other, tx.clone());
                    s.spawn(move || {
                        let landed = rt.reconfigure(other, ReconfigSpec::default()).is_ok();
                        tx.send(landed).unwrap();
                    });
                    // Returns at once if the other change can cut now.
                    early = rx.recv_timeout(Duration::from_secs(1)).ok();
                }
                ReconfigSpec::default()
            })
            .expect("a planner-built plan passes the check");
        assert!(report.ok(), "{:?}", report.error);
    });
    let landed = early.or_else(|| rx.try_recv().ok());
    assert_eq!(landed, Some(true), "the other change must land");

    let names =
        [(&a, "boot"), (&plan.phases[0].target, "phase0"), (&b, "phase1"), (&other, "other")];
    let chain: Vec<&str> = rt
        .epoch_chain()
        .iter()
        .map(|p| names.iter().find(|(q, _)| **q == **p).map_or("?", |(_, n)| *n))
        .collect();
    assert_eq!(chain, ["boot", "phase0", "phase1", "other"]);
    rt.shutdown();
}

/// Regression (satellite): `Runtime::restart` must re-prime the
/// heartbeat failure detector. With sparse pings, a restarted instance
/// would otherwise stay suspected until the next ping round even though
/// it is demonstrably back.
#[test]
fn restart_reprimes_heartbeat_suspicion() {
    let cp = compile(two_instance_program(false), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    // Sparse pings (500 ms) with a shorter suspicion window (200 ms):
    // the re-priming in restart is the only thing that can clear
    // suspicion before the next (distant) ping round.
    rt.enable_heartbeats(HeartbeatConfig {
        interval: Duration::from_millis(500),
        suspicion: Duration::from_millis(200),
        k_missed: 1,
    });
    // Let the first ping round prime the detector's clocks for (w, z).
    std::thread::sleep(Duration::from_millis(50));
    assert!(rt.is_live_from("w", "z"));
    rt.crash("z");
    // Let silence exceed the suspicion window while z is down; the
    // monitor skips crashed instances, so the clocks for z go stale.
    std::thread::sleep(Duration::from_millis(250));
    assert!(!rt.is_live_from("w", "z"));
    rt.restart("z").unwrap();
    // Immediately live again: restart granted a fresh suspicion window
    // without waiting for the next ping round ~200 ms away.
    assert!(
        rt.is_live_from("w", "z"),
        "restarted instance must not stay suspected until the next ping round"
    );
    rt.shutdown();
}

/// Program for the `set_link` regression: `f` has two on-demand
/// junctions that assert/retract `Work` at `g`.
fn link_flush_program() -> Program {
    let tau_send = InstanceType::new(
        "tau_send",
        vec![
            JunctionDef::new(
                "a",
                vec![p_junction("g")],
                vec![Decl::prop_false("Work")],
                assert_at(JRef::var("g"), "Work"),
            ),
            JunctionDef::new(
                "b",
                vec![p_junction("g")],
                vec![Decl::prop_false("Work")],
                retract_at(JRef::var("g"), "Work"),
            ),
        ],
    );
    let tau_recv = InstanceType::new(
        "tau_recv",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("Work")],
            skip(),
        )],
    );
    ProgramBuilder::new()
        .ty(tau_send)
        .ty(tau_recv)
        .instance("f", "tau_send")
        .instance("g", "tau_recv")
        .main(
            vec![],
            par([
                start_junctions(
                    "f",
                    vec![
                        ("a", vec![Arg::Junction(JRef::instance("g"))]),
                        ("b", vec![Arg::Junction(JRef::instance("g"))]),
                    ],
                ),
                start("g", vec![]),
            ]),
        )
        .build()
}

/// Regression (satellite): reconfiguring a link that already carried
/// traffic must flush the route's transport state. The old conversation
/// reached sequence 2; without the flush, the first message of the new
/// conversation (sequence 1 again) is swallowed by the receiver's stale
/// dedup memory.
#[test]
fn set_link_on_connected_route_flushes_transport_state() {
    let cp = compile(link_flush_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let sim = LinkKind::Sim { latency: Duration::from_millis(1), bandwidth: 0 };
    rt.set_link("f", "g", sim);
    rt.run_main(vec![]).unwrap();
    rt.set_policy("f", "a", Policy::OnDemand);
    rt.set_policy("f", "b", Policy::OnDemand);

    rt.invoke("f", "a").unwrap(); // seq 1: assert Work
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("g", "j", "Work") == Some(true)
    }));
    rt.invoke("f", "b").unwrap(); // seq 2: retract Work
    assert!(wait_until(Duration::from_secs(2), || {
        rt.peek_prop("g", "j", "Work") == Some(false)
    }));

    // Reconfigure the already-connected route: sequencing restarts.
    rt.set_link("f", "g", sim);
    rt.invoke("f", "a").unwrap(); // seq 1 of the NEW conversation
    assert!(
        wait_until(Duration::from_secs(2), || {
            rt.peek_prop("g", "j", "Work") == Some(true)
        }),
        "first message after set_link must not be deduped against the old conversation"
    );
    rt.shutdown();
}
