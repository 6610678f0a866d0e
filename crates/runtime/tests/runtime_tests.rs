//! End-to-end tests of the runtime + interpreter against small programs,
//! including the paper's Fig. 3 (H1;H2) and Fig. 4 (remote snapshot with
//! failure awareness) examples.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use csaw_core::builder::*;
use csaw_core::decl::Decl;
use csaw_core::expr::{Arg, Terminator};
use csaw_core::formula::Formula;
use csaw_core::names::JRef;
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig};
use csaw_core::value::Value;
use csaw_core::{compile, CompiledProgram};
use csaw_runtime::runtime::Policy;
use csaw_runtime::{HostCtx, InstanceApp, InstanceStatus, Runtime, RuntimeConfig};

/// An app that records host calls and serves canned save values.
#[derive(Clone, Default)]
struct TraceApp {
    log: Arc<Mutex<Vec<String>>>,
}

impl TraceApp {
    fn log_of(&self) -> Vec<String> {
        self.log.lock().unwrap().clone()
    }
}

impl InstanceApp for TraceApp {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        self.log.lock().unwrap().push(format!("host:{name}"));
        Ok(())
    }
    fn save(&mut self, key: &str) -> Result<Value, String> {
        self.log.lock().unwrap().push(format!("save:{key}"));
        Ok(Value::from(vec![1, 2, 3]))
    }
    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        self.log
            .lock()
            .unwrap()
            .push(format!("restore:{key}:{}", value.as_bytes().map_or(0, |b| b.len())));
        Ok(())
    }
}

fn compile_fig3() -> CompiledProgram {
    compile(fig3_program(), &LoadConfig::new()).unwrap()
}

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

#[test]
fn fig3_h1_h2_coordination() {
    let cp = compile_fig3();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let f_app = TraceApp::default();
    let g_app = TraceApp::default();
    rt.bind_app("f", Box::new(f_app.clone()));
    rt.bind_app("g", Box::new(g_app.clone()));
    rt.run_main(vec![]).unwrap();

    // f runs H1, saves n, writes it to g, asserts Work, waits for ¬Work;
    // g (guard Work) restores n, runs H2, retracts Work at f.
    assert!(wait_until(Duration::from_secs(5), || {
        g_app.log_of().contains(&"host:H2".to_string())
    }));
    assert!(wait_until(Duration::from_secs(5), || {
        rt.peek_prop("f", "junction", "Work") == Some(false)
    }));
    let f_log = f_app.log_of();
    assert_eq!(f_log[0], "host:H1");
    assert_eq!(f_log[1], "save:n");
    let g_log = g_app.log_of();
    assert_eq!(g_log[0], "restore:n:3");
    assert_eq!(g_log[1], "host:H2");
    // g's table received the datum.
    assert_eq!(
        rt.peek_data("g", "junction", "n"),
        Some(Value::from(vec![1, 2, 3]))
    );
    rt.shutdown();
}

/// Fig. 4 shape: Act writes a snapshot to Aud with a timeout; when Aud is
/// dead the `otherwise` triggers `complain`.
fn snapshot_program() -> csaw_core::Program {
    let act = InstanceType::new(
        "tActual",
        vec![JunctionDef::new(
            "junction",
            vec![p_timeout("t")],
            vec![Decl::prop_false("Work"), Decl::data("n")],
            seq([
                host("H1"),
                save("n"),
                otherwise(
                    scope(seq([
                        write("n", JRef::instance("Aud")),
                        assert_at(JRef::instance("Aud"), "Work"),
                        wait(Vec::<String>::new(), Formula::prop("Work").not()),
                    ])),
                    "t",
                    host("complain"),
                ),
            ]),
        )],
    );
    let aud = InstanceType::new(
        "tAuditing",
        vec![JunctionDef::new(
            "junction",
            vec![p_timeout("t")],
            vec![
                Decl::prop_false("Work"),
                Decl::prop_false("Retried"),
                Decl::data("n"),
                Decl::guard(Formula::prop("Work")),
            ],
            seq([
                restore("n"),
                host("H2"),
                retract_local("Retried"),
                case(
                    vec![arm(
                        Formula::prop("Work"),
                        otherwise(
                            retract_at(JRef::instance("Act"), "Work"),
                            "t",
                            if_then_else(
                                Formula::prop("Retried").not(),
                                assert_local("Retried"),
                                host("complain"),
                            ),
                        ),
                        Terminator::Reconsider,
                    )],
                    skip(),
                ),
            ]),
        )],
    );
    ProgramBuilder::new()
        .ty(act)
        .ty(aud)
        .instance("Act", "tActual")
        .instance("Aud", "tAuditing")
        .main(
            vec![p_timeout("t")],
            par([
                start("Act", vec![Arg::name("t")]),
                start("Aud", vec![Arg::name("t")]),
            ]),
        )
        .build()
}

#[test]
fn fig4_snapshot_happy_path() {
    let cp = compile(snapshot_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let act_app = TraceApp::default();
    let aud_app = TraceApp::default();
    rt.bind_app("Act", Box::new(act_app.clone()));
    rt.bind_app("Aud", Box::new(aud_app.clone()));
    rt.run_main(vec![Value::Duration(Duration::from_millis(500))])
        .unwrap();

    assert!(wait_until(Duration::from_secs(5), || {
        aud_app.log_of().contains(&"host:H2".to_string())
    }));
    // No complains on the happy path.
    std::thread::sleep(Duration::from_millis(50));
    assert!(!act_app.log_of().contains(&"host:complain".to_string()));
    let events = rt.take_events();
    assert!(events.iter().all(|e| e.kind != "complain"), "{events:?}");
    rt.shutdown();
}

#[test]
fn fig4_snapshot_dead_auditor_complains() {
    let cp = compile(snapshot_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let act_app = TraceApp::default();
    rt.bind_app("Act", Box::new(act_app.clone()));
    // Start only Act: writes to Aud fail immediately (target down), the
    // otherwise catches it and complains.
    rt.start(
        "Act",
        vec![(None, vec![Arg::duration(Duration::from_millis(100))])],
    )
    .unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        act_app.log_of().contains(&"host:complain".to_string())
    }));
    rt.shutdown();
}

#[test]
fn fig4_auditor_retries_once_when_actor_is_dead() {
    let cp = compile(snapshot_program(), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let aud_app = TraceApp::default();
    rt.bind_app("Aud", Box::new(aud_app.clone()));
    // Start ONLY Aud, then hand it work as if Act had sent it and died:
    // the retract back to Act must fail, triggering the retry logic.
    rt.start(
        "Aud",
        vec![(None, vec![Arg::duration(Duration::from_millis(80))])],
    )
    .unwrap();
    rt.deliver_for_test(
        "Aud",
        "junction",
        csaw_kv::Update::data("n", Value::from(vec![9, 9]), "Act::junction"),
    );
    rt.deliver_for_test(
        "Aud",
        "junction",
        csaw_kv::Update::assert("Work", "Act::junction"),
    );
    // Aud restores, runs H2, tries `retract [Act] Work` → target down →
    // asserts Retried → reconsider → retries the arm → fails again →
    // complains → reconsider finds nothing changed → ReconsiderFailed.
    assert!(wait_until(Duration::from_secs(10), || {
        aud_app.log_of().contains(&"host:complain".to_string())
    }));
    let log = aud_app.log_of();
    assert!(log.contains(&"host:H2".to_string()));
    assert!(wait_until(Duration::from_secs(5), || {
        rt.take_events()
            .iter()
            .any(|e| e.kind == "failure" && e.detail.contains("reconsider"))
    }));
    rt.shutdown();
}

/// Wait until g has answered `n` of f's start-up requests. A stop, crash
/// or shutdown that lands while f still waits for g's reply leaves that
/// `wait` to run out its whole `max_wait`.
fn fig3_settled(rt: &Runtime, n: u64) -> bool {
    wait_until(Duration::from_secs(5), || {
        rt.activations("g") >= n && rt.peek_prop("f", "junction", "Work") == Some(false)
    })
}

#[test]
fn start_twice_fails_stop_then_restartable() {
    let cp = compile_fig3();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(fig3_settled(&rt, 1));
    assert_eq!(rt.status("f"), Some(InstanceStatus::Running));
    // Starting a running instance fails (§6).
    let err = rt
        .start("f", vec![(None, vec![Arg::Junction(JRef::instance("g"))])])
        .unwrap_err();
    assert_eq!(err.kind(), "start-stop");
    rt.stop("f").unwrap();
    assert_eq!(rt.status("f"), Some(InstanceStatus::Stopped));
    // Stopping a stopped instance fails.
    assert_eq!(rt.stop("f").unwrap_err().kind(), "start-stop");
    // Restart works.
    rt.start("f", vec![(None, vec![Arg::Junction(JRef::instance("g"))])])
        .unwrap();
    assert_eq!(rt.status("f"), Some(InstanceStatus::Running));
    assert!(fig3_settled(&rt, 2));
    rt.shutdown();
}

#[test]
fn crash_makes_sends_fail() {
    let cp = compile_fig3();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(fig3_settled(&rt, 1));
    rt.crash("g");
    assert_eq!(rt.status("g"), Some(InstanceStatus::Crashed));
    // f's next activation (invoke) should fail to write to g.
    let err = rt.invoke("f", "junction").unwrap_err();
    assert_eq!(err.kind(), "target-down", "{err}");
    rt.restart("g").unwrap();
    assert_eq!(rt.status("g"), Some(InstanceStatus::Running));
    rt.shutdown();
}

/// Transaction rollback: a failing write inside ⟨|·|⟩ must restore the
/// proposition set at entry.
#[test]
fn transaction_rolls_back_on_failure() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("Flag"), Decl::data("n")],
            seq([
                save("n"),
                otherwise_nodeadline(
                    transaction(seq([
                        assert_local("Flag"),
                        // `dead` is never started → send fails → rollback.
                        write("n", JRef::instance("dead")),
                    ])),
                    skip(),
                ),
            ]),
        )],
    );
    let dead = InstanceType::new(
        "D",
        vec![JunctionDef::new("j", vec![], vec![Decl::data("n")], skip())],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .ty(dead)
        .instance("a", "T")
        .instance("dead", "D")
        .main(vec![], start("a", vec![]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || rt
        .activations("a")
        > 0));
    std::thread::sleep(Duration::from_millis(50));
    // Flag was asserted inside the transaction, then rolled back.
    assert_eq!(rt.peek_prop("a", "j", "Flag"), Some(false));
    rt.shutdown();
}

/// Plain scopes do NOT roll back — "⟨E⟩ does not rollback … whatever
/// changes have been made to the table up to that point will persist".
#[test]
fn plain_scope_does_not_roll_back() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("Flag"), Decl::data("n")],
            seq([
                save("n"),
                otherwise_nodeadline(
                    scope(seq([
                        assert_local("Flag"),
                        write("n", JRef::instance("dead")),
                    ])),
                    skip(),
                ),
            ]),
        )],
    );
    let dead = InstanceType::new(
        "D",
        vec![JunctionDef::new("j", vec![], vec![Decl::data("n")], skip())],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .ty(dead)
        .instance("a", "T")
        .instance("dead", "D")
        .main(vec![], start("a", vec![]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        rt.peek_prop("a", "j", "Flag") == Some(true)
    }));
    rt.shutdown();
}

#[test]
fn verify_failure_and_ternary_unknown() {
    // verify of a false prop → definite failure; verify of a remote prop
    // on a non-running instance → unknown → failure.
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("P")],
            verify(Formula::prop("P")),
        )],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .main(vec![], start("a", vec![]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        rt.take_events().iter().any(|e| e.kind == "failure")
    }));
    rt.shutdown();
}

#[test]
fn retry_is_bounded() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new("j", vec![], vec![], retry())],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .main(vec![], start("a", vec![]))
        .build();
    let mut cfg = LoadConfig::new();
    cfg.retry_limit = 2;
    let cp = compile(p, &cfg).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        rt.take_events()
            .iter()
            .any(|e| e.kind == "failure" && e.detail.contains("retry"))
    }));
    rt.shutdown();
}

#[test]
fn case_next_moves_past_matched_arm() {
    // Arm 0 matches and says `next`; arm 1 must then match even though
    // arm 0's guard is still true.
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![
                Decl::prop_true("A"),
                Decl::prop_false("Hit0"),
                Decl::prop_false("Hit1"),
            ],
            case(
                vec![
                    arm(Formula::prop("A"), assert_local("Hit0"), Terminator::Next),
                    arm(Formula::prop("A"), assert_local("Hit1"), Terminator::Break),
                ],
                skip(),
            ),
        )],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .main(vec![], start("a", vec![]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        rt.peek_prop("a", "j", "Hit1") == Some(true)
    }));
    assert_eq!(rt.peek_prop("a", "j", "Hit0"), Some(true));
    rt.shutdown();
}

#[test]
fn parallel_arms_all_execute() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![
                Decl::prop_false("P1"),
                Decl::prop_false("P2"),
                Decl::prop_false("P3"),
            ],
            par([
                assert_local("P1"),
                assert_local("P2"),
                assert_local("P3"),
            ]),
        )],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .main(vec![], start("a", vec![]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        rt.peek_prop("a", "j", "P1") == Some(true)
            && rt.peek_prop("a", "j", "P2") == Some(true)
            && rt.peek_prop("a", "j", "P3") == Some(true)
    }));
    rt.shutdown();
}

#[test]
fn otherwise_timeout_fires_on_blocked_wait() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![p_timeout("t")],
            vec![Decl::prop_false("Never"), Decl::prop_false("TimedOut")],
            otherwise(
                wait(Vec::<String>::new(), Formula::prop("Never")),
                "t",
                assert_local("TimedOut"),
            ),
        )],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .main(
            vec![p_timeout("t")],
            start("a", vec![Arg::name("t")]),
        )
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![Value::Duration(Duration::from_millis(40))])
        .unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        rt.peek_prop("a", "j", "TimedOut") == Some(true)
    }));
    rt.shutdown();
}

#[test]
fn invoke_runs_on_demand_junction() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("Ran")],
            assert_local("Ran"),
        )],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .main(vec![], start("a", vec![]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_policy("a", "j", Policy::OnDemand);
    rt.run_main(vec![]).unwrap();
    // Policy OnDemand → nothing ran yet.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(rt.peek_prop("a", "j", "Ran"), Some(false));
    rt.invoke("a", "j").unwrap();
    assert_eq!(rt.peek_prop("a", "j", "Ran"), Some(true));
    assert_eq!(rt.activations("a"), 1);
    rt.shutdown();
}

#[test]
fn keep_discards_parallel_updates() {
    // Junction a waits for Go, then keeps (discards) pending updates to
    // Noise; the Noise update delivered while running must vanish.
    let ty_a = InstanceType::new(
        "A",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![
                Decl::prop_false("Go"),
                Decl::prop_false("Noise"),
            ],
            seq([
                wait(Vec::<String>::new(), Formula::prop("Go")),
                keep(["Noise"]),
            ]),
        )],
    );
    let p = ProgramBuilder::new()
        .ty(ty_a)
        .instance("a", "A")
        .main(vec![], start("a", vec![]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    // Deliver Noise (queues: junction is running inside wait, and Noise
    // is not in the window), then Go (applies via window).
    rt.deliver_for_test("a", "j", csaw_kv::Update::assert("Noise", "x"));
    rt.deliver_for_test("a", "j", csaw_kv::Update::assert("Go", "x"));
    assert!(wait_until(Duration::from_secs(5), || {
        rt.activations("a") == 1 && rt.peek_prop("a", "j", "Go") == Some(true)
    }));
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(rt.peek_prop("a", "j", "Noise"), Some(false));
    rt.shutdown();
}

/// Satellite of the fault-model work: a transaction body whose `write`
/// fails not because the target is down but because the *link* eats the
/// message (injected fault, retry disabled) must roll back exactly like
/// the target-down case — ⟨|E|⟩ is all-or-nothing regardless of which
/// failure interrupts it.
#[test]
fn transaction_rolls_back_on_injected_link_fault() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new(
            "j",
            vec![],
            vec![Decl::prop_false("Flag"), Decl::data("n")],
            seq([
                save("n"),
                otherwise_nodeadline(
                    transaction(seq([
                        assert_local("Flag"),
                        write("n", JRef::instance("peer")),
                    ])),
                    skip(),
                ),
            ]),
        )],
    );
    let peer = InstanceType::new(
        "P",
        vec![JunctionDef::new("j", vec![], vec![Decl::data("n")], skip())],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .ty(peer)
        .instance("a", "T")
        .instance("peer", "P")
        .main(vec![], par([start("a", vec![]), start("peer", vec![])]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    // The peer is alive — only the link is bad. With retry disabled the
    // drop surfaces as Failure::Link{LinkDropped} inside the transaction.
    rt.set_retry_policy(csaw_runtime::RetryPolicy::disabled());
    rt.set_fault_plan("a", "peer", csaw_runtime::FaultPlan::none().with_drop(1.0));
    rt.run_main(vec![]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || rt.activations("a") > 0));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(rt.status("peer"), Some(InstanceStatus::Running));
    assert_eq!(rt.peek_prop("a", "j", "Flag"), Some(false), "must roll back");
    // Declared-but-never-written data reads as undef: the write was lost.
    assert_eq!(rt.peek_data("peer", "j", "n"), Some(Value::Undef));
    assert!(rt.link_stats().drops > 0, "fault plan must have engaged");
    rt.shutdown();
}

/// Heartbeat failure detection makes `S(ι)` observer-relative: a
/// directional partition silences b's pings toward a, so a suspects b
/// while b (still hearing a) does not. Healing the link restores trust.
#[test]
fn heartbeats_make_liveness_observer_relative_under_partition() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new("j", vec![], vec![Decl::prop_false("P")], skip())],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .instance("b", "T")
        .main(vec![], par([start("a", vec![]), start("b", vec![])]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    rt.enable_heartbeats(csaw_runtime::HeartbeatConfig {
        interval: Duration::from_millis(10),
        suspicion: Duration::from_millis(80),
        k_missed: 1,
    });
    // Both directions healthy: nobody suspects anybody.
    std::thread::sleep(Duration::from_millis(120));
    assert!(rt.is_live_from("a", "b"));
    assert!(rt.is_live_from("b", "a"));
    // Cut b→a only. a stops hearing b; b still hears a.
    rt.set_fault_plan(
        "b",
        "a",
        csaw_runtime::FaultPlan::none().with_outage(Duration::ZERO, Duration::from_secs(60)),
    );
    assert!(wait_until(Duration::from_secs(5), || !rt.is_live_from("a", "b")));
    assert!(rt.is_live_from("b", "a"), "partition is directional");
    // The registry fast path still sees b as Running — only the
    // observer-relative view changed.
    assert_eq!(rt.status("b"), Some(InstanceStatus::Running));
    // Heal; a's trust in b returns with the next pings.
    rt.clear_fault_plan("b", "a");
    assert!(wait_until(Duration::from_secs(5), || rt.is_live_from("a", "b")));
    rt.shutdown();
}

#[test]
fn run_main_arity_checked() {
    let cp = compile_fig3();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    assert!(rt.run_main(vec![Value::Int(1)]).is_err());
    rt.shutdown();
}

/// The heartbeat loop sleeps its interval on the runtime clock,
/// interruptibly: a 60 s interval must not delay shutdown. (Regression
/// for the old wall-clock `thread::sleep` loop, which also drifted by
/// the cost of each round — the loop now tracks absolute deadlines.)
#[test]
fn shutdown_interrupts_long_heartbeat_interval() {
    let ty = InstanceType::new(
        "T",
        vec![JunctionDef::new("j", vec![], vec![Decl::prop_false("P")], skip())],
    );
    let p = ProgramBuilder::new()
        .ty(ty)
        .instance("a", "T")
        .instance("b", "T")
        .main(vec![], par([start("a", vec![]), start("b", vec![])]))
        .build();
    let cp = compile(p, &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.run_main(vec![]).unwrap();
    rt.enable_heartbeats(csaw_runtime::HeartbeatConfig {
        interval: Duration::from_secs(60),
        suspicion: Duration::from_secs(120),
        k_missed: 2,
    });
    // Let the heartbeat thread send its first round and park in the
    // 60 s interval sleep.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    rt.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} — heartbeat interval sleep was not interrupted",
        t0.elapsed()
    );
}
