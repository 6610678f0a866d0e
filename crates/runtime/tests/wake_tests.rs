//! Hand-off wake-ups on the relay path: a request through `sharding(4)`
//! costs at most one wake-up per hop and, since the front-end's `wait`
//! runs the back-end pass its own `assert` made due, none at all; none
//! is ever lost, and nobody off the path is woken. Nothing polls, so a
//! lost wake-up hangs its request to the front-end's 10 s `otherwise`
//! deadline, and an idle junction parks until a signal or its period's
//! end. The `wake_remote_*`, `wake_liveness_*`, `wake_par_*`,
//! `wake_invoke_*` and `wake_periodic_*` tests take each input of a
//! guard or a `wait` that only its own signal or deadline covers — a
//! `γ@P` table, `S(ι)` from the registry and from heartbeats, a sibling
//! `par` arm's write, a false guard under `invoke`, a period — and hang
//! to their deadline if that signal is missing. The `wake_inline_*` tests
//! check where a nested pass may not run (a target whose body can
//! park), that no place the caller blocks at delays a held wake (an app
//! call, a retry backoff, the end of the activation), and what a nested
//! pass does to its caller: it runs to its end, past the caller's
//! deadline, and its panic stays its own. The stopped, crashed and held targets are
//! covered by the library's own `wake_inline_*` tests (`runtime.rs`).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_core::builder::*;
use csaw_core::decl::Decl;
use csaw_core::expr::{Arg, Expr};
use csaw_core::formula::Formula;
use csaw_core::names::JRef;
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig, Program};
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{FaultPlan, HostCtx, InstanceApp, RetryPolicy, Runtime, RuntimeConfig};

const SHARDS: usize = 4;

/// The front-end's host side: `Choose` picks the back-ends in turn.
struct RoundRobin {
    next: usize,
}

impl InstanceApp for RoundRobin {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "Choose" {
            self.next = self.next % SHARDS + 1;
            ctx.set_idx("tgt", &format!("Bck{}", self.next))?;
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::from(vec![7; 16]))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// `sharding(4)` over Direct links, the front-end `OnDemand`, back-ends
/// the no-op app, booted.
fn relay() -> Runtime {
    relay_with(RuntimeConfig::default())
}

fn relay_with(config: RuntimeConfig) -> Runtime {
    let cp = csaw_core::compile(sharding(&ShardingSpec::default()), &LoadConfig::new())
        .expect("sharding compiles");
    let rt = Runtime::new(&cp, config);
    rt.bind_app("Fnt", Box::new(RoundRobin { next: 0 }));
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(10))])
        .expect("main runs");
    rt
}

fn passes(rt: &Runtime, instance: &str) -> u64 {
    rt.metrics().counter_value(&format!(
        "scheduler_passes_total{{instance=\"{instance}\",junction=\"junction\"}}"
    ))
}

#[test]
fn wake_no_request_waits_out_a_tick() {
    const REQUESTS: u32 = 3_000;
    let rt = relay();
    let started = Instant::now();
    for i in 0..REQUESTS {
        let sent = Instant::now();
        rt.invoke("Fnt", "junction").expect("request served");
        let took = sent.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "request {i} took {took:?}: it slept through a wake-up"
        );
    }
    // 5 ms a request on average.
    let budget = Duration::from_secs(15);
    assert!(
        started.elapsed() < budget,
        "{REQUESTS} requests took {:?}",
        started.elapsed()
    );
    assert!(rt
        .take_events()
        .iter()
        .all(|e| e.kind != "failure" && e.kind != "complain"));
    rt.shutdown();
}

#[test]
fn wake_one_signal_per_hop_and_none_off_the_path() {
    const N: u64 = 2_000;
    let rt = relay();
    for _ in 0..N {
        rt.invoke("Fnt", "junction").expect("request served");
    }
    let signals = rt.metrics().counter_value("wake_signals_total");
    assert!(
        signals <= 2 * N + 64,
        "{signals} signals notified a thread over {N} requests"
    );
    // Start-up and `set_policy` only: an `OnDemand` junction's scheduler
    // has nothing to schedule.
    let front = passes(&rt, "Fnt");
    assert!(front <= 16, "front-end scheduler made {front} passes");
    for i in 1..=SHARDS {
        let name = format!("Bck{i}");
        let served = rt.activations(&name);
        assert_eq!(served, N / SHARDS as u64, "{name} served its share");
        // The one that runs the activation and the one that finds the
        // guard false again.
        let made = passes(&rt, &name);
        assert!(
            made <= 2 * served + 16,
            "{name}: {made} passes for {served} requests"
        );
    }
    rt.shutdown();
}

/// The front-end's `wait` runs the back-end pass its own `assert` made
/// due on the invoking thread, nested under the `wait`: no back-end
/// thread is woken, and each back-end makes one pass per request —
/// the nested one — instead of a pass that serves it and a pass that
/// finds the guard false again.
#[test]
fn wake_inline_relay_wakes_no_thread() {
    const N: u64 = 2_000;
    let rt = relay();
    for _ in 0..N {
        rt.invoke("Fnt", "junction").expect("request served");
    }
    let signals = rt.metrics().counter_value("wake_signals_total");
    assert!(
        signals <= 64,
        "{signals} signals notified a thread over {N} requests"
    );
    for i in 1..=SHARDS {
        let name = format!("Bck{i}");
        let served = rt.activations(&name);
        assert_eq!(served, N / SHARDS as u64, "{name} served its share");
        let made = passes(&rt, &name);
        assert!(
            made.abs_diff(served) <= 16,
            "{name}: {made} passes for {served} requests"
        );
    }
    rt.shutdown();
}

/// A back-end's guard (`Work`) reads only its own table, whose every
/// change signals its scheduler, so an idle back-end parks with no
/// deadline.
#[test]
fn wake_idle_local_guards_do_not_poll() {
    let rt = relay_with(RuntimeConfig::default());
    std::thread::sleep(Duration::from_secs(1));
    for i in 1..=SHARDS {
        let name = format!("Bck{i}");
        let made = passes(&rt, &name);
        assert!(made <= 8, "idle {name} made {made} scheduler passes in 1 s");
    }
    rt.shutdown();
}

/// The thread and instant of each `Serve` host call.
type Served = Arc<Mutex<Vec<(String, Instant)>>>;

/// Where and when a junction ran its `Serve` (or, after sleeping
/// [`SLOW`], its `Slow`) host call, and a rendezvous in its `save`: it
/// reports on `paused` and returns once `resume` yields. A `save` holds
/// the instance's app but not the junction's table, so deliveries to the
/// paused junction still land. `Panic` panics.
#[derive(Default)]
struct Probe {
    served: Served,
    pause: Option<(Sender<()>, Receiver<()>)>,
}

/// How long `Slow` takes: three times `a`'s timeout `t`.
const SLOW: Duration = Duration::from_millis(600);

impl InstanceApp for Probe {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        match name {
            "Serve" | "Slow" => {
                if name == "Slow" {
                    std::thread::sleep(SLOW);
                }
                let thread = std::thread::current().name().unwrap_or("").to_string();
                self.served.lock().unwrap().push((thread, Instant::now()));
            }
            "Panic" => panic!("panicking on purpose"),
            _ => {}
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        if let Some((paused, resume)) = &self.pause {
            paused.send(()).unwrap();
            resume.recv().unwrap();
        }
        Ok(Value::Bool(true))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// Instances `a`, `b` and `c`, each with one junction `j` and the
/// same propositions and datum `n`: `a` runs `a_body` with a timeout
/// parameter `t` of 200 ms, `b` (guard `Work`) runs `b_body`, `c` does
/// nothing.
fn pair(a_body: Expr, b_body: Expr) -> Program {
    let decls = || {
        let mut decls = ["Work", "Req", "Done", "Go", "X"]
            .map(Decl::prop_false)
            .to_vec();
        decls.push(Decl::data("n"));
        decls
    };
    let mut b_decls = decls();
    b_decls.push(Decl::guard(Formula::prop("Work")));
    let ty = |name: &str, params, decls, body| {
        InstanceType::new(name, vec![JunctionDef::new("j", params, decls, body)])
    };
    let t = Arg::Value(Value::Duration(Duration::from_millis(200)));
    ProgramBuilder::new()
        .ty(ty("tA", vec![p_timeout("t")], decls(), a_body))
        .ty(ty("tB", vec![], b_decls, b_body))
        .ty(ty("tC", vec![], decls(), skip()))
        .instance("a", "tA")
        .instance("b", "tB")
        .instance("c", "tC")
        .main(
            vec![],
            par([start("a", vec![t]), start("b", vec![]), start("c", vec![])]),
        )
        .build()
}

/// Boot `program` with `a` invoked on demand and a probe on `a` and
/// `b`; returns the runtime, `b`'s served log and `a`'s pause
/// rendezvous (`paused` receiver, `resume` sender).
fn boot(program: Program, config: RuntimeConfig) -> (Runtime, Served, Receiver<()>, Sender<()>) {
    let cp = csaw_core::compile(program, &LoadConfig::new()).expect("compiles");
    let rt = Runtime::new(&cp, config);
    let (paused_tx, paused_rx) = channel();
    let (resume_tx, resume_rx) = channel();
    rt.bind_app(
        "a",
        Box::new(Probe {
            pause: Some((paused_tx, resume_rx)),
            ..Default::default()
        }),
    );
    let b = Probe::default();
    let served = Arc::clone(&b.served);
    rt.bind_app("b", Box::new(b));
    rt.set_policy("a", "j", Policy::OnDemand);
    rt.run_main(vec![]).expect("main runs");
    // Let `b`'s scheduler make the pass the end of `main` woke it for
    // and park: a request that lands while it is still awake is served
    // by that pass, before a test can take `b` out of service. Nothing
    // announces the park, so a short grace follows the pass.
    let b_passes = || {
        rt.metrics()
            .counter_value("scheduler_passes_total{instance=\"b\",junction=\"j\"}")
    };
    assert!(within(Duration::from_secs(5), || b_passes() >= 1));
    std::thread::sleep(Duration::from_millis(20));
    (rt, served, paused_rx, resume_tx)
}

fn at(instance: &str) -> JRef {
    JRef::instance(instance)
}

fn within(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// `b`'s body `wait`s for its caller `a` to answer. Nested under `a`'s
/// `wait` it would wait on the activation stacked below it until its
/// own `wait` timed out, so it may not run there: it runs on its own
/// thread, and every request completes at once.
#[test]
fn wake_inline_never_nests_a_target_that_waits_on_its_caller() {
    let a_body = seq([
        retract_local("Req"),
        retract_local("Done"),
        assert_at(at("b"), "Work"),
        wait(Vec::<String>::new(), Formula::prop("Req")),
        assert_at(at("b"), "Go"),
        wait(Vec::<String>::new(), Formula::prop("Done")),
    ]);
    let b_body = seq([
        host("Serve"),
        retract_local("Work"),
        assert_at(at("a"), "Req"),
        wait(Vec::<String>::new(), Formula::prop("Go")),
        retract_local("Go"),
        assert_at(at("a"), "Done"),
    ]);
    let config = RuntimeConfig {
        max_wait: Duration::from_secs(5),
        ..Default::default()
    };
    let (rt, served, _, _) = boot(pair(a_body, b_body), config);
    let started = Instant::now();
    for _ in 0..20 {
        rt.invoke("a", "j").expect("request served");
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "20 requests took {took:?}");
    let served = served.lock().unwrap();
    assert_eq!(served.len(), 20);
    assert!(
        served.iter().all(|(thread, _)| thread == "csaw-b-j"),
        "{served:?}"
    );
    rt.shutdown();
}

/// `a` asserts `Work` at `b` and ends without a `wait`, by `a_end`,
/// which calls no app. The end of its activation signals the wake it
/// held: `b`'s guard reads only its own table, so nothing else would
/// ever run `b`.
fn served_after_an_activation_ends(a_end: Expr) {
    let a_body = seq([assert_at(at("b"), "Work"), a_end]);
    let b_body = seq([host("Serve"), retract_local("Work")]);
    let (rt, served, _, _) = boot(pair(a_body, b_body), RuntimeConfig::default());
    let _ = rt.invoke("a", "j");
    let one_served = || served.lock().unwrap().len() == 1;
    assert!(within(Duration::from_millis(500), one_served));
    assert_eq!(served.lock().unwrap()[0].0, "csaw-b-j");
    rt.shutdown();
}

#[test]
fn wake_inline_activation_end_signals_what_it_holds() {
    served_after_an_activation_ends(skip());
}

#[test]
fn wake_inline_failed_activation_signals_what_it_holds() {
    served_after_an_activation_ends(verify(Formula::prop("X")));
}

/// `a` asserts `Work` at `b`, then blocks in its app's `save` until the
/// test lets it go. The call signals the wake `a` held, so `b` serves
/// the request on its own thread while `a` is still blocked.
#[test]
fn wake_inline_app_call_signals_what_it_holds() {
    let a_body = seq([
        assert_at(at("b"), "Work"),
        save("n"),
        wait(Vec::<String>::new(), Formula::prop("Work").not()),
    ]);
    let b_body = seq([host("Serve"), retract_at(at("a"), "Work")]);
    let (rt, served, paused, resume) = boot(pair(a_body, b_body), RuntimeConfig::default());
    std::thread::scope(|s| {
        let request = s.spawn(|| rt.invoke("a", "j"));
        paused.recv().unwrap();
        let during_save = within(Duration::from_secs(2), || served.lock().unwrap().len() == 1);
        resume.send(()).unwrap();
        request.join().unwrap().expect("request served");
        assert!(during_save, "b waited for a's app call to return");
    });
    assert_eq!(served.lock().unwrap()[0].0, "csaw-b-j");
    rt.shutdown();
}

/// `a` asserts `Work` at `b` and `wait`s for `b` to retract it under
/// `otherwise[t]`, t = 200 ms; `b`'s host call takes 3t. The pass runs
/// nested on `a`'s thread and to its end: `a`'s deadline bounds its
/// own `wait`, not the target's run time, so the request comes back
/// served after 3t, not by its handler at t. (On its own thread, `b`
/// would have left `a` to time out at t.)
#[test]
fn wake_inline_callers_deadline_does_not_bound_a_nested_pass() {
    let a_body = seq([
        assert_at(at("b"), "Work"),
        otherwise(
            wait(Vec::<String>::new(), Formula::prop("Work").not()),
            "t",
            skip(),
        ),
    ]);
    let b_body = seq([host("Slow"), retract_at(at("a"), "Work")]);
    let (rt, served, _, _) = boot(pair(a_body, b_body), RuntimeConfig::default());
    let started = Instant::now();
    rt.invoke("a", "j").expect("request served");
    let took = started.elapsed();
    let me = std::thread::current().name().unwrap_or("").to_string();
    assert_eq!(served.lock().unwrap()[0].0, me, "b ran nested");
    assert!(took >= SLOW, "the request came back after {took:?}");
    assert!(
        rt.take_events().iter().all(|e| e.kind != "handled-failure"),
        "a's handler ran"
    );
    rt.shutdown();
}

/// `b`'s host call panics in the pass nested under `a`'s `wait`. The
/// panic stays `b`'s: it is recorded as `b`'s failure, and `a`'s
/// request ends through its own handler, at its deadline.
#[test]
fn wake_inline_nested_panic_stays_with_the_target() {
    let a_body = seq([
        assert_at(at("b"), "Work"),
        otherwise(
            wait(Vec::<String>::new(), Formula::prop("Work").not()),
            "t",
            skip(),
        ),
    ]);
    let b_body = seq([host("Panic"), retract_at(at("a"), "Work")]);
    let (rt, _, _, _) = boot(pair(a_body, b_body), RuntimeConfig::default());
    rt.invoke("a", "j")
        .expect("a's handler absorbs the timeout");
    let events = rt.take_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == "failure" && e.instance == "b" && e.detail == "panicked"),
        "{events:?}"
    );
    assert!(events
        .iter()
        .any(|e| e.kind == "handled-failure" && e.instance == "a"));
    rt.shutdown();
}

/// `a` asserts `Work` at `b`, then sends to `c` over a link that drops
/// everything, retrying after backoffs of at least 300 ms. The backoff
/// signals what `a` holds, so `b` runs on its own thread long before
/// `a` reaches its `wait`.
#[test]
fn wake_inline_retry_backoff_does_not_delay_earlier_sends() {
    let a_body = seq([
        assert_at(at("b"), "Work"),
        otherwise_nodeadline(assert_at(at("c"), "X"), skip()),
        wait(Vec::<String>::new(), Formula::prop("Work").not()),
    ]);
    let b_body = seq([host("Serve"), retract_at(at("a"), "Work")]);
    let (rt, served, _, _) = boot(pair(a_body, b_body), RuntimeConfig::default());
    let first_backoff = Duration::from_millis(300);
    rt.set_retry_policy(RetryPolicy {
        enabled: true,
        max_retries: 2,
        base: Duration::from_millis(400),
        cap: Duration::from_millis(400),
    });
    rt.set_fault_plan("a", "c", FaultPlan::none().with_drop(1.0));
    let started = Instant::now();
    rt.invoke("a", "j").expect("request served");
    assert!(rt.link_stats().retries >= 1, "the send to c was retried");
    let served = served.lock().unwrap();
    assert_eq!(served.len(), 1);
    let (thread, at) = &served[0];
    assert_eq!(thread, "csaw-b-j");
    let delay = at.duration_since(started);
    assert!(delay < first_backoff, "b ran {delay:?} after the request");
    rt.shutdown();
}

/// The instant of each `Seen` host call; `Pause` sleeps [`PAUSE`].
#[derive(Clone, Default)]
struct Watcher(Arc<Mutex<Vec<Instant>>>);

/// How long `Pause` takes.
const PAUSE: Duration = Duration::from_millis(50);

impl Watcher {
    fn seen(&self) -> Vec<Instant> {
        self.0.lock().unwrap().clone()
    }
}

impl InstanceApp for Watcher {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        match name {
            "Seen" => self.0.lock().unwrap().push(Instant::now()),
            "Pause" => std::thread::sleep(PAUSE),
            _ => {}
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::Bool(true))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// Instances `p` and `w`, each with one junction `j`. `p` declares
/// `Ready` and runs `p_body` when invoked. `w` declares `Go` and `Ready`, has
/// `w_guard` if one is given, runs `w_body` with a [`Watcher`] app and
/// is scheduled by `w_policy`. A `wait` or an `invoke` gives up after
/// 5 s, so a missing signal fails the test instead of hanging it.
fn watch(
    p_body: Expr,
    w_guard: Option<Formula>,
    w_body: Expr,
    w_policy: Policy,
) -> (Runtime, Watcher) {
    let mut w_decls = vec![Decl::prop_false("Go"), Decl::prop_false("Ready")];
    w_decls.extend(w_guard.map(Decl::guard));
    let ty = |name: &str, decls, body| {
        InstanceType::new(name, vec![JunctionDef::new("j", vec![], decls, body)])
    };
    let program = ProgramBuilder::new()
        .ty(ty("tP", vec![Decl::prop_false("Ready")], p_body))
        .ty(ty("tW", w_decls, w_body))
        .instance("p", "tP")
        .instance("w", "tW")
        .main(vec![], par([start("p", vec![]), start("w", vec![])]))
        .build();
    let cp = csaw_core::compile(program, &LoadConfig::new()).expect("compiles");
    let config = RuntimeConfig {
        max_wait: Duration::from_secs(5),
        invoke_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    let rt = Runtime::new(&cp, config);
    let watcher = Watcher::default();
    rt.bind_app("w", Box::new(watcher.clone()));
    rt.set_policy("p", "j", Policy::OnDemand);
    rt.set_policy("w", "j", w_policy);
    rt.run_main(vec![]).expect("main runs");
    (rt, watcher)
}

/// `Ready@p` in `w`'s guard turns true by an update queued at `p`, which
/// nobody runs: the delivery signals `w`'s scheduler.
#[test]
fn wake_remote_prop_queued_delivery_runs_a_guard() {
    let ready = Formula::at(at("p"), Formula::prop("Ready"));
    let body = seq([host("Seen"), retract_at(at("p"), "Ready")]);
    let (rt, watcher) = watch(skip(), Some(ready), body, Policy::Auto);
    // `w`'s scheduler looks at its false guard once and parks.
    std::thread::sleep(PAUSE);
    let sent = Instant::now();
    rt.deliver_for_test("p", "j", csaw_kv::Update::assert("Ready", "x::j"));
    assert!(
        within(Duration::from_secs(1), || watcher.seen().len() == 1),
        "w never saw Ready@p"
    );
    let took = watcher.seen()[0].saturating_duration_since(sent);
    assert!(
        took < Duration::from_secs(1),
        "w saw Ready@p after {took:?}"
    );
    rt.shutdown();
}

/// `Ready@p` in `w`'s `wait` turns true by `p`'s own local write: the end
/// of `p`'s activation signals `w`'s cell.
#[test]
fn wake_remote_prop_own_write_ends_a_wait() {
    let ready = Formula::at(at("p"), Formula::prop("Ready"));
    let body = seq([wait(Vec::<String>::new(), ready), host("Seen")]);
    let (rt, watcher) = watch(assert_local("Ready"), None, body, Policy::OnDemand);
    std::thread::scope(|s| {
        let waiting = s.spawn(|| rt.invoke("w", "j"));
        std::thread::sleep(PAUSE);
        rt.invoke("p", "j").expect("p writes Ready");
        let wrote = Instant::now();
        waiting.join().unwrap().expect("w's wait ends");
        let took = watcher.seen()[0].saturating_duration_since(wrote);
        assert!(
            took < Duration::from_secs(1),
            "w saw Ready@p after {took:?}"
        );
    });
    rt.shutdown();
}

/// `¬S(p)` in `w`'s `wait` turns true when `p` stops, and again when it
/// crashes: each lifecycle change signals every cell.
#[test]
fn wake_liveness_stop_and_crash_end_a_wait() {
    let down = Formula::live("p").not();
    let body = seq([wait(Vec::<String>::new(), down), host("Seen")]);
    let (rt, watcher) = watch(skip(), None, body, Policy::OnDemand);
    let take_down: [&dyn Fn(&Runtime); 2] = [&|rt| rt.stop("p").unwrap(), &|rt| rt.crash("p")];
    for (round, take_down) in take_down.into_iter().enumerate() {
        std::thread::scope(|s| {
            let waiting = s.spawn(|| rt.invoke("w", "j"));
            std::thread::sleep(PAUSE);
            take_down(&rt);
            let downed = Instant::now();
            waiting.join().unwrap().expect("w's wait ends");
            let took = watcher.seen()[round].saturating_duration_since(downed);
            assert!(
                took < Duration::from_secs(1),
                "round {round}: after {took:?}"
            );
        });
        rt.restart("p").unwrap();
    }
    rt.shutdown();
}

/// Under heartbeats, `w` suspects `p` once `p`'s pings stop arriving,
/// and clears the suspicion once they arrive again. Nothing but the
/// monitor's round sees either change, so the round signals `w`.
#[test]
fn wake_liveness_heartbeat_suspicion_onset_and_clearing() {
    let body = seq([
        wait(Vec::<String>::new(), Formula::live("p").not()),
        host("Seen"),
        wait(Vec::<String>::new(), Formula::live("p")),
        host("Seen"),
    ]);
    let (rt, watcher) = watch(skip(), None, body, Policy::OnDemand);
    let hb = csaw_runtime::HeartbeatConfig {
        interval: Duration::from_millis(10),
        suspicion: Duration::from_millis(50),
        k_missed: 2,
    };
    rt.enable_heartbeats(hb);
    std::thread::sleep(PAUSE);
    std::thread::scope(|s| {
        let waiting = s.spawn(|| rt.invoke("w", "j"));
        std::thread::sleep(PAUSE);
        // Onset: 100 ms of silence, seen at the next round.
        rt.set_fault_plan("p", "w", FaultPlan::none().with_drop(1.0));
        let cut = Instant::now();
        assert!(
            within(Duration::from_secs(2), || watcher.seen().len() == 1),
            "w never suspected p"
        );
        let onset = watcher.seen()[0].saturating_duration_since(cut);
        // Clearing: the first ping heard, seen in its own round.
        rt.clear_fault_plan("p", "w");
        let healed = Instant::now();
        assert!(
            within(Duration::from_secs(2), || watcher.seen().len() == 2),
            "w never heard from p again"
        );
        let cleared = watcher.seen()[1].saturating_duration_since(healed);
        waiting.join().unwrap().expect("both waits end");
        assert!(onset < Duration::from_secs(2), "suspected after {onset:?}");
        assert!(
            cleared < Duration::from_secs(1),
            "cleared after {cleared:?}"
        );
    });
    rt.shutdown();
}

/// One arm of `w`'s `+` waits for `Go`, the other asserts it after
/// [`PAUSE`]: the arm's local write signals its cell.
#[test]
fn wake_par_arm_write_wakes_its_sibling_wait() {
    let body = par([
        wait(Vec::<String>::new(), Formula::prop("Go")),
        seq([host("Pause"), assert_local("Go")]),
    ]);
    let (rt, _) = watch(skip(), None, body, Policy::OnDemand);
    let started = Instant::now();
    rt.invoke("w", "j").expect("the wait ends");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "the par took {took:?}");
    rt.shutdown();
}

/// `invoke` of `w`, which is `OnDemand` with a false guard, waits for
/// the guard. An update queued at `w` signals the waiting invoke.
#[test]
fn wake_invoke_false_guard_released_by_a_queued_delivery() {
    let body = seq([host("Seen"), retract_local("Go")]);
    let (rt, watcher) = watch(skip(), Some(Formula::prop("Go")), body, Policy::OnDemand);
    std::thread::scope(|s| {
        let invoked = s.spawn(|| rt.invoke("w", "j"));
        std::thread::sleep(PAUSE);
        let sent = Instant::now();
        rt.deliver_for_test("w", "j", csaw_kv::Update::assert("Go", "x::j"));
        invoked.join().unwrap().expect("the guard came true");
        let took = watcher.seen()[0].saturating_duration_since(sent);
        assert!(
            took < Duration::from_secs(1),
            "the invoke ran {took:?} after Go"
        );
    });
    rt.shutdown();
}

/// An idle `Periodic(100 ms)` junction parks until its period ends: one
/// scheduler pass a period, not one a poll.
#[test]
fn wake_periodic_idle_junction_passes_once_a_period() {
    let (rt, _) = watch(
        skip(),
        None,
        skip(),
        Policy::Periodic(Duration::from_millis(100)),
    );
    let pass_count = || {
        rt.metrics()
            .counter_value("scheduler_passes_total{instance=\"w\",junction=\"j\"}")
    };
    let before = pass_count();
    std::thread::sleep(Duration::from_secs(1));
    let made = pass_count() - before;
    let ran = rt.activations("w");
    assert!(
        made <= 12,
        "idle periodic w made {made} scheduler passes in 1 s"
    );
    assert!(ran >= 5, "w ran {ran} times in 1 s");
    rt.shutdown();
}
