//! Split-brain fencing under self-healing supervision, end to end:
//! partition the preferred back-end of the supervised fail-over
//! architecture, let [`csaw::runtime::Runtime::supervise`] detect the
//! partition and promote the spare via a live reconfiguration, heal the
//! partition, and prove the fenced-out zombie primary can no longer ack
//! anything — while the identical run with fencing disabled reproduces
//! the classic split-brain anomaly the fence exists to stop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csaw::arch::watched::{promoted, supervised_failover, WatchedSpec};
use csaw::core::program::LoadConfig;
use csaw::core::value::Value;
use csaw::redis::apps::ServerApp;
use csaw::redis::{Command, Reply};
use csaw::runtime::app::AppError;
use csaw::runtime::runtime::Policy;
use csaw::runtime::supervisor::RepairAction;
use csaw::runtime::{
    FailureClass, FaultPlan, HeartbeatConfig, HostCtx, InstanceApp, ReconfigSpec, RepairPolicy,
    RepairRecord, Runtime, RuntimeConfig, SupervisorConfig, TraceEvent,
};
use csaw::semantics::{
    check_trace, denote_program, ConformanceOptions, DenoteConfig, ProgramSemantics,
};

const FRONT_TIMEOUT: Duration = Duration::from_millis(300);

fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// KV front-end for the watched architecture: `H1` pops the pending
/// command, `save("n")` ships it, `restore("m")` collects the reply.
struct FrontApp {
    requests: Arc<Mutex<VecDeque<Command>>>,
    replies: Arc<Mutex<Vec<Reply>>>,
    current: Option<Command>,
}

impl FrontApp {
    fn new() -> FrontApp {
        FrontApp {
            requests: Arc::new(Mutex::new(VecDeque::new())),
            replies: Arc::new(Mutex::new(Vec::new())),
            current: None,
        }
    }
}

impl InstanceApp for FrontApp {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), AppError> {
        if name == "H1" {
            self.current = Some(self.requests.lock().unwrap().pop_front().ok_or("no request")?);
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, AppError> {
        Ok(Value::Bytes(self.current.as_ref().ok_or("no current")?.encode()))
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), AppError> {
        self.replies
            .lock()
            .unwrap()
            .push(Reply::decode(value.as_bytes().ok_or("bytes")?)?);
        Ok(())
    }
}

/// Drive one command to a reply, retrying through repair windows.
fn drive(
    rt: &Runtime,
    requests: &Arc<Mutex<VecDeque<Command>>>,
    replies: &Arc<Mutex<Vec<Reply>>>,
    cmd: Command,
    deadline: Duration,
) -> Option<Reply> {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        {
            let mut q = requests.lock().unwrap();
            if q.is_empty() {
                q.push_back(cmd.clone());
            }
        }
        let before = replies.lock().unwrap().len();
        let invoked = rt.invoke("f", "junction").is_ok();
        if invoked
            && wait_until(Duration::from_millis(400), || {
                replies.lock().unwrap().len() > before
            })
        {
            return Some(replies.lock().unwrap()[before].clone());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

/// Every directed link between the preferred back-end and the rest.
const O_LINKS: [(&str, &str); 4] = [("o", "f"), ("f", "o"), ("o", "s"), ("s", "o")];

struct Outcome {
    repair: Option<RepairRecord>,
    /// The zombie's stale `Reply` landed at the front post-heal.
    stale_reply_applied: bool,
    /// A request completed after the heal (the system stayed usable).
    post_heal_reply: Option<Reply>,
    /// Acked SETs missing from both stores.
    lost_acked_sets: usize,
    fenced_sends: u64,
    trace: Vec<TraceEvent>,
    trace_dropped: u64,
    /// The runtime's epoch chain, denoted, for cross-epoch conformance.
    sems: Vec<ProgramSemantics>,
}

/// One full scenario: traffic → partition `o` → supervised promotion →
/// more traffic → heal → zombie pokes → one more request.
fn run_split_brain(fencing: bool, seed: u64) -> Outcome {
    let spec = WatchedSpec::default();
    let a = csaw::core::compile(supervised_failover(&spec), &LoadConfig::new()).unwrap();
    let b = csaw::core::compile(promoted(&spec), &LoadConfig::new()).unwrap();

    let rt = Runtime::new(&a, RuntimeConfig::default());
    rt.set_tracing(true);
    if !fencing {
        rt.set_fencing(false);
    }
    let front = FrontApp::new();
    let requests = Arc::clone(&front.requests);
    let replies = Arc::clone(&front.replies);
    rt.bind_app("f", Box::new(front));
    let o = ServerApp::new();
    let s = ServerApp::new();
    let store_o = Arc::clone(&o.store);
    let store_s = Arc::clone(&s.store);
    rt.bind_app("o", Box::new(o));
    rt.bind_app("s", Box::new(s));
    rt.set_policy("f", "junction", Policy::OnDemand);
    // Per-seed jitter on the promoted reply path varies the interleaving.
    rt.set_fault_plan(
        "s",
        "f",
        FaultPlan::none()
            .with_jitter(Duration::from_millis(seed % 4))
            .with_seed(seed),
    );
    rt.run_main(vec![Value::Duration(FRONT_TIMEOUT)]).unwrap();
    rt.enable_heartbeats(HeartbeatConfig {
        interval: Duration::from_millis(10),
        suspicion: Duration::from_millis(40),
        k_missed: 2,
    });

    // Pre-partition traffic, served by the preferred back-end and
    // mirrored to the spare (the §7.2 default arm engages both).
    let mut acked_sets: Vec<(String, Vec<u8>)> = Vec::new();
    for cmd in [
        Command::Set("a".into(), b"1".to_vec()),
        Command::Incr("ctr".into()),
        Command::Set("b".into(), b"2".to_vec()),
    ] {
        let reply = drive(&rt, &requests, &replies, cmd.clone(), Duration::from_secs(8))
            .unwrap_or_else(|| panic!("seed {seed}: pre-partition {cmd:?} refused"));
        assert!(!matches!(reply, Reply::Error(_)), "seed {seed}: {reply:?}");
        if let Command::Set(k, v) = cmd {
            acked_sets.push((k, v));
        }
    }

    // The repair: promote the spare by reconfiguring to the `promoted`
    // architecture. The zombie `o` stays in the program, fenced.
    let target = b.clone();
    let policy = RepairPolicy::new().on(
        FailureClass::Partition,
        vec![RepairAction::Reconfigure(Arc::new(move |_rt, _inst| {
            (target.clone(), ReconfigSpec::default())
        }))],
    );
    let sup = rt.supervise(SupervisorConfig {
        poll: Duration::from_millis(10),
        quorum: 2,
        confirm_polls: 2,
        verify_timeout: Duration::from_secs(1),
        policy,
        ..Default::default()
    });

    // Partition the preferred back-end from everyone.
    for (from, to) in O_LINKS {
        rt.set_fault_plan(from, to, FaultPlan::none().with_drop(1.0).with_seed(seed));
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            sup.records().iter().any(|r| r.instance == "o" && r.ok)
        }),
        "seed {seed}: supervisor never repaired the partitioned primary"
    );

    // Post-promotion traffic is served by the promoted spare.
    for cmd in [Command::Set("c".into(), b"3".to_vec()), Command::Get("ctr".into())] {
        let reply = drive(&rt, &requests, &replies, cmd.clone(), Duration::from_secs(8))
            .unwrap_or_else(|| panic!("seed {seed}: post-promotion {cmd:?} refused"));
        if let Command::Set(k, v) = cmd {
            acked_sets.push((k, v));
        } else {
            assert_eq!(reply, Reply::Bulk(b"1".to_vec()), "seed {seed}");
        }
    }

    // Heal the partition and wake the zombie: re-assert its run guard so
    // it replays its last request and tries to ack the front. With the
    // fence up those sends are dead on the wire; without it they land.
    for (from, to) in O_LINKS {
        rt.set_fault_plan(from, to, FaultPlan::none());
    }
    rt.deliver_for_test("o", "junction", csaw::kv::Update::assert("Run[o]", "zombie-driver"));
    let stale_reply_applied = wait_until(Duration::from_millis(400), || {
        rt.peek_prop("f", "junction", "Reply") == Some(true)
    });

    // The healed system still serves (only meaningful with the fence:
    // a landed stale Reply wedges the front's ¬Reply guard).
    let post_heal_reply = if fencing {
        drive(&rt, &requests, &replies, Command::Get("ctr".into()), Duration::from_secs(8))
    } else {
        None
    };

    let repair = sup.records().into_iter().find(|r| r.instance == "o");
    let sems: Vec<ProgramSemantics> = rt
        .epoch_chain()
        .iter()
        .map(|p| denote_program(p, &DenoteConfig::default()))
        .collect();
    sup.stop();
    let fenced_sends = rt.link_stats().fenced;
    let trace = rt.trace_events();
    let trace_dropped = rt.trace_dropped();
    rt.shutdown();

    let lost_acked_sets = acked_sets
        .iter()
        .filter(|(k, v)| {
            store_o.lock().get(k) != Some(v.as_slice())
                && store_s.lock().get(k) != Some(v.as_slice())
        })
        .count();

    Outcome {
        repair,
        stale_reply_applied,
        post_heal_reply,
        lost_acked_sets,
        fenced_sends,
        trace,
        trace_dropped,
        sems,
    }
}

/// The headline test: partition → promote → heal, and the fenced zombie
/// primary cannot ack writes or corrupt the front. The repair is fully
/// recorded, nothing acked is lost, and the whole multi-epoch trace
/// conforms to the event-structure semantics of both programs.
#[test]
fn split_brain_is_prevented_by_the_supervisor_fence() {
    let out = run_split_brain(true, 0);

    let repair = out.repair.expect("a repair record for o");
    assert_eq!(repair.class, FailureClass::Partition);
    assert_eq!(repair.action, "reconfigure");
    assert!(repair.ok, "{repair:?}");
    let epoch = repair.fence_epoch.expect("reconfigure repair carries a fence epoch");
    assert!(epoch >= 1);
    assert!(repair.mttr() > Duration::ZERO);

    assert!(!out.stale_reply_applied, "the zombie's stale Reply must be fenced out");
    assert!(out.fenced_sends >= 1, "the fence must actually have fired");
    assert_eq!(out.lost_acked_sets, 0, "acked writes lost across the repair");
    assert_eq!(
        out.post_heal_reply,
        Some(Reply::Bulk(b"1".to_vec())),
        "post-heal reads must see exactly one INCR application"
    );

    // Cross-epoch conformance: epoch 0 against the supervised program,
    // epoch 1 against the promoted one, plus the repair-event protocol.
    let chain: Vec<Option<&ProgramSemantics>> = out.sems.iter().map(Some).collect();
    assert_eq!(chain.len(), 2, "one reconfiguring repair → a two-epoch chain");
    // `deliver_for_test` injects applies with no matching send, so the
    // send/apply pairing rule is off; everything else is in force.
    let opts = ConformanceOptions { require_send_for_apply: false };
    assert_eq!(out.trace_dropped, 0, "trace evicted records; buffer too small");
    let report = check_trace(&out.trace, &chain, &opts);
    assert!(
        report.ok(),
        "cross-epoch violations:\n{}",
        report
            .violations
            .iter()
            .take(8)
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The ablation that proves the fence is load-bearing: the same
/// scenario with fencing disabled reproduces split-brain — the healed
/// zombie's stale `Reply` lands at the front. (Run with fencing enabled
/// this assertion is exactly the one the test above inverts.)
#[test]
fn split_brain_reproduces_with_fencing_disabled() {
    let out = run_split_brain(false, 0);
    assert!(
        out.stale_reply_applied,
        "without the fence the zombie primary's stale ack must land (split-brain)"
    );
}

/// Property-style loop: 48 seeds of link jitter around the same
/// partition → promotion → heal schedule; in every interleaving the
/// fence holds — zero stale applications, zero lost acked writes.
#[test]
fn split_brain_fence_holds_across_48_seeds() {
    let failures = Arc::new(AtomicU64::new(0));
    for chunk in (0..48u64).collect::<Vec<_>>().chunks(8) {
        std::thread::scope(|scope| {
            for &seed in chunk {
                let failures = Arc::clone(&failures);
                scope.spawn(move || {
                    let out = run_split_brain(true, seed);
                    if out.stale_reply_applied
                        || out.lost_acked_sets != 0
                        || out.fenced_sends == 0
                        || out.repair.as_ref().is_none_or(|r| !r.ok)
                    {
                        eprintln!(
                            "seed {seed}: stale={} lost={} fenced={} repair={:?}",
                            out.stale_reply_applied,
                            out.lost_acked_sets,
                            out.fenced_sends,
                            out.repair
                        );
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    }
    assert_eq!(failures.load(Ordering::Relaxed), 0, "seeds with fence violations");
}
