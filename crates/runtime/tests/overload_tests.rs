//! 48-seed property sweeps for the overload-control layer: shedding
//! (deadline expiry, mailbox bounds) must interact soundly with the
//! per-link seq/dedup reliability machinery. A shed-then-retried
//! request is never double-applied, never falsely deduped — including
//! across a route-generation bump — and a copy shed at admit never
//! poisons the receiver's dedup memory.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use csaw_core::value::Value;
use csaw_kv::{Update, UpdateKind};
use csaw_runtime::cell::JunctionId;
use csaw_runtime::transport::{DeliverFn, Network, SendError};
use csaw_runtime::{
    env_seed, Clock, FaultPlan, LinkKind, Metrics, OverloadConfig, RetryBudgetPolicy, RetryPolicy,
    Tracer,
};

const SWEEP: u64 = 48;

fn collecting_network() -> (Network, mpsc::Receiver<i64>) {
    let (tx, rx) = mpsc::channel();
    let one: DeliverFn = Arc::new(move |_to: &JunctionId, u: Update| {
        if let UpdateKind::Data(Value::Int(i)) = u.kind {
            tx.send(i).ok();
        }
    });
    let net =
        Network::with_telemetry(one, Arc::new(Tracer::new()), &Metrics::new(), Clock::wall());
    (net, rx)
}

fn upd(i: i64) -> Update {
    Update::data("n", Value::Int(i), "f::j")
}

/// Drain `rx` into per-value counts: block until at least `must`
/// deliveries have landed (bounded by a 5 s safety cap), then keep
/// collecting until the link has been idle for `idle`.
fn drain(rx: &mpsc::Receiver<i64>, must: usize, idle: Duration) -> std::collections::HashMap<i64, usize> {
    let mut counts = std::collections::HashMap::new();
    let mut got = 0usize;
    let cap = Instant::now() + Duration::from_secs(5);
    while got < must && Instant::now() < cap {
        if let Ok(v) = rx.recv_timeout(Duration::from_millis(100)) {
            *counts.entry(v).or_insert(0) += 1;
            got += 1;
        }
    }
    while let Ok(v) = rx.recv_timeout(idle) {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
}

/// Lossy link + deadline shedding + transport retry: an update whose
/// deadline expires is shed (fatally), the app retries it under a fresh
/// deadline, and the reliability layer must deliver every
/// acked-or-retried value exactly once — sheds never surface as loss or
/// duplication.
#[test]
fn sweep_shed_then_retried_is_exactly_once_under_loss() {
    let base = env_seed(8000);
    let mut sheds_total = 0u64;
    for seed in base..base + SWEEP {
        let (net, rx) = collecting_network();
        // ~0.9 ms serialization per update + 2 ms latency: a back-to-
        // back burst builds a queue that outlives an 8 ms budget.
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(2), bandwidth: 40_000 },
        );
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(0.15).with_seed(seed));
        net.set_retry_policy(RetryPolicy {
            enabled: true,
            max_retries: 12,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
        });
        net.set_overload(OverloadConfig { shed_expired: true, ..Default::default() });
        let to = JunctionId::new("g", "junction");

        let mut must_once: Vec<i64> = Vec::new(); // delivered exactly once
        let mut may_once: Vec<i64> = Vec::new(); // admitted with a tight budget
        for i in 0..24i64 {
            let tight = (seed + i as u64).is_multiple_of(3);
            let deadline = if tight {
                Instant::now() + Duration::from_millis(8)
            } else {
                Instant::now() + Duration::from_secs(5)
            };
            match net.send_with_deadline("f", &to, upd(i), Some(deadline)) {
                Ok(()) if tight => may_once.push(i),
                Ok(()) => must_once.push(i),
                Err(SendError::DeadlineExpired) | Err(SendError::LinkDropped) => {
                    // App-level retry of the shed/lost request, now
                    // with a fresh generous budget: a new transport
                    // send (new seq) that must not be swallowed by
                    // dedup state left behind by the shed one.
                    net.send_with_deadline(
                        "f",
                        &to,
                        upd(i),
                        Some(Instant::now() + Duration::from_secs(5)),
                    )
                    .expect("retry with generous budget");
                    must_once.push(i);
                }
                Err(e) => panic!("seed {seed}: unexpected send error {e}"),
            }
        }
        let counts = drain(&rx, must_once.len(), Duration::from_millis(150));
        for i in &must_once {
            assert_eq!(
                counts.get(i).copied().unwrap_or(0),
                1,
                "seed {seed}: value {i} (acked or retried) must apply exactly once"
            );
        }
        for i in &may_once {
            assert!(
                counts.get(i).copied().unwrap_or(0) <= 1,
                "seed {seed}: tight-budget value {i} double-applied"
            );
        }
        sheds_total += net.stats().shed;
    }
    assert!(sheds_total > 0, "sweep never shed anything — overload chaos is vacuous");
}

/// Duplication chaos with shedding, then a route-generation bump: dedup
/// must keep suppressing injected duplicates while sheds interleave,
/// and after `reset_route` no fresh send may be falsely deduped against
/// pre-bump state.
#[test]
fn sweep_dedup_sound_across_sheds_and_generation_bump() {
    let base = env_seed(9000);
    let mut sheds_total = 0u64;
    let mut dups_total = 0u64;
    for seed in base..base + SWEEP {
        let (net, rx) = collecting_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(2), bandwidth: 40_000 },
        );
        net.set_fault_plan("f", "g", FaultPlan::none().with_dup(0.3).with_seed(seed));
        net.set_overload(OverloadConfig { shed_expired: true, ..Default::default() });
        let to = JunctionId::new("g", "junction");

        // Phase A: mixed budgets under duplication.
        let mut must_once: Vec<i64> = Vec::new();
        let mut may_once: Vec<i64> = Vec::new();
        for i in 0..24i64 {
            let tight = (seed + i as u64).is_multiple_of(3);
            let deadline = if tight {
                Instant::now() + Duration::from_millis(8)
            } else {
                Instant::now() + Duration::from_secs(5)
            };
            match net.send_with_deadline("f", &to, upd(i), Some(deadline)) {
                Ok(()) if tight => may_once.push(i),
                Ok(()) => must_once.push(i),
                Err(SendError::DeadlineExpired) => {
                    net.send_with_deadline(
                        "f",
                        &to,
                        upd(i),
                        Some(Instant::now() + Duration::from_secs(5)),
                    )
                    .expect("retry with generous budget");
                    must_once.push(i);
                }
                Err(e) => panic!("seed {seed}: unexpected send error {e}"),
            }
        }
        let counts_a = drain(&rx, must_once.len(), Duration::from_millis(150));
        for i in &must_once {
            assert_eq!(
                counts_a.get(i).copied().unwrap_or(0),
                1,
                "seed {seed}: phase A value {i} must apply exactly once"
            );
        }
        for (i, c) in &counts_a {
            assert!(*c <= 1, "seed {seed}: value {i} applied {c} times despite dedup");
        }

        // Phase B: generation bump, clean link. Fresh sends restart the
        // counter under a new generation — pre-bump dedup state (which
        // saw the same low counters) must not swallow any of them.
        net.reset_route("f", "g");
        net.set_fault_plan("f", "g", FaultPlan::none());
        for i in 100..112i64 {
            net.send("f", &to, upd(i)).unwrap();
        }
        let counts_b = drain(&rx, 12, Duration::from_millis(150));
        for i in 100..112i64 {
            assert_eq!(
                counts_b.get(&i).copied().unwrap_or(0),
                1,
                "seed {seed}: post-bump value {i} falsely deduped or duplicated"
            );
        }
        sheds_total += net.stats().shed;
        dups_total += net.stats().dups;
    }
    assert!(sheds_total > 0, "sweep never shed — overload chaos is vacuous");
    assert!(dups_total > 0, "sweep never duplicated — dup chaos is vacuous");
}

/// A copy shed by the mailbox bound at admit is deliberately *not*
/// recorded in the receiver's dedup memory: it never applied, so a
/// surviving duplicate of the same seq must still be delivered.
/// Marking sheds as seen would silently lose an acked send.
#[test]
fn mailbox_shed_at_admit_never_poisons_dedup_memory() {
    let (net, rx) = collecting_network();
    net.set_retry_policy(RetryPolicy::disabled());
    net.set_link(
        "f",
        "g",
        LinkKind::Sim { latency: Duration::from_millis(25), bandwidth: 0 },
    );
    net.set_fault_plan("f", "g", FaultPlan::none().with_dup(1.0).with_seed(1));
    // Probe script: call 1 is the send-side gate (mailbox empty ⇒
    // admit the send); call 2 is the first arriving copy (full ⇒
    // shed); later calls see it drained again.
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    net.set_mailbox_probe(Arc::new(move |_to: &JunctionId| {
        match calls2.fetch_add(1, Ordering::SeqCst) {
            0 => Some(0),
            1 => Some(64),
            _ => Some(0),
        }
    }));
    net.set_overload(OverloadConfig { mailbox_bound: 8, ..Default::default() });
    let to = JunctionId::new("g", "junction");
    net.send("f", &to, upd(7)).unwrap();
    let got = rx.recv_timeout(Duration::from_secs(2)).expect("surviving copy must deliver");
    assert_eq!(got, 7);
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "only one copy may apply"
    );
    let s = net.stats();
    assert_eq!(s.shed, 1, "first copy must be shed by the mailbox bound");
    assert_eq!(s.deduped, 0, "the shed copy must not poison dedup memory");
    assert!(calls.load(Ordering::SeqCst) >= 3, "probe must be consulted at admit");
}

/// `LinkStats` / `OverloadStats` and the Prometheus rendering are one
/// set of counters: after a seeded chaos run that moves every one of
/// them (drops, dups, a partition window, a fenced sender, a queue
/// bound, an expired deadline, an exhausted retry budget), each stats
/// field equals its `csaw_link_*_total` line. Regression: send-side
/// fence rejections used to bump `LinkStats.fenced` but never
/// `link_fenced_total`.
#[test]
fn link_stats_equal_their_prometheus_lines() {
    let one: DeliverFn = Arc::new(|_to: &JunctionId, _u: Update| {});
    let metrics = Metrics::new();
    let net = Network::with_telemetry(one, Arc::new(Tracer::new()), &metrics, Clock::wall());
    let to = JunctionId::new("g", "junction");
    let fast_retry = RetryPolicy {
        enabled: true,
        max_retries: 12,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(4),
    };

    // Drops, dups (→ dedup), a partition window, retries.
    net.set_retry_policy(fast_retry);
    net.set_fault_plan(
        "f",
        "g",
        FaultPlan::none()
            .with_drop(0.2)
            .with_dup(0.3)
            .with_outage(Duration::ZERO, Duration::from_millis(3))
            .with_seed(env_seed(9000)),
    );
    for i in 0..120 {
        let _ = net.send("f", &to, upd(i));
    }
    // A fenced sender: rejected at send, and — for the send already in
    // flight when the fence lands — again at delivery.
    net.set_link("y", "g", LinkKind::Sim { latency: Duration::from_millis(20), bandwidth: 0 });
    let from_y = |i| Update::data("n", Value::Int(i), "y::j");
    net.send("y", &to, from_y(0)).unwrap();
    net.fence_instance("y");
    assert_eq!(net.send("y", &to, from_y(1)), Err(SendError::Fenced));
    // An exhausted retry budget on an always-dropping link.
    net.set_fault_plan("b", "g", FaultPlan::none().with_drop(1.0).with_seed(1));
    net.set_retry_budget(RetryBudgetPolicy {
        enabled: true,
        initial_milli: 1000,
        per_send_milli: 0,
        cap_milli: 1000,
    });
    assert_eq!(net.send("b", &to, upd(0)), Err(SendError::LinkDropped));
    // A queue bound and an expired deadline.
    net.set_retry_policy(RetryPolicy::disabled());
    net.set_link("q", "g", LinkKind::Sim { latency: Duration::from_millis(20), bandwidth: 0 });
    net.set_overload(OverloadConfig { outbox_bound: 1, shed_expired: true, ..Default::default() });
    net.send("q", &to, upd(0)).unwrap();
    assert_eq!(net.send("q", &to, upd(1)), Err(SendError::QueueFull));
    let past = Instant::now();
    std::thread::sleep(Duration::from_millis(1));
    assert_eq!(
        net.send_with_deadline("d", &to, upd(0), Some(past)),
        Err(SendError::DeadlineExpired)
    );
    // Let the delayed packets land (the fenced one must be rejected).
    std::thread::sleep(Duration::from_millis(60));

    let s = net.stats();
    let o = net.overload_stats();
    let text = metrics.render_prometheus();
    let line = |name: &str| -> u64 {
        let prefix = format!("csaw_{name} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("no {name} line in:\n{text}"))
            .parse()
            .unwrap()
    };
    let pairs = [
        ("link_fenced_total", s.fenced),
        ("link_send_total", s.msgs_sent),
        ("link_bytes_total", s.bytes_sent),
        ("link_drop_total", s.drops),
        ("link_dup_total", s.dups),
        ("link_partition_total", s.partitioned),
        ("link_retry_total", s.retries),
        ("link_dedup_total", s.deduped),
        ("link_direct_fast_total", s.fast_path),
        ("link_shed_total", s.shed),
        ("link_queue_full_total", s.queue_full),
        ("link_deadline_expired_total", s.deadline_expired),
        ("link_retries_suppressed_total", s.retries_suppressed),
    ];
    for (name, stat) in pairs {
        assert!(stat > 0, "{name}: the run never moved this counter — parity is vacuous");
        assert_eq!(line(name), stat, "{name} disagrees with its stats field");
    }
    assert_eq!(s.fenced, 2, "one send-side and one delivery-side fence rejection");
    assert_eq!(
        (o.shed, o.queue_full, o.deadline_expired, o.retries_suppressed),
        (s.shed, s.queue_full, s.deadline_expired, s.retries_suppressed)
    );
}
