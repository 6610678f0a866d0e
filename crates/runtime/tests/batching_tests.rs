//! Property sweeps for the transport's send path, 48 consecutive seeds
//! per property (base honors `CSAW_SEED`): mixed `send` / `send_batch`
//! traffic under seeded chaos must preserve per-link FIFO and
//! at-most-once delivery, the retry loop must deliver exactly once over
//! lossy links, and deterministic simulation must stay byte-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use csaw_core::builder::fig3_program;
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_kv::{Update, UpdateKind};
use csaw_runtime::cell::JunctionId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use csaw_runtime::transport::{DeliverFn, Network};
use csaw_runtime::{
    env_seed, Clock, FaultPlan, HostCtx, InstanceApp, Metrics, RetryPolicy, Runtime,
    RuntimeConfig, SimConfig, SimExecutor, Tracer,
};

const SWEEP: u64 = 48;

/// A network delivering into a channel, so a test observes arrival
/// order across `send` and `send_batch` traffic.
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

/// Send `0..total` as a seed-dependent mix of single sends and batches
/// of widths 1..=7, so every sweep exercises both paths and their
/// interleaving at different boundaries.
fn send_mixed(net: &Network, to: &JunctionId, total: i64, seed: u64) {
    let mut i = 0i64;
    let mut width = (seed % 7) as i64 + 1;
    while i < total {
        let n = width.min(total - i);
        if n == 1 {
            net.send("f", to, upd(i)).unwrap();
        } else {
            let sent = net.send_batch("f", to, (i..i + n).map(upd).collect()).unwrap();
            assert_eq!(sent, n as usize);
        }
        i += n;
        width = width % 7 + 1;
    }
}

/// Duplication chaos: receiver dedup must suppress every injected
/// duplicate, and the surviving stream must be the sent sequence in
/// exact FIFO order — batched and singular sends alike.
#[test]
fn sweep_batched_fifo_and_dedup_under_duplication() {
    let base = env_seed(2000);
    let mut dups_total = 0u64;
    for seed in base..base + SWEEP {
        let (net, rx) = collecting_network();
        net.set_fault_plan("f", "g", FaultPlan::none().with_dup(0.4).with_seed(seed));
        let to = JunctionId::new("g", "junction");
        send_mixed(&net, &to, 90, seed);
        let stats = net.stats();
        dups_total += stats.dups;
        assert!(
            stats.deduped >= stats.dups,
            "seed {seed}: {} dups injected but only {} deduped",
            stats.dups,
            stats.deduped
        );
        drop(net);
        let got: Vec<i64> = rx.iter().collect();
        let expect: Vec<i64> = (0..90).collect();
        assert_eq!(got, expect, "seed {seed}: batched FIFO / at-most-once violated");
    }
    assert!(dups_total > 0, "sweep never injected a duplicate — chaos is vacuous");
}

/// Reordering chaos delays random messages: arrival order may legally
/// differ, but every message must arrive exactly once (no loss from
/// the delay queue, no double delivery).
#[test]
fn sweep_exactly_once_under_reordering() {
    let base = env_seed(3000);
    for seed in base..base + SWEEP {
        let (net, rx) = collecting_network();
        net.set_fault_plan(
            "f",
            "g",
            FaultPlan::none().with_reorder(0.35, Duration::from_millis(3)).with_seed(seed),
        );
        let to = JunctionId::new("g", "junction");
        send_mixed(&net, &to, 60, seed);
        let mut got = Vec::new();
        while got.len() < 60 {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(i) => got.push(i),
                Err(_) => break,
            }
        }
        // Nothing extra dribbles in after the full count.
        assert!(rx.recv_timeout(Duration::from_millis(20)).is_err());
        got.sort_unstable();
        let expect: Vec<i64> = (0..60).collect();
        assert_eq!(got, expect, "seed {seed}: reordering lost or duplicated a message");
    }
}

/// Lossy link with retries on: every message is eventually delivered
/// exactly once and in order (sends are synchronous, so the retry loop
/// preserves FIFO), across both send paths.
#[test]
fn sweep_exactly_once_over_lossy_link_with_retry() {
    let base = env_seed(4000);
    let mut retries_total = 0u64;
    for seed in base..base + SWEEP {
        let (net, rx) = collecting_network();
        net.set_retry_policy(RetryPolicy {
            enabled: true,
            max_retries: 12,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
        });
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(0.25).with_seed(seed));
        let to = JunctionId::new("g", "junction");
        send_mixed(&net, &to, 40, seed);
        retries_total += net.stats().retries;
        drop(net);
        let got: Vec<i64> = rx.iter().collect();
        let expect: Vec<i64> = (0..40).collect();
        assert_eq!(got, expect, "seed {seed}: retry path lost, duplicated or reordered");
    }
    assert!(retries_total > 0, "sweep never exercised the retry loop — chaos is vacuous");
}

/// The seeded fault schedule must be a pure function of the seed for
/// batched traffic too: two identical runs deliver identical streams
/// and identical link statistics.
#[test]
fn sweep_fault_schedule_deterministic_for_batches() {
    let base = env_seed(5000);
    for seed in base..base + SWEEP {
        let run = || {
            let (net, rx) = collecting_network();
            net.set_retry_policy(RetryPolicy::disabled());
            net.set_fault_plan(
                "f",
                "g",
                FaultPlan::none().with_drop(0.2).with_dup(0.2).with_seed(seed),
            );
            let to = JunctionId::new("g", "junction");
            let mut outcomes = Vec::new();
            let mut i = 0i64;
            while i < 60 {
                let n = (i % 5) + 1;
                let r = net.send_batch("f", &to, (i..i + n).map(upd).collect());
                outcomes.push(r.is_ok());
                i += n;
            }
            let (dropped, dups) = {
                let s = net.stats();
                (s.drops, s.dups)
            };
            drop(net);
            let got: Vec<i64> = rx.iter().collect();
            (outcomes, got, dropped, dups)
        };
        assert_eq!(run(), run(), "seed {seed}: batched fault schedule not deterministic");
    }
}

/// Two threads send on one route while a third installs and clears a
/// jitter + duplication plan: the route keeps leaving and re-entering
/// the synchronous fast path under traffic. Each thread's updates must
/// still land in the order it sent them, each exactly once. A fast-path
/// send may only overtake the delay queue once its backlog has been
/// handed over; the receiver is slow on every thread but the senders,
/// so a backlog counted as drained before its last packet is recorded
/// shows as an inversion.
#[test]
fn sweep_plain_route_race_keeps_per_thread_fifo_and_exactly_once() {
    const PER_THREAD: i64 = 60;
    thread_local!(static SENDER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
    let base = env_seed(7000);
    let mut dups_total = 0u64;
    for seed in base..base + SWEEP {
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let record: DeliverFn = Arc::new(move |_to: &JunctionId, u: Update| {
            if !SENDER.get() {
                std::thread::sleep(Duration::from_micros(50));
            }
            if let UpdateKind::Data(Value::Int(i)) = u.kind {
                sink.lock().unwrap().push(i);
            }
        });
        let net = Network::with_telemetry(
            record,
            Arc::new(Tracer::new()),
            &Metrics::new(),
            Clock::wall(),
        );
        let to = JunctionId::new("g", "junction");
        let sending = AtomicUsize::new(2);
        std::thread::scope(|s| {
            for t in 0..2i64 {
                let (net, to, sending) = (&net, &to, &sending);
                s.spawn(move || {
                    SENDER.set(true);
                    for i in 0..PER_THREAD {
                        net.send("f", to, upd(t * 1_000_000 + i)).unwrap();
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    sending.fetch_sub(1, Ordering::Relaxed);
                });
            }
            let mut rng = StdRng::seed_from_u64(seed);
            while sending.load(Ordering::Relaxed) > 0 {
                let plan = FaultPlan::none()
                    .with_jitter(Duration::from_micros(200))
                    .with_dup(0.3)
                    .with_seed(rng.gen());
                net.set_fault_plan("f", "g", plan);
                std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
                net.clear_fault_plan("f", "g");
                std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.lock().unwrap().len() < 2 * PER_THREAD as usize && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        let stats = net.stats();
        dups_total += stats.dups;
        assert!(
            stats.deduped >= stats.dups,
            "seed {seed}: {} dups injected but only {} deduped",
            stats.dups,
            stats.deduped
        );
        let got = got.lock().unwrap().clone();
        for t in 0..2 {
            let mine: Vec<i64> = got.iter().filter(|&&i| i / 1_000_000 == t).copied().collect();
            let expect: Vec<i64> = (0..PER_THREAD).map(|i| t * 1_000_000 + i).collect();
            assert_eq!(mine, expect, "seed {seed}: thread {t}'s FIFO / exactly-once violated");
        }
    }
    assert!(dups_total > 0, "sweep never injected a duplicate — chaos is vacuous");
}

/// An app that serves canned save values (fig. 3 needs `save`/`restore`
/// plus two host calls; their effects are irrelevant here).
struct CannedApp;

impl InstanceApp for CannedApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::from(vec![1, 2, 3]))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// Deterministic simulation stays deterministic with batching active:
/// the same seed drives byte-identical schedules *and* byte-identical
/// traces (virtual timestamps, gsn order) across fresh runtimes.
#[test]
fn sim_determinism_sweep_with_batching() {
    let base = env_seed(6000);
    let cp = csaw_core::compile(fig3_program(), &LoadConfig::new()).unwrap();
    let mut traced_seeds = 0usize;
    for seed in base..base + 8 {
        let run = |seed: u64| {
            let clock = Clock::simulated();
            let rt = Runtime::new(
                &cp,
                RuntimeConfig { clock: clock.clone(), ..RuntimeConfig::default() },
            );
            rt.set_tracing(true);
            rt.bind_app("f", Box::new(CannedApp));
            rt.bind_app("g", Box::new(CannedApp));
            rt.run_main(vec![]).unwrap();
            let exec = SimExecutor::new(SimConfig {
                seed,
                max_steps: 2000,
                horizon: Duration::from_secs(2),
                max_nested: 4,
            });
            let out = exec.explore(&rt);
            let trace = rt.trace_jsonl();
            rt.shutdown();
            (out.steps, trace)
        };
        let (steps_a, trace_a) = run(seed);
        let (steps_b, trace_b) = run(seed);
        assert_eq!(steps_a, steps_b, "seed {seed}: sim schedules diverged under batching");
        assert_eq!(trace_a, trace_b, "seed {seed}: sim traces diverged under batching");
        if !trace_a.is_empty() {
            traced_seeds += 1;
        }
    }
    // Individual walks may halt before scheduling anything; the sweep
    // as a whole must still compare real traces, not empty strings.
    assert!(traced_seeds >= 4, "only {traced_seeds}/8 sim runs recorded any trace events");
}
