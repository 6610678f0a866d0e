//! Property sweeps for the transport's send path, 48 consecutive seeds
//! per property (base honors `CSAW_SEED`): mixed `send` / `send_batch`
//! traffic under seeded chaos must preserve per-link FIFO and
//! at-most-once delivery, the retry loop must deliver exactly once over
//! lossy links, and deterministic simulation must stay byte-identical.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use csaw_core::builder::fig3_program;
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_kv::{Update, UpdateKind};
use csaw_runtime::cell::JunctionId;
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
