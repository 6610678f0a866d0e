//! Hot-path cost measurements, each with acceptance gates and an
//! optional re-check against a committed baseline report:
//!
//! * [`batching`] — **sharded capacity and trace saturation.**
//!   1. The paper's Redis is single-threaded, so capacity scales by
//!      running one instance per shard (§10.1). We measure one
//!      instance's q/s (one thread on one `Mutex<Store>` — every
//!      `ServerApp`'s shape), then partition the same workload by djb2
//!      key hash across [`SHARDS`] instances and time each shard
//!      serving its partition *alone*, one after the other. The summed
//!      rates are what those shards would serve on separate machines,
//!      not what this box serves at once. Acceptance wants ≥ 2× the
//!      single instance.
//!   2. [`THREADS`] workers record [`EVENTS`] events into one enabled
//!      tracer as fast as they can — the pure hot path (each thread
//!      pushes onto its own shard's bounded ring). Acceptance wants
//!      < 100 ns/event at saturation. The metric is wall time of the
//!      whole run over total events, so it is the serialized per-event
//!      CPU cost on a single-core box and the aggregate cost under real
//!      parallelism.
//! * [`trace_overhead`] — **what recording costs.**
//!   1. The redis throughput bench (the acceptance criterion): the §10.1
//!      query-rate harness — a mini-redis store serving a 70/30 workload
//!      while C-Saw runs periodic checkpoint coordination. Tracing is
//!      measured disabled (twice — the second run doubles as the noise
//!      floor) and enabled.
//!   2. Coordination saturation (informational worst case): every
//!      request crosses the sharding architecture, so each one generates
//!      ~20 trace events and the per-event cost is fully exposed.
//!
//! They write `results/batching.json` and `results/trace_overhead.json`.

use std::time::{Duration, Instant};

use csaw_runtime::trace::{TraceKind, Tracer};
use mini_redis::apps::ShardMode;
use mini_redis::hash::shard_of;
use mini_redis::workload::{Workload, WorkloadSpec};
use mini_redis::{Command, Store};
use parking_lot::Mutex;

use crate::harness::{boot_redis_checkpoint, boot_sharded, Sharded};
use crate::report::{check_baseline, Outcome, Report};

/// Trace-recording worker threads in [`batching`].
pub const THREADS: usize = 4;
/// Shard instances in [`batching`]'s summed capacity.
pub const SHARDS: usize = 4;
/// Total events in [`batching`]'s trace bench.
pub const EVENTS: usize = 4_000_000;
/// Seconds per query-rate run in [`trace_overhead`].
pub const QUERY_RATE_SECONDS: f64 = 2.0;
/// Requests per coordination-saturation run in [`trace_overhead`].
pub const SATURATION_REQUESTS: usize = 20_000;

fn workload() -> Workload {
    Workload::new(WorkloadSpec {
        keyspace: 4000,
        read_ratio: 0.7,
        value_size: 128,
        ..Default::default()
    })
}

/// Pre-load the 4000-key keyspace so GETs hit.
fn preload(store: &mut Store) {
    for i in 0..4000 {
        store.set(&format!("key:{i}"), vec![0xAB; 128]);
    }
}

fn preloaded() -> Mutex<Store> {
    let mut store = Store::new();
    preload(&mut store);
    Mutex::new(store)
}

// ---------------------------------------------------------------------
// batching: single instance vs shards timed alone, trace saturation
// ---------------------------------------------------------------------

/// One single-threaded instance: q/s of one thread driving the mixed
/// workload through a `Mutex<Store>` (lock cost included — this is the
/// shape `ServerApp` serves requests in).
fn single_instance_qps(secs: f64) -> f64 {
    let store = preloaded();
    let mut wl = workload();
    let mut n = 0u64;
    let start = Instant::now();
    let total = Duration::from_secs_f64(secs);
    while start.elapsed() < total {
        for _ in 0..64 {
            let _ = wl.next().execute(&mut store.lock());
            n += 1;
        }
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Partition a pre-generated command stream by djb2 key hash across
/// `n` instances, time each instance serving its partition at full
/// rate on its own, and sum the rates.
fn shards_alone_summed_qps(n: usize, secs: f64) -> f64 {
    let mut wl = workload();
    let mut partitions: Vec<Vec<Command>> = (0..n).map(|_| Vec::new()).collect();
    for _ in 0..200_000 {
        let cmd = wl.next();
        let shard = cmd.key().map_or(0, |k| shard_of(k, n));
        partitions[shard].push(cmd);
    }
    let per_shard_secs = secs / n as f64;
    let mut aggregate = 0.0;
    for part in partitions {
        let store = preloaded();
        let mut served = 0u64;
        let start = Instant::now();
        let total = Duration::from_secs_f64(per_shard_secs);
        'outer: while start.elapsed() < total {
            for cmd in &part {
                let _ = cmd.execute(&mut store.lock());
                served += 1;
                if served.is_multiple_of(4096) && start.elapsed() >= total {
                    break 'outer;
                }
            }
        }
        aggregate += served as f64 / start.elapsed().as_secs_f64();
    }
    aggregate
}

/// `threads` workers split `total_events` recordings into one enabled
/// tracer with static identity texts (the record sites' shape).
/// Returns wall ns/event, the best of three timed passes.
fn trace_saturation(threads: usize, total_events: usize) -> f64 {
    let tracer = Tracer::with_capacity(1 << 20);
    tracer.set_enabled(true);
    let tracer = &tracer;
    let per_thread = total_events / threads;
    let record_all = |timed: bool| -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        tracer.record("Prim", "checkpoint", i as u64, TraceKind::Sched);
                    }
                });
            }
        });
        if timed {
            start.elapsed().as_nanos() as f64 / (per_thread * threads) as f64
        } else {
            0.0
        }
    };
    // Warm-up: one untimed pass. Every pass spawns fresh threads, which
    // the round-robin shard index spreads over the shards; a thread on a
    // shard that is still empty grows its ring for its first 65 536
    // records (at most 1/16 of the ≥ 1 M a thread makes per pass), and
    // from there each record evicts one event and allocates nothing.
    // That wrapped ring is the regime a saturated tracer operates in.
    record_all(false);
    // Best of three, no drain in between (a drain would empty the ring
    // and put the next rep back into growth mode). On a shared box the
    // minimum is the estimate least polluted by scheduling noise.
    (0..3).map(|_| record_all(true)).fold(f64::INFINITY, f64::min)
}

/// Print one acceptance gate and record it in `out` when it fails.
fn gate(out: &mut Outcome, name: &str, ok: bool, detail: String) {
    println!("  [{}] {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        out.failures.push(format!("{name}: {detail}"));
    }
}

/// The batching bench: `secs` per throughput run; with `baseline`,
/// re-check four metrics against that report.
pub fn batching(secs: f64, baseline: Option<&str>) -> Outcome {
    let _ = single_instance_qps(secs / 4.0); // warm-up
    let single_qps = single_instance_qps(secs);
    let aggregate_qps = shards_alone_summed_qps(SHARDS, secs);
    let ratio = aggregate_qps / single_qps;
    println!("redis instance capacity (single-threaded servers):");
    println!("  one instance:              {single_qps:>12.0} q/s");
    println!("  {SHARDS} shards, timed alone, summed: {aggregate_qps:>12.0} q/s  ({ratio:.2}x)");

    let ns_multi = trace_saturation(THREADS, EVENTS);
    let ns_single = trace_saturation(1, EVENTS);
    println!("trace hot path:");
    println!(
        "  {EVENTS} events over {THREADS} threads: {ns_multi:.1} ns/event (1 thread: {ns_single:.1})"
    );

    let mut r = Report::new("batching", "Hot-path batching");
    r.note("threads", THREADS as f64);
    r.note("secs_per_run", secs);
    r.note("redis_single_qps", single_qps);
    r.note("redis_shards", SHARDS as f64);
    r.note("redis_sharded_aggregate_qps", aggregate_qps);
    r.note("sharded_over_single", ratio);
    r.note("trace_events", EVENTS as f64);
    r.note("trace_ns_per_event_saturated", ns_multi);
    r.note("trace_ns_per_event_single_thread", ns_single);
    r.remark(
        "acceptance: sharded aggregate >= 2x the single-instance baseline; \
         trace hot path < 100 ns/event at saturation",
    );
    r.remark(
        "redis_sharded_aggregate_qps sums shards timed one after the other, \
         each alone on the box: a per-shard capacity, not concurrent throughput",
    );

    let mut out = Outcome::default();
    println!("acceptance gates:");
    gate(&mut out, "sharded aggregate >= 2x single", ratio >= 2.0, format!("{ratio:.2}x"));
    gate(&mut out, "trace < 100 ns/event", ns_multi < 100.0, format!("{ns_multi:.1} ns/event"));
    if let Some(path) = baseline {
        out.failures.extend(check_baseline(
            &r,
            path,
            &[
                ("redis_single_qps", true),
                ("redis_sharded_aggregate_qps", true),
                ("sharded_over_single", true),
                ("trace_ns_per_event_saturated", false),
            ],
        ));
    }
    out.reports.push(r);
    out
}

// ---------------------------------------------------------------------
// trace_overhead: recording on vs off
// ---------------------------------------------------------------------

/// The redis throughput bench (fig. 23a harness without the crash):
/// queries execute against the store while the checkpoint architecture
/// coordinates at a fixed cadence. Returns (queries/s, trace events).
fn query_rate_once(tracing: bool, seconds: f64) -> (f64, usize) {
    let (rt, store) = boot_redis_checkpoint(Duration::from_secs_f64(seconds / 8.0), tracing);

    preload(&mut store.lock());
    let mut wl = workload();
    let mut queries = 0u64;
    let start = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    while start.elapsed() < total {
        let cmd = wl.next();
        let _ = cmd.execute(&mut store.lock());
        queries += 1;
    }
    let rate = queries as f64 / start.elapsed().as_secs_f64();
    let events = rt.trace_events().len();
    rt.shutdown();
    (rate, events)
}

/// Worst case: drive `requests` workload commands through the sharding
/// architecture, so every request is pure C-Saw coordination. Returns
/// (requests/s, trace events).
fn saturation_once(tracing: bool, requests: usize) -> (f64, usize) {
    let Sharded { rt, requests: queue, .. } =
        boot_sharded(4, ShardMode::ByKey, tracing, Duration::from_secs(10));

    let mut wl = workload();
    let start = Instant::now();
    for _ in 0..requests {
        queue.lock().push_back(wl.next());
        let _ = rt.invoke("Fnt", "junction");
    }
    let rate = requests as f64 / start.elapsed().as_secs_f64();
    let events = rt.trace_events().len();
    rt.shutdown();
    (rate, events)
}

/// off/off/on measurement of one harness; returns
/// (off mean, on, noise %, overhead %, traced events).
fn measure<F: Fn(bool) -> (f64, usize)>(run: F) -> (f64, f64, f64, f64, usize) {
    let (off_a, _) = run(false);
    let (off_b, _) = run(false);
    let (on, events) = run(true);
    let off = (off_a + off_b) / 2.0;
    let noise = (off_a - off_b).abs() / off * 100.0;
    let overhead = (off - on) / off * 100.0;
    (off, on, noise, overhead, events)
}

/// The trace-overhead bench; with `baseline`, re-check four metrics
/// against that report.
pub fn trace_overhead(baseline: Option<&str>) -> Outcome {
    let requests = SATURATION_REQUESTS;
    // Warm-up (thread pools, allocator).
    let _ = saturation_once(false, requests / 10);

    let (q_off, q_on, q_noise, q_over, q_events) =
        measure(|t| query_rate_once(t, QUERY_RATE_SECONDS));
    println!("redis throughput bench (checkpointed query rate):");
    println!("  off {q_off:.0} q/s, on {q_on:.0} q/s (noise {q_noise:.1}%)");
    println!("  enabled overhead: {q_over:.1}%  ({q_events} events recorded)");

    let (s_off, s_on, s_noise, s_over, s_events) = measure(|t| saturation_once(t, requests));
    let ns_per_event = if s_events > 0 {
        (1.0 / s_on - 1.0 / s_off) * requests as f64 / s_events as f64 * 1e9
    } else {
        0.0
    };
    println!("coordination saturation (every request through the sharded architecture):");
    println!("  off {s_off:.0} req/s, on {s_on:.0} req/s (noise {s_noise:.1}%)");
    println!(
        "  enabled overhead: {s_over:.1}%  ({s_events} events, ~{:.0} events/request, ~{ns_per_event:.0} ns/event)",
        s_events as f64 / requests as f64
    );

    let mut r = Report::new("trace_overhead", "Trace layer overhead");
    r.note("query_rate_off", q_off);
    r.note("query_rate_on", q_on);
    r.note("query_rate_noise_pct", q_noise);
    r.note("query_rate_overhead_pct", q_over);
    r.note("query_rate_trace_events", q_events as f64);
    r.note("saturation_requests", requests as f64);
    r.note("saturation_off", s_off);
    r.note("saturation_on", s_on);
    r.note("saturation_noise_pct", s_noise);
    r.note("saturation_overhead_pct", s_over);
    r.note("saturation_trace_events", s_events as f64);
    r.note("saturation_ns_per_event", ns_per_event);
    r.remark(
        "acceptance: redis throughput bench overhead <10% enabled, ~0% disabled; \
         the saturation number is the worst case (every request is pure coordination)",
    );

    let mut out = Outcome::default();
    if let Some(path) = baseline {
        out.failures = check_baseline(
            &r,
            path,
            &[
                ("query_rate_off", true),
                ("query_rate_on", true),
                ("saturation_on", true),
                ("saturation_ns_per_event", false),
            ],
        );
    }
    out.reports.push(r);
    out
}
