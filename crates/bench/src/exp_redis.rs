//! Redis experiments: Figs. 23a/23b/23c (behaviour) and 25c/26b/26c
//! (overhead) of §10.

use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_arch::caching::{caching, CachingSpec};
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_kv::Update;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{Runtime, RuntimeConfig};
use mini_redis::apps::{CacheApp, ServerApp, ShardMode};
use mini_redis::hash::shard_of;
use mini_redis::metrics::{CumulativeByClass, Latencies, Throughput};
use mini_redis::workload::{KeyDist, Workload, WorkloadSpec};
use mini_redis::{Command, Store};
use parking_lot::Mutex;

use crate::harness::{boot_redis_checkpoint, boot_sharded, Sharded};
use crate::report::Report;

fn preload(store: &Arc<Mutex<Store>>, keys: usize, value_size: usize) {
    let mut s = store.lock();
    for i in 0..keys {
        s.set(&format!("key:{i}"), vec![0xAB; value_size]);
    }
}

// ---------------------------------------------------------------------
// Fig. 23a — response of query rate to checkpoints (+ crash recovery)
// ---------------------------------------------------------------------

/// "In this experiment we carry out checkpoints at 15-second intervals
/// and simulate a Redis crash to observe its recovery" (§10.1), with
/// time compressed: checkpoints every `seconds/8`, crash at 55%.
pub fn fig23a(seconds: f64) -> Report {
    let interval = Duration::from_secs_f64(seconds / 8.0);
    let (rt, store) = boot_redis_checkpoint(interval, false);

    preload(&store, 20_000, 128);
    let mut wl = Workload::new(WorkloadSpec {
        keyspace: 20_000,
        read_ratio: 0.7,
        value_size: 128,
        ..Default::default()
    });
    let mut tp = Throughput::start(Duration::from_secs_f64(seconds / 60.0));
    let start = Instant::now();
    let crash_at = Duration::from_secs_f64(seconds * 0.55);
    let total = Duration::from_secs_f64(seconds);
    let mut crashed = false;
    let mut crash_time = 0.0;
    let mut recovered_time = 0.0;
    while start.elapsed() < total {
        if !crashed && start.elapsed() >= crash_at {
            crashed = true;
            crash_time = start.elapsed().as_secs_f64();
            // Crash: the primary loses its state.
            rt.crash("Prim");
            store.lock().flush();
            rt.set_policy("Prim", "checkpoint", Policy::OnDemand);
            rt.restart("Prim").unwrap();
            rt.deliver_for_test("Prim", "recover", Update::assert("NeedState", "driver"));
            // Wait for the checkpoint to restore the keyspace.
            let deadline = Instant::now() + Duration::from_secs(10);
            while store.lock().len() < 20_000 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            recovered_time = start.elapsed().as_secs_f64();
            rt.set_policy("Prim", "checkpoint", Policy::Periodic(interval));
            continue;
        }
        let cmd = wl.next();
        let _ = cmd.execute(&mut store.lock());
        tp.hit();
    }
    let mut report = Report::new("fig23a", "Response of Redis query rate to checkpoints");
    report.series(
        "Query Rate",
        "time (s)",
        "queries/s",
        tp.series(),
    );
    report.note("crash_at_s", crash_time);
    report.note("recovered_at_s", recovered_time);
    report.note("checkpoint_interval_s", interval.as_secs_f64());
    report.note("total_queries", tp.total() as f64);
    report.remark(
        "expected shape: periodic dips at checkpoints; deep dip at the crash; \
         rate recovers after restore (paper Fig. 23a)",
    );
    rt.shutdown();
    report
}

// ---------------------------------------------------------------------
// Fig. 23b / Fig. 26c — cumulative requests per shard
// ---------------------------------------------------------------------

fn sharded_cumulative(
    id: &str,
    title: &str,
    mode: ShardMode,
    dist: KeyDist,
    seconds: f64,
) -> Report {
    let n = 4;
    let Sharded { rt, requests, replies, backends } =
        boot_sharded(n, mode, false, Duration::from_secs(5));

    let mut wl = Workload::new(WorkloadSpec {
        keyspace: 4000,
        read_ratio: 0.0, // SETs so sizes register for BySize
        value_size: 64,
        dist,
        ..Default::default()
    });
    let mut cum = CumulativeByClass::start(n, Duration::from_secs_f64(seconds / 50.0));
    let start = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    while start.elapsed() < total {
        let cmd = wl.next();
        let class = match mode {
            ShardMode::ByKey => cmd.key().map_or(0, |k| shard_of(k, n)),
            ShardMode::BySize => match &cmd {
                Command::Set(k, v) => {
                    let _ = k;
                    mini_redis::hash::size_class(v.len()).min(n - 1)
                }
                _ => n - 1,
            },
        };
        requests.lock().push_back(cmd);
        if rt.invoke("Fnt", "junction").is_ok() {
            cum.hit(class);
        }
    }
    let totals = cum.totals();
    let mut report = Report::new(id, title);
    for (i, series) in cum.series().into_iter().enumerate() {
        report.series(
            &format!("Shard {}", i + 1),
            "time (s)",
            "cumulative requests",
            series.into_iter().map(|(x, y)| (x, y as f64)).collect(),
        );
    }
    for (i, t) in totals.iter().enumerate() {
        report.note(&format!("total_shard_{}", i + 1), *t as f64);
    }
    let replies_n = replies.lock().len();
    report.note("replies", replies_n as f64);
    for (i, (_, handled)) in backends.iter().enumerate() {
        report.note(
            &format!("handled_bck{}", i + 1),
            handled.load(std::sync::atomic::Ordering::Relaxed) as f64,
        );
    }
    rt.shutdown();
    report
}

/// Fig. 23b: key-hash (djb2) sharding under an uneven workload — the
/// cumulative curves split in the workload's ratio.
pub fn fig23b(seconds: f64) -> Report {
    let mut r = sharded_cumulative(
        "fig23b",
        "Cumulative requests sharded by key (uneven workload)",
        ShardMode::ByKey,
        KeyDist::Skewed { shards: 4 },
        seconds,
    );
    r.remark("expected shape: four diverging cumulative curves in ~1:2:3:4 ratio (paper Fig. 23b)");
    r
}

/// Fig. 26c: object-size sharding under a size-classed workload.
pub fn fig26c(seconds: f64) -> Report {
    let mut r = sharded_cumulative(
        "fig26c",
        "Cumulative requests sharded by object size",
        ShardMode::BySize,
        KeyDist::SizeClassed,
        seconds,
    );
    r.remark("expected shape: per-class cumulative curves tracking the size mix (paper Fig. 26c)");
    r
}

// ---------------------------------------------------------------------
// Fig. 23c — effect of caching on query rate
// ---------------------------------------------------------------------

fn caching_run(capacity: usize, seconds: f64) -> (Vec<(f64, f64)>, u64, u64) {
    let spec = CachingSpec::default();
    let cp = csaw_core::compile(caching(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let cache = CacheApp::new(capacity);
    let requests = Arc::clone(&cache.requests);
    let hits = Arc::clone(&cache.hits);
    let misses = Arc::clone(&cache.misses);
    rt.bind_app("Cache", Box::new(cache));
    let fun = ServerApp::new();
    let store = Arc::clone(&fun.store);
    rt.bind_app("Fun", Box::new(fun));
    rt.set_policy("Cache", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();

    preload(&store, 10_000, 256);
    let mut wl = Workload::new(WorkloadSpec::hotspot_90_10());
    let mut tp = Throughput::start(Duration::from_secs_f64(seconds / 40.0));
    let start = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    while start.elapsed() < total {
        requests.lock().push_back(wl.next());
        if rt.invoke("Cache", "junction").is_ok() {
            tp.hit();
        }
    }
    let h = hits.load(std::sync::atomic::Ordering::Relaxed);
    let m = misses.load(std::sync::atomic::Ordering::Relaxed);
    rt.shutdown();
    (tp.series(), h, m)
}

/// "90% of requests are directed at 10% of the entries … the gain from
/// caching on this setup is around 200 queries per second" — we run the
/// same architecture with the cache enabled and disabled.
pub fn fig23c(seconds: f64) -> Report {
    let (with_cache, hits, misses) = caching_run(100_000, seconds);
    let (without_cache, _, _) = caching_run(0, seconds);
    let mean = |s: &[(f64, f64)]| {
        if s.is_empty() {
            0.0
        } else {
            s.iter().map(|(_, y)| y).sum::<f64>() / s.len() as f64
        }
    };
    let mut report = Report::new("fig23c", "Effect of caching on query rate (90/10 skew)");
    let m_with = mean(&with_cache);
    let m_without = mean(&without_cache);
    report.series("With Caching", "time (s)", "queries/s", with_cache);
    report.series("No Caching", "time (s)", "queries/s", without_cache);
    report.note("mean_qps_with_cache", m_with);
    report.note("mean_qps_no_cache", m_without);
    report.note("cache_hits", hits as f64);
    report.note("cache_misses", misses as f64);
    report.note("gain_qps", m_with - m_without);
    report.remark("expected shape: a modest steady QPS gain with caching (paper Fig. 23c)");
    report
}

// ---------------------------------------------------------------------
// Figs. 25c / 26b — latency CDFs of the re-architected systems
// ---------------------------------------------------------------------

fn latency_cdf(ops: usize, reads: bool) -> Vec<(String, Latencies)> {
    let mut out = Vec::new();
    let mut wl_spec = WorkloadSpec {
        keyspace: 5000,
        read_ratio: if reads { 1.0 } else { 0.0 },
        value_size: 128,
        ..Default::default()
    };

    // Baseline: unmodified store, direct execution. Direct ops are
    // sub-microsecond, so we sample over a fixed wall-clock period (the
    // same period the replication run uses, so both see comparable
    // numbers of checkpoint windows).
    {
        let store = Arc::new(Mutex::new(Store::new()));
        preload(&store, 5000, 128);
        let lat = sample_direct(&store, Workload::new(wl_spec.clone()), ops, false);
        out.push(("Baseline".to_string(), lat));
    }

    // Replication (checkpoint-based): ops race with periodic full-state
    // serialization — low average, long tail (paper Fig. 25c).
    {
        let (rt, store) = boot_redis_checkpoint(Duration::from_millis(100), false);
        // A heavier keyspace makes each checkpoint hold the store lock
        // long enough to produce the paper's replication tail.
        preload(&store, 30_000, 256);
        let wl = Workload::new(WorkloadSpec { keyspace: 30_000, ..wl_spec.clone() });
        let lat = sample_direct(&store, wl, ops, true);
        rt.shutdown();
        out.push(("Replication".to_string(), lat));
    }

    // Shard by key hash / by object size: ops through the DSL path.
    for (name, mode) in [
        ("Shard by Key Hash", ShardMode::ByKey),
        ("Shard by Object Size", ShardMode::BySize),
    ] {
        let Sharded { rt, requests, backends, .. } =
            boot_sharded(4, mode, false, Duration::from_secs(5));
        // Preload every shard so GETs hit regardless of routing.
        for (store, _) in &backends {
            preload(store, 5000, 128);
        }
        wl_spec.seed += 1;
        let mut wl = Workload::new(wl_spec.clone());
        let mut lat = Latencies::new();
        for _ in 0..ops {
            let cmd = wl.next();
            requests.lock().push_back(cmd);
            let t0 = Instant::now();
            if rt.invoke("Fnt", "junction").is_ok() {
                lat.record(t0.elapsed());
            }
        }
        rt.shutdown();
        out.push((name.to_string(), lat));
    }
    out
}

/// Operations each configuration's CDF is drawn from.
pub const CDF_OPS: usize = 1500;

/// Execute `wl` directly against `store` for 2 s, timing each command:
/// a uniform 1-in-97 subsample (at most `4 * ops` samples), plus, with
/// `keep_slow`, every command over 100 µs (the tail).
fn sample_direct(store: &Mutex<Store>, mut wl: Workload, ops: usize, keep_slow: bool) -> Latencies {
    let mut lat = Latencies::new();
    let end = Instant::now() + Duration::from_secs(2);
    let mut i = 0u64;
    while Instant::now() < end {
        let cmd = wl.next();
        let t0 = Instant::now();
        let _ = cmd.execute(&mut store.lock());
        let dt = t0.elapsed();
        let slow = keep_slow && dt > Duration::from_micros(100);
        if slow || (i.is_multiple_of(97) && lat.len() < ops * 4) {
            lat.record(dt);
        }
        i += 1;
    }
    lat
}

fn cdf_report(id: &str, title: &str, reads: bool) -> Report {
    let mut report = Report::new(id, title);
    for (name, lat) in latency_cdf(CDF_OPS, reads) {
        report.series(&name, "latency (ms)", "cumulative probability", {
            lat.cdf(100)
        });
        if let (Some(p50), Some(p99)) = (lat.quantile(0.5), lat.quantile(0.99)) {
            report.note(&format!("{name}_p50_us"), p50.as_micros() as f64);
            report.note(&format!("{name}_p99_us"), p99.as_micros() as f64);
        }
    }
    report.remark(
        "expected shape: overheads noticeable but low vs baseline; \
         replication shows the longest tail (paper Figs. 25c/26b)",
    );
    report
}

/// Fig. 25c: GET latency CDFs.
pub fn fig25c() -> Report {
    cdf_report("fig25c", "Redis GET latency CDFs", true)
}

/// Fig. 26b: SET latency CDFs.
pub fn fig26b() -> Report {
    cdf_report("fig26b", "Redis SET latency CDFs", false)
}
