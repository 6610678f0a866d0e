//! Ignored micro-bench isolating the tracer's per-event cost, so
//! regressions in the record path show up without running the full
//! overhead bin:
//!
//! ```text
//! cargo test --release -p csaw-runtime --test trace_bench -- --ignored --nocapture
//! ```

use std::sync::Arc;
use std::time::Instant;

use csaw_kv::TableEvent;
use csaw_runtime::{TraceKind, Tracer};

fn time<F: FnMut()>(n: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

#[test]
#[ignore]
fn component_costs() {
    let n = 1_000_000u64;
    let origin = Instant::now();
    let clock = time(n, || {
        std::hint::black_box(origin.elapsed().as_micros() as u64);
    });
    let ctr = std::sync::atomic::AtomicU64::new(0);
    let atomic = time(n, || {
        std::hint::black_box(ctr.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
    });
    println!("instant elapsed_us:   {clock:.0} ns");
    println!("atomic fetch_add:     {atomic:.1} ns");
}

#[test]
#[ignore]
fn per_event_costs() {
    let n = 1_000_000u64;
    // 32× headroom so a single-threaded run never hits shard eviction.
    let tracer = Tracer::with_capacity(32 * n as usize);
    tracer.set_enabled(true);
    let inst: Arc<str> = Arc::from("Fnt");
    let junc: Arc<str> = Arc::from("junction");

    let sched = time(n, || {
        tracer.record_ids(&inst, &junc, 7, TraceKind::Sched);
    });

    let tracer2 = Tracer::with_capacity(32 * n as usize);
    tracer2.set_enabled(true);
    let kv = time(n, || {
        tracer2.record_ids(
            &inst,
            &junc,
            7,
            TraceKind::Kv(TableEvent::LocalWrite { key: "Work", op: 3 }),
        );
    });

    let tracer3 = Tracer::with_capacity(32 * n as usize);
    tracer3.set_enabled(true);
    let send = time(n, || {
        tracer3.record_ids(
            &inst,
            &junc,
            0,
            TraceKind::LinkSend { to: "Bck1::junction", key: "k17", seq: 42, bytes: 64 },
        );
    });

    let tracer4 = Tracer::with_capacity(64);
    let disabled = time(n, || {
        tracer4.record_ids(&inst, &junc, 7, TraceKind::Sched);
    });

    println!("sched (no strings):   {sched:.0} ns/event");
    println!("kv local_write:       {kv:.0} ns/event");
    println!("link_send:            {send:.0} ns/event");
    println!("disabled:             {disabled:.1} ns/event");
    let ring_event = std::mem::size_of::<csaw_runtime::TraceEvent<u32>>();
    println!("ring event size:      {ring_event} bytes");
}

#[test]
#[ignore]
fn insert_cost_vs_capacity() {
    let n = 1_000_000u64;
    let inst: Arc<str> = Arc::from("Fnt");
    let junc: Arc<str> = Arc::from("junction");
    for cap in [16usize << 10, 256 << 10, 4 << 20] {
        let t = Tracer::with_capacity(cap);
        t.set_enabled(true);
        let ns = time(n, || {
            t.record_ids(&inst, &junc, 7, TraceKind::Sched);
        });
        println!("capacity {:>8}: {ns:.0} ns/event", cap);
    }
}
