//! Ignored micro-bench isolating the tracer's per-event cost, so
//! regressions in the record path show up without running the full
//! overhead bin:
//!
//! ```text
//! cargo test --release -p csaw-runtime --test trace_bench -- --ignored --nocapture
//! ```

use std::time::Instant;

use csaw_kv::TableEvent;
use csaw_runtime::trace::Name;
use csaw_runtime::{TraceEvent, TraceKind, Tracer};
use parking_lot::Mutex;

fn time<F: FnMut()>(n: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// The parts of one record, side by side: the timestamp (`rdtsc` on
/// x86-64), the push into a thread's staging buffer (an uncontended
/// lock and a `Vec` push of one ring event, emptied every 128 events
/// like the tracer's flush) and the global `gsn` `fetch_add`.
#[test]
#[ignore]
fn component_costs() {
    let n = 1_000_000u64;
    let origin = Instant::now();
    let clock = time(n, || {
        std::hint::black_box(origin.elapsed().as_micros() as u64);
    });
    #[cfg(target_arch = "x86_64")]
    let rdtsc = time(n, || {
        // SAFETY: RDTSC is unprivileged and always available on x86-64.
        std::hint::black_box(unsafe { core::arch::x86_64::_rdtsc() });
    });
    #[cfg(not(target_arch = "x86_64"))]
    let rdtsc = f64::NAN;
    let staging: Mutex<Vec<TraceEvent<Name>>> = Mutex::new(Vec::with_capacity(128));
    let push = time(n, || {
        let mut events = staging.lock();
        events.push(TraceEvent {
            gsn: 1,
            at_us: 2,
            instance: Name::Text("Fnt"),
            junction: Name::Text("junction"),
            epoch: 3,
            kind: TraceKind::Sched,
        });
        if events.len() >= 128 {
            events.clear();
        }
        std::hint::black_box(&*events);
    });
    let ctr = std::sync::atomic::AtomicU64::new(0);
    let atomic = time(n, || {
        std::hint::black_box(ctr.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
    });
    println!("instant elapsed_us:   {clock:.0} ns");
    println!("rdtsc read:           {rdtsc:.1} ns");
    println!("staging push:         {push:.1} ns");
    println!("atomic fetch_add:     {atomic:.1} ns");
}

#[test]
#[ignore]
fn per_event_costs() {
    let n = 1_000_000u64;
    // 32× headroom so a single-threaded run never hits shard eviction.
    let tracer = Tracer::with_capacity(32 * n as usize);
    tracer.set_enabled(true);

    let sched = time(n, || {
        tracer.record("Fnt", "junction", 7, TraceKind::Sched);
    });

    let tracer2 = Tracer::with_capacity(32 * n as usize);
    tracer2.set_enabled(true);
    let kv = time(n, || {
        tracer2.record(
            "Fnt",
            "junction",
            7,
            TraceKind::Kv(TableEvent::LocalWrite { key: "Work", op: 3 }),
        );
    });

    let tracer3 = Tracer::with_capacity(32 * n as usize);
    tracer3.set_enabled(true);
    let send = time(n, || {
        tracer3.record(
            "Fnt",
            "junction",
            0,
            TraceKind::LinkSend { to: "Bck1::junction", key: "k17", seq: 42, bytes: 64 },
        );
    });

    let tracer4 = Tracer::with_capacity(64);
    let disabled = time(n, || {
        tracer4.record("Fnt", "junction", 7, TraceKind::Sched);
    });

    println!("sched (no strings):   {sched:.0} ns/event");
    println!("kv local_write:       {kv:.0} ns/event");
    println!("link_send:            {send:.0} ns/event");
    println!("disabled:             {disabled:.1} ns/event");
    let ring_event = std::mem::size_of::<TraceEvent<Name>>();
    println!("ring event size:      {ring_event} bytes");
}

#[test]
#[ignore]
fn insert_cost_vs_capacity() {
    let n = 1_000_000u64;
    for cap in [16usize << 10, 256 << 10, 4 << 20] {
        let t = Tracer::with_capacity(cap);
        t.set_enabled(true);
        let ns = time(n, || {
            t.record("Fnt", "junction", 7, TraceKind::Sched);
        });
        println!("capacity {:>8}: {ns:.0} ns/event", cap);
    }
}
