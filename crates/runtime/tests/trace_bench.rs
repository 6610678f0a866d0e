//! Ignored micro-bench isolating the tracer's per-event cost, so
//! regressions in the record path show up without running the full
//! overhead bin:
//!
//! ```text
//! cargo test --release -p csaw-runtime --test trace_bench -- --ignored --nocapture
//! ```

use std::collections::VecDeque;
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
/// x86-64), the push onto a thread's shard (an uncontended lock and a
/// push of one ring event onto a full bounded `VecDeque`, which evicts
/// its oldest event first, as a wrapped shard does) and the global
/// `gsn` `fetch_add`.
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
    const BOUND: usize = 1 << 16;
    let ring: Mutex<VecDeque<TraceEvent<Name>>> = Mutex::new(VecDeque::with_capacity(BOUND));
    let push = time(n, || {
        let mut ring = ring.lock();
        if ring.len() == BOUND {
            ring.pop_front();
        }
        ring.push_back(TraceEvent {
            gsn: 1,
            at_us: 2,
            instance: Name::Text("Fnt"),
            junction: Name::Text("junction"),
            epoch: 3,
            kind: TraceKind::Sched,
        });
        std::hint::black_box(&*ring);
    });
    let ctr = std::sync::atomic::AtomicU64::new(0);
    let atomic = time(n, || {
        std::hint::black_box(ctr.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
    });
    println!("instant elapsed_us:   {clock:.0} ns");
    println!("rdtsc read:           {rdtsc:.1} ns");
    println!("ring push (evicting): {push:.1} ns");
    println!("atomic fetch_add:     {atomic:.1} ns");
}

#[test]
#[ignore]
fn per_event_costs() {
    let n = 1_000_000u64;
    // 32× headroom: a single-threaded run grows its shard and never
    // evicts.
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

    // The default ring, wrapped: this thread's shard already holds its
    // newest 65 536 events, so each record evicts one.
    let tracer4 = Tracer::new();
    tracer4.set_enabled(true);
    let wrap = || tracer4.record("Fnt", "junction", 7, TraceKind::Sched);
    time(1 << 17, wrap);
    let wrapped = time(n, wrap);

    let tracer5 = Tracer::with_capacity(64);
    let disabled = time(n, || {
        tracer5.record("Fnt", "junction", 7, TraceKind::Sched);
    });

    println!("sched (no strings):   {sched:.0} ns/event");
    println!("sched (wrapped ring): {wrapped:.0} ns/event");
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
