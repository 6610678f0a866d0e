//! Regression gate for the trace hot path: once a thread's shard ring
//! is warm, recording a link or KV event performs **zero** heap
//! allocations — directly, end to end from a live `Table` through the
//! runtime's observer, and on a ring that has wrapped and evicts an
//! event per record. The ring keeps the interned texts it is handed
//! (`TraceEvent<Name>`) and renders them only at drain, so these tests
//! catch any change that sneaks a `String`/`Arc` materialization, or an
//! intern table, back into the record path.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide; it counts per thread, so the
//! tests may run in parallel. Each test's tracer is its own, so a test
//! thread is alone on its shard's ring; the first three stay inside the
//! ring's first block, so no counted record grows it.

use std::sync::Arc;

use csaw_core::value::Value;
use csaw_kv::{Table, TableEvent, Update};
use csaw_runtime::runtime::CellObserver;
use csaw_runtime::{TraceKind, Tracer};

mod counting;

use counting::allocs;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// Warm `round` three times, then count the allocations of twelve more.
fn warm_allocs(mut round: impl FnMut()) -> u64 {
    for _ in 0..3 {
        round();
    }
    let before = allocs();
    for _ in 0..12 {
        round();
    }
    allocs() - before
}

/// Every link kind.
#[test]
fn warm_link_record_path_performs_zero_allocations() {
    let t = Tracer::new();
    t.set_enabled(true);
    let (inst, junc) = ("o", "junction");
    let to = "f::junction";
    let n = warm_allocs(|| {
        t.record(inst, junc, 1, TraceKind::LinkSend { to, key: "rq1", seq: 9, bytes: 64 });
        t.record(inst, junc, 1, TraceKind::LinkRetry { to, seq: 9, attempt: 1 });
        t.record(inst, junc, 1, TraceKind::LinkDrop { to, seq: 10 });
        t.record(inst, junc, 1, TraceKind::LinkDup { to, seq: 11 });
        t.record(inst, junc, 1, TraceKind::LinkPartition { to, seq: 12 });
        t.record("f", "junction", 1, TraceKind::LinkDedup { from: "o", seq: 13 });
        t.record("f", "junction", 1, TraceKind::LinkFenced { from: "o", seq: 14 });
        t.record("o", "", 0, TraceKind::LinkHeartbeat { to: "f" });
    });
    assert_eq!(n, 0, "warm link record path must not allocate");
    assert_eq!(t.drain().len(), 15 * 8);
}

/// Every KV kind but the rare `kv_window_open` (which carries a key
/// list), as the runtime's observer hands them over: interned texts.
#[test]
fn warm_kv_record_path_adds_zero_allocations() {
    let t = Tracer::new();
    t.set_enabled(true);
    let (inst, junc) = ("f", "serve");
    let (key, from) = ("Request", "o::junction");
    let n = warm_allocs(|| {
        for ev in [
            TableEvent::LocalWrite { key, op: 3 },
            TableEvent::Deliver { key, from, link_seq: 7, op: 3, applied: true, during_run: false },
            TableEvent::FlushApply { key, from, link_seq: 7, op: 3, during_run: true },
            TableEvent::ShadowDrop { key, from, link_seq: 7, op: 3, lop: 4, during_run: true },
            TableEvent::RetroApply { key, from, link_seq: 7, op: 3 },
            TableEvent::WindowClose { token: 1 },
            TableEvent::KeepDrop { key, from, link_seq: 7 },
        ] {
            t.record(inst, junc, 2, TraceKind::Kv(ev));
        }
    });
    assert_eq!(n, 0, "warm KV record path must not allocate");
    assert_eq!(t.drain().len(), 15 * 7);
}

/// A live table with the runtime's observer and an enabled tracer:
/// warm local writes and deliveries (queued, flushed at the next
/// activation) trace without a single allocation. The updates are
/// built before counting starts; delivering one moves it in.
#[test]
fn warm_table_trace_path_performs_zero_allocations() {
    let tracer = Arc::new(Tracer::new());
    tracer.set_enabled(true);
    let mut t = Table::new();
    t.declare_prop("Work", false);
    t.declare_data("n");
    t.set_observer(Arc::new(CellObserver {
        tracer: Arc::clone(&tracer),
        instance: "f".into(),
        junction: "serve".into(),
    }));
    let mut updates: Vec<Update> = (0..15)
        .flat_map(|i| {
            [Update::assert("Work", "g::run"), Update::data("n", Value::Int(i), "g::run")]
        })
        .collect();
    // Six events a round: two flushed deliveries, two local writes,
    // one delivery during the run and one while idle.
    let n = warm_allocs(|| {
        t.begin_activation();
        t.set_data_local("n", Value::Int(1)).unwrap();
        t.set_prop_local("Work", false).unwrap();
        t.deliver(updates.pop().expect("one update per delivery"));
        t.end_activation();
        t.deliver(updates.pop().expect("one update per delivery"));
    });
    assert_eq!(n, 0, "warm table trace path must not allocate");
    let events = tracer.drain();
    // The first activation has nothing queued to flush.
    assert_eq!(events.len(), 15 * 6 - 2);
    assert!(events.iter().all(|e| matches!(e.kind, TraceKind::Kv(_))));
}

/// A ring that has wrapped evicts its oldest event for each new one and
/// never allocates: 1 000 warm records fill a 256-event shard, and the
/// next 10 000 each evict one.
#[test]
fn warm_wrapped_ring_records_allocate_nothing() {
    let t = Tracer::with_capacity(16 * 256);
    t.set_enabled(true);
    let record = |n: u64| t.record("f", "serve", n, TraceKind::Sched);
    (0..1_000).for_each(record);
    let before = allocs();
    (0..10_000).for_each(record);
    assert_eq!(allocs() - before, 0, "a wrapped ring record allocated");
    assert_eq!(t.drain().len(), 256);
    assert_eq!(t.dropped(), 11_000 - 256);
}
