//! Regression gate for the trace hot path: once identities and payload
//! strings are warm in the per-thread memos, recording a link event
//! must perform **zero** heap allocations, and recording a KV event
//! must add none beyond the `TableEvent` the caller builds. The ring
//! stores all-symbol `RawKind`s, so these tests catch any change that
//! sneaks a `String`/`Arc` materialization back into the record path.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide; it counts per thread, so the
//! tests may run in parallel.

use std::sync::Arc;

use csaw_kv::TableEvent;
use csaw_runtime::{LinkEv, TraceKind, Tracer};

mod counting;

use counting::allocs;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// Drive every borrowed-payload link variant through both identity
/// flavours. Totals stay under the 128-event staging flush so the hot
/// loop never pays (or hides) a buffer handoff.
#[test]
fn warm_link_record_path_performs_zero_allocations() {
    let t = Tracer::new();
    t.set_enabled(true);
    let inst: Arc<str> = "o".into();
    let junc: Arc<str> = "junction".into();
    let round = |t: &Tracer| {
        t.record_link(
            &inst,
            &junc,
            1,
            LinkEv::Send { to: "f::junction", key: "rq1", seq: 9, bytes: 64 },
        );
        t.record_link(&inst, &junc, 1, LinkEv::Retry { to: "f::junction", seq: 9, attempt: 1 });
        t.record_link(&inst, &junc, 1, LinkEv::Drop { to: "f::junction", seq: 10 });
        t.record_link(&inst, &junc, 1, LinkEv::Dup { to: "f::junction", seq: 11 });
        t.record_link(&inst, &junc, 1, LinkEv::Partition { to: "f::junction", seq: 12 });
        t.record_link_at("f", "junction", 1, LinkEv::Dedup { from: "o", seq: 13 });
        t.record_link_at("f", "junction", 1, LinkEv::Fenced { from: "o", seq: 14 });
        t.record_link_at("o", "", 0, LinkEv::Heartbeat { to: "f" });
    };
    // Warm-up: interns every identity and payload, allocates the
    // staging buffer, memo entries, and the TSC calibration state.
    for _ in 0..3 {
        round(&t);
    }
    let before = allocs();
    for _ in 0..12 {
        round(&t);
    }
    assert_eq!(allocs() - before, 0, "warm link record path must not allocate");
    assert_eq!(t.drain().len(), 15 * 8);
}

/// The KV record path may not allocate beyond the event the caller
/// hands it: an enabled tracer's marginal allocations over a disabled
/// one must be zero once symbols are warm.
#[test]
fn warm_kv_record_path_adds_zero_allocations() {
    let t = Tracer::new();
    let inst: Arc<str> = "f".into();
    let junc: Arc<str> = "serve".into();
    let event = || TableEvent::Deliver {
        key: "Request".to_string(),
        from: "o::junction".to_string(),
        link_seq: 7,
        op: 3,
        applied: true,
        during_run: false,
    };
    let run = |t: &Tracer, n: u64| {
        let before = allocs();
        for _ in 0..n {
            t.record_ids(&inst, &junc, 2, TraceKind::Kv(event()));
        }
        allocs() - before
    };
    // Baseline: disabled tracer still builds (and drops) each event.
    let disabled = run(&t, 50);
    t.set_enabled(true);
    run(&t, 10); // warm the symbol memos
    let enabled = run(&t, 50);
    assert_eq!(
        enabled, disabled,
        "enabled KV record path must add no allocations over event construction"
    );
}
