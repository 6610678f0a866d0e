//! Fast conformance smoke tests: a subset of the architecture catalogue
//! runs with tracing on and the recorded traces must replay cleanly
//! through the semantics checker. The full seven-architecture sweep is
//! `csaw-bench conformance` (CI runs it at a fixed seed).

use csaw_bench::chaos::{soak_checkpoint, soak_failover, ChaosSchedule};
use csaw_bench::conformance_runs::{conf_caching, conf_sharding};
use csaw_runtime::env_seed;
use std::time::Duration;

#[test]
fn sharding_trace_conforms() {
    let run = conf_sharding();
    assert!(
        run.summary.ok,
        "sharding trace rejected:\n{}\ntrace:\n{}",
        run.summary.detail,
        run.jsonl
    );
    assert!(run.summary.events > 0);
    assert_eq!(run.summary.dropped, 0);
}

#[test]
fn caching_trace_conforms() {
    let run = conf_caching();
    assert!(
        run.summary.ok,
        "caching trace rejected:\n{}\ntrace:\n{}",
        run.summary.detail,
        run.jsonl
    );
    assert!(run.summary.events > 0);
}

/// §8 local-priority conformance under chaos, across a block of seeds:
/// the fail-over architecture soaks under the seeded fault schedule
/// (drops, dups, reordering — traffic rides the batched transport),
/// and every recorded trace must replay cleanly through the semantics
/// checker. The base seed honors `CSAW_SEED` for reproduction.
#[test]
fn failover_chaos_traces_conform_across_seeds() {
    let base = env_seed(7000);
    for seed in base..base + 6 {
        let schedule = ChaosSchedule::acceptance(seed)
            .with_requests(16)
            .without_partition()
            .with_pace(Duration::from_millis(2))
            .with_conformance(true);
        let outcome = soak_failover(&schedule);
        let c = outcome.conformance.as_ref().expect("conformance enabled");
        assert!(
            c.ok,
            "seed {seed}: failover trace rejected:\n{}\ntrace:\n{}",
            c.detail,
            outcome.trace_jsonl.as_deref().unwrap_or("")
        );
        assert!(c.events > 0, "seed {seed}: empty trace");
        assert!(outcome.invariants_hold(), "seed {seed}: soak invariants: {outcome:?}");
    }
}

#[test]
fn checkpoint_soak_with_conformance_invariant_holds() {
    let schedule = ChaosSchedule::acceptance(7)
        .with_requests(10)
        .without_partition()
        .with_pace(Duration::from_millis(1))
        .with_conformance(true);
    let outcome = soak_checkpoint(&schedule);
    let c = outcome.conformance.as_ref().expect("conformance enabled");
    assert!(
        c.ok,
        "checkpoint trace rejected:\n{}\ntrace:\n{}",
        c.detail,
        outcome.trace_jsonl.as_deref().unwrap_or("")
    );
    assert!(outcome.invariants_hold(), "soak invariants: {outcome:?}");
}
