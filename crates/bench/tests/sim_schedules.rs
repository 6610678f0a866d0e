//! Deterministic-simulation acceptance sweeps over the parametric
//! scenario family (fail-over, the sharded family's live reshard, churn
//! and planned waves under traffic, crash + checkpoint restore,
//! overload storms under ingress budgets): blocks of consecutive seeds
//! must come out green — oracle clean, repairs verified, cross-epoch
//! conformance pass, horizon reached within the step budget — and each
//! scenario must deterministically catch its own deliberate fence-off
//! bug, shrink the offending schedule, and reproduce it from the JSON
//! artifact.
//!
//! The base seed honors `CSAW_SEED`, so a failing block reported by CI
//! can be reproduced locally with the same environment variable; every
//! red schedule prints its seed (and the `csaw_sim` CLI can then shrink
//! and persist it as a JSON artifact).

use csaw_bench::sim_runs::{
    dfs_schedule, replay_schedule, run_schedule, shrink_failure, Scenario, ScheduleSpec,
};
use csaw_runtime::{env_seed, Artifact, DfsConfig};

const SWEEP: u64 = 48;

/// One green schedule end to end: requests acked, the supervisor
/// promotes the spare, the fence holds, the oracle is green.
#[test]
fn green_schedule_repairs_and_keeps_invariants() {
    let out = run_schedule(&ScheduleSpec::for_seed(7));
    assert!(out.failure.is_none(), "oracle: {:?}\nsteps: {}", out.failure, out.steps.len());
    assert!(
        out.repair_ok,
        "promotion repair did not verify; repairs: {:?}, steps: {}, truncated: {}, vms: {}",
        out.repairs,
        out.steps.len(),
        out.truncated,
        out.virtual_ms
    );
    assert!(out.acked >= 2, "too few acked requests: {}", out.acked);
    assert!(out.fenced_sends > 0, "fence never rejected the zombie");
    assert!(!out.truncated, "step budget too small for the scenario");
}

/// Under virtual time the heartbeat loop is drift-free: every round
/// fires at an exact multiple of the 20 ms interval, regardless of how
/// the random walk interleaves it with junction passes and repairs.
#[test]
fn sim_heartbeats_keep_nominal_cadence() {
    let out = run_schedule(&ScheduleSpec::for_seed(5));
    assert!(out.failure.is_none(), "oracle: {:?}", out.failure);
    let mut rounds = 0u64;
    for line in out.trace_jsonl.lines().filter(|l| l.contains("\"k\":\"link_hb\"")) {
        let us: u64 = line
            .split("\"us\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("link_hb event without a timestamp");
        assert_eq!(us % 20_000, 0, "heartbeat drifted off the 20 ms grid: {line}");
        rounds += 1;
    }
    // 1500 ms horizon / 20 ms interval, several directed pairs — the
    // trace must show sustained rounds, not just the first.
    assert!(rounds > 100, "too few heartbeat sends traced: {rounds}");
}

#[test]
fn sweep_reconfigure_during_repair_stays_green() {
    let base = env_seed(1000);
    let mut acked_total = 0usize;
    for seed in base..base + SWEEP {
        let out = run_schedule(&ScheduleSpec::for_seed(seed));
        assert!(
            out.failure.is_none(),
            "seed {seed} went red: {:?} (CSAW_SEED={seed} reproduces; \
             `csaw_sim explore --seed {seed} --schedules 1` shrinks it)",
            out.failure
        );
        assert!(out.repair_ok, "seed {seed}: promotion repair did not verify: {:?}", out.repairs);
        assert!(out.conformance.ok, "seed {seed}: conformance: {}", out.conformance.detail);
        assert!(!out.truncated, "seed {seed}: step budget exhausted before the horizon");
        assert!(
            out.fenced_sends > 0,
            "seed {seed}: the fence never rejected the zombie's traffic"
        );
        acked_total += out.acked;
    }
    // The workload is six requests per schedule; chaos and repair
    // timing may time a few out, but the sweep as a whole must carry
    // real traffic or the oracle is vacuous.
    assert!(
        acked_total >= (SWEEP as usize) * 4,
        "sweep carried too little acked traffic: {acked_total} over {SWEEP} schedules"
    );
}

/// The two ROADMAP schedules (live reshard with key re-homing
/// mid-traffic, crash + checkpoint restore) plus repeated churn, swept
/// across seeds with the small model's (shards, replicas) rotating so
/// every cell of the grid gets hit. Every schedule must be green.
#[test]
fn sweep_new_scenarios_stay_green() {
    let base = env_seed(2000);
    let scenarios =
        [Scenario::Reshard, Scenario::Restore, Scenario::Churn, Scenario::Planned];
    let grid = [(1, 1), (2, 2), (3, 1), (1, 3), (4, 2), (2, 3)];
    let mut acked_total = 0usize;
    for i in 0..SWEEP {
        let seed = base + i;
        let scenario = scenarios[(i % 4) as usize];
        let (n, k) = grid[((i / 4) % grid.len() as u64) as usize];
        let out = run_schedule(&ScheduleSpec::new(scenario, n, k, seed));
        assert!(
            out.failure.is_none(),
            "{} (n={n}, k={k}) seed {seed} went red: {:?} (CSAW_SEED={seed} reproduces)",
            scenario.label(),
            out.failure
        );
        assert!(
            out.repair_ok,
            "{} (n={n}, k={k}) seed {seed}: repair/wave did not verify: {:?}",
            scenario.label(),
            out.repairs
        );
        assert!(
            out.conformance.ok,
            "{} seed {seed}: conformance: {}",
            scenario.label(),
            out.conformance.detail
        );
        assert!(
            !out.truncated,
            "{} (n={n}, k={k}) seed {seed}: step budget exhausted before the horizon",
            scenario.label()
        );
        acked_total += out.acked;
    }
    assert!(
        acked_total >= (SWEEP as usize) * 4,
        "sweep carried too little traffic: {acked_total} over {SWEEP} schedules"
    );
}

/// The overload storm swept across seeds and grid cells: every
/// schedule must stay green — meaning the supervisor never
/// misclassified backpressure as failure (no repair records at all on
/// the healthy fleet), the bounded queues engaged and shed without
/// collapse, the post-storm probes landed, and the trace passed
/// conformance with shed events present. `replicas` doubles as the
/// storm multiplier, so the (1, 2) and (2, 2) cells run at ~8× a
/// route's capacity.
#[test]
fn sweep_overload_storms_stay_green() {
    let base = env_seed(3000);
    let grid = [(1, 1), (2, 1), (1, 2), (2, 2)];
    let mut acked_total = 0usize;
    for i in 0..SWEEP {
        let seed = base + i;
        let (n, k) = grid[(i % grid.len() as u64) as usize];
        let out = run_schedule(&ScheduleSpec::new(Scenario::Overload, n, k, seed));
        assert!(
            out.failure.is_none(),
            "overload (n={n}, k={k}) seed {seed} went red: {:?} (CSAW_SEED={seed} reproduces)",
            out.failure
        );
        assert!(
            out.repair_ok,
            "overload (n={n}, k={k}) seed {seed}: supervisor recorded anomalies on a \
             healthy fleet: {:?}",
            out.repairs
        );
        assert!(
            out.conformance.ok,
            "overload seed {seed}: conformance: {}",
            out.conformance.detail
        );
        assert!(
            !out.truncated,
            "overload (n={n}, k={k}) seed {seed}: step budget exhausted before the horizon"
        );
        acked_total += out.acked;
    }
    // Strict admission sheds almost the whole storm; what must land is
    // the storm-edge units plus every group's post-storm probes.
    assert!(
        acked_total >= (SWEEP as usize) * 3,
        "sweep carried too little acked traffic: {acked_total} over {SWEEP} schedules"
    );
}

/// Determinism contract for every scenario family: the same seed on a
/// fresh runtime yields a byte-identical step list and a byte-identical
/// trace, and replaying the recorded steps reproduces both.
#[test]
fn same_seed_traces_are_byte_identical_per_scenario() {
    for (scenario, n, k) in [
        (Scenario::Failover, 1, 1),
        (Scenario::Reshard, 2, 1),
        (Scenario::Restore, 2, 2),
        (Scenario::Churn, 1, 2),
        (Scenario::Planned, 2, 1),
        (Scenario::Overload, 1, 1),
    ] {
        let spec = ScheduleSpec::new(scenario, n, k, 17);
        let a = run_schedule(&spec);
        let b = run_schedule(&spec);
        assert!(a.failure.is_none(), "{}: {:?}", scenario.label(), a.failure);
        assert_eq!(a.steps, b.steps, "{}: schedules diverged", scenario.label());
        assert_eq!(a.acked, b.acked, "{}: acked diverged", scenario.label());
        assert_eq!(a.virtual_ms, b.virtual_ms, "{}: virtual time diverged", scenario.label());
        assert_eq!(a.trace_jsonl, b.trace_jsonl, "{}: traces diverged", scenario.label());
        assert!(!a.trace_jsonl.is_empty(), "{}: trace recording off", scenario.label());
        let recorded = Artifact {
            seed: a.seed,
            reason: String::new(),
            instances: a.instances.clone(),
            steps: a.steps.clone(),
        };
        let replayed = replay_schedule(&spec, &recorded).expect("own instance set");
        assert_eq!(
            a.trace_jsonl,
            replayed.trace_jsonl,
            "{}: replay diverged from the recorded run",
            scenario.label()
        );
    }
}

/// Every scenario family catches its own deliberate bug when the fence
/// is dropped, the unshrunk artifact replays to the exact failure,
/// shrinking keeps it, and the shrunk artifact round-trips through JSON
/// into a red replay.
#[test]
fn every_scenario_catches_its_fence_off_bug() {
    for (scenario, n, k, seed, expect) in [
        (Scenario::Failover, 1, 1, 3, "split-brain"),
        (Scenario::Reshard, 1, 1, 1, "double-homed"),
        (Scenario::Restore, 1, 1, 1, "crash recovery never completed"),
        (Scenario::Churn, 1, 1, 1, "double-homed"),
        (Scenario::Planned, 1, 1, 1, "plan invalid"),
        (Scenario::Overload, 1, 1, 1, "false crash classification"),
    ] {
        let spec = ScheduleSpec::new(scenario, n, k, seed).with_fence_off();
        let out = run_schedule(&spec);
        let art = out.artifact().unwrap_or_else(|| {
            panic!("{} (seed {seed}): fence-off run stayed green", scenario.label())
        });
        assert!(
            art.reason.contains(expect),
            "{}: wrong failure `{}` (expected `{expect}`)",
            scenario.label(),
            art.reason
        );
        let unshrunk = replay_schedule(&spec, &art).expect("own instance set");
        assert_eq!(
            unshrunk.failure.as_deref(),
            Some(art.reason.as_str()),
            "{}: unshrunk artifact did not reproduce the failure",
            scenario.label()
        );
        let shrunk = shrink_failure(&spec, &art);
        assert!(
            shrunk.len() < art.steps.len(),
            "{}: shrink removed nothing ({} steps)",
            scenario.label(),
            art.steps.len()
        );
        let json = Artifact { steps: shrunk, ..art.clone() }.to_json();
        let back = Artifact::from_json(&json).expect("artifact parses");
        let replayed = replay_schedule(&spec, &back).expect("own instance set");
        assert_eq!(
            replayed.failure.as_deref(),
            Some(art.reason.as_str()),
            "{}: shrunk JSON artifact did not reproduce the failure",
            scenario.label()
        );
    }
}

/// An artifact recorded against one scenario's instance set is loudly
/// refused when replayed against another's.
#[test]
fn replay_artifact_rejects_cross_scenario_instances() {
    let out = run_schedule(&ScheduleSpec::for_seed(1));
    let art = Artifact {
        seed: 1,
        reason: "synthetic".into(),
        instances: out.instances.clone(),
        steps: out.steps.clone(),
    };
    let err = replay_schedule(&ScheduleSpec::new(Scenario::Reshard, 2, 2, 1), &art).unwrap_err();
    assert!(err.contains("instance set mismatch"), "wrong refusal message: {err}");
}

/// Bounded DFS with the reductions on exhausts the small-budget tree
/// green, and the naive no-reduction baseline needs at least 5x more
/// schedules (here it blows a low cap without finishing, so the factor
/// is a lower bound).
#[test]
fn dfs_small_budget_completes_and_prunes() {
    let spec = ScheduleSpec::new(Scenario::Restore, 1, 1, 2).with_budget(12);
    let full = dfs_schedule(&spec, &DfsConfig::default());
    assert!(full.complete, "reduced DFS did not exhaust the tree");
    assert!(full.failures.is_empty(), "red at small budget: {:?}", full.failures);
    assert!(full.hash_pruned > 0, "state-hash pruning never fired");

    let naive = dfs_schedule(
        &spec,
        &DfsConfig { sleep_sets: false, hash_prune: false, max_schedules: 500 },
    );
    assert!(naive.failures.is_empty(), "naive found a red the reduced run missed");
    assert!(
        naive.schedules >= 5 * full.schedules,
        "reduction under 5x: naive {} vs reduced {}",
        naive.schedules,
        full.schedules
    );
}

/// Exhaustive exploration is itself deterministic: the same spec
/// explored twice visits the same tree, and the reduced run stays
/// green wherever the naive baseline is green.
#[test]
fn dfs_exploration_is_deterministic() {
    let spec = ScheduleSpec::new(Scenario::Restore, 1, 1, 4).with_budget(12);
    let a = dfs_schedule(&spec, &DfsConfig::default());
    let b = dfs_schedule(&spec, &DfsConfig::default());
    assert!(a.complete && b.complete, "small-budget DFS did not finish");
    assert!(a.failures.is_empty(), "red at small budget: {:?}", a.failures);
    assert_eq!(a.schedules, b.schedules, "DFS schedule count diverged across runs");
    assert_eq!(a.nodes, b.nodes, "DFS node count diverged across runs");
    assert_eq!(a.states, b.states, "DFS state count diverged across runs");
}

/// With the `fence-off-bug` feature compiled in, even a spec that asks
/// for the fence gets the buggy build — proving the cfg gate forces the
/// bug into every scenario and the oracles still catch it. (CI builds
/// the bench tests once with the feature and runs exactly this test.)
#[cfg(feature = "fence-off-bug")]
#[test]
fn feature_gate_forces_every_bug_on() {
    for (scenario, expect) in [
        (Scenario::Failover, "split-brain"),
        (Scenario::Reshard, "double-homed"),
        (Scenario::Restore, "crash recovery never completed"),
        (Scenario::Churn, "double-homed"),
        (Scenario::Planned, "plan invalid"),
        (Scenario::Overload, "false crash classification"),
    ] {
        let seed = if scenario == Scenario::Failover { 3 } else { 1 };
        let out = run_schedule(&ScheduleSpec::new(scenario, 1, 1, seed));
        let reason = out.failure.unwrap_or_else(|| {
            panic!("{}: feature-gated bug not caught", scenario.label())
        });
        assert!(
            reason.contains(expect),
            "{}: wrong failure `{reason}` (expected `{expect}`)",
            scenario.label()
        );
    }
}
