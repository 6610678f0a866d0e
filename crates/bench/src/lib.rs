//! # csaw-bench — the evaluation harness (§10)
//!
//! One experiment module per table/figure of the paper's evaluation; each
//! has a thin binary wrapper under `src/bin/` that prints the same
//! rows/series the paper plots and writes machine-readable JSON under
//! `results/`. Absolute numbers differ from the paper's testbed — the
//! *shapes* (who wins, by what factor, where dips/crossovers fall) are
//! the reproduction target. See EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! | module | regenerates |
//! |---|---|
//! | [`exp_redis`] | Figs. 23a/23b/23c, 25c, 26b, 26c |
//! | [`exp_suricata`] | Figs. 24a/24b/24c |
//! | [`exp_curl`] | Figs. 25a/25b, 26a |
//! | [`exp_loc`] | Table 2 |
//! | [`ablations`] | DESIGN.md ablations (transports, fail-over designs, serializer depth, fan-out, fault tolerance) |
//! | [`autoscale_runs`] | metrics-driven autoscaler: planner-driven reshard over a diurnal day |
//! | [`chaos`] | chaos soak: fault-injected fail-over invariants |
//! | [`conformance_runs`] | trace-conformance validation of the architecture catalogue |
//! | [`overload`] | open-loop overload storm: offered load vs in-deadline goodput, shedding on/off |
//! | [`reconfig_runs`] | live-reconfiguration downtime: four hot-swaps under traffic |
//! | [`self_healing`] | supervisor MTTR: detect → plan → repair per failure class |
//! | [`sim_runs`] | deterministic simulation: seeded schedule exploration with replayable failure artifacts |
//!
//! Experiment durations are time-compressed relative to the paper's 120s
//! runs; scale with `--seconds <n>` on each binary or the
//! `CSAW_EXP_SECONDS` environment variable.

pub mod ablations;
pub mod autoscale_runs;
pub mod chaos;
pub mod conformance_runs;
pub mod exp_curl;
pub mod exp_loc;
pub mod exp_redis;
pub mod exp_suricata;
mod harness;
pub mod overload;
pub mod reconfig_runs;
pub mod report;
pub mod self_healing;
pub mod sim_runs;

pub use harness::smoke_requested;

/// Experiment duration (seconds), from `CSAW_EXP_SECONDS` or the default.
pub fn exp_seconds(default: f64) -> f64 {
    std::env::var("CSAW_EXP_SECONDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Repetitions for mean±std reporting, from `CSAW_EXP_REPS`.
pub fn exp_reps(default: usize) -> usize {
    std::env::var("CSAW_EXP_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
