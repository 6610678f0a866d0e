//! # csaw-bench — the evaluation harness (§10)
//!
//! One experiment module per table/figure of the paper's evaluation,
//! plus the soaks and gates CI runs. The `csaw-bench` binary
//! (`src/main.rs`) is the one front door: `csaw-bench <command>` runs
//! any of them, prints the same rows/series the paper plots and writes
//! machine-readable JSON under `results/`; `csaw-bench help` lists the
//! commands, their flags and defaults. Absolute numbers differ from the
//! paper's testbed — the *shapes* (who wins, by what factor, where
//! dips/crossovers fall) are the reproduction target. See
//! EXPERIMENTS.md for the paper-vs-measured record.
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
//! | [`micro`] | micro-benchmarks of the building blocks (ns/iter) |
//! | [`overload`] | open-loop overload storm: offered load vs in-deadline goodput, shedding on/off |
//! | [`perf`] | hot-path gates: shard capacity, trace saturation, trace overhead |
//! | [`reconfig_runs`] | live-reconfiguration downtime: four hot-swaps under traffic |
//! | [`self_healing`] | supervisor MTTR: detect → plan → repair per failure class |
//! | [`sim_runs`], [`sim_cmd`] | deterministic simulation: seeded schedule exploration with replayable failure artifacts |
//!
//! Experiment durations are time-compressed relative to the paper's 120s
//! runs; scale them with `--seconds <n>`.

pub mod ablations;
pub mod autoscale_runs;
pub mod chaos;
pub mod conformance_runs;
pub mod exp_curl;
pub mod exp_loc;
pub mod exp_redis;
pub mod exp_suricata;
mod harness;
pub mod micro;
pub mod overload;
pub mod perf;
pub mod reconfig_runs;
pub mod report;
pub mod self_healing;
pub mod sim_cmd;
pub mod sim_runs;
