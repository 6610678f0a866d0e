//! The `csaw-bench sim …` commands over [`crate::sim_runs`]: explore
//! seeded schedules of the parametric scenario family, replay recorded
//! failure artifacts, exhaustively enumerate small-model schedule
//! trees, and demonstrate the oracles on the deliberate fence-off bugs.
//!
//! `explore` runs N schedules from consecutive seeds; each red schedule
//! is shrunk and dumped to
//! `results/sim/offending_schedule_<label>_<seed>.json` for `replay`.
//! `replay` re-executes an artifact byte-for-byte and reports whether
//! the recorded failure reproduces. `dfs` exhaustively enumerates one
//! scenario's schedule tree at a small step budget (with a naive cap,
//! it also runs the naive no-reduction baseline and reports the
//! reduction factor). `grid` sweeps the small model (shards × replicas)
//! per scenario — exhaustive DFS at the small budget, then a seeded
//! random walk at each scenario's full budget. `demo-bug` runs one
//! schedule with the scenario's fence deliberately disabled: the oracle
//! must go red, shrink the schedule, and reproduce it from the JSON
//! artifact.

use csaw_runtime::{Artifact, DfsConfig, DfsStats};

use crate::report::{Outcome, Report};
use crate::sim_runs::{
    dfs_schedule, replay_schedule, run_schedule, shrink_failure, Scenario, ScheduleSpec,
};

/// `(path under results/, JSON)` for one red schedule's artifact.
fn artifact_dump(label: &str, art: &Artifact) -> (String, String) {
    (format!("sim/offending_schedule_{label}_{}.json", art.seed), art.to_json())
}

/// Run `schedules` schedules from `base.seed` on; a red one is shrunk,
/// replayed to confirm, and dumped.
pub fn explore(base: &ScheduleSpec, schedules: u64) -> Outcome {
    let first = base.seed;
    let mut report =
        Report::new("sim_explore", "deterministic simulation: seeded schedule exploration");
    report.remark(format!(
        "{schedules} {} schedules (shards={}, replicas={}) from seed {first}, fence {}",
        base.scenario.label(),
        base.shards,
        base.replicas,
        if base.fence { "on" } else { "DISABLED (deliberate bug)" }
    ));

    let mut out = Outcome::default();
    let mut red = 0u64;
    let mut total_steps = 0u64;
    let mut acked = 0u64;
    let mut repaired = 0u64;
    let mut truncated = 0u64;
    for seed in first..first + schedules {
        let spec = ScheduleSpec { seed, ..base.clone() };
        let run = run_schedule(&spec);
        total_steps += run.steps.len() as u64;
        acked += run.acked as u64;
        repaired += u64::from(run.repair_ok);
        truncated += u64::from(run.truncated);
        if let Some(art) = run.artifact() {
            red += 1;
            eprintln!("RED seed={seed}: {}", art.reason);
            let shrunk = Artifact { steps: shrink_failure(&spec, &art), ..art.clone() };
            eprintln!(
                "  shrunk {} -> {} steps; replaying to confirm",
                art.steps.len(),
                shrunk.steps.len()
            );
            let final_art = match replay_schedule(&spec, &shrunk).map(|run| run.failure) {
                Ok(Some(reason)) => Artifact { reason, ..shrunk },
                _ => art,
            };
            out.dumps.push(artifact_dump(spec.scenario.label(), &final_art));
        }
    }

    println!(
        "explored {schedules} schedules (seed {first}..{}): {red} red, \
         {repaired} repaired, {acked} acked requests, {total_steps} steps, \
         {truncated} truncated",
        first + schedules - 1
    );
    report
        .note("schedules", schedules as f64)
        .note("base_seed", first as f64)
        .note("red", red as f64)
        .note("repaired", repaired as f64)
        .note("acked", acked as f64)
        .note("steps", total_steps as f64)
        .note("truncated", truncated as f64);
    out.require(red == 0, format!("{red} of {schedules} schedules red"));
    out.reports.push(report);
    out
}

/// Re-execute the artifact at `path` under `spec` (whose seed is
/// replaced by the artifact's). Fails when the recorded failure does
/// not reproduce; an unreadable artifact or one recorded under another
/// instance set is an input error.
pub fn replay(spec: &ScheduleSpec, path: &str) -> Result<Outcome, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let art = Artifact::from_json(&text).ok_or(format!("{path}: not a schedule artifact"))?;
    let spec = ScheduleSpec { seed: art.seed, ..spec.clone() };
    let run = replay_schedule(&spec, &art).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "replayed seed {} ({} recorded steps, {:.1}ms virtual)",
        art.seed,
        art.steps.len(),
        run.virtual_ms
    );
    let mut out = Outcome::default();
    match run.failure {
        Some(reason) => println!("failure reproduced: {reason} (recorded: {})", art.reason),
        None => out.failures.push(format!("failure did NOT reproduce (recorded: {})", art.reason)),
    }
    Ok(out)
}

fn print_dfs_line(label: &str, stats: &DfsStats) {
    println!(
        "{label}: {} schedules, {} nodes, {} states, {} sleep-skipped, \
         {} hash-pruned, complete={}, red={}",
        stats.schedules,
        stats.nodes,
        stats.states,
        stats.sleep_skipped,
        stats.hash_pruned,
        stats.complete,
        stats.failures.len()
    );
}

/// Exhaust `spec`'s schedule tree at `budget` steps. With `naive_cap`,
/// also run the no-reduction baseline (capped at that many schedules:
/// stateless re-execution pays a full runtime boot per schedule) and
/// report the reduction factor; a capped naive run is still a fair
/// lower bound on it.
pub fn dfs(spec: &ScheduleSpec, budget: usize, naive_cap: Option<usize>) -> Outcome {
    let spec = spec.clone().with_budget(budget);
    let mut report =
        Report::new("sim_dfs", "deterministic simulation: exhaustive schedule exploration");
    report.remark(format!(
        "{} (shards={}, replicas={}) exhaustive at budget {budget}",
        spec.scenario.label(),
        spec.shards,
        spec.replicas
    ));

    let mut out = Outcome::default();
    let full = dfs_schedule(&spec, &DfsConfig::default());
    print_dfs_line("reduced", &full);
    for art in &full.failures {
        eprintln!("RED: {}", art.reason);
        out.dumps.push(artifact_dump(spec.scenario.label(), art));
    }
    report
        .note("budget", budget as f64)
        .note("schedules", full.schedules as f64)
        .note("nodes", full.nodes as f64)
        .note("states", full.states as f64)
        .note("sleep_skipped", full.sleep_skipped as f64)
        .note("hash_pruned", full.hash_pruned as f64)
        .note("complete", f64::from(full.complete))
        .note("red", full.failures.len() as f64);

    if let Some(cap) = naive_cap {
        let naive = dfs_schedule(
            &spec,
            &DfsConfig { sleep_sets: false, hash_prune: false, max_schedules: cap },
        );
        print_dfs_line("naive", &naive);
        let factor = naive.schedules as f64 / full.schedules.max(1) as f64;
        println!("reduction factor: {factor:.1}x fewer schedules than naive DFS");
        report
            .note("naive_schedules", naive.schedules as f64)
            .note("naive_complete", f64::from(naive.complete))
            .note("reduction_factor", factor);
    }
    out.require(full.failures.is_empty(), format!("{} red schedules", full.failures.len()));
    out.reports.push(report);
    out
}

/// Sweep every `scenarios` × shards `1..=max_n` × replicas `1..=max_k`
/// cell: exhaustive DFS at `budget`, then `walk` random-walk schedules
/// from seed `base` on, round-robined over the cells at each cell's
/// full budget.
pub fn grid(
    scenarios: &[Scenario],
    budget: usize,
    max_n: usize,
    max_k: usize,
    walk: u64,
    base: u64,
    buggy: bool,
) -> Outcome {
    let mut report =
        Report::new("sim_grid", "deterministic simulation: small-model (shards x replicas) sweep");
    report.remark(format!(
        "scenarios {:?}, shards 1..={max_n}, replicas 1..={max_k}, \
         exhaustive budget {budget}, {walk} random-walk schedules",
        scenarios.iter().map(|s| s.label()).collect::<Vec<_>>()
    ));

    // Phase 1: exhaustive DFS per grid cell at the small step budget.
    let mut out = Outcome::default();
    let mut cells: Vec<ScheduleSpec> = Vec::new();
    let mut red = 0u64;
    let mut schedules = 0u64;
    let mut states = 0u64;
    let mut incomplete = 0u64;
    for &sc in scenarios {
        for n in 1..=max_n {
            for k in 1..=max_k {
                let mut spec = ScheduleSpec::new(sc, n, k, base);
                if buggy {
                    spec = spec.with_fence_off();
                }
                let stats = dfs_schedule(&spec.clone().with_budget(budget), &DfsConfig::default());
                print_dfs_line(&format!("dfs {}[n={n},k={k}]", sc.label()), &stats);
                red += stats.failures.len() as u64;
                schedules += stats.schedules;
                states += stats.states;
                incomplete += u64::from(!stats.complete);
                for art in &stats.failures {
                    eprintln!("RED {}[n={n},k={k}]: {}", sc.label(), art.reason);
                    out.dumps.push(artifact_dump(&format!("{}_n{n}k{k}", sc.label()), art));
                }
                cells.push(spec);
            }
        }
    }

    // Phase 2: seeded random walk at each cell's full budget/horizon,
    // seeds round-robined over the grid.
    let mut walk_red = 0u64;
    let mut walk_acked = 0u64;
    for i in 0..walk {
        let spec = &cells[(i % cells.len() as u64) as usize];
        let spec = ScheduleSpec { seed: base + i, ..spec.clone() };
        let run = run_schedule(&spec);
        walk_acked += run.acked as u64;
        if let Some(art) = run.artifact() {
            walk_red += 1;
            let cell = format!("{}_n{}k{}", spec.scenario.label(), spec.shards, spec.replicas);
            eprintln!("RED walk {cell} seed={}: {}", spec.seed, art.reason);
            out.dumps.push(artifact_dump(&cell, &art));
        }
    }

    println!(
        "grid: {} cells, {schedules} exhaustive schedules ({states} states, \
         {incomplete} cells over budget ceiling), {red} red; \
         walk: {walk} schedules, {walk_red} red, {walk_acked} acked",
        cells.len()
    );
    report
        .note("cells", cells.len() as f64)
        .note("budget", budget as f64)
        .note("dfs_schedules", schedules as f64)
        .note("dfs_states", states as f64)
        .note("dfs_incomplete", incomplete as f64)
        .note("dfs_red", red as f64)
        .note("walk_schedules", walk as f64)
        .note("walk_red", walk_red as f64)
        .note("walk_acked", walk_acked as f64);
    out.require(red + walk_red == 0, format!("{red} exhaustive and {walk_red} walk schedules red"));
    out.reports.push(report);
    out
}

/// Run `spec` with its fence off: the oracle must go red, the shrunk
/// schedule must survive a JSON round trip, and replaying it must
/// reproduce the failure.
pub fn demo_bug(spec: &ScheduleSpec) -> Outcome {
    let spec = spec.clone().with_fence_off();
    let seed = spec.seed;
    let mut out = Outcome::default();
    let Some(art) = run_schedule(&spec).artifact() else {
        out.failures.push(format!(
            "seed {seed}: fence-off {} schedule stayed green — no detection?",
            spec.scenario.label()
        ));
        return out;
    };
    println!("seed {seed} red as expected: {}", art.reason);
    let shrunk = shrink_failure(&spec, &art);
    println!("shrunk {} -> {} steps", art.steps.len(), shrunk.len());
    let json = Artifact { steps: shrunk, ..art }.to_json();
    let back = Artifact::from_json(&json).expect("artifact roundtrip");
    match replay_schedule(&spec, &back).map(|run| run.failure) {
        Ok(Some(reason)) => println!("replay-from-JSON reproduces: {reason}"),
        Ok(None) => out.failures.push("replay-from-JSON went green — shrink unsound".into()),
        Err(e) => out.failures.push(format!("replay-from-JSON refused: {e}")),
    }
    out
}
