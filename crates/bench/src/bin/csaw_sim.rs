//! Deterministic simulation driver: explore seeded schedules of the
//! parametric scenario family, replay recorded failure artifacts,
//! exhaustively enumerate small-model schedule trees, and demonstrate
//! the oracles on the deliberate fence-off bugs.
//!
//! ```text
//! csaw_sim explore [--scenario S] [--shards N] [--replicas K]
//!                  [--schedules N] [--seed S] [--buggy]
//! csaw_sim replay <artifact.json> [--scenario S] [--shards N]
//!                  [--replicas K] [--buggy]
//! csaw_sim dfs [--scenario S] [--shards N] [--replicas K] [--seed S]
//!                  [--budget STEPS] [--compare] [--naive-cap N] [--buggy]
//! csaw_sim grid [--scenario S|all] [--budget STEPS] [--max-shards N]
//!                  [--max-replicas K] [--walk N] [--seed S] [--buggy]
//! csaw_sim demo-bug [--scenario S] [--shards N] [--replicas K] [--seed S]
//! ```
//!
//! `explore` runs N schedules from consecutive seeds (base from
//! `--seed`, `CSAW_SEED`, or 1) and exits non-zero if any schedule goes
//! red; each red schedule is shrunk and written to
//! `results/sim/offending_schedule_<label>_<seed>.json` for `replay`.
//! `replay` re-executes an artifact byte-for-byte and reports whether
//! the recorded failure reproduces. `dfs` exhaustively enumerates one
//! scenario's schedule tree at a small step budget (with `--compare`,
//! it also runs the naive no-reduction baseline and reports the
//! reduction factor). `grid` sweeps the small model (shards × replicas)
//! per scenario — exhaustive DFS at the small budget, then a seeded
//! random walk at each scenario's full budget. `demo-bug` runs one
//! schedule with the scenario's fence deliberately disabled: the oracle
//! must go red, shrink the schedule, and reproduce it from the JSON
//! artifact.

use csaw_bench::report::Report;
use csaw_bench::sim_runs::{
    dfs_schedule, replay_schedule, run_schedule, shrink_failure, Scenario, ScheduleSpec,
};
use csaw_runtime::{env_seed, Artifact, DfsConfig};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn arg_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    arg_value(args, flag).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn labels() -> String {
    Scenario::all().map(Scenario::label).join(" | ")
}

/// `--scenario`, parsed in one place: `None` when absent (or, where
/// `all_ok`, when `all`). An unknown name exits 2 with the list of
/// labels rather than quietly testing another family.
fn scenario_arg(args: &[String], all_ok: bool) -> Option<Scenario> {
    let name = arg_value(args, "--scenario")?;
    if all_ok && name == "all" {
        return None;
    }
    Some(Scenario::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown scenario `{name}`; scenarios: {}", labels());
        std::process::exit(2)
    }))
}

fn spec_for(args: &[String], seed: u64) -> ScheduleSpec {
    let scenario = scenario_arg(args, false).unwrap_or(Scenario::Failover);
    let shards = arg_num(args, "--shards", 1);
    let replicas = arg_num(args, "--replicas", 1);
    let spec = ScheduleSpec::new(scenario, shards, replicas, seed);
    if args.iter().any(|a| a == "--buggy") {
        spec.with_fence_off()
    } else {
        spec
    }
}

fn write_artifact(label: &str, art: &Artifact) {
    let path = format!("results/sim/offending_schedule_{label}_{}.json", art.seed);
    if std::fs::create_dir_all("results/sim")
        .and_then(|()| std::fs::write(&path, art.to_json()))
        .is_ok()
    {
        eprintln!("  artifact written to {path}");
    }
}

fn explore(args: &[String]) -> i32 {
    let schedules: u64 = arg_num(args, "--schedules", 100);
    let base = arg_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_seed(1));

    let probe = spec_for(args, base);
    let mut report = Report::new(
        "sim_explore",
        "deterministic simulation: seeded schedule exploration",
    );
    report.remark(format!(
        "{schedules} {} schedules (shards={}, replicas={}) from seed {base}, fence {}",
        probe.scenario.label(),
        probe.shards,
        probe.replicas,
        if probe.fence { "on" } else { "DISABLED (deliberate bug)" }
    ));

    let mut red = 0u64;
    let mut total_steps = 0u64;
    let mut acked = 0u64;
    let mut repaired = 0u64;
    let mut truncated = 0u64;
    for seed in base..base + schedules {
        let spec = spec_for(args, seed);
        let out = run_schedule(&spec);
        total_steps += out.steps.len() as u64;
        acked += out.acked as u64;
        repaired += u64::from(out.repair_ok);
        truncated += u64::from(out.truncated);
        if let Some(art) = out.artifact() {
            red += 1;
            eprintln!("RED seed={seed}: {}", art.reason);
            let shrunk = Artifact { steps: shrink_failure(&spec, &art), ..art.clone() };
            eprintln!(
                "  shrunk {} -> {} steps; replaying to confirm",
                art.steps.len(),
                shrunk.steps.len()
            );
            let final_art = match replay_schedule(&spec, &shrunk).map(|out| out.failure) {
                Ok(Some(reason)) => Artifact { reason, ..shrunk },
                _ => art,
            };
            write_artifact(spec.scenario.label(), &final_art);
        }
    }

    println!(
        "explored {schedules} schedules (seed {base}..{}): {red} red, \
         {repaired} repaired, {acked} acked requests, {total_steps} steps, \
         {truncated} truncated",
        base + schedules - 1
    );
    report
        .note("schedules", schedules as f64)
        .note("base_seed", base as f64)
        .note("red", red as f64)
        .note("repaired", repaired as f64)
        .note("acked", acked as f64)
        .note("steps", total_steps as f64)
        .note("truncated", truncated as f64);
    report.finish();
    i32::from(red > 0)
}

fn replay(args: &[String]) -> i32 {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: csaw_sim replay <artifact.json> [options]");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let Some(art) = Artifact::from_json(&text) else {
        eprintln!("{path}: not a schedule artifact");
        return 2;
    };
    let spec = spec_for(args, art.seed);
    let out = match replay_schedule(&spec, &art) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
    };
    println!(
        "replayed seed {} ({} recorded steps, {:.1}ms virtual)",
        art.seed,
        art.steps.len(),
        out.virtual_ms
    );
    match out.failure {
        Some(reason) => {
            println!("failure reproduced: {reason} (recorded: {})", art.reason);
            0
        }
        None => {
            println!("failure did NOT reproduce (recorded: {})", art.reason);
            1
        }
    }
}

fn print_dfs_line(label: &str, stats: &csaw_runtime::DfsStats) {
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

fn dfs(args: &[String]) -> i32 {
    let seed = arg_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_seed(1));
    let budget: usize = arg_num(args, "--budget", 12);
    let spec = spec_for(args, seed).with_budget(budget);

    let mut report =
        Report::new("sim_dfs", "deterministic simulation: exhaustive schedule exploration");
    report.remark(format!(
        "{} (shards={}, replicas={}) exhaustive at budget {budget}",
        spec.scenario.label(),
        spec.shards,
        spec.replicas
    ));

    let full = dfs_schedule(&spec, &DfsConfig::default());
    print_dfs_line("reduced", &full);
    for art in &full.failures {
        eprintln!("RED: {}", art.reason);
        write_artifact(spec.scenario.label(), art);
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

    if args.iter().any(|a| a == "--compare") {
        // Stateless re-execution makes naive DFS pay a full runtime
        // boot per schedule; `--naive-cap` bounds its wall-clock on
        // scenarios whose boot is expensive (fail-over spawns
        // heartbeat threads). A capped, incomplete naive run is still
        // a fair lower bound on the reduction factor.
        let naive_cap: usize = arg_num(args, "--naive-cap", 100_000);
        let naive = dfs_schedule(
            &spec,
            &DfsConfig { sleep_sets: false, hash_prune: false, max_schedules: naive_cap },
        );
        print_dfs_line("naive", &naive);
        let factor = naive.schedules as f64 / full.schedules.max(1) as f64;
        println!("reduction factor: {factor:.1}x fewer schedules than naive DFS");
        report
            .note("naive_schedules", naive.schedules as f64)
            .note("naive_complete", f64::from(naive.complete))
            .note("reduction_factor", factor);
    }
    report.finish();
    i32::from(!full.failures.is_empty())
}

fn grid(args: &[String]) -> i32 {
    let budget: usize = arg_num(args, "--budget", 12);
    let max_n: usize = arg_num(args, "--max-shards", 4);
    let max_k: usize = arg_num(args, "--max-replicas", 3);
    let walk: u64 = arg_num(args, "--walk", 1000);
    let base = arg_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_seed(1));
    if max_n == 0 || max_k == 0 {
        eprintln!("--max-shards and --max-replicas must be at least 1");
        return 2;
    }
    let buggy = args.iter().any(|a| a == "--buggy");
    let scenarios = scenario_arg(args, true).map_or(Scenario::all().to_vec(), |sc| vec![sc]);

    let mut report =
        Report::new("sim_grid", "deterministic simulation: small-model (shards x replicas) sweep");
    report.remark(format!(
        "scenarios {:?}, shards 1..={max_n}, replicas 1..={max_k}, \
         exhaustive budget {budget}, {walk} random-walk schedules",
        scenarios.iter().map(|s| s.label()).collect::<Vec<_>>()
    ));

    // Phase 1: exhaustive DFS per grid cell at the small step budget.
    let mut cells: Vec<ScheduleSpec> = Vec::new();
    let mut red = 0u64;
    let mut schedules = 0u64;
    let mut states = 0u64;
    let mut incomplete = 0u64;
    for &sc in &scenarios {
        for n in 1..=max_n {
            for k in 1..=max_k {
                let mut spec = ScheduleSpec::new(sc, n, k, base);
                if buggy {
                    spec = spec.with_fence_off();
                }
                let stats = dfs_schedule(&spec.clone().with_budget(budget), &DfsConfig::default());
                println!(
                    "dfs {}[n={n},k={k}]: {} schedules, {} states, {} sleep-skipped, \
                     {} hash-pruned, complete={}, red={}",
                    sc.label(),
                    stats.schedules,
                    stats.states,
                    stats.sleep_skipped,
                    stats.hash_pruned,
                    stats.complete,
                    stats.failures.len()
                );
                red += stats.failures.len() as u64;
                schedules += stats.schedules;
                states += stats.states;
                incomplete += u64::from(!stats.complete);
                for art in &stats.failures {
                    eprintln!("RED {}[n={n},k={k}]: {}", sc.label(), art.reason);
                    write_artifact(&format!("{}_n{n}k{k}", sc.label()), art);
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
        let out = run_schedule(&spec);
        walk_acked += out.acked as u64;
        if let Some(art) = out.artifact() {
            walk_red += 1;
            eprintln!(
                "RED walk {}[n={},k={}] seed={}: {}",
                spec.scenario.label(),
                spec.shards,
                spec.replicas,
                spec.seed,
                art.reason
            );
            write_artifact(
                &format!("{}_n{}k{}", spec.scenario.label(), spec.shards, spec.replicas),
                &art,
            );
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
    report.finish();
    i32::from(red + walk_red > 0)
}

fn demo_bug(args: &[String]) -> i32 {
    let seed = arg_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_seed(3));
    let spec = spec_for(args, seed).with_fence_off();
    let out = run_schedule(&spec);
    let Some(art) = out.artifact() else {
        eprintln!(
            "seed {seed}: fence-off {} schedule stayed green — no detection?",
            spec.scenario.label()
        );
        return 1;
    };
    println!("seed {seed} red as expected: {}", art.reason);
    let shrunk = shrink_failure(&spec, &art);
    println!("shrunk {} -> {} steps", art.steps.len(), shrunk.len());
    let json = Artifact { steps: shrunk, ..art }.to_json();
    let back = Artifact::from_json(&json).expect("artifact roundtrip");
    match replay_schedule(&spec, &back).map(|out| out.failure) {
        Ok(Some(reason)) => {
            println!("replay-from-JSON reproduces: {reason}");
            0
        }
        Ok(None) => {
            eprintln!("replay-from-JSON went green — shrink unsound");
            1
        }
        Err(e) => {
            eprintln!("replay-from-JSON refused: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("explore") => explore(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("dfs") => dfs(&args[1..]),
        Some("grid") => grid(&args[1..]),
        Some("demo-bug") => demo_bug(&args[1..]),
        _ => {
            eprintln!(
                "usage: csaw_sim explore [--scenario S] [--shards N] [--replicas K] \
                 [--schedules N] [--seed S] [--buggy]\n       \
                 csaw_sim replay <artifact.json> [--scenario S] [--shards N] [--replicas K] \
                 [--buggy]\n       \
                 csaw_sim dfs [--scenario S] [--shards N] [--replicas K] [--seed S] \
                 [--budget STEPS] [--compare] [--naive-cap N] [--buggy]\n       \
                 csaw_sim grid [--scenario S|all] [--budget STEPS] [--max-shards N] \
                 [--max-replicas K] [--walk N] [--seed S] [--buggy]\n       \
                 csaw_sim demo-bug [--scenario S] [--shards N] [--replicas K] [--seed S]\n\
                 scenarios: {}",
                labels()
            );
            2
        }
    };
    std::process::exit(code);
}
