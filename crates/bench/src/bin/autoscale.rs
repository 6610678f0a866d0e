//! Diurnal autoscale bench: drive the metrics gauges through a
//! six-stage day (low → peak → read-heavy → shard crash → write-heavy
//! → night) under sustained SET/GET traffic and let the metrics-driven
//! autoscaler plan and execute the matching reconfigurations — split
//! 2→4, cache-tier insertion, cache-tier removal, merge 4→2 — with a
//! supervisor-restarted shard crash in between. Reports to
//! `results/autoscale.json`.
//!
//! Exits non-zero if fewer than four transitions land, the executor's
//! `check_plan` refuses a plan, any phase exceeds the quiesce
//! bound, an acknowledged write is lost, a request is permanently
//! refused, the crash repair never verifies, or the recorded trace
//! fails cross-epoch conformance; the offending trace is dumped to
//! `results/autoscale_offending_trace.jsonl` for triage.
//!
//! `--smoke` (or `CSAW_AUTOSCALE_SMOKE=1`) compresses the traffic
//! holds for CI.

use csaw_bench::autoscale_runs::{knobs, run_diurnal};
use csaw_bench::report::Report;

fn main() {
    let smoke = csaw_bench::smoke_requested("CSAW_AUTOSCALE_SMOKE")
        || std::env::args().any(|a| a == "--smoke");
    let out = run_diurnal(knobs(smoke));

    let mut report = Report::new(
        "autoscale",
        "metrics-driven autoscaler: planner-driven reshard over a diurnal day",
    );
    report.remark(if smoke {
        "smoke run (compressed traffic holds)"
    } else {
        "full run"
    });
    report.remark(
        "six-stage diurnal model; every transition is planned under \
         max_concurrent_quiesce=1, independently validated by check_plan, \
         and executed as phased reconfigurations under live traffic",
    );
    for v in &out.validations {
        report.remark(format!("plan: {v}"));
    }

    for s in &out.stages {
        println!("{}", s.line());
    }
    println!(
        "day: {} transitions, max phase quiesce {}/{}, {} plans validated, \
         cache {}h/{}m, {} acked SETs ({} lost), {} refused, conformance {}",
        out.transitions,
        out.max_phase_quiesce,
        out.quiesce_bound,
        out.plans_validated,
        out.cache_hits,
        out.cache_misses,
        out.acked_sets,
        out.lost_acked_sets,
        out.refused,
        if out.conformance.ok { "ok" } else { "VIOLATED" },
    );
    out.note_into(&mut report);

    if !out.ok() {
        let path = "results/autoscale_offending_trace.jsonl";
        if std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(path, &out.trace_jsonl))
            .is_ok()
        {
            eprintln!("FAIL: trace dumped to {path}");
        }
        for f in &out.failures {
            eprintln!("  {f}");
        }
    }

    report.finish();
    if !out.ok() {
        std::process::exit(1);
    }
}
