//! Self-healing MTTR bench: inject one fault per failure class (crash,
//! partition, slow-path crash-restore) under sustained traffic, let the
//! supervisor repair it, and report the measured MTTR split
//! (detect/repair/total) to `results/self_healing.json`.
//!
//! Exits non-zero if any scenario loses an acknowledged write,
//! permanently refuses a request, fails to serve traffic after the
//! repair, lets a fenced zombie's stale ack land, or fails cross-epoch
//! conformance; the offending trace is dumped to
//! `results/self_healing_offending_trace_<name>.jsonl` for triage.
//!
//! `--smoke` (or `CSAW_SELF_HEALING_SMOKE=1`) compresses the traffic
//! windows for CI.

use csaw_bench::report::Report;
use csaw_bench::self_healing::{knobs, run_all};

fn main() {
    let smoke = csaw_bench::smoke_requested("CSAW_SELF_HEALING_SMOKE")
        || std::env::args().any(|a| a == "--smoke");
    let outcomes = run_all(knobs(smoke));

    let mut report = Report::new(
        "self_healing",
        "self-healing supervisor: MTTR per failure class under traffic",
    );
    report.remark(if smoke {
        "smoke run (compressed traffic windows)"
    } else {
        "full run"
    });
    report.remark(
        "mttr_ms measures fault injection -> repair verified; detect_ms is \
         injection -> anomaly confirmed+planned (includes the detector's \
         silence window), repair_ms is plan -> verified convergence",
    );

    let mut failed = false;
    for o in &outcomes {
        println!("{}", o.line());
        o.note_into(&mut report);
        if !o.ok() {
            failed = true;
            let path = format!("results/self_healing_offending_trace_{}.jsonl", o.name);
            if std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(&path, &o.trace_jsonl))
                .is_ok()
            {
                eprintln!("FAIL {}: trace dumped to {path}", o.name);
            } else {
                eprintln!("FAIL {}: could not dump trace", o.name);
            }
            if !o.repair_ok {
                eprintln!("  repair never verified (class={}, action={})", o.class, o.action);
            }
            if o.lost_acked_sets > 0 {
                eprintln!("  {} acknowledged SETs lost", o.lost_acked_sets);
            }
            if o.refused > 0 {
                eprintln!("  {} requests permanently refused", o.refused);
            }
            if o.stale_applied {
                eprintln!("  a fenced zombie's stale ack landed (split-brain)");
            }
            if !o.conformance.ok {
                eprintln!("  cross-epoch violations:\n{}", o.conformance.detail);
            }
        }
    }

    report.finish();
    if failed {
        std::process::exit(1);
    }
}
