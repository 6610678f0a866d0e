//! Live-reconfiguration downtime bench: four hot-swap transitions of
//! the mini-redis architectures under sustained traffic, reporting the
//! pause window, dropped/retried requests and migrated state to
//! `results/reconfig_downtime.json`.
//!
//! Exits non-zero if any transition loses an acknowledged write,
//! permanently refuses a request, fails cross-epoch conformance, or
//! pauses the unaffected-instance path beyond a generous CI bound; the
//! offending trace is dumped to
//! `results/reconfig_offending_trace_<name>.jsonl` for triage.
//!
//! `--smoke` (or `CSAW_RECONFIG_SMOKE=1`) compresses the traffic
//! windows for CI.

use std::time::Duration;

use csaw_bench::reconfig_runs::{knobs, run_all};
use csaw_bench::report::Report;

/// The bystander path typically shows sub-millisecond gaps; the bound
/// only exists to catch a reintroduced global pause, so it is set far
/// above scheduler noise on loaded CI machines.
const BYSTANDER_BOUND: Duration = Duration::from_millis(250);

fn main() {
    let smoke = csaw_bench::smoke_requested("CSAW_RECONFIG_SMOKE")
        || std::env::args().any(|a| a == "--smoke");
    let outcomes = run_all(knobs(smoke));

    let mut report = Report::new(
        "reconfig_downtime",
        "live reconfiguration under traffic: pause, retries, migrated state",
    );
    report.remark(if smoke {
        "smoke run (compressed traffic windows)"
    } else {
        "full run"
    });
    report.remark(
        "bystander_gap_us is the probe's worst read gap on a never-quiesced \
         instance during the transition; typical values are sub-millisecond \
         and the failure bound (250ms) only guards against a global pause",
    );

    let mut failed = false;
    for o in &outcomes {
        println!("{}", o.line());
        o.note_into(&mut report);
        if !o.ok() || !o.bystander_pause_small(BYSTANDER_BOUND) {
            failed = true;
            let path = format!("results/reconfig_offending_trace_{}.jsonl", o.name);
            if std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(&path, &o.trace_jsonl))
                .is_ok()
            {
                eprintln!("FAIL {}: trace dumped to {path}", o.name);
            } else {
                eprintln!("FAIL {}: could not dump trace", o.name);
            }
            if !o.conformance.ok {
                eprintln!("  cross-epoch violations:\n{}", o.conformance.detail);
            }
            if o.lost_acked_sets > 0 {
                eprintln!("  {} acknowledged SETs lost", o.lost_acked_sets);
            }
            if o.refused > 0 {
                eprintln!("  {} requests permanently refused", o.refused);
            }
            if !o.bystander_pause_small(BYSTANDER_BOUND) {
                eprintln!(
                    "  bystander {} saw a {}us gap (> {}ms bound)",
                    o.bystander,
                    o.bystander_gap_us,
                    BYSTANDER_BOUND.as_millis()
                );
            }
        }
    }

    report.finish();
    if failed {
        std::process::exit(1);
    }
}
