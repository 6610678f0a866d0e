//! Open-loop overload storm bench: offered load (0.5×/1×/2×/4× of a
//! route's capacity) vs in-deadline goodput, with the transport's
//! overload controls (bounded outbox, deadline shedding) on vs off.
//! Reports to `results/overload.json`.
//!
//! Exits non-zero if, at 2× offered, the with-shedding configuration
//! holds less than 80% of saturation throughput, if the no-control
//! baseline fails to collapse below 50% (the comparison would be
//! vacuous), or if the controls never engaged at all.
//!
//! `--smoke` (or `CSAW_OVERLOAD_SMOKE=1`) compresses the per-point
//! holds for CI.

use csaw_bench::overload::{knobs, run_storm};
use csaw_bench::report::Report;

fn main() {
    let smoke = csaw_bench::smoke_requested("CSAW_OVERLOAD_SMOKE")
        || std::env::args().any(|a| a == "--smoke");
    let k = knobs(smoke);
    let out = run_storm(&k);

    let mut report = Report::new(
        "overload",
        "open-loop storm: offered load vs in-deadline goodput, shedding on vs off",
    );
    report.remark(if smoke { "smoke run (compressed holds)" } else { "full run" });
    report.remark(format!(
        "one saturable route, {} ms budget, outbox bound {}, open-loop pacing at \
         0.5x/1x/2x/4x of ~{:.0} units/s capacity; goodput counts only in-budget arrivals",
        k.budget.as_millis(),
        k.outbox_bound,
        k.unit_rate,
    ));

    for p in &out.with_shedding {
        println!("{}", p.line("shed on "));
    }
    for p in &out.without_shedding {
        println!("{}", p.line("shed off"));
    }
    println!(
        "saturation {:.1}/s; 2x offered: shedding holds {:.1}/s ({:.0}%), \
         no-control collapses to {:.1}/s ({:.0}%)",
        out.saturation,
        out.at(true, 2.0).goodput,
        100.0 * out.at(true, 2.0).goodput / out.saturation.max(1e-9),
        out.at(false, 2.0).goodput,
        100.0 * out.at(false, 2.0).goodput / out.saturation.max(1e-9),
    );

    report.series(
        "shedding on",
        "offered (x saturation)",
        "goodput (units/s in budget)",
        out.with_shedding.iter().map(|p| (p.mult, p.goodput)).collect(),
    );
    report.series(
        "shedding off",
        "offered (x saturation)",
        "goodput (units/s in budget)",
        out.without_shedding.iter().map(|p| (p.mult, p.goodput)).collect(),
    );
    report.series(
        "shedding on p99",
        "offered (x saturation)",
        "delivery p99 (ms)",
        out.with_shedding.iter().map(|p| (p.mult, p.p99_ms)).collect(),
    );
    report.series(
        "shedding off p99",
        "offered (x saturation)",
        "delivery p99 (ms)",
        out.without_shedding.iter().map(|p| (p.mult, p.p99_ms)).collect(),
    );
    out.note_into(&mut report);

    for f in &out.failures {
        eprintln!("FAIL: {f}");
    }
    report.finish();
    if !out.ok() {
        std::process::exit(1);
    }
}
