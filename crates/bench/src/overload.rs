//! Open-loop overload storm at the transport level: offered load vs
//! in-deadline goodput, with the overload controls on vs off.
//!
//! A single saturable route (`f → g`, simulated link with a serialization
//! bottleneck) is driven open-loop — the sender paces sends at a scripted
//! rate and never waits for completions — at multiples of the link's
//! capacity. Every unit carries its send timestamp; the receiver scores a
//! unit as *goodput* only if it arrives inside the end-to-end budget.
//!
//! Two transport configurations face the same storms:
//!
//! * **shedding on** — bounded outbox (admission control), deadline
//!   shedding, no blind retries: work the link cannot serve in time is
//!   refused or shed *early*, so what is admitted arrives in budget.
//! * **shedding off** — unbounded queues, deadlines ignored: every unit
//!   is accepted and eventually delivered, but once the backlog exceeds
//!   the budget's worth of wire time, *everything* arrives late. Offered
//!   load past saturation collapses goodput toward zero — the classic
//!   congestion collapse the overload layer exists to prevent.
//!
//! [`command`] gates on the two headline ratios (see [`StormOutcome::ok`]):
//! with shedding, goodput at 2× offered must hold ≥ 80% of saturation
//! throughput; without, it must collapse below 50% — otherwise the
//! comparison is vacuous and the run fails.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csaw_core::value::Value;
use csaw_kv::Update;
use csaw_runtime::cell::JunctionId;
use csaw_runtime::transport::{DeliverFn, Network, SendError};
use csaw_runtime::{LinkKind, OverloadConfig, RetryPolicy};

use crate::report::{Outcome, Report};

/// Storm parameters. [`knobs`] builds the standard set; `--smoke`
/// compresses the per-point hold for CI.
#[derive(Clone, Debug)]
pub struct StormKnobs {
    /// Wall-clock seconds each (multiplier, config) point is driven.
    pub secs: f64,
    /// End-to-end budget a unit must meet to count as goodput.
    pub budget: Duration,
    /// Simulated link serialization bandwidth (bytes/s). One unit is
    /// ~36 wire bytes, so 40 kB/s puts capacity near 1000 units/s.
    pub bandwidth: u64,
    /// One-way link latency.
    pub latency: Duration,
    /// Nominal saturation rate (units/s) the multipliers scale.
    pub unit_rate: f64,
    /// Offered-load multipliers (× `unit_rate`).
    pub multipliers: Vec<f64>,
    /// Outbox bound for the shedding-on configuration.
    pub outbox_bound: usize,
}

/// Standard knobs; `smoke` compresses each point's hold for CI.
pub fn knobs(smoke: bool) -> StormKnobs {
    StormKnobs {
        secs: if smoke { 0.35 } else { 1.5 },
        budget: Duration::from_millis(25),
        bandwidth: 40_000,
        latency: Duration::from_millis(2),
        unit_rate: 1_000.0,
        multipliers: vec![0.5, 1.0, 2.0, 4.0],
        outbox_bound: 16,
    }
}

/// One (offered multiplier, configuration) measurement.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// Offered multiplier (× saturation).
    pub mult: f64,
    /// Units the pacing loop attempted to send.
    pub offered: u64,
    /// Sends the transport accepted.
    pub admitted: u64,
    /// Sends refused at admission (`QueueFull` + predicted-late).
    pub refused: u64,
    /// Deliveries shed in flight (expired at dispatch/dequeue).
    pub shed: u64,
    /// Units delivered at all.
    pub delivered: usize,
    /// Units delivered inside the budget.
    pub in_deadline: usize,
    /// In-deadline units per second — the goodput score.
    pub goodput: f64,
    /// Median delivery latency (ms) over everything delivered.
    pub p50_ms: f64,
    /// Tail delivery latency (ms) over everything delivered.
    pub p99_ms: f64,
}

impl PointOutcome {
    /// One human-readable result row.
    pub fn line(&self, label: &str) -> String {
        format!(
            "{label} {:>4.1}x: offered {:>5}, admitted {:>5}, refused {:>5}, shed {:>4}, \
             in-deadline {:>5} ({:>7.1}/s), p50 {:>7.2} ms, p99 {:>8.2} ms",
            self.mult,
            self.offered,
            self.admitted,
            self.refused,
            self.shed,
            self.in_deadline,
            self.goodput,
            self.p50_ms,
            self.p99_ms,
        )
    }
}

/// Drive one storm point: pace `mult × unit_rate` sends/s at the
/// transport for `knobs.secs`, then collect the tail and score.
pub fn run_point(shedding: bool, mult: f64, k: &StormKnobs) -> PointOutcome {
    // The receiver records (send-stamp, latency) pairs; the stamp is
    // carried in the unit itself so the scorer needs no side channel.
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&latencies);
    let epoch = Instant::now();
    let deliver: DeliverFn = Arc::new(move |_to: &JunctionId, u: Update| {
        if let csaw_kv::UpdateKind::Data(Value::Int(sent_us)) = u.kind {
            let now_us = epoch.elapsed().as_micros() as i64;
            sink.lock().unwrap().push(now_us.saturating_sub(sent_us).max(0) as u64);
        }
    });
    let net = Network::new(deliver);
    net.set_link("f", "g", LinkKind::Sim { latency: k.latency, bandwidth: k.bandwidth });
    // Open-loop fail-fast: a refused send is counted and dropped, never
    // blocked on — retry amplification is the sim scenarios' subject.
    net.set_retry_policy(RetryPolicy::disabled());
    if shedding {
        net.set_overload(OverloadConfig {
            outbox_bound: k.outbox_bound,
            shed_expired: true,
            ..Default::default()
        });
    } else {
        // Fully permissive: unbounded queues, deadlines ignored.
        net.set_overload(OverloadConfig::default());
    }
    let to = JunctionId::new("g", "junction");

    let rate = mult * k.unit_rate;
    let mut offered = 0u64;
    let mut admitted = 0u64;
    let mut refused = 0u64;
    while epoch.elapsed().as_secs_f64() < k.secs {
        let due = (epoch.elapsed().as_secs_f64() * rate) as u64;
        while offered < due {
            offered += 1;
            let sent_us = epoch.elapsed().as_micros() as i64;
            let u = Update::data("n", Value::Int(sent_us), "f::j");
            let deadline = shedding.then(|| Instant::now() + k.budget);
            match net.send_with_deadline("f", &to, u, deadline) {
                Ok(()) => admitted += 1,
                Err(SendError::QueueFull) | Err(SendError::DeadlineExpired) => refused += 1,
                Err(e) => panic!("storm send failed unexpectedly: {e}"),
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    // Let in-budget stragglers land. The no-control backlog can take
    // much longer to drain, but by construction everything still queued
    // past this point is already over budget.
    std::thread::sleep(k.budget + Duration::from_millis(150));

    let mut lat = latencies.lock().unwrap().clone();
    lat.sort_unstable();
    let budget_us = k.budget.as_micros() as u64;
    let delivered = lat.len();
    let in_deadline = lat.iter().filter(|&&l| l <= budget_us).count();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() - 1) as f64 * p).round() as usize;
        lat[idx] as f64 / 1_000.0
    };
    let stats = net.stats();
    net.shutdown();
    PointOutcome {
        mult,
        offered,
        admitted,
        refused,
        shed: stats.shed,
        delivered,
        in_deadline,
        goodput: in_deadline as f64 / k.secs,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// The full sweep: every multiplier under both configurations, plus the
/// acceptance gates.
#[derive(Clone, Debug)]
pub struct StormOutcome {
    /// Shedding-on points, one per multiplier.
    pub with_shedding: Vec<PointOutcome>,
    /// Shedding-off points, one per multiplier.
    pub without_shedding: Vec<PointOutcome>,
    /// Saturation throughput: shedding-on goodput at 1× offered.
    pub saturation: f64,
    /// Gate violations (empty ⇔ the run passes).
    pub failures: Vec<String>,
}

impl StormOutcome {
    /// True iff every acceptance gate held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The point at `mult` from one side of the comparison.
    pub fn at(&self, shedding: bool, mult: f64) -> &PointOutcome {
        let side = if shedding { &self.with_shedding } else { &self.without_shedding };
        side.iter()
            .find(|p| (p.mult - mult).abs() < 1e-9)
            .expect("multiplier was swept")
    }

    /// Push the headline numbers into a [`Report`] as notes (the CI
    /// gate re-reads these with `read_notes`).
    pub fn note_into(&self, report: &mut Report) {
        report.note("saturation_goodput_per_s", self.saturation);
        for p in &self.with_shedding {
            report.note(&format!("shed_on_{}x_goodput_per_s", p.mult), p.goodput);
        }
        for p in &self.without_shedding {
            report.note(&format!("shed_off_{}x_goodput_per_s", p.mult), p.goodput);
        }
        let on2 = self.at(true, 2.0);
        let off2 = self.at(false, 2.0);
        if self.saturation > 0.0 {
            report.note("shed_on_2x_vs_saturation", on2.goodput / self.saturation);
            report.note("shed_off_2x_vs_saturation", off2.goodput / self.saturation);
        }
        report.note("shed_on_2x_refused", on2.refused as f64);
        report.note("shed_on_2x_shed", on2.shed as f64);
        report.note("shed_off_2x_p99_ms", off2.p99_ms);
        report.note("ok", if self.ok() { 1.0 } else { 0.0 });
    }
}

/// Run the full storm sweep and evaluate the acceptance gates.
pub fn run_storm(k: &StormKnobs) -> StormOutcome {
    let (mut with_shedding, mut without_shedding) = (Vec::new(), Vec::new());
    for &mult in &k.multipliers {
        with_shedding.push(run_point(true, mult, k));
        without_shedding.push(run_point(false, mult, k));
    }
    let mut out =
        StormOutcome { with_shedding, without_shedding, saturation: 0.0, failures: Vec::new() };
    let saturation = out.at(true, 1.0).goodput;
    let (on2, off2) = (out.at(true, 2.0), out.at(false, 2.0));
    let mut failures = Vec::new();
    if saturation <= 0.0 {
        failures.push("saturation throughput is zero — the storm never delivered".into());
    } else {
        if on2.goodput < 0.80 * saturation {
            failures.push(format!(
                "graceful degradation failed: with shedding, 2x offered held only \
                 {:.1}/s of {saturation:.1}/s saturation (< 80%)",
                on2.goodput
            ));
        }
        if off2.goodput >= 0.50 * saturation {
            failures.push(format!(
                "no-control baseline failed to collapse: {:.1}/s of {saturation:.1}/s \
                 at 2x offered (≥ 50%) — the comparison is vacuous",
                off2.goodput
            ));
        }
    }
    if on2.refused + on2.shed == 0 {
        failures.push("overload controls never engaged at 2x offered — vacuous".into());
    }
    out.saturation = saturation;
    out.failures = failures;
    out
}

/// The `overload` command: the storm sweep into
/// `results/overload.json`. The run fails if, at 2× offered, shedding
/// holds less than 80% of saturation goodput, if the no-control
/// baseline does not collapse below 50% (the comparison would be
/// vacuous), or if the controls never engaged.
pub fn command(smoke: bool) -> Outcome {
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
    for (side, points) in [("on", &out.with_shedding), ("off", &out.without_shedding)] {
        report.series(
            &format!("shedding {side}"),
            "offered (x saturation)",
            "goodput (units/s in budget)",
            points.iter().map(|p| (p.mult, p.goodput)).collect(),
        );
    }
    for (side, points) in [("on", &out.with_shedding), ("off", &out.without_shedding)] {
        report.series(
            &format!("shedding {side} p99"),
            "offered (x saturation)",
            "delivery p99 (ms)",
            points.iter().map(|p| (p.mult, p.p99_ms)).collect(),
        );
    }
    out.note_into(&mut report);
    Outcome { reports: vec![report], failures: out.failures, dumps: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One compressed shedding-on point past saturation: admission
    /// control must engage, and what it admits must land in budget.
    #[test]
    fn storm_point_sheds_and_still_delivers() {
        let mut k = knobs(true);
        k.secs = 0.25;
        let p = run_point(true, 2.0, &k);
        assert!(p.offered > 0, "pacing loop sent nothing");
        assert!(
            p.refused + p.shed > 0,
            "2x offered never engaged the overload controls: {p:?}"
        );
        assert!(p.in_deadline > 0, "no unit landed inside the budget: {p:?}");
    }
}
