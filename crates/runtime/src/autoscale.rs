//! Metrics-driven autoscaling: close the loop from the metrics
//! registry back into planned reconfigurations.
//!
//! The supervisor reacts to *failures*; the autoscaler reacts to
//! *load*. A service loop samples two gauges from the runtime's
//! [`crate::metrics::Metrics`] registry — the offered request rate and
//! the read fraction — and derives a desired [`AutoscaleGoal`]: how
//! many shards the backend set should have and whether a cache tier
//! should sit in front of it. Goal changes are debounced through the
//! supervisor's factored-out anti-flapping machinery
//! ([`crate::supervisor::AntiFlap`]): a desired goal must persist
//! `confirm_polls` consecutive samples before it fires, and after a
//! transition the loop holds fire for `cooldown` — a noisy minute at
//! the split watermark cannot saw the system back and forth.
//!
//! When a goal confirms, the loop asks the caller-supplied
//! [`AutoscaleDriver`] for the compiled program realizing it, plans the
//! transition under the configured [`PlanConstraints`] via
//! `csaw_core::plan::plan_reconfiguration`, and executes it phase by
//! phase through [`crate::Runtime::reconfigure_plan`], which checks the
//! plan before running it. Every phase that cuts joins
//! [`crate::Runtime::epoch_chain`], so a trace spanning the
//! autoscaler's lifetime checks as one epoch chain.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use csaw_core::plan::{plan_reconfiguration, PlanConstraints, PlanPhase};
use csaw_core::program::CompiledProgram;

use crate::reconfig::{PlanReport, ReconfigSpec};
use crate::runtime::Runtime;
use crate::supervisor::{AntiFlap, ControlShared};

/// What the autoscaler wants the architecture to look like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoscaleGoal {
    /// Number of backend shards.
    pub shards: usize,
    /// Whether a cache tier fronts the shards.
    pub cache: bool,
}

/// Autoscaler tuning: which gauges to read, where the watermarks sit,
/// and how aggressively to debounce.
#[derive(Clone)]
pub struct AutoscaleConfig {
    /// Sampling period.
    pub poll: Duration,
    /// Gauge holding the offered request rate (requests/second).
    pub rate_gauge: String,
    /// Gauge holding the read fraction of the offered load (0..=1).
    pub read_fraction_gauge: String,
    /// Split when per-shard rate exceeds this (requests/second/shard).
    pub split_above: f64,
    /// Merge when per-shard rate falls below this. Keep well under
    /// `split_above / 2`: after a 2× split the per-shard rate halves,
    /// so a merge watermark above half the split watermark oscillates.
    pub merge_below: f64,
    /// Insert the cache tier when the read fraction reaches this.
    pub cache_above: f64,
    /// Remove the cache tier when the read fraction falls below this.
    pub cache_below: f64,
    /// Consecutive samples a changed goal must persist before a
    /// transition fires (hysteresis).
    pub confirm_polls: u32,
    /// Hold-fire window after each transition (anti-flapping).
    pub cooldown: Duration,
    /// Smallest shard count the scaler will merge down to.
    pub min_shards: usize,
    /// Largest shard count the scaler will split up to.
    pub max_shards: usize,
    /// Constraints every planned transition must satisfy.
    pub constraints: PlanConstraints,
}

impl Default for AutoscaleConfig {
    fn default() -> AutoscaleConfig {
        AutoscaleConfig {
            poll: Duration::from_millis(50),
            rate_gauge: "offered_rate".into(),
            read_fraction_gauge: "read_fraction".into(),
            split_above: 100_000.0,
            merge_below: 30_000.0,
            cache_above: 0.8,
            cache_below: 0.5,
            confirm_polls: 2,
            cooldown: Duration::from_millis(500),
            min_shards: 2,
            max_shards: 8,
            constraints: PlanConstraints::max_quiesce(1),
        }
    }
}

/// The application half of the autoscaler: how a goal becomes a
/// program, and how each plan phase gets its spec.
pub trait AutoscaleDriver: Send + Sync {
    /// The compiled program realizing `goal`.
    fn program(&self, goal: &AutoscaleGoal) -> Result<CompiledProgram, String>;

    /// The [`ReconfigSpec`] for one phase of the plan toward `goal`:
    /// apps and starts for the phase's added instances, the migration
    /// closure for the phase that re-homes application state.
    fn phase_spec(&self, goal: &AutoscaleGoal, phase: &PlanPhase) -> ReconfigSpec;
}

/// Why a confirmed goal did not execute.
#[derive(Clone, Debug)]
pub enum ScaleError {
    /// The driver could not build a program for the goal.
    Program(String),
    /// The planner could not build the transition under the
    /// constraints, or the executor's plan check refused the plan.
    Plan(String),
    /// Plan execution stopped at a phase (index, failure description).
    Execution(usize, String),
}

/// One autoscaler transition, fired or failed.
#[derive(Clone, Debug)]
pub struct ScaleRecord {
    /// Monotonic id.
    pub id: u64,
    /// Goal before the transition.
    pub from: AutoscaleGoal,
    /// Goal the transition drove toward.
    pub to: AutoscaleGoal,
    /// The gauge readings that confirmed the goal (rate, read fraction).
    pub observed: (f64, f64),
    /// Number of phases the plan had.
    pub phases: usize,
    /// Largest per-phase quiesce set the execution used.
    pub max_phase_quiesce: usize,
    /// Per-phase execution report (pauses, timings, migration counts).
    pub report: Option<PlanReport>,
    /// Why the transition failed, if it did.
    pub error: Option<ScaleError>,
    /// When the transition fired.
    pub at: Instant,
}

impl ScaleRecord {
    /// Whether the transition completed cleanly.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Short label for logs: `split`/`merge`/`cache_in`/`cache_out`.
    pub fn kind(&self) -> &'static str {
        if self.to.shards > self.from.shards {
            "split"
        } else if self.to.shards < self.from.shards {
            "merge"
        } else if self.to.cache && !self.from.cache {
            "cache_in"
        } else if !self.to.cache && self.from.cache {
            "cache_out"
        } else {
            "noop"
        }
    }
}

/// Lifetime counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoscaleStats {
    /// Gauge samples taken.
    pub samples: u64,
    /// Goal changes confirmed past hysteresis.
    pub confirmed: u64,
    /// Confirmed goals suppressed by the cooldown window.
    pub suppressed: u64,
    /// Transitions executed cleanly.
    pub transitions: u64,
    /// Transitions that failed (plan or execution).
    pub failed: u64,
}

/// What an [`Autoscaler`] shares with its loop; the loop's own state
/// is the goal the system currently embodies.
type Shared = ControlShared<ScaleRecord, AutoscaleStats, Mutex<Option<AutoscaleGoal>>>;

/// Handle to a running autoscaler (returned by
/// [`Runtime::autoscale`]). Stop it explicitly or let runtime shutdown
/// end its loop.
pub struct Autoscaler {
    shared: Arc<Shared>,
}

impl Autoscaler {
    /// Ask the autoscaler to exit after its current sample.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Snapshot of every transition so far.
    pub fn records(&self) -> Vec<ScaleRecord> {
        self.shared.records()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> AutoscaleStats {
        self.shared.stats()
    }

    /// The goal the system currently embodies.
    pub fn goal(&self) -> Option<AutoscaleGoal> {
        *self.shared.state.lock()
    }
}

impl Runtime {
    /// Start the metrics-driven autoscaler: samples the configured
    /// gauges every `config.poll`, debounces desired-goal changes, and
    /// drives confirmed changes through planned, phased
    /// reconfigurations. `initial` must describe the architecture the
    /// runtime is currently serving.
    ///
    /// The loop ends on [`Runtime::shutdown`]; use the returned
    /// [`Autoscaler`] to stop earlier or to read records. Under a
    /// simulated clock no thread starts and the autoscaler never fires
    /// — the sim scenario family drives the planner directly through
    /// [`Runtime::reconfigure_plan`] instead.
    pub fn autoscale(
        &self,
        config: AutoscaleConfig,
        initial: AutoscaleGoal,
        driver: Arc<dyn AutoscaleDriver>,
    ) -> Autoscaler {
        let shared = Shared::new(self, Mutex::new(Some(initial)));
        let clock = self.inner.clock().clone();
        let poll = config.poll;
        let mut core = AutoscaleCore {
            rt: self.handle(),
            flap: AntiFlap::new(config.confirm_polls, config.cooldown),
            config,
            shared: Arc::clone(&shared),
            driver,
        };
        let stop = {
            let shared = Arc::clone(&shared);
            move || shared.stopped()
        };
        self.spawn_service("csaw-autoscaler", &shared.wake, stop, move || {
            core.sample_once();
            Some(clock.now() + poll)
        });
        Autoscaler { shared }
    }
}

/// The goal the watermarks ask for under the observed load. Scale
/// decisions are relative to the current goal: split doubles, merge
/// halves (clamped), so repeated confirmation walks the shard count
/// geometrically rather than jumping. The cache decision has a
/// hysteresis band: between `cache_below` and `cache_above` the current
/// state is kept.
pub fn desired_goal(
    config: &AutoscaleConfig,
    cur: AutoscaleGoal,
    rate: f64,
    read_frac: f64,
) -> AutoscaleGoal {
    let per_shard = rate / cur.shards.max(1) as f64;
    let shards = if per_shard > config.split_above && cur.shards < config.max_shards {
        (cur.shards * 2).min(config.max_shards)
    } else if per_shard < config.merge_below && cur.shards > config.min_shards {
        (cur.shards / 2).max(config.min_shards)
    } else {
        cur.shards
    };
    let cache = if read_frac >= config.cache_above {
        true
    } else if read_frac <= config.cache_below {
        false
    } else {
        cur.cache
    };
    AutoscaleGoal { shards, cache }
}

struct AutoscaleCore {
    rt: Runtime,
    config: AutoscaleConfig,
    shared: Arc<Shared>,
    driver: Arc<dyn AutoscaleDriver>,
    flap: AntiFlap<AutoscaleGoal>,
}

impl AutoscaleCore {
    fn sample_once(&mut self) {
        let clock = self.rt.inner.clock().clone();
        let now = clock.now();
        self.shared.stats.lock().samples += 1;
        let metrics = self.rt.metrics();
        let rate = metrics.gauge_value(&self.config.rate_gauge);
        let read_frac = metrics.gauge_value(&self.config.read_fraction_gauge);
        let Some(cur) = *self.shared.state.lock() else { return };
        let want = desired_goal(&self.config, cur, rate, read_frac);
        let signal = (want != cur).then_some(want);
        let Some(confirmed) = self.flap.observe("goal", signal, now) else {
            return;
        };
        self.shared.stats.lock().confirmed += 1;
        if self.flap.in_cooldown("goal", now) {
            self.shared.stats.lock().suppressed += 1;
            return;
        }
        self.execute(cur, confirmed.signal, (rate, read_frac), now);
    }

    fn execute(
        &mut self,
        from: AutoscaleGoal,
        to: AutoscaleGoal,
        observed: (f64, f64),
        now: Instant,
    ) {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut record = ScaleRecord {
            id,
            from,
            to,
            observed,
            phases: 0,
            max_phase_quiesce: 0,
            report: None,
            error: None,
            at: now,
        };
        let current = self.rt.current_program();
        let fail = |record: &mut ScaleRecord, e: ScaleError| {
            record.error = Some(e);
        };
        match self.driver.program(&to) {
            Err(e) => fail(&mut record, ScaleError::Program(e)),
            Ok(target) => {
                match plan_reconfiguration(&current, &target, &self.config.constraints) {
                    Err(e) => fail(&mut record, ScaleError::Plan(e.to_string())),
                    Ok(plan) => {
                        record.phases = plan.phases.len();
                        self.rt.inner.record_event(
                            "-",
                            "-",
                            "autoscale",
                            format!(
                                "{}: {}→{} shards, cache {}→{} ({} phases)",
                                record.kind(),
                                from.shards,
                                to.shards,
                                from.cache,
                                to.cache,
                                plan.phases.len()
                            ),
                        );
                        let driver = Arc::clone(&self.driver);
                        match self.rt.reconfigure_plan(&plan, |phase| driver.phase_spec(&to, phase))
                        {
                            Err(verdict) => fail(&mut record, ScaleError::Plan(verdict.to_string())),
                            Ok(report) => {
                                record.max_phase_quiesce = report.max_phase_quiesce();
                                if let Some((idx, f)) = &report.error {
                                    fail(
                                        &mut record,
                                        ScaleError::Execution(*idx, format!("{f:?}")),
                                    );
                                } else {
                                    *self.shared.state.lock() = Some(to);
                                }
                                record.report = Some(report);
                            }
                        }
                    }
                }
            }
        }
        let ok = record.ok();
        {
            let mut stats = self.shared.stats.lock();
            if ok {
                stats.transitions += 1;
            } else {
                stats.failed += 1;
            }
        }
        self.shared.records.lock().push(record);
        // Cooldown starts whether or not the transition succeeded: a
        // failing transition retried every poll would be its own storm.
        self.flap.note_fired("goal", self.rt.inner.clock().now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            split_above: 100.0,
            merge_below: 30.0,
            cache_above: 0.8,
            cache_below: 0.5,
            min_shards: 2,
            max_shards: 8,
            ..AutoscaleConfig::default()
        }
    }

    const G2: AutoscaleGoal = AutoscaleGoal { shards: 2, cache: false };

    #[test]
    fn split_doubles_and_clamps_at_max() {
        let c = cfg();
        // 2 shards at 150 r/s/shard → split to 4.
        assert_eq!(desired_goal(&c, G2, 300.0, 0.0).shards, 4);
        // Already at max: stays.
        let g8 = AutoscaleGoal { shards: 8, cache: false };
        assert_eq!(desired_goal(&c, g8, 10_000.0, 0.0).shards, 8);
        // 6 shards doubling would exceed max → clamp to 8.
        let g6 = AutoscaleGoal { shards: 6, cache: false };
        assert_eq!(desired_goal(&c, g6, 1_000.0, 0.0).shards, 8);
    }

    #[test]
    fn merge_halves_and_clamps_at_min() {
        let c = cfg();
        let g4 = AutoscaleGoal { shards: 4, cache: false };
        // 4 shards at 20 r/s/shard → merge to 2.
        assert_eq!(desired_goal(&c, g4, 80.0, 0.0).shards, 2);
        // At min: stays even under zero load.
        assert_eq!(desired_goal(&c, G2, 0.0, 0.0).shards, 2);
    }

    #[test]
    fn watermark_band_keeps_current_shards() {
        let c = cfg();
        // 50 r/s/shard is between merge_below and split_above.
        assert_eq!(desired_goal(&c, G2, 100.0, 0.0).shards, 2);
    }

    #[test]
    fn split_then_observed_again_does_not_immediately_merge() {
        // Anti-sawtooth: after a split at just over the watermark, the
        // halved per-shard rate must not trip the merge watermark.
        let c = cfg();
        let rate = 2.0 * c.split_above + 1.0;
        let after = desired_goal(&c, G2, rate, 0.0);
        assert_eq!(after.shards, 4);
        assert_eq!(desired_goal(&c, after, rate, 0.0).shards, 4);
    }

    #[test]
    fn cache_hysteresis_band() {
        let c = cfg();
        let hot = AutoscaleGoal { shards: 2, cache: true };
        assert!(desired_goal(&c, G2, 0.0, 0.9).cache, "above high watermark: insert");
        assert!(desired_goal(&c, hot, 0.0, 0.6).cache, "inside band: keep cache");
        assert!(!desired_goal(&c, G2, 0.0, 0.6).cache, "inside band: keep no-cache");
        assert!(!desired_goal(&c, hot, 0.0, 0.4).cache, "below low watermark: remove");
    }

    #[test]
    fn scale_record_kind_labels() {
        let rec = |from: AutoscaleGoal, to: AutoscaleGoal| ScaleRecord {
            id: 0,
            from,
            to,
            observed: (0.0, 0.0),
            phases: 0,
            max_phase_quiesce: 0,
            report: None,
            error: None,
            at: Instant::now(),
        };
        let g4 = AutoscaleGoal { shards: 4, cache: false };
        let hot = AutoscaleGoal { shards: 2, cache: true };
        assert_eq!(rec(G2, g4).kind(), "split");
        assert_eq!(rec(g4, G2).kind(), "merge");
        assert_eq!(rec(G2, hot).kind(), "cache_in");
        assert_eq!(rec(hot, G2).kind(), "cache_out");
        assert_eq!(rec(G2, G2).kind(), "noop");
    }

    /// A stop ends the autoscaler's 60 s poll at once, and the runtime
    /// then shuts down without waiting it out either.
    #[test]
    fn service_loop_autoscaler_with_long_poll_stops_promptly() {
        use csaw_core::builder::*;
        use csaw_core::program::{InstanceType, JunctionDef, LoadConfig};

        struct Fixed(CompiledProgram);
        impl AutoscaleDriver for Fixed {
            fn program(&self, _: &AutoscaleGoal) -> Result<CompiledProgram, String> {
                Ok(self.0.clone())
            }
            fn phase_spec(&self, _: &AutoscaleGoal, _: &PlanPhase) -> ReconfigSpec {
                ReconfigSpec::default()
            }
        }
        fn within(timeout: Duration, f: impl Fn() -> bool) -> bool {
            let deadline = Instant::now() + timeout;
            while Instant::now() < deadline {
                if f() {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            false
        }

        let junction = JunctionDef::new("j", vec![], vec![], skip());
        let program = ProgramBuilder::new()
            .ty(InstanceType::new("t", vec![junction]))
            .instance("a", "t")
            .main(vec![], start("a", vec![]))
            .build();
        let cp = csaw_core::compile(program, &LoadConfig::new()).expect("compiles");
        let rt = Runtime::new(&cp, crate::RuntimeConfig::default());
        rt.run_main(vec![]).expect("main runs");
        let mut config = cfg();
        config.poll = Duration::from_secs(60);
        let scaler = rt.autoscale(config, G2, Arc::new(Fixed(cp.clone())));
        assert!(within(Duration::from_secs(5), || scaler.stats().samples == 1));
        let running = || {
            rt.threads
                .lock()
                .iter()
                .any(|t| t.thread().name() == Some("csaw-autoscaler") && !t.is_finished())
        };
        let started = Instant::now();
        scaler.stop();
        assert!(
            within(Duration::from_secs(5), || !running()),
            "the stopped autoscaler slept on through its poll"
        );
        rt.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(5), "took {took:?}");
        assert_eq!(scaler.stats().samples, 1);
    }
}
