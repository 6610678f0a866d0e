//! Phased plan execution: drive a `csaw_core::plan::Plan` through the
//! live reconfiguration engine, one [`crate::Runtime::reconfigure`] per
//! phase.
//!
//! The planner (`csaw_core::plan`) decides *what* each phase's target
//! is; this module makes the phases *happen*, preserving every
//! guarantee of the single-step engine: each phase quiesces only its
//! own diff footprint, emits its own `reconfig_cut` trace event and
//! adds its own entry to [`Runtime::epoch_chain`] (so a trace spanning
//! an N-phase plan checks as N+1 epochs under
//! `csaw-semantics::check_trace` — cross-epoch conformance at every
//! phase boundary, not just at the ends), and reports its own pause
//! windows and phase-timing split.
//!
//! Every plan is checked before it runs: [`check_plan`] judges it from
//! the program the runtime is serving to the plan's last target, under
//! the plan's own constraints. A plan that fails — including a *stale*
//! one, built from a program that is no longer current — is refused
//! before phase 0: nothing quiesces, no `reconfig_*` event is traced,
//! the epoch chain does not grow and no phase spec is built. There is
//! no unchecked way to run a plan.
//!
//! Execution is fail-fast: a phase that errors (pre-cut abort) or
//! reports a post-cut migration error stops the walk. The report says
//! how far the plan got; the system keeps serving the last committed
//! target, which by plan construction is a valid architecture.

use std::time::Duration;

use csaw_core::plan::{check_plan, Plan, PlanCheckReport, PlanPhase};

use crate::error::Failure;
use crate::reconfig::{ReconfigReport, ReconfigSpec};
use crate::runtime::Runtime;

/// What one executed phase did.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// Phase position in the plan.
    pub index: usize,
    /// Instances this phase actually quiesced (from the executor's own
    /// recomputed diff — by construction equal to the planned one).
    pub quiesced: Vec<String>,
    /// The single-step engine's full report for this phase.
    pub report: ReconfigReport,
}

/// Outcome of executing a whole plan.
#[derive(Clone, Debug, Default)]
pub struct PlanReport {
    /// Per-phase outcomes, in execution order. Shorter than the plan's
    /// phase list iff `error` is set.
    pub phases: Vec<PhaseOutcome>,
    /// Indices of phases whose worst pause exceeded the plan's
    /// `phase_pause_budget` (empty when no budget was declared).
    /// Breaches are recorded, not aborted on: the phase already
    /// committed by the time its pause is known.
    pub budget_breaches: Vec<usize>,
    /// The phase that stopped the walk, if any: its index and failure.
    /// A pre-cut failure means that phase's target was *not* installed;
    /// a post-cut migration error means it was, with the application
    /// follow-up incomplete.
    pub error: Option<(usize, Failure)>,
    /// Wall time across all executed phases.
    pub total: Duration,
}

impl PlanReport {
    /// Whether every phase executed cleanly.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Largest quiesce set any executed phase used.
    pub fn max_phase_quiesce(&self) -> usize {
        self.phases.iter().map(|p| p.quiesced.len()).max().unwrap_or(0)
    }

    /// Worst per-instance pause across all executed phases.
    pub fn max_pause(&self) -> Duration {
        self.phases.iter().map(|p| p.report.max_pause()).max().unwrap_or_default()
    }

    /// Total snapshot bytes migrated across all executed phases.
    pub fn migrated_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.report.migrated_bytes).sum()
    }
}

impl Runtime {
    /// Execute `plan` phase by phase through [`Runtime::reconfigure`].
    /// `spec_for` builds each phase's [`ReconfigSpec`] (apps and starts
    /// for that phase's added instances, the migration closure for the
    /// phase that re-homes application state, …) just before the phase
    /// runs, so it sees the system state the previous phases left.
    ///
    /// The plan is first checked against `plan.constraints`, from
    /// [`Runtime::current_program`] to its last phase's target (the
    /// current program for an identity plan); a failing verdict is
    /// returned as `Err` before anything runs. Otherwise execution stops
    /// at the first phase that fails (pre-cut `Err`) or reports a
    /// post-cut `migration_error`, and the report records how far it
    /// got. An empty (identity) plan yields an empty report.
    pub fn reconfigure_plan(
        &self,
        plan: &Plan,
        mut spec_for: impl FnMut(&PlanPhase) -> ReconfigSpec,
    ) -> Result<PlanReport, PlanCheckReport> {
        let current = self.current_program();
        let end = plan.phases.last().map_or(&*current, |p| &p.target);
        let verdict = check_plan(&current, end, plan, &plan.constraints);
        if !verdict.is_valid() {
            return Err(verdict);
        }
        let started = self.clock().now();
        let mut out = PlanReport::default();
        for phase in &plan.phases {
            let spec = spec_for(phase);
            self.inner.record_event(
                "-",
                "-",
                "plan_phase",
                format!(
                    "phase {}/{}: +{} -{} ~{}",
                    phase.index + 1,
                    plan.phases.len(),
                    phase.diff.added.len(),
                    phase.diff.removed.len(),
                    phase.diff.changed.len()
                ),
            );
            match self.reconfigure(&phase.target, spec) {
                Ok(report) => {
                    if let Some(budget) = plan.constraints.phase_pause_budget {
                        if report.max_pause() > budget {
                            out.budget_breaches.push(phase.index);
                        }
                    }
                    let quiesced =
                        report.plan.quiesce_set().iter().map(|s| s.to_string()).collect();
                    let failed = report.migration_error.clone();
                    out.phases.push(PhaseOutcome { index: phase.index, quiesced, report });
                    if let Some(f) = failed {
                        out.error = Some((phase.index, f));
                        break;
                    }
                }
                Err(f) => {
                    out.error = Some((phase.index, f));
                    break;
                }
            }
        }
        out.total = self.clock().now().saturating_duration_since(started);
        Ok(out)
    }
}
