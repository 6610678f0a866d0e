//! Plan-validity checking: does a phased reconfiguration plan respect
//! its declared constraints?
//!
//! The planner ([`crate::plan`]) *constructs* plans; this module
//! *judges* them, trusting only the constraint declaration — in the
//! spirit of Bozga–Iosif–Sifakis local reasoning for parametric
//! reconfigurable systems, where the proof obligations are checked
//! against the architecture's declared invariants rather than against
//! the generator that claimed to satisfy them. A buggy planner (see
//! `plan_break_before_make`) must come out red here even though its
//! phases still reach the target.
//!
//! Checked obligations, each independent of how the plan was produced:
//!
//! 1. **Quiesce bound** — no phase's quiesce set (removed ∪ changed)
//!    exceeds `max_concurrent_quiesce`.
//! 2. **Anti-affinity** — no phase co-quiesces a declared anti-affine
//!    pair.
//! 3. **Colocation** — every declared colocation group's touched
//!    members land in exactly one phase.
//! 4. **Make-before-break** — every phase containing an addition
//!    precedes every phase containing a removal: new capacity is live
//!    before old capacity retires, so routers are never pointed at
//!    retired instances.
//! 5. **Coverage** — the phase diffs compose to exactly the full A→B
//!    diff: no instance missed, none touched twice with no net effect.
//! 6. **Continuity** — phase *i*'s recorded diff is exactly
//!    `diff(target[i-1], target[i])` (with `target[-1] = A`), and the
//!    final target is structurally identical to B. The executor
//!    recomputes each diff; a plan whose record disagrees would execute
//!    something other than what was validated.
//!
//! `Runtime::reconfigure_plan` runs this check on every plan — a
//! single-step `Runtime::reconfigure` is the one-phase [`Plan::step`] —
//! from the program it is serving to the plan's last target under the
//! plan's own constraints, holding the reconfiguration lock from the
//! check through the last phase. A *stale* plan — built from a program
//! that is no longer current — fails obligation 6 at phase 0 and is
//! refused there.

use std::fmt;

use crate::diff::{compose_diffs, diff_programs, ProgramDiff};
use crate::plan::{Plan, PlanConstraints};
use crate::program::CompiledProgram;

/// One violated obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanViolation {
    /// Obligation 1: a phase quiesces more instances than allowed.
    QuiesceBoundExceeded {
        /// Offending phase index.
        phase: usize,
        /// Its quiesce set.
        quiesced: Vec<String>,
        /// The declared bound.
        max: usize,
    },
    /// Obligation 2: an anti-affine pair co-quiesced.
    AntiAffinityCoQuiesced {
        /// Offending phase index.
        phase: usize,
        /// The pair.
        pair: (String, String),
    },
    /// Obligation 3: a colocation group split across phases.
    ColocationSplit {
        /// The group's touched members.
        group: Vec<String>,
        /// The distinct phases they landed in.
        phases: Vec<usize>,
    },
    /// Obligation 4: a quiescing phase (removal or change) precedes an
    /// add-bearing phase (break-before-make): capacity was torn down or
    /// re-pointed before its replacement existed.
    BreakBeforeMake {
        /// Earlier phase that removes or changes instances.
        quiesce_phase: usize,
        /// Later phase containing the addition.
        add_phase: usize,
    },
    /// Obligation 5: the composed phases differ from the full diff.
    CoverageMismatch {
        /// Instances the phases net-touch but the full diff does not,
        /// or vice versa, with a short description each.
        details: Vec<String>,
    },
    /// Obligation 6: a phase's recorded diff is not the diff of its
    /// neighbouring targets, or the final target is not B.
    ContinuityBroken {
        /// Offending phase index (`plan.phases.len()` marks a final
        /// target ≠ B).
        phase: usize,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::QuiesceBoundExceeded { phase, quiesced, max } => write!(
                f,
                "phase {phase} quiesces {} instances ({}) > bound {max}",
                quiesced.len(),
                quiesced.join(", ")
            ),
            PlanViolation::AntiAffinityCoQuiesced { phase, pair } => write!(
                f,
                "phase {phase} co-quiesces anti-affine pair {} / {}",
                pair.0, pair.1
            ),
            PlanViolation::ColocationSplit { group, phases } => write!(
                f,
                "colocation group {{{}}} split across phases {:?}",
                group.join(", "),
                phases
            ),
            PlanViolation::BreakBeforeMake { quiesce_phase, add_phase } => write!(
                f,
                "phase {quiesce_phase} quiesces instances before phase {add_phase} adds — \
                 break-before-make"
            ),
            PlanViolation::CoverageMismatch { details } => {
                write!(f, "phases do not compose to the full diff: {}", details.join("; "))
            }
            PlanViolation::ContinuityBroken { phase, detail } => {
                write!(f, "phase {phase} continuity broken: {detail}")
            }
        }
    }
}

/// The checker's verdict: every violated obligation, or green.
#[derive(Clone, Debug, Default)]
pub struct PlanCheckReport {
    /// All violations found, in obligation order.
    pub violations: Vec<PlanViolation>,
}

impl PlanCheckReport {
    /// Whether the plan satisfies every obligation.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for PlanCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "plan valid")
        } else {
            writeln!(f, "plan INVALID ({} violations):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Check a plan from `a` to `b` against `constraints`. Independent of
/// the planner: only the plan's phases (diffs + targets) and the
/// declared constraints are consulted.
pub fn check_plan(
    a: &CompiledProgram,
    b: &CompiledProgram,
    plan: &Plan,
    constraints: &PlanConstraints,
) -> PlanCheckReport {
    let mut report = PlanCheckReport::default();
    let full = diff_programs(a, b);

    // 1. Quiesce bound.
    for p in &plan.phases {
        let q: Vec<String> = p.diff.quiesce_set().iter().map(|s| s.to_string()).collect();
        if q.len() > constraints.max_concurrent_quiesce {
            report.violations.push(PlanViolation::QuiesceBoundExceeded {
                phase: p.index,
                quiesced: q,
                max: constraints.max_concurrent_quiesce,
            });
        }
    }

    // 2. Anti-affinity.
    for p in &plan.phases {
        let q = p.diff.quiesce_set();
        for (x, y) in &constraints.anti_affinity {
            if q.iter().any(|n| n == x) && q.iter().any(|n| n == y) {
                report.violations.push(PlanViolation::AntiAffinityCoQuiesced {
                    phase: p.index,
                    pair: (x.clone(), y.clone()),
                });
            }
        }
    }

    // 3. Colocation: each group's touched members in exactly one phase.
    let phase_of = |name: &str| -> Vec<usize> {
        plan.phases
            .iter()
            .filter(|p| p.diff.footprint().contains(&name))
            .map(|p| p.index)
            .collect()
    };
    for group in &constraints.colocate {
        let touched: Vec<&String> =
            group.iter().filter(|n| full.footprint().contains(&n.as_str())).collect();
        if touched.len() < 2 {
            continue;
        }
        let mut phases: Vec<usize> = touched.iter().flat_map(|n| phase_of(n)).collect();
        phases.sort_unstable();
        phases.dedup();
        if phases.len() > 1 {
            report.violations.push(PlanViolation::ColocationSplit {
                group: touched.iter().map(|s| s.to_string()).collect(),
                phases,
            });
        }
    }

    // 4. Make-before-break: no phase that quiesces (removes or
    // changes) may strictly precede a phase that adds. An add in the
    // *same* phase as a change is fine — the cut is atomic.
    let quiesce_phases: Vec<usize> = plan
        .phases
        .iter()
        .filter(|p| !p.diff.quiesce_set().is_empty())
        .map(|p| p.index)
        .collect();
    let add_phases: Vec<usize> =
        plan.phases.iter().filter(|p| !p.diff.added.is_empty()).map(|p| p.index).collect();
    if let (Some(&first_quiesce), Some(&last_add)) = (quiesce_phases.first(), add_phases.last()) {
        if first_quiesce < last_add {
            report.violations.push(PlanViolation::BreakBeforeMake {
                quiesce_phase: first_quiesce,
                add_phase: last_add,
            });
        }
    }

    // 5. Coverage: composed phase diffs == full diff, per instance.
    let phase_diffs: Vec<&ProgramDiff> = plan.phases.iter().map(|p| &p.diff).collect();
    let composed = compose_diffs(&phase_diffs);
    let expected = full.net_changes();
    if composed != expected {
        let mut details = Vec::new();
        for (name, net) in &expected {
            match composed.get(name) {
                None => details.push(format!("{name} ({net:?}) missing from phases")),
                Some(got) if got != net => {
                    details.push(format!("{name}: phases say {got:?}, full diff says {net:?}"))
                }
                Some(_) => {}
            }
        }
        for (name, got) in &composed {
            if !expected.contains_key(name) {
                details.push(format!("{name} ({got:?}) touched by phases but not by full diff"));
            }
        }
        report.violations.push(PlanViolation::CoverageMismatch { details });
    }

    // 6. Continuity: recorded diffs match neighbouring targets; final
    // target is B.
    let mut prev: &CompiledProgram = a;
    for p in &plan.phases {
        let actual = diff_programs(prev, &p.target);
        if actual != p.diff {
            report.violations.push(PlanViolation::ContinuityBroken {
                phase: p.index,
                detail: "recorded diff differs from diff(prev target, target)".into(),
            });
        }
        prev = &p.target;
    }
    if !plan.phases.is_empty() && !diff_programs(prev, b).is_identity() {
        report.violations.push(PlanViolation::ContinuityBroken {
            phase: plan.phases.len(),
            detail: "final phase target is not structurally identical to B".into(),
        });
    }
    if plan.phases.is_empty() && !full.is_identity() {
        report.violations.push(PlanViolation::CoverageMismatch {
            details: vec!["plan is empty but A and B differ".into()],
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{plan_break_before_make, plan_reconfiguration};
    use crate::program::{CompiledInstance, InstanceType, JunctionDef, MainDef, Program};

    fn j(name: &str, body: Expr) -> JunctionDef {
        JunctionDef::new(name, vec![], vec![], body)
    }

    fn compiled(instances: Vec<(&str, &str, Vec<JunctionDef>)>) -> CompiledProgram {
        CompiledProgram {
            program: Program {
                types: vec![InstanceType::new("T", vec![])],
                instances: instances
                    .iter()
                    .map(|(n, t, _)| (n.to_string(), t.to_string()))
                    .collect(),
                functions: vec![],
                main: MainDef { params: vec![], body: Expr::Skip },
            },
            instances: instances
                .into_iter()
                .map(|(n, t, js)| CompiledInstance {
                    name: n.into(),
                    type_name: t.into(),
                    junctions: js,
                })
                .collect(),
            retry_limit: 3,
        }
    }

    fn skip() -> Vec<JunctionDef> {
        vec![j("c", Expr::Skip)]
    }

    fn changed_shape() -> Vec<JunctionDef> {
        vec![j("c", Expr::Seq(vec![Expr::Skip, Expr::Return]))]
    }

    fn shrink() -> (CompiledProgram, CompiledProgram) {
        let a = compiled(vec![
            ("Fnt", "F", changed_shape()),
            ("B1", "T", skip()),
            ("B2", "T", skip()),
            ("B3", "T", skip()),
            ("B4", "T", skip()),
        ]);
        let b = compiled(vec![
            ("Fnt", "F", skip()),
            ("B1", "T", skip()),
            ("B2", "T", skip()),
        ]);
        (a, b)
    }

    #[test]
    fn good_plan_is_valid() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(1);
        let plan = plan_reconfiguration(&a, &b, &c).unwrap();
        let report = check_plan(&a, &b, &plan, &c);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn naive_planner_caught() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(1);
        let plan = plan_break_before_make(&a, &b, &c);
        let report = check_plan(&a, &b, &plan, &c);
        assert!(!report.is_valid());
        // Both the quiesce bound and the phase ordering are violated.
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::QuiesceBoundExceeded { .. })));
        // (shrink has no adds, so break-before-make ordering shows up
        // as removals-before-changes only via the bound; use a grow
        // plan for the ordering violation below.)
        let plan2 = plan_break_before_make(&b, &a, &c);
        let report2 = check_plan(&b, &a, &plan2, &c);
        assert!(report2
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::BreakBeforeMake { .. })));
    }

    #[test]
    fn tampered_phase_breaks_continuity_and_coverage() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(1);
        let mut plan = plan_reconfiguration(&a, &b, &c).unwrap();
        // Drop the final removal phase: coverage + continuity both red.
        plan.phases.pop();
        let report = check_plan(&a, &b, &plan, &c);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::CoverageMismatch { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::ContinuityBroken { .. })));
    }

    #[test]
    fn anti_affinity_and_colocation_judged() {
        let (a, b) = shrink();
        // Plan with bound 2 packs B3+B4 into one removal phase.
        let plan = plan_reconfiguration(&a, &b, &PlanConstraints::max_quiesce(2)).unwrap();
        // Judge it under *stricter* declared constraints than it was
        // planned with: anti-affinity on the pair must go red.
        let strict = PlanConstraints::max_quiesce(2).with_anti_affinity("B3", "B4");
        let report = check_plan(&a, &b, &plan, &strict);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::AntiAffinityCoQuiesced { .. })));

        // And a bound-1 plan splits B3/B4 across phases: a declared
        // colocation group must go red.
        let split = plan_reconfiguration(&a, &b, &PlanConstraints::max_quiesce(1)).unwrap();
        let colo = PlanConstraints::max_quiesce(1).with_colocate(&["B3", "B4"]);
        let report2 = check_plan(&a, &b, &split, &colo);
        assert!(report2
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::ColocationSplit { .. })));
    }

    #[test]
    fn step_plan_is_one_phase_and_valid_by_construction() {
        let (a, b) = shrink();
        for (from, to) in [(&a, &b), (&b, &a), (&a, &a)] {
            let step = Plan::step(from, to);
            assert_eq!(step.phases.len(), 1, "an identity step keeps its phase");
            assert_eq!(step.phases[0].diff, diff_programs(from, to));
            let report = check_plan(from, to, &step, &step.constraints);
            assert!(report.is_valid(), "{report}");
        }
        assert!(Plan::step(&a, &a).is_identity());
        // Checked from any other program, a step is stale at phase 0.
        let stale = check_plan(&b, &b, &Plan::step(&a, &b), &PlanConstraints::max_quiesce(9));
        assert!(stale
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::ContinuityBroken { phase: 0, .. })));
    }

    #[test]
    fn empty_plan_for_differing_programs_is_red() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(1);
        let empty = Plan {
            phases: vec![],
            constraints: c.clone(),
            full_diff: diff_programs(&a, &b),
        };
        assert!(!check_plan(&a, &b, &empty, &c).is_valid());
    }
}
