//! Declarative reconfiguration planning.
//!
//! A multi-step transition (grow a shard set, then re-point the router,
//! then retire the old shards) is a [`Plan`]. A caller states a
//! **target architecture** plus operational **constraints** — how many
//! instances may quiesce concurrently, which instances must transition
//! together (colocation), and which must never pause together
//! (anti-affinity) — and
//! [`plan_reconfiguration`] emits a validated, minimal-disruption
//! [`Plan`]: an ordered sequence of phased [`ProgramDiff`]s whose
//! targets walk the system from A to B make-before-make-do-before-break:
//!
//! 1. **Make** — all added instances come up first (their quiesce set is
//!    empty, so bystanders never pause).
//! 2. **Change** — modified instances are re-pointed in chunks of at
//!    most `max_concurrent_quiesce`.
//! 3. **Break** — removed instances retire last, again chunked, after
//!    no live instance routes to them.
//!
//! A single-step change is [`Plan::step`]: the whole diff in one phase.
//! [`check_plan`] (in [`crate::plan_check`]) judges a plan against its
//! declared constraints without trusting the planner that built it,
//! and `Runtime::reconfigure_plan` — the one executor, which every live
//! change goes through — runs it on every plan before phase 0.

use std::collections::BTreeMap;
use std::fmt;

use crate::diff::{diff_programs, ProgramDiff};
use crate::program::{CompiledInstance, CompiledProgram, Program};

pub use crate::plan_check::{check_plan, PlanCheckReport, PlanViolation};

/// Operational constraints on a planned transition.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanConstraints {
    /// Maximum number of instances quiesced (paused + migrated) in any
    /// single phase. Added instances do not count — they do not exist
    /// yet, so bringing them up pauses nothing.
    pub max_concurrent_quiesce: usize,
    /// Groups of instances that must transition in the same phase
    /// (e.g. a shard and its co-resident cache move together so
    /// cross-instance state stays consistent). Names not touched by the
    /// diff are ignored.
    pub colocate: Vec<Vec<String>>,
    /// Pairs of instances that must never be quiesced in the same phase
    /// (e.g. a primary and its replica — one side must stay live).
    pub anti_affinity: Vec<(String, String)>,
}

impl Default for PlanConstraints {
    fn default() -> Self {
        PlanConstraints {
            max_concurrent_quiesce: 1,
            colocate: Vec::new(),
            anti_affinity: Vec::new(),
        }
    }
}

impl PlanConstraints {
    /// Constraints with a given quiesce bound and nothing else.
    pub fn max_quiesce(n: usize) -> Self {
        PlanConstraints { max_concurrent_quiesce: n, ..Default::default() }
    }

    /// Add a colocation group.
    pub fn with_colocate(mut self, group: &[&str]) -> Self {
        self.colocate.push(group.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Add an anti-affinity pair.
    pub fn with_anti_affinity(mut self, a: &str, b: &str) -> Self {
        self.anti_affinity.push((a.to_string(), b.to_string()));
        self
    }
}

/// One phase of a plan: a target program one reconfiguration step away
/// from the previous phase's target (or from A, for the first phase).
#[derive(Clone, Debug)]
pub struct PlanPhase {
    /// Phase position, `0..plan.phases.len()`.
    pub index: usize,
    /// The structural diff this phase executes. The executor runs this
    /// diff as recorded, once [`check_plan`] has confirmed it is the
    /// diff from the previous target (or the serving program) to
    /// [`PlanPhase::target`].
    pub diff: ProgramDiff,
    /// The compiled program this phase transitions to. The final
    /// phase's target is the caller's B, verbatim.
    pub target: CompiledProgram,
}

impl PlanPhase {
    /// Names quiesced by this phase (removed ∪ changed).
    pub fn quiesced(&self) -> Vec<&str> {
        self.diff.quiesce_set()
    }
}

/// A validated, ordered sequence of phased reconfigurations from A to B.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The phases, in execution order. A planned identity transition
    /// has none; an identity [`Plan::step`] has one empty phase.
    pub phases: Vec<PlanPhase>,
    /// The constraints the plan was computed under.
    pub constraints: PlanConstraints,
    /// The full A→B diff the phases decompose.
    pub full_diff: ProgramDiff,
}

impl Plan {
    /// The one-phase plan from `a` to `b`: the whole diff in a single
    /// phase under no quiesce bound, so it passes [`check_plan`] from
    /// `a` by construction. An identity step keeps its one empty phase:
    /// running it still cuts and adds an epoch.
    pub fn step(a: &CompiledProgram, b: &CompiledProgram) -> Plan {
        let diff = diff_programs(a, b);
        Plan {
            phases: vec![PlanPhase { index: 0, diff: diff.clone(), target: b.clone() }],
            constraints: PlanConstraints::max_quiesce(usize::MAX),
            full_diff: diff,
        }
    }

    /// Largest per-phase quiesce set in the plan.
    pub fn max_phase_quiesce(&self) -> usize {
        self.phases.iter().map(|p| p.diff.quiesce_set().len()).max().unwrap_or(0)
    }

    /// Whether the plan is a no-op (A and B structurally identical).
    pub fn is_identity(&self) -> bool {
        self.full_diff.is_identity()
    }
}

/// Why a transition cannot be planned under the given constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// `max_concurrent_quiesce` is zero but the transition needs to
    /// quiesce at least one instance.
    QuiesceBoundZero,
    /// A colocation group forces more concurrent quiesces than the
    /// bound allows.
    ColocationTooLarge {
        /// The offending group's members (touched instances only).
        group: Vec<String>,
        /// How many of them must quiesce together.
        quiesce: usize,
        /// The declared bound.
        max: usize,
    },
    /// A colocation group contains both sides of an anti-affinity pair,
    /// and both sides need quiescing — the constraints are unsatisfiable.
    AffinityConflict {
        /// The anti-affine pair forced together.
        pair: (String, String),
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::QuiesceBoundZero => {
                write!(f, "max_concurrent_quiesce is 0 but the transition must quiesce instances")
            }
            PlanError::ColocationTooLarge { group, quiesce, max } => write!(
                f,
                "colocation group {{{}}} needs {quiesce} concurrent quiesces > bound {max}",
                group.join(", ")
            ),
            PlanError::AffinityConflict { pair } => write!(
                f,
                "anti-affine instances {} and {} are forced into the same phase",
                pair.0, pair.1
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One transition group: instances that must move in the same phase.
#[derive(Clone, Debug)]
struct Group {
    /// All touched members, deterministic order.
    members: Vec<String>,
    /// Members that quiesce (removed ∪ changed).
    quiesce: Vec<String>,
    /// Whether the group contains a changed (retained) instance.
    has_changed: bool,
    /// Whether the group contains an added instance.
    has_added: bool,
    /// Canonical ordering key: position of the earliest member in the
    /// canonical instance order.
    rank: usize,
}

/// Plan a minimal-disruption phased transition from `a` to `b`.
///
/// Phases come out make-before-break: all additions first (no
/// quiescing), then changed instances in chunks of at most
/// `max_concurrent_quiesce`, then removals last, likewise chunked.
/// Colocation groups always land in one phase; anti-affine pairs are
/// never packed into the same phase's quiesce set. Instances untouched
/// by the diff never appear in any phase.
pub fn plan_reconfiguration(
    a: &CompiledProgram,
    b: &CompiledProgram,
    constraints: &PlanConstraints,
) -> Result<Plan, PlanError> {
    let full = diff_programs(a, b);
    if full.is_identity() {
        return Ok(Plan { phases: Vec::new(), constraints: constraints.clone(), full_diff: full });
    }

    // Canonical order over touched instances: adds in B declaration
    // order, changes in B declaration order, removals in A declaration
    // order. Deterministic regardless of constraint declaration order.
    let mut rank: BTreeMap<&str, usize> = BTreeMap::new();
    let mut canonical: Vec<&str> = Vec::new();
    for n in &full.added {
        rank.insert(n.as_str(), canonical.len());
        canonical.push(n.as_str());
    }
    let changed_in_b_order: Vec<&str> = b
        .instances
        .iter()
        .filter(|i| full.changed.iter().any(|c| c.name == i.name))
        .map(|i| i.name.as_str())
        .collect();
    for n in &changed_in_b_order {
        rank.insert(n, canonical.len());
        canonical.push(n);
    }
    for n in &full.removed {
        rank.insert(n.as_str(), canonical.len());
        canonical.push(n.as_str());
    }

    let is_added = |n: &str| full.added.iter().any(|x| x == n);
    let is_removed = |n: &str| full.removed.iter().any(|x| x == n);
    let is_changed = |n: &str| full.changed.iter().any(|c| c.name == n);

    // Union-find over touched instances; colocation merges.
    let idx: BTreeMap<&str, usize> =
        canonical.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut parent: Vec<usize> = (0..canonical.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for group in &constraints.colocate {
        let touched: Vec<usize> =
            group.iter().filter_map(|n| idx.get(n.as_str()).copied()).collect();
        for w in touched.windows(2) {
            let (ra, rb) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
    }

    let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
    for (i, name) in canonical.iter().enumerate() {
        let root = find(&mut parent, i);
        let g = groups.entry(root).or_insert_with(|| Group {
            members: Vec::new(),
            quiesce: Vec::new(),
            has_changed: false,
            has_added: false,
            rank: usize::MAX,
        });
        g.members.push(name.to_string());
        g.rank = g.rank.min(rank[name]);
        if is_changed(name) || is_removed(name) {
            g.quiesce.push(name.to_string());
        }
        g.has_changed |= is_changed(name);
        g.has_added |= is_added(name);
    }
    let mut groups: Vec<Group> = groups.into_values().collect();
    groups.sort_by_key(|g| g.rank);

    let max = constraints.max_concurrent_quiesce;
    if max == 0 && groups.iter().any(|g| !g.quiesce.is_empty()) {
        return Err(PlanError::QuiesceBoundZero);
    }
    for g in &groups {
        if g.quiesce.len() > max && !g.quiesce.is_empty() {
            // An unsatisfiable anti-affinity inside the group is the
            // sharper diagnosis when present.
            for (x, y) in &constraints.anti_affinity {
                if g.quiesce.iter().any(|m| m == x) && g.quiesce.iter().any(|m| m == y) {
                    return Err(PlanError::AffinityConflict { pair: (x.clone(), y.clone()) });
                }
            }
            return Err(PlanError::ColocationTooLarge {
                group: g.members.clone(),
                quiesce: g.quiesce.len(),
                max,
            });
        }
        for (x, y) in &constraints.anti_affinity {
            if g.quiesce.iter().any(|m| m == x) && g.quiesce.iter().any(|m| m == y) {
                return Err(PlanError::AffinityConflict { pair: (x.clone(), y.clone()) });
            }
        }
    }

    // Partition groups into the three waves.
    let mut add_groups: Vec<&Group> = Vec::new();
    let mut change_groups: Vec<&Group> = Vec::new();
    let mut remove_groups: Vec<&Group> = Vec::new();
    for g in &groups {
        if g.quiesce.is_empty() {
            add_groups.push(g);
        } else if g.has_changed || g.has_added {
            change_groups.push(g);
        } else {
            remove_groups.push(g);
        }
    }

    // Pack a wave's groups into phases of at most `max` concurrent
    // quiesces, never putting two anti-affine quiesce members together.
    fn pack<'g>(
        wave: Vec<&'g Group>,
        max: usize,
        anti: &[(String, String)],
    ) -> Vec<Vec<&'g Group>> {
        let conflicts = |phase: &[&Group], g: &Group| {
            anti.iter().any(|(x, y)| {
                let in_phase = |n: &str| phase.iter().any(|pg| pg.quiesce.iter().any(|m| m == n));
                (g.quiesce.iter().any(|m| m == x) && in_phase(y))
                    || (g.quiesce.iter().any(|m| m == y) && in_phase(x))
            })
        };
        let mut phases: Vec<Vec<&Group>> = Vec::new();
        let mut remaining = wave;
        while !remaining.is_empty() {
            let mut phase: Vec<&Group> = Vec::new();
            let mut load = 0usize;
            let mut rest: Vec<&Group> = Vec::new();
            for g in remaining {
                if load + g.quiesce.len() <= max && !conflicts(&phase, g) {
                    load += g.quiesce.len();
                    phase.push(g);
                } else {
                    rest.push(g);
                }
            }
            phases.push(phase);
            remaining = rest;
        }
        phases
    }

    let anti = &constraints.anti_affinity;
    let mut phase_groups: Vec<Vec<&Group>> = Vec::new();
    if !add_groups.is_empty() {
        // All pure additions fit one phase: nothing quiesces.
        phase_groups.push(add_groups);
    }
    phase_groups.extend(pack(change_groups, max, anti));
    phase_groups.extend(pack(remove_groups, max, anti));

    let waves = phase_groups
        .into_iter()
        .map(|pgroups| pgroups.iter().flat_map(|g| g.members.iter().cloned()).collect())
        .collect();
    Ok(Plan { phases: walk(a, b, waves), constraints: constraints.clone(), full_diff: full })
}

/// Deliberately *wrong* baseline planner: break-before-make. Removals
/// all come first in one unbounded phase (live routers still point at
/// the retired instances), then every change at once, then additions
/// last. Exists so the plan-validity checker and the sim oracles have a
/// realistic bug to catch — see the `planned` sim scenario run `--buggy`.
pub fn plan_break_before_make(
    a: &CompiledProgram,
    b: &CompiledProgram,
    constraints: &PlanConstraints,
) -> Plan {
    let full = diff_programs(a, b);
    if full.is_identity() {
        return Plan { phases: Vec::new(), constraints: constraints.clone(), full_diff: full };
    }
    // Wave layout: [removals] [changes] [adds] — each unbounded.
    let mut waves: Vec<Vec<String>> = Vec::new();
    if !full.removed.is_empty() {
        waves.push(full.removed.clone());
    }
    if !full.changed.is_empty() {
        waves.push(full.changed.iter().map(|c| c.name.clone()).collect());
    }
    if !full.added.is_empty() {
        waves.push(full.added.clone());
    }
    Plan { phases: walk(a, b, waves), constraints: constraints.clone(), full_diff: full }
}

/// One phase per wave of touched instance names, each target
/// materialized from A's instance list progressively rewritten toward
/// B: a name B lacks is removed, one already listed is replaced by B's
/// version, any other is appended in wave order. The last phase's
/// target is B verbatim.
fn walk(a: &CompiledProgram, b: &CompiledProgram, waves: Vec<Vec<String>>) -> Vec<PlanPhase> {
    let mut cur: Vec<CompiledInstance> = a.instances.clone();
    let mut prev = a.clone();
    let total = waves.len();
    let mut phases = Vec::new();
    for (pi, wave) in waves.into_iter().enumerate() {
        for name in &wave {
            match (b.instance(name), cur.iter_mut().find(|i| &i.name == name)) {
                (None, _) => cur.retain(|i| &i.name != name),
                (Some(nb), Some(slot)) => *slot = nb.clone(),
                (Some(nb), None) => cur.push(nb.clone()),
            }
        }
        let target = if pi + 1 == total { b.clone() } else { synth_target(a, b, &cur) };
        let diff = diff_programs(&prev, &target);
        prev = target.clone();
        phases.push(PlanPhase { index: pi, diff, target });
    }
    phases
}

/// Synthesize an intermediate compiled program over `cur`'s instance
/// set. Types and templates come from B (falling back to A's for types
/// only A declares); `main` is B's — denotation only walks it for
/// `Start` names, which is harmless mid-stream where no startup events
/// occur.
fn synth_target(
    a: &CompiledProgram,
    b: &CompiledProgram,
    cur: &[CompiledInstance],
) -> CompiledProgram {
    let mut types = b.program.types.clone();
    for t in &a.program.types {
        if !types.iter().any(|x| x.name == t.name) {
            types.push(t.clone());
        }
    }
    CompiledProgram {
        program: Program {
            types,
            instances: cur.iter().map(|i| (i.name.clone(), i.type_name.clone())).collect(),
            functions: b.program.functions.clone(),
            main: b.program.main.clone(),
        },
        instances: cur.to_vec(),
        retry_limit: b.retry_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{compose_diffs, NetChange};
    use crate::expr::Expr;
    use crate::program::{InstanceType, JunctionDef, MainDef};

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

    /// 2→4 shard grow: front changes, two backends added.
    fn grow() -> (CompiledProgram, CompiledProgram) {
        let a = compiled(vec![
            ("Fnt", "F", skip()),
            ("B1", "T", skip()),
            ("B2", "T", skip()),
        ]);
        let b = compiled(vec![
            ("Fnt", "F", changed_shape()),
            ("B1", "T", skip()),
            ("B2", "T", skip()),
            ("B3", "T", skip()),
            ("B4", "T", skip()),
        ]);
        (a, b)
    }

    /// 4→2 shard shrink: front changes, two backends removed.
    fn shrink() -> (CompiledProgram, CompiledProgram) {
        let (a, b) = grow();
        (b, a)
    }

    #[test]
    fn identity_plan_is_empty() {
        let (a, _) = grow();
        let plan = plan_reconfiguration(&a, &a.clone(), &PlanConstraints::max_quiesce(1)).unwrap();
        assert!(plan.is_identity());
        assert_eq!(plan.max_phase_quiesce(), 0);
    }

    #[test]
    fn grow_is_make_before_break() {
        let (a, b) = grow();
        let plan = plan_reconfiguration(&a, &b, &PlanConstraints::max_quiesce(1)).unwrap();
        // Phase 0: adds only, nothing quiesced. Phase 1: front re-point.
        assert_eq!(plan.phases.len(), 2);
        assert_eq!(plan.phases[0].diff.added, vec!["B3", "B4"]);
        assert!(plan.phases[0].quiesced().is_empty());
        assert_eq!(plan.phases[1].quiesced(), vec!["Fnt"]);
        // Final target is B verbatim.
        assert!(diff_programs(&plan.phases.last().unwrap().target, &b).is_identity());
    }

    #[test]
    fn shrink_chunks_removals_after_change() {
        let (a, b) = shrink();
        let plan = plan_reconfiguration(&a, &b, &PlanConstraints::max_quiesce(1)).unwrap();
        // Phase 0: front re-point; phases 1..: one removal each.
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.phases[0].quiesced(), vec!["Fnt"]);
        assert_eq!(plan.phases[1].diff.removed, vec!["B3"]);
        assert_eq!(plan.phases[2].diff.removed, vec!["B4"]);
        assert!(plan.max_phase_quiesce() <= 1);
        assert!(diff_programs(&plan.phases.last().unwrap().target, &b).is_identity());
    }

    #[test]
    fn quiesce_bound_respected_and_composition_holds() {
        let (a, b) = shrink();
        for maxq in 1..=3usize {
            let plan =
                plan_reconfiguration(&a, &b, &PlanConstraints::max_quiesce(maxq)).unwrap();
            assert!(plan.max_phase_quiesce() <= maxq, "bound {maxq} violated");
            // Phase diffs compose to the full diff.
            let diffs: Vec<&ProgramDiff> = plan.phases.iter().map(|p| &p.diff).collect();
            let net = compose_diffs(&diffs);
            let mut expect = BTreeMap::new();
            expect.insert("Fnt".to_string(), NetChange::Changed);
            expect.insert("B3".to_string(), NetChange::Removed);
            expect.insert("B4".to_string(), NetChange::Removed);
            assert_eq!(net, expect, "composition at bound {maxq}");
        }
    }

    #[test]
    fn colocation_lands_in_one_phase() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(2).with_colocate(&["B3", "B4"]);
        let plan = plan_reconfiguration(&a, &b, &c).unwrap();
        let both = plan
            .phases
            .iter()
            .find(|p| p.diff.removed.contains(&"B3".to_string()))
            .unwrap();
        assert!(both.diff.removed.contains(&"B4".to_string()));
    }

    #[test]
    fn colocation_too_large_is_rejected() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(1).with_colocate(&["B3", "B4"]);
        match plan_reconfiguration(&a, &b, &c) {
            Err(PlanError::ColocationTooLarge { quiesce: 2, max: 1, .. }) => {}
            other => panic!("expected ColocationTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn anti_affinity_splits_phases() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(2).with_anti_affinity("B3", "B4");
        let plan = plan_reconfiguration(&a, &b, &c).unwrap();
        for p in &plan.phases {
            let q = p.quiesced();
            assert!(
                !(q.contains(&"B3") && q.contains(&"B4")),
                "anti-affine pair co-quiesced in phase {}",
                p.index
            );
        }
    }

    #[test]
    fn affinity_conflict_is_rejected() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(2)
            .with_colocate(&["B3", "B4"])
            .with_anti_affinity("B3", "B4");
        match plan_reconfiguration(&a, &b, &c) {
            Err(PlanError::AffinityConflict { .. }) => {}
            other => panic!("expected AffinityConflict, got {other:?}"),
        }
    }

    #[test]
    fn zero_bound_rejected_when_quiesce_needed() {
        let (a, b) = shrink();
        match plan_reconfiguration(&a, &b, &PlanConstraints::max_quiesce(0)) {
            Err(PlanError::QuiesceBoundZero) => {}
            other => panic!("expected QuiesceBoundZero, got {other:?}"),
        }
        // Pure additions need no quiescing, so a zero bound is fine.
        let (a2, b2) = grow();
        let add_only = compiled(vec![
            ("Fnt", "F", skip()),
            ("B1", "T", skip()),
            ("B2", "T", skip()),
            ("B3", "T", skip()),
        ]);
        let plan = plan_reconfiguration(&a2, &add_only, &PlanConstraints::max_quiesce(0));
        assert!(plan.is_ok());
        let _ = b2;
    }

    #[test]
    fn phase_targets_are_continuous() {
        let (a, b) = shrink();
        let plan = plan_reconfiguration(&a, &b, &PlanConstraints::max_quiesce(1)).unwrap();
        let mut prev = a.clone();
        for p in &plan.phases {
            // Each recorded diff is exactly the executor's recomputation.
            assert_eq!(p.diff, diff_programs(&prev, &p.target), "phase {}", p.index);
            prev = p.target.clone();
        }
        assert!(diff_programs(&prev, &b).is_identity());
    }

    #[test]
    fn break_before_make_violates_ordering() {
        let (a, b) = shrink();
        let c = PlanConstraints::max_quiesce(1);
        let plan = plan_break_before_make(&a, &b, &c);
        // Removals come first and blow the bound.
        assert_eq!(plan.phases[0].diff.removed, vec!["B3", "B4"]);
        assert!(plan.max_phase_quiesce() > c.max_concurrent_quiesce);
        // But it still reaches B.
        assert!(diff_programs(&plan.phases.last().unwrap().target, &b).is_identity());
    }

    #[test]
    fn mixed_colocate_add_and_change_share_phase() {
        let (a, b) = grow();
        let c = PlanConstraints::max_quiesce(1).with_colocate(&["Fnt", "B3"]);
        let plan = plan_reconfiguration(&a, &b, &c).unwrap();
        let fnt_phase = plan
            .phases
            .iter()
            .find(|p| p.quiesced().contains(&"Fnt"))
            .unwrap();
        assert!(fnt_phase.diff.added.contains(&"B3".to_string()));
        assert!(diff_programs(&plan.phases.last().unwrap().target, &b).is_identity());
    }
}
