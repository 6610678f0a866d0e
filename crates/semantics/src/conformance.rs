//! Trace conformance: replay a recorded runtime trace against the §8
//! semantics and check it describes a *valid configuration*.
//!
//! The checker reads the events `csaw-runtime`'s recorder produces —
//! `&[TraceEvent]`, matched on the typed `TraceKind`/`TableEvent`
//! variants — so an in-process caller passes `Runtime::trace_events()`
//! as is. A trace dumped as JSONL reads back through
//! `csaw_runtime::trace::parse_jsonl`, the writer's exact inverse. It
//! checks three families of rules:
//!
//! 1. **Structural causality** (`rule: "causality"`). Per junction,
//!    `sched`/`unsched` alternate and epochs strictly increase; every
//!    *applied* sequenced delivery is preceded (in global sequence
//!    order) by a matching `link_send` from its sender; and no
//!    `(sender, receiver, seq)` triple is applied twice (at-most-once
//!    delivery, the reliability layer's contract).
//! 2. **The §8 local-priority update rule** (`rule: "update-rule"`).
//!    Each junction's KV events are replayed against the rule of §8:
//!    a remote update may apply during a run only through a `wait`
//!    window whose opening is *newer* than any local write to the key
//!    (`lop < wop`); a pending update flushed at the next scheduling
//!    must be *shadow-dropped*, not applied, when a local write
//!    overtook it during the run (`lop > op`); and a retroactive apply
//!    at window opening requires `op > lop`.
//! 3. **Event-structure conformance** (`rule: "event-structure"`).
//!    Each activation's observed labels (sends as `Wr`, admitted
//!    deliveries as `Rd`) are matched against the event structure
//!    denoted from the same program. Matching is lenient — the
//!    denotation abstracts values and the runtime interleaves freely —
//!    but two labels co-occurring in one activation whose candidate
//!    events *all* conflict pairwise contradict the semantics: no
//!    valid configuration contains both (conflict-freeness, §8.1).
//!
//! There is one entry point, [`check_trace`]. It takes the trace and
//! the **epoch chain**: the
//! programs the system embodied, in cut order — `csaw-runtime` keeps
//! exactly this as `Runtime::epoch_chain`. What it does depends on how
//! many `reconfig_cut` records the trace holds:
//!
//! * **Zero cuts.** The whole trace validates against `chain[0]`. An
//!   empty chain is the raw-table case: rules 1 and 2 only.
//! * **N ≥ 1 cuts** (live reconfigurations: direct, plan phases,
//!   supervisor repairs, autoscaler transitions — the runtime's
//!   `reconfig_*` events). The cuts split the trace into N + 1 epochs;
//!   activations between cut `k-1` and cut `k` validate against
//!   `chain[k]`, and every scheduled junction must exist in its epoch's
//!   program (`rule: "reconfig"` flags activity that belongs to the
//!   wrong epoch's program, and a chain whose length is not N + 1). The
//!   causality indexes (send-before-apply, at-most-once delivery)
//!   deliberately span the whole trace — an update sent before a cut
//!   and flushed after it is fine, but an update lost or applied twice
//!   *across* any pair of epochs is a violation.
//!
//! Either way the trace's `repair_*` events must obey the supervisor's
//! detect → plan → (fence) → verify → done/failed protocol (`rule:
//! "repair"`, see [`check_repair_events`]); a trace without such
//! events passes that rule trivially.
//!
//! Violations carry the offending `gsn` so the JSONL line can be
//! located directly.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use csaw_kv::TableEvent;
use csaw_runtime::{TraceEvent, TraceKind};

use crate::denote::ProgramSemantics;
use crate::event::{EventId, Label};

// ---------------------------------------------------------------------
// Conformance checking
// ---------------------------------------------------------------------

/// Checker knobs.
#[derive(Clone, Debug)]
pub struct ConformanceOptions {
    /// Require every applied sequenced delivery to be preceded by a
    /// recorded `link_send` from its sender. Disable when the trace is
    /// a suffix of the run (ring overflow) or synthesized by hand.
    pub require_send_for_apply: bool,
}

impl Default for ConformanceOptions {
    fn default() -> Self {
        ConformanceOptions { require_send_for_apply: true }
    }
}

/// One conformance violation, anchored to a trace line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Global sequence number of the offending record.
    pub gsn: u64,
    /// Rule family: `causality`, `update-rule`, `event-structure`, or
    /// `overload`.
    pub rule: &'static str,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] gsn {}: {}", self.rule, self.gsn, self.detail)
    }
}

/// The checker's verdict.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// Records checked.
    pub events: usize,
    /// Rule violations, in trace order.
    pub violations: Vec<Violation>,
    /// Activation labels matched against the denoted event structure.
    pub matched_labels: usize,
    /// Labels with no candidate event (informational, not violations:
    /// the denotation abstracts recursion depth and app behaviour).
    pub unmatched_labels: usize,
    /// `link_shed` events seen (informational: overload-layer sheds are
    /// first-class non-deliveries, not errors — a shed update is never
    /// acked, so it cannot participate in a lost-acked violation).
    pub sheds: usize,
}

impl ConformanceReport {
    /// True iff the trace is a valid configuration under every rule.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn flag(&mut self, gsn: u64, rule: &'static str, detail: String) {
        self.violations.push(Violation { gsn, rule, detail });
    }

    /// Render violations one per line (empty string when `ok`).
    pub fn describe(&self) -> String {
        self.violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn instance_of(qualified: &str) -> &str {
    qualified.split("::").next().unwrap_or(qualified)
}

/// Strip a `[index]` suffix: the denotation labels indexed families by
/// their base name when the index is a parameter.
fn norm_key(key: &str) -> &str {
    key.split('[').next().unwrap_or(key)
}

/// Per-junction §8 replay state; keys borrow from the trace.
#[derive(Default)]
struct JunctionReplay<'a> {
    /// Latest local-write op per key.
    lop: HashMap<&'a str, u64>,
    /// Open windows: token → (wop, keys).
    windows: HashMap<u64, (u64, &'a [Arc<str>])>,
    /// Inside a `sched`..`unsched` bracket, and its epoch.
    active: Option<u64>,
    /// Gsn of the bracket-opening `sched` (selects the reconfiguration
    /// epoch the activation belongs to).
    active_gsn: u64,
    /// Highest `sched` epoch seen.
    last_epoch: u64,
    /// Labels observed in the current activation, with candidate gsn.
    labels: Vec<(u64, ObservedLabel<'a>)>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ObservedLabel<'a> {
    /// This junction sent an update for `key` (normalized).
    Wr(&'a str),
    /// This junction admitted a remote update for `key` through a
    /// window — the runtime footprint of the §8 `wait` read.
    Rd(&'a str),
}

impl JunctionReplay<'_> {
    fn admits(&self, key: &str) -> bool {
        self.windows.values().any(|(wop, keys)| {
            keys.iter().any(|k| &**k == key) && self.lop.get(key).is_none_or(|s| s < wop)
        })
    }
}

/// Check a recorded trace against the epoch chain it was recorded under.
///
/// `chain[0]` is the boot program's semantics (from
/// [`crate::denote::denote_program`]) and `chain[k]` the semantics of
/// the program installed by the `k`-th `reconfig_cut`; `None` entries
/// (or an empty chain, for raw-table traces with no program behind
/// them) skip the event-structure rule for that epoch.
///
/// A trace with no `reconfig_cut` validates wholly against `chain[0]`.
/// Otherwise the epoch side of an activation is the number of cuts
/// preceding its `sched`, each epoch's activity must belong to that
/// epoch's program (an instance scheduled in an epoch whose program
/// does not define it is a `reconfig` violation), and the chain must
/// hold exactly `cuts + 1` entries — a mismatch is flagged and later
/// epochs clamp to the last provided semantics rather than validating
/// against the wrong program silently. The causality indexes span the
/// whole trace on purpose: a held update sent in one epoch and flushed
/// in the next matches its send normally, while an update applied in
/// two epochs is a duplicate.
///
/// Re-linking an *existing* route mid-reconfiguration (via `set_link`
/// in the spec) is safe for this view: the transport tags each route
/// conversation with a generation carried in the sequence numbers'
/// high bits, so the rewired route's restarted counter never repeats a
/// `(sender, receiver, seq)` triple from before the rewire.
///
/// The trace's `repair_*` events are additionally validated by the
/// [`check_repair_events`] rule: every repair id must run detect →
/// plan → (fence) → verify → done/failed in order, and `repair_done`
/// requires a passed verification.
pub fn check_trace(
    events: &[TraceEvent],
    chain: &[Option<&ProgramSemantics>],
    opts: &ConformanceOptions,
) -> ConformanceReport {
    let mut cuts: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ReconfigCut))
        .map(|e| e.gsn)
        .collect();
    cuts.sort_unstable();
    let n_cuts = cuts.len();
    let mut report = if cuts.is_empty() {
        let boot = chain.first().copied().flatten();
        check_trace_with(events, opts, false, &|_| (0, boot))
    } else {
        check_trace_with(events, opts, true, &|gsn| {
            // The epoch side of a gsn is how many cuts precede it.
            let side = cuts.partition_point(|&c| c <= gsn);
            let ix = side.min(chain.len().saturating_sub(1));
            (side, chain.get(ix).copied().flatten())
        })
    };
    if n_cuts > 0 && chain.len() != n_cuts + 1 {
        report.flag(
            0,
            "reconfig",
            format!(
                "trace has {n_cuts} cut(s) but {} program semantics were \
                 provided (expected {}); later epochs were validated \
                 against the last one",
                chain.len(),
                n_cuts + 1
            ),
        );
    }
    report.violations.extend(check_repair_events(events));
    report.violations.sort_by_key(|v| v.gsn);
    report
}

/// Validate the supervisor's `repair_*` event protocol (`rule:
/// "repair"`): for each repair id, events must run detect →
/// \[escalate\] → plan → \[fence\] → verify → done/failed, with at most
/// one terminal, and `repair_done` only after a `repair_verify` with
/// `ok: true` — a repair declared done without passed verification is
/// exactly the lie this rule exists to catch. A detection with no
/// terminal is *not* a violation: the trace may end mid-repair, and a
/// class with no registered ladder detects without repairing.
pub fn check_repair_events(events: &[TraceEvent]) -> Vec<Violation> {
    use TraceKind::*;
    #[derive(Default)]
    struct RepairState {
        detect: bool,
        plan: bool,
        verify_passed: bool,
        terminal: bool,
    }
    let mut sorted: Vec<(&TraceEvent, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            RepairDetect { id, .. }
            | RepairEscalate { id, .. }
            | RepairPlan { id, .. }
            | RepairFence { id, .. }
            | RepairVerify { id, .. }
            | RepairDone { id, .. }
            | RepairFailed { id } => Some((e, id)),
            _ => None,
        })
        .collect();
    sorted.sort_by_key(|(e, _)| e.gsn);
    let mut state: BTreeMap<u64, RepairState> = BTreeMap::new();
    let mut out = Vec::new();
    let mut flag = |gsn: u64, detail: String| {
        out.push(Violation { gsn, rule: "repair", detail });
    };
    for (e, id) in sorted {
        let st = state.entry(id).or_default();
        match e.kind {
            RepairDetect { .. } => {
                if st.detect {
                    flag(e.gsn, format!("repair {id} detected twice"));
                }
                st.detect = true;
            }
            RepairEscalate { .. } if !st.detect => {
                flag(e.gsn, format!("repair {id} escalated before detection"));
            }
            RepairPlan { .. } => {
                if !st.detect {
                    flag(e.gsn, format!("repair {id} planned before detection"));
                }
                if st.plan {
                    flag(e.gsn, format!("repair {id} planned twice"));
                }
                st.plan = true;
            }
            RepairFence { .. } if !st.plan => {
                flag(e.gsn, format!("repair {id} fenced before a plan"));
            }
            RepairVerify { ok, .. } => {
                if !st.plan {
                    flag(e.gsn, format!("repair {id} verified before a plan"));
                }
                st.verify_passed = ok;
            }
            RepairDone { .. } => {
                if st.terminal {
                    flag(e.gsn, format!("repair {id} terminated twice"));
                }
                if !st.verify_passed {
                    flag(
                        e.gsn,
                        format!("repair {id} declared done without passed verification"),
                    );
                }
                st.terminal = true;
            }
            RepairFailed { .. } => {
                if st.terminal {
                    flag(e.gsn, format!("repair {id} terminated twice"));
                }
                st.terminal = true;
            }
            _ => {}
        }
    }
    out
}

/// Shared single-pass checker. `pick` maps an activation's `sched` gsn
/// to the (epoch side, semantics) it validates against; `strict_epoch`
/// additionally requires every scheduled junction to exist in its
/// epoch's program (reconfiguration mode).
fn check_trace_with<'s>(
    events: &[TraceEvent],
    opts: &ConformanceOptions,
    strict_epoch: bool,
    pick: &dyn Fn(u64) -> (usize, Option<&'s ProgramSemantics>),
) -> ConformanceReport {
    use TableEvent as T;
    use TraceKind as K;
    let mut report = ConformanceReport { events: events.len(), ..Default::default() };

    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.gsn);

    // Pass 1: index link sends by (sender instance, receiver instance,
    // seq) → earliest gsn.
    let mut sends: HashMap<(&str, &str, u64), u64> = HashMap::new();
    for &e in &sorted {
        if let K::LinkSend { to, seq, .. } = &e.kind {
            if *seq != 0 {
                sends.entry((&e.instance, instance_of(to), *seq)).or_insert(e.gsn);
            }
        }
    }

    // Full-conflict relations, computed lazily per (epoch side,
    // junction) — the same junction may denote differently in the pre-
    // and post-reconfiguration programs.
    let mut conflicts: HashMap<(usize, String), BTreeSet<(EventId, EventId)>> = HashMap::new();

    let mut replays: BTreeMap<(&str, &str), JunctionReplay> = BTreeMap::new();
    let mut applied_once: HashSet<(&str, &str, u64)> = HashSet::new();

    for &e in &sorted {
        let (gsn, instance, junction) = (e.gsn, &*e.instance, &*e.junction);
        let applied = match &e.kind {
            K::Kv(T::Deliver { from, link_seq, applied: true, .. })
            | K::Kv(T::FlushApply { from, link_seq, .. })
            | K::Kv(T::RetroApply { from, link_seq, .. }) => Some((from, *link_seq)),
            _ => None,
        };
        if let Some((from, seq)) = applied.filter(|&(_, seq)| seq != 0) {
            let triple = (instance_of(from), instance, seq);
            if !applied_once.insert(triple) {
                report.flag(
                    gsn,
                    "causality",
                    format!("duplicate apply of seq {seq} from {} at {instance}", triple.0),
                );
            }
            if opts.require_send_for_apply {
                match sends.get(&triple) {
                    Some(&sg) if sg < gsn => {}
                    Some(&sg) => report.flag(
                        gsn,
                        "causality",
                        format!("apply of seq {seq} precedes its send (gsn {sg})"),
                    ),
                    None => report.flag(
                        gsn,
                        "causality",
                        format!("apply of seq {seq} from {} with no recorded send", triple.0),
                    ),
                }
            }
        }

        // Overload rule: a shed is a first-class non-delivery — it
        // must refer to an update that was actually sent (its
        // `link_send` precedes it), and it never counts as an apply.
        // Sheds of sequenced updates only; seq 0 marks unsequenced
        // control traffic, which the data-plane shed paths never touch.
        if let K::LinkShed { to, seq } = &e.kind {
            report.sheds += 1;
            if *seq != 0 && opts.require_send_for_apply {
                match sends.get(&(instance, instance_of(to), *seq)) {
                    Some(&sg) if sg <= gsn => {}
                    Some(&sg) => report.flag(
                        gsn,
                        "overload",
                        format!("shed of seq {seq} precedes its send (gsn {sg})"),
                    ),
                    None => report.flag(
                        gsn,
                        "overload",
                        format!("shed of seq {seq} to {to} with no recorded send"),
                    ),
                }
            }
        }

        let jr = replays.entry((instance, junction)).or_default();
        match &e.kind {
            K::Sched => {
                if jr.active.is_some() {
                    report.flag(
                        gsn,
                        "causality",
                        format!("{instance}::{junction} scheduled while already active"),
                    );
                }
                if e.epoch <= jr.last_epoch {
                    report.flag(
                        gsn,
                        "causality",
                        format!(
                            "{instance}::{junction} epoch did not advance ({} after {})",
                            e.epoch, jr.last_epoch
                        ),
                    );
                }
                jr.last_epoch = e.epoch;
                jr.active = Some(e.epoch);
                jr.active_gsn = gsn;
                jr.labels.clear();
                let sem = if strict_epoch { pick(gsn).1 } else { None };
                if let Some(sem) = sem {
                    let qualified = format!("{instance}::{junction}");
                    if !sem.junctions.contains_key(&qualified) {
                        report.flag(
                            gsn,
                            "reconfig",
                            format!(
                                "{qualified} scheduled in an epoch whose \
                                 program does not define it"
                            ),
                        );
                    }
                }
            }
            K::Unsched { .. } => {
                if jr.active.is_none() {
                    report.flag(
                        gsn,
                        "causality",
                        format!("{instance}::{junction} unscheduled while not active"),
                    );
                }
                jr.active = None;
                // Windows do not survive the activation.
                jr.windows.clear();
                let labels = std::mem::take(&mut jr.labels);
                if let (side, Some(sem)) = pick(jr.active_gsn) {
                    check_activation_labels(
                        instance,
                        junction,
                        labels,
                        sem,
                        side,
                        &mut conflicts,
                        &mut report,
                    );
                }
            }
            K::Kv(T::LocalWrite { key, op }) => {
                jr.lop.insert(key, *op);
            }
            K::Kv(T::WindowOpen { token, wop, keys }) => {
                jr.windows.insert(*token, (*wop, keys));
            }
            K::Kv(T::WindowClose { token }) => {
                jr.windows.remove(token);
            }
            K::Kv(T::Deliver { key, applied: true, .. }) => {
                if !jr.admits(key) {
                    report.flag(
                        gsn,
                        "update-rule",
                        format!(
                            "update to `{key}` applied mid-run with no \
                             admitting window newer than the local write"
                        ),
                    );
                }
                jr.labels.push((gsn, ObservedLabel::Rd(norm_key(key))));
            }
            K::Kv(T::FlushApply { key, op, during_run: true, .. })
                if jr.lop.get(&**key).is_some_and(|l| l > op) =>
            {
                report.flag(
                    gsn,
                    "update-rule",
                    format!(
                        "pending update to `{key}` applied though a \
                         local write overtook it (should shadow-drop)"
                    ),
                );
            }
            K::Kv(T::ShadowDrop { key, op, lop, during_run, .. })
                if !(*during_run && lop > op && jr.lop.get(&**key) == Some(lop)) =>
            {
                report.flag(
                    gsn,
                    "update-rule",
                    format!("shadow drop of `{key}` without a shadowing local write"),
                );
            }
            K::Kv(T::RetroApply { key, op, .. }) if jr.lop.get(&**key).is_some_and(|l| op <= l) => {
                report.flag(
                    gsn,
                    "update-rule",
                    format!(
                        "retroactive apply of `{key}` older than the \
                         local write it should defer to"
                    ),
                );
            }
            K::LinkSend { key, .. } if jr.active.is_some() => {
                jr.labels.push((gsn, ObservedLabel::Wr(norm_key(key))));
            }
            _ => {}
        }
    }

    report
}

/// Match one activation's observed labels against the junction's
/// denoted event structure and flag co-occurring all-conflicting pairs.
fn check_activation_labels(
    instance: &str,
    junction: &str,
    labels: Vec<(u64, ObservedLabel)>,
    sem: &ProgramSemantics,
    side: usize,
    conflicts: &mut HashMap<(usize, String), BTreeSet<(EventId, EventId)>>,
    report: &mut ConformanceReport,
) {
    if labels.is_empty() {
        return;
    }
    let qualified = format!("{instance}::{junction}");
    let Some(es) = sem.junctions.get(&qualified) else {
        report.unmatched_labels += labels.len();
        return;
    };
    let candidates: Vec<(u64, &ObservedLabel, Vec<EventId>)> = labels
        .iter()
        .map(|(gsn, l)| {
            let ids = match l {
                ObservedLabel::Wr(key) => es.find(|lab| {
                    matches!(lab, Label::Wr { key: k, .. } if norm_key(k) == *key)
                }),
                ObservedLabel::Rd(key) => es.find(|lab| {
                    matches!(
                        lab,
                        Label::Rd { key: k, .. } if norm_key(k) == *key
                    ) || matches!(
                        lab,
                        Label::Wait { data, .. }
                            if data.iter().any(|k| norm_key(k) == *key)
                    )
                }),
            };
            (*gsn, l, ids)
        })
        .collect();
    for (_, _, ids) in &candidates {
        if ids.is_empty() {
            report.unmatched_labels += 1;
        } else {
            report.matched_labels += 1;
        }
    }
    let conf = conflicts
        .entry((side, qualified.clone()))
        .or_insert_with(|| es.full_conflict());
    for (a_ix, (gsn_a, la, ca)) in candidates.iter().enumerate() {
        for (gsn_b, lb, cb) in candidates.iter().skip(a_ix + 1) {
            if ca.is_empty() || cb.is_empty() {
                continue;
            }
            let all_conflict = ca.iter().all(|x| {
                cb.iter().all(|y| x != y && conf.contains(&(*x, *y)))
            });
            if all_conflict {
                report.flag(
                    *gsn_b.max(gsn_a),
                    "event-structure",
                    format!(
                        "labels {la:?} and {lb:?} co-occur in one activation of \
                         {qualified} but every candidate event pair conflicts"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ls: &[&str]) -> Vec<TraceEvent> {
        csaw_runtime::trace::parse_jsonl(&ls.join("\n")).unwrap()
    }

    #[test]
    fn admitted_delivery_behind_local_write_is_flagged() {
        // A window opened *before* a local write must not admit a
        // remote update to that key (§8 local priority): wop < lop.
        let recs = lines(&[
            r#"{"gsn":1,"us":10,"i":"f","j":"serve","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":12,"i":"f","j":"serve","ep":1,"k":"kv_window_open","tok":0,"wop":1,"keys":["Reply"]}"#,
            r#"{"gsn":3,"us":15,"i":"f","j":"serve","ep":1,"k":"kv_local_write","key":"Reply","op":2}"#,
            r#"{"gsn":4,"us":20,"i":"f","j":"serve","ep":1,"k":"kv_deliver","key":"Reply","from":"g::run","seq":1,"op":3,"applied":true,"run":true}"#,
            r#"{"gsn":5,"us":25,"i":"f","j":"serve","ep":1,"k":"kv_window_close","tok":0}"#,
            r#"{"gsn":6,"us":30,"i":"f","j":"serve","ep":1,"k":"unsched","ok":true}"#,
        ]);
        let opts = ConformanceOptions { require_send_for_apply: false };
        let report = check_trace(&recs, &[], &opts);
        assert_eq!(report.violations.len(), 1, "{}", report.describe());
        assert_eq!(report.violations[0].rule, "update-rule");
        assert_eq!(report.violations[0].gsn, 4);
    }

    #[test]
    fn window_newer_than_local_write_admits_cleanly() {
        let recs = lines(&[
            r#"{"gsn":1,"us":10,"i":"f","j":"serve","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":12,"i":"f","j":"serve","ep":1,"k":"kv_local_write","key":"Reply","op":1}"#,
            r#"{"gsn":3,"us":15,"i":"f","j":"serve","ep":1,"k":"kv_window_open","tok":0,"wop":2,"keys":["Reply"]}"#,
            r#"{"gsn":4,"us":20,"i":"f","j":"serve","ep":1,"k":"kv_deliver","key":"Reply","from":"g::run","seq":1,"op":3,"applied":true,"run":true}"#,
            r#"{"gsn":5,"us":30,"i":"f","j":"serve","ep":1,"k":"unsched","ok":true}"#,
        ]);
        let opts = ConformanceOptions { require_send_for_apply: false };
        let report = check_trace(&recs, &[], &opts);
        assert!(report.ok(), "{}", report.describe());
    }

    #[test]
    fn shadow_and_flush_rules_replay() {
        // Arrives mid-run, local write overtakes it, next scheduling
        // shadow-drops: valid. Applying it instead would violate.
        let valid = lines(&[
            r#"{"gsn":1,"us":0,"i":"f","j":"x","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"f","j":"x","ep":1,"k":"kv_deliver","key":"W","from":"g::y","seq":1,"op":1,"applied":false,"run":true}"#,
            r#"{"gsn":3,"us":2,"i":"f","j":"x","ep":1,"k":"kv_local_write","key":"W","op":2}"#,
            r#"{"gsn":4,"us":3,"i":"f","j":"x","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":5,"us":4,"i":"f","j":"x","ep":2,"k":"sched"}"#,
            r#"{"gsn":6,"us":5,"i":"f","j":"x","ep":2,"k":"kv_shadow_drop","key":"W","from":"g::y","seq":1,"op":1,"lop":2,"run":true}"#,
            r#"{"gsn":7,"us":6,"i":"f","j":"x","ep":2,"k":"unsched","ok":true}"#,
        ]);
        let opts = ConformanceOptions { require_send_for_apply: false };
        assert!(check_trace(&valid, &[], &opts).ok());

        let invalid = lines(&[
            r#"{"gsn":1,"us":0,"i":"f","j":"x","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"f","j":"x","ep":1,"k":"kv_deliver","key":"W","from":"g::y","seq":1,"op":1,"applied":false,"run":true}"#,
            r#"{"gsn":3,"us":2,"i":"f","j":"x","ep":1,"k":"kv_local_write","key":"W","op":2}"#,
            r#"{"gsn":4,"us":3,"i":"f","j":"x","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":5,"us":5,"i":"f","j":"x","ep":2,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":1,"run":true}"#,
        ]);
        let report = check_trace(&invalid, &[], &opts);
        assert!(!report.ok());
        assert_eq!(report.violations[0].rule, "update-rule");
    }

    #[test]
    fn causality_catches_missing_send_and_double_apply() {
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"g","j":"y","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"g","j":"y","ep":1,"k":"link_send","to":"f::x","key":"W","seq":1,"n":24}"#,
            r#"{"gsn":3,"us":2,"i":"g","j":"y","ep":1,"k":"unsched","ok":true}"#,
            // seq 1 applies (fine), then a duplicate apply of seq 1 and
            // an apply of never-sent seq 7.
            r#"{"gsn":4,"us":3,"i":"f","j":"x","ep":1,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":1,"run":false}"#,
            r#"{"gsn":5,"us":4,"i":"f","j":"x","ep":2,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":2,"run":false}"#,
            r#"{"gsn":6,"us":5,"i":"f","j":"x","ep":3,"k":"kv_flush_apply","key":"W","from":"g::y","seq":7,"op":3,"run":false}"#,
        ]);
        let report = check_trace(&recs, &[], &ConformanceOptions::default());
        assert_eq!(report.violations.len(), 2, "{}", report.describe());
        assert!(report.violations.iter().all(|v| v.rule == "causality"));
    }

    #[test]
    fn shed_after_send_is_first_class_and_unsent_shed_is_flagged() {
        // A shed of a sent update is legal (and counted); it is not an
        // apply, so the sent-but-shed update needs no apply either.
        let valid = lines(&[
            r#"{"gsn":1,"us":0,"i":"g","j":"y","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"g","j":"y","ep":1,"k":"link_send","to":"f::x","key":"W","seq":1,"n":24}"#,
            r#"{"gsn":3,"us":2,"i":"g","j":"y","ep":1,"k":"link_shed","to":"f::x","seq":1}"#,
            r#"{"gsn":4,"us":3,"i":"g","j":"y","ep":1,"k":"unsched","ok":true}"#,
        ]);
        let report = check_trace(&valid, &[], &ConformanceOptions::default());
        assert!(report.ok(), "{}", report.describe());
        assert_eq!(report.sheds, 1);

        // A shed of an update with no recorded send is an overload-rule
        // violation: the shed path must sit strictly after the send.
        let invalid = lines(&[
            r#"{"gsn":1,"us":0,"i":"g","j":"y","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"g","j":"y","ep":1,"k":"link_shed","to":"f::x","seq":9}"#,
            r#"{"gsn":3,"us":2,"i":"g","j":"y","ep":1,"k":"unsched","ok":true}"#,
        ]);
        let report = check_trace(&invalid, &[], &ConformanceOptions::default());
        assert_eq!(report.violations.len(), 1, "{}", report.describe());
        assert_eq!(report.violations[0].rule, "overload");

        // Unsequenced (seq 0) sheds are control-plane noise: ignored.
        let control = lines(&[
            r#"{"gsn":1,"us":0,"i":"g","j":"y","ep":1,"k":"link_shed","to":"f::x","seq":0}"#,
        ]);
        assert!(check_trace(&control, &[], &ConformanceOptions::default()).ok());
    }

    #[test]
    fn reconfig_cross_epoch_duplicate_apply_is_flagged() {
        // seq 1 applies in epoch A and again in epoch B: a duplicated
        // update *across* the cut — exactly what the global index must
        // catch.
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"g","j":"y","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"g","j":"y","ep":1,"k":"link_send","to":"f::x","key":"W","seq":1,"n":24}"#,
            r#"{"gsn":3,"us":2,"i":"g","j":"y","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":4,"us":3,"i":"f","j":"x","ep":1,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":1,"run":false}"#,
            r#"{"gsn":5,"us":4,"i":"","j":"","ep":0,"k":"reconfig_cut"}"#,
            r#"{"gsn":6,"us":5,"i":"f","j":"x","ep":2,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":2,"run":false}"#,
        ]);
        let report = check_trace(&recs, &[None, None], &ConformanceOptions::default());
        assert_eq!(report.violations.len(), 1, "{}", report.describe());
        assert_eq!(report.violations[0].rule, "causality");
        assert_eq!(report.violations[0].gsn, 6);
    }

    #[test]
    fn held_update_flushed_after_cut_matches_pre_cut_send() {
        // An update sent in epoch A, buffered by the quiesce hold, and
        // flushed in epoch B is the normal reconfiguration path: the
        // whole-trace send index must accept it.
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"g","j":"y","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"g","j":"y","ep":1,"k":"link_send","to":"f::x","key":"W","seq":1,"n":24}"#,
            r#"{"gsn":3,"us":2,"i":"g","j":"y","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":4,"us":3,"i":"","j":"","ep":0,"k":"reconfig_cut"}"#,
            r#"{"gsn":5,"us":4,"i":"f","j":"x","ep":1,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":1,"run":false}"#,
        ]);
        let report = check_trace(&recs, &[None, None], &ConformanceOptions::default());
        assert!(report.ok(), "{}", report.describe());
    }

    #[test]
    fn scheduling_an_instance_in_the_wrong_epoch_is_flagged() {
        use crate::event::{EventStructure, Label};
        use std::collections::BTreeMap;
        // Hand-built semantics: program A defines old::j, program B
        // defines new::j.
        let make = |qualified: &str| {
            let (es, _) = EventStructure::singleton(Label::Custom("e".into()));
            let mut junctions = BTreeMap::new();
            junctions.insert(qualified.to_string(), es);
            let (startup, _) = EventStructure::singleton(Label::Custom("main".into()));
            ProgramSemantics { startup, junctions }
        };
        let sem_a = make("old::j");
        let sem_b = make("new::j");
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"old","j":"j","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"old","j":"j","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":3,"us":2,"i":"","j":"","ep":0,"k":"reconfig_cut"}"#,
            r#"{"gsn":4,"us":3,"i":"new","j":"j","ep":1,"k":"sched"}"#,
            r#"{"gsn":5,"us":4,"i":"new","j":"j","ep":1,"k":"unsched","ok":true}"#,
            // Epoch violation: old is gone from program B.
            r#"{"gsn":6,"us":5,"i":"old","j":"j","ep":2,"k":"sched"}"#,
            r#"{"gsn":7,"us":6,"i":"old","j":"j","ep":2,"k":"unsched","ok":true}"#,
        ]);
        let report = check_trace(
            &recs,
            &[Some(&sem_a), Some(&sem_b)],
            &ConformanceOptions::default(),
        );
        let reconfig: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "reconfig")
            .collect();
        assert_eq!(reconfig.len(), 1, "{}", report.describe());
        assert_eq!(reconfig[0].gsn, 6);
    }

    #[test]
    fn trace_without_cut_degrades_to_plain_check() {
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"f","j":"x","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"f","j":"x","ep":1,"k":"unsched","ok":true}"#,
        ]);
        let report = check_trace(&recs, &[None, None], &ConformanceOptions::default());
        assert!(report.ok());
    }

    #[test]
    fn repair_protocol_in_order_is_clean() {
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"b","j":"-","ep":0,"k":"repair_detect","to":"crash","n":0}"#,
            r#"{"gsn":2,"us":1,"i":"b","j":"-","ep":0,"k":"repair_plan","to":"reconfigure","n":0,"seq":0}"#,
            r#"{"gsn":3,"us":2,"i":"b","j":"-","ep":0,"k":"repair_fence","seq":1,"n":0}"#,
            r#"{"gsn":4,"us":3,"i":"b","j":"-","ep":0,"k":"repair_verify","ok":true,"n":0}"#,
            r#"{"gsn":5,"us":4,"i":"b","j":"-","ep":0,"k":"repair_done","n":0,"seq":1500}"#,
        ]);
        assert!(check_repair_events(&recs).is_empty());
    }

    #[test]
    fn repair_done_without_passed_verify_is_flagged() {
        // done after a failed verify — and a second repair done with no
        // verify at all. Both are the "declared healthy without
        // checking" lie.
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"b","j":"-","ep":0,"k":"repair_detect","to":"crash","n":0}"#,
            r#"{"gsn":2,"us":1,"i":"b","j":"-","ep":0,"k":"repair_plan","to":"restart","n":0,"seq":0}"#,
            r#"{"gsn":3,"us":2,"i":"b","j":"-","ep":0,"k":"repair_verify","ok":false,"n":0}"#,
            r#"{"gsn":4,"us":3,"i":"b","j":"-","ep":0,"k":"repair_done","n":0,"seq":10}"#,
            r#"{"gsn":5,"us":4,"i":"c","j":"-","ep":0,"k":"repair_detect","to":"crash","n":1}"#,
            r#"{"gsn":6,"us":5,"i":"c","j":"-","ep":0,"k":"repair_plan","to":"restart","n":1,"seq":0}"#,
            r#"{"gsn":7,"us":6,"i":"c","j":"-","ep":0,"k":"repair_done","n":1,"seq":10}"#,
        ]);
        let v = check_repair_events(&recs);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "repair"));
        assert_eq!(v[0].gsn, 4);
        assert_eq!(v[1].gsn, 7);
    }

    #[test]
    fn repair_out_of_order_phases_are_flagged() {
        let recs = lines(&[
            // Plan before detect, fence before plan (different ids).
            r#"{"gsn":1,"us":0,"i":"b","j":"-","ep":0,"k":"repair_plan","to":"restart","n":0,"seq":0}"#,
            r#"{"gsn":2,"us":1,"i":"c","j":"-","ep":0,"k":"repair_fence","seq":1,"n":1}"#,
            // Double terminal.
            r#"{"gsn":3,"us":2,"i":"d","j":"-","ep":0,"k":"repair_detect","to":"crash","n":2}"#,
            r#"{"gsn":4,"us":3,"i":"d","j":"-","ep":0,"k":"repair_plan","to":"restart","n":2,"seq":0}"#,
            r#"{"gsn":5,"us":4,"i":"d","j":"-","ep":0,"k":"repair_failed","n":2}"#,
            r#"{"gsn":6,"us":5,"i":"d","j":"-","ep":0,"k":"repair_failed","n":2}"#,
        ]);
        let v = check_repair_events(&recs);
        assert_eq!(v.len(), 3, "{v:?}");
    }

    #[test]
    fn multi_reconfig_repair_trace_checks_every_epoch() {
        use crate::event::{EventStructure, Label};
        use std::collections::BTreeMap;
        let make = |qualified: &str| {
            let (es, _) = EventStructure::singleton(Label::Custom("e".into()));
            let mut junctions = BTreeMap::new();
            junctions.insert(qualified.to_string(), es);
            let (startup, _) = EventStructure::singleton(Label::Custom("main".into()));
            ProgramSemantics { startup, junctions }
        };
        // Three epochs: a::j, then b::j, then c::j. Scheduling b::j in
        // the third epoch is a violation against sem_c.
        let sem_a = make("a::j");
        let sem_b = make("b::j");
        let sem_c = make("c::j");
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"a","j":"j","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"a","j":"j","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":3,"us":2,"i":"","j":"","ep":0,"k":"reconfig_cut"}"#,
            r#"{"gsn":4,"us":3,"i":"b","j":"j","ep":1,"k":"sched"}"#,
            r#"{"gsn":5,"us":4,"i":"b","j":"j","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":6,"us":5,"i":"","j":"","ep":0,"k":"reconfig_cut"}"#,
            r#"{"gsn":7,"us":6,"i":"c","j":"j","ep":1,"k":"sched"}"#,
            r#"{"gsn":8,"us":7,"i":"c","j":"j","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":9,"us":8,"i":"b","j":"j","ep":2,"k":"sched"}"#,
            r#"{"gsn":10,"us":9,"i":"b","j":"j","ep":2,"k":"unsched","ok":true}"#,
        ]);
        let report = check_trace(
            &recs,
            &[Some(&sem_a), Some(&sem_b), Some(&sem_c)],
            &ConformanceOptions::default(),
        );
        let reconfig: Vec<_> =
            report.violations.iter().filter(|v| v.rule == "reconfig").collect();
        assert_eq!(reconfig.len(), 1, "{}", report.describe());
        assert_eq!(reconfig[0].gsn, 9);

        // Same trace with a short chain: the mismatch itself is flagged
        // (plus the b::j sched now judged against the clamped sem_b is
        // clean — exactly why the mismatch must be loud).
        let short = check_trace(
            &recs,
            &[Some(&sem_a), Some(&sem_b)],
            &ConformanceOptions::default(),
        );
        assert!(
            short.violations.iter().any(|v| v.rule == "reconfig"
                && v.detail.contains("2 program semantics")),
            "{}",
            short.describe()
        );
    }

    #[test]
    fn multi_reconfig_duplicate_apply_across_late_epochs_is_flagged() {
        // The same (sender, receiver, seq) applied in epoch 1 and epoch
        // 3: the whole-trace at-most-once index must catch it across
        // any pair of epochs, not just the first cut.
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"g","j":"y","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"g","j":"y","ep":1,"k":"link_send","to":"f::x","key":"W","seq":1,"n":24}"#,
            r#"{"gsn":3,"us":2,"i":"g","j":"y","ep":1,"k":"unsched","ok":true}"#,
            r#"{"gsn":4,"us":3,"i":"f","j":"x","ep":1,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":1,"run":false}"#,
            r#"{"gsn":5,"us":4,"i":"","j":"","ep":0,"k":"reconfig_cut"}"#,
            r#"{"gsn":6,"us":5,"i":"","j":"","ep":0,"k":"reconfig_cut"}"#,
            r#"{"gsn":7,"us":6,"i":"f","j":"x","ep":2,"k":"kv_flush_apply","key":"W","from":"g::y","seq":1,"op":2,"run":false}"#,
        ]);
        let report = check_trace(
            &recs,
            &[None, None, None],
            &ConformanceOptions::default(),
        );
        assert_eq!(report.violations.len(), 1, "{}", report.describe());
        assert_eq!(report.violations[0].rule, "causality");
        assert_eq!(report.violations[0].gsn, 7);
    }

    #[test]
    fn sched_epochs_must_advance_and_alternate() {
        let recs = lines(&[
            r#"{"gsn":1,"us":0,"i":"f","j":"x","ep":1,"k":"sched"}"#,
            r#"{"gsn":2,"us":1,"i":"f","j":"x","ep":1,"k":"sched"}"#,
        ]);
        let report = check_trace(&recs, &[], &ConformanceOptions::default());
        // Double-sched and non-advancing epoch.
        assert_eq!(report.violations.len(), 2);
    }
}
