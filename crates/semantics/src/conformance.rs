//! Trace conformance: replay a recorded runtime trace against the §8
//! semantics and check it describes a *valid configuration*.
//!
//! `csaw-runtime` records causal traces as JSONL (see its `trace`
//! module for the schema). This module parses that format — a minimal
//! flat-JSON reader, no external dependency — and checks three families
//! of rules:
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
//! There is one entry point, [`check_trace`] (and [`check_jsonl`], which
//! parses first). It takes the trace and the **epoch chain**: the
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

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::denote::ProgramSemantics;
use crate::event::{EventId, Label};

/// One parsed trace line. Fields absent from a line stay `None`/empty;
/// unknown fields are ignored (schema growth stays compatible).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceRecord {
    /// Global sequence number (total recording order).
    pub gsn: u64,
    /// Microseconds since tracer creation.
    pub us: u64,
    /// Instance.
    pub instance: String,
    /// Junction (may be empty or `-`).
    pub junction: String,
    /// Table epoch (0 when not applicable).
    pub epoch: u64,
    /// Event kind (`sched`, `kv_deliver`, `link_send`, …).
    pub kind: String,
    /// Update key.
    pub key: Option<String>,
    /// Sender, `instance::junction`.
    pub from: Option<String>,
    /// Target, `instance::junction` (or instance for heartbeats).
    pub to: Option<String>,
    /// Per-link sequence number (0 = unsequenced).
    pub seq: Option<u64>,
    /// Table operation sequence of the event.
    pub op: Option<u64>,
    /// Table operation sequence of the shadowing local write.
    pub lop: Option<u64>,
    /// Window token.
    pub tok: Option<u64>,
    /// Table operation sequence at window opening.
    pub wop: Option<u64>,
    /// Window keys.
    pub keys: Vec<String>,
    /// Generic count (bytes, attempt).
    pub n: Option<u64>,
    /// Activation outcome.
    pub ok: Option<bool>,
    /// Whether a delivery applied immediately.
    pub applied: Option<bool>,
    /// Whether the table was mid-activation.
    pub run: Option<bool>,
}

// ---------------------------------------------------------------------
// Flat-JSON line parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (continuation bytes too).
                    let start = self.i;
                    self.i += 1;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|b| (b & 0xC0) == 0x80)
                    {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.i])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }

    fn parse_bool(&mut self) -> Result<bool, String> {
        if self.s[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.s[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(format!("expected bool at byte {}", self.i))
        }
    }

    fn parse_string_array(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(self.parse_string()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(out);
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }
}

/// Parse one JSONL trace line.
pub fn parse_json_line(line: &str) -> Result<TraceRecord, String> {
    let mut p = Parser { s: line.as_bytes(), i: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut rec = TraceRecord::default();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Ok(rec);
    }
    loop {
        p.skip_ws();
        let name = p.parse_string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match p.peek() {
            Some(b'"') => {
                let v = p.parse_string()?;
                match name.as_str() {
                    "i" => rec.instance = v,
                    "j" => rec.junction = v,
                    "k" => rec.kind = v,
                    "key" => rec.key = Some(v),
                    "from" => rec.from = Some(v),
                    "to" => rec.to = Some(v),
                    _ => {}
                }
            }
            Some(b'[') => {
                let v = p.parse_string_array()?;
                if name == "keys" {
                    rec.keys = v;
                }
            }
            Some(b't') | Some(b'f') => {
                let v = p.parse_bool()?;
                match name.as_str() {
                    "ok" => rec.ok = Some(v),
                    "applied" => rec.applied = Some(v),
                    "run" => rec.run = Some(v),
                    _ => {}
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let v = p.parse_u64()?;
                match name.as_str() {
                    "gsn" => rec.gsn = v,
                    "us" => rec.us = v,
                    "ep" => rec.epoch = v,
                    "seq" => rec.seq = Some(v),
                    "op" => rec.op = Some(v),
                    "lop" => rec.lop = Some(v),
                    "tok" => rec.tok = Some(v),
                    "wop" => rec.wop = Some(v),
                    "n" => rec.n = Some(v),
                    _ => {}
                }
            }
            other => return Err(format!("unexpected value start {other:?}")),
        }
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.i += 1,
            Some(b'}') => return Ok(rec),
            other => return Err(format!("bad field separator {other:?}")),
        }
    }
}

/// Parse a JSONL trace (empty lines skipped).
pub fn parse_jsonl(jsonl: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (n, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            parse_json_line(line).map_err(|e| format!("line {}: {e}", n + 1))?,
        );
    }
    Ok(out)
}

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

/// Per-junction §8 replay state.
#[derive(Default)]
struct JunctionReplay {
    /// Latest local-write op per key.
    lop: HashMap<String, u64>,
    /// Open windows: token → (wop, keys).
    windows: HashMap<u64, (u64, Vec<String>)>,
    /// Inside a `sched`..`unsched` bracket, and its epoch.
    active: Option<u64>,
    /// Gsn of the bracket-opening `sched` (selects the reconfiguration
    /// epoch the activation belongs to).
    active_gsn: u64,
    /// Highest `sched` epoch seen.
    last_epoch: u64,
    /// Labels observed in the current activation, with candidate gsn.
    labels: Vec<(u64, ObservedLabel)>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ObservedLabel {
    /// This junction sent an update for `key` (normalized).
    Wr(String),
    /// This junction admitted a remote update for `key` through a
    /// window — the runtime footprint of the §8 `wait` read.
    Rd(String),
}

impl JunctionReplay {
    fn admits(&self, key: &str) -> bool {
        self.windows.values().any(|(wop, keys)| {
            keys.iter().any(|k| k == key)
                && self.lop.get(key).is_none_or(|s| s < wop)
        })
    }
}

/// Check a parsed trace against the epoch chain it was recorded under.
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
    records: &[TraceRecord],
    chain: &[Option<&ProgramSemantics>],
    opts: &ConformanceOptions,
) -> ConformanceReport {
    let mut cuts: Vec<u64> = records
        .iter()
        .filter(|r| r.kind == "reconfig_cut")
        .map(|r| r.gsn)
        .collect();
    cuts.sort_unstable();
    let n_cuts = cuts.len();
    let mut report = if cuts.is_empty() {
        let boot = chain.first().copied().flatten();
        check_trace_with(records, opts, false, &|_| (0, boot))
    } else {
        check_trace_with(records, opts, true, &|gsn| {
            // The epoch side of a gsn is how many cuts precede it.
            let side = cuts.partition_point(|&c| c <= gsn);
            let ix = side.min(chain.len().saturating_sub(1));
            (side, chain.get(ix).copied().flatten())
        })
    };
    if n_cuts > 0 && chain.len() != n_cuts + 1 {
        report.violations.push(Violation {
            gsn: 0,
            rule: "reconfig",
            detail: format!(
                "trace has {n_cuts} cut(s) but {} program semantics were \
                 provided (expected {}); later epochs were validated \
                 against the last one",
                chain.len(),
                n_cuts + 1
            ),
        });
    }
    report.violations.extend(check_repair_events(records));
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
pub fn check_repair_events(records: &[TraceRecord]) -> Vec<Violation> {
    #[derive(Default)]
    struct RepairState {
        detect: bool,
        plan: bool,
        verify_passed: bool,
        terminal: bool,
    }
    let mut sorted: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| r.kind.starts_with("repair_"))
        .collect();
    sorted.sort_by_key(|r| r.gsn);
    let mut state: BTreeMap<u64, RepairState> = BTreeMap::new();
    let mut out = Vec::new();
    let mut flag = |gsn: u64, detail: String| {
        out.push(Violation { gsn, rule: "repair", detail });
    };
    for r in sorted {
        let Some(id) = r.n else {
            flag(r.gsn, format!("`{}` carries no repair id", r.kind));
            continue;
        };
        let st = state.entry(id).or_default();
        match r.kind.as_str() {
            "repair_detect" => {
                if st.detect {
                    flag(r.gsn, format!("repair {id} detected twice"));
                }
                st.detect = true;
            }
            "repair_escalate" if !st.detect => {
                flag(r.gsn, format!("repair {id} escalated before detection"));
            }
            "repair_escalate" => {}
            "repair_plan" => {
                if !st.detect {
                    flag(r.gsn, format!("repair {id} planned before detection"));
                }
                if st.plan {
                    flag(r.gsn, format!("repair {id} planned twice"));
                }
                st.plan = true;
            }
            "repair_fence" if !st.plan => {
                flag(r.gsn, format!("repair {id} fenced before a plan"));
            }
            "repair_fence" => {}
            "repair_verify" => {
                if !st.plan {
                    flag(r.gsn, format!("repair {id} verified before a plan"));
                }
                st.verify_passed = r.ok == Some(true);
            }
            "repair_done" => {
                if st.terminal {
                    flag(r.gsn, format!("repair {id} terminated twice"));
                }
                if !st.verify_passed {
                    flag(
                        r.gsn,
                        format!("repair {id} declared done without passed verification"),
                    );
                }
                st.terminal = true;
            }
            "repair_failed" => {
                if st.terminal {
                    flag(r.gsn, format!("repair {id} terminated twice"));
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
    records: &[TraceRecord],
    opts: &ConformanceOptions,
    strict_epoch: bool,
    pick: &dyn Fn(u64) -> (usize, Option<&'s ProgramSemantics>),
) -> ConformanceReport {
    let mut report = ConformanceReport { events: records.len(), ..Default::default() };

    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.gsn);

    // Pass 1: index link sends by (sender instance, receiver instance,
    // seq) → earliest gsn.
    let mut sends: HashMap<(String, String, u64), u64> = HashMap::new();
    for r in &sorted {
        if r.kind == "link_send" {
            let (Some(to), Some(seq)) = (&r.to, r.seq) else { continue };
            if seq == 0 {
                continue;
            }
            sends
                .entry((r.instance.clone(), instance_of(to).to_string(), seq))
                .or_insert(r.gsn);
        }
    }

    // Full-conflict relations, computed lazily per (epoch side,
    // junction) — the same junction may denote differently in the pre-
    // and post-reconfiguration programs.
    let mut conflicts: HashMap<(usize, String), std::collections::BTreeSet<(EventId, EventId)>> =
        HashMap::new();

    let mut replays: BTreeMap<(String, String), JunctionReplay> = BTreeMap::new();
    let mut applied_once: HashSet<(String, String, u64)> = HashSet::new();

    for r in &sorted {
        let is_apply = match r.kind.as_str() {
            "kv_deliver" => r.applied == Some(true),
            "kv_flush_apply" | "kv_retro_apply" => true,
            _ => false,
        };
        if is_apply {
            if let (Some(from), Some(seq)) = (&r.from, r.seq) {
                if seq != 0 {
                    let triple = (
                        instance_of(from).to_string(),
                        r.instance.clone(),
                        seq,
                    );
                    if !applied_once.insert(triple.clone()) {
                        report.violations.push(Violation {
                            gsn: r.gsn,
                            rule: "causality",
                            detail: format!(
                                "duplicate apply of seq {seq} from {} at {}",
                                triple.0, r.instance
                            ),
                        });
                    }
                    if opts.require_send_for_apply {
                        match sends.get(&triple) {
                            Some(&sg) if sg < r.gsn => {}
                            Some(&sg) => report.violations.push(Violation {
                                gsn: r.gsn,
                                rule: "causality",
                                detail: format!(
                                    "apply of seq {seq} precedes its send (gsn {sg})"
                                ),
                            }),
                            None => report.violations.push(Violation {
                                gsn: r.gsn,
                                rule: "causality",
                                detail: format!(
                                    "apply of seq {seq} from {} with no recorded send",
                                    triple.0
                                ),
                            }),
                        }
                    }
                }
            }
        }

        // Overload rule: a shed is a first-class non-delivery — it
        // must refer to an update that was actually sent (its
        // `link_send` precedes it), and it never counts as an apply.
        // Sheds of sequenced updates only; seq 0 marks unsequenced
        // control traffic, which the data-plane shed paths never touch.
        if r.kind == "link_shed" {
            report.sheds += 1;
            if let (Some(to), Some(seq)) = (&r.to, r.seq) {
                if seq != 0 && opts.require_send_for_apply {
                    let triple =
                        (r.instance.clone(), instance_of(to).to_string(), seq);
                    match sends.get(&triple) {
                        Some(&sg) if sg <= r.gsn => {}
                        Some(&sg) => report.violations.push(Violation {
                            gsn: r.gsn,
                            rule: "overload",
                            detail: format!(
                                "shed of seq {seq} precedes its send (gsn {sg})"
                            ),
                        }),
                        None => report.violations.push(Violation {
                            gsn: r.gsn,
                            rule: "overload",
                            detail: format!(
                                "shed of seq {seq} to {to} with no recorded send"
                            ),
                        }),
                    }
                }
            }
        }

        let jr = replays
            .entry((r.instance.clone(), r.junction.clone()))
            .or_default();
        match r.kind.as_str() {
            "sched" => {
                if jr.active.is_some() {
                    report.violations.push(Violation {
                        gsn: r.gsn,
                        rule: "causality",
                        detail: format!(
                            "{}::{} scheduled while already active",
                            r.instance, r.junction
                        ),
                    });
                }
                if r.epoch <= jr.last_epoch {
                    report.violations.push(Violation {
                        gsn: r.gsn,
                        rule: "causality",
                        detail: format!(
                            "{}::{} epoch did not advance ({} after {})",
                            r.instance, r.junction, r.epoch, jr.last_epoch
                        ),
                    });
                }
                jr.last_epoch = r.epoch;
                jr.active = Some(r.epoch);
                jr.active_gsn = r.gsn;
                jr.labels.clear();
                if strict_epoch {
                    let (_, sem) = pick(r.gsn);
                    if let Some(sem) = sem {
                        let qualified = format!("{}::{}", r.instance, r.junction);
                        if !sem.junctions.contains_key(&qualified) {
                            report.violations.push(Violation {
                                gsn: r.gsn,
                                rule: "reconfig",
                                detail: format!(
                                    "{qualified} scheduled in an epoch whose \
                                     program does not define it"
                                ),
                            });
                        }
                    }
                }
            }
            "unsched" => {
                if jr.active.is_none() {
                    report.violations.push(Violation {
                        gsn: r.gsn,
                        rule: "causality",
                        detail: format!(
                            "{}::{} unscheduled while not active",
                            r.instance, r.junction
                        ),
                    });
                }
                jr.active = None;
                // Windows do not survive the activation.
                jr.windows.clear();
                let (side, sem) = pick(jr.active_gsn);
                if let Some(sem) = sem {
                    check_activation_labels(
                        &r.instance,
                        &r.junction,
                        std::mem::take(&mut jr.labels),
                        sem,
                        side,
                        &mut conflicts,
                        &mut report,
                    );
                } else {
                    jr.labels.clear();
                }
            }
            "kv_local_write" => {
                if let (Some(key), Some(op)) = (&r.key, r.op) {
                    jr.lop.insert(key.clone(), op);
                }
            }
            "kv_window_open" => {
                if let (Some(tok), Some(wop)) = (r.tok, r.wop) {
                    jr.windows.insert(tok, (wop, r.keys.clone()));
                }
            }
            "kv_window_close" => {
                if let Some(tok) = r.tok {
                    jr.windows.remove(&tok);
                }
            }
            "kv_deliver" => {
                let key = r.key.as_deref().unwrap_or("");
                if r.applied == Some(true) {
                    if !jr.admits(key) {
                        report.violations.push(Violation {
                            gsn: r.gsn,
                            rule: "update-rule",
                            detail: format!(
                                "update to `{key}` applied mid-run with no \
                                 admitting window newer than the local write"
                            ),
                        });
                    }
                    jr.labels.push((r.gsn, ObservedLabel::Rd(norm_key(key).to_string())));
                }
            }
            "kv_flush_apply" if r.run == Some(true) => {
                if let (Some(key), Some(op)) = (&r.key, r.op) {
                    if jr.lop.get(key).is_some_and(|&l| l > op) {
                        report.violations.push(Violation {
                            gsn: r.gsn,
                            rule: "update-rule",
                            detail: format!(
                                "pending update to `{key}` applied though a \
                                 local write overtook it (should shadow-drop)"
                            ),
                        });
                    }
                }
            }
            "kv_shadow_drop" => {
                let shadowed = r.run == Some(true)
                    && match (&r.key, r.op, r.lop) {
                        (Some(key), Some(op), Some(lop)) => {
                            lop > op && jr.lop.get(key).copied() == Some(lop)
                        }
                        _ => false,
                    };
                if !shadowed {
                    report.violations.push(Violation {
                        gsn: r.gsn,
                        rule: "update-rule",
                        detail: format!(
                            "shadow drop of `{}` without a shadowing local write",
                            r.key.as_deref().unwrap_or("?")
                        ),
                    });
                }
            }
            "kv_retro_apply" => {
                if let (Some(key), Some(op)) = (&r.key, r.op) {
                    if jr.lop.get(key).is_some_and(|&l| op <= l) {
                        report.violations.push(Violation {
                            gsn: r.gsn,
                            rule: "update-rule",
                            detail: format!(
                                "retroactive apply of `{key}` older than the \
                                 local write it should defer to"
                            ),
                        });
                    }
                }
            }
            "link_send" if jr.active.is_some() => {
                if let Some(key) = &r.key {
                    jr.labels
                        .push((r.gsn, ObservedLabel::Wr(norm_key(key).to_string())));
                }
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
    conflicts: &mut HashMap<(usize, String), std::collections::BTreeSet<(EventId, EventId)>>,
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
                    matches!(lab, Label::Wr { key: k, .. } if norm_key(k) == key)
                }),
                ObservedLabel::Rd(key) => es.find(|lab| {
                    matches!(
                        lab,
                        Label::Rd { key: k, .. } if norm_key(k) == key
                    ) || matches!(
                        lab,
                        Label::Wait { data, .. }
                            if data.iter().any(|k| norm_key(k) == key)
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
                report.violations.push(Violation {
                    gsn: *gsn_b.max(gsn_a),
                    rule: "event-structure",
                    detail: format!(
                        "labels {la:?} and {lb:?} co-occur in one activation of \
                         {qualified} but every candidate event pair conflicts"
                    ),
                });
            }
        }
    }
}

/// Parse a JSONL trace and check it in one call (see [`check_trace`]).
pub fn check_jsonl(
    jsonl: &str,
    chain: &[Option<&ProgramSemantics>],
    opts: &ConformanceOptions,
) -> Result<ConformanceReport, String> {
    Ok(check_trace(&parse_jsonl(jsonl)?, chain, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_fields_and_escapes() {
        let r = parse_json_line(
            r#"{"gsn":7,"us":12,"i":"f\"x","j":"serve","ep":3,"k":"kv_deliver","key":"Reply","from":"g::run","seq":9,"op":12,"applied":true,"run":false}"#,
        )
        .unwrap();
        assert_eq!(r.gsn, 7);
        assert_eq!(r.instance, "f\"x");
        assert_eq!(r.kind, "kv_deliver");
        assert_eq!(r.seq, Some(9));
        assert_eq!(r.applied, Some(true));
        assert_eq!(r.run, Some(false));
        let w = parse_json_line(
            r#"{"gsn":1,"us":0,"i":"f","j":"serve","ep":1,"k":"kv_window_open","tok":0,"wop":5,"keys":["A","B"]}"#,
        )
        .unwrap();
        assert_eq!(w.keys, vec!["A", "B"]);
        assert_eq!(w.wop, Some(5));
        assert!(parse_json_line("{}").is_ok());
        assert!(parse_json_line("{bad").is_err());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let r = parse_json_line(
            r#"{"gsn":1,"us":0,"i":"f","j":"x","ep":1,"k":"sched","future":"y","extra":3,"flag":true,"list":["z"]}"#,
        )
        .unwrap();
        assert_eq!(r.kind, "sched");
    }

    fn lines(ls: &[&str]) -> Vec<TraceRecord> {
        parse_jsonl(&ls.join("\n")).unwrap()
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
