//! Deterministic simulation testing: a single-threaded schedule
//! explorer over the runtime's virtual clock.
//!
//! Under a [`Clock::simulated`] runtime no service threads exist — no
//! junction schedulers, no heartbeat monitor, no supervisor thread, no
//! link-delivery thread. Every step of the system becomes a
//! *schedulable event* owned by the [`SimExecutor`]:
//!
//! * a scheduler pass over one junction (`pass:inst:junction`),
//! * delivery of due network packets (`pump`),
//! * a heartbeat round (`hb`),
//! * a supervisor detection poll (`sup:i`),
//! * advancing virtual time to the next armed deadline (`adv:ns`),
//! * a time-scheduled fault/workload injection (`inj:i`).
//!
//! The executor performs a seeded random walk over the enabled events:
//! each step it enumerates what is runnable *now*, asks its PRNG, and
//! records the choice. Blocking sites inside the runtime (a `wait`
//! polling its formula, a retry backoff, an `invoke` deadline loop) do
//! not stop the walk: they call the [`SimHook`] installed in the clock,
//! which makes one *nested* unit of progress — deliver due packets, run
//! some other junction, or advance time — also chosen by the PRNG and
//! recorded. Two rules keep nesting deadlock-free on one thread:
//! supervisor polls and injections fire only at top level (a repair's
//! `reconfigure` must never run above a blocked activation holding the
//! lock it needs), and re-entering a mid-activation junction is treated
//! as "not runnable" (`Cell::try_lock_activation`). The wall-clock
//! runtime nests by the same rule: a `wait` about to park first runs the
//! pass its own activation's sends made due, on its own thread
//! (`RuntimeInner::run_held`). There the nested junction's body may not
//! park (`LoweredJunction::may_park`), which keeps nesting one level
//! deep without a hook. The two clocks differ only in who picks the
//! nested pass: here the PRNG, there the held set.
//!
//! Because every source of nondeterminism — event order, virtual time,
//! fault dice, retry jitter — is derived from seeds, a schedule is
//! fully described by `(seed, injections)` and its recorded step list.
//! A failing schedule serializes to a JSON [`Artifact`];
//! [`SimExecutor::replay`] re-executes the recorded steps against a
//! fresh runtime, and [`shrink_steps`] greedily deletes chunks of the
//! record (re-checking the failure oracle each time) to minimize it. During replay, records
//! that are no longer enabled are skipped and an exhausted record list
//! falls back to a deterministic drain, so shrunk artifacts still
//! replay bit-for-bit.
//!
//! ## Exhaustive exploration
//!
//! [`SimExecutor::dfs_explore`] replaces the random walk with a
//! bounded depth-first search over top-level scheduling decisions —
//! CHESS-style stateless model checking: there is no snapshot/restore,
//! each explored schedule re-executes a fresh runtime through a forced
//! prefix of records and then continues deterministically
//! (first-enabled), collecting the decision points it passes. Two
//! reductions keep the tree tractable:
//!
//! * **Sleep sets** (Godefroid): after exploring sibling `t` from a
//!   node, orderings of the remaining subtree that merely commute `t`
//!   with steps *independent* of it are skipped. Independence is
//!   measured, not declared: a pass that neither sent anything (the
//!   transport counts every send operation, including the Direct fast
//!   path that delivers synchronously) nor made nested progress
//!   through the clock hook only touches its own instance, so two
//!   such passes on different instances commute. Every other step —
//!   pump, hb, sup, adv, inj, and any sending/nesting pass — is
//!   treated as global and never commuted.
//! * **Revisit pruning**: a fingerprint of the complete
//!   schedule-relevant state (virtual time, instance/junction/table
//!   state, transport queues and route state, failure detector,
//!   supervisor cores) prunes branches whose post-state was already
//!   reached along another schedule.
//!
//! Both preserve the set of reachable states (and therefore the
//! verdict of any state-based oracle); traces are preserved only up to
//! commutation of independent events, so oracles driven under DFS
//! should be insensitive to the relative order of independent steps —
//! the counting invariants in `csaw-bench`'s scenario library are.
//! Fidelity bounds of the fingerprint: app internals are folded in
//! only via [`crate::app::InstanceApp::sim_digest`] (default: no
//! state), and the dice position of probabilistic fault plans is not
//! captured — windowed (time-pure) plans fingerprint exactly.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{Clock, SimHook};
use crate::json;
use crate::runtime::{
    InstanceState, InstanceStatus, JunctionRt, Nesting, Policy, Runtime, RuntimeInner,
};

/// One recorded scheduling decision, in compact string form:
/// `pass:inst:junction`, `pump`, `hb`, `sup:i`, `adv:ns`, `inj:i`.
pub type StepRecord = String;

/// Explorer tuning.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the schedule walk (fault plans carry their own seeds).
    pub seed: u64,
    /// Budget of recorded scheduling decisions per schedule.
    pub max_steps: usize,
    /// Virtual-time horizon: the walk stops when the clock reaches it.
    pub horizon: Duration,
    /// How deep nested progress (hook inside hook) may go before a
    /// blocked site just advances time to its own deadline.
    pub max_nested: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            max_steps: 4000,
            horizon: Duration::from_secs(10),
            max_nested: 4,
        }
    }
}

/// What one schedule run produced.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Every recorded scheduling decision, in execution order.
    pub steps: Vec<StepRecord>,
    /// Virtual time elapsed over the run.
    pub virtual_time: Duration,
    /// The walk stopped on the step budget rather than the horizon.
    pub truncated: bool,
}

/// A replayable failing schedule: feed [`Artifact::steps`] back through
/// [`SimExecutor::replay`] (with the same program, injections, and
/// seed) to re-execute it deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// The schedule seed the failure was found with.
    pub seed: u64,
    /// What the oracle reported.
    pub reason: String,
    /// Sorted instance names of the program the schedule was recorded
    /// against. [`SimExecutor::replay_artifact`] refuses a runtime
    /// whose instance set differs — replaying such a schedule would
    /// silently diverge (records for unknown instances are skipped,
    /// new instances add choices the schedule never saw). Empty in
    /// artifacts written before this field existed; the check is then
    /// skipped.
    pub instances: Vec<String>,
    /// The recorded schedule.
    pub steps: Vec<StepRecord>,
}

struct Injection {
    at: Duration,
    f: Box<dyn Fn(&Runtime)>,
}

/// Drives one simulated runtime through one schedule. Reusable across
/// [`SimExecutor::explore`] / [`SimExecutor::replay`] calls — but each
/// call expects a *fresh* runtime started from the same initial state,
/// or determinism is meaningless.
pub struct SimExecutor {
    config: SimConfig,
    injections: Vec<Injection>,
}

enum Mode {
    Explore(StdRng),
    Replay(VecDeque<String>),
    Guided(Guided),
}

/// FNV-1a accumulator for state fingerprints.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

/// What one executed step touched, measured around its execution — the
/// independence relation behind sleep-set pruning. Two steps commute
/// iff neither is global and they ran on different instances: a pass
/// that neither sent anything nor made nested progress through the
/// clock hook only mutates its own instance's cell and scheduling
/// metadata (remote state read by a guard is read-only, and reads
/// commute).
#[derive(Clone, Debug)]
struct Footprint {
    /// Touched cross-instance or time-coupled state: every non-pass
    /// step kind, any send operation (the Direct fast path delivers
    /// synchronously into the receiver's cell, and even fenced or
    /// dropped sends move counters and fault dice), and any nested
    /// progress (which can run other junctions or advance time).
    global: bool,
    /// The instance a non-global pass ran on.
    inst: Option<String>,
}

/// A pending DFS branch: the forced step prefix that reaches the
/// choice point, plus the sleep set the branch inherits (step name +
/// the footprint it had at the parent node).
type DfsBranch = (Vec<String>, Vec<(String, Footprint)>);

impl Footprint {
    fn global() -> Footprint {
        Footprint { global: true, inst: None }
    }
    fn independent(&self, other: &Footprint) -> bool {
        !self.global && !other.global && self.inst != other.inst
    }
}

/// One free (post-prefix, top-level) scheduling decision of a guided
/// run — everything the DFS needs to branch here later.
struct DecisionPoint {
    /// Index of the chosen record in the run's step list. The forced
    /// prefix for an alternative at this node is `steps[..step_idx]`
    /// followed by the alternative.
    step_idx: usize,
    /// Records of every enabled choice, in enumeration order.
    enabled: Vec<String>,
    /// Sleep set in force when this decision was made.
    sleep: Vec<(String, Footprint)>,
    /// The record actually executed (first enabled not asleep).
    chosen: String,
    /// Measured footprint of the chosen step.
    foot: Footprint,
    /// State fingerprint after the chosen step (0 when not computed).
    hash: u64,
}

/// What a guided run reports back to the DFS beside its outcome.
struct GuidedRun {
    points: Vec<DecisionPoint>,
    /// Footprint + post-state fingerprint of the branch step (the last
    /// forced record). `None` on the root run, which forces nothing.
    branch: Option<(Footprint, u64)>,
}

/// Which just-chosen step the post-execution measurement should file.
enum GuidedPending {
    None,
    Branch,
    Point,
}

/// Per-run state of one DFS re-execution.
struct Guided {
    /// Records replayed strictly (panicking on divergence — the prefix
    /// was recorded by an identical execution) before free scheduling
    /// begins.
    force: VecDeque<String>,
    /// Whether this run forces a prefix at all (false on the root).
    had_force: bool,
    /// Live sleep set: seeded from the branch node's explored siblings,
    /// filtered by the branch step's measured footprint when it
    /// executes, then by every later chosen step's footprint.
    sleep: Vec<(String, Footprint)>,
    /// Compute state fingerprints after each decision (hash pruning).
    want_hash: bool,
    points: Vec<DecisionPoint>,
    branch: Option<(Footprint, u64)>,
    pending: GuidedPending,
}

struct InjSlot {
    at_ns: u64,
    fired: bool,
    /// Shrinking can delete an `inj:i` record; replay then suppresses
    /// the injection entirely (this is how shrinking minimizes the
    /// injected workload, not just the interleaving).
    allowed: bool,
}

/// Executor state shared with the clock hook.
struct Driver {
    mode: Mode,
    steps: Vec<String>,
    step_count: usize,
    max_steps: usize,
    max_nested: usize,
    depth: usize,
    hb_next: Option<Instant>,
    injections: Vec<InjSlot>,
    /// How many times the clock hook made nested progress; the delta
    /// around a top-level step classifies its footprint.
    nested_fires: u64,
}

struct SimShared {
    inner: Arc<RuntimeInner>,
    st: Mutex<Driver>,
}

#[derive(Clone)]
enum Choice {
    Pass(Arc<InstanceState>, Arc<JunctionRt>),
    Pump,
    Hb,
    Sup(usize),
    Advance(Instant),
}

enum Picked {
    /// A recorded decision to execute.
    Chosen(Choice),
    /// Replay had no consumable record: take the deterministic drain.
    Drain,
    /// Nothing is runnable and no time is left to advance.
    Halt,
}

/// Clears the hook even if a schedule panics — the hook closes an Arc
/// cycle from the clock back to the runtime.
struct HookGuard(Clock);

impl Drop for HookGuard {
    fn drop(&mut self) {
        self.0.clear_hook();
    }
}

impl SimExecutor {
    /// A fresh executor with the given tuning.
    pub fn new(config: SimConfig) -> SimExecutor {
        SimExecutor { config, injections: Vec::new() }
    }

    /// Schedule `f` to run against the runtime once virtual time
    /// reaches `at` (measured from the start of the run). Injections
    /// fire between top-level events, in registration order; use them
    /// for fault-plan installs, client `invoke`s, live `reconfigure`s,
    /// crashes — anything a test driver would do from outside.
    pub fn inject_at(&mut self, at: Duration, f: impl Fn(&Runtime) + 'static) -> &mut Self {
        self.injections.push(Injection { at, f: Box::new(f) });
        self
    }

    /// Random-walk one schedule from the configured seed.
    pub fn explore(&self, rt: &Runtime) -> SimOutcome {
        self.drive(rt, Mode::Explore(StdRng::seed_from_u64(self.config.seed)), None)
    }

    /// Re-execute a recorded schedule. Records that are no longer
    /// enabled (a deleted injection's follow-on events, a retired
    /// instance's passes) are skipped; once the record is exhausted the
    /// run continues with a deterministic drain to the horizon.
    pub fn replay(&self, rt: &Runtime, steps: &[StepRecord]) -> SimOutcome {
        let allowed: HashSet<usize> = steps
            .iter()
            .filter_map(|s| s.strip_prefix("inj:").and_then(|i| i.parse().ok()))
            .collect();
        self.drive(
            rt,
            Mode::Replay(steps.iter().cloned().collect()),
            Some(allowed),
        )
    }

    /// [`SimExecutor::replay`] with the artifact's instance-set pin
    /// enforced: a runtime whose instance set differs from the one the
    /// artifact was recorded against would silently diverge during
    /// replay, so fail loudly instead.
    pub fn replay_artifact(
        &self,
        rt: &Runtime,
        artifact: &Artifact,
    ) -> Result<SimOutcome, String> {
        let have = rt.instance_names();
        if !artifact.instances.is_empty() && artifact.instances != have {
            return Err(format!(
                "artifact instance set mismatch: recorded against [{}], replaying against [{}]",
                artifact.instances.join(", "),
                have.join(", ")
            ));
        }
        Ok(self.replay(rt, &artifact.steps))
    }

    fn drive(
        &self,
        rt: &Runtime,
        mode: Mode,
        allowed: Option<HashSet<usize>>,
    ) -> SimOutcome {
        self.drive_inner(rt, mode, allowed).0
    }

    fn drive_inner(
        &self,
        rt: &Runtime,
        mode: Mode,
        allowed: Option<HashSet<usize>>,
    ) -> (SimOutcome, Option<GuidedRun>) {
        let clock = rt.inner.clock().clone();
        assert!(
            clock.is_simulated(),
            "SimExecutor needs a runtime built with Clock::simulated()"
        );
        let origin = clock.now();
        let inj_slots: Vec<InjSlot> = self
            .injections
            .iter()
            .enumerate()
            .map(|(i, inj)| InjSlot {
                at_ns: clock.virtual_nanos() + inj.at.as_nanos() as u64,
                fired: false,
                allowed: allowed.as_ref().is_none_or(|a| a.contains(&i)),
            })
            .collect();
        let shared = Arc::new(SimShared {
            inner: Arc::clone(&rt.inner),
            st: Mutex::new(Driver {
                mode,
                steps: Vec::new(),
                step_count: 0,
                max_steps: self.config.max_steps,
                max_nested: self.config.max_nested,
                depth: 0,
                hb_next: None,
                injections: inj_slots,
                nested_fires: 0,
            }),
        });
        let _guard = HookGuard(clock.clone());
        clock.install_hook(Arc::clone(&shared) as Arc<dyn SimHook>);

        let end = origin + self.config.horizon;
        let mut truncated = false;
        loop {
            let now = clock.now();
            if now >= end {
                break;
            }
            if shared.st.lock().step_count >= self.config.max_steps {
                truncated = true;
                break;
            }
            // Fire every due (and allowed) injection, in index order.
            let due: Vec<usize> = {
                let mut st = shared.st.lock();
                let vn = clock.virtual_nanos();
                let mut due = Vec::new();
                for i in 0..st.injections.len() {
                    let slot = &mut st.injections[i];
                    if !slot.fired && slot.at_ns <= vn {
                        slot.fired = true;
                        if slot.allowed {
                            due.push(i);
                        }
                    }
                }
                for i in &due {
                    let rec = format!("inj:{i}");
                    // A forced prefix contains the same echoes at the
                    // same virtual times; consume them strictly so the
                    // cursor stays aligned.
                    if let Mode::Guided(g) = &mut st.mode {
                        if let Some(front) = g.force.front() {
                            assert_eq!(
                                front, &rec,
                                "guided replay diverged: expected `{front}`, injection `{rec}` fired"
                            );
                            g.force.pop_front();
                        }
                    }
                    st.steps.push(rec);
                    st.step_count += 1;
                }
                due
            };
            if !due.is_empty() {
                for i in due {
                    (self.injections[i].f)(rt);
                }
                continue;
            }
            match shared.choose(now, false, end) {
                Picked::Chosen(c) => {
                    let measure = matches!(shared.st.lock().mode, Mode::Guided(_));
                    if measure {
                        let pre_sends = shared.inner.network.send_ops();
                        let pre_nested = shared.st.lock().nested_fires;
                        shared.execute(&c);
                        shared.note_executed(&c, pre_sends, pre_nested, origin);
                    } else {
                        shared.execute(&c);
                    }
                }
                Picked::Drain => {
                    if !shared.drain_step(now, end) {
                        break;
                    }
                }
                Picked::Halt => break,
            }
        }
        let (steps, run) = {
            let mut st = shared.st.lock();
            let steps = st.steps.clone();
            let run = match &mut st.mode {
                Mode::Guided(g) => Some(GuidedRun {
                    points: std::mem::take(&mut g.points),
                    branch: g.branch.take(),
                }),
                _ => None,
            };
            (steps, run)
        };
        (
            SimOutcome {
                steps,
                virtual_time: clock.now().saturating_duration_since(origin),
                truncated,
            },
            run,
        )
    }
}

impl SimShared {
    fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    /// Junctions that a scheduler thread would consider right now —
    /// everything but the guard check, which can touch remote state and
    /// must only run inside the chosen pass, never during enumeration.
    fn pass_candidates(
        &self,
        now: Instant,
    ) -> Vec<(Arc<InstanceState>, Arc<JunctionRt>)> {
        use std::sync::atomic::Ordering;
        let mut v = Vec::new();
        if self.inner.booting.load(Ordering::SeqCst) {
            return v;
        }
        for inst in self.inner.all_instances() {
            if inst.status() != InstanceStatus::Running {
                continue;
            }
            if self.inner.holds_active.load(Ordering::SeqCst)
                && self.inner.holds.lock().contains_key(&inst.name)
            {
                continue;
            }
            for jrt in &inst.junctions {
                if jrt.backoff_until.lock().is_some_and(|t| now < t) {
                    continue;
                }
                let due = match *jrt.policy.lock() {
                    Policy::OnDemand => false,
                    Policy::Startup => jrt.needs_initial.load(Ordering::SeqCst),
                    Policy::Auto => true,
                    Policy::Periodic(iv) => {
                        jrt.needs_initial.load(Ordering::SeqCst)
                            || jrt.last_run.lock().is_none_or(|t| {
                                now.saturating_duration_since(t) >= iv
                            })
                    }
                };
                if due {
                    v.push((Arc::clone(&inst), Arc::clone(jrt)));
                }
            }
        }
        v
    }

    /// The earliest armed deadline after `now`: next packet arrival,
    /// heartbeat tick, junction backoff/period expiry, pending
    /// injection, and (top level only — the lock is held while a poll
    /// runs) supervisor polls.
    fn next_deadline(&self, now: Instant, top: bool, st: &Driver) -> Option<Instant> {
        let mut best: Option<Instant> = None;
        let mut fold = |t: Instant| {
            if t > now && best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        if let Some(a) = self.inner.network.next_arrival() {
            fold(a);
        }
        if self.inner.hb.is_enabled() {
            if let Some(t) = st.hb_next {
                fold(t);
            }
        }
        let vn = self.clock().virtual_nanos();
        for slot in &st.injections {
            if !slot.fired && slot.allowed && slot.at_ns > vn {
                fold(now + Duration::from_nanos(slot.at_ns - vn));
            }
        }
        for inst in self.inner.all_instances() {
            if inst.status() != InstanceStatus::Running {
                continue;
            }
            for jrt in &inst.junctions {
                if let Some(t) = jrt.next_due(now) {
                    fold(t);
                }
            }
        }
        if top {
            for core in self.inner.supervisors.lock().iter() {
                let core = core.lock();
                if !core.stopped() {
                    fold(core.next_poll());
                }
            }
        }
        best
    }

    /// Everything runnable right now, in deterministic construction
    /// order (sorted instances; supervisor cores by index). `cap`
    /// bounds how far an Advance may jump: the horizon at top level, a
    /// blocked site's own deadline when nested.
    fn enumerate(&self, now: Instant, nested: bool, cap: Instant, st: &Driver) -> Vec<Choice> {
        let mut v = Vec::new();
        let mut timed_due = false;
        if self.inner.network.next_arrival().is_some_and(|a| a <= now) {
            v.push(Choice::Pump);
            timed_due = true;
        }
        for (inst, jrt) in self.pass_candidates(now) {
            v.push(Choice::Pass(inst, jrt));
        }
        if self.inner.hb.is_enabled() && st.hb_next.is_none_or(|t| t <= now) {
            v.push(Choice::Hb);
            timed_due = true;
        }
        if !nested {
            for (i, core) in self.inner.supervisors.lock().iter().enumerate() {
                let core = core.lock();
                if !core.stopped() && core.next_poll() <= now {
                    v.push(Choice::Sup(i));
                    timed_due = true;
                }
            }
        }
        // Virtual time advances only when no *timed* work is due: a
        // delivery, heartbeat round, or supervisor poll that is already
        // due must run (in PRNG order) before the clock moves past it —
        // otherwise one advance can leap over every periodic deadline
        // and starve detection forever. Always-ready autonomous
        // junction passes deliberately do NOT gate the advance: an
        // `Auto` junction is runnable at every instant, so waiting for
        // it to drain would freeze time instead.
        if !timed_due {
            let to = match self.next_deadline(now, !nested, st) {
                Some(d) => d.min(cap),
                None => cap,
            };
            if to > now {
                v.push(Choice::Advance(to));
            }
        }
        v
    }

    fn record_of(&self, c: &Choice, now: Instant) -> String {
        match c {
            Choice::Pass(inst, jrt) => format!("pass:{}:{}", inst.name, jrt.name()),
            Choice::Pump => "pump".to_string(),
            Choice::Hb => "hb".to_string(),
            Choice::Sup(i) => format!("sup:{i}"),
            Choice::Advance(to) => {
                let ns = self.clock().virtual_nanos()
                    + to.saturating_duration_since(now).as_nanos() as u64;
                format!("adv:{ns}")
            }
        }
    }

    /// Pick the next decision: PRNG in explore mode, the record cursor
    /// in replay. Records the pick and charges the step budget.
    fn choose(&self, now: Instant, nested: bool, cap: Instant) -> Picked {
        let mut st = self.st.lock();
        let picked = match &mut st.mode {
            Mode::Explore(_) => {
                let mut choices = self.enumerate(now, nested, cap, &st);
                if choices.is_empty() {
                    return Picked::Halt;
                }
                let Mode::Explore(rng) = &mut st.mode else { unreachable!() };
                let i = rng.gen_range(0..choices.len());
                Some(choices.remove(i))
            }
            Mode::Replay(_) => {
                let Mode::Replay(mut q) =
                    std::mem::replace(&mut st.mode, Mode::Replay(VecDeque::new()))
                else {
                    unreachable!()
                };
                let picked = self.consume_record(&mut q, nested);
                st.mode = Mode::Replay(q);
                picked
            }
            Mode::Guided(_) => {
                let force_next = match &st.mode {
                    Mode::Guided(g) => g.force.front().cloned(),
                    _ => unreachable!(),
                };
                match force_next {
                    // Forced phase: strict re-execution of the prefix.
                    // The prefix was recorded by an identical run, so a
                    // record that fails to map is a determinism bug,
                    // not something to skip.
                    Some(rec) => {
                        let c = self.map_record(&rec).unwrap_or_else(|| {
                            panic!("guided replay diverged: `{rec}` is not enabled")
                        });
                        let Mode::Guided(g) = &mut st.mode else { unreachable!() };
                        g.force.pop_front();
                        if g.force.is_empty() && g.had_force && !nested {
                            // The branch step: measure its footprint,
                            // then arm the inherited sleep set.
                            g.pending = GuidedPending::Branch;
                        }
                        Some(c)
                    }
                    // Free phase: first enabled step not asleep.
                    None => {
                        let mut choices = self.enumerate(now, nested, cap, &st);
                        if choices.is_empty() {
                            return Picked::Halt;
                        }
                        if nested {
                            // Nested progress is part of its top-level
                            // step, deterministic within a branch — the
                            // DFS does not branch here.
                            Some(choices.remove(0))
                        } else {
                            let recs: Vec<String> =
                                choices.iter().map(|c| self.record_of(c, now)).collect();
                            let steps_len = st.steps.len();
                            let Mode::Guided(g) = &mut st.mode else { unreachable!() };
                            let idx = recs
                                .iter()
                                .position(|r| !g.sleep.iter().any(|(s, _)| s == r));
                            match idx {
                                // Every enabled step is asleep: the
                                // subtree is covered through a sibling
                                // ordering.
                                None => return Picked::Halt,
                                Some(i) => {
                                    g.points.push(DecisionPoint {
                                        step_idx: steps_len,
                                        enabled: recs.clone(),
                                        sleep: g.sleep.clone(),
                                        chosen: recs[i].clone(),
                                        foot: Footprint::global(),
                                        hash: 0,
                                    });
                                    g.pending = GuidedPending::Point;
                                    Some(choices.remove(i))
                                }
                            }
                        }
                    }
                }
            }
        };
        match picked {
            Some(c) => {
                let rec = self.record_of(&c, now);
                st.steps.push(rec);
                st.step_count += 1;
                Picked::Chosen(c)
            }
            None => Picked::Drain,
        }
    }

    /// Scan the replay cursor for the first record consumable in this
    /// context. Disabled records (stale advance, missing junction,
    /// injection echoes — those re-fire by virtual time) are dropped;
    /// records that only a *top-level* step may run (supervisor polls)
    /// are left in place while nested.
    fn consume_record(&self, q: &mut VecDeque<String>, nested: bool) -> Option<Choice> {
        let mut i = 0;
        while i < q.len() {
            let rec = q[i].clone();
            if nested && rec.starts_with("sup:") {
                i += 1;
                continue;
            }
            // Disabled or consumed either way: remove now.
            q.remove(i);
            if let Some(c) = self.map_record(&rec) {
                return Some(c);
            }
        }
        None
    }

    fn map_record(&self, rec: &str) -> Option<Choice> {
        if rec == "pump" {
            return Some(Choice::Pump);
        }
        if rec == "hb" {
            return self.inner.hb.is_enabled().then_some(Choice::Hb);
        }
        if let Some(rest) = rec.strip_prefix("pass:") {
            let (inst, junction) = rest.split_once(':')?;
            let inst = self.inner.get_instance(inst)?;
            if inst.status() != InstanceStatus::Running {
                return None;
            }
            let jrt = Arc::clone(inst.junction(junction)?);
            return Some(Choice::Pass(inst, jrt));
        }
        if let Some(i) = rec.strip_prefix("sup:") {
            let i: usize = i.parse().ok()?;
            let cores = self.inner.supervisors.lock();
            if cores.get(i)?.lock().stopped() {
                return None;
            }
            return Some(Choice::Sup(i));
        }
        if let Some(ns) = rec.strip_prefix("adv:") {
            let ns: u64 = ns.parse().ok()?;
            let vn = self.clock().virtual_nanos();
            if ns <= vn {
                return None;
            }
            return Some(Choice::Advance(
                self.clock().now() + Duration::from_nanos(ns - vn),
            ));
        }
        // inj:* records are echoes of time-driven firing; anything
        // unknown is skipped the same way.
        None
    }

    /// File the measured footprint (and, when wanted, the post-state
    /// fingerprint) of a just-executed top-level step with the guided
    /// run, and filter the live sleep set by it. No-op outside guided
    /// mode or for forced non-final steps (the sleep set is not armed
    /// until the branch step runs).
    fn note_executed(&self, c: &Choice, pre_sends: u64, pre_nested: u64, origin: Instant) {
        let (pending, want_hash) = {
            let mut st = self.st.lock();
            let Mode::Guided(g) = &mut st.mode else { return };
            match g.pending {
                GuidedPending::None => return,
                GuidedPending::Branch => (true, g.want_hash),
                GuidedPending::Point => (false, g.want_hash),
            }
        };
        let foot = match c {
            Choice::Pass(inst, _) => {
                let sent = self.inner.network.send_ops() != pre_sends;
                let nested = self.st.lock().nested_fires != pre_nested;
                if sent || nested {
                    Footprint::global()
                } else {
                    Footprint { global: false, inst: Some(inst.name.clone()) }
                }
            }
            _ => Footprint::global(),
        };
        let hash = if want_hash { self.state_hash(origin) } else { 0 };
        let mut st = self.st.lock();
        let Mode::Guided(g) = &mut st.mode else { return };
        g.sleep.retain(|(_, f)| f.independent(&foot));
        if pending {
            g.branch = Some((foot, hash));
        } else if let Some(p) = g.points.last_mut() {
            p.foot = foot;
            p.hash = hash;
        }
        g.pending = GuidedPending::None;
    }

    /// Fingerprint of the complete schedule-relevant runtime state,
    /// normalized to `origin` so states reached along different
    /// schedules can compare equal. See the module doc for the
    /// fidelity bounds (app digests, fault dice).
    fn state_hash(&self, origin: Instant) -> u64 {
        use std::sync::atomic::Ordering;
        let rel = |t: Option<Instant>| {
            t.map_or(u64::MAX, |t| {
                t.saturating_duration_since(origin).as_nanos() as u64
            })
        };
        let mut f = Fnv::new();
        f.write_u64(self.clock().virtual_nanos());
        f.write(&[u8::from(self.inner.booting.load(Ordering::SeqCst))]);
        for inst in self.inner.all_instances() {
            f.write_str(&inst.name);
            f.write(&[inst.status.load(Ordering::SeqCst)]);
            f.write_u64(inst.app.lock().sim_digest());
            for jrt in &inst.junctions {
                f.write_str(jrt.name());
                match *jrt.policy.lock() {
                    Policy::OnDemand => f.write(&[0]),
                    Policy::Startup => f.write(&[1]),
                    Policy::Auto => f.write(&[2]),
                    Policy::Periodic(iv) => {
                        f.write(&[3]);
                        f.write_u64(iv.as_nanos() as u64);
                    }
                }
                f.write(&[u8::from(jrt.needs_initial.load(Ordering::SeqCst))]);
                f.write_u64(rel(*jrt.backoff_until.lock()));
                f.write_u64(rel(*jrt.last_run.lock()));
                f.write_u64(u64::from(jrt.consec_failures.load(Ordering::SeqCst)));
                f.write_u64(u64::from(jrt.handled_failures.load(Ordering::SeqCst)));
                // The §9 snapshot codec canonicalizes the whole table —
                // visible state, pending queue, window/op counters.
                let state = jrt.cell.table().export_state();
                let bytes = csaw_serial::encode_table_state(&state).unwrap_or_default();
                f.write_u64(bytes.len() as u64);
                f.write(&bytes);
            }
        }
        {
            let holds = self.inner.holds.lock();
            let mut keys: Vec<&String> = holds.keys().collect();
            keys.sort();
            f.write_u64(keys.len() as u64);
            for k in keys {
                f.write_str(k);
                f.write_u64(holds[k].len() as u64);
            }
        }
        self.inner.network.sim_fingerprint(origin, &mut |b| f.write(b));
        self.inner.hb.sim_fingerprint(origin, &mut |b| f.write(b));
        for core in self.inner.supervisors.lock().iter() {
            core.lock().sim_fingerprint(origin, &mut |b| f.write(b));
        }
        {
            let st = self.st.lock();
            f.write_u64(rel(st.hb_next));
            for slot in &st.injections {
                f.write(&[u8::from(slot.fired), u8::from(slot.allowed)]);
            }
        }
        f.0
    }

    /// Execute one decision. Returns whether it made progress (used by
    /// the drain). A `Pass` can recurse into the hook if its activation
    /// blocks; nothing here may hold `st` across the call.
    fn execute(&self, c: &Choice) -> bool {
        match c {
            Choice::Pass(inst, jrt) => self.inner.scheduler_pass(inst, jrt, Nesting::Top),
            Choice::Pump => self.inner.network.pump_due() > 0,
            Choice::Hb => {
                self.inner.heartbeat_round();
                let next = self.clock().now() + self.inner.hb.config().interval;
                self.st.lock().hb_next = Some(next);
                true
            }
            Choice::Sup(i) => {
                let cores = self.inner.supervisors.lock();
                if let Some(core) = cores.get(*i) {
                    core.lock().poll_once();
                }
                true
            }
            Choice::Advance(to) => {
                self.clock().advance_to(*to);
                true
            }
        }
    }

    /// Deterministic progress when replay has no consumable record:
    /// fixed priority, no recording (the drain is a pure function of
    /// runtime state, so replay-of-replay stays identical). Returns
    /// false when nothing can run and no deadline is left before `end`.
    fn drain_step(&self, now: Instant, end: Instant) -> bool {
        if self.inner.network.pump_due() > 0 {
            return true;
        }
        {
            let hb_due = {
                let st = self.st.lock();
                self.inner.hb.is_enabled() && st.hb_next.is_none_or(|t| t <= now)
            };
            if hb_due {
                return self.execute(&Choice::Hb);
            }
        }
        {
            let due: Option<usize> = {
                let cores = self.inner.supervisors.lock();
                cores.iter().position(|c| {
                    let c = c.lock();
                    !c.stopped() && c.next_poll() <= now
                })
            };
            if let Some(i) = due {
                return self.execute(&Choice::Sup(i));
            }
        }
        for (inst, jrt) in self.pass_candidates(now) {
            if self.inner.scheduler_pass(&inst, &jrt, Nesting::Top) {
                return true;
            }
        }
        let st = self.st.lock();
        match self.next_deadline(now, true, &st) {
            Some(d) if d <= end => {
                drop(st);
                self.clock().advance_to(d);
                true
            }
            _ => false,
        }
    }
}

impl SimHook for SimShared {
    /// One nested unit of progress for a blocked site: pump, run some
    /// other junction, a heartbeat round, or advance time toward
    /// `target`. Supervisor polls and injections never fire here — a
    /// repair's reconfigure would deadlock on the blocked activation's
    /// lock below it on this same stack.
    fn block(&self, target: Instant) {
        let clock = self.clock().clone();
        let now = clock.now();
        if now >= target {
            return;
        }
        {
            let mut st = self.st.lock();
            // Any nested progress — even the pure time advance below —
            // makes the blocked top-level step time-coupled, so its
            // footprint must come out global.
            st.nested_fires += 1;
            if st.depth >= st.max_nested || st.step_count >= st.max_steps {
                drop(st);
                clock.advance_to(target);
                return;
            }
            st.depth += 1;
        }
        match self.choose(now, true, target) {
            Picked::Chosen(c) => {
                self.execute(&c);
            }
            Picked::Drain => {
                // Deterministic nested fallback: deliveries first, then
                // time (passes are left to recorded/explored steps).
                if self.inner.network.pump_due() == 0 {
                    let to = {
                        let st = self.st.lock();
                        self.next_deadline(now, false, &st)
                            .map_or(target, |d| d.min(target))
                    };
                    clock.advance_to(if to > now { to } else { target });
                }
            }
            Picked::Halt => clock.advance_to(target),
        }
        self.st.lock().depth -= 1;
    }
}

// ---------------------------------------------------------------------
// Exhaustive DFS exploration
// ---------------------------------------------------------------------

/// Tuning for [`SimExecutor::dfs_explore`]. Step depth and horizon come
/// from the executor's [`SimConfig`]; turning both reductions off gives
/// the naive DFS baseline the reduction factor is measured against.
#[derive(Clone, Debug)]
pub struct DfsConfig {
    /// Ceiling on schedules executed (safety valve — `complete` in the
    /// stats reports whether the tree was exhausted within it).
    pub max_schedules: usize,
    /// Sleep-set partial-order reduction: skip orderings that only
    /// commute measurably independent steps.
    pub sleep_sets: bool,
    /// Revisit pruning: stop expanding below a state fingerprint
    /// already reached along another schedule.
    pub hash_prune: bool,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig { max_schedules: 100_000, sleep_sets: true, hash_prune: true }
    }
}

/// What one DFS exploration covered.
#[derive(Clone, Debug)]
pub struct DfsStats {
    /// Schedules executed (each is a full re-execution from a fresh
    /// runtime).
    pub schedules: u64,
    /// Decision nodes materialized.
    pub nodes: u64,
    /// Distinct state fingerprints reached (0 with hash pruning off —
    /// fingerprints are then not computed).
    pub states: u64,
    /// Enabled alternatives never executed because a sleep set proved
    /// an equivalent ordering covered elsewhere.
    pub sleep_skipped: u64,
    /// Branches not expanded because their post-state was already seen.
    pub hash_pruned: u64,
    /// The tree was exhausted within `max_schedules`.
    pub complete: bool,
    /// One replayable artifact per failing schedule.
    pub failures: Vec<Artifact>,
}

/// One decision node on the current DFS path.
struct Node {
    /// Prefix length (in step records) up to this decision — identical
    /// for every run through this node.
    step_idx: usize,
    enabled: Vec<String>,
    /// Sleep set inherited when the node was first reached.
    sleep: Vec<(String, Footprint)>,
    /// Siblings already explored from here, with measured footprints.
    tried: Vec<(String, Footprint)>,
}

impl SimExecutor {
    /// Bounded depth-first search over top-level scheduling decisions
    /// (stateless model checking — see the module doc). `session`
    /// builds a fresh runtime (plus any scenario handle the oracle
    /// needs) per schedule; every schedule's outcome is checked with
    /// `oracle`, and failures are collected as replayable artifacts.
    /// Injections registered on the executor fire by virtual time in
    /// every schedule, exactly as under [`SimExecutor::explore`].
    ///
    /// Depth is bounded by the executor's `max_steps`/`horizon`; the
    /// search is exhaustive *up to that bound* when `complete` is true.
    pub fn dfs_explore<R>(
        &self,
        dfs: &DfsConfig,
        mut session: impl FnMut() -> (Runtime, R),
        mut oracle: impl FnMut(&R, &Runtime, &SimOutcome) -> Result<(), String>,
    ) -> DfsStats {
        let mut stats = DfsStats {
            schedules: 0,
            nodes: 0,
            states: 0,
            sleep_skipped: 0,
            hash_pruned: 0,
            complete: false,
            failures: Vec::new(),
        };
        let mut seen: HashSet<u64> = HashSet::new();
        let mut nodes: Vec<Node> = Vec::new();
        // Steps of the most recent run; every node on the stack lies on
        // its path, so `cur_steps[..node.step_idx]` is the (identical)
        // prefix any run takes through that node.
        let mut cur_steps: Vec<String>;
        let mut next: Option<DfsBranch> = Some((Vec::new(), Vec::new()));
        while let Some((force, sleep0)) = next.take() {
            if stats.schedules as usize >= dfs.max_schedules {
                stats.states = seen.len() as u64;
                return stats;
            }
            let (rt, handle) = session();
            let had_force = !force.is_empty();
            let guided = Guided {
                force: force.iter().cloned().collect(),
                had_force,
                sleep: sleep0,
                want_hash: dfs.hash_prune,
                points: Vec::new(),
                branch: None,
                pending: GuidedPending::None,
            };
            let (outcome, run) = self.drive_inner(&rt, Mode::Guided(guided), None);
            let run = run.expect("guided drive reports run info");
            stats.schedules += 1;
            if let Err(reason) = oracle(&handle, &rt, &outcome) {
                stats.failures.push(Artifact {
                    seed: self.config.seed,
                    reason,
                    instances: rt.instance_names(),
                    steps: outcome.steps.clone(),
                });
            }
            rt.shutdown();
            // File the branch step on its parent node; prune its
            // subtree when the post-branch state was already reached.
            let mut prune_below = false;
            if had_force {
                let n = nodes.last_mut().expect("branch run has a parent node");
                let (foot, hash) =
                    run.branch.expect("forced run measures its branch step");
                n.tried.push((force.last().expect("non-empty force").clone(), foot));
                if dfs.hash_prune && !seen.insert(hash) {
                    stats.hash_pruned += 1;
                    prune_below = true;
                }
            }
            // Materialize the run's new decision points. A point whose
            // post-state was already seen still becomes a node (its
            // *other* alternatives lead elsewhere), but everything
            // below that revisited state is covered by its first visit.
            if !prune_below {
                for p in run.points {
                    nodes.push(Node {
                        step_idx: p.step_idx,
                        enabled: p.enabled,
                        sleep: p.sleep,
                        tried: vec![(p.chosen, p.foot)],
                    });
                    stats.nodes += 1;
                    if dfs.hash_prune && !seen.insert(p.hash) {
                        stats.hash_pruned += 1;
                        break;
                    }
                }
            }
            cur_steps = outcome.steps;
            // Backtrack to the deepest node with an untried, unslept
            // alternative and schedule the next run from it.
            loop {
                let Some(n) = nodes.last() else {
                    stats.complete = true;
                    break;
                };
                let alt = n.enabled.iter().find(|r| {
                    !n.tried.iter().any(|(t, _)| t == *r)
                        && (!dfs.sleep_sets
                            || !n.sleep.iter().any(|(s, _)| s == *r))
                });
                match alt {
                    Some(alt) => {
                        let mut force: Vec<String> = cur_steps[..n.step_idx].to_vec();
                        force.push(alt.clone());
                        let sleep0 = if dfs.sleep_sets {
                            // Godefroid: the new sibling's subtree may
                            // skip everything already explored from
                            // this node that is independent of it — the
                            // filter by the sibling's own footprint
                            // happens once it executes.
                            n.sleep.iter().chain(n.tried.iter()).cloned().collect()
                        } else {
                            Vec::new()
                        };
                        next = Some((force, sleep0));
                        break;
                    }
                    None => {
                        if dfs.sleep_sets {
                            stats.sleep_skipped += n
                                .enabled
                                .iter()
                                .filter(|r| {
                                    !n.tried.iter().any(|(t, _)| t == *r)
                                        && n.sleep.iter().any(|(s, _)| s == *r)
                                })
                                .count() as u64;
                        }
                        nodes.pop();
                    }
                }
            }
        }
        stats.states = seen.len() as u64;
        stats
    }
}

// ---------------------------------------------------------------------
// Artifact serialization (through the shared `crate::json` codec).
// ---------------------------------------------------------------------

impl Artifact {
    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        let arr = |items: &[String]| items.iter().map(|s| json::str_lit(s)).collect::<Vec<_>>();
        format!(
            "{{\"seed\":{},\"reason\":{},\"instances\":[{}],\"steps\":[{}]}}",
            self.seed,
            json::str_lit(&self.reason),
            arr(&self.instances).join(","),
            arr(&self.steps).join(",")
        )
    }

    /// Parse what [`Artifact::to_json`] wrote (tolerant of whitespace
    /// and key order; an unknown key is an error).
    pub fn from_json(text: &str) -> Option<Artifact> {
        let o = json::Object::parse(text).ok()?;
        if o.names().any(|n| !matches!(n, "seed" | "reason" | "instances" | "steps")) {
            return None;
        }
        Some(Artifact {
            seed: o.num("seed").ok()?,
            reason: o.str("reason").ok()?.to_string(),
            // Absent in artifacts from before the field existed: the
            // replay-time instance-set check is then skipped.
            instances: if o.has("instances") {
                o.strs("instances").ok()?.to_vec()
            } else {
                Vec::new()
            },
            steps: o.strs("steps").ok()?.to_vec(),
        })
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedy chunk-deletion shrink (ddmin-lite): repeatedly try deleting
/// contiguous chunks of the schedule, keeping any deletion after which
/// `still_fails` reports the failure reproduces, halving the chunk size
/// until single-step deletions stop helping. The predicate should
/// replay the candidate against a fresh runtime and re-run the oracle.
pub fn shrink_steps(
    steps: &[StepRecord],
    mut still_fails: impl FnMut(&[StepRecord]) -> bool,
) -> Vec<StepRecord> {
    let mut cur: Vec<StepRecord> = steps.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < cur.len() {
            let stop = (start + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (stop - start));
            cand.extend_from_slice(&cur[..start]);
            cand.extend_from_slice(&cur[stop..]);
            if still_fails(&cand) {
                cur = cand;
                shrunk = true;
                // Same start: the next chunk slid into this position.
            } else {
                start = stop;
            }
        }
        if chunk == 1 {
            if !shrunk {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_json_roundtrip() {
        let a = Artifact {
            seed: 42,
            reason: "lost \"acked\" write\nat o".to_string(),
            instances: vec!["f".to_string(), "o".to_string()],
            steps: vec![
                "pass:f:main".to_string(),
                "adv:1200000".to_string(),
                "inj:0".to_string(),
            ],
        };
        let json = a.to_json();
        let b = Artifact::from_json(&json).expect("parse back");
        assert_eq!(a, b);
    }

    #[test]
    fn artifact_json_rejects_garbage() {
        assert!(Artifact::from_json("").is_none());
        assert!(Artifact::from_json("{}").is_none());
        assert!(Artifact::from_json("{\"seed\":1}").is_none());
        assert!(Artifact::from_json("[1,2]").is_none());
    }

    #[test]
    fn artifact_json_without_instances_parses_as_unpinned() {
        // Artifacts written before the `instances` field existed must
        // keep parsing; the replay-time instance-set check is skipped.
        let a = Artifact::from_json(
            "{\"seed\":7,\"reason\":\"r\",\"steps\":[\"pump\"]}",
        )
        .expect("legacy artifact parses");
        assert!(a.instances.is_empty());
        assert_eq!(a.steps, vec!["pump".to_string()]);
    }

    #[test]
    fn footprint_independence_is_instance_disjointness() {
        let pass = |i: &str| Footprint { global: false, inst: Some(i.to_string()) };
        assert!(pass("a").independent(&pass("b")));
        assert!(!pass("a").independent(&pass("a")));
        assert!(!pass("a").independent(&Footprint::global()));
        assert!(!Footprint::global().independent(&Footprint::global()));
    }

    #[test]
    fn shrink_deletes_irrelevant_steps() {
        // Failure = both "a" and "b" present; everything else is noise.
        let steps: Vec<String> = (0..64)
            .map(|i| match i {
                17 => "a".to_string(),
                49 => "b".to_string(),
                i => format!("noise{i}"),
            })
            .collect();
        let shrunk = shrink_steps(&steps, |cand| {
            cand.iter().any(|s| s == "a") && cand.iter().any(|s| s == "b")
        });
        assert_eq!(shrunk, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn shrink_keeps_everything_when_all_needed() {
        let steps: Vec<String> = (0..7).map(|i| format!("s{i}")).collect();
        let orig = steps.clone();
        let shrunk = shrink_steps(&steps, |cand| cand.len() == orig.len());
        assert_eq!(shrunk, orig);
    }
}
