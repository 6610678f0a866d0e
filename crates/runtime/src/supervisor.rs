//! Self-healing supervision: an automatic detect → plan → act → verify
//! repair loop closing over the runtime's own failure detector and live
//! reconfiguration engine.
//!
//! The paper's fail-over architectures (§5/§7) encode *what* the
//! degraded topology is, but leave *noticing* the failure and *driving*
//! the transition to a human. [`crate::Runtime::supervise`] closes that
//! loop: a service loop polls the heartbeat detector's
//! observer-relative suspicions and the instance registry, classifies
//! anomalies into failure classes, consults a user-registered
//! [`RepairPolicy`] for an escalation ladder of [`RepairAction`]s, and
//! executes the chosen repair through the checked
//! [`crate::Runtime::reconfigure`] — with bounded-backoff retry on
//! refusals and migration errors — before verifying the system
//! converged back to health.
//!
//! ## Loop phases
//!
//! 1. **Detect.** Each poll classifies every supervised instance:
//!    registry status `Crashed` is an immediate *crash* (the registry
//!    is authoritative in-process); a `Running` instance suspected by
//!    at least [`SupervisorConfig::quorum`] live observers for
//!    [`SupervisorConfig::confirm_polls`] consecutive polls is a
//!    *partition*; suspected by at least one but fewer than a quorum is
//!    a *slow peer*. K-of-N quorum plus the detector's own `k_missed`
//!    hysteresis means one jittered ping on one link can never trigger
//!    a repair.
//! 2. **Plan.** The instance's position on the policy's escalation
//!    ladder picks the action. A failure recurring within
//!    [`SupervisorConfig::cooldown`] of the previous repair — or
//!    following a failed one — escalates one rung (anti-flapping:
//!    restart → failover → quarantine instead of restart-storms).
//! 3. **Act.** [`RepairAction::Restart`] re-admits in place;
//!    [`RepairAction::Reconfigure`] first *fences* the failed instance
//!    (bumping the supervisor epoch carried in the high bits of every
//!    send's sequence number, so a partitioned-away zombie can neither
//!    ack writes nor be double-promoted), then submits the one-step
//!    plan to the policy-built target program, checked against the
//!    epoch it was built in, retrying with bounded backoff while the
//!    plan is refused as stale or the report carries a
//!    [`crate::ReconfigReport::migration_error`];
//!    [`RepairAction::Quarantine`] fences and writes the instance off.
//! 4. **Verify.** The loop waits up to
//!    [`SupervisorConfig::verify_timeout`] for quorum health (and an
//!    optional policy predicate) before declaring the repair done.
//!
//! Every phase emits a `repair_*` trace event keyed by a monotonic
//! repair id, so `csaw-semantics` can validate the detect → plan →
//! (fence) → verify → done/failed ordering and check per-epoch
//! conformance across the program chain the repairs cut to
//! ([`Runtime::epoch_chain`]).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use csaw_core::intern::Sym;
use csaw_core::program::CompiledProgram;

use crate::eventcount::EventCount;
use crate::reconfig::ReconfigSpec;
use crate::runtime::{InstanceStatus, Runtime};
use crate::trace::TraceKind;

/// What kind of failure the detector confirmed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// The registry says the instance crashed (in-process authoritative).
    Crash,
    /// A quorum of live observers stopped hearing the instance: it is
    /// (or behaves as) partitioned away.
    Partition,
    /// A minority of observers persistently suspect it: reachable from
    /// some vantage points, silent from others.
    Slow,
}

impl FailureClass {
    /// Stable label used in `repair_detect` trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailureClass::Crash => "crash",
            FailureClass::Partition => "partition",
            FailureClass::Slow => "slow",
        }
    }
}

/// A hook run against the runtime after a restart repair (e.g. to
/// trigger the §7 checkpoint-restore protocol by asserting `NeedState`
/// at the restarted primary's recovery junction). Receives the runtime
/// and the repaired instance's name.
pub type RepairHook = Arc<dyn Fn(&Runtime, &str) + Send + Sync>;

/// Builds the repair target for a [`RepairAction::Reconfigure`]: given
/// the runtime and the failed instance, return the program to
/// reconfigure to and the spec (apps, starts, migration) to do it with.
/// Re-invoked on every retry, so it can adapt to the current state.
pub type RebuildFn =
    Arc<dyn Fn(&Runtime, &str) -> (CompiledProgram, ReconfigSpec) + Send + Sync>;

/// Application-level convergence predicate required by the verify phase
/// on top of quorum health (see [`RepairPolicy::verify_with`]).
pub type VerifyFn = Arc<dyn Fn(&Runtime) -> bool + Send + Sync>;

/// One rung of a repair ladder.
#[derive(Clone)]
pub enum RepairAction {
    /// Restart the instance in place ([`Runtime::restart`]): preserves
    /// bound parameters, re-primes the failure detector, re-admits the
    /// instance past the fence.
    Restart,
    /// Restart, then run a hook (checkpoint restore, cache warm-up).
    RestartThen(RepairHook),
    /// Fence the failed instance out, then live-reconfigure to the
    /// program the builder returns (fail-over promotion, shard
    /// re-homing). The instance is written off: excluded from detection
    /// until observed healthy again.
    Reconfigure(RebuildFn),
    /// Last resort: fence the instance out and stop repairing it. The
    /// system keeps running degraded; a human (or test) re-admits.
    Quarantine,
}

impl RepairAction {
    /// Stable label used in `repair_plan` trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RepairAction::Restart | RepairAction::RestartThen(_) => "restart",
            RepairAction::Reconfigure(_) => "reconfigure",
            RepairAction::Quarantine => "quarantine",
        }
    }
}

/// Maps failure classes to escalation ladders of repairs.
///
/// The ladder index is the escalation rung: first failure runs rung 0,
/// a recurrence within the cooldown (or after a failed repair) runs the
/// next rung, clamped at the last. A class with no ladder is detected
/// (trace event, stats) but never repaired.
#[derive(Clone, Default)]
pub struct RepairPolicy {
    ladders: HashMap<FailureClass, Vec<RepairAction>>,
    verify: Option<VerifyFn>,
}

impl RepairPolicy {
    /// An empty policy: detection only, no repairs.
    pub fn new() -> RepairPolicy {
        RepairPolicy::default()
    }

    /// Register the escalation ladder for a failure class.
    pub fn on(mut self, class: FailureClass, ladder: Vec<RepairAction>) -> RepairPolicy {
        self.ladders.insert(class, ladder);
        self
    }

    /// Additional application-level convergence predicate the verify
    /// phase requires on top of quorum health (e.g. "the promoted
    /// backup answers a probe request").
    pub fn verify_with(
        mut self,
        f: impl Fn(&Runtime) -> bool + Send + Sync + 'static,
    ) -> RepairPolicy {
        self.verify = Some(Arc::new(f));
        self
    }

    /// The classic ladder of the issue: crash and slow restart then
    /// quarantine; a partitioned instance goes straight to quarantine
    /// (restarting an unreachable peer cannot help, and no generic
    /// fail-over target exists without an application builder).
    pub fn conservative() -> RepairPolicy {
        RepairPolicy::new()
            .on(
                FailureClass::Crash,
                vec![RepairAction::Restart, RepairAction::Quarantine],
            )
            .on(FailureClass::Slow, vec![RepairAction::Restart])
            .on(FailureClass::Partition, vec![RepairAction::Quarantine])
    }
}

/// Supervisor tuning. The policy rides along so
/// [`Runtime::supervise`] stays a one-argument call.
#[derive(Clone)]
pub struct SupervisorConfig {
    /// Detection poll period.
    pub poll: Duration,
    /// K in K-of-N: how many live observers must suspect an instance
    /// before silence counts as a partition.
    pub quorum: usize,
    /// Consecutive polls a suspicion-based anomaly (partition/slow)
    /// must persist before a repair fires. Crashes skip this: the
    /// registry is authoritative.
    pub confirm_polls: u32,
    /// Attempts per `Reconfigure` repair (first try included).
    pub max_retries: u32,
    /// Base retry backoff, doubled per attempt.
    pub backoff: Duration,
    /// Escalation window: a failure of the same instance within this
    /// span of its last repair runs the next rung of the ladder.
    pub cooldown: Duration,
    /// How long the verify phase waits for convergence.
    pub verify_timeout: Duration,
    /// What to do about each failure class.
    pub policy: RepairPolicy,
    /// Whether a `Reconfigure` repair fences the failed instance before
    /// cutting over. Leave `true`: the fence is what keeps a partitioned
    /// zombie from acking stale work after the partition heals. The
    /// switch exists so the simulation harness can re-introduce that
    /// ordering bug on purpose and prove its oracle catches it.
    pub fence_on_reconfigure: bool,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            poll: Duration::from_millis(25),
            quorum: 2,
            confirm_polls: 2,
            max_retries: 3,
            backoff: Duration::from_millis(50),
            cooldown: Duration::from_secs(2),
            verify_timeout: Duration::from_secs(1),
            policy: RepairPolicy::conservative(),
            fence_on_reconfigure: true,
        }
    }
}

/// Accounting for one completed (or abandoned) repair.
#[derive(Clone, Debug)]
pub struct RepairRecord {
    /// Monotonic id tying this record to its `repair_*` trace events.
    pub id: u64,
    /// The failed instance.
    pub instance: String,
    /// What the detector confirmed.
    pub class: FailureClass,
    /// Label of the action taken (`restart`/`reconfigure`/`quarantine`).
    pub action: &'static str,
    /// Escalation rung the action was taken from (0 = first resort).
    pub rung: usize,
    /// Reconfigure attempts spent (0 for non-reconfigure repairs).
    pub attempts: u32,
    /// Whether the verify phase declared convergence.
    pub ok: bool,
    /// When the anomaly was first seen by the detector poll.
    pub detected_at: Instant,
    /// When the repair terminated (done or failed).
    pub done_at: Instant,
    /// First-seen → confirmed-and-planned latency.
    pub detect_latency: Duration,
    /// Plan → verified latency (the act + verify part of MTTR).
    pub repair_latency: Duration,
    /// Longest per-instance pause any reconfigure attempt caused
    /// (zero for restarts).
    pub reconfig_pause: Duration,
    /// Fence floor installed for this repair, if the action fenced.
    pub fence_epoch: Option<u64>,
}

impl RepairRecord {
    /// The supervisor's view of MTTR: anomaly first seen → repair
    /// verified. (A bench measuring from fault *injection* adds the
    /// detector's silence window on top.)
    pub fn mttr(&self) -> Duration {
        self.done_at.saturating_duration_since(self.detected_at)
    }
}

/// Monotonic counters over the supervisor's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorStats {
    /// Anomalies confirmed (including classes with no ladder).
    pub detected: u64,
    /// Repairs attempted.
    pub attempted: u64,
    /// Repairs that passed verification.
    pub succeeded: u64,
    /// Repairs that failed (retries exhausted or verify timed out).
    pub failed: u64,
    /// Rung advances (anti-flapping escalations).
    pub escalations: u64,
    /// Instances currently quarantined.
    pub quarantined: u64,
}

/// What a control loop's handle ([`Supervisor`],
/// [`crate::Autoscaler`]) shares with the loop: the stop flag and the
/// event count the loop parks on, which a stop signals; the record id
/// counter, records and lifetime counters; and `state`, the loop's own
/// state the handle reads (the supervisor's quarantine set, the
/// autoscaler's goal).
pub(crate) struct ControlShared<R, S, X> {
    stop: AtomicBool,
    pub(crate) wake: Arc<EventCount<()>>,
    pub(crate) next_id: AtomicU64,
    pub(crate) records: Mutex<Vec<R>>,
    pub(crate) stats: Mutex<S>,
    pub(crate) state: X,
}

impl<R: Clone, S: Copy + Default, X> ControlShared<R, S, X> {
    pub(crate) fn new(rt: &Runtime, state: X) -> Arc<Self> {
        Arc::new(ControlShared {
            stop: AtomicBool::new(false),
            wake: Arc::new(EventCount::new((), rt.inner.wake_signals())),
            next_id: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            stats: Mutex::new(S::default()),
            state,
        })
    }

    /// Ask the loop to exit: it does so at once if parked, else after
    /// its current step, and a backoff or verify sleep in that step is
    /// cut short. The thread is joined by [`Runtime::shutdown`].
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.signal();
    }

    /// Whether the handle asked the loop to exit.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    pub(crate) fn records(&self) -> Vec<R> {
        self.records.lock().clone()
    }

    pub(crate) fn stats(&self) -> S {
        *self.stats.lock()
    }
}

type Shared = ControlShared<RepairRecord, SupervisorStats, Mutex<HashSet<String>>>;

/// Handle to a running supervisor (returned by [`Runtime::supervise`]).
/// Dropping it does *not* stop the loop; call [`Supervisor::stop`], or
/// let runtime shutdown end it.
pub struct Supervisor {
    shared: Arc<Shared>,
}

impl Supervisor {
    /// Ask the supervisor to exit after its current poll; an in-flight
    /// backoff or verify sleep is cut short. Its thread is joined by
    /// [`Runtime::shutdown`].
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Snapshot of all repair records so far.
    pub fn records(&self) -> Vec<RepairRecord> {
        self.shared.records()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> SupervisorStats {
        self.shared.stats()
    }

    /// Whether the supervisor has quarantined this instance.
    pub fn is_quarantined(&self, instance: &str) -> bool {
        self.shared.state.lock().contains(instance)
    }
}

/// A signal that persisted long enough to act on.
#[derive(Clone, Debug)]
pub struct Confirmed<S> {
    /// The confirmed signal value.
    pub signal: S,
    /// When the signal (in any shape) was first observed — the honest
    /// onset for MTTR-style accounting.
    pub first_seen: Instant,
}

/// The supervisor's anti-flapping machinery, factored out so other
/// control loops (the autoscaler) debounce with the *same* semantics:
///
/// * **Confirmation hysteresis** — a per-key signal must persist
///   `confirm_polls` consecutive observations before
///   [`AntiFlap::observe`] confirms it; one noisy sample never fires an
///   action. A signal that changes shape mid-confirmation (slow →
///   partition, scale-up → scale-down) restarts the count but keeps the
///   original onset. A `None` observation clears the key.
/// * **Cooldown** — [`AntiFlap::note_fired`] starts a per-key cooldown
///   window; [`AntiFlap::in_cooldown`] tells the caller to hold fire.
///   The supervisor *escalates* on recurrence-within-cooldown (ladder
///   rungs), the autoscaler *suppresses* — both read the same clock.
pub struct AntiFlap<S> {
    confirm_polls: u32,
    cooldown: Duration,
    pending: HashMap<String, PendingSignal<S>>,
    last_fired: HashMap<String, Instant>,
}

struct PendingSignal<S> {
    signal: S,
    first_seen: Instant,
    polls: u32,
}

impl<S: PartialEq + Clone> AntiFlap<S> {
    /// A debouncer requiring `confirm_polls` consecutive observations
    /// and spacing fired actions by `cooldown` per key.
    pub fn new(confirm_polls: u32, cooldown: Duration) -> AntiFlap<S> {
        AntiFlap {
            confirm_polls,
            cooldown,
            pending: HashMap::new(),
            last_fired: HashMap::new(),
        }
    }

    /// Observe `key`'s current signal (`None` = in-band: clears the
    /// key). Returns the signal once it has persisted the configured
    /// number of consecutive observations.
    pub fn observe(&mut self, key: &str, signal: Option<S>, now: Instant) -> Option<Confirmed<S>> {
        let confirm = self.confirm_polls;
        self.observe_with(key, signal, now, confirm)
    }

    /// [`AntiFlap::observe`] with a per-call confirmation count (the
    /// supervisor confirms authoritative crashes in one poll but
    /// suspicion-based anomalies in `confirm_polls`).
    pub fn observe_with(
        &mut self,
        key: &str,
        signal: Option<S>,
        now: Instant,
        confirm: u32,
    ) -> Option<Confirmed<S>> {
        let Some(signal) = signal else {
            self.pending.remove(key);
            return None;
        };
        let p = self.pending.entry(key.to_string()).or_insert(PendingSignal {
            signal: signal.clone(),
            first_seen: now,
            polls: 0,
        });
        if p.signal != signal {
            // The signal changed shape: restart confirmation but keep
            // the original onset.
            p.signal = signal;
            p.polls = 0;
        }
        p.polls += 1;
        if p.polls >= confirm.max(1) {
            let p = self.pending.remove(key).expect("pending entry");
            Some(Confirmed { signal: p.signal, first_seen: p.first_seen })
        } else {
            None
        }
    }

    /// Whether `key` fired within the last cooldown window.
    pub fn in_cooldown(&self, key: &str, now: Instant) -> bool {
        self.last_fired
            .get(key)
            .is_some_and(|t| now.saturating_duration_since(*t) < self.cooldown)
    }

    /// Record that an action fired for `key`, starting its cooldown.
    pub fn note_fired(&mut self, key: &str, now: Instant) {
        self.last_fired.insert(key.to_string(), now);
    }

    /// The configured cooldown window.
    pub fn cooldown(&self) -> Duration {
        self.cooldown
    }

    /// Keys mid-confirmation, with their poll counts and onsets (the
    /// sim executor folds these into its state fingerprint).
    pub fn pending_entries(&self) -> Vec<(&String, u32, Instant)> {
        self.pending.iter().map(|(k, p)| (k, p.polls, p.first_seen)).collect()
    }
}

/// Per-instance escalation-ladder position.
struct LadderState {
    rung: usize,
    last_repair: Instant,
    last_failed: bool,
}

impl Runtime {
    /// Start the self-healing supervisor: a service loop running the
    /// detect → plan → act → verify cycle described in
    /// [`crate::supervisor`] once per `config.poll`. The loop ends on
    /// [`Runtime::shutdown`]; use the returned [`Supervisor`] handle to
    /// stop it earlier or to read repair records, stats, and the
    /// installed-program chain.
    ///
    /// Heartbeats should already be enabled
    /// ([`Runtime::enable_heartbeats`]) — without them only registry
    /// crashes are detectable.
    pub fn supervise(&self, config: SupervisorConfig) -> Supervisor {
        let shared = Shared::new(self, Mutex::new(HashSet::new()));
        let poll = config.poll;
        let core = SupervisorCore::new(self.handle(), config, Arc::clone(&shared));
        let core = Arc::new(Mutex::new(core));
        // Under virtual time no thread starts: the sim executor polls
        // the registered core as a schedulable top-level event (never
        // nested inside a blocked activation, which would deadlock a
        // reconfigure repair on the activation lock below it on the
        // stack).
        self.inner.supervisors.lock().push(Arc::clone(&core));
        let clock = self.inner.clock().clone();
        let stop = {
            let shared = Arc::clone(&shared);
            move || shared.stopped()
        };
        self.spawn_service("csaw-supervisor", &shared.wake, stop, move || {
            core.lock().poll_once();
            Some(clock.now() + poll)
        });
        Supervisor { shared }
    }
}

/// Observers that currently suspect `peer` *and* are themselves alive
/// and trustworthy: a crashed or quarantined observer's heartbeat
/// clocks go stale on everyone, so counting it would let one dead node
/// "confirm" a partition of every healthy peer.
fn live_suspectors(rt: &Runtime, peer: &str, ignore: &HashSet<String>) -> usize {
    rt.inner
        .hb
        .suspectors_of(peer)
        .into_iter()
        .filter(|obs| {
            !ignore.contains(obs)
                && rt
                    .inner
                    .get_instance(obs)
                    .is_some_and(|i| i.status() == InstanceStatus::Running)
        })
        .count()
}

/// The supervisor's detect → plan → act → verify machine, separated
/// from its driving loop: wall-clock runs call
/// [`SupervisorCore::poll_once`] from a service loop; under a virtual
/// clock the sim executor calls it as a schedulable top-level event.
pub(crate) struct SupervisorCore {
    rt: Runtime,
    config: SupervisorConfig,
    shared: Arc<Shared>,
    flap: AntiFlap<FailureClass>,
    ladders: HashMap<String, LadderState>,
    // Instances handed to a Reconfigure repair (or quarantined): the
    // new program already routes around them, so re-detecting their
    // silence would only fire useless repairs. They re-enter detection
    // once observed healthy.
    written_off: HashSet<String>,
    next_poll: Instant,
}

impl SupervisorCore {
    fn new(rt: Runtime, config: SupervisorConfig, shared: Arc<Shared>) -> SupervisorCore {
        let next_poll = rt.inner.clock().now();
        let flap = AntiFlap::new(config.confirm_polls, config.cooldown);
        SupervisorCore {
            rt,
            config,
            shared,
            flap,
            ladders: HashMap::new(),
            written_off: HashSet::new(),
            next_poll,
        }
    }

    /// Whether the loop should exit (runtime shutdown or handle stop).
    pub(crate) fn stopped(&self) -> bool {
        self.rt.inner.shutdown.load(Ordering::SeqCst) || self.shared.stopped()
    }

    /// When the next detection poll is due (sim executor scheduling).
    pub(crate) fn next_poll(&self) -> Instant {
        self.next_poll
    }

    /// Feed the core's schedule-relevant state to `h` for the sim
    /// executor's state fingerprint: poll deadline (normalized to
    /// `origin`), suspected-but-unconfirmed instances, ladder rungs,
    /// and the written-off set — everything that changes what the next
    /// poll does.
    pub(crate) fn sim_fingerprint(&self, origin: Instant, h: &mut dyn FnMut(&[u8])) {
        let rel = self
            .next_poll
            .saturating_duration_since(origin)
            .as_nanos() as u64;
        h(&rel.to_le_bytes());
        let mut pending: Vec<(&String, u32, u64)> = self
            .flap
            .pending_entries()
            .into_iter()
            .map(|(n, polls, first_seen)| {
                (n, polls, first_seen.saturating_duration_since(origin).as_nanos() as u64)
            })
            .collect();
        pending.sort();
        for (name, polls, first) in pending {
            h(name.as_bytes());
            h(&polls.to_le_bytes());
            h(&first.to_le_bytes());
        }
        let mut ladders: Vec<(&String, usize, bool)> = self
            .ladders
            .iter()
            .map(|(n, l)| (n, l.rung, l.last_failed))
            .collect();
        ladders.sort();
        for (name, rung, failed) in ladders {
            h(name.as_bytes());
            h(&(rung as u64).to_le_bytes());
            h(&[u8::from(failed)]);
        }
        let mut off: Vec<&String> = self.written_off.iter().collect();
        off.sort();
        for name in off {
            h(name.as_bytes());
        }
    }

    /// One detection poll: classify every supervised instance, then
    /// plan + act + verify each confirmed anomaly (one repair at a
    /// time). All waiting inside parks on the supervisor's event count
    /// and bails out early on shutdown/stop.
    pub(crate) fn poll_once(&mut self) {
        let rt = self.rt.handle();
        let config = self.config.clone();
        let shared = Arc::clone(&self.shared);
        let clock = rt.inner.clock().clone();
        let stopped = || rt.inner.shutdown.load(Ordering::SeqCst) || shared.stopped();
        let sleep = |d: Duration| shared.wake.sleep_until(&clock, clock.now() + d, &stopped);
        self.next_poll = clock.now() + config.poll;
        let flap = &mut self.flap;
        let written_off = &mut self.written_off;
        let ladders = &mut self.ladders;

        let excluded: HashSet<String> = written_off
            .iter()
            .cloned()
            .chain(shared.state.lock().iter().cloned())
            .collect();

        // Written-off instances that came back healthy re-enter
        // detection (quarantine is sticky until someone re-admits).
        written_off.retain(|name| {
            let healthy = rt
                .inner
                .get_instance(name)
                .is_some_and(|i| i.status() == InstanceStatus::Running)
                && live_suspectors(&rt, name, &excluded) == 0
                && !rt.is_fenced(name);
            !healthy
        });

        // ---- detect ---------------------------------------------------
        let mut confirmed: Vec<(Sym, Confirmed<FailureClass>)> = Vec::new();
        for inst in rt.inner.all_instances() {
            let name = inst.name.clone();
            if excluded.contains(&name) {
                continue;
            }
            let class = match inst.status() {
                InstanceStatus::Crashed => Some(FailureClass::Crash),
                InstanceStatus::Running => {
                    let n = live_suspectors(&rt, &name, &excluded);
                    if n >= config.quorum {
                        Some(FailureClass::Partition)
                    } else if n >= 1 {
                        Some(FailureClass::Slow)
                    } else {
                        None
                    }
                }
                // Stopped is an orderly state, Retired left the
                // topology, NotStarted never entered it.
                _ => None,
            };
            // Crashes confirm in one poll (the registry is
            // authoritative); suspicion-based anomalies ride the full
            // confirmation hysteresis.
            let confirm = match class {
                Some(FailureClass::Crash) => 1,
                _ => config.confirm_polls.max(1),
            };
            if let Some(c) = flap.observe_with(&name, class, clock.now(), confirm) {
                confirmed.push((inst.id, c));
            }
        }

        // ---- plan + act + verify (one repair at a time) ---------------
        for (sym, p) in confirmed {
            let (inst, name) = (sym.as_str(), sym.to_string());
            shared.stats.lock().detected += 1;
            let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
            rt.inner.tracer.record(
                inst,
                "-",
                0,
                TraceKind::RepairDetect { class: p.signal.label(), id },
            );
            let Some(ladder) = config.policy.ladders.get(&p.signal) else {
                continue;
            };
            if ladder.is_empty() {
                continue;
            }

            // Escalation: a recurrence inside the cooldown, or any
            // failure after a failed repair, climbs one rung.
            let now = clock.now();
            let rung = match ladders.get_mut(&name) {
                Some(st) => {
                    if st.last_failed
                        || now.saturating_duration_since(st.last_repair) < config.cooldown
                    {
                        st.rung = (st.rung + 1).min(ladder.len() - 1);
                        shared.stats.lock().escalations += 1;
                        rt.inner.tracer.record(
                            inst,
                            "-",
                            0,
                            TraceKind::RepairEscalate { rung: st.rung as u64, id },
                        );
                    } else {
                        st.rung = 0;
                    }
                    st.rung
                }
                None => {
                    ladders.insert(
                        name.clone(),
                        LadderState { rung: 0, last_repair: now, last_failed: false },
                    );
                    0
                }
            };
            let action = &ladder[rung.min(ladder.len() - 1)];
            rt.inner.tracer.record(
                inst,
                "-",
                0,
                TraceKind::RepairPlan {
                    action: action.label(),
                    id,
                    rung: rung as u64,
                },
            );
            shared.stats.lock().attempted += 1;
            let detect_latency = now.saturating_duration_since(p.first_seen);

            // ---- act --------------------------------------------------
            let mut attempts = 0u32;
            let mut reconfig_pause = Duration::ZERO;
            let mut fence_epoch = None;
            let mut acted = true;
            match action {
                RepairAction::Restart | RepairAction::RestartThen(_) => {
                    acted = rt.restart(&name).is_ok();
                    if acted {
                        if let RepairAction::RestartThen(hook) = action {
                            hook(&rt, &name);
                        }
                    }
                }
                RepairAction::Reconfigure(build) => {
                    if config.fence_on_reconfigure {
                        let epoch = rt.fence_instance(&name);
                        fence_epoch = Some(epoch);
                        rt.inner.tracer.record(
                            inst,
                            "-",
                            0,
                            TraceKind::RepairFence { epoch, id },
                        );
                    }
                    acted = false;
                    while attempts < config.max_retries.max(1) {
                        if attempts > 0 {
                            // Bounded backoff: base × 2^(attempt-1),
                            // cut short by a stop, so shutdown never
                            // waits a full escalated backoff out.
                            if !sleep(config.backoff * (1 << (attempts - 1))) {
                                break;
                            }
                        }
                        attempts += 1;
                        // The target and spec are built from the state
                        // this epoch serves: a cut that lands while the
                        // builder runs makes the attempt stale, and the
                        // executor refuses it before it quiesces.
                        let (built_at, _) = rt.serving();
                        let (target, spec) = build(&rt, &name);
                        match rt.reconfigure_at(Some(built_at), &target, spec) {
                            Ok(report) => {
                                reconfig_pause = reconfig_pause.max(report.max_pause());
                                if report.migration_error.is_none() {
                                    acted = true;
                                    break;
                                }
                                // Post-cut failure: the target program
                                // is serving but migration is partial.
                                // The rebuilt spec of the next attempt
                                // sees (and can finish) that state.
                            }
                            Err(_) => {
                                // Refused as stale, or a pre-cut
                                // failure: nothing applied, retry from
                                // scratch.
                            }
                        }
                    }
                    written_off.insert(name.clone());
                }
                RepairAction::Quarantine => {
                    let epoch = rt.fence_instance(&name);
                    fence_epoch = Some(epoch);
                    rt.inner.tracer.record(
                        inst,
                        "-",
                        0,
                        TraceKind::RepairFence { epoch, id },
                    );
                    shared.state.lock().insert(name.clone());
                    shared.stats.lock().quarantined += 1;
                }
            }

            // ---- verify -----------------------------------------------
            let deadline = clock.now() + config.verify_timeout;
            let mut ok = false;
            while acted && !ok {
                let excluded: HashSet<String> = written_off
                    .iter()
                    .cloned()
                    .chain(shared.state.lock().iter().cloned())
                    .collect();
                let healthy = match action {
                    RepairAction::Restart | RepairAction::RestartThen(_) => {
                        rt.inner
                            .get_instance(&name)
                            .is_some_and(|i| i.status() == InstanceStatus::Running)
                            && live_suspectors(&rt, &name, &excluded) < config.quorum
                    }
                    // The failed instance is out of the topology: the
                    // survivors must all be quorum-healthy.
                    RepairAction::Reconfigure(_) => rt
                        .inner
                        .all_instances()
                        .iter()
                        .filter(|i| {
                            !excluded.contains(&i.name)
                                && i.status() == InstanceStatus::Running
                        })
                        .all(|i| live_suspectors(&rt, &i.name, &excluded) < config.quorum),
                    RepairAction::Quarantine => rt.is_fenced(&name),
                };
                ok = healthy
                    && config.policy.verify.as_ref().is_none_or(|f| f(&rt));
                if !ok {
                    if clock.now() >= deadline || stopped() {
                        break;
                    }
                    if !sleep(config.poll.min(Duration::from_millis(5))) {
                        break;
                    }
                }
            }
            rt.inner
                .tracer
                .record(inst, "-", 0, TraceKind::RepairVerify { ok, id });

            let done_at = clock.now();
            if ok {
                shared.stats.lock().succeeded += 1;
                rt.inner.tracer.record(
                    inst,
                    "-",
                    0,
                    TraceKind::RepairDone {
                        id,
                        mttr_us: done_at
                            .saturating_duration_since(p.first_seen)
                            .as_micros() as u64,
                    },
                );
            } else {
                shared.stats.lock().failed += 1;
                rt.inner.tracer.record(inst, "-", 0, TraceKind::RepairFailed { id });
            }
            if let Some(st) = ladders.get_mut(&name) {
                st.last_repair = done_at;
                st.last_failed = !ok;
            }
            shared.records.lock().push(RepairRecord {
                id,
                instance: name.clone(),
                class: p.signal,
                action: action.label(),
                rung,
                attempts,
                ok,
                detected_at: p.first_seen,
                done_at,
                detect_latency,
                repair_latency: done_at.saturating_duration_since(now),
                reconfig_pause,
                fence_epoch,
            });
        }
    }
}
