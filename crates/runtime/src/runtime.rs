//! The runtime facade: instances, scheduling, start/stop, faults.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_core::expr::Arg;
use csaw_core::formula::Ternary;
use csaw_core::intern::{KeyId, Sym};
use csaw_core::lower::{self, Bindings, LoweredJunction, Remote, Slot};
use csaw_core::names::{JRef, NameRef};
use csaw_core::program::{CompiledProgram, JunctionDef, MainDef};
use csaw_core::value::Value;
use csaw_kv::{Delivery, Table, TableEvent, TableObserver, Update};
use parking_lot::{Mutex, RwLock};

use crate::app::{InstanceApp, NoopApp};
use crate::cell::{moves_formulas, Cell, JunctionId};
use crate::clock::Clock;
use crate::error::Failure;
use crate::eventcount::{spawn_service, EventCount};
use crate::fault::{FaultPlan, RetryPolicy};
use crate::health::{HeartbeatConfig, HeartbeatState, HB_JUNCTION};
use crate::interp::ExecCtx;
use crate::overload::{OverloadConfig, OverloadStats, RetryBudgetPolicy};
use crate::metrics::{Histogram, Metrics};
use crate::trace::{TraceEvent, TraceKind, Tracer};
use crate::transport::{DeliverFn, LinkKind, LinkStats, Network, SendError};

/// Forwards one cell's table events into the runtime tracer, stamped
/// with the owning junction's identity. Installed on every table at
/// construction; while tracing is off, [`TableObserver::enabled`]
/// makes each table mutation cost a single relaxed load.
pub struct CellObserver {
    /// The runtime's tracer.
    pub tracer: Arc<Tracer>,
    /// The owning instance.
    pub instance: Sym,
    /// The owning junction.
    pub junction: Sym,
}

impl TableObserver for CellObserver {
    fn enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    fn on_event(&self, epoch: u64, event: TableEvent<&'static str>) {
        let (instance, junction) = (self.instance.as_str(), self.junction.as_str());
        self.tracer.record(instance, junction, epoch, TraceKind::Kv(event));
    }
}

/// Lifecycle state of an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum InstanceStatus {
    /// Declared but never started.
    NotStarted = 0,
    /// Running.
    Running = 1,
    /// Stopped via `stop`.
    Stopped = 2,
    /// Crashed (fault injection) — sends to it fail, like `Stopped`, but
    /// distinguishable for diagnostics.
    Crashed = 3,
    /// Replaced by a live reconfiguration: the record is no longer in
    /// the registry and its scheduler threads exit. Terminal.
    Retired = 4,
}

impl InstanceStatus {
    fn from_u8(v: u8) -> InstanceStatus {
        match v {
            1 => InstanceStatus::Running,
            2 => InstanceStatus::Stopped,
            3 => InstanceStatus::Crashed,
            4 => InstanceStatus::Retired,
            _ => InstanceStatus::NotStarted,
        }
    }
}

/// Who makes a pass: a scheduler (a junction's thread, the sim
/// executor and its hook) or an `invoke`, or a wall-clock `wait` that
/// runs a held target nested under it ([`RuntimeInner::run_held`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Nesting {
    /// The end of the activation signals the junction's scheduler; on
    /// the wall clock the activation lock is waited for.
    Top,
    /// A pass of the junction's own scheduler thread: as `Top`, but the
    /// thread looks at the junction again itself, so the end of the
    /// activation signals only a waiting `invoke`.
    Own,
    /// The activation lock is only tried, and the caller decides
    /// whether to signal the scheduler.
    Nested,
}

/// When a junction gets scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Run once when the instance starts (then on demand). The default
    /// for guard-less junctions (Fig. 3's τf, Fig. 4's Act).
    Startup,
    /// Run whenever the guard holds. The default for guarded junctions
    /// (Fig. 3's τg: `guard Work`).
    Auto,
    /// Run only via [`Runtime::invoke`] (request-driven junctions).
    OnDemand,
    /// Run at most once per interval, guard permitting (watchdog
    /// junctions like τb::reactivate, Fig. 14).
    Periodic(Duration),
}

/// A diagnostic event (junction failure, complain, lifecycle change).
#[derive(Clone, Debug)]
pub struct Event {
    /// When.
    pub at: Instant,
    /// Which instance.
    pub instance: String,
    /// Which junction ("-" for lifecycle events).
    pub junction: String,
    /// Event class: "failure", "complain", "start", "stop", "crash"…
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

/// Runtime tuning knobs. None of them is a poll interval: every input
/// of a guard or a `wait` signals the threads that read it, or is an
/// exact deadline (a failure backoff, a period, a caller's deadline).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Default link kind between instances.
    pub default_link: LinkKind,
    /// Upper bound on an un-deadlined `wait` (prevents silent hangs; the
    /// paper's examples always bound waits with `otherwise[t]`).
    pub max_wait: Duration,
    /// Default deadline for [`Runtime::invoke`] guard waits.
    pub invoke_timeout: Duration,
    /// Time source. [`Clock::wall`] for production; a
    /// [`Clock::simulated`] clock puts the runtime in deterministic-
    /// simulation mode — no service threads are spawned, and a
    /// [`crate::sim::SimExecutor`] drives every step instead.
    pub clock: Clock,
    /// Overload-control knobs (queue bounds, ingress deadline,
    /// shedding, control-plane priority lane). Inert by default; also
    /// settable live via [`Runtime::set_overload`].
    pub overload: OverloadConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            default_link: LinkKind::Direct,
            max_wait: Duration::from_secs(30),
            invoke_timeout: Duration::from_secs(10),
            clock: Clock::wall(),
            overload: OverloadConfig::default(),
        }
    }
}

/// First delay after a failed autonomous activation; doubles per
/// consecutive failure.
const FAILURE_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Backoff ceiling — a persistently failing junction retries at this
/// cadence until its guard goes false or the failure clears.
const FAILURE_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Per-junction runtime record.
pub(crate) struct JunctionRt {
    /// What the interpreter runs: the junction's definition, lowered once
    /// at build.
    pub(crate) lowered: LoweredJunction,
    /// The run-time half of `lowered`'s names, filled at `start` and on
    /// `idx` writes. Taken only for a moment, and never before another
    /// lock: a holder of the table lock may take it.
    pub(crate) bindings: Mutex<Bindings>,
    pub(crate) cell: Arc<Cell>,
    pub(crate) policy: Mutex<Policy>,
    pub(crate) needs_initial: AtomicBool,
    pub(crate) last_run: Mutex<Option<Instant>>,
    /// Consecutive autonomous-activation failures; resets on success.
    pub(crate) consec_failures: AtomicU32,
    /// Autonomous scheduling suppressed until this instant after a
    /// failed activation (exponential, capped). A guard that stays true
    /// while the body keeps failing — a fenced-out zombie retrying its
    /// acks, a `complain` storm during a partition — would otherwise
    /// respin the junction at wake speed. `invoke` is not throttled.
    pub(crate) backoff_until: Mutex<Option<Instant>>,
    /// Monotonic count of failures absorbed by `otherwise` handlers in
    /// this junction's activations. An activation that completes Ok but
    /// raised this counter still trips the failure backoff: the
    /// architecture recovered (complained, retried), but the underlying
    /// fault — a fenced link, a partitioned peer — is still there, and
    /// re-running at wake speed would just spin on it.
    pub(crate) handled_failures: AtomicU32,
    /// What this junction's scheduler thread parks on, and an `invoke`
    /// waiting for the guard.
    pub(crate) sched: EventCount<()>,
    /// `invoke`s of this junction waiting for its guard.
    invokers: AtomicU32,
    /// Scheduler passes made over this junction
    /// (`scheduler_passes_total{instance,junction}`).
    passes: Arc<AtomicU64>,
}

impl JunctionRt {
    pub(crate) fn name(&self) -> &'static str {
        self.cell.id.junction.as_str()
    }

    /// Record `kind` under this junction's interned names, if tracing
    /// is on.
    pub(crate) fn trace(&self, tracer: &Tracer, epoch: u64, kind: TraceKind<&'static str>) {
        if tracer.is_enabled() {
            tracer.record(self.cell.id.instance.as_str(), self.name(), epoch, kind);
        }
    }

    /// Whether the scheduler thread can ever run this junction on its
    /// own. When it cannot — `OnDemand`, or `Startup` with the initial
    /// run done — it has nothing to schedule until a lifecycle change,
    /// and every such change (`start`, `restart`, `set_policy`) signals
    /// `sched` after the store this reads.
    fn self_scheduling(&self) -> bool {
        match *self.policy.lock() {
            Policy::OnDemand => false,
            Policy::Startup => self.needs_initial.load(Ordering::SeqCst),
            Policy::Auto | Policy::Periodic(_) => true,
        }
    }

    /// Whether a thread parks on `sched` for this junction's guard: its
    /// scheduler, when it can run the junction on its own, or an
    /// `invoke` waiting for the guard to hold.
    fn guard_watched(&self) -> bool {
        self.self_scheduling() || self.invokers.load(Ordering::SeqCst) > 0
    }

    /// The first instant after `now` at which this junction falls due
    /// with no signal: its failure backoff's end or, for a `Periodic`
    /// junction, its period's end. Every other input of its guard
    /// signals `sched`. The wall-clock scheduler parks until it; the sim
    /// executor folds it into its next deadline.
    pub(crate) fn next_due(&self, now: Instant) -> Option<Instant> {
        let period_end = match *self.policy.lock() {
            Policy::Periodic(iv) => self.last_run.lock().map(|t| t + iv),
            _ => None,
        };
        [*self.backoff_until.lock(), period_end]
            .into_iter()
            .flatten()
            .filter(|&t| t > now)
            .min()
    }

    /// Fill every binding slot from the parameter environment and the
    /// table (§6 name resolution): the parameter's value, else the `idx`
    /// cursor of that name, else the name itself if the table declares
    /// it.
    pub(crate) fn rebind(&self) {
        let env = self.cell.env_clone();
        let table = self.cell.table();
        let mut b = self.bindings.lock();
        for (slot, var) in self.lowered.vars.iter().enumerate() {
            let param = env.get(&var.name);
            let rendered;
            let text = match param {
                Some(Value::Target(s) | Value::Str(s)) => Some(s.as_str()),
                Some(other) => {
                    rendered = other.to_string();
                    Some(rendered.as_str())
                }
                None => unbound_text(&table, var.key),
            };
            b.set(&self.lowered, slot, text, param.is_some());
            b.set_duration(slot, param.and_then(Value::as_duration));
        }
    }

    /// Re-read the `idx` cursors a host call may have moved (the slots
    /// of its write set), under the table lock it ran under.
    pub(crate) fn refresh_idx(&self, table: &Table, slots: &[Slot]) {
        if slots.is_empty() {
            return;
        }
        let mut b = self.bindings.lock();
        for &slot in slots {
            if !b.pinned(slot) {
                let text = unbound_text(table, self.lowered.vars[slot].key);
                b.set(&self.lowered, slot, text, false);
            }
        }
    }

    /// Tell whoever waits for the guard that it may have changed — the
    /// scheduler thread, unless it has nothing to schedule, and a
    /// waiting `invoke`.
    pub(crate) fn wake_scheduler(&self) {
        if self.guard_watched() {
            self.sched.signal();
        }
    }

    /// Deliver a remote update to this junction of `inst` and wake the
    /// thread that can act on it: a `wait` whose window applied it (in
    /// [`Cell::deliver`]), or whoever waits for the guard when it was
    /// queued and can have changed the guard. Inside a wall-clock
    /// activation the scheduler's wake is held instead, for the
    /// activation to run or signal when it parks or ends
    /// ([`RuntimeInner::run_held`]). An update that can move a formula
    /// also signals the `γ@P` readers.
    pub(crate) fn deliver(
        self: &Arc<Self>,
        inst: &Arc<InstanceState>,
        update: Update,
        readers: &RemoteReaders,
    ) {
        let moves_guard = moves_formulas(&update);
        if self.cell.deliver(update) == Delivery::Queued
            && moves_guard
            && self.guard_watched()
            && !hold_wake(inst, self)
        {
            self.sched.signal();
        }
        if moves_guard {
            readers.signal();
        }
    }
}

/// An `invoke` counted in [`JunctionRt::invokers`] until it ends.
struct WaitingInvoke<'a>(&'a JunctionRt);

impl<'a> WaitingInvoke<'a> {
    fn register(jrt: &'a JunctionRt) -> WaitingInvoke<'a> {
        jrt.invokers.fetch_add(1, Ordering::SeqCst);
        WaitingInvoke(jrt)
    }
}

impl Drop for WaitingInvoke<'_> {
    fn drop(&mut self) {
        self.0.invokers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The junctions whose lowered program reads a `γ@P` atom, in a guard
/// or a `wait`. A table's change signals only its own junction, so
/// every change another junction can read there also signals the
/// junctions listed here — their schedulers, if they schedule
/// themselves, and their `wait`s: a delivery that can move a formula,
/// queued or applied, and the end of an activation (its local writes,
/// and the queued updates an observer now reads as applied). Built with
/// the registry and rebuilt at each reconfiguration's cut. Empty on most
/// programs, where a signal costs one load.
#[derive(Default)]
pub(crate) struct RemoteReaders {
    any: AtomicBool,
    list: RwLock<Vec<Arc<JunctionRt>>>,
}

impl RemoteReaders {
    pub(crate) fn rebuild(&self, instances: &Instances) {
        let list: Vec<Arc<JunctionRt>> = instances
            .values()
            .flat_map(|inst| &inst.junctions)
            .filter(|j| {
                j.lowered
                    .remotes
                    .iter()
                    .any(|r| matches!(r, Remote::Prop { .. }))
            })
            .cloned()
            .collect();
        let any = !list.is_empty();
        *self.list.write() = list;
        self.any.store(any, Ordering::SeqCst);
    }

    pub(crate) fn signal(&self) {
        if self.any.load(Ordering::SeqCst) {
            for jrt in self.list.read().iter() {
                jrt.wake_scheduler();
                jrt.cell.nudge();
            }
        }
    }
}

/// Scheduler wake-ups this thread's wall-clock activations made due and
/// have not signalled yet.
///
/// A `Queued` delivery that a wall-clock activation makes on a Direct
/// link happens on the activation's own thread. If that activation is
/// about to park in a `wait`, signalling the target's scheduler would
/// hand the request to a second thread only to park the first. The
/// wake is held here instead. At the park the activation runs the
/// target's pass itself ([`RuntimeInner::run_held`]); at every other
/// place it could block, and when it ends, it signals what it holds.
/// Deliveries outside any activation (TCP readers, the delay queue,
/// heartbeats, the supervisor, `par` arms) signal at once.
struct HeldWakes {
    /// Wall-clock activations open on this thread.
    frames: u32,
    /// Junctions whose scheduler a delivery made due, each once. The
    /// buffer is kept across activations, so holding allocates nothing.
    targets: Vec<(Arc<InstanceState>, Arc<JunctionRt>)>,
}

thread_local! {
    static HELD: RefCell<HeldWakes> =
        const { RefCell::new(HeldWakes { frames: 0, targets: Vec::new() }) };
}

/// Hold `jrt`'s scheduler wake if this thread is inside a wall-clock
/// activation. `false`: it is not, and the caller signals.
fn hold_wake(inst: &Arc<InstanceState>, jrt: &Arc<JunctionRt>) -> bool {
    HELD.try_with(|h| {
        let mut h = h.borrow_mut();
        if h.frames == 0 {
            return false;
        }
        if !h.targets.iter().any(|(_, j)| Arc::ptr_eq(j, jrt)) {
            h.targets.push((Arc::clone(inst), Arc::clone(jrt)));
        }
        true
    })
    .unwrap_or(false)
}

/// Take the newest wake held above `mark`.
fn take_held(mark: usize) -> Option<(Arc<InstanceState>, Arc<JunctionRt>)> {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if h.targets.len() > mark {
            h.targets.pop()
        } else {
            None
        }
    })
}

/// Signal every scheduler wake held above `mark`.
fn signal_held_above(mark: usize) {
    while let Some((_, jrt)) = take_held(mark) {
        jrt.wake_scheduler();
    }
}

/// Signal every scheduler wake this thread holds. Called before every
/// place an activation can block other than a `wait`'s park: a call
/// into the app (`host`, `save`, `restore`, `start`, `stop`), a retry
/// backoff, joining `par` arms.
pub(crate) fn signal_held() {
    signal_held_above(0);
}

/// One wall-clock activation open on this thread. Dropping it — when
/// the activation ends, by error or panic too — signals the wakes it
/// still holds.
struct ActivationFrame {
    mark: usize,
}

impl ActivationFrame {
    fn open() -> ActivationFrame {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            h.frames += 1;
            ActivationFrame {
                mark: h.targets.len(),
            }
        })
    }
}

impl Drop for ActivationFrame {
    fn drop(&mut self) {
        signal_held_above(self.mark);
        HELD.with(|h| h.borrow_mut().frames -= 1);
    }
}

/// What a name that no parameter binds resolves to: the `idx` cursor of
/// that name, else the name itself if the table declares it.
fn unbound_text(table: &Table, name: KeyId) -> Option<&str> {
    table
        .idx(name)
        .or_else(|| (table.has_data(name) || table.has_prop(name)).then_some(name.as_str()))
}

/// Per-instance runtime record.
pub(crate) struct InstanceState {
    pub(crate) name: String,
    /// `name`, interned: the registry's index.
    pub(crate) id: Sym,
    pub(crate) status: AtomicU8,
    pub(crate) junctions: Vec<Arc<JunctionRt>>,
    pub(crate) app: Arc<Mutex<Box<dyn InstanceApp>>>,
    /// Activations run (observability).
    pub(crate) activations: AtomicU64,
}

impl InstanceState {
    pub(crate) fn status(&self) -> InstanceStatus {
        InstanceStatus::from_u8(self.status.load(Ordering::SeqCst))
    }

    /// Lifecycle signal: wake every scheduler and every `wait` of the
    /// instance, whatever their policy.
    pub(crate) fn wake(&self) {
        for jrt in &self.junctions {
            jrt.sched.signal();
            jrt.cell.nudge();
        }
    }

    /// The junction named `name` (callers holding a name).
    pub(crate) fn junction(&self, name: &str) -> Option<&Arc<JunctionRt>> {
        self.junctions.iter().find(|j| j.name() == name)
    }

    /// The junction `id` (the send and delivery paths, which hold ids).
    pub(crate) fn junction_id(&self, id: Sym) -> Option<&Arc<JunctionRt>> {
        self.junctions.iter().find(|j| j.cell.id.junction == id)
    }
}

/// The instances of a runtime, indexed by interned instance id, so the
/// send and delivery paths find one without hashing its name.
#[derive(Default)]
pub(crate) struct Instances {
    by_id: Vec<Option<Arc<InstanceState>>>,
}

impl Instances {
    pub(crate) fn get(&self, id: Sym) -> Option<&Arc<InstanceState>> {
        self.by_id.get(id.index())?.as_ref()
    }

    /// By name, for callers holding one: a scan of the few instances,
    /// cheaper than interning the name.
    pub(crate) fn get_named(&self, name: &str) -> Option<&Arc<InstanceState>> {
        self.values().find(|i| i.name == name)
    }

    pub(crate) fn insert(&mut self, inst: Arc<InstanceState>) {
        let i = inst.id.index();
        if self.by_id.len() <= i {
            self.by_id.resize(i + 1, None);
        }
        self.by_id[i] = Some(inst);
    }

    pub(crate) fn remove(&mut self, name: &str) {
        if let Some(slot) = Sym::find(name).and_then(|id| self.by_id.get_mut(id.index())) {
            *slot = None;
        }
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &Arc<InstanceState>> {
        self.by_id.iter().flatten()
    }
}

/// The swappable instance registry. One `Arc` is shared between
/// [`RuntimeInner`] and the network's delivery closure, so a live
/// reconfiguration that swaps entries under the write lock is observed
/// atomically by every path — senders, schedulers, and observers alike.
pub(crate) type Registry = Arc<RwLock<Instances>>;

/// Inbound updates buffered per quiesced instance during a live
/// reconfiguration. Key presence means "held": the delivery closure
/// appends instead of delivering, and the reconfiguration executor
/// flushes the buffer into the *new* cells at resume. The closure keeps
/// the lock across actual deliveries too, so installing a hold
/// linearizes against in-flight sends — no update can slip into an old
/// cell after its state was exported.
pub(crate) type HoldBuffer = Arc<Mutex<HashMap<String, Vec<(JunctionId, Update)>>>>;

/// Shared runtime internals.
pub(crate) struct RuntimeInner {
    pub(crate) instances: Registry,
    /// Held-update buffers (shared with the delivery closure).
    pub(crate) holds: HoldBuffer,
    /// Fast-path gate: true while any hold is installed. When false —
    /// the steady state — the delivery closure and the activation path
    /// skip the hold lock entirely, so deliveries are not serialized
    /// runtime-wide outside a reconfiguration.
    pub(crate) holds_active: Arc<AtomicBool>,
    /// Fast-path deliveries currently in flight. The reconfiguration
    /// executor raises `holds_active` and then waits for this to drain,
    /// so no delivery that read the flag as false can land in an old
    /// cell after its state was exported.
    pub(crate) deliveries_inflight: Arc<AtomicU64>,
    /// Serializes live reconfigurations: held by the one executor from
    /// its plan check through the plan's last phase.
    pub(crate) reconfig_lock: Mutex<()>,
    /// Every program the registry has embodied, in cut order: the boot
    /// program first, then one entry per committed cut. Never empty;
    /// the last entry is the program currently served. Only the
    /// executor's phase step (`reconfig.rs`) pushes, at the cut.
    pub(crate) epoch_chain: Mutex<Vec<Arc<CompiledProgram>>>,
    pub(crate) network: Network,
    pub(crate) config: RuntimeConfig,
    pub(crate) retry_limit: u32,
    pub(crate) events: Mutex<Vec<Event>>,
    pub(crate) shutdown: AtomicBool,
    /// True while `main` is executing: schedulers hold off so that the
    /// instances started by `main`'s parallel composition come up as a
    /// group ("when an instance is started, its junctions are started
    /// concurrently", §6 — and Fig. 3's f must not message g before g's
    /// `start` lands).
    pub(crate) booting: AtomicBool,
    /// Heartbeat failure detector (shared with the delivery closure).
    pub(crate) hb: Arc<HeartbeatState>,
    /// The junctions that read `γ@P` (shared with the delivery closure).
    pub(crate) readers: Arc<RemoteReaders>,
    /// Causal trace recorder (shared with cell observers + network).
    pub(crate) tracer: Arc<Tracer>,
    /// Metrics registry (shared with the network).
    pub(crate) metrics: Arc<Metrics>,
    /// Cached metric handles for the activation hot path.
    m_activations: Arc<std::sync::atomic::AtomicU64>,
    h_activation: Arc<Histogram>,
    main: MainDef,
    /// Every supervisor core [`crate::Runtime::supervise`] started. A
    /// wall clock polls each on its own service thread; under a
    /// simulated clock the sim executor polls them as schedulable
    /// events instead.
    pub(crate) supervisors: Mutex<Vec<Arc<Mutex<crate::supervisor::SupervisorCore>>>>,
    /// The event counts of the background services
    /// ([`Runtime::spawn_service`]), signalled by `shutdown`.
    services: Mutex<Vec<Arc<EventCount<()>>>>,
}

impl RuntimeInner {
    pub(crate) fn clock(&self) -> &Clock {
        &self.config.clock
    }

    /// The `wake_signals_total` counter every event count of this
    /// runtime adds to.
    pub(crate) fn wake_signals(&self) -> Arc<AtomicU64> {
        self.metrics.counter("wake_signals_total")
    }

    pub(crate) fn instance(&self, name: &str) -> Result<Arc<InstanceState>, Failure> {
        self.get_instance(name)
            .ok_or_else(|| Failure::Unresolved(format!("instance `{name}`")))
    }

    pub(crate) fn get_instance(&self, name: &str) -> Option<Arc<InstanceState>> {
        self.instances.read().get_named(name).cloned()
    }

    /// All registered instances, sorted by name. The sort keeps every
    /// order-sensitive consumer — heartbeat rounds, supervisor detection
    /// sweeps, the sim executor's event enumeration — independent of
    /// `HashMap` iteration order, which varies between processes and
    /// would break deterministic replay.
    pub(crate) fn all_instances(&self) -> Vec<Arc<InstanceState>> {
        let mut v: Vec<Arc<InstanceState>> =
            self.instances.read().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    pub(crate) fn record_event(
        &self,
        instance: &str,
        junction: &str,
        kind: &str,
        detail: String,
    ) {
        self.events.lock().push(Event {
            at: self.clock().now(),
            instance: instance.to_string(),
            junction: junction.to_string(),
            kind: kind.to_string(),
            detail,
        });
    }

    /// Liveness, the `S(ι)` predicate — registry fast path only (knows
    /// `stop`/`crash` immediately, blind to partitions).
    pub(crate) fn is_live(&self, instance: &str) -> bool {
        Sym::find(instance).is_some_and(|i| self.is_live_id(i))
    }

    fn is_live_id(&self, instance: Sym) -> bool {
        self.instances
            .read()
            .get(instance)
            .is_some_and(|i| i.status() == InstanceStatus::Running)
    }

    /// Observer-relative liveness: the registry fast path, narrowed by
    /// the heartbeat failure detector when enabled. A partitioned-away
    /// peer is `Running` in the registry but suspected by observers that
    /// stopped hearing its pings, so `S(ι)` turns false *for them*.
    pub(crate) fn is_live_from(&self, observer: &str, instance: &str) -> bool {
        self.is_live(instance) && !self.hb.suspects(observer, instance)
    }

    /// Read a remote proposition (used by `verify γ@P` and guards). This
    /// is an observer-only path: junction code cannot *read* remote
    /// tables, but safety checks may (§6, ternary logic).
    pub(crate) fn remote_prop(&self, id: &JunctionId, key: KeyId) -> Ternary {
        let Some(inst) = self.instances.read().get(id.instance).cloned() else {
            return Ternary::Unknown;
        };
        if inst.status() != InstanceStatus::Running {
            return Ternary::Unknown;
        }
        let Some(jrt) = inst.junction_id(id.junction) else {
            return Ternary::Unknown;
        };
        let mut table = jrt.cell.table();
        // Observers see the state as of the junction's next scheduling:
        // when it is idle, pending updates are already destined to apply.
        if !table.is_running() {
            table.flush_pending();
        }
        match table.prop(key) {
            Some(b) => Ternary::from_bool(b),
            None => Ternary::Unknown,
        }
    }

    /// Send an update to a junction, checking target liveness. The
    /// optional deadline is the sending activation's `otherwise[t]`
    /// budget (or an explicit caller deadline): the overload layer
    /// sheds the update once it expires, when shedding is enabled.
    pub(crate) fn send(
        &self,
        from_instance: Sym,
        to: &JunctionId,
        update: Update,
        deadline: Option<Instant>,
    ) -> Result<(), Failure> {
        if !self.is_live_id(to.instance) {
            return Err(Failure::TargetDown { target: to.qualified() });
        }
        self.network
            .send_with_deadline(from_instance, to, update, deadline)
            .map_err(|e| match e {
                SendError::TargetDown => Failure::TargetDown { target: to.qualified() },
                SendError::Transport(m) => {
                    Failure::Internal(format!("send to {}: {m}", to.qualified()))
                }
                retryable => Failure::Link { target: to.qualified(), error: retryable },
            })
    }

    /// The sole junction of a bare instance reference.
    pub(crate) fn sole_junction(&self, instance: Sym) -> Result<JunctionId, Failure> {
        let reg = self.instances.read();
        let inst = reg
            .get(instance)
            .ok_or_else(|| Failure::Unresolved(format!("instance `{instance}`")))?;
        match &inst.junctions[..] {
            [only] => Ok(only.cell.id),
            many => Err(Failure::Unresolved(format!(
                "`{instance}` names an instance with {} junctions; qualify the junction",
                many.len()
            ))),
        }
    }

    /// Evaluate a junction's guard (flushing pending updates first, since
    /// updates apply at scheduling). Remote atoms are resolved before the
    /// local table lock is taken, so cross-junction guards cannot
    /// deadlock (see `interp`).
    pub(crate) fn guard_ready(&self, inst: &InstanceState, jrt: &JunctionRt) -> bool {
        let Some(guard) = &jrt.lowered.guard else {
            return true;
        };
        jrt.cell.table().flush_pending();
        crate::interp::guard_truth(self, inst, jrt, guard) == Ternary::True
    }

    /// Start an instance: bind junction parameters, flip status, wake.
    pub(crate) fn start_instance(
        &self,
        name: &str,
        junction_args: &[(Option<String>, Vec<Arg>)],
        env: &HashMap<String, Value>,
    ) -> Result<(), Failure> {
        let inst = self.instance(name)?;
        let prev = inst.status();
        if prev == InstanceStatus::Running {
            return Err(Failure::StartStop(format!("instance `{name}` already running")));
        }
        // Bind parameter environments per junction.
        for (jname, args) in junction_args {
            let jrt = match jname {
                Some(j) => inst.junction(j).ok_or_else(|| {
                    Failure::Unresolved(format!("junction `{name}::{j}`"))
                })?,
                None => {
                    if inst.junctions.len() == 1 {
                        &inst.junctions[0]
                    } else {
                        return Err(Failure::Unresolved(format!(
                            "start {name}: junction name required"
                        )));
                    }
                }
            };
            if jrt.lowered.params.len() != args.len() {
                return Err(Failure::Internal(format!(
                    "start {name} {}: arity mismatch",
                    jrt.name()
                )));
            }
            let mut bound = HashMap::new();
            for (p, a) in jrt.lowered.params.iter().zip(args.iter()) {
                bound.insert(p.clone(), self.eval_arg(a, env)?);
            }
            jrt.cell.bind_env(bound.clone());
            // Declare propositions whose name or index is a parameter
            // (e.g. `init prop ¬Running[me::junction]` passed as a
            // `self` parameter, or Fig. 16's `Watch(tgt, prop)`): their
            // table keys only become known once the environment binds.
            {
                let mut table = jrt.cell.table();
                for (prop, init) in &jrt.lowered.late_props {
                    let resolve = |n: &NameRef| -> Option<String> {
                        match n {
                            NameRef::Lit(s) => Some(s.clone()),
                            NameRef::Var(v) => bound.get(v).map(|val| match val {
                                Value::Target(t) => t.clone(),
                                Value::Str(s) => s.clone(),
                                other => other.to_string(),
                            }),
                        }
                    };
                    let Some(name) = resolve(&prop.name) else { continue };
                    let key = match &prop.index {
                        None => name,
                        Some(ix) => match resolve(ix) {
                            Some(i) => format!("{name}[{i}]"),
                            None => continue,
                        },
                    };
                    if !table.has_prop(&key) {
                        table.declare_prop(key, *init);
                    }
                }
            }
        }
        for jrt in &inst.junctions {
            jrt.rebind();
            jrt.needs_initial.store(true, Ordering::SeqCst);
            *jrt.last_run.lock() = None;
        }
        inst.status.store(InstanceStatus::Running as u8, Ordering::SeqCst);
        inst.app.lock().on_start();
        self.record_event(name, "-", "start", String::new());
        self.wake_all();
        Ok(())
    }

    /// Stop a running instance.
    pub(crate) fn stop_instance(&self, name: &str) -> Result<(), Failure> {
        let inst = self.instance(name)?;
        if inst.status() != InstanceStatus::Running {
            return Err(Failure::StartStop(format!("instance `{name}` is not running")));
        }
        inst.status.store(InstanceStatus::Stopped as u8, Ordering::SeqCst);
        inst.app.lock().on_stop();
        self.record_event(name, "-", "stop", String::new());
        self.wake_all();
        Ok(())
    }

    pub(crate) fn wake_all(&self) {
        for inst in self.all_instances() {
            inst.wake();
        }
    }

    /// Evaluate a `start`/call argument against an environment.
    pub(crate) fn eval_arg(
        &self,
        arg: &Arg,
        env: &HashMap<String, Value>,
    ) -> Result<Value, Failure> {
        Ok(match arg {
            Arg::Value(v) => v.clone(),
            Arg::Name(n) => match n {
                NameRef::Var(v) | NameRef::Lit(v) => match env.get(v) {
                    Some(val) => val.clone(),
                    None if self.instances.read().get_named(v).is_some() => {
                        Value::Target(v.clone())
                    }
                    None => return Err(Failure::Unresolved(format!("argument `{v}`"))),
                },
            },
            Arg::Junction(j) => Value::Target(match j {
                JRef::Qualified { instance, junction } => {
                    let i = match instance.as_lit() {
                        Some(s) => s.to_string(),
                        None => match env.get(instance.raw()) {
                            Some(Value::Target(t)) => t.clone(),
                            _ => {
                                return Err(Failure::Unresolved(format!(
                                    "instance variable `{}`",
                                    instance.raw()
                                )))
                            }
                        },
                    };
                    format!("{i}::{junction}")
                }
                JRef::Bare(n) => match n.as_lit() {
                    Some(s) => s.to_string(),
                    None => match env.get(n.raw()) {
                        Some(Value::Target(t)) => t.clone(),
                        _ => {
                            return Err(Failure::Unresolved(format!(
                                "junction variable `{}`",
                                n.raw()
                            )))
                        }
                    },
                },
                other => {
                    return Err(Failure::Unresolved(format!(
                        "junction argument `{other}` needs an enclosing junction"
                    )))
                }
            }),
            Arg::SetLit(elems) => Value::Set(elems.clone()),
            Arg::Prop(p) => Value::Str(p.clone()),
            Arg::ScaledTimeout { base, num, den } => {
                let d = env
                    .get(base.raw())
                    .and_then(|v| v.as_duration())
                    .ok_or_else(|| {
                        Failure::Unresolved(format!("timeout parameter `{}`", base.raw()))
                    })?;
                Value::Duration(d * *num / (*den).max(1))
            }
        })
    }

    /// Run one activation of a junction if its guard holds, checked
    /// under the activation lock. `Ok(false)`: not ready, nothing ran.
    pub(crate) fn run_activation(
        &self,
        inst: &InstanceState,
        jrt: &JunctionRt,
        nesting: Nesting,
    ) -> Result<bool, Failure> {
        // One nesting rule under both clocks: a pass may run nested
        // under a blocked `wait` on the same thread — any pass the sim
        // hook picks under virtual time, a held target's pass
        // (`run_held`) on the wall clock. A nested pass must not block
        // on a junction already mid-activation lower on the same stack
        // (that would be self-deadlock) or held by another thread, so
        // "activation busy" counts as "not runnable" for it. Under
        // virtual time every pass may be nested.
        let _act = if nesting == Nesting::Nested || self.clock().is_simulated() {
            match jrt.cell.try_lock_activation() {
                Some(g) => g,
                None => return Ok(false),
            }
        } else {
            jrt.cell.lock_activation()
        };
        if inst.status() != InstanceStatus::Running {
            return Ok(false);
        }
        // A reconfiguration hold quiesces the instance for *all* traffic:
        // inbound sends buffer, and local scheduling (invoke, scheduler
        // threads) defers until resume. Without this, an invoke could run
        // against the post-cut cell while app-level migration is still
        // redistributing state. The flag check keeps the steady state
        // off the global hold lock.
        if self.holds_active.load(Ordering::SeqCst)
            && self.holds.lock().contains_key(&inst.name)
        {
            return Ok(false);
        }
        if !self.guard_ready(inst, jrt) {
            return Ok(false);
        }
        let epoch = {
            let mut table = jrt.cell.table();
            table.begin_activation();
            table.epoch()
        };
        jrt.trace(&self.tracer, epoch, TraceKind::Sched);
        let _frame = (!self.clock().is_simulated()).then(ActivationFrame::open);
        let started = self.clock().now();
        inst.activations.fetch_add(1, Ordering::Relaxed);
        self.m_activations.fetch_add(1, Ordering::Relaxed);
        let handled_before = jrt.handled_failures.load(Ordering::Relaxed);
        let result = {
            let mut retries = 0u32;
            loop {
                let mut ctx = ExecCtx::new(self, inst, jrt);
                match ctx.eval(&jrt.lowered.body) {
                    Ok(crate::error::Flow::Retry) => {
                        if retries < self.retry_limit {
                            retries += 1;
                            continue;
                        }
                        break Err(Failure::RetryExhausted);
                    }
                    Ok(_) => break Ok(()),
                    Err(f) => break Err(f),
                }
            }
        };
        jrt.cell.table().end_activation();
        // One clock reading ends the activation, for both its duration
        // and `last_run`.
        let ended = self.clock().now();
        self.h_activation
            .observe_us(ended.saturating_duration_since(started).as_micros() as u64);
        jrt.trace(&self.tracer, epoch, TraceKind::Unsched { ok: result.is_ok() });
        *jrt.last_run.lock() = Some(ended);
        jrt.cell.nudge();
        // A nested pass's caller signals the scheduler itself, and only
        // if the guard still holds (`run_held`).
        match nesting {
            Nesting::Top => jrt.wake_scheduler(),
            Nesting::Own if jrt.invokers.load(Ordering::SeqCst) > 0 => jrt.sched.signal(),
            Nesting::Own | Nesting::Nested => {}
        }
        self.readers.signal();
        let absorbed = jrt.handled_failures.load(Ordering::Relaxed) != handled_before;
        match result {
            Ok(()) => {
                if absorbed {
                    // Completed only by absorbing failures in `otherwise`
                    // handlers — back off before re-running on the same
                    // (still-faulty) world, but report success.
                    self.arm_failure_backoff(jrt);
                } else {
                    jrt.consec_failures.store(0, Ordering::Relaxed);
                    *jrt.backoff_until.lock() = None;
                }
                Ok(true)
            }
            Err(f) => {
                self.arm_failure_backoff(jrt);
                self.record_event(
                    &inst.name,
                    jrt.name(),
                    "failure",
                    f.to_string(),
                );
                Err(f)
            }
        }
    }

    /// Bump the consecutive-failure count and push the junction's
    /// autonomous-scheduling backoff out exponentially (capped).
    fn arm_failure_backoff(&self, jrt: &JunctionRt) {
        let n = jrt.consec_failures.fetch_add(1, Ordering::Relaxed).min(6);
        let delay = FAILURE_BACKOFF_BASE
            .saturating_mul(1 << n)
            .min(FAILURE_BACKOFF_CAP);
        *jrt.backoff_until.lock() = Some(self.clock().now() + delay);
    }

    /// One scheduler pass over one junction: run it if due. Returns
    /// whether it ran. "When an instance is started, its junctions are
    /// started concurrently" (§6) — each junction has its own scheduler
    /// thread so a blocked `wait` in one junction (e.g. a watchdog's
    /// inactivity window) never starves its siblings.
    pub(crate) fn scheduler_pass(
        &self,
        inst: &InstanceState,
        jrt: &JunctionRt,
        nesting: Nesting,
    ) -> bool {
        jrt.passes.fetch_add(1, Ordering::Relaxed);
        // Failure backoff: a junction whose last autonomous activation
        // failed is not re-scheduled until its backoff elapses.
        if jrt
            .backoff_until
            .lock()
            .is_some_and(|t| self.clock().now() < t)
        {
            return false;
        }
        let due = {
            let policy = *jrt.policy.lock();
            match policy {
                Policy::Startup => jrt.needs_initial.load(Ordering::SeqCst),
                Policy::Auto => true,
                Policy::OnDemand => false,
                Policy::Periodic(iv) => {
                    jrt.needs_initial.load(Ordering::SeqCst)
                        || jrt.last_run.lock().is_none_or(|t| {
                            self.clock().now().saturating_duration_since(t) >= iv
                        })
                }
            }
        };
        // One unlocked look at the guard, so a false one costs no
        // activation lock; `run_activation` decides under the lock.
        if !due || !self.guard_ready(inst, jrt) {
            return false;
        }
        jrt.needs_initial.store(false, Ordering::SeqCst);
        // Failures of autonomous activations are recorded as events; the
        // scheduler keeps going (a failed activation does not kill the
        // instance).
        self.run_activation(inst, jrt, nesting).unwrap_or(false)
    }

    /// Before a `wait` parks on the wall clock, take each scheduler wake
    /// this thread holds and run the woken junction's pass here, nested
    /// under the `wait` — the rule the sim hook follows under virtual
    /// time. A target runs nested only if its body cannot park
    /// (`may_park`, so nesting stays one level deep and it can never
    /// wait on a caller stacked below it), it is running outside a
    /// boot, and its activation lock is free and no reconfiguration
    /// holds it (`run_activation`). Otherwise, or when its guard still
    /// holds after the pass, its scheduler is signalled as the delivery
    /// would have.
    ///
    /// `caller` is the waiting activation's table guard. It comes back
    /// when this thread holds nothing, and the `wait` parks under it;
    /// else it is dropped before any pass runs (a pass may deliver into
    /// that table), and the `wait` re-evaluates its formula.
    ///
    /// A nested pass runs to its end: the caller's `otherwise[t]` bounds
    /// its own `wait`, not the target's host calls, so a target whose
    /// app blocks holds the caller for as long.
    pub(crate) fn run_held<G>(&self, caller: G) -> Option<G> {
        let mut next = take_held(0);
        if next.is_none() {
            return Some(caller);
        }
        drop(caller);
        while let Some((inst, jrt)) = next {
            let ran = !jrt.lowered.may_park
                && inst.status() == InstanceStatus::Running
                && !self.booting.load(Ordering::SeqCst)
                && self.nested_pass(&inst, &jrt);
            if !ran || self.guard_ready(&inst, &jrt) {
                jrt.wake_scheduler();
            }
            next = take_held(0);
        }
        None
    }

    /// A held target's pass, nested. A panic in its body stays the
    /// target's, as it would on its own thread: the activation counts
    /// as failed, and the caller goes on.
    fn nested_pass(&self, inst: &InstanceState, jrt: &JunctionRt) -> bool {
        let pass = AssertUnwindSafe(|| self.scheduler_pass(inst, jrt, Nesting::Nested));
        std::panic::catch_unwind(pass).unwrap_or_else(|_| {
            self.arm_failure_backoff(jrt);
            self.record_event(&inst.name, jrt.name(), "failure", "panicked".to_string());
            false
        })
    }

    pub(crate) fn scheduler_loop(self: Arc<Self>, inst: Arc<InstanceState>, jrt: Arc<JunctionRt>) {
        loop {
            // Read before every check below: a signal that lands after
            // this makes the park at the bottom return at once.
            let seen = jrt.sched.current();
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let status = inst.status();
            if status == InstanceStatus::Retired {
                // Replaced by a live reconfiguration — the new record has
                // its own scheduler threads; this one is done for good.
                return;
            }
            let runnable = status == InstanceStatus::Running && !self.booting.load(Ordering::SeqCst);
            let ran = runnable && self.scheduler_pass(&inst, &jrt, Nesting::Own);
            // Parked until a signal, or until a failure backoff or a
            // period ends: every other input of the guard signals. A
            // pass that ran looks again at once, since the guard may
            // still hold, unless one of those deadlines bars it.
            let deadline = if runnable && jrt.self_scheduling() {
                jrt.next_due(self.clock().now())
            } else {
                None
            };
            if ran && deadline.is_none() {
                continue;
            }
            jrt.sched.park(&mut jrt.sched.lock(), seen, deadline);
        }
    }

    /// One heartbeat round: every running instance pings every other
    /// running instance through the network (so pings experience link
    /// faults). Shared by the wall-clock monitor thread and the sim
    /// executor, which fires rounds as schedulable events.
    pub(crate) fn heartbeat_round(&self) {
        if !self.hb.is_enabled() {
            return;
        }
        let running: Vec<String> = self
            .all_instances()
            .iter()
            .filter(|i| i.status() == InstanceStatus::Running)
            .map(|i| i.name.clone())
            .collect();
        for from in &running {
            // One sender per source, not per ping.
            let from_id = Sym::new(from);
            let sender = csaw_kv::Sender::of(&JunctionId::new(from_id, HB_JUNCTION));
            for to_inst in &running {
                if from == to_inst {
                    continue;
                }
                // Priming happens here, at watch registration — never
                // in the `suspects` read path.
                self.hb.watch(to_inst, from);
                let to = JunctionId::new(to_inst, HB_JUNCTION);
                let ping = Update::assert(HB_JUNCTION, sender);
                let hb = TraceKind::LinkHeartbeat { to: to.instance.as_str() };
                self.tracer.record(from_id.as_str(), "", 0, hb);
                // Loss is the signal: no retry, errors ignored.
                let _ = self.network.send_raw(from_id, &to, ping);
            }
        }
        // Suspicion grows with silence, which no event marks: the round
        // announces it, waking the `S(ι)` readers of every observer whose
        // suspicions it finds changed.
        for observer in self.hb.suspicion_changes() {
            if let Some(inst) = self.get_instance(&observer) {
                inst.wake();
            }
        }
    }
}

/// The C-Saw runtime: build from a compiled program, bind apps, run.
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
    pub(crate) threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    /// Only the handle returned by [`Runtime::new`] shuts the runtime
    /// down on drop. Internal clones (see [`Runtime::handle`]) live on
    /// background threads; if their drop ran `shutdown` they would tear
    /// the runtime down from inside it — and deadlock joining their own
    /// thread.
    pub(crate) primary: bool,
}

impl Runtime {
    /// Build a runtime from a compiled program with default apps
    /// ([`NoopApp`]) everywhere. Scheduler threads start parked.
    pub fn new(compiled: &CompiledProgram, config: RuntimeConfig) -> Runtime {
        let clock = config.clock.clone();
        let tracer = Arc::new(Tracer::with_clock(clock.clone()));
        let metrics = Arc::new(Metrics::new());
        // Build instances & cells.
        let mut instances = Instances::default();
        for ci in &compiled.instances {
            instances.insert(build_instance_state(ci, &tracer, &metrics));
        }

        // The network delivers into cells through a registry shared with
        // the closure (built before RuntimeInner exists). The registry is
        // behind a `RwLock` so a live reconfiguration can swap entries;
        // the hold buffer lets the same closure park updates addressed
        // to an instance that is mid-migration.
        let registry: Registry = Arc::new(RwLock::new(instances));
        let reg2 = Arc::clone(&registry);
        let holds: HoldBuffer = Arc::new(Mutex::new(HashMap::new()));
        let holds2 = Arc::clone(&holds);
        let holds_active = Arc::new(AtomicBool::new(false));
        let holds_active2 = Arc::clone(&holds_active);
        let inflight = Arc::new(AtomicU64::new(0));
        let inflight2 = Arc::clone(&inflight);
        let hb = Arc::new(HeartbeatState::new(clock.clone()));
        let hb2 = Arc::clone(&hb);
        let readers = Arc::new(RemoteReaders::default());
        readers.rebuild(&registry.read());
        let readers2 = Arc::clone(&readers);
        let deliver: DeliverFn = Arc::new(move |to: &JunctionId, update: Update| {
            // Heartbeat pings feed the failure detector and stop here —
            // `__hb` is not a real junction. They bypass the hold buffer
            // so a quiesced instance is not spuriously suspected.
            if to.junction == HB_JUNCTION {
                if let Some(inst) = reg2.read().get(to.instance) {
                    if inst.status() == InstanceStatus::Running {
                        hb2.record(&to.instance, &update.from.instance);
                    }
                }
                return;
            }
            // Fast path — no reconfiguration in progress: deliver
            // without touching the hold lock, so steady-state traffic is
            // never serialized runtime-wide. The in-flight counter is
            // the executor's fence: it raises `holds_active`, then waits
            // for the counter to drain, so a delivery that read the flag
            // as false cannot land after a table export.
            if !holds_active2.load(Ordering::SeqCst) {
                inflight2.fetch_add(1, Ordering::SeqCst);
                if !holds_active2.load(Ordering::SeqCst) {
                    if let Some(inst) = reg2.read().get(to.instance) {
                        if inst.status() == InstanceStatus::Running {
                            if let Some(jrt) = inst.junction_id(to.junction) {
                                jrt.deliver(inst, update, &readers2);
                            }
                        }
                    }
                    inflight2.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                // Flag flipped between the two loads: back out and take
                // the slow path.
                inflight2.fetch_sub(1, Ordering::SeqCst);
            }
            // Slow path — a reconfiguration holds some instance. The
            // hold lock is kept across the delivery itself: once the
            // executor has taken it and inserted a hold, no in-flight
            // send can still be between the check and the old cell.
            let mut held = holds2.lock();
            if let Some(buf) = held.get_mut(to.instance.as_str()) {
                buf.push((*to, update));
                return;
            }
            if let Some(inst) = reg2.read().get(to.instance) {
                if inst.status() == InstanceStatus::Running {
                    if let Some(jrt) = inst.junction_id(to.junction) {
                        jrt.deliver(inst, update, &readers2);
                    }
                }
            }
        });
        let mut network =
            Network::with_telemetry(deliver, Arc::clone(&tracer), &metrics, clock.clone());
        network.set_default_link(config.default_link);
        network.set_overload(config.overload);
        // Mailbox probe for the overload layer's mailbox bound: depth
        // of the target junction's pending-update queue. Registry read
        // lock only; the table itself is try-locked (see
        // `Cell::try_pending_len`), so the probe can never deadlock a
        // self-send.
        let reg3 = Arc::clone(&registry);
        network.set_mailbox_probe(Arc::new(move |to: &JunctionId| {
            let reg = reg3.read();
            let inst = reg.get(to.instance)?;
            let jrt = inst.junction_id(to.junction)?;
            jrt.cell.try_pending_len()
        }));

        let inner = Arc::new(RuntimeInner {
            instances: registry,
            holds,
            holds_active,
            deliveries_inflight: inflight,
            reconfig_lock: Mutex::new(()),
            epoch_chain: Mutex::new(vec![Arc::new(compiled.clone())]),
            network,
            config,
            retry_limit: compiled.retry_limit,
            events: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            booting: AtomicBool::new(false),
            hb,
            readers,
            m_activations: metrics.counter("activations_total"),
            h_activation: metrics.histogram("activation_duration"),
            tracer,
            metrics,
            main: compiled.program.main.clone(),
            supervisors: Mutex::new(Vec::new()),
            services: Mutex::new(Vec::new()),
        });

        // Spawn one scheduler thread per junction: the junctions of an
        // instance execute concurrently (§6). Under a simulated clock
        // there are no threads at all — the sim executor owns every
        // junction step and runs them as schedulable events.
        let mut threads = Vec::new();
        if !inner.clock().is_simulated() {
            for inst in inner.all_instances() {
                threads.extend(spawn_schedulers(&inner, &inst));
            }
        }
        Runtime { inner, threads: Arc::new(Mutex::new(threads)), primary: true }
    }

    /// A second handle onto the same runtime, for background services
    /// (the supervisor thread) that must call `&self` methods like
    /// [`Runtime::reconfigure`] without borrowing the original. Crate
    /// internal: the clone is non-primary — dropping it never shuts the
    /// runtime down.
    pub(crate) fn handle(&self) -> Runtime {
        Runtime {
            inner: Arc::clone(&self.inner),
            threads: Arc::clone(&self.threads),
            primary: false,
        }
    }

    /// Bind an application to an instance (before `run_main`).
    pub fn bind_app(&self, instance: &str, app: Box<dyn InstanceApp>) {
        if let Some(inst) = self.inner.get_instance(instance) {
            *inst.app.lock() = app;
        }
    }

    /// Override the scheduling policy of a junction.
    pub fn set_policy(&self, instance: &str, junction: &str, policy: Policy) {
        if let Some(inst) = self.inner.get_instance(instance) {
            if let Some(jrt) = inst.junction(junction) {
                *jrt.policy.lock() = policy;
                jrt.sched.signal();
            }
        }
    }

    /// Configure the link between two instances.
    pub fn set_link(&self, from: &str, to: &str, kind: LinkKind) {
        self.inner.network.set_link(from, to, kind);
    }

    /// Install (or replace) a fault plan on the directed link
    /// `from → to`. Windows in the plan are relative to this call.
    pub fn set_fault_plan(&self, from: &str, to: &str, plan: FaultPlan) {
        self.inner.network.set_fault_plan(from, to, plan);
    }

    /// Remove the fault plan on `from → to` (the link heals).
    pub fn clear_fault_plan(&self, from: &str, to: &str) {
        self.inner.network.clear_fault_plan(from, to);
    }

    /// Replace the reliability-layer retry policy
    /// ([`RetryPolicy::disabled`] switches retry off for ablations).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.inner.network.set_retry_policy(policy);
    }

    /// Toggle receiver-side sequence dedup (ablations only).
    pub fn set_dedup(&self, enabled: bool) {
        self.inner.network.set_dedup(enabled);
    }

    /// Snapshot the network's reliability/fault counters.
    pub fn link_stats(&self) -> LinkStats {
        self.inner.network.stats()
    }

    /// Install (or replace) the overload-control configuration: queue
    /// bounds, ingress deadline, expired-work shedding, and the
    /// control-plane priority lane. Takes effect on the next send.
    pub fn set_overload(&self, cfg: OverloadConfig) {
        self.inner.network.set_overload(cfg);
    }

    /// The currently installed overload configuration.
    pub fn overload_config(&self) -> OverloadConfig {
        self.inner.network.overload_config()
    }

    /// Replace the per-route retry-budget token bucket
    /// ([`RetryBudgetPolicy::disabled`] reverts to unbudgeted retries).
    pub fn set_retry_budget(&self, budget: RetryBudgetPolicy) {
        self.inner.network.set_retry_budget(budget);
    }

    /// Snapshot the overload-layer counters (sheds, queue-full refusals,
    /// deadline expiries, suppressed retries).
    pub fn overload_stats(&self) -> OverloadStats {
        self.inner.network.overload_stats()
    }

    /// Refresh the overload gauges in the metrics registry:
    /// `link_inflight` (scheduled deliveries not yet landed, summed
    /// over routes) and `mailbox_depth` (deepest junction mailbox).
    /// Cheap enough to call from a poll loop; the autoscaler's
    /// watermark sampling is the intended caller.
    pub fn refresh_overload_gauges(&self) {
        self.inner.network.refresh_overload_gauges();
        let mut deepest = 0usize;
        {
            let reg = self.inner.instances.read();
            for inst in reg.values() {
                for jrt in &inst.junctions {
                    if let Some(len) = jrt.cell.try_pending_len() {
                        deepest = deepest.max(len);
                    }
                }
            }
        }
        self.inner.metrics.gauge("mailbox_depth").set(deepest as f64);
    }

    /// Observer-relative `S(ι)`: registry liveness narrowed by heartbeat
    /// suspicion (observer/test path; formula evaluation uses the same
    /// predicate).
    pub fn is_live_from(&self, observer: &str, instance: &str) -> bool {
        self.inner.is_live_from(observer, instance)
    }

    /// Enable the heartbeat failure detector: a monitor pings every
    /// ordered pair of running instances through the network (so pings
    /// experience link faults), and `S(ι)` becomes observer-relative
    /// (see [`Runtime::is_live_from`]). A runtime has one monitor:
    /// calling again only replaces the config (the interval takes effect
    /// from the next round) and resets suspicion clocks.
    pub fn enable_heartbeats(&self, config: HeartbeatConfig) {
        if self.inner.hb.enable(config) {
            return;
        }
        // Under a simulated clock the sim executor notices the enabled
        // detector and fires `heartbeat_round` as a schedulable event.
        let inner = Arc::clone(&self.inner);
        let clock = inner.clock().clone();
        let wake = Arc::new(EventCount::new((), inner.wake_signals()));
        let mut next_tick = clock.now();
        let round = move || {
            inner.heartbeat_round();
            // Drift-free cadence: each tick is scheduled off the
            // previous *target*, not off "now after a round", so a slow
            // round (large topology, contended links) does not stretch
            // the ping period and breed false suspicion. A round that
            // overran a whole interval re-anchors instead of firing a
            // burst of catch-up rounds.
            next_tick = (next_tick + inner.hb.config().interval).max(clock.now());
            Some(next_tick)
        };
        self.spawn_service("csaw-heartbeat", &wake, || false, round);
    }

    /// Start a background service loop ([`crate::eventcount::spawn_service`])
    /// that stops with the runtime or once `stop` holds: `shutdown`
    /// signals `wake` and joins the thread. Under a simulated clock no
    /// thread starts.
    pub(crate) fn spawn_service(
        &self,
        name: &str,
        wake: &Arc<EventCount<()>>,
        stop: impl Fn() -> bool + Send + 'static,
        step: impl FnMut() -> Option<Instant> + Send + 'static,
    ) {
        {
            let mut services = self.inner.services.lock();
            // A count only this list holds belongs to a loop that ended.
            services.retain(|w| Arc::strong_count(w) > 1);
            services.push(Arc::clone(wake));
        }
        let inner = Arc::clone(&self.inner);
        let stop = move || inner.shutdown.load(Ordering::SeqCst) || stop();
        let handle = spawn_service(self.inner.clock(), name, Arc::clone(wake), stop, step);
        self.adopt(handle);
    }

    /// Keep `handles` for `shutdown` to join, joining now the threads
    /// that already ended (retired schedulers, stopped services), so the
    /// list does not grow with every reconfiguration.
    pub(crate) fn adopt(&self, handles: impl IntoIterator<Item = std::thread::JoinHandle<()>>) {
        let mut threads = self.threads.lock();
        for ended in threads.extract_if(.., |t| t.is_finished()) {
            ended.join().ok();
        }
        threads.extend(handles);
    }

    /// Run `main` with the given parameter values (bound positionally).
    pub fn run_main(&self, args: Vec<Value>) -> Result<(), Failure> {
        let main = self.inner.main.clone();
        if main.params.len() != args.len() {
            return Err(Failure::Internal(format!(
                "main expects {} arguments, got {}",
                main.params.len(),
                args.len()
            )));
        }
        let env: HashMap<String, Value> = main
            .params
            .iter()
            .map(|p| p.name.clone())
            .zip(args)
            .collect();
        self.inner.booting.store(true, Ordering::SeqCst);
        let r = ExecCtx::run_main(&self.inner, &env, &main.body);
        self.inner.booting.store(false, Ordering::SeqCst);
        self.inner.wake_all();
        r
    }

    /// Synchronously invoke a junction (request-driven scheduling): waits
    /// for the guard, runs the activation on the calling thread.
    pub fn invoke(&self, instance: &str, junction: &str) -> Result<(), Failure> {
        let deadline = self.inner.clock().now() + self.inner.config.invoke_timeout;
        self.invoke_deadline(instance, junction, deadline)
    }

    /// [`Runtime::invoke`] with an explicit deadline.
    pub fn invoke_deadline(
        &self,
        instance: &str,
        junction: &str,
        deadline: Instant,
    ) -> Result<(), Failure> {
        let inst = self.inner.instance(instance)?;
        let jrt = inst
            .junction(junction)
            .ok_or_else(|| Failure::Unresolved(format!("junction `{instance}::{junction}`")))?
            .clone();
        // Counted as waiting from the first false guard on, so whatever
        // can move the guard signals `sched` for this invoke too.
        let mut waiting = None;
        loop {
            let seen = jrt.sched.current();
            if inst.status() != InstanceStatus::Running {
                return Err(Failure::TargetDown { target: instance.to_string() });
            }
            if self.inner.run_activation(&inst, &jrt, Nesting::Top)? {
                return Ok(());
            }
            if self.inner.clock().now() >= deadline {
                return Err(Failure::Timeout {
                    context: format!("invoke {instance}::{junction}"),
                });
            }
            if self.inner.clock().is_simulated() {
                // One unit of sim progress per guard re-check: a fixed
                // 1ms poll would burn a schedule step per virtual
                // millisecond even when nothing is due before `deadline`.
                self.inner.clock().block_until(deadline);
            } else if waiting.is_none() {
                // Registered first, then the guard is looked at again:
                // no signal after that look is lost.
                waiting = Some(WaitingInvoke::register(&jrt));
            } else {
                jrt.sched.park(&mut jrt.sched.lock(), seen, Some(deadline));
            }
        }
    }

    /// Current status of an instance.
    pub fn status(&self, instance: &str) -> Option<InstanceStatus> {
        self.inner.get_instance(instance).map(|i| i.status())
    }

    /// Start an instance from outside the DSL (test/driver convenience;
    /// arguments bind positionally to the sole junction).
    pub fn start(&self, instance: &str, args: Vec<(Option<String>, Vec<Arg>)>) -> Result<(), Failure> {
        self.inner.start_instance(instance, &args, &HashMap::new())
    }

    /// Stop an instance from outside the DSL.
    pub fn stop(&self, instance: &str) -> Result<(), Failure> {
        self.inner.stop_instance(instance)
    }

    /// Names of every registered instance, sorted. Schedule artifacts
    /// pin this set so a replay against a different program fails
    /// loudly instead of silently diverging.
    pub fn instance_names(&self) -> Vec<String> {
        self.inner
            .all_instances()
            .iter()
            .map(|i| i.name.clone())
            .collect()
    }

    /// Fault injection: crash an instance. Sends to it fail, its
    /// scheduler parks, its app is notified. Idempotent and race-safe:
    /// the Running → Crashed transition is a compare-exchange, so of any
    /// number of concurrent `crash` calls exactly one performs the app
    /// callback and event/trace records, and crashing an instance that
    /// is not running (already crashed, stopped, mid-restart) is a
    /// no-op rather than stomping the registry status.
    pub fn crash(&self, instance: &str) {
        if let Some(inst) = self.inner.get_instance(instance) {
            if inst
                .status
                .compare_exchange(
                    InstanceStatus::Running as u8,
                    InstanceStatus::Crashed as u8,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                return;
            }
            inst.app.lock().on_stop();
            self.inner.record_event(instance, "-", "crash", String::new());
            self.inner.tracer.record(inst.id.as_str(), "-", 0, TraceKind::Crash);
            self.inner.wake_all();
        }
    }

    /// Restart a crashed/stopped instance, preserving its bound
    /// parameters (checkpoint-restart experiments). Idempotent and
    /// race-safe against a concurrent supervisor repair: restarting an
    /// already-running instance is `Ok` (someone else won the race and
    /// the desired state holds), of several concurrent restarts exactly
    /// one (the CAS winner) runs the side effects, and only a retired
    /// instance — gone from the topology for good — is an error.
    pub fn restart(&self, instance: &str) -> Result<(), Failure> {
        let inst = self.inner.instance(instance)?;
        loop {
            let cur = inst.status();
            match cur {
                InstanceStatus::Running => return Ok(()),
                InstanceStatus::Retired => {
                    return Err(Failure::StartStop(format!("`{instance}` is retired")))
                }
                _ => {}
            }
            if inst
                .status
                .compare_exchange(
                    cur as u8,
                    InstanceStatus::Running as u8,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break;
            }
            // Lost the race — somebody crashed/stopped/restarted it
            // between our read and the CAS. Re-read and re-decide.
        }
        for jrt in &inst.junctions {
            jrt.needs_initial.store(true, Ordering::SeqCst);
        }
        inst.app.lock().on_start();
        // Re-prime the failure detector: every observer that accumulated
        // silence while the instance was down grants it a fresh suspicion
        // window, instead of keeping it suspected until the next ping.
        self.inner.hb.reprime(instance);
        // Lift the supervisor fence, if any: a restart is an explicit
        // re-admission, so the instance's sends resume at the current
        // fence floor instead of being rejected as stale.
        self.inner.network.admit_instance(instance);
        self.inner.record_event(instance, "-", "restart", String::new());
        self.inner.tracer.record(inst.id.as_str(), "-", 0, TraceKind::Restart);
        self.inner.wake_all();
        Ok(())
    }

    /// Fence an instance out at the current supervisor epoch: raise the
    /// network's fence floor above its stamp so its in-flight and future
    /// sends are rejected until it is re-admitted (by [`Runtime::restart`]
    /// or [`Runtime::admit_instance`]). Returns the new floor. Heartbeat
    /// pings deliberately pass the fence so a fenced instance's liveness
    /// stays observable.
    pub fn fence_instance(&self, instance: &str) -> u64 {
        self.inner.network.fence_instance(instance)
    }

    /// Re-admit a fenced instance: its sends stamp the current floor and
    /// pass the fence again. Returns the epoch its sends now carry.
    pub fn admit_instance(&self, instance: &str) -> u64 {
        self.inner.network.admit_instance(instance)
    }

    /// Whether an instance is currently fenced out.
    pub fn is_fenced(&self, instance: &str) -> bool {
        self.inner.network.is_fenced(instance)
    }

    /// Toggle epoch fencing (ablations: the split-brain test proves the
    /// fence matters by failing with it off). On by default.
    pub fn set_fencing(&self, enabled: bool) {
        self.inner.network.set_fencing(enabled);
    }

    /// The runtime's time source (virtual under deterministic
    /// simulation, wall otherwise).
    pub fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    /// Instances currently held by a reconfiguration or an explicit
    /// hold, sorted by name. A non-empty set after a run settled means
    /// a hold leaked.
    pub fn held_instances(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.holds.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Access an instance's app (e.g. to query a substrate store).
    pub fn app(&self, instance: &str) -> Option<Arc<Mutex<Box<dyn InstanceApp>>>> {
        self.inner.get_instance(instance).map(|i| Arc::clone(&i.app))
    }

    /// Read a proposition of a junction (observer/test path).
    pub fn peek_prop(&self, instance: &str, junction: &str, key: &str) -> Option<bool> {
        let inst = self.inner.get_instance(instance)?;
        let jrt = inst.junction(junction)?;
        let mut t = jrt.cell.table();
        if !t.is_running() {
            t.flush_pending();
        }
        t.prop(key)
    }

    /// Read a datum of a junction (observer/test path).
    pub fn peek_data(&self, instance: &str, junction: &str, key: &str) -> Option<Value> {
        let inst = self.inner.get_instance(instance)?;
        let jrt = inst.junction(junction)?;
        let mut t = jrt.cell.table();
        if !t.is_running() {
            t.flush_pending();
        }
        t.data(key).cloned()
    }

    /// Export a junction's whole table, keys as texts (observer/test
    /// path; see [`Table::export_state`]).
    pub fn export_table(&self, instance: &str, junction: &str) -> Option<csaw_kv::TableState> {
        let inst = self.inner.get_instance(instance)?;
        let jrt = inst.junction(junction)?;
        let state = jrt.cell.table().export_state();
        Some(state)
    }

    /// Deliver a raw update to a junction, bypassing the DSL — used by
    /// tests and by external drivers that model clients pushing requests
    /// (the paper's "Req is asserted externally" in Fig. 13).
    pub fn deliver_for_test(&self, instance: &str, junction: &str, update: Update) {
        if let Some(inst) = self.inner.get_instance(instance) {
            if let Some(jrt) = inst.junction(junction) {
                jrt.deliver(&inst, update, &self.inner.readers);
            }
        }
    }

    /// Switch causal trace recording on or off. Off by default: every
    /// instrumentation site gates on a relaxed atomic before building
    /// an event, so a disabled tracer is a branch per site.
    pub fn set_tracing(&self, enabled: bool) {
        self.inner.tracer.set_enabled(enabled);
    }

    /// Drain recorded trace events, sorted by global sequence number.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.tracer.drain()
    }

    /// Drain recorded trace events as JSONL, the file format
    /// ([`crate::trace::parse_jsonl`] reads it back).
    pub fn trace_jsonl(&self) -> String {
        self.inner.tracer.drain_jsonl()
    }

    /// Events evicted because the trace ring overflowed. Non-zero means
    /// a drained trace is an incomplete suffix of the run.
    pub fn trace_dropped(&self) -> u64 {
        self.inner.tracer.dropped()
    }

    /// The runtime's metrics registry (counters + histograms shared
    /// with the network and activation scheduler).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Render the metrics registry as a Prometheus-style text snapshot.
    pub fn metrics_prometheus(&self) -> String {
        self.inner.metrics.render_prometheus()
    }

    /// Drain recorded diagnostic events.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.inner.events.lock())
    }

    /// Total messages sent over the network.
    pub fn messages_sent(&self) -> u64 {
        self.inner.network.msgs_sent.load(Ordering::Relaxed)
    }

    /// Total (modelled) bytes sent over the network.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.network.bytes_sent.load(Ordering::Relaxed)
    }

    /// Count of activations an instance has run.
    pub fn activations(&self, instance: &str) -> u64 {
        self.inner
            .get_instance(instance)
            .map_or(0, |i| i.activations.load(Ordering::Relaxed))
    }

    /// Shut the runtime down: stop schedulers and background threads.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Every service loop — and a supervisor's backoff or verify
        // sleep — re-checks its stop now instead of waiting out its
        // period.
        for wake in self.inner.services.lock().drain(..) {
            wake.signal();
        }
        // Supervisor cores each hold a Runtime handle; dropping them
        // here breaks the Arc cycle back to RuntimeInner.
        self.inner.supervisors.lock().clear();
        self.inner.wake_all();
        self.inner.network.shutdown();
        for t in self.threads.lock().drain(..) {
            t.join().ok();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if self.primary {
            self.shutdown();
        }
    }
}

/// Build a fresh [`InstanceState`] (cells, tables, observers, default
/// policies) from a compiled instance. Used at construction and by the
/// live-reconfiguration executor when it materializes the target
/// program's instances.
pub(crate) fn build_instance_state(
    ci: &csaw_core::program::CompiledInstance,
    tracer: &Arc<Tracer>,
    metrics: &Metrics,
) -> Arc<InstanceState> {
    let wake_signals = metrics.counter("wake_signals_total");
    let mut junctions = Vec::new();
    for jd in &ci.junctions {
        let mut table = Table::new();
        init_table(&mut table, jd);
        let id = JunctionId::new(&ci.name, &jd.name);
        table.set_observer(Arc::new(CellObserver {
            tracer: Arc::clone(tracer),
            instance: id.instance,
            junction: id.junction,
        }));
        let cell = Cell::new(id, table, Arc::clone(&wake_signals));
        let lowered = lower::lower(&ci.name, jd);
        let policy = if lowered.guard.is_some() {
            Policy::Auto
        } else {
            Policy::Startup
        };
        let jrt = Arc::new(JunctionRt {
            bindings: Mutex::new(Bindings::new(&lowered)),
            lowered,
            cell,
            policy: Mutex::new(policy),
            needs_initial: AtomicBool::new(false),
            last_run: Mutex::new(None),
            consec_failures: AtomicU32::new(0),
            backoff_until: Mutex::new(None),
            handled_failures: AtomicU32::new(0),
            sched: EventCount::new((), Arc::clone(&wake_signals)),
            invokers: AtomicU32::new(0),
            passes: metrics.counter(&format!(
                "scheduler_passes_total{{instance=\"{}\",junction=\"{}\"}}",
                ci.name, jd.name
            )),
        });
        jrt.rebind();
        junctions.push(jrt);
    }
    Arc::new(InstanceState {
        name: ci.name.clone(),
        id: Sym::new(&ci.name),
        status: AtomicU8::new(InstanceStatus::NotStarted as u8),
        junctions,
        app: Arc::new(Mutex::new(Box::new(NoopApp) as Box<dyn InstanceApp>)),
        activations: AtomicU64::new(0),
    })
}

/// Spawn one scheduler thread per junction of `inst`, returning the
/// handles (the caller parks them in [`Runtime::threads`]).
pub(crate) fn spawn_schedulers(
    inner: &Arc<RuntimeInner>,
    inst: &Arc<InstanceState>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut threads = Vec::new();
    for jrt in &inst.junctions {
        let rt = Arc::clone(inner);
        let i = Arc::clone(inst);
        let j = Arc::clone(jrt);
        threads.push(
            std::thread::Builder::new()
                .name(format!("csaw-{}-{}", inst.name, jrt.name()))
                .spawn(move || rt.scheduler_loop(i, j))
                .expect("spawn scheduler"),
        );
    }
    threads
}

/// Initialize a table from a compiled junction's declarations.
pub(crate) fn init_table(table: &mut Table, jd: &JunctionDef) {
    use csaw_core::decl::Decl;
    for d in &jd.decls {
        match d {
            Decl::Prop { prop, init } => {
                if let Some(key) = prop.as_key() {
                    table.declare_prop(key, *init);
                }
            }
            Decl::Data { name } => table.declare_data(name.clone()),
            Decl::Subset { name, of } => {
                let base = match of {
                    csaw_core::names::SetRef::Lit(e) => e.clone(),
                    csaw_core::names::SetRef::Named(_) => Vec::new(),
                };
                table.declare_subset(name.clone(), base);
            }
            Decl::Idx { name, of } => {
                let base = match of {
                    csaw_core::names::SetRef::Lit(e) => e.clone(),
                    csaw_core::names::SetRef::Named(_) => Vec::new(),
                };
                table.declare_idx(name.clone(), base);
            }
            Decl::Set { .. } | Decl::Guard(_) | Decl::ForProps { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    //! A held wake is the state between a wall-clock activation's send
    //! and its `wait`, where the activation blocks nowhere. These tests
    //! build it directly: an activation frame open on the test thread and
    //! a queued delivery to `b`. They take `b` out of service, check that
    //! `run_held` signals `b` instead of running its pass, and that `b`
    //! serves the request on its own thread once it is back.

    use std::sync::mpsc::channel;

    use csaw_core::builder::*;
    use csaw_core::decl::Decl;
    use csaw_core::expr::Expr;
    use csaw_core::formula::Formula;
    use csaw_core::program::{InstanceType, LoadConfig, Program};

    use super::*;
    use crate::app::HostCtx;
    use crate::reconfig::{MigrationCtx, ReconfigSpec};

    /// The threads `Serve` ran on.
    type Served = Arc<Mutex<Vec<String>>>;

    struct Probe(Served);

    impl InstanceApp for Probe {
        fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
            if name == "Serve" {
                let thread = std::thread::current().name().unwrap_or("").to_string();
                self.0.lock().push(thread);
            }
            Ok(())
        }
        fn save(&mut self, _key: &str) -> Result<Value, String> {
            Ok(Value::Bool(true))
        }
        fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
            Ok(())
        }
    }

    /// One instance `b` whose junction `j` runs `body` when `Work` holds.
    fn program(body: Expr) -> Program {
        let decls = vec![Decl::prop_false("Work"), Decl::guard(Formula::prop("Work"))];
        ProgramBuilder::new()
            .ty(InstanceType::new(
                "tB",
                vec![JunctionDef::new("j", vec![], decls, body)],
            ))
            .instance("b", "tB")
            .main(vec![], start("b", vec![]))
            .build()
    }

    fn within(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// Boot `b`, hold a wake for it on this thread, `disable` it, run
    /// what is held, then `enable` it.
    fn served_after_resume(
        disable: impl FnOnce(&Arc<Runtime>),
        enable: impl FnOnce(&Arc<Runtime>),
    ) {
        let body = seq([host("Serve"), retract_local("Work")]);
        let cp = csaw_core::compile(program(body), &LoadConfig::new()).expect("compiles");
        let rt = Arc::new(Runtime::new(&cp, RuntimeConfig::default()));
        let served = Served::default();
        rt.bind_app("b", Box::new(Probe(Arc::clone(&served))));
        rt.run_main(vec![]).expect("main runs");
        // Let `b`'s scheduler make the pass the end of `main` woke it
        // for and park; nothing announces the park, so a short grace
        // follows the pass.
        let jrt = Arc::clone(rt.inner.get_instance("b").unwrap().junction("j").unwrap());
        let passes = || jrt.passes.load(Ordering::Relaxed);
        assert!(within(Duration::from_secs(5), || passes() >= 1));
        std::thread::sleep(Duration::from_millis(20));

        let inst = rt.inner.get_instance("b").unwrap();
        let frame = ActivationFrame::open();
        jrt.deliver(&inst, Update::assert("Work", "a::j"), &rt.inner.readers);
        disable(&rt);
        assert!(rt.inner.run_held(()).is_none(), "the wake was held");
        drop(frame);
        assert!(served.lock().is_empty(), "served while out of service");
        enable(&rt);
        assert!(within(Duration::from_secs(5), || served.lock().len() == 1));
        assert_eq!(served.lock()[0], "csaw-b-j");
        rt.shutdown();
    }

    #[test]
    fn wake_inline_skips_a_stopped_target_until_it_restarts() {
        served_after_resume(|rt| rt.stop("b").unwrap(), |rt| rt.restart("b").unwrap());
    }

    #[test]
    fn wake_inline_skips_a_crashed_target_until_it_restarts() {
        served_after_resume(|rt| rt.crash("b"), |rt| rt.restart("b").unwrap());
    }

    /// Every reconfiguration that changes `b` retires its scheduler
    /// thread and starts a fresh one. The retired thread exits; its
    /// handle must not stay behind until shutdown.
    #[test]
    fn service_loop_retired_scheduler_handles_are_dropped() {
        const K: usize = 10;
        let bodies = [
            csaw_core::compile(program(skip()), &LoadConfig::new()).expect("compiles"),
            csaw_core::compile(program(seq([skip(), skip()])), &LoadConfig::new())
                .expect("compiles"),
        ];
        let rt = Runtime::new(&bodies[0], RuntimeConfig::default());
        rt.run_main(vec![]).expect("main runs");
        let live = || {
            let threads = rt.threads.lock();
            threads.iter().filter(|t| !t.is_finished()).count()
        };
        let live_at_start = live();
        for i in 1..=K {
            let target = &bodies[i % 2];
            rt.reconfigure(target, Default::default()).expect("swaps");
            assert!(
                within(Duration::from_secs(5), || live() == live_at_start),
                "the retired scheduler never exited"
            );
        }
        // What is left: the live schedulers, and the last retired one,
        // whose handle goes with the next thread the runtime starts.
        let kept = rt.threads.lock().len();
        assert!(kept <= live_at_start + 1, "{kept} handles after {K} swaps");
        rt.shutdown();
    }

    /// A live reconfiguration that changes `b` holds it from quiescence
    /// to resume; the migration step waits for the test's word.
    #[test]
    fn wake_inline_skips_a_held_target_until_it_resumes() {
        let body = seq([skip(), host("Serve"), retract_local("Work")]);
        let changed = csaw_core::compile(program(body), &LoadConfig::new()).expect("compiles");
        let (migrating_tx, migrating_rx) = channel();
        let (finish_tx, finish_rx) = channel::<()>();
        let reconfig = Mutex::new(None);
        served_after_resume(
            |rt| {
                let rt = Arc::clone(rt);
                *reconfig.lock() = Some(std::thread::spawn(move || {
                    let migrate = Box::new(move |_: &mut MigrationCtx<'_>| {
                        migrating_tx.send(()).unwrap();
                        finish_rx.recv().map_err(|e| e.to_string())
                    });
                    rt.reconfigure(
                        &changed,
                        ReconfigSpec {
                            migrate: Some(migrate),
                            ..Default::default()
                        },
                    )
                    .expect("reconfigures");
                }));
                migrating_rx.recv().unwrap();
            },
            |_| {
                finish_tx.send(()).unwrap();
                reconfig.lock().take().unwrap().join().unwrap();
            },
        );
    }
}
