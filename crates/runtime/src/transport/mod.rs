//! Inter-instance channels.
//!
//! libcompart "provides channel abstractions for communication between
//! instances. Its channels wrap OS-provided IPC, including TCP sockets
//! and pipes" (§3). We provide three link kinds:
//!
//! * [`LinkKind::Direct`] — in-process delivery (the "same VM" setting);
//! * [`LinkKind::Tcp`] — a real loopback TCP socket pair with
//!   length-prefixed frames (OS IPC cost);
//! * [`LinkKind::Sim`] — a simulated link with configurable latency and
//!   bandwidth, standing in for the paper's dedicated 1GbE testbed in the
//!   cURL experiments (see DESIGN.md, substitutions).
//!
//! Delivery order is FIFO per (sender instance, receiver instance) pair
//! for every link kind, matching the paper's "handled in the order that
//! they are received" — unless a [`FaultPlan`](crate::fault::FaultPlan)
//! injects reordering on the link.
//!
//! ## Reliability layer
//!
//! [`Network::send`] is wrapped in a reliability layer (see
//! `crate::fault`): send errors are a typed [`SendError`] split into
//! retryable link faults and fatal transport errors; retryable faults
//! are retried with bounded exponential backoff and jitter; every
//! message carries a per-(sender, receiver) sequence number — the
//! route's conversation *generation* in the high bits, a counter in the
//! low bits — and the receiver drops sequence numbers it has already
//! seen, so a retried or fault-duplicated update never double-applies
//! against the KV table's local-priority update rule (§8). Both halves
//! can be switched off
//! ([`crate::fault::RetryPolicy::disabled`], [`Network::set_dedup`]) for
//! ablations.

mod codec;
mod delay;
mod reliability;
mod tcp;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use csaw_core::intern::Sym;
use csaw_kv::{Update, UpdateKind};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use self::delay::{DelaySink, SimLinkClock, SimScheduler};
pub use self::reliability::SendError;
pub(crate) use self::reliability::UNSEEDED;
use self::reliability::{DeliveryFilter, FenceState, RouteDedup, RouteSeq};
use self::tcp::TcpLink;
use crate::cell::JunctionId;
use crate::clock::Clock;
use crate::fault::{FaultDecision, FaultPlan, LinkFaults, RetryPolicy};
use crate::overload::{OverloadConfig, OverloadState, OverloadStats, RetryBudgetPolicy};
use crate::metrics::{Gauge, Metrics};
use crate::trace::{Name, TraceKind, Tracer};

/// The kind of channel between a pair of instances.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkKind {
    /// In-process immediate delivery.
    Direct,
    /// Simulated link: constant propagation latency plus serialization at
    /// the given bandwidth.
    Sim {
        /// One-way propagation latency.
        latency: Duration,
        /// Bytes per second; 0 = infinite.
        bandwidth: u64,
    },
    /// Real loopback TCP socket pair.
    Tcp,
}

/// Callback invoked when a message arrives at its destination.
pub type DeliverFn = Arc<dyn Fn(&JunctionId, Update) + Send + Sync>;

/// Callback resolving a destination junction to its current mailbox
/// depth (pending undelivered updates). Installed by the runtime; used
/// by the mailbox bound. Must not block: probes that cannot observe
/// the mailbox (e.g. the table lock is held) return `None`.
pub type MailboxProbe = Arc<dyn Fn(&JunctionId) -> Option<usize> + Send + Sync>;

/// All mutable transport state for one directed (sender instance,
/// receiver instance) pair, made once per route; a lookup never
/// allocates. One route lookup serves a whole send: the route travels
/// with the update to admission, whether it is delivered at once, by the
/// delay queue or off the route's TCP link.
///
/// A healthy route is *plain*: a Direct link with no fault plan and
/// nothing in flight in the delay queue. Its `state` word is then 0, and
/// a send reads it once, stamps `seq` with one atomic add and delivers;
/// the receiver's dedup advances its watermark with one compare-and-swap.
/// Only a route that is not plain takes the `faults`, `link` and `fifo`
/// locks. The fence costs one atomic load while no instance has ever been
/// fenced, and the retry-budget bucket is written only while a budget is
/// enabled and the bucket below its cap.
struct RouteState {
    /// Sender instance.
    from: Sym,
    /// Receiver instance.
    to: Sym,
    /// The plain-state word: [`FAULTS`] | [`NOT_DIRECT`] | the count of
    /// scheduled deliveries in flight, in units of [`INFLIGHT_ONE`].
    /// Every change happens under the lock of the state it mirrors and
    /// is a `Release`; the send path's `Acquire` load pairs with it, so
    /// a send that sees the count drop to zero also sees the delivery
    /// handed over before it dropped.
    state: AtomicU64,
    /// Sender-side sequence word and retry-budget bucket.
    seq: RouteSeq,
    /// Installed fault plan, if any.
    faults: Mutex<Option<LinkFaults>>,
    /// Explicit link kind override (None → network default).
    link: Mutex<Option<LinkKind>>,
    /// Serialization clock for finite-bandwidth sim links.
    sim_clock: Mutex<SimLinkClock>,
    /// Latest scheduled arrival, for the FIFO clamp. Its lock also
    /// orders the changes to the in-flight count.
    fifo: Mutex<Option<Instant>>,
    /// Cached TCP connection.
    tcp: Mutex<Option<Arc<TcpLink>>>,
    /// Receiver-side dedup memory: seqs already delivered on this
    /// route.
    seen: RouteDedup,
}

/// Plain-state bit: a fault plan is installed.
const FAULTS: u64 = 1;
/// Plain-state bit: the route's link kind is not Direct.
const NOT_DIRECT: u64 = 2;
/// One scheduled delivery in flight; the count sits above the flags.
const INFLIGHT_ONE: u64 = 4;

impl RouteState {
    fn new(from: Sym, to: Sym, state: u64) -> Arc<RouteState> {
        Arc::new(RouteState {
            from,
            to,
            state: AtomicU64::new(state),
            seq: RouteSeq { word: AtomicU64::new(0), retry_tokens: AtomicU64::new(UNSEEDED) },
            faults: Mutex::new(None),
            link: Mutex::new(None),
            sim_clock: Mutex::new(SimLinkClock::default()),
            fifo: Mutex::new(None),
            tcp: Mutex::new(None),
            seen: RouteDedup::default(),
        })
    }

    /// Set or clear a flag of the plain-state word.
    fn set_flag(&self, flag: u64, on: bool) {
        if on {
            self.state.fetch_or(flag, Ordering::Release);
        } else {
            self.state.fetch_and(!flag, Ordering::Release);
        }
    }

    /// Scheduled deliveries still in flight on this route.
    fn inflight(&self) -> u64 {
        self.state.load(Ordering::Acquire) / INFLIGHT_ONE
    }
}

/// The first chunk of the route table holds this many routes, each
/// further chunk twice as many as the one before.
const FIRST_ROUTES: usize = 16;

/// One chunk of the route table.
type RouteChunk = Box<[OnceLock<Arc<RouteState>>]>;

/// The [`RouteState`]s, found by the pair of instance ids. Append-only,
/// in chunks that never move, so a lookup is a linear scan by ids that
/// takes no lock and clones no handle: the route set is bounded by the
/// program's topology, so comparing ids beats hashing — and a lookup
/// never allocates.
struct Routes {
    chunks: [OnceLock<RouteChunk>; 28],
    /// Routes made so far; appended under `append`. Stored `Release`
    /// after the slot is set, loaded `Acquire` before a scan.
    len: AtomicUsize,
    append: Mutex<()>,
    /// The plain-state word a new route starts with: [`NOT_DIRECT`]
    /// unless the network's default link is Direct.
    fresh_state: AtomicU64,
}

impl Routes {
    fn new() -> Routes {
        Routes {
            chunks: [const { OnceLock::new() }; 28],
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
            fresh_state: AtomicU64::new(0),
        }
    }

    fn slot(&self, i: usize) -> &OnceLock<Arc<RouteState>> {
        let n = i + FIRST_ROUTES;
        let chunk = (n.ilog2() - FIRST_ROUTES.ilog2()) as usize;
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_ROUTES << chunk).map(|_| OnceLock::new()).collect());
        &slots[n - (FIRST_ROUTES << chunk)]
    }

    /// Every route made so far.
    fn iter(&self) -> impl Iterator<Item = &Arc<RouteState>> {
        let len = self.len.load(Ordering::Acquire);
        let chunks = self.chunks.iter().map_while(OnceLock::get);
        chunks.flat_map(|c| c.iter()).take(len).filter_map(OnceLock::get)
    }

    /// Find or create the route `from → to`.
    fn get(&self, from: Sym, to: Sym) -> &Arc<RouteState> {
        let find = || self.iter().find(|r| r.from == from && r.to == to);
        if let Some(r) = find() {
            return r;
        }
        let _append = self.append.lock();
        find().unwrap_or_else(|| {
            let i = self.len.load(Ordering::Relaxed);
            let fresh = self.fresh_state.load(Ordering::Relaxed);
            let r = self.slot(i).get_or_init(|| RouteState::new(from, to, fresh));
            self.len.store(i + 1, Ordering::Release);
            r
        })
    }
}

/// Wire size model for an update: key + payload + fixed header. The
/// names count by their text, as a frame carries them.
pub fn wire_size(u: &Update) -> usize {
    let payload = match &u.kind {
        UpdateKind::Assert | UpdateKind::Retract => 1,
        UpdateKind::Data(v) => v.approx_size(),
    };
    24 + u.key.len() + u.from.as_str().len() + payload
}

/// Counters for the reliability layer and fault injection
/// (observability; all monotonically increasing). A snapshot of the
/// `csaw_link_*_total` counters in the metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages handed to the network (excluding fault-injected copies).
    pub msgs_sent: u64,
    /// Bytes sent under the wire-size model.
    pub bytes_sent: u64,
    /// Messages dropped by fault injection.
    pub drops: u64,
    /// Extra copies delivered by fault injection.
    pub dups: u64,
    /// Send attempts blocked by a partition window.
    pub partitioned: u64,
    /// Retry attempts made by the reliability layer.
    pub retries: u64,
    /// Deliveries suppressed by receiver-side sequence dedup.
    pub deduped: u64,
    /// Direct-link sends delivered synchronously (fast path).
    pub fast_path: u64,
    /// Sends rejected (at send or delivery) by the supervisor epoch
    /// fence: traffic from a fenced-out instance carrying a stale
    /// fence epoch.
    pub fenced: u64,
    /// Deliveries shed by the overload layer (deadline expiry at
    /// dispatch/dequeue, or mailbox overflow at admission).
    pub shed: u64,
    /// Sends refused with [`SendError::QueueFull`] by a queue bound.
    pub queue_full: u64,
    /// Sends refused with [`SendError::DeadlineExpired`] before
    /// dispatch.
    pub deadline_expired: u64,
    /// Retries suppressed by an exhausted per-route retry budget.
    pub retries_suppressed: u64,
}

/// The network connecting instances. Owned by the runtime.
///
/// Every message takes one path: [`Network::send`] stamps it, the retry
/// loop drives attempts, each attempt passes admission and the link's
/// fault dice and is dispatched over the route's link kind, and every
/// arrival — synchronous, delayed or off a socket — passes the
/// fence/dedup filter into the one [`DeliverFn`]. Every counter is a
/// handle into the [`Metrics`] registry: [`LinkStats`] and the
/// Prometheus rendering read the same atomics.
pub struct Network {
    /// Where every arrival goes: `sink.arrive` passes the fence/dedup
    /// filter into the delivery callback, whichever link carried it.
    sink: DelaySink,
    /// Time source for arrivals, fault windows and retry backoff. A
    /// simulated clock also switches the delay queue to executor-pumped
    /// delivery (no delay-queue thread).
    clock: Clock,
    default_link: LinkKind,
    /// All per-route transport state (seqs, generations, fault plans,
    /// link kinds, FIFO/serialization clocks, TCP connections, dedup
    /// memory), one per directed pair.
    routes: Routes,
    sim: Arc<SimScheduler>,
    shutdown: Arc<AtomicBool>,
    /// Reliability-layer retry policy. The send path never clones it:
    /// the retry loop snapshots the (all-`Copy`) fields once, and only
    /// after a first attempt has actually failed.
    retry: Mutex<RetryPolicy>,
    /// Dice for backoff jitter (separate from link fault dice so a
    /// policy change doesn't perturb the fault schedule).
    backoff_dice: Mutex<StdRng>,
    /// Supervisor fencing tokens (shared with the delivery filter);
    /// holds `link_fenced_total`.
    fence: Arc<FenceState>,
    /// Send operations attempted through any entry point, including
    /// fenced/dropped ones (counters and dice still moved). The sim
    /// executor reads the delta around a step to classify the step's
    /// footprint: a step that sent anything — even over the Direct
    /// fast path, which delivers synchronously into the receiver's
    /// cell — touched cross-instance state. Counted only on a simulated
    /// clock, the only one the sim executor runs on.
    send_ops: AtomicU64,
    /// `link_send_total`: messages sent.
    pub msgs_sent: Arc<AtomicU64>,
    /// `link_bytes_total`: bytes sent under the wire-size model.
    pub bytes_sent: Arc<AtomicU64>,
    /// `link_drop_total`.
    drops: Arc<AtomicU64>,
    /// `link_dup_total`.
    dups: Arc<AtomicU64>,
    /// `link_partition_total`.
    partitioned: Arc<AtomicU64>,
    /// `link_retry_total`.
    retries: Arc<AtomicU64>,
    /// `link_direct_fast_total`.
    fast_path: Arc<AtomicU64>,
    /// `link_scheduled_total`: deliveries that went through the delay
    /// queue.
    scheduled: Arc<AtomicU64>,
    /// Trace recorder shared with the runtime (disabled by default).
    tracer: Arc<Tracer>,
    /// Overload-control state (bounds, deadlines, retry budget,
    /// counters), shared with the delivery filter and the delay sink.
    overload: Arc<OverloadState>,
    /// `link_inflight` gauge: scheduled deliveries currently in flight
    /// across all routes (refreshed by
    /// [`Network::refresh_overload_gauges`]).
    g_inflight: Arc<Gauge>,
}

impl Network {
    /// Create a network delivering through `deliver`. The callback is
    /// wrapped in the receiver-side dedup filter: sequenced updates
    /// (seq ≠ 0) whose (sender, receiver, seq) was already delivered are
    /// suppressed, so retries and fault duplicates apply at most once.
    pub fn new(deliver: DeliverFn) -> Network {
        Network::with_telemetry(deliver, Arc::new(Tracer::new()), &Metrics::new(), Clock::wall())
    }

    /// [`Network::new`] with an externally owned trace recorder,
    /// metrics registry and clock (the runtime shares its own with the
    /// network).
    pub fn with_telemetry(
        deliver: DeliverFn,
        tracer: Arc<Tracer>,
        metrics: &Metrics,
        clock: Clock,
    ) -> Network {
        let fence = Arc::new(FenceState::new(metrics));
        let routes = Routes::new();
        let overload = OverloadState::new(metrics);
        let filter = DeliveryFilter {
            dedup_enabled: AtomicBool::new(true).into(),
            deduped: metrics.counter("link_dedup_total"),
            tracer: Arc::clone(&tracer),
            fence: Arc::clone(&fence),
            overload: Arc::clone(&overload),
        };
        let sink = DelaySink { deliver, filter };
        let shutdown = Arc::new(AtomicBool::new(false));
        let sim = SimScheduler::new(metrics.counter("wake_signals_total"));
        // Under virtual time no thread starts: the sim executor pumps
        // due packets as schedulable events.
        sim.spawn(&clock, sink.clone(), Arc::clone(&shutdown));
        Network {
            sink,
            clock,
            default_link: LinkKind::Direct,
            routes,
            sim,
            shutdown,
            retry: Mutex::new(RetryPolicy::default()),
            backoff_dice: Mutex::new(StdRng::seed_from_u64(0xBAC0FF)),
            fence,
            send_ops: AtomicU64::new(0),
            msgs_sent: metrics.counter("link_send_total"),
            bytes_sent: metrics.counter("link_bytes_total"),
            drops: metrics.counter("link_drop_total"),
            dups: metrics.counter("link_dup_total"),
            partitioned: metrics.counter("link_partition_total"),
            retries: metrics.counter("link_retry_total"),
            fast_path: metrics.counter("link_direct_fast_total"),
            scheduled: metrics.counter("link_scheduled_total"),
            overload,
            g_inflight: metrics.gauge("link_inflight"),
            tracer,
        }
    }

    /// The send path's one trace hook: record a link event for
    /// `update → to`, attributed to the update's sender by its interned
    /// texts. `ev` receives the target as a [`Name`] — the ring keeps
    /// the `JunctionId`, and the drain renders `instance::junction` —
    /// and the update; it is only called while tracing is on.
    fn emit<F>(&self, to: &JunctionId, update: &Update, ev: F)
    where
        F: FnOnce(Name, &Update) -> TraceKind<Name>,
    {
        if self.tracer.is_enabled() {
            let (instance, junction) = (update.from.instance.as_str(), update.from.junction());
            self.tracer.record_names(instance, junction, 0, ev(Name::Junction(*to), update));
        }
    }

    /// Install (or replace) the fault plan on the directed link
    /// `from → to`. Runtime-reconfigurable; windows are relative to this
    /// call.
    pub fn set_fault_plan(&self, from: &str, to: &str, plan: FaultPlan) {
        let route = self.routes.get(Sym::new(from), Sym::new(to));
        let mut faults = route.faults.lock();
        *faults = Some(LinkFaults::new(plan, self.clock.now()));
        route.set_flag(FAULTS, true);
    }

    /// Remove the fault plan on `from → to` (the link heals).
    pub fn clear_fault_plan(&self, from: &str, to: &str) {
        let route = self.routes.get(Sym::new(from), Sym::new(to));
        let mut faults = route.faults.lock();
        *faults = None;
        route.set_flag(FAULTS, false);
    }

    /// Snapshot the reliability/fault counters.
    pub fn stats(&self) -> LinkStats {
        let overload = self.overload.stats();
        LinkStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            dups: self.dups.load(Ordering::Relaxed),
            partitioned: self.partitioned.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            deduped: self.sink.filter.deduped.load(Ordering::Relaxed),
            fast_path: self.fast_path.load(Ordering::Relaxed),
            fenced: self.fence.fenced.load(Ordering::Relaxed),
            shed: overload.shed,
            queue_full: overload.queue_full,
            deadline_expired: overload.deadline_expired,
            retries_suppressed: overload.retries_suppressed,
        }
    }

    /// Install the overload-control configuration (bounds, ingress
    /// deadline, shedding, priority lane). Takes effect on the next
    /// send; the default configuration is inert.
    pub fn set_overload(&self, cfg: OverloadConfig) {
        self.overload.set_config(cfg);
    }

    /// The currently installed overload configuration.
    pub fn overload_config(&self) -> OverloadConfig {
        self.overload.config()
    }

    /// Replace the per-route retry-budget policy (token bucket capping
    /// retries as a fraction of fresh sends).
    pub fn set_retry_budget(&self, budget: RetryBudgetPolicy) {
        self.overload.set_budget(budget);
    }

    /// Snapshot the overload-layer counters.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload.stats()
    }

    /// Install the mailbox-depth probe the mailbox bound consults
    /// (wired by the runtime, which owns the junction registry).
    pub fn set_mailbox_probe(&self, probe: MailboxProbe) {
        self.overload.set_probe(probe);
    }

    /// Refresh the `link_inflight` gauge from the routes' in-flight
    /// counts (total scheduled deliveries not yet landed).
    pub fn refresh_overload_gauges(&self) {
        let total: u64 = self.routes.iter().map(|r| r.inflight()).sum();
        self.g_inflight.set(total as f64);
    }

    /// Set the default link kind for unlisted instance pairs.
    pub fn set_default_link(&mut self, kind: LinkKind) {
        self.default_link = kind;
        let fresh = if kind == LinkKind::Direct { 0 } else { NOT_DIRECT };
        self.routes.fresh_state.store(fresh, Ordering::Relaxed);
        for route in self.routes.iter() {
            let link = route.link.lock();
            route.set_flag(NOT_DIRECT, link.unwrap_or(kind) != LinkKind::Direct);
        }
    }

    /// Configure the link between an (ordered) pair of instances.
    ///
    /// Rewiring an **already-connected** route (one that had an explicit
    /// link or has carried sequenced traffic) flushes the route's
    /// per-link state — sender seq counter, conversation generation,
    /// FIFO and serialization clocks, and any cached TCP connection. A
    /// new link is a new conversation, tagged with a fresh generation in
    /// the seq high bits so neither stale dedup memory nor stale
    /// in-flight retries from the old conversation can interfere with it
    /// (see [`Network::reset_route`]).
    pub fn set_link(&self, from: &str, to: &str, kind: LinkKind) {
        let route = self.routes.get(Sym::new(from), Sym::new(to));
        let prev = {
            let mut link = route.link.lock();
            route.set_flag(NOT_DIRECT, kind != LinkKind::Direct);
            link.replace(kind)
        };
        let had_traffic = route.seq.counter() > 0;
        if prev.is_some() || had_traffic {
            self.reset_route(from, to);
        }
    }

    /// Send an update from `from_instance` to junction `to`, through the
    /// reliability layer: the update gets the next per-link sequence
    /// number (retries reuse it, so the receiver dedups them), faults
    /// from the link's [`FaultPlan`] are applied per attempt, and
    /// retryable errors are retried with bounded exponential backoff.
    pub fn send(
        &self,
        from_instance: impl Into<Sym>,
        to: &JunctionId,
        update: Update,
    ) -> Result<(), SendError> {
        self.send_with_deadline(from_instance, to, update, None)
    }

    /// [`send`](Network::send) with an explicit absolute deadline: the
    /// overload layer sheds the update (at dispatch prediction or at
    /// dequeue) once the deadline passes, provided shedding is enabled.
    /// `None` falls back to the configured ingress deadline, if any.
    pub fn send_with_deadline(
        &self,
        from_instance: impl Into<Sym>,
        to: &JunctionId,
        mut update: Update,
        deadline: Option<Instant>,
    ) -> Result<(), SendError> {
        self.note_send_op();
        let deadline = deadline
            .or_else(|| self.overload.ingress_deadline().map(|b| self.clock.now() + b));
        let route = self.routes.get(from_instance.into(), to.instance);
        self.stamp_one(route, &mut update)?;
        self.send_stamped(route, to, update, deadline)
    }

    /// Monotonic count of send operations attempted (any entry point,
    /// any outcome) on a simulated clock. See the `send_ops` field.
    pub(crate) fn send_ops(&self) -> u64 {
        self.send_ops.load(Ordering::Relaxed)
    }

    fn note_send_op(&self) {
        if self.clock.is_simulated() {
            self.send_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`send`](Network::send) each update in order. Every update is
    /// attempted; returns how many were handed to the link, or the
    /// first error if any send ultimately failed.
    pub fn send_batch(
        &self,
        from_instance: impl Into<Sym>,
        to: &JunctionId,
        updates: Vec<Update>,
    ) -> Result<usize, SendError> {
        let from_instance = from_instance.into();
        let n = updates.len();
        let mut first_err = None;
        for u in updates {
            if let Err(e) = self.send(from_instance, to, u) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(n), Err)
    }

    /// Send without sequencing or retry: probes (heartbeats) whose loss
    /// *is* the signal, and ablation runs that bypass reliability.
    pub(crate) fn send_raw(
        &self,
        from_instance: impl Into<Sym>,
        to: &JunctionId,
        update: Update,
    ) -> Result<(), SendError> {
        self.note_send_op();
        let route = self.routes.get(from_instance.into(), to.instance);
        // Control lane: heartbeats/probes ride the priority lane (no
        // queue bounds, no deadline) unless the lane is disabled, in
        // which case they face the same data-plane gates as everything
        // else — the deliberate metastable-failure configuration.
        self.send_attempt(route, to, update, None, false).map_err(|(e, _)| e)
    }

    /// Feed the transport's schedule-relevant mutable state to `h` for
    /// the sim executor's state fingerprint: queued undelivered packets
    /// in delivery order, then per-route sequence/FIFO/dedup/fence
    /// state, times normalized to `origin`. Fault-plan dice positions
    /// are *not* folded in: probabilistic plans degrade revisit-pruning
    /// fidelity, while windowed plans are a pure function of virtual
    /// time.
    pub(crate) fn sim_fingerprint(&self, origin: Instant, h: &mut dyn FnMut(&[u8])) {
        self.sim.fingerprint(origin, h);
        let mut routes: Vec<&Arc<RouteState>> = self.routes.iter().collect();
        routes.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        for r in &routes {
            h(r.from.as_bytes());
            h(r.to.as_bytes());
            h(&r.seq.counter().to_le_bytes());
            h(&r.seq.generation().to_le_bytes());
            h(&r.seq.retry_tokens.load(Ordering::Relaxed).to_le_bytes());
            {
                let latest = r.fifo.lock().map_or(u64::MAX, |t| {
                    t.saturating_duration_since(origin).as_nanos() as u64
                });
                h(&latest.to_le_bytes());
                h(&r.inflight().to_le_bytes());
            }
            {
                let seen = r.seen.digest();
                h(&(seen.len() as u64).to_le_bytes());
                seen.iter().flatten().for_each(|word| h(&word.to_le_bytes()));
            }
            let (stamp, floor) = self.fence.of(r.from);
            h(&stamp.to_le_bytes());
            h(&floor.to_le_bytes());
        }
    }

    /// One delivery attempt: admission, the link's fault dice, then
    /// dispatch over the configured link kind. The update is moved in
    /// and handed back alongside any error, so callers retry without
    /// cloning.
    fn send_attempt(
        &self,
        route: &Arc<RouteState>,
        to: &JunctionId,
        update: Update,
        deadline: Option<Instant>,
        data_plane: bool,
    ) -> Result<(), (SendError, Update)> {
        if self.overload.refuses_send(data_plane, || route.inflight(), to) {
            self.overload.note_queue_full();
            self.emit(to, &update, |to, u| TraceKind::LinkQueueFull { to, seq: u.seq });
            return Err((SendError::QueueFull, update));
        }
        // The one read of the plain-state word: a plain route (0) takes
        // no lock from here to its delivery.
        let state = route.state.load(Ordering::Acquire);
        let decision = match state & FAULTS {
            0 => None,
            _ => route.faults.lock().as_mut().map(|lf| lf.decide(self.clock.now())),
        };
        let decision = decision.unwrap_or(FaultDecision::Deliver {
            delay: Duration::ZERO,
            duplicate: false,
            reorder: false,
        });
        match decision {
            FaultDecision::Partitioned => {
                self.partitioned.fetch_add(1, Ordering::Relaxed);
                self.emit(to, &update, |to, u| TraceKind::LinkPartition { to, seq: u.seq });
                Err((SendError::PartitionedAway, update))
            }
            FaultDecision::Drop => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                self.emit(to, &update, |to, u| TraceKind::LinkDrop { to, seq: u.seq });
                Err((SendError::LinkDropped, update))
            }
            FaultDecision::Deliver { delay, duplicate, reorder } => {
                let bytes = wire_size(&update) as u64;
                self.msgs_sent.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
                self.emit(to, &update, |to, u| TraceKind::LinkSend {
                    to,
                    key: Name::Text(u.key.as_str()),
                    seq: u.seq,
                    bytes,
                });
                // Already expired at the sender: shed before spending
                // link capacity. Placed after the `link_send` trace so
                // conformance always sees a send preceding its shed.
                if self.overload.shed_expired() && deadline.is_some_and(|d| self.clock.now() > d) {
                    return Err(self.shed_send(to, update));
                }
                // The original dispatches first and alone decides the
                // send's outcome; the duplicate copy is best-effort
                // chaos. Were the copy dispatched first, a shed of the
                // original would surface as an error with a live copy
                // still in flight — and an app-level retry of that
                // "failed" send would then double-apply.
                let dup_copy = duplicate.then(|| update.clone());
                self.dispatch(route, state, to, update, delay, !reorder, deadline)?;
                if let Some(copy) = dup_copy {
                    self.dups.fetch_add(1, Ordering::Relaxed);
                    self.emit(to, &copy, |to, u| TraceKind::LinkDup { to, seq: u.seq });
                    // The original may have put a packet in flight.
                    let state = route.state.load(Ordering::Acquire);
                    let _ = self.dispatch(route, state, to, copy, delay, !reorder, deadline);
                }
                Ok(())
            }
        }
    }

    /// Shed an update whose deadline has expired (or is predicted to)
    /// on the send side: counted, traced, refused fatally.
    fn shed_send(&self, to: &JunctionId, update: Update) -> (SendError, Update) {
        self.overload.note_shed();
        self.overload.note_deadline_expired();
        self.emit(to, &update, |to, u| TraceKind::LinkShed { to, seq: u.seq });
        (SendError::DeadlineExpired, update)
    }

    /// Deliver every queued packet due at the clock's current time.
    /// Virtual-clock mode only (on a wall clock the delay queue's
    /// service loop pumps it). Returns how many packets landed.
    pub(crate) fn pump_due(&self) -> usize {
        self.sim.pump_due(self.clock.now(), &self.sink)
    }

    /// Earliest scheduled arrival still queued on any link, if any —
    /// the sim executor folds this into its next-deadline computation.
    pub(crate) fn next_arrival(&self) -> Option<Instant> {
        self.sim.next_due()
    }

    /// Get (or dial) the route's cached TCP link. Its reader delivers
    /// on behalf of this route.
    fn tcp_link(&self, route: &Arc<RouteState>) -> Result<Arc<TcpLink>, SendError> {
        let mut tcp = route.tcp.lock();
        if let Some(l) = tcp.as_ref() {
            return Ok(Arc::clone(l));
        }
        let (sink, on) = (self.sink.clone(), Arc::clone(route));
        let deliver: DeliverFn = Arc::new(move |to: &JunctionId, u| sink.arrive(&on, to, u));
        let l = Arc::new(
            TcpLink::new(deliver, Arc::clone(&self.shutdown))
                .map_err(|e| SendError::Transport(format!("tcp setup: {e}")))?,
        );
        *tcp = Some(Arc::clone(&l));
        Ok(l)
    }

    /// Dispatch over the configured link kind. `extra_delay` (fault
    /// jitter / reorder hold-back) applies to Direct and Sim links; TCP
    /// frames go out immediately (the socket provides its own timing and
    /// is FIFO by construction). With `fifo` set the delay is treated as
    /// link latency — later messages on the same directed pair cannot
    /// overtake; explicit reordering passes `fifo = false`. `state` is
    /// the route's plain-state word as the caller read it.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        route: &Arc<RouteState>,
        state: u64,
        to: &JunctionId,
        update: Update,
        extra_delay: Duration,
        fifo: bool,
        deadline: Option<Instant>,
    ) -> Result<(), (SendError, Update)> {
        let kind = match state & NOT_DIRECT {
            0 => LinkKind::Direct,
            _ => route.link.lock().unwrap_or(self.default_link),
        };
        let arrival = match kind {
            LinkKind::Tcp => {
                let sent = self.tcp_link(route).and_then(|link| {
                    link.send(to, &update)
                        .map_err(|e| SendError::Transport(format!("tcp send: {e}")))
                });
                return sent.map_err(|e| (e, update));
            }
            LinkKind::Direct => {
                // Fast path: no delay and nothing still in flight on
                // this link — deliver synchronously. The in-flight
                // count (not mere clock existence) gates this, so one
                // jittered delivery only detours the link through the
                // scheduler until its backlog drains, not forever.
                if extra_delay.is_zero() && state < INFLIGHT_ONE {
                    self.fast_path.fetch_add(1, Ordering::Relaxed);
                    self.sink.arrive(route, to, update);
                    return Ok(());
                }
                self.clock.now() + extra_delay
            }
            LinkKind::Sim { latency, bandwidth } => {
                // Early shed: if the link's backlog already guarantees
                // the packet arrives past its deadline, refuse it
                // *without* reserving bandwidth. This is what keeps the
                // backlog bounded under a storm — doomed work never
                // joins the queue, so admitted work stays timely.
                let late_after = deadline.filter(|_| self.overload.shed_expired());
                let bytes = wire_size(&update) as u64;
                let transit = latency + extra_delay;
                match route.sim_arrival(self.clock.now(), bytes, bandwidth, transit, late_after) {
                    Some(arrival) => arrival,
                    None => return Err(self.shed_send(to, update)),
                }
            }
        };
        let arrival = if fifo { route.fifo_arrival(arrival) } else { arrival };
        self.scheduled.fetch_add(1, Ordering::Relaxed);
        self.sim.enqueue(arrival, *to, update, Arc::clone(route), fifo, deadline);
        Ok(())
    }

    /// Stop background threads. Dropping the TCP writers closes the
    /// sockets, which unblocks and terminates the reader threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.sim.shutdown();
        self.routes.iter().for_each(|r| drop(r.tcp.lock().take()));
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A network delivering into a channel, for the transport modules'
/// unit tests.
#[cfg(test)]
pub(crate) fn collecting_network(
) -> (Network, std::sync::mpsc::Receiver<(JunctionId, Update)>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let deliver: DeliverFn = Arc::new(move |to: &JunctionId, u: Update| {
        tx.send((*to, u)).ok();
    });
    (Network::new(deliver), rx)
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::Receiver;

    use super::*;
    use csaw_core::value::Value;
    use csaw_kv::Table;

    #[test]
    fn direct_delivers_synchronously() {
        let (net, rx) = collecting_network();
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::assert("Work", "f::junction")).unwrap();
        let (got_to, got) = rx.try_recv().unwrap();
        assert_eq!(got_to, to);
        assert_eq!(got.key, "Work");
    }

    #[test]
    fn tcp_round_trips_frames() {
        let (net, rx) = collecting_network();
        net.set_link("f", "g", LinkKind::Tcp);
        let to = JunctionId::new("g", "serve");
        net.send(
            "f",
            &to,
            Update::data("state", Value::from(vec![7; 300]), "f::c"),
        )
        .unwrap();
        let (got_to, got) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got_to, to);
        assert_eq!(got.key, "state");
        assert_eq!(got.from, "f::c");
        assert_eq!(got.kind, UpdateKind::Data(Value::from(vec![7; 300])));
    }

    /// One update sequence over a Direct and over a TCP link leaves
    /// the same exported table: a frame carries texts, and the reader
    /// interns them to the ids the sender used — a key the receiver
    /// never declared included.
    #[test]
    fn direct_and_tcp_links_leave_equal_exports() {
        let updates = || {
            vec![
                Update::assert("Work", "f::c"),
                Update::data("n", Value::from(vec![3; 100]), "f::c"),
                Update::data("leak-test:undeclared", Value::Int(-4), "f::c"),
                Update::assert("leak-test:Ghost", "f::other"),
                Update::retract("Work", "f::c"),
                Update::data("n", Value::Str("twice".into()), "f::c"),
            ]
        };
        let export_after = |link: LinkKind| {
            let table = Arc::new(Mutex::new(Table::new()));
            table.lock().declare_prop("Work", false);
            table.lock().declare_data("n");
            let into = Arc::clone(&table);
            let net = Network::new(Arc::new(move |_: &JunctionId, u: Update| {
                into.lock().deliver(u);
            }));
            net.set_link("f", "g", link);
            let to = JunctionId::new("g", "serve");
            let sent = updates();
            let n = sent.len();
            net.send_batch("f", &to, sent).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while table.lock().pending_len() < n {
                assert!(Instant::now() < deadline, "{link:?}: the updates did not arrive");
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut table = table.lock();
            table.begin_activation();
            table.end_activation();
            table.export_state()
        };
        let direct = export_after(LinkKind::Direct);
        assert_eq!(direct, export_after(LinkKind::Tcp));
        let undeclared = ("leak-test:undeclared".to_string(), Value::Int(-4));
        assert!(direct.data.contains(&undeclared));
        assert!(direct.props.iter().any(|(k, v)| k == "leak-test:Ghost" && *v));
        assert!(direct.props.iter().any(|(k, v)| k == "Work" && !*v));
    }

    /// A network on a virtual clock: a delayed packet lands only when
    /// [`land`] advances the clock and pumps the delay queue.
    fn virtual_network() -> (Network, Receiver<(JunctionId, Update)>, Clock) {
        let (tx, rx) = std::sync::mpsc::channel();
        let deliver: DeliverFn = Arc::new(move |to: &JunctionId, u: Update| {
            tx.send((*to, u)).ok();
        });
        let clock = Clock::simulated();
        let net =
            Network::with_telemetry(deliver, Arc::new(Tracer::new()), &Metrics::new(), clock.clone());
        (net, rx, clock)
    }

    fn land(net: &Network, clock: &Clock) {
        clock.advance_to(clock.now() + Duration::from_secs(1));
        net.pump_due();
    }

    fn plain(net: &Network) -> bool {
        net.routes.get(Sym::new("f"), Sym::new("g")).state.load(Ordering::Acquire) == 0
    }

    /// (fast_path, scheduled) so far.
    fn paths(net: &Network) -> (u64, u64) {
        (net.stats().fast_path, net.scheduled.load(Ordering::Relaxed))
    }

    const FAST: (u64, u64) = (1, 0);
    const SCHEDULED: (u64, u64) = (0, 1);
    const NEITHER: (u64, u64) = (0, 0);

    /// Send `f → g` and take what lands (pumping the delay queue if
    /// nothing did at once); the (fast_path, scheduled) deltas the send
    /// caused, or its error.
    fn send_one(
        net: &Network,
        rx: &Receiver<(JunctionId, Update)>,
        clock: &Clock,
    ) -> Result<(u64, u64), SendError> {
        let before = paths(net);
        net.send("f", &JunctionId::new("g", "junction"), Update::assert("Work", "f::j"))?;
        let after = paths(net);
        if rx.try_recv().is_err() {
            land(net, clock);
            rx.recv_timeout(Duration::from_secs(5)).expect("the update landed");
        }
        Ok((after.0 - before.0, after.1 - before.1))
    }

    fn jitter() -> FaultPlan {
        FaultPlan::none().with_jitter(Duration::from_millis(5)).with_seed(11)
    }

    #[test]
    fn plain_route_fault_plan_until_cleared() {
        let (net, rx, clock) = virtual_network();
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
        assert!(plain(&net));
        net.set_fault_plan("f", "g", jitter());
        assert!(!plain(&net));
        assert_eq!(send_one(&net, &rx, &clock), Ok(SCHEDULED));
        net.clear_fault_plan("f", "g");
        assert!(plain(&net), "the jittered packet landed and the plan is gone");
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
    }

    #[test]
    fn plain_route_sim_and_tcp_links_until_direct() {
        let sim = LinkKind::Sim { latency: Duration::from_millis(1), bandwidth: 0 };
        for (kind, detour) in [(sim, SCHEDULED), (LinkKind::Tcp, NEITHER)] {
            let (net, rx, clock) = virtual_network();
            assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
            net.set_link("f", "g", kind);
            assert!(!plain(&net), "{kind:?}");
            assert_eq!(send_one(&net, &rx, &clock), Ok(detour), "{kind:?}");
            net.set_link("f", "g", LinkKind::Direct);
            assert!(plain(&net), "{kind:?}");
            assert_eq!(send_one(&net, &rx, &clock), Ok(FAST), "{kind:?}");
        }
    }

    #[test]
    fn plain_route_not_on_a_non_direct_default_link() {
        let (mut net, rx, clock) = virtual_network();
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
        net.set_default_link(LinkKind::Sim { latency: Duration::from_millis(1), bandwidth: 0 });
        assert!(!plain(&net), "an existing route follows the default");
        assert_eq!(send_one(&net, &rx, &clock), Ok(SCHEDULED));
        net.set_default_link(LinkKind::Direct);
        assert!(plain(&net));
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
    }

    #[test]
    fn plain_route_jitter_backlog_until_drained() {
        let (net, rx, clock) = virtual_network();
        let to = JunctionId::new("g", "junction");
        let n = |i| Update::data("n", Value::Int(i), "f::j");
        net.set_fault_plan("f", "g", jitter());
        net.send("f", &to, n(0)).unwrap();
        net.clear_fault_plan("f", "g");
        assert!(!plain(&net), "a jittered delivery is still in flight");
        let before = paths(&net);
        net.send("f", &to, n(1)).unwrap();
        let after = paths(&net);
        assert_eq!((after.0 - before.0, after.1 - before.1), SCHEDULED, "FIFO behind the backlog");
        assert!(rx.try_recv().is_err());
        land(&net, &clock);
        let got: Vec<UpdateKind> = rx.try_iter().map(|(_, u)| u.kind).collect();
        assert_eq!(got, vec![n(0).kind, n(1).kind]);
        assert!(plain(&net), "the backlog drained");
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
    }

    /// An outbox bound does not take an idle route off the fast path:
    /// it reads the in-flight count out of the plain-state word, and
    /// refuses while a delivery is in flight.
    #[test]
    fn plain_route_outbox_bound_counts_what_is_in_flight() {
        let (net, rx, clock) = virtual_network();
        net.set_retry_policy(RetryPolicy::disabled());
        net.set_overload(OverloadConfig { outbox_bound: 1, ..Default::default() });
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
        net.set_fault_plan("f", "g", jitter());
        net.send("f", &JunctionId::new("g", "junction"), Update::assert("Work", "f::j")).unwrap();
        net.clear_fault_plan("f", "g");
        let before = paths(&net);
        assert_eq!(send_one(&net, &rx, &clock), Err(SendError::QueueFull));
        assert_eq!(paths(&net), before, "a refused send is neither fast nor scheduled");
        land(&net, &clock);
        rx.try_recv().expect("the jittered send landed");
        assert!(plain(&net));
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
        net.set_overload(OverloadConfig::default());
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
    }

    /// A retry budget keeps an idle route on the fast path: a fresh send
    /// tops up the bucket (written only while below its cap), and a
    /// lossy spell drains it until it refuses retries.
    #[test]
    fn plain_route_retry_budget_refills_on_the_fast_path() {
        let (net, rx, clock) = virtual_network();
        net.set_retry_budget(RetryBudgetPolicy {
            enabled: true,
            initial_milli: 0,
            per_send_milli: 1000,
            cap_milli: 2000,
        });
        let tokens = || net.routes.get(Sym::new("f"), Sym::new("g")).seq.retry_tokens.load(Ordering::Relaxed);
        for expect in [1000, 2000, 2000] {
            assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
            assert_eq!(tokens(), expect);
        }
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(1.0).with_seed(7));
        assert_eq!(send_one(&net, &rx, &clock), Err(SendError::LinkDropped));
        assert_eq!((net.stats().retries, net.stats().retries_suppressed), (2, 1));
        assert_eq!(tokens(), 0, "two retries paid, then the bucket refused");
        net.clear_fault_plan("f", "g");
        assert!(plain(&net));
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
        assert_eq!(tokens(), 1000);
    }

    #[test]
    fn plain_route_fence_until_admitted() {
        let (net, rx, clock) = virtual_network();
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
        assert!(!net.fence.raised.load(Ordering::Relaxed), "no fence raised yet");
        net.fence_instance("f");
        let before = paths(&net);
        assert_eq!(send_one(&net, &rx, &clock), Err(SendError::Fenced));
        assert_eq!(paths(&net), before, "a fenced send is neither fast nor scheduled");
        net.admit_instance("f");
        assert!(plain(&net));
        assert_eq!(send_one(&net, &rx, &clock), Ok(FAST));
    }

    /// The dedup memory a sim fingerprint sees is the same whether an
    /// in-order run's watermark sits in the atomic or in the memory.
    #[test]
    fn dedup_digest_folds_in_the_published_watermark() {
        let dedup = RouteDedup::default();
        let conv = 5u64 << 40;
        for n in 1..=4 {
            assert!(dedup.insert(conv | n));
        }
        assert_eq!(dedup.digest(), vec![[5, 4, 0, 0]]);
        assert!(!dedup.insert(conv | 3), "below the published watermark");
        assert!(dedup.insert(conv | 6), "out of order: the sparse set");
        assert!(dedup.insert(conv | 5));
        assert!(!dedup.insert(conv | 6));
        assert!(dedup.insert(conv | 7), "in order again");
        assert_eq!(dedup.digest(), vec![[5, 7, 0, 0]]);
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = Update::assert("Work", "f::j");
        let big = Update::data("n", Value::from(vec![0; 10_000]), "f::j");
        assert!(wire_size(&big) > wire_size(&small) + 9000);
    }
}
