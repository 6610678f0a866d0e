//! Causal trace recording.
//!
//! Every junction activation, KV mutation, and link event in a run can
//! be recorded as a structured causal event — carrying the instance,
//! junction, table epoch, table operation sequence, and per-link
//! transport sequence — into a lock-cheap sharded ring buffer owned by
//! the [`Tracer`]. Drained [`TraceEvent`]s feed
//! `csaw-semantics::conformance` as they are, which replays them
//! against the program's §8 event-structure semantics; they render as
//! JSONL (one event per line, a stable flat schema) for files, and
//! [`parse_jsonl`] reads such a file back into the same events. The
//! [`crate::metrics::Metrics`] registry aggregates the same
//! instrumentation points into Prometheus-style counters and log₂
//! histograms.
//!
//! The event vocabulary is declared once: [`TraceKind<S>`] (and the
//! [`TableEvent<S>`] it wraps) is generic over its string payload, and
//! `map` turns one form into another. Record sites build
//! `TraceKind<&'static str>`: every identity and payload is a text the
//! runtime already holds for the life of the process — an interned
//! name (`Sym`, `KeyId`, `Sender`) or a literal. The ring stores those
//! references as they are, as [`Name`]s; a link event's target is the
//! one name with no text of its own, so it is kept as its
//! [`JunctionId`]. [`Tracer::drain`] renders every name once per drain
//! into `TraceEvent<Arc<str>>`.
//!
//! Recording is off by default: every instrumentation site checks one
//! relaxed atomic before building an event, so a disabled tracer costs
//! a branch per site. Enabled, nothing on the record path is copied,
//! hashed or interned, and a warm record allocates nothing. Events
//! stage in a thread-local buffer, and full buffers move into a
//! per-thread shard as whole chunks — so the common per-event cost is
//! a timestamp, one atomic `gsn` bump and a TLS push, with the shard
//! lock paid once per ~128 events. On a 2-vCPU x86-64 box the ledger's
//! `trace.record_ns` reads ~90–105 ns, of which the `rdtsc`, the
//! staging push and the `gsn` bump are ~20, ~20 and ~10 ns
//! (`tests/trace_bench.rs`); tracing on still costs `relay_small` and
//! `cache_hot` over a third of their throughput (`trace.on_ratio`
//! ~0.62 and ~0.64). The `gsn` stays per-event (one atomic RMW): its
//! modification order is consistent with happens-before, which is what
//! lets the conformance checker sort the drained trace and require
//! cross-thread send-before-apply ordering. (A gsn-*range* reservation
//! per flush would stamp an event with a number chosen at flush time,
//! breaking exactly that property.)
//!
//! ## JSONL schema
//!
//! The table is the spec of both [`to_json_line`] and [`parse_jsonl`],
//! which invert each other exactly: the writer emits exactly these
//! fields, in this order; the reader requires every field listed for a
//! line's kind (and the common ones), rejects an unknown `k`, and
//! ignores fields it does not know. Strings escape through
//! [`crate::json`].
//!
//! Common fields: `gsn` (global sequence, total order of recording),
//! `us` (µs since tracer creation), `i` (instance), `j` (junction, may
//! be empty for link events), `ep` (table epoch, 0 when unknown), `k`
//! (kind). Kind-specific fields:
//!
//! | `k`               | fields |
//! |-------------------|--------|
//! | `sched`           | — |
//! | `unsched`         | `ok` |
//! | `kv_local_write`  | `key`, `op` |
//! | `kv_deliver`      | `key`, `from`, `seq`, `op`, `applied`, `run` |
//! | `kv_flush_apply`  | `key`, `from`, `seq`, `op`, `run` |
//! | `kv_shadow_drop`  | `key`, `from`, `seq`, `op`, `lop`, `run` |
//! | `kv_retro_apply`  | `key`, `from`, `seq`, `op` |
//! | `kv_window_open`  | `tok`, `wop`, `keys` |
//! | `kv_window_close` | `tok` |
//! | `kv_keep_drop`    | `key`, `from`, `seq` |
//! | `link_send`       | `to`, `key`, `seq`, `n` (bytes) |
//! | `link_retry`      | `to`, `seq`, `n` (attempt) |
//! | `link_drop`       | `to`, `seq` |
//! | `link_dup`        | `to`, `seq` |
//! | `link_partition`  | `to`, `seq` |
//! | `link_dedup`      | `from`, `seq` |
//! | `link_fenced`     | `from`, `seq` (fence epoch in the high bits) |
//! | `link_shed`       | `to`, `seq` (overload layer shed expired/overflow work) |
//! | `link_queue_full` | `to`, `seq` (send refused by a queue bound) |
//! | `link_hb`         | `to` |
//! | `crash` / `restart` | — |
//! | `reconfig_plan`    | `n` (footprint size: instances to touch) |
//! | `reconfig_quiesce` | `n` (µs the instance was paused, 0 at start) |
//! | `reconfig_migrate` | `n` (snapshot bytes moved for `i`/`j`) |
//! | `reconfig_cut`     | — (registry swapped; epoch boundary for conformance) |
//! | `reconfig_resume`  | `n` (buffered updates flushed into `i`) |
//! | `reconfig_done`    | `n` (total migrated bytes) |
//! | `repair_detect`    | `to` (failure class), `n` (repair id) |
//! | `repair_plan`      | `to` (action), `n` (repair id), `seq` (rung) |
//! | `repair_fence`     | `seq` (fence epoch), `n` (repair id) |
//! | `repair_verify`    | `ok`, `n` (repair id) |
//! | `repair_done`      | `n` (repair id), `seq` (detect→done µs) |
//! | `repair_failed`    | `n` (repair id) |
//! | `repair_escalate`  | `seq` (rung escalated to), `n` (repair id) |

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use csaw_core::names::JunctionId;
use csaw_kv::TableEvent;
use parking_lot::Mutex;

use crate::json;

/// What happened: one activation, KV, link, or lifecycle observation.
/// `S` is the string payload: `&'static str` at record sites, a
/// [`Name`] in the ring, `Arc<str>` once drained.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceKind<S = Arc<str>> {
    /// Junction activation began (epoch freshly advanced).
    Sched,
    /// Junction activation ended.
    Unsched {
        /// Whether the activation completed without failure.
        ok: bool,
    },
    /// A KV-table mutation (see [`csaw_kv::TableEvent`]).
    Kv(TableEvent<S>),
    /// An update was handed to a link (post fault dice, pre delivery).
    LinkSend {
        /// Target junction, `instance::junction`.
        to: S,
        /// Update key.
        key: S,
        /// Per-link sequence number (0 = unsequenced).
        seq: u64,
        /// Modelled wire bytes.
        bytes: u64,
    },
    /// The reliability layer is retrying a send.
    LinkRetry {
        /// Target junction.
        to: S,
        /// Per-link sequence number being retried.
        seq: u64,
        /// Attempt count (1 = first retry).
        attempt: u64,
    },
    /// Fault injection dropped a send attempt.
    LinkDrop {
        /// Target junction.
        to: S,
        /// Per-link sequence number (0 = unsequenced).
        seq: u64,
    },
    /// Fault injection duplicated a delivery.
    LinkDup {
        /// Target junction.
        to: S,
        /// Per-link sequence number.
        seq: u64,
    },
    /// A partition window rejected a send attempt.
    LinkPartition {
        /// Target junction.
        to: S,
        /// Per-link sequence number.
        seq: u64,
    },
    /// Receiver-side dedup suppressed an already-seen sequence number.
    LinkDedup {
        /// Sender instance.
        from: S,
        /// Suppressed sequence number.
        seq: u64,
    },
    /// The supervisor epoch fence rejected a send from a fenced-out
    /// instance (at send time, or at delivery for in-flight traffic).
    LinkFenced {
        /// Fenced sender instance.
        from: S,
        /// Rejected sequence number (fence epoch in the high bits).
        seq: u64,
    },
    /// The overload layer shed a delivery: its deadline expired (at
    /// dispatch prediction or at dequeue) or the target mailbox
    /// overflowed. A shed update is never applied and never acked.
    LinkShed {
        /// Target junction, `instance::junction`.
        to: S,
        /// Per-link sequence number of the shed update.
        seq: u64,
    },
    /// A send was refused by a queue bound (route outbox or target
    /// mailbox full) — backpressure, retryable by the producer.
    LinkQueueFull {
        /// Target junction.
        to: S,
        /// Per-link sequence number of the refused send.
        seq: u64,
    },
    /// A heartbeat ping was sent.
    LinkHeartbeat {
        /// Target instance.
        to: S,
    },
    /// Fault injection crashed the instance.
    Crash,
    /// The instance was restarted.
    Restart,
    /// A live reconfiguration plan was computed (instance field empty).
    ReconfigPlan {
        /// Number of instances in the change footprint.
        footprint: u64,
    },
    /// An affected instance was quiesced (in-flight activations drained,
    /// inbound sends buffered). Recorded twice per instance: once when
    /// the pause begins (`paused_us` 0) and once when it ends.
    ReconfigQuiesce {
        /// Pause duration so far in µs (0 on the opening record).
        paused_us: u64,
    },
    /// One junction table was snapshotted and carried across the cut.
    ReconfigMigrate {
        /// Encoded snapshot size in bytes.
        bytes: u64,
    },
    /// The registry swap: everything before this ran under the old
    /// program, everything after under the new. Cross-epoch conformance
    /// splits the trace here.
    ReconfigCut,
    /// An instance resumed after the cut; its buffered updates flushed.
    ReconfigResume {
        /// Number of buffered updates flushed into the new cells.
        flushed: u64,
    },
    /// The reconfiguration completed (instance field empty).
    ReconfigDone {
        /// Total snapshot bytes migrated across all junctions.
        bytes: u64,
    },
    /// The supervisor confirmed a failure (detect phase). The event's
    /// instance is the failed one; `class` is `crash`, `partition` or
    /// `slow`; `id` ties the whole repair's events together.
    RepairDetect {
        /// Failure class label.
        class: S,
        /// Monotonic repair id.
        id: u64,
    },
    /// The supervisor chose a repair action (plan phase). `action` is
    /// `restart`, `reconfigure` or `quarantine`; `rung` is the
    /// escalation-ladder position it was taken from.
    RepairPlan {
        /// Chosen action label.
        action: S,
        /// Monotonic repair id.
        id: u64,
        /// Escalation rung (0 = first resort).
        rung: u64,
    },
    /// The failed instance was fenced out at the given supervisor epoch
    /// before the repair acted.
    RepairFence {
        /// The fence floor (supervisor epoch) installed.
        epoch: u64,
        /// Monotonic repair id.
        id: u64,
    },
    /// Post-repair verification ran (verify phase).
    RepairVerify {
        /// Whether the system converged back to health.
        ok: bool,
        /// Monotonic repair id.
        id: u64,
    },
    /// The repair loop declared the failure repaired.
    RepairDone {
        /// Monotonic repair id.
        id: u64,
        /// Detect → done wall time in µs (the supervisor's view of the
        /// repair part of MTTR).
        mttr_us: u64,
    },
    /// The repair loop gave up on this failure (retries exhausted or
    /// verification failed); the next detection escalates.
    RepairFailed {
        /// Monotonic repair id.
        id: u64,
    },
    /// Anti-flapping: repeated failures pushed the instance up the
    /// escalation ladder.
    RepairEscalate {
        /// The rung escalated *to*.
        rung: u64,
        /// Monotonic repair id.
        id: u64,
    },
}

impl<S> TraceKind<S> {
    /// The same event with every string payload passed through `f`, in
    /// declaration order.
    pub fn map<T>(self, mut f: impl FnMut(S) -> T) -> TraceKind<T> {
        use TraceKind::*;
        match self {
            Sched => Sched,
            Unsched { ok } => Unsched { ok },
            Kv(ev) => Kv(ev.map(f)),
            LinkSend { to, key, seq, bytes } => LinkSend { to: f(to), key: f(key), seq, bytes },
            LinkRetry { to, seq, attempt } => LinkRetry { to: f(to), seq, attempt },
            LinkDrop { to, seq } => LinkDrop { to: f(to), seq },
            LinkDup { to, seq } => LinkDup { to: f(to), seq },
            LinkPartition { to, seq } => LinkPartition { to: f(to), seq },
            LinkDedup { from, seq } => LinkDedup { from: f(from), seq },
            LinkFenced { from, seq } => LinkFenced { from: f(from), seq },
            LinkShed { to, seq } => LinkShed { to: f(to), seq },
            LinkQueueFull { to, seq } => LinkQueueFull { to: f(to), seq },
            LinkHeartbeat { to } => LinkHeartbeat { to: f(to) },
            Crash => Crash,
            Restart => Restart,
            ReconfigPlan { footprint } => ReconfigPlan { footprint },
            ReconfigQuiesce { paused_us } => ReconfigQuiesce { paused_us },
            ReconfigMigrate { bytes } => ReconfigMigrate { bytes },
            ReconfigCut => ReconfigCut,
            ReconfigResume { flushed } => ReconfigResume { flushed },
            ReconfigDone { bytes } => ReconfigDone { bytes },
            RepairDetect { class, id } => RepairDetect { class: f(class), id },
            RepairPlan { action, id, rung } => RepairPlan { action: f(action), id, rung },
            RepairFence { epoch, id } => RepairFence { epoch, id },
            RepairVerify { ok, id } => RepairVerify { ok, id },
            RepairDone { id, mttr_us } => RepairDone { id, mttr_us },
            RepairFailed { id } => RepairFailed { id },
            RepairEscalate { rung, id } => RepairEscalate { rung, id },
        }
    }
}

/// One recorded event; `S` as in [`TraceKind`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent<S = Arc<str>> {
    /// Global sequence number: the total order in which events were
    /// recorded (assigned by one atomic counter).
    pub gsn: u64,
    /// Microseconds since the tracer was created.
    pub at_us: u64,
    /// Instance the event belongs to (sender instance for link events).
    pub instance: S,
    /// Junction (empty for instance-level events like heartbeats).
    pub junction: S,
    /// Table epoch at the event (0 when not applicable).
    pub epoch: u64,
    /// What happened.
    pub kind: TraceKind<S>,
}

impl<S> TraceEvent<S> {
    /// The same event with its identities and payloads passed through
    /// `f`.
    pub fn map<T>(self, mut f: impl FnMut(S) -> T) -> TraceEvent<T> {
        TraceEvent {
            gsn: self.gsn,
            at_us: self.at_us,
            instance: f(self.instance),
            junction: f(self.junction),
            epoch: self.epoch,
            kind: self.kind.map(f),
        }
    }
}

const SHARDS: usize = 16;

/// How many events a thread stages locally before flushing to its
/// shard in bulk. Small enough that a drained trace is never more than
/// a blink stale, large enough to amortize the shard lock to noise.
const LOCAL_FLUSH: usize = 128;

/// A string payload as the ring holds it: a text that lives for the
/// process, or a link event's target junction, whose
/// `instance::junction` text is rendered at drain. `Copy`, so
/// recording one neither allocates nor hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// An interned name or a literal.
    Text(&'static str),
    /// A target junction.
    Junction(JunctionId),
}

impl Name {
    fn render(self) -> Arc<str> {
        match self {
            Name::Text(text) => Arc::from(text),
            Name::Junction(id) => Arc::from(id.qualified()),
        }
    }
}

/// Thread-local staging buffer for one (thread, tracer) pair. The
/// mutex is uncontended on the hot path (only the owning thread
/// pushes); it exists so [`Tracer::drain`] can *steal* still-buffered
/// events from other threads instead of waiting for their next flush.
struct LocalBuf {
    events: Mutex<Vec<TraceEvent<Name>>>,
}

/// Cycle-counter timestamps for the wall-clock hot path. `at_us` is a
/// display field (ordering is by `gsn`), so the ~30 ns `clock_gettime`
/// per event is pure overhead; on x86-64 we read the invariant TSC
/// (~6 ns) and convert with a once-per-process calibration against the
/// monotonic clock. Virtual clocks never come through here — sim
/// determinism keeps the exact `Clock::now` path.
#[cfg(target_arch = "x86_64")]
mod cycles {
    use std::sync::OnceLock;
    use std::time::Instant;

    #[inline]
    pub fn now() -> u64 {
        // SAFETY: RDTSC is unprivileged and always available on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// The calibration, once taken.
    pub(super) static CAL: OnceLock<u64> = OnceLock::new();

    /// Microseconds per TSC tick as a 32.32 fixed-point multiplier
    /// (`us = ticks * mult >> 32`), calibrated over a 10 ms sleep the
    /// first time a wall-clock tracer is enabled — never inside a
    /// record, which may run under a table lock.
    pub fn us_per_tick_fp32() -> u64 {
        *CAL.get_or_init(|| {
            let t0 = Instant::now();
            let c0 = now();
            std::thread::sleep(std::time::Duration::from_millis(10));
            let ticks = (now() - c0) as f64;
            let us_per_tick = t0.elapsed().as_secs_f64() * 1e6 / ticks.max(1.0);
            (us_per_tick * (1u64 << 32) as f64) as u64
        })
    }

    /// Convert a tick delta to microseconds.
    #[inline]
    pub fn ticks_to_us(ticks: u64) -> u64 {
        ((ticks as u128 * us_per_tick_fp32() as u128) >> 32) as u64
    }
}

/// The per-thread hot slot: a strong reference to the most-recently-
/// used tracer's staging buffer, so the per-event path is one id
/// compare — no scan, no `Weak::upgrade` CAS.
struct Hot {
    id: u64,
    buf: Arc<LocalBuf>,
}

/// Per-thread view of the staging buffers, split into a one-entry hot
/// slot and the full registry. The hot slot pins at most one
/// ≤[`LOCAL_FLUSH`]-event buffer per thread past its tracer's death,
/// which the next tracer switch releases.
#[derive(Default)]
struct LocalRegistry {
    hot: Option<Hot>,
    /// `(tracer id, buffer)` pairs for every tracer this thread has
    /// recorded into. Weak so a dropped tracer's buffers are reclaimed
    /// (entries are pruned on the next miss); the owning `Arc`s live in
    /// `Tracer::locals`.
    all: Vec<(u64, std::sync::Weak<LocalBuf>)>,
}

thread_local! {
    static LOCAL_BUFS: std::cell::RefCell<LocalRegistry> =
        const { std::cell::RefCell::new(LocalRegistry { hot: None, all: Vec::new() }) };
}

/// Pads its contents to a dedicated 128-byte slot so hot fields touched
/// by different threads never share a cache line. Without this the
/// ~40-byte shards pack several to a line and every push ping-pongs the
/// line between recording threads; likewise the constantly-written
/// `gsn` counter would evict `enabled` — read on *every* record call —
/// from other cores' caches.
#[repr(align(128))]
struct Padded<T>(T);

/// Sharded ring-buffer trace recorder. One per [`crate::Runtime`]
/// (never global: parallel runtimes in one process must not interleave
/// their traces).
pub struct Tracer {
    enabled: AtomicBool,
    clock: crate::clock::Clock,
    origin: Instant,
    /// TSC reading taken alongside `origin`. `Some` only for wall
    /// clocks on x86-64, where the push path stamps `at_us` from the
    /// cycle delta instead of a ~30 ns clock read; virtual clocks keep
    /// the exact `Clock::now` path (sim determinism).
    #[cfg(target_arch = "x86_64")]
    origin_cycles: Option<u64>,
    /// Distinguishes tracers in the per-thread buffer registry
    /// (parallel runtimes in one process each get their own buffers).
    id: u64,
    /// Per-shard capacity bound; the oldest events are evicted (and
    /// counted) when a flush overflows a shard.
    shard_capacity: usize,
    gsn: Padded<AtomicU64>,
    dropped: Padded<AtomicU64>,
    shards: Vec<Padded<Mutex<Shard>>>,
    /// Every thread-local staging buffer ever handed out for this
    /// tracer, so [`Tracer::drain`] can steal unflushed events.
    locals: Mutex<Vec<Arc<LocalBuf>>>,
}

/// One ring shard: whole staging buffers parked as chunks. Events hold
/// only [`Name`]s, which own nothing, so evicting a chunk frees nothing
/// but the chunk. A flush
/// hands its full `Vec` over by move — O(1), no per-event copy — and
/// eviction discards whole chunks from the front (trimming the oldest
/// chunk when the bound lands inside it).
#[derive(Default)]
struct Shard {
    chunks: VecDeque<Vec<TraceEvent<Name>>>,
    len: usize,
}

/// Round-robin shard assignment, sticky per thread.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

impl Tracer {
    /// A disabled tracer with the default capacity (1 M events).
    pub fn new() -> Tracer {
        Tracer::with_capacity(1 << 20)
    }

    /// A disabled tracer stamping event times off `clock` — under a
    /// virtual clock, `at_us` becomes deterministic, which is what
    /// makes same-seed sim traces byte-identical.
    pub fn with_clock(clock: crate::clock::Clock) -> Tracer {
        let mut t = Tracer::with_capacity(1 << 20);
        t.origin = clock.now();
        #[cfg(target_arch = "x86_64")]
        {
            t.origin_cycles = (!clock.is_simulated()).then(cycles::now);
        }
        t.clock = clock;
        t
    }

    /// A disabled tracer bounded to roughly `total_capacity` events.
    pub fn with_capacity(total_capacity: usize) -> Tracer {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let shard_capacity = (total_capacity / SHARDS).max(16);
        let clock = crate::clock::Clock::wall();
        Tracer {
            enabled: AtomicBool::new(false),
            gsn: Padded(AtomicU64::new(0)),
            origin: clock.now(),
            #[cfg(target_arch = "x86_64")]
            origin_cycles: Some(cycles::now()),
            clock,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            shards: (0..SHARDS).map(|_| Padded(Mutex::new(Shard::default()))).collect(),
            shard_capacity,
            dropped: Padded(AtomicU64::new(0)),
            locals: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off. Off is the default; instrumentation
    /// sites check this before building events. Switching a wall-clock
    /// tracer on calibrates the cycle counter first, so no record pays
    /// for it.
    pub fn set_enabled(&self, on: bool) {
        #[cfg(target_arch = "x86_64")]
        if on && self.origin_cycles.is_some() {
            cycles::us_per_tick_fp32();
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Events evicted because a shard overflowed. A non-zero value
    /// means a drained trace is incomplete (conformance checkers should
    /// relax causality checks that need the full history).
    pub fn dropped(&self) -> u64 {
        self.dropped.0.load(Ordering::Relaxed)
    }

    /// Record one event (no-op while disabled). Identities and payloads
    /// are texts that live for the process — the runtime's interned
    /// names or literals — and the ring keeps the references: once
    /// warm, a record allocates nothing for any kind but
    /// `kv_window_open`, whose key list the ring keeps
    /// (regression-tested in `tests/trace_zero_alloc.rs`).
    #[inline]
    pub fn record(
        &self,
        instance: &'static str,
        junction: &'static str,
        epoch: u64,
        kind: TraceKind<&'static str>,
    ) {
        if self.is_enabled() {
            self.push(instance, junction, epoch, kind.map(Name::Text));
        }
    }

    /// [`Tracer::record`] for a kind whose payloads may name a target
    /// junction (the transport's link events).
    #[inline]
    pub(crate) fn record_names(
        &self,
        instance: &'static str,
        junction: &'static str,
        epoch: u64,
        kind: TraceKind<Name>,
    ) {
        if self.is_enabled() {
            self.push(instance, junction, epoch, kind);
        }
    }

    /// Stamp and stage one event; flush the staging buffer to a shard
    /// when it reaches [`LOCAL_FLUSH`].
    #[inline]
    fn push(
        &self,
        instance: &'static str,
        junction: &'static str,
        epoch: u64,
        kind: TraceKind<Name>,
    ) {
        self.with_hot(|hot| {
            let ev = TraceEvent {
                gsn: self.gsn.0.fetch_add(1, Ordering::Relaxed),
                at_us: self.stamp_us(),
                instance: Name::Text(instance),
                junction: Name::Text(junction),
                epoch,
                kind,
            };
            let mut events = hot.buf.events.lock();
            events.push(ev);
            if events.len() >= LOCAL_FLUSH {
                self.flush_local(&mut events);
            }
        });
    }

    /// Microseconds since `origin`, via the TSC fast path when the
    /// clock allows it.
    #[inline]
    fn stamp_us(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(c0) = self.origin_cycles {
            return cycles::ticks_to_us(cycles::now().wrapping_sub(c0));
        }
        let at = self.clock.now().saturating_duration_since(self.origin);
        at.as_secs() * 1_000_000 + u64::from(at.subsec_micros())
    }

    /// Run `f` with this thread's hot slot for this tracer, installing
    /// it first if another tracer (or nothing) currently owns the slot.
    #[inline]
    fn with_hot<R>(&self, f: impl FnOnce(&Hot) -> R) -> R {
        LOCAL_BUFS.with(|cell| {
            let mut reg = cell.borrow_mut();
            if reg.hot.as_ref().is_none_or(|h| h.id != self.id) {
                let buf = self.local_buf(&mut reg.all);
                reg.hot = Some(Hot { id: self.id, buf });
            }
            f(reg.hot.as_ref().expect("hot slot just set"))
        })
    }

    /// This thread's staging buffer for this tracer, created and
    /// registered on first use (the hot slot in [`LocalRegistry`]
    /// makes repeat pushes skip this entirely).
    fn local_buf(&self, bufs: &mut Vec<(u64, std::sync::Weak<LocalBuf>)>) -> Arc<LocalBuf> {
        if let Some((_, weak)) = bufs.iter().find(|(id, _)| *id == self.id) {
            if let Some(buf) = weak.upgrade() {
                return buf;
            }
        }
        // Miss: prune buffers whose tracers are gone, then register
        // a fresh one on both sides (TLS weak, tracer-owned strong).
        bufs.retain(|(_, weak)| weak.strong_count() > 0);
        let buf = Arc::new(LocalBuf {
            events: Mutex::new(Vec::with_capacity(LOCAL_FLUSH)),
        });
        self.locals.lock().push(Arc::clone(&buf));
        bufs.push((self.id, Arc::downgrade(&buf)));
        buf
    }

    /// Move a full staging buffer into this thread's shard as one
    /// chunk (the `Vec` itself changes hands — no per-event copy),
    /// evicting (and counting) the oldest events past capacity. Lock
    /// order is local → shard, matching [`Tracer::drain`].
    fn flush_local(&self, events: &mut Vec<TraceEvent<Name>>) {
        let chunk = std::mem::replace(events, Vec::with_capacity(LOCAL_FLUSH));
        let mut shard = self.shards[shard_index()].0.lock();
        shard.len += chunk.len();
        shard.chunks.push_back(chunk);
        let mut over = shard.len.saturating_sub(self.shard_capacity);
        if over > 0 {
            let evicted = over;
            while over > 0 {
                let front = shard.chunks.front_mut().expect("overflowing shard is nonempty");
                if front.len() <= over {
                    over -= front.len();
                    shard.chunks.pop_front();
                } else {
                    front.drain(..over);
                    over = 0;
                }
            }
            shard.len -= evicted;
            self.dropped.0.fetch_add(evicted as u64, Ordering::Relaxed);
        }
    }

    /// Drain all recorded events, sorted by `gsn`, with every name
    /// rendered once into a shared string. Steals events
    /// still sitting in other threads' staging buffers, so a drain
    /// observes everything recorded before it regardless of flush
    /// boundaries.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for buf in self.locals.lock().iter() {
            all.append(&mut buf.events.lock());
        }
        for shard in &self.shards {
            let mut s = shard.0.lock();
            s.len = 0;
            for mut chunk in s.chunks.drain(..) {
                all.append(&mut chunk);
            }
        }
        all.sort_unstable_by_key(|e| e.gsn);
        let mut texts: HashMap<Name, Arc<str>> = HashMap::new();
        let mut text = |name: Name| Arc::clone(texts.entry(name).or_insert_with(|| name.render()));
        all.into_iter().map(|e| e.map(&mut text)).collect()
    }

    /// Drain all recorded events as JSONL.
    pub fn drain_jsonl(&self) -> String {
        to_jsonl(&self.drain())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Appends `,"name":value` fields to a JSON line.
struct Fields<'a>(&'a mut String);

impl Fields<'_> {
    fn name(&mut self, name: &str) -> &mut String {
        self.0.push_str(",\"");
        self.0.push_str(name);
        self.0.push_str("\":");
        self.0
    }

    fn str(&mut self, name: &str, value: &str) -> &mut Self {
        json::write_str(self.name(name), value);
        self
    }

    fn num(&mut self, name: &str, value: u64) -> &mut Self {
        self.name(name).push_str(&value.to_string());
        self
    }

    fn bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.name(name).push_str(if value { "true" } else { "false" });
        self
    }

    fn strs(&mut self, name: &str, values: &[Arc<str>]) -> &mut Self {
        let out = self.name(name);
        out.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(out, v);
        }
        out.push(']');
        self
    }

    /// The kind field, `"k"`, that every line carries.
    fn k(&mut self, kind: &str) -> &mut Self {
        self.str("k", kind)
    }
}

/// Render one event as a single JSON line (no trailing newline).
pub fn to_json_line(e: &TraceEvent) -> String {
    use TableEvent as T;
    use TraceKind as K;
    let mut s = String::with_capacity(128);
    s.push_str("{\"gsn\":");
    s.push_str(&e.gsn.to_string());
    let mut f = Fields(&mut s);
    f.num("us", e.at_us).str("i", &e.instance).str("j", &e.junction).num("ep", e.epoch);
    match &e.kind {
        K::Sched => f.k("sched"),
        K::Unsched { ok } => f.k("unsched").bool("ok", *ok),
        K::Kv(T::LocalWrite { key, op }) => f.k("kv_local_write").str("key", key).num("op", *op),
        K::Kv(T::Deliver { key, from, link_seq, op, applied, during_run }) => f
            .k("kv_deliver")
            .str("key", key)
            .str("from", from)
            .num("seq", *link_seq)
            .num("op", *op)
            .bool("applied", *applied)
            .bool("run", *during_run),
        K::Kv(T::FlushApply { key, from, link_seq, op, during_run }) => f
            .k("kv_flush_apply")
            .str("key", key)
            .str("from", from)
            .num("seq", *link_seq)
            .num("op", *op)
            .bool("run", *during_run),
        K::Kv(T::ShadowDrop { key, from, link_seq, op, lop, during_run }) => f
            .k("kv_shadow_drop")
            .str("key", key)
            .str("from", from)
            .num("seq", *link_seq)
            .num("op", *op)
            .num("lop", *lop)
            .bool("run", *during_run),
        K::Kv(T::RetroApply { key, from, link_seq, op }) => f
            .k("kv_retro_apply")
            .str("key", key)
            .str("from", from)
            .num("seq", *link_seq)
            .num("op", *op),
        K::Kv(T::WindowOpen { token, wop, keys }) => {
            f.k("kv_window_open").num("tok", *token).num("wop", *wop).strs("keys", keys)
        }
        K::Kv(T::WindowClose { token }) => f.k("kv_window_close").num("tok", *token),
        K::Kv(T::KeepDrop { key, from, link_seq }) => {
            f.k("kv_keep_drop").str("key", key).str("from", from).num("seq", *link_seq)
        }
        K::LinkSend { to, key, seq, bytes } => {
            f.k("link_send").str("to", to).str("key", key).num("seq", *seq).num("n", *bytes)
        }
        K::LinkRetry { to, seq, attempt } => {
            f.k("link_retry").str("to", to).num("seq", *seq).num("n", *attempt)
        }
        K::LinkDrop { to, seq } => f.k("link_drop").str("to", to).num("seq", *seq),
        K::LinkDup { to, seq } => f.k("link_dup").str("to", to).num("seq", *seq),
        K::LinkPartition { to, seq } => f.k("link_partition").str("to", to).num("seq", *seq),
        K::LinkDedup { from, seq } => f.k("link_dedup").str("from", from).num("seq", *seq),
        K::LinkFenced { from, seq } => f.k("link_fenced").str("from", from).num("seq", *seq),
        K::LinkShed { to, seq } => f.k("link_shed").str("to", to).num("seq", *seq),
        K::LinkQueueFull { to, seq } => f.k("link_queue_full").str("to", to).num("seq", *seq),
        K::LinkHeartbeat { to } => f.k("link_hb").str("to", to),
        K::Crash => f.k("crash"),
        K::Restart => f.k("restart"),
        K::ReconfigPlan { footprint } => f.k("reconfig_plan").num("n", *footprint),
        K::ReconfigQuiesce { paused_us } => f.k("reconfig_quiesce").num("n", *paused_us),
        K::ReconfigMigrate { bytes } => f.k("reconfig_migrate").num("n", *bytes),
        K::ReconfigCut => f.k("reconfig_cut"),
        K::ReconfigResume { flushed } => f.k("reconfig_resume").num("n", *flushed),
        K::ReconfigDone { bytes } => f.k("reconfig_done").num("n", *bytes),
        K::RepairDetect { class, id } => f.k("repair_detect").str("to", class).num("n", *id),
        K::RepairPlan { action, id, rung } => {
            f.k("repair_plan").str("to", action).num("n", *id).num("seq", *rung)
        }
        K::RepairFence { epoch, id } => f.k("repair_fence").num("seq", *epoch).num("n", *id),
        K::RepairVerify { ok, id } => f.k("repair_verify").bool("ok", *ok).num("n", *id),
        K::RepairDone { id, mttr_us } => f.k("repair_done").num("n", *id).num("seq", *mttr_us),
        K::RepairFailed { id } => f.k("repair_failed").num("n", *id),
        K::RepairEscalate { rung, id } => f.k("repair_escalate").num("seq", *rung).num("n", *id),
    };
    s.push('}');
    s
}

/// Render events as JSONL (one event per line).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128);
    for e in events {
        out.push_str(&to_json_line(e));
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace back into events (blank lines skipped): the
/// exact inverse of [`to_jsonl`]. Strict per the module doc's schema
/// table — an unknown `k`, or a missing or mistyped field that the
/// kind requires, is an error naming the line; unknown extra fields
/// are ignored.
pub fn parse_jsonl(jsonl: &str) -> Result<Vec<TraceEvent>, String> {
    jsonl
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| from_json_line(line).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

fn from_json_line(line: &str) -> Result<TraceEvent, String> {
    use TableEvent as T;
    use TraceKind as K;
    let o = json::Object::parse(line)?;
    let s = |name: &str| o.str(name).map(Arc::<str>::from);
    let n = |name: &str| o.num(name);
    let b = |name: &str| o.bool(name);
    let kind = match o.str("k")? {
        "sched" => K::Sched,
        "unsched" => K::Unsched { ok: b("ok")? },
        "kv_local_write" => K::Kv(T::LocalWrite { key: s("key")?, op: n("op")? }),
        "kv_deliver" => K::Kv(T::Deliver {
            key: s("key")?,
            from: s("from")?,
            link_seq: n("seq")?,
            op: n("op")?,
            applied: b("applied")?,
            during_run: b("run")?,
        }),
        "kv_flush_apply" => K::Kv(T::FlushApply {
            key: s("key")?,
            from: s("from")?,
            link_seq: n("seq")?,
            op: n("op")?,
            during_run: b("run")?,
        }),
        "kv_shadow_drop" => K::Kv(T::ShadowDrop {
            key: s("key")?,
            from: s("from")?,
            link_seq: n("seq")?,
            op: n("op")?,
            lop: n("lop")?,
            during_run: b("run")?,
        }),
        "kv_retro_apply" => K::Kv(T::RetroApply {
            key: s("key")?,
            from: s("from")?,
            link_seq: n("seq")?,
            op: n("op")?,
        }),
        "kv_window_open" => K::Kv(T::WindowOpen {
            token: n("tok")?,
            wop: n("wop")?,
            keys: o.strs("keys")?.iter().map(|k| Arc::from(k.as_str())).collect(),
        }),
        "kv_window_close" => K::Kv(T::WindowClose { token: n("tok")? }),
        "kv_keep_drop" => {
            K::Kv(T::KeepDrop { key: s("key")?, from: s("from")?, link_seq: n("seq")? })
        }
        "link_send" => K::LinkSend { to: s("to")?, key: s("key")?, seq: n("seq")?, bytes: n("n")? },
        "link_retry" => K::LinkRetry { to: s("to")?, seq: n("seq")?, attempt: n("n")? },
        "link_drop" => K::LinkDrop { to: s("to")?, seq: n("seq")? },
        "link_dup" => K::LinkDup { to: s("to")?, seq: n("seq")? },
        "link_partition" => K::LinkPartition { to: s("to")?, seq: n("seq")? },
        "link_dedup" => K::LinkDedup { from: s("from")?, seq: n("seq")? },
        "link_fenced" => K::LinkFenced { from: s("from")?, seq: n("seq")? },
        "link_shed" => K::LinkShed { to: s("to")?, seq: n("seq")? },
        "link_queue_full" => K::LinkQueueFull { to: s("to")?, seq: n("seq")? },
        "link_hb" => K::LinkHeartbeat { to: s("to")? },
        "crash" => K::Crash,
        "restart" => K::Restart,
        "reconfig_plan" => K::ReconfigPlan { footprint: n("n")? },
        "reconfig_quiesce" => K::ReconfigQuiesce { paused_us: n("n")? },
        "reconfig_migrate" => K::ReconfigMigrate { bytes: n("n")? },
        "reconfig_cut" => K::ReconfigCut,
        "reconfig_resume" => K::ReconfigResume { flushed: n("n")? },
        "reconfig_done" => K::ReconfigDone { bytes: n("n")? },
        "repair_detect" => K::RepairDetect { class: s("to")?, id: n("n")? },
        "repair_plan" => K::RepairPlan { action: s("to")?, id: n("n")?, rung: n("seq")? },
        "repair_fence" => K::RepairFence { epoch: n("seq")?, id: n("n")? },
        "repair_verify" => K::RepairVerify { ok: b("ok")?, id: n("n")? },
        "repair_done" => K::RepairDone { id: n("n")?, mttr_us: n("seq")? },
        "repair_failed" => K::RepairFailed { id: n("n")? },
        "repair_escalate" => K::RepairEscalate { rung: n("seq")?, id: n("n")? },
        other => return Err(format!("unknown kind `{other}`")),
    };
    Ok(TraceEvent {
        gsn: n("gsn")?,
        at_us: n("us")?,
        instance: s("i")?,
        junction: s("j")?,
        epoch: n("ep")?,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record("f", "j", 1, TraceKind::Sched);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn events_drain_in_gsn_order() {
        let t = Arc::new(Tracer::new());
        t.set_enabled(true);
        let mut handles = Vec::new();
        for k in 0..4 {
            let t2 = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t2.record(["i0", "i1", "i2", "i3"][k], "j", 0, TraceKind::Sched);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = t.drain();
        assert_eq!(events.len(), 400);
        assert!(events.windows(2).all(|w| w[0].gsn < w[1].gsn));
        assert!(t.drain().is_empty(), "drain empties the rings");
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let t = Tracer::with_capacity(64); // 4 per shard after split
        t.set_enabled(true);
        for _ in 0..10_000 {
            t.record("f", "j", 0, TraceKind::Sched);
        }
        assert!(t.dropped() > 0);
        assert!(t.drain().len() <= 16 * 16);
    }

    #[test]
    fn drain_steals_unflushed_thread_local_events() {
        // Fewer events than the flush threshold: everything is still in
        // the recording thread's staging buffer when drain runs, and on
        // a *different* thread at that.
        let t = Arc::new(Tracer::new());
        t.set_enabled(true);
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            for _ in 0..(LOCAL_FLUSH / 2) {
                t2.record("f", "j", 0, TraceKind::Sched);
            }
        })
        .join()
        .unwrap();
        assert_eq!(t.drain().len(), LOCAL_FLUSH / 2);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn interleaved_tracers_keep_buffers_apart() {
        // Two live tracers on one thread must not mix events, and a
        // dropped tracer's staging buffer must not leak into the other.
        let a = Tracer::new();
        let b = Tracer::new();
        a.set_enabled(true);
        b.set_enabled(true);
        a.record("a", "j", 0, TraceKind::Sched);
        b.record("b", "j", 0, TraceKind::Sched);
        a.record("a", "j", 0, TraceKind::Sched);
        assert_eq!(a.drain().len(), 2);
        assert_eq!(b.drain().len(), 1);
        drop(b);
        let c = Tracer::new();
        c.set_enabled(true);
        c.record("c", "j", 0, TraceKind::Sched);
        let events = c.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].instance.as_ref(), "c");
    }

    /// Enabling a wall-clock tracer calibrates the cycle counter, so
    /// the first record — which may run under a table lock — does not
    /// sleep for it. (Another test in this binary may calibrate first:
    /// run this one alone, `--exact`, to see it fail without the
    /// warm-up.)
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn enabling_a_wall_clock_tracer_calibrates_the_cycle_counter() {
        Tracer::new().set_enabled(true);
        assert!(cycles::CAL.get().is_some());
    }

    /// One event per kind in the module doc's schema table, with its
    /// exact JSONL line as recorded by `f`/`serve` at epoch 3 under a
    /// simulated clock (so `us` is 0). Payloads are written `.into()` so
    /// the table does not depend on the payload type record sites take.
    #[allow(clippy::useless_conversion)]
    fn one_per_kind() -> Vec<(TraceKind<&'static str>, &'static str)> {
        let cases = vec![
            (TraceKind::Sched, r#"{"gsn":0,"us":0,"i":"f","j":"serve","ep":3,"k":"sched"}"#),
            (
                TraceKind::Unsched { ok: true },
                r#"{"gsn":1,"us":0,"i":"f","j":"serve","ep":3,"k":"unsched","ok":true}"#,
            ),
            (
                TraceKind::Kv(TableEvent::LocalWrite { key: "Work".into(), op: 4 }),
                r#"{"gsn":2,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_local_write","key":"Work","op":4}"#,
            ),
            (
                TraceKind::Kv(TableEvent::Deliver {
                    key: "Re\"ply\n".into(),
                    from: "g::run".into(),
                    link_seq: 9,
                    op: 12,
                    applied: true,
                    during_run: false,
                }),
                r#"{"gsn":3,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_deliver","key":"Re\"ply\n","from":"g::run","seq":9,"op":12,"applied":true,"run":false}"#,
            ),
            (
                TraceKind::Kv(TableEvent::FlushApply {
                    key: "Reply".into(),
                    from: "g::run".into(),
                    link_seq: 10,
                    op: 13,
                    during_run: true,
                }),
                r#"{"gsn":4,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_flush_apply","key":"Reply","from":"g::run","seq":10,"op":13,"run":true}"#,
            ),
            (
                TraceKind::Kv(TableEvent::ShadowDrop {
                    key: "Reply".into(),
                    from: "g::run".into(),
                    link_seq: 11,
                    op: 14,
                    lop: 15,
                    during_run: true,
                }),
                r#"{"gsn":5,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_shadow_drop","key":"Reply","from":"g::run","seq":11,"op":14,"lop":15,"run":true}"#,
            ),
            (
                TraceKind::Kv(TableEvent::RetroApply {
                    key: "Reply".into(),
                    from: "g::run".into(),
                    link_seq: 12,
                    op: 16,
                }),
                r#"{"gsn":6,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_retro_apply","key":"Reply","from":"g::run","seq":12,"op":16}"#,
            ),
            (
                TraceKind::Kv(TableEvent::WindowOpen {
                    token: 2,
                    wop: 17,
                    keys: vec!["A".into(), "B".into()],
                }),
                r#"{"gsn":7,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_window_open","tok":2,"wop":17,"keys":["A","B"]}"#,
            ),
            (
                TraceKind::Kv(TableEvent::WindowClose { token: 2 }),
                r#"{"gsn":8,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_window_close","tok":2}"#,
            ),
            (
                TraceKind::Kv(TableEvent::KeepDrop {
                    key: "Reply".into(),
                    from: "g::run".into(),
                    link_seq: 13,
                }),
                r#"{"gsn":9,"us":0,"i":"f","j":"serve","ep":3,"k":"kv_keep_drop","key":"Reply","from":"g::run","seq":13}"#,
            ),
            (
                TraceKind::LinkSend { to: "g::run".into(), key: "Req".into(), seq: 21, bytes: 64 },
                r#"{"gsn":10,"us":0,"i":"f","j":"serve","ep":3,"k":"link_send","to":"g::run","key":"Req","seq":21,"n":64}"#,
            ),
            (
                TraceKind::LinkRetry { to: "g::run".into(), seq: 22, attempt: 2 },
                r#"{"gsn":11,"us":0,"i":"f","j":"serve","ep":3,"k":"link_retry","to":"g::run","seq":22,"n":2}"#,
            ),
            (
                TraceKind::LinkDrop { to: "g::run".into(), seq: 23 },
                r#"{"gsn":12,"us":0,"i":"f","j":"serve","ep":3,"k":"link_drop","to":"g::run","seq":23}"#,
            ),
            (
                TraceKind::LinkDup { to: "g::run".into(), seq: 24 },
                r#"{"gsn":13,"us":0,"i":"f","j":"serve","ep":3,"k":"link_dup","to":"g::run","seq":24}"#,
            ),
            (
                TraceKind::LinkPartition { to: "g::run".into(), seq: 25 },
                r#"{"gsn":14,"us":0,"i":"f","j":"serve","ep":3,"k":"link_partition","to":"g::run","seq":25}"#,
            ),
            (
                TraceKind::LinkDedup { from: "o".into(), seq: 26 },
                r#"{"gsn":15,"us":0,"i":"f","j":"serve","ep":3,"k":"link_dedup","from":"o","seq":26}"#,
            ),
            (
                TraceKind::LinkFenced { from: "o".into(), seq: 27 },
                r#"{"gsn":16,"us":0,"i":"f","j":"serve","ep":3,"k":"link_fenced","from":"o","seq":27}"#,
            ),
            (
                TraceKind::LinkShed { to: "g::run".into(), seq: 28 },
                r#"{"gsn":17,"us":0,"i":"f","j":"serve","ep":3,"k":"link_shed","to":"g::run","seq":28}"#,
            ),
            (
                TraceKind::LinkQueueFull { to: "g::run".into(), seq: 29 },
                r#"{"gsn":18,"us":0,"i":"f","j":"serve","ep":3,"k":"link_queue_full","to":"g::run","seq":29}"#,
            ),
            (
                TraceKind::LinkHeartbeat { to: "g".into() },
                r#"{"gsn":19,"us":0,"i":"f","j":"serve","ep":3,"k":"link_hb","to":"g"}"#,
            ),
            (TraceKind::Crash, r#"{"gsn":20,"us":0,"i":"f","j":"serve","ep":3,"k":"crash"}"#),
            (TraceKind::Restart, r#"{"gsn":21,"us":0,"i":"f","j":"serve","ep":3,"k":"restart"}"#),
            (
                TraceKind::ReconfigPlan { footprint: 3 },
                r#"{"gsn":22,"us":0,"i":"f","j":"serve","ep":3,"k":"reconfig_plan","n":3}"#,
            ),
            (
                TraceKind::ReconfigQuiesce { paused_us: 40 },
                r#"{"gsn":23,"us":0,"i":"f","j":"serve","ep":3,"k":"reconfig_quiesce","n":40}"#,
            ),
            (
                TraceKind::ReconfigMigrate { bytes: 512 },
                r#"{"gsn":24,"us":0,"i":"f","j":"serve","ep":3,"k":"reconfig_migrate","n":512}"#,
            ),
            (
                TraceKind::ReconfigCut,
                r#"{"gsn":25,"us":0,"i":"f","j":"serve","ep":3,"k":"reconfig_cut"}"#,
            ),
            (
                TraceKind::ReconfigResume { flushed: 5 },
                r#"{"gsn":26,"us":0,"i":"f","j":"serve","ep":3,"k":"reconfig_resume","n":5}"#,
            ),
            (
                TraceKind::ReconfigDone { bytes: 1024 },
                r#"{"gsn":27,"us":0,"i":"f","j":"serve","ep":3,"k":"reconfig_done","n":1024}"#,
            ),
            (
                TraceKind::RepairDetect { class: "crash".into(), id: 7 },
                r#"{"gsn":28,"us":0,"i":"f","j":"serve","ep":3,"k":"repair_detect","to":"crash","n":7}"#,
            ),
            (
                TraceKind::RepairPlan { action: "restart".into(), id: 7, rung: 1 },
                r#"{"gsn":29,"us":0,"i":"f","j":"serve","ep":3,"k":"repair_plan","to":"restart","n":7,"seq":1}"#,
            ),
            (
                TraceKind::RepairFence { epoch: 9, id: 7 },
                r#"{"gsn":30,"us":0,"i":"f","j":"serve","ep":3,"k":"repair_fence","seq":9,"n":7}"#,
            ),
            (
                TraceKind::RepairVerify { ok: false, id: 7 },
                r#"{"gsn":31,"us":0,"i":"f","j":"serve","ep":3,"k":"repair_verify","ok":false,"n":7}"#,
            ),
            (
                TraceKind::RepairDone { id: 7, mttr_us: 1500 },
                r#"{"gsn":32,"us":0,"i":"f","j":"serve","ep":3,"k":"repair_done","n":7,"seq":1500}"#,
            ),
            (
                TraceKind::RepairFailed { id: 8 },
                r#"{"gsn":33,"us":0,"i":"f","j":"serve","ep":3,"k":"repair_failed","n":8}"#,
            ),
            (
                TraceKind::RepairEscalate { rung: 2, id: 8 },
                r#"{"gsn":34,"us":0,"i":"f","j":"serve","ep":3,"k":"repair_escalate","seq":2,"n":8}"#,
            ),
        ];
        assert_eq!(cases.len(), 35, "one case per kind in the schema table");
        cases
    }

    /// One exact JSONL line per kind, recorded through
    /// [`Tracer::record`] and drained: the guard against a swapped or
    /// renamed field anywhere between a record site and the rendered
    /// line.
    #[test]
    fn jsonl_escapes_and_renders_all_fields() {
        let t = Tracer::with_clock(crate::clock::Clock::simulated());
        t.set_enabled(true);
        let mut expected = Vec::new();
        for (kind, line) in one_per_kind() {
            t.record("f", "serve", 3, kind);
            expected.push(line);
        }
        let jsonl = t.drain_jsonl();
        let got: Vec<&str> = jsonl.lines().collect();
        for (got, want) in got.iter().zip(&expected) {
            assert_eq!(got, want);
        }
        assert_eq!(got.len(), expected.len());
        // Escaped identities render through the same path as payloads.
        t.record("f\"x", "serve", 3, TraceKind::Sched);
        assert!(t.drain_jsonl().contains(r#""i":"f\"x""#));
    }

    /// Every kind survives `to_json_line` → `parse_jsonl` unchanged, and
    /// re-rendering the parsed event gives back the same bytes. Every
    /// string — identities, payloads, `keys` items — carries a quote, a
    /// backslash, a control char and non-ASCII text.
    #[test]
    fn every_kind_round_trips_through_the_reader() {
        let hard = |s: &str| Arc::<str>::from(format!("{s}\"\\\u{1}\té😀"));
        let mut kinds: Vec<TraceKind> =
            one_per_kind().into_iter().map(|(kind, _)| kind.map(hard)).collect();
        kinds.push(TraceKind::Kv(TableEvent::WindowOpen { token: 0, wop: 1, keys: vec![] }));
        for (gsn, kind) in kinds.into_iter().enumerate() {
            let event = TraceEvent {
                gsn: gsn as u64,
                at_us: 17 + gsn as u64,
                instance: hard("f"),
                junction: hard(""),
                epoch: u64::MAX,
                kind,
            };
            let line = to_json_line(&event);
            let back = parse_jsonl(&format!("\n{line}\n")).expect(&line);
            assert_eq!(back, [event], "{line}");
            assert_eq!(to_json_line(&back[0]), line);
        }
    }

    #[test]
    fn parser_roundtrips_fields_and_escapes() {
        let r = &parse_jsonl(
            r#"{"gsn":7,"us":12,"i":"f\"x","j":"serve","ep":3,"k":"kv_deliver","key":"Reply","from":"g::run","seq":9,"op":12,"applied":true,"run":false}"#,
        )
        .unwrap()[0];
        assert_eq!(r.gsn, 7);
        assert_eq!(&*r.instance, "f\"x");
        let TraceKind::Kv(TableEvent::Deliver { link_seq, applied, during_run, .. }) = r.kind
        else {
            panic!("{r:?}")
        };
        assert_eq!(link_seq, 9);
        assert!(applied);
        assert!(!during_run);
        let w = &parse_jsonl(
            r#"{"gsn":1,"us":0,"i":"f","j":"serve","ep":1,"k":"kv_window_open","tok":0,"wop":5,"keys":["A","B"]}"#,
        )
        .unwrap()[0];
        let TraceKind::Kv(TableEvent::WindowOpen { wop, keys, .. }) = &w.kind else {
            panic!("{w:?}")
        };
        assert_eq!(keys.iter().map(|k| &**k).collect::<Vec<_>>(), ["A", "B"]);
        assert_eq!(*wop, 5);
        // Strict: a line without the common fields and `k` is an error.
        assert!(parse_jsonl("{}").is_err());
        assert!(parse_jsonl("{bad").is_err());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let r = &parse_jsonl(
            r#"{"gsn":1,"us":0,"i":"f","j":"x","ep":1,"k":"sched","future":"y","extra":3,"flag":true,"list":["z"]}"#,
        )
        .unwrap()[0];
        assert_eq!(r.kind, TraceKind::Sched);
    }

    #[test]
    fn unknown_kind_or_missing_field_names_the_line() {
        let ok = r#"{"gsn":1,"us":0,"i":"f","j":"x","ep":1,"k":"sched"}"#;
        let bad_kind = ok.replace("sched", "schedule");
        let err = parse_jsonl(&format!("{ok}\n\n{bad_kind}")).unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("`schedule`"), "{err}");
        let err = parse_jsonl(&ok.replace("sched", "unsched")).unwrap_err();
        assert!(err.starts_with("line 1:") && err.contains("`ok`"), "{err}");
    }

    /// Traces and schedule artifacts are read from disk: every prefix
    /// and every single-byte corruption of a valid input is an error or
    /// a parse, never a panic.
    #[test]
    fn reader_survives_truncation_and_corruption() {
        let artifact = crate::sim::Artifact {
            seed: 42,
            reason: "lost \"acked\" write é".into(),
            instances: vec!["f".into(), "o".into()],
            steps: vec!["pass:f:main".into(), "inj:0".into()],
        }
        .to_json();
        assert!(crate::sim::Artifact::from_json(&artifact).is_some());
        let mut inputs: Vec<String> =
            one_per_kind().into_iter().map(|(_, line)| line.to_string()).collect();
        inputs.push(to_json_line(&TraceEvent {
            gsn: 0,
            at_us: 0,
            instance: "é\u{1}".into(),
            junction: "\\".into(),
            epoch: 0,
            kind: TraceKind::Sched,
        }));
        inputs.push(artifact);
        for input in &inputs {
            let bytes = input.as_bytes();
            let read = |b: &[u8]| {
                let text = String::from_utf8_lossy(b);
                let _ = parse_jsonl(&text);
                let _ = crate::sim::Artifact::from_json(&text);
            };
            for end in 0..bytes.len() {
                read(&bytes[..end]);
            }
            let mut corrupt = bytes.to_vec();
            for i in 0..bytes.len() {
                for b in 0..=255u8 {
                    corrupt[i] = b;
                    read(&corrupt);
                }
                corrupt[i] = bytes[i];
            }
        }
    }
}
