//! Causal trace recording and a metrics registry.
//!
//! Every junction activation, KV mutation, and link event in a run can
//! be recorded as a structured causal event — carrying the instance,
//! junction, table epoch, table operation sequence, and per-link
//! transport sequence — into a lock-cheap sharded ring buffer owned by
//! the [`Tracer`]. Traces drain as JSONL (one event per line, a stable
//! flat schema) and feed `csaw-semantics::conformance`, which replays
//! them against the program's §8 event-structure semantics. The
//! [`Metrics`] registry aggregates the same instrumentation points into
//! Prometheus-style counters and log₂ histograms.
//!
//! Recording is off by default: every instrumentation site checks one
//! relaxed atomic before building an event, so a disabled tracer costs
//! a branch per site (~0% overhead). Enabled, identity strings resolve
//! to interned `u32` symbols through a pointer-compare memo in
//! thread-local state, events stage in a thread-local buffer, and full
//! buffers move into a per-thread shard as whole chunks — so the
//! common per-event cost is a TLS push plus one atomic `gsn` bump,
//! with no refcount traffic and the shard lock paid once per ~128
//! events. The `gsn` stays per-event (one atomic RMW): its
//! modification order is consistent with happens-before, which is what
//! lets the conformance checker sort the drained trace and require
//! cross-thread send-before-apply ordering. (A gsn-*range* reservation
//! per flush would stamp an event with a number chosen at flush time,
//! breaking exactly that property.)
//!
//! ## JSONL schema
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

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use csaw_kv::TableEvent;
use parking_lot::Mutex;

/// What happened: one activation, KV, link, or lifecycle observation.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceKind {
    /// Junction activation began (epoch freshly advanced).
    Sched,
    /// Junction activation ended.
    Unsched {
        /// Whether the activation completed without failure.
        ok: bool,
    },
    /// A KV-table mutation (see [`csaw_kv::TableEvent`]).
    Kv(TableEvent),
    /// An update was handed to a link (post fault dice, pre delivery).
    LinkSend {
        /// Target junction, `instance::junction`.
        to: Arc<str>,
        /// Update key.
        key: String,
        /// Per-link sequence number (0 = unsequenced).
        seq: u64,
        /// Modelled wire bytes.
        bytes: u64,
    },
    /// The reliability layer is retrying a send.
    LinkRetry {
        /// Target junction.
        to: Arc<str>,
        /// Per-link sequence number being retried.
        seq: u64,
        /// Attempt count (1 = first retry).
        attempt: u64,
    },
    /// Fault injection dropped a send attempt.
    LinkDrop {
        /// Target junction.
        to: Arc<str>,
        /// Per-link sequence number (0 = unsequenced).
        seq: u64,
    },
    /// Fault injection duplicated a delivery.
    LinkDup {
        /// Target junction.
        to: Arc<str>,
        /// Per-link sequence number.
        seq: u64,
    },
    /// A partition window rejected a send attempt.
    LinkPartition {
        /// Target junction.
        to: Arc<str>,
        /// Per-link sequence number.
        seq: u64,
    },
    /// Receiver-side dedup suppressed an already-seen sequence number.
    LinkDedup {
        /// Sender instance.
        from: Arc<str>,
        /// Suppressed sequence number.
        seq: u64,
    },
    /// The supervisor epoch fence rejected a send from a fenced-out
    /// instance (at send time, or at delivery for in-flight traffic).
    LinkFenced {
        /// Fenced sender instance.
        from: Arc<str>,
        /// Rejected sequence number (fence epoch in the high bits).
        seq: u64,
    },
    /// The overload layer shed a delivery: its deadline expired (at
    /// dispatch prediction or at dequeue) or the target mailbox
    /// overflowed. A shed update is never applied and never acked.
    LinkShed {
        /// Target junction, `instance::junction`.
        to: Arc<str>,
        /// Per-link sequence number of the shed update.
        seq: u64,
    },
    /// A send was refused by a queue bound (route outbox or target
    /// mailbox full) — backpressure, retryable by the producer.
    LinkQueueFull {
        /// Target junction.
        to: Arc<str>,
        /// Per-link sequence number of the refused send.
        seq: u64,
    },
    /// A heartbeat ping was sent.
    LinkHeartbeat {
        /// Target instance.
        to: Arc<str>,
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
        class: Arc<str>,
        /// Monotonic repair id.
        id: u64,
    },
    /// The supervisor chose a repair action (plan phase). `action` is
    /// `restart`, `reconfigure` or `quarantine`; `rung` is the
    /// escalation-ladder position it was taken from.
    RepairPlan {
        /// Chosen action label.
        action: Arc<str>,
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

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number: the total order in which events were
    /// recorded (assigned by one atomic counter).
    pub gsn: u64,
    /// Microseconds since the tracer was created.
    pub at_us: u64,
    /// Instance the event belongs to (sender instance for link events).
    /// `Arc<str>` so hot recording sites share one allocation per
    /// junction instead of cloning per event.
    pub instance: Arc<str>,
    /// Junction (empty for instance-level events like heartbeats).
    pub junction: Arc<str>,
    /// Table epoch at the event (0 when not applicable).
    pub epoch: u64,
    /// What happened.
    pub kind: TraceKind,
}

const SHARDS: usize = 16;

/// How many events a thread stages locally before flushing to its
/// shard in bulk. Small enough that a drained trace is never more than
/// a blink stale, large enough to amortize the shard lock to noise.
const LOCAL_FLUSH: usize = 128;

/// The event representation the ring actually stores. *Every* string —
/// the identity fields and the kind payloads (update keys, senders,
/// targets, failure classes) — is interned to a `u32` symbol
/// ([`SymTab`]), so recording does zero refcount traffic per event,
/// the ring holds plain data (evicting a chunk frees nothing but the
/// chunk), and [`Tracer::drain`] resolves symbols back into the public
/// [`TraceEvent`] on the way out.
struct RawEvent {
    gsn: u64,
    at_us: u64,
    inst: u32,
    junc: u32,
    epoch: u64,
    kind: RawKind,
}

/// [`TraceKind`] with every string payload replaced by an interned
/// symbol. Private: the ring's storage format, never exposed.
enum RawKind {
    Sched,
    Unsched { ok: bool },
    Kv(RawKv),
    LinkSend { to: u32, key: u32, seq: u64, bytes: u64 },
    LinkRetry { to: u32, seq: u64, attempt: u64 },
    LinkDrop { to: u32, seq: u64 },
    LinkDup { to: u32, seq: u64 },
    LinkPartition { to: u32, seq: u64 },
    LinkDedup { from: u32, seq: u64 },
    LinkFenced { from: u32, seq: u64 },
    LinkShed { to: u32, seq: u64 },
    LinkQueueFull { to: u32, seq: u64 },
    LinkHeartbeat { to: u32 },
    Crash,
    Restart,
    ReconfigPlan { footprint: u64 },
    ReconfigQuiesce { paused_us: u64 },
    ReconfigMigrate { bytes: u64 },
    ReconfigCut,
    ReconfigResume { flushed: u64 },
    ReconfigDone { bytes: u64 },
    RepairDetect { class: u32, id: u64 },
    RepairPlan { action: u32, id: u64, rung: u64 },
    RepairFence { epoch: u64, id: u64 },
    RepairVerify { ok: bool, id: u64 },
    RepairDone { id: u64, mttr_us: u64 },
    RepairFailed { id: u64 },
    RepairEscalate { rung: u64, id: u64 },
}

/// [`TableEvent`] with `key`/`from` interned (the `keys` list of a
/// window-open still carries a `Vec` — the event is rare).
enum RawKv {
    LocalWrite { key: u32, op: u64 },
    Deliver { key: u32, from: u32, link_seq: u64, op: u64, applied: bool, during_run: bool },
    FlushApply { key: u32, from: u32, link_seq: u64, op: u64, during_run: bool },
    ShadowDrop { key: u32, from: u32, link_seq: u64, op: u64, lop: u64, during_run: bool },
    RetroApply { key: u32, from: u32, link_seq: u64, op: u64 },
    WindowOpen { token: u64, wop: u64, keys: Vec<u32> },
    WindowClose { token: u64 },
    KeepDrop { key: u32, from: u32, link_seq: u64 },
}

/// A link event with *borrowed* payloads: the zero-alloc front door for
/// transport hot paths. [`Tracer::record_link`] resolves the borrowed
/// strings straight to interned symbols, so steady-state recording
/// clones nothing — unlike building a [`TraceKind`], which must own
/// (allocate) its `to`/`key`/`from` payloads per event.
#[derive(Clone, Copy)]
pub enum LinkEv<'a> {
    /// An update was handed to a link (see [`TraceKind::LinkSend`]).
    Send {
        /// Target junction, `instance::junction`.
        to: &'a str,
        /// Update key.
        key: &'a str,
        /// Per-link sequence number (0 = unsequenced).
        seq: u64,
        /// Modelled wire bytes.
        bytes: u64,
    },
    /// The reliability layer is retrying a send.
    Retry {
        /// Target junction.
        to: &'a str,
        /// Sequence number being retried.
        seq: u64,
        /// Attempt count (1 = first retry).
        attempt: u64,
    },
    /// Fault injection dropped a send attempt.
    Drop {
        /// Target junction.
        to: &'a str,
        /// Per-link sequence number.
        seq: u64,
    },
    /// Fault injection duplicated a delivery.
    Dup {
        /// Target junction.
        to: &'a str,
        /// Per-link sequence number.
        seq: u64,
    },
    /// A partition window rejected a send attempt.
    Partition {
        /// Target junction.
        to: &'a str,
        /// Per-link sequence number.
        seq: u64,
    },
    /// Receiver-side dedup suppressed an already-seen sequence number.
    Dedup {
        /// Sender instance.
        from: &'a str,
        /// Suppressed sequence number.
        seq: u64,
    },
    /// The supervisor epoch fence rejected a send.
    Fenced {
        /// Fenced sender instance.
        from: &'a str,
        /// Rejected sequence number (fence epoch in the high bits).
        seq: u64,
    },
    /// The overload layer shed a delivery (deadline expired or mailbox
    /// overflow).
    Shed {
        /// Target junction.
        to: &'a str,
        /// Per-link sequence number of the shed update.
        seq: u64,
    },
    /// A send was refused by a queue bound (backpressure).
    QueueFull {
        /// Target junction.
        to: &'a str,
        /// Per-link sequence number of the refused send.
        seq: u64,
    },
    /// A heartbeat ping was sent.
    Heartbeat {
        /// Target instance.
        to: &'a str,
    },
}

/// Tracer-scoped intern table: symbol `s` names `names[s]`. Symbols are
/// only ever appended, so a symbol stored in the ring stays valid for
/// the tracer's lifetime.
#[derive(Default)]
struct SymTab {
    names: Vec<Arc<str>>,
    index: std::collections::HashMap<Arc<str>, u32>,
}

/// Thread-local staging buffer for one (thread, tracer) pair. The
/// mutex is uncontended on the hot path (only the owning thread
/// pushes); it exists so [`Tracer::drain`] can *steal* still-buffered
/// events from other threads instead of waiting for their next flush.
struct LocalBuf {
    events: Mutex<Vec<RawEvent>>,
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

    /// Microseconds per TSC tick as a 32.32 fixed-point multiplier
    /// (`us = ticks * mult >> 32`), calibrated over a 10 ms sleep the
    /// first time a wall-clock tracer records an event.
    pub fn us_per_tick_fp32() -> u64 {
        static CAL: OnceLock<u64> = OnceLock::new();
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

/// FNV-1a for the by-value symbol memo: payload keys are short (a
/// handful of bytes), where FNV beats SipHash by a wide margin and the
/// memo never sees attacker-controlled input.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

type BuildFnv = std::hash::BuildHasherDefault<Fnv>;

/// The per-thread hot slot: a strong reference to the most-recently-
/// used tracer's staging buffer plus a symbol memo, so the per-event
/// path is one id compare — no scan, no `Weak::upgrade` CAS.
struct Hot {
    id: u64,
    buf: Arc<LocalBuf>,
    /// Memoized `Arc<str> → symbol` resolutions for this tracer,
    /// matched by *allocation identity* (`Arc::ptr_eq`). Each entry
    /// keeps its `Arc` alive, so an address match can never be a stale
    /// reuse of a freed allocation. Hot record sites pass the same
    /// handful of shared ids over and over; the common case is a hit in
    /// the first entry or two.
    syms: Vec<(Arc<str>, u32)>,
    /// Memoized *by-value* `str → symbol` resolutions for payload
    /// strings (update keys, senders, targets) that reach the tracer as
    /// `&str` or `String` without a stable allocation identity. A hit
    /// costs one FNV hash and no lock; a miss interns through the table
    /// lock and caches. Bounded; cleared on overflow like `syms`.
    vals: std::collections::HashMap<Box<str>, u32, BuildFnv>,
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

/// Resolve `name` against the hot slot's memo, falling back to (and
/// memoizing) a full intern. The memo is bounded; on overflow it is
/// simply cleared and refills with whatever is hot now.
#[inline]
fn sym_of(cache: &mut Vec<(Arc<str>, u32)>, name: &Arc<str>, intern: impl FnOnce() -> u32) -> u32 {
    if let Some((_, sym)) = cache.iter().find(|(c, _)| Arc::ptr_eq(c, name)) {
        return *sym;
    }
    let sym = intern();
    if cache.len() >= 64 {
        cache.clear();
    }
    cache.push((Arc::clone(name), sym));
    sym
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
    /// Identity-string intern table ([`RawEvent`] stores symbols).
    syms: Mutex<SymTab>,
}

/// One ring shard: whole staging buffers parked as chunks. A flush
/// hands its full `Vec` over by move — O(1), no per-event copy — and
/// eviction discards whole chunks from the front (trimming the oldest
/// chunk when the bound lands inside it).
#[derive(Default)]
struct Shard {
    chunks: VecDeque<Vec<RawEvent>>,
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
            syms: Mutex::new(SymTab::default()),
        }
    }

    /// Switch recording on or off. Off is the default; instrumentation
    /// sites check this before building events.
    pub fn set_enabled(&self, on: bool) {
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

    /// Record one event (no-op while disabled). Interns the identity
    /// strings through the table lock — hot sites with a stable
    /// identity should cache `Arc<str>`s and use [`Tracer::record_ids`]
    /// instead, which memoizes the resolution per thread.
    #[inline]
    pub fn record(&self, instance: &str, junction: &str, epoch: u64, kind: TraceKind) {
        if !self.is_enabled() {
            return;
        }
        let inst = self.intern(instance);
        let junc = self.intern(junction);
        self.with_hot(|t, hot| {
            let kind = t.raw_kind(&mut hot.vals, kind);
            t.push_raw(hot, inst, junc, epoch, kind);
        });
    }

    /// Record one event with pre-shared identity strings (no-op while
    /// disabled). The identities resolve to interned symbols via a
    /// pointer-compare memo in thread-local state, so the per-event
    /// cost carries no refcount traffic and no string hashing.
    #[inline]
    pub fn record_ids(
        &self,
        instance: &Arc<str>,
        junction: &Arc<str>,
        epoch: u64,
        kind: TraceKind,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.with_hot(|t, hot| {
            let inst = sym_of(&mut hot.syms, instance, || t.intern(instance));
            let junc = sym_of(&mut hot.syms, junction, || t.intern(junction));
            let kind = t.raw_kind(&mut hot.vals, kind);
            t.push_raw(hot, inst, junc, epoch, kind);
        });
    }

    /// Record one link event with *borrowed* payloads (no-op while
    /// disabled): the transport hot path. Identities resolve through
    /// the pointer-compare memo, payload strings through the by-value
    /// memo — steady state, this path performs **zero allocations**
    /// (regression-tested in `tests/trace_zero_alloc.rs`).
    #[inline]
    pub fn record_link(
        &self,
        instance: &Arc<str>,
        junction: &Arc<str>,
        epoch: u64,
        ev: LinkEv<'_>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.with_hot(|t, hot| {
            let inst = sym_of(&mut hot.syms, instance, || t.intern(instance));
            let junc = sym_of(&mut hot.syms, junction, || t.intern(junction));
            let kind = match ev {
                LinkEv::Send { to, key, seq, bytes } => RawKind::LinkSend {
                    to: t.sym_of_str(&mut hot.vals, to),
                    key: t.sym_of_str(&mut hot.vals, key),
                    seq,
                    bytes,
                },
                LinkEv::Retry { to, seq, attempt } => RawKind::LinkRetry {
                    to: t.sym_of_str(&mut hot.vals, to),
                    seq,
                    attempt,
                },
                LinkEv::Drop { to, seq } => {
                    RawKind::LinkDrop { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Dup { to, seq } => {
                    RawKind::LinkDup { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Partition { to, seq } => {
                    RawKind::LinkPartition { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Dedup { from, seq } => {
                    RawKind::LinkDedup { from: t.sym_of_str(&mut hot.vals, from), seq }
                }
                LinkEv::Fenced { from, seq } => {
                    RawKind::LinkFenced { from: t.sym_of_str(&mut hot.vals, from), seq }
                }
                LinkEv::Shed { to, seq } => {
                    RawKind::LinkShed { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::QueueFull { to, seq } => {
                    RawKind::LinkQueueFull { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Heartbeat { to } => {
                    RawKind::LinkHeartbeat { to: t.sym_of_str(&mut hot.vals, to) }
                }
            };
            t.push_raw(hot, inst, junc, epoch, kind);
        });
    }

    /// [`Tracer::record_link`] for sites that hold `&str` identities
    /// rather than shared `Arc<str>`s (rejection paths, heartbeats):
    /// identities intern through the table lock, payloads through the
    /// by-value memo, and steady state still allocates nothing.
    #[inline]
    pub fn record_link_at(&self, instance: &str, junction: &str, epoch: u64, ev: LinkEv<'_>) {
        if !self.is_enabled() {
            return;
        }
        self.with_hot(|t, hot| {
            let inst = t.sym_of_str(&mut hot.vals, instance);
            let junc = t.sym_of_str(&mut hot.vals, junction);
            let kind = match ev {
                LinkEv::Send { to, key, seq, bytes } => RawKind::LinkSend {
                    to: t.sym_of_str(&mut hot.vals, to),
                    key: t.sym_of_str(&mut hot.vals, key),
                    seq,
                    bytes,
                },
                LinkEv::Retry { to, seq, attempt } => RawKind::LinkRetry {
                    to: t.sym_of_str(&mut hot.vals, to),
                    seq,
                    attempt,
                },
                LinkEv::Drop { to, seq } => {
                    RawKind::LinkDrop { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Dup { to, seq } => {
                    RawKind::LinkDup { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Partition { to, seq } => {
                    RawKind::LinkPartition { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Dedup { from, seq } => {
                    RawKind::LinkDedup { from: t.sym_of_str(&mut hot.vals, from), seq }
                }
                LinkEv::Fenced { from, seq } => {
                    RawKind::LinkFenced { from: t.sym_of_str(&mut hot.vals, from), seq }
                }
                LinkEv::Shed { to, seq } => {
                    RawKind::LinkShed { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::QueueFull { to, seq } => {
                    RawKind::LinkQueueFull { to: t.sym_of_str(&mut hot.vals, to), seq }
                }
                LinkEv::Heartbeat { to } => {
                    RawKind::LinkHeartbeat { to: t.sym_of_str(&mut hot.vals, to) }
                }
            };
            t.push_raw(hot, inst, junc, epoch, kind);
        });
    }

    /// Resolve a payload string to its symbol through the by-value
    /// memo: FNV hash + no lock on a hit, intern-and-cache on a miss.
    #[inline]
    fn sym_of_str(
        &self,
        vals: &mut std::collections::HashMap<Box<str>, u32, BuildFnv>,
        s: &str,
    ) -> u32 {
        if let Some(&sym) = vals.get(s) {
            return sym;
        }
        let sym = self.intern(s);
        if vals.len() >= 256 {
            vals.clear();
        }
        vals.insert(Box::from(s), sym);
        sym
    }

    /// Lower a public [`TraceKind`] to the ring's all-symbol
    /// [`RawKind`], interning every string payload.
    fn raw_kind(
        &self,
        vals: &mut std::collections::HashMap<Box<str>, u32, BuildFnv>,
        kind: TraceKind,
    ) -> RawKind {
        match kind {
            TraceKind::Sched => RawKind::Sched,
            TraceKind::Unsched { ok } => RawKind::Unsched { ok },
            TraceKind::Kv(ev) => RawKind::Kv(match ev {
                TableEvent::LocalWrite { key, op } => {
                    RawKv::LocalWrite { key: self.sym_of_str(vals, &key), op }
                }
                TableEvent::Deliver { key, from, link_seq, op, applied, during_run } => {
                    RawKv::Deliver {
                        key: self.sym_of_str(vals, &key),
                        from: self.sym_of_str(vals, &from),
                        link_seq,
                        op,
                        applied,
                        during_run,
                    }
                }
                TableEvent::FlushApply { key, from, link_seq, op, during_run } => {
                    RawKv::FlushApply {
                        key: self.sym_of_str(vals, &key),
                        from: self.sym_of_str(vals, &from),
                        link_seq,
                        op,
                        during_run,
                    }
                }
                TableEvent::ShadowDrop { key, from, link_seq, op, lop, during_run } => {
                    RawKv::ShadowDrop {
                        key: self.sym_of_str(vals, &key),
                        from: self.sym_of_str(vals, &from),
                        link_seq,
                        op,
                        lop,
                        during_run,
                    }
                }
                TableEvent::RetroApply { key, from, link_seq, op } => RawKv::RetroApply {
                    key: self.sym_of_str(vals, &key),
                    from: self.sym_of_str(vals, &from),
                    link_seq,
                    op,
                },
                TableEvent::WindowOpen { token, wop, keys } => RawKv::WindowOpen {
                    token,
                    wop,
                    keys: keys.iter().map(|k| self.sym_of_str(vals, k)).collect(),
                },
                TableEvent::WindowClose { token } => RawKv::WindowClose { token },
                TableEvent::KeepDrop { key, from, link_seq } => RawKv::KeepDrop {
                    key: self.sym_of_str(vals, &key),
                    from: self.sym_of_str(vals, &from),
                    link_seq,
                },
            }),
            TraceKind::LinkSend { to, key, seq, bytes } => RawKind::LinkSend {
                to: self.sym_of_str(vals, &to),
                key: self.sym_of_str(vals, &key),
                seq,
                bytes,
            },
            TraceKind::LinkRetry { to, seq, attempt } => {
                RawKind::LinkRetry { to: self.sym_of_str(vals, &to), seq, attempt }
            }
            TraceKind::LinkDrop { to, seq } => {
                RawKind::LinkDrop { to: self.sym_of_str(vals, &to), seq }
            }
            TraceKind::LinkDup { to, seq } => {
                RawKind::LinkDup { to: self.sym_of_str(vals, &to), seq }
            }
            TraceKind::LinkPartition { to, seq } => {
                RawKind::LinkPartition { to: self.sym_of_str(vals, &to), seq }
            }
            TraceKind::LinkDedup { from, seq } => {
                RawKind::LinkDedup { from: self.sym_of_str(vals, &from), seq }
            }
            TraceKind::LinkFenced { from, seq } => {
                RawKind::LinkFenced { from: self.sym_of_str(vals, &from), seq }
            }
            TraceKind::LinkShed { to, seq } => {
                RawKind::LinkShed { to: self.sym_of_str(vals, &to), seq }
            }
            TraceKind::LinkQueueFull { to, seq } => {
                RawKind::LinkQueueFull { to: self.sym_of_str(vals, &to), seq }
            }
            TraceKind::LinkHeartbeat { to } => {
                RawKind::LinkHeartbeat { to: self.sym_of_str(vals, &to) }
            }
            TraceKind::Crash => RawKind::Crash,
            TraceKind::Restart => RawKind::Restart,
            TraceKind::ReconfigPlan { footprint } => RawKind::ReconfigPlan { footprint },
            TraceKind::ReconfigQuiesce { paused_us } => RawKind::ReconfigQuiesce { paused_us },
            TraceKind::ReconfigMigrate { bytes } => RawKind::ReconfigMigrate { bytes },
            TraceKind::ReconfigCut => RawKind::ReconfigCut,
            TraceKind::ReconfigResume { flushed } => RawKind::ReconfigResume { flushed },
            TraceKind::ReconfigDone { bytes } => RawKind::ReconfigDone { bytes },
            TraceKind::RepairDetect { class, id } => {
                RawKind::RepairDetect { class: self.sym_of_str(vals, &class), id }
            }
            TraceKind::RepairPlan { action, id, rung } => {
                RawKind::RepairPlan { action: self.sym_of_str(vals, &action), id, rung }
            }
            TraceKind::RepairFence { epoch, id } => RawKind::RepairFence { epoch, id },
            TraceKind::RepairVerify { ok, id } => RawKind::RepairVerify { ok, id },
            TraceKind::RepairDone { id, mttr_us } => RawKind::RepairDone { id, mttr_us },
            TraceKind::RepairFailed { id } => RawKind::RepairFailed { id },
            TraceKind::RepairEscalate { rung, id } => RawKind::RepairEscalate { rung, id },
        }
    }

    /// The symbol for `name`, interning it on first sight. Symbol
    /// numbering is append-only, so a returned symbol stays valid for
    /// the tracer's lifetime.
    fn intern(&self, name: &str) -> u32 {
        let mut tab = self.syms.lock();
        if let Some(&sym) = tab.index.get(name) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(name);
        let sym = u32::try_from(tab.names.len()).expect("fewer than 2^32 distinct identities");
        tab.names.push(Arc::clone(&arc));
        tab.index.insert(arc, sym);
        sym
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
    fn with_hot<R>(&self, f: impl FnOnce(&Tracer, &mut Hot) -> R) -> R {
        LOCAL_BUFS.with(|cell| {
            let mut reg = cell.borrow_mut();
            if reg.hot.as_ref().is_none_or(|h| h.id != self.id) {
                let buf = self.local_buf(&mut reg.all);
                reg.hot = Some(Hot {
                    id: self.id,
                    buf,
                    syms: Vec::new(),
                    vals: std::collections::HashMap::default(),
                });
            }
            f(self, reg.hot.as_mut().expect("hot slot just set"))
        })
    }

    /// Stamp and stage one resolved event; flush the staging buffer to
    /// a shard when it reaches [`LOCAL_FLUSH`].
    #[inline]
    fn push_raw(&self, hot: &mut Hot, inst: u32, junc: u32, epoch: u64, kind: RawKind) {
        let ev = RawEvent {
            gsn: self.gsn.0.fetch_add(1, Ordering::Relaxed),
            at_us: self.stamp_us(),
            inst,
            junc,
            epoch,
            kind,
        };
        let mut events = hot.buf.events.lock();
        events.push(ev);
        if events.len() >= LOCAL_FLUSH {
            self.flush_local(&mut events);
        }
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
    fn flush_local(&self, events: &mut Vec<RawEvent>) {
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

    /// Drain all recorded events, sorted by `gsn`, with interned
    /// identity symbols resolved back to shared strings. Steals events
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
        let names = self.syms.lock().names.clone();
        all.into_iter()
            .map(|e| TraceEvent {
                gsn: e.gsn,
                at_us: e.at_us,
                instance: Arc::clone(&names[e.inst as usize]),
                junction: Arc::clone(&names[e.junc as usize]),
                epoch: e.epoch,
                kind: resolve_kind(&names, e.kind),
            })
            .collect()
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

/// Resolve a ring-format [`RawKind`] back into the public
/// [`TraceKind`]: shared-`Arc` for identity-flavoured fields, owned
/// `String`s where the public type demands them. Drain-time only.
fn resolve_kind(names: &[Arc<str>], kind: RawKind) -> TraceKind {
    let shared = |i: u32| Arc::clone(&names[i as usize]);
    let owned = |i: u32| names[i as usize].to_string();
    match kind {
        RawKind::Sched => TraceKind::Sched,
        RawKind::Unsched { ok } => TraceKind::Unsched { ok },
        RawKind::Kv(ev) => TraceKind::Kv(match ev {
            RawKv::LocalWrite { key, op } => TableEvent::LocalWrite { key: owned(key), op },
            RawKv::Deliver { key, from, link_seq, op, applied, during_run } => {
                TableEvent::Deliver {
                    key: owned(key),
                    from: owned(from),
                    link_seq,
                    op,
                    applied,
                    during_run,
                }
            }
            RawKv::FlushApply { key, from, link_seq, op, during_run } => TableEvent::FlushApply {
                key: owned(key),
                from: owned(from),
                link_seq,
                op,
                during_run,
            },
            RawKv::ShadowDrop { key, from, link_seq, op, lop, during_run } => {
                TableEvent::ShadowDrop {
                    key: owned(key),
                    from: owned(from),
                    link_seq,
                    op,
                    lop,
                    during_run,
                }
            }
            RawKv::RetroApply { key, from, link_seq, op } => {
                TableEvent::RetroApply { key: owned(key), from: owned(from), link_seq, op }
            }
            RawKv::WindowOpen { token, wop, keys } => TableEvent::WindowOpen {
                token,
                wop,
                keys: keys.into_iter().map(owned).collect(),
            },
            RawKv::WindowClose { token } => TableEvent::WindowClose { token },
            RawKv::KeepDrop { key, from, link_seq } => {
                TableEvent::KeepDrop { key: owned(key), from: owned(from), link_seq }
            }
        }),
        RawKind::LinkSend { to, key, seq, bytes } => {
            TraceKind::LinkSend { to: shared(to), key: owned(key), seq, bytes }
        }
        RawKind::LinkRetry { to, seq, attempt } => {
            TraceKind::LinkRetry { to: shared(to), seq, attempt }
        }
        RawKind::LinkDrop { to, seq } => TraceKind::LinkDrop { to: shared(to), seq },
        RawKind::LinkDup { to, seq } => TraceKind::LinkDup { to: shared(to), seq },
        RawKind::LinkPartition { to, seq } => TraceKind::LinkPartition { to: shared(to), seq },
        RawKind::LinkDedup { from, seq } => TraceKind::LinkDedup { from: shared(from), seq },
        RawKind::LinkFenced { from, seq } => TraceKind::LinkFenced { from: shared(from), seq },
        RawKind::LinkShed { to, seq } => TraceKind::LinkShed { to: shared(to), seq },
        RawKind::LinkQueueFull { to, seq } => TraceKind::LinkQueueFull { to: shared(to), seq },
        RawKind::LinkHeartbeat { to } => TraceKind::LinkHeartbeat { to: shared(to) },
        RawKind::Crash => TraceKind::Crash,
        RawKind::Restart => TraceKind::Restart,
        RawKind::ReconfigPlan { footprint } => TraceKind::ReconfigPlan { footprint },
        RawKind::ReconfigQuiesce { paused_us } => TraceKind::ReconfigQuiesce { paused_us },
        RawKind::ReconfigMigrate { bytes } => TraceKind::ReconfigMigrate { bytes },
        RawKind::ReconfigCut => TraceKind::ReconfigCut,
        RawKind::ReconfigResume { flushed } => TraceKind::ReconfigResume { flushed },
        RawKind::ReconfigDone { bytes } => TraceKind::ReconfigDone { bytes },
        RawKind::RepairDetect { class, id } => {
            TraceKind::RepairDetect { class: shared(class), id }
        }
        RawKind::RepairPlan { action, id, rung } => {
            TraceKind::RepairPlan { action: shared(action), id, rung }
        }
        RawKind::RepairFence { epoch, id } => TraceKind::RepairFence { epoch, id },
        RawKind::RepairVerify { ok, id } => TraceKind::RepairVerify { ok, id },
        RawKind::RepairDone { id, mttr_us } => TraceKind::RepairDone { id, mttr_us },
        RawKind::RepairFailed { id } => TraceKind::RepairFailed { id },
        RawKind::RepairEscalate { rung, id } => TraceKind::RepairEscalate { rung, id },
    }
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_str_field(out: &mut String, name: &str, value: &str) {
    out.push(',');
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    esc(value, out);
}

fn push_num_field(out: &mut String, name: &str, value: u64) {
    out.push(',');
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_bool_field(out: &mut String, name: &str, value: bool) {
    out.push(',');
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    out.push_str(if value { "true" } else { "false" });
}

/// Render one event as a single JSON line (no trailing newline).
pub fn to_json_line(e: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    s.push_str("{\"gsn\":");
    s.push_str(&e.gsn.to_string());
    push_num_field(&mut s, "us", e.at_us);
    push_str_field(&mut s, "i", &e.instance);
    push_str_field(&mut s, "j", &e.junction);
    push_num_field(&mut s, "ep", e.epoch);
    let kind = match &e.kind {
        TraceKind::Sched => "sched",
        TraceKind::Unsched { .. } => "unsched",
        TraceKind::Kv(ev) => match ev {
            TableEvent::LocalWrite { .. } => "kv_local_write",
            TableEvent::Deliver { .. } => "kv_deliver",
            TableEvent::FlushApply { .. } => "kv_flush_apply",
            TableEvent::ShadowDrop { .. } => "kv_shadow_drop",
            TableEvent::RetroApply { .. } => "kv_retro_apply",
            TableEvent::WindowOpen { .. } => "kv_window_open",
            TableEvent::WindowClose { .. } => "kv_window_close",
            TableEvent::KeepDrop { .. } => "kv_keep_drop",
        },
        TraceKind::LinkSend { .. } => "link_send",
        TraceKind::LinkRetry { .. } => "link_retry",
        TraceKind::LinkDrop { .. } => "link_drop",
        TraceKind::LinkDup { .. } => "link_dup",
        TraceKind::LinkPartition { .. } => "link_partition",
        TraceKind::LinkDedup { .. } => "link_dedup",
        TraceKind::LinkFenced { .. } => "link_fenced",
        TraceKind::LinkShed { .. } => "link_shed",
        TraceKind::LinkQueueFull { .. } => "link_queue_full",
        TraceKind::LinkHeartbeat { .. } => "link_hb",
        TraceKind::Crash => "crash",
        TraceKind::Restart => "restart",
        TraceKind::ReconfigPlan { .. } => "reconfig_plan",
        TraceKind::ReconfigQuiesce { .. } => "reconfig_quiesce",
        TraceKind::ReconfigMigrate { .. } => "reconfig_migrate",
        TraceKind::ReconfigCut => "reconfig_cut",
        TraceKind::ReconfigResume { .. } => "reconfig_resume",
        TraceKind::ReconfigDone { .. } => "reconfig_done",
        TraceKind::RepairDetect { .. } => "repair_detect",
        TraceKind::RepairPlan { .. } => "repair_plan",
        TraceKind::RepairFence { .. } => "repair_fence",
        TraceKind::RepairVerify { .. } => "repair_verify",
        TraceKind::RepairDone { .. } => "repair_done",
        TraceKind::RepairFailed { .. } => "repair_failed",
        TraceKind::RepairEscalate { .. } => "repair_escalate",
    };
    push_str_field(&mut s, "k", kind);
    match &e.kind {
        TraceKind::Sched | TraceKind::Crash | TraceKind::Restart | TraceKind::ReconfigCut => {}
        TraceKind::ReconfigPlan { footprint } => push_num_field(&mut s, "n", *footprint),
        TraceKind::ReconfigQuiesce { paused_us } => push_num_field(&mut s, "n", *paused_us),
        TraceKind::ReconfigMigrate { bytes } => push_num_field(&mut s, "n", *bytes),
        TraceKind::ReconfigResume { flushed } => push_num_field(&mut s, "n", *flushed),
        TraceKind::ReconfigDone { bytes } => push_num_field(&mut s, "n", *bytes),
        TraceKind::Unsched { ok } => push_bool_field(&mut s, "ok", *ok),
        TraceKind::Kv(ev) => match ev {
            TableEvent::LocalWrite { key, op } => {
                push_str_field(&mut s, "key", key);
                push_num_field(&mut s, "op", *op);
            }
            TableEvent::Deliver { key, from, link_seq, op, applied, during_run } => {
                push_str_field(&mut s, "key", key);
                push_str_field(&mut s, "from", from);
                push_num_field(&mut s, "seq", *link_seq);
                push_num_field(&mut s, "op", *op);
                push_bool_field(&mut s, "applied", *applied);
                push_bool_field(&mut s, "run", *during_run);
            }
            TableEvent::FlushApply { key, from, link_seq, op, during_run } => {
                push_str_field(&mut s, "key", key);
                push_str_field(&mut s, "from", from);
                push_num_field(&mut s, "seq", *link_seq);
                push_num_field(&mut s, "op", *op);
                push_bool_field(&mut s, "run", *during_run);
            }
            TableEvent::ShadowDrop { key, from, link_seq, op, lop, during_run } => {
                push_str_field(&mut s, "key", key);
                push_str_field(&mut s, "from", from);
                push_num_field(&mut s, "seq", *link_seq);
                push_num_field(&mut s, "op", *op);
                push_num_field(&mut s, "lop", *lop);
                push_bool_field(&mut s, "run", *during_run);
            }
            TableEvent::RetroApply { key, from, link_seq, op } => {
                push_str_field(&mut s, "key", key);
                push_str_field(&mut s, "from", from);
                push_num_field(&mut s, "seq", *link_seq);
                push_num_field(&mut s, "op", *op);
            }
            TableEvent::WindowOpen { token, wop, keys } => {
                push_num_field(&mut s, "tok", *token);
                push_num_field(&mut s, "wop", *wop);
                s.push_str(",\"keys\":[");
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    esc(k, &mut s);
                }
                s.push(']');
            }
            TableEvent::WindowClose { token } => push_num_field(&mut s, "tok", *token),
            TableEvent::KeepDrop { key, from, link_seq } => {
                push_str_field(&mut s, "key", key);
                push_str_field(&mut s, "from", from);
                push_num_field(&mut s, "seq", *link_seq);
            }
        },
        TraceKind::LinkSend { to, key, seq, bytes } => {
            push_str_field(&mut s, "to", to);
            push_str_field(&mut s, "key", key);
            push_num_field(&mut s, "seq", *seq);
            push_num_field(&mut s, "n", *bytes);
        }
        TraceKind::LinkRetry { to, seq, attempt } => {
            push_str_field(&mut s, "to", to);
            push_num_field(&mut s, "seq", *seq);
            push_num_field(&mut s, "n", *attempt);
        }
        TraceKind::LinkDrop { to, seq }
        | TraceKind::LinkDup { to, seq }
        | TraceKind::LinkPartition { to, seq }
        | TraceKind::LinkShed { to, seq }
        | TraceKind::LinkQueueFull { to, seq } => {
            push_str_field(&mut s, "to", to);
            push_num_field(&mut s, "seq", *seq);
        }
        TraceKind::LinkDedup { from, seq } | TraceKind::LinkFenced { from, seq } => {
            push_str_field(&mut s, "from", from);
            push_num_field(&mut s, "seq", *seq);
        }
        TraceKind::LinkHeartbeat { to } => push_str_field(&mut s, "to", to),
        TraceKind::RepairDetect { class, id } => {
            push_str_field(&mut s, "to", class);
            push_num_field(&mut s, "n", *id);
        }
        TraceKind::RepairPlan { action, id, rung } => {
            push_str_field(&mut s, "to", action);
            push_num_field(&mut s, "n", *id);
            push_num_field(&mut s, "seq", *rung);
        }
        TraceKind::RepairFence { epoch, id } => {
            push_num_field(&mut s, "seq", *epoch);
            push_num_field(&mut s, "n", *id);
        }
        TraceKind::RepairVerify { ok, id } => {
            push_bool_field(&mut s, "ok", *ok);
            push_num_field(&mut s, "n", *id);
        }
        TraceKind::RepairDone { id, mttr_us } => {
            push_num_field(&mut s, "n", *id);
            push_num_field(&mut s, "seq", *mttr_us);
        }
        TraceKind::RepairFailed { id } => push_num_field(&mut s, "n", *id),
        TraceKind::RepairEscalate { rung, id } => {
            push_num_field(&mut s, "seq", *rung);
            push_num_field(&mut s, "n", *id);
        }
    }
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

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

const HISTO_BUCKETS: usize = 32;

/// A log₂-bucketed histogram of microsecond observations.
pub struct Histogram {
    /// `buckets[i]` counts observations with `value < 2^i` µs (first
    /// bucket they fit, non-cumulative; cumulated at render time).
    buckets: [AtomicU64; HISTO_BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(HISTO_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (Prometheus *gauge*): the current
/// offered load, the live shard count, a cache's read fraction. Stored
/// as `f64` bits in an atomic so readers never tear; `add` is a CAS
/// loop, fine for low-rate writers (the autoscaler samples, it does
/// not spin).
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) to the gauge.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Named counters, gauges and histograms, renderable as a
/// Prometheus-style text snapshot. Handles returned by
/// [`Metrics::counter`] / [`Metrics::gauge`] / [`Metrics::histogram`]
/// are plain atomics — hot paths grab them once at construction time
/// and never touch the registry lock again.
pub struct Metrics {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or create a named counter. The name may end in Prometheus
    /// labels (`name{key="value"}`) to make one series of a family.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Get or create a named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get or create a named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Current value of a counter (0 if never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge (0.0 if never created).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.lock().get(name).map_or(0.0, |g| g.value())
    }

    /// Render every counter, gauge and histogram in Prometheus text
    /// format. Metric names get a `csaw_` prefix; histograms render
    /// cumulative `_bucket{le="..."}` series plus `_sum` (in seconds)
    /// and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        // A counter name may carry labels (`passes_total{junction="j"}`):
        // the series of one family sort together and share a TYPE line.
        let counters = self.counters.lock();
        let mut family = "";
        for (name, c) in counters.iter() {
            let base = name.split('{').next().unwrap_or(name);
            if base != family {
                out.push_str(&format!("# TYPE csaw_{base} counter\n"));
                family = base;
            }
            out.push_str(&format!("csaw_{name} {}\n", c.load(Ordering::Relaxed)));
        }
        for (name, g) in self.gauges.lock().iter() {
            out.push_str(&format!("# TYPE csaw_{name} gauge\n"));
            out.push_str(&format!("csaw_{name} {}\n", g.value()));
        }
        for (name, h) in self.histograms.lock().iter() {
            out.push_str(&format!("# TYPE csaw_{name} histogram\n"));
            let mut cumulative = 0u64;
            for i in 0..HISTO_BUCKETS {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                let le = 1u64 << i;
                out.push_str(&format!(
                    "csaw_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    le as f64 / 1_000_000.0
                ));
            }
            out.push_str(&format!(
                "csaw_{name}_bucket{{le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "csaw_{name}_sum {}\n",
                h.sum_us() as f64 / 1_000_000.0
            ));
            out.push_str(&format!("csaw_{name}_count {}\n", h.count()));
        }
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
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
                    t2.record(&format!("i{k}"), "j", 0, TraceKind::Sched);
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

    #[test]
    fn jsonl_escapes_and_renders_all_fields() {
        let e = TraceEvent {
            gsn: 7,
            at_us: 1234,
            instance: "f\"x".into(),
            junction: "serve".into(),
            epoch: 3,
            kind: TraceKind::Kv(TableEvent::Deliver {
                key: "Reply".into(),
                from: "g::run".into(),
                link_seq: 9,
                op: 12,
                applied: true,
                during_run: true,
            }),
        };
        let line = to_json_line(&e);
        assert!(line.starts_with("{\"gsn\":7,"));
        assert!(line.contains("\"i\":\"f\\\"x\""));
        assert!(line.contains("\"k\":\"kv_deliver\""));
        assert!(line.contains("\"applied\":true"));
        assert!(line.ends_with('}'));
        let w = TraceEvent {
            gsn: 8,
            at_us: 0,
            instance: "f".into(),
            junction: "serve".into(),
            epoch: 3,
            kind: TraceKind::Kv(TableEvent::WindowOpen {
                token: 0,
                wop: 5,
                keys: vec!["A".into(), "B".into()],
            }),
        };
        assert!(to_json_line(&w).contains("\"keys\":[\"A\",\"B\"]"));
    }

    #[test]
    fn metrics_render_prometheus_text() {
        let m = Metrics::new();
        m.counter("link_send_total").fetch_add(3, Ordering::Relaxed);
        m.counter("passes_total{junction=\"a\"}").fetch_add(1, Ordering::Relaxed);
        m.counter("passes_total{junction=\"b\"}").fetch_add(2, Ordering::Relaxed);
        let h = m.histogram("activation_duration");
        h.observe_us(3);
        h.observe_us(1000);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE csaw_link_send_total counter"));
        assert!(text.contains("csaw_link_send_total 3"));
        assert_eq!(text.matches("# TYPE csaw_passes_total counter\n").count(), 1);
        assert!(text.contains("csaw_passes_total{junction=\"b\"} 2\n"));
        assert!(text.contains("csaw_activation_duration_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert_eq!(m.counter_value("link_send_total"), 3);
        assert_eq!(m.counter_value("missing"), 0);
    }

    #[test]
    fn gauge_set_add_read() {
        let m = Metrics::new();
        let g = m.gauge("offered_rate");
        assert_eq!(g.value(), 0.0);
        g.set(125_000.0);
        assert_eq!(g.value(), 125_000.0);
        g.add(-25_000.0);
        assert_eq!(g.value(), 100_000.0);
        g.add(0.5);
        assert_eq!(m.gauge_value("offered_rate"), 100_000.5);
        assert_eq!(m.gauge_value("missing"), 0.0);
        // The handle and the registry see the same atomic.
        m.gauge("offered_rate").set(7.0);
        assert_eq!(g.value(), 7.0);
    }

    #[test]
    fn gauges_render_as_prometheus_gauges() {
        let m = Metrics::new();
        m.gauge("live_shards").set(4.0);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE csaw_live_shards gauge"));
        assert!(text.contains("csaw_live_shards 4"));
    }
}
