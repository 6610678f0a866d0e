//! One junction's key-value table.

use std::collections::VecDeque;

use csaw_core::intern::KeyId;
use csaw_core::names::{Sender, SetElem};
use csaw_core::value::Value;

/// The kind of a pushed update.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateKind {
    /// `assert [γ] P` — set a proposition true.
    Assert,
    /// `retract [γ] P` — set a proposition false.
    Retract,
    /// `write(n, γ)` — push a named datum.
    Data(Value),
}

/// A pushed update from another junction. Its names are interned, so
/// building, moving or dropping one allocates nothing beyond its value.
#[derive(Clone, Debug, PartialEq)]
pub struct Update {
    /// Target key (proposition key or datum name).
    pub key: KeyId,
    /// What to do.
    pub kind: UpdateKind,
    /// The sending junction (`instance::junction`), whose instance is
    /// the scope at which the transport sequences and dedups.
    pub from: Sender,
    /// Per-link sequence number assigned by the transport for
    /// receiver-side deduplication of retried/duplicated deliveries.
    /// `0` means unsequenced (local or test delivery): never deduped.
    pub seq: u64,
}

impl Update {
    /// Convenience constructor for an assertion.
    pub fn assert(key: impl Into<KeyId>, from: impl Into<Sender>) -> Update {
        Update { key: key.into(), kind: UpdateKind::Assert, from: from.into(), seq: 0 }
    }
    /// Convenience constructor for a retraction.
    pub fn retract(key: impl Into<KeyId>, from: impl Into<Sender>) -> Update {
        Update { key: key.into(), kind: UpdateKind::Retract, from: from.into(), seq: 0 }
    }
    /// Convenience constructor for a data write.
    pub fn data(key: impl Into<KeyId>, value: Value, from: impl Into<Sender>) -> Update {
        Update { key: key.into(), kind: UpdateKind::Data(value), from: from.into(), seq: 0 }
    }
}

/// Errors raised by table operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    /// The key does not exist in this table.
    NoSuchKey(String),
    /// Attempt to read (`restore`) or transmit (`write`) `undef` (§6).
    Undef(String),
    /// A subset/idx value was not valid relative to its base set — the
    /// "contract with the host language" of §6.
    InvalidIndex { name: String, value: String },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::NoSuchKey(k) => write!(f, "no such key `{k}`"),
            TableError::Undef(k) => write!(f, "`{k}` is undef"),
            TableError::InvalidIndex { name, value } => {
                write!(f, "`{value}` is not a valid value for index/subset `{name}`")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Outcome of delivering an update to a table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Applied immediately (junction idle is *not* immediate — this only
    /// happens inside an open `wait` window).
    AppliedNow,
    /// Queued; will apply at the next scheduling.
    Queued,
}

/// A structured observation of one table mutation, emitted to the
/// installed [`TableObserver`]. The sequence numbers are the table's
/// own operation counter at the event (`op`), the op of the latest
/// local write to the key (`lop`), and the op at window-open time
/// (`wop`) — exactly the quantities the §8 local-priority update rule
/// is stated over, so a recorded trace can be re-checked against the
/// formal rule (see `csaw-semantics::conformance`).
///
/// `S` is the string payload: the table emits the interned texts of
/// its keys and senders (`&'static str`), and a consumer maps them to
/// whatever it keeps.
#[derive(Clone, Debug, PartialEq)]
pub enum TableEvent<S> {
    /// `save` / local `assert`/`retract`: the key now shadows older
    /// arrivals within this activation.
    LocalWrite {
        /// Written key.
        key: S,
        /// Table operation sequence of the write.
        op: u64,
    },
    /// A remote update reached the table: applied immediately (an open
    /// window admitted it) or queued for the next scheduling.
    Deliver {
        /// Target key.
        key: S,
        /// Fully-qualified sender junction.
        from: S,
        /// Transport per-link sequence number (0 = unsequenced).
        link_seq: u64,
        /// Table operation sequence at arrival.
        op: u64,
        /// Whether an open window applied it immediately.
        applied: bool,
        /// Whether the junction was executing at arrival.
        during_run: bool,
    },
    /// A queued update applied at scheduling time.
    FlushApply {
        /// Target key.
        key: S,
        /// Fully-qualified sender junction.
        from: S,
        /// Transport per-link sequence number (0 = unsequenced).
        link_seq: u64,
        /// Table operation sequence at arrival.
        op: u64,
        /// Whether the junction was executing at arrival.
        during_run: bool,
    },
    /// A queued update dropped by local priority ("local updates have
    /// priority", §8): it arrived during a run and a later local write
    /// (`lop > op`) shadowed it.
    ShadowDrop {
        /// Target key.
        key: S,
        /// Fully-qualified sender junction.
        from: S,
        /// Transport per-link sequence number (0 = unsequenced).
        link_seq: u64,
        /// Table operation sequence at arrival.
        op: u64,
        /// Operation sequence of the shadowing local write.
        lop: u64,
        /// Whether the junction was executing at arrival (always true
        /// for a shadow drop).
        during_run: bool,
    },
    /// A queued update applied retroactively by an opening window
    /// (it arrived after the latest local write to its key).
    RetroApply {
        /// Target key.
        key: S,
        /// Fully-qualified sender junction.
        from: S,
        /// Transport per-link sequence number (0 = unsequenced).
        link_seq: u64,
        /// Table operation sequence at arrival.
        op: u64,
    },
    /// A `wait` window opened admitting `keys`.
    WindowOpen {
        /// Window token (per-table).
        token: u64,
        /// Operation sequence at open time.
        wop: u64,
        /// Admitted keys.
        keys: Vec<S>,
    },
    /// A `wait` window closed (explicitly or at end of activation).
    WindowClose {
        /// Window token.
        token: u64,
    },
    /// `keep` discarded a queued update.
    KeepDrop {
        /// Target key.
        key: S,
        /// Fully-qualified sender junction.
        from: S,
        /// Transport per-link sequence number (0 = unsequenced).
        link_seq: u64,
    },
}

impl<S> TableEvent<S> {
    /// The same event with every string payload passed through `f`, in
    /// declaration order.
    pub fn map<T>(self, mut f: impl FnMut(S) -> T) -> TableEvent<T> {
        use TableEvent::*;
        match self {
            LocalWrite { key, op } => LocalWrite { key: f(key), op },
            Deliver { key, from, link_seq, op, applied, during_run } => {
                Deliver { key: f(key), from: f(from), link_seq, op, applied, during_run }
            }
            FlushApply { key, from, link_seq, op, during_run } => {
                FlushApply { key: f(key), from: f(from), link_seq, op, during_run }
            }
            ShadowDrop { key, from, link_seq, op, lop, during_run } => {
                ShadowDrop { key: f(key), from: f(from), link_seq, op, lop, during_run }
            }
            RetroApply { key, from, link_seq, op } => {
                RetroApply { key: f(key), from: f(from), link_seq, op }
            }
            WindowOpen { token, wop, keys } => {
                WindowOpen { token, wop, keys: keys.into_iter().map(f).collect() }
            }
            WindowClose { token } => WindowClose { token },
            KeepDrop { key, from, link_seq } => KeepDrop { key: f(key), from: f(from), link_seq },
        }
    }
}

/// Observer installed by the runtime to stream [`TableEvent`]s into its
/// trace layer. `enabled` is consulted before an event is even built,
/// so an installed-but-disabled observer costs one branch per mutation.
pub trait TableObserver: Send + Sync {
    /// Cheap gate checked before constructing an event.
    fn enabled(&self) -> bool {
        true
    }
    /// Receive one event, with the table's current epoch. The strings
    /// are interned texts, which live for the process.
    fn on_event(&self, epoch: u64, event: TableEvent<&'static str>);
}

/// `Table` derives `Debug`; the observer slot has no useful rendering.
#[derive(Clone, Default)]
struct ObserverSlot(Option<std::sync::Arc<dyn TableObserver>>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverSlot(set)"
        } else {
            "ObserverSlot(none)"
        })
    }
}

#[derive(Clone, Debug)]
struct Pending {
    update: Update,
    /// Whether the junction was executing when it arrived.
    during_run: bool,
    /// Global operation sequence number at arrival, for ordering against
    /// local writes within an activation.
    seq: u64,
}

/// One queued update in an exported [`TableState`].
#[derive(Clone, Debug, PartialEq)]
pub struct PendingState {
    /// The queued update itself.
    pub update: Update,
    /// Whether the junction was executing when it arrived.
    pub during_run: bool,
    /// Table operation sequence at arrival.
    pub seq: u64,
}

/// The complete exported state of a table, for live reconfiguration.
///
/// `TableState` carries everything the §8 update rule is stated over:
/// the pending queue, the per-key local-write shadows
/// (`locally_written`), the operation counter, the activation epoch and
/// the window-token counter. Importing an exported state therefore
/// resumes the table exactly where it left off — a queued update that
/// would have been shadow-dropped before export is still shadow-dropped
/// after import.
///
/// Collections are sorted vectors rather than maps so the exported
/// state has a canonical form (stable encoding, comparable in tests).
#[derive(Clone, Debug, PartialEq)]
pub struct TableState {
    /// Propositions and their values, sorted by key.
    pub props: Vec<(String, bool)>,
    /// Data entries (including `undef`), sorted by key.
    pub data: Vec<(String, Value)>,
    /// Subsets: (name, base set, current value), sorted by name.
    pub subsets: Vec<(String, Vec<SetElem>, Option<Vec<SetElem>>)>,
    /// Indexes: (name, base set, current value), sorted by name.
    pub idxs: Vec<(String, Vec<SetElem>, Option<String>)>,
    /// The pending update queue, in arrival order.
    pub pending: Vec<PendingState>,
    /// Activation epoch at export.
    pub epoch: u64,
    /// Per-key (epoch, op-seq) of the latest local write, sorted by key.
    pub locally_written: Vec<(String, u64, u64)>,
    /// Operation counter at export.
    pub op_seq: u64,
    /// Next `wait` window token.
    pub next_window: u64,
}

/// One open `wait` window.
#[derive(Clone, Debug)]
struct Window {
    token: u64,
    /// The admitted keys, in a buffer recycled through
    /// `Table::spare_keys` once the window closes.
    keys: Vec<KeyId>,
    /// Operation sequence at open time. A remote update may apply
    /// through this window only when no local write to its key happened
    /// at or after the open (`lop < wop`): the window admits replies
    /// the peer produced in reaction to state we exposed *before*
    /// opening it, but a local write after the open re-takes priority
    /// (§8) and a raced remote update queues instead.
    wop: u64,
}

/// Everything a table holds under one key. Propositions, data, subsets
/// and `idx` cursors are separate namespaces, so a key may hold several.
#[derive(Clone, Debug)]
struct Entry {
    key: KeyId,
    /// The proposition's slot in `Table::prop_values`.
    prop: Option<usize>,
    /// The datum (`Value::Undef` once declared).
    data: Option<Value>,
    /// (epoch, op-sequence) of the most recent local write.
    written: Option<(u64, u64)>,
    /// A subset's base set and current value.
    subset: Option<(Vec<SetElem>, Option<Vec<SetElem>>)>,
    /// An `idx`'s base set and current element key.
    idx: Option<(Vec<SetElem>, Option<String>)>,
}

impl Entry {
    fn new(key: KeyId) -> Entry {
        Entry { key, prop: None, data: None, written: None, subset: None, idx: None }
    }
}

/// A [`Table::slots`] value for a key the table has no entry for.
const NO_ENTRY: u32 = u32::MAX;

/// One junction's key-value table.
///
/// All mutation of *visible* state goes through `set_*_local` (local
/// operations: `save`, local `assert`/`retract`) or [`Table::deliver`]
/// (remote pushes). The runtime brackets junction activations with
/// [`Table::begin_activation`] / [`Table::end_activation`].
///
/// Keys are [`KeyId`]s: a lookup indexes a `Vec` by the key's id, and a
/// window's admission check compares integers. Every method taking a key
/// also takes its text, interned on the way in (one interner lookup).
#[derive(Debug)]
pub struct Table {
    /// Key id → its entry in `entries` (`NO_ENTRY`: none). An entry is
    /// made when the table first sees the key — a declaration, or a
    /// delivery to an undeclared key — and lives as long as the table.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    /// Every proposition's value, by slot. Propositions are only ever
    /// added, so a slot keeps naming the same key (see
    /// [`Table::prop_values`]).
    prop_values: Vec<bool>,
    pending: VecDeque<Pending>,
    epoch: u64,
    running: bool,
    /// Monotonic operation counter ordering local writes vs deliveries.
    op_seq: u64,
    /// Keys currently admitted by active `wait`s. Multiple windows may be
    /// open at once: parallel composition can run several `wait`s in one
    /// activation (Fig. 13's back-end fan-out).
    windows: Vec<Window>,
    /// Key buffers of closed windows, for the next ones to reuse.
    spare_keys: Vec<Vec<KeyId>>,
    next_window: u64,
    observer: ObserverSlot,
}

impl Table {
    /// Create an empty table.
    pub fn new() -> Table {
        Table {
            slots: Vec::new(),
            entries: Vec::new(),
            prop_values: Vec::new(),
            pending: VecDeque::new(),
            epoch: 0,
            running: false,
            op_seq: 0,
            windows: Vec::new(),
            spare_keys: Vec::new(),
            next_window: 0,
            observer: ObserverSlot(None),
        }
    }

    /// Install the runtime's event observer (trace layer).
    pub fn set_observer(&mut self, observer: std::sync::Arc<dyn TableObserver>) {
        self.observer = ObserverSlot(Some(observer));
    }

    #[inline]
    fn emit(&self, build: impl FnOnce() -> TableEvent<&'static str>) {
        if let Some(o) = &self.observer.0 {
            if o.enabled() {
                o.on_event(self.epoch, build());
            }
        }
    }

    fn entry(&self, key: KeyId) -> Option<&Entry> {
        let at = *self.slots.get(key.index())?;
        self.entries.get(at as usize)
    }

    fn entry_mut(&mut self, key: KeyId) -> Option<&mut Entry> {
        let at = *self.slots.get(key.index())?;
        self.entries.get_mut(at as usize)
    }

    /// The position of `key`'s entry, made if new.
    fn entry_at(&mut self, key: KeyId) -> usize {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, NO_ENTRY);
        }
        if self.slots[i] == NO_ENTRY {
            self.slots[i] = u32::try_from(self.entries.len()).expect("fewer than 2^32 keys");
            self.entries.push(Entry::new(key));
        }
        self.slots[i] as usize
    }

    fn entry_or_insert(&mut self, key: KeyId) -> &mut Entry {
        let at = self.entry_at(key);
        &mut self.entries[at]
    }

    /// Declare a proposition with its initial value.
    pub fn declare_prop(&mut self, key: impl Into<KeyId>, init: bool) {
        self.put_prop(key.into(), init);
    }

    /// Set a proposition, adding it if new.
    fn put_prop(&mut self, key: KeyId, value: bool) {
        let at = self.entry_at(key);
        match self.entries[at].prop {
            Some(slot) => self.prop_values[slot] = value,
            None => {
                self.entries[at].prop = Some(self.prop_values.len());
                self.prop_values.push(value);
            }
        }
    }

    /// Declare a datum (initialized to `undef`).
    pub fn declare_data(&mut self, key: impl Into<KeyId>) {
        self.entry_or_insert(key.into()).data = Some(Value::Undef);
    }

    /// Declare a subset over the given base set (initialized to `undef`).
    pub fn declare_subset(&mut self, name: impl Into<KeyId>, base: Vec<SetElem>) {
        self.entry_or_insert(name.into()).subset = Some((base, None));
    }

    /// Declare an index over the given base set (initialized to `undef`).
    pub fn declare_idx(&mut self, name: impl Into<KeyId>, base: Vec<SetElem>) {
        self.entry_or_insert(name.into()).idx = Some((base, None));
    }

    /// Current epoch (activation counter).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the junction is currently executing.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Start an activation: apply pending updates ("updates are not made
    /// to the table until the junction is next scheduled"), then mark the
    /// junction running under a fresh epoch.
    pub fn begin_activation(&mut self) {
        self.flush_pending();
        self.epoch += 1;
        self.running = true;
    }

    /// End the activation.
    pub fn end_activation(&mut self) {
        self.running = false;
        let mut windows = std::mem::take(&mut self.windows);
        for w in windows.drain(..) {
            self.emit(|| TableEvent::WindowClose { token: w.token });
            self.recycle(w.keys);
        }
        self.windows = windows;
    }

    /// The op-sequence of the latest local write to `key`, if any.
    fn lop(&self, key: KeyId) -> Option<u64> {
        self.entry(key).and_then(|e| e.written).map(|(_, s)| s)
    }

    /// Apply all eligible pending updates. An update that arrived at a
    /// running junction and was *followed* by a local write to the same
    /// key is dropped ("local updates have priority", §8) — the op
    /// sequence orders the local write against the arrival, so a remote
    /// reply that arrived after our last local write still applies.
    pub fn flush_pending(&mut self) {
        // Drained in place, so the queue keeps its buffer.
        let mut pending = std::mem::take(&mut self.pending);
        for p in pending.drain(..) {
            let lop = self.lop(p.update.key);
            let shadowed = p.during_run && lop.is_some_and(|s| s > p.seq);
            if shadowed {
                self.emit(|| TableEvent::ShadowDrop {
                    key: p.update.key.as_str(),
                    from: p.update.from.as_str(),
                    link_seq: p.update.seq,
                    op: p.seq,
                    lop: lop.unwrap_or(0),
                    during_run: p.during_run,
                });
            } else {
                self.apply(&p.update);
                self.emit(|| TableEvent::FlushApply {
                    key: p.update.key.as_str(),
                    from: p.update.from.as_str(),
                    link_seq: p.update.seq,
                    op: p.seq,
                    during_run: p.during_run,
                });
            }
        }
        self.pending = pending;
    }

    fn apply(&mut self, u: &Update) {
        match &u.kind {
            UpdateKind::Assert => self.put_prop(u.key, true),
            UpdateKind::Retract => self.put_prop(u.key, false),
            UpdateKind::Data(v) => self.entry_or_insert(u.key).data = Some(v.clone()),
        }
    }

    /// Deliver a remote update. Applies immediately only when the key is
    /// admitted by an open `wait` window *and* no local write to the key
    /// happened since that window opened — the same seq comparison
    /// [`Table::open_window`] makes for retroactive application. A
    /// remote update that raced behind a local write queues instead of
    /// clobbering it ("local updates have priority", §8) and applies at
    /// the next scheduling under the ordinary flush rule.
    pub fn deliver(&mut self, update: Update) -> Delivery {
        self.op_seq += 1;
        let op = self.op_seq;
        let admitted = !self.windows.is_empty() && {
            let lop = self.lop(update.key);
            self.windows
                .iter()
                .any(|w| w.keys.contains(&update.key) && lop.is_none_or(|s| s < w.wop))
        };
        self.emit(|| TableEvent::Deliver {
            key: update.key.as_str(),
            from: update.from.as_str(),
            link_seq: update.seq,
            op,
            applied: admitted,
            during_run: self.running,
        });
        if admitted {
            self.apply(&update);
            return Delivery::AppliedNow;
        }
        self.pending.push_back(Pending {
            update,
            during_run: self.running,
            seq: op,
        });
        Delivery::Queued
    }

    /// A key buffer for a window or a `keep`, filled with `keys`.
    fn key_buffer<K: Into<KeyId>>(&mut self, keys: impl IntoIterator<Item = K>) -> Vec<KeyId> {
        let mut buf = self.spare_keys.pop().unwrap_or_default();
        buf.extend(keys.into_iter().map(Into::into));
        buf
    }

    fn recycle(&mut self, mut keys: Vec<KeyId>) {
        keys.clear();
        self.spare_keys.push(keys);
    }

    /// Open a `wait` window admitting the given keys; returns a token for
    /// [`Table::close_window`]. The keys are copied into a buffer an
    /// earlier window left behind, so a warm open allocates nothing.
    ///
    /// Pending updates to the window's keys that arrived *after* the most
    /// recent local write to that key are applied retroactively: `wait`
    /// "allows for specific records in the KV table to be updated by
    /// another instance" even when the reply raced ahead of the `wait`
    /// itself (the remote peer can only have reacted to our local write,
    /// so such updates are causally newer).
    pub fn open_window<K: Into<KeyId>>(&mut self, keys: impl IntoIterator<Item = K>) -> u64 {
        let keys = self.key_buffer(keys);
        let token = self.next_window;
        self.next_window += 1;
        self.op_seq += 1;
        let wop = self.op_seq;
        self.emit(|| TableEvent::WindowOpen {
            token,
            wop,
            keys: keys.iter().map(|k| k.as_str()).collect(),
        });
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|p| {
            let in_window = keys.contains(&p.update.key);
            let newer_than_local = self.lop(p.update.key).is_none_or(|s| p.seq > s);
            if in_window && newer_than_local {
                self.apply(&p.update);
                self.emit(|| TableEvent::RetroApply {
                    key: p.update.key.as_str(),
                    from: p.update.from.as_str(),
                    link_seq: p.update.seq,
                    op: p.seq,
                });
            }
            !(in_window && newer_than_local)
        });
        self.pending = pending;
        self.windows.push(Window { token, keys, wop });
        token
    }

    /// Close one `wait` window.
    pub fn close_window(&mut self, token: u64) {
        if let Some(at) = self.windows.iter().position(|w| w.token == token) {
            let w = self.windows.remove(at);
            self.recycle(w.keys);
            self.emit(|| TableEvent::WindowClose { token });
        }
    }

    /// `keep`: discard pending updates for the given keys. Idempotent.
    pub fn keep<K: Into<KeyId>>(&mut self, keys: impl IntoIterator<Item = K>) {
        let keys = self.key_buffer(keys);
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|p| {
            let dropped = keys.contains(&p.update.key);
            if dropped {
                self.emit(|| TableEvent::KeepDrop {
                    key: p.update.key.as_str(),
                    from: p.update.from.as_str(),
                    link_seq: p.update.seq,
                });
            }
            !dropped
        });
        self.pending = pending;
        self.recycle(keys);
    }

    /// Read a proposition.
    pub fn prop(&self, key: impl Into<KeyId>) -> Option<bool> {
        let slot = self.entry(key.into())?.prop?;
        Some(self.prop_values[slot])
    }

    /// Locally set a proposition (`assert []`/`retract []`); returns the
    /// value it replaced. Local writes are visible immediately and shadow
    /// pending remote updates.
    pub fn set_prop_local(
        &mut self,
        key: impl Into<KeyId>,
        value: bool,
    ) -> Result<bool, TableError> {
        let key = key.into();
        let Some(slot) = self.entry(key).and_then(|e| e.prop) else {
            return Err(TableError::NoSuchKey(key.to_string()));
        };
        let old = std::mem::replace(&mut self.prop_values[slot], value);
        self.note_local_write(key);
        Ok(old)
    }

    /// Record a local write to a declared key: it now shadows older
    /// arrivals (§8).
    fn note_local_write(&mut self, key: KeyId) {
        self.op_seq += 1;
        let mark = (self.epoch, self.op_seq);
        self.entry_or_insert(key).written = Some(mark);
        self.emit(|| TableEvent::LocalWrite { key: key.as_str(), op: mark.1 });
    }

    /// Read a datum.
    pub fn data(&self, key: impl Into<KeyId>) -> Option<&Value> {
        self.entry(key.into())?.data.as_ref()
    }

    /// Read a datum for `restore`/`write`: errors on missing or `undef`.
    pub fn data_defined(&self, key: impl Into<KeyId>) -> Result<&Value, TableError> {
        let key = key.into();
        match self.data(key) {
            None => Err(TableError::NoSuchKey(key.to_string())),
            Some(Value::Undef) => Err(TableError::Undef(key.to_string())),
            Some(v) => Ok(v),
        }
    }

    /// Locally set a datum (`save`).
    pub fn set_data_local(
        &mut self,
        key: impl Into<KeyId>,
        value: Value,
    ) -> Result<(), TableError> {
        let key = key.into();
        let Some(slot) = self.entry_mut(key).and_then(|e| e.data.as_mut()) else {
            return Err(TableError::NoSuchKey(key.to_string()));
        };
        *slot = value;
        self.note_local_write(key);
        Ok(())
    }

    /// Set a subset's value; each element must belong to the base set
    /// (the §6 host-language contract).
    pub fn set_subset(
        &mut self,
        name: impl Into<KeyId>,
        elems: Vec<SetElem>,
    ) -> Result<(), TableError> {
        let name = name.into();
        let Some((base, value)) = self.entry_mut(name).and_then(|e| e.subset.as_mut()) else {
            return Err(TableError::NoSuchKey(name.to_string()));
        };
        if let Some(e) = elems.iter().find(|e| !base.contains(e)) {
            return Err(TableError::InvalidIndex {
                name: name.to_string(),
                value: e.key(),
            });
        }
        *value = Some(elems);
        Ok(())
    }

    /// Membership test; `None` while the subset is `undef`.
    pub fn subset_contains(&self, name: impl Into<KeyId>, elem_key: &str) -> Option<bool> {
        let (_, value) = self.entry(name.into())?.subset.as_ref()?;
        value.as_ref().map(|elems| elems.iter().any(|e| e.has_key(elem_key)))
    }

    /// Set an index's value; must belong to the base set.
    pub fn set_idx(&mut self, name: impl Into<KeyId>, elem_key: &str) -> Result<(), TableError> {
        let name = name.into();
        let Some((base, cur)) = self.entry_mut(name).and_then(|e| e.idx.as_mut()) else {
            return Err(TableError::NoSuchKey(name.to_string()));
        };
        if !base.iter().any(|e| e.has_key(elem_key)) {
            return Err(TableError::InvalidIndex {
                name: name.to_string(),
                value: elem_key.to_string(),
            });
        }
        match cur {
            Some(cur) => {
                cur.clear();
                cur.push_str(elem_key);
            }
            None => *cur = Some(elem_key.to_string()),
        }
        Ok(())
    }

    /// Read an index's current value (element key), if defined.
    pub fn idx(&self, name: impl Into<KeyId>) -> Option<&str> {
        self.entry(name.into())?.idx.as_ref()?.1.as_deref()
    }

    /// Base set of a declared index.
    pub fn idx_base(&self, name: impl Into<KeyId>) -> Option<&[SetElem]> {
        Some(&self.entry(name.into())?.idx.as_ref()?.0)
    }

    /// Base set of a declared subset.
    pub fn subset_base(&self, name: impl Into<KeyId>) -> Option<&[SetElem]> {
        Some(&self.entry(name.into())?.subset.as_ref()?.0)
    }

    /// Whether a key names a declared proposition.
    pub fn has_prop(&self, key: impl Into<KeyId>) -> bool {
        self.entry(key.into()).is_some_and(|e| e.prop.is_some())
    }

    /// Whether a key names a declared datum.
    pub fn has_data(&self, key: impl Into<KeyId>) -> bool {
        self.entry(key.into()).is_some_and(|e| e.data.is_some())
    }

    /// Number of queued (pending) updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Every proposition's value, by slot. A slot keeps naming the same
    /// key until [`Table::import_state`] replaces the table, so two reads
    /// are equal exactly when no proposition was added or changed value
    /// between them — what `reconsider` asks.
    pub fn prop_values(&self) -> &[bool] {
        &self.prop_values
    }

    /// Export the complete table state for migration. Meant to be taken
    /// at quiescence (no activation running, all windows closed); open
    /// windows do not survive an export. Keys are texts, sorted, so the
    /// export does not depend on interning order.
    pub fn export_state(&self) -> TableState {
        fn sorted<T>(entries: &[Entry], part: impl Fn(&Entry) -> Option<T>) -> Vec<(String, T)> {
            let mut v: Vec<_> =
                entries.iter().filter_map(|e| part(e).map(|t| (e.key.to_string(), t))).collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        }
        let props = sorted(&self.entries, |e| Some(self.prop_values[e.prop?]));
        let data = sorted(&self.entries, |e| e.data.clone());
        let subsets = sorted(&self.entries, |e| e.subset.clone());
        let idxs = sorted(&self.entries, |e| e.idx.clone());
        let written = sorted(&self.entries, |e| e.written);
        TableState {
            props,
            data,
            subsets: subsets.into_iter().map(|(k, (b, v))| (k, b, v)).collect(),
            idxs: idxs.into_iter().map(|(k, (b, v))| (k, b, v)).collect(),
            pending: self
                .pending
                .iter()
                .map(|p| PendingState {
                    update: p.update.clone(),
                    during_run: p.during_run,
                    seq: p.seq,
                })
                .collect(),
            epoch: self.epoch,
            locally_written: written.into_iter().map(|(k, (e, s))| (k, e, s)).collect(),
            op_seq: self.op_seq,
            next_window: self.next_window,
        }
    }

    /// Import a previously exported state, replacing this table's state
    /// wholesale — declarations included. The inverse of
    /// [`Table::export_state`]: entries, the pending queue, the seq
    /// counters and the local-priority shadows all resume exactly where
    /// the export left them. The observer slot is untouched.
    pub fn import_state(&mut self, state: TableState) {
        self.slots.clear();
        self.entries.clear();
        self.prop_values.clear();
        for (key, value) in state.props {
            self.put_prop(KeyId::new(&key), value);
        }
        for (key, value) in state.data {
            self.entry_or_insert(KeyId::new(&key)).data = Some(value);
        }
        for (name, base, value) in state.subsets {
            self.entry_or_insert(KeyId::new(&name)).subset = Some((base, value));
        }
        for (name, base, value) in state.idxs {
            self.entry_or_insert(KeyId::new(&name)).idx = Some((base, value));
        }
        for (key, epoch, op) in state.locally_written {
            self.entry_or_insert(KeyId::new(&key)).written = Some((epoch, op));
        }
        self.pending = state
            .pending
            .into_iter()
            .map(|p| Pending {
                update: p.update,
                during_run: p.during_run,
                seq: p.seq,
            })
            .collect();
        self.epoch = state.epoch;
        self.op_seq = state.op_seq;
        let windows = std::mem::take(&mut self.windows);
        for w in windows {
            self.recycle(w.keys);
        }
        self.next_window = state.next_window;
        self.running = false;
    }
}

impl Default for Table {
    fn default() -> Self {
        Table::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new();
        t.declare_prop("Work", false);
        t.declare_prop("Retried", false);
        t.declare_data("n");
        t
    }

    #[test]
    fn declarations_and_reads() {
        let t = table();
        assert_eq!(t.prop("Work"), Some(false));
        assert_eq!(t.prop("Ghost"), None);
        assert_eq!(t.data("n"), Some(&Value::Undef));
        assert!(t.has_prop("Work") && !t.has_prop("n"));
        assert!(t.has_data("n") && !t.has_data("Work"));
    }

    #[test]
    fn undef_data_cannot_be_read_for_write() {
        let t = table();
        assert_eq!(t.data_defined("n"), Err(TableError::Undef("n".into())));
    }

    #[test]
    fn local_writes_require_declaration() {
        let mut t = table();
        assert!(t.set_prop_local("Ghost", true).is_err());
        assert!(t.set_data_local("ghost", Value::Int(1)).is_err());
        t.set_prop_local("Work", true).unwrap();
        assert_eq!(t.prop("Work"), Some(true));
    }

    #[test]
    fn updates_queue_until_next_activation() {
        let mut t = table();
        t.deliver(Update::assert("Work", "f::j"));
        // Not yet applied.
        assert_eq!(t.prop("Work"), Some(false));
        assert_eq!(t.pending_len(), 1);
        t.begin_activation();
        assert_eq!(t.prop("Work"), Some(true));
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn updates_apply_in_arrival_order() {
        let mut t = table();
        t.deliver(Update::assert("Work", "a"));
        t.deliver(Update::retract("Work", "b"));
        t.deliver(Update::data("n", Value::Int(1), "a"));
        t.deliver(Update::data("n", Value::Int(2), "b"));
        t.begin_activation();
        assert_eq!(t.prop("Work"), Some(false));
        assert_eq!(t.data("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn local_priority_shadows_pending() {
        let mut t = table();
        t.begin_activation();
        // Remote update arrives mid-run…
        t.deliver(Update::assert("Work", "f::j"));
        // …and the junction locally writes the same key.
        t.set_prop_local("Work", false).unwrap();
        t.end_activation();
        t.begin_activation();
        // The pending remote update was ignored.
        assert_eq!(t.prop("Work"), Some(false));
    }

    #[test]
    fn local_priority_is_per_epoch() {
        let mut t = table();
        // Local write in activation 1.
        t.begin_activation();
        t.set_prop_local("Work", false).unwrap();
        t.end_activation();
        // Remote update arrives while idle — must apply.
        t.deliver(Update::assert("Work", "f::j"));
        t.begin_activation();
        assert_eq!(t.prop("Work"), Some(true));
    }

    #[test]
    fn wait_window_applies_immediately() {
        let mut t = table();
        t.begin_activation();
        let tok = t.open_window(vec!["Work".to_string(), "n".to_string()]);
        assert_eq!(t.deliver(Update::assert("Work", "g::j")), Delivery::AppliedNow);
        assert_eq!(t.prop("Work"), Some(true));
        assert_eq!(
            t.deliver(Update::data("n", Value::Int(9), "g::j")),
            Delivery::AppliedNow
        );
        assert_eq!(t.data("n"), Some(&Value::Int(9)));
        // Keys outside the window still queue.
        assert_eq!(t.deliver(Update::assert("Retried", "g::j")), Delivery::Queued);
        t.close_window(tok);
        assert_eq!(t.deliver(Update::retract("Work", "g::j")), Delivery::Queued);
    }

    #[test]
    fn concurrent_windows_are_independent() {
        let mut t = table();
        t.begin_activation();
        let w1 = t.open_window(vec!["Work".to_string()]);
        let w2 = t.open_window(vec!["Retried".to_string()]);
        assert_eq!(t.deliver(Update::assert("Work", "a")), Delivery::AppliedNow);
        assert_eq!(t.deliver(Update::assert("Retried", "a")), Delivery::AppliedNow);
        t.close_window(w1);
        // w2 still admits Retried but Work now queues.
        assert_eq!(t.deliver(Update::retract("Work", "a")), Delivery::Queued);
        assert_eq!(t.deliver(Update::retract("Retried", "a")), Delivery::AppliedNow);
        t.close_window(w2);
        assert_eq!(t.deliver(Update::assert("Retried", "a")), Delivery::Queued);
    }

    #[test]
    fn window_closes_at_end_of_activation() {
        let mut t = table();
        t.begin_activation();
        t.open_window(vec!["Work".to_string()]);
        t.end_activation();
        assert_eq!(t.deliver(Update::assert("Work", "g")), Delivery::Queued);
    }

    #[test]
    fn keep_discards_pending() {
        let mut t = table();
        t.deliver(Update::assert("Work", "a"));
        t.deliver(Update::data("n", Value::Int(5), "a"));
        t.keep(&["Work".to_string()]);
        assert_eq!(t.pending_len(), 1);
        // Idempotent.
        t.keep(&["Work".to_string()]);
        assert_eq!(t.pending_len(), 1);
        t.begin_activation();
        assert_eq!(t.prop("Work"), Some(false));
        assert_eq!(t.data("n"), Some(&Value::Int(5)));
    }

    #[test]
    fn subsets_validate_membership() {
        let mut t = table();
        t.declare_subset(
            "tgt",
            vec![SetElem::Instance("b1".into()), SetElem::Instance("b2".into())],
        );
        // Undef until set.
        assert_eq!(t.subset_contains("tgt", "b1"), None);
        t.set_subset("tgt", vec![SetElem::Instance("b1".into())]).unwrap();
        assert_eq!(t.subset_contains("tgt", "b1"), Some(true));
        assert_eq!(t.subset_contains("tgt", "b2"), Some(false));
        // Violating the host contract is an error.
        let err = t.set_subset("tgt", vec![SetElem::Instance("zz".into())]);
        assert!(matches!(err, Err(TableError::InvalidIndex { .. })));
    }

    #[test]
    fn idx_validates_membership() {
        let mut t = table();
        t.declare_idx(
            "tgt",
            vec![SetElem::Instance("b1".into()), SetElem::Instance("b2".into())],
        );
        assert_eq!(t.idx("tgt"), None);
        t.set_idx("tgt", "b2").unwrap();
        assert_eq!(t.idx("tgt"), Some("b2"));
        assert!(matches!(
            t.set_idx("tgt", "zz"),
            Err(TableError::InvalidIndex { .. })
        ));
        assert_eq!(t.idx_base("tgt").unwrap().len(), 2);
    }

    #[test]
    fn window_does_not_admit_updates_raced_behind_local_writes() {
        // Regression: an open window used to apply any admitted key
        // immediately, so a remote update that raced behind the latest
        // local write clobbered it mid-activation. The window must make
        // the same seq comparison as `open_window`.
        let mut t = table();
        t.begin_activation();
        let tok = t.open_window(vec!["Work".to_string()]);
        // Local write after the window opened re-takes priority.
        t.set_prop_local("Work", false).unwrap();
        assert_eq!(t.deliver(Update::assert("Work", "g::j")), Delivery::Queued);
        assert_eq!(
            t.prop("Work"),
            Some(false),
            "raced remote update must not clobber the local write"
        );
        t.close_window(tok);
        t.end_activation();
        // The queued update is not shadowed (it arrived after the local
        // write), so it applies at the next scheduling under the
        // ordinary §8 queue rule.
        t.begin_activation();
        assert_eq!(t.prop("Work"), Some(true));
    }

    #[test]
    fn window_opened_after_local_write_still_admits() {
        let mut t = table();
        t.begin_activation();
        t.set_prop_local("Work", false).unwrap();
        // The wait opened after our write: replies react to state we
        // exposed before waiting, so they apply immediately.
        t.open_window(vec!["Work".to_string()]);
        assert_eq!(t.deliver(Update::assert("Work", "g::j")), Delivery::AppliedNow);
        assert_eq!(t.prop("Work"), Some(true));
    }

    #[test]
    fn observer_records_update_rule_quantities() {
        use std::sync::{Arc, Mutex};
        #[derive(Default)]
        struct Collect(Mutex<Vec<(u64, TableEvent<String>)>>);
        impl TableObserver for Collect {
            fn on_event(&self, epoch: u64, event: TableEvent<&'static str>) {
                self.0.lock().unwrap().push((epoch, event.map(str::to_owned)));
            }
        }
        let collect = Arc::new(Collect::default());
        let mut t = table();
        t.set_observer(Arc::clone(&collect) as Arc<dyn TableObserver>);
        t.begin_activation();
        t.deliver(Update::assert("Work", "g::j"));
        t.set_prop_local("Work", false).unwrap();
        t.end_activation();
        t.begin_activation(); // shadow-drops the stale delivery
        t.end_activation();
        let events: Vec<TableEvent<String>> =
            collect.0.lock().unwrap().iter().map(|(_, e)| e.clone()).collect();
        let dop = match &events[0] {
            TableEvent::Deliver { key, applied, during_run, op, .. } => {
                assert_eq!(key, "Work");
                assert!(!applied && *during_run);
                *op
            }
            other => panic!("expected Deliver first, got {other:?}"),
        };
        let lop = match &events[1] {
            TableEvent::LocalWrite { key, op } => {
                assert_eq!(key, "Work");
                assert!(*op > dop);
                *op
            }
            other => panic!("expected LocalWrite second, got {other:?}"),
        };
        assert!(
            events.iter().any(|e| matches!(
                e,
                TableEvent::ShadowDrop { lop: l, op, .. } if *l == lop && *op == dop
            )),
            "shadow drop with the shadowing lop must be recorded: {events:?}"
        );
    }

    #[test]
    fn epochs_advance_per_activation() {
        let mut t = table();
        assert_eq!(t.epoch(), 0);
        t.begin_activation();
        assert_eq!(t.epoch(), 1);
        assert!(t.is_running());
        t.end_activation();
        t.begin_activation();
        assert_eq!(t.epoch(), 2);
    }
}
