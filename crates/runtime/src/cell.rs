//! Junction cells: the runtime home of one junction's state.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use csaw_core::value::Value;
use csaw_kv::{Delivery, Table, Update, UpdateKind};
use parking_lot::{Mutex, MutexGuard};

use crate::eventcount::EventCount;

/// Fully-qualified junction identity.
pub use csaw_core::names::JunctionId;

/// Whether an update can change the truth of a formula. A `Data`
/// update cannot: formula atoms are `Prop`, `InSubset`, `γ@F` and
/// `S(ι)`, and updates never touch subsets.
pub(crate) fn moves_formulas(update: &Update) -> bool {
    !matches!(update.kind, UpdateKind::Data(_))
}

/// One junction's runtime state: KV table + parameter environment +
/// activation lock. The table sits in the event count its `wait`s park
/// on. The interpreter reads parameters through the junction's binding
/// slots, filled from this environment at `start`.
pub struct Cell {
    /// Identity.
    pub id: JunctionId,
    table: EventCount<Table>,
    env: Mutex<HashMap<String, Value>>,
    /// Serializes activations of this junction.
    activation: Mutex<()>,
}

impl Cell {
    /// Create a cell around an initialized table. `wake_signals` counts
    /// the signals that found a `wait` parked.
    pub fn new(id: JunctionId, table: Table, wake_signals: Arc<AtomicU64>) -> Arc<Cell> {
        Arc::new(Cell {
            id,
            table: EventCount::new(table, wake_signals),
            env: Mutex::new(HashMap::new()),
            activation: Mutex::new(()),
        })
    }

    /// Lock the table.
    pub fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock()
    }

    /// Mailbox depth (pending-update count) without blocking: `None`
    /// when the table lock is held. The overload layer's mailbox probe
    /// uses this — a blocking lock here could deadlock a junction
    /// sending to itself while its own table is locked, and an
    /// unobservable depth is treated as "not overloaded".
    pub fn try_pending_len(&self) -> Option<usize> {
        self.table.try_lock().map(|t| t.pending_len())
    }

    /// Deliver a remote update. One that an open `wait` window applied
    /// at once wakes the cell's `wait`ers, if it can have changed their
    /// formula; a queued one wakes nobody here — it is for the
    /// junction's scheduler, which the caller signals.
    pub fn deliver(&self, update: Update) -> Delivery {
        let wakes_waiters = moves_formulas(&update);
        let delivery = self.table.lock().deliver(update);
        if wakes_waiters && delivery == Delivery::AppliedNow {
            self.table.signal();
        }
        delivery
    }

    /// Wake waiters without delivering (e.g. liveness changes that may
    /// satisfy `wait`ed formulas indirectly, or shutdown).
    pub fn nudge(&self) {
        self.table.signal();
    }

    /// The waiters' wake-up sequence. A `wait` reads it before anything
    /// its formula depends on and passes it to [`Cell::wait_on`].
    pub fn wake_seq(&self) -> u64 {
        self.table.current()
    }

    /// Block until a wake-up newer than `seen` or `deadline`; returns
    /// `true` on timeout. The caller evaluates its predicate under
    /// `guard` first and re-evaluates it under the returned lock.
    pub fn wait_on(
        &self,
        guard: &mut MutexGuard<'_, Table>,
        seen: u64,
        deadline: Instant,
    ) -> bool {
        self.table.park(guard, seen, Some(deadline))
    }

    /// Bind the junction's parameter environment (at `start`).
    pub fn bind_env(&self, env: HashMap<String, Value>) {
        *self.env.lock() = env;
    }

    /// Snapshot the whole parameter environment (used to fill binding
    /// slots and when evaluating `start` arguments inside a junction).
    pub fn env_clone(&self) -> HashMap<String, Value> {
        self.env.lock().clone()
    }

    /// Acquire the activation lock (one activation at a time).
    pub fn lock_activation(&self) -> MutexGuard<'_, ()> {
        self.activation.lock()
    }

    /// Attempt to acquire the activation lock without blocking.
    pub fn try_lock_activation(&self) -> Option<MutexGuard<'_, ()>> {
        self.activation.try_lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_kv::Update;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    fn counted_cell() -> (Arc<Cell>, Arc<AtomicU64>) {
        let mut t = Table::new();
        t.declare_prop("Work", false);
        t.declare_prop("Retried", false);
        let wake_signals = Arc::new(AtomicU64::new(0));
        let cell = Cell::new(JunctionId::new("f", "junction"), t, Arc::clone(&wake_signals));
        (cell, wake_signals)
    }

    fn cell() -> Arc<Cell> {
        counted_cell().0
    }

    #[test]
    fn deliver_queues_and_wakes() {
        let c = cell();
        assert_eq!(c.deliver(Update::assert("Work", "g::junction")), Delivery::Queued);
        assert_eq!(c.table().pending_len(), 1);
    }

    #[test]
    fn env_binding() {
        let c = cell();
        let mut env = HashMap::new();
        env.insert("t".to_string(), Value::Duration(Duration::from_millis(10)));
        c.bind_env(env);
        let env = c.env_clone();
        assert_eq!(env["t"].as_duration(), Some(Duration::from_millis(10)));
        assert!(!env.contains_key("zz"));
    }

    #[test]
    fn wait_on_times_out() {
        let c = cell();
        let mut guard = c.table();
        let seen = c.wake_seq();
        let timed_out = c.wait_on(&mut guard, seen, Instant::now() + Duration::from_millis(5));
        assert!(timed_out);
    }

    #[test]
    fn waiter_woken_by_delivery() {
        let c = cell();
        let c2 = Arc::clone(&c);
        let handle = std::thread::spawn(move || {
            let mut guard = c2.table();
            guard.open_window(vec!["Work".to_string()]);
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if guard.prop("Work") == Some(true) {
                    return true;
                }
                let seen = c2.wake_seq();
                if c2.wait_on(&mut guard, seen, deadline) {
                    return false;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        c.deliver(Update::assert("Work", "g::junction"));
        assert!(handle.join().unwrap(), "waiter should observe the assert");
    }

    #[test]
    fn only_an_applied_delivery_wakes_a_waiter() {
        let (c, wake_signals) = counted_cell();
        let c2 = Arc::clone(&c);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut guard = c2.table();
            guard.open_window(vec!["Work".to_string()]);
            ready_tx.send(()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut wake_ups = 0;
            while guard.prop("Work") != Some(true) {
                let seen = c2.wake_seq();
                assert!(!c2.wait_on(&mut guard, seen, deadline), "waiter timed out");
                wake_ups += 1;
            }
            wake_ups
        });
        ready_rx.recv().unwrap();
        // The waiter locked the table before it reported ready and
        // releases it only once asleep, so after this it is parked.
        drop(c.table());
        // Outside the window: queued, for the scheduler, not the waiter.
        assert_eq!(c.deliver(Update::assert("Retried", "g::junction")), Delivery::Queued);
        assert_eq!(wake_signals.load(Ordering::Relaxed), 0);
        assert_eq!(c.deliver(Update::assert("Work", "g::junction")), Delivery::AppliedNow);
        assert_eq!(waiter.join().unwrap(), 1, "one wake-up, by the applied delivery");
        assert_eq!(wake_signals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn activation_lock_is_exclusive() {
        let c = cell();
        let g = c.lock_activation();
        assert!(c.try_lock_activation().is_none());
        drop(g);
        assert!(c.try_lock_activation().is_some());
    }
}
