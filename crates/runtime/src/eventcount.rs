//! The runtime's one wake-up mechanism: an event count.
//!
//! A sequence number, a count of parked threads and a condition
//! variable around the state the parked threads' predicate reads. Both
//! of a junction's hand-offs use it — `wait`ers park on the one around
//! the cell's table, the scheduler thread on one around `()` — under
//! two rules:
//!
//! * **no waiter, no syscall** — [`EventCount::signal`] always bumps the
//!   sequence, and notifies (a futex call) only if a thread is
//!   registered as parked;
//! * **no lost wake-up** — [`EventCount::park`] sleeps only while the
//!   sequence still equals the value its caller read *before* it
//!   evaluated its predicate, so a signal that lands anywhere between
//!   that read and the sleep makes `park` return at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};

/// An event count around `T` (see the module docs).
pub(crate) struct EventCount<T> {
    seq: AtomicU64,
    parked: AtomicU64,
    state: Mutex<T>,
    cond: Condvar,
    /// Signals that found a thread parked and notified it
    /// (`wake_signals_total`, shared by every event count of a runtime).
    notified: Arc<AtomicU64>,
}

impl<T> EventCount<T> {
    pub(crate) fn new(state: T, notified: Arc<AtomicU64>) -> Self {
        EventCount {
            seq: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            state: Mutex::new(state),
            cond: Condvar::new(),
            notified,
        }
    }

    /// Lock the state.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock()
    }

    /// Lock the state without blocking.
    pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.state.try_lock()
    }

    /// The current sequence. Read it before evaluating the predicate
    /// and hand it to [`EventCount::park`].
    pub(crate) fn current(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Announce that a parked thread's predicate may have changed. Must
    /// not be called with the state locked by the calling thread.
    ///
    /// The bump and the `parked` read here, and the registration and
    /// the sequence check in `park`, are all `SeqCst`: either this call
    /// sees the parker registered, or the parker sees the new sequence.
    /// Passing through the lock before notifying closes the last gap —
    /// a registered parker holds it from its sequence check until the
    /// condition variable has it asleep.
    pub(crate) fn signal(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.state.lock());
            self.cond.notify_all();
            self.notified.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sleep until the sequence differs from `seen` or `deadline`
    /// passes (`None`: no deadline). Returns `true` on timeout. The
    /// guard is released while asleep and held again on return, so a
    /// predicate evaluated under it cannot change between the
    /// evaluation and the sleep.
    pub(crate) fn park(
        &self,
        guard: &mut MutexGuard<'_, T>,
        seen: u64,
        deadline: Option<Instant>,
    ) -> bool {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut timed_out = false;
        while !timed_out && self.seq.load(Ordering::SeqCst) == seen {
            match deadline {
                Some(d) => timed_out = self.cond.wait_until(guard, d).timed_out(),
                None => self.cond.wait(guard),
            }
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn count() -> (Arc<EventCount<()>>, Arc<AtomicU64>) {
        let notified = Arc::new(AtomicU64::new(0));
        (
            Arc::new(EventCount::new((), Arc::clone(&notified))),
            notified,
        )
    }

    #[test]
    fn signal_without_waiter_notifies_nobody_and_is_not_lost() {
        let (ec, notified) = count();
        let seen = ec.current();
        ec.signal();
        assert_eq!(notified.load(Ordering::Relaxed), 0);
        // The sequence moved after `seen` was read: `park` must return
        // at once, long before its deadline.
        let started = Instant::now();
        let timed_out = ec.park(
            &mut ec.lock(),
            seen,
            Some(started + Duration::from_secs(10)),
        );
        assert!(!timed_out);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn park_times_out_without_signal() {
        let (ec, _) = count();
        let seen = ec.current();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(ec.park(&mut ec.lock(), seen, Some(deadline)));
    }

    #[test]
    fn signal_notifies_a_parked_thread() {
        let (ec, notified) = count();
        let ec2 = Arc::clone(&ec);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut guard = ec2.lock();
            let seen = ec2.current();
            ready_tx.send(()).unwrap();
            ec2.park(&mut guard, seen, None)
        });
        ready_rx.recv().unwrap();
        // The waiter took the lock before it reported ready and gives
        // it up only once asleep, so after this it is parked.
        drop(ec.lock());
        ec.signal();
        assert!(!waiter.join().unwrap());
        assert_eq!(notified.load(Ordering::Relaxed), 1);
    }

    /// Two threads hand a turn back and forth, each parking on its own
    /// count with a 10 s deadline: a lost wake-up fails the `park`
    /// assertion, and costs more than the whole run may take. (The run
    /// is two cross-CPU futex wake-ups a round: 0.3 s when both threads
    /// share a CPU, just under 4 s when they do not.)
    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUNDS: u64 = 100_000;
        let (ping, _) = count();
        let (pong, _) = count();
        let turn = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        let await_turn = |ec: &EventCount<()>, turn: &AtomicU64, want: u64| loop {
            let seen = ec.current();
            if turn.load(Ordering::SeqCst) == want {
                return;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            assert!(
                !ec.park(&mut ec.lock(), seen, Some(deadline)),
                "lost wake-up"
            );
        };
        let (ping2, pong2, turn2) = (Arc::clone(&ping), Arc::clone(&pong), Arc::clone(&turn));
        let peer = std::thread::spawn(move || {
            for round in 0..ROUNDS {
                await_turn(&pong2, &turn2, 2 * round + 1);
                turn2.store(2 * round + 2, Ordering::SeqCst);
                ping2.signal();
            }
        });
        for round in 0..ROUNDS {
            turn.store(2 * round + 1, Ordering::SeqCst);
            pong.signal();
            await_turn(&ping, &turn, 2 * round + 2);
        }
        peer.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "took {:?}",
            started.elapsed()
        );
    }
}
