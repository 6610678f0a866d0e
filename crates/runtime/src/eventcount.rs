//! The runtime's one blocking primitive: an event count, and the one
//! loop every background service runs on it.
//!
//! An event count is a sequence number, a count of parked threads and a
//! condition variable around the state the parked threads' predicate
//! reads. Every thread of the runtime that waits, waits on one: a
//! `wait`er on the one around its cell's table, a junction's scheduler
//! thread on its own, and each background service — heartbeat monitor,
//! supervisor, autoscaler, delay queue — on its own, through
//! [`spawn_service`]. Two rules hold for all of them:
//!
//! * **no waiter, no syscall** — [`EventCount::signal`] always bumps the
//!   sequence, and notifies (a futex call) only if a thread is
//!   registered as parked;
//! * **no lost wake-up** — [`EventCount::park`] sleeps only while the
//!   sequence still equals the value its caller read *before* it
//!   evaluated its predicate, so a signal that lands anywhere between
//!   that read and the sleep makes `park` return at once.
//!
//! A service is stopped by setting its stop flag and signalling its
//! count; nothing else wakes a sleeping service early, so no stop has to
//! wait out a period, a backoff or a verify window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::clock::Clock;

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

    /// Sleep on `clock` until `deadline`, or until `stop` holds (whoever
    /// makes it hold signals this count). Returns whether the deadline
    /// passed. A wall clock parks here; a simulated one makes the same
    /// one-unit [`Clock::block_until`] calls as [`Clock::sleep_until`],
    /// re-checking `stop` between them.
    pub(crate) fn sleep_until(
        &self,
        clock: &Clock,
        deadline: Instant,
        stop: &dyn Fn() -> bool,
    ) -> bool {
        loop {
            let seen = self.current();
            if stop() {
                return false;
            }
            if clock.now() >= deadline {
                return true;
            }
            if clock.is_simulated() {
                clock.block_until(deadline);
            } else {
                self.park(&mut self.lock(), seen, Some(deadline));
            }
        }
    }
}

/// Start a background service: a thread named `name` that, until `stop`
/// holds, calls `step` and then parks on `wake` until it is signalled
/// or the instant `step` returned passes (`None`: until signalled). So
/// `step` runs at once, and again whenever it is due or `wake` is
/// signalled; whoever makes `stop` hold signals `wake`.
///
/// This is the body of every heartbeat, supervisor, autoscaler and
/// delay-queue thread. Under a simulated clock nothing is started: the
/// sim executor runs the same work as schedulable events.
pub(crate) fn spawn_service<T: Send + 'static>(
    clock: &Clock,
    name: &str,
    wake: Arc<EventCount<T>>,
    stop: impl Fn() -> bool + Send + 'static,
    mut step: impl FnMut() -> Option<Instant> + Send + 'static,
) -> Option<JoinHandle<()>> {
    if clock.is_simulated() {
        return None;
    }
    let body = move || loop {
        let seen = wake.current();
        if stop() {
            return;
        }
        let due = step();
        wake.park(&mut wake.lock(), seen, due);
    };
    let thread = std::thread::Builder::new().name(name.into()).spawn(body);
    Some(thread.expect("spawn service thread"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimHook;
    use std::sync::atomic::AtomicBool;
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

    fn within(timeout: Duration, f: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// A wall-clock service counting its steps, with its stop flag.
    fn counting_service(
        ec: &Arc<EventCount<()>>,
        due_in: Option<Duration>,
    ) -> (JoinHandle<()>, Arc<AtomicBool>, Arc<AtomicU64>) {
        let stop = Arc::new(AtomicBool::new(false));
        let steps = Arc::new(AtomicU64::new(0));
        let (flag, seen) = (Arc::clone(&stop), Arc::clone(&steps));
        let stopped = move || flag.load(Ordering::SeqCst);
        let step = move || {
            seen.fetch_add(1, Ordering::SeqCst);
            due_in.map(|d| Instant::now() + d)
        };
        let handle = spawn_service(&Clock::wall(), "test", Arc::clone(ec), stopped, step);
        (handle.expect("a wall clock starts a thread"), stop, steps)
    }

    #[test]
    fn service_loop_steps_when_due_and_stops_when_signalled() {
        let (ec, _) = count();
        let (handle, stop, steps) = counting_service(&ec, Some(Duration::from_millis(5)));
        assert!(within(Duration::from_secs(5), || steps
            .load(Ordering::SeqCst)
            >= 3));
        // Due a minute out: only the signal can end this one's park.
        let (ec2, _) = count();
        let (long, stop2, steps2) = counting_service(&ec2, Some(Duration::from_secs(60)));
        assert!(within(Duration::from_secs(5), || steps2
            .load(Ordering::SeqCst)
            == 1));
        let started = Instant::now();
        for (flag, wake) in [(&stop, &ec), (&stop2, &ec2)] {
            flag.store(true, Ordering::SeqCst);
            wake.signal();
        }
        handle.join().unwrap();
        long.join().unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(5), "took {took:?}");
        assert_eq!(steps2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn service_loop_with_nothing_due_steps_only_when_signalled() {
        let (ec, _) = count();
        let (handle, stop, steps) = counting_service(&ec, None);
        assert!(within(Duration::from_secs(5), || steps
            .load(Ordering::SeqCst)
            == 1));
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            steps.load(Ordering::SeqCst),
            1,
            "an idle service must not poll"
        );
        ec.signal();
        assert!(within(Duration::from_secs(5), || steps
            .load(Ordering::SeqCst)
            == 2));
        stop.store(true, Ordering::SeqCst);
        ec.signal();
        handle.join().unwrap();
        assert_eq!(
            steps.load(Ordering::SeqCst),
            2,
            "a stopped service does not step"
        );
    }

    #[test]
    fn service_loop_starts_no_thread_on_a_simulated_clock() {
        let (ec, _) = count();
        let handle = spawn_service(&Clock::simulated(), "test-sim", ec, || false, || None);
        assert!(handle.is_none());
    }

    #[test]
    fn service_loop_sleep_is_cut_short_by_a_stop() {
        let (ec, _) = count();
        let stop = Arc::new(AtomicBool::new(false));
        let (ec2, flag) = (Arc::clone(&ec), Arc::clone(&stop));
        let sleeper = std::thread::spawn(move || {
            let clock = Clock::wall();
            let started = Instant::now();
            let deadline = clock.now() + Duration::from_secs(30);
            let slept = ec2.sleep_until(&clock, deadline, &|| flag.load(Ordering::SeqCst));
            (slept, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::SeqCst);
        ec.signal();
        let (slept, took) = sleeper.join().unwrap();
        assert!(!slept, "the sleep must report that it was stopped");
        assert!(took < Duration::from_secs(10), "took {took:?}");
        // Unstopped, it runs to its deadline.
        let clock = Clock::wall();
        assert!(ec.sleep_until(&clock, clock.now() + Duration::from_millis(5), &|| false));
    }

    /// Under a virtual clock the sleep makes exactly the hook calls
    /// `Clock::sleep` makes, so sim schedules do not move.
    #[test]
    fn service_loop_sleep_drives_the_sim_hook_like_clock_sleep() {
        struct Stepper(Clock, AtomicU64);
        impl SimHook for Stepper {
            fn block(&self, target: Instant) {
                self.1.fetch_add(1, Ordering::SeqCst);
                let step = (self.0.now() + Duration::from_millis(10)).min(target);
                self.0.advance_to(step);
            }
        }
        let calls = |sleep: &dyn Fn(&Clock)| {
            let clock = Clock::simulated();
            let hook = Arc::new(Stepper(clock.clone(), AtomicU64::new(0)));
            clock.install_hook(hook.clone());
            sleep(&clock);
            clock.clear_hook();
            hook.1.load(Ordering::SeqCst)
        };
        let (ec, _) = count();
        let by_clock = calls(&|c| c.sleep(Duration::from_millis(35)));
        let by_count = calls(&|c| {
            assert!(ec.sleep_until(c, c.now() + Duration::from_millis(35), &|| false));
        });
        assert_eq!((by_clock, by_count), (4, 4), "10+10+10+5 ms steps");
    }
}
