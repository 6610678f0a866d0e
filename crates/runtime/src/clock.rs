//! Time as a capability: wall vs. simulated virtual time.
//!
//! Every time-dependent site in the runtime — scheduler ticks, wait
//! deadlines, heartbeat windows, supervisor backoff, transport jitter —
//! goes through a [`Clock`] instead of calling `Instant::now()` or
//! `thread::sleep` directly. A wall clock behaves exactly like the raw
//! primitives. A *virtual* clock decouples the time the runtime
//! observes from the time the host spends: `now()` reads a counter, and
//! "sleeping" advances the counter — instantly.
//!
//! A clock has no wake-up mechanism of its own. A sleep that something
//! must be able to cut short — a background service's period, the
//! supervisor's backoff and verify windows — parks on the service's
//! event count instead (`eventcount.rs`), and under a virtual
//! clock drives the same [`Clock::block_until`] calls as
//! [`Clock::sleep_until`].
//!
//! Under a virtual clock the runtime is expected to run single-threaded
//! inside a [`crate::sim::SimExecutor`]. Code that blocks (a `wait`
//! polling its formula, a retry backoff, an invoke deadline loop) calls
//! [`Clock::block_until`], which hands control to the executor's
//! [`SimHook`]: the hook delivers due messages, runs other junctions,
//! or advances virtual time — one unit of schedule progress per call,
//! chosen by the executor's seeded PRNG and recorded so the schedule
//! can be replayed byte-for-byte.
//!
//! Both clocks share one nesting rule: a blocked `wait` may run another
//! junction's pass on its own thread, and a junction already
//! mid-activation counts as not runnable. Under a wall clock the `wait`
//! runs, before it parks, the passes its own activation's sends made
//! due (`RuntimeInner::run_held`), but only of junctions whose body
//! cannot park; then it sleeps for real.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Progress callback for virtual-time blocking. Installed by the sim
/// executor; see module docs. One call makes one unit of progress
/// (deliver a due packet, run one junction pass, or advance virtual
/// time toward `target`); blocking sites loop until their condition
/// resolves.
pub trait SimHook: Send + Sync {
    /// Make one unit of progress. `target` is the instant the caller is
    /// blocked until (its poll deadline); the hook must guarantee that
    /// repeated calls eventually reach it (by advancing virtual time
    /// when nothing else is due).
    fn block(&self, target: Instant);
}

struct VirtualState {
    /// Anchor for converting the virtual offset into `Instant`s, so the
    /// rest of the runtime keeps using `Instant` arithmetic unchanged.
    base: Instant,
    /// Virtual nanoseconds since `base`. Only ever moves forward.
    offset_ns: AtomicU64,
    /// Executor callback for blocking sites; `None` until the sim
    /// installs it (then sleeps simply auto-advance).
    hook: Mutex<Option<Arc<dyn SimHook>>>,
}

enum Mode {
    Wall,
    Virtual(Arc<VirtualState>),
}

/// A source of time plus sleep. Cheap to clone; all clones share the
/// same timeline.
#[derive(Clone)]
pub struct Clock {
    mode: Arc<Mode>,
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.mode {
            Mode::Wall => write!(f, "Clock::wall"),
            Mode::Virtual(v) => write!(
                f,
                "Clock::virtual({}ns)",
                v.offset_ns.load(Ordering::SeqCst)
            ),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::wall()
    }
}

impl Clock {
    /// The real clock: `now` is `Instant::now`, sleeps block the OS
    /// thread.
    pub fn wall() -> Clock {
        Clock {
            mode: Arc::new(Mode::Wall),
        }
    }

    /// A simulated clock starting at virtual time zero. Sleeps advance
    /// virtual time instead of blocking, via the installed [`SimHook`]
    /// if any.
    pub fn simulated() -> Clock {
        Clock {
            mode: Arc::new(Mode::Virtual(Arc::new(VirtualState {
                base: Instant::now(),
                offset_ns: AtomicU64::new(0),
                hook: Mutex::new(None),
            }))),
        }
    }

    /// Whether this is a simulated clock (the runtime then skips
    /// spawning its service threads; the sim executor drives them).
    pub fn is_simulated(&self) -> bool {
        matches!(&*self.mode, Mode::Virtual(_))
    }

    /// Current time on this clock's timeline.
    pub fn now(&self) -> Instant {
        match &*self.mode {
            Mode::Wall => Instant::now(),
            Mode::Virtual(v) => {
                v.base + Duration::from_nanos(v.offset_ns.load(Ordering::SeqCst))
            }
        }
    }

    /// Nanoseconds of virtual time elapsed (0 on a wall clock's own
    /// epoch is meaningless, so this is sim-only; wall returns 0).
    pub fn virtual_nanos(&self) -> u64 {
        match &*self.mode {
            Mode::Wall => 0,
            Mode::Virtual(v) => v.offset_ns.load(Ordering::SeqCst),
        }
    }

    /// Monotonically advance virtual time to `to` (no-op on wall clocks
    /// or if `to` is in the past).
    pub fn advance_to(&self, to: Instant) {
        if let Mode::Virtual(v) = &*self.mode {
            let ns = to.saturating_duration_since(v.base).as_nanos() as u64;
            v.offset_ns.fetch_max(ns, Ordering::SeqCst);
        }
    }

    /// Install the sim executor's progress hook. Call
    /// [`Clock::clear_hook`] when the run finishes — the hook usually
    /// closes a reference cycle back to the runtime.
    pub fn install_hook(&self, hook: Arc<dyn SimHook>) {
        if let Mode::Virtual(v) = &*self.mode {
            *v.hook.lock() = Some(hook);
        }
    }

    /// Remove the installed hook (sleeps then auto-advance).
    pub fn clear_hook(&self) {
        if let Mode::Virtual(v) = &*self.mode {
            *v.hook.lock() = None;
        }
    }

    fn hook(&self) -> Option<Arc<dyn SimHook>> {
        match &*self.mode {
            Mode::Wall => None,
            Mode::Virtual(v) => v.hook.lock().clone(),
        }
    }

    /// Block until `deadline`. On a wall clock this sleeps the thread;
    /// on a virtual clock it drives the sim hook (or auto-advances).
    pub fn sleep_until(&self, deadline: Instant) {
        match &*self.mode {
            Mode::Wall => std::thread::sleep(deadline.saturating_duration_since(Instant::now())),
            Mode::Virtual(_) => {
                while self.now() < deadline {
                    self.block_until(deadline);
                }
            }
        }
    }

    /// Sleep for `d` from now.
    pub fn sleep(&self, d: Duration) {
        let deadline = self.now() + d;
        self.sleep_until(deadline);
    }

    /// One unit of blocked progress on a virtual clock: drive the hook
    /// (or auto-advance to `target`). Used by poll loops that re-check
    /// a condition rather than sleeping a fixed duration — e.g. a
    /// `wait`'s formula poll. No-op sleep on wall clocks is *not* the
    /// intent, so wall clocks sleep until `target` instead.
    pub fn block_until(&self, target: Instant) {
        match &*self.mode {
            Mode::Wall => self.sleep_until(target),
            Mode::Virtual(_) => match self.hook() {
                Some(h) => h.block(target),
                None => self.advance_to(target),
            },
        }
    }
}

/// The unified seed override: every seeded harness — chaos soaks,
/// property tests, the sim explorer, `csaw-bench` commands without a
/// `--seed` — calls this so one `CSAW_SEED=n` environment variable
/// steers them all; `default` when it is unset or not a number.
/// Harnesses print the active seed on every failure so any red run is
/// replayable.
pub fn env_seed(default: u64) -> u64 {
    std::env::var("CSAW_SEED").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_tracks_real_time() {
        let c = Clock::wall();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.now() > a);
        assert!(!c.is_simulated());
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let c = Clock::simulated();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(c.now(), a, "virtual time must not follow wall time");
        c.advance_to(a + Duration::from_millis(50));
        assert_eq!(c.now() - a, Duration::from_millis(50));
        // advance is monotone: going backwards is a no-op.
        c.advance_to(a + Duration::from_millis(10));
        assert_eq!(c.now() - a, Duration::from_millis(50));
    }

    #[test]
    fn virtual_sleep_auto_advances_without_a_hook() {
        let c = Clock::simulated();
        let a = c.now();
        let t0 = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert_eq!(c.now() - a, Duration::from_secs(3600));
        assert!(t0.elapsed() < Duration::from_secs(5), "must not block for real");
    }

    #[test]
    fn virtual_sleep_drives_installed_hook() {
        struct Stepper(Clock, AtomicU64);
        impl SimHook for Stepper {
            fn block(&self, target: Instant) {
                self.1.fetch_add(1, Ordering::SeqCst);
                let step = (self.0.now() + Duration::from_millis(10)).min(target);
                self.0.advance_to(step);
            }
        }
        let c = Clock::simulated();
        let hook = Arc::new(Stepper(c.clone(), AtomicU64::new(0)));
        c.install_hook(hook.clone());
        c.sleep(Duration::from_millis(35));
        assert_eq!(hook.1.load(Ordering::SeqCst), 4, "10+10+10+5 ms steps");
        c.clear_hook();
    }

    #[test]
    fn env_seed_prefers_csaw_seed() {
        // No env set in the test harness: default wins.
        assert_eq!(env_seed(7), 7);
    }
}
