//! Heartbeat failure detection feeding the `S(ι)` liveness predicate.
//!
//! The registry check (instance status flag) is the in-process fast
//! path: it knows about `stop`/`crash` immediately, but it cannot see
//! *network* partitions — a partitioned-away peer is still `Running` in
//! the registry. When heartbeats are enabled
//! ([`crate::Runtime::enable_heartbeats`]), a monitor thread sends
//! periodic pings between every ordered pair of running instances
//! *through the network* (so they experience the links' fault plans),
//! and each instance records when it last heard from each peer. A peer
//! silent for longer than the suspicion timeout is *suspected*, and
//! `S(ι)` evaluated from that observer turns false — making liveness
//! observer-relative under partitions, as a real failure detector would.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::clock::Clock;

/// The reserved pseudo-junction heartbeat pings are addressed to. The
/// runtime's delivery path intercepts it; it never reaches a cell.
pub const HB_JUNCTION: &str = "__hb";

/// Failure-detector tuning.
#[derive(Clone, Debug)]
pub struct HeartbeatConfig {
    /// Ping period.
    pub interval: Duration,
    /// Length of one silent window. A peer is suspected only after
    /// `k_missed` *consecutive* windows with no ping heard.
    pub suspicion: Duration,
    /// Hysteresis: how many consecutive silent windows it takes to
    /// suspect a peer. One ping heard clears the count immediately. A
    /// single jittered or dropped ping therefore never flips liveness
    /// at the default of 2; values ≤ 1 restore the old single-window
    /// behaviour.
    pub k_missed: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(25),
            suspicion: Duration::from_millis(150),
            k_missed: 2,
        }
    }
}

impl HeartbeatConfig {
    /// Total silence it takes to suspect a peer:
    /// `suspicion × max(k_missed, 1)`.
    pub fn suspicion_after(&self) -> Duration {
        self.suspicion.saturating_mul(self.k_missed.max(1))
    }
}

/// Everything the detector reads together: config and clocks live
/// under one lock so `suspects` sees a consistent snapshot — a
/// concurrent `enable` (which swaps the config *and* resets the
/// clocks) can never be observed half-applied.
struct Inner {
    config: HeartbeatConfig,
    /// (observer, peer) → last time observer heard peer's ping.
    last_heard: HashMap<(String, String), Instant>,
    /// The suspected (observer, peer) pairs as of the last
    /// [`HeartbeatState::suspicion_changes`].
    suspected: Vec<(String, String)>,
}

/// Shared failure-detector state: who last heard from whom.
pub(crate) struct HeartbeatState {
    enabled: AtomicBool,
    clock: Clock,
    inner: Mutex<Inner>,
}

impl HeartbeatState {
    pub(crate) fn new(clock: Clock) -> HeartbeatState {
        HeartbeatState {
            enabled: AtomicBool::new(false),
            clock,
            inner: Mutex::new(Inner {
                config: HeartbeatConfig::default(),
                last_heard: HashMap::new(),
                suspected: Vec::new(),
            }),
        }
    }

    /// Install `config` and enable the detector. Returns whether it
    /// was already enabled.
    pub(crate) fn enable(&self, config: HeartbeatConfig) -> bool {
        {
            let mut inner = self.inner.lock();
            inner.config = config;
            // Forget stale silence from before enabling: every pair gets
            // a fresh suspicion window once re-watched.
            inner.last_heard.clear();
        }
        self.enabled.swap(true, Ordering::SeqCst)
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    pub(crate) fn config(&self) -> HeartbeatConfig {
        self.inner.lock().config.clone()
    }

    /// Register interest in a pair, priming its clock if unseen: a
    /// freshly started or newly watched peer gets a full suspicion
    /// window before it can be suspected. Idempotent — re-watching an
    /// already-tracked pair does not reset its clock. The monitor loop
    /// calls this for every running pair, so priming happens at watch
    /// registration, never inside the `suspects` read path.
    pub(crate) fn watch(&self, observer: &str, peer: &str) {
        if observer == peer {
            return;
        }
        self.inner
            .lock()
            .last_heard
            .entry((observer.to_string(), peer.to_string()))
            .or_insert_with(|| self.clock.now());
    }

    /// Grant `instance` a fresh suspicion window in both directions:
    /// every observer tracking it forgets the silence accumulated while
    /// it was down, and its own clocks on its peers restart too. Called
    /// on restart — the same priming watch registration performs, but
    /// *resetting* rather than `or_insert`ing, because the stale clocks
    /// already exist. Without this a restarted instance stays suspected
    /// until the next ping round even though it is demonstrably back.
    pub(crate) fn reprime(&self, instance: &str) {
        let now = self.clock.now();
        for ((obs, peer), t) in self.inner.lock().last_heard.iter_mut() {
            if obs == instance || peer == instance {
                *t = now;
            }
        }
    }

    /// Feed the detector's schedule-relevant state to `h` for the sim
    /// executor's state fingerprint: enabled flag plus every
    /// (observer, peer) clock, sorted, normalized to `origin`.
    pub(crate) fn sim_fingerprint(&self, origin: Instant, h: &mut dyn FnMut(&[u8])) {
        h(&[u8::from(self.is_enabled())]);
        let inner = self.inner.lock();
        let mut pairs: Vec<(&String, &String, u64)> = inner
            .last_heard
            .iter()
            .map(|((o, p), t)| {
                (o, p, t.saturating_duration_since(origin).as_nanos() as u64)
            })
            .collect();
        pairs.sort();
        h(&(pairs.len() as u64).to_le_bytes());
        for (o, p, t) in pairs {
            h(o.as_bytes());
            h(p.as_bytes());
            h(&t.to_le_bytes());
        }
    }

    /// Record that `observer` heard a ping from `peer` now.
    pub(crate) fn record(&self, observer: &str, peer: &str) {
        self.inner
            .lock()
            .last_heard
            .insert((observer.to_string(), peer.to_string()), self.clock.now());
    }

    /// Whether `observer` currently suspects `peer`. Read-only: an
    /// unwatched pair is simply not suspected (priming happens in
    /// [`HeartbeatState::watch`]), and config + clock are read under
    /// one consistent snapshot. Suspicion requires `k_missed`
    /// consecutive silent windows — since `record` resets the clock,
    /// "k consecutive windows missed" is exactly "silent for
    /// `suspicion × k`", and one heard ping clears it instantly.
    pub(crate) fn suspects(&self, observer: &str, peer: &str) -> bool {
        if !self.is_enabled() || observer == peer {
            return false;
        }
        let inner = self.inner.lock();
        match inner
            .last_heard
            .get(&(observer.to_string(), peer.to_string()))
        {
            Some(t) => {
                self.clock.now().saturating_duration_since(*t) > inner.config.suspicion_after()
            }
            None => false,
        }
    }

    /// The observers whose suspected peers changed since the last call,
    /// sorted: onset after silence, clearing by a heard ping, and a
    /// fresh window from `watch`, `reprime` or `enable`. Nothing else
    /// marks a suspicion change, so the monitor calls this after each
    /// round's pings and wakes the observers' `S(ι)` readers.
    pub(crate) fn suspicion_changes(&self) -> Vec<String> {
        let mut inner = self.inner.lock();
        let bar = inner.config.suspicion_after();
        let now = self.clock.now();
        let current: Vec<(String, String)> = inner
            .last_heard
            .iter()
            .filter(|((obs, peer), t)| obs != peer && now.saturating_duration_since(**t) > bar)
            .map(|(pair, _)| pair.clone())
            .collect();
        let previous = std::mem::replace(&mut inner.suspected, current);
        let current = &inner.suspected;
        let mut changed: Vec<String> = previous
            .iter()
            .chain(current)
            .filter(|pair| previous.contains(pair) != current.contains(pair))
            .map(|(obs, _)| obs.clone())
            .collect();
        changed.sort();
        changed.dedup();
        changed
    }

    /// The observers currently suspecting `peer`, for K-of-N repair
    /// confirmation: a supervisor only trusts a suspicion shared by a
    /// quorum of observers, so one observer's jittered link cannot
    /// trigger a repair.
    pub(crate) fn suspectors_of(&self, peer: &str) -> Vec<String> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let inner = self.inner.lock();
        let bar = inner.config.suspicion_after();
        let now = self.clock.now();
        let mut who: Vec<String> = inner
            .last_heard
            .iter()
            .filter(|((obs, p), t)| {
                p == peer && obs != p && now.saturating_duration_since(**t) > bar
            })
            .map(|((obs, _), _)| obs.clone())
            .collect();
        // Sorted: callers fold this into trace records and repair
        // decisions, and HashMap iteration order must not leak into
        // deterministic replays.
        who.sort();
        who
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_detector_never_suspects() {
        let hb = HeartbeatState::new(Clock::wall());
        assert!(!hb.suspects("a", "b"));
    }

    #[test]
    fn silence_breeds_suspicion_and_pings_clear_it() {
        let hb = HeartbeatState::new(Clock::wall());
        hb.enable(HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspicion: Duration::from_millis(20),
            k_missed: 1,
        });
        // Watching primes the clock; not suspected yet.
        hb.watch("a", "b");
        assert!(!hb.suspects("a", "b"));
        std::thread::sleep(Duration::from_millis(30));
        assert!(hb.suspects("a", "b"));
        hb.record("a", "b");
        assert!(!hb.suspects("a", "b"));
        // Observer-relative: c never watched b, so no suspicion.
        assert!(!hb.suspects("c", "b"));
    }

    #[test]
    fn unwatched_pairs_are_never_suspected_and_queries_do_not_prime() {
        let hb = HeartbeatState::new(Clock::wall());
        hb.enable(HeartbeatConfig {
            interval: Duration::from_millis(1),
            suspicion: Duration::ZERO,
            k_missed: 1,
        });
        // suspects() is read-only: querying repeatedly never inserts a
        // clock, so an unwatched pair stays unsuspected forever even
        // with a zero suspicion timeout.
        assert!(!hb.suspects("a", "b"));
        std::thread::sleep(Duration::from_millis(5));
        assert!(!hb.suspects("a", "b"));
    }

    #[test]
    fn rewatching_does_not_reset_the_clock() {
        let hb = HeartbeatState::new(Clock::wall());
        hb.enable(HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspicion: Duration::from_millis(20),
            k_missed: 1,
        });
        hb.watch("a", "b");
        std::thread::sleep(Duration::from_millis(30));
        // A second watch must not grant a fresh suspicion window.
        hb.watch("a", "b");
        assert!(hb.suspects("a", "b"));
    }

    #[test]
    fn reprime_clears_accumulated_silence_both_ways() {
        let hb = HeartbeatState::new(Clock::wall());
        hb.enable(HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspicion: Duration::from_millis(20),
            k_missed: 1,
        });
        hb.watch("a", "b");
        hb.watch("b", "a");
        std::thread::sleep(Duration::from_millis(30));
        assert!(hb.suspects("a", "b"));
        assert!(hb.suspects("b", "a"));
        // b restarts: both directions get a fresh window immediately.
        hb.reprime("b");
        assert!(!hb.suspects("a", "b"));
        assert!(!hb.suspects("b", "a"));
    }

    #[test]
    fn hysteresis_needs_k_consecutive_silent_windows() {
        let hb = HeartbeatState::new(Clock::wall());
        hb.enable(HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspicion: Duration::from_millis(30),
            k_missed: 2,
        });
        hb.watch("a", "b");
        // One silent window is not enough under k_missed = 2 — the
        // single-window detector (k_missed = 1) would already suspect.
        std::thread::sleep(Duration::from_millis(40));
        assert!(!hb.suspects("a", "b"), "one window must not suspect");
        // Two consecutive silent windows do it.
        std::thread::sleep(Duration::from_millis(35));
        assert!(hb.suspects("a", "b"));
        // One heard ping clears the suspicion immediately, not after a
        // decayed count.
        hb.record("a", "b");
        assert!(!hb.suspects("a", "b"));
    }

    #[test]
    fn suspectors_of_lists_only_quorum_observers() {
        let hb = HeartbeatState::new(Clock::wall());
        hb.enable(HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspicion: Duration::from_millis(20),
            k_missed: 1,
        });
        hb.watch("a", "b");
        hb.watch("c", "b");
        std::thread::sleep(Duration::from_millis(30));
        // c heard b just now; only a still suspects.
        hb.record("c", "b");
        let mut who = hb.suspectors_of("b");
        who.sort();
        assert_eq!(who, vec!["a".to_string()]);
    }

    #[test]
    fn self_is_never_suspected() {
        let hb = HeartbeatState::new(Clock::wall());
        hb.enable(HeartbeatConfig {
            interval: Duration::from_millis(1),
            suspicion: Duration::ZERO,
            k_missed: 1,
        });
        assert!(!hb.suspects("a", "a"));
    }
}
