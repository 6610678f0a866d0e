//! Overload control: bounded queues, deadline budgets and retry
//! budgets (graceful degradation under saturation).
//!
//! The runtime is closed-loop everywhere *except* under overload: a
//! traffic storm grows mailboxes and transport outboxes without bound,
//! amplifies loss into retry storms, and starves the heartbeats the
//! supervisor depends on — the metastable path where saturation
//! masquerades as crashes and repairs make it worse. This module holds
//! the knobs that close that loop:
//!
//! * **Bounded queues + backpressure** ([`OverloadConfig::outbox_bound`],
//!   [`OverloadConfig::mailbox_bound`]): a producer whose route outbox
//!   or target mailbox is full sees a typed, retryable
//!   [`SendError::QueueFull`](crate::transport::SendError::QueueFull)
//!   instead of silent unbounded growth.
//! * **Deadline propagation + shedding**
//!   ([`OverloadConfig::ingress_deadline`],
//!   [`OverloadConfig::shed_expired`]): every data-plane update can
//!   carry an absolute deadline (attached at ingress or inherited from
//!   the sending activation's `otherwise[t]` budget); expired work is
//!   shed — at dispatch when the link's predicted arrival already
//!   misses the deadline, and again at dequeue — with an explicit
//!   `link_shed` trace event. A shed request is never acked, so the
//!   conformance checker treats sheds as first-class non-deliveries.
//! * **Retry budgets** ([`RetryBudgetPolicy`]): transport retries are
//!   capped per route as a fraction of fresh sends (token bucket), so
//!   loss under overload cannot turn into a retry storm.
//! * **Control-plane isolation** ([`OverloadConfig::priority_lane`]):
//!   heartbeat/supervisor/hold-release traffic bypasses the data-plane
//!   bounds, so saturation cannot fake a crash and trip the escalation
//!   ladder. Turning the lane off reproduces exactly that metastable
//!   failure (see the `Overload` sim scenario's deliberate bug).
//!
//! All bounds default to *off* (zero / `None`), so an unconfigured
//! runtime behaves exactly as before.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::cell::JunctionId;
use crate::metrics::Metrics;
use crate::transport::{MailboxProbe, UNSEEDED};

/// Overload-control knobs for a [`Network`](crate::transport::Network)
/// (installed via `Runtime::set_overload` or
/// `RuntimeConfig::overload`). The zero/`None` value of every bound
/// means "unbounded", so `OverloadConfig::default()` is a no-op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadConfig {
    /// Max scheduled deliveries in flight per directed route before the
    /// sender sees `QueueFull` (0 = unbounded). Applies to data-plane
    /// sends only while [`OverloadConfig::priority_lane`] is on.
    pub outbox_bound: usize,
    /// Max pending updates in a destination junction's mailbox before
    /// the sender sees `QueueFull` (send side) or the delivery is shed
    /// (receive side). 0 = unbounded.
    pub mailbox_bound: usize,
    /// Default deadline budget attached to data-plane sends that carry
    /// none of their own (`None` = no ingress deadline).
    pub ingress_deadline: Option<Duration>,
    /// Shed expired work: refuse dispatch when the link's predicted
    /// arrival misses the deadline, and drop expired packets at
    /// dequeue. Off by default — deadlines are carried but not acted
    /// on.
    pub shed_expired: bool,
    /// Control-plane priority lane: unsequenced probes (heartbeats,
    /// supervisor traffic) bypass the outbox/mailbox bounds. Turning
    /// this off subjects the control plane to data-plane backpressure —
    /// the classic metastable bug where saturation looks like a crash.
    pub priority_lane: bool,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            outbox_bound: 0,
            mailbox_bound: 0,
            ingress_deadline: None,
            shed_expired: false,
            priority_lane: true,
        }
    }
}

/// Per-route retry token bucket: each fresh (first-attempt) send earns
/// `per_send_milli` millitokens, each retry costs 1000, and the bucket
/// is clamped to `cap_milli`. A route out of tokens fails its retryable
/// error through immediately (counted as `retries_suppressed`), so
/// retries stay a bounded fraction of fresh traffic instead of
/// amplifying loss into a storm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryBudgetPolicy {
    /// Master switch (default on).
    pub enabled: bool,
    /// Tokens a fresh route starts with, in millitokens (1000 = one
    /// retry). The burst allowance.
    pub initial_milli: u64,
    /// Millitokens earned per fresh send (1000 ⇒ at most one retry per
    /// fresh send in steady state, i.e. ≤ 2× amplification).
    pub per_send_milli: u64,
    /// Bucket cap in millitokens.
    pub cap_milli: u64,
}

impl Default for RetryBudgetPolicy {
    fn default() -> Self {
        // Generous: a 256-retry burst allowance and one earned retry
        // per fresh send — invisible at test scale, a hard ceiling
        // under a storm.
        RetryBudgetPolicy {
            enabled: true,
            initial_milli: 256_000,
            per_send_milli: 1000,
            cap_milli: 1_024_000,
        }
    }
}

impl RetryBudgetPolicy {
    /// A disabled budget (retries bounded only by
    /// [`RetryPolicy::max_retries`](crate::fault::RetryPolicy)).
    pub fn disabled() -> Self {
        RetryBudgetPolicy { enabled: false, ..Default::default() }
    }
}

/// Snapshot of the overload-layer counters (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Deliveries shed because their deadline expired (dispatch-time
    /// prediction + dequeue-time check + mailbox-overflow sheds).
    pub shed: u64,
    /// Sends refused with `QueueFull` (outbox or mailbox bound).
    pub queue_full: u64,
    /// Sends refused with `DeadlineExpired` before dispatch.
    pub deadline_expired: u64,
    /// Retries suppressed by an exhausted retry budget.
    pub retries_suppressed: u64,
}

/// Shared overload-control state: the installed [`OverloadConfig`] and
/// [`RetryBudgetPolicy`] flattened into atomics (the send hot path
/// reads them with relaxed loads, no lock), the mailbox-depth probe,
/// and the overload counters — handles into the metrics registry, so
/// [`OverloadStats`] and the `csaw_link_*_total` lines are one number.
/// One `Arc` shared by the network's send path, its delivery filter
/// and its delay queue.
pub(crate) struct OverloadState {
    outbox_bound: AtomicUsize,
    mailbox_bound: AtomicUsize,
    /// Ingress deadline budget in nanoseconds (0 = none).
    ingress_deadline_nanos: AtomicU64,
    shed_expired: AtomicBool,
    priority_lane: AtomicBool,
    /// Retry budget, flattened (millitokens).
    budget_enabled: AtomicBool,
    budget_initial: AtomicU64,
    budget_per_send: AtomicU64,
    budget_cap: AtomicU64,
    /// Mailbox-depth probe, installed once by the runtime; admission
    /// reads it without a lock.
    probe: OnceLock<MailboxProbe>,
    shed: Arc<AtomicU64>,
    queue_full: Arc<AtomicU64>,
    deadline_expired: Arc<AtomicU64>,
    retries_suppressed: Arc<AtomicU64>,
}

impl OverloadState {
    pub(crate) fn new(metrics: &Metrics) -> Arc<OverloadState> {
        let cfg = OverloadConfig::default();
        let budget = RetryBudgetPolicy::default();
        Arc::new(OverloadState {
            outbox_bound: AtomicUsize::new(cfg.outbox_bound),
            mailbox_bound: AtomicUsize::new(cfg.mailbox_bound),
            ingress_deadline_nanos: AtomicU64::new(0),
            shed_expired: AtomicBool::new(cfg.shed_expired),
            priority_lane: AtomicBool::new(cfg.priority_lane),
            budget_enabled: AtomicBool::new(budget.enabled),
            budget_initial: AtomicU64::new(budget.initial_milli),
            budget_per_send: AtomicU64::new(budget.per_send_milli),
            budget_cap: AtomicU64::new(budget.cap_milli),
            probe: OnceLock::new(),
            shed: metrics.counter("link_shed_total"),
            queue_full: metrics.counter("link_queue_full_total"),
            deadline_expired: metrics.counter("link_deadline_expired_total"),
            retries_suppressed: metrics.counter("link_retries_suppressed_total"),
        })
    }

    pub(crate) fn set_config(&self, cfg: OverloadConfig) {
        self.outbox_bound.store(cfg.outbox_bound, Ordering::Relaxed);
        self.mailbox_bound.store(cfg.mailbox_bound, Ordering::Relaxed);
        self.ingress_deadline_nanos.store(
            cfg.ingress_deadline.map_or(0, |d| d.as_nanos() as u64),
            Ordering::Relaxed,
        );
        self.shed_expired.store(cfg.shed_expired, Ordering::Relaxed);
        self.priority_lane.store(cfg.priority_lane, Ordering::Relaxed);
    }

    pub(crate) fn config(&self) -> OverloadConfig {
        OverloadConfig {
            outbox_bound: self.outbox_bound.load(Ordering::Relaxed),
            mailbox_bound: self.mailbox_bound.load(Ordering::Relaxed),
            ingress_deadline: self.ingress_deadline(),
            shed_expired: self.shed_expired(),
            priority_lane: self.priority_lane.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn set_budget(&self, b: RetryBudgetPolicy) {
        self.budget_enabled.store(b.enabled, Ordering::Relaxed);
        self.budget_initial.store(b.initial_milli, Ordering::Relaxed);
        self.budget_per_send.store(b.per_send_milli, Ordering::Relaxed);
        self.budget_cap.store(b.cap_milli, Ordering::Relaxed);
    }

    /// Install the mailbox-depth probe; the first one installed stays.
    pub(crate) fn set_probe(&self, probe: MailboxProbe) {
        let _ = self.probe.set(probe);
    }

    pub(crate) fn shed_expired(&self) -> bool {
        self.shed_expired.load(Ordering::Relaxed)
    }

    /// Current ingress deadline budget, if configured.
    pub(crate) fn ingress_deadline(&self) -> Option<Duration> {
        let nanos = self.ingress_deadline_nanos.load(Ordering::Relaxed);
        (nanos > 0).then(|| Duration::from_nanos(nanos))
    }

    /// Whether the destination mailbox is at or over its depth bound.
    /// A mailbox the probe cannot observe (none installed, table lock
    /// held) counts as not full.
    pub(crate) fn mailbox_full(&self, to: &JunctionId) -> bool {
        let bound = self.mailbox_bound.load(Ordering::Relaxed);
        if bound == 0 {
            return false;
        }
        self.probe.get().and_then(|p| p(to)).is_some_and(|len| len >= bound)
    }

    /// Send-side admission: whether a queue bound refuses this send.
    /// The bounds apply to the data plane, and to the control plane too
    /// once the priority lane is switched off. `route_inflight` is only
    /// called when an outbox bound is installed, so the unconfigured
    /// hot path takes no lock.
    pub(crate) fn refuses_send(
        &self,
        data_plane: bool,
        route_inflight: impl FnOnce() -> u64,
        to: &JunctionId,
    ) -> bool {
        if !data_plane && self.priority_lane.load(Ordering::Relaxed) {
            return false;
        }
        let obound = self.outbox_bound.load(Ordering::Relaxed);
        (obound > 0 && route_inflight() >= obound as u64) || self.mailbox_full(to)
    }

    /// A route's bucket as a budget reads it: [`UNSEEDED`] until the
    /// first stamp seeds the initial allowance.
    fn tokens(&self, bucket: u64) -> u64 {
        match bucket {
            UNSEEDED => self.budget_initial.load(Ordering::Relaxed),
            t => t,
        }
    }

    /// A fresh send earns retry-budget tokens into its route's bucket.
    /// A full bucket is only read.
    pub(crate) fn earn_retry_tokens(&self, bucket: &AtomicU64) {
        if self.budget_enabled.load(Ordering::Relaxed) {
            let per_send = self.budget_per_send.load(Ordering::Relaxed);
            let cap = self.budget_cap.load(Ordering::Relaxed);
            let _ = bucket.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                let earned = self.tokens(cur).saturating_add(per_send).min(cap);
                (earned != cur).then_some(earned)
            });
        }
    }

    /// Pay for one retry (1000 millitokens) out of the route's bucket.
    /// `false` — counted as a suppressed retry — when the bucket is
    /// exhausted; always `true` while the budget is disabled.
    pub(crate) fn spend_retry_token(&self, bucket: &AtomicU64) -> bool {
        if !self.budget_enabled.load(Ordering::Relaxed) {
            return true;
        }
        let paid = bucket.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            self.tokens(cur).checked_sub(1000)
        });
        if paid.is_err() {
            self.retries_suppressed.fetch_add(1, Ordering::Relaxed);
        }
        paid.is_ok()
    }

    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_queue_full(&self) {
        self.queue_full.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> OverloadStats {
        OverloadStats {
            shed: self.shed.load(Ordering::Relaxed),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            retries_suppressed: self.retries_suppressed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Instant;

    use csaw_core::value::Value;
    use csaw_kv::Update;

    use super::*;
    use crate::clock::Clock;
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::trace::Tracer;
    use crate::transport::{collecting_network, DeliverFn, LinkKind, Network, SendError};

    #[test]
    fn defaults_are_inert() {
        let c = OverloadConfig::default();
        assert_eq!(c.outbox_bound, 0);
        assert_eq!(c.mailbox_bound, 0);
        assert!(c.ingress_deadline.is_none());
        assert!(!c.shed_expired);
        assert!(c.priority_lane);
    }

    #[test]
    fn retry_budget_default_is_generous_but_finite() {
        let b = RetryBudgetPolicy::default();
        assert!(b.enabled);
        assert!(b.initial_milli >= 1000);
        assert!(b.cap_milli >= b.initial_milli);
        assert!(!RetryBudgetPolicy::disabled().enabled);
    }

    #[test]
    fn outbox_bound_refuses_with_queue_full() {
        let (net, rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(200), bandwidth: 0 },
        );
        net.set_overload(OverloadConfig { outbox_bound: 2, ..Default::default() });
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::data("n", Value::Int(0), "f::j")).unwrap();
        net.send("f", &to, Update::data("n", Value::Int(1), "f::j")).unwrap();
        let err = net.send("f", &to, Update::data("n", Value::Int(2), "f::j")).unwrap_err();
        assert!(matches!(err, SendError::QueueFull), "got {err}");
        assert!(err.is_retryable(), "QueueFull is backpressure, not a fatal error");
        assert_eq!(net.stats().queue_full, 1);
        // The two admitted sends still land.
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn priority_lane_exempts_control_traffic_until_disabled() {
        let (net, _rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(200), bandwidth: 0 },
        );
        net.set_overload(OverloadConfig { outbox_bound: 1, ..Default::default() });
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::data("n", Value::Int(0), "f::j")).unwrap();
        // Data plane is full; a raw (heartbeat-style) send still goes.
        net.send_raw("f", &to, Update::assert("hb", "f::j")).unwrap();
        // Without the lane, control traffic faces the same bound — the
        // metastable configuration the Overload scenario's bug proves.
        net.set_overload(OverloadConfig {
            outbox_bound: 1,
            priority_lane: false,
            ..Default::default()
        });
        let err = net.send_raw("f", &to, Update::assert("hb", "f::j")).unwrap_err();
        assert!(matches!(err, SendError::QueueFull), "got {err}");
    }

    #[test]
    fn expired_deadline_is_shed_before_reserving_the_link() {
        let (net, rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(100), bandwidth: 0 },
        );
        net.set_overload(OverloadConfig { shed_expired: true, ..Default::default() });
        let to = JunctionId::new("g", "junction");
        // A 1ms budget cannot survive a 100ms link: the dispatch
        // predictor sheds it without queueing anything.
        let err = net
            .send_with_deadline(
                "f",
                &to,
                Update::data("n", Value::Int(0), "f::j"),
                Some(Instant::now() + Duration::from_millis(1)),
            )
            .unwrap_err();
        assert!(matches!(err, SendError::DeadlineExpired), "got {err}");
        assert!(!err.is_retryable(), "an expired deadline cannot be outwaited");
        let s = net.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.deadline_expired, 1);
        assert!(
            rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "shed update must never be delivered"
        );
        // A comfortable budget passes untouched.
        net.send_with_deadline(
            "f",
            &to,
            Update::data("n", Value::Int(1), "f::j"),
            Some(Instant::now() + Duration::from_secs(5)),
        )
        .unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn retry_budget_caps_retry_amplification() {
        let (net, _rx) = collecting_network();
        // Always-dropping link with a generous retry policy: without a
        // budget each send would burn max_retries attempts.
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(1.0).with_seed(7));
        net.set_retry_policy(RetryPolicy {
            enabled: true,
            max_retries: 100,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
        });
        // Two retries of burst, nothing earned per send.
        net.set_retry_budget(RetryBudgetPolicy {
            enabled: true,
            initial_milli: 2000,
            per_send_milli: 0,
            cap_milli: 2000,
        });
        let to = JunctionId::new("g", "junction");
        let err = net.send("f", &to, Update::data("n", Value::Int(0), "f::j")).unwrap_err();
        assert!(matches!(err, SendError::LinkDropped), "got {err}");
        let s = net.stats();
        assert_eq!(s.retries, 2, "budget must stop the retry loop at 2 tokens");
        assert_eq!(s.retries_suppressed, 1);
        // Disabled budget falls back to the policy bound.
        net.set_retry_budget(RetryBudgetPolicy::disabled());
        net.set_retry_policy(RetryPolicy {
            enabled: true,
            max_retries: 5,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
        });
        let _ = net.send("f", &to, Update::data("n", Value::Int(1), "f::j")).unwrap_err();
        assert_eq!(net.stats().retries, 2 + 5);
    }

    #[test]
    fn mailbox_bound_consults_probe_and_sheds_at_admit() {
        let (net, _rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        // Probe reports the target junction as saturated.
        net.set_mailbox_probe(Arc::new(|to: &JunctionId| {
            if to.junction == "busy" {
                Some(100)
            } else {
                Some(0)
            }
        }));
        net.set_overload(OverloadConfig { mailbox_bound: 8, ..Default::default() });
        let busy = JunctionId::new("g", "busy");
        let idle = JunctionId::new("g", "idle");
        let err = net.send("f", &busy, Update::assert("Work", "f::j")).unwrap_err();
        assert!(matches!(err, SendError::QueueFull), "got {err}");
        net.send("f", &idle, Update::assert("Work", "f::j")).unwrap();
        assert_eq!(net.stats().queue_full, 1);
    }

    #[test]
    fn overload_metrics_register_in_prometheus_rendering() {
        let (tx, _rx) = mpsc::channel();
        let deliver: DeliverFn = Arc::new(move |to: &JunctionId, u: Update| {
            tx.send((*to, u)).ok();
        });
        let metrics = Arc::new(Metrics::new());
        let net =
            Network::with_telemetry(deliver, Arc::new(Tracer::new()), &metrics, Clock::wall());
        net.refresh_overload_gauges();
        let text = metrics.render_prometheus();
        for name in [
            "csaw_link_shed_total",
            "csaw_link_queue_full_total",
            "csaw_link_deadline_expired_total",
            "csaw_link_retries_suppressed_total",
            "csaw_link_inflight",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
