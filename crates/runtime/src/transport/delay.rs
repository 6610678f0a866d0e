//! The delay queue behind simulated links, jitter and reordering: a
//! min-heap of scheduled arrivals, drained by one service loop (wall
//! clock) or pumped by the sim executor (virtual clock), plus the
//! per-route clocks that keep delayed links FIFO and
//! bandwidth-serialized.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_kv::Update;

use super::reliability::DeliveryFilter;
use super::{DeliverFn, RouteState, INFLIGHT_ONE};
use crate::cell::JunctionId;
use crate::clock::Clock;
use crate::eventcount::{spawn_service, EventCount};
use crate::trace::{Name, TraceKind, Tracer};

struct SimPacket {
    arrival: Instant,
    seq: u64,
    to: JunctionId,
    update: Update,
    /// The route the packet travels, handed to admission with it.
    route: Arc<RouteState>,
    /// Whether the route's FIFO clock tracks this packet (not for an
    /// explicitly reordered one, which bypasses the clamp). The
    /// scheduler then decrements the route's in-flight count after
    /// delivery, which is what lets the Direct-link fast path recover.
    fifo: bool,
    /// Absolute deadline carried by the update (None = no budget).
    /// Checked at dequeue: a packet whose arrival already missed its
    /// deadline is shed instead of delivered (when shedding is on).
    deadline: Option<Instant>,
}

impl PartialEq for SimPacket {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}
impl Eq for SimPacket {}
impl PartialOrd for SimPacket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SimPacket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival, self.seq).cmp(&(other.arrival, other.seq))
    }
}

type Queue = BinaryHeap<Reverse<SimPacket>>;

/// Pop every packet of `queue` due at `now` into `due`, in (arrival,
/// seq) order.
fn pop_due(queue: &mut Queue, now: Instant, due: &mut Vec<SimPacket>) {
    while queue.peek().is_some_and(|Reverse(head)| head.arrival <= now) {
        let Reverse(p) = queue.pop().expect("peeked a head");
        due.push(p);
    }
}

/// Per-sim-link bandwidth bookkeeping (serialization of back-to-back
/// transfers at finite bandwidth).
#[derive(Default)]
pub(super) struct SimLinkClock {
    next_free: Option<Instant>,
}

impl RouteState {
    /// Clamp `arrival` so this link stays FIFO: never earlier than the
    /// latest already-scheduled arrival on the same route. Also
    /// registers the packet as in flight, which takes the route off the
    /// fast path; the sink decrements the count after delivery (see
    /// [`DelaySink::hand_over`]). The clamp resets once the link drains.
    pub(super) fn fifo_arrival(&self, arrival: Instant) -> Instant {
        let mut latest = self.fifo.lock();
        let clamped = match *latest {
            Some(l) if l > arrival => l,
            _ => arrival,
        };
        *latest = Some(clamped);
        self.state.fetch_add(INFLIGHT_ONE, Ordering::Release);
        clamped
    }

    /// One tracked packet has been handed over. The count never goes
    /// below zero: [`Network::reset_route`](super::Network::reset_route)
    /// zeroes it with packets still in flight.
    fn landed(&self) {
        let mut latest = self.fifo.lock();
        if self.inflight() > 0
            && self.state.fetch_sub(INFLIGHT_ONE, Ordering::Release) / INFLIGHT_ONE == 1
        {
            *latest = None;
        }
    }

    /// Reserve a simulated link's serialization slot for a packet of
    /// `bytes` entering at `now` and return its arrival time (`transit`
    /// = propagation latency + any fault delay). With `late_after` set,
    /// a packet whose arrival would already miss it is refused (`None`)
    /// *without* reserving bandwidth.
    pub(super) fn sim_arrival(
        &self,
        now: Instant,
        bytes: u64,
        bandwidth: u64,
        transit: Duration,
        late_after: Option<Instant>,
    ) -> Option<Instant> {
        let serialization = if bandwidth == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / bandwidth as f64)
        };
        let mut clock = self.sim_clock.lock();
        let done = clock.next_free.map_or(now, |t| t.max(now)) + serialization;
        let arrival = done + transit;
        if late_after.is_some_and(|d| arrival > d) {
            return None;
        }
        clock.next_free = Some(done);
        Some(arrival)
    }
}

/// Record a receiver-side shed (mailbox overflow at admit, expired
/// deadline at dequeue), attributed to the sender like drops.
pub(super) fn trace_shed(tracer: &Tracer, to: &JunctionId, u: &Update) {
    let ev = TraceKind::LinkShed { to: Name::Junction(*to), seq: u.seq };
    tracer.record_names(u.from.instance.as_str(), u.from.junction(), 0, ev);
}

/// Where every arrival goes: the delivery filter, then the delivery
/// callback.
#[derive(Clone)]
pub(super) struct DelaySink {
    pub(super) deliver: DeliverFn,
    pub(super) filter: DeliveryFilter,
}

impl DelaySink {
    /// Deliver one update that travelled `route`, if the filter admits
    /// it.
    pub(super) fn arrive(&self, route: &RouteState, to: &JunctionId, u: Update) {
        if self.filter.admit(route, to, &u) {
            (self.deliver)(to, u)
        }
    }

    /// Hand one due packet to the receiver — or shed it, traced and
    /// counted, if its arrival already missed its deadline and shedding
    /// is on. Only after the hand-over may the route's in-flight count
    /// drop: a zero count re-arms the Direct fast path, and synchronous
    /// delivery must not overtake a packet still being handed over.
    fn hand_over(&self, p: SimPacket) {
        let overload = &self.filter.overload;
        if p.deadline.is_some_and(|d| p.arrival > d) && overload.shed_expired() {
            overload.note_shed();
            trace_shed(&self.filter.tracer, &p.to, &p.update);
        } else {
            self.arrive(&p.route, &p.to, p.update);
        }
        if p.fifo {
            p.route.landed();
        }
    }
}

/// The delay queue behind all delayed deliveries, inside the event
/// count its service loop parks on.
pub(super) struct SimScheduler {
    queue: Arc<EventCount<Queue>>,
    seq: AtomicU64,
}

impl SimScheduler {
    pub(super) fn new(wake_signals: Arc<AtomicU64>) -> Arc<SimScheduler> {
        Arc::new(SimScheduler {
            queue: Arc::new(EventCount::new(BinaryHeap::new(), wake_signals)),
            seq: AtomicU64::new(0),
        })
    }

    /// Start the delay queue's service loop: each wake-up hands over
    /// every packet due, then parks until the next arrival or an
    /// enqueue (with an empty queue, until an enqueue). It exits once
    /// `stop` is set and [`SimScheduler::shutdown`] signals it.
    pub(super) fn spawn(&self, clock: &Clock, sink: DelaySink, stop: Arc<AtomicBool>) {
        let queue = Arc::clone(&self.queue);
        // Scratch reused across wake-ups: the drain below leaves the
        // allocation in place, so a steady stream of due packets stops
        // allocating after the first burst.
        let mut due: Vec<SimPacket> = Vec::new();
        let step = move || {
            let next = {
                let mut queue = queue.lock();
                pop_due(&mut queue, Instant::now(), &mut due);
                queue.peek().map(|Reverse(head)| head.arrival)
            };
            // Deliver without holding the lock.
            due.drain(..).for_each(|p| sink.hand_over(p));
            next
        };
        let stop = move || stop.load(Ordering::Relaxed);
        // The thread is not joined: it exits on its own once stopped.
        spawn_service(clock, "csaw-simlink", Arc::clone(&self.queue), stop, step);
    }

    /// Deliver every packet due at `now`. Virtual-clock mode: the sim
    /// executor calls this instead of running the scheduler thread.
    /// Returns how many packets were handed over.
    pub(super) fn pump_due(&self, now: Instant, sink: &DelaySink) -> usize {
        let mut due = Vec::new();
        pop_due(&mut self.queue.lock(), now, &mut due);
        let n = due.len();
        due.into_iter().for_each(|p| sink.hand_over(p));
        n
    }

    /// Feed the queued undelivered packets, in delivery order, to the
    /// sim executor's state fingerprint. Arrival times are normalized
    /// to `origin`, and the heap's global tie-break seq is reduced to
    /// relative order — it counts monotonically over a whole run, so
    /// its absolute value would make every state hash unique.
    pub(super) fn fingerprint(&self, origin: Instant, h: &mut dyn FnMut(&[u8])) {
        // (arrival, seq, to, key, from, update seq, kind, deadline)
        type PacketKey = (u64, u64, String, String, String, u64, String, u64);
        let mut packets: Vec<PacketKey> = self
            .queue
            .lock()
            .iter()
            .map(|Reverse(p)| {
                (
                    p.arrival.saturating_duration_since(origin).as_nanos() as u64,
                    p.seq,
                    p.to.qualified(),
                    p.update.key.to_string(),
                    p.update.from.to_string(),
                    p.update.seq,
                    format!("{:?}", p.update.kind),
                    p.deadline.map_or(u64::MAX, |d| {
                        d.saturating_duration_since(origin).as_nanos() as u64
                    }),
                )
            })
            .collect();
        packets.sort_by_key(|a| (a.0, a.1));
        h(&(packets.len() as u64).to_le_bytes());
        for (arr, _seq, to, key, from, useq, kind, dl) in &packets {
            h(&arr.to_le_bytes());
            h(to.as_bytes());
            h(key.as_bytes());
            h(from.as_bytes());
            h(&useq.to_le_bytes());
            h(kind.as_bytes());
            h(&dl.to_le_bytes());
        }
    }

    /// Earliest scheduled arrival still queued, if any.
    pub(super) fn next_due(&self) -> Option<Instant> {
        self.queue.lock().peek().map(|Reverse(p)| p.arrival)
    }

    pub(super) fn enqueue(
        &self,
        arrival: Instant,
        to: JunctionId,
        update: Update,
        route: Arc<RouteState>,
        fifo: bool,
        deadline: Option<Instant>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.queue
            .lock()
            .push(Reverse(SimPacket { arrival, seq, to, update, route, fifo, deadline }));
        self.queue.signal();
    }

    /// Wake the service loop to see its stop flag (set by the caller).
    pub(super) fn shutdown(&self) {
        self.queue.signal();
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use csaw_core::value::Value;
    use csaw_kv::{Update, UpdateKind};

    use crate::cell::JunctionId;
    use crate::fault::FaultPlan;
    use crate::transport::{collecting_network, LinkKind};

    #[test]
    fn sim_link_delays_delivery() {
        let (net, rx) = collecting_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(30), bandwidth: 0 },
        );
        let to = JunctionId::new("g", "junction");
        let t0 = Instant::now();
        net.send("f", &to, Update::assert("Work", "f::junction")).unwrap();
        assert!(rx.try_recv().is_err(), "should not deliver immediately");
        let (_, _) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn sim_link_bandwidth_serializes() {
        let (net, rx) = collecting_network();
        // 10 KB/s: a 1000-byte payload takes ~100ms to serialize.
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::ZERO, bandwidth: 10_000 },
        );
        let to = JunctionId::new("g", "junction");
        let t0 = Instant::now();
        net.send(
            "f",
            &to,
            Update::data("n", Value::from(vec![0; 1000]), "f::j"),
        )
        .unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(80),
            "bandwidth not applied: {elapsed:?}"
        );
    }

    #[test]
    fn sim_preserves_fifo_per_pair() {
        let (net, rx) = collecting_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(5), bandwidth: 0 },
        );
        let to = JunctionId::new("g", "junction");
        for i in 0..10 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        for i in 0..10 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(u.kind, UpdateKind::Data(Value::Int(i)));
        }
    }

    #[test]
    fn jitter_preserves_per_link_fifo() {
        // Jitter is variable latency on a FIFO link, not reordering: a
        // 5ms-jittered message must not be overtaken by a later
        // 0ms-jittered one.
        let (net, rx) = collecting_network();
        net.set_fault_plan(
            "f",
            "g",
            FaultPlan::none().with_jitter(Duration::from_millis(5)).with_seed(11),
        );
        let to = JunctionId::new("g", "junction");
        for i in 0..50 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        for i in 0..50 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(u.kind, UpdateKind::Data(Value::Int(i)), "arrived out of order");
        }
    }

    #[test]
    fn direct_fast_path_recovers_after_backlog_drains() {
        // Regression: one delayed delivery used to leave a fifo_clocks
        // entry behind forever, permanently disabling the Direct-link
        // synchronous fast path for the pair.
        let (net, rx) = collecting_network();
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(net.stats().fast_path, 1, "first send is synchronous");
        // A delayed delivery puts the link's FIFO clock in play…
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(20), bandwidth: 0 },
        );
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(net.stats().fast_path, 1);
        // …but once the backlog drains, Direct sends go synchronous
        // again (the scheduler clears the in-flight count only after
        // handing the packet over, so poll briefly).
        net.set_link("f", "g", LinkKind::Direct);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut recovered = false;
        while Instant::now() < deadline {
            net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
            rx.recv_timeout(Duration::from_secs(1)).unwrap();
            if net.stats().fast_path > 1 {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(recovered, "fast path must re-arm after the backlog drains");
    }

    #[test]
    fn explicit_reorder_lets_later_messages_overtake() {
        let (net, rx) = collecting_network();
        net.set_fault_plan(
            "f",
            "g",
            FaultPlan::none()
                .with_reorder(0.5, Duration::from_millis(30))
                .with_seed(5),
        );
        let to = JunctionId::new("g", "junction");
        for i in 0..20 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..20 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            if let UpdateKind::Data(Value::Int(i)) = u.kind {
                order.push(i);
            }
        }
        assert_eq!(order.len(), 20, "no message may be lost by reordering");
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "expected at least one inversion, got {order:?}"
        );
    }

    #[test]
    fn send_batch_keeps_fifo_on_sim_link() {
        let (net, rx) = collecting_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(5), bandwidth: 0 },
        );
        let to = JunctionId::new("g", "junction");
        net.send_batch(
            "f",
            &to,
            (0..20).map(|i| Update::data("n", Value::Int(i), "f::j")).collect(),
        )
        .unwrap();
        for i in 0..20 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(u.kind, UpdateKind::Data(Value::Int(i)));
        }
    }
}
