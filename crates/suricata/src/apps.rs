//! `InstanceApp` adapters: the engine behind the shared `csaw-arch`
//! architectures. "We reuse the architectural pattern described earlier
//! for fail-over in Redis, and interface it with Suricata's task graph"
//! and "we reuse the sharding logic from the earlier change to Redis'
//! architecture" (§2) — the DSL programs are identical, only these host
//! adapters differ.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use csaw_core::value::Value;
use csaw_runtime::{HostCtx, InstanceApp};
use parking_lot::Mutex;

use crate::engine::Engine;
use crate::packet::Packet;

/// Queue of packets a driver deposits.
pub type PacketQueue = Arc<Mutex<VecDeque<Packet>>>;

// SECTION: engine
/// A Suricata back-end: one engine processing routed packets. Hook names
/// cover the sharding (`Handle`), fail-over (`H2`) and checkpointing
/// architectures.
pub struct EngineApp {
    /// The engine (shared for driver inspection).
    pub engine: Arc<Mutex<Engine>>,
    /// Packets processed through host hooks.
    pub processed: Arc<AtomicU64>,
    pending: Option<Packet>,
    last_alerts: u32,
}

impl EngineApp {
    /// New app with a fresh engine.
    pub fn new() -> EngineApp {
        EngineApp {
            engine: Arc::new(Mutex::new(Engine::new())),
            processed: Arc::new(AtomicU64::new(0)),
            pending: None,
            last_alerts: 0,
        }
    }
}

impl Default for EngineApp {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceApp for EngineApp {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        match name {
            "Handle" | "H2" => {
                let pkt = self.pending.take().ok_or("no pending packet")?;
                let alerts = self.engine.lock().process(&pkt);
                self.last_alerts = alerts.len() as u32;
                self.processed.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            // Response: number of alerts the packet raised.
            "m" | "preresp" => Ok(Value::Int(self.last_alerts as i64)),
            // Full engine checkpoint.
            "state" => Ok(Value::from(self.engine.lock().checkpoint()?)),
            other => Err(format!("engine: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        match key {
            "n" | "req" => {
                let bytes = value.as_bytes().ok_or("expected bytes")?;
                self.pending = Some(Packet::decode(bytes)?);
                Ok(())
            }
            "state" => self
                .engine
                .lock()
                .restore(value.as_bytes().ok_or("expected bytes")?),
            other => Err(format!("engine: unexpected restore({other})")),
        }
    }
}

// ENDSECTION: engine
// SECTION: steering
/// Packet predicate deciding whether a flow is reserved to this handler.
pub type ReservePredicate = Box<dyn Fn(&Packet) -> bool + Send>;

/// The packet-steering front-end: routes by 5-tuple hash ("adds a policy
/// layer on top of Suricata's allocation of cores", §2). Plugs into the
/// *same* sharding architecture as Redis.
pub struct SteeringApp {
    /// Incoming packets.
    pub packets: PacketQueue,
    /// Alert counts returned per packet.
    pub alert_counts: Arc<Mutex<Vec<i64>>>,
    n_backends: usize,
    backend_prefix: String,
    current: Option<Packet>,
    /// Reserved shard for flows of interest (flow-level resourcing): any
    /// flow matching `reserve` is pinned to shard 0, others share 1..N.
    pub reserve: Option<ReservePredicate>,
}

impl SteeringApp {
    /// New steering front-end for N back-ends.
    pub fn new(n_backends: usize) -> SteeringApp {
        SteeringApp {
            packets: Arc::new(Mutex::new(VecDeque::new())),
            alert_counts: Arc::new(Mutex::new(Vec::new())),
            n_backends,
            backend_prefix: "Bck".into(),
            current: None,
            reserve: None,
        }
    }

    fn route(&self, p: &Packet) -> usize {
        if let Some(pred) = &self.reserve {
            if pred(p) {
                // Reserved cores for traffic of interest.
                return 0;
            }
            // Remaining traffic spreads over the other shards.
            return 1 + (p.flow_key().hash() % (self.n_backends as u64 - 1).max(1)) as usize;
        }
        p.flow_key().shard(self.n_backends)
    }
}

impl InstanceApp for SteeringApp {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "Choose" {
            let pkt = self.packets.lock().pop_front().ok_or("no pending packet")?;
            let shard = self.route(&pkt);
            self.current = Some(pkt);
            ctx.set_idx("tgt", &format!("{}{}", self.backend_prefix, shard + 1))?;
        }
        Ok(())
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            "n" => Ok(Value::from(
                self.current.as_ref().ok_or("no current packet")?.encode(),
            )),
            other => Err(format!("steering: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        match key {
            "m" => {
                self.alert_counts
                    .lock()
                    .push(value.as_int().ok_or("expected int")?);
                Ok(())
            }
            other => Err(format!("steering: unexpected restore({other})")),
        }
    }
}

// ENDSECTION: steering

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Proto;
    use csaw_kv::KeyId;

    fn pkt(src_port: u16) -> Packet {
        Packet {
            ts_usec: 0,
            src_ip: 10,
            dst_ip: 20,
            src_port,
            dst_port: 80,
            proto: Proto::Tcp,
            flags: 0,
            payload: b"x".to_vec(),
        }
    }

    fn idx_table(n: usize) -> csaw_kv::Table {
        let mut t = csaw_kv::Table::new();
        t.declare_idx(
            "tgt",
            (1..=n)
                .map(|i| csaw_core::names::SetElem::Instance(format!("Bck{i}")))
                .collect(),
        );
        t
    }

    #[test]
    fn engine_app_processes_routed_packets() {
        let mut app = EngineApp::new();
        app.restore("n", &Value::from(pkt(1000).encode())).unwrap();
        let mut t = idx_table(4);
        let writes: Vec<KeyId> = vec![];
        let mut ctx = HostCtx::new(&mut t, &writes, "b", "j");
        app.host_call("Handle", &mut ctx).unwrap();
        assert_eq!(app.processed.load(Ordering::Relaxed), 1);
        assert_eq!(app.engine.lock().packets_seen, 1);
        assert_eq!(app.save("m").unwrap(), Value::Int(0));
    }

    #[test]
    fn engine_app_checkpoint_round_trip() {
        let mut a = EngineApp::new();
        a.engine.lock().process(&pkt(1));
        let state = a.save("state").unwrap();
        let mut b = EngineApp::new();
        b.restore("state", &state).unwrap();
        assert_eq!(b.engine.lock().packets_seen, 1);
    }

    #[test]
    fn steering_routes_by_flow_hash() {
        let mut app = SteeringApp::new(4);
        let p = pkt(1234);
        let expect = p.flow_key().shard(4) + 1;
        app.packets.lock().push_back(p);
        let mut t = idx_table(4);
        let writes = vec![KeyId::new("tgt")];
        let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "j");
        app.host_call("Choose", &mut ctx).unwrap();
        assert_eq!(ctx.idx("tgt"), Some(format!("Bck{expect}").as_str()));
    }

    #[test]
    fn steering_reserves_shard_for_flows_of_interest() {
        let mut app = SteeringApp::new(4);
        app.reserve = Some(Box::new(|p: &Packet| p.dst_port == 80));
        let mut t = idx_table(4);
        let writes = vec![KeyId::new("tgt")];
        // Port-80 flow → reserved shard 1 (Bck1).
        app.packets.lock().push_back(pkt(5));
        let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "j");
        app.host_call("Choose", &mut ctx).unwrap();
        assert_eq!(ctx.idx("tgt"), Some("Bck1"));
        // Non-port-80 flow → one of Bck2..4.
        let mut other = pkt(6);
        other.dst_port = 443;
        app.packets.lock().push_back(other);
        let mut ctx = HostCtx::new(&mut t, &writes, "Fnt", "j");
        app.host_call("Choose", &mut ctx).unwrap();
        assert_ne!(ctx.idx("tgt"), Some("Bck1"));
    }
}
