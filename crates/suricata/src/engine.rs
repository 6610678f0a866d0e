//! The detection engine: a graph-based pipeline (decode → flow-track →
//! detect → output) over a multi-threaded worker abstraction, with full
//! flow-table checkpointing.

use std::collections::BTreeMap;

use csaw_serial::{decode as ser_decode, encode as ser_encode, CodecConfig, HeapValue, Prim,
    Registry, TypeDesc};

use crate::packet::{FlowKey, Packet, Proto};

/// A detection rule.
#[derive(Clone, Debug, PartialEq)]
pub enum Rule {
    /// Alert when the payload contains a byte pattern.
    Content {
        /// Rule identifier.
        sid: u32,
        /// Pattern to match.
        pattern: Vec<u8>,
        /// Human-readable message.
        msg: String,
    },
    /// Alert when a flow exceeds a packet count (scan/flood heuristic).
    FlowPackets {
        /// Rule identifier.
        sid: u32,
        /// Packet threshold.
        threshold: u64,
        /// Message.
        msg: String,
    },
    /// Alert on a bare SYN to a given port (probe detection).
    SynToPort {
        /// Rule identifier.
        sid: u32,
        /// Destination port.
        port: u16,
        /// Message.
        msg: String,
    },
}

impl Rule {
    /// The default rule set used by the experiments.
    pub fn default_rules() -> Vec<Rule> {
        let mut rules: Vec<Rule> = crate::capture::ATTACK_PATTERNS
            .iter()
            .enumerate()
            .map(|(i, pat)| Rule::Content {
                sid: 1000 + i as u32,
                pattern: pat.to_vec(),
                msg: format!("suspicious content #{i}"),
            })
            .collect();
        rules.push(Rule::FlowPackets {
            sid: 2000,
            threshold: 5_000,
            msg: "elephant flow".into(),
        });
        rules.push(Rule::SynToPort {
            sid: 3000,
            port: 22,
            msg: "ssh probe".into(),
        });
        rules
    }
}

/// An alert produced by the detect stage.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// Matching rule id.
    pub sid: u32,
    /// The offending flow.
    pub flow: FlowKey,
    /// Packet timestamp.
    pub ts_usec: u64,
    /// Message.
    pub msg: String,
}

/// Per-flow tracked state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowState {
    /// Packets seen.
    pub packets: u64,
    /// Payload bytes seen.
    pub bytes: u64,
    /// OR of TCP flags seen.
    pub flags: u8,
    /// Alerts raised on this flow.
    pub alerts: u32,
}

/// The engine: rules + flow table + counters. One engine instance per
/// back-end (the sharded experiments run four).
#[derive(Clone, Debug)]
pub struct Engine {
    rules: Vec<Rule>,
    flows: BTreeMap<FlowKey, FlowState>,
    /// Packets processed.
    pub packets_seen: u64,
    /// Payload bytes processed.
    pub bytes_seen: u64,
    /// Alerts raised.
    pub alerts_raised: u64,
}

impl Engine {
    /// Engine with the default rule set.
    pub fn new() -> Engine {
        Engine::with_rules(Rule::default_rules())
    }

    /// Engine with explicit rules.
    pub fn with_rules(rules: Vec<Rule>) -> Engine {
        Engine {
            rules,
            flows: BTreeMap::new(),
            packets_seen: 0,
            bytes_seen: 0,
            alerts_raised: 0,
        }
    }

    /// Number of tracked flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Look up a flow's state.
    pub fn flow(&self, key: &FlowKey) -> Option<&FlowState> {
        self.flows.get(key)
    }

    /// The pipeline: decode (done by the caller), flow-track, detect,
    /// output (returned alerts).
    pub fn process(&mut self, pkt: &Packet) -> Vec<Alert> {
        // Flow-track stage.
        let key = pkt.flow_key();
        let state = self.flows.entry(key).or_default();
        state.packets += 1;
        state.bytes += pkt.payload.len() as u64;
        state.flags |= pkt.flags;
        self.packets_seen += 1;
        self.bytes_seen += pkt.payload.len() as u64;
        let packets_now = state.packets;

        // Detect stage.
        let mut alerts = Vec::new();
        for rule in &self.rules {
            let fired = match rule {
                Rule::Content { pattern, .. } => {
                    !pattern.is_empty()
                        && pkt
                            .payload
                            .windows(pattern.len())
                            .any(|w| w == pattern.as_slice())
                }
                Rule::FlowPackets { threshold, .. } => packets_now == *threshold,
                Rule::SynToPort { port, .. } => {
                    pkt.proto == Proto::Tcp && pkt.dst_port == *port && pkt.flags & 0x02 != 0
                }
            };
            if fired {
                let (sid, msg) = match rule {
                    Rule::Content { sid, msg, .. }
                    | Rule::FlowPackets { sid, msg, .. }
                    | Rule::SynToPort { sid, msg, .. } => (*sid, msg.clone()),
                };
                alerts.push(Alert { sid, flow: key, ts_usec: pkt.ts_usec, msg });
            }
        }
        if !alerts.is_empty() {
            let state = self.flows.get_mut(&key).expect("flow just inserted");
            state.alerts += alerts.len() as u32;
            self.alerts_raised += alerts.len() as u64;
        }
        alerts
    }

    // -----------------------------------------------------------------
    // Checkpointing (flow table + counters via csaw-serial)
    // -----------------------------------------------------------------

    fn ckpt_registry() -> Registry {
        let mut reg = Registry::new();
        let entry = TypeDesc::strct(
            "flow_entry",
            vec![
                ("src_ip", TypeDesc::Prim(Prim::U32)),
                ("dst_ip", TypeDesc::Prim(Prim::U32)),
                ("src_port", TypeDesc::Prim(Prim::U16)),
                ("dst_port", TypeDesc::Prim(Prim::U16)),
                ("proto", TypeDesc::Prim(Prim::U8)),
                ("packets", TypeDesc::Prim(Prim::U64)),
                ("bytes", TypeDesc::Prim(Prim::U64)),
                ("flags", TypeDesc::Prim(Prim::U8)),
                ("alerts", TypeDesc::Prim(Prim::U32)),
            ],
        );
        reg.register("flow_entry", entry);
        reg.register_list_node("flow_list", TypeDesc::Named("flow_entry".into()));
        reg.register(
            "engine_state",
            TypeDesc::strct(
                "engine_state",
                vec![
                    ("packets_seen", TypeDesc::Prim(Prim::U64)),
                    ("bytes_seen", TypeDesc::Prim(Prim::U64)),
                    ("alerts_raised", TypeDesc::Prim(Prim::U64)),
                    ("flows", TypeDesc::ptr(TypeDesc::Named("flow_list".into()))),
                ],
            ),
        );
        reg
    }

    /// Serialize engine state (the checkpoint payload). The codec walks
    /// the flow list in a loop, so no list length needs a deep stack;
    /// it runs on `with_big_stack`'s thread for the reason
    /// `mini_redis::Store::checkpoint` gives.
    pub fn checkpoint(&self) -> Result<Vec<u8>, String> {
        csaw_serial::codec::with_big_stack(|| self.checkpoint_inner())
    }

    fn checkpoint_inner(&self) -> Result<Vec<u8>, String> {
        let reg = Self::ckpt_registry();
        let flows = HeapValue::list_from(self.flows.iter().map(|(k, s)| {
            HeapValue::Struct(vec![
                HeapValue::UInt(k.src_ip as u64),
                HeapValue::UInt(k.dst_ip as u64),
                HeapValue::UInt(k.src_port as u64),
                HeapValue::UInt(k.dst_port as u64),
                HeapValue::UInt(k.proto.number() as u64),
                HeapValue::UInt(s.packets),
                HeapValue::UInt(s.bytes),
                HeapValue::UInt(s.flags as u64),
                HeapValue::UInt(s.alerts as u64),
            ])
        }));
        let state = HeapValue::Struct(vec![
            HeapValue::UInt(self.packets_seen),
            HeapValue::UInt(self.bytes_seen),
            HeapValue::UInt(self.alerts_raised),
            flows,
        ]);
        let cfg = CodecConfig {
            max_depth: self.flows.len() + 8,
            max_bytes: 64 << 20,
        };
        ser_encode(&state, &TypeDesc::Named("engine_state".into()), &reg, &cfg)
            .map_err(|e| e.to_string())
    }

    /// Restore engine state from a checkpoint.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        csaw_serial::codec::with_big_stack(|| self.restore_inner(bytes))
    }

    fn restore_inner(&mut self, bytes: &[u8]) -> Result<(), String> {
        let reg = Self::ckpt_registry();
        let cfg = CodecConfig { max_depth: 1 << 22, max_bytes: 64 << 20 };
        let state = ser_decode(bytes, &TypeDesc::Named("engine_state".into()), &reg, &cfg)
            .map_err(|e| e.to_string())?;
        let HeapValue::Struct(fields) = &state else {
            return Err("bad engine state".into());
        };
        let uint = |v: &HeapValue| -> Result<u64, String> {
            match v {
                HeapValue::UInt(u) => Ok(*u),
                other => Err(format!("expected uint, got {other:?}")),
            }
        };
        self.packets_seen = uint(&fields[0])?;
        self.bytes_seen = uint(&fields[1])?;
        self.alerts_raised = uint(&fields[2])?;
        self.flows.clear();
        for node in fields[3].list_values() {
            let HeapValue::Struct(f) = node else {
                return Err("bad flow entry".into());
            };
            let key = FlowKey {
                src_ip: uint(&f[0])? as u32,
                dst_ip: uint(&f[1])? as u32,
                src_port: uint(&f[2])? as u16,
                dst_port: uint(&f[3])? as u16,
                proto: Proto::from_number(uint(&f[4])? as u8).ok_or("bad proto")?,
            };
            self.flows.insert(
                key,
                FlowState {
                    packets: uint(&f[5])?,
                    bytes: uint(&f[6])?,
                    flags: uint(&f[7])? as u8,
                    alerts: uint(&f[8])? as u32,
                },
            );
        }
        Ok(())
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CaptureSpec, SyntheticCapture};

    fn pkt(payload: &[u8], dst_port: u16, flags: u8) -> Packet {
        Packet {
            ts_usec: 1,
            src_ip: 1,
            dst_ip: 2,
            src_port: 1234,
            dst_port,
            proto: Proto::Tcp,
            flags,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn content_rule_fires() {
        let mut e = Engine::new();
        let alerts = e.process(&pkt(b"xx /etc/passwd yy", 80, 0x18));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].sid, 1000);
        assert_eq!(e.alerts_raised, 1);
        // Benign payload: no alert.
        assert!(e.process(&pkt(b"hello world", 80, 0x18)).is_empty());
    }

    #[test]
    fn syn_probe_rule_fires() {
        let mut e = Engine::new();
        let alerts = e.process(&pkt(b"", 22, 0x02));
        assert!(alerts.iter().any(|a| a.sid == 3000));
        // Non-SYN to 22 is fine.
        assert!(e.process(&pkt(b"", 22, 0x18)).is_empty());
    }

    #[test]
    fn flow_threshold_fires_once() {
        let mut e = Engine::with_rules(vec![Rule::FlowPackets {
            sid: 9,
            threshold: 3,
            msg: "x".into(),
        }]);
        let p = pkt(b"a", 80, 0);
        assert!(e.process(&p).is_empty());
        assert!(e.process(&p).is_empty());
        assert_eq!(e.process(&p).len(), 1);
        assert!(e.process(&p).is_empty(), "fires only at the threshold");
    }

    #[test]
    fn flow_tracking_accumulates() {
        let mut e = Engine::new();
        let p = pkt(b"abcd", 80, 0x18);
        e.process(&p);
        e.process(&p);
        let st = e.flow(&p.flow_key()).unwrap();
        assert_eq!(st.packets, 2);
        assert_eq!(st.bytes, 8);
        assert_eq!(e.flow_count(), 1);
        assert_eq!(e.packets_seen, 2);
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut e = Engine::new();
        let cap = SyntheticCapture::generate(&CaptureSpec {
            flows: 30,
            packets: 1000,
            ..Default::default()
        });
        for p in &cap.packets {
            e.process(p);
        }
        let blob = e.checkpoint().unwrap();
        let mut e2 = Engine::new();
        e2.restore(&blob).unwrap();
        assert_eq!(e2.packets_seen, e.packets_seen);
        assert_eq!(e2.bytes_seen, e.bytes_seen);
        assert_eq!(e2.alerts_raised, e.alerts_raised);
        assert_eq!(e2.flow_count(), e.flow_count());
        assert_eq!(e2.flows, e.flows);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut e = Engine::new();
        assert!(e.restore(&[9, 9, 9]).is_err());
    }

    #[test]
    fn capture_replay_raises_alerts() {
        let mut e = Engine::new();
        let cap = SyntheticCapture::generate(&CaptureSpec {
            flows: 50,
            packets: 3000,
            attack_fraction: 0.05,
            ..Default::default()
        });
        for p in &cap.packets {
            e.process(p);
        }
        assert!(e.alerts_raised > 20, "alerts = {}", e.alerts_raised);
        assert_eq!(e.packets_seen, 3000);
    }
}
