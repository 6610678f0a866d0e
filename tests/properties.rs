//! Randomized property tests on the core invariants, spanning crates.
//!
//! These were originally proptest-based; the offline build vendors a
//! minimal `rand` shim instead, so each property is exercised over a
//! fixed-seed randomized corpus (deterministic across runs).

use csaw::core::formula::{Dnf, DnfLit, Formula, Ternary};
use csaw::core::names::JRef;
use csaw::kv::{Table, Update};
use csaw::serial::{decode, encode, CodecConfig, HeapValue, Prim, Registry, TypeDesc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every randomized corpus honors the unified `CSAW_SEED` override —
/// the same knob the chaos soaks and the deterministic-simulation
/// harness use — and prints its seed, so a failing test names the
/// exact corpus to reproduce.
fn corpus_rng(default: u64) -> StdRng {
    let seed = csaw::runtime::env_seed(default);
    eprintln!("corpus seed: {seed:#x} (override with CSAW_SEED)");
    StdRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------------
// Formulas: DNF preserves truth under every assignment
// ---------------------------------------------------------------------

fn arb_formula(rng: &mut StdRng, depth: usize) -> Formula {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..3) {
            0 => Formula::False,
            1 => Formula::True,
            _ => Formula::prop(format!("P{}", rng.gen_range(0..4u8))),
        };
    }
    match rng.gen_range(0..4) {
        0 => arb_formula(rng, depth - 1).not(),
        1 => arb_formula(rng, depth - 1).and(arb_formula(rng, depth - 1)),
        2 => arb_formula(rng, depth - 1).or(arb_formula(rng, depth - 1)),
        _ => arb_formula(rng, depth - 1).implies(arb_formula(rng, depth - 1)),
    }
}

fn eval_bool(f: &Formula, assignment: &[bool; 4]) -> bool {
    let local = |k: &str| {
        k.strip_prefix('P')
            .and_then(|i| i.parse::<usize>().ok())
            .map(|i| assignment[i])
    };
    let remote = |_: &JRef, _: &str| Ternary::Unknown;
    let sub = |_: &str, _: &str| Ternary::Unknown;
    f.eval(&local, &remote, &sub) == Ternary::True
}

fn eval_dnf(d: &Dnf, assignment: &[bool; 4]) -> bool {
    d.clauses.iter().any(|clause| {
        clause.iter().all(|lit| match lit {
            DnfLit::Prop(k, want) => {
                let i: usize = k[1..].parse().unwrap();
                assignment[i] == *want
            }
            _ => false,
        })
    })
}

fn assignments() -> impl Iterator<Item = [bool; 4]> {
    (0u8..16).map(|bits| {
        [
            bits & 1 != 0,
            bits & 2 != 0,
            bits & 4 != 0,
            bits & 8 != 0,
        ]
    })
}

/// The §8.3 DNF decomposition is truth-preserving.
#[test]
fn dnf_preserves_truth() {
    let mut rng = corpus_rng(0xD1F0);
    for _ in 0..200 {
        let f = arb_formula(&mut rng, 4);
        let d = f.dnf();
        for assignment in assignments() {
            let direct = eval_bool(&f, &assignment);
            let via_dnf = eval_dnf(&d, &assignment);
            assert_eq!(direct, via_dnf, "formula {} under {:?}", f, assignment);
        }
    }
}

/// Double negation and De Morgan hold through DNF.
#[test]
fn dnf_double_negation() {
    let mut rng = corpus_rng(0xD2F0);
    for _ in 0..200 {
        let f = arb_formula(&mut rng, 4);
        let nn = f.clone().not().not();
        let (d, dnn) = (f.dnf(), nn.dnf());
        for assignment in assignments() {
            assert_eq!(
                eval_dnf(&d, &assignment),
                eval_dnf(&dnn, &assignment),
                "formula {} under {:?}",
                f,
                assignment
            );
        }
    }
}

// ---------------------------------------------------------------------
// KV tables: update-queue semantics
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum TableOp {
    Deliver(u8, bool),
    LocalWrite(u8, bool),
    BeginEnd,
    Keep(u8),
    Flush,
}

fn arb_ops(rng: &mut StdRng) -> Vec<TableOp> {
    let n = rng.gen_range(0..40);
    (0..n)
        .map(|_| match rng.gen_range(0..5) {
            0 => TableOp::Deliver(rng.gen_range(0..3u8), rng.gen()),
            1 => TableOp::LocalWrite(rng.gen_range(0..3u8), rng.gen()),
            2 => TableOp::BeginEnd,
            3 => TableOp::Keep(rng.gen_range(0..3u8)),
            _ => TableOp::Flush,
        })
        .collect()
}

/// Whatever the op sequence: declared keys never disappear, reads
/// never panic, and a final flush empties the pending queue.
#[test]
fn table_is_robust_under_op_sequences() {
    let mut rng = corpus_rng(0x7AB1E);
    for _ in 0..100 {
        let ops = arb_ops(&mut rng);
        let mut t = Table::new();
        for k in 0..3u8 {
            t.declare_prop(format!("P{k}"), false);
        }
        for op in &ops {
            match op {
                TableOp::Deliver(k, v) => {
                    let key = format!("P{k}");
                    let u = if *v {
                        Update::assert(key, "x")
                    } else {
                        Update::retract(key, "x")
                    };
                    t.deliver(u);
                }
                TableOp::LocalWrite(k, v) => {
                    t.set_prop_local(format!("P{k}"), *v).unwrap();
                }
                TableOp::BeginEnd => {
                    t.begin_activation();
                    t.end_activation();
                }
                TableOp::Keep(k) => t.keep(&[format!("P{k}")]),
                TableOp::Flush => t.flush_pending(),
            }
            for k in 0..3u8 {
                let key = format!("P{k}");
                assert!(t.prop(&key).is_some(), "{key} vanished under {ops:?}");
            }
        }
        t.flush_pending();
        assert_eq!(t.pending_len(), 0);
    }
}

/// An idle junction eventually observes the last delivered value
/// (updates apply in arrival order at the next scheduling).
#[test]
fn last_delivery_wins_when_idle() {
    let mut rng = corpus_rng(0x1D1E);
    for _ in 0..100 {
        let n = rng.gen_range(1..20);
        let values: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let mut t = Table::new();
        t.declare_prop("P", false);
        for v in &values {
            let u = if *v {
                Update::assert("P", "x")
            } else {
                Update::retract("P", "x")
            };
            t.deliver(u);
        }
        t.begin_activation();
        assert_eq!(t.prop("P"), Some(*values.last().unwrap()));
    }
}

// ---------------------------------------------------------------------
// Serialization: schema-directed round trips
// ---------------------------------------------------------------------

fn arb_lowercase(rng: &mut StdRng, max_len: usize) -> String {
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect()
}

fn arb_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen()).collect()
}

fn arb_flat_schema_and_value(rng: &mut StdRng) -> (TypeDesc, HeapValue) {
    let n_fields = rng.gen_range(1..8);
    let fields: Vec<(TypeDesc, HeapValue)> = (0..n_fields)
        .map(|_| match rng.gen_range(0..5) {
            0 => (TypeDesc::Prim(Prim::I64), HeapValue::Int(rng.gen::<i64>())),
            1 => (
                TypeDesc::Prim(Prim::U32),
                HeapValue::UInt(rng.gen::<u32>() as u64),
            ),
            2 => (TypeDesc::Prim(Prim::Bool), HeapValue::Bool(rng.gen())),
            3 => (
                TypeDesc::CString { max_len: 64 },
                HeapValue::CString(arb_lowercase(rng, 12)),
            ),
            _ => (
                TypeDesc::Blob { max_len: 64 },
                HeapValue::Blob(arb_bytes(rng, 48)),
            ),
        })
        .collect();
    let (types, values): (Vec<_>, Vec<_>) = fields.into_iter().unzip();
    let ty = TypeDesc::Struct {
        name: "t".into(),
        fields: types
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("f{i}"), t))
            .collect(),
    };
    (ty, HeapValue::Struct(values))
}

/// encode ∘ decode = id for arbitrary flat structs.
#[test]
fn serial_round_trips() {
    let mut rng = corpus_rng(0x5E41);
    for _ in 0..100 {
        let (ty, value) = arb_flat_schema_and_value(&mut rng);
        let reg = Registry::new();
        let cfg = CodecConfig::default();
        let bytes = encode(&value, &ty, &reg, &cfg).unwrap();
        let back = decode(&bytes, &ty, &reg, &cfg).unwrap();
        assert_eq!(back, value);
    }
}

/// Linked lists of arbitrary length round-trip (within depth).
#[test]
fn serial_list_round_trips() {
    let mut rng = corpus_rng(0x5E42);
    for _ in 0..40 {
        let n = rng.gen_range(0..64);
        let values: Vec<i64> = (0..n).map(|_| rng.gen()).collect();
        let mut reg = Registry::new();
        reg.register_list_node("node", TypeDesc::Prim(Prim::I64));
        let ty = TypeDesc::ptr(TypeDesc::Named("node".into()));
        let cfg = CodecConfig { max_depth: 128, max_bytes: 1 << 20 };
        let list = HeapValue::list_from(values.iter().copied().map(HeapValue::Int));
        let bytes = encode(&list, &ty, &reg, &cfg).unwrap();
        let back = decode(&bytes, &ty, &reg, &cfg).unwrap();
        let got: Vec<i64> = back
            .list_values()
            .iter()
            .map(|v| match v {
                HeapValue::Int(i) => *i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(got, values);
    }
}

/// Decoding never panics on arbitrary bytes (errors are Errs).
#[test]
fn serial_decode_handles_garbage() {
    let mut rng = corpus_rng(0x5E43);
    for _ in 0..200 {
        let bytes = arb_bytes(&mut rng, 128);
        let mut reg = Registry::new();
        reg.register_list_node("node", TypeDesc::Prim(Prim::I64));
        for ty in [
            TypeDesc::Prim(Prim::I32),
            TypeDesc::CString { max_len: 16 },
            TypeDesc::ptr(TypeDesc::Named("node".into())),
        ] {
            let _ = decode(&bytes, &ty, &reg, &CodecConfig::default());
        }
    }
}

// ---------------------------------------------------------------------
// Substrate protocols
// ---------------------------------------------------------------------

/// Redis commands round-trip for arbitrary keys and binary values.
#[test]
fn command_round_trips() {
    use csaw::redis::Command;
    let mut rng = corpus_rng(0xC0DE);
    for _ in 0..100 {
        let key: String = {
            let n = rng.gen_range(0..=32);
            (0..n).map(|_| (rng.gen_range(0x20..0x7Fu8)) as char).collect()
        };
        let value = arb_bytes(&mut rng, 256);
        for cmd in [
            Command::Get(key.clone()),
            Command::Set(key.clone(), value.clone()),
            Command::Append(key.clone(), value.clone()),
            Command::Del(key.clone()),
        ] {
            assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
        }
    }
}

/// Packets round-trip for arbitrary headers and payloads.
#[test]
fn packet_round_trips() {
    use csaw::suricata::{Packet, Proto};
    let mut rng = corpus_rng(0x9AC7);
    for _ in 0..100 {
        let p = Packet {
            ts_usec: rng.gen(),
            src_ip: rng.gen(),
            dst_ip: rng.gen(),
            src_port: rng.gen(),
            dst_port: rng.gen(),
            proto: [Proto::Tcp, Proto::Udp, Proto::Icmp][rng.gen_range(0..3usize)],
            flags: rng.gen(),
            payload: arb_bytes(&mut rng, 256),
        };
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }
}

/// Store checkpoints round-trip for arbitrary contents.
#[test]
fn store_checkpoint_round_trips() {
    let mut rng = corpus_rng(0x5703);
    for _ in 0..50 {
        let mut s = csaw::redis::Store::new();
        let n = rng.gen_range(0..20);
        for _ in 0..n {
            let k = arb_lowercase(&mut rng, 8);
            if k.is_empty() {
                continue;
            }
            s.set(&k, arb_bytes(&mut rng, 64));
        }
        let blob = s.checkpoint().unwrap();
        let mut s2 = csaw::redis::Store::new();
        s2.restore(&blob).unwrap();
        assert_eq!(s, s2);
    }
}

// ---------------------------------------------------------------------
// Event structures: validity of denoted programs
// ---------------------------------------------------------------------

/// Every architecture in the catalogue denotes to a *valid* event
/// structure (conflict irreflexivity under inheritance), for varying
/// back-end counts.
#[test]
fn architectures_denote_validly() {
    use csaw::arch::sharding::{sharding, ShardingSpec};
    use csaw::core::program::LoadConfig;
    use csaw::semantics::{denote_program, DenoteConfig};
    for n in 1..5usize {
        let p = sharding(&ShardingSpec { n_backends: n, ..Default::default() });
        let cp = csaw::core::compile(p, &LoadConfig::new()).unwrap();
        let sem = denote_program(&cp, &DenoteConfig::default());
        assert!(sem.startup.is_valid());
        for (name, es) in &sem.junctions {
            assert!(es.is_valid(), "junction {} invalid", name);
            assert!(!es.is_empty(), "junction {} empty", name);
        }
    }
}
