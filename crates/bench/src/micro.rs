//! Micro-benchmarks for the C-Saw building blocks: KV-table operations,
//! formula evaluation/DNF, serialization, the command protocol, the
//! detection engine, and a full DSL round-trip through the sharding
//! architecture.
//!
//! Plain timing harness (the offline build has no criterion): each
//! benchmark is warmed up, then timed over a fixed iteration budget and
//! reported as ns/iter. Run with `csaw-bench micro`.

use std::time::{Duration, Instant};

use csaw_core::formula::Formula;
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_kv::{Table, Update};
use csaw_serial::{decode, encode, CodecConfig, HeapValue, Prim, Registry, TypeDesc};
use mini_redis::apps::ShardMode;

use crate::harness::{boot_sharded, Sharded};

/// Run `f` until ~100ms of wall clock is spent (after a short warm-up)
/// and print the mean time per iteration.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..16 {
        f();
    }
    let budget = Duration::from_millis(100);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        for _ in 0..16 {
            f();
        }
        iters += 16;
    }
    let per = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<40} {per:>12.1} ns/iter  ({iters} iters)");
}

fn bench_kv_table() {
    let mut t = Table::new();
    t.declare_prop("Work", false);
    t.declare_data("n");
    bench("kv_table/deliver_flush", || {
        t.deliver(Update::assert("Work", "x"));
        t.deliver(Update::data("n", Value::Int(1), "x"));
        t.begin_activation();
        t.end_activation();
    });

    let mut t = Table::new();
    t.declare_prop("Work", false);
    bench("kv_table/local_write", || {
        t.set_prop_local("Work", true).unwrap();
    });

    let mut t = Table::new();
    t.declare_prop("Work", false);
    t.begin_activation();
    bench("kv_table/window_delivery", || {
        let w = t.open_window(vec!["Work".to_string()]);
        t.deliver(Update::assert("Work", "x"));
        t.close_window(w);
    });
}

fn bench_formula() {
    let f = Formula::prop("A")
        .and(Formula::prop("B").or(Formula::prop("C").not()))
        .implies(Formula::prop("D"));
    let local = |k: &str| Some(k == "A" || k == "D");
    let remote = |_: &csaw_core::names::JRef, _: &str| csaw_core::formula::Ternary::Unknown;
    let sub = |_: &str, _: &str| csaw_core::formula::Ternary::Unknown;
    bench("formula/eval", || {
        std::hint::black_box(f.eval(&local, &remote, &sub));
    });
    bench("formula/dnf", || {
        std::hint::black_box(f.dnf());
    });
}

fn bench_serial() {
    let mut reg = Registry::new();
    reg.register_list_node("node", TypeDesc::Prim(Prim::I64));
    let ty = TypeDesc::ptr(TypeDesc::Named("node".into()));
    let cfg = CodecConfig { max_depth: 4096, max_bytes: 64 << 20 };
    for n in [16usize, 256, 2048] {
        let list = HeapValue::list_from((0..n as i64).map(HeapValue::Int));
        let bytes = encode(&list, &ty, &reg, &cfg).unwrap();
        bench(&format!("serial/encode_list_{n}"), || {
            std::hint::black_box(encode(&list, &ty, &reg, &cfg).unwrap());
        });
        bench(&format!("serial/decode_list_{n}"), || {
            std::hint::black_box(decode(&bytes, &ty, &reg, &cfg).unwrap());
        });
    }
}

fn bench_redis() {
    let cmd = mini_redis::Command::Set("user:12345".into(), vec![7; 128]);
    bench("mini_redis/command_roundtrip", || {
        std::hint::black_box(mini_redis::Command::decode(&cmd.encode()).unwrap());
    });

    let mut s = mini_redis::Store::new();
    let mut i = 0u64;
    bench("mini_redis/store_set_get", || {
        let k = format!("k{}", i % 1000);
        i += 1;
        s.set(&k, vec![1; 64]);
        std::hint::black_box(s.get(&k).map(|v| v.len()));
    });

    bench("mini_redis/djb2", || {
        std::hint::black_box(mini_redis::hash::djb2("user:12345:profile"));
    });
}

fn bench_suricata() {
    let cap = mini_suricata::SyntheticCapture::generate(&mini_suricata::CaptureSpec {
        flows: 200,
        packets: 4096,
        ..Default::default()
    });

    let mut engine = mini_suricata::Engine::new();
    let mut i = 0usize;
    bench("mini_suricata/engine_process", || {
        let p = &cap.packets[i % cap.packets.len()];
        i += 1;
        std::hint::black_box(engine.process(p).len());
    });

    let p = &cap.packets[0];
    bench("mini_suricata/packet_roundtrip", || {
        std::hint::black_box(mini_suricata::Packet::decode(&p.encode()).unwrap());
    });
}

fn bench_dsl_roundtrip() {
    // Full request path through the compiled sharding architecture —
    // the per-request overhead the §10.3 figures measure.
    let Sharded { rt, requests, replies, .. } =
        boot_sharded(4, ShardMode::ByKey, false, Duration::from_secs(5));

    let mut i = 0u64;
    bench("dsl_roundtrip/sharded_set", || {
        i += 1;
        let cmd = mini_redis::Command::Set(format!("k{i}"), vec![1; 64]);
        requests.lock().push_back(cmd);
        rt.invoke("Fnt", "junction").unwrap();
        std::hint::black_box(replies.lock().pop_front());
    });
    rt.shutdown();
}

fn bench_compile() {
    bench("compile/failover_2_backends", || {
        let p = csaw_arch::failover::failover(&csaw_arch::failover::FailoverSpec::default());
        std::hint::black_box(csaw_core::compile(p, &LoadConfig::new()).unwrap());
    });
    bench("compile/sharding_8_backends", || {
        let p = csaw_arch::sharding::sharding(&csaw_arch::sharding::ShardingSpec {
            n_backends: 8,
            ..Default::default()
        });
        std::hint::black_box(csaw_core::compile(p, &LoadConfig::new()).unwrap());
    });
}

/// Run every micro-benchmark, printing one ns/iter line each.
pub fn run() {
    bench_kv_table();
    bench_formula();
    bench_serial();
    bench_redis();
    bench_suricata();
    bench_dsl_roundtrip();
    bench_compile();
}
