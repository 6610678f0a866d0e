//! Isolated timed calls into each layer's public functions, replaying
//! the workload's own inputs: the four updates each generated request
//! sends (request datum and `Work` assert one way, reply datum and
//! `Work` retract back), and the workload's key count and value size
//! for bulk state. Each number is the median over [`BATCHES`] batches
//! of the time per call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_core::builder::{host, start, ProgramBuilder};
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig};
use csaw_core::value::Value;
use csaw_kv::{Table, Update};
use csaw_runtime::cell::JunctionId;
use csaw_runtime::runtime::Policy;
use csaw_runtime::transport::Network;
use csaw_runtime::{NoopApp, Runtime, RuntimeConfig, TraceKind, Tracer};
use csaw_serial::{CodecConfig, HeapValue, TypeDesc};
use mini_redis::direct::DirectSharded;
use mini_redis::hash::shard_of;
use mini_redis::workload::Workload;
use mini_redis::{Command, Reply, Store};

use crate::stats::median;
use crate::sys;
use crate::workloads::{stamped_value, Arch, Def, SHARDS};

const BATCHES: usize = 15;
/// Messages per `send_batch` call.
const SEND_BATCH: usize = 16;
/// Messages one request sends through the sharding and caching programs.
const MSGS: usize = 4;

/// Median over the batches of `run`'s time divided by `units`. `prep`
/// builds a batch's inputs outside the timed region.
fn median_ns<S, I>(
    state: &mut S,
    units: usize,
    mut prep: impl FnMut(&mut S) -> I,
    mut run: impl FnMut(&mut S, I),
) -> f64 {
    let per_unit: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prep(state);
            let t = Instant::now();
            run(state, input);
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&per_unit)
}

/// A junction table shaped like the sharding back-end's.
fn backend_table() -> Table {
    let mut t = Table::new();
    t.declare_prop("Work", false);
    t.declare_prop("Retried", false);
    t.declare_data("n");
    t.declare_data("m");
    t
}

/// The updates `requests` generated requests send, in order.
fn replay(def: &Def, wl: &mut Workload, requests: usize) -> Vec<Update> {
    let mut out = Vec::with_capacity(requests * MSGS);
    for cmd in wl.batch(requests) {
        let reply = match cmd {
            Command::Get(_) => Reply::Bulk(stamped_value(1, def.value_size)),
            _ => Reply::Ok,
        };
        out.push(Update::data(
            "n",
            Value::Bytes(cmd.encode()),
            "Fnt::junction",
        ));
        out.push(Update::assert("Work", "Fnt::junction"));
        out.push(Update::data(
            "m",
            Value::Bytes(reply.encode()),
            "Bck1::junction",
        ));
        out.push(Update::retract("Work", "Bck1::junction"));
    }
    out
}

fn preloaded_store(def: &Def) -> Store {
    let mut store = Store::new();
    for i in 0..def.keys {
        store.set(
            &format!("key:{i}"),
            stamped_value(i as u64 + 1, def.value_size),
        );
    }
    store
}

/// Every isolated metric of the per-layer list, as `(name, value)`.
pub fn measure(def: &Def, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    // Calls per batch: more for small payloads, at least 8 for 64 KiB ones.
    let n = ((2 << 20) / def.value_size).clamp(8, 256);
    let mut wl = Workload::new(def.spec(seed));

    // core
    out.push((
        "core.compile_ms",
        median_ns(
            &mut (),
            1,
            |_| def.program(),
            |_, p| {
                black_box(
                    csaw_core::compile(p, &LoadConfig::new()).expect("workload program compiles"),
                );
            },
        ) / 1e6,
    ));
    let shards = |n| {
        let program = sharding(&ShardingSpec {
            n_backends: n,
            ..Default::default()
        });
        csaw_core::compile(program, &LoadConfig::new()).expect("sharding compiles")
    };
    let (now, grown) = (shards(SHARDS), shards(SHARDS + 1));
    out.push((
        "core.diff_us",
        median_ns(
            &mut (),
            1,
            |_| (),
            |_, _| {
                black_box(csaw_core::diff_programs(&now, &grown));
            },
        ) / 1e3,
    ));

    // kv
    let mut table = backend_table();
    out.push((
        "kv.deliver_ns",
        median_ns(
            &mut table,
            n,
            |t| {
                t.flush_pending();
                replay(def, &mut wl, n / MSGS)
            },
            |t, updates| {
                for u in updates {
                    black_box(t.deliver(u));
                }
            },
        ),
    ));
    table.flush_pending();
    out.push((
        "kv.deliver_pending_ns",
        median_ns(
            &mut table,
            n,
            |t| {
                t.end_activation();
                for u in replay(def, &mut wl, n / MSGS) {
                    t.deliver(u);
                }
            },
            |t, ()| t.begin_activation(),
        ),
    ));
    table.end_activation();
    out.push((
        "kv.set_local_ns",
        median_ns(
            &mut table,
            n,
            |_| {
                wl.batch(n)
                    .iter()
                    .map(|c| Value::Bytes(c.encode()))
                    .collect::<Vec<_>>()
            },
            |t, values| {
                for v in values {
                    t.set_data_local("n", v).expect("n is declared");
                }
            },
        ),
    ));
    out.push((
        "kv.export_state_us",
        median_ns(
            &mut table,
            1,
            |_| (),
            |t, ()| {
                black_box(t.export_state());
            },
        ) / 1e3,
    ));

    // serial: one store entry of the workload's size through the §9 codec
    let reg = Store::registry();
    let entry_ty = TypeDesc::Named("kv_entry".into());
    let cfg = CodecConfig::default();
    let entry = HeapValue::Struct(vec![
        HeapValue::CString("key:17".into()),
        HeapValue::Blob(stamped_value(17, def.value_size)),
        HeapValue::UInt(0),
    ]);
    let encoded = csaw_serial::encode(&entry, &entry_ty, &reg, &cfg).expect("entry encodes");
    out.push((
        "serial.encode_ns",
        median_ns(
            &mut (),
            n,
            |_| (),
            |_, ()| {
                for _ in 0..n {
                    black_box(
                        csaw_serial::encode(black_box(&entry), &entry_ty, &reg, &cfg)
                            .expect("entry encodes"),
                    );
                }
            },
        ),
    ));
    out.push((
        "serial.decode_ns",
        median_ns(
            &mut (),
            n,
            |_| (),
            |_, ()| {
                for _ in 0..n {
                    black_box(
                        csaw_serial::decode(black_box(&encoded), &entry_ty, &reg, &cfg)
                            .expect("entry decodes"),
                    );
                }
            },
        ),
    ));
    let mut store = preloaded_store(def);
    let snapshot = store.checkpoint().expect("store checkpoints");
    out.push((
        "serial.snapshot_ms",
        median_ns(
            &mut store,
            1,
            |_| (),
            |s, ()| {
                black_box(s.checkpoint().expect("store checkpoints"));
            },
        ) / 1e6,
    ));
    out.push((
        "serial.restore_ms",
        median_ns(
            &mut store,
            1,
            |_| (),
            |s, ()| s.restore(&snapshot).expect("snapshot restores"),
        ) / 1e6,
    ));
    out.push(("serial.snapshot_bytes", snapshot.len() as f64));

    // transport: the requests' updates over the workload's link kind
    // into a deliver function that does nothing
    let mut net = Network::new(Arc::new(|_, _| {}));
    net.set_default_link(def.link);
    let to = JunctionId::new("Bck1", "junction");
    net.send("Fnt", &to, Update::assert("Work", "Fnt::junction"))
        .expect("link opens");
    sys::pin_threads(def.pin);
    out.push((
        "transport.send_ns",
        median_ns(
            &mut (),
            n,
            |_| replay(def, &mut wl, n / MSGS),
            |_, updates| {
                for u in updates {
                    net.send("Fnt", &to, u).expect("send succeeds");
                }
            },
        ),
    ));
    out.push((
        "transport.send_batch_ns",
        median_ns(
            &mut (),
            SEND_BATCH,
            |_| replay(def, &mut wl, SEND_BATCH / MSGS),
            |_, updates| {
                net.send_batch("Fnt", &to, updates)
                    .expect("batch send succeeds");
            },
        ),
    ));
    net.shutdown();

    // interp: one activation whose body is a single host call
    let noop = ProgramBuilder::new()
        .ty(InstanceType::new(
            "tNoop",
            vec![JunctionDef::new("junction", vec![], vec![], host("Noop"))],
        ))
        .instance("A", "tNoop")
        .main(vec![], start("A", vec![]))
        .build();
    let cp = csaw_core::compile(noop, &LoadConfig::new()).expect("noop program compiles");
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.bind_app("A", Box::new(NoopApp));
    rt.set_policy("A", "junction", Policy::OnDemand);
    rt.run_main(vec![]).expect("noop main runs");
    sys::pin_threads(def.pin);
    out.push((
        "interp.noop_invoke_ns",
        median_ns(
            &mut (),
            256,
            |_| (),
            |_, ()| {
                for _ in 0..256 {
                    rt.invoke("A", "junction").expect("noop invoke");
                }
            },
        ),
    ));
    rt.shutdown();

    // trace
    let tracer = Tracer::new();
    tracer.set_enabled(true);
    out.push((
        "trace.record_ns",
        median_ns(
            &mut (),
            256,
            |_| (),
            |_, ()| {
                for epoch in 0..256 {
                    tracer.record("Fnt", "junction", epoch, TraceKind::Sched);
                }
            },
        ),
    ));

    // redis: the bare substrate, and Table 2's hand-written control
    let mut store = preloaded_store(def);
    out.push((
        "redis.execute_ns",
        median_ns(
            &mut store,
            n,
            |_| wl.batch(n),
            |s, cmds| {
                for c in &cmds {
                    black_box(c.execute(s));
                }
            },
        ),
    ));
    let direct = if def.arch == Arch::Sharding {
        let ds = DirectSharded::start(SHARDS);
        sys::pin_threads(def.pin);
        for i in 0..def.keys {
            let k = format!("key:{i}");
            ds.stores[shard_of(&k, SHARDS)]
                .lock()
                .set(&k, stamped_value(i as u64 + 1, def.value_size));
        }
        let ns = median_ns(
            &mut (),
            n,
            |_| wl.batch(n),
            |_, cmds| {
                for c in cmds {
                    black_box(ds.request(c).expect("direct request"));
                }
            },
        );
        ds.shutdown();
        ns
    } else {
        0.0
    };
    out.push(("redis.direct_req_ns", direct));
    out
}
