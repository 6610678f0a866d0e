//! Serialized state moves without being copied: a 64 KiB
//! `Value::Bytes` saved at one junction, written over a Direct link,
//! delivered into the peer's table and restored there is one buffer
//! from end to end, whether the delivery applied at once (an open
//! `wait` window admitted it) or queued until the next activation
//! flushed it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csaw_core::builder::*;
use csaw_core::decl::Decl;
use csaw_core::formula::Formula;
use csaw_core::names::JRef;
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig};
use csaw_core::value::Value;
use csaw_kv::TableEvent;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{HostCtx, InstanceApp, LinkKind, Runtime, RuntimeConfig, TraceEvent, TraceKind};

/// Where the saved and restored buffers lived, in order.
type Seen = Arc<Mutex<Vec<(&'static str, usize)>>>;

/// Saves a fresh 64 KiB buffer; records its address, and the address
/// of every buffer it restores.
struct PtrApp {
    seen: Seen,
}

impl InstanceApp for PtrApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        let state = vec![7u8; 64 << 10];
        self.seen.lock().unwrap().push(("save", state.as_ptr() as usize));
        Ok(Value::from(state))
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        let bytes = value.as_bytes().ok_or("expected bytes")?;
        assert_eq!(bytes.len(), 64 << 10);
        self.seen.lock().unwrap().push(("restore", bytes.as_ptr() as usize));
        Ok(())
    }
}

/// `f` saves `n`, writes it to `g` and asserts `Go` there; `g` waits
/// for `Go` with `n` admitted, restores `n` and clears `Go`. Both run
/// only when invoked.
fn pair(seen: &Seen) -> Runtime {
    let f = InstanceType::new(
        "tF",
        vec![JunctionDef::new(
            "junction",
            vec![],
            vec![Decl::prop_false("Go"), Decl::data("n")],
            seq([save("n"), write("n", JRef::instance("g")), assert_at(JRef::instance("g"), "Go")]),
        )],
    );
    let g = InstanceType::new(
        "tG",
        vec![JunctionDef::new(
            "junction",
            vec![],
            vec![Decl::prop_false("Go"), Decl::data("n")],
            seq([wait(["n"], Formula::prop("Go")), restore("n"), retract_local("Go")]),
        )],
    );
    let program = ProgramBuilder::new()
        .ty(f)
        .ty(g)
        .instance("f", "tF")
        .instance("g", "tG")
        .main(vec![], par([start("f", vec![]), start("g", vec![])]))
        .build();
    let cp = csaw_core::compile(program, &LoadConfig::new()).expect("pair compiles");
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    for name in ["f", "g"] {
        rt.bind_app(name, Box::new(PtrApp { seen: Arc::clone(seen) }));
        rt.set_policy(name, "junction", Policy::OnDemand);
    }
    rt.set_link("f", "g", LinkKind::Direct);
    rt.set_tracing(true);
    rt.run_main(vec![]).expect("main runs");
    rt
}

fn ptr_of(v: Option<Value>) -> usize {
    v.and_then(|v| v.as_bytes().map(|b| b.as_ptr() as usize)).expect("bytes datum")
}

/// The `Deliver` of `n` at `g`: whether it applied at once.
fn delivered_now(events: &[TraceEvent]) -> bool {
    let mut at_g = events.iter().filter(|e| &*e.instance == "g").filter_map(|e| match &e.kind {
        TraceKind::Kv(TableEvent::Deliver { key, applied, .. }) if &**key == "n" => Some(*applied),
        _ => None,
    });
    let applied = at_g.next().expect("n was delivered to g");
    assert_eq!(at_g.next(), None, "one delivery of n");
    applied
}

fn flushed(events: &[TraceEvent]) -> bool {
    events.iter().any(|e| {
        &*e.instance == "g"
            && matches!(&e.kind, TraceKind::Kv(TableEvent::FlushApply { key, .. }) if &**key == "n")
    })
}

/// Save, table, link, table and restore all saw the saved buffer.
fn assert_one_buffer(rt: &Runtime, seen: &Seen) {
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    let [("save", saved), ("restore", restored)] = seen[..] else {
        panic!("expected one save then one restore, saw {seen:?}")
    };
    assert_eq!(ptr_of(rt.peek_data("f", "junction", "n")), saved, "sender's table");
    assert_eq!(ptr_of(rt.peek_data("g", "junction", "n")), saved, "receiver's table");
    assert_eq!(restored, saved, "restore");
}

#[test]
fn queued_delivery_moves_the_saved_buffer() {
    let seen = Seen::default();
    let rt = pair(&seen);
    // g is idle: the write queues, and g's next activation flushes it.
    rt.invoke("f", "junction").expect("f runs");
    rt.invoke("g", "junction").expect("g runs");
    let events = rt.trace_events();
    assert!(!delivered_now(&events), "g was idle, so n queued");
    assert!(flushed(&events), "the activation's flush applied n");
    assert_one_buffer(&rt, &seen);
    rt.shutdown();
}

#[test]
fn applied_now_delivery_moves_the_saved_buffer() {
    let seen = Seen::default();
    let rt = Arc::new(pair(&seen));
    // g is waiting with n admitted when f writes it.
    let waiter = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || rt.invoke("g", "junction"))
    };
    let mut events = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !events.iter().any(|e: &TraceEvent| {
        &*e.instance == "g" && matches!(e.kind, TraceKind::Kv(TableEvent::WindowOpen { .. }))
    }) {
        assert!(Instant::now() < deadline, "g never opened its window");
        std::thread::sleep(Duration::from_millis(1));
        events.extend(rt.trace_events());
    }
    rt.invoke("f", "junction").expect("f runs");
    waiter.join().expect("g's thread").expect("g runs");
    events.extend(rt.trace_events());
    assert!(delivered_now(&events), "g's open window applied n on arrival");
    assert_one_buffer(&rt, &seen);
    rt.shutdown();
}
