//! Allocation gates for the Direct request path: once warm, a junction
//! that pushes an update to another instance — `write`, `assert [γ]`,
//! `retract [γ]` — and the delivery into the receiver's table perform no
//! heap allocation on the sending thread. Keys and the sender are
//! interned ids, the target is a binding resolved by id, and the send,
//! the route, the fence and the delivery look nothing up by name. So
//! do the same sends on a route that went through a jittered backlog
//! and came back to the fast path. A `reconsider` arm's entry
//! fingerprint allocates nothing either, and neither does a warm send
//! with tracing on.

use std::time::{Duration, Instant};

use csaw_core::builder::*;
use csaw_core::decl::Decl;
use csaw_core::expr::{Arg, Expr, Terminator};
use csaw_core::formula::Formula;
use csaw_core::names::JRef;
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig, Program};
use csaw_core::value::Value;
use csaw_kv::{TableEvent, Update};
use csaw_runtime::runtime::Policy;
use csaw_runtime::{FaultPlan, Runtime, RuntimeConfig, TraceKind};

mod counting;

use counting::allocs;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// `s` runs `body` when invoked, with its `peer` parameter bound to `r`;
/// `r` declares what `s` pushes and never runs on its own.
fn sender_and_receiver(body: Expr) -> Runtime {
    let sender = InstanceType::new(
        "tS",
        vec![JunctionDef::new(
            "junction",
            vec![p_junction("peer")],
            vec![Decl::prop_false("Work"), Decl::data("n")],
            body,
        )],
    );
    let receiver = InstanceType::new(
        "tR",
        vec![JunctionDef::new(
            "junction",
            vec![],
            vec![Decl::prop_false("Work"), Decl::data("n")],
            skip(),
        )],
    );
    let program = ProgramBuilder::new()
        .ty(sender)
        .ty(receiver)
        .instance("s", "tS")
        .instance("r", "tR")
        .main(
            vec![],
            par([
                start("s", vec![Arg::Junction(JRef::instance("r"))]),
                start("r", vec![]),
            ]),
        )
        .build();
    boot(program, &["s", "r"])
}

fn boot(program: Program, on_demand: &[&str]) -> Runtime {
    let cp = csaw_core::compile(program, &LoadConfig::new()).expect("compiles");
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    for i in on_demand {
        rt.set_policy(i, "junction", Policy::OnDemand);
    }
    rt.run_main(vec![]).expect("main runs");
    rt
}

/// Allocations of 1 000 warm rounds of `round` on this thread.
fn warm_allocs(mut round: impl FnMut()) -> u64 {
    for _ in 0..3 {
        round();
    }
    let before = allocs();
    for _ in 0..1_000 {
        round();
    }
    allocs() - before
}

/// Invoke `s`, then read `r`'s table, which applies what `s` delivered.
fn send_and_check<'a>(rt: &'a Runtime, check: impl Fn(&Runtime) -> bool + 'a) -> impl FnMut() + 'a {
    move || {
        rt.invoke("s", "junction").expect("s runs");
        assert!(check(rt), "the update did not land in r");
    }
}

#[test]
fn warm_direct_write_allocates_nothing() {
    let rt = sender_and_receiver(write("n", JRef::var("peer")));
    rt.deliver_for_test("s", "junction", Update::data("n", Value::Int(7), "t::j"));
    let landed = |rt: &Runtime| rt.peek_data("r", "junction", "n") == Some(Value::Int(7));
    assert_eq!(
        warm_allocs(send_and_check(&rt, landed)),
        0,
        "a warm write allocated"
    );
    assert_eq!(rt.link_stats().fast_path, 1_003);
}

#[test]
fn warm_direct_assert_allocates_nothing() {
    let rt = sender_and_receiver(assert_at(JRef::var("peer"), "Work"));
    let landed = |rt: &Runtime| rt.peek_prop("r", "junction", "Work") == Some(true);
    assert_eq!(
        warm_allocs(send_and_check(&rt, landed)),
        0,
        "a warm assert[γ] allocated"
    );
    assert_eq!(rt.peek_prop("s", "junction", "Work"), Some(true));
}

#[test]
fn warm_direct_retract_allocates_nothing() {
    let rt = sender_and_receiver(retract_at(JRef::var("peer"), "Work"));
    rt.deliver_for_test("r", "junction", Update::assert("Work", "t::j"));
    let landed = |rt: &Runtime| rt.peek_prop("r", "junction", "Work") == Some(false);
    assert_eq!(
        warm_allocs(send_and_check(&rt, landed)),
        0,
        "a warm retract[γ] allocated"
    );
}

/// Tracing on, warm `write[γ]` rounds `s → r` allocate nothing on the
/// sending thread, and the trace names both ends: `s`'s `link_send`
/// carries the sender's texts, the target `r::junction` and the key,
/// and `r`'s `kv_deliver` the same sender and sequence number. Twelve
/// rounds stay inside the block a drain leaves each shard ring, so no
/// counted record grows a ring.
#[test]
fn traced_send_allocates_nothing_and_names_both_ends() {
    let rt = sender_and_receiver(write("n", JRef::var("peer")));
    rt.deliver_for_test("s", "junction", Update::data("n", Value::Int(7), "t::j"));
    rt.set_tracing(true);
    let landed = |rt: &Runtime| rt.peek_data("r", "junction", "n") == Some(Value::Int(7));
    let mut round = send_and_check(&rt, landed);
    for _ in 0..3 {
        round();
    }
    rt.trace_events();
    let before = allocs();
    for _ in 0..12 {
        round();
    }
    assert_eq!(allocs() - before, 0, "a warm traced write allocated");

    let events = rt.trace_events();
    let sends: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::LinkSend { to, key, seq, .. } => Some((e, to, key, *seq)),
            _ => None,
        })
        .collect();
    assert_eq!(sends.len(), 12, "one link_send per round");
    for (send, to, key, seq) in sends {
        assert_eq!((&*send.instance, &*send.junction), ("s", "junction"));
        assert_eq!((&**to, &**key), ("r::junction", "n"));
        let delivered = events.iter().any(|e| {
            &*e.instance == "r"
                && matches!(&e.kind, TraceKind::Kv(TableEvent::Deliver { from, link_seq, .. })
                    if &**from == "s::junction" && *link_seq == seq)
        });
        assert!(delivered, "no kv_deliver at r for seq {seq}: {events:?}");
    }
}

/// Put the `s → r` route through a jittered backlog, then invoke `s`
/// until its send is synchronous again: the backlog has drained and the
/// route is plain once more.
fn through_a_backlog(rt: &Runtime) {
    let jitter = FaultPlan::none().with_jitter(Duration::from_millis(2)).with_seed(3);
    rt.set_fault_plan("s", "r", jitter);
    for _ in 0..20 {
        rt.invoke("s", "junction").expect("s runs");
    }
    rt.clear_fault_plan("s", "r");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let fast = rt.link_stats().fast_path;
        rt.invoke("s", "junction").expect("s runs");
        if rt.link_stats().fast_path > fast {
            return;
        }
        assert!(Instant::now() < deadline, "the route never came back to the fast path");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn warm_sends_on_a_recovered_route_allocate_nothing() {
    let rt = sender_and_receiver(write("n", JRef::var("peer")));
    rt.deliver_for_test("s", "junction", Update::data("n", Value::Int(7), "t::j"));
    through_a_backlog(&rt);
    let landed = |rt: &Runtime| rt.peek_data("r", "junction", "n") == Some(Value::Int(7));
    let n = warm_allocs(send_and_check(&rt, landed));
    assert_eq!(n, 0, "a warm write on a recovered route allocated");

    let rt = sender_and_receiver(assert_at(JRef::var("peer"), "Work"));
    through_a_backlog(&rt);
    let landed = |rt: &Runtime| rt.peek_prop("r", "junction", "Work") == Some(true);
    let n = warm_allocs(send_and_check(&rt, landed));
    assert_eq!(n, 0, "a warm assert[γ] on a recovered route allocated");

    let rt = sender_and_receiver(retract_at(JRef::var("peer"), "Work"));
    through_a_backlog(&rt);
    rt.deliver_for_test("r", "junction", Update::assert("Work", "t::j"));
    let landed = |rt: &Runtime| rt.peek_prop("r", "junction", "Work") == Some(false);
    let n = warm_allocs(send_and_check(&rt, landed));
    assert_eq!(n, 0, "a warm retract[γ] on a recovered route allocated");
}

/// Each activation enters the `reconsider` arm once: `A` holds, the arm
/// retracts it and reconsiders, the second arm puts `A` back and breaks.
#[test]
fn warm_reconsider_arm_entry_allocates_nothing() {
    let body = case(
        vec![
            arm(
                Formula::prop("A"),
                retract_local("A"),
                Terminator::Reconsider,
            ),
            arm(
                Formula::prop("A").not(),
                assert_local("A"),
                Terminator::Break,
            ),
        ],
        skip(),
    );
    let program = ProgramBuilder::new()
        .ty(InstanceType::new(
            "tC",
            vec![JunctionDef::new(
                "junction",
                vec![],
                vec![Decl::prop_true("A")],
                body,
            )],
        ))
        .instance("c", "tC")
        .main(vec![], start("c", vec![]))
        .build();
    let rt = boot(program, &["c"]);
    let n = warm_allocs(|| rt.invoke("c", "junction").expect("the case settles"));
    assert_eq!(n, 0, "a warm reconsider arm allocated");
    assert_eq!(rt.peek_prop("c", "junction", "A"), Some(true));
}
