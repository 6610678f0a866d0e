//! Allocation gates for the lowered interpreter: a warm activation whose
//! guard and `wait` read only local state performs no heap allocation on
//! the evaluating thread. Keys, window key lists and the sender name are
//! built once, at lowering; the binding slots hold parameter and cursor
//! texts; the formula scratch lives on the stack.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use csaw_core::builder::*;
use csaw_core::decl::Decl;
use csaw_core::expr::Arg;
use csaw_core::formula::Formula;
use csaw_core::names::{JRef, NameRef, PropRef};
use csaw_core::program::{InstanceType, JunctionDef, LoadConfig};
use csaw_kv::Update;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{Runtime, RuntimeConfig};

mod counting;

use counting::allocs;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// How often the helper thread looks for a new round.
const TICK: Duration = Duration::from_millis(1);

/// `a` has a guard over a plain, a negated and a parameter-indexed
/// proposition and an empty body; `w` waits for `Go` and clears it.
/// Both run only when invoked.
fn probe() -> Runtime {
    let check = InstanceType::new(
        "tCheck",
        vec![JunctionDef::new(
            "junction",
            vec![p_junction("peer")],
            vec![
                Decl::prop_true("Work"),
                Decl::prop_false("Busy"),
                Decl::Prop {
                    prop: PropRef::indexed("Ready", NameRef::var("peer")),
                    init: true,
                },
                Decl::guard(
                    Formula::prop("Work")
                        .and(Formula::prop("Busy").not())
                        .and(Formula::prop_at("Ready", NameRef::var("peer"))),
                ),
            ],
            skip(),
        )],
    );
    let waiter = InstanceType::new(
        "tWait",
        vec![JunctionDef::new(
            "junction",
            vec![],
            vec![Decl::prop_false("Go")],
            seq([
                wait(Vec::<String>::new(), Formula::prop("Go")),
                retract_local("Go"),
            ]),
        )],
    );
    let program = ProgramBuilder::new()
        .ty(check)
        .ty(waiter)
        .instance("a", "tCheck")
        .instance("w", "tWait")
        .main(
            vec![],
            par([
                start("a", vec![Arg::Junction(JRef::instance("w"))]),
                start("w", vec![]),
            ]),
        )
        .build();
    let cp = csaw_core::compile(program, &LoadConfig::new()).expect("probe compiles");
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_policy("a", "junction", Policy::OnDemand);
    rt.set_policy("w", "junction", Policy::OnDemand);
    rt.run_main(vec![]).expect("main runs");
    rt
}

#[test]
fn warm_guard_evaluation_allocates_nothing() {
    let rt = probe();
    for _ in 0..3 {
        rt.invoke("a", "junction").expect("guard holds");
    }
    let before = allocs();
    for _ in 0..1_000 {
        rt.invoke("a", "junction").expect("guard holds");
    }
    assert_eq!(allocs() - before, 0, "a warm guarded activation allocated");
    assert_eq!(rt.activations("a"), 1_003);
}

#[test]
fn warm_wait_rechecks_allocate_nothing() {
    const ROUNDS: u64 = 5;
    const HOLD: Duration = Duration::from_millis(20);
    let rt = probe();
    // Round `r` of the helper asserts `Go` once the waiter has had
    // `HOLD` to park.
    let round = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut served = 0;
            loop {
                match round.load(Ordering::SeqCst) {
                    u64::MAX => return,
                    r if r > served => {
                        served = r;
                        std::thread::sleep(HOLD);
                        rt.deliver_for_test("w", "junction", Update::assert("Go", "t::junction"));
                    }
                    _ => std::thread::sleep(TICK),
                }
            }
        });
        let wait_once = || {
            round.fetch_add(1, Ordering::SeqCst);
            rt.invoke("w", "junction").expect("Go arrives");
        };
        wait_once();
        wait_once();
        let before = allocs();
        let started = Instant::now();
        for _ in 0..ROUNDS {
            wait_once();
        }
        let spent = allocs() - before;
        let took = started.elapsed();
        round.store(u64::MAX, Ordering::SeqCst);
        assert_eq!(spent, 0, "warm waits allocated");
        // Each wait parked until `Go` arrived.
        assert!(
            took >= HOLD * ROUNDS as u32 / 2,
            "the waits did not wait: {took:?}"
        );
    });
    assert_eq!(rt.peek_prop("w", "junction", "Go"), Some(false));
}
