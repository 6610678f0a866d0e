//! Warm local writes allocate nothing: once each declared key has been
//! written, `set_prop_local`, `set_data_local` and `set_idx` reuse the
//! table's storage for the key, its local-write shadow and the cursor's
//! text (no observer installed, so no event is built).

use csaw_core::names::SetElem;
use csaw_core::value::Value;
use csaw_kv::Table;

#[path = "../../runtime/tests/counting/mod.rs"]
mod counting;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

const BACKENDS: [&str; 3] = ["Bck1", "Bck2", "Bck3"];

fn write(t: &mut Table, i: usize) {
    match i % 3 {
        0 => drop(t.set_prop_local("Work", i.is_multiple_of(2)).unwrap()),
        1 => t.set_data_local("n", Value::Int(i as i64)).unwrap(),
        _ => t.set_idx("tgt", BACKENDS[i % BACKENDS.len()]).unwrap(),
    }
}

#[test]
fn warm_local_writes_allocate_nothing() {
    let mut t = Table::new();
    t.declare_prop("Work", false);
    t.declare_data("n");
    t.declare_idx(
        "tgt",
        BACKENDS
            .iter()
            .map(|b| SetElem::Instance(b.to_string()))
            .collect(),
    );
    t.begin_activation();
    for i in 0..3 {
        write(&mut t, i);
    }
    let before = counting::allocs();
    for i in 0..1_000 {
        write(&mut t, i);
    }
    assert_eq!(
        counting::allocs() - before,
        0,
        "warm local writes allocated"
    );
    assert_eq!(t.prop("Work"), Some(false));
    assert_eq!(t.data("n"), Some(&Value::Int(997)));
    assert_eq!(t.idx("tgt"), Some("Bck3"));
}
