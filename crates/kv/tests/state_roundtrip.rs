//! Property test: `Table::export_state` / `Table::import_state` is a
//! lossless round-trip across randomized operation histories.
//!
//! Live reconfiguration migrates junction tables by exporting their
//! state at quiescence and importing it into the successor topology, so
//! the export must preserve *everything* the §8 update rule is stated
//! over: entries (props, data, subsets, idxs), the pending queue with
//! per-update seqs, the operation counter, and the local-priority
//! shadows (`locally_written`). Each seed drives a random interleaving
//! of activations, local writes, deliveries, windows and `keep`s, then
//! checks that (a) the re-imported table exports identically and (b) it
//! *behaves* identically on the next activation — in particular that a
//! pending update shadowed by a pre-export local write is still dropped
//! after import.

use csaw_core::names::SetElem;
use csaw_core::value::Value;
use csaw_kv::table::{Table, Update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 48;
const OPS_PER_SEED: usize = 120;

const PROPS: [&str; 3] = ["Work", "Retried", "Done"];
const DATA: [&str; 3] = ["n", "m", "blob"];

fn fresh_table() -> Table {
    let mut t = Table::new();
    for p in PROPS {
        t.declare_prop(p, false);
    }
    for d in DATA {
        t.declare_data(d);
    }
    t.declare_subset(
        "grp",
        vec![
            SetElem::Instance("b1".into()),
            SetElem::Instance("b2".into()),
            SetElem::Instance("b3".into()),
        ],
    );
    t.declare_idx(
        "tgt",
        vec![SetElem::Instance("b1".into()), SetElem::Instance("b2".into())],
    );
    t
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4usize) {
        0 => Value::Int(rng.gen_range(-100..100i64)),
        1 => Value::Str(format!("s{}", rng.gen_range(0..1000u32))),
        2 => Value::from((0..rng.gen_range(0..16usize)).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>()),
        _ => Value::Bool(rng.gen_bool(0.5)),
    }
}

fn random_update(rng: &mut StdRng) -> Update {
    let from = format!("peer{}::j", rng.gen_range(0..3u32));
    let mut u = match rng.gen_range(0..3usize) {
        0 => Update::assert(PROPS[rng.gen_range(0..PROPS.len())], from),
        1 => Update::retract(PROPS[rng.gen_range(0..PROPS.len())], from),
        _ => Update::data(DATA[rng.gen_range(0..DATA.len())], random_value(rng), from),
    };
    // Sequenced like transport deliveries sometimes, unsequenced others.
    if rng.gen_bool(0.5) {
        u.seq = rng.gen_range(1..1000u64);
    }
    u
}

/// Drive a random operation history against the table.
fn churn(t: &mut Table, rng: &mut StdRng, ops: usize) {
    let mut active = false;
    let mut open: Vec<u64> = Vec::new();
    for _ in 0..ops {
        match rng.gen_range(0..10usize) {
            0 => {
                if !active {
                    t.begin_activation();
                    active = true;
                }
            }
            1 => {
                if active {
                    t.end_activation();
                    open.clear();
                    active = false;
                }
            }
            2 | 3 => {
                t.deliver(random_update(rng));
            }
            4 => {
                let _ = t.set_prop_local(PROPS[rng.gen_range(0..PROPS.len())], rng.gen_bool(0.5));
            }
            5 => {
                let _ = t.set_data_local(DATA[rng.gen_range(0..DATA.len())], random_value(rng));
            }
            6 => {
                if active {
                    let key = if rng.gen_bool(0.5) {
                        PROPS[rng.gen_range(0..PROPS.len())]
                    } else {
                        DATA[rng.gen_range(0..DATA.len())]
                    };
                    open.push(t.open_window(vec![key.to_string()]));
                }
            }
            7 => {
                if let Some(tok) = open.pop() {
                    t.close_window(tok);
                }
            }
            8 => {
                if rng.gen_bool(0.3) {
                    t.keep(&[PROPS[rng.gen_range(0..PROPS.len())].to_string()]);
                }
            }
            _ => {
                let _ = t.set_subset(
                    "grp",
                    vec![SetElem::Instance(format!("b{}", rng.gen_range(1..4u32)))],
                );
                let _ = t.set_idx("tgt", &format!("b{}", rng.gen_range(1..3u32)));
            }
        }
    }
    // Export happens at quiescence: no running activation.
    if active {
        t.end_activation();
    }
}

#[test]
fn export_import_round_trips_across_48_seeds() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xC5A0_0000 + seed);
        let mut original = fresh_table();
        churn(&mut original, &mut rng, OPS_PER_SEED);

        let exported = original.export_state();
        // Entry, seq and shadow preservation in the exported form.
        assert_eq!(exported.epoch, original.epoch(), "seed {seed}: epoch");
        assert_eq!(
            exported.pending.len(),
            original.pending_len(),
            "seed {seed}: pending queue length"
        );

        let mut restored = Table::new();
        restored.import_state(exported.clone());
        assert_eq!(
            restored.export_state(),
            exported,
            "seed {seed}: re-export must be identical"
        );

        // Behavioral equivalence: both tables must agree after the next
        // activation (same flush/shadow-drop decisions — this exercises
        // `locally_written`, per-pending seqs and `during_run` flags).
        original.begin_activation();
        restored.begin_activation();
        original.end_activation();
        restored.end_activation();
        assert_eq!(
            original.export_state().props,
            restored.export_state().props,
            "seed {seed}: post-flush props diverge"
        );
        for d in DATA {
            assert_eq!(original.data(d), restored.data(d), "seed {seed}: datum {d}");
        }
        assert_eq!(
            original.pending_len(),
            restored.pending_len(),
            "seed {seed}: post-flush pending"
        );
        assert_eq!(
            original.export_state(),
            restored.export_state(),
            "seed {seed}: post-flush full state diverges"
        );
    }
}

#[test]
fn import_preserves_local_priority_shadow() {
    // Directed regression: a delivery that arrived during a run and was
    // then shadowed by a local write must STILL be dropped when the
    // flush happens on the imported copy.
    let mut t = fresh_table();
    t.begin_activation();
    t.deliver(Update::assert("Work", "peer::j"));
    t.set_prop_local("Work", false).unwrap();
    t.end_activation();

    let mut copy = Table::new();
    copy.import_state(t.export_state());
    assert_eq!(copy.pending_len(), 1);
    copy.begin_activation();
    assert_eq!(
        copy.prop("Work"),
        Some(false),
        "shadowed update must not apply after import"
    );
    assert_eq!(copy.pending_len(), 0);
}

#[test]
fn import_preserves_post_write_delivery_order() {
    // A delivery that arrived after the latest local write still applies
    // at the first activation after import — op-seq ordering survives.
    let mut t = fresh_table();
    t.begin_activation();
    t.set_prop_local("Work", false).unwrap();
    t.deliver(Update::assert("Work", "peer::j"));
    t.end_activation();

    let mut copy = Table::new();
    copy.import_state(t.export_state());
    copy.begin_activation();
    assert_eq!(copy.prop("Work"), Some(true), "post-local-write delivery applies");
}
