//! Table snapshots at scale and under attack. Live reconfiguration
//! carries every migrated table through `encode_table_state` /
//! `decode_table_state`, and the snapshot's maps are linked lists, so
//! the codec must walk a list of any length in constant stack; bytes
//! that reach the decoder must come back `Ok` or `Err`, never a panic
//! or an abort. Each case runs on a thread with a 2 MiB stack, the
//! default size of a spawned thread.

use csaw_core::value::Value;
use csaw_kv::table::{PendingState, TableState};
use csaw_kv::Update;
use csaw_serial::{decode_table_state, encode_table_state};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("no panic");
}

fn empty_state() -> TableState {
    TableState {
        props: Vec::new(),
        data: Vec::new(),
        subsets: Vec::new(),
        idxs: Vec::new(),
        pending: Vec::new(),
        epoch: 7,
        locally_written: Vec::new(),
        op_seq: 11,
        next_window: 2,
    }
}

/// A small state with every list non-empty and every field set.
fn small_state() -> TableState {
    use csaw_core::names::SetElem;
    let base = vec![SetElem::Instance("b1".into()), SetElem::Junction("b2".into(), "j".into())];
    TableState {
        props: vec![("Work".into(), true), ("Idle".into(), false)],
        data: vec![
            ("n".into(), Value::Int(-3)),
            ("s".into(), Value::Str("hello".into())),
            ("set".into(), Value::Set(vec![SetElem::Str("x".into()), SetElem::Int(4)])),
        ],
        subsets: vec![("live".into(), base.clone(), Some(vec![base[0].clone()]))],
        idxs: vec![("tgt".into(), base, Some("b1".into()))],
        pending: vec![PendingState {
            update: Update::data("n", Value::from(vec![1, 2, 3]), "g::run"),
            during_run: true,
            seq: 5,
        }],
        locally_written: vec![("n".into(), 1, 4)],
        ..empty_state()
    }
}

#[test]
fn large_table_round_trips_on_a_small_stack() {
    on_small_stack(|| {
        let state = TableState {
            data: (0..200_000).map(|i| (format!("k{i:06}"), Value::Int(i))).collect(),
            props: (0..1_000).map(|i| (format!("p{i}"), i % 2 == 0)).collect(),
            ..empty_state()
        };
        let bytes = encode_table_state(&state).expect("encodes");
        assert_eq!(decode_table_state(&bytes).expect("decodes"), state);
    });
}

/// Garbage, every truncation of a valid snapshot, every 4-byte window
/// overwritten with an inflated length, and a crafted list of a
/// million nodes (whole and cut short).
#[test]
fn decoder_survives_garbage_truncations_inflated_lengths_and_long_lists() {
    on_small_stack(|| {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..500 {
            let mut garbage = vec![0u8; rng.gen_range(0..256usize)];
            for b in garbage.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let _ = decode_table_state(&garbage);
        }

        let state = small_state();
        let bytes = encode_table_state(&state).expect("encodes");
        assert_eq!(decode_table_state(&bytes).expect("decodes"), state);
        for cut in 0..bytes.len() {
            assert!(decode_table_state(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Length prefixes sit at offsets only the schema knows, so
        // inflate every 4-byte window in turn.
        for at in 0..bytes.len() - 3 {
            for inflated in [bytes.len() as u32, u32::MAX / 2, u32::MAX] {
                let mut bad = bytes.clone();
                bad[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
                let _ = decode_table_state(&bad);
            }
        }

        // One million props, six bytes each: a present pointer, an
        // empty key, `false`. Then the rest of an empty table.
        const NODES: usize = 1_000_000;
        let mut long = Vec::with_capacity(NODES * 6 + 64);
        for _ in 0..NODES {
            long.extend_from_slice(&[1, 0, 0, 0, 0, 0]);
        }
        long.extend_from_slice(&[0; 5]); // end of props; data, subsets, idxs, pending
        long.extend_from_slice(&7u64.to_le_bytes()); // epoch
        long.push(0); // locally_written
        long.extend_from_slice(&11u64.to_le_bytes()); // op_seq
        long.extend_from_slice(&2u64.to_le_bytes()); // next_window
        let decoded = decode_table_state(&long).expect("a long list is well formed");
        assert_eq!(decoded.props.len(), NODES);
        drop(decoded);
        assert!(decode_table_state(&long[..NODES * 6 - 1]).is_err());
    });
}
