//! Wire codec of the TCP link: one length-prefixed frame per update.
//!
//! The decoder faces a `TcpStream`, so every length it reads is
//! checked against the bytes actually present before anything is
//! copied, and [`MAX_FRAME_BYTES`] bounds the frame itself on both
//! sides of the socket.

use std::time::Duration;

use csaw_core::value::Value;
use csaw_kv::{Update, UpdateKind};

use crate::cell::JunctionId;

/// Largest frame body either side of a TCP link handles — the §9
/// snapshot serializer's own cap, so the largest legal value still
/// fits. The reader closes the link on a longer length prefix instead
/// of allocating for it; the writer refuses to encode one.
pub(super) const MAX_FRAME_BYTES: usize = 64 << 20;

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Undef => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(4);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Duration(d) => {
            out.push(5);
            out.extend_from_slice(&d.as_nanos().to_le_bytes());
        }
        Value::Target(t) => {
            out.push(6);
            out.extend_from_slice(&(t.len() as u32).to_le_bytes());
            out.extend_from_slice(t.as_bytes());
        }
        Value::Set(_) => {
            // §6: "Neither indices nor sets should be serialized or
            // transmitted between junctions" — encode as undef.
            out.push(0);
        }
    }
}

/// Split `n` bytes off the front of `buf` and copy them out. The
/// length is checked first, so no allocation ever exceeds what is left
/// of the body — an inflated length field yields `None`, not a
/// reservation.
fn read_exact_buf(buf: &mut &[u8], n: usize) -> Option<Vec<u8>> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head.to_vec())
}

fn decode_value(buf: &mut &[u8]) -> Option<Value> {
    let tag = read_exact_buf(buf, 1)?[0];
    Some(match tag {
        0 => Value::Undef,
        1 => Value::Bool(read_exact_buf(buf, 1)?[0] == 1),
        2 => Value::Int(i64::from_le_bytes(read_exact_buf(buf, 8)?.try_into().ok()?)),
        3 => {
            let len = u32::from_le_bytes(read_exact_buf(buf, 4)?.try_into().ok()?) as usize;
            Value::Str(String::from_utf8(read_exact_buf(buf, len)?).ok()?)
        }
        4 => {
            let len = u32::from_le_bytes(read_exact_buf(buf, 4)?.try_into().ok()?) as usize;
            Value::Bytes(read_exact_buf(buf, len)?)
        }
        5 => {
            let nanos = u128::from_le_bytes(read_exact_buf(buf, 16)?.try_into().ok()?);
            Value::Duration(Duration::from_nanos(nanos as u64))
        }
        6 => {
            let len = u32::from_le_bytes(read_exact_buf(buf, 4)?.try_into().ok()?) as usize;
            Value::Target(String::from_utf8(read_exact_buf(buf, len)?).ok()?)
        }
        _ => return None,
    })
}

/// Append one length-prefixed frame for `u` to `out`, writing the body
/// in place (no intermediate body buffer, no fresh `Vec` per frame —
/// the caller reuses `out` across sends). A body over
/// [`MAX_FRAME_BYTES`] is refused: `out` is restored and the body
/// length returned as the error.
pub(super) fn encode_frame_into(
    to: &JunctionId,
    u: &Update,
    out: &mut Vec<u8>,
) -> Result<(), usize> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length placeholder
    for s in [&to.instance, &to.junction, &u.key, &u.from] {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&u.seq.to_le_bytes());
    match &u.kind {
        UpdateKind::Assert => out.push(0),
        UpdateKind::Retract => out.push(1),
        UpdateKind::Data(v) => {
            out.push(2);
            encode_value(v, out);
        }
    }
    let body_len = out.len() - start - 4;
    if body_len > MAX_FRAME_BYTES {
        out.truncate(start);
        return Err(body_len);
    }
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(())
}

pub(super) fn decode_frame(body: &[u8]) -> Option<(JunctionId, Update)> {
    let mut buf = body;
    let mut strings = Vec::with_capacity(4);
    for _ in 0..4 {
        let len = u32::from_le_bytes(read_exact_buf(&mut buf, 4)?.try_into().ok()?) as usize;
        strings.push(String::from_utf8(read_exact_buf(&mut buf, len)?).ok()?);
    }
    let seq = u64::from_le_bytes(read_exact_buf(&mut buf, 8)?.try_into().ok()?);
    let kind_tag = read_exact_buf(&mut buf, 1)?[0];
    let kind = match kind_tag {
        0 => UpdateKind::Assert,
        1 => UpdateKind::Retract,
        2 => UpdateKind::Data(decode_value(&mut buf)?),
        _ => return None,
    };
    let from = strings.pop()?;
    let key = strings.pop()?;
    let junction = strings.pop()?;
    let instance = strings.pop()?;
    Some((JunctionId { instance, junction }, Update { key, kind, from, seq }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn encode_frame(to: &JunctionId, u: &Update) -> Vec<u8> {
        let mut frame = Vec::with_capacity(64);
        encode_frame_into(to, u, &mut frame).unwrap();
        frame
    }

    #[test]
    fn value_codec_round_trips() {
        let values = vec![
            Value::Undef,
            Value::Bool(true),
            Value::Int(-42),
            Value::Str("hello".into()),
            Value::Bytes(vec![1, 2, 3]),
            Value::Duration(Duration::from_micros(1500)),
            Value::Target("b1::serve".into()),
        ];
        for v in values {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(decode_value(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
        // Sets do not transmit (§6) — they decode as undef.
        let mut buf = Vec::new();
        encode_value(&Value::Set(vec![]), &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_value(&mut slice).unwrap(), Value::Undef);
    }

    #[test]
    fn frame_codec_carries_sequence_numbers() {
        let mut u = Update::data("n", Value::Int(7), "f::j");
        u.seq = 42;
        let frame = encode_frame(&JunctionId::new("g", "serve"), &u);
        // decode_frame takes the body, after the 4-byte length prefix.
        let (to, decoded) = decode_frame(&frame[4..]).unwrap();
        assert_eq!(to, JunctionId::new("g", "serve"));
        assert_eq!(decoded.seq, 42);
        assert_eq!(decoded.kind, UpdateKind::Data(Value::Int(7)));
    }

    #[test]
    fn over_cap_frame_is_refused_and_leaves_the_buffer_intact() {
        let u = Update::data("n", Value::Bytes(vec![0; MAX_FRAME_BYTES]), "f::j");
        let mut out = vec![0xAA; 3];
        let err = encode_frame_into(&JunctionId::new("g", "serve"), &u, &mut out).unwrap_err();
        assert!(err > MAX_FRAME_BYTES);
        assert_eq!(out, vec![0xAA; 3], "a refused frame must not leave a partial body behind");
    }

    /// Bytes off a socket can never panic the decoder or make it
    /// reserve more than it was handed: random bodies, every truncation
    /// of valid frames, and length fields inflated past the body all
    /// come back `None`. (Every allocation in the decoder copies a
    /// subslice of the body — see `read_exact_buf` — so "returns `None`
    /// on an inflated length" is the no-over-allocation property.)
    #[test]
    fn decoder_rejects_garbage_truncations_and_inflated_lengths() {
        let mut rng = StdRng::seed_from_u64(crate::clock::env_seed(0xC0DEC));
        let to = JunctionId::new("g", "serve");
        for round in 0..200u64 {
            // Random bytes: any outcome but a panic is acceptable, and
            // a successful decode must have consumed real structure.
            let mut garbage = vec![0u8; rng.gen_range(0..96usize)];
            for b in garbage.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let _ = decode_frame(&garbage);
            let _ = decode_value(&mut garbage.as_slice());

            let value = match round % 5 {
                0 => Value::Str("x".repeat(rng.gen_range(0..40usize))),
                1 => Value::Bytes(vec![7; rng.gen_range(0..40usize)]),
                2 => Value::Target("b1::serve".into()),
                3 => Value::Duration(Duration::from_nanos(rng.next_u64() >> 8)),
                _ => Value::Int(rng.next_u64() as i64),
            };
            let mut u = Update::data("key", value, "f::j");
            u.seq = rng.next_u64();
            let frame = encode_frame(&to, &u);
            let body = &frame[4..];
            assert_eq!(decode_frame(body), Some((to.clone(), u.clone())));

            // Every strict prefix of a valid body is incomplete.
            for cut in 0..body.len() {
                assert_eq!(decode_frame(&body[..cut]), None, "round {round}: cut at {cut}");
            }

            // Inflate each inner length field in turn — the four
            // header strings, then the value's own length if it has
            // one — to more than the body holds.
            let mut offsets = Vec::new();
            let mut at = 0usize;
            for s in [&to.instance, &to.junction, &u.key, &u.from] {
                offsets.push(at);
                at += 4 + s.len();
            }
            if matches!(u.kind, UpdateKind::Data(Value::Str(_) | Value::Bytes(_) | Value::Target(_))) {
                offsets.push(at + 8 + 1 + 1); // seq, kind tag, value tag
            }
            for off in offsets {
                for inflated in [body.len() as u32, u32::MAX / 2, u32::MAX] {
                    let mut bad = body.to_vec();
                    bad[off..off + 4].copy_from_slice(&inflated.to_le_bytes());
                    assert_eq!(decode_frame(&bad), None, "round {round}: length at {off}");
                }
            }
        }
    }
}
