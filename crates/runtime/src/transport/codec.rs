//! Wire codec of the TCP link: one length-prefixed frame per update.
//!
//! A frame goes out as a header — length prefix, addressing strings,
//! sequence number, update kind and, for a value, its tag and length —
//! followed by the value's bytes, borrowed from the update rather than
//! copied behind the header. A frame comes in as one body, and a
//! `Bytes` value decodes as a slice of that body (see `Bytes::slice`).
//!
//! The decoder faces a `TcpStream`, so every length it reads is
//! checked against the bytes actually present before anything is
//! taken, and [`MAX_FRAME_BYTES`] bounds the frame itself on both
//! sides of the socket.

use std::time::Duration;

use csaw_core::intern::{KeyId, Sym};
use csaw_core::value::{Bytes, Value};
use csaw_kv::{Sender, Update, UpdateKind};

use crate::cell::JunctionId;

/// Largest frame body either side of a TCP link handles — the §9
/// snapshot serializer's own cap, so the largest legal value still
/// fits. The reader closes the link on a longer length prefix instead
/// of allocating for it; the writer refuses to encode one.
pub(super) const MAX_FRAME_BYTES: usize = 64 << 20;

fn length_prefixed<'v>(tag: u8, bytes: &'v [u8], out: &mut Vec<u8>) -> &'v [u8] {
    out.push(tag);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    bytes
}

/// Append `v`'s tag and fixed-width fields to `out`, and return the
/// variable-length bytes that follow them on the wire, borrowed from `v`.
fn encode_value<'v>(v: &'v Value, out: &mut Vec<u8>) -> &'v [u8] {
    match v {
        // §6: "Neither indices nor sets should be serialized or
        // transmitted between junctions" — a set encodes as undef.
        Value::Undef | Value::Set(_) => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => return length_prefixed(3, s.as_bytes(), out),
        Value::Bytes(b) => return length_prefixed(4, b, out),
        Value::Duration(d) => {
            out.push(5);
            out.extend_from_slice(&d.as_nanos().to_le_bytes());
        }
        Value::Target(t) => return length_prefixed(6, t.as_bytes(), out),
    }
    &[]
}

/// Append the header of `u`'s frame to `out` and return the payload
/// that follows it on the wire, borrowed from `u`. The caller reuses
/// `out` across sends, so the header costs no allocation and the
/// payload no copy. A body over [`MAX_FRAME_BYTES`] is refused: `out`
/// is restored and the body length returned as the error.
pub(super) fn encode_frame_header<'u>(
    to: &JunctionId,
    u: &'u Update,
    out: &mut Vec<u8>,
) -> Result<&'u [u8], usize> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length placeholder
    for s in [to.instance.as_str(), to.junction.as_str(), u.key.as_str(), u.from.as_str()] {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&u.seq.to_le_bytes());
    let payload = match &u.kind {
        UpdateKind::Assert => {
            out.push(0);
            &[]
        }
        UpdateKind::Retract => {
            out.push(1);
            &[]
        }
        UpdateKind::Data(v) => {
            out.push(2);
            encode_value(v, out)
        }
    };
    let body_len = out.len() - start - 4 + payload.len();
    if body_len > MAX_FRAME_BYTES {
        out.truncate(start);
        return Err(body_len);
    }
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(payload)
}

/// A read position in a frame body. Every take is checked against the
/// bytes left first, so an inflated length field yields `None`, never
/// an allocation or a slice past the end.
struct Cursor<'b> {
    body: &'b Bytes,
    at: usize,
}

impl<'b> Cursor<'b> {
    fn take(&mut self, n: usize) -> Option<&'b [u8]> {
        let body: &'b [u8] = self.body;
        let taken = body.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(taken)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn len(&mut self) -> Option<usize> {
        Some(u32::from_le_bytes(self.array()?) as usize)
    }

    fn text(&mut self) -> Option<&'b str> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    fn string(&mut self) -> Option<String> {
        self.text().map(str::to_owned)
    }

    /// Length-prefixed bytes, as a slice of the body.
    fn bytes(&mut self) -> Option<Bytes> {
        let n = self.len()?;
        let start = self.at;
        self.take(n)?;
        Some(self.body.slice(start..self.at))
    }
}

fn decode_value(c: &mut Cursor<'_>) -> Option<Value> {
    let [tag] = c.array()?;
    Some(match tag {
        0 => Value::Undef,
        1 => Value::Bool(c.array()? == [1]),
        2 => Value::Int(i64::from_le_bytes(c.array()?)),
        3 => Value::Str(c.string()?),
        4 => Value::Bytes(c.bytes()?),
        5 => Value::Duration(Duration::from_nanos(u128::from_le_bytes(c.array()?) as u64)),
        6 => Value::Target(c.string()?),
        _ => return None,
    })
}

/// Decode one frame body (the bytes after its length prefix). A
/// `Bytes` value in it is a slice of the body. The frame's names are
/// interned here, once per frame.
pub(super) fn decode_frame(body: &Bytes) -> Option<(JunctionId, Update)> {
    let mut c = Cursor { body, at: 0 };
    let instance = Sym::new(c.text()?);
    let junction = Sym::new(c.text()?);
    let key = KeyId::new(c.text()?);
    let from = Sender::new(c.text()?);
    let seq = u64::from_le_bytes(c.array()?);
    let kind = match c.array()? {
        [0] => UpdateKind::Assert,
        [1] => UpdateKind::Retract,
        [2] => UpdateKind::Data(decode_value(&mut c)?),
        _ => return None,
    };
    Some((JunctionId { instance, junction }, Update { key, kind, from, seq }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_core::names::SetElem;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The whole frame as it goes on the wire: header ++ payload.
    fn encode_frame(to: &JunctionId, u: &Update) -> Vec<u8> {
        let mut frame = Vec::with_capacity(64);
        let payload = encode_frame_header(to, u, &mut frame).unwrap();
        frame.extend_from_slice(payload);
        frame
    }

    /// `decode_frame` on the body of a whole frame.
    fn decode(frame: &[u8]) -> Option<(JunctionId, Update)> {
        decode_frame(&Bytes::from(frame[4..].to_vec()))
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn value_codec_round_trips() {
        let values = vec![
            Value::Undef,
            Value::Bool(true),
            Value::Int(-42),
            Value::Str("hello".into()),
            Value::from(vec![1, 2, 3]),
            Value::Duration(Duration::from_micros(1500)),
            Value::Target("b1::serve".into()),
        ];
        for v in values {
            let mut buf = Vec::new();
            let payload = encode_value(&v, &mut buf);
            buf.extend_from_slice(payload);
            let body = Bytes::from(buf);
            let mut c = Cursor { body: &body, at: 0 };
            assert_eq!(decode_value(&mut c).unwrap(), v);
            assert_eq!(c.at, body.len());
        }
        // Sets do not transmit (§6) — they decode as undef.
        let mut buf = Vec::new();
        assert!(encode_value(&Value::Set(vec![]), &mut buf).is_empty());
        let body = Bytes::from(buf);
        assert_eq!(decode_value(&mut Cursor { body: &body, at: 0 }).unwrap(), Value::Undef);
    }

    #[test]
    fn frame_codec_carries_sequence_numbers() {
        let mut u = Update::data("n", Value::Int(7), "f::j");
        u.seq = 42;
        let frame = encode_frame(&JunctionId::new("g", "serve"), &u);
        let (to, decoded) = decode(&frame).unwrap();
        assert_eq!(to, JunctionId::new("g", "serve"));
        assert_eq!(decoded.seq, 42);
        assert_eq!(decoded.kind, UpdateKind::Data(Value::Int(7)));
    }

    /// One frame per value kind (and per proposition update), as the
    /// single-buffer encoder wrote them before frames went out as
    /// header + borrowed payload. The split must not change the wire.
    #[test]
    fn frames_keep_their_golden_bytes() {
        let golden = [
            (Value::Undef, "250000000100000067050000007365727665010000006e04000000663a3a6a28000000000000000200"),
            (Value::Bool(true), "260000000100000067050000007365727665010000006e04000000663a3a6a2900000000000000020101"),
            (Value::Int(-42), "2d0000000100000067050000007365727665010000006e04000000663a3a6a2a000000000000000202d6ffffffffffffff"),
            (Value::Str("hé".into()), "2c0000000100000067050000007365727665010000006e04000000663a3a6a2b0000000000000002030300000068c3a9"),
            (Value::from(vec![0, 1, 2, 255]), "2d0000000100000067050000007365727665010000006e04000000663a3a6a2c00000000000000020404000000000102ff"),
            (Value::Duration(Duration::from_micros(1500)), "350000000100000067050000007365727665010000006e04000000663a3a6a2d00000000000000020560e31600000000000000000000000000"),
            (Value::Target("b1::serve".into()), "320000000100000067050000007365727665010000006e04000000663a3a6a2e0000000000000002060900000062313a3a7365727665"),
            (Value::Set(vec![SetElem::Instance("b1".into())]), "250000000100000067050000007365727665010000006e04000000663a3a6a2f000000000000000200"),
        ];
        let to = JunctionId::new("g", "serve");
        let mut updates: Vec<(Update, &str)> =
            golden.into_iter().map(|(v, hex)| (Update::data("n", v, "f::j"), hex)).collect();
        updates.push((
            Update::assert("Work", "f::j"),
            "27000000010000006705000000736572766504000000576f726b04000000663a3a6a300000000000000000",
        ));
        updates.push((
            Update::retract("Work", "f::j"),
            "27000000010000006705000000736572766504000000576f726b04000000663a3a6a310000000000000001",
        ));
        for (i, (mut u, hex)) in updates.into_iter().enumerate() {
            u.seq = 40 + i as u64;
            assert_eq!(encode_frame(&to, &u), unhex(hex), "{:?}", u.kind);
        }
    }

    #[test]
    fn a_decoded_payload_points_into_the_frame_body() {
        let u = Update::data("n", Value::from(vec![5; 64 << 10]), "f::j");
        let frame = encode_frame(&JunctionId::new("g", "serve"), &u);
        let body = Bytes::from(frame[4..].to_vec());
        let (_, decoded) = decode_frame(&body).unwrap();
        let UpdateKind::Data(Value::Bytes(payload)) = &decoded.kind else {
            panic!("a bytes update decodes as bytes")
        };
        assert_eq!(decoded, u);
        let span = body.as_ptr_range();
        assert!(span.contains(&payload.as_ptr()), "payload shares the body's buffer");
        assert_eq!(payload.as_ptr_range().end, span.end, "the payload ends the body");
    }

    #[test]
    fn over_cap_frame_is_refused_and_leaves_the_buffer_intact() {
        let u = Update::data("n", Value::from(vec![0; MAX_FRAME_BYTES]), "f::j");
        let mut out = vec![0xAA; 3];
        let err = encode_frame_header(&JunctionId::new("g", "serve"), &u, &mut out).unwrap_err();
        assert!(err > MAX_FRAME_BYTES);
        assert_eq!(out, vec![0xAA; 3], "a refused frame must not leave a partial header behind");
    }

    /// Bytes off a socket can never panic the decoder or make it read
    /// past what it was handed: random bodies, every truncation of
    /// valid frames, and length fields inflated past the body all come
    /// back `None`. (Every take in the decoder is checked against the
    /// bytes left — see `Cursor::take` — so "returns `None` on an
    /// inflated length" is the no-over-allocation property.)
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
            let garbage = Bytes::from(garbage);
            let _ = decode_frame(&garbage);
            let _ = decode_value(&mut Cursor { body: &garbage, at: 0 });

            let value = match round % 5 {
                0 => Value::Str("x".repeat(rng.gen_range(0..40usize))),
                1 => Value::from(vec![7; rng.gen_range(0..40usize)]),
                2 => Value::Target("b1::serve".into()),
                3 => Value::Duration(Duration::from_nanos(rng.next_u64() >> 8)),
                _ => Value::Int(rng.next_u64() as i64),
            };
            let mut u = Update::data("key", value, "f::j");
            u.seq = rng.next_u64();
            let frame = encode_frame(&to, &u);
            let body = Bytes::from(frame[4..].to_vec());
            assert_eq!(decode_frame(&body), Some((to, u.clone())));

            // Every strict prefix of a valid body is incomplete.
            for cut in 0..body.len() {
                assert_eq!(decode_frame(&body.slice(..cut)), None, "round {round}: cut at {cut}");
            }

            // Inflate each inner length field in turn — the four
            // header strings, then the value's own length if it has
            // one — to more than the body holds.
            let mut offsets = Vec::new();
            let mut at = 0usize;
            for s in [to.instance.as_str(), to.junction.as_str(), u.key.as_str(), u.from.as_str()] {
                offsets.push(at);
                at += 4 + s.len();
            }
            if matches!(
                u.kind,
                UpdateKind::Data(Value::Str(_) | Value::Bytes(_) | Value::Target(_))
            ) {
                offsets.push(at + 8 + 1 + 1); // seq, kind tag, value tag
            }
            for off in offsets {
                for inflated in [body.len() as u32, u32::MAX / 2, u32::MAX] {
                    let mut bad = body.to_vec();
                    bad[off..off + 4].copy_from_slice(&inflated.to_le_bytes());
                    assert_eq!(
                        decode_frame(&Bytes::from(bad)),
                        None,
                        "round {round}: length at {off}"
                    );
                }
            }
        }
    }
}
