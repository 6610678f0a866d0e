//! Depth-limited, schema-driven encode/decode.
//!
//! The wire format is schema-directed (no per-value tags except pointer
//! presence bytes and length prefixes), little-endian throughout:
//!
//! * primitives — fixed width per [`Prim::width`];
//! * structs/arrays — fields/elements in order;
//! * pointers — 1 presence byte (0 = null, 1 = followed by pointee);
//! * C strings / blobs — `u32` length prefix + bytes (truncated at the
//!   schema's `max_len`);
//!
//! Recursion through pointers stops at [`CodecConfig::max_depth`]: deeper
//! structure encodes as null, exactly the paper's "linked lists are only
//! serialized up to a maximum length" truncation. Output larger than
//! [`CodecConfig::max_bytes`] is an error (buffer-overflow protection).

use crate::heap::HeapValue;
use crate::schema::{Prim, Registry, TypeDesc};

/// Run codec work on a dedicated large-stack thread.
///
/// The codec walks list tails (a pointee, a struct's last field) in a
/// loop, so a linked list of any length needs constant stack; what
/// still recurses is non-tail nesting, one frame per level.
pub fn with_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("csaw-serial-bigstack".into())
            .stack_size(512 << 20)
            .spawn_scoped(s, f)
            .expect("spawn big-stack codec thread")
            .join()
            .expect("codec thread panicked")
    })
}

/// Codec limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecConfig {
    /// Maximum pointer-recursion depth; deeper data truncates to null.
    pub max_depth: usize,
    /// Maximum encoded size in bytes.
    pub max_bytes: usize,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            max_depth: 64,
            max_bytes: 16 << 20,
        }
    }
}

/// Errors raised by the codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Value does not conform to the schema.
    Shape(String),
    /// Unknown named type.
    UnknownType(String),
    /// Encoded output exceeded `max_bytes`.
    BufferOverflow {
        /// The configured limit.
        limit: usize,
    },
    /// Input ended prematurely or had trailing garbage.
    Truncated,
    /// Invalid encoding (bad presence byte, non-UTF-8 string…).
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Shape(s) => write!(f, "value does not match schema: {s}"),
            CodecError::UnknownType(t) => write!(f, "unknown named type `{t}`"),
            CodecError::BufferOverflow { limit } => {
                write!(f, "encoded size exceeds limit of {limit} bytes")
            }
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::Corrupt(s) => write!(f, "corrupt encoding: {s}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode a value against a schema.
pub fn encode(
    value: &HeapValue,
    ty: &TypeDesc,
    reg: &Registry,
    cfg: &CodecConfig,
) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_inner(value, ty, reg, cfg, 0, &mut out)?;
    Ok(out)
}

fn check_len(out: &[u8], cfg: &CodecConfig) -> Result<(), CodecError> {
    if out.len() > cfg.max_bytes {
        Err(CodecError::BufferOverflow { limit: cfg.max_bytes })
    } else {
        Ok(())
    }
}

/// Encode `value` against `ty`. The last field of a struct, a pointee
/// and a named type's body are tail positions: this loop walks them
/// instead of recursing, so a linked list of any length encodes in
/// constant stack. Recursion is left for the other fields, bounded by
/// the schema's nesting.
fn encode_inner<'t>(
    mut value: &HeapValue,
    mut ty: &'t TypeDesc,
    reg: &'t Registry,
    cfg: &CodecConfig,
    mut depth: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    loop {
        match (value, ty) {
            (v, TypeDesc::Prim(p)) => {
                encode_prim(v, *p, out)?;
                break;
            }
            (HeapValue::Struct(vals), TypeDesc::Struct { fields, name }) => {
                if vals.len() != fields.len() {
                    return Err(CodecError::Shape(format!(
                        "struct {name}: {} values for {} fields",
                        vals.len(),
                        fields.len()
                    )));
                }
                let (Some((tail_v, init_v)), Some(((_, tail_t), init_t))) =
                    (vals.split_last(), fields.split_last())
                else {
                    break;
                };
                for (v, (_, t)) in init_v.iter().zip(init_t) {
                    encode_inner(v, t, reg, cfg, depth, out)?;
                }
                (value, ty) = (tail_v, tail_t);
            }
            (HeapValue::Array(vals), TypeDesc::Array { elem, len }) => {
                if vals.len() != *len {
                    return Err(CodecError::Shape(format!(
                        "array: {} values for length {len}",
                        vals.len()
                    )));
                }
                for v in vals {
                    encode_inner(v, elem, reg, cfg, depth, out)?;
                }
                break;
            }
            (HeapValue::Ptr(opt), TypeDesc::Ptr(inner)) => {
                match opt {
                    // Depth cap: deeper structure truncates to null.
                    Some(v) if depth < cfg.max_depth => {
                        out.push(1);
                        (value, ty, depth) = (v, inner, depth + 1);
                    }
                    _ => {
                        out.push(0);
                        break;
                    }
                }
            }
            (HeapValue::CString(s), TypeDesc::CString { max_len }) => {
                let bytes = s.as_bytes();
                let take = bytes.len().min(*max_len);
                out.extend_from_slice(&(take as u32).to_le_bytes());
                out.extend_from_slice(&bytes[..take]);
                break;
            }
            (HeapValue::Blob(b), TypeDesc::Blob { max_len }) => {
                let take = b.len().min(*max_len);
                out.extend_from_slice(&(take as u32).to_le_bytes());
                out.extend_from_slice(&b[..take]);
                break;
            }
            (_, TypeDesc::Named(n)) => {
                ty = reg
                    .get(n)
                    .ok_or_else(|| CodecError::UnknownType(n.clone()))?;
            }
            (v, t) => return Err(CodecError::Shape(format!("{v:?} vs {t}"))),
        }
    }
    check_len(out, cfg)
}

fn encode_prim(v: &HeapValue, p: Prim, out: &mut Vec<u8>) -> Result<(), CodecError> {
    match (v, p) {
        (HeapValue::Int(i), Prim::I8) => out.extend_from_slice(&(*i as i8).to_le_bytes()),
        (HeapValue::Int(i), Prim::I16) => out.extend_from_slice(&(*i as i16).to_le_bytes()),
        (HeapValue::Int(i), Prim::I32) => out.extend_from_slice(&(*i as i32).to_le_bytes()),
        (HeapValue::Int(i), Prim::I64) => out.extend_from_slice(&i.to_le_bytes()),
        (HeapValue::UInt(u), Prim::U8) => out.push(*u as u8),
        (HeapValue::UInt(u), Prim::U16) => out.extend_from_slice(&(*u as u16).to_le_bytes()),
        (HeapValue::UInt(u), Prim::U32) => out.extend_from_slice(&(*u as u32).to_le_bytes()),
        (HeapValue::UInt(u), Prim::U64) => out.extend_from_slice(&u.to_le_bytes()),
        (HeapValue::Float(f), Prim::F32) => out.extend_from_slice(&(*f as f32).to_le_bytes()),
        (HeapValue::Float(f), Prim::F64) => out.extend_from_slice(&f.to_le_bytes()),
        (HeapValue::Bool(b), Prim::Bool) => out.push(u8::from(*b)),
        (v, p) => return Err(CodecError::Shape(format!("{v:?} vs {}", p.c_name()))),
    }
    Ok(())
}

/// Decode a value against a schema. The whole input must be consumed.
pub fn decode(
    bytes: &[u8],
    ty: &TypeDesc,
    reg: &Registry,
    cfg: &CodecConfig,
) -> Result<HeapValue, CodecError> {
    let mut buf = bytes;
    let v = decode_inner(&mut buf, ty, reg, cfg, 0)?;
    if !buf.is_empty() {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes",
            buf.len()
        )));
    }
    Ok(v)
}

/// Decode one value of type `ty`. Tail positions are walked by a loop,
/// as in [`encode_inner`]: `slot` is the hole the next tail value
/// fills, so a linked list of any length decodes in constant stack.
fn decode_inner<'t>(
    buf: &mut &[u8],
    mut ty: &'t TypeDesc,
    reg: &'t Registry,
    cfg: &CodecConfig,
    mut depth: usize,
) -> Result<HeapValue, CodecError> {
    let mut root = HeapValue::null();
    let mut slot = &mut root;
    loop {
        match ty {
            TypeDesc::Prim(p) => {
                *slot = decode_prim(buf, *p)?;
                break;
            }
            TypeDesc::Struct { fields, .. } => {
                let Some(((_, tail), init)) = fields.split_last() else {
                    *slot = HeapValue::Struct(Vec::new());
                    break;
                };
                let mut vals = Vec::with_capacity(fields.len());
                for (_, t) in init {
                    vals.push(decode_inner(buf, t, reg, cfg, depth)?);
                }
                vals.push(HeapValue::null());
                *slot = HeapValue::Struct(vals);
                let HeapValue::Struct(vals) = slot else { unreachable!("just stored") };
                slot = vals.last_mut().expect("tail pushed");
                ty = tail;
            }
            TypeDesc::Array { elem, len } => {
                let mut vals = Vec::with_capacity(*len);
                for _ in 0..*len {
                    vals.push(decode_inner(buf, elem, reg, cfg, depth)?);
                }
                *slot = HeapValue::Array(vals);
                break;
            }
            TypeDesc::Ptr(inner) => {
                match take::<1>(buf)?[0] {
                    // The slot already holds null.
                    0 => break,
                    1 => {
                        if depth >= cfg.max_depth {
                            return Err(CodecError::Corrupt(
                                "pointer depth exceeds configured maximum".into(),
                            ));
                        }
                        *slot = HeapValue::ptr_to(HeapValue::null());
                        let HeapValue::Ptr(Some(pointee)) = slot else {
                            unreachable!("just stored")
                        };
                        (slot, ty, depth) = (&mut **pointee, inner, depth + 1);
                    }
                    t => return Err(CodecError::Corrupt(format!("bad pointer tag {t}"))),
                }
            }
            TypeDesc::CString { max_len } => {
                let bytes = decode_len_prefixed(buf, *max_len)?;
                *slot = String::from_utf8(bytes)
                    .map(HeapValue::CString)
                    .map_err(|_| CodecError::Corrupt("non-UTF-8 C string".into()))?;
                break;
            }
            TypeDesc::Blob { max_len } => {
                *slot = HeapValue::Blob(decode_len_prefixed(buf, *max_len)?);
                break;
            }
            TypeDesc::Named(n) => {
                ty = reg
                    .get(n)
                    .ok_or_else(|| CodecError::UnknownType(n.clone()))?;
            }
        }
    }
    Ok(root)
}

/// Split `n` bytes off the front of `buf`, or fail without consuming.
fn take_slice<'b>(buf: &mut &'b [u8], n: usize) -> Result<&'b [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    Ok(take_slice(buf, N)?.try_into().expect("took N bytes"))
}

fn decode_len_prefixed(buf: &mut &[u8], max_len: usize) -> Result<Vec<u8>, CodecError> {
    let len = u32::from_le_bytes(take(buf)?) as usize;
    if len > max_len {
        return Err(CodecError::Corrupt(format!(
            "length {len} exceeds schema maximum {max_len}"
        )));
    }
    Ok(take_slice(buf, len)?.to_vec())
}

fn decode_prim(buf: &mut &[u8], p: Prim) -> Result<HeapValue, CodecError> {
    Ok(match p {
        Prim::I8 => HeapValue::Int(i8::from_le_bytes(take(buf)?) as i64),
        Prim::I16 => HeapValue::Int(i16::from_le_bytes(take(buf)?) as i64),
        Prim::I32 => HeapValue::Int(i32::from_le_bytes(take(buf)?) as i64),
        Prim::I64 => HeapValue::Int(i64::from_le_bytes(take(buf)?)),
        Prim::U8 => HeapValue::UInt(take::<1>(buf)?[0] as u64),
        Prim::U16 => HeapValue::UInt(u16::from_le_bytes(take(buf)?) as u64),
        Prim::U32 => HeapValue::UInt(u32::from_le_bytes(take(buf)?) as u64),
        Prim::U64 => HeapValue::UInt(u64::from_le_bytes(take(buf)?)),
        Prim::F32 => HeapValue::Float(f32::from_le_bytes(take(buf)?) as f64),
        Prim::F64 => HeapValue::Float(f64::from_le_bytes(take(buf)?)),
        Prim::Bool => match take::<1>(buf)?[0] {
            0 => HeapValue::Bool(false),
            1 => HeapValue::Bool(true),
            t => return Err(CodecError::Corrupt(format!("bad bool byte {t}"))),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TypeDesc as T;

    fn cfg() -> CodecConfig {
        CodecConfig::default()
    }

    #[test]
    fn prim_round_trips() {
        let reg = Registry::new();
        let cases: Vec<(HeapValue, TypeDesc)> = vec![
            (HeapValue::Int(-5), T::Prim(Prim::I8)),
            (HeapValue::Int(-3000), T::Prim(Prim::I16)),
            (HeapValue::Int(1 << 20), T::Prim(Prim::I32)),
            (HeapValue::Int(i64::MIN), T::Prim(Prim::I64)),
            (HeapValue::UInt(200), T::Prim(Prim::U8)),
            (HeapValue::UInt(u64::MAX), T::Prim(Prim::U64)),
            (HeapValue::Float(3.5), T::Prim(Prim::F64)),
            (HeapValue::Bool(true), T::Prim(Prim::Bool)),
        ];
        for (v, t) in cases {
            let bytes = encode(&v, &t, &reg, &cfg()).unwrap();
            assert_eq!(bytes.len(), match &t {
                T::Prim(p) => p.width(),
                _ => unreachable!(),
            });
            assert_eq!(decode(&bytes, &t, &reg, &cfg()).unwrap(), v);
        }
    }

    #[test]
    fn struct_round_trip() {
        let reg = Registry::new();
        let t = T::strct(
            "kv_entry",
            vec![
                ("key", T::CString { max_len: 64 }),
                ("value", T::Blob { max_len: 1024 }),
                ("expires", T::Prim(Prim::U64)),
            ],
        );
        let v = HeapValue::Struct(vec![
            HeapValue::CString("user:42".into()),
            HeapValue::Blob(vec![1, 2, 3, 4]),
            HeapValue::UInt(0),
        ]);
        let bytes = encode(&v, &t, &reg, &cfg()).unwrap();
        assert_eq!(decode(&bytes, &t, &reg, &cfg()).unwrap(), v);
    }

    #[test]
    fn linked_list_round_trip() {
        let mut reg = Registry::new();
        reg.register_list_node("node", T::Prim(Prim::I64));
        let t = T::ptr(T::Named("node".into()));
        let v = HeapValue::list_from((0..10).map(HeapValue::Int));
        let bytes = encode(&v, &t, &reg, &cfg()).unwrap();
        let back = decode(&bytes, &t, &reg, &cfg()).unwrap();
        assert_eq!(back.list_values().len(), 10);
        assert_eq!(back, v);
    }

    #[test]
    fn deep_list_truncates_at_max_depth() {
        let mut reg = Registry::new();
        reg.register_list_node("node", T::Prim(Prim::I64));
        let t = T::ptr(T::Named("node".into()));
        let v = HeapValue::list_from((0..100).map(HeapValue::Int));
        let small = CodecConfig { max_depth: 10, max_bytes: 1 << 20 };
        let bytes = encode(&v, &t, &reg, &small).unwrap();
        let back = decode(&bytes, &t, &reg, &small).unwrap();
        // Only max_depth nodes survive (each node costs one pointer hop).
        assert_eq!(back.list_values().len(), 10);
    }

    #[test]
    fn string_truncates_at_schema_cap() {
        let reg = Registry::new();
        let t = T::CString { max_len: 4 };
        let v = HeapValue::CString("abcdefgh".into());
        let bytes = encode(&v, &t, &reg, &cfg()).unwrap();
        assert_eq!(
            decode(&bytes, &t, &reg, &cfg()).unwrap(),
            HeapValue::CString("abcd".into())
        );
    }

    #[test]
    fn buffer_overflow_detected() {
        let reg = Registry::new();
        let t = T::Blob { max_len: 1 << 20 };
        let v = HeapValue::Blob(vec![0; 4096]);
        let tiny = CodecConfig { max_depth: 8, max_bytes: 100 };
        assert!(matches!(
            encode(&v, &t, &reg, &tiny),
            Err(CodecError::BufferOverflow { limit: 100 })
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let reg = Registry::new();
        let t = T::Prim(Prim::I32);
        assert!(matches!(
            encode(&HeapValue::Bool(true), &t, &reg, &cfg()),
            Err(CodecError::Shape(_))
        ));
    }

    #[test]
    fn unknown_named_type_rejected() {
        let reg = Registry::new();
        let t = T::Named("ghost".into());
        assert!(matches!(
            encode(&HeapValue::Int(1), &t, &reg, &cfg()),
            Err(CodecError::UnknownType(_))
        ));
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let reg = Registry::new();
        // Truncated primitive.
        assert!(matches!(
            decode(&[1, 2], &T::Prim(Prim::I32), &reg, &cfg()),
            Err(CodecError::Truncated)
        ));
        // Bad pointer tag.
        assert!(matches!(
            decode(&[7], &T::ptr(T::Prim(Prim::U8)), &reg, &cfg()),
            Err(CodecError::Corrupt(_))
        ));
        // Trailing garbage.
        let bytes = encode(&HeapValue::UInt(1), &T::Prim(Prim::U8), &reg, &cfg()).unwrap();
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            decode(&padded, &T::Prim(Prim::U8), &reg, &cfg()),
            Err(CodecError::Corrupt(_))
        ));
        // Length prefix exceeding schema cap.
        let mut bad = Vec::new();
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(&[0; 100]);
        assert!(matches!(
            decode(&bad, &T::CString { max_len: 4 }, &reg, &cfg()),
            Err(CodecError::Corrupt(_))
        ));
        // Bad bool byte.
        assert!(matches!(
            decode(&[2], &T::Prim(Prim::Bool), &reg, &cfg()),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn nested_arrays_round_trip() {
        let reg = Registry::new();
        let t = T::array(T::array(T::Prim(Prim::U16), 2), 3);
        let v = HeapValue::Array(
            (0..3)
                .map(|i| {
                    HeapValue::Array(vec![
                        HeapValue::UInt(i * 2),
                        HeapValue::UInt(i * 2 + 1),
                    ])
                })
                .collect(),
        );
        let bytes = encode(&v, &t, &reg, &cfg()).unwrap();
        assert_eq!(bytes.len(), 12);
        assert_eq!(decode(&bytes, &t, &reg, &cfg()).unwrap(), v);
    }
}
