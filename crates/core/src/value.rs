//! Runtime values stored in junction KV tables and parameter environments.

use std::fmt;
use std::ops::{Deref, Range, RangeBounds};
use std::sync::Arc;
use std::time::Duration;

use crate::names::SetElem;

/// An immutable, shared byte string.
///
/// Serialized state moves through `save`, `write`, the link, the
/// receiving table and `restore` (§6); every one of those hand-offs is
/// a [`Clone`], which only bumps a count. A buffer of 4 KiB or more
/// is adopted from its `Vec` without copying, and
/// [`Bytes::slice`] shares it — so a value decoded off a TCP frame is
/// a range of the frame body. A shorter buffer is copied into one
/// allocation with its count: a separate count allocation, freed by
/// whichever thread drops the last handle, grew `cache_hot`'s resident
/// set by a fifth (glibc keeps a chunk freed by another thread in
/// that thread's cache, away from the arena that allocated it).
#[derive(Clone)]
pub struct Bytes(Buf);

/// Length from which [`Bytes`] adopts a `Vec`'s buffer instead of
/// copying it.
const ADOPT_FROM: usize = 4 << 10;

#[derive(Clone)]
enum Buf {
    /// Shorter than [`ADOPT_FROM`]: one allocation, count and bytes.
    Short(Arc<[u8]>),
    /// An adopted buffer and the range of it this handle sees.
    Long(Arc<Vec<u8>>, Range<usize>),
}

impl Bytes {
    /// A handle on `range` of these bytes: it shares an adopted buffer
    /// and copies a short one.
    ///
    /// # Panics
    /// Where slicing the `[u8]` with `range` would.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let sub = &self[(range.start_bound().cloned(), range.end_bound().cloned())];
        match &self.0 {
            Buf::Short(_) => Bytes(Buf::Short(sub.into())),
            Buf::Long(buf, seen) => {
                let start = seen.start + (sub.as_ptr() as usize - self.as_ptr() as usize);
                Bytes(Buf::Long(Arc::clone(buf), start..start + sub.len()))
            }
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(if v.len() < ADOPT_FROM {
            Buf::Short(v.into())
        } else {
            let seen = 0..v.len();
            Buf::Long(Arc::new(v), seen)
        })
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Buf::Short(bytes) => bytes,
            Buf::Long(buf, seen) => &buf[seen.clone()],
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A value stored in a junction's key-value table or bound to a definition
/// parameter.
///
/// Data variables are "always initialized with the special `undef`" (§6,
/// *Initialization*); writing or restoring `undef` is an error enforced by
/// the runtime. Propositions are stored as `Bool`s. `Bytes` carries
/// application state serialized by `csaw-serial`. `Target` carries
/// junction/instance references for parameters and `idx` cursors;
/// `Set` carries set parameters (which may not nest).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// The distinguished not-a-value; see §6 *Initialization*.
    Undef,
    /// Proposition value.
    Bool(bool),
    /// Scalar integer datum.
    Int(i64),
    /// Scalar text datum.
    Str(String),
    /// Serialized application state (produced by `save`, consumed by
    /// `restore`; the only kind of data that `write` may push).
    Bytes(Bytes),
    /// Timeout parameter.
    Duration(Duration),
    /// A junction or instance target (`b1` or `b1::serve`).
    Target(String),
    /// A set parameter. Sets have fixed compile-time size and cannot
    /// contain other sets.
    Set(Vec<SetElem>),
}

impl Value {
    /// True iff the value is `undef`.
    pub fn is_undef(&self) -> bool {
        matches!(self, Value::Undef)
    }

    /// Byte payload, if this is serialized application state.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Boolean payload, if this is a proposition value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer payload.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Duration payload (timeout parameters).
    pub fn as_duration(&self) -> Option<Duration> {
        match self {
            Value::Duration(d) => Some(*d),
            _ => None,
        }
    }

    /// Target payload (junction/instance references).
    pub fn as_target(&self) -> Option<&str> {
        match self {
            Value::Target(t) => Some(t),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes (used for accounting and the
    /// object-size sharding experiments).
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Undef => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::Duration(_) => 8,
            Value::Target(t) => t.len(),
            Value::Set(s) => s.iter().map(|e| e.key().len()).sum(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undef => write!(f, "undef"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Duration(d) => write!(f, "{d:?}"),
            Value::Target(t) => write!(f, "{t}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, e) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b.into())
    }
}
impl From<Duration> for Value {
    fn from(d: Duration) -> Self {
        Value::Duration(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undef_detection() {
        assert!(Value::Undef.is_undef());
        assert!(!Value::Bool(false).is_undef());
    }

    #[test]
    fn accessors_are_kind_strict() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_bool(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::Target("b1::serve".into()).as_target(), Some("b1::serve"));
        assert_eq!(
            Value::Duration(Duration::from_millis(5)).as_duration(),
            Some(Duration::from_millis(5))
        );
    }

    #[test]
    fn approx_size_tracks_payload() {
        assert_eq!(Value::from(vec![0; 100]).approx_size(), 100);
        assert_eq!(Value::Str("abcd".into()).approx_size(), 4);
        assert_eq!(Value::Undef.approx_size(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Undef.to_string(), "undef");
        assert_eq!(Value::from(vec![0; 3]).to_string(), "<3 bytes>");
        assert_eq!(
            Value::Set(vec![SetElem::Instance("a".into()), SetElem::Int(1)]).to_string(),
            "{a, 1}"
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(vec![9u8]), Value::Bytes(Bytes::from(vec![9])));
    }

    #[test]
    fn long_bytes_share_their_buffer() {
        let v: Vec<u8> = (0..ADOPT_FROM).map(|i| i as u8).collect();
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "From<Vec<u8>> adopts the buffer");
        assert_eq!(b.clone().as_ptr(), at, "a clone shares it");
        let mid = b.slice(1..4);
        assert_eq!(&*mid, &[1, 2, 3]);
        assert_eq!(mid.as_ptr(), at.wrapping_add(1), "a slice shares it");
        assert_eq!(&*mid.slice(1..), &[2, 3]);
        assert_eq!(&*mid.slice(..=0), &[1]);
        assert!(mid.slice(3..).is_empty());
        assert_eq!(mid, Bytes::from(vec![1, 2, 3]), "equality is by content");
        assert_eq!(format!("{mid:?}"), "[1, 2, 3]");
    }

    #[test]
    fn short_bytes_are_copied_once_then_shared() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.clone().as_ptr(), b.as_ptr(), "a clone shares the copy");
        assert_eq!(&*b.slice(1..4), &[2, 3, 4]);
        assert_eq!(b, Bytes::from(vec![1, 2, 3, 4, 5]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bytes_slice_checks_its_bounds() {
        Bytes::from(vec![1, 2, 3]).slice(1..4);
    }

    #[test]
    fn shared_bytes_keep_value_small() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }
}
