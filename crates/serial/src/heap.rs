//! Dynamic representation of C-like heap data.

use crate::schema::{Prim, Registry, TypeDesc};

/// A dynamically-typed heap object, the thing the type-aware traversal
/// walks. Mirrors [`TypeDesc`] shape-for-shape.
#[derive(Clone, Debug, PartialEq)]
pub enum HeapValue {
    /// Integer primitive (sign/width given by the schema).
    Int(i64),
    /// Unsigned primitive wide enough for u64.
    UInt(u64),
    /// Floating primitive.
    Float(f64),
    /// Boolean primitive.
    Bool(bool),
    /// Struct fields, in schema order.
    Struct(Vec<HeapValue>),
    /// Fixed-length array elements.
    Array(Vec<HeapValue>),
    /// Nullable pointer.
    Ptr(Option<Box<HeapValue>>),
    /// NUL-terminated string payload (without the NUL).
    CString(String),
    /// Sized raw bytes.
    Blob(Vec<u8>),
}

impl HeapValue {
    /// Null pointer.
    pub fn null() -> HeapValue {
        HeapValue::Ptr(None)
    }

    /// Non-null pointer.
    pub fn ptr_to(v: HeapValue) -> HeapValue {
        HeapValue::Ptr(Some(Box::new(v)))
    }

    /// Build a linked list (of `register_list_node` shape) from values.
    /// Returns the head pointer.
    pub fn list_from<I: IntoIterator<Item = HeapValue>>(values: I) -> HeapValue
    where
        I::IntoIter: DoubleEndedIterator,
    {
        let mut head = HeapValue::null();
        for v in values.into_iter().rev() {
            head = HeapValue::ptr_to(HeapValue::Struct(vec![v, head]));
        }
        head
    }

    /// Collect a linked list back into its values (inverse of
    /// [`HeapValue::list_from`]).
    pub fn list_values(&self) -> Vec<&HeapValue> {
        let mut out = Vec::new();
        let mut cur = self;
        while let HeapValue::Ptr(Some(node)) = cur {
            if let HeapValue::Struct(fields) = &**node {
                if fields.len() == 2 {
                    out.push(&fields[0]);
                    cur = &fields[1];
                    continue;
                }
            }
            break;
        }
        out
    }

    /// Check this value structurally conforms to a schema (pointers may
    /// be truncated to null relative to deeper data — that is still
    /// conformant, matching the codec's depth-capping behaviour).
    pub fn conforms(&self, ty: &TypeDesc, reg: &Registry) -> bool {
        match (self, ty) {
            (HeapValue::Int(_), TypeDesc::Prim(p)) => matches!(
                p,
                Prim::I8 | Prim::I16 | Prim::I32 | Prim::I64
            ),
            (HeapValue::UInt(_), TypeDesc::Prim(p)) => {
                matches!(p, Prim::U8 | Prim::U16 | Prim::U32 | Prim::U64)
            }
            (HeapValue::Float(_), TypeDesc::Prim(p)) => matches!(p, Prim::F32 | Prim::F64),
            (HeapValue::Bool(_), TypeDesc::Prim(Prim::Bool)) => true,
            (HeapValue::Struct(vals), TypeDesc::Struct { fields, .. }) => {
                vals.len() == fields.len()
                    && vals
                        .iter()
                        .zip(fields.iter())
                        .all(|(v, (_, t))| v.conforms(t, reg))
            }
            (HeapValue::Array(vals), TypeDesc::Array { elem, len }) => {
                vals.len() == *len && vals.iter().all(|v| v.conforms(elem, reg))
            }
            (HeapValue::Ptr(None), TypeDesc::Ptr(_)) => true,
            (HeapValue::Ptr(Some(v)), TypeDesc::Ptr(inner)) => v.conforms(inner, reg),
            (HeapValue::CString(_), TypeDesc::CString { .. }) => true,
            (HeapValue::Blob(_), TypeDesc::Blob { .. }) => true,
            (v, TypeDesc::Named(n)) => reg.get(n).is_some_and(|t| v.conforms(t, reg)),
            _ => false,
        }
    }

    /// Deep size in nodes (for accounting and tests).
    pub fn node_count(&self) -> usize {
        1 + match self {
            HeapValue::Struct(v) | HeapValue::Array(v) => v.iter().map(|x| x.node_count()).sum(),
            HeapValue::Ptr(Some(v)) => v.node_count(),
            _ => 0,
        }
    }
}

/// Drops a pointee, and a struct's last field, in a loop rather than by
/// recursion — the tail positions a linked list grows through — so a
/// list of any length drops in constant stack.
impl Drop for HeapValue {
    fn drop(&mut self) {
        let mut tail = take_tail(self);
        while let Some(mut v) = tail {
            tail = take_tail(&mut v);
        }
    }
}

/// Detach `v`'s tail position, leaving the rest of `v` to drop alone.
fn take_tail(v: &mut HeapValue) -> Option<HeapValue> {
    match v {
        HeapValue::Ptr(p) => p.take().map(|b| *b),
        HeapValue::Struct(fields) => fields.pop(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Prim, Registry, TypeDesc};

    #[test]
    fn list_round_trip() {
        let l = HeapValue::list_from((0..5).map(HeapValue::Int));
        let vals = l.list_values();
        assert_eq!(vals.len(), 5);
        assert_eq!(vals[0], &HeapValue::Int(0));
        assert_eq!(vals[4], &HeapValue::Int(4));
    }

    #[test]
    fn empty_list() {
        let l = HeapValue::list_from(std::iter::empty());
        assert_eq!(l, HeapValue::null());
        assert!(l.list_values().is_empty());
    }

    #[test]
    fn conformance() {
        let mut reg = Registry::new();
        reg.register_list_node("node", TypeDesc::Prim(Prim::I64));
        let node_ptr = TypeDesc::ptr(TypeDesc::Named("node".into()));
        let l = HeapValue::list_from((0..3).map(HeapValue::Int));
        assert!(l.conforms(&node_ptr, &reg));
        // Truncated (null) lists still conform.
        assert!(HeapValue::null().conforms(&node_ptr, &reg));
        // Wrong shapes don't.
        assert!(!HeapValue::Int(1).conforms(&node_ptr, &reg));
        assert!(!HeapValue::Bool(true).conforms(&TypeDesc::Prim(Prim::I32), &reg));
    }

    #[test]
    fn node_counts() {
        assert_eq!(HeapValue::Int(1).node_count(), 1);
        let l = HeapValue::list_from((0..3).map(HeapValue::Int));
        // ptr,struct,int × 3 + terminal null = 10
        assert_eq!(l.node_count(), 10);
    }
}
