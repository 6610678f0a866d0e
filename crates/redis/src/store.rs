//! The in-memory keyspace with csaw-serial checkpointing.

use std::collections::BTreeMap;

use csaw_serial::{decode, encode, CodecConfig, HeapValue, Prim, Registry, TypeDesc};

/// Maximum serialized key length (schema cap).
const MAX_KEY: usize = 512;
/// Maximum serialized value length (schema cap).
const MAX_VAL: usize = 8 << 20;

/// The single-threaded in-memory key-value store.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Store {
    entries: BTreeMap<String, Vec<u8>>,
}

impl Store {
    /// Empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// `SET key value`.
    pub fn set(&mut self, key: &str, value: Vec<u8>) {
        self.entries.insert(key.to_string(), value);
    }

    /// `GET key`.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.entries.get(key).map(|v| v.as_slice())
    }

    /// `DEL key` → whether it existed.
    pub fn del(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    /// `EXISTS key`.
    pub fn exists(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// `INCR key` → new value; errors if non-integer.
    pub fn incr(&mut self, key: &str) -> Result<i64, String> {
        let cur = match self.entries.get(key) {
            None => 0,
            Some(v) => std::str::from_utf8(v)
                .ok()
                .and_then(|s| s.parse::<i64>().ok())
                .ok_or("value is not an integer")?,
        };
        let next = cur + 1;
        self.entries.insert(key.to_string(), next.to_string().into_bytes());
        Ok(next)
    }

    /// `APPEND key value` → new length.
    pub fn append(&mut self, key: &str, value: &[u8]) -> usize {
        let e = self.entries.entry(key.to_string()).or_default();
        e.extend_from_slice(value);
        e.len()
    }

    /// `DBSIZE`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `FLUSH`.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Size in bytes of a stored object (object-size sharding).
    pub fn object_size(&self, key: &str) -> Option<usize> {
        self.entries.get(key).map(|v| v.len())
    }

    /// All `(key, value)` pairs in key order (live-migration re-keying).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Remove and return every entry — the drain side of a shard
    /// migration (the receiving shard gets them via [`Store::set`]).
    pub fn drain_entries(&mut self) -> Vec<(String, Vec<u8>)> {
        std::mem::take(&mut self.entries).into_iter().collect()
    }

    /// Total payload bytes.
    pub fn used_bytes(&self) -> usize {
        self.entries.values().map(|v| v.len()).sum()
    }

    /// The csaw-serial schema for one entry and for the whole store
    /// (a linked list of entries — the shape C-strider walks in the
    /// paper's Redis integration).
    pub fn registry() -> Registry {
        let mut reg = Registry::new();
        let entry = TypeDesc::strct(
            "kv_entry",
            vec![
                ("key", TypeDesc::CString { max_len: MAX_KEY }),
                ("value", TypeDesc::Blob { max_len: MAX_VAL }),
                ("flags", TypeDesc::Prim(Prim::U32)),
            ],
        );
        reg.register("kv_entry", entry);
        reg.register_list_node("kv_list", TypeDesc::Named("kv_entry".into()));
        reg
    }

    fn list_type() -> TypeDesc {
        TypeDesc::ptr(TypeDesc::Named("kv_list".into()))
    }

    fn codec_config(&self) -> CodecConfig {
        CodecConfig {
            // Each list node costs one pointer hop; allow the full store
            // plus slack. This is the knob the paper calls the
            // "configurable recursion depth".
            max_depth: self.entries.len() + 8,
            max_bytes: 64 << 20,
        }
    }

    /// Serialize the full store (checkpoint payload). The traversal
    /// recurses per list node, so it runs on a big-stack thread.
    pub fn checkpoint(&self) -> Result<Vec<u8>, String> {
        let cfg = self.codec_config();
        csaw_serial::codec::with_big_stack(|| {
            let reg = Self::registry();
            let list = HeapValue::list_from(self.entries.iter().map(|(k, v)| {
                HeapValue::Struct(vec![
                    HeapValue::CString(k.clone()),
                    HeapValue::Blob(v.clone()),
                    HeapValue::UInt(0),
                ])
            }));
            encode(&list, &Self::list_type(), &reg, &cfg).map_err(|e| e.to_string())
        })
    }

    /// Restore the full store from a checkpoint payload.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let entries = csaw_serial::codec::with_big_stack(|| {
            let reg = Self::registry();
            let cfg = CodecConfig { max_depth: 1 << 22, max_bytes: 64 << 20 };
            let list = decode(bytes, &Self::list_type(), &reg, &cfg).map_err(|e| e.to_string())?;
            let mut entries = BTreeMap::new();
            for node in list.list_values() {
                if let HeapValue::Struct(fields) = node {
                    if let (HeapValue::CString(k), HeapValue::Blob(v)) = (&fields[0], &fields[1]) {
                        entries.insert(k.clone(), v.clone());
                    }
                }
            }
            Ok::<_, String>(entries)
        })?;
        self.entries = entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = Store::new();
        assert!(s.is_empty());
        s.set("a", b"1".to_vec());
        assert_eq!(s.get("a"), Some(&b"1"[..]));
        assert!(s.exists("a"));
        assert!(!s.exists("b"));
        assert_eq!(s.len(), 1);
        assert!(s.del("a"));
        assert!(!s.del("a"));
        assert!(s.is_empty());
    }

    #[test]
    fn incr_semantics() {
        let mut s = Store::new();
        assert_eq!(s.incr("n").unwrap(), 1);
        assert_eq!(s.incr("n").unwrap(), 2);
        s.set("bad", b"xyz".to_vec());
        assert!(s.incr("bad").is_err());
    }

    #[test]
    fn append_semantics() {
        let mut s = Store::new();
        assert_eq!(s.append("k", b"ab"), 2);
        assert_eq!(s.append("k", b"cd"), 4);
        assert_eq!(s.get("k"), Some(&b"abcd"[..]));
    }

    #[test]
    fn object_sizes() {
        let mut s = Store::new();
        s.set("small", vec![0; 100]);
        s.set("big", vec![0; 70_000]);
        assert_eq!(s.object_size("small"), Some(100));
        assert_eq!(s.object_size("big"), Some(70_000));
        assert_eq!(s.object_size("nope"), None);
        assert_eq!(s.used_bytes(), 70_100);
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut s = Store::new();
        for i in 0..50 {
            s.set(&format!("key:{i}"), format!("value-{i}").into_bytes());
        }
        let blob = s.checkpoint().unwrap();
        let mut s2 = Store::new();
        s2.restore(&blob).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn checkpoint_of_empty_store() {
        let s = Store::new();
        let blob = s.checkpoint().unwrap();
        let mut s2 = Store::new();
        s2.set("junk", b"x".to_vec());
        s2.restore(&blob).unwrap();
        assert!(s2.is_empty());
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut s = Store::new();
        assert!(s.restore(&[1, 2, 3]).is_err());
    }

    #[test]
    fn checkpoint_scales_with_contents() {
        let mut small = Store::new();
        small.set("a", vec![0; 10]);
        let mut big = Store::new();
        for i in 0..100 {
            big.set(&format!("k{i}"), vec![0; 1000]);
        }
        assert!(big.checkpoint().unwrap().len() > small.checkpoint().unwrap().len() * 50);
    }
}
