//! Interned names: every table key, instance and junction name gets a
//! dense `u32` id once, and the run time carries ids instead of texts.
//!
//! Two process-wide, append-only tables hand the ids out: one for table
//! keys ([`KeyId`]: propositions, data, subsets, `idx` cursors) and one
//! for instance and junction names ([`Sym`]), so a registry indexed by
//! instance stays as small as the topology. A text lives as long as the
//! process (`&'static str`), so a trace event or an error message can
//! borrow it without allocating, and the same text always has the same
//! id, so an id from one table means the same key in any other —
//! nothing needs translating between a sender and a receiver.
//!
//! Ids depend on the order texts were first seen, so nothing that
//! leaves the process or is compared across runs — a frame, a snapshot,
//! an exported table, a trace line, a digest — may contain one: those
//! carry the text. Both types order by text for the same reason.

use std::collections::HashMap;
use std::fmt;
use std::sync::{LazyLock, OnceLock, RwLock};

/// The first chunk of the id → text store holds this many texts; each
/// further chunk twice as many as the one before. Chunks never move, so
/// a lookup by id takes no lock.
const FIRST_CHUNK: usize = 64;
/// Enough doubling chunks for every `u32` id.
const CHUNKS: usize = 27;

/// An append-only text ↔ id table. Texts can come from outside the
/// program (a snapshot, a frame), so the map keeps the default hasher.
struct Interner {
    ids: RwLock<HashMap<&'static str, u32>>,
    texts: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS],
}

impl Interner {
    fn new() -> Interner {
        Interner {
            ids: RwLock::new(HashMap::new()),
            texts: [const { OnceLock::new() }; CHUNKS],
        }
    }

    fn find(&self, text: &str) -> Option<u32> {
        self.ids
            .read()
            .expect("no panic while interning")
            .get(text)
            .copied()
    }

    fn intern(&self, text: &str) -> u32 {
        if let Some(id) = self.find(text) {
            return id;
        }
        let mut ids = self.ids.write().expect("no panic while interning");
        if let Some(&id) = ids.get(text) {
            return id;
        }
        let id = u32::try_from(ids.len()).expect("fewer than 2^32 interned texts");
        let text: &'static str = Box::leak(text.into());
        let (chunk, at) = locate(id);
        let chunk = self.texts[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        chunk[at].set(text).expect("each id is set once");
        ids.insert(text, id);
        id
    }

    fn text(&self, id: u32) -> &'static str {
        let (chunk, at) = locate(id);
        self.texts[chunk]
            .get()
            .and_then(|c| c[at].get())
            .expect("an id is only handed out after its text is stored")
    }
}

/// The chunk holding `id`, and its place there.
fn locate(id: u32) -> (usize, usize) {
    let n = id as usize + FIRST_CHUNK;
    let chunk = (n.ilog2() - FIRST_CHUNK.ilog2()) as usize;
    (chunk, n - (FIRST_CHUNK << chunk))
}

/// An interned-text id type over its own [`Interner`].
macro_rules! interned {
    ($(#[$doc:meta])* $name:ident, $table:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(u32);

        static $table: LazyLock<Interner> = LazyLock::new(Interner::new);

        impl $name {
            /// The id of `text`, interning it on first sight.
            pub fn new(text: &str) -> $name {
                $name($table.intern(text))
            }

            /// The id of `text`, if it was ever interned.
            pub fn find(text: &str) -> Option<$name> {
                $table.find(text).map($name)
            }

            /// The text.
            pub fn as_str(self) -> &'static str {
                $table.text(self.0)
            }

            /// The dense id, for indexing a `Vec`. Never persist it.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::ops::Deref for $name {
            type Target = str;
            fn deref(&self) -> &str {
                self.as_str()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self.as_str(), f)
            }
        }

        /// By text, so that an order never depends on interning order.
        impl Ord for $name {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if self.0 == other.0 {
                    std::cmp::Ordering::Equal
                } else {
                    self.as_str().cmp(other.as_str())
                }
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl PartialEq<&str> for $name {
            fn eq(&self, other: &&str) -> bool {
                self.as_str() == *other
            }
        }

        impl From<&str> for $name {
            fn from(text: &str) -> $name {
                $name::new(text)
            }
        }

        impl From<&String> for $name {
            fn from(text: &String) -> $name {
                $name::new(text)
            }
        }

        impl From<String> for $name {
            fn from(text: String) -> $name {
                $name::new(&text)
            }
        }

        impl From<&$name> for $name {
            fn from(id: &$name) -> $name {
                *id
            }
        }
    };
}

interned!(
    /// An interned table key: a proposition (`Work`, `Ready[b1]`), a
    /// datum, a subset or an `idx` cursor.
    KeyId,
    KEYS
);

interned!(
    /// An interned instance or junction name, or a sender's
    /// `instance::junction` text.
    Sym,
    SYMS
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texts_round_trip_and_ids_are_stable() {
        let work = KeyId::new("intern-test:Work");
        assert_eq!(work, KeyId::new("intern-test:Work"));
        assert_eq!(work.as_str(), "intern-test:Work");
        assert_eq!(KeyId::find("intern-test:Work"), Some(work));
        assert_eq!(KeyId::find("intern-test:never"), None);
        assert_ne!(work, KeyId::new("intern-test:Retried"));
        // The two tables are separate id spaces over the same texts.
        assert_eq!(Sym::new("intern-test:Work").as_str(), "intern-test:Work");
    }

    #[test]
    fn ids_cross_chunk_boundaries() {
        let ids: Vec<KeyId> = (0..300)
            .map(|i| KeyId::new(&format!("intern-test:k{i}")))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.as_str(), format!("intern-test:k{i}"));
        }
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(u32::MAX).0, CHUNKS - 1);
    }

    #[test]
    fn order_is_by_text_not_by_id() {
        let b = Sym::new("intern-test:b");
        let a = Sym::new("intern-test:a");
        assert!(a < b);
        let mut v = vec![b, a];
        v.sort();
        assert_eq!(v, [a, b]);
    }

    #[test]
    fn interning_from_many_threads_agrees() {
        let ids: Vec<Vec<Sym>> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..200)
                            .map(|i| Sym::new(&format!("intern-test:t{i}")))
                            .collect()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
