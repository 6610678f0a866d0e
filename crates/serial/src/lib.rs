//! # csaw-serial — type-aware serialization framework (§9)
//!
//! C-Saw needs to move application state between instances (`save` /
//! `write` / `restore`), and in C this is hard: void pointers, arbitrary
//! casts, implicit allocation sizes. The paper builds on **C-strider**,
//! a type-aware heap traversal, and adds a libclang-based generator so
//! users `#include` generated serializers instead of writing them.
//!
//! This crate reproduces that design for a C-like data model:
//!
//! * [`schema`] — type descriptions ([`TypeDesc`]): primitives, structs,
//!   fixed arrays, nullable pointers, C strings, raw blobs, and named
//!   (possibly recursive) types resolved through a [`Registry`].
//! * [`heap`] — [`HeapValue`], a dynamic representation of C-like heap
//!   data that the traversal walks.
//! * [`codec`] — depth-limited encode/decode. Like the paper's prototype,
//!   "recursive datatypes \[are supported\] up to a maximum, though
//!   configurable, recursion depth … linked lists are only serialized up
//!   to a maximum length", protecting the serialization buffer.
//! * [`gen`] — a code generator that emits Rust serializer source for a
//!   schema, standing in for the paper's libclang tool; its output's LoC
//!   feed the Table-2 study ("generated serialization code … 182 LoC"
//!   for Redis's KV entry, "2380 LoC" for Suricata's packet).

pub mod codec;
pub mod gen;
pub mod heap;
pub mod schema;
pub mod snapshot;

pub use codec::{decode, encode, CodecConfig, CodecError};
pub use heap::HeapValue;
pub use schema::{Prim, Registry, TypeDesc};
pub use snapshot::{decode_table_state, encode_table_state};
