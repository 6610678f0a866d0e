//! # csaw-kv — distributed key-value tables for junctions
//!
//! "C-Saw … reduc\[es\] architecture implementation to the definition and
//! management of distributed key-value tables" (§1). Each junction owns a
//! KV table holding its propositions and named data; junctions *push*
//! updates into each other's tables but can only *read* their own (§6,
//! *Distributed Key-Value table* — a restricted tuple space).
//!
//! This crate implements:
//!
//! * [`Table`] — one junction's table, with the paper's update rules:
//!   - remote updates arriving while the junction runs are **queued** and
//!     applied at the next scheduling,
//!   - except keys opened by an active `wait [n⃗] F`, which apply
//!     immediately (`open_window`),
//!   - local writes shadow pending remote updates to the same key made
//!     during the same activation ("**local updates have priority**", §8),
//!   - `keep` discards pending updates for chosen keys.
//!
//!   Transaction blocks `⟨|E|⟩` roll back through the interpreter's
//!   per-context undo log (`csaw-runtime`), not through the table: a
//!   whole-table snapshot is only right in the sequential case.
//! * [`Update`] — the unit of junction↔junction synchronization
//!   (`write` for data, `assert`/`retract` for propositions).
//!
//! Keys are interned [`KeyId`]s and senders interned [`Sender`]s
//! (`csaw_core::intern`): a table indexes its entries by key id, and an
//! update carries no `String`. Exports ([`TableState`]) carry texts.

pub mod table;

pub use csaw_core::intern::KeyId;
pub use csaw_core::names::Sender;
pub use table::{
    Delivery, PendingState, Table, TableError, TableEvent, TableObserver, TableState,
    Update, UpdateKind,
};
