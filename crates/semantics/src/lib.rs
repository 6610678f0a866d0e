//! # csaw-semantics — event-structure semantics for C-Saw (§8)
//!
//! The paper gives the DSL a denotational semantics in terms of **event
//! structures** (Winskel): triples `(S, ≤, #)` of events, enablement and
//! conflict. This crate implements:
//!
//! * [`event`] — events, labels, and event structures with the §8.1
//!   validity conditions (conflict inheritance, finite causes), the
//!   graphical-notation relations (immediate causality, minimal
//!   conflict), concurrency, peripheries, ♮-copies and `isolate`;
//! * [`denote`] — the denotation function `[[E]]ηJ` of §8.3–§8.5,
//!   including the `η` control-flow environment, the `case`/`N`
//!   decomposition, DNF-decomposition of guard formulas into
//!   `Synch`-prefixed read events, and the staged expansion of `wait`;
//! * [`topology()`] — the `Topo` derivation of §8.7 (the communication
//!   graph between junctions) with DOT export;
//! * [`conformance`] — replay of the `TraceEvent`s `csaw-runtime`
//!   records (in process, or read back from JSONL with
//!   `csaw_runtime::trace::parse_jsonl`) against the denoted event
//!   structures of the epoch chain they were recorded under: structural
//!   causality, the §8 local-priority update rule, and conflict-freeness
//!   of observed configurations, epoch by epoch across live
//!   reconfigurations. The checker depends on the runtime for that one
//!   event type; the runtime does not depend on this crate.
//!
//! The §8.5 semantics is explicitly "a general, infinitary version"; like
//! the paper's implementation, we compute the weaker finite version,
//! curtailing recursion (`reconsider`/`retry` unfoldings) at a
//! configurable depth.

pub mod conformance;
pub mod denote;
pub mod event;
pub mod topology;

pub use conformance::{
    check_repair_events, check_trace, ConformanceOptions, ConformanceReport, Violation,
};
pub use denote::{denote_junction, denote_program, DenoteConfig, ProgramSemantics};
pub use event::{Event, EventId, EventStructure, Label};
pub use topology::{topology, Topology};
