//! # mini-redis — the Redis substrate
//!
//! The paper evaluates C-Saw by re-architecting **Redis v2.0.2**, "a
//! widely-used NoSQL database … implemented as a single-threaded server"
//! (§2), adding checkpointing, key-hash sharding, object-size sharding
//! and caching through the DSL. We cannot ship Redis, so this crate is a
//! from-scratch single-threaded in-memory KV server that exercises the
//! same code paths the experiments measure:
//!
//! * [`store::Store`] — the keyspace, with full-state serialization
//!   through `csaw-serial` (the checkpoint payload);
//! * [`command`] — a Redis-like inline command protocol
//!   (GET/SET/DEL/EXISTS/INCR/APPEND/DBSIZE/FLUSH);
//! * [`hash`] — the djb2 hash the paper uses for key sharding (§10.1);
//! * [`workload`] — a `redis-benchmark` analog: GET/SET mixes over
//!   uniform, hotspot (90/10, the caching experiment) and size-classed
//!   (object-size sharding) key distributions;
//! * [`metrics`] — windowed throughput and latency/CDF recorders that
//!   produce the series the paper's figures plot;
//! * [`apps`] — [`csaw_runtime::InstanceApp`] adapters binding the store
//!   into the `csaw-arch` architectures (server, shard front-end, cache,
//!   checkpoint store);
//! * [`direct`] — the **Redis(C) control**: the same three features
//!   implemented directly against channels/threads *without* the DSL,
//!   including its own management layer, for the Table-2 effort study.

pub mod apps;
pub mod command;
pub mod direct;
pub mod hash;
pub mod metrics;
pub mod store;
pub mod workload;

pub use command::{Command, Reply};
pub use store::Store;
pub use workload::{KeyDist, Workload, WorkloadSpec};
