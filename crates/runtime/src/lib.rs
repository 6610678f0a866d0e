//! # csaw-runtime — the libcompart-analog distributed runtime + interpreter
//!
//! The C-Saw prototype runs on libcompart, "a lightweight, portable
//! runtime that provides channel abstractions for communication between
//! instances … wrap\[ping\] OS-provided IPC, including TCP sockets and
//! pipes" (§3). This crate reproduces that runtime for the Rust
//! reproduction and adds the DSL interpreter that executes compiled
//! junction programs.
//!
//! Architecture:
//!
//! * [`cell::Cell`] — one junction's state: its `csaw-kv` table, its
//!   parameter environment, and the event count that `wait` parks on
//!   and window-admitted deliveries signal.
//! * [`transport`] — channels between instances: direct in-process,
//!   TCP-loopback (real sockets), and a simulated link with configurable
//!   latency/bandwidth (the testbed stand-in for the cURL experiments).
//! * [`interp`] — a tree-walking interpreter for compiled C-Saw
//!   expressions implementing the paper's semantics: fate scopes,
//!   transactional rollback, `otherwise` deadlines, `retry`/`reconsider`/
//!   `next`/`break`, parallel composition on scoped threads, `verify`
//!   under ternary logic, and the KV-table update rules of §8.
//! * [`runtime::Runtime`] — the facade: builds cells from a
//!   [`csaw_core::CompiledProgram`], binds [`app::InstanceApp`]
//!   implementations (the host-language side), runs `main`, schedules
//!   guarded junctions, exposes synchronous [`runtime::Runtime::invoke`]
//!   for request-driven junctions, and injects faults
//!   ([`runtime::Runtime::crash`]) for the availability experiments.

pub mod app;
pub mod autoscale;
pub mod cell;
pub mod clock;
pub mod error;
mod eventcount;
pub mod fault;
pub mod health;
pub mod interp;
pub mod json;
pub mod metrics;
pub mod overload;
pub mod reconfig;
pub mod runtime;
pub mod sim;
pub mod supervisor;
pub mod trace;
pub mod transport;

pub use app::{HostCtx, InstanceApp, NoopApp};
pub use autoscale::{
    Autoscaler, AutoscaleConfig, AutoscaleDriver, AutoscaleGoal, AutoscaleStats, ScaleError,
    ScaleRecord,
};
pub use clock::{env_seed, Clock, SimHook};
pub use error::{Failure, RtResult};
pub use fault::{FaultPlan, FaultWindow, RetryPolicy};
pub use health::HeartbeatConfig;
pub use overload::{OverloadConfig, OverloadStats, RetryBudgetPolicy};
pub use reconfig::{MigrationCtx, PhaseTimings, PlanReport, ReconfigReport, ReconfigSpec};
pub use runtime::{InstanceStatus, Runtime, RuntimeConfig};
pub use sim::{
    Artifact, DfsConfig, DfsStats, SimConfig, SimExecutor, SimOutcome, StepRecord,
};
pub use supervisor::{
    AntiFlap, Confirmed, FailureClass, RepairAction, RepairPolicy, RepairRecord, Supervisor,
    SupervisorConfig, SupervisorStats,
};
pub use metrics::{Gauge, Metrics};
pub use trace::{TraceEvent, TraceKind, Tracer};
pub use transport::{LinkKind, LinkStats, SendError};
