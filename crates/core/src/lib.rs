//! # csaw-core — the C-Saw DSL
//!
//! This crate implements the C-Saw domain-specific language from
//! *"A Domain-Specific Language for Reconfigurable, Distributed Software
//! Architecture"* (Zhu, Zhao, Sultana). C-Saw expresses a program's
//! *architecture* — how application-logic fragments are invoked, connected
//! and synchronized — as expressions over distributed key-value tables
//! attached to *junctions* inside *instances*.
//!
//! The crate provides:
//!
//! * the abstract syntax of the DSL ([`expr::Expr`], [`formula::Formula`],
//!   [`decl::Decl`], [`program::Program`], …) mirroring Table 1 of the paper,
//! * an ergonomic builder API ([`builder`]) for constructing
//!   architecture descriptions in Rust,
//! * static validation ([`validate`]) of the paper's well-formedness rules
//!   (case-arm constraints, declaration scoping, no self-communication,
//!   no host code inside transaction blocks, …),
//! * compile-time *template expansion* ([`expand`]): function inlining and
//!   `for`-loop unrolling over compile-time sets, producing a
//!   [`program::CompiledProgram`] that the `csaw-runtime` crate executes,
//! * *lowering* ([`lower`]): each expanded junction compiled once into a
//!   pre-resolved form — postfix formula programs, resolved keys and
//!   targets, run-time names as binding slots — which the runtime runs,
//! * interned names ([`intern`]): the process-wide ids ([`KeyId`],
//!   [`Sym`]) that lowered code, tables and updates carry instead of
//!   texts,
//! * reconfiguration planning ([`plan`]): a phased, make-before-break
//!   [`plan::Plan`] between two compiled programs, and the checker
//!   ([`plan_check`]) the runtime runs on every plan before executing it,
//! * a pretty-printer ([`pretty`]) that renders programs in (an ASCII
//!   rendition of) the paper's concrete syntax, used by the Table-2
//!   lines-of-code study.
//!
//! The execution semantics live in `csaw-runtime`; the denotational
//! event-structure semantics (§8 of the paper) live in `csaw-semantics`.

pub mod builder;
pub mod decl;
pub mod diff;
pub mod error;
pub mod expand;
pub mod expr;
pub mod formula;
pub mod intern;
pub mod lower;
pub mod names;
pub mod plan;
pub mod plan_check;
pub mod pretty;
pub mod program;
pub mod validate;
pub mod value;

pub use decl::{Decl, Param, ParamKind};
pub use diff::{compose_diffs, diff_programs, InstanceDiff, JunctionChange, NetChange, ProgramDiff};
pub use error::{CoreError, CoreResult};
pub use expr::{Arg, CaseArm, CaseGuard, Expr, ForOp, Terminator};
pub use formula::Formula;
pub use intern::{KeyId, Sym};
pub use names::{Ident, JRef, JunctionId, NameRef, PropRef, Sender, SetElem, SetRef};
pub use plan::{
    plan_break_before_make, plan_reconfiguration, Plan, PlanConstraints, PlanError, PlanPhase,
};
pub use program::{
    CompiledInstance, CompiledProgram, FuncDef, InstanceType, JunctionDef, LoadConfig, MainDef,
    Program,
};
pub use value::{Bytes, Value};

/// Compile a program: validate it, then expand all templates
/// (function calls, `for` loops, derived declarations) against the
/// load-time configuration.
pub fn compile(program: Program, config: &LoadConfig) -> CoreResult<CompiledProgram> {
    validate::validate(&program)?;
    let expanded = expand::expand(program, config)?;
    validate::validate_compiled(&expanded)?;
    Ok(expanded)
}
