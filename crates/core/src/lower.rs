//! Lowering: each expanded junction compiled once into the form the
//! runtime executes.
//!
//! [`crate::expand`] leaves a junction as an AST whose names still need
//! resolving: a proposition key is built from a name and an index, a
//! `γ@P` atom names its junction by reference, a timeout names a
//! parameter. [`lower`] does that resolution once per junction, as far as
//! compile time allows:
//!
//! * every formula (guard, `wait`, `case` arm, `if`, `verify`) becomes a
//!   [`Prog`], a flat postfix program whose local atoms carry resolved
//!   table keys and whose remote atoms (`γ@P`, `S(ι)`) are entries of the
//!   junction's [`LoweredJunction::remotes`] list;
//! * every statement carries its key, target and timeout pre-resolved —
//!   keys as interned [`KeyId`]s, junctions as interned [`JunctionId`]s —
//!   and the junction's [`Sender`] is interned once;
//! * a name only the run time supplies — a definition parameter, an `idx`
//!   cursor — is a slot of the junction's [`Bindings`], which the runtime
//!   fills at `start` and on `idx` writes. The slot holds the text
//!   interned as a key and as a junction reference ([`Bound`]), and a key
//!   built from one (`P[i]`) is rebuilt when the slot changes, never when
//!   it is read: a pass looks no name up.
//!
//! The runtime evaluates a [`Prog`] in two phases: it resolves the remote
//! atoms into a scratch of [`Ternary`]s without holding its table lock,
//! then runs the program over the locked table. [`Formula::eval`] stays
//! the reference the lowered evaluation is tested against. Reconfiguration,
//! the denotational semantics and conformance keep reading the un-lowered
//! [`crate::CompiledProgram`].

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use crate::decl::Decl;
use crate::expr::{Arg, CaseGuard, Expr, Terminator};
use crate::formula::{Formula, Ternary};
use crate::intern::{KeyId, Sym};
use crate::names::{Ident, JRef, JunctionId, NameRef, PropRef, Sender, SetRef};
use crate::program::JunctionDef;

/// Index of a run-time binding: an entry of [`LoweredJunction::vars`] and
/// of the junction's [`Bindings`].
pub type Slot = usize;

/// A name resolved as far as compile time allows.
#[derive(Clone, Debug, PartialEq)]
pub enum Name {
    /// Fixed: a literal, or a variable naming a declared datum or
    /// proposition (which resolves to itself).
    Lit(KeyId),
    /// The text bound in a slot.
    Var(Slot),
    /// A proposition key built from slots (`P[i]`): an entry of
    /// [`LoweredJunction::keys`].
    Key(usize),
}

/// A run-time binding of a lowered junction: a definition parameter
/// (bound at `start`), an `idx` cursor (re-read after each host call that
/// may move it) or an otherwise unknown name.
#[derive(Clone, Debug, PartialEq)]
pub struct Var {
    /// The variable's name in the program text.
    pub name: Ident,
    /// The name as a table key: an unbound variable reads the `idx` or
    /// the declared key of that name.
    pub key: KeyId,
    /// The texts an `idx` can take (its literal base set), interned at
    /// lowering so that moving the cursor looks nothing up.
    pub elems: Vec<Bound>,
}

/// A binding's text, interned as each reader takes it: a table key, or a
/// junction reference (`ι` or `ι::γ`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// The text as a table key.
    pub key: KeyId,
    /// The text before `::` (all of it if there is none).
    pub instance: Sym,
    /// The text after `::`, if any.
    pub junction: Option<Sym>,
}

impl Bound {
    /// Intern `text` every way.
    pub fn new(text: &str) -> Bound {
        let (instance, junction) = match text.split_once("::") {
            Some((i, j)) => (i, Some(Sym::new(j))),
            None => (text, None),
        };
        Bound { key: KeyId::new(text), instance: Sym::new(instance), junction }
    }

    /// The text.
    pub fn as_str(&self) -> &'static str {
        self.key.as_str()
    }
}

/// A proposition key with a run-time part: `name[index]`.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyParts {
    /// The proposition name ([`Name::Lit`] or [`Name::Var`]).
    pub name: Name,
    /// The index ([`Name::Lit`] or [`Name::Var`]).
    pub index: Name,
}

impl KeyParts {
    fn reads(&self, slot: Slot) -> bool {
        self.name == Name::Var(slot) || self.index == Name::Var(slot)
    }
}

/// A junction a statement sends to or an atom reads from.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// Known at compile time: `ι::γ`, `me::junction`, `me::instance::γ`.
    Fixed(JunctionId),
    /// A literal bare instance name, which resolves to the instance's
    /// sole junction when used.
    Instance(Sym),
    /// `ι::γ` whose instance is a binding.
    Qualified {
        /// The instance's slot.
        instance: Slot,
        /// The junction.
        junction: Sym,
    },
    /// A binding holding `ι` or `ι::γ`; a bare instance resolves to its
    /// sole junction when used.
    Bare(Slot),
    /// `me::instance`, which is not a junction.
    MyInstance,
}

/// A remote atom: its truth comes from outside the junction's table.
#[derive(Clone, Debug, PartialEq)]
pub enum Remote {
    /// `γ@P`.
    Prop {
        /// The junction read.
        at: Target,
        /// The proposition key there.
        key: Name,
    },
    /// `S(ι)`.
    Live(Name),
}

/// One instruction of a [`Prog`]: an atom pushes its truth, a connective
/// pops its operands and pushes the result.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    Const(Ternary),
    /// A local proposition (`Unknown` if undeclared or unbound).
    Prop(Name),
    /// `elem ∈ subset` (`Unknown` while the subset is `undef`).
    InSubset {
        elem: Name,
        subset: KeyId,
    },
    /// Entry `i` of the remote scratch.
    Remote(usize),
    Not,
    And,
    Or,
    Implies,
}

/// A formula lowered to a flat postfix program.
#[derive(Clone, Debug, PartialEq)]
pub struct Prog {
    ops: Vec<Op>,
    remotes: Range<usize>,
    depth: usize,
    binds: bool,
}

impl Prog {
    /// The junction's remote atoms this program reads, in scratch order:
    /// scratch entry `i` holds atom `remotes().start + i`.
    pub fn remotes(&self) -> Range<usize> {
        self.remotes.clone()
    }

    /// Whether any atom reads a remote table or liveness — something no
    /// signal to this junction announces.
    pub fn has_remotes(&self) -> bool {
        !self.remotes.is_empty()
    }

    /// Whether a local atom reads a binding slot.
    pub fn reads_bindings(&self) -> bool {
        self.binds
    }

    /// Evaluate over resolved remote atoms (`remote[i]` is scratch entry
    /// `i`) and a local table: `prop` reads a proposition key,
    /// `in_subset(subset, elem)` a subset's membership. `bindings` is
    /// needed only if [`Prog::reads_bindings`]; without it, a bound name
    /// reads as `Unknown`.
    pub fn eval(
        &self,
        bindings: Option<&Bindings>,
        remote: &[Ternary],
        prop: impl Fn(KeyId) -> Option<bool>,
        in_subset: impl Fn(KeyId, &str) -> Option<bool>,
    ) -> Ternary {
        let key = |n: &Name| match n {
            Name::Lit(k) => Some(*k),
            other => bindings?.key(other),
        };
        let atom = |b: Option<bool>| b.map_or(Ternary::Unknown, Ternary::from_bool);
        with_scratch(self.depth, |stack| {
            let mut top = 0;
            for op in &self.ops {
                let pushed = match op {
                    Op::Const(t) => *t,
                    Op::Prop(n) => atom(key(n).and_then(&prop)),
                    Op::InSubset { elem, subset } => {
                        atom(key(elem).and_then(|e| in_subset(*subset, e.as_str())))
                    }
                    Op::Remote(i) => remote[*i],
                    Op::Not => {
                        stack[top - 1] = stack[top - 1].not();
                        continue;
                    }
                    Op::And | Op::Or | Op::Implies => {
                        top -= 1;
                        let (a, b) = (stack[top - 1], stack[top]);
                        stack[top - 1] = match op {
                            Op::And => a.and(b),
                            Op::Or => a.or(b),
                            _ => a.not().or(b),
                        };
                        continue;
                    }
                };
                stack[top] = pushed;
                top += 1;
            }
            stack[0]
        })
    }
}

/// Scratch sizes served from the stack; larger ones go to the heap.
const INLINE_SCRATCH: usize = 32;

/// Run `f` over a scratch of `n` ternaries — on the stack unless `n` is
/// unusually large.
pub fn with_scratch<R>(n: usize, f: impl FnOnce(&mut [Ternary]) -> R) -> R {
    if n <= INLINE_SCRATCH {
        f(&mut [Ternary::Unknown; INLINE_SCRATCH][..n])
    } else {
        f(&mut vec![Ternary::Unknown; n])
    }
}

/// The keys a `wait` admits or a `keep` drops.
#[derive(Clone, Debug, PartialEq)]
pub enum Keys {
    /// All known at compile time.
    Fixed(Arc<[KeyId]>),
    /// Some read bindings.
    Bound(Vec<Name>),
}

/// A lowered `case` arm.
#[derive(Clone, Debug, PartialEq)]
pub struct Arm {
    /// The arm's guard.
    pub guard: Prog,
    /// The arm's body.
    pub body: Stmt,
    /// How the arm terminates.
    pub terminator: Terminator,
    /// Whether the arm can end in `reconsider` (terminator or statement),
    /// the only case that reads the proposition fingerprint.
    pub reconsiders: bool,
}

/// A lowered statement: [`Expr`] with every name pre-resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `⌊H⌉{V⃗}`.
    Host {
        /// Registered host-function name.
        name: Ident,
        /// The write set.
        writes: Vec<KeyId>,
        /// Slots of the `idx` cursors in the write set.
        idx: Vec<Slot>,
    },
    /// `⟨E⟩`.
    Scope(Box<Stmt>),
    /// `⟨|E|⟩`.
    Transaction(Box<Stmt>),
    /// `return`.
    Return,
    /// `write(n, γ)`.
    Write {
        /// The datum.
        data: Name,
        /// The destination.
        to: Target,
    },
    /// `wait [n⃗] F`.
    Wait {
        /// The window: the formula's local propositions, then the data.
        keys: Keys,
        /// The awaited formula.
        prog: Prog,
        /// The formula as written, for diagnostics.
        formula: Formula,
    },
    /// `save(…, n)`.
    Save(Name),
    /// `restore(n, …)`.
    Restore(Name),
    /// `E1; E2; …`.
    Seq(Vec<Stmt>),
    /// `E1 + E2 + …`.
    Par(Vec<Stmt>),
    /// `∥n E`.
    Rep {
        /// Replication factor.
        n: u32,
        /// Replicated body.
        body: Box<Stmt>,
    },
    /// `E1 otherwise[t] E2`.
    Otherwise {
        /// Attempted statement.
        body: Box<Stmt>,
        /// The timeout parameter's slot.
        timeout: Option<Slot>,
        /// Failure handler.
        handler: Box<Stmt>,
    },
    /// `stop ι`.
    Stop(Name),
    /// `start ι γ(p⃗)…`.
    Start {
        /// Instance to start.
        instance: Name,
        /// Per-junction arguments, evaluated against the parameters.
        junction_args: Vec<(Option<Ident>, Vec<Arg>)>,
    },
    /// `assert [γ] P` (`value`) or `retract [γ] P` (`!value`).
    Assert {
        /// Destination; `None` = local only.
        at: Option<Target>,
        /// The proposition key.
        key: Name,
        /// `true` for `assert`.
        value: bool,
    },
    /// `verify G`.
    Verify {
        /// The condition.
        prog: Prog,
        /// The condition as written, for diagnostics.
        formula: Formula,
    },
    /// `skip`.
    Skip,
    /// `retry`.
    Retry,
    /// `keep`.
    Keep(Keys),
    /// `case { … otherwise ⇒ E }`.
    Case {
        /// The guarded arms, tried top-down.
        arms: Vec<Arm>,
        /// The `otherwise` arm.
        otherwise: Box<Stmt>,
    },
    /// `if F then E [else E]`.
    If {
        /// The condition.
        prog: Prog,
        /// The condition as written, for diagnostics.
        formula: Formula,
        /// Then-branch.
        then: Box<Stmt>,
        /// Else-branch.
        els: Option<Box<Stmt>>,
    },
    /// An unrolled `;`-loop that `break` leaves.
    LoopScope(Box<Stmt>),
    /// `break`.
    Break,
    /// `next`.
    Next,
    /// `reconsider`.
    Reconsider,
    /// A construct expansion should have removed; fails with this
    /// message when reached.
    Unexpanded(String),
}

/// One junction, lowered: everything the runtime needs of its
/// definition.
#[derive(Clone, Debug, PartialEq)]
pub struct LoweredJunction {
    /// `instance::junction`, the sender of every update it pushes.
    pub sender: Sender,
    /// The definition parameters' names, bound positionally at `start`.
    pub params: Vec<Ident>,
    /// Propositions whose key names a parameter (`Running[self]`), with
    /// their initial values: the table declares them once `start` binds
    /// the parameter.
    pub late_props: Vec<(PropRef, bool)>,
    /// The `guard`, if declared.
    pub guard: Option<Prog>,
    /// The body.
    pub body: Stmt,
    /// The binding slots.
    pub vars: Vec<Var>,
    /// The keys built from slots ([`Name::Key`]).
    pub keys: Vec<KeyParts>,
    /// Every remote atom of every formula; each [`Prog`] reads a range.
    pub remotes: Vec<Remote>,
    /// Whether the body can block on another junction or thread: it
    /// holds a `wait`, `+`, `∥n`, `start` or `stop`. Only a body that
    /// cannot may run nested under another junction's blocked `wait`
    /// on the wall clock, which keeps that nesting one level deep.
    pub may_park: bool,
}

impl LoweredJunction {
    /// The variable a name is missing, if it reads an unbound slot.
    pub fn unbound(&self, bindings: &Bindings, n: &Name) -> Option<&str> {
        match n {
            Name::Lit(_) => None,
            Name::Var(s) => bindings.bound[*s]
                .is_none()
                .then(|| self.vars[*s].name.as_str()),
            Name::Key(k) => {
                let parts = &self.keys[*k];
                self.unbound(bindings, &parts.name)
                    .or_else(|| self.unbound(bindings, &parts.index))
            }
        }
    }
}

/// The run-time half of a [`LoweredJunction`]'s names: the text bound in
/// each slot, the timeout a parameter slot holds, and every
/// [`KeyParts`] key built from them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bindings {
    bound: Vec<Option<Bound>>,
    pinned: Vec<bool>,
    durations: Vec<Option<Duration>>,
    keys: Vec<Option<KeyId>>,
}

impl Bindings {
    /// Every slot unbound.
    pub fn new(lowered: &LoweredJunction) -> Bindings {
        let n = lowered.vars.len();
        Bindings {
            bound: vec![None; n],
            pinned: vec![false; n],
            durations: vec![None; n],
            keys: vec![None; lowered.keys.len()],
        }
    }

    /// Bind `slot` to `text` (`None`: unbound) and rebuild the keys that
    /// read it. `pinned` records that a parameter bound it, so `idx`
    /// writes leave it alone. An `idx` element was interned at lowering;
    /// any other text is interned here.
    pub fn set(&mut self, lowered: &LoweredJunction, slot: Slot, text: Option<&str>, pinned: bool) {
        self.pinned[slot] = pinned;
        if self.bound[slot].map(|b| b.as_str()) == text {
            return;
        }
        self.bound[slot] = text.map(|t| {
            let elems = &lowered.vars[slot].elems;
            elems.iter().find(|e| e.as_str() == t).copied().unwrap_or_else(|| Bound::new(t))
        });
        for (k, parts) in lowered.keys.iter().enumerate() {
            if parts.reads(slot) {
                let key = match (self.text(&parts.name), self.text(&parts.index)) {
                    (Some(name), Some(index)) => Some(KeyId::new(&format!("{name}[{index}]"))),
                    _ => None,
                };
                self.keys[k] = key;
            }
        }
    }

    /// Set the timeout a parameter slot holds.
    pub fn set_duration(&mut self, slot: Slot, d: Option<Duration>) {
        self.durations[slot] = d;
    }

    /// Whether a parameter bound `slot`.
    pub fn pinned(&self, slot: Slot) -> bool {
        self.pinned[slot]
    }

    /// The timeout in `slot`.
    pub fn duration(&self, slot: Slot) -> Option<Duration> {
        self.durations.get(slot).copied().flatten()
    }

    /// What `slot` holds, if bound.
    pub fn bound(&self, slot: Slot) -> Option<Bound> {
        self.bound.get(slot).copied().flatten()
    }

    /// A name as a table key, if bound.
    pub fn key(&self, n: &Name) -> Option<KeyId> {
        match n {
            Name::Lit(k) => Some(*k),
            Name::Var(s) => self.bound(*s).map(|b| b.key),
            Name::Key(k) => self.keys.get(*k).copied().flatten(),
        }
    }

    /// A name's text, if bound.
    pub fn text(&self, n: &Name) -> Option<&'static str> {
        self.key(n).map(KeyId::as_str)
    }
}

/// Lower one expanded junction of `instance`. Linear in the junction's
/// size; the runtime calls it once per junction it builds.
pub fn lower(instance: &str, jd: &JunctionDef) -> LoweredJunction {
    let mut cx = Lowering {
        instance,
        jd,
        vars: Vec::new(),
        keys: Vec::new(),
        remotes: Vec::new(),
    };
    let guard = jd.guard().map(|f| cx.prog(f));
    let body = cx.stmt(&jd.body);
    let mut may_park = false;
    jd.body.walk(&mut |e| {
        may_park |= matches!(
            e,
            Expr::Wait { .. }
                | Expr::Par(_)
                | Expr::Rep { .. }
                | Expr::Start { .. }
                | Expr::Stop(_)
        )
    });
    let late_props = jd.decls.iter().filter_map(|d| match d {
        Decl::Prop { prop, init } if !is_static(prop) => Some((prop.clone(), *init)),
        _ => None,
    });
    LoweredJunction {
        sender: Sender::of(&JunctionId::new(instance, jd.name.as_str())),
        params: jd.params.iter().map(|p| p.name.clone()).collect(),
        late_props: late_props.collect(),
        guard,
        body,
        vars: cx.vars,
        keys: cx.keys,
        remotes: cx.remotes,
        may_park,
    }
}

/// Whether a proposition's key is known without bindings (what
/// [`PropRef::as_key`] would build).
fn is_static(p: &PropRef) -> bool {
    p.name.as_lit().is_some() && p.index.iter().all(|i| i.as_lit().is_some())
}

struct Lowering<'a> {
    instance: &'a str,
    jd: &'a JunctionDef,
    vars: Vec<Var>,
    keys: Vec<KeyParts>,
    remotes: Vec<Remote>,
}

impl Lowering<'_> {
    fn is_param(&self, v: &str) -> bool {
        self.jd.params.iter().any(|p| p.name == v)
    }

    /// The base set of the `idx` cursor `v`, if `v` is one.
    fn idx_base(&self, v: &str) -> Option<&SetRef> {
        self.jd.decls.iter().find_map(|d| match d {
            Decl::Idx { name, of } if name == v => Some(of),
            _ => None,
        })
    }

    /// Whether `v` names a declared datum or statically keyed proposition.
    fn declared(&self, v: &str) -> bool {
        self.jd.decls.iter().any(|d| match d {
            Decl::Data { name } => name == v,
            Decl::Prop { prop, .. } => prop.as_key().is_some_and(|k| k == v),
            _ => false,
        })
    }

    /// The slot of variable `v`, created on first use.
    fn slot(&mut self, v: &str) -> Slot {
        if let Some(s) = self.vars.iter().position(|x| x.name == v) {
            return s;
        }
        let elems = match self.idx_base(v) {
            Some(SetRef::Lit(es)) if !self.is_param(v) => {
                es.iter().map(|e| Bound::new(&e.key())).collect()
            }
            _ => Vec::new(),
        };
        self.vars.push(Var {
            name: v.to_string(),
            key: KeyId::new(v),
            elems,
        });
        self.vars.len() - 1
    }

    fn name(&mut self, n: &NameRef) -> Name {
        match n {
            NameRef::Lit(s) => Name::Lit(KeyId::new(s)),
            NameRef::Var(v) => match self.vars.iter().position(|x| x.name == *v) {
                Some(s) => Name::Var(s),
                // A variable that is neither parameter nor cursor but
                // names declared state resolves to itself.
                None if !self.is_param(v) && self.idx_base(v).is_none() && self.declared(v) => {
                    Name::Lit(KeyId::new(v))
                }
                None => Name::Var(self.slot(v)),
            },
        }
    }

    fn prop(&mut self, p: &PropRef) -> Name {
        let name = self.name(&p.name);
        let Some(ix) = &p.index else { return name };
        match (name, self.name(ix)) {
            (Name::Lit(n), Name::Lit(i)) => Name::Lit(KeyId::new(&format!("{n}[{i}]"))),
            (name, index) => {
                self.keys.push(KeyParts { name, index });
                Name::Key(self.keys.len() - 1)
            }
        }
    }

    fn target(&mut self, j: &JRef) -> Target {
        match j {
            JRef::Qualified { instance, junction } => match self.name(instance) {
                Name::Lit(i) => Target::Fixed(JunctionId::new(i.as_str(), junction)),
                Name::Var(instance) => Target::Qualified {
                    instance,
                    junction: Sym::new(junction),
                },
                Name::Key(_) => unreachable!("only a proposition builds a key"),
            },
            JRef::Bare(n) => match self.name(n) {
                Name::Lit(text) => {
                    let b = Bound::new(&text);
                    match b.junction {
                        Some(junction) => {
                            Target::Fixed(JunctionId { instance: b.instance, junction })
                        }
                        None => Target::Instance(b.instance),
                    }
                }
                Name::Var(slot) => Target::Bare(slot),
                Name::Key(_) => unreachable!("only a proposition builds a key"),
            },
            JRef::MyJunction => Target::Fixed(JunctionId::new(self.instance, &self.jd.name)),
            JRef::MyInstance => Target::MyInstance,
            JRef::Sibling(j) => Target::Fixed(JunctionId::new(self.instance, j)),
        }
    }

    fn fixed_keys(&self, names: Vec<Name>) -> Keys {
        if names.iter().all(|n| matches!(n, Name::Lit(_))) {
            let lits = names.into_iter().map(|n| match n {
                Name::Lit(k) => k,
                _ => unreachable!("all literal"),
            });
            Keys::Fixed(lits.collect())
        } else {
            Keys::Bound(names)
        }
    }

    fn prog(&mut self, f: &Formula) -> Prog {
        let start = self.remotes.len();
        let prog = Prog {
            ops: Vec::new(),
            remotes: start..start,
            depth: 0,
            binds: false,
        };
        let mut p = ProgBuilder { prog, height: 0 };
        self.formula(f, &mut p);
        p.prog.remotes.end = self.remotes.len();
        p.prog
    }

    fn formula(&mut self, f: &Formula, p: &mut ProgBuilder) {
        match f {
            Formula::False => p.push(Op::Const(Ternary::False)),
            Formula::True => p.push(Op::Const(Ternary::True)),
            Formula::Prop(pr) => {
                let n = self.prop(pr);
                p.reads(&n);
                p.push(Op::Prop(n));
            }
            Formula::Not(a) => {
                self.formula(a, p);
                p.push(Op::Not);
            }
            Formula::And(a, b) => self.binary(a, b, Op::And, p),
            Formula::Or(a, b) => self.binary(a, b, Op::Or, p),
            Formula::Implies(a, b) => self.binary(a, b, Op::Implies, p),
            Formula::At(j, inner) => self.remote_formula(j, inner, p),
            Formula::Live(n) => {
                let n = self.name(n);
                self.remote(Remote::Live(n), p);
            }
            Formula::InSubset { elem, subset } => {
                let elem = self.name(elem);
                p.reads(&elem);
                p.push(Op::InSubset {
                    elem,
                    subset: KeyId::new(subset.raw()),
                });
            }
            // Unexpanded: never true.
            Formula::For { .. } => p.push(Op::Const(Ternary::Unknown)),
        }
    }

    fn binary(&mut self, a: &Formula, b: &Formula, op: Op, p: &mut ProgBuilder) {
        self.formula(a, p);
        self.formula(b, p);
        p.push(op);
    }

    /// `γ@F`: `@` distributes over the connectives onto propositions; any
    /// other atom under `@` is `Unknown`.
    fn remote_formula(&mut self, j: &JRef, f: &Formula, p: &mut ProgBuilder) {
        match f {
            Formula::Prop(pr) => {
                let key = self.prop(pr);
                let at = self.target(j);
                self.remote(Remote::Prop { at, key }, p);
            }
            Formula::Not(a) => {
                self.remote_formula(j, a, p);
                p.push(Op::Not);
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                self.remote_formula(j, a, p);
                self.remote_formula(j, b, p);
                p.push(match f {
                    Formula::And(..) => Op::And,
                    Formula::Or(..) => Op::Or,
                    _ => Op::Implies,
                });
            }
            _ => p.push(Op::Const(Ternary::Unknown)),
        }
    }

    fn remote(&mut self, atom: Remote, p: &mut ProgBuilder) {
        p.push(Op::Remote(self.remotes.len() - p.prog.remotes.start));
        self.remotes.push(atom);
    }

    fn stmts(&mut self, es: &[Expr]) -> Vec<Stmt> {
        es.iter().map(|e| self.stmt(e)).collect()
    }

    fn boxed(&mut self, e: &Expr) -> Box<Stmt> {
        Box::new(self.stmt(e))
    }

    fn stmt(&mut self, e: &Expr) -> Stmt {
        match e {
            Expr::Host { name, writes } => {
                let mut idx = Vec::new();
                for w in writes {
                    if self.idx_base(w).is_some() {
                        idx.push(self.slot(w));
                    }
                }
                Stmt::Host {
                    name: name.clone(),
                    writes: writes.iter().map(|w| KeyId::new(w)).collect(),
                    idx,
                }
            }
            Expr::Scope(inner) => Stmt::Scope(self.boxed(inner)),
            Expr::Transaction(inner) => Stmt::Transaction(self.boxed(inner)),
            Expr::Return => Stmt::Return,
            Expr::Write { data, to } => Stmt::Write {
                data: self.name(data),
                to: self.target(to),
            },
            Expr::Wait { data, formula } => {
                let mut keys: Vec<Name> =
                    formula.local_props().iter().map(|p| self.prop(p)).collect();
                keys.extend(data.iter().map(|d| self.name(d)));
                Stmt::Wait {
                    keys: self.fixed_keys(keys),
                    prog: self.prog(formula),
                    formula: formula.clone(),
                }
            }
            Expr::Save { data } => Stmt::Save(self.name(data)),
            Expr::Restore { data } => Stmt::Restore(self.name(data)),
            Expr::Seq(es) => Stmt::Seq(self.stmts(es)),
            Expr::Par(es) => Stmt::Par(self.stmts(es)),
            Expr::Rep { n, body } => Stmt::Rep {
                n: *n,
                body: self.boxed(body),
            },
            Expr::Otherwise {
                body,
                timeout,
                handler,
            } => Stmt::Otherwise {
                body: self.boxed(body),
                // A timeout always names a parameter, literal or not.
                timeout: timeout.as_ref().map(|t| self.slot(t.raw())),
                handler: self.boxed(handler),
            },
            Expr::Stop(n) => Stmt::Stop(self.name(n)),
            Expr::Start {
                instance,
                junction_args,
            } => Stmt::Start {
                instance: self.name(instance),
                junction_args: junction_args.clone(),
            },
            Expr::Assert { at, prop } | Expr::Retract { at, prop } => Stmt::Assert {
                at: at.as_ref().map(|j| self.target(j)),
                key: self.prop(prop),
                value: matches!(e, Expr::Assert { .. }),
            },
            Expr::Call { func, .. } => {
                Stmt::Unexpanded(format!("unexpanded call `{func}` reached the interpreter"))
            }
            Expr::Verify(f) => Stmt::Verify {
                prog: self.prog(f),
                formula: f.clone(),
            },
            Expr::Skip => Stmt::Skip,
            Expr::Retry => Stmt::Retry,
            Expr::Keep { keys } => {
                let names = keys.iter().map(|k| self.name(k)).collect();
                Stmt::Keep(self.fixed_keys(names))
            }
            Expr::Case { arms, otherwise } => {
                let mut lowered = Vec::with_capacity(arms.len());
                for arm in arms {
                    let CaseGuard::Plain(g) = &arm.guard else {
                        return Stmt::Unexpanded(
                            "unexpanded for-guard reached the interpreter".into(),
                        );
                    };
                    let mut reconsiders = arm.terminator == Terminator::Reconsider;
                    arm.body
                        .walk(&mut |x| reconsiders |= matches!(x, Expr::Reconsider));
                    lowered.push(Arm {
                        guard: self.prog(g),
                        body: self.stmt(&arm.body),
                        terminator: arm.terminator,
                        reconsiders,
                    });
                }
                Stmt::Case {
                    arms: lowered,
                    otherwise: self.boxed(otherwise),
                }
            }
            Expr::If { cond, then, els } => Stmt::If {
                prog: self.prog(cond),
                formula: cond.clone(),
                then: self.boxed(then),
                els: els.as_ref().map(|e| self.boxed(e)),
            },
            Expr::For { .. } => Stmt::Unexpanded("unexpanded `for` reached the interpreter".into()),
            Expr::LoopScope(inner) => Stmt::LoopScope(self.boxed(inner)),
            Expr::Break => Stmt::Break,
            Expr::Next => Stmt::Next,
            Expr::Reconsider => Stmt::Reconsider,
        }
    }
}

/// A [`Prog`] under construction, tracking the stack height.
struct ProgBuilder {
    prog: Prog,
    height: usize,
}

impl ProgBuilder {
    fn push(&mut self, op: Op) {
        match op {
            Op::Not => {}
            Op::And | Op::Or | Op::Implies => self.height -= 1,
            _ => {
                self.height += 1;
                self.prog.depth = self.prog.depth.max(self.height);
            }
        }
        self.prog.ops.push(op);
    }

    /// Note a local atom's name: a bound one makes the program read the
    /// bindings.
    fn reads(&mut self, n: &Name) {
        self.prog.binds |= !matches!(n, Name::Lit(_));
    }
}
