//! Names and references used throughout the DSL.
//!
//! The paper names several kinds of entity: propositions, data, instances,
//! junctions, sets and variables (definition parameters, `for`-bound
//! symbols, and `idx` cursors). References to them fall into two classes:
//! *literals*, fixed in the program text, and *variables*, resolved either
//! at compile time (function parameters, `for`-bound symbols — both are
//! template-expanded) or at run time (definition parameters and `idx`
//! cursors).

use std::fmt;

use crate::intern::Sym;

/// Plain identifier. The DSL has a flat namespace per kind of entity.
pub type Ident = String;

/// A name that is either a literal identifier or a variable to be resolved.
///
/// After [`crate::expand::expand`] runs, the only remaining `Var`s refer to
/// definition parameters and `idx` cursors, both resolved by the runtime.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NameRef {
    /// A literal name fixed in the program text.
    Lit(Ident),
    /// A variable: definition parameter, `for`-bound symbol, or `idx`.
    Var(Ident),
}

impl NameRef {
    /// Literal constructor.
    pub fn lit(s: impl Into<String>) -> Self {
        NameRef::Lit(s.into())
    }
    /// Variable constructor.
    pub fn var(s: impl Into<String>) -> Self {
        NameRef::Var(s.into())
    }
    /// The literal name, if this reference is already resolved.
    pub fn as_lit(&self) -> Option<&str> {
        match self {
            NameRef::Lit(s) => Some(s),
            NameRef::Var(_) => None,
        }
    }
    /// The variable name, if unresolved.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            NameRef::Var(s) => Some(s),
            NameRef::Lit(_) => None,
        }
    }
    /// The underlying identifier regardless of class.
    pub fn raw(&self) -> &str {
        match self {
            NameRef::Lit(s) | NameRef::Var(s) => s,
        }
    }
}

impl fmt::Display for NameRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameRef::Lit(s) => write!(f, "{s}"),
            NameRef::Var(s) => write!(f, "{s}"),
        }
    }
}

/// A reference to a junction, the unit of addressability in C-Saw.
///
/// Junction names are always fully qualified (`instance::junction`), but an
/// instance with a single junction may be addressed by its instance name
/// alone, and the special names `me::junction` / `me::instance::j` refer to
/// the containing junction and to sibling junctions of the containing
/// instance respectively (§6, "Instance and junction references").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum JRef {
    /// `instance::junction`, where the instance part may be a variable.
    Qualified { instance: NameRef, junction: Ident },
    /// A bare reference resolved at run time: either an instance with a
    /// single junction, or a parameter/`idx` holding a junction target.
    Bare(NameRef),
    /// `me::junction` — the containing junction.
    MyJunction,
    /// `me::instance` — the containing instance (for `stop`, liveness…).
    MyInstance,
    /// `me::instance::<j>` — a sibling junction of the containing instance.
    Sibling(Ident),
}

impl JRef {
    /// `instance::junction` with a literal instance name.
    pub fn qualified(instance: impl Into<String>, junction: impl Into<String>) -> Self {
        JRef::Qualified {
            instance: NameRef::lit(instance),
            junction: junction.into(),
        }
    }
    /// Bare literal reference (single-junction instance).
    pub fn instance(name: impl Into<String>) -> Self {
        JRef::Bare(NameRef::lit(name))
    }
    /// Bare variable reference (parameter or `idx` cursor).
    pub fn var(name: impl Into<String>) -> Self {
        JRef::Bare(NameRef::var(name))
    }
}

impl fmt::Display for JRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JRef::Qualified { instance, junction } => write!(f, "{instance}::{junction}"),
            JRef::Bare(n) => write!(f, "{n}"),
            JRef::MyJunction => write!(f, "me::junction"),
            JRef::MyInstance => write!(f, "me::instance"),
            JRef::Sibling(j) => write!(f, "me::instance::{j}"),
        }
    }
}

/// A resolved junction: the runtime identity of `instance::junction`,
/// both names interned, so it is `Copy` and compares as two integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JunctionId {
    /// Instance name.
    pub instance: Sym,
    /// Junction name.
    pub junction: Sym,
}

impl JunctionId {
    /// Construct from parts.
    pub fn new(instance: impl Into<Sym>, junction: impl Into<Sym>) -> Self {
        JunctionId { instance: instance.into(), junction: junction.into() }
    }
    /// `instance::junction` rendering.
    pub fn qualified(&self) -> String {
        format!("{}::{}", self.instance, self.junction)
    }
}

impl fmt::Display for JunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.instance, self.junction)
    }
}

/// The sender of an update: a junction's `instance::junction` text, or
/// a bare name (a client pushing requests in), interned together with
/// its instance — the scope at which the transport sequences, dedups
/// and fences.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Sender {
    /// The whole text, as traces, frames and snapshots carry it.
    pub name: Sym,
    /// The part before `::` (the whole text if there is none).
    pub instance: Sym,
}

impl Sender {
    /// Intern `text`, `instance::junction` or a bare name.
    pub fn new(text: &str) -> Sender {
        let instance = text.split("::").next().unwrap_or(text);
        Sender { name: Sym::new(text), instance: Sym::new(instance) }
    }

    /// The sender a junction's updates carry.
    pub fn of(id: &JunctionId) -> Sender {
        Sender { name: Sym::new(&id.qualified()), instance: id.instance }
    }

    /// The whole text.
    pub fn as_str(&self) -> &'static str {
        self.name.as_str()
    }

    /// The part after `::` (empty for a bare name).
    pub fn junction(&self) -> &'static str {
        self.as_str().split_once("::").map_or("", |(_, j)| j)
    }
}

impl fmt::Display for Sender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<&str> for Sender {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&str> for Sender {
    fn from(text: &str) -> Sender {
        Sender::new(text)
    }
}

impl From<String> for Sender {
    fn from(text: String) -> Sender {
        Sender::new(&text)
    }
}

/// A (possibly indexed) proposition reference, e.g. `Work` or `Backend[tgt]`.
///
/// Both the proposition name and the index may be variables; `for`-bound
/// indices are substituted away during expansion, `idx`/parameter indices
/// resolve at run time.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PropRef {
    /// Proposition name (may be a function parameter, cf. `Watch` in §7.4).
    pub name: NameRef,
    /// Optional index into a set-derived family of propositions.
    pub index: Option<NameRef>,
}

impl PropRef {
    /// Unindexed literal proposition.
    pub fn plain(name: impl Into<String>) -> Self {
        PropRef {
            name: NameRef::lit(name),
            index: None,
        }
    }
    /// Indexed proposition `name[index]` with a variable index.
    pub fn indexed(name: impl Into<String>, index: NameRef) -> Self {
        PropRef {
            name: NameRef::lit(name),
            index: Some(index),
        }
    }
    /// The flattened table key, if fully resolved (e.g. `Backend[b1]`).
    pub fn as_key(&self) -> Option<String> {
        let name = self.name.as_lit()?;
        match &self.index {
            None => Some(name.to_string()),
            Some(ix) => ix.as_lit().map(|i| format!("{name}[{i}]")),
        }
    }
}

impl fmt::Display for PropRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.index {
            None => write!(f, "{}", self.name),
            Some(ix) => write!(f, "{}[{ix}]", self.name),
        }
    }
}

/// An element of a compile-time set.
///
/// Sets may contain "any kind of data but not other sets" (§6); in practice
/// the paper's sets hold instance references, junction references, and
/// scalar data used as shard labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SetElem {
    /// An instance name (e.g. `{Bck1, …, BckN}` in Fig. 5).
    Instance(Ident),
    /// A fully-qualified junction (e.g. `{b1::serve, b2::serve}` in Fig. 12).
    Junction(Ident, Ident),
    /// Scalar string datum.
    Str(String),
    /// Scalar integer datum.
    Int(i64),
}

impl SetElem {
    /// Canonical text used to index proposition families and to substitute
    /// `for`-bound symbols.
    pub fn key(&self) -> String {
        match self {
            SetElem::Instance(i) => i.clone(),
            SetElem::Junction(i, j) => format!("{i}::{j}"),
            SetElem::Str(s) => s.clone(),
            SetElem::Int(i) => i.to_string(),
        }
    }

    /// Whether [`SetElem::key`] equals `key`, without building the key.
    pub fn has_key(&self, key: &str) -> bool {
        match self {
            SetElem::Instance(s) | SetElem::Str(s) => s == key,
            SetElem::Junction(i, j) => key
                .split_once("::")
                .is_some_and(|(ki, kj)| ki == i && kj == j),
            SetElem::Int(_) => self.key() == key,
        }
    }
}

impl fmt::Display for SetElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

/// A reference to a set: literal (`{Bck1, Bck2}`), or by name (declared via
/// `set`/`subset`, passed as a parameter, or provided at load time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetRef {
    /// Literal set, fixed in the program text.
    Lit(Vec<SetElem>),
    /// Named set (a `set`/`subset` declaration or a set-valued parameter).
    Named(NameRef),
}

impl SetRef {
    /// Literal set of instance names.
    pub fn instances<I: IntoIterator<Item = S>, S: Into<String>>(names: I) -> Self {
        SetRef::Lit(names.into_iter().map(|n| SetElem::Instance(n.into())).collect())
    }
}

impl fmt::Display for SetRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetRef::Lit(elems) => {
                write!(f, "{{")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
            SetRef::Named(n) => write!(f, "{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_ref_accessors() {
        let l = NameRef::lit("Bck1");
        let v = NameRef::var("tgt");
        assert_eq!(l.as_lit(), Some("Bck1"));
        assert_eq!(l.as_var(), None);
        assert_eq!(v.as_var(), Some("tgt"));
        assert_eq!(v.as_lit(), None);
        assert_eq!(l.raw(), "Bck1");
        assert_eq!(v.raw(), "tgt");
    }

    #[test]
    fn prop_ref_keys() {
        assert_eq!(PropRef::plain("Work").as_key().unwrap(), "Work");
        let indexed = PropRef::indexed("Backend", NameRef::lit("b1"));
        assert_eq!(indexed.as_key().unwrap(), "Backend[b1]");
        let unresolved = PropRef::indexed("Backend", NameRef::var("tgt"));
        assert_eq!(unresolved.as_key(), None);
    }

    #[test]
    fn jref_display() {
        assert_eq!(JRef::qualified("f", "b").to_string(), "f::b");
        assert_eq!(JRef::instance("Aud").to_string(), "Aud");
        assert_eq!(JRef::MyJunction.to_string(), "me::junction");
        assert_eq!(JRef::Sibling("serve".into()).to_string(), "me::instance::serve");
    }

    #[test]
    fn set_elem_keys() {
        assert_eq!(SetElem::Instance("b1".into()).key(), "b1");
        assert_eq!(SetElem::Junction("b1".into(), "serve".into()).key(), "b1::serve");
        assert_eq!(SetElem::Int(7).key(), "7");
        assert_eq!(SetElem::Str("x".into()).key(), "x");
        for e in [
            SetElem::Instance("b1".into()),
            SetElem::Junction("b1".into(), "serve".into()),
            SetElem::Int(7),
            SetElem::Str("x".into()),
        ] {
            assert!(e.has_key(&e.key()));
            assert!(!e.has_key("b1::other") && !e.has_key("07") && !e.has_key(""));
        }
    }

    #[test]
    fn junction_id_rendering() {
        let id = JunctionId::new("f", "b");
        assert_eq!(id.qualified(), "f::b");
        assert_eq!(id.to_string(), "f::b");
        assert_eq!(id, JunctionId::new("f".to_string(), Sym::new("b")));
    }

    #[test]
    fn senders_split_at_the_first_separator() {
        let s = Sender::new("f::b");
        assert_eq!((s.as_str(), s.instance.as_str(), s.junction()), ("f::b", "f", "b"));
        assert_eq!(s, Sender::of(&JunctionId::new("f", "b")));
        let bare = Sender::new("client");
        assert_eq!((bare.instance.as_str(), bare.junction()), ("client", ""));
    }

    #[test]
    fn set_ref_display() {
        let s = SetRef::instances(["b1", "b2"]);
        assert_eq!(s.to_string(), "{b1, b2}");
        assert_eq!(SetRef::Named(NameRef::var("backends")).to_string(), "backends");
    }
}
