//! Propositional formulas `F` and junction-relative formulas `G` (Table 1).
//!
//! Formulas guard junction scheduling, `wait` statements, `case` arms and
//! `verify` assertions. The grammar is
//! `F ::= P | false | ¬F | F ∧ F | F ∨ F | F → F` with the junction-relative
//! extension `G ::= F | γ@F` and two atoms that appear in the paper's
//! examples beyond the core grammar: the liveness predicate `S(ι)`
//! (watched fail-over, Fig. 16) and subset membership (used by the
//! expansion of `for` over run-time subsets, §7.1).

use std::fmt;

use crate::names::{Ident, JRef, NameRef, PropRef, SetRef};

/// Three-valued truth: `verify` relies on ternary logic (§6) — evaluating
/// `f@P` when `f` is not running yields `Unknown`, which `verify` reports
/// as an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ternary {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Not evaluable (e.g. remote junction not running).
    Unknown,
}

impl Ternary {
    /// Kleene negation.
    #[allow(clippy::should_implement_trait)] // DSL combinator, chains with `.and`/`.or`
    pub fn not(self) -> Ternary {
        match self {
            Ternary::True => Ternary::False,
            Ternary::False => Ternary::True,
            Ternary::Unknown => Ternary::Unknown,
        }
    }
    /// Kleene conjunction.
    pub fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::False, _) | (_, Ternary::False) => Ternary::False,
            (Ternary::True, Ternary::True) => Ternary::True,
            _ => Ternary::Unknown,
        }
    }
    /// Kleene disjunction.
    pub fn or(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::True, _) | (_, Ternary::True) => Ternary::True,
            (Ternary::False, Ternary::False) => Ternary::False,
            _ => Ternary::Unknown,
        }
    }
    /// Convert from two-valued truth.
    pub fn from_bool(b: bool) -> Ternary {
        if b {
            Ternary::True
        } else {
            Ternary::False
        }
    }
}

/// A propositional formula.
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// The constant `false`.
    False,
    /// The constant `true` (written `¬false` in the paper).
    True,
    /// A (possibly indexed) proposition.
    Prop(PropRef),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Material implication.
    Implies(Box<Formula>, Box<Formula>),
    /// `γ@F`: `F` interpreted at junction `γ` (G-formulas; `verify`/guards).
    At(JRef, Box<Formula>),
    /// `S(ι)`: instance ι is running (liveness, Fig. 16).
    Live(NameRef),
    /// `elem ∈ subset`: membership in a run-time subset. Produced by the
    /// expansion of `for x̃ ∈ subset …` over the subset's compile-time
    /// superset; each unrolled copy is guarded by membership.
    InSubset {
        /// The candidate element (a literal after expansion).
        elem: NameRef,
        /// The subset variable, resolved against the junction table.
        subset: NameRef,
    },
    /// Template-based recursion over formulas:
    /// `for x̃ ∈ S op F[x̃]` with `op ∈ {∧, ∨}` (§6). Unrolled at compile
    /// time; an empty set yields `false` for ∨ and `¬false` for ∧.
    For {
        /// Bound symbol.
        var: Ident,
        /// Iterated set.
        set: SetRef,
        /// `true` = conjunction, `false` = disjunction.
        conj: bool,
        /// Body with `var` free.
        body: Box<Formula>,
    },
}

impl Formula {
    /// `¬f`
    #[allow(clippy::should_implement_trait)] // DSL combinator, mirrors `Ternary::not`
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }
    /// `self ∧ other`
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }
    /// `self ∨ other`
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }
    /// `self → other`
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(other))
    }
    /// Plain proposition atom.
    pub fn prop(name: impl Into<String>) -> Formula {
        Formula::Prop(PropRef::plain(name))
    }
    /// Indexed proposition atom with a variable index.
    pub fn prop_at(name: impl Into<String>, index: NameRef) -> Formula {
        Formula::Prop(PropRef::indexed(name, index))
    }
    /// `γ@F`
    pub fn at(j: JRef, f: Formula) -> Formula {
        Formula::At(j, Box::new(f))
    }
    /// `S(ι)` with a literal instance name.
    pub fn live(inst: impl Into<String>) -> Formula {
        Formula::Live(NameRef::lit(inst))
    }

    /// Evaluate under an assignment. `local` maps a fully-resolved local
    /// proposition key to its value; `remote` resolves `γ@P` and `Live`.
    /// Unresolved variables yield `Unknown`.
    pub fn eval<L, R, S>(&self, local: &L, remote: &R, in_subset: &S) -> Ternary
    where
        L: Fn(&str) -> Option<bool>,
        R: Fn(&JRef, &str) -> Ternary,
        S: Fn(&str, &str) -> Ternary,
    {
        match self {
            Formula::False => Ternary::False,
            Formula::True => Ternary::True,
            Formula::Prop(p) => match p.as_key() {
                Some(k) => local(&k).map_or(Ternary::Unknown, Ternary::from_bool),
                None => Ternary::Unknown,
            },
            Formula::Not(f) => f.eval(local, remote, in_subset).not(),
            Formula::And(a, b) => a.eval(local, remote, in_subset).and(b.eval(local, remote, in_subset)),
            Formula::Or(a, b) => a.eval(local, remote, in_subset).or(b.eval(local, remote, in_subset)),
            Formula::Implies(a, b) => a
                .eval(local, remote, in_subset)
                .not()
                .or(b.eval(local, remote, in_subset)),
            Formula::At(j, f) => match &**f {
                Formula::Prop(p) => match p.as_key() {
                    Some(k) => remote(j, &k),
                    None => Ternary::Unknown,
                },
                // Non-atomic remote formulas: evaluate recursively through
                // the same remote resolver by pushing @ inwards.
                other => other.clone().push_at(j).eval(local, remote, in_subset),
            },
            Formula::Live(n) => remote(&JRef::Bare(n.clone()), "\u{0}live\u{0}"),
            Formula::InSubset { elem, subset } => in_subset(elem.raw(), subset.raw()),
            Formula::For { .. } => Ternary::Unknown, // must be expanded first
        }
    }

    /// Push a `γ@` prefix through connectives onto atoms.
    fn push_at(self, j: &JRef) -> Formula {
        match self {
            Formula::Not(f) => Formula::Not(Box::new(f.push_at(j))),
            Formula::And(a, b) => Formula::And(Box::new(a.push_at(j)), Box::new(b.push_at(j))),
            Formula::Or(a, b) => Formula::Or(Box::new(a.push_at(j)), Box::new(b.push_at(j))),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(a.push_at(j)), Box::new(b.push_at(j)))
            }
            f @ Formula::Prop(_) => Formula::At(j.clone(), Box::new(f)),
            other => other,
        }
    }

    /// All proposition references occurring in the formula (locally — not
    /// under `@`). Used by `wait` to open its update window and by the
    /// semantics' DNF decomposition.
    pub fn local_props(&self) -> Vec<PropRef> {
        let mut out = Vec::new();
        self.collect_props(true, &mut out);
        out
    }

    /// All proposition references, including those under `@`.
    pub fn all_props(&self) -> Vec<PropRef> {
        let mut out = Vec::new();
        self.collect_props(false, &mut out);
        out
    }

    fn collect_props(&self, local_only: bool, out: &mut Vec<PropRef>) {
        match self {
            Formula::Prop(p) => {
                if !out.contains(p) {
                    out.push(p.clone());
                }
            }
            Formula::Not(f) => f.collect_props(local_only, out),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.collect_props(local_only, out);
                b.collect_props(local_only, out);
            }
            Formula::At(_, f) => {
                if !local_only {
                    f.collect_props(local_only, out);
                }
            }
            Formula::For { body, .. } => body.collect_props(local_only, out),
            Formula::False | Formula::True | Formula::Live(_) | Formula::InSubset { .. } => {}
        }
    }

    /// A literal in a DNF clause: a proposition required true or false.
    /// Produced by [`Formula::dnf`].
    pub fn dnf(&self) -> Dnf {
        dnf_of(self, true)
    }
}

/// A signed atom in a DNF clause.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DnfLit {
    /// Proposition key required to have the given value.
    Prop(String, bool),
    /// Liveness of an instance required to have the given value.
    Live(String, bool),
    /// Subset membership required to have the given value.
    InSubset(String, String, bool),
    /// Remote proposition `γ@P` required to have the given value.
    RemoteProp(String, String, bool),
    /// An opaque atom that could not be keyed (unresolved variable).
    Opaque(String, bool),
}

/// Disjunctive normal form: a set of clauses, each a set of literals
/// (§8.3 of the paper uses exactly this decomposition to give semantics to
/// `wait` and guards).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dnf {
    /// The clauses; the formula is the disjunction of their conjunctions.
    /// An empty clause list denotes `false`; a list containing an empty
    /// clause denotes `true`.
    pub clauses: Vec<Vec<DnfLit>>,
}

impl Dnf {
    /// `false`
    pub fn f() -> Dnf {
        Dnf { clauses: vec![] }
    }
    /// `true`
    pub fn t() -> Dnf {
        Dnf { clauses: vec![vec![]] }
    }
    fn or(mut self, other: Dnf) -> Dnf {
        self.clauses.extend(other.clauses);
        self.normalize()
    }
    fn and(self, other: Dnf) -> Dnf {
        let mut clauses = Vec::with_capacity(self.clauses.len() * other.clauses.len());
        for a in &self.clauses {
            for b in &other.clauses {
                let mut c = a.clone();
                for lit in b {
                    if !c.contains(lit) {
                        c.push(lit.clone());
                    }
                }
                clauses.push(c);
            }
        }
        Dnf { clauses }.normalize()
    }
    fn normalize(mut self) -> Dnf {
        for c in &mut self.clauses {
            c.sort();
            c.dedup();
        }
        // Drop clauses containing a literal and its negation.
        self.clauses.retain(|c| {
            !c.iter().any(|l| c.contains(&negate_lit(l)))
        });
        self.clauses.sort();
        self.clauses.dedup();
        self
    }
}

fn negate_lit(l: &DnfLit) -> DnfLit {
    match l {
        DnfLit::Prop(k, v) => DnfLit::Prop(k.clone(), !v),
        DnfLit::Live(k, v) => DnfLit::Live(k.clone(), !v),
        DnfLit::InSubset(e, s, v) => DnfLit::InSubset(e.clone(), s.clone(), !v),
        DnfLit::RemoteProp(j, k, v) => DnfLit::RemoteProp(j.clone(), k.clone(), !v),
        DnfLit::Opaque(k, v) => DnfLit::Opaque(k.clone(), !v),
    }
}

fn atom_lit(f: &Formula, sign: bool) -> DnfLit {
    match f {
        Formula::Prop(p) => match p.as_key() {
            Some(k) => DnfLit::Prop(k, sign),
            None => DnfLit::Opaque(p.to_string(), sign),
        },
        Formula::Live(n) => DnfLit::Live(n.raw().to_string(), sign),
        Formula::InSubset { elem, subset } => {
            DnfLit::InSubset(elem.raw().to_string(), subset.raw().to_string(), sign)
        }
        Formula::At(j, inner) => match &**inner {
            Formula::Prop(p) => match p.as_key() {
                Some(k) => DnfLit::RemoteProp(j.to_string(), k, sign),
                None => DnfLit::Opaque(format!("{j}@{p}"), sign),
            },
            other => DnfLit::Opaque(format!("{j}@{other:?}"), sign),
        },
        other => DnfLit::Opaque(format!("{other:?}"), sign),
    }
}

fn dnf_of(f: &Formula, sign: bool) -> Dnf {
    match (f, sign) {
        (Formula::False, true) | (Formula::True, false) => Dnf::f(),
        (Formula::True, true) | (Formula::False, false) => Dnf::t(),
        (Formula::Not(inner), s) => dnf_of(inner, !s),
        (Formula::And(a, b), true) => dnf_of(a, true).and(dnf_of(b, true)),
        (Formula::And(a, b), false) => dnf_of(a, false).or(dnf_of(b, false)),
        (Formula::Or(a, b), true) => dnf_of(a, true).or(dnf_of(b, true)),
        (Formula::Or(a, b), false) => dnf_of(a, false).and(dnf_of(b, false)),
        (Formula::Implies(a, b), true) => dnf_of(a, false).or(dnf_of(b, true)),
        (Formula::Implies(a, b), false) => dnf_of(a, true).and(dnf_of(b, false)),
        (atom, s) => Dnf {
            clauses: vec![vec![atom_lit(atom, s)]],
        },
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::False => write!(f, "false"),
            Formula::True => write!(f, "true"),
            Formula::Prop(p) => write!(f, "{p}"),
            Formula::Not(inner) => write!(f, "!{}", paren(inner)),
            Formula::And(a, b) => write!(f, "{} && {}", paren(a), paren(b)),
            Formula::Or(a, b) => write!(f, "{} || {}", paren(a), paren(b)),
            Formula::Implies(a, b) => write!(f, "{} -> {}", paren(a), paren(b)),
            Formula::At(j, inner) => write!(f, "{j}@{}", paren(inner)),
            Formula::Live(n) => write!(f, "S({n})"),
            Formula::InSubset { elem, subset } => write!(f, "{elem} in {subset}"),
            Formula::For { var, set, conj, body } => {
                let op = if *conj { "&&" } else { "||" };
                write!(f, "for {var} in {set} {op} {body}")
            }
        }
    }
}

fn paren(f: &Formula) -> String {
    match f {
        Formula::False | Formula::True | Formula::Prop(_) | Formula::Live(_) => f.to_string(),
        _ => format!("({f})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_remote(_: &JRef, _: &str) -> Ternary {
        Ternary::Unknown
    }
    fn no_subset(_: &str, _: &str) -> Ternary {
        Ternary::Unknown
    }

    #[test]
    fn ternary_tables() {
        use Ternary::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn eval_basic() {
        let f = Formula::prop("Work").and(Formula::prop("Retried").not());
        let env = |k: &str| match k {
            "Work" => Some(true),
            "Retried" => Some(false),
            _ => None,
        };
        assert_eq!(f.eval(&env, &no_remote, &no_subset), Ternary::True);
        let env2 = |k: &str| match k {
            "Work" => Some(true),
            _ => None,
        };
        assert_eq!(f.eval(&env2, &no_remote, &no_subset), Ternary::Unknown);
    }

    #[test]
    fn eval_implies() {
        let f = Formula::prop("A").implies(Formula::prop("B"));
        let env = |k: &str| Some(k == "B");
        assert_eq!(f.eval(&env, &no_remote, &no_subset), Ternary::True);
        let env2 = |k: &str| Some(k == "A");
        assert_eq!(f.eval(&env2, &no_remote, &no_subset), Ternary::False);
    }

    #[test]
    fn at_pushes_through_connectives() {
        // b@ (Active && !Running) resolves both atoms remotely.
        let f = Formula::at(
            JRef::instance("b"),
            Formula::prop("Active").and(Formula::prop("Running").not()),
        );
        let remote = |_: &JRef, k: &str| match k {
            "Active" => Ternary::True,
            "Running" => Ternary::False,
            _ => Ternary::Unknown,
        };
        assert_eq!(f.eval(&|_| None, &remote, &no_subset), Ternary::True);
    }

    #[test]
    fn local_props_excludes_remote() {
        let f = Formula::prop("Work")
            .and(Formula::at(JRef::instance("g"), Formula::prop("Remote")));
        let props = f.local_props();
        assert_eq!(props.len(), 1);
        assert_eq!(props[0], PropRef::plain("Work"));
        assert_eq!(f.all_props().len(), 2);
    }

    #[test]
    fn dnf_simple() {
        // A && (B || !C)  =>  {A,B} | {A,!C}
        let f = Formula::prop("A").and(Formula::prop("B").or(Formula::prop("C").not()));
        let d = f.dnf();
        assert_eq!(d.clauses.len(), 2);
        assert!(d.clauses.contains(&vec![
            DnfLit::Prop("A".into(), true),
            DnfLit::Prop("B".into(), true)
        ]));
        assert!(d.clauses.contains(&vec![
            DnfLit::Prop("A".into(), true),
            DnfLit::Prop("C".into(), false)
        ]));
    }

    #[test]
    fn dnf_eliminates_contradictions() {
        // A && !A => false
        let f = Formula::prop("A").and(Formula::prop("A").not());
        assert_eq!(f.dnf(), Dnf::f());
    }

    #[test]
    fn dnf_implication() {
        // A -> B  ==  !A || B
        let f = Formula::prop("A").implies(Formula::prop("B"));
        let d = f.dnf();
        assert_eq!(d.clauses.len(), 2);
        assert!(d.clauses.contains(&vec![DnfLit::Prop("A".into(), false)]));
        assert!(d.clauses.contains(&vec![DnfLit::Prop("B".into(), true)]));
    }

    #[test]
    fn dnf_negation_de_morgan() {
        // !(A || B) == !A && !B — a single clause with both negative literals
        let f = Formula::prop("A").or(Formula::prop("B")).not();
        let d = f.dnf();
        assert_eq!(d.clauses.len(), 1);
        assert_eq!(
            d.clauses[0],
            vec![
                DnfLit::Prop("A".into(), false),
                DnfLit::Prop("B".into(), false)
            ]
        );
    }

    #[test]
    fn display_round_trips_shape() {
        let f = Formula::prop("Work").not().and(Formula::prop("Req"));
        assert_eq!(f.to_string(), "(!Work) && Req");
    }
}
