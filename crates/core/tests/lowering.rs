//! The lowered form against the reference: a formula lowered by
//! `csaw_core::lower` and run as a postfix program must agree with
//! `Formula::eval` on the same table, remote state, liveness and
//! bindings — `Unknown` for undeclared keys and unbound variables
//! included — plus the compile-time facts the runtime relies on.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use csaw_core::builder::*;
use csaw_core::decl::{Decl, Param, ParamKind};
use csaw_core::expr::{Expr, Terminator};
use csaw_core::formula::{Formula, Ternary};
use csaw_core::intern::{KeyId, Sym};
use csaw_core::lower::{lower, Bindings, Keys, LoweredJunction, Name, Prog, Remote, Stmt, Target};
use csaw_core::names::{JRef, NameRef, PropRef};
use csaw_core::program::JunctionDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VARS: [&str; 3] = ["i", "j", "k"];
const VALUES: [&str; 3] = ["x", "y", "z"];
const PROPS: [&str; 3] = ["A", "B", "C"];

/// One random world: a table, remote tables, liveness and bindings, all
/// derived from `seed` so both evaluators read the same one.
struct World {
    seed: u64,
    bound: HashMap<String, String>,
    /// Elements of subset `S`, or `None` while it is `undef`.
    subset: Option<Vec<&'static str>>,
}

impl World {
    fn draw(&self, what: &str, a: &str, b: &str) -> u64 {
        let mut h = DefaultHasher::new();
        (self.seed, what, a, b).hash(&mut h);
        h.finish()
    }

    /// A local proposition: undeclared one time in three.
    fn local(&self, key: &str) -> Option<bool> {
        match self.draw("local", key, "") % 3 {
            0 => None,
            n => Some(n == 1),
        }
    }

    /// `label@key` at a remote junction.
    fn remote(&self, label: &str, key: &str) -> Ternary {
        [Ternary::True, Ternary::False, Ternary::Unknown]
            [(self.draw("remote", label, key) % 3) as usize]
    }

    fn live(&self, instance: &str) -> bool {
        self.draw("live", instance, "").is_multiple_of(2)
    }

    /// Membership of `elem` in `subset`; only `S` is declared.
    fn in_subset(&self, subset: &str, elem: &str) -> Option<bool> {
        if subset != "S" {
            return None;
        }
        self.subset.as_ref().map(|s| s.contains(&elem))
    }
}

fn name(rng: &mut StdRng, lits: &[&str]) -> NameRef {
    if rng.gen_bool(0.4) {
        NameRef::var(VARS[rng.gen_range(0..VARS.len())])
    } else {
        NameRef::lit(lits[rng.gen_range(0..lits.len())])
    }
}

fn prop(rng: &mut StdRng) -> PropRef {
    let base = PROPS[rng.gen_range(0..PROPS.len())];
    match rng.gen_range(0..4usize) {
        0 => PropRef::plain(base),
        1 => PropRef::indexed(base, NameRef::lit(VALUES[rng.gen_range(0..VALUES.len())])),
        2 => PropRef::indexed(base, NameRef::var(VARS[rng.gen_range(0..VARS.len())])),
        _ => PropRef {
            name: name(rng, &PROPS),
            index: None,
        },
    }
}

fn jref(rng: &mut StdRng) -> JRef {
    match rng.gen_range(0..4usize) {
        0 => JRef::instance(["p", "q"][rng.gen_range(0..2usize)]),
        1 => JRef::var(VARS[rng.gen_range(0..VARS.len())]),
        2 => JRef::qualified("p", "junction"),
        _ => JRef::Qualified {
            instance: NameRef::var("i"),
            junction: "junction".into(),
        },
    }
}

/// A formula over propositions only, as `γ@F` distributes `@` onto them.
fn remote_body(rng: &mut StdRng, depth: u32) -> Formula {
    if depth == 0 || rng.gen_bool(0.4) {
        return Formula::Prop(prop(rng));
    }
    match rng.gen_range(0..4usize) {
        0 => remote_body(rng, depth - 1).not(),
        1 => remote_body(rng, depth - 1).and(remote_body(rng, depth - 1)),
        2 => remote_body(rng, depth - 1).or(remote_body(rng, depth - 1)),
        _ => remote_body(rng, depth - 1).implies(remote_body(rng, depth - 1)),
    }
}

fn formula(rng: &mut StdRng, depth: u32) -> Formula {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..6usize) {
            0 => [Formula::True, Formula::False][rng.gen_range(0..2usize)].clone(),
            1 | 2 => Formula::Prop(prop(rng)),
            3 => Formula::at(jref(rng), remote_body(rng, 2)),
            4 => Formula::Live(name(rng, &["p", "q", "p::junction"])),
            _ => Formula::InSubset {
                elem: name(rng, &VALUES),
                subset: NameRef::lit(["S", "T"][rng.gen_range(0..2usize)]),
            },
        };
    }
    match rng.gen_range(0..4usize) {
        0 => formula(rng, depth - 1).not(),
        1 => formula(rng, depth - 1).and(formula(rng, depth - 1)),
        2 => formula(rng, depth - 1).or(formula(rng, depth - 1)),
        _ => formula(rng, depth - 1).implies(formula(rng, depth - 1)),
    }
}

/// Replace every bound variable by its value, as `start` would.
fn subst(f: &Formula, bound: &HashMap<String, String>) -> Formula {
    let n = |r: &NameRef| match r {
        NameRef::Var(v) => bound.get(v).map_or_else(|| r.clone(), NameRef::lit),
        lit => lit.clone(),
    };
    let p = |pr: &PropRef| PropRef {
        name: n(&pr.name),
        index: pr.index.as_ref().map(n),
    };
    let j = |jr: &JRef| match jr {
        JRef::Bare(b) => JRef::Bare(n(b)),
        JRef::Qualified { instance, junction } => JRef::Qualified {
            instance: n(instance),
            junction: junction.clone(),
        },
        other => other.clone(),
    };
    let b = |x: &Formula| Box::new(subst(x, bound));
    match f {
        Formula::Prop(pr) => Formula::Prop(p(pr)),
        Formula::Not(a) => Formula::Not(b(a)),
        Formula::And(x, y) => Formula::And(b(x), b(y)),
        Formula::Or(x, y) => Formula::Or(b(x), b(y)),
        Formula::Implies(x, y) => Formula::Implies(b(x), b(y)),
        Formula::At(jr, inner) => Formula::At(j(jr), b(inner)),
        Formula::Live(l) => Formula::Live(n(l)),
        Formula::InSubset { elem, subset } => Formula::InSubset {
            elem: n(elem),
            subset: subset.clone(),
        },
        other => other.clone(),
    }
}

fn reference(f: &Formula, w: &World) -> Ternary {
    let label = |j: &JRef| match j {
        JRef::Bare(NameRef::Lit(s)) => Some(s.clone()),
        JRef::Qualified {
            instance: NameRef::Lit(i),
            junction,
        } => Some(format!("{i}::{junction}")),
        _ => None,
    };
    subst(f, &w.bound).eval(
        &|k| w.local(k),
        &|j, key| match (label(j), key) {
            (Some(l), "\u{0}live\u{0}") => {
                Ternary::from_bool(w.live(l.split("::").next().unwrap_or(&l)))
            }
            (Some(l), key) => w.remote(&l, key),
            (None, _) => Ternary::Unknown,
        },
        // An element still a variable was unbound.
        &|elem, subset| {
            if VARS.contains(&elem) {
                Ternary::Unknown
            } else {
                w.in_subset(subset, elem)
                    .map_or(Ternary::Unknown, Ternary::from_bool)
            }
        },
    )
}

/// Phase 1 as the runtime runs it, over the test's world.
fn resolve(atom: &Remote, b: &Bindings, w: &World) -> Ternary {
    match atom {
        Remote::Prop { at, key } => {
            let label = match at {
                Target::Fixed(id) => Some(id.to_string()),
                Target::Instance(i) => Some(i.to_string()),
                Target::Bare(slot) => b.text(&Name::Var(*slot)).map(str::to_string),
                Target::Qualified { instance, junction } => b
                    .text(&Name::Var(*instance))
                    .map(|i| format!("{i}::{junction}")),
                Target::MyInstance => None,
            };
            match (label, b.text(key)) {
                (Some(l), Some(k)) => w.remote(&l, k),
                _ => Ternary::Unknown,
            }
        }
        Remote::Live(n) => match b.text(n) {
            Some(i) => Ternary::from_bool(w.live(i.split("::").next().unwrap_or(i))),
            None => Ternary::Unknown,
        },
    }
}

fn lowered_truth(lj: &LoweredJunction, prog: &Prog, w: &World) -> Ternary {
    let mut b = Bindings::new(lj);
    for (slot, var) in lj.vars.iter().enumerate() {
        b.set(lj, slot, w.bound.get(&var.name).map(String::as_str), true);
    }
    let remote: Vec<Ternary> = lj.remotes[prog.remotes()]
        .iter()
        .map(|a| resolve(a, &b, w))
        .collect();
    prog.eval(Some(&b), &remote, |k| w.local(&k), |s, e| w.in_subset(&s, e))
}

fn junction(decls: Vec<Decl>, body: Expr) -> JunctionDef {
    let params = VARS
        .iter()
        .map(|v| Param::new(*v, ParamKind::Host))
        .collect();
    JunctionDef::new("junction", params, decls, body)
}

#[test]
fn lowered_evaluation_matches_the_reference_across_48_seeds() {
    let mut unknown = 0;
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x10_4E12 + seed);
        for case in 0..200 {
            let f = formula(&mut rng, 4);
            let w = World {
                seed: seed * 1_000 + case,
                bound: VARS
                    .iter()
                    .filter_map(|v| {
                        let value = VALUES[rng.gen_range(0..VALUES.len())];
                        rng.gen_bool(0.7)
                            .then(|| (v.to_string(), value.to_string()))
                    })
                    .collect(),
                subset: rng.gen_bool(0.7).then(|| {
                    VALUES
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.5))
                        .collect()
                }),
            };
            let lj = lower("me", &junction(vec![Decl::guard(f.clone())], skip()));
            let prog = lj.guard.as_ref().expect("guard lowered");
            let want = reference(&f, &w);
            assert_eq!(
                lowered_truth(&lj, prog, &w),
                want,
                "seed {seed} case {case}: {f} under {:?}",
                w.bound
            );
            unknown += usize::from(want == Ternary::Unknown);
        }
    }
    // The property covers all three truth values, `Unknown` included.
    assert!(unknown > 500, "only {unknown} unknown cases");
}

#[test]
fn names_resolve_at_compile_time_where_they_can() {
    let jd = JunctionDef::new(
        "serve",
        vec![p_junction("f"), p_timeout("t")],
        vec![
            Decl::prop_false("Work"),
            Decl::prop_false("Backend[b1]"),
            Decl::data("n"),
            Decl::idx("tgt", csaw_core::names::SetRef::instances(["b1", "b2"])),
            Decl::guard(
                Formula::prop("Work").and(Formula::at(JRef::var("f"), Formula::prop("Up"))),
            ),
        ],
        seq([
            host_w("Choose", ["tgt"]),
            write_var("n", JRef::var("tgt")),
            assert_at_ix(JRef::var("tgt"), "Backend", NameRef::lit("b1")),
            otherwise(wait(["n"], Formula::prop("Work").not()), "t", skip()),
        ]),
    );
    let lj = lower("s1", &jd);
    assert_eq!(lj.sender, "s1::serve");
    assert!(lj.guard.as_ref().unwrap().has_remotes());
    let Stmt::Seq(body) = &lj.body else {
        panic!("a sequence")
    };
    let Stmt::Host { idx, .. } = &body[0] else {
        panic!("host first")
    };
    let tgt = idx[0];
    assert_eq!(lj.vars[tgt].name, "tgt");
    // `n` is declared, so the variable resolves to itself.
    assert!(
        matches!(&body[1], Stmt::Write { data: Name::Lit(n), to: Target::Bare(s) }
        if *n == "n" && *s == tgt)
    );
    assert!(
        matches!(&body[2], Stmt::Assert { key: Name::Lit(k), value: true, .. } if *k == "Backend[b1]")
    );
    let Stmt::Otherwise {
        body: wait,
        timeout: Some(t),
        ..
    } = &body[3]
    else {
        panic!("otherwise")
    };
    assert_eq!(lj.vars[*t].name, "t");
    let Stmt::Wait {
        keys: Keys::Fixed(keys),
        prog,
        ..
    } = &**wait
    else {
        panic!("wait")
    };
    assert_eq!(&keys[..], [KeyId::new("Work"), KeyId::new("n")]);
    assert!(!prog.has_remotes() && !prog.reads_bindings());

    // A cursor's texts were interned at lowering, as a key and as a
    // junction reference.
    let mut b = Bindings::new(&lj);
    b.set(&lj, tgt, Some("b2"), false);
    assert_eq!(b.text(&Name::Var(tgt)), Some("b2"));
    assert_eq!(b.bound(tgt), Some(lj.vars[tgt].elems[1]));
    let bound = lj.vars[tgt].elems[1];
    assert_eq!(
        (bound.key, bound.instance, bound.junction),
        (KeyId::new("b2"), Sym::new("b2"), None)
    );
}

#[test]
fn only_reconsidering_arms_take_the_fingerprint() {
    let body = case(
        vec![
            arm(Formula::prop("A"), skip(), Terminator::Next),
            arm(Formula::prop("B"), skip(), Terminator::Reconsider),
            arm(
                Formula::prop("C"),
                seq([skip(), Expr::Reconsider]),
                Terminator::Break,
            ),
        ],
        skip(),
    );
    let lj = lower("me", &junction(vec![], body));
    let Stmt::Case { arms, .. } = &lj.body else {
        panic!("a case")
    };
    let flags: Vec<bool> = arms.iter().map(|a| a.reconsiders).collect();
    assert_eq!(flags, [false, true, true]);
}

#[test]
fn keys_built_from_bindings_follow_them() {
    let f = Formula::prop_at("Ready", NameRef::var("i"));
    let lj = lower("me", &junction(vec![Decl::guard(f)], skip()));
    let prog = lj.guard.as_ref().unwrap();
    assert!(prog.reads_bindings());
    let mut b = Bindings::new(&lj);
    let table = |k: KeyId| (k == "Ready[y]").then_some(true);
    let eval = |b: &Bindings| prog.eval(Some(b), &[], table, |_, _| None);
    assert_eq!(eval(&b), Ternary::Unknown, "unbound");
    b.set(&lj, 0, Some("y"), true);
    assert_eq!(eval(&b), Ternary::True);
    b.set(&lj, 0, Some("x"), true);
    assert_eq!(eval(&b), Ternary::Unknown, "undeclared key");
    assert_eq!(lj.unbound(&Bindings::new(&lj), &Name::Key(0)), Some("i"));
}

#[test]
fn only_bodies_that_can_block_may_park() {
    let may_park = |body: Expr| lower("me", &junction(vec![], body)).may_park;
    let nested = |e: Expr| seq([host("H"), if_then_else(Formula::prop("A"), skip(), e)]);
    assert!(!may_park(seq([host("H"), assert_local("A"), skip()])));
    assert!(may_park(nested(wait(
        Vec::<String>::new(),
        Formula::prop("A")
    ))));
    assert!(may_park(nested(par([skip(), skip()]))));
    assert!(may_park(nested(rep(2, skip()))));
    assert!(may_park(nested(start("other", vec![]))));
    assert!(may_park(nested(stop("other"))));
}
