//! Static well-formedness checks for C-Saw programs.
//!
//! These implement the validity constraints stated throughout §6:
//!
//! * `case` expressions may not be empty nor contain only an `otherwise`
//!   branch, and `next` may not terminate the arm immediately before
//!   `otherwise`;
//! * host code `⌊·⌉` is not allowed inside transaction blocks `⟨|·|⟩`;
//! * junctions may not communicate with themselves (`write`/`assert`/
//!   `retract` targeting `me::junction`);
//! * sets may not contain sets (enforced structurally by
//!   [`SetElem`](crate::names::SetElem));
//! * names must be declared before use, and instance/type references must
//!   resolve;
//! * definitions must receive the right number of parameters.

use std::collections::HashSet;

use crate::decl::{Decl, ParamKind};
use crate::error::{CoreError, CoreResult};
use crate::expr::{Arg, CaseGuard, Expr, Terminator};
use crate::formula::Formula;
use crate::names::{JRef, NameRef, SetRef};
use crate::program::{CompiledProgram, JunctionDef, Program};

/// Validate a source-level program (before expansion).
pub fn validate(p: &Program) -> CoreResult<()> {
    check_structure(p)?;
    for ty in &p.types {
        for j in &ty.junctions {
            let loc = format!("{}::{}", ty.name, j.name);
            check_junction(p, j, &loc)?;
        }
    }
    for f in &p.functions {
        // Function bodies are checked in a permissive scope: their names
        // resolve against parameters plus whatever the caller provides.
        check_case_validity(&f.body, &format!("function {}", f.name))?;
        check_no_host_in_transaction(&f.body, false, &format!("function {}", f.name))?;
    }
    check_case_validity(&p.main.body, "main")?;
    check_start_arity(p, &p.main.body, "main")?;
    Ok(())
}

/// Validate a compiled (expanded) program: additionally require that no
/// template constructs remain.
pub fn validate_compiled(cp: &CompiledProgram) -> CoreResult<()> {
    for inst in &cp.instances {
        for j in &inst.junctions {
            let loc = format!("{}::{}", inst.name, j.name);
            let mut err = None;
            j.body.walk(&mut |e| {
                if err.is_some() {
                    return;
                }
                match e {
                    Expr::Call { func, .. } => {
                        err = Some(CoreError::Structure(format!(
                            "unexpanded call to `{func}` in {loc}"
                        )));
                    }
                    Expr::For { .. } => {
                        err = Some(CoreError::Structure(format!(
                            "unexpanded `for` in {loc}"
                        )));
                    }
                    _ => {}
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            check_case_validity(&j.body, &loc)?;
            check_no_host_in_transaction(&j.body, false, &loc)?;
            check_no_self_comm(&j.body, &loc)?;
        }
    }
    Ok(())
}

fn check_structure(p: &Program) -> CoreResult<()> {
    let mut type_names = HashSet::new();
    for ty in &p.types {
        if !type_names.insert(&ty.name) {
            return Err(CoreError::Structure(format!("duplicate type `{}`", ty.name)));
        }
        let mut jnames = HashSet::new();
        for j in &ty.junctions {
            if !jnames.insert(&j.name) {
                return Err(CoreError::Structure(format!(
                    "duplicate junction `{}::{}`",
                    ty.name, j.name
                )));
            }
            let guards = j.decls.iter().filter(|d| matches!(d, Decl::Guard(_))).count();
            if guards > 1 {
                return Err(CoreError::Structure(format!(
                    "junction `{}::{}` declares {} guards (at most one allowed)",
                    ty.name, j.name, guards
                )));
            }
        }
        if ty.junctions.is_empty() {
            return Err(CoreError::Structure(format!(
                "type `{}` has no junctions",
                ty.name
            )));
        }
    }
    let mut inames = HashSet::new();
    for (i, t) in &p.instances {
        if !inames.insert(i) {
            return Err(CoreError::Structure(format!("duplicate instance `{i}`")));
        }
        if !type_names.contains(t) {
            return Err(CoreError::Structure(format!(
                "instance `{i}` has unknown type `{t}`"
            )));
        }
    }
    let mut fnames = HashSet::new();
    for f in &p.functions {
        if !fnames.insert(&f.name) {
            return Err(CoreError::Structure(format!("duplicate function `{}`", f.name)));
        }
    }
    Ok(())
}

/// Names in scope while checking a junction body.
struct Scope {
    props: HashSet<String>,
    data: HashSet<String>,
    sets: HashSet<String>,
    idxs: HashSet<String>,
    params: HashSet<String>,
    bound: Vec<String>,
}

impl Scope {
    fn knows_name(&self, n: &str) -> bool {
        self.props.contains(n)
            || self.data.contains(n)
            || self.sets.contains(n)
            || self.idxs.contains(n)
            || self.params.contains(n)
            || self.bound.iter().any(|b| b == n)
    }
}

fn scope_of(j: &JunctionDef) -> Scope {
    let mut s = Scope {
        props: HashSet::new(),
        data: HashSet::new(),
        sets: HashSet::new(),
        idxs: HashSet::new(),
        params: HashSet::new(),
        bound: Vec::new(),
    };
    for p in &j.params {
        s.params.insert(p.name.clone());
    }
    for d in &j.decls {
        match d {
            Decl::Prop { prop, .. } => {
                if let Some(n) = prop.name.as_lit() {
                    s.props.insert(n.to_string());
                }
            }
            Decl::Data { name } => {
                s.data.insert(name.clone());
            }
            Decl::Set { name, .. } => {
                s.sets.insert(name.clone());
            }
            Decl::Subset { name, .. } => {
                s.sets.insert(name.clone());
            }
            Decl::Idx { name, .. } => {
                s.idxs.insert(name.clone());
            }
            Decl::ForProps { prop, .. } => {
                if let Some(n) = prop.name.as_lit() {
                    s.props.insert(n.to_string());
                }
            }
            Decl::Guard(_) => {}
        }
    }
    s
}

fn check_junction(p: &Program, j: &JunctionDef, loc: &str) -> CoreResult<()> {
    let mut scope = scope_of(j);
    check_case_validity(&j.body, loc)?;
    check_no_host_in_transaction(&j.body, false, loc)?;
    check_no_self_comm(&j.body, loc)?;
    check_names(p, &j.body, &mut scope, loc)?;
    check_start_arity(p, &j.body, loc)?;
    if let Some(g) = j.guard() {
        check_formula_names(g, &scope, loc)?;
    }
    Ok(())
}

fn check_case_validity(e: &Expr, loc: &str) -> CoreResult<()> {
    let mut err: Option<CoreError> = None;
    e.walk(&mut |x| {
        if err.is_some() {
            return;
        }
        if let Expr::Case { arms, .. } = x {
            // "they cannot be empty or only contain an 'otherwise' branch"
            if arms.is_empty() {
                err = Some(CoreError::InvalidCase(format!(
                    "{loc}: case with no guarded arms"
                )));
                return;
            }
            // "nor can 'next' be used immediately before 'otherwise'"
            if let Some(last) = arms.last() {
                if last.terminator == Terminator::Next {
                    err = Some(CoreError::InvalidCase(format!(
                        "{loc}: `next` terminates the arm immediately before `otherwise`"
                    )));
                }
            }
        }
    });
    err.map_or(Ok(()), Err)
}

fn check_no_host_in_transaction(e: &Expr, in_txn: bool, loc: &str) -> CoreResult<()> {
    match e {
        Expr::Host { name, .. } if in_txn => Err(CoreError::HostInTransaction(format!(
            "{loc}: ⌊{name}⌉ inside ⟨|·|⟩"
        ))),
        Expr::Transaction(inner) => check_no_host_in_transaction(inner, true, loc),
        Expr::Scope(inner) | Expr::LoopScope(inner) | Expr::Rep { body: inner, .. } => {
            check_no_host_in_transaction(inner, in_txn, loc)
        }
        Expr::For { body, .. } => check_no_host_in_transaction(body, in_txn, loc),
        Expr::Seq(es) | Expr::Par(es) => {
            for x in es {
                check_no_host_in_transaction(x, in_txn, loc)?;
            }
            Ok(())
        }
        Expr::Otherwise { body, handler, .. } => {
            check_no_host_in_transaction(body, in_txn, loc)?;
            check_no_host_in_transaction(handler, in_txn, loc)
        }
        Expr::Case { arms, otherwise } => {
            for a in arms {
                check_no_host_in_transaction(&a.body, in_txn, loc)?;
            }
            check_no_host_in_transaction(otherwise, in_txn, loc)
        }
        Expr::If { then, els, .. } => {
            check_no_host_in_transaction(then, in_txn, loc)?;
            if let Some(x) = els {
                check_no_host_in_transaction(x, in_txn, loc)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn check_no_self_comm(e: &Expr, loc: &str) -> CoreResult<()> {
    let mut err = None;
    e.walk(&mut |x| {
        if err.is_some() {
            return;
        }
        let bad = match x {
            Expr::Write { to, .. } => matches!(to, JRef::MyJunction),
            Expr::Assert { at: Some(j), .. } | Expr::Retract { at: Some(j), .. } => {
                matches!(j, JRef::MyJunction)
            }
            _ => false,
        };
        if bad {
            err = Some(CoreError::SelfCommunication(format!("{loc}: {x:?}")));
        }
    });
    err.map_or(Ok(()), Err)
}

fn check_formula_names(f: &Formula, scope: &Scope, loc: &str) -> CoreResult<()> {
    check_formula_names_bound(f, scope, loc, &mut Vec::new())
}

fn check_formula_names_bound(
    f: &Formula,
    scope: &Scope,
    loc: &str,
    bound: &mut Vec<String>,
) -> CoreResult<()> {
    match f {
        Formula::Prop(p) => {
            if let Some(n) = p.name.as_lit() {
                if !scope.props.contains(n) && !scope.params.contains(n) {
                    return Err(CoreError::Scope {
                        context: loc.to_string(),
                        name: n.to_string(),
                        detail: "proposition not declared".into(),
                    });
                }
            }
            if let Some(ix) = &p.index {
                if let Some(v) = ix.as_var() {
                    if !scope.knows_name(v) && !bound.iter().any(|b| b == v) {
                        return Err(CoreError::Scope {
                            context: loc.to_string(),
                            name: v.to_string(),
                            detail: "index variable not in scope".into(),
                        });
                    }
                }
            }
            Ok(())
        }
        Formula::Not(a) => check_formula_names_bound(a, scope, loc, bound),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            check_formula_names_bound(a, scope, loc, bound)?;
            check_formula_names_bound(b, scope, loc, bound)
        }
        Formula::For { var, body, .. } => {
            bound.push(var.clone());
            let r = check_formula_names_bound(body, scope, loc, bound);
            bound.pop();
            r
        }
        // Remote atoms (`γ@F`, `S(ι)`) and membership tests resolve at
        // run time against other instances' state.
        Formula::At(_, _)
        | Formula::Live(_)
        | Formula::InSubset { .. }
        | Formula::False
        | Formula::True => Ok(()),
    }
}

fn check_data_ref(n: &NameRef, scope: &Scope, loc: &str, what: &str) -> CoreResult<()> {
    match n {
        NameRef::Lit(s) => {
            if !scope.data.contains(s) && !scope.params.contains(s) {
                return Err(CoreError::Scope {
                    context: loc.to_string(),
                    name: s.clone(),
                    detail: format!("{what}: data not declared"),
                });
            }
        }
        NameRef::Var(v) => {
            if !scope.knows_name(v) {
                return Err(CoreError::Scope {
                    context: loc.to_string(),
                    name: v.clone(),
                    detail: format!("{what}: variable not in scope"),
                });
            }
        }
    }
    Ok(())
}

fn check_set_ref(s: &SetRef, scope: &Scope, loc: &str) -> CoreResult<()> {
    if let SetRef::Named(n) = s {
        if !scope.sets.contains(n.raw())
            && !scope.params.contains(n.raw())
            && !scope.bound.iter().any(|b| b == n.raw())
        {
            return Err(CoreError::Scope {
                context: loc.to_string(),
                name: n.raw().to_string(),
                detail: "set not declared".into(),
            });
        }
    }
    Ok(())
}

fn check_names(p: &Program, e: &Expr, scope: &mut Scope, loc: &str) -> CoreResult<()> {
    match e {
        Expr::Write { data, .. } => check_data_ref(data, scope, loc, "write"),
        Expr::Save { data } => check_data_ref(data, scope, loc, "save"),
        Expr::Restore { data } => check_data_ref(data, scope, loc, "restore"),
        Expr::Wait { data, formula } => {
            for d in data {
                check_data_ref(d, scope, loc, "wait")?;
            }
            check_formula_names(formula, scope, loc)
        }
        Expr::Assert { prop, .. } | Expr::Retract { prop, .. } => {
            check_formula_names(&Formula::Prop(prop.clone()), scope, loc)
        }
        Expr::Verify(f) | Expr::If { cond: f, .. } => {
            check_formula_names(f, scope, loc)?;
            if let Expr::If { then, els, .. } = e {
                check_names(p, then, scope, loc)?;
                if let Some(x) = els {
                    check_names(p, x, scope, loc)?;
                }
            }
            Ok(())
        }
        Expr::Seq(es) | Expr::Par(es) => {
            for x in es {
                check_names(p, x, scope, loc)?;
            }
            Ok(())
        }
        Expr::Scope(inner)
        | Expr::Transaction(inner)
        | Expr::LoopScope(inner)
        | Expr::Rep { body: inner, .. } => check_names(p, inner, scope, loc),
        Expr::Otherwise { body, timeout, handler } => {
            if let Some(t) = timeout {
                if let Some(v) = t.as_var() {
                    if !scope.knows_name(v) {
                        return Err(CoreError::Scope {
                            context: loc.to_string(),
                            name: v.to_string(),
                            detail: "timeout parameter not in scope".into(),
                        });
                    }
                }
            }
            check_names(p, body, scope, loc)?;
            check_names(p, handler, scope, loc)
        }
        Expr::Case { arms, otherwise } => {
            for a in arms {
                match &a.guard {
                    CaseGuard::Plain(f) => check_formula_names(f, scope, loc)?,
                    CaseGuard::For { var, set, formula } => {
                        check_set_ref(set, scope, loc)?;
                        scope.bound.push(var.clone());
                        check_formula_names(formula, scope, loc)?;
                        check_names(p, &a.body, scope, loc)?;
                        scope.bound.pop();
                        continue;
                    }
                }
                check_names(p, &a.body, scope, loc)?;
            }
            check_names(p, otherwise, scope, loc)
        }
        Expr::For { var, set, body, .. } => {
            check_set_ref(set, scope, loc)?;
            scope.bound.push(var.clone());
            let r = check_names(p, body, scope, loc);
            scope.bound.pop();
            r
        }
        Expr::Call { func, args } => {
            let f = p.function(func).ok_or_else(|| CoreError::BadCall {
                func: func.clone(),
                detail: "function not defined".into(),
            })?;
            if f.params.len() != args.len() {
                return Err(CoreError::BadCall {
                    func: func.clone(),
                    detail: format!(
                        "arity mismatch: expected {}, got {}",
                        f.params.len(),
                        args.len()
                    ),
                });
            }
            Ok(())
        }
        Expr::Start { instance, .. } | Expr::Stop(instance) => {
            if let Some(n) = instance.as_lit() {
                if p.type_of(n).is_none() {
                    return Err(CoreError::Structure(format!(
                        "{loc}: start/stop of unknown instance `{n}`"
                    )));
                }
            }
            Ok(())
        }
        Expr::Keep { keys } => {
            for k in keys {
                if let NameRef::Lit(s) = k {
                    if !scope.props.contains(s) && !scope.data.contains(s) {
                        return Err(CoreError::Scope {
                            context: loc.to_string(),
                            name: s.clone(),
                            detail: "keep: key not declared".into(),
                        });
                    }
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn check_start_arity(p: &Program, e: &Expr, loc: &str) -> CoreResult<()> {
    let mut err = None;
    e.walk(&mut |x| {
        if err.is_some() {
            return;
        }
        let Expr::Start { instance, junction_args } = x else {
            return;
        };
        let Some(iname) = instance.as_lit() else { return };
        let Some(ty) = p.type_of(iname) else { return };
        for (jname, args) in junction_args {
            let jdef = match jname {
                Some(j) => match ty.junction(j) {
                    Some(jd) => jd,
                    None => {
                        err = Some(CoreError::Structure(format!(
                            "{loc}: start {iname}: unknown junction `{j}`"
                        )));
                        return;
                    }
                },
                None => {
                    if ty.junctions.len() != 1 {
                        err = Some(CoreError::Structure(format!(
                            "{loc}: start {iname}: junction name required \
                             (type has {} junctions)",
                            ty.junctions.len()
                        )));
                        return;
                    }
                    &ty.junctions[0]
                }
            };
            if jdef.params.len() != args.len() {
                err = Some(CoreError::BadCall {
                    func: format!("start {iname} {}", jdef.name),
                    detail: format!(
                        "arity mismatch: expected {}, got {}",
                        jdef.params.len(),
                        args.len()
                    ),
                });
                return;
            }
            // Kind check the statically-checkable arguments.
            for (param, arg) in jdef.params.iter().zip(args.iter()) {
                let ok = match (param.kind, arg) {
                    // Sets may not contain sets — structurally
                    // guaranteed by SetElem; any literal is well-kinded.
                    (ParamKind::Set, Arg::SetLit(_)) => true,
                    (ParamKind::Timeout, Arg::Value(v)) => v.as_duration().is_some(),
                    (ParamKind::Junction, Arg::Junction(_)) => true,
                    (_, Arg::Name(_)) => true,
                    (_, Arg::ScaledTimeout { .. }) => param.kind == ParamKind::Timeout,
                    (ParamKind::Prop, Arg::Prop(_)) => true,
                    (ParamKind::Host, Arg::Value(_)) => true,
                    _ => false,
                };
                if !ok {
                    err = Some(CoreError::BadCall {
                        func: format!("start {iname} {}", jdef.name),
                        detail: format!(
                            "argument for `{}` has wrong kind: {:?} vs {:?}",
                            param.name, param.kind, arg
                        ),
                    });
                    return;
                }
            }
        }
    });
    err.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::program::InstanceType;

    fn prog(decls: Vec<Decl>, body: Expr) -> Program {
        ProgramBuilder::new()
            .ty(InstanceType::new(
                "T",
                vec![crate::program::JunctionDef::new("j", vec![], decls, body)],
            ))
            .instance("a", "T")
            .main(vec![], start("a", vec![]))
            .build()
    }

    #[test]
    fn fig3_validates() {
        validate(&fig3_program()).unwrap();
    }

    #[test]
    fn empty_case_rejected() {
        let p = prog(vec![], case(vec![], skip()));
        assert!(matches!(validate(&p), Err(CoreError::InvalidCase(_))));
    }

    #[test]
    fn next_before_otherwise_rejected() {
        let p = prog(
            vec![Decl::prop_false("A")],
            case(
                vec![arm(Formula::prop("A"), skip(), Terminator::Next)],
                skip(),
            ),
        );
        assert!(matches!(validate(&p), Err(CoreError::InvalidCase(_))));
    }

    #[test]
    fn host_in_transaction_rejected() {
        let p = prog(vec![], transaction(host("H")));
        assert!(matches!(validate(&p), Err(CoreError::HostInTransaction(_))));
    }

    #[test]
    fn host_in_plain_scope_allowed() {
        let p = prog(vec![], scope(host("H")));
        validate(&p).unwrap();
    }

    #[test]
    fn self_write_rejected() {
        let p = prog(
            vec![Decl::data("n")],
            Expr::Write {
                data: NameRef::lit("n"),
                to: JRef::MyJunction,
            },
        );
        assert!(matches!(validate(&p), Err(CoreError::SelfCommunication(_))));
    }

    #[test]
    fn self_local_assert_allowed() {
        // `assert [] Prop` is legal; `assert [me::junction] Prop` is not.
        let p = prog(vec![Decl::prop_false("P")], assert_local("P"));
        validate(&p).unwrap();
        let p2 = prog(
            vec![Decl::prop_false("P")],
            Expr::Assert {
                at: Some(JRef::MyJunction),
                prop: crate::names::PropRef::plain("P"),
            },
        );
        assert!(matches!(validate(&p2), Err(CoreError::SelfCommunication(_))));
    }

    #[test]
    fn undeclared_prop_rejected() {
        let p = prog(vec![], assert_local("Ghost"));
        assert!(matches!(validate(&p), Err(CoreError::Scope { .. })));
    }

    #[test]
    fn undeclared_data_rejected() {
        let p = prog(vec![], save("ghost"));
        assert!(matches!(validate(&p), Err(CoreError::Scope { .. })));
    }

    #[test]
    fn duplicate_instance_rejected() {
        let p = ProgramBuilder::new()
            .ty(InstanceType::new(
                "T",
                vec![crate::program::JunctionDef::new("j", vec![], vec![], skip())],
            ))
            .instance("a", "T")
            .instance("a", "T")
            .main(vec![], skip())
            .build();
        assert!(matches!(validate(&p), Err(CoreError::Structure(_))));
    }

    #[test]
    fn unknown_type_rejected() {
        let p = ProgramBuilder::new()
            .ty(InstanceType::new(
                "T",
                vec![crate::program::JunctionDef::new("j", vec![], vec![], skip())],
            ))
            .instance("a", "Nope")
            .main(vec![], skip())
            .build();
        assert!(matches!(validate(&p), Err(CoreError::Structure(_))));
    }

    #[test]
    fn two_guards_rejected() {
        let p = prog(
            vec![
                Decl::prop_false("A"),
                Decl::guard(Formula::prop("A")),
                Decl::guard(Formula::prop("A").not()),
            ],
            skip(),
        );
        assert!(matches!(validate(&p), Err(CoreError::Structure(_))));
    }

    #[test]
    fn start_arity_checked() {
        let p = ProgramBuilder::new()
            .ty(InstanceType::new(
                "T",
                vec![crate::program::JunctionDef::new(
                    "j",
                    vec![p_timeout("t")],
                    vec![],
                    skip(),
                )],
            ))
            .instance("a", "T")
            .main(vec![], start("a", vec![]))
            .build();
        assert!(matches!(validate(&p), Err(CoreError::BadCall { .. })));
    }

    #[test]
    fn start_kind_checked() {
        let p = ProgramBuilder::new()
            .ty(InstanceType::new(
                "T",
                vec![crate::program::JunctionDef::new(
                    "j",
                    vec![p_timeout("t")],
                    vec![],
                    skip(),
                )],
            ))
            .instance("a", "T")
            .main(
                vec![],
                start("a", vec![Arg::Value(crate::value::Value::Int(3))]),
            )
            .build();
        assert!(matches!(validate(&p), Err(CoreError::BadCall { .. })));
    }

    #[test]
    fn compiled_program_with_residual_for_rejected() {
        use crate::program::{CompiledInstance, CompiledProgram, MainDef};
        let body = for_each("x", SetRef::Lit(vec![]), crate::expr::ForOp::Seq, skip());
        let cp = CompiledProgram {
            program: Program {
                types: vec![],
                instances: vec![],
                functions: vec![],
                main: MainDef { params: vec![], body: skip() },
            },
            instances: vec![CompiledInstance {
                name: "a".into(),
                type_name: "T".into(),
                junctions: vec![crate::program::JunctionDef::new("j", vec![], vec![], body)],
            }],
            retry_limit: 3,
        };
        assert!(matches!(validate_compiled(&cp), Err(CoreError::Structure(_))));
    }
}
