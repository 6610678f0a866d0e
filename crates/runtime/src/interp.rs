//! The C-Saw expression interpreter.
//!
//! Executes compiled junction bodies against the runtime: KV tables,
//! channels, liveness, deadlines. The semantics follow §6/§8 of the
//! paper; each arm of the evaluator cites the construct it
//! implements.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use csaw_core::expr::{CaseArm, CaseGuard, Expr, Terminator};
use csaw_core::formula::{Formula, Ternary};
use csaw_core::names::{JRef, NameRef, PropRef};
use csaw_core::value::Value;
use csaw_kv::{Table, Update};

use crate::app::HostCtx;
use crate::cell::{Cell, JunctionId};
use crate::error::{Failure, Flow, RtResult};
use crate::runtime::{InstanceState, JunctionRt, RuntimeInner};

/// One undo record for transactional rollback.
enum Undo {
    Prop(String, bool),
    Data(String, Value),
}

/// Execution context for one activation (or one parallel arm of one).
pub(crate) struct ExecCtx<'rt> {
    rt: &'rt RuntimeInner,
    inst: &'rt InstanceState,
    jrt: &'rt JunctionRt,
    /// Deadline stack from enclosing `otherwise[t]` constructs.
    deadlines: Vec<Instant>,
    /// Transaction undo-log stack. Rollback restores only the keys *this
    /// context* wrote, so parallel arms' transactions do not clobber each
    /// other (the whole-table snapshot the paper describes is only
    /// equivalent in the sequential case).
    txn_logs: Vec<Vec<Undo>>,
}

/// Evaluate a guard formula for the scheduler (no deadline context).
/// `Unknown` counts as not-ready.
pub(crate) fn guard_truth(
    rt: &RuntimeInner,
    inst: &InstanceState,
    jrt: &JunctionRt,
    f: &Formula,
) -> Ternary {
    let ctx = ExecCtx { rt, inst, jrt, deadlines: Vec::new(), txn_logs: Vec::new() };
    ctx.formula_truth(f).unwrap_or(Ternary::Unknown)
}

impl<'rt> ExecCtx<'rt> {
    pub(crate) fn new(
        rt: &'rt std::sync::Arc<RuntimeInner>,
        inst: &'rt std::sync::Arc<InstanceState>,
        jrt: &'rt std::sync::Arc<JunctionRt>,
    ) -> Self {
        ExecCtx { rt, inst, jrt, deadlines: Vec::new(), txn_logs: Vec::new() }
    }

    fn cell(&self) -> &Cell {
        &self.jrt.cell
    }

    fn me(&self) -> &JunctionId {
        &self.jrt.cell.id
    }

    // -----------------------------------------------------------------
    // Deadlines
    // -----------------------------------------------------------------

    fn deadline(&self) -> Option<Instant> {
        self.deadlines.iter().min().copied()
    }

    fn check_deadline(&self, what: &str) -> RtResult<()> {
        if let Some(d) = self.deadline() {
            if self.rt.clock().now() > d {
                return Err(Failure::Timeout { context: what.to_string() });
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Name resolution
    // -----------------------------------------------------------------

    /// Resolve a name reference to a string (target, prop name, element).
    fn resolve_str(&self, n: &NameRef) -> RtResult<String> {
        match n {
            NameRef::Lit(s) => Ok(s.clone()),
            NameRef::Var(v) => {
                if let Some(val) = self.cell().param(v) {
                    return Ok(match val {
                        Value::Target(t) => t,
                        Value::Str(s) => s,
                        other => other.to_string(),
                    });
                }
                {
                    let table = self.cell().table();
                    if let Some(e) = table.idx(v) {
                        return Ok(e.to_string());
                    }
                    // Template bodies reference enclosing-junction state
                    // by name; an unsubstituted variable that names a
                    // declared entry resolves to itself.
                    if table.has_data(v) || table.has_prop(v) {
                        return Ok(v.clone());
                    }
                }
                Err(Failure::Unresolved(format!(
                    "`{v}` in {} (not a parameter, idx, or declared name)",
                    self.me()
                )))
            }
        }
    }

    /// Resolve a timeout parameter.
    fn resolve_timeout(&self, n: &NameRef) -> RtResult<Duration> {
        match n {
            NameRef::Lit(s) | NameRef::Var(s) => self
                .cell()
                .param(s)
                .and_then(|v| v.as_duration())
                .ok_or_else(|| {
                    Failure::Unresolved(format!("timeout parameter `{s}` in {}", self.me()))
                }),
        }
    }

    /// Resolve a proposition reference to its table key.
    fn resolve_prop(&self, p: &PropRef) -> RtResult<String> {
        let name = self.resolve_str(&p.name)?;
        Ok(match &p.index {
            None => name,
            Some(ix) => format!("{name}[{}]", self.resolve_str(ix)?),
        })
    }

    /// Resolve a junction reference to a concrete junction id.
    fn resolve_jref(&self, j: &JRef) -> RtResult<JunctionId> {
        match j {
            JRef::Qualified { instance, junction } => Ok(JunctionId::new(
                self.resolve_str(instance)?,
                junction.clone(),
            )),
            JRef::Bare(n) => {
                let s = self.resolve_str(n)?;
                self.rt.resolve_target(&s)
            }
            JRef::MyJunction => Ok(self.me().clone()),
            JRef::MyInstance => Err(Failure::Unresolved(
                "me::instance is not a junction target".into(),
            )),
            JRef::Sibling(junc) => Ok(JunctionId::new(self.me().instance.clone(), junc.clone())),
        }
    }

    // -----------------------------------------------------------------
    // Formula evaluation (two-phase, to avoid cross-table lock cycles)
    // -----------------------------------------------------------------

    fn formula_truth(&self, f: &Formula) -> RtResult<Ternary> {
        // Phase 1: resolve remote atoms without holding our table lock.
        let cache = self.remote_cache(f)?;
        // Phase 2: evaluate locally.
        let table = self.cell().table();
        Ok(self.eval_cached(f, &table, &cache))
    }

    /// Resolve every `γ@P` / `S(ι)` atom in `f` ahead of time.
    fn remote_cache(&self, f: &Formula) -> RtResult<HashMap<String, Ternary>> {
        let mut cache = HashMap::new();
        self.fill_remote_cache(f, &mut cache)?;
        Ok(cache)
    }

    fn fill_remote_cache(
        &self,
        f: &Formula,
        cache: &mut HashMap<String, Ternary>,
    ) -> RtResult<()> {
        match f {
            Formula::At(j, inner) => {
                for p in inner.all_props() {
                    let key = self.resolve_prop(&p)?;
                    let id = self.resolve_jref(j)?;
                    let v = self.rt.remote_prop(&id, &key);
                    cache.insert(format!("{j}@{key}"), v);
                }
                Ok(())
            }
            Formula::Live(n) => {
                let inst = self.resolve_str(n)?;
                let inst = inst.split("::").next().unwrap_or(&inst).to_string();
                cache.insert(
                    format!("S({n})"),
                    Ternary::from_bool(self.rt.is_live_from(&self.inst.name, &inst)),
                );
                Ok(())
            }
            Formula::Not(a) => self.fill_remote_cache(a, cache),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                self.fill_remote_cache(a, cache)?;
                self.fill_remote_cache(b, cache)
            }
            _ => Ok(()),
        }
    }

    /// Evaluate with remote atoms served from the cache and local atoms
    /// from the (already locked) table.
    fn eval_cached(
        &self,
        f: &Formula,
        table: &Table,
        cache: &HashMap<String, Ternary>,
    ) -> Ternary {
        match f {
            Formula::False => Ternary::False,
            Formula::True => Ternary::True,
            Formula::Prop(p) => match self.resolve_prop(p) {
                Ok(key) => table.prop(&key).map_or(Ternary::Unknown, Ternary::from_bool),
                Err(_) => Ternary::Unknown,
            },
            Formula::Not(a) => self.eval_cached(a, table, cache).not(),
            Formula::And(a, b) => self
                .eval_cached(a, table, cache)
                .and(self.eval_cached(b, table, cache)),
            Formula::Or(a, b) => self
                .eval_cached(a, table, cache)
                .or(self.eval_cached(b, table, cache)),
            Formula::Implies(a, b) => self
                .eval_cached(a, table, cache)
                .not()
                .or(self.eval_cached(b, table, cache)),
            Formula::At(j, inner) => self.eval_remote_cached(j, inner, cache),
            Formula::Live(n) => cache
                .get(&format!("S({n})"))
                .copied()
                .unwrap_or(Ternary::Unknown),
            Formula::InSubset { elem, subset } => {
                let Ok(e) = self.resolve_str(elem) else {
                    return Ternary::Unknown;
                };
                match table.subset_contains(subset.raw(), &e) {
                    Some(b) => Ternary::from_bool(b),
                    None => Ternary::Unknown,
                }
            }
            Formula::For { .. } => Ternary::Unknown,
        }
    }

    fn eval_remote_cached(
        &self,
        j: &JRef,
        inner: &Formula,
        cache: &HashMap<String, Ternary>,
    ) -> Ternary {
        match inner {
            Formula::Prop(p) => match self.resolve_prop(p) {
                Ok(key) => cache
                    .get(&format!("{j}@{key}"))
                    .copied()
                    .unwrap_or(Ternary::Unknown),
                Err(_) => Ternary::Unknown,
            },
            Formula::Not(a) => self.eval_remote_cached(j, a, cache).not(),
            Formula::And(a, b) => self
                .eval_remote_cached(j, a, cache)
                .and(self.eval_remote_cached(j, b, cache)),
            Formula::Or(a, b) => self
                .eval_remote_cached(j, a, cache)
                .or(self.eval_remote_cached(j, b, cache)),
            Formula::Implies(a, b) => self
                .eval_remote_cached(j, a, cache)
                .not()
                .or(self.eval_remote_cached(j, b, cache)),
            _ => Ternary::Unknown,
        }
    }

    // -----------------------------------------------------------------
    // The interpreter
    // -----------------------------------------------------------------

    /// Evaluate an expression.
    pub(crate) fn eval(&mut self, e: &Expr) -> RtResult<Flow> {
        self.check_deadline("expression")?;
        match e {
            // ⌊H⌉{V⃗} — host code under the write-set contract (§4).
            Expr::Host { name, writes } => self.eval_host(name, writes),

            // ⟨E⟩ — fate scope: failures propagate out of it unhandled.
            Expr::Scope(inner) => self.eval(inner),

            // ⟨|E|⟩ — transactional scope: rollback on failure (§6).
            Expr::Transaction(inner) => {
                self.txn_logs.push(Vec::new());
                let r = self.eval(inner);
                let log = self.txn_logs.pop().expect("txn log pushed above");
                match r {
                    Err(f) => {
                        // Undo this context's writes, newest first.
                        let mut table = self.cell().table();
                        for undo in log.into_iter().rev() {
                            match undo {
                                Undo::Prop(k, v) => {
                                    let _ = table.set_prop_local(&k, v);
                                }
                                Undo::Data(k, v) => {
                                    let _ = table.set_data_local(&k, v);
                                }
                            }
                        }
                        Err(f)
                    }
                    ok => {
                        // Nested transactions: surviving writes belong to
                        // the parent's scope.
                        if let Some(parent) = self.txn_logs.last_mut() {
                            parent.extend(log);
                        }
                        ok
                    }
                }
            }

            // `return` terminates the junction activation successfully.
            Expr::Return => Ok(Flow::Return),

            // write(n, γ): push named data (must be defined — §6).
            Expr::Write { data, to } => {
                let key = self.resolve_str(data)?;
                let target = self.resolve_jref(to)?;
                let value = self.cell().table().data_defined(&key)?.clone();
                self.rt.send(
                    &self.me().instance,
                    &target,
                    Update::data(key, value, self.me().qualified()),
                    self.deadline(),
                )?;
                Ok(Flow::Ok)
            }

            // wait [n⃗] F — block until F, admitting updates to F's
            // propositions and the listed data keys (§6).
            Expr::Wait { data, formula } => self.eval_wait(data, formula),

            // save(…, n): host state → table.
            Expr::Save { data } => {
                let key = self.resolve_str(data)?;
                let value = {
                    let mut app = self.inst.app.lock();
                    app.save(&key).map_err(|m| Failure::Host {
                        func: format!("save({key})"),
                        message: m,
                    })?
                };
                let old = self.cell().table().data(&key).cloned();
                if let (Some(log), Some(old)) = (self.txn_logs.last_mut(), old) {
                    log.push(Undo::Data(key.clone(), old));
                }
                self.cell().table().set_data_local(&key, value)?;
                Ok(Flow::Ok)
            }

            // restore(n, …): table → host state; undef is an error (§6).
            Expr::Restore { data } => {
                let key = self.resolve_str(data)?;
                let value = self.cell().table().data_defined(&key)?.clone();
                let mut app = self.inst.app.lock();
                app.restore(&key, &value).map_err(|m| Failure::Host {
                    func: format!("restore({key})"),
                    message: m,
                })?;
                Ok(Flow::Ok)
            }

            // E1; E2 — sequential composition.
            Expr::Seq(es) => {
                for x in es {
                    match self.eval(x)? {
                        Flow::Ok => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Ok)
            }

            // E1 + E2 — parallel composition on scoped threads.
            Expr::Par(es) => self.eval_par(es),

            // ∥n E — replicated parallel composition.
            Expr::Rep { n, body } => {
                let copies: Vec<Expr> = (0..*n).map(|_| (**body).clone()).collect();
                self.eval_par(&copies)
            }

            // E1 otherwise[t] E2 — timed failure handling (§6).
            Expr::Otherwise { body, timeout, handler } => {
                let pushed = match timeout {
                    Some(t) => {
                        let d = self.resolve_timeout(t)?;
                        self.deadlines.push(self.rt.clock().now() + d);
                        true
                    }
                    None => false,
                };
                let r = self.eval(body);
                if pushed {
                    self.deadlines.pop();
                }
                match r {
                    Err(f) => {
                        // Even when the handler recovers, the activation
                        // counts toward the scheduler's failure backoff:
                        // the underlying fault is still out there.
                        self.jrt
                            .handled_failures
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        // Observability: handled failures are recorded so
                        // operators can distinguish fail-over activity
                        // from silence.
                        self.rt.record_event(
                            &self.me().instance,
                            &self.me().junction,
                            "handled-failure",
                            f.to_string(),
                        );
                        self.eval(handler)
                    }
                    ok => ok,
                }
            }

            // stop ι — fails on a non-running instance (§6).
            Expr::Stop(n) => {
                let s = self.resolve_str(n)?;
                let name = s.split("::").next().unwrap_or(&s);
                self.rt.stop_instance(name)?;
                Ok(Flow::Ok)
            }

            // start ι γ(p⃗)… — fails on a running instance (§6).
            Expr::Start { instance, junction_args } => {
                let name = self.resolve_str(instance)?;
                let env = self.cell().env_clone();
                self.rt.start_instance(&name, junction_args, &env)?;
                Ok(Flow::Ok)
            }

            // assert/retract [γ] P — the Fig. 20 semantics write BOTH the
            // local and the remote table (that is how Fig. 3's f observes
            // its own Work flip back). The remote send happens first so a
            // dead target fails the whole statement atomically.
            Expr::Assert { at, prop } => self.eval_assert(at.as_ref(), prop, true),
            Expr::Retract { at, prop } => self.eval_assert(at.as_ref(), prop, false),

            Expr::Call { func, .. } => Err(Failure::Internal(format!(
                "unexpanded call `{func}` reached the interpreter"
            ))),

            // verify G — ternary logic; unknown is an error (§6).
            Expr::Verify(f) => match self.formula_truth(f)? {
                Ternary::True => Ok(Flow::Ok),
                Ternary::False => Err(Failure::Verify {
                    formula: f.to_string(),
                    unknown: false,
                }),
                Ternary::Unknown => Err(Failure::Verify {
                    formula: f.to_string(),
                    unknown: true,
                }),
            },

            Expr::Skip => Ok(Flow::Ok),

            // retry — bounded re-run of the junction body, handled by the
            // activation driver in runtime.rs.
            Expr::Retry => Ok(Flow::Retry),

            // keep — drop pending parallel updates for these keys (§6).
            Expr::Keep { keys } => {
                let mut resolved = Vec::with_capacity(keys.len());
                for k in keys {
                    resolved.push(self.resolve_str(k)?);
                }
                self.cell().table().keep(&resolved);
                Ok(Flow::Ok)
            }

            Expr::Case { arms, otherwise } => self.eval_case(arms, otherwise),

            Expr::If { cond, then, els } => match self.formula_truth(cond)? {
                Ternary::True => self.eval(then),
                Ternary::False => match els {
                    Some(e) => self.eval(e),
                    None => Ok(Flow::Ok),
                },
                Ternary::Unknown => Err(Failure::Unresolved(format!(
                    "if condition `{cond}` is unknown in {}",
                    self.me()
                ))),
            },

            Expr::For { .. } => Err(Failure::Internal(
                "unexpanded `for` reached the interpreter".into(),
            )),

            // Unrolled `;`-loops: `break` exits the loop (§6).
            Expr::LoopScope(inner) => match self.eval(inner)? {
                Flow::Break => Ok(Flow::Ok),
                other => Ok(other),
            },

            Expr::Break => Ok(Flow::Break),
            Expr::Next => Ok(Flow::Next),
            Expr::Reconsider => Ok(Flow::Reconsider),
        }
    }

    fn eval_host(&mut self, name: &str, writes: &[String]) -> RtResult<Flow> {
        // `complain` is conventionally diagnostic — record it.
        if name == "complain" {
            self.rt
                .record_event(&self.me().instance, &self.me().junction, "complain", String::new());
        }
        let mut app = self.inst.app.lock();
        let mut table = self.cell().table();
        let mut ctx = HostCtx::new(
            &mut table,
            writes,
            &self.me().instance,
            &self.me().junction,
        );
        app.host_call(name, &mut ctx).map_err(|m| Failure::Host {
            func: name.to_string(),
            message: m,
        })?;
        Ok(Flow::Ok)
    }

    fn eval_assert(
        &mut self,
        at: Option<&JRef>,
        prop: &PropRef,
        value: bool,
    ) -> RtResult<Flow> {
        let key = self.resolve_prop(prop)?;
        // Local write first (Fig. 20: assert[γ]P writes WrJ and Wrγ, and
        // causally the peer can only react *after* our write — a reply
        // that races back must order after it). Skipped when the
        // proposition is not declared locally. If the remote send then
        // fails, the local write is undone: the statement fails
        // atomically.
        let old = {
            let table = self.cell().table();
            if table.has_prop(&key) {
                table.prop(&key)
            } else if at.is_none() {
                return Err(Failure::Table(csaw_kv::TableError::NoSuchKey(key)));
            } else {
                None
            }
        };
        if let Some(old) = old {
            if let Some(log) = self.txn_logs.last_mut() {
                log.push(Undo::Prop(key.clone(), old));
            }
            self.cell().table().set_prop_local(&key, value)?;
        }
        if let Some(j) = at {
            let target = self.resolve_jref(j)?;
            let update = if value {
                Update::assert(key.clone(), self.me().qualified())
            } else {
                Update::retract(key.clone(), self.me().qualified())
            };
            if let Err(f) = self.rt.send(&self.me().instance, &target, update, self.deadline()) {
                if let Some(old) = old {
                    let _ = self.cell().table().set_prop_local(&key, old);
                }
                return Err(f);
            }
        }
        Ok(Flow::Ok)
    }

    fn eval_wait(&mut self, data: &[NameRef], formula: &Formula) -> RtResult<Flow> {
        // Window keys: the formula's local propositions + listed data.
        let mut keys = Vec::new();
        for p in formula.local_props() {
            keys.push(self.resolve_prop(&p)?);
        }
        for d in data {
            keys.push(self.resolve_str(d)?);
        }
        let clock = self.rt.clock().clone();
        let hard_deadline = self
            .deadline()
            .unwrap_or_else(|| clock.now() + self.rt.config.max_wait);
        let token = {
            let mut table = self.cell().table();
            table.open_window(keys)
        };
        let result = loop {
            // Read before anything the formula depends on: a wake-up
            // that lands from here on keeps `wait_on` from sleeping.
            let seen = self.cell().wake_seq();
            // Remote atoms resolved without holding our lock.
            let cache = match self.remote_cache(formula) {
                Ok(c) => c,
                Err(f) => break Err(f),
            };
            let mut table = self.cell().table();
            if self.eval_cached(formula, &table, &cache) == Ternary::True {
                break Ok(Flow::Ok);
            }
            let now = clock.now();
            if now >= hard_deadline {
                break Err(Failure::Timeout {
                    context: format!("wait {formula} in {}", self.me()),
                });
            }
            if clock.is_simulated() {
                // No condvar under virtual time: the table guard is
                // dropped first, and the sim hook makes one unit of
                // progress elsewhere (deliveries, other junctions) or
                // advances the virtual clock. The target is the hard
                // deadline, not the poll tick: the formula only changes
                // when the hook delivers or runs something, so the
                // re-check after every unit of progress loses nothing,
                // and tick-sized steps would burn a schedule step per
                // tick of dead virtual air.
                drop(table);
                clock.block_until(hard_deadline);
            } else {
                // Parked under the guard the formula was evaluated
                // under: a delivery needs that lock, so none can land
                // between the evaluation and the sleep. `tick` is for
                // the remote atoms, whose changes signal nobody.
                let next = (now + self.rt.config.tick).min(hard_deadline);
                self.cell().wait_on(&mut table, seen, next);
            }
        };
        self.cell().table().close_window(token);
        result
    }

    fn eval_par(&mut self, arms: &[Expr]) -> RtResult<Flow> {
        if arms.is_empty() {
            return Ok(Flow::Ok);
        }
        if arms.len() == 1 {
            return self.eval(&arms[0]);
        }
        if self.rt.clock().is_simulated() {
            // Under virtual time the executor is single-threaded, so a
            // scoped-thread fan-out would deadlock waiting on arms that
            // never get scheduled. Run the arms in sequence — a legal
            // interleaving of E1 + E2 — and combine flows the same way.
            let mut flow = Flow::Ok;
            for arm in arms {
                let mut ctx = ExecCtx {
                    rt: self.rt,
                    inst: self.inst,
                    jrt: self.jrt,
                    deadlines: self.deadlines.clone(),
                    txn_logs: Vec::new(),
                };
                match ctx.eval(arm) {
                    Err(f) => return Err(f),
                    Ok(Flow::Ok) => {}
                    Ok(other) => {
                        if flow == Flow::Ok {
                            flow = other;
                        }
                    }
                }
            }
            return Ok(flow);
        }
        let rt = self.rt;
        let inst = self.inst;
        let jrt = self.jrt;
        let deadlines = self.deadlines.clone();
        let results: Vec<RtResult<Flow>> = std::thread::scope(|s| {
            let handles: Vec<_> = arms
                .iter()
                .map(|arm| {
                    let deadlines = deadlines.clone();
                    s.spawn(move || {
                        let mut ctx = ExecCtx { rt, inst, jrt, deadlines, txn_logs: Vec::new() };
                        ctx.eval(arm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(Failure::Internal("parallel arm panicked".into())))
                })
                .collect()
        });
        // Failure wins; else the first control signal; else Ok.
        let mut flow = Flow::Ok;
        for r in results {
            match r {
                Err(f) => return Err(f),
                Ok(Flow::Ok) => {}
                Ok(other) => {
                    if flow == Flow::Ok {
                        flow = other;
                    }
                }
            }
        }
        Ok(flow)
    }

    fn eval_case(&mut self, arms: &[CaseArm], otherwise: &Expr) -> RtResult<Flow> {
        // Post-expansion all guards are Plain.
        let guards: Vec<&Formula> = arms
            .iter()
            .map(|a| match &a.guard {
                CaseGuard::Plain(f) => Ok(f),
                CaseGuard::For { .. } => Err(Failure::Internal(
                    "unexpanded for-guard reached the interpreter".into(),
                )),
            })
            .collect::<RtResult<_>>()?;

        let mut start_idx = 0usize;
        let mut prev_match: Option<usize> = None;

        loop {
            self.check_deadline("case")?;
            // Find the first matching arm at or after start_idx.
            let mut matched = None;
            for (i, g) in guards.iter().enumerate().skip(start_idx) {
                if self.formula_truth(g)? == Ternary::True {
                    matched = Some(i);
                    break;
                }
            }
            let Some(i) = matched else {
                // No guard matched → the `otherwise` arm.
                return match self.eval(otherwise)? {
                    Flow::Break | Flow::Ok => Ok(Flow::Ok),
                    Flow::Next | Flow::Reconsider => Err(Failure::Internal(
                        "`next`/`reconsider` in otherwise arm".into(),
                    )),
                    other => Ok(other),
                };
            };

            let entry_fp = self.cell().table().props_fingerprint();
            let body_flow = self.eval(&arms[i].body)?;
            let flow = match body_flow {
                Flow::Ok => match arms[i].terminator {
                    Terminator::Break => Flow::Break,
                    Terminator::Next => Flow::Next,
                    Terminator::Reconsider => Flow::Reconsider,
                },
                other => other,
            };
            match flow {
                Flow::Break => return Ok(Flow::Ok),
                Flow::Next => {
                    // The N function (§8.3): only later arms may match.
                    start_idx = i + 1;
                    prev_match = None;
                }
                Flow::Reconsider => {
                    // "branches to the containing case if a different
                    // match is made … otherwise the expression fails".
                    let now_fp = self.cell().table().props_fingerprint();
                    let mut new_match = None;
                    for (j, g) in guards.iter().enumerate() {
                        if self.formula_truth(g)? == Ternary::True {
                            new_match = Some(j);
                            break;
                        }
                    }
                    let unchanged = new_match == Some(i)
                        && now_fp == entry_fp
                        && prev_match == Some(i);
                    if unchanged {
                        return Err(Failure::ReconsiderFailed);
                    }
                    prev_match = Some(i);
                    start_idx = 0;
                }
                Flow::Return | Flow::Retry => return Ok(flow),
                Flow::Ok => unreachable!("terminator mapping covers Ok"),
            }
        }
    }

    // -----------------------------------------------------------------
    // `main`
    // -----------------------------------------------------------------

    /// Interpret the `main` body: only composition, `start`/`stop` and
    /// no-ops are meaningful outside a junction.
    pub(crate) fn run_main(
        rt: &std::sync::Arc<RuntimeInner>,
        env: &HashMap<String, Value>,
        body: &Expr,
    ) -> Result<(), Failure> {
        match body {
            Expr::Seq(es) => {
                for e in es {
                    Self::run_main(rt, env, e)?;
                }
                Ok(())
            }
            Expr::Par(es) => {
                // `main`'s `+` starts instances concurrently; starting is
                // non-blocking, so sequential dispatch is equivalent.
                for e in es {
                    Self::run_main(rt, env, e)?;
                }
                Ok(())
            }
            Expr::Scope(e) | Expr::LoopScope(e) => Self::run_main(rt, env, e),
            Expr::Start { instance, junction_args } => {
                let name = match instance {
                    NameRef::Lit(s) => s.clone(),
                    NameRef::Var(v) => match env.get(v) {
                        Some(Value::Target(t)) => t.clone(),
                        _ => return Err(Failure::Unresolved(format!("instance `{v}`"))),
                    },
                };
                rt.start_instance(&name, junction_args, env)
            }
            Expr::Stop(n) => {
                let name = match n {
                    NameRef::Lit(s) => s.clone(),
                    NameRef::Var(v) => match env.get(v) {
                        Some(Value::Target(t)) => t.clone(),
                        _ => return Err(Failure::Unresolved(format!("instance `{v}`"))),
                    },
                };
                rt.stop_instance(&name)
            }
            Expr::Skip | Expr::Host { .. } => Ok(()),
            Expr::Otherwise { body, handler, .. } => {
                match Self::run_main(rt, env, body) {
                    Err(_) => Self::run_main(rt, env, handler),
                    ok => ok,
                }
            }
            other => Err(Failure::Internal(format!(
                "expression not supported in main: {other:?}"
            ))),
        }
    }
}
