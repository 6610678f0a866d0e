//! The C-Saw interpreter.
//!
//! Executes lowered junction bodies ([`csaw_core::lower`]) against the
//! runtime: KV tables, channels, liveness, deadlines. Keys, targets,
//! timeouts and formulas were resolved once, when the junction was built;
//! what a pass still reads is the run-time half — the junction's binding
//! slots, the instance registry and the tables. The semantics follow §6/§8
//! of the paper; each arm of the evaluator cites the construct it
//! implements.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use csaw_core::expr::{Expr, Terminator};
use csaw_core::formula::{Formula, Ternary};
use csaw_core::intern::{KeyId, Sym};
use csaw_core::lower::{
    with_scratch, Arm, Bindings, Bound, Keys, Name, Prog, Remote, Slot, Stmt, Target,
};
use csaw_core::names::{JunctionId, NameRef};
use csaw_core::value::Value;
use csaw_kv::{Table, Update};

use crate::app::{HostCtx, InstanceApp};
use crate::cell::Cell;
use crate::error::{Failure, Flow, RtResult};
use crate::runtime::{signal_held, InstanceState, JunctionRt, RuntimeInner};

/// One undo record for transactional rollback.
enum Undo {
    Prop(KeyId, bool),
    Data(KeyId, Value),
}

thread_local! {
    /// The proposition values each open `reconsider` arm entered with,
    /// stacked: arms nest, and a nested pass on this thread pushes above
    /// its caller's. Kept across activations, so an entry allocates
    /// nothing once warm.
    static FINGERPRINTS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// A `reconsider` arm's entry fingerprint: its place on
/// [`FINGERPRINTS`], popped when the arm ends, by error or panic too.
struct Fingerprint {
    at: usize,
}

impl Fingerprint {
    fn take(table: &Table) -> Fingerprint {
        FINGERPRINTS.with(|f| {
            let mut f = f.borrow_mut();
            let at = f.len();
            f.extend_from_slice(table.prop_values());
            Fingerprint { at }
        })
    }

    /// Whether `table` holds exactly the proposition values it held at
    /// entry (no proposition added or changed value, A→B→A included).
    fn unchanged(&self, table: &Table) -> bool {
        FINGERPRINTS.with(|f| f.borrow()[self.at..] == *table.prop_values())
    }
}

impl Drop for Fingerprint {
    fn drop(&mut self) {
        FINGERPRINTS.with(|f| f.borrow_mut().truncate(self.at));
    }
}

/// Execution context for one activation (or one parallel arm of one).
pub(crate) struct ExecCtx<'rt> {
    rt: &'rt RuntimeInner,
    inst: &'rt InstanceState,
    jrt: &'rt JunctionRt,
    /// The earliest deadline of the enclosing `otherwise[t]` constructs.
    deadline: Option<Instant>,
    /// Whether this is an arm of a `+`/`∥n`: a sibling arm's `wait` may
    /// read what it writes, so its local writes signal the cell.
    in_par: bool,
    /// Transaction undo-log stack. Rollback restores only the keys *this
    /// context* wrote, so parallel arms' transactions do not clobber each
    /// other (the whole-table snapshot the paper describes is only
    /// equivalent in the sequential case).
    txn_logs: Vec<Vec<Undo>>,
}

/// Evaluate a guard for the scheduler (no deadline context). `Unknown`
/// counts as not-ready.
pub(crate) fn guard_truth(
    rt: &RuntimeInner,
    inst: &InstanceState,
    jrt: &JunctionRt,
    guard: &Prog,
) -> Ternary {
    ExecCtx::new(rt, inst, jrt).truth(guard).unwrap_or(Ternary::Unknown)
}

impl<'rt> ExecCtx<'rt> {
    pub(crate) fn new(
        rt: &'rt RuntimeInner,
        inst: &'rt InstanceState,
        jrt: &'rt JunctionRt,
    ) -> Self {
        ExecCtx { rt, inst, jrt, deadline: None, in_par: false, txn_logs: Vec::new() }
    }

    fn cell(&self) -> &'rt Cell {
        &self.jrt.cell
    }

    /// The instance's app, for a call into host code. The call may
    /// block, so what this thread holds is signalled first: a target
    /// sent to earlier does not wait for the call to return.
    fn app(&self) -> parking_lot::MutexGuard<'rt, Box<dyn InstanceApp>> {
        signal_held();
        self.inst.app.lock()
    }

    /// Wake a sibling arm's `wait` after a local write to the table.
    fn nudge_siblings(&self) {
        if self.in_par {
            self.cell().nudge();
        }
    }

    fn me(&self) -> JunctionId {
        self.jrt.cell.id
    }

    fn check_deadline(&self, what: &str) -> RtResult<()> {
        if let Some(d) = self.deadline {
            if self.rt.clock().now() > d {
                return Err(Failure::Timeout { context: what.to_string() });
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Names: what lowering left to the run time
    // -----------------------------------------------------------------

    /// A name as a table key: lowered, or read from its binding slot.
    fn key(&self, n: &Name) -> RtResult<KeyId> {
        match n {
            Name::Lit(k) => Ok(*k),
            other => {
                let b = self.jrt.bindings.lock();
                b.key(other).ok_or_else(|| self.unresolved(&b, other))
            }
        }
    }

    fn text(&self, n: &Name) -> RtResult<&'static str> {
        self.key(n).map(KeyId::as_str)
    }

    /// What a binding slot holds.
    fn bound(&self, slot: Slot) -> RtResult<Bound> {
        let b = self.jrt.bindings.lock();
        b.bound(slot).ok_or_else(|| self.unresolved(&b, &Name::Var(slot)))
    }

    fn unresolved(&self, b: &Bindings, n: &Name) -> Failure {
        let v = self.jrt.lowered.unbound(b, n).unwrap_or_default();
        Failure::Unresolved(format!(
            "`{v}` in {} (not a parameter, idx, or declared name)",
            self.me()
        ))
    }

    fn timeout(&self, slot: Slot) -> RtResult<Duration> {
        self.jrt.bindings.lock().duration(slot).ok_or_else(|| {
            Failure::Unresolved(format!(
                "timeout parameter `{}` in {}",
                self.jrt.lowered.vars[slot].name,
                self.me()
            ))
        })
    }

    fn target(&self, t: &Target) -> RtResult<JunctionId> {
        match t {
            Target::Fixed(id) => Ok(*id),
            Target::Instance(i) => self.rt.sole_junction(*i),
            Target::Qualified { instance, junction } => {
                let b = self.bound(*instance)?;
                let instance = match b.junction {
                    None => b.instance,
                    Some(_) => Sym::new(b.as_str()),
                };
                Ok(JunctionId { instance, junction: *junction })
            }
            Target::Bare(slot) => {
                let b = self.bound(*slot)?;
                match b.junction {
                    Some(junction) => Ok(JunctionId { instance: b.instance, junction }),
                    None => self.rt.sole_junction(b.instance),
                }
            }
            Target::MyInstance => Err(Failure::Unresolved(
                "me::instance is not a junction target".into(),
            )),
        }
    }

    /// Run `f` over a `wait`'s or `keep`'s keys: the lowered list, or
    /// the bound names resolved now.
    fn with_keys<R>(&self, keys: &Keys, f: impl FnOnce(&[KeyId]) -> R) -> RtResult<R> {
        match keys {
            Keys::Fixed(k) => Ok(f(k)),
            Keys::Bound(names) => {
                let k = names.iter().map(|n| self.key(n)).collect::<RtResult<Vec<_>>>()?;
                Ok(f(&k))
            }
        }
    }

    // -----------------------------------------------------------------
    // Formula evaluation (two-phase, to avoid cross-table lock cycles)
    // -----------------------------------------------------------------

    fn truth(&self, prog: &Prog) -> RtResult<Ternary> {
        with_scratch(prog.remotes().len(), |remote| {
            self.resolve_remotes(prog, remote)?;
            let table = self.cell().table();
            Ok(self.local_truth(prog, &table, remote))
        })
    }

    /// Phase 1: resolve `prog`'s `γ@P` / `S(ι)` atoms into `scratch`,
    /// without holding our table lock.
    fn resolve_remotes(&self, prog: &Prog, scratch: &mut [Ternary]) -> RtResult<()> {
        let atoms = &self.jrt.lowered.remotes[prog.remotes()];
        for (v, atom) in scratch.iter_mut().zip(atoms) {
            *v = match atom {
                Remote::Prop { at, key } => {
                    let key = self.key(key)?;
                    let dest = self.target(at)?;
                    self.rt.remote_prop(&dest, key)
                }
                Remote::Live(n) => {
                    let inst = self.text(n)?;
                    let inst = inst.split("::").next().unwrap_or(inst);
                    Ternary::from_bool(self.rt.is_live_from(&self.inst.name, inst))
                }
            };
        }
        Ok(())
    }

    /// Phase 2: run `prog` over our (already locked) table.
    fn local_truth(&self, prog: &Prog, table: &Table, remote: &[Ternary]) -> Ternary {
        let bindings = prog.reads_bindings().then(|| self.jrt.bindings.lock());
        prog.eval(
            bindings.as_deref(),
            remote,
            |key| table.prop(key),
            |subset, elem| table.subset_contains(subset, elem),
        )
    }

    // -----------------------------------------------------------------
    // The interpreter
    // -----------------------------------------------------------------

    /// Execute a statement.
    pub(crate) fn eval(&mut self, s: &Stmt) -> RtResult<Flow> {
        self.check_deadline("expression")?;
        match s {
            // ⌊H⌉{V⃗} — host code under the write-set contract (§4).
            Stmt::Host { name, writes, idx } => self.eval_host(name, writes, idx),

            // ⟨E⟩ — fate scope: failures propagate out of it unhandled.
            Stmt::Scope(inner) => self.eval(inner),

            // ⟨|E|⟩ — transactional scope: rollback on failure (§6).
            Stmt::Transaction(inner) => {
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
                                    let _ = table.set_prop_local(k, v);
                                }
                                Undo::Data(k, v) => {
                                    let _ = table.set_data_local(k, v);
                                }
                            }
                        }
                        drop(table);
                        self.nudge_siblings();
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
            Stmt::Return => Ok(Flow::Return),

            // write(n, γ): push named data (must be defined — §6).
            Stmt::Write { data, to } => {
                let key = self.key(data)?;
                let dest = self.target(to)?;
                let value = self.cell().table().data_defined(key)?.clone();
                self.rt.send(
                    self.me().instance,
                    &dest,
                    Update::data(key, value, self.jrt.lowered.sender),
                    self.deadline,
                )?;
                Ok(Flow::Ok)
            }

            // wait [n⃗] F — block until F, admitting updates to F's
            // propositions and the listed data keys (§6).
            Stmt::Wait { keys, prog, formula } => self.eval_wait(keys, prog, formula),

            // save(…, n): host state → table.
            Stmt::Save(data) => {
                let key = self.key(data)?;
                let value = {
                    let mut app = self.app();
                    app.save(&key).map_err(|m| Failure::Host {
                        func: format!("save({key})"),
                        message: m,
                    })?
                };
                let mut table = self.cell().table();
                if let Some(log) = self.txn_logs.last_mut() {
                    if let Some(old) = table.data(key) {
                        log.push(Undo::Data(key, old.clone()));
                    }
                }
                table.set_data_local(key, value)?;
                Ok(Flow::Ok)
            }

            // restore(n, …): table → host state; undef is an error (§6).
            Stmt::Restore(data) => {
                let key = self.key(data)?;
                let value = self.cell().table().data_defined(key)?.clone();
                let mut app = self.app();
                app.restore(&key, &value).map_err(|m| Failure::Host {
                    func: format!("restore({key})"),
                    message: m,
                })?;
                Ok(Flow::Ok)
            }

            // E1; E2 — sequential composition.
            Stmt::Seq(ss) => {
                for x in ss {
                    match self.eval(x)? {
                        Flow::Ok => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Ok)
            }

            // E1 + E2 — parallel composition on scoped threads.
            Stmt::Par(ss) => self.eval_par(ss.iter().collect()),

            // ∥n E — replicated parallel composition.
            Stmt::Rep { n, body } => self.eval_par(vec![&**body; *n as usize]),

            // E1 otherwise[t] E2 — timed failure handling (§6).
            Stmt::Otherwise { body, timeout, handler } => {
                let outer = self.deadline;
                if let Some(slot) = timeout {
                    let at = self.rt.clock().now() + self.timeout(*slot)?;
                    self.deadline = Some(outer.map_or(at, |d| d.min(at)));
                }
                let r = self.eval(body);
                self.deadline = outer;
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
            Stmt::Stop(n) => {
                let s = self.text(n)?;
                let name = s.split("::").next().unwrap_or(s);
                signal_held();
                self.rt.stop_instance(name)?;
                Ok(Flow::Ok)
            }

            // start ι γ(p⃗)… — fails on a running instance (§6).
            Stmt::Start { instance, junction_args } => {
                let name = self.text(instance)?;
                let env = self.cell().env_clone();
                signal_held();
                self.rt.start_instance(name, junction_args, &env)?;
                Ok(Flow::Ok)
            }

            // assert/retract [γ] P — the Fig. 20 semantics write BOTH the
            // local and the remote table (that is how Fig. 3's f observes
            // its own Work flip back). The remote send happens first so a
            // dead target fails the whole statement atomically.
            Stmt::Assert { at, key, value } => self.eval_assert(at.as_ref(), key, *value),

            // verify G — ternary logic; unknown is an error (§6).
            Stmt::Verify { prog, formula } => match self.truth(prog)? {
                Ternary::True => Ok(Flow::Ok),
                t => Err(Failure::Verify {
                    formula: formula.to_string(),
                    unknown: t == Ternary::Unknown,
                }),
            },

            Stmt::Skip => Ok(Flow::Ok),

            // retry — bounded re-run of the junction body, handled by the
            // activation driver in runtime.rs.
            Stmt::Retry => Ok(Flow::Retry),

            // keep — drop pending parallel updates for these keys (§6).
            Stmt::Keep(keys) => {
                self.with_keys(keys, |k| self.cell().table().keep(k))?;
                Ok(Flow::Ok)
            }

            Stmt::Case { arms, otherwise } => self.eval_case(arms, otherwise),

            Stmt::If { prog, formula, then, els } => match self.truth(prog)? {
                Ternary::True => self.eval(then),
                Ternary::False => match els {
                    Some(e) => self.eval(e),
                    None => Ok(Flow::Ok),
                },
                Ternary::Unknown => Err(Failure::Unresolved(format!(
                    "if condition `{formula}` is unknown in {}",
                    self.me()
                ))),
            },

            // Unrolled `;`-loops: `break` exits the loop (§6).
            Stmt::LoopScope(inner) => match self.eval(inner)? {
                Flow::Break => Ok(Flow::Ok),
                other => Ok(other),
            },

            Stmt::Break => Ok(Flow::Break),
            Stmt::Next => Ok(Flow::Next),
            Stmt::Reconsider => Ok(Flow::Reconsider),

            Stmt::Unexpanded(what) => Err(Failure::Internal(what.clone())),
        }
    }

    fn eval_host(&mut self, name: &str, writes: &[KeyId], idx: &[Slot]) -> RtResult<Flow> {
        // `complain` is conventionally diagnostic — record it.
        if name == "complain" {
            self.rt
                .record_event(&self.me().instance, &self.me().junction, "complain", String::new());
        }
        let mut app = self.app();
        let mut table = self.cell().table();
        let mut ctx = HostCtx::new(
            &mut table,
            writes,
            self.me().instance.as_str(),
            self.me().junction.as_str(),
        );
        let r = app.host_call(name, &mut ctx);
        // The call may have moved an `idx` cursor of its write set.
        self.jrt.refresh_idx(&table, idx);
        drop(table);
        if !writes.is_empty() {
            self.nudge_siblings();
        }
        r.map_err(|m| Failure::Host {
            func: name.to_string(),
            message: m,
        })?;
        Ok(Flow::Ok)
    }

    fn eval_assert(&mut self, at: Option<&Target>, key: &Name, value: bool) -> RtResult<Flow> {
        let key = self.key(key)?;
        // Local write first (Fig. 20: assert[γ]P writes WrJ and Wrγ, and
        // causally the peer can only react *after* our write — a reply
        // that races back must order after it). Skipped when the
        // proposition is not declared locally. If the remote send then
        // fails, the local write is undone: the statement fails
        // atomically.
        let old = match self.cell().table().set_prop_local(key, value) {
            Ok(old) => {
                if let Some(log) = self.txn_logs.last_mut() {
                    log.push(Undo::Prop(key, old));
                }
                Some(old)
            }
            Err(_) if at.is_some() => None,
            Err(e) => return Err(e.into()),
        };
        if old.is_some() {
            self.nudge_siblings();
        }
        if let Some(j) = at {
            let dest = self.target(j)?;
            let from = self.jrt.lowered.sender;
            let update = if value {
                Update::assert(key, from)
            } else {
                Update::retract(key, from)
            };
            if let Err(f) = self.rt.send(self.me().instance, &dest, update, self.deadline) {
                if let Some(old) = old {
                    let _ = self.cell().table().set_prop_local(key, old);
                    self.nudge_siblings();
                }
                return Err(f);
            }
        }
        Ok(Flow::Ok)
    }

    fn eval_wait(&mut self, keys: &Keys, prog: &Prog, formula: &Formula) -> RtResult<Flow> {
        // Window keys: the formula's local propositions + listed data.
        let clock = self.rt.clock();
        let hard_deadline = self
            .deadline
            .unwrap_or_else(|| clock.now() + self.rt.config.max_wait);
        let token = self.with_keys(keys, |k| self.cell().table().open_window(k))?;
        let result = with_scratch(prog.remotes().len(), |remote| loop {
            // Read before anything the formula depends on: a wake-up
            // that lands from here on keeps `wait_on` from sleeping.
            let seen = self.cell().wake_seq();
            // Remote atoms resolved without holding our lock.
            if let Err(f) = self.resolve_remotes(prog, remote) {
                break Err(f);
            }
            let table = self.cell().table();
            if self.local_truth(prog, &table, remote) == Ternary::True {
                break Ok(Flow::Ok);
            }
            let now = clock.now();
            if now >= hard_deadline {
                break Err(Failure::Timeout {
                    context: format!("wait {formula} in {}", self.me()),
                });
            }
            // Both clocks block to the hard deadline: the formula only
            // changes when something signals this cell, so the re-check
            // after every wake-up loses nothing.
            if clock.is_simulated() {
                // No condvar under virtual time: the table guard is
                // dropped first, and the sim hook makes one unit of
                // progress elsewhere (deliveries, other junctions) or
                // advances the virtual clock.
                drop(table);
                clock.block_until(hard_deadline);
            } else if let Some(mut table) = self.rt.run_held(table) {
                // Nothing held. (Else `run_held` ran the passes this
                // activation's own sends made due right here, nested
                // under the `wait`, instead of on a second thread while
                // this one sleeps, and the formula is looked at again.)
                // Parked under the guard the formula was evaluated
                // under: a delivery needs that lock, so none can land
                // between the evaluation and the sleep. What else can
                // move the formula signals the cell: a `γ@P` table's
                // change, a liveness change, a sibling arm's write.
                self.cell().wait_on(&mut table, seen, hard_deadline);
            }
        });
        self.cell().table().close_window(token);
        result
    }

    fn eval_par(&mut self, arms: Vec<&Stmt>) -> RtResult<Flow> {
        if arms.is_empty() {
            return Ok(Flow::Ok);
        }
        if arms.len() == 1 {
            return self.eval(arms[0]);
        }
        let (rt, inst, jrt, deadline) = (self.rt, self.inst, self.jrt, self.deadline);
        let arm_ctx = || ExecCtx { deadline, in_par: true, ..ExecCtx::new(rt, inst, jrt) };
        let results: Vec<RtResult<Flow>> = if self.rt.clock().is_simulated() {
            // Under virtual time the executor is single-threaded, so a
            // scoped-thread fan-out would deadlock waiting on arms that
            // never get scheduled. Run the arms in sequence — a legal
            // interleaving of E1 + E2 — stopping at the first failure.
            let mut results = Vec::with_capacity(arms.len());
            for arm in arms {
                let r = arm_ctx().eval(arm);
                let failed = r.is_err();
                results.push(r);
                if failed {
                    break;
                }
            }
            results
        } else {
            // The arms run on threads of their own while this one
            // joins them: what it holds must not wait for the join.
            signal_held();
            std::thread::scope(|s| {
                let handles: Vec<_> = arms
                    .into_iter()
                    .map(|arm| s.spawn(move || arm_ctx().eval(arm)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(Failure::Internal("parallel arm panicked".into()))
                        })
                    })
                    .collect()
            })
        };
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

    fn eval_case(&mut self, arms: &[Arm], otherwise: &Stmt) -> RtResult<Flow> {
        let mut start_idx = 0usize;
        let mut prev_match: Option<usize> = None;

        loop {
            self.check_deadline("case")?;
            // Find the first matching arm at or after start_idx.
            let mut matched = None;
            for (i, arm) in arms.iter().enumerate().skip(start_idx) {
                if self.truth(&arm.guard)? == Ternary::True {
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

            let arm = &arms[i];
            // Only `reconsider` asks whether a proposition changed.
            let entry = arm
                .reconsiders
                .then(|| Fingerprint::take(&self.cell().table()));
            let flow = match self.eval(&arm.body)? {
                Flow::Ok => match arm.terminator {
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
                    let props_unchanged =
                        entry.is_some_and(|e| e.unchanged(&self.cell().table()));
                    let mut new_match = None;
                    for (j, arm) in arms.iter().enumerate() {
                        if self.truth(&arm.guard)? == Ternary::True {
                            new_match = Some(j);
                            break;
                        }
                    }
                    let unchanged =
                        new_match == Some(i) && props_unchanged && prev_match == Some(i);
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
