//! Live reconfiguration: hot-swap the running architecture under traffic.
//!
//! The paper's title promises *reconfigurable* distributed software
//! architecture; this module delivers the runtime half of that promise.
//! Every live change — a direct [`crate::Runtime::reconfigure`], a
//! planned [`crate::Runtime::reconfigure_plan`], a supervisor repair,
//! an autoscaler transition — is a [`csaw_core::plan::Plan`] run by one
//! executor. It takes the reconfiguration lock, reads the serving
//! program, judges the plan with [`check_plan`] (a single-step change
//! is the one-phase [`Plan::step`]) and runs every phase before it lets
//! go. A plan that fails the check — including a *stale* one, built
//! from a program that is no longer current — is refused before phase
//! 0: nothing quiesces, no `reconfig_*` event is traced, the epoch
//! chain does not grow and no phase spec is built. No other change can
//! cut between the check and a phase, or between two phases.
//!
//! Each phase takes the running system from its current program A to
//! the phase target B **while the system serves traffic**:
//!
//! 1. **Plan** — the phase's checked [`csaw_core::diff::ProgramDiff`] at
//!    instance/junction granularity. Only instances in the diff's
//!    *footprint* are touched; everything else keeps running without
//!    ever pausing (the bench measures this path at ≈ 0 pause).
//! 2. **Quiesce** — each affected instance gets a *hold*: the network
//!    delivery closure buffers its inbound updates instead of delivering
//!    them (senders never see an error; nothing is lost). Then the
//!    executor acquires every affected junction's activation lock, which
//!    blocks until in-flight activations drain. Quiesce latency is
//!    bounded by the longest in-flight `wait` deadline.
//! 3. **Migrate** — each quiesced junction table is exported
//!    ([`csaw_kv::Table::export_state`]), round-tripped through the
//!    `csaw-serial` snapshot codec (the §9 type-aware serializer — the
//!    byte count is the measured migration payload), and merged onto the
//!    target program's declaration set: entries the new junction still
//!    declares carry over with their §8 bookkeeping (pending queue,
//!    local-priority shadows, op/epoch counters); entries it dropped are
//!    discarded; entries it introduces start at their declared inits.
//!    Subset/index *bases* come from the new program (a reshard changes
//!    the `tgt` index base from `{Bck1,Bck2}` to `{Bck1..Bck4}`), while
//!    current selections survive when still valid.
//! 4. **Cut** — old records are marked [`InstanceStatus::Retired`]
//!    (their scheduler threads exit) and the shared registry swaps to
//!    the new records under a brief write lock. A `reconfig_cut` trace
//!    event marks the epoch boundary for cross-epoch conformance.
//! 5. **Resume** — application-level migration (the caller's closure,
//!    e.g. re-sharding a KV store by the new shard formula), policy
//!    overrides, starts of added instances, then each hold is released
//!    and its buffered updates flush — in arrival order — into the *new*
//!    cells.
//!
//! The executor emits `reconfig_*` trace events throughout, and every
//! cut appends its target to [`crate::Runtime::epoch_chain`], so a
//! trace spanning any number of reconfigurations — an N-phase plan
//! checks as N+1 epochs — can be validated against the event
//! structures of the program each epoch embodied
//! (`csaw-semantics::conformance::check_trace` over the chain).
//!
//! Execution is fail-fast: a phase that errors (pre-cut abort) or
//! reports a post-cut migration error stops the walk. The
//! [`PlanReport`] says how far the plan got; the system keeps serving
//! the last committed target, which by plan construction is a valid
//! architecture.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_core::diff::ProgramDiff;
use csaw_core::expr::Arg;
use csaw_core::intern::Sym;
use csaw_core::plan::{check_plan, Plan, PlanCheckReport, PlanPhase, PlanViolation};
use csaw_core::program::CompiledProgram;
use csaw_kv::{TableState, Update};
use csaw_serial::{decode_table_state, encode_table_state};

use crate::app::InstanceApp;
use crate::error::Failure;
use crate::runtime::{
    build_instance_state, spawn_schedulers, InstanceState, InstanceStatus, Policy, Runtime,
};
use crate::trace::TraceKind;

/// Application-level migration hook, run after the cut (new instances
/// and carried apps are in place) and before holds release.
pub type MigrateFn = Box<dyn FnOnce(&mut MigrationCtx<'_>) -> Result<(), String> + Send>;

/// Per-junction start list for one instance, as for [`Runtime::start`]:
/// `None` names the sole junction, `Some(j)` a specific one.
pub type StartList = Vec<(Option<String>, Vec<Arg>)>;

/// Everything the caller supplies alongside the target program.
#[derive(Default)]
pub struct ReconfigSpec {
    /// Apps to bind after the cut (added instances, or overrides for
    /// changed ones — changed instances otherwise carry their old app).
    pub apps: Vec<(String, Box<dyn InstanceApp>)>,
    /// Instances to start after the cut (typically the added ones),
    /// with per-junction argument lists as for [`Runtime::start`].
    pub start: Vec<(String, StartList)>,
    /// Scheduling-policy overrides applied after the cut.
    pub policies: Vec<(String, String, Policy)>,
    /// Application-state migration (e.g. redistribute store entries by
    /// the new sharding formula). Runs while affected instances are
    /// still held, so migrated state is in place before traffic resumes.
    pub migrate: Option<MigrateFn>,
}

/// Context handed to the [`MigrateFn`]: the table states exported at
/// quiescence plus an accounting surface for app-level moves.
pub struct MigrationCtx<'a> {
    exports: &'a HashMap<(String, String), TableState>,
    moved_entries: u64,
    moved_bytes: u64,
}

impl MigrationCtx<'_> {
    /// The state a junction's table held at quiescence (round-tripped
    /// through the serial codec), if the junction was in the footprint.
    pub fn export(&self, instance: &str, junction: &str) -> Option<&TableState> {
        self.exports
            .get(&(instance.to_string(), junction.to_string()))
    }

    /// Record application-level entries/bytes moved (e.g. store keys
    /// re-homed to a different shard). Feeds [`ReconfigReport`].
    pub fn note_moved(&mut self, entries: u64, bytes: u64) {
        self.moved_entries += entries;
        self.moved_bytes += bytes;
    }
}

/// Wall time spent in each phase of a reconfiguration — the split
/// behind [`ReconfigReport::total`]. "Diff" is taking and tracing the
/// checked structural plan, "quiesce" hold-install through activation
/// drain, "migrate" the snapshot round-trip plus materializing target
/// instances, "cut" the registry swap + scheduler respawn, and
/// "resume" the app-level migration, binds, starts and hold release.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Checked diff taken + plan trace.
    pub diff: Duration,
    /// Hold install → every affected activation lock acquired.
    pub quiesce: Duration,
    /// Table export/codec round-trip + target instance materialization.
    pub migrate: Duration,
    /// Retire + registry swap + program advance + scheduler spawn.
    pub cut: Duration,
    /// Migration closure, app binds, policies, starts, hold release.
    pub resume: Duration,
}

impl PhaseTimings {
    /// The phases as `(name, duration)` pairs, in execution order.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("diff", self.diff),
            ("quiesce", self.quiesce),
            ("migrate", self.migrate),
            ("cut", self.cut),
            ("resume", self.resume),
        ]
    }
}

/// What a reconfiguration did and what it cost.
///
/// `migration_error` distinguishes a clean transition from one whose
/// post-cut follow-up failed — in both cases the cut is committed and
/// the system runs the target program.
#[derive(Clone, Debug)]
pub struct ReconfigReport {
    /// The structural plan that was executed.
    pub plan: ProgramDiff,
    /// Per affected instance: how long its traffic was held (hold
    /// install → buffered updates flushed). Unaffected instances never
    /// appear here — they were never paused.
    pub pauses: Vec<(String, Duration)>,
    /// Encoded snapshot bytes carried across the cut (serial codec).
    pub migrated_bytes: u64,
    /// App-level entries moved by the migration closure.
    pub moved_entries: u64,
    /// App-level bytes moved by the migration closure.
    pub moved_bytes: u64,
    /// Inbound updates buffered during quiescence and flushed into the
    /// new cells at resume.
    pub held_updates: u64,
    /// Buffered updates with no home in the new program (instance or
    /// junction removed) — dropped, by design, at resume.
    pub dropped_updates: u64,
    /// Failure from the post-cut phase (the caller's migration closure
    /// or a `spec.start`), if any. The cut itself is committed — the
    /// system is serving the target program and holds were released —
    /// but the application-level follow-up did not complete. `None`
    /// means a fully clean transition.
    pub migration_error: Option<Failure>,
    /// Per-phase wall-time split of `total`.
    pub timings: PhaseTimings,
    /// Wall time of the whole transition.
    pub total: Duration,
}

impl ReconfigReport {
    /// The worst per-instance pause (the headline "downtime" number).
    pub fn max_pause(&self) -> Duration {
        self.pauses.iter().map(|(_, d)| *d).max().unwrap_or_default()
    }
}

/// Outcome of executing a whole plan.
#[derive(Clone, Debug, Default)]
pub struct PlanReport {
    /// Each executed phase's report, in plan order. Shorter than the
    /// plan's phase list iff `error` is set.
    pub phases: Vec<ReconfigReport>,
    /// The phase that stopped the walk, if any: its index and failure.
    /// A pre-cut failure means that phase's target was *not* installed;
    /// a post-cut migration error means it was, with the application
    /// follow-up incomplete.
    pub error: Option<(usize, Failure)>,
    /// Wall time across all executed phases.
    pub total: Duration,
}

impl PlanReport {
    /// Whether every phase executed cleanly.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Largest quiesce set any executed phase used.
    pub fn max_phase_quiesce(&self) -> usize {
        self.phases.iter().map(|p| p.plan.quiesce_set().len()).max().unwrap_or(0)
    }
}

/// Merge an exported state onto the target declaration set: `fresh` is
/// the state of a table freshly initialized from the *new* junction
/// definition, `old` the state exported at quiescence. Keys the new
/// table declares keep their old values; dropped keys vanish; new keys
/// keep their declared inits. Counters and §8 bookkeeping carry from
/// `old` (filtered to surviving keys) so the update rule resumes
/// exactly where it left off.
fn merge_states(fresh: &TableState, old: &TableState) -> TableState {
    let old_props: HashMap<&str, bool> =
        old.props.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let old_data: HashMap<&str, &csaw_core::value::Value> =
        old.data.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let props: Vec<(String, bool)> = fresh
        .props
        .iter()
        .map(|(k, init)| (k.clone(), *old_props.get(k.as_str()).unwrap_or(init)))
        .collect();
    let data: Vec<(String, csaw_core::value::Value)> = fresh
        .data
        .iter()
        .map(|(k, init)| {
            (
                k.clone(),
                old_data.get(k.as_str()).map_or_else(|| init.clone(), |v| (*v).clone()),
            )
        })
        .collect();
    // Bases come from the new program; current selections survive when
    // every selected element is still in the new base.
    let subsets = fresh
        .subsets
        .iter()
        .map(|(name, base, init)| {
            let cur = old
                .subsets
                .iter()
                .find(|(n, _, _)| n == name)
                .and_then(|(_, _, cur)| cur.clone())
                .filter(|sel| {
                    sel.iter()
                        .all(|e| base.iter().any(|b| b.key() == e.key()))
                })
                .map_or_else(|| init.clone(), Some);
            (name.clone(), base.clone(), cur)
        })
        .collect();
    let idxs = fresh
        .idxs
        .iter()
        .map(|(name, base, init)| {
            let cur = old
                .idxs
                .iter()
                .find(|(n, _, _)| n == name)
                .and_then(|(_, _, cur)| cur.clone())
                .filter(|sel| base.iter().any(|b| &b.key() == sel))
                .map_or_else(|| init.clone(), Some);
            (name.clone(), base.clone(), cur)
        })
        .collect();
    let declared = |key: &str| {
        props.iter().any(|(k, _)| k == key) || data.iter().any(|(k, _)| k == key)
    };
    let pending = old
        .pending
        .iter()
        .filter(|p| declared(&p.update.key))
        .cloned()
        .collect();
    let locally_written = old
        .locally_written
        .iter()
        .filter(|(k, _, _)| declared(k))
        .cloned()
        .collect();
    TableState {
        props,
        data,
        subsets,
        idxs,
        pending,
        epoch: old.epoch,
        locally_written,
        op_seq: old.op_seq,
        next_window: old.next_window,
    }
}

impl Runtime {
    /// Take the running system from its current program to `target`
    /// while serving traffic: the one-phase [`Plan::step`] from the
    /// serving program, run by [`Runtime::reconfigure_plan`]'s
    /// executor. See the module docs for the phase plan.
    ///
    /// Returns a [`ReconfigReport`] with per-instance pause windows and
    /// migration accounting. Reconfigurations serialize: a second call
    /// blocks until the first — or a whole plan — completes. Holds are
    /// released on **every** exit path:
    ///
    /// * `Err` means *not applied* — a pre-cut failure (snapshot
    ///   encode/decode) aborted the transition; buffered updates were
    ///   flushed back into the still-registered old cells and the
    ///   system keeps serving the current program.
    /// * Failures after the cut (the migration closure, a `spec.start`)
    ///   cannot un-commit it; they are reported in
    ///   [`ReconfigReport::migration_error`] alongside the full
    ///   accounting, with the system serving `target`.
    pub fn reconfigure(
        &self,
        target: &CompiledProgram,
        spec: ReconfigSpec,
    ) -> Result<ReconfigReport, Failure> {
        self.reconfigure_at(None, target, spec)
    }

    /// [`Runtime::reconfigure`], refused as stale unless `epoch` (see
    /// [`Runtime::serving`]) is still serving when the lock is taken —
    /// for a caller that built `target` and `spec` from the state it
    /// saw then, as a supervisor repair does.
    pub(crate) fn reconfigure_at(
        &self,
        epoch: Option<usize>,
        target: &CompiledProgram,
        spec: ReconfigSpec,
    ) -> Result<ReconfigReport, Failure> {
        let mut spec = Some(spec);
        let PlanReport { mut phases, error, .. } = self
            .execute(
                epoch,
                |serving| Cow::Owned(Plan::step(serving, target)),
                |_| spec.take().unwrap_or_default(),
            )
            .map_err(|verdict| Failure::Internal(format!("reconfigure refused: {verdict}")))?;
        phases.pop().ok_or_else(|| error.expect("a one-step plan runs its phase or fails it").1)
    }

    /// Execute `plan` phase by phase. `spec_for` builds each phase's
    /// [`ReconfigSpec`] (apps and starts for that phase's added
    /// instances, the migration closure for the phase that re-homes
    /// application state, …) just before the phase runs, so it sees the
    /// system state the previous phases left. It runs under the
    /// reconfiguration lock: starting another reconfiguration from it
    /// waits until this plan is done.
    ///
    /// The plan is first checked against `plan.constraints`, from
    /// [`Runtime::current_program`] to its last phase's target (the
    /// current program for an identity plan); a failing verdict is
    /// returned as `Err` before anything runs. Otherwise execution stops
    /// at the first phase that fails (pre-cut `Err`) or reports a
    /// post-cut `migration_error`, and the report records how far it
    /// got. An empty (identity) plan yields an empty report.
    pub fn reconfigure_plan(
        &self,
        plan: &Plan,
        spec_for: impl FnMut(&PlanPhase) -> ReconfigSpec,
    ) -> Result<PlanReport, PlanCheckReport> {
        self.execute(None, |_| Cow::Borrowed(plan), spec_for)
    }

    /// The one executor. Under the reconfiguration lock — taken here
    /// and nowhere else — it reads the serving program, builds the plan
    /// from it, checks the plan (and, with `epoch`, that no cut landed
    /// since that epoch) and runs every phase.
    fn execute<'p>(
        &self,
        epoch: Option<usize>,
        plan_for: impl FnOnce(&CompiledProgram) -> Cow<'p, Plan>,
        mut spec_for: impl FnMut(&PlanPhase) -> ReconfigSpec,
    ) -> Result<PlanReport, PlanCheckReport> {
        let _serial = self.inner.reconfig_lock.lock();
        let (serving_epoch, serving) = self.serving();
        let plan = plan_for(&serving);
        let end = plan.phases.last().map_or(&*serving, |p| &p.target);
        let mut verdict = check_plan(&serving, end, &plan, &plan.constraints);
        if let Some(seen) = epoch.filter(|&e| e != serving_epoch) {
            verdict.violations.push(PlanViolation::ContinuityBroken {
                phase: 0,
                detail: format!("stale: built at epoch {seen}, epoch {serving_epoch} is serving"),
            });
        }
        if !verdict.is_valid() {
            return Err(verdict);
        }
        let started = self.clock().now();
        let mut out = PlanReport::default();
        for phase in &plan.phases {
            let failed = match self.run_phase(phase, spec_for(phase)) {
                Ok(report) => {
                    let failed = report.migration_error.clone();
                    out.phases.push(report);
                    failed
                }
                Err(f) => Some(f),
            };
            if let Some(f) = failed {
                out.error = Some((phase.index, f));
                break;
            }
        }
        out.total = self.clock().now().saturating_duration_since(started);
        Ok(out)
    }

    /// One checked phase, from the serving program to `phase.target`.
    /// The caller holds the reconfiguration lock.
    fn run_phase(
        &self,
        phase: &PlanPhase,
        spec: ReconfigSpec,
    ) -> Result<ReconfigReport, Failure> {
        let started = self.inner.clock().now();
        let current = self.current_program();
        let target = &phase.target;
        let plan = phase.diff.clone();
        self.inner.tracer.record(
            "",
            "",
            0,
            TraceKind::ReconfigPlan { footprint: plan.footprint_len() as u64 },
        );
        let mut timings = PhaseTimings::default();
        let t_diff = self.inner.clock().now();
        timings.diff = t_diff.saturating_duration_since(started);

        // Phase 2: quiesce. Installing a hold and raising `holds_active`
        // diverts new deliveries to the slow path, which checks the hold
        // map under the same lock the closure keeps across deliveries.
        // Pause clocks start at hold install.
        let quiesce: Vec<String> =
            plan.quiesce_set().iter().map(|s| s.to_string()).collect();
        let mut pause_started: HashMap<String, Instant> = HashMap::new();
        {
            let mut holds = self.inner.holds.lock();
            for name in &quiesce {
                // `entry`, not `insert`: never clobber an existing
                // buffer (reconfig_lock makes a leftover impossible in
                // practice, but a clobber would drop updates silently).
                holds.entry(name.clone()).or_default();
                pause_started.insert(name.clone(), self.inner.clock().now());
                // A quiesced instance was interned when it was built:
                // `Sym::new` finds its text, it adds none.
                let quiesced = TraceKind::ReconfigQuiesce { paused_us: 0 };
                self.inner.tracer.record(Sym::new(name).as_str(), "", 0, quiesced);
            }
            if !quiesce.is_empty() {
                self.inner.holds_active.store(true, Ordering::SeqCst);
            }
        }
        // Fence: a delivery that read `holds_active == false` before the
        // store above may still be executing against an old cell. Wait
        // for those in-flight fast-path deliveries to drain; everything
        // arriving after this point goes through the hold map.
        while self.inner.deliveries_inflight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        let old_states: HashMap<String, Arc<InstanceState>> = quiesce
            .iter()
            .filter_map(|n| self.inner.get_instance(n).map(|i| (n.clone(), i)))
            .collect();
        // Drain in-flight activations: taking a junction's activation
        // lock blocks until its current activation (if any) completes.
        let mut guards = Vec::new();
        for inst in old_states.values() {
            for jrt in &inst.junctions {
                guards.push(jrt.cell.lock_activation());
            }
        }
        let t_quiesce = self.inner.clock().now();
        timings.quiesce = t_quiesce.saturating_duration_since(t_diff);

        // Phase 3: export + serialize every quiesced junction table. The
        // round trip through the codec is deliberate: the migrated state
        // is exactly what survived serialization, and the byte count is
        // the measured migration payload. A codec failure aborts the
        // whole transition *before* the cut — nothing has been swapped
        // yet, so the holds are released, their buffered updates flush
        // into the still-registered old cells, and the system keeps
        // serving the current program.
        let mut exports: HashMap<(String, String), TableState> = HashMap::new();
        let mut migrated_bytes = 0u64;
        let mut snapshot_err: Option<Failure> = None;
        // Sorted so the migrate trace events (and any codec failure) land
        // in the same order every run — the simulation's determinism
        // contract covers reconfiguration mid-schedule.
        let mut snapshot_order: Vec<&String> = old_states.keys().collect();
        snapshot_order.sort();
        'snapshot: for name in snapshot_order {
            let inst = &old_states[name];
            for jrt in &inst.junctions {
                let state = jrt.cell.table().export_state();
                let bytes = match encode_table_state(&state) {
                    Ok(b) => b,
                    Err(e) => {
                        snapshot_err = Some(Failure::Internal(format!(
                            "reconfigure: snapshot {name}::{}: {e:?}",
                            jrt.name()
                        )));
                        break 'snapshot;
                    }
                };
                let n = bytes.len() as u64;
                migrated_bytes += n;
                let state = match decode_table_state(&bytes) {
                    Ok(s) => s,
                    Err(e) => {
                        snapshot_err = Some(Failure::Internal(format!(
                            "reconfigure: decode {name}::{}: {e:?}",
                            jrt.name()
                        )));
                        break 'snapshot;
                    }
                };
                let migrate = TraceKind::ReconfigMigrate { bytes: n };
                jrt.trace(&self.inner.tracer, state.epoch, migrate);
                exports.insert((name.clone(), jrt.name().to_string()), state);
            }
        }
        if let Some(f) = snapshot_err {
            drop(guards);
            self.release_holds(&quiesce, &pause_started);
            self.inner.record_event(
                "-",
                "-",
                "reconfig",
                format!("aborted before cut (holds released): {f:?}"),
            );
            return Err(f);
        }

        // Phase 4: materialize the target's changed + added instances,
        // carrying status, app, env, policy and merged table state for
        // everything retained.
        let mut fresh: Vec<Arc<InstanceState>> = Vec::new();
        for ci in &target.instances {
            let is_added = plan.added.iter().any(|n| n == &ci.name);
            let is_changed = plan.changed.iter().any(|d| d.name == ci.name);
            if !is_added && !is_changed {
                continue;
            }
            let new_inst = build_instance_state(ci, &self.inner.tracer, &self.inner.metrics);
            if let Some(old) = old_states.get(&ci.name) {
                new_inst
                    .status
                    .store(old.status.load(Ordering::SeqCst), Ordering::SeqCst);
                new_inst
                    .activations
                    .store(old.activations.load(Ordering::Relaxed), Ordering::Relaxed);
                // Carry the application: swap the old box into the new
                // record (the retired record keeps the fresh no-op).
                // `spec.apps` can still override after the cut.
                std::mem::swap(&mut *new_inst.app.lock(), &mut *old.app.lock());
                for jrt in &new_inst.junctions {
                    if let Some(old_jrt) = old.junction(jrt.name()) {
                        jrt.cell.bind_env(old_jrt.cell.env_clone());
                        *jrt.policy.lock() = *old_jrt.policy.lock();
                        jrt.needs_initial.store(
                            old_jrt.needs_initial.load(Ordering::SeqCst),
                            Ordering::SeqCst,
                        );
                        *jrt.last_run.lock() = *old_jrt.last_run.lock();
                        if let Some(old_state) =
                            exports.get(&(ci.name.clone(), jrt.name().to_string()))
                        {
                            let merged = {
                                let table = jrt.cell.table();
                                merge_states(&table.export_state(), old_state)
                            };
                            jrt.cell.table().import_state(merged);
                        }
                        // The carried parameters and cursors fill the
                        // new record's binding slots.
                        jrt.rebind();
                    }
                }
            }
            fresh.push(new_inst);
        }
        let t_migrate = self.inner.clock().now();
        timings.migrate = t_migrate.saturating_duration_since(t_quiesce);

        // Phase 5: the cut. Old records retire (their schedulers exit),
        // the registry swaps under a brief write lock, and the target
        // joins the epoch chain — here and nowhere else, so the chain
        // holds exactly one program per `reconfig_cut` event whatever
        // happens after the cut.
        for old in old_states.values() {
            old.status
                .store(InstanceStatus::Retired as u8, Ordering::SeqCst);
        }
        {
            let mut reg = self.inner.instances.write();
            for name in &plan.removed {
                reg.remove(name);
            }
            for inst in &fresh {
                reg.insert(Arc::clone(inst));
            }
        }
        self.inner.tracer.record("", "", 0, TraceKind::ReconfigCut);
        // A cut to the program already served (a supervisor restart, a
        // no-op transition) shares its entry rather than copying it.
        let entry = if *current == *target {
            Arc::clone(&current)
        } else {
            Arc::new(target.clone())
        };
        self.inner.epoch_chain.lock().push(entry);
        // The old activation guards are moot now — those cells are off
        // the registry. Release them and wake the retired schedulers so
        // their threads exit promptly.
        drop(guards);
        for old in old_states.values() {
            old.wake();
        }
        // Under a simulated clock no scheduler threads exist: the sim
        // executor discovers the fresh instances on its next pass.
        if !self.inner.clock().is_simulated() {
            let mut new_threads = Vec::new();
            for inst in &fresh {
                new_threads.extend(spawn_schedulers(&self.inner, inst));
            }
            self.adopt(new_threads);
        }
        let t_cut = self.inner.clock().now();
        timings.cut = t_cut.saturating_duration_since(t_migrate);

        // Phase 6: app-level migration, binds and policies, while the
        // affected instances are still held. The cut is committed at
        // this point, so errors here cannot abort the transition — they
        // are carried into the report's `migration_error` (the caller
        // sees the transition happened *and* what failed), and resume
        // proceeds regardless so holds never leak.
        let mut ctx = MigrationCtx { exports: &exports, moved_entries: 0, moved_bytes: 0 };
        let mut migration_error: Option<Failure> = None;
        if let Some(migrate) = spec.migrate {
            if let Err(m) = migrate(&mut ctx) {
                migration_error =
                    Some(Failure::Internal(format!("reconfigure: migration: {m}")));
            }
        }
        for (name, app) in spec.apps {
            self.bind_app(&name, app);
        }
        for (instance, junction, policy) in &spec.policies {
            self.set_policy(instance, junction, *policy);
        }
        for (name, args) in &spec.start {
            if let Err(f) = self.inner.start_instance(name, args, &HashMap::new()) {
                migration_error.get_or_insert(f);
            }
        }

        // Phase 7: resume — release every hold and flush its buffer into
        // the new cells.
        let (held_updates, dropped_updates, pauses) =
            self.release_holds(&quiesce, &pause_started);
        timings.resume = self.inner.clock().now().saturating_duration_since(t_cut);
        self.inner
            .tracer
            .record("", "", 0, TraceKind::ReconfigDone { bytes: migrated_bytes });
        self.inner.record_event(
            "-",
            "-",
            "reconfig",
            format!(
                "footprint {} ({} added, {} removed, {} changed), {} B migrated",
                plan.footprint_len(),
                plan.added.len(),
                plan.removed.len(),
                plan.changed.len(),
                migrated_bytes
            ),
        );
        Ok(ReconfigReport {
            plan,
            pauses,
            migrated_bytes,
            moved_entries: ctx.moved_entries,
            moved_bytes: ctx.moved_bytes,
            held_updates,
            dropped_updates,
            migration_error,
            timings,
            total: self.inner.clock().now().saturating_duration_since(started),
        })
    }

    /// Release the holds for `quiesce` and flush their buffered updates
    /// into whatever the registry currently maps each name to — the new
    /// cells after the cut, or the untouched old cells when a snapshot
    /// failure aborts the transition before it. Runs under the same
    /// lock order the delivery closure uses (holds → registry read), so
    /// buffered updates land *before* any post-release send can
    /// overtake them. Clears the delivery fast-path gate once the hold
    /// map is empty. Returns (flushed, dropped, per-instance pauses).
    fn release_holds(
        &self,
        quiesce: &[String],
        pause_started: &HashMap<String, Instant>,
    ) -> (u64, u64, Vec<(String, Duration)>) {
        let mut held_updates = 0u64;
        let mut dropped_updates = 0u64;
        let mut pauses = Vec::new();
        {
            let mut holds = self.inner.holds.lock();
            let reg = self.inner.instances.read();
            for name in quiesce {
                let buffered: Vec<(crate::cell::JunctionId, Update)> =
                    holds.remove(name).unwrap_or_default();
                let mut flushed = 0u64;
                match reg.get_named(name) {
                    Some(inst) => {
                        for (to, update) in buffered {
                            match inst.junction_id(to.junction) {
                                Some(jrt) if inst.status() == InstanceStatus::Running => {
                                    jrt.deliver(inst, update);
                                    flushed += 1;
                                }
                                _ => dropped_updates += 1,
                            }
                        }
                    }
                    None => dropped_updates += buffered.len() as u64,
                }
                held_updates += flushed;
                let paused = self
                    .inner
                    .clock()
                    .now()
                    .saturating_duration_since(pause_started[name]);
                let who = Sym::new(name).as_str();
                self.inner.tracer.record(who, "", 0, TraceKind::ReconfigResume { flushed });
                let quiesced = TraceKind::ReconfigQuiesce { paused_us: paused.as_micros() as u64 };
                self.inner.tracer.record(who, "", 0, quiesced);
                pauses.push((name.clone(), paused));
            }
            if holds.is_empty() {
                self.inner.holds_active.store(false, Ordering::SeqCst);
            }
        }
        self.inner.wake_all();
        (held_updates, dropped_updates, pauses)
    }

    /// The compiled program the registry currently embodies: the last
    /// entry of [`Runtime::epoch_chain`].
    pub fn current_program(&self) -> Arc<CompiledProgram> {
        self.serving().1
    }

    /// The serving epoch — its index in [`Runtime::epoch_chain`], which
    /// every cut advances, an identity cut included — and its program.
    pub(crate) fn serving(&self) -> (usize, Arc<CompiledProgram>) {
        let chain = self.inner.epoch_chain.lock();
        let program = chain.last().expect("the epoch chain starts at the boot program");
        (chain.len() - 1, Arc::clone(program))
    }

    /// Every program this runtime has embodied, in cut order: the boot
    /// program, then the target of each committed cut — whoever drove
    /// it (a direct [`Runtime::reconfigure`], a plan phase, a
    /// supervisor repair, the autoscaler) and whether or not its
    /// post-cut follow-up succeeded. An identity reconfiguration still
    /// cuts and therefore still adds an epoch; a pre-cut abort (`Err`)
    /// adds nothing.
    ///
    /// A trace holds exactly one `reconfig_cut` event per entry after
    /// the first only if it was recorded since boot and its ring
    /// evicted none of them (tracing enabled before the first cut,
    /// [`Runtime::trace_dropped`] zero); that trace is judged against
    /// this sequence epoch by epoch, and any other is reported as a
    /// chain mismatch rather than guessed at.
    ///
    /// The chain lives as long as the runtime and grows by one entry
    /// per cut. Entries are shared, so this call copies pointers, and
    /// a cut to the program already served costs a pointer; a cut to a
    /// different program keeps that program.
    pub fn epoch_chain(&self) -> Vec<Arc<CompiledProgram>> {
        self.inner.epoch_chain.lock().clone()
    }
}
