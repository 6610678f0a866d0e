//! Trace-conformance validation across the architecture catalogue.
//!
//! Every §5/§7 architecture is driven live with tracing enabled; the
//! recorded JSONL trace is then replayed through the
//! `csaw-semantics` conformance checker against the event structure
//! denoted from the *same* compiled program. A passing run means the
//! observed execution was a valid configuration: causally closed,
//! conflict-free, and obeying the §8 local-priority update rule.
//!
//! The snapshot / sharding / parallel-sharding / caching architectures
//! get dedicated drivers here; the fail-over family (failover, watched,
//! checkpoint) reuses the chaos soaks in conformance mode with a light
//! schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{HostCtx, InstanceApp, Runtime, RuntimeConfig};
use csaw_semantics::{
    check_jsonl, denote_program, ConformanceOptions, DenoteConfig, ProgramSemantics,
};
use mini_curl::apps::{AuditorApp, CurlApp};
use mini_curl::LinkModel;
use mini_redis::apps::{CacheApp, ServerApp, ShardFrontApp, ShardMode};
use mini_redis::Command;

use crate::chaos::{soak_checkpoint, soak_failover, soak_watched, ChaosSchedule, SoakOutcome};
use crate::harness::wait_until;

/// The digest of one conformance replay.
#[derive(Clone, Debug, Default)]
pub struct ConformanceSummary {
    /// No violations (parse errors count as violations).
    pub ok: bool,
    /// Trace records replayed.
    pub events: usize,
    /// Rule violations found.
    pub violations: usize,
    /// Activation labels matched to denoted events.
    pub matched: usize,
    /// Activation labels with no denoted candidate (informational).
    pub unmatched: usize,
    /// Events evicted from the trace ring before draining.
    pub dropped: u64,
    /// First few violations (or the parse error), one per line.
    pub detail: String,
}

/// Drain a runtime's trace and replay it against the event structures
/// denoted from the runtime's own epoch chain: the boot program, then
/// every program a live reconfiguration, plan phase, repair or
/// autoscaler transition cut to, each judging its own epoch — plus the
/// repair-event protocol rules. `injected_applies` says the driver
/// delivered updates directly (a zombie poke, a recovery trigger), so
/// some applies have no matching send. Returns the digest and the raw
/// JSONL (for artifact dumps on failure).
pub fn check_runtime_trace(rt: &Runtime, injected_applies: bool) -> (ConformanceSummary, String) {
    let jsonl = rt.trace_jsonl();
    let dropped = rt.trace_dropped();
    let sems: Vec<ProgramSemantics> = rt
        .epoch_chain()
        .iter()
        .map(|p| denote_program(p, &DenoteConfig::default()))
        .collect();
    let chain: Vec<Option<&ProgramSemantics>> = sems.iter().map(Some).collect();
    // If the ring evicted events, a delivery's matching send may have
    // been evicted rather than never sent — the pairing rule is only
    // sound over a complete trace with no driver-injected deliveries.
    let opts = ConformanceOptions {
        require_send_for_apply: dropped == 0 && !injected_applies,
    };
    let summary = match check_jsonl(&jsonl, &chain, &opts) {
        Ok(report) => ConformanceSummary {
            ok: report.ok(),
            events: report.events,
            violations: report.violations.len(),
            matched: report.matched_labels,
            unmatched: report.unmatched_labels,
            dropped,
            detail: report
                .violations
                .iter()
                .take(5)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        },
        Err(e) => ConformanceSummary {
            ok: false,
            events: 0,
            violations: 1,
            matched: 0,
            unmatched: 0,
            dropped,
            detail: format!("trace parse error: {e}"),
        },
    };
    (summary, jsonl)
}

/// One architecture's conformance verdict.
#[derive(Clone, Debug)]
pub struct ArchConformance {
    /// Architecture label.
    pub arch: String,
    /// The replay digest.
    pub summary: ConformanceSummary,
    /// The recorded trace (dump on failure).
    pub jsonl: String,
}

impl ArchConformance {
    /// One status line for console output.
    pub fn line(&self) -> String {
        let s = &self.summary;
        format!(
            "{:18} {:5}  events={:<6} matched={:<5} unmatched={:<4} dropped={}",
            self.arch,
            if s.ok { "OK" } else { "FAIL" },
            s.events,
            s.matched,
            s.unmatched,
            s.dropped,
        )
    }
}

fn finish(arch: &str, rt: &Runtime) -> ArchConformance {
    let (summary, jsonl) = check_runtime_trace(rt, false);
    ArchConformance { arch: arch.to_string(), summary, jsonl }
}

// ---------------------------------------------------------------------
// §5.1 snapshot (audited curl)
// ---------------------------------------------------------------------

/// A few audited downloads through the snapshot architecture.
pub fn conf_snapshot() -> ArchConformance {
    use csaw_arch::snapshot::{snapshot, SnapshotSpec};

    let spec = SnapshotSpec::default();
    let cp = csaw_core::compile(snapshot(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    let act = CurlApp::new(LinkModel::gigabit_scaled());
    let jobs = Arc::clone(&act.jobs);
    rt.bind_app("Act", Box::new(act));
    let aud = AuditorApp::new();
    let log = Arc::clone(&aud.log);
    rt.bind_app("Aud", Box::new(aud));
    rt.set_policy("Act", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();

    for i in 0..4u64 {
        jobs.lock().push((format!("http://files.example/{i}"), 32 * 1024));
        let _ = rt.invoke("Act", "junction");
    }
    wait_until(Duration::from_secs(5), || log.lock().len() >= 4);
    rt.shutdown();
    finish("snapshot", &rt)
}

// ---------------------------------------------------------------------
// §5.2 sharding
// ---------------------------------------------------------------------

/// A dozen key-hash-sharded commands.
pub fn conf_sharding() -> ArchConformance {
    use csaw_arch::sharding::{sharding, ShardingSpec};

    let n = 4;
    let spec = ShardingSpec { n_backends: n, ..Default::default() };
    let cp = csaw_core::compile(sharding(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    let front = ShardFrontApp::new(ShardMode::ByKey, n);
    let requests = Arc::clone(&front.requests);
    let replies = Arc::clone(&front.replies);
    rt.bind_app("Fnt", Box::new(front));
    for i in 1..=n {
        rt.bind_app(&format!("Bck{i}"), Box::new(ServerApp::new()));
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();

    let mut sent = 0usize;
    for i in 0..12u8 {
        requests.lock().push_back(Command::Set(format!("key{i}"), vec![i; 16]));
        if rt.invoke("Fnt", "junction").is_ok() {
            sent += 1;
        }
    }
    wait_until(Duration::from_secs(5), || replies.lock().len() >= sent);
    rt.shutdown();
    finish("sharding", &rt)
}

// ---------------------------------------------------------------------
// §5.3 parallel sharding
// ---------------------------------------------------------------------

/// Front app for the parallel-sharding run: `Choose` selects a fixed
/// subset of back-ends for the fan-out.
struct ParFront {
    subset: Vec<String>,
}

impl InstanceApp for ParFront {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "Choose" {
            let elems: Vec<csaw_core::names::SetElem> = self
                .subset
                .iter()
                .map(|s| csaw_core::names::SetElem::Instance(s.clone()))
                .collect();
            ctx.set_subset("tgt", elems)?;
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::Int(7))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// Back-end app: counts `Handle` calls.
struct CountingBack {
    handled: Arc<AtomicU64>,
}

impl InstanceApp for CountingBack {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "Handle" {
            self.handled.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::Int(0))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// A few subset fan-outs through the parallel-sharding architecture.
pub fn conf_parallel_sharding() -> ArchConformance {
    use csaw_arch::parallel_sharding::{parallel_sharding, ParallelShardingSpec};

    let spec = ParallelShardingSpec::default();
    let cp = csaw_core::compile(parallel_sharding(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    rt.bind_app("Fnt", Box::new(ParFront { subset: vec!["Bck1".into(), "Bck3".into()] }));
    let counters: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (i, c) in counters.iter().enumerate() {
        rt.bind_app(
            &format!("Bck{}", i + 1),
            Box::new(CountingBack { handled: Arc::clone(c) }),
        );
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();

    for round in 1..=3u64 {
        let _ = rt.invoke("Fnt", "junction");
        wait_until(Duration::from_secs(5), || {
            counters[0].load(Ordering::SeqCst) >= round
                && counters[2].load(Ordering::SeqCst) >= round
        });
    }
    rt.shutdown();
    finish("parallel_sharding", &rt)
}

// ---------------------------------------------------------------------
// §5.4 caching
// ---------------------------------------------------------------------

/// Writes then repeated reads through the caching architecture (both
/// hit and miss paths fire).
pub fn conf_caching() -> ArchConformance {
    use csaw_arch::caching::{caching, CachingSpec};

    let spec = CachingSpec::default();
    let cp = csaw_core::compile(caching(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    rt.set_tracing(true);
    let cache = CacheApp::new(64);
    let requests = Arc::clone(&cache.requests);
    let replies = Arc::clone(&cache.replies);
    rt.bind_app("Cache", Box::new(cache));
    rt.bind_app("Fun", Box::new(ServerApp::new()));
    rt.set_policy("Cache", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();

    let mut sent = 0usize;
    for i in 0..4u8 {
        requests.lock().push_back(Command::Set(format!("k{i}"), vec![i; 32]));
        if rt.invoke("Cache", "junction").is_ok() {
            sent += 1;
        }
    }
    for _ in 0..2 {
        for i in 0..4u8 {
            requests.lock().push_back(Command::Get(format!("k{i}")));
            if rt.invoke("Cache", "junction").is_ok() {
                sent += 1;
            }
        }
    }
    wait_until(Duration::from_secs(5), || replies.lock().len() >= sent);
    rt.shutdown();
    finish("caching", &rt)
}

// ---------------------------------------------------------------------
// Fail-over family via the chaos soaks
// ---------------------------------------------------------------------

/// A light chaos schedule for conformance runs: the stock faults but no
/// partition window to wait out, few requests, fast pacing.
fn light_schedule(seed: u64) -> ChaosSchedule {
    ChaosSchedule::acceptance(seed)
        .with_requests(24)
        .without_partition()
        .with_pace(Duration::from_millis(2))
        .with_conformance(true)
}

fn from_soak(outcome: SoakOutcome) -> ArchConformance {
    let summary = outcome
        .conformance
        .expect("soak ran with conformance enabled");
    ArchConformance {
        arch: outcome.arch,
        summary,
        jsonl: outcome.trace_jsonl.unwrap_or_default(),
    }
}

/// Run all seven catalogue architectures and collect their verdicts.
pub fn conformance_all(seed: u64) -> Vec<ArchConformance> {
    vec![
        conf_snapshot(),
        conf_sharding(),
        conf_parallel_sharding(),
        conf_caching(),
        from_soak(soak_failover(&light_schedule(seed))),
        from_soak(soak_watched(&light_schedule(seed))),
        from_soak(soak_checkpoint(&light_schedule(seed))),
    ]
}
