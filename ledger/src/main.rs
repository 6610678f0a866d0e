//! `ledger` — the repo's benchmark: what a request through a C-Saw
//! architecture costs, end to end and layer by layer. See `README.md`
//! beside this package for the definitions.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ledger --all [--seed <n>] [--seconds <s>]
//! ledger compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints two JSON lines on stdout — a stamp (machine, seed,
//! pinning, run lengths, sample counts), then the result — and a table
//! for people on stderr. It writes nothing else unless `--trace-out`
//! names a file.

mod compare;
mod json;
mod layers;
mod span;
mod stats;
mod sys;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use stats::median_u64;
use workloads::{Arch, Def, Rig, Segment, WORKLOADS};

/// The system allocator, counting calls and bytes while armed (only
/// during one short stretch of the per-layer run).
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// End-to-end metrics: `(name, unit)`, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("cpu_us_per_req", "us"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("core.compile_ms", "ms"),
    ("core.diff_us", "us"),
    ("kv.deliver_ns", "ns"),
    ("kv.deliver_pending_ns", "ns"),
    ("kv.set_local_ns", "ns"),
    ("kv.export_state_us", "us"),
    ("serial.encode_ns", "ns"),
    ("serial.decode_ns", "ns"),
    ("serial.snapshot_ms", "ms"),
    ("serial.restore_ms", "ms"),
    ("serial.snapshot_bytes", "bytes"),
    ("transport.send_ns", "ns"),
    ("transport.send_batch_ns", "ns"),
    ("transport.msgs_per_req", "count"),
    ("transport.wire_bytes_per_req", "bytes"),
    ("transport.fast_path_ratio", "ratio"),
    ("transport.retries", "count"),
    ("transport.deduped", "count"),
    ("transport.shed", "count"),
    ("transport.queue_full", "count"),
    ("interp.noop_invoke_ns", "ns"),
    ("interp.local_pass_ns", "ns"),
    ("runtime.ingress_ns", "ns"),
    ("runtime.fwd_leg_ns", "ns"),
    ("runtime.rev_leg_ns", "ns"),
    ("runtime.egress_ns", "ns"),
    ("runtime.pass_gap_ns", "ns"),
    ("runtime.activations_per_req", "count"),
    ("runtime.allocs_per_req", "count"),
    ("runtime.alloc_bytes_per_req", "bytes"),
    ("trace.record_ns", "ns"),
    ("trace.events_per_req", "count"),
    ("trace.on_ratio", "ratio"),
    ("redis.execute_ns", "ns"),
    ("redis.host_ns", "ns"),
    ("redis.overhead_x", "x"),
    ("redis.direct_req_ns", "ns"),
    ("redis.vs_direct_x", "x"),
    ("redis.cache_hit_ratio", "ratio"),
    ("redis.checkpoints_per_s", "1/s"),
    ("ledger.attributed_ns", "ns"),
    ("ledger.unattributed_ns", "ns"),
    ("bench.traced_p50_us", "us"),
    ("bench.lat_p99_us", "us"),
    ("bench.lat_p999_us", "us"),
    ("bench.lat_max_us", "us"),
    ("bench.slow_ratio", "ratio"),
    ("bench.stall_ms_per_s", "ms/s"),
    ("bench.fail_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.samples", "count"),
    ("bench.spans", "count"),
];

/// A request slower than this counts as a stall.
const STALL_NS: u64 = 1_000_000;
/// An end-to-end run, once it has measured, sets up again and again for
/// this long, at least [`MIN_SETUPS`] and at most [`MAX_SETUPS`] times in
/// all; `setup_s` is the median. A set-up takes 2 to 40 ms, so a handful
/// would all fall into one disturbance from outside the process.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 101;

/// What one run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Stamp fields specific to the run: `(key, JSON value)`.
    pub stamp: Vec<(&'static str, String)>,
}

/// Whether the workload's checks beyond the replies passed; says why not.
fn final_check_passed(rig: &Rig) -> bool {
    rig.final_check()
        .inspect_err(|e| eprintln!("ledger: final check failed: {e}"))
        .is_ok()
}

fn warm_up_seconds(seconds: f64) -> f64 {
    (seconds * 0.15).min(3.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end run: tracing off; set up, warm up, pin, measure for
/// `seconds`, then the repeated set-ups.
fn run_end_to_end(def: &'static Def, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut rig = Rig::set_up(def, seed)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let warm = rig.run(warm_up_seconds(seconds));
    let pinned = sys::pin_threads(def.pin);
    let seg = rig.run(seconds);
    let checked = final_check_passed(&rig);
    drop(rig);

    // The repeated set-ups come after the measured stretch: before it,
    // they leave the heap in a state that differs from run to run
    // (`checkpoint_bg` then reads 84 to 114 MiB resident; from a fresh
    // process 71.6 ± 0.2).
    sys::unpin_threads();
    let began = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let rig = Rig::set_up(def, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(rig);
    }

    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("req_per_s", seg.req_per_s()),
        ("lat_p50_us", seg.median_of(|w| us(w.p50_ns))),
        (
            "cpu_us_per_req",
            seg.median_of(|w| ratio(w.cpu_us, w.verified as f64)),
        ),
        (
            "rss_mb",
            seg.windows.iter().map(|w| w.rss_mib).sum::<f64>() / seg.windows.len() as f64,
        ),
    ];
    Ok(Outcome {
        correct: seg.failed == 0 && warm.failed == 0 && checked,
        attempted: seg.attempted,
        failed: seg.failed,
        metrics,
        stamp: vec![
            ("pinning", json::quote(&pinned)),
            ("setups", setup_s.len().to_string()),
            ("warm_up_s", json::number(warm.seconds)),
            ("measured_s", json::number(seg.seconds)),
            ("samples", seg.lat.count().to_string()),
        ],
    })
}

/// Tail and failure figures of a segment, under `bench.*`.
fn bench_rows(seg: &mut Segment, out: &mut Vec<(&'static str, f64)>) {
    let (slow, slow_ns) = seg.lat.slower_than(STALL_NS);
    out.push(("bench.lat_p99_us", seg.median_of(|w| us(w.p99_ns))));
    out.push(("bench.lat_p999_us", us(seg.lat.percentile(0.999))));
    out.push(("bench.lat_max_us", us(seg.lat.max())));
    out.push((
        "bench.slow_ratio",
        ratio(slow as f64, seg.lat.count() as f64),
    ));
    out.push(("bench.stall_ms_per_s", slow_ns as f64 / 1e6 / seg.seconds));
    out.push((
        "bench.fail_ratio",
        ratio(seg.failed as f64, seg.attempted as f64),
    ));
    out.push(("bench.samples", seg.lat.count() as f64));
}

/// The per-layer run: one set-up, then a traced stretch (spans on), a
/// short one under the counting allocator, an untraced one, one with the
/// runtime's own tracer on, and the isolated calls of [`layers`].
fn run_per_layer(
    def: &'static Def,
    seed: u64,
    seconds: f64,
    trace_out: Option<&str>,
) -> Result<Outcome, String> {
    let mut rig = Rig::set_up(def, seed)?;
    let warm = rig.run(warm_up_seconds(seconds));
    let pinned = sys::pin_threads(def.pin);

    // traced stretch
    let (msgs0, bytes0, links0) = (
        rig.rt.messages_sent(),
        rig.rt.bytes_sent(),
        rig.rt.link_stats(),
    );
    let (acts0, (hits0, misses0)) = (rig.activations(), rig.cache_counts());
    span::set_recording(
        true,
        ((warm.req_per_s() * seconds * 0.35 * 8.0) as usize).min(8 << 20),
    );
    let mut traced = rig.run(seconds * 0.35);
    span::set_recording(false, 0);
    let links = rig.rt.link_stats();
    let reqs = traced.attempted as f64;
    let msgs = (rig.rt.messages_sent() - msgs0) as f64;
    let wire_bytes = (rig.rt.bytes_sent() - bytes0) as f64;
    let activations = (rig.activations() - acts0) as f64;
    let (hits, misses) = rig.cache_counts();
    let spans = span::take();
    let shape = span::analyse(&spans, def.front());
    let checkpoint_span = span::intern("Prim.save(state)");
    let checkpoints = spans.iter().filter(|s| s.name == checkpoint_span).count();

    // A short stretch of its own for the counting allocator: two atomic
    // adds per allocation would otherwise stretch the spans above.
    ALLOCS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    let counted = rig.run(seconds * 0.05);
    ARMED.store(false, Ordering::SeqCst);
    let (allocs, alloc_bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );

    // untraced stretch: the base of both overhead ratios and of `bench.*`
    let mut plain = rig.run(seconds * 0.25);

    // the runtime's own tracer
    rig.rt.set_tracing(true);
    let tracer_on = rig.run(seconds * 0.15);
    let events = rig.rt.trace_events().len() as u64 + rig.rt.trace_dropped();
    rig.rt.set_tracing(false);
    let checked = final_check_passed(&rig);
    rig.rt.shutdown();

    let mut m = layers::measure(def, seed);
    let isolated = |name: &str| m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let (execute_ns, direct_ns) = (
        isolated("redis.execute_ns"),
        isolated("redis.direct_req_ns"),
    );
    let per_msg = isolated("transport.send_ns")
        + isolated("kv.deliver_ns")
        + isolated("kv.deliver_pending_ns");

    let traced_p50 = traced.lat.percentile(0.5) as f64;
    let plain_p50 = plain.lat.percentile(0.5) as f64;
    // `checkpoint_bg` requests make no host call: the request is the
    // bare execute, which the isolated call prices.
    let host_ns = if def.arch == Arch::Checkpoint {
        execute_ns
    } else {
        median_u64(&shape.host)
    };
    let attributed = host_ns + ratio(msgs, reqs) * per_msg;

    m.extend([
        ("transport.msgs_per_req", ratio(msgs, reqs)),
        ("transport.wire_bytes_per_req", ratio(wire_bytes, reqs)),
        (
            "transport.fast_path_ratio",
            ratio((links.fast_path - links0.fast_path) as f64, msgs),
        ),
        ("transport.retries", (links.retries - links0.retries) as f64),
        ("transport.deduped", (links.deduped - links0.deduped) as f64),
        ("transport.shed", (links.shed - links0.shed) as f64),
        (
            "transport.queue_full",
            (links.queue_full - links0.queue_full) as f64,
        ),
        ("interp.local_pass_ns", median_u64(&shape.local_pass)),
        ("runtime.ingress_ns", median_u64(&shape.ingress)),
        ("runtime.fwd_leg_ns", median_u64(&shape.fwd)),
        ("runtime.rev_leg_ns", median_u64(&shape.rev)),
        ("runtime.egress_ns", median_u64(&shape.egress)),
        ("runtime.pass_gap_ns", median_u64(&shape.pass)),
        ("runtime.activations_per_req", ratio(activations, reqs)),
        (
            "runtime.allocs_per_req",
            ratio(allocs as f64, counted.attempted as f64),
        ),
        (
            "runtime.alloc_bytes_per_req",
            ratio(alloc_bytes as f64, counted.attempted as f64),
        ),
        (
            "trace.events_per_req",
            ratio(events as f64, tracer_on.attempted as f64),
        ),
        (
            "trace.on_ratio",
            ratio(tracer_on.req_per_s(), plain.req_per_s()),
        ),
        ("redis.host_ns", host_ns),
        ("redis.overhead_x", ratio(plain_p50, execute_ns)),
        ("redis.vs_direct_x", ratio(plain_p50, direct_ns)),
        (
            "redis.cache_hit_ratio",
            ratio(
                (hits - hits0) as f64,
                (hits - hits0 + misses - misses0) as f64,
            ),
        ),
        (
            "redis.checkpoints_per_s",
            checkpoints as f64 / traced.seconds,
        ),
        ("ledger.attributed_ns", attributed),
        ("ledger.unattributed_ns", traced_p50 - attributed),
        ("bench.traced_p50_us", traced_p50 / 1e3),
        (
            "bench.trace_overhead_ratio",
            ratio(plain.req_per_s(), traced.req_per_s()),
        ),
        ("bench.spans", spans.len() as f64),
    ]);
    bench_rows(&mut plain, &mut m);

    if let Some(path) = trace_out {
        let all: Vec<span::Span> = spans.iter().chain(&shape.derived).copied().collect();
        span::write_jsonl(path, &all, &span::names())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let (attempted, failed) = (
        warm.attempted
            + traced.attempted
            + counted.attempted
            + plain.attempted
            + tracer_on.attempted,
        warm.failed + traced.failed + counted.failed + plain.failed + tracer_on.failed,
    );
    Ok(Outcome {
        correct: failed == 0 && checked,
        attempted,
        failed,
        metrics: m,
        stamp: vec![
            ("pinning", json::quote(&pinned)),
            ("traced_s", json::number(traced.seconds)),
            ("untraced_s", json::number(plain.seconds)),
            ("tracer_on_s", json::number(tracer_on.seconds)),
            ("samples", plain.lat.count().to_string()),
            ("traced_samples", traced.lat.count().to_string()),
        ],
    })
}

/// One run of one workload, as the driver asks for it.
pub fn run(
    def: &'static Def,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&str>,
) -> Result<Outcome, String> {
    if def.pin == sys::Pin::TwoCore && sys::nproc() < 2 {
        return Err(format!(
            "{} needs two CPUs, this process may use {}",
            def.name,
            sys::nproc()
        ));
    }
    if trace {
        run_per_layer(def, seed, seconds, trace_out)
    } else {
        run_end_to_end(def, seed, seconds)
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The two stdout lines of a run, and the table on stderr.
fn report(def: &Def, seed: u64, seconds: f64, trace: bool, nproc: usize, out: &Outcome) {
    let mut stamp = vec![
        ("workload", json::quote(def.name)),
        ("trace", u8::from(trace).to_string()),
        ("seed", seed.to_string()),
        ("seconds", json::number(seconds)),
        ("loop", json::quote("closed, 1 client")),
        ("nproc", nproc.to_string()),
        ("profile", json::quote(sys::profile())),
        ("commit", json::quote(&sys::commit())),
        ("kernel", json::quote(&sys::kernel())),
    ];
    stamp.extend(out.stamp.iter().cloned());
    let fields: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::quote(k)))
        .collect();
    println!("{{\"stamp\":{{{}}}}}", fields.join(","));

    eprintln!(
        "{} (trace {}, seed {seed}, {seconds} s)",
        def.name,
        u8::from(trace)
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name);
            eprintln!("  {name:<32} {value:>16.4} {unit}");
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    eprintln!(
        "  attempted {}, failed {}, correct {}",
        out.attempted, out.failed, out.correct
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

/// Every workload, end to end and per layer, each in a process of its
/// own so that one workload's pinning and memory do not reach the next.
fn run_all(seed: u64, seconds: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let nproc = sys::nproc();
    for def in &WORKLOADS {
        if def.pin == sys::Pin::TwoCore && nproc < 2 {
            eprintln!(
                "{}: skipped, needs two CPUs and this process may use {nproc}",
                def.name
            );
            continue;
        }
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", def.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .status()
                .map_err(|e| format!("starting {}: {e}", def.name))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) exited with {status}", def.name));
            }
        }
    }
    Ok(())
}

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 42,
        seconds: 20.0,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => a.all = true,
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let a = parse_args(&args)?;
    if a.all {
        return run_all(a.seed, a.seconds).map(|()| true);
    }
    let name = a
        .workload
        .ok_or("give --workload <name>, --all, or `compare A B`")?;
    let def = workloads::find(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })?;
    let nproc = sys::nproc();
    let out = run(def, a.seed, a.seconds, a.trace, a.trace_out.as_deref())?;
    report(def, a.seed, a.seconds, a.trace, nproc, &out);
    Ok(out.correct)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("valid JSON")
    }

    fn listed(doc: &Json, key: &str, field: &str) -> Vec<String> {
        doc.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|e| {
                e.get(field)
                    .and_then(Json::as_str)
                    .expect(field)
                    .to_string()
            })
            .collect()
    }

    fn well_named(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_named(name), "metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "unit of {name}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {name}"
            );
        }
        for def in &WORKLOADS {
            assert!(well_named(def.name), "workload name {}", def.name);
            assert!(
                def.why.len() <= 200 && !def.why.contains('\n'),
                "why of {}",
                def.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_ledger_defines() {
        let doc = benchmark_json();
        let ours = |list: &[(&str, &str)], field: usize| -> Vec<String> {
            list.iter().map(|e| [e.0, e.1][field].to_string()).collect()
        };
        assert_eq!(listed(&doc, "end_to_end", "name"), ours(&END_TO_END, 0));
        assert_eq!(listed(&doc, "end_to_end", "unit"), ours(&END_TO_END, 1));
        assert_eq!(listed(&doc, "per_layer", "name"), ours(&PER_LAYER, 0));
        assert_eq!(listed(&doc, "per_layer", "unit"), ours(&PER_LAYER, 1));
        let gating = || WORKLOADS.iter().filter(|d| d.listed);
        assert_eq!(
            listed(&doc, "workloads", "name"),
            gating().map(|d| d.name.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(
            listed(&doc, "workloads", "why"),
            gating().map(|d| d.why.to_string()).collect::<Vec<_>>()
        );
    }

    /// A short run of the cheapest workload in both modes emits exactly
    /// the listed names, each once, and verifies every reply.
    #[test]
    fn smoke_run_emits_exactly_the_listed_names() {
        let def = workloads::find("cache_hot").unwrap();
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = run(def, 7, 0.2, trace, None).expect("smoke run");
            assert!(out.correct && out.failed == 0 && out.attempted > 0);
            let mut got: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
            let mut want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "trace = {trace}");
        }
    }
}
