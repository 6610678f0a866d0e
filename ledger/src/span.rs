//! Spans recorded from outside the program: the client's root `request`
//! span, and one span per host-side call (`host_call`/`save`/`restore`)
//! made by the runtime into a [`Spanned`] app. Host code is the
//! benchmark's side of the `⌊H⌉{V}` contract, so these are the only
//! boundaries visible without editing the runtime; everything between
//! two host spans is derived at analysis time as a gap (a leg between
//! instances, or interpretation inside one).
//!
//! The loop is closed with one client, so at most one request is in
//! flight and "the current request" is a process-wide value.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use csaw_core::value::Value;
use csaw_runtime::{HostCtx, InstanceApp};

/// One recorded interval. `parent` and `request` are 0 for work no
/// request caused (periodic checkpoints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: u16,
    pub thread: u16,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    on: AtomicBool,
    request: AtomicU32,
    root: AtomicU32,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    spans: Mutex<Vec<Span>>,
    names: Mutex<Vec<String>>,
}

static REC: Recorder = Recorder {
    on: AtomicBool::new(false),
    request: AtomicU32::new(0),
    root: AtomicU32::new(0),
    next_id: AtomicU32::new(1),
    next_thread: AtomicU32::new(0),
    spans: Mutex::new(Vec::new()),
    names: Mutex::new(Vec::new()),
};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_no() -> u16 {
    thread_local! {
        static NO: u16 = REC.next_thread.fetch_add(1, Ordering::Relaxed) as u16;
    }
    NO.with(|n| *n)
}

/// Id of a span name, interning it on first sight. [`ROOT`] is always 0,
/// so the client's hot path takes no lock for it.
pub fn intern(name: &str) -> u16 {
    if name == ROOT {
        return ROOT_ID;
    }
    let mut names = REC.names.lock().expect("span names lock poisoned");
    match names.iter().position(|n| n == name) {
        Some(i) => i as u16 + 1,
        None => {
            names.push(name.to_string());
            names.len() as u16
        }
    }
}

/// Switch recording; switching on reserves room so that pushes do not
/// reallocate inside the run.
pub fn set_recording(on: bool, reserve: usize) {
    if on {
        REC.spans
            .lock()
            .expect("span lock poisoned")
            .reserve(reserve);
    }
    REC.on.store(on, Ordering::SeqCst);
}

fn push(span: Span) {
    REC.spans.lock().expect("span lock poisoned").push(span);
}

/// The client opens a request: host spans recorded until
/// [`end_request`] carry its id and name its root span as parent.
pub fn begin_request(request: u32) {
    if REC.on.load(Ordering::Relaxed) {
        REC.request.store(request, Ordering::Relaxed);
        REC.root.store(
            REC.next_id.fetch_add(1, Ordering::Relaxed),
            Ordering::SeqCst,
        );
    }
}

/// The client closes the request opened by [`begin_request`].
pub fn end_request(start: u64, end: u64) {
    let root = REC.root.swap(0, Ordering::SeqCst);
    if root != 0 {
        let request = REC.request.swap(0, Ordering::Relaxed);
        push(Span {
            id: root,
            parent: 0,
            request,
            name: ROOT_ID,
            thread: thread_no(),
            start,
            end,
        });
    }
}

/// A root span for a request that never enters the runtime
/// (`checkpoint_bg`'s foreground): recorded after the fact, never
/// published as current, so concurrent background spans stay parentless.
pub fn record_root(request: u32, start: u64, end: u64) {
    if REC.on.load(Ordering::Relaxed) {
        let id = REC.next_id.fetch_add(1, Ordering::Relaxed);
        push(Span {
            id,
            parent: 0,
            request,
            name: ROOT_ID,
            thread: thread_no(),
            start,
            end,
        });
    }
}

/// Everything recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *REC.spans.lock().expect("span lock poisoned"))
}

/// The table that span names index.
pub fn names() -> Vec<String> {
    let rest = REC.names.lock().expect("span names lock poisoned");
    std::iter::once(ROOT.to_string())
        .chain(rest.iter().cloned())
        .collect()
}

pub const ROOT: &str = "request";
const ROOT_ID: u16 = 0;

/// Decorator recording a span around every call the runtime makes into
/// the wrapped app. Names read `Instance.kind(arg)`.
pub struct Spanned<A> {
    inner: A,
    instance: String,
    /// Names this app has used, so the hot path takes no lock.
    seen: Vec<(&'static str, String, u16)>,
}

impl<A: InstanceApp> Spanned<A> {
    pub fn new(instance: &str, inner: A) -> Spanned<A> {
        Spanned {
            inner,
            instance: instance.to_string(),
            seen: Vec::new(),
        }
    }

    fn name(&mut self, kind: &'static str, arg: &str) -> u16 {
        if let Some((_, _, id)) = self.seen.iter().find(|(k, a, _)| *k == kind && a == arg) {
            return *id;
        }
        let id = intern(&format!("{}.{kind}({arg})", self.instance));
        self.seen.push((kind, arg.to_string(), id));
        id
    }

    fn spanned<T>(&mut self, kind: &'static str, arg: &str, call: impl FnOnce(&mut A) -> T) -> T {
        if !REC.on.load(Ordering::Relaxed) {
            return call(&mut self.inner);
        }
        let parent = REC.root.load(Ordering::SeqCst);
        let request = if parent == 0 {
            0
        } else {
            REC.request.load(Ordering::Relaxed)
        };
        let start = now_ns();
        let out = call(&mut self.inner);
        let end = now_ns();
        let id = REC.next_id.fetch_add(1, Ordering::Relaxed);
        let name = self.name(kind, arg);
        push(Span {
            id,
            parent,
            request,
            name,
            thread: thread_no(),
            start,
            end,
        });
        out
    }
}

impl<A: InstanceApp> InstanceApp for Spanned<A> {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        self.spanned("host_call", name, |app| app.host_call(name, ctx))
    }
    fn save(&mut self, key: &str) -> Result<Value, String> {
        self.spanned("save", key, |app| app.save(key))
    }
    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        self.spanned("restore", key, |app| app.restore(key, value))
    }
    fn on_start(&mut self) {
        self.inner.on_start()
    }
    fn on_stop(&mut self) {
        self.inner.on_stop()
    }
    fn sim_digest(&self) -> u64 {
        self.inner.sim_digest()
    }
}

/// A span's duration minus the part of it its children cover. Children
/// are clipped to the parent and must not overlap each other (one
/// request in flight, host calls do not nest).
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let covered: u64 = children
        .iter()
        .map(|c| {
            c.end
                .min(parent.end)
                .saturating_sub(c.start.max(parent.start))
        })
        .sum();
    parent.duration().saturating_sub(covered)
}

/// Names of the derived gap spans.
pub const INGRESS: &str = "leg.ingress";
pub const FWD: &str = "leg.fwd";
pub const REV: &str = "leg.rev";
pub const EGRESS: &str = "leg.egress";
pub const PASS: &str = "gap.pass";

/// Per-request series (ns) from one traced run. Each request's time is
/// partitioned into host spans, four legs and the remaining gaps:
/// `total = host + ingress + fwd + rev + egress + pass`.
#[derive(Default)]
pub struct Breakdown {
    pub total: Vec<u64>,
    /// Σ host spans (root duration − root self time).
    pub host: Vec<u64>,
    /// `invoke` entry → first host call of the front instance.
    pub ingress: Vec<u64>,
    /// Last front span before a hand-off → first span of the other instance.
    pub fwd: Vec<u64>,
    /// Last span of the other instance → next front span.
    pub rev: Vec<u64>,
    /// Last front span → `invoke` return.
    pub egress: Vec<u64>,
    /// Gaps between consecutive spans of one instance: interpretation
    /// between host calls, including any `wait`.
    pub pass: Vec<u64>,
    /// Root self time of requests that never left the front instance.
    pub local_pass: Vec<u64>,
    /// The gaps as spans (parent = the root), for the write-out.
    pub derived: Vec<Span>,
}

/// Partition every request of a traced run. `front` is the instance the
/// client invokes; every other instance is "the other side".
pub fn analyse(spans: &[Span], front: &str) -> Breakdown {
    let gap_names = [INGRESS, FWD, REV, EGRESS, PASS].map(intern);
    let is_front: Vec<bool> = names()
        .iter()
        .map(|n| n.split('.').next() == Some(front))
        .collect();

    let mut by_parent: Vec<&Span> = spans.iter().filter(|s| s.parent != 0).collect();
    by_parent.sort_by_key(|s| (s.parent, s.start));
    let mut out = Breakdown::default();
    let mut children: Vec<Span> = Vec::new();
    for root in spans.iter().filter(|s| s.name == ROOT_ID) {
        let lo = by_parent.partition_point(|s| s.parent < root.id);
        let hi = by_parent.partition_point(|s| s.parent <= root.id);
        children.clear();
        children.extend(by_parent[lo..hi].iter().map(|s| **s));

        let mut gaps = [0u64; 5];
        let mut crossed = false;
        // (end, on the front instance) of the previous span; the client
        // hands to the front instance, so it counts as "front" for legs.
        let mut prev: Option<(u64, bool)> = None;
        for c in &children {
            let front_now = is_front[c.name as usize];
            let (from, kind) = match prev {
                None => (root.start, 0),
                Some((end, true)) if !front_now => (end, 1),
                Some((end, false)) if front_now => (end, 2),
                Some((end, _)) => (end, 4),
            };
            crossed |= kind == 1;
            gaps[kind] += c.start.saturating_sub(from);
            out.derived
                .push(gap_span(root, gap_names[kind], from, c.start));
            prev = Some((c.end, front_now));
        }
        if let Some((end, _)) = prev {
            gaps[3] = root.end.saturating_sub(end);
            out.derived
                .push(gap_span(root, gap_names[3], end, root.end));
        }
        let own = self_time(root, &children);
        out.total.push(root.duration());
        out.host.push(root.duration() - own);
        if !children.is_empty() {
            out.ingress.push(gaps[0]);
            out.egress.push(gaps[3]);
            out.pass.push(gaps[4]);
            if crossed {
                out.fwd.push(gaps[1]);
                out.rev.push(gaps[2]);
            } else {
                out.local_pass.push(own);
            }
        }
    }
    out
}

fn gap_span(root: &Span, name: u16, start: u64, end: u64) -> Span {
    Span {
        id: 0,
        parent: root.id,
        request: root.request,
        name,
        thread: root.thread,
        start,
        end: end.max(start),
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &str, spans: &[Span], names: &[String]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, names[s.name as usize], s.thread, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: u16, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_clipped_children() {
        let parent = span(1, 0, 0, 100, 200);
        let inside = span(2, 1, 1, 110, 130);
        let straddling = span(3, 1, 1, 190, 260);
        let outside = span(4, 1, 1, 300, 400);
        assert_eq!(self_time(&parent, &[]), 100);
        assert_eq!(self_time(&parent, &[inside]), 80);
        assert_eq!(self_time(&parent, &[inside, straddling, outside]), 70);
    }

    #[test]
    fn request_time_is_partitioned_into_host_legs_and_gaps() {
        let id = [
            ROOT,
            "Fnt.host_call(Choose)",
            "Fnt.save(n)",
            "Bck2.restore(n)",
            "Bck2.save(m)",
            "Fnt.restore(m)",
        ]
        .map(intern);
        let spans = vec![
            span(10, 0, id[0], 1000, 2000),
            span(11, 10, id[1], 1050, 1100), // ingress 50
            span(12, 10, id[2], 1120, 1150), // pass 20
            span(13, 10, id[3], 1400, 1450), // fwd 250
            span(14, 10, id[4], 1500, 1540), // pass 50
            span(15, 10, id[5], 1800, 1830), // rev 260, egress 170
            // a purely local request
            span(20, 0, id[0], 3000, 3100),
            span(21, 20, id[1], 3010, 3030),
            span(22, 20, id[2], 3040, 3060),
        ];
        let b = analyse(&spans, "Fnt");
        assert_eq!(b.total, vec![1000, 100]);
        assert_eq!(b.host, vec![50 + 30 + 50 + 40 + 30, 40]);
        assert_eq!(b.ingress, vec![50, 10]);
        assert_eq!(b.fwd, vec![250]);
        assert_eq!(b.rev, vec![260]);
        assert_eq!(b.egress, vec![170, 40]);
        assert_eq!(b.pass, vec![70, 10]);
        assert_eq!(b.local_pass, vec![60]);
        let first = b.host[0] + b.ingress[0] + b.fwd[0] + b.rev[0] + b.egress[0] + b.pass[0];
        assert_eq!(first, b.total[0]);
    }
}
