//! Drivers the wall-clock benches share: the closed-loop request
//! driver and its workload, the lost-acked-write count, the two
//! checkpoint-architecture apps, and the polling/smoke helpers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_core::value::Value;
use csaw_runtime::{HostCtx, InstanceApp, Runtime};
use mini_redis::{Command, Store};
use parking_lot::Mutex;

/// The front-end `wait` deadline the traffic-driven benches boot with.
pub(crate) const FRONT_TIMEOUT: Duration = Duration::from_millis(400);
/// How long a single request may retry (through a reconfiguration hold
/// or a repair window) before it counts as refused.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Whether a bench's `CSAW_*_SMOKE` variable asks for compressed
/// traffic windows: set, to anything but `0`.
pub fn smoke_requested(var: &str) -> bool {
    std::env::var(var).is_ok_and(|v| v != "0")
}

/// Poll `f` every millisecond until it holds or `timeout` passes.
pub(crate) fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// Deterministic workload: a small hot set written once up front, then
/// unique-key SETs interleaved with hot GETs. Unique SET keys make
/// retries idempotent (a late-landing duplicate can never clobber a
/// newer acknowledged value), and the hot GETs give a caching tier
/// something to memoize.
pub(crate) fn command_for(i: usize) -> Command {
    if i < 8 {
        Command::Set(format!("hot{i}"), format!("hv{i}").into_bytes())
    } else if i.is_multiple_of(3) {
        Command::Get(format!("hot{}", i % 8))
    } else {
        Command::Set(format!("k{i}"), format!("v{i}").into_bytes())
    }
}

/// What a driver thread observed.
#[derive(Debug, Default)]
pub(crate) struct DriveStats {
    pub(crate) sent: usize,
    pub(crate) acked: usize,
    pub(crate) retried: usize,
    pub(crate) refused: usize,
    pub(crate) acked_sets: Vec<(String, Vec<u8>)>,
}

/// Drive one command to completion: (re)queue it, invoke the front-end,
/// and only count it acknowledged once a reply actually lands. Failed
/// or reply-less attempts retry until [`REQUEST_DEADLINE`] — the
/// retries are what carry a request across a reconfiguration hold or a
/// detection + repair window, onto whatever topology resumes.
pub(crate) fn drive_one<F: Fn() -> usize>(
    rt: &Runtime,
    target: (&str, &str),
    requests: &Arc<Mutex<VecDeque<Command>>>,
    replies_len: F,
    cmd: &Command,
    stats: &mut DriveStats,
) {
    stats.sent += 1;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut first = true;
    loop {
        if Instant::now() >= deadline {
            stats.refused += 1;
            requests.lock().clear();
            return;
        }
        if !first {
            stats.retried += 1;
        }
        first = false;
        {
            let mut q = requests.lock();
            if q.is_empty() {
                q.push_back(cmd.clone());
            }
        }
        let before = replies_len();
        let invoked = rt.invoke(target.0, target.1).is_ok();
        if invoked && wait_until(Duration::from_millis(400), || replies_len() > before) {
            stats.acked += 1;
            if let Command::Set(k, v) = cmd {
                stats.acked_sets.push((k.clone(), v.clone()));
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Acked SETs with no home in any store afterwards — the lost-write
/// count, which must be zero.
pub(crate) fn lost_acked_sets(
    acked: &[(String, Vec<u8>)],
    stores: &[Arc<Mutex<Store>>],
) -> usize {
    acked
        .iter()
        .filter(|(k, v)| !stores.iter().any(|s| s.lock().get(k) == Some(v.as_slice())))
        .count()
}

/// Counter app for the §10.1 checkpoint architecture's primary: every
/// `save("state")` records what was checkpointed, so recovery can be
/// validated against the set of states that were actually captured.
pub(crate) struct CounterApp {
    pub(crate) counter: Arc<AtomicU64>,
    pub(crate) checkpointed: Arc<Mutex<Vec<i64>>>,
    pub(crate) recovered: Arc<Mutex<Option<i64>>>,
}

impl InstanceApp for CounterApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        let v = self.counter.load(Ordering::SeqCst) as i64;
        self.checkpointed.lock().push(v);
        Ok(Value::Int(v))
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        let v = value.as_int().ok_or("bad checkpoint")?;
        self.counter.store(v as u64, Ordering::SeqCst);
        *self.recovered.lock() = Some(v);
        Ok(())
    }
}

/// Blob store app: keeps the latest checkpoint value.
pub(crate) struct BlobStoreApp {
    pub(crate) latest: Arc<Mutex<Option<Value>>>,
}

impl InstanceApp for BlobStoreApp {
    fn host_call(&mut self, _name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        self.latest.lock().clone().ok_or("no checkpoint stored".into())
    }
    fn restore(&mut self, _key: &str, value: &Value) -> Result<(), String> {
        *self.latest.lock() = Some(value.clone());
        Ok(())
    }
}
