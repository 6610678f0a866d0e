//! What the harness reads from and asks of the operating system: thread
//! pinning, process CPU time, peak memory and the machine stamp.

use std::fs;

/// `cpu_set_t` as glibc declares it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    // std already links libc; these two are not exposed by std.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Where a workload's threads run. Part of the workload's definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pin {
    /// Every thread on CPU 0.
    OneCore,
    /// The client (main) thread on CPU 0, every other thread on CPU 1.
    TwoCore,
}

impl Pin {
    pub fn label(self) -> &'static str {
        match self {
            Pin::OneCore => "1core",
            Pin::TwoCore => "2core",
        }
    }
}

/// Threads of this process, main thread first.
fn thread_ids() -> Vec<i32> {
    let mut tids: Vec<i32> = fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    tids.sort_unstable();
    tids
}

fn set_affinity(tid: i32, set: &CpuSet) -> bool {
    // SAFETY: `set` is a live, fully initialised 128-byte mask and the
    // size passed is its size; the call only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// Pin every thread that exists now (threads spawned later inherit their
/// spawner's mask). Returns what was applied, for the stamp.
pub fn pin_threads(pin: Pin) -> String {
    let main = std::process::id() as i32;
    let (mut on0, mut on1, mut failed) = (0, 0, 0);
    for tid in thread_ids() {
        let cpu = usize::from(pin == Pin::TwoCore && tid != main);
        let mut set: CpuSet = [0; 16];
        set[0] = 1 << cpu;
        if !set_affinity(tid, &set) {
            failed += 1;
        } else if cpu == 0 {
            on0 += 1;
        } else {
            on1 += 1;
        }
    }
    format!("{}: cpu0={on0} cpu1={on1} failed={failed}", pin.label())
}

/// Let every thread run on any CPU again.
pub fn unpin_threads() {
    for tid in thread_ids() {
        set_affinity(tid, &[u64::MAX; 16]);
    }
}

/// CPU time of all live threads, user + system, in µs.
pub fn cpu_time_us() -> f64 {
    let ns: u64 = thread_ids()
        .iter()
        .filter_map(|tid| {
            let s = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
            s.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    ns as f64 / 1e3
}

/// Resident set of the process now (`VmRSS`), in MiB; 0 when unreadable.
pub fn rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmRSS:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on. Read before pinning narrows it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().into())
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a repository (the driver's checkout is not one).
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
