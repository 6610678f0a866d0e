//! cURL experiments: Figs. 25a/25b (small files + overhead %) and 26a
//! (large files) of §10.3.
//!
//! The paper "generated two binaries: for the local and remote instances"
//! and measured download time (i) unmodified, (ii) with both binaries in
//! the same VM, (iii) across VMs over 1GbE. Here the locality contrast
//! maps onto transports: in-process channel vs a real TCP loopback
//! socket between the `Act` and `Aud` instances.

use std::sync::Arc;
use std::time::Duration;

use csaw_arch::snapshot::{snapshot, SnapshotSpec};
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{LinkKind, Runtime, RuntimeConfig};
use mini_curl::apps::{AuditorApp, CurlApp};
use mini_curl::LinkModel;
use mini_redis::metrics::mean_std;

use crate::report::Report;

/// One measured configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// Unmodified client.
    Original,
    /// Audited, auditor co-located (Direct channel).
    SameVm,
    /// Audited, auditor across a TCP loopback socket.
    CrossVm,
}

impl Config {
    fn label(self) -> &'static str {
        match self {
            Config::Original => "Original",
            Config::SameVm => "Same VM",
            Config::CrossVm => "Cross VMs",
        }
    }
}

/// Time one download of `size` bytes under a configuration. Returns
/// seconds.
fn timed_download(config: Config, size: u64, link: LinkModel) -> f64 {
    match config {
        Config::Original => {
            let mut client = mini_curl::Client::new(link);
            client
                .download("http://files.example/x", size, |_| {})
                .as_secs_f64()
        }
        Config::SameVm | Config::CrossVm => {
            let spec = SnapshotSpec::default();
            let cp = csaw_core::compile(snapshot(&spec), &LoadConfig::new()).unwrap();
            let rt = Runtime::new(&cp, RuntimeConfig::default());
            if config == Config::CrossVm {
                rt.set_link("Act", "Aud", LinkKind::Tcp);
                rt.set_link("Aud", "Act", LinkKind::Tcp);
            }
            let act = CurlApp::new(link);
            let jobs = Arc::clone(&act.jobs);
            rt.bind_app("Act", Box::new(act));
            let aud = AuditorApp::new();
            let log = Arc::clone(&aud.log);
            rt.bind_app("Aud", Box::new(aud));
            rt.set_policy("Act", "junction", Policy::OnDemand);
            rt.run_main(vec![Value::Duration(Duration::from_secs(10))]).unwrap();
            jobs.lock().push(("http://files.example/x".into(), size));
            let t0 = std::time::Instant::now();
            rt.invoke("Act", "junction").expect("audited download");
            let elapsed = t0.elapsed().as_secs_f64();
            // The audit record must have landed (integrity property).
            assert!(!log.lock().is_empty(), "audit record missing");
            rt.shutdown();
            elapsed
        }
    }
}

fn sweep(id: &str, title: &str, sizes_mb: &[f64], reps: usize) -> Report {
    let link = LinkModel::gigabit_scaled();
    let mut report = Report::new(id, title);
    let mut per_config: Vec<(Config, Vec<(f64, f64)>)> = Vec::new();
    let mut originals: Vec<(f64, f64)> = Vec::new();
    for config in [Config::Original, Config::SameVm, Config::CrossVm] {
        let mut points = Vec::new();
        for &mb in sizes_mb {
            let size = (mb * 1024.0 * 1024.0) as u64;
            let samples: Vec<f64> = (0..reps)
                .map(|_| timed_download(config, size, link))
                .collect();
            let (mean, std) = mean_std(&samples);
            points.push((mb, mean));
            report.note(&format!("{}_{}mb_std_s", config.label(), mb), std);
            if config == Config::Original {
                originals.push((mb, mean));
            }
        }
        per_config.push((config, points));
    }
    for (config, points) in &per_config {
        report.series(
            config.label(),
            "file size (MB)",
            "download time (s)",
            points.clone(),
        );
    }
    // Overhead % vs original (the Fig. 25b view).
    for (config, points) in &per_config {
        if *config == Config::Original {
            continue;
        }
        let overhead: Vec<(f64, f64)> = points
            .iter()
            .zip(originals.iter())
            .map(|(&(mb, t), &(_, t0))| (mb, ((t - t0) / t0.max(1e-9)) * 100.0))
            .collect();
        report.series(
            &format!("{} overhead %", config.label()),
            "file size (MB)",
            "time increase (%)",
            overhead,
        );
    }
    report.remark(
        "expected shape: audited configs cost more for small files; the overhead \
         percentage falls as file size grows (amortization — paper Figs. 25a/25b); \
         Cross-VM ≥ Same-VM",
    );
    report
}

/// Figs. 25a/25b: small files, 1KB–10MB.
pub fn fig25ab(reps: usize) -> Report {
    sweep(
        "fig25ab",
        "cURL download time & overhead, small files (original / same-VM / cross-VM audit)",
        &[0.001, 0.01, 0.1, 1.0, 10.0],
        reps,
    )
}

/// Fig. 26a: large files, 20MB–1.2GB (scaled down to 20–100MB unless
/// `full`; `csaw-bench fig26a --full` runs the whole sweep).
pub fn fig26a(reps: usize, full: bool) -> Report {
    let sizes: &[f64] = if full {
        &[20.0, 50.0, 100.0, 400.0, 700.0, 1200.0]
    } else {
        &[20.0, 50.0, 100.0]
    };
    sweep(
        "fig26a",
        "cURL download time, large files (original / same-VM / cross-VM audit)",
        sizes,
        reps,
    )
}
