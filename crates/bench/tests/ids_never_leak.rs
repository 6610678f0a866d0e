//! Interned ids never leave the process: an id depends on the order its
//! text was first seen, so a run that interns unrelated keys first must
//! export the same tables and walk the same simulated schedule as a run
//! that does not.
//!
//! Ids are process-wide, so each variant runs in a process of its own:
//! the comparing test starts this test binary twice, once per `#[ignore]`d
//! variant, and compares the fingerprints they print.

use std::process::Command as Process;

use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_bench::sim_runs::{run_schedule, Scenario, ScheduleSpec};
use csaw_core::intern::{KeyId, Sym};
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{Runtime, RuntimeConfig};
use mini_redis::apps::{ServerApp, ShardFrontApp, ShardMode};
use mini_redis::command::Command;

const SHARDS: usize = 4;

/// FNV-1a over `text`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every table of a sharding program after 200 requests, then a short
/// seeded reshard schedule, as one printed fingerprint.
fn print_fingerprint() {
    let cp = csaw_core::compile(sharding(&ShardingSpec::default()), &LoadConfig::new())
        .expect("sharding compiles");
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let front = ShardFrontApp::new(ShardMode::ByKey, SHARDS);
    let requests = front.requests.clone();
    rt.bind_app("Fnt", Box::new(front));
    for i in 1..=SHARDS {
        rt.bind_app(&format!("Bck{i}"), Box::new(ServerApp::new()));
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(std::time::Duration::from_secs(5))])
        .expect("main runs");
    for i in 0..200 {
        let key = format!("key:{}", i % 37);
        let cmd = if i % 3 == 0 {
            Command::Set(key, vec![i as u8; 16])
        } else {
            Command::Get(key)
        };
        requests.lock().push_back(cmd);
        rt.invoke("Fnt", "junction").expect("request served");
    }
    let mut tables = String::new();
    for inst in rt.instance_names() {
        let state = rt
            .export_table(&inst, "junction")
            .expect("every instance has `junction`");
        // The pending queue and the counters depend on thread timing;
        // the entries and the shadows do not.
        tables += &format!(
            "{inst}: {:?} {:?} {:?} {:?}\n",
            state.props,
            state.data,
            state.idxs,
            state
                .locally_written
                .iter()
                .map(|(k, ..)| k)
                .collect::<Vec<_>>()
        );
    }
    rt.shutdown();
    let sim = run_schedule(&ScheduleSpec::new(Scenario::Reshard, 2, 1, 1));
    let sim = format!(
        "{:?} {} {} {} {:?} {:?}",
        sim.steps, sim.acked, sim.repair_ok, sim.fenced_sends, sim.repairs, sim.failure
    );
    println!(
        "FINGERPRINT tables={:016x} sim={:016x}",
        fnv(&tables),
        fnv(&sim)
    );
}

#[test]
#[ignore = "run in a process of its own by `interning_order_reaches_no_export_or_digest`"]
fn fingerprint_plain() {
    print_fingerprint();
}

#[test]
#[ignore = "run in a process of its own by `interning_order_reaches_no_export_or_digest`"]
fn fingerprint_after_unrelated_keys() {
    // Unrelated texts first, then the program's own names in an order
    // that is not the program's: its keys and names get other ids, in
    // another relative order, than in `fingerprint_plain`.
    for i in (0..5_000).rev() {
        KeyId::new(&format!("unrelated:{i}"));
        Sym::new(&format!("unrelated:{i}"));
    }
    for text in [
        "tgt", "m", "n", "Retried", "Work", "Bck4", "Bck3", "Bck2", "Bck1", "Fnt",
    ] {
        KeyId::new(text);
        Sym::new(text);
    }
    print_fingerprint();
}

/// The fingerprint line a variant prints in a process of its own.
fn fingerprint_of(variant: &str) -> String {
    let out = Process::new(std::env::current_exe().expect("test binary"))
        .args([
            "--ignored",
            "--exact",
            variant,
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .output()
        .expect("test binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{variant} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let at = stdout
        .find("FINGERPRINT")
        .unwrap_or_else(|| panic!("{variant} printed no fingerprint:\n{stdout}"));
    stdout[at..].lines().next().unwrap_or_default().to_string()
}

#[test]
fn interning_order_reaches_no_export_or_digest() {
    assert_eq!(
        fingerprint_of("fingerprint_plain"),
        fingerprint_of("fingerprint_after_unrelated_keys")
    );
}
