//! Cross-crate integration tests: the claims that span the whole stack —
//! reusability of DSL expressions across applications (§10.2), topology
//! and semantics of every catalogue architecture, and transports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw::arch::caching::{caching, CachingSpec};
use csaw::arch::checkpoint::{checkpoint, CheckpointSpec};
use csaw::arch::failover::{failover, FailoverSpec};
use csaw::arch::parallel_sharding::{parallel_sharding, ParallelShardingSpec};
use csaw::arch::sharding::{sharding, ShardingSpec};
use csaw::arch::snapshot::{snapshot, SnapshotSpec};
use csaw::arch::watched::{watched_failover, WatchedSpec};
use csaw::core::program::{LoadConfig, Program};
use csaw::core::value::Value;
use csaw::runtime::runtime::Policy;
use csaw::runtime::{LinkKind, Runtime, RuntimeConfig};
use csaw::semantics::{denote_program, topology, DenoteConfig};

fn all_architectures() -> Vec<(&'static str, Program)> {
    vec![
        ("snapshot", snapshot(&SnapshotSpec::default())),
        ("sharding", sharding(&ShardingSpec::default())),
        ("parallel_sharding", parallel_sharding(&ParallelShardingSpec::default())),
        ("caching", caching(&CachingSpec::default())),
        ("failover", failover(&FailoverSpec::default())),
        ("watched", watched_failover(&WatchedSpec::default())),
        ("checkpoint", checkpoint(&CheckpointSpec::default())),
    ]
}

fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Every catalogue architecture compiles, has a non-trivial topology, and
/// denotes to valid event structures.
#[test]
fn catalogue_compiles_with_topology_and_semantics() {
    for (name, program) in all_architectures() {
        let cp = csaw::core::compile(program, &LoadConfig::new())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let topo = topology(&cp);
        assert!(!topo.edges.is_empty(), "{name}: empty topology");
        let sem = denote_program(&cp, &DenoteConfig::default());
        assert!(sem.startup.is_valid(), "{name}: invalid startup semantics");
        assert!(!sem.junctions.is_empty(), "{name}: no junction semantics");
        for (j, es) in &sem.junctions {
            assert!(es.is_valid(), "{name}/{j}: invalid event structure");
        }
    }
}

/// The pretty-printer renders every architecture and the LoC metric is
/// within Table-2 plausibility (tens of lines, not thousands).
#[test]
fn catalogue_pretty_prints_with_sane_loc() {
    for (name, program) in all_architectures() {
        let loc = csaw::core::pretty::loc_of_program(&program);
        assert!(
            (15..600).contains(&loc),
            "{name}: implausible DSL LoC {loc}"
        );
        let rendered = csaw::core::pretty::print_program(&program);
        assert!(rendered.contains("InstanceTypes"), "{name}");
        assert!(rendered.contains("def main"), "{name}");
    }
}

/// The §10.2 reusability claim, live: the *identical* compiled sharding
/// program runs a Redis workload and a Suricata workload — only the
/// bound `InstanceApp`s differ.
#[test]
fn same_architecture_drives_redis_and_suricata() {
    let spec = ShardingSpec::default();
    let program = sharding(&spec);
    let cp = csaw::core::compile(program, &LoadConfig::new()).unwrap();

    // Round 1: Redis apps.
    {
        let rt = Runtime::new(&cp, RuntimeConfig::default());
        let front = csaw::redis::apps::ShardFrontApp::new(csaw::redis::apps::ShardMode::ByKey, 4);
        let requests = Arc::clone(&front.requests);
        let replies = Arc::clone(&front.replies);
        rt.bind_app("Fnt", Box::new(front));
        for i in 1..=4 {
            rt.bind_app(&format!("Bck{i}"), Box::new(csaw::redis::apps::ServerApp::new()));
        }
        rt.set_policy("Fnt", "junction", Policy::OnDemand);
        rt.run_main(vec![Value::Duration(Duration::from_secs(2))]).unwrap();
        for i in 0..8 {
            requests
                .lock()
                .push_back(csaw::redis::Command::Set(format!("k{i}"), vec![1]));
            rt.invoke("Fnt", "junction").unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), || replies.lock().len() == 8));
        rt.shutdown();
    }

    // Round 2: Suricata apps, same compiled program.
    {
        let rt = Runtime::new(&cp, RuntimeConfig::default());
        let front = csaw::suricata::apps::SteeringApp::new(4);
        let packets = Arc::clone(&front.packets);
        let counts = Arc::clone(&front.alert_counts);
        rt.bind_app("Fnt", Box::new(front));
        let mut engines = Vec::new();
        for i in 1..=4 {
            let app = csaw::suricata::apps::EngineApp::new();
            engines.push(Arc::clone(&app.engine));
            rt.bind_app(&format!("Bck{i}"), Box::new(app));
        }
        rt.set_policy("Fnt", "junction", Policy::OnDemand);
        rt.run_main(vec![Value::Duration(Duration::from_secs(2))]).unwrap();
        let cap = csaw::suricata::SyntheticCapture::generate(&csaw::suricata::CaptureSpec {
            flows: 20,
            packets: 64,
            ..Default::default()
        });
        for p in &cap.packets {
            packets.lock().push_back(p.clone());
            rt.invoke("Fnt", "junction").unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), || counts.lock().len() == 64));
        let total: u64 = engines.iter().map(|e| e.lock().packets_seen).sum();
        assert_eq!(total, 64);
        rt.shutdown();
    }
}

/// The hand-off path end to end: mini-redis requests relayed through
/// `sharding`. Each hop wakes the thread that serves it (the back-end's
/// scheduler, then the front-end's `wait`), and nothing polls: one
/// wake-up slept through hangs a request to its 5 s `otherwise`
/// deadline and fails this.
#[test]
fn relay_round_trips_do_not_wait_for_a_tick() {
    let cp = csaw::core::compile(sharding(&ShardingSpec::default()), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let front = csaw::redis::apps::ShardFrontApp::new(csaw::redis::apps::ShardMode::ByKey, 4);
    let requests = Arc::clone(&front.requests);
    let replies = Arc::clone(&front.replies);
    rt.bind_app("Fnt", Box::new(front));
    for i in 1..=4 {
        rt.bind_app(&format!("Bck{i}"), Box::new(csaw::redis::apps::ServerApp::new()));
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();
    let started = Instant::now();
    for i in 0..100 {
        requests
            .lock()
            .push_back(csaw::redis::Command::Set(format!("k{i}"), vec![1]));
        rt.invoke("Fnt", "junction").unwrap();
    }
    let took = started.elapsed();
    assert_eq!(replies.lock().len(), 100);
    assert!(took < Duration::from_secs(1), "100 relay round-trips took {took:?}");
    rt.shutdown();
}

/// The snapshot architecture works identically over the in-process and
/// TCP transports (the cURL same-VM/cross-VM contrast).
#[test]
fn snapshot_over_direct_and_tcp() {
    for kind in [LinkKind::Direct, LinkKind::Tcp] {
        let spec = SnapshotSpec::default();
        let cp = csaw::core::compile(snapshot(&spec), &LoadConfig::new()).unwrap();
        let rt = Runtime::new(&cp, RuntimeConfig::default());
        rt.set_link("Act", "Aud", kind);
        let act = csaw::curl::apps::CurlApp::new(csaw::curl::LinkModel {
            latency: Duration::ZERO,
            bandwidth: 1 << 30,
            chunk: 64 * 1024,
        });
        let jobs = Arc::clone(&act.jobs);
        rt.bind_app("Act", Box::new(act));
        let aud = csaw::curl::apps::AuditorApp::new();
        let log = Arc::clone(&aud.log);
        rt.bind_app("Aud", Box::new(aud));
        rt.set_policy("Act", "junction", Policy::OnDemand);
        rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();
        jobs.lock().push(("u".into(), 256 * 1024));
        rt.invoke("Act", "junction").unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || !log.lock().is_empty()),
            "{kind:?}: audit record never arrived"
        );
        assert_eq!(log.lock()[0].done, 256 * 1024);
        rt.shutdown();
    }
}

/// Suricata under the checkpoint architecture: engine state survives a
/// crash through the DSL-managed checkpoint.
#[test]
fn suricata_checkpoint_restores_flow_table() {
    let spec = CheckpointSpec::default();
    let cp = csaw::core::compile(checkpoint(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let prim = csaw::suricata::apps::EngineApp::new();
    let engine = Arc::clone(&prim.engine);
    rt.bind_app("Prim", Box::new(prim));
    rt.bind_app("Store", Box::new(csaw::redis::apps::CheckpointStoreApp::new()));
    rt.set_policy("Prim", "checkpoint", Policy::Periodic(Duration::from_millis(20)));
    rt.run_main(vec![Value::Duration(Duration::from_secs(2))]).unwrap();

    let cap = csaw::suricata::SyntheticCapture::generate(&csaw::suricata::CaptureSpec {
        flows: 40,
        packets: 500,
        ..Default::default()
    });
    for p in &cap.packets {
        engine.lock().process(p);
    }
    let flows = engine.lock().flow_count();
    assert!(flows > 0);
    // Let a checkpoint capture the state, then crash and recover.
    std::thread::sleep(Duration::from_millis(80));
    rt.crash("Prim");
    *engine.lock() = csaw::suricata::Engine::new();
    rt.set_policy("Prim", "checkpoint", Policy::OnDemand);
    rt.restart("Prim").unwrap();
    rt.deliver_for_test("Prim", "recover", csaw::kv::Update::assert("NeedState", "driver"));
    assert!(wait_until(Duration::from_secs(5), || {
        engine.lock().flow_count() == flows
    }));
    assert_eq!(engine.lock().packets_seen, 500);
    rt.shutdown();
}

/// The Table-2 harness rows hold as a machine-checked claim.
#[test]
fn table2_shape_holds() {
    let rows = csaw_bench_table2();
    assert_eq!(rows.len(), 3);
    for (feature, dsl, redis_c) in rows {
        assert!(dsl < redis_c, "{feature}: DSL {dsl} !< direct {redis_c}");
    }
}

fn csaw_bench_table2() -> Vec<(String, usize, usize)> {
    // Recompute the essence of the Table-2 comparison without depending
    // on the bench crate: DSL LoC vs the direct control's LoC.
    let mgmt = csaw::redis::direct::loc_mgmt();
    vec![
        (
            "Checkpointing".to_string(),
            csaw::core::pretty::loc_of_program(&checkpoint(&CheckpointSpec::default())),
            csaw::redis::direct::loc_checkpoint() + mgmt,
        ),
        (
            "Sharding".to_string(),
            csaw::core::pretty::loc_of_program(&sharding(&ShardingSpec::default())),
            csaw::redis::direct::loc_sharding() + mgmt,
        ),
        (
            "Caching".to_string(),
            csaw::core::pretty::loc_of_program(&caching(&CachingSpec::default())),
            csaw::redis::direct::loc_caching() + mgmt,
        ),
    ]
}
