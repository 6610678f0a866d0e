//! Declarative reconfiguration planning + metrics-driven autoscaling.
//!
//! Part one shows the planner as a pure function: declare a target
//! architecture (2 shards → 4 shards) plus constraints (at most one
//! instance quiesced per phase) and get back an ordered,
//! minimal-disruption sequence of phased diffs — adds before changes
//! before removals.
//!
//! Part two closes the loop: an autoscaler thread samples the
//! `offered_rate` / `read_fraction` gauges, and when the per-shard rate
//! crosses a watermark it plans the matching transition and executes it
//! live (the executor checks each plan against its constraints first):
//! a split when load rises, a merge back when it falls, while a
//! client's writes keep landing. Every acknowledged write is still
//! readable afterwards.
//!
//! Run with: `cargo run --example autoscale`

use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw::arch::sharding::{sharding, ShardingSpec};
use csaw::core::expr::Arg;
use csaw::core::names::JRef;
use csaw::core::plan::{plan_reconfiguration, PlanConstraints, PlanPhase};
use csaw::core::program::{CompiledProgram, LoadConfig};
use csaw::core::value::Value;
use csaw::redis::apps::{ServerApp, ShardFrontApp, ShardMode};
use csaw::redis::hash::shard_of;
use csaw::redis::{Command, Reply, Store};
use csaw::runtime::runtime::Policy;
use csaw::runtime::{
    AutoscaleConfig, AutoscaleDriver, AutoscaleGoal, ReconfigSpec, Runtime, RuntimeConfig,
};
use parking_lot::Mutex;

const T: Duration = Duration::from_millis(400);

/// How a goal becomes a program, and how each plan phase gets its
/// apps/starts/migration.
struct Scaler {
    requests: Arc<Mutex<std::collections::VecDeque<Command>>>,
    replies: Arc<Mutex<std::collections::VecDeque<Reply>>>,
    stores: Vec<Arc<Mutex<Store>>>,
}

impl AutoscaleDriver for Scaler {
    fn program(&self, goal: &AutoscaleGoal) -> Result<CompiledProgram, String> {
        let spec = ShardingSpec { n_backends: goal.shards, ..Default::default() };
        csaw::core::compile(sharding(&spec), &LoadConfig::new()).map_err(|e| e.to_string())
    }

    fn phase_spec(&self, goal: &AutoscaleGoal, phase: &PlanPhase) -> ReconfigSpec {
        let mut rs = ReconfigSpec::default();
        for added in &phase.diff.added {
            let i: usize = added.strip_prefix("Bck").unwrap().parse().unwrap();
            rs.apps.push((
                added.clone(),
                Box::new(ServerApp::with_store(Arc::clone(&self.stores[i - 1]))),
            ));
            rs.start.push((
                added.clone(),
                vec![(
                    None,
                    vec![
                        Arg::Junction(JRef::qualified("Fnt", "junction")),
                        Arg::Value(Value::Duration(T)),
                    ],
                )],
            ));
        }
        if phase.diff.changed.iter().any(|c| c.name == "Fnt") {
            let mut front = ShardFrontApp::new(ShardMode::ByKey, goal.shards);
            front.requests = Arc::clone(&self.requests);
            front.replies = Arc::clone(&self.replies);
            rs.apps.push(("Fnt".to_string(), Box::new(front)));
            // Re-home every key while the front is held in this phase.
            let mig = self.stores.clone();
            let to_n = goal.shards;
            rs.migrate = Some(Box::new(move |ctx| {
                let mut moved = 0u64;
                for idx in 0..mig.len() {
                    // Bind before iterating: holding a store's guard
                    // across the loop would self-deadlock when a key
                    // re-homes to the shard it came from.
                    let entries = mig[idx].lock().drain_entries();
                    for (k, v) in entries {
                        moved += 1;
                        mig[shard_of(&k, to_n)].lock().set(&k, v);
                    }
                }
                ctx.note_moved(moved, 0);
                Ok(())
            }));
        }
        rs
    }
}

fn request(scaler: &Scaler, rt: &Runtime, cmd: Command) -> Option<Reply> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        {
            let mut q = scaler.requests.lock();
            if q.is_empty() {
                q.push_back(cmd.clone());
            }
        }
        let before = scaler.replies.lock().len();
        if rt.invoke("Fnt", "junction").is_ok() {
            let reply_deadline = Instant::now() + T;
            while Instant::now() < reply_deadline {
                if scaler.replies.lock().len() > before {
                    return scaler.replies.lock().pop_back();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

fn main() {
    let constraints = PlanConstraints::max_quiesce(1);

    // ----- Part one: the planner as a pure function ------------------
    let two = csaw::core::compile(
        sharding(&ShardingSpec { n_backends: 2, ..Default::default() }),
        &LoadConfig::new(),
    )
    .unwrap();
    let four = csaw::core::compile(
        sharding(&ShardingSpec { n_backends: 4, ..Default::default() }),
        &LoadConfig::new(),
    )
    .unwrap();
    let plan = plan_reconfiguration(&two, &four, &constraints).unwrap();
    println!("plan 2 → 4 shards under max_concurrent_quiesce=1:");
    for phase in &plan.phases {
        println!(
            "  phase {}: +{:?} ~{:?} -{:?} (quiesces {:?})",
            phase.index,
            phase.diff.added,
            phase.diff.changed.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            phase.diff.removed,
            phase.diff.quiesce_set(),
        );
    }

    // ----- Part two: the closed loop under live traffic --------------
    let rt = Runtime::new(&two, RuntimeConfig::default());
    let front = ShardFrontApp::new(ShardMode::ByKey, 2);
    let scaler_driver = Arc::new(Scaler {
        requests: Arc::clone(&front.requests),
        replies: Arc::clone(&front.replies),
        stores: (0..4).map(|_| Arc::new(Mutex::new(Store::new()))).collect(),
    });
    rt.bind_app("Fnt", Box::new(front));
    for i in 1..=2usize {
        rt.bind_app(
            &format!("Bck{i}"),
            Box::new(ServerApp::with_store(Arc::clone(&scaler_driver.stores[i - 1]))),
        );
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(T)]).unwrap();

    let metrics = rt.metrics();
    metrics.gauge("offered_rate").set(100.0); // 50 r/s/shard: in-band
    metrics.gauge("read_fraction").set(0.3);
    let scaler = rt.autoscale(
        AutoscaleConfig {
            poll: Duration::from_millis(20),
            split_above: 100.0,
            merge_below: 30.0,
            cooldown: Duration::from_millis(100),
            min_shards: 2,
            max_shards: 4,
            constraints,
            ..Default::default()
        },
        AutoscaleGoal { shards: 2, cache: false },
        Arc::clone(&scaler_driver) as Arc<dyn AutoscaleDriver>,
    );

    for i in 0..30 {
        request(&scaler_driver, &rt, Command::Set(format!("k{i}"), format!("v{i}").into_bytes()))
            .expect("SET acknowledged");
    }
    println!("\nserving at 2 shards; raising offered_rate past the split watermark…");
    metrics.gauge("offered_rate").set(300.0); // 150 r/s/shard: split
    let deadline = Instant::now() + Duration::from_secs(10);
    while scaler.goal() != Some(AutoscaleGoal { shards: 4, cache: false }) {
        assert!(Instant::now() < deadline, "split never fired");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rec = &scaler.records()[0];
    println!(
        "autoscaler fired: {} in {} phases, worst per-phase quiesce {}",
        rec.kind(),
        rec.phases,
        rec.max_phase_quiesce
    );

    println!("dropping offered_rate below the merge watermark…");
    metrics.gauge("offered_rate").set(80.0); // 20 r/s/shard: merge
    let deadline = Instant::now() + Duration::from_secs(10);
    while scaler.goal() != Some(AutoscaleGoal { shards: 2, cache: false }) {
        assert!(Instant::now() < deadline, "merge never fired");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rec = &scaler.records()[1];
    println!(
        "autoscaler fired: {} in {} phases, worst per-phase quiesce {}",
        rec.kind(),
        rec.phases,
        rec.max_phase_quiesce
    );

    for i in 0..30 {
        let reply = request(&scaler_driver, &rt, Command::Get(format!("k{i}")))
            .expect("GET acknowledged");
        assert_eq!(reply, Reply::Bulk(format!("v{i}").into_bytes()));
    }
    println!(
        "every acknowledged write survived split + merge; shard sizes {:?}",
        scaler_driver.stores.iter().map(|s| s.lock().len()).collect::<Vec<_>>()
    );
    scaler.stop();
    rt.shutdown();
}
