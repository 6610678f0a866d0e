//! Hand-off wake-ups on the relay path: a request through `sharding(4)`
//! costs one wake-up per hop (the `assert` wakes the back-end's
//! scheduler, the window-admitted `retract` wakes the front-end's
//! `wait`), none is ever lost, and nobody off the path is woken. The
//! tick is 2 s in the request tests, so anything that falls back on
//! polling shows as a stall; with the default tick, a back-end whose
//! guard reads only its own table never polls at all.

use std::time::{Duration, Instant};

use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{HostCtx, InstanceApp, Runtime, RuntimeConfig};

const TICK: Duration = Duration::from_secs(2);
const SHARDS: usize = 4;

/// The front-end's host side: `Choose` picks the back-ends in turn.
struct RoundRobin {
    next: usize,
}

impl InstanceApp for RoundRobin {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "Choose" {
            self.next = self.next % SHARDS + 1;
            ctx.set_idx("tgt", &format!("Bck{}", self.next))?;
        }
        Ok(())
    }
    fn save(&mut self, _key: &str) -> Result<Value, String> {
        Ok(Value::from(vec![7; 16]))
    }
    fn restore(&mut self, _key: &str, _value: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// `sharding(4)` over Direct links, the front-end `OnDemand`, back-ends
/// the no-op app, booted.
fn relay() -> Runtime {
    relay_with(RuntimeConfig {
        tick: TICK,
        ..Default::default()
    })
}

fn relay_with(config: RuntimeConfig) -> Runtime {
    let cp = csaw_core::compile(sharding(&ShardingSpec::default()), &LoadConfig::new())
        .expect("sharding compiles");
    let rt = Runtime::new(&cp, config);
    rt.bind_app("Fnt", Box::new(RoundRobin { next: 0 }));
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(10))])
        .expect("main runs");
    rt
}

fn passes(rt: &Runtime, instance: &str) -> u64 {
    rt.metrics().counter_value(&format!(
        "scheduler_passes_total{{instance=\"{instance}\",junction=\"junction\"}}"
    ))
}

#[test]
fn wake_no_request_waits_out_a_tick() {
    const REQUESTS: u32 = 3_000;
    let rt = relay();
    let started = Instant::now();
    for i in 0..REQUESTS {
        let sent = Instant::now();
        rt.invoke("Fnt", "junction").expect("request served");
        let took = sent.elapsed();
        assert!(
            took < TICK / 2,
            "request {i} took {took:?}: it slept through a wake-up"
        );
    }
    // One lost wake-up per hundred requests would cost a tick each.
    let budget = TICK * (REQUESTS / 100) / 4;
    assert!(
        started.elapsed() < budget,
        "{REQUESTS} requests took {:?}",
        started.elapsed()
    );
    assert!(rt
        .take_events()
        .iter()
        .all(|e| e.kind != "failure" && e.kind != "complain"));
    rt.shutdown();
}

#[test]
fn wake_one_signal_per_hop_and_none_off_the_path() {
    const N: u64 = 2_000;
    let rt = relay();
    for _ in 0..N {
        rt.invoke("Fnt", "junction").expect("request served");
    }
    let signals = rt.metrics().counter_value("wake_signals_total");
    assert!(
        signals <= 2 * N + 64,
        "{signals} signals notified a thread over {N} requests"
    );
    // Start-up and `set_policy` only: an `OnDemand` junction's scheduler
    // has nothing to schedule.
    let front = passes(&rt, "Fnt");
    assert!(front <= 16, "front-end scheduler made {front} passes");
    for i in 1..=SHARDS {
        let name = format!("Bck{i}");
        let served = rt.activations(&name);
        assert_eq!(served, N / SHARDS as u64, "{name} served its share");
        // The one that runs the activation and the one that finds the
        // guard false again.
        let made = passes(&rt, &name);
        assert!(
            made <= 2 * served + 16,
            "{name}: {made} passes for {served} requests"
        );
    }
    rt.shutdown();
}

/// A back-end's guard (`Work`) reads only its own table, whose every
/// change signals its scheduler, so an idle back-end parks with no
/// deadline instead of waking every `tick` (500 passes a second at the
/// default 2 ms).
#[test]
fn wake_idle_local_guards_do_not_poll() {
    let rt = relay_with(RuntimeConfig::default());
    std::thread::sleep(Duration::from_secs(1));
    for i in 1..=SHARDS {
        let name = format!("Bck{i}");
        let made = passes(&rt, &name);
        assert!(made <= 8, "idle {name} made {made} scheduler passes in 1 s");
    }
    rt.shutdown();
}
