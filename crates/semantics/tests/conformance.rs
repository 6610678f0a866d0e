//! Conformance-checker integration tests: the checker must accept what
//! a real `csaw_kv::Table` does under arbitrary interleavings (the §8
//! rule is implemented there), and must reject the recorded trace of
//! the pre-fix `deliver` bug (windows admitting updates raced behind a
//! local write).

use std::sync::Arc;

use csaw_kv::{Table, TableEvent, TableObserver, Update};
use csaw_runtime::trace::{parse_jsonl, to_jsonl};
use csaw_runtime::{TraceKind, Tracer};
use csaw_semantics::{check_trace, ConformanceOptions};

/// Forwards table events into a tracer under a fixed identity, the way
/// the runtime's cell observer does.
struct Fwd {
    tracer: Arc<Tracer>,
}

impl TableObserver for Fwd {
    fn on_event(&self, epoch: u64, event: TableEvent<&'static str>) {
        self.tracer.record("t", "j", epoch, TraceKind::Kv(event));
    }
}

/// Tiny deterministic generator — keeps the interleavings reproducible
/// without pulling a PRNG dependency into the test.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const KEYS: [&str; 3] = ["A", "B", "C"];

/// Drive a raw table through seeded interleavings of local writes,
/// deliveries, window opens/closes, and `keep` across epochs; every
/// resulting trace must replay cleanly under the §8 update rule.
#[test]
fn table_interleavings_conform_to_update_rule() {
    for seed in 0..48u64 {
        let tracer = Arc::new(Tracer::new());
        tracer.set_enabled(true);
        let mut table = Table::new();
        for k in KEYS {
            table.declare_prop(k, false);
        }
        table.set_observer(Arc::new(Fwd { tracer: Arc::clone(&tracer) }));

        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let mut seq = 0u64;
        let deliver = |table: &mut Table, rng: &mut Lcg, seq: &mut u64| {
            *seq += 1;
            let key = KEYS[rng.pick(3) as usize];
            let upd = if rng.pick(2) == 0 {
                Update::assert(key, "g::y")
            } else {
                Update::retract(key, "g::y")
            };
            table.deliver(Update { seq: *seq, ..upd });
        };

        for _ in 0..6 {
            // Some deliveries land between activations (flushed at the
            // next scheduling).
            for _ in 0..rng.pick(3) {
                deliver(&mut table, &mut rng, &mut seq);
            }
            table.begin_activation();
            tracer.record("t", "j", table.epoch(), TraceKind::Sched);
            let mut open: Vec<u64> = Vec::new();
            for _ in 0..(2 + rng.pick(8)) {
                match rng.pick(6) {
                    0 => {
                        let key = KEYS[rng.pick(3) as usize];
                        table.set_prop_local(key, rng.pick(2) == 0).unwrap();
                    }
                    1 | 2 => deliver(&mut table, &mut rng, &mut seq),
                    3 => {
                        let mut keys: Vec<String> = KEYS
                            .iter()
                            .filter(|_| rng.pick(2) == 0)
                            .map(|k| k.to_string())
                            .collect();
                        if keys.is_empty() {
                            keys.push(KEYS[rng.pick(3) as usize].to_string());
                        }
                        open.push(table.open_window(keys));
                    }
                    4 => {
                        if let Some(tok) = open.pop() {
                            table.close_window(tok);
                        }
                    }
                    _ => {
                        let keys = vec![KEYS[rng.pick(3) as usize].to_string()];
                        table.keep(&keys);
                    }
                }
            }
            table.end_activation();
            tracer.record("t", "j", table.epoch(), TraceKind::Unsched { ok: true });
        }

        let events = tracer.drain();
        let opts = ConformanceOptions { require_send_for_apply: false };
        let report = check_trace(&events, &[], &opts);
        assert!(
            report.ok(),
            "seed {seed}: {}\ntrace:\n{}",
            report.describe(),
            to_jsonl(&events)
        );
        assert!(report.events > 0);
    }
}

/// The recorded trace of the pre-fix `Table::deliver` bug: a window
/// opened *before* a local write admitted a remote update to the same
/// key, clobbering the §8 local priority. The checker must reject it.
#[test]
fn pre_fix_window_clobber_fixture_is_rejected() {
    let jsonl = include_str!("fixtures/deliver_window_clobber.jsonl");
    let opts = ConformanceOptions { require_send_for_apply: false };
    let report = check_trace(&parse_jsonl(jsonl).unwrap(), &[], &opts);
    assert!(!report.ok(), "fixture must be rejected");
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, "update-rule");
    assert_eq!(report.violations[0].gsn, 4);
}
