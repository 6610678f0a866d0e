//! A metrics registry: Prometheus-style counters, gauges and log₂
//! histograms, aggregated from the same instrumentation points the
//! [`crate::trace::Tracer`] records.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

const HISTO_BUCKETS: usize = 32;

/// A log₂-bucketed histogram of microsecond observations.
pub struct Histogram {
    /// `buckets[i]` counts observations with `2^(i-1) < value ≤ 2^i` µs
    /// (Prometheus's inclusive `le`; non-cumulative, cumulated at render
    /// time). Observations above `2^31` µs are only in `count`.
    buckets: [AtomicU64; HISTO_BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        // The first bucket with `us ≤ 2^i`; past the last finite bucket
        // the observation counts in `+Inf` (the total) only.
        let idx = 64 - us.saturating_sub(1).leading_zeros() as usize;
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (Prometheus *gauge*): the current
/// offered load, the live shard count, a cache's read fraction. Stored
/// as `f64` bits in an atomic so readers never tear; `add` is a CAS
/// loop, fine for low-rate writers (the autoscaler samples, it does
/// not spin).
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) to the gauge.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Named counters, gauges and histograms, renderable as a
/// Prometheus-style text snapshot. Handles returned by
/// [`Metrics::counter`] / [`Metrics::gauge`] / [`Metrics::histogram`]
/// are plain atomics — hot paths grab them once at construction time
/// and never touch the registry lock again.
pub struct Metrics {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or create a named counter. The name may end in Prometheus
    /// labels (`name{key="value"}`) to make one series of a family.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Get or create a named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get or create a named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Current value of a counter (0 if never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge (0.0 if never created).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.lock().get(name).map_or(0.0, |g| g.value())
    }

    /// Render every counter, gauge and histogram in Prometheus text
    /// format. Metric names get a `csaw_` prefix; histograms render
    /// cumulative `_bucket{le="..."}` series plus `_sum` (in seconds)
    /// and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        // A counter name may carry labels (`passes_total{junction="j"}`):
        // the series of one family sort together and share a TYPE line.
        let counters = self.counters.lock();
        let mut family = "";
        for (name, c) in counters.iter() {
            let base = name.split('{').next().unwrap_or(name);
            if base != family {
                out.push_str(&format!("# TYPE csaw_{base} counter\n"));
                family = base;
            }
            out.push_str(&format!("csaw_{name} {}\n", c.load(Ordering::Relaxed)));
        }
        for (name, g) in self.gauges.lock().iter() {
            out.push_str(&format!("# TYPE csaw_{name} gauge\n"));
            out.push_str(&format!("csaw_{name} {}\n", g.value()));
        }
        for (name, h) in self.histograms.lock().iter() {
            out.push_str(&format!("# TYPE csaw_{name} histogram\n"));
            let mut cumulative = 0u64;
            for i in 0..HISTO_BUCKETS {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                let le = 1u64 << i;
                out.push_str(&format!(
                    "csaw_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    le as f64 / 1_000_000.0
                ));
            }
            out.push_str(&format!(
                "csaw_{name}_bucket{{le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "csaw_{name}_sum {}\n",
                h.sum_us() as f64 / 1_000_000.0
            ));
            out.push_str(&format!("csaw_{name}_count {}\n", h.count()));
        }
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_prometheus_text() {
        let m = Metrics::new();
        m.counter("link_send_total").fetch_add(3, Ordering::Relaxed);
        m.counter("passes_total{junction=\"a\"}").fetch_add(1, Ordering::Relaxed);
        m.counter("passes_total{junction=\"b\"}").fetch_add(2, Ordering::Relaxed);
        let h = m.histogram("activation_duration");
        h.observe_us(3);
        h.observe_us(1000);
        // Bucket edges are inclusive (`le`), and a value past the last
        // finite bucket counts in `+Inf` only.
        let edges = m.histogram("edges");
        for us in [1, 2, 1024, 1 << 40] {
            edges.observe_us(us);
        }
        let text = m.render_prometheus();
        assert!(text.contains("csaw_edges_bucket{le=\"0.000001\"} 1\n"));
        assert!(text.contains("csaw_edges_bucket{le=\"0.000002\"} 2\n"));
        assert!(text.contains("csaw_edges_bucket{le=\"0.000512\"} 2\n"));
        assert!(text.contains("csaw_edges_bucket{le=\"0.001024\"} 3\n"));
        assert!(text.contains("csaw_edges_bucket{le=\"2147.483648\"} 3\n"));
        assert!(text.contains("csaw_edges_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("# TYPE csaw_link_send_total counter"));
        assert!(text.contains("csaw_link_send_total 3"));
        assert_eq!(text.matches("# TYPE csaw_passes_total counter\n").count(), 1);
        assert!(text.contains("csaw_passes_total{junction=\"b\"} 2\n"));
        assert!(text.contains("csaw_activation_duration_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert_eq!(m.counter_value("link_send_total"), 3);
        assert_eq!(m.counter_value("missing"), 0);
    }

    #[test]
    fn gauge_set_add_read() {
        let m = Metrics::new();
        let g = m.gauge("offered_rate");
        assert_eq!(g.value(), 0.0);
        g.set(125_000.0);
        assert_eq!(g.value(), 125_000.0);
        g.add(-25_000.0);
        assert_eq!(g.value(), 100_000.0);
        g.add(0.5);
        assert_eq!(m.gauge_value("offered_rate"), 100_000.5);
        assert_eq!(m.gauge_value("missing"), 0.0);
        // The handle and the registry see the same atomic.
        m.gauge("offered_rate").set(7.0);
        assert_eq!(g.value(), 7.0);
    }

    #[test]
    fn gauges_render_as_prometheus_gauges() {
        let m = Metrics::new();
        m.gauge("live_shards").set(4.0);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE csaw_live_shards gauge"));
        assert!(text.contains("csaw_live_shards 4"));
    }
}
