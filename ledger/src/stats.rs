//! Percentiles, medians and quartiles, and the latency recorder.

/// Samples that must lie beyond a reported percentile (choosing-metrics
/// §1: "the highest percentile that has at least ten samples beyond it").
pub const BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) among `n` samples,
/// capped so that at least [`BEYOND`] samples lie beyond it. With too
/// few samples for `p` the rank therefore falls back to the highest
/// percentile the sample supports.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 1.0);
    let nearest = (p * n as f64).ceil() as usize;
    nearest.clamp(1, n.saturating_sub(BEYOND).max(1))
}

/// Nearest-rank percentile of an ascending slice: the plain reference
/// the recorder is tested against.
#[cfg(test)]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of an unsorted set (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        // position i·(n+1)/4, clamped to the data, linearly interpolated
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Exact per-request latencies in bounded memory: one counter per
/// nanosecond below [`FINE`], the raw value above. Memory stays at
/// 256 KiB plus the slow samples, so `rss_mb` measures the runtime
/// and not the harness even at millions of samples.
pub struct Latencies {
    fine: Vec<u32>,
    slow: Vec<u64>,
    count: usize,
}

const FINE: u64 = 1 << 16;

impl Latencies {
    pub fn new() -> Latencies {
        Latencies {
            fine: vec![0; FINE as usize],
            slow: Vec::new(),
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        if ns < FINE {
            self.fine[ns as usize] += 1;
        } else {
            self.slow.push(ns);
        }
        self.count += 1;
    }

    pub fn count(&self) -> usize {
        self.count
    }

    pub fn clear(&mut self) {
        self.fine.fill(0);
        self.slow.clear();
        self.count = 0;
    }

    /// Nearest-rank percentile in ns under the [`rank`] cap; 0 when empty.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = rank(self.count, p);
        let mut seen = 0usize;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c as usize;
            if seen >= target {
                return ns as u64;
            }
        }
        self.slow.sort_unstable();
        self.slow[target - seen - 1]
    }

    pub fn max(&self) -> u64 {
        self.slow
            .iter()
            .copied()
            .max()
            .or_else(|| self.fine.iter().rposition(|&c| c > 0).map(|ns| ns as u64))
            .unwrap_or(0)
    }

    /// Count and summed ns of samples slower than `limit_ns` (≥ [`FINE`]).
    pub fn slower_than(&self, limit_ns: u64) -> (usize, u64) {
        assert!(limit_ns >= FINE);
        let slow = self.slow.iter().filter(|&&ns| ns > limit_ns);
        (slow.clone().count(), slow.sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_and_large_samples() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        // p99.9 of 1000 samples would leave one sample beyond it: capped
        // to rank n-10, which p99 reaches exactly and p99.9 of 10000 clears.
        assert_eq!(percentile(&v, 0.999), 990);
        assert_eq!(rank(10_000, 0.999), 9990);
        // fewer samples than the cap needs: the smallest rank, never a panic
        assert_eq!(percentile(&[7, 9], 0.99), 7);
    }

    #[test]
    fn recorder_matches_sorted_slice() {
        let mut l = Latencies::new();
        let mut all = Vec::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = if x.is_multiple_of(50) {
                70_000 + (x >> 40) % 3_000_000
            } else {
                (x >> 33) % 60_000
            };
            l.record(ns);
            all.push(ns);
        }
        all.sort_unstable();
        for p in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(l.percentile(p), percentile(&all, p), "p = {p}");
        }
        assert_eq!(l.max(), *all.last().unwrap());
        let (n, sum) = l.slower_than(1_000_000);
        assert_eq!(n, all.iter().filter(|&&v| v > 1_000_000).count());
        assert_eq!(sum, all.iter().filter(|&&v| v > 1_000_000).sum::<u64>());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
