//! Log-bucketed mergeable histograms with an exact small-sample fallback.
//!
//! A [`Histogram`] records non-negative `u64` samples (by convention,
//! nanoseconds for latencies; raw counts elsewhere) into power-of-two
//! buckets: sample `v > 0` lands in bucket `bitlen(v)`, i.e. bucket `b`
//! covers `[2^(b-1), 2^b - 1]`, so a bucket-derived quantile is within 2×
//! of the true value. Alongside the buckets the histogram keeps the raw
//! samples up to a cap; while the cap is not exceeded quantiles are *exact
//! nearest-rank* — the same definition the serve engine's latency report
//! has always used — and only degrade to bucket resolution on overflow.
//!
//! All bucket/counter state is relaxed atomics, so concurrent recording
//! from rayon workers is lock-free and loss-free; the exact-sample vector
//! takes an uncontended mutex. Histograms [`merge`](Histogram::merge_from)
//! associatively: bucket counts and sums add, min/max combine, and exact
//! sample sets concatenate (degrading to buckets only if the merged count
//! overflows the cap).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of power-of-two buckets: bucket 0 holds zeros, bucket `b` holds
/// samples of bit length `b` (1..=64).
pub const N_BUCKETS: usize = 65;

/// Default cap on exactly-kept samples. Below this, quantiles are exact
/// nearest-rank; above it, bucket resolution (within 2×).
pub const DEFAULT_EXACT_CAP: usize = 65_536;

fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the value a bucket-resolution
/// quantile reports).
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A concurrent log-bucketed histogram. See the module docs.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    exact: Mutex<Vec<u64>>,
    exact_cap: usize,
    overflowed: AtomicBool,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("exact", &!self.overflowed())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram with the default exact-sample cap.
    pub fn new() -> Histogram {
        Histogram::with_exact_cap(DEFAULT_EXACT_CAP)
    }

    /// An empty histogram keeping up to `cap` raw samples for exact
    /// quantiles; past `cap` samples, quantiles fall to bucket resolution.
    pub fn with_exact_cap(cap: usize) -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exact: Mutex::new(Vec::new()),
            exact_cap: cap,
            overflowed: AtomicBool::new(false),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if !self.overflowed.load(Ordering::Relaxed) {
            let mut exact = self.exact.lock().unwrap();
            if exact.len() < self.exact_cap {
                exact.push(v);
            } else {
                self.overflowed.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.is_empty() {
            0
        } else {
            m
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Mean as a [`Duration`] of nanoseconds.
    pub fn mean_duration(&self) -> Duration {
        Duration::from_nanos(self.mean())
    }

    /// True once the histogram dropped to bucket resolution (exact cap
    /// exceeded, directly or through a merge).
    pub fn overflowed(&self) -> bool {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile, `p` in `0..=100`; 0 when empty.
    ///
    /// Exact while the raw samples fit the cap; at bucket resolution the
    /// reported value is the bucket's inclusive upper bound clamped into
    /// `[min, max]`, hence within 2× of the true order statistic.
    pub fn quantile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        if !self.overflowed() {
            let mut samples = self.exact.lock().unwrap().clone();
            return nearest_rank(&mut samples, p);
        }
        let rank = (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (b, cell) in self.buckets.iter().enumerate() {
            cum += cell.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(b).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// [`Histogram::quantile`] as a [`Duration`] of nanoseconds.
    pub fn quantile_duration(&self, p: f64) -> Duration {
        Duration::from_nanos(self.quantile(p))
    }

    /// Folds another histogram into this one. Bucket counts, counts and
    /// sums add; min/max combine; exact samples concatenate, degrading to
    /// bucket resolution only when the merged sample set exceeds this
    /// histogram's cap (or either side had already overflowed).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        if other.overflowed() {
            self.overflowed.store(true, Ordering::Relaxed);
        }
        if !self.overflowed() {
            // Lock order: always self before other. Merges in this codebase
            // fold worker-local histograms into one target, so the pair is
            // never locked in the opposite order concurrently.
            let mut mine = self.exact.lock().unwrap();
            let theirs = other.exact.lock().unwrap();
            if mine.len() + theirs.len() <= self.exact_cap {
                mine.extend_from_slice(&theirs);
            } else {
                self.overflowed.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Per-bucket counts as `(inclusive_upper_bound, count)` for non-empty
    /// buckets, in increasing bound order (the Prometheus exporter reads
    /// this).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper(b), n))
            })
            .collect()
    }

    /// Clears all state (tests and A/B sweeps).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.exact.lock().unwrap().clear();
        self.overflowed.store(false, Ordering::Relaxed);
    }
}

/// The nearest-rank order statistic on an unsorted sample set — the single
/// definition every percentile report in the workspace now shares.
pub fn nearest_rank(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    samples[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn exact_quantiles_match_nearest_rank() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!(!h.overflowed());
        assert_eq!(h.quantile(50.0), 50);
        assert_eq!(h.quantile(95.0), 95);
        assert_eq!(h.quantile(99.0), 99);
        assert_eq!(h.quantile(100.0), 100);
        assert_eq!(h.mean(), 50); // integer mean of 50.5
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(99.0), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn overflow_degrades_to_buckets_within_2x() {
        let h = Histogram::with_exact_cap(10);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.overflowed());
        for p in [10.0, 50.0, 90.0, 99.0] {
            let approx = h.quantile(p);
            let exact = ((p / 100.0) * 1000.0).ceil() as u64;
            assert!(
                approx >= exact && approx <= exact.saturating_mul(2),
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_preserves_exact_path() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=50 {
            a.record(v);
        }
        for v in 51..=100 {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.quantile(50.0), 50);
        assert_eq!(a.quantile(99.0), 99);
        assert_eq!(a.max(), 100);
        assert_eq!(a.min(), 1);
    }

    #[test]
    fn merge_overflow_degrades() {
        let a = Histogram::with_exact_cap(60);
        let b = Histogram::with_exact_cap(60);
        for v in 1..=50 {
            a.record(v);
            b.record(v + 50);
        }
        a.merge_from(&b);
        assert!(a.overflowed());
        assert_eq!(a.count(), 100);
        let q = a.quantile(50.0);
        assert!((50..=100).contains(&q), "bucketed median {q}");
    }

    #[test]
    fn duration_roundtrip() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(120));
        assert_eq!(h.quantile_duration(50.0), Duration::from_micros(120));
        assert_eq!(h.mean_duration(), Duration::from_micros(120));
    }

    #[test]
    fn buckets_expose_cumulative_material() {
        let h = Histogram::new();
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(900);
        let buckets = h.buckets();
        let total: u64 = buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 4);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.quantile(50.0), 0);
    }
}
