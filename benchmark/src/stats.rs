//! The ruler: nearest-rank percentiles on a 0..=100 scale, medians and
//! means. Deliberately independent of
//! `stgraph_serve::LatencyRecorder` (whose scale was mis-read once, see
//! ROADMAP item 1) so the benchmark cannot inherit a product bug.

/// A percentile on the 0..=100 scale. Only the three the benchmark reports
/// can be named, so a 0..1 fraction (`0.99`) cannot silently mean "p0.99".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct(f64);

impl Pct {
    /// The median.
    pub const P50: Pct = Pct(50.0);
    /// Tail percentile of the training workloads.
    pub const P90: Pct = Pct(90.0);
    /// Tail percentile of the serving workload.
    pub const P99: Pct = Pct(99.0);

    /// The percentile as a number on the 0..=100 scale.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// Nearest-rank percentile: the smallest sample such that at least `p` %
/// of the samples are `<=` it (rank `ceil(p/100 · n)`, 1-based). `None` on
/// an empty slice.
pub fn percentile(sorted: &[f64], p: Pct) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let rank = ((p.0 / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest-rank position of `p` —
/// the support a tail percentile stands on.
pub fn samples_beyond(n: usize, p: Pct) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p.0 / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_FLOOR: usize = 10;

/// Sorts a copy of `values` ascending (total order; NaN is rejected by the
/// callers before it gets here — a non-finite latency is a failed op).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle samples for even counts (matches
/// Python's `statistics.median`). `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Mean; 0 for an empty slice (used for layer metrics whose absence on a
/// workload is itself the "does not run here" signal).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn scale_is_zero_to_hundred() {
        assert_eq!(
            [Pct::P50, Pct::P90, Pct::P99].map(Pct::get),
            [50.0, 90.0, 99.0]
        );
        // On a 0..1 scale p99 of 1..=1000 would be the 10th sample, not the 990th.
        assert_eq!(percentile(&ramp(1000), Pct::P99), Some(990.0));
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(100);
        assert_eq!(percentile(&s, Pct::P50), Some(50.0));
        assert_eq!(percentile(&s, Pct::P90), Some(90.0));
        assert_eq!(percentile(&s, Pct::P99), Some(99.0));
        assert_eq!(percentile(&[7.0], Pct::P99), Some(7.0));
        // Nearest rank never interpolates: always an observed sample.
        let s = vec![1.0, 10.0, 100.0];
        assert_eq!(percentile(&s, Pct::P50), Some(10.0));
        assert_eq!(percentile(&s, Pct::P90), Some(100.0));
        assert_eq!(percentile(&[], Pct::P50), None);
    }

    #[test]
    fn tail_support_is_counted() {
        assert_eq!(samples_beyond(100, Pct::P90), 10);
        assert_eq!(
            samples_beyond(99, Pct::P90),
            9,
            "99 samples: p90 is under-supported"
        );
        assert_eq!(samples_beyond(18_000, Pct::P99), 180);
        assert_eq!(samples_beyond(0, Pct::P99), 0);
        assert!(samples_beyond(100, Pct::P90) >= TAIL_FLOOR);
        assert!(samples_beyond(99, Pct::P90) < TAIL_FLOOR);
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
