//! Sample statistics: percentiles, the tail-percentile rule and drift.

/// The percentile ladder the tail rule climbs.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// closest ranks. Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&v, p)
}

fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, for `n` samples. Below 20 samples no rung
/// qualifies and the rule falls back to the median.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
        .unwrap_or(TAIL_LADDER[0])
}

/// Mean of the last tenths of the sequences over the mean of their first
/// tenths (each tenth at least one sample), pooling the tenths of all
/// sequences; 1 when there are no samples.
///
/// Means, not medians: where ops mix two costs (a cache hit against a
/// spill with fsync), the median of a tenth jumps between the two modes
/// from run to run, while the mean per-op cost moves smoothly.
pub fn drift<'a>(seqs: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for seq in seqs.into_iter().filter(|s| !s.is_empty()) {
        let k = (seq.len() / 10).max(1);
        first.extend_from_slice(&seq[..k]);
        last.extend_from_slice(&seq[seq.len() - k..]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let first = mean(&first);
    if first > 0.0 {
        mean(&last) / first
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // Each rung needs n * (1 - p) >= 10.
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(99_999), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(10_000_000), 99.99);
    }

    #[test]
    fn tail_rule_value_has_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail_percentile(v.len());
        assert_eq!(p, 99.0);
        let x = percentile(&v, p);
        assert!(v.iter().filter(|&&s| s > x).count() >= 10);
    }

    #[test]
    fn drift_compares_last_and_first_tenths() {
        let flat = vec![2.0; 50];
        assert_eq!(drift([flat.as_slice()]), 1.0);
        let growing: Vec<f64> = (1..=100).map(f64::from).collect();
        // first tenth 1..=10 (median 5.5), last tenth 91..=100 (95.5)
        assert!((drift([growing.as_slice()]) - 95.5 / 5.5).abs() < 1e-12);
        assert_eq!(drift([[3.0].as_slice()]), 1.0);
        assert_eq!(drift(std::iter::empty()), 1.0);
        // Tenths pool across sequences: first {1, 3}, last {2, 6}.
        assert_eq!(drift([[1.0, 2.0].as_slice(), [3.0, 6.0].as_slice()]), 2.0);
    }
}
