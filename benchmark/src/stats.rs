//! Order statistics over measured samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` samples is the sample at 1-based rank `ceil(p/100 · n)` in sorted
//! order, so every reported value is one that was actually measured.

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n ≥ 1` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median: the mean of the two middle samples for an even count; 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `(max − min) / median`: how far the samples of one run disagree; 0 for
/// fewer than two samples or a zero median.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}
