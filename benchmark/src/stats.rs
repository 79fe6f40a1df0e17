//! Order statistics and means over the driver's samples.

use std::time::Instant;

/// The `p`-th percentile (0–100) of `sorted`, by linear interpolation
/// between closest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Ascending copy of `samples` (NaNs are a driver bug and panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// The tail percentiles tried, highest first.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];
/// A tail percentile is reported only with this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// The highest of p99/p95/p90/p75 that has at least ten samples beyond
/// it, as `(percentile, value)`; `None` when even p75 has fewer (under
/// 40 samples), so a tail is never read off a handful of rounds.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAILS.iter().copied().find_map(|p| {
        let beyond = (sorted.len() as f64 * (100.0 - p) / 100.0).floor() as usize;
        (beyond >= MIN_BEYOND).then(|| (p, percentile(sorted, p)))
    })
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median wall seconds of `reps` runs of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(39)), None);
        assert_eq!(tail(&samples(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&samples(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&samples(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&samples(999)).map(|t| t.0), Some(95.0));
        let (p, v) = tail(&samples(1001)).expect("tail");
        assert_eq!(p, 99.0);
        assert!((v - 990.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
