//! Order statistics for the reported timings.
//!
//! A tail timing is reported at the highest percentile that still has at
//! least [`MIN_BEYOND`] samples beyond it, so a short run never reports a
//! "p99" that rests on one or two samples. The chosen percentile and the
//! sample count go into the result document next to the value.

/// Percentiles a tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples ranked strictly above the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A tail timing and the percentile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (a [`TAIL_LADDER`] rung).
    pub percentile: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Samples the value was taken from.
    pub samples: usize,
}

/// The highest [`TAIL_LADDER`] percentile with at least [`MIN_BEYOND`]
/// samples beyond it. With fewer than `2 * MIN_BEYOND` samples no rung
/// qualifies and the median is reported (its `percentile` says so).
pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    let percentile = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile,
        value: percentile_sorted(&sorted, percentile),
        samples: n,
    }
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond, p95 leaves 49.
        let t = tail(&ramp(999));
        assert_eq!(t.percentile, 95.0);
        assert_eq!(beyond(999, 95.0), 49);
        // 200 samples: p95 leaves exactly 10.
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.value), (95.0, 190.0));
        // 199 samples: p95 leaves 9, p90 leaves 19.
        assert_eq!(tail(&ramp(199)).percentile, 90.0);
        // Every chosen rung really has >= 10 beyond and the next higher
        // rung does not.
        for n in 20..3000 {
            let t = tail(&ramp(n));
            assert!(beyond(n, t.percentile) >= MIN_BEYOND, "n={n}");
            let higher = TAIL_LADDER.iter().take_while(|&&p| p > t.percentile);
            for &p in higher {
                assert!(beyond(n, p) < MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_falls_back_to_median_for_tiny_samples() {
        let t = tail(&ramp(15));
        assert_eq!((t.percentile, t.value), (50.0, 8.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(500)));
        assert_eq!(median(&v), 250.0);
    }
}
