//! Order statistics for the benchmark's samples: medians, and the tail
//! percentile rule every latency metric reports.

/// The percentiles a tail may be reported at, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least one
/// unit before asking.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail latency: the value at `percentile` (nearest rank) of `n`
/// samples, with `beyond` samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, from [`TAIL_LADDER`].
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked strictly above it (at least [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Samples in the distribution.
    pub n: usize,
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest ladder percentile that leaves at least [`TAIL_BEYOND`]
/// samples beyond it, or `None` when there are too few samples for
/// even the median to qualify.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, rank(p, n)))
        .find(|&(_, r)| n >= r + TAIL_BEYOND)
        .map(|(percentile, r)| Tail {
            percentile,
            value: sorted[r - 1],
            beyond: n - r,
            n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_always_leaves_ten_samples_beyond() {
        for n in 0..20 {
            assert_eq!(
                tail(&vec![1.0; n]),
                None,
                "{n} samples cannot qualify a median"
            );
        }
        for n in 20..=5000 {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&values).expect("enough samples for a median");
            let above = values.iter().filter(|&&v| v > t.value).count();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            assert_eq!(above, t.beyond, "n={n}: distinct samples rank exactly");
        }
    }

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        let at = |n: usize| tail(&vec![1.0; n]).map(|t| t.percentile);
        assert_eq!(at(20), Some(50.0));
        assert_eq!(at(100), Some(90.0));
        assert_eq!(at(250), Some(95.0));
        assert_eq!(at(1000), Some(99.0));
        assert_eq!(at(20000), Some(99.9));
    }
}
