//! Order statistics for the reported figures.

/// Median of `xs`: the middle sample, or the mean of the middle pair for an
/// even count. `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile: with fewer, a
/// tail figure is one or two unlucky samples, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles in tenths of a percent, lowest first.
const LADDER: [u32; 4] = [500, 900, 990, 999];

/// A tail figure with the percentile it really is and what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50, 90, 99 or 99.9).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// 1-based nearest rank of percentile `p10` (tenths of a percent) among `n`
/// samples.
fn rank(p10: u32, n: usize) -> usize {
    (p10 as usize * n).div_ceil(1000).max(1)
}

/// The highest percentile of the ladder that leaves at least
/// [`MIN_BEYOND`] samples beyond it; the median when none does (it is then
/// the only figure the samples support).
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p10 = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(p, n) + MIN_BEYOND)
        .unwrap_or(500);
    Tail {
        pct: f64::from(p10) / 10.0,
        value: if n == 0 {
            f64::NAN
        } else {
            v[rank(p10, n) - 1]
        },
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so selection cannot lean on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9
        // would leave 1.
        assert_eq!(
            tail(&ramp(1000)),
            Tail {
                pct: 99.0,
                value: 990.0,
                samples: 1000
            }
        );
        // One short: p99 leaves 9, so the figure drops to p90.
        assert_eq!(tail(&ramp(999)).pct, 90.0);
        assert_eq!(tail(&ramp(10_000)).pct, 99.9);
        assert_eq!(
            tail(&ramp(100)),
            Tail {
                pct: 90.0,
                value: 90.0,
                samples: 100
            }
        );
        assert_eq!(tail(&ramp(20)).pct, 50.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median_and_say_so() {
        let t = tail(&ramp(4));
        assert_eq!((t.pct, t.value, t.samples), (50.0, 2.0, 4));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
