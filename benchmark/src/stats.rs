//! Order statistics and failure accounting for the benchmark's reports.

/// Percentile levels a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with at
/// least `level`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a level outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], level: f64) -> f64 {
    sorted[rank_index(sorted.len(), level)]
}

fn rank_index(n: usize, level: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(level > 0.0 && level <= 100.0, "percentile level {level}");
    // The epsilon absorbs rounding in the last bit, which would otherwise
    // move e.g. p99.9 of 10 000 samples from rank 9 990 to 9 991.
    let k = (level * n as f64 / 100.0 - 1e-9).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `level` percentile of `n`.
pub fn beyond(n: usize, level: f64) -> usize {
    n - 1 - rank_index(n, level)
}

/// The highest ladder level with at least [`MIN_BEYOND`] samples beyond it,
/// or `None` when `n` is too small for even the median to qualify.
pub fn tail_level(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&level| beyond(n, level) >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartiles `[q1, q2, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the run-to-run spread is
/// judged by.
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let m = s.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        // Python clamps j to [1, n-1] so both neighbours exist.
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Attempted and failed operations of one run. An operation fails when its
/// output disagrees with the oracle, it returns an error, or it leaves
/// resident bytes behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks every attempted operation failed: used when the reference the
    /// operations were compared against is itself wrong.
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_level_with_ten_samples_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(19), None, "the median of 19 has 9 beyond");
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(39), Some(50.0));
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(99), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(199), Some(90.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        for n in 1..2_000 {
            if let Some(level) = tail_level(n) {
                assert!(beyond(n, level) >= MIN_BEYOND, "n={n} level={level}");
            }
        }
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 90.0), 90.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
        assert_eq!(nearest_rank(&ramp(60), 75.0), 45.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        assert_eq!(quartiles(&ramp(9)), [2.5, 5.0, 7.5]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // Order does not matter.
        let mut shuffled = ramp(10);
        shuffled.reverse();
        assert_eq!(quartiles(&shuffled), quartiles(&ramp(10)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert!((spread(&ramp(10)) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failed_share_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_share(), 0.25);
        t.fail_all();
        assert_eq!(t.failed_share(), 1.0);
    }
}
