//! Order statistics over per-rep samples.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [p25, median, p75] = quartiles(&sorted)?;
        Some(Self {
            median,
            p25,
            p75,
            n: sorted.len(),
        })
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

/// Quartiles of sorted data by the "exclusive" method, the default of
/// Python's `statistics.quantiles(data, n=4)`, so the spreads printed here
/// are the spreads a Python reader computes from the same samples.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let len = sorted.len();
    match len {
        0 => None,
        1 => Some([sorted[0]; 3]),
        _ => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                // `delta` may be negative at the clamped ends, where Python
                // extrapolates; the integer arithmetic mirrors it exactly.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// Tail percentiles a timing may be reported at, in per-mille.
const TAILS_PER_MILLE: [usize; 4] = [999, 990, 900, 500];

/// The highest tail percentile that has at least ten samples beyond it,
/// as `(percentile, nearest-rank value)`; `None` below twenty samples.
/// Fewer than ten samples beyond a percentile make it a single outlier's
/// reading, so it is not reported.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let per_mille = TAILS_PER_MILLE
        .into_iter()
        .find(|&p| n - (p * n).div_ceil(1000) >= 10)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (per_mille * n).div_ceil(1000);
    Some((per_mille as f64 / 10.0, sorted[rank - 1]))
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // A rank in [1, len] for q in [0, 1].
    #[allow(clippy::cast_possible_truncation)]
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).expect("non-empty");
        assert!(close(s.p25, 2.75) && close(s.median, 5.5) && close(s.p75, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let three = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert!(close(three.p25, 1.0) && close(three.median, 2.0) && close(three.p75, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let two = Summary::of(&[2.0, 1.0]).expect("non-empty");
        assert!(close(two.p25, 0.75) && close(two.median, 1.5) && close(two.p75, 2.25));
        let one = Summary::of(&[4.0]).expect("non-empty");
        assert!(close(one.median, 4.0) && close(one.iqr(), 0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(19)), None, "p50 has only 9 beyond");
        assert_eq!(tail(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(
            tail(&samples(99)),
            Some((50.0, 50.0)),
            "p90 has only 9 beyond"
        );
        assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&samples(999)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&samples(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn nearest_rank_quantile() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!(close(quantile(&s, 0.5), 3.0));
        assert!(close(quantile(&s, 0.99), 5.0));
        assert!(close(quantile(&s, 0.0), 1.0));
        assert!(close(quantile(&[], 0.5), 0.0));
    }
}
