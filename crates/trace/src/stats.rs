//! Small statistics helpers shared by the evaluation harnesses.
//!
//! The paper's Table I reports coefficients of determination (R²) for
//! competing energy estimators, and Fig. 9(c) plots CDFs of relative
//! estimation errors. These helpers implement exactly those computations.

/// Arithmetic mean; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Coefficient of determination of predictions against observations.
///
/// `R² = 1 − SS_res / SS_tot`. Degenerate inputs (length mismatch handled by
/// panic, constant observations) return `R² = 0` when residuals are nonzero
/// and `1` for a perfect fit.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn r_squared(observed: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        predicted.len(),
        "observed and predicted lengths must match"
    );
    if observed.is_empty() {
        return 0.0;
    }
    let m = mean(observed);
    let ss_res: f64 = observed
        .iter()
        .zip(predicted)
        .map(|(o, p)| (o - p).powi(2))
        .sum();
    let ss_tot: f64 = observed.iter().map(|o| (o - m).powi(2)).sum();
    if ss_tot <= f64::EPSILON {
        return if ss_res <= f64::EPSILON { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Mean absolute percent error of predictions, in percent.
///
/// Observations with magnitude below `1e-15` are skipped to avoid division by
/// zero; if all are skipped the result is zero.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn mean_absolute_percent_error(observed: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        predicted.len(),
        "observed and predicted lengths must match"
    );
    let mut total = 0.0;
    let mut n = 0usize;
    for (o, p) in observed.iter().zip(predicted) {
        if o.abs() > 1e-15 {
            total += ((o - p) / o).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Empirical CDF of absolute percent errors: returns `(error_pct, fraction)`
/// pairs sorted by error, where `fraction` is the share of samples with error
/// at most `error_pct`. Empty inputs yield an empty CDF.
///
/// # Panics
///
/// Panics if the two slices have different lengths, or if either contains
/// NaN (a NaN observation would otherwise be silently dropped by the
/// zero-magnitude filter and a NaN prediction would corrupt the error
/// ordering).
pub fn error_cdf(observed: &[f64], predicted: &[f64]) -> Vec<(f64, f64)> {
    assert_eq!(
        observed.len(),
        predicted.len(),
        "observed and predicted lengths must match"
    );
    assert!(
        observed.iter().chain(predicted).all(|x| !x.is_nan()),
        "error_cdf input contains NaN"
    );
    let mut errors: Vec<f64> = observed
        .iter()
        .zip(predicted)
        .filter(|(o, _)| o.abs() > 1e-15)
        .map(|(o, p)| 100.0 * ((o - p) / o).abs())
        .collect();
    errors.sort_by(f64::total_cmp);
    let n = errors.len();
    errors
        .into_iter()
        .enumerate()
        .map(|(i, e)| (e, (i + 1) as f64 / n as f64))
        .collect()
}

/// Median of a sample (50th percentile).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of a sample.
///
/// # Panics
///
/// Panics if `xs` is empty, contains NaN (`total_cmp` would sort NaN to one
/// end and silently return it as an extreme percentile), or `p` is outside
/// `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    assert!(
        xs.iter().all(|x| !x.is_nan()),
        "percentile of sample containing NaN"
    );
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_perfect_fit_is_one() {
        let o = [1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&o, &o) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_mean_predictor_is_zero() {
        let o = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r_squared(&o, &p).abs() < 1e-12);
    }

    #[test]
    fn r_squared_bad_fit_is_negative() {
        let o = [1.0, 2.0, 3.0];
        let p = [3.0, 2.0, 1.0];
        assert!(r_squared(&o, &p) < 0.0);
    }

    #[test]
    fn r_squared_constant_observations() {
        let o = [5.0, 5.0, 5.0];
        assert!((r_squared(&o, &o) - 1.0).abs() < 1e-12);
        assert_eq!(r_squared(&o, &[5.0, 6.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn r_squared_length_mismatch_panics() {
        let _ = r_squared(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn mape_basic() {
        let o = [100.0, 200.0];
        let p = [110.0, 180.0];
        assert!((mean_absolute_percent_error(&o, &p) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mape_skips_zero_observations() {
        let o = [0.0, 100.0];
        let p = [5.0, 90.0];
        assert!((mean_absolute_percent_error(&o, &p) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let o = [10.0, 20.0, 30.0, 40.0];
        let p = [11.0, 18.0, 33.0, 40.0];
        let cdf = error_cdf(&o, &p);
        assert_eq!(cdf.len(), 4);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().expect("non-empty").1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_is_the_middle() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 3.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile of empty sample")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        for p in [0.0, 37.0, 50.0, 100.0] {
            assert_eq!(percentile(&[4.25], p), 4.25);
        }
    }

    #[test]
    #[should_panic(expected = "containing NaN")]
    fn percentile_rejects_nan() {
        let _ = percentile(&[1.0, f64::NAN, 2.0], 50.0);
    }

    #[test]
    fn error_cdf_empty_input_yields_empty_cdf() {
        assert!(error_cdf(&[], &[]).is_empty());
    }

    #[test]
    fn error_cdf_single_sample_reaches_one() {
        let cdf = error_cdf(&[100.0], &[90.0]);
        assert_eq!(cdf.len(), 1);
        assert!((cdf[0].0 - 10.0).abs() < 1e-12);
        assert!((cdf[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn error_cdf_rejects_nan_observed() {
        let _ = error_cdf(&[f64::NAN], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn error_cdf_rejects_nan_predicted() {
        let _ = error_cdf(&[1.0], &[f64::NAN]);
    }

    proptest! {
        #[test]
        fn r_squared_at_most_one(
            o in proptest::collection::vec(-100.0f64..100.0, 2..50),
            noise in proptest::collection::vec(-10.0f64..10.0, 2..50),
        ) {
            let n = o.len().min(noise.len());
            let p: Vec<f64> = o[..n].iter().zip(&noise[..n]).map(|(a, b)| a + b).collect();
            prop_assert!(r_squared(&o[..n], &p) <= 1.0 + 1e-12);
        }

        #[test]
        fn percentile_within_range(
            xs in proptest::collection::vec(-100.0f64..100.0, 1..50),
            p in 0.0f64..100.0,
        ) {
            let v = percentile(&xs, p);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }
}
