//! The three regression methods Table I compares: linear, logistic, neural.

/// A regression model mapping feature vectors to a scalar target.
pub trait Regressor {
    /// Fits the model to `(features, targets)`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the data is empty or feature lengths are
    /// inconsistent.
    fn fit(&mut self, features: &[Vec<f64>], targets: &[f64]);

    /// Predicts the target for one feature vector.
    fn predict(&self, features: &[f64]) -> f64;

    /// Predicts a batch.
    fn predict_all(&self, features: &[Vec<f64>]) -> Vec<f64> {
        features.iter().map(|f| self.predict(f)).collect()
    }
}

/// K-fold cross-validated R² of a regressor factory on a dataset: fits a
/// fresh model per fold and scores on the held-out slice, returning the
/// per-fold R² values (paper Table I's protocol, made explicit).
///
/// # Panics
///
/// Panics if `k < 2` or the dataset has fewer than `k` samples.
pub fn cross_validate_r2<R: Regressor>(
    make: impl Fn() -> R,
    features: &[Vec<f64>],
    targets: &[f64],
    k: usize,
) -> Vec<f64> {
    assert!(k >= 2, "need at least two folds");
    assert!(
        features.len() >= k,
        "need at least k samples ({} < {k})",
        features.len()
    );
    assert_eq!(
        features.len(),
        targets.len(),
        "features/targets length mismatch"
    );
    let n = features.len();
    let mut scores = Vec::with_capacity(k);
    for fold in 0..k {
        let lo = n * fold / k;
        let hi = n * (fold + 1) / k;
        let mut train_x = Vec::with_capacity(n - (hi - lo));
        let mut train_y = Vec::with_capacity(n - (hi - lo));
        for i in (0..lo).chain(hi..n) {
            train_x.push(features[i].clone());
            train_y.push(targets[i]);
        }
        let mut model = make();
        model.fit(&train_x, &train_y);
        let preds: Vec<f64> = (lo..hi).map(|i| model.predict(&features[i])).collect();
        scores.push(solarml_trace::r_squared(&targets[lo..hi], &preds));
    }
    scores
}

fn check_data(features: &[Vec<f64>], targets: &[f64]) -> usize {
    assert!(!features.is_empty(), "cannot fit on empty data");
    assert_eq!(
        features.len(),
        targets.len(),
        "features/targets length mismatch"
    );
    let d = features[0].len();
    assert!(
        features.iter().all(|f| f.len() == d),
        "inconsistent feature dimensionality"
    );
    d
}

/// Ordinary least squares with a small ridge term for stability.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearRegression {
    /// Learned weights, one per feature.
    pub weights: Vec<f64>,
    /// Learned intercept.
    pub intercept: f64,
}

impl LinearRegression {
    /// Creates an unfit model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Regressor for LinearRegression {
    fn fit(&mut self, features: &[Vec<f64>], targets: &[f64]) {
        let d = check_data(features, targets);
        let n = features.len();
        let dim = d + 1; // + intercept
                         // Normal equations with ridge: (XᵀX + λI) w = Xᵀy.
        let mut xtx = vec![vec![0.0f64; dim]; dim];
        let mut xty = vec![0.0f64; dim];
        for (f, &y) in features.iter().zip(targets) {
            let mut row = Vec::with_capacity(dim);
            row.extend_from_slice(f);
            row.push(1.0);
            for i in 0..dim {
                xty[i] += row[i] * y;
                for j in 0..dim {
                    xtx[i][j] += row[i] * row[j];
                }
            }
        }
        let lambda = 1e-9 * n as f64;
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += lambda;
        }
        let w = solve(xtx, xty);
        self.intercept = w[d];
        self.weights = w[..d].to_vec();
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.weights.len(), "feature size mismatch");
        self.intercept
            + self
                .weights
                .iter()
                .zip(features)
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }
}

/// Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-30 {
            continue; // singular direction; ridge keeps this rare
        }
        for row in col + 1..n {
            let factor = a[row][col] / diag;
            // physics-lint: allow(float-eq): exact-zero skip is an elimination shortcut, not a tolerance test
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-30 {
            0.0
        } else {
            acc / a[col][col]
        };
    }
    x
}

/// A logistic-shaped (sigmoid) regression: `y = L · σ(w·x + b)`.
///
/// Fit by gradient descent on squared error, with feature standardization.
/// The sigmoid saturates, so it fits the unbounded, essentially linear
/// energy targets poorly — exactly the failure Table I reports (R² 0.018 on
/// layer-wise MACs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    amplitude: f64,
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl LogisticRegression {
    /// Creates an unfit model.
    pub fn new() -> Self {
        Self::default()
    }

    fn standardize(&self, f: &[f64]) -> Vec<f64> {
        f.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(x, (m, s))| (x - m) / s)
            .collect()
    }
}

impl Regressor for LogisticRegression {
    fn fit(&mut self, features: &[Vec<f64>], targets: &[f64]) {
        let d = check_data(features, targets);
        let n = features.len() as f64;
        self.mean = (0..d)
            .map(|j| features.iter().map(|f| f[j]).sum::<f64>() / n)
            .collect();
        self.std = (0..d)
            .map(|j| {
                let m = self.mean[j];
                (features.iter().map(|f| (f[j] - m).powi(2)).sum::<f64>() / n)
                    .sqrt()
                    .max(1e-12)
            })
            .collect();
        // Amplitude anchored at the max target (the sigmoid's ceiling).
        self.amplitude = targets.iter().copied().fold(f64::MIN, f64::max).max(1e-12);
        self.weights = vec![0.1; d];
        self.bias = 0.0;
        let lr = 0.05;
        for _ in 0..500 {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (f, &y) in features.iter().zip(targets) {
                let z = self.standardize(f);
                let lin: f64 =
                    self.bias + self.weights.iter().zip(&z).map(|(w, x)| w * x).sum::<f64>();
                let sig = 1.0 / (1.0 + (-lin).exp());
                let pred = self.amplitude * sig;
                let err = pred - y;
                let dsig = self.amplitude * sig * (1.0 - sig);
                for j in 0..d {
                    gw[j] += 2.0 * err * dsig * z[j];
                }
                gb += 2.0 * err * dsig;
            }
            let scale = lr / n / self.amplitude.powi(2).max(1e-12);
            for j in 0..d {
                self.weights[j] -= scale * gw[j] * self.amplitude;
            }
            self.bias -= scale * gb * self.amplitude;
        }
    }

    fn predict(&self, features: &[f64]) -> f64 {
        let z = self.standardize(features);
        let lin: f64 = self.bias + self.weights.iter().zip(&z).map(|(w, x)| w * x).sum::<f64>();
        self.amplitude / (1.0 + (-lin).exp())
    }
}

/// A tiny one-hidden-layer neural regressor (8 tanh units), trained by
/// full-batch gradient descent on standardized features/targets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeuralRegression {
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    mean: Vec<f64>,
    std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    /// Hidden width (default 8).
    pub hidden: usize,
    /// Training iterations (default 800).
    pub iterations: usize,
}

impl NeuralRegression {
    /// Creates an unfit model with default capacity.
    pub fn new() -> Self {
        Self {
            hidden: 8,
            iterations: 800,
            ..Self::default()
        }
    }

    fn forward(&self, z: &[f64]) -> (Vec<f64>, f64) {
        let h: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(row, b)| (row.iter().zip(z).map(|(w, x)| w * x).sum::<f64>() + b).tanh())
            .collect();
        let y = self.w2.iter().zip(&h).map(|(w, x)| w * x).sum::<f64>() + self.b2;
        (h, y)
    }
}

impl Regressor for NeuralRegression {
    fn fit(&mut self, features: &[Vec<f64>], targets: &[f64]) {
        let d = check_data(features, targets);
        if self.hidden == 0 {
            self.hidden = 8;
        }
        if self.iterations == 0 {
            self.iterations = 800;
        }
        let n = features.len() as f64;
        self.mean = (0..d)
            .map(|j| features.iter().map(|f| f[j]).sum::<f64>() / n)
            .collect();
        self.std = (0..d)
            .map(|j| {
                let m = self.mean[j];
                (features.iter().map(|f| (f[j] - m).powi(2)).sum::<f64>() / n)
                    .sqrt()
                    .max(1e-12)
            })
            .collect();
        self.y_mean = targets.iter().sum::<f64>() / n;
        self.y_std = (targets
            .iter()
            .map(|y| (y - self.y_mean).powi(2))
            .sum::<f64>()
            / n)
            .sqrt()
            .max(1e-12);
        // Deterministic quasi-random init.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        self.w1 = (0..self.hidden)
            .map(|_| (0..d).map(|_| next()).collect())
            .collect();
        self.b1 = (0..self.hidden).map(|_| next() * 0.1).collect();
        self.w2 = (0..self.hidden).map(|_| next()).collect();
        self.b2 = 0.0;

        let zs: Vec<Vec<f64>> = features
            .iter()
            .map(|f| {
                f.iter()
                    .zip(self.mean.iter().zip(&self.std))
                    .map(|(x, (m, s))| (x - m) / s)
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = targets
            .iter()
            .map(|y| (y - self.y_mean) / self.y_std)
            .collect();
        let lr = 0.05;
        for _ in 0..self.iterations {
            let mut gw1 = vec![vec![0.0; d]; self.hidden];
            let mut gb1 = vec![0.0; self.hidden];
            let mut gw2 = vec![0.0; self.hidden];
            let mut gb2 = 0.0;
            for (z, &y) in zs.iter().zip(&ys) {
                let (h, pred) = self.forward(z);
                let err = pred - y;
                gb2 += 2.0 * err;
                for k in 0..self.hidden {
                    gw2[k] += 2.0 * err * h[k];
                    let dh = 2.0 * err * self.w2[k] * (1.0 - h[k] * h[k]);
                    gb1[k] += dh;
                    for j in 0..d {
                        gw1[k][j] += dh * z[j];
                    }
                }
            }
            let s = lr / n;
            for k in 0..self.hidden {
                self.w2[k] -= s * gw2[k];
                self.b1[k] -= s * gb1[k];
                for j in 0..d {
                    self.w1[k][j] -= s * gw1[k][j];
                }
            }
            self.b2 -= s * gb2;
        }
    }

    fn predict(&self, features: &[f64]) -> f64 {
        let z: Vec<f64> = features
            .iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(x, (m, s))| (x - m) / s)
            .collect();
        let (_, y) = self.forward(&z);
        y * self.y_std + self.y_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_trace::r_squared;

    fn linear_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 10) as f64;
                let b = ((i * 7) % 13) as f64;
                vec![a, b]
            })
            .collect();
        let targets = features
            .iter()
            .map(|f| 3.0 * f[0] - 2.0 * f[1] + 5.0)
            .collect();
        (features, targets)
    }

    #[test]
    fn linear_recovers_exact_coefficients() {
        let (x, y) = linear_data(100);
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y);
        assert!((lr.weights[0] - 3.0).abs() < 1e-6);
        assert!((lr.weights[1] + 2.0).abs() < 1e-6);
        assert!((lr.intercept - 5.0).abs() < 1e-5);
        let preds = lr.predict_all(&x);
        assert!(r_squared(&y, &preds) > 0.999);
    }

    #[test]
    fn linear_handles_single_feature() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 2.0 * i as f64 + 1.0).collect();
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y);
        assert!((lr.predict(&[10.0]) - 21.0).abs() < 1e-6);
    }

    #[test]
    fn linear_with_collinear_features_is_stable() {
        // Duplicate feature columns: ridge keeps the solve finite.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| 4.0 * i as f64).collect();
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y);
        let p = lr.predict(&[5.0, 5.0]);
        assert!((p - 20.0).abs() < 1e-3, "got {p}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn linear_rejects_empty() {
        LinearRegression::new().fit(&[], &[]);
    }

    #[test]
    fn logistic_fits_linear_data_poorly() {
        let (x, y) = linear_data(100);
        let mut log = LogisticRegression::new();
        log.fit(&x, &y);
        let preds = log.predict_all(&x);
        let r2 = r_squared(&y, &preds);
        let mut lin = LinearRegression::new();
        lin.fit(&x, &y);
        let lin_r2 = r_squared(&y, &lin.predict_all(&x));
        assert!(
            r2 < lin_r2 - 0.01,
            "sigmoid must underfit linear data: logistic {r2:.3} vs linear {lin_r2:.3}"
        );
    }

    #[test]
    fn logistic_predictions_bounded_by_amplitude() {
        let (x, y) = linear_data(50);
        let mut log = LogisticRegression::new();
        log.fit(&x, &y);
        let ceiling = y.iter().copied().fold(f64::MIN, f64::max);
        for f in &x {
            let p = log.predict(f);
            assert!(p >= 0.0 && p <= ceiling + 1e-9);
        }
    }

    #[test]
    fn neural_fits_linear_data_reasonably() {
        let (x, y) = linear_data(100);
        let mut nr = NeuralRegression::new();
        nr.fit(&x, &y);
        let r2 = r_squared(&y, &nr.predict_all(&x));
        assert!(r2 > 0.6, "neural regression should be decent, r2={r2:.3}");
    }

    #[test]
    fn neural_fits_mildly_nonlinear_data() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![(i as f64) / 10.0]).collect();
        let y: Vec<f64> = x.iter().map(|f| (f[0]).sqrt() * 3.0).collect();
        let mut nr = NeuralRegression::new();
        nr.fit(&x, &y);
        let r2 = r_squared(&y, &nr.predict_all(&x));
        assert!(r2 > 0.9, "r2={r2:.3}");
    }

    #[test]
    fn cross_validation_scores_linear_data_highly() {
        let (x, y) = linear_data(100);
        let scores = cross_validate_r2(LinearRegression::new, &x, &y, 5);
        assert_eq!(scores.len(), 5);
        for s in &scores {
            assert!(*s > 0.99, "fold R² {s}");
        }
    }

    #[test]
    fn cross_validation_exposes_the_logistic_failure() {
        let (x, y) = linear_data(100);
        let lin = cross_validate_r2(LinearRegression::new, &x, &y, 5);
        let log = cross_validate_r2(LogisticRegression::new, &x, &y, 5);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&lin) > mean(&log) + 0.01);
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_rejected() {
        let (x, y) = linear_data(10);
        let _ = cross_validate_r2(LinearRegression::new, &x, &y, 1);
    }

    #[test]
    fn regressors_are_deterministic() {
        let (x, y) = linear_data(60);
        let fit_once = || {
            let mut nr = NeuralRegression::new();
            nr.fit(&x, &y);
            nr.predict(&x[7])
        };
        assert_eq!(fit_once(), fit_once());
    }
}
