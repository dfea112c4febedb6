//! The NAS-facing energy estimators.
//!
//! [`LayerwiseMacModel`] is the paper's contribution: one linear coefficient
//! per layer class (§IV-A1). [`TotalMacModel`] is the µNAS/HarvNet baseline
//! (`E = a·MACs + b`), which Table I shows fits poorly (R² ≈ 0.46) because a
//! Conv MAC and a Dense MAC cost very different energy. The two sensing
//! models cover the Table II parameter spaces.

use solarml_dsp::{AudioFrontendParams, GestureSensingParams};
use solarml_nn::ModelSpec;
use solarml_units::Energy;

use crate::corpus::{audio_features, gesture_features, Corpus};
use crate::regress::{LinearRegression, Regressor};

/// The eNAS inference energy model: linear in the six per-class MAC counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerwiseMacModel {
    regression: LinearRegression,
    fitted: bool,
}

impl LayerwiseMacModel {
    /// Creates an unfit model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits from a measurement corpus (features must be the layer-wise MAC
    /// encoding produced by [`crate::corpus::inference_corpus`]).
    pub fn fit(&mut self, corpus: &Corpus) {
        self.regression.fit(&corpus.features, &corpus.measured_uj);
        self.fitted = true;
    }

    /// Estimated inference energy of an architecture.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    pub fn estimate(&self, spec: &ModelSpec) -> Energy {
        assert!(self.fitted, "fit the model before estimating");
        let f = spec.mac_summary().as_features();
        Energy::from_micro_joules(self.regression.predict(&f).max(0.0))
    }

    /// The fitted per-class coefficients (µJ per MAC) and intercept (µJ).
    pub fn coefficients(&self) -> (&[f64], f64) {
        (&self.regression.weights, self.regression.intercept)
    }
}

/// The µNAS/HarvNet baseline: `E = a · total_MACs + b`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TotalMacModel {
    regression: LinearRegression,
    fitted: bool,
}

impl TotalMacModel {
    /// Creates an unfit model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits from a corpus whose features are layer-wise MACs (they are
    /// summed into the single total-MACs feature here).
    pub fn fit(&mut self, corpus: &Corpus) {
        let totals: Vec<Vec<f64>> = corpus
            .features
            .iter()
            .map(|f| vec![f.iter().sum::<f64>()])
            .collect();
        self.regression.fit(&totals, &corpus.measured_uj);
        self.fitted = true;
    }

    /// Estimated inference energy of an architecture.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    pub fn estimate(&self, spec: &ModelSpec) -> Energy {
        assert!(self.fitted, "fit the model before estimating");
        let total = spec.mac_summary().total() as f64;
        Energy::from_micro_joules(self.regression.predict(&[total]).max(0.0))
    }
}

/// The eNAS gesture sensing-energy model (linear in the Table II features).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GestureSensingModel {
    regression: LinearRegression,
    fitted: bool,
}

impl GestureSensingModel {
    /// Creates an unfit model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits from a gesture-sensing corpus.
    pub fn fit(&mut self, corpus: &Corpus) {
        self.regression.fit(&corpus.features, &corpus.measured_uj);
        self.fitted = true;
    }

    /// Estimated acquisition energy for a parameterization.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    pub fn estimate(&self, params: &GestureSensingParams) -> Energy {
        assert!(self.fitted, "fit the model before estimating");
        Energy::from_micro_joules(self.regression.predict(&gesture_features(params)).max(0.0))
    }
}

/// The eNAS audio sensing-energy model (linear in the Table II features).
#[derive(Debug, Clone, PartialEq)]
pub struct AudioSensingModel {
    regression: LinearRegression,
    clip_ms: u32,
    fitted: bool,
}

impl Default for AudioSensingModel {
    fn default() -> Self {
        Self {
            regression: LinearRegression::default(),
            clip_ms: 1000,
            fitted: false,
        }
    }
}

impl AudioSensingModel {
    /// Creates an unfit model for clips of `clip_ms` milliseconds.
    pub fn new(clip_ms: u32) -> Self {
        Self {
            clip_ms,
            ..Self::default()
        }
    }

    /// Fits from an audio-sensing corpus.
    pub fn fit(&mut self, corpus: &Corpus) {
        self.regression.fit(&corpus.features, &corpus.measured_uj);
        self.fitted = true;
    }

    /// Estimated acquisition energy for a parameterization.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    pub fn estimate(&self, params: &AudioFrontendParams) -> Energy {
        assert!(self.fitted, "fit the model before estimating");
        Energy::from_micro_joules(
            self.regression
                .predict(&audio_features(params, self.clip_ms))
                .max(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{audio_sensing_corpus, gesture_sensing_corpus, inference_corpus};
    use crate::device::{AudioSensingGround, GestureSensingGround, InferenceGround};
    use rand::SeedableRng;
    use solarml_nn::ArchSampler;
    use solarml_trace::{mean_absolute_percent_error, r_squared};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn layerwise_model_beats_total_mac_model() {
        // The core of Table I: layer-wise LR ≈0.96, total-MACs LR ≈0.46.
        // The measurement corpus spans dense-heavy to conv-heavy models of
        // comparable scale (see `inference_corpus_banded`).
        let sampler = ArchSampler::for_measurement([20, 9, 1], 10);
        let ground = InferenceGround::default();
        let band = Some((20_000, 400_000));
        let mut r = rng();
        let (train, _) =
            crate::corpus::inference_corpus_banded(300, &ground, &sampler, band, &mut r);
        let (test, specs) =
            crate::corpus::inference_corpus_banded(60, &ground, &sampler, band, &mut r);

        let mut layerwise = LayerwiseMacModel::new();
        layerwise.fit(&train);
        let mut total = TotalMacModel::new();
        total.fit(&train);

        let lw_preds: Vec<f64> = specs
            .iter()
            .map(|s| layerwise.estimate(s).as_micro_joules())
            .collect();
        let tm_preds: Vec<f64> = specs
            .iter()
            .map(|s| total.estimate(s).as_micro_joules())
            .collect();
        let lw_r2 = r_squared(&test.true_uj, &lw_preds);
        let tm_r2 = r_squared(&test.true_uj, &tm_preds);
        assert!(lw_r2 > 0.9, "layer-wise R² should be ≈0.96, got {lw_r2:.3}");
        assert!(
            tm_r2 < lw_r2 - 0.2,
            "total-MACs must fit much worse: {tm_r2:.3} vs {lw_r2:.3}"
        );
    }

    #[test]
    fn layerwise_recovers_per_class_costs() {
        let sampler = ArchSampler::for_task([20, 9, 1], 10);
        let ground = InferenceGround {
            measurement_noise: 0.0,
            ..InferenceGround::default()
        };
        let (train, _) = inference_corpus(1500, &ground, &sampler, &mut rng());
        let mut model = LayerwiseMacModel::new();
        model.fit(&train);
        let (weights, _) = model.coefficients();
        // Conv coefficient (µJ/MAC) ≈ 2.33e-3; Dense ≈ 0.667e-3.
        assert!(
            (weights[0] - 2.33e-3).abs() / 2.33e-3 < 0.2,
            "conv w={}",
            weights[0]
        );
        assert!(
            (weights[2] - 0.667e-3).abs() / 0.667e-3 < 0.3,
            "dense w={}",
            weights[2]
        );
    }

    #[test]
    fn gesture_model_fits_and_extrapolates() {
        let ground = GestureSensingGround::default();
        let mut r = rng();
        let (train, _) = gesture_sensing_corpus(300, &ground, &mut r);
        let (test, configs) = gesture_sensing_corpus(60, &ground, &mut r);
        let mut model = GestureSensingModel::new();
        model.fit(&train);
        let preds: Vec<f64> = configs
            .iter()
            .map(|p| model.estimate(p).as_micro_joules())
            .collect();
        let r2 = r_squared(&test.true_uj, &preds);
        assert!(r2 > 0.85, "gesture sensing LR should be ≈0.92, got {r2:.3}");
        let mape = mean_absolute_percent_error(&test.true_uj, &preds);
        assert!(
            mape < 10.0,
            "sensing error should be a few percent, got {mape:.1}%"
        );
    }

    #[test]
    fn audio_model_fits_tightly() {
        let ground = AudioSensingGround::default();
        let mut r = rng();
        let (train, _) = audio_sensing_corpus(300, &ground, &mut r);
        let (test, configs) = audio_sensing_corpus(60, &ground, &mut r);
        let mut model = AudioSensingModel::new(ground.clip_ms);
        model.fit(&train);
        let preds: Vec<f64> = configs
            .iter()
            .map(|p| model.estimate(p).as_micro_joules())
            .collect();
        let r2 = r_squared(&test.true_uj, &preds);
        assert!(r2 > 0.95, "audio sensing LR should be ≈0.99, got {r2:.3}");
    }

    #[test]
    #[should_panic(expected = "fit the model")]
    fn estimating_unfit_model_panics() {
        let spec = ModelSpec::new(
            [4, 1, 1],
            vec![
                solarml_nn::LayerSpec::flatten(),
                solarml_nn::LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        let _ = LayerwiseMacModel::new().estimate(&spec);
    }

    #[test]
    fn estimates_are_nonnegative() {
        let sampler = ArchSampler::for_task([10, 10, 1], 4);
        let ground = InferenceGround::default();
        let mut r = rng();
        let (train, _) = inference_corpus(100, &ground, &sampler, &mut r);
        let mut model = LayerwiseMacModel::new();
        model.fit(&train);
        for _ in 0..20 {
            let spec = sampler.sample(&mut r);
            assert!(model.estimate(&spec).as_joules() >= 0.0);
        }
    }
}
