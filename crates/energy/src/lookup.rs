//! A MCUNet/Micronets-style lookup-table energy model.
//!
//! Instead of regressing coefficients, these systems *memoize* measured
//! energies per layer configuration bucket and sum bucket means at query
//! time. The table is exact for configurations it has seen and interpolates
//! poorly elsewhere — the paper's critique ("measuring all layer
//! configurations is time-intensive") shows up as sparse-bucket fallback.

use std::collections::BTreeMap;

use solarml_nn::{LayerClass, MacSummary, ModelSpec};
use solarml_units::Energy;

use crate::corpus::Corpus;

/// Logarithmic MAC bucket index (half-decade buckets).
fn bucket_of(macs: u64) -> u32 {
    if macs == 0 {
        return 0;
    }
    (2.0 * (macs as f64).log10()).floor() as u32 + 1
}

/// A per-(class, MAC-bucket) lookup table fitted from a measurement corpus.
///
/// Fitting distributes each measured model's energy across its layer
/// classes proportionally to reference per-MAC weights, then averages per
/// bucket — the best a table can do without per-layer measurements.
/// Queries sum bucket means; unseen buckets fall back to the nearest seen
/// bucket of the same class (scaled linearly in MACs), and classes never
/// seen at all fall back to a global per-MAC average.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LookupTableModel {
    /// Mean energy (µJ) per (class index in `LayerClass::ALL`, bucket).
    /// Ordered so that serialization bytes and the nearest-bucket fallback's
    /// tie-break (equidistant buckets resolve to the lowest key) are
    /// deterministic — with a hashed map both depended on RandomState.
    table: BTreeMap<(usize, u32), (f64, usize)>,
    global_uj_per_mac: f64,
    intercept_uj: f64,
    fitted: bool,
}

impl LookupTableModel {
    /// Creates an unfit table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits from a corpus whose features are layer-wise MACs in
    /// [`LayerClass::ALL`] order.
    pub fn fit(&mut self, corpus: &Corpus) {
        // Reference per-MAC weights for apportioning a whole-model
        // measurement across classes (uniform would mis-assign; use the
        // corpus-wide least-squares single coefficient per class would be
        // the regression model — a table builder instead uses rough
        // published constants; we use uniform weights to stay honest about
        // the method's limitation).
        let mut total_macs = 0.0;
        let mut total_uj = 0.0;
        for (f, &e) in corpus.features.iter().zip(&corpus.measured_uj) {
            total_macs += f.iter().sum::<f64>();
            total_uj += e;
        }
        self.global_uj_per_mac = if total_macs > 0.0 {
            total_uj / total_macs
        } else {
            0.0
        };
        self.intercept_uj = 0.0;

        let mut sums: BTreeMap<(usize, u32), (f64, usize)> = BTreeMap::new();
        for (f, &e) in corpus.features.iter().zip(&corpus.measured_uj) {
            let model_macs: f64 = f.iter().sum();
            if model_macs <= 0.0 {
                continue;
            }
            for (ci, &macs) in f.iter().enumerate() {
                if macs <= 0.0 {
                    continue;
                }
                // Apportion energy by MAC share.
                let share = e * macs / model_macs;
                let b = bucket_of(macs as u64);
                let entry = sums.entry((ci, b)).or_insert((0.0, 0));
                entry.0 += share / macs; // µJ per MAC in this bucket
                entry.1 += 1;
            }
        }
        self.table = sums
            .into_iter()
            .map(|(k, (sum, n))| (k, (sum / n as f64, n)))
            .collect();
        self.fitted = true;
    }

    /// Estimated energy for an architecture.
    ///
    /// # Panics
    ///
    /// Panics if the table has not been fitted.
    pub fn estimate(&self, spec: &ModelSpec) -> Energy {
        assert!(self.fitted, "fit the table before estimating");
        let summary: MacSummary = spec.mac_summary();
        let mut uj = self.intercept_uj;
        for (ci, class) in LayerClass::ALL.iter().enumerate() {
            let macs = summary.class(*class);
            if macs == 0 {
                continue;
            }
            let per_mac = self.lookup_per_mac(ci, macs);
            uj += per_mac * macs as f64;
        }
        Energy::from_micro_joules(uj.max(0.0))
    }

    fn lookup_per_mac(&self, class_idx: usize, macs: u64) -> f64 {
        let b = bucket_of(macs);
        if let Some(&(mean, _)) = self.table.get(&(class_idx, b)) {
            return mean;
        }
        // Nearest bucket of the same class.
        let mut best: Option<(u32, f64)> = None;
        for (&(ci, bucket), &(mean, _)) in &self.table {
            if ci != class_idx {
                continue;
            }
            let dist = bucket.abs_diff(b);
            let better = best.map(|(d, _)| dist < d as u32).unwrap_or(true);
            if better {
                best = Some((dist, mean));
            }
        }
        best.map(|(_, m)| m).unwrap_or(self.global_uj_per_mac)
    }

    /// Number of populated buckets.
    pub fn bucket_count(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::inference_corpus_banded;
    use crate::device::InferenceGround;
    use rand::SeedableRng;
    use solarml_nn::ArchSampler;
    use solarml_trace::{mean_absolute_percent_error, r_squared};

    fn corpus_pair() -> (Corpus, Corpus, Vec<ModelSpec>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x100C);
        let sampler = ArchSampler::for_measurement([20, 9, 1], 10);
        let ground = InferenceGround::default();
        let band = Some((20_000, 400_000));
        let (train, _) = inference_corpus_banded(300, &ground, &sampler, band, &mut rng);
        let (test, specs) = inference_corpus_banded(60, &ground, &sampler, band, &mut rng);
        (train, test, specs)
    }

    #[test]
    fn table_fits_and_predicts_positively() {
        let (train, _, specs) = corpus_pair();
        let mut table = LookupTableModel::new();
        table.fit(&train);
        assert!(table.bucket_count() > 5);
        for spec in &specs[..10] {
            assert!(table.estimate(spec).as_joules() >= 0.0);
        }
    }

    #[test]
    fn table_beats_nothing_but_loses_to_layerwise_regression() {
        // The paper's point: tables are workable but the regression with
        // per-class coefficients is strictly better on unseen models.
        let (train, test, specs) = corpus_pair();
        let mut table = LookupTableModel::new();
        table.fit(&train);
        let mut layerwise = crate::models::LayerwiseMacModel::new();
        layerwise.fit(&train);

        let t_preds: Vec<f64> = specs
            .iter()
            .map(|s| table.estimate(s).as_micro_joules())
            .collect();
        let l_preds: Vec<f64> = specs
            .iter()
            .map(|s| layerwise.estimate(s).as_micro_joules())
            .collect();
        let t_r2 = r_squared(&test.true_uj, &t_preds);
        let l_r2 = r_squared(&test.true_uj, &l_preds);
        assert!(t_r2 > 0.3, "table should carry signal, R²={t_r2:.3}");
        assert!(
            l_r2 > t_r2,
            "regression {l_r2:.3} must beat table {t_r2:.3}"
        );
        let t_err = mean_absolute_percent_error(&test.true_uj, &t_preds);
        assert!(t_err < 80.0, "table error should be bounded, {t_err:.1}%");
    }

    #[test]
    #[should_panic(expected = "fit the table")]
    fn unfit_table_panics() {
        let spec = ModelSpec::new(
            [4, 1, 1],
            vec![
                solarml_nn::LayerSpec::flatten(),
                solarml_nn::LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        let _ = LookupTableModel::new().estimate(&spec);
    }

    #[test]
    fn buckets_are_half_decades() {
        assert_eq!(bucket_of(0), 0);
        assert!(bucket_of(100) < bucket_of(1000));
        assert_eq!(bucket_of(1000), bucket_of(1100));
        // ~3.16x apart lands in different buckets.
        assert!(bucket_of(1000) < bucket_of(3200));
    }
}
