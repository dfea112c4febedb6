//! Random sampling and morphism-style mutation of [`ModelSpec`]s.
//!
//! Two consumers share this module: the energy-measurement corpus (the paper
//! measures 300 *random* models to fit its inference energy model, §IV-A1)
//! and the NAS search loops (whose µNAS-style mutation operators perturb one
//! architectural dimension at a time).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::arch::{LayerSpec, ModelSpec, Padding};

/// Configuration of the architecture space to sample from: one of two
/// presets, [`ArchSampler::for_task`] and [`ArchSampler::for_measurement`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSampler {
    /// Input feature-map shape `[h, w, c]`.
    input_shape: [usize; 3],
    /// Output classes (the final dense layer's units).
    num_classes: usize,
    /// Maximum number of conv blocks (conv \[+ pool\]).
    max_conv_blocks: usize,
    /// Maximum hidden dense layers before the classifier.
    max_hidden_dense: usize,
    /// Conv filter count choices.
    filter_choices: Vec<usize>,
    /// Conv kernel size choices.
    kernel_choices: Vec<usize>,
    /// Hidden dense width choices.
    dense_choices: Vec<usize>,
}

impl ArchSampler {
    /// A sampler tuned for the paper's task scale.
    pub fn for_task(input_shape: [usize; 3], num_classes: usize) -> Self {
        Self {
            input_shape,
            num_classes,
            max_conv_blocks: 3,
            max_hidden_dense: 2,
            filter_choices: vec![4, 6, 8, 12, 16, 24, 32],
            kernel_choices: vec![1, 3, 5],
            dense_choices: vec![8, 16, 24, 32, 48, 64],
        }
    }

    /// A sampler for building energy-measurement corpora (§IV-A): it spans
    /// dense-dominated to conv-dominated workloads so per-MAC cost varies
    /// *independently* of total MACs — the property that makes the
    /// single-coefficient total-MACs baseline fit poorly (Table I).
    pub fn for_measurement(input_shape: [usize; 3], num_classes: usize) -> Self {
        Self {
            input_shape,
            num_classes,
            max_conv_blocks: 3,
            max_hidden_dense: 2,
            filter_choices: vec![2, 4, 6, 8, 12, 16, 24, 32],
            kernel_choices: vec![1, 3, 5],
            dense_choices: vec![16, 32, 64, 128, 256, 384],
        }
    }

    /// Samples a random valid architecture. Retries internally; panics only
    /// if the space is so constrained that 200 attempts all fail (which
    /// indicates a misconfigured sampler).
    ///
    /// # Panics
    ///
    /// Panics after 200 consecutive invalid samples.
    pub fn sample(&self, rng: &mut impl Rng) -> ModelSpec {
        for _ in 0..200 {
            if let Ok(spec) = self.try_sample(rng) {
                return spec;
            }
        }
        panic!(
            "architecture space yields no valid models for input {:?}",
            self.input_shape
        );
    }

    fn try_sample(&self, rng: &mut impl Rng) -> Result<ModelSpec, crate::arch::ArchError> {
        let mut layers = Vec::new();
        let blocks = rng.gen_range(0..=self.max_conv_blocks);
        for _ in 0..blocks {
            let filters = *self.filter_choices.choose(rng).expect("non-empty");
            let kernel = *self.kernel_choices.choose(rng).expect("non-empty");
            let stride = if rng.gen_bool(0.25) { 2 } else { 1 };
            let padding = if rng.gen_bool(0.5) {
                Padding::Same
            } else {
                Padding::Valid
            };
            if rng.gen_bool(0.2) {
                layers.push(LayerSpec::dw_conv(kernel, stride, padding));
            } else {
                layers.push(LayerSpec::conv(filters, kernel, stride, padding));
            }
            if rng.gen_bool(0.35) {
                layers.push(LayerSpec::norm());
            }
            layers.push(LayerSpec::relu());
            if rng.gen_bool(0.6) {
                if rng.gen_bool(0.5) {
                    layers.push(LayerSpec::max_pool(2));
                } else {
                    layers.push(LayerSpec::avg_pool(2));
                }
            }
        }
        layers.push(LayerSpec::flatten());
        let hidden = rng.gen_range(0..=self.max_hidden_dense);
        for _ in 0..hidden {
            let units = *self.dense_choices.choose(rng).expect("non-empty");
            layers.push(LayerSpec::dense(units));
            layers.push(LayerSpec::relu());
        }
        layers.push(LayerSpec::dense(self.num_classes));
        ModelSpec::new(self.input_shape, layers)
    }

    /// Mutates one architectural dimension (a µNAS-style morphism): widen or
    /// narrow a conv/dense layer, change a kernel, toggle a pool, or
    /// add/remove a block. Returns a *valid* mutated spec; if 50 mutation
    /// attempts all produce invalid architectures, returns a fresh sample.
    pub fn mutate(&self, spec: &ModelSpec, rng: &mut impl Rng) -> ModelSpec {
        for _ in 0..50 {
            if let Some(mutated) = self.try_mutate(spec, rng) {
                return mutated;
            }
        }
        self.sample(rng)
    }

    fn try_mutate(&self, spec: &ModelSpec, rng: &mut impl Rng) -> Option<ModelSpec> {
        let mut layers: Vec<LayerSpec> = spec.layers().to_vec();
        let choice = rng.gen_range(0..5);
        match choice {
            // Widen/narrow a conv.
            0 => {
                let idx = indices_of(&layers, |l| matches!(l, LayerSpec::Conv { .. }));
                let &i = idx.choose(rng)?;
                if let LayerSpec::Conv { filters, .. } = &mut layers[i] {
                    let pos = self.filter_choices.iter().position(|f| f == filters)?;
                    let next = if rng.gen_bool(0.5) {
                        pos.checked_sub(1)?
                    } else {
                        (pos + 1).min(self.filter_choices.len() - 1)
                    };
                    *filters = self.filter_choices[next];
                }
            }
            // Change a kernel size.
            1 => {
                let idx = indices_of(&layers, |l| {
                    matches!(l, LayerSpec::Conv { .. } | LayerSpec::DwConv { .. })
                });
                let &i = idx.choose(rng)?;
                let new_kernel = *self.kernel_choices.choose(rng).expect("non-empty");
                match &mut layers[i] {
                    LayerSpec::Conv { kernel, .. } | LayerSpec::DwConv { kernel, .. } => {
                        *kernel = new_kernel;
                    }
                    _ => unreachable!(),
                }
            }
            // Resize a hidden dense layer (not the classifier).
            2 => {
                let idx = indices_of(&layers[..layers.len() - 1], |l| {
                    matches!(l, LayerSpec::Dense { .. })
                });
                let &i = idx.choose(rng)?;
                if let LayerSpec::Dense { units } = &mut layers[i] {
                    *units = *self.dense_choices.choose(rng).expect("non-empty");
                }
            }
            // Insert a conv block at the front.
            3 => {
                let filters = *self.filter_choices.choose(rng).expect("non-empty");
                let kernel = *self.kernel_choices.choose(rng).expect("non-empty");
                layers.insert(0, LayerSpec::relu());
                layers.insert(0, LayerSpec::conv(filters, kernel, 1, Padding::Same));
            }
            // Remove the first conv block.
            _ => {
                let idx = indices_of(&layers, |l| {
                    matches!(l, LayerSpec::Conv { .. } | LayerSpec::DwConv { .. })
                });
                let &i = idx.first()?;
                layers.remove(i);
                // Drop an immediately following relu to keep pairs tidy.
                if matches!(layers.get(i), Some(LayerSpec::Relu)) {
                    layers.remove(i);
                }
            }
        }
        ModelSpec::new(self.input_shape, layers).ok()
    }
}

fn indices_of(layers: &[LayerSpec], pred: impl Fn(&LayerSpec) -> bool) -> Vec<usize> {
    layers
        .iter()
        .enumerate()
        .filter(|(_, l)| pred(l))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sampler() -> ArchSampler {
        ArchSampler::for_task([20, 9, 1], 10)
    }

    #[test]
    fn samples_are_valid_and_end_in_classifier() {
        let s = sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let spec = s.sample(&mut rng);
            assert_eq!(spec.output_units(), 10);
            assert!(spec.mac_summary().total() > 0);
        }
    }

    #[test]
    fn samples_are_diverse() {
        let s = sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let specs: Vec<_> = (0..20).map(|_| s.sample(&mut rng).describe()).collect();
        let unique: std::collections::HashSet<_> = specs.iter().collect();
        assert!(unique.len() > 10, "only {} unique of 20", unique.len());
    }

    #[test]
    fn mutation_yields_valid_specs() {
        let s = sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut spec = s.sample(&mut rng);
        for _ in 0..100 {
            spec = s.mutate(&spec, &mut rng);
            assert_eq!(spec.output_units(), 10);
        }
    }

    #[test]
    fn mutation_usually_changes_something() {
        let s = sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let spec = s.sample(&mut rng);
        let changed = (0..20)
            .filter(|_| s.mutate(&spec, &mut rng) != spec)
            .count();
        assert!(
            changed >= 15,
            "only {changed}/20 mutations changed the spec"
        );
    }

    #[test]
    fn works_for_kws_shapes() {
        let s = ArchSampler::for_task([49, 13, 1], 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let spec = s.sample(&mut rng);
            assert_eq!(spec.output_units(), 10);
        }
    }

    #[test]
    fn works_for_tiny_inputs() {
        // Even a 4×1 time series must produce valid models.
        let s = ArchSampler::for_task([4, 1, 1], 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let spec = s.sample(&mut rng);
            assert_eq!(spec.output_units(), 10);
        }
    }
}
