//! Training and evaluation loops.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::ClassDataset;
use crate::loss::softmax_cross_entropy;
use crate::model::Model;
use crate::optimizer::Adam;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Full passes over the dataset.
    pub epochs: usize,
    /// Samples per gradient update.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight decay coefficient (0 disables it).
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 15,
            batch_size: 16,
            learning_rate: 0.01,
            weight_decay: 0.0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Final accuracy on the training set.
    pub train_accuracy: f64,
}

/// Trains `model` on `data` with Adam.
///
/// Sample order is reshuffled per epoch with `rng`; gradients accumulate over
/// each minibatch and are averaged before the update.
pub fn fit(
    model: &mut Model,
    data: &ClassDataset,
    config: &TrainConfig,
    rng: &mut impl Rng,
) -> TrainReport {
    let mut opt = Adam::new(config.learning_rate);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(config.batch_size.max(1)) {
            model.zero_grads();
            for &i in batch {
                let (x, label) = data.sample(i);
                let (loss, grad) = softmax_cross_entropy(model.forward(x), label);
                epoch_loss += loss as f64;
                model.backward(&grad);
            }
            // Average gradients over the batch and apply L2 weight decay.
            let scale = 1.0 / batch.len() as f32;
            let wd = config.weight_decay;
            let mut pairs = model.params_and_grads();
            for (p, g) in pairs.iter_mut() {
                for (gi, pi) in g.iter_mut().zip(p.iter()) {
                    *gi = *gi * scale + wd * pi;
                }
            }
            opt.step(&mut pairs);
        }
        epoch_losses.push((epoch_loss / data.len() as f64) as f32);
    }
    let train_accuracy = evaluate(model, data);
    TrainReport {
        epoch_losses,
        train_accuracy,
    }
}

/// Classification accuracy of `model` on `data`, in `[0, 1]`.
pub fn evaluate(model: &mut Model, data: &ClassDataset) -> f64 {
    let correct = (0..data.len())
        .filter(|&i| {
            let (x, label) = data.sample(i);
            model.predict(x) == label
        })
        .count();
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{LayerSpec, ModelSpec, Padding};
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    /// Two-class separable data: constant-level tensors.
    fn levels_dataset(n: usize) -> ClassDataset {
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| {
                let level = if i % 2 == 0 { 0.2 } else { 0.8 };
                Tensor::from_vec([4, 1, 1], vec![level; 4])
            })
            .collect();
        let labels = (0..n).map(|i| i % 2).collect();
        ClassDataset::new(inputs, labels, 2)
    }

    /// Four-class spatial patterns on a 6×6 grid (bright quadrant marks the
    /// class) — needs the conv stack to solve.
    fn quadrant_dataset(n: usize) -> ClassDataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| {
                let class = i % 4;
                let mut t = Tensor::zeros([6, 6, 1]);
                let (r0, c0) = [(0, 0), (0, 3), (3, 0), (3, 3)][class];
                for r in 0..6 {
                    for c in 0..6 {
                        let inside = r >= r0 && r < r0 + 3 && c >= c0 && c < c0 + 3;
                        let base = if inside { 0.9 } else { 0.1 };
                        *t.at3_mut(r, c, 0) = base + rng.gen_range(-0.05f32..0.05);
                    }
                }
                t
            })
            .collect();
        let labels = (0..n).map(|i| i % 4).collect();
        ClassDataset::new(inputs, labels, 4)
    }

    #[test]
    fn dense_model_learns_levels() {
        let spec = ModelSpec::new(
            [4, 1, 1],
            vec![
                LayerSpec::flatten(),
                LayerSpec::dense(8),
                LayerSpec::relu(),
                LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut model = Model::from_spec(&spec, &mut rng);
        let data = levels_dataset(40);
        let report = fit(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
            &mut rng,
        );
        assert!(
            report.train_accuracy > 0.95,
            "acc={}",
            report.train_accuracy
        );
        // Loss should broadly decrease.
        let first = report.epoch_losses.first().copied().expect("has epochs");
        let last = report.epoch_losses.last().copied().expect("has epochs");
        assert!(last < first);
    }

    #[test]
    fn conv_model_learns_quadrants() {
        let spec = ModelSpec::new(
            [6, 6, 1],
            vec![
                LayerSpec::conv(4, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(4),
            ],
        )
        .expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut model = Model::from_spec(&spec, &mut rng);
        let data = quadrant_dataset(64);
        let report = fit(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 20,
                batch_size: 8,
                learning_rate: 0.02,
                ..TrainConfig::default()
            },
            &mut rng,
        );
        assert!(report.train_accuracy > 0.9, "acc={}", report.train_accuracy);
    }

    #[test]
    fn dropout_model_still_learns_and_infers_deterministically() {
        let spec = ModelSpec::new(
            [4, 1, 1],
            vec![
                LayerSpec::flatten(),
                LayerSpec::dense(16),
                LayerSpec::relu(),
                LayerSpec::dropout(0.3),
                LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut model = Model::from_spec(&spec, &mut rng);
        let data = levels_dataset(40);
        let report = fit(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
            &mut rng,
        );
        assert!(report.train_accuracy > 0.9, "acc={}", report.train_accuracy);
        // Inference mode disables dropout: repeated inference is identical.
        let (x, _) = data.sample(0);
        let first = model.infer(x).clone();
        assert_eq!(first, *model.infer(x));
    }

    #[test]
    fn weight_decay_shrinks_weight_norm() {
        let spec = ModelSpec::new(
            [4, 1, 1],
            vec![
                LayerSpec::flatten(),
                LayerSpec::dense(16),
                LayerSpec::relu(),
                LayerSpec::dense(2),
            ],
        )
        .expect("valid");
        let data = levels_dataset(40);
        let norm_after = |wd: f32| -> f32 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(13);
            let mut model = Model::from_spec(&spec, &mut rng);
            fit(
                &mut model,
                &data,
                &TrainConfig {
                    epochs: 20,
                    weight_decay: wd,
                    ..TrainConfig::default()
                },
                &mut rng,
            );
            model
                .params_and_grads()
                .iter()
                .flat_map(|(p, _)| p.iter())
                .map(|w| w * w)
                .sum()
        };
        assert!(
            norm_after(0.01) < norm_after(0.0),
            "decay must shrink the weight norm"
        );
    }

    #[test]
    fn evaluate_on_untrained_model_is_chance_level() {
        let spec = ModelSpec::new([4, 1, 1], vec![LayerSpec::flatten(), LayerSpec::dense(2)])
            .expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut model = Model::from_spec(&spec, &mut rng);
        let acc = evaluate(&mut model, &levels_dataset(100));
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let spec = ModelSpec::new([4, 1, 1], vec![LayerSpec::flatten(), LayerSpec::dense(2)])
            .expect("valid");
        let run = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(21);
            let mut model = Model::from_spec(&spec, &mut rng);
            let data = levels_dataset(20);
            fit(&mut model, &data, &TrainConfig::default(), &mut rng).epoch_losses
        };
        assert_eq!(run(), run());
    }
}
