//! Multi-exit networks with confidence-based early exit — the mechanism
//! behind HarvNet (MobiSys '23), one of the energy-aware NAS systems the
//! paper compares against.
//!
//! A [`MultiExitModel`] attaches small classifier heads at intermediate
//! depths of a backbone. At inference, the input flows through the backbone
//! until some head's softmax confidence clears a threshold; the remaining
//! layers (and their energy) are skipped. On energy-harvesting devices this
//! trades accuracy for a *data-dependent* energy saving: easy inputs exit
//! early and cheap.

use rand::Rng;

use crate::arch::{ArchError, LayerSpec, ModelSpec};
use crate::dataset::ClassDataset;
use crate::layers::Layer;
use crate::loss::softmax_cross_entropy;
use crate::tensor::Tensor;

/// A backbone with exit heads after selected layers.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use solarml_nn::arch::{LayerSpec, ModelSpec, Padding};
/// use solarml_nn::multi_exit::MultiExitModel;
///
/// # fn main() -> Result<(), solarml_nn::ArchError> {
/// let backbone = ModelSpec::new(
///     [8, 8, 1],
///     vec![
///         LayerSpec::conv(4, 3, 1, Padding::Same),
///         LayerSpec::relu(),
///         LayerSpec::conv(8, 3, 1, Padding::Same),
///         LayerSpec::relu(),
///         LayerSpec::flatten(),
///         LayerSpec::dense(4),
///     ],
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // One early exit after layer 1 (the first relu).
/// let model = MultiExitModel::new(&backbone, &[2], 4, &mut rng)?;
/// assert_eq!(model.num_exits(), 2); // the early head + the final output
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiExitModel {
    backbone: Vec<Layer>,
    /// `(position, head)` pairs: the head consumes the activation *after*
    /// backbone layer `position − 1` (i.e. `position` layers have run).
    heads: Vec<(usize, Vec<Layer>)>,
    /// MACs of each exit, earliest to final: the backbone prefix plus the
    /// head taken there.
    exit_macs: Vec<u64>,
    /// MACs of each head alone (flatten + dense), earliest first.
    head_macs: Vec<u64>,
}

/// The result of an early-exit inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitDecision {
    /// Class scores of the exit taken.
    pub scores: Tensor,
    /// Which exit fired (0 = earliest head, `num_exits()-1` = final output).
    pub exit_index: usize,
    /// MACs actually executed (backbone prefix + heads evaluated).
    pub macs_spent: u64,
    /// Peak softmax confidence at the taken exit.
    pub confidence: f32,
}

impl MultiExitModel {
    /// Builds a backbone with dense exit heads after the given layer
    /// positions. Positions index into the backbone's layer sequence; an
    /// exit at position `p` sees the activation after the first `p` layers.
    /// The backbone's own output acts as the final exit.
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] if a position is out of range or if a head
    /// cannot be attached at it.
    pub fn new(
        backbone: &ModelSpec,
        exit_positions: &[usize],
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, ArchError> {
        let n_layers = backbone.layers().len();
        let mut heads = Vec::new();
        for &pos in exit_positions {
            if pos == 0 || pos >= n_layers {
                return Err(ArchError {
                    layer: pos,
                    reason: format!("exit position must be in 1..{n_layers}"),
                });
            }
            // Head = flatten + dense(num_classes) attached at the prefix
            // output shape; validate by building a prefix+head spec.
            let mut layers: Vec<LayerSpec> = backbone.layers()[..pos].to_vec();
            layers.push(LayerSpec::flatten());
            layers.push(LayerSpec::dense(num_classes));
            let head_spec = ModelSpec::new(backbone.input_shape(), layers)?;
            // Instantiate only the two head layers (the last two).
            let total = head_spec.layers().len();
            let head: Vec<Layer> = (total - 2..total)
                .map(|i| Layer::instantiate(&head_spec.layers()[i], head_spec.shape_before(i), rng))
                .collect();
            heads.push((pos, head));
        }
        heads.sort_by_key(|(p, _)| *p);
        let mut prefix = vec![0u64];
        for (_, macs) in backbone.per_layer_macs() {
            prefix.push(prefix[prefix.len() - 1] + macs);
        }
        // A head is flatten + dense: its flat input length × classes.
        let head_macs: Vec<u64> = heads
            .iter()
            .map(|&(pos, _)| (backbone.shape_before(pos).elements() * num_classes) as u64)
            .collect();
        let exit_macs = heads
            .iter()
            .zip(&head_macs)
            .map(|(&(pos, _), head)| prefix[pos] + head)
            .chain(prefix.last().copied())
            .collect();
        let backbone_layers = backbone
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| Layer::instantiate(l, backbone.shape_before(i), rng))
            .collect();
        Ok(Self {
            backbone: backbone_layers,
            heads,
            exit_macs,
            head_macs,
        })
    }

    /// Number of exits, counting the backbone's final output.
    pub fn num_exits(&self) -> usize {
        self.heads.len() + 1
    }

    /// Runs inference with confidence-threshold early exit.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 1]`.
    pub fn infer_early_exit(&mut self, input: &Tensor, threshold: f32) -> ExitDecision {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0,1], got {threshold}"
        );
        let mut x = input.clone();
        let mut scratch = Tensor::zeros([1]);
        let mut layer_idx = 0usize;
        // MACs of the heads that ran and missed the threshold.
        let mut missed_heads = 0u64;
        for (exit_index, (pos, head)) in self.heads.iter_mut().enumerate() {
            // Advance the backbone to this exit's position.
            while layer_idx < *pos {
                advance(&mut self.backbone[layer_idx], &mut x, &mut scratch);
                layer_idx += 1;
            }
            // Evaluate the head.
            let mut h = x.clone();
            for layer in head.iter_mut() {
                advance(layer, &mut h, &mut scratch);
            }
            let confidence = softmax_peak(&h);
            if confidence >= threshold {
                return ExitDecision {
                    scores: h,
                    exit_index,
                    macs_spent: self.exit_macs[exit_index] + missed_heads,
                    confidence,
                };
            }
            missed_heads += self.head_macs[exit_index];
        }
        // Fall through to the final output.
        while layer_idx < self.backbone.len() {
            advance(&mut self.backbone[layer_idx], &mut x, &mut scratch);
            layer_idx += 1;
        }
        let confidence = softmax_peak(&x);
        ExitDecision {
            scores: x,
            exit_index: self.num_exits() - 1,
            macs_spent: self.exit_macs[self.heads.len()] + missed_heads,
            confidence,
        }
    }

    /// Trains backbone and heads jointly: each sample backpropagates the
    /// summed loss of every exit (the standard multi-exit recipe).
    pub fn fit(
        &mut self,
        data: &ClassDataset,
        epochs: usize,
        learning_rate: f32,
        rng: &mut impl Rng,
    ) {
        use crate::optimizer::Adam;
        use rand::seq::SliceRandom;
        let mut opt = Adam::new(learning_rate);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..epochs {
            order.shuffle(rng);
            for &i in &order {
                let (input, label) = data.sample(i);
                self.zero_grads();
                self.train_step(input, label);
                let mut pairs = self.params_and_grads();
                opt.step(&mut pairs);
            }
        }
    }

    fn train_step(&mut self, input: &Tensor, label: usize) {
        // Forward through the backbone, keeping every activation: the
        // heads tap them, and backward reads them.
        let acts = forward_chain(&mut self.backbone, input);
        // Final-exit loss gradient through the whole backbone; head losses
        // join the backbone gradient at their tap points.
        let (_, mut g) = softmax_cross_entropy(acts.last().expect("input activation"), label);
        for i in (0..self.backbone.len()).rev() {
            let mut grad_in = Tensor::zeros([1]);
            self.backbone[i].backward_into(&acts[i], &acts[i + 1], &g, Some(&mut grad_in));
            g = grad_in;
            let head_indices: Vec<usize> = self
                .heads
                .iter()
                .enumerate()
                .filter(|(_, (pos, _))| *pos == i)
                .map(|(idx, _)| idx)
                .collect();
            for exit_index in head_indices {
                let head_grad = self.head_backward(exit_index, &acts[i], label);
                g.add_scaled(&head_grad, 1.0);
            }
        }
    }

    fn head_backward(&mut self, exit_index: usize, tap: &Tensor, label: usize) -> Tensor {
        let head = &mut self.heads[exit_index].1;
        let acts = forward_chain(head, tap);
        let (_, mut g) = softmax_cross_entropy(acts.last().expect("input activation"), label);
        for (i, layer) in head.iter_mut().enumerate().rev() {
            let mut grad_in = Tensor::zeros([1]);
            layer.backward_into(&acts[i], &acts[i + 1], &g, Some(&mut grad_in));
            g = grad_in;
        }
        g
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.backbone {
            layer.zero_grads();
        }
        for (_, head) in &mut self.heads {
            for layer in head {
                layer.zero_grads();
            }
        }
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Vec<f32>, &mut Vec<f32>)> {
        let mut out = Vec::new();
        for layer in &mut self.backbone {
            out.extend(layer.params_and_grads());
        }
        for (_, head) in &mut self.heads {
            for layer in head {
                out.extend(layer.params_and_grads());
            }
        }
        out
    }

    /// Evaluates early-exit accuracy and average MACs on a dataset.
    pub fn evaluate_early_exit(&mut self, data: &ClassDataset, threshold: f32) -> (f64, f64) {
        let mut correct = 0usize;
        let mut total_macs = 0u64;
        for i in 0..data.len() {
            let (x, label) = data.sample(i);
            let decision = self.infer_early_exit(x, threshold);
            if decision.scores.argmax() == label {
                correct += 1;
            }
            total_macs += decision.macs_spent;
        }
        (
            correct as f64 / data.len() as f64,
            total_macs as f64 / data.len() as f64,
        )
    }

    /// The MAC budget of each exit, earliest to final.
    pub fn exit_macs(&self) -> Vec<u64> {
        self.exit_macs.clone()
    }
}

/// Inference-mode step: replaces `x` with `layer`'s output, using
/// `scratch` as the output buffer.
fn advance(layer: &mut Layer, x: &mut Tensor, scratch: &mut Tensor) {
    layer.forward_into(x, scratch, false);
    std::mem::swap(x, scratch);
}

/// Training-mode forward through `layers`: every activation, input first.
fn forward_chain(layers: &mut [Layer], input: &Tensor) -> Vec<Tensor> {
    let mut acts = vec![input.clone()];
    for layer in layers {
        let mut out = Tensor::zeros([1]);
        layer.forward_into(acts.last().expect("input activation"), &mut out, true);
        acts.push(out);
    }
    acts
}

fn softmax_peak(scores: &Tensor) -> f32 {
    let max = scores
        .data()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.data().iter().map(|&s| (s - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().copied().fold(0.0, f32::max) / sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Padding;
    use rand::SeedableRng;

    fn backbone() -> ModelSpec {
        ModelSpec::new(
            [8, 8, 1],
            vec![
                LayerSpec::conv(6, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::conv(12, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(4),
            ],
        )
        .expect("valid backbone")
    }

    /// Four-class corner dataset on an 8×8 grid.
    fn corners(n: usize, noise: f32) -> ClassDataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(404);
        use rand::Rng as _;
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| {
                let class = i % 4;
                let (r0, c0) = [(0, 0), (0, 4), (4, 0), (4, 4)][class];
                let mut t = Tensor::zeros([8, 8, 1]);
                for r in 0..8 {
                    for c in 0..8 {
                        let inside = r >= r0 && r < r0 + 4 && c >= c0 && c < c0 + 4;
                        let v = if inside { 0.9 } else { 0.1 };
                        *t.at3_mut(r, c, 0) = v + rng.gen_range(-noise..noise.max(1e-6));
                    }
                }
                t
            })
            .collect();
        ClassDataset::new(inputs, (0..n).map(|i| i % 4).collect(), 4)
    }

    #[test]
    fn construction_validates_positions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(MultiExitModel::new(&backbone(), &[0], 4, &mut rng).is_err());
        assert!(MultiExitModel::new(&backbone(), &[99], 4, &mut rng).is_err());
        let m = MultiExitModel::new(&backbone(), &[2, 5], 4, &mut rng).expect("valid");
        assert_eq!(m.num_exits(), 3);
    }

    #[test]
    fn exit_macs_increase_with_depth() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = MultiExitModel::new(&backbone(), &[2, 5], 4, &mut rng).expect("valid");
        let macs = m.exit_macs();
        assert_eq!(macs.len(), 3);
        assert!(macs[0] < macs[1], "deeper exits cost more: {macs:?}");
        assert!(
            macs[1] < macs[2] + macs[1],
            "final exit carries the full backbone"
        );
        assert!(macs[0] > 0);
    }

    /// Exit budgets of the doc-example backbone and of [`backbone`], by
    /// hand: a head costs its flat input length × classes.
    #[test]
    fn exit_macs_are_pinned() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let doc = ModelSpec::new(
            [8, 8, 1],
            vec![
                LayerSpec::conv(4, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::conv(8, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::flatten(),
                LayerSpec::dense(4),
            ],
        )
        .expect("valid backbone");
        let m = MultiExitModel::new(&doc, &[2], 4, &mut rng).expect("valid");
        // conv 2304 + head 256·4; conv 2304 + conv 18432 + dense 512·4.
        assert_eq!(m.exit_macs(), [3_328, 22_784]);
        let m = MultiExitModel::new(&backbone(), &[2, 5], 4, &mut rng).expect("valid");
        // conv 3456 + head 384·4; + conv 41472 + pool 768 + head 192·4;
        // the same again through the backbone's own dense(4).
        assert_eq!(m.exit_macs(), [4_992, 46_464, 46_464]);
    }

    #[test]
    fn final_exit_pays_for_every_head_it_ran() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut m = MultiExitModel::new(&backbone(), &[2, 5], 4, &mut rng).expect("valid");
        let d = m.infer_early_exit(&Tensor::zeros([8, 8, 1]), 1.0);
        assert_eq!(d.exit_index, 2, "an untrained model never reaches 1.0");
        // The whole backbone plus heads of 384·4 and 192·4 MACs.
        assert_eq!(d.macs_spent, 46_464 + 1_536 + 768);
    }

    #[test]
    fn threshold_one_never_exits_early_and_zero_point_two_often_does() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut m = MultiExitModel::new(&backbone(), &[2], 4, &mut rng).expect("valid");
        let data = corners(32, 0.02);
        m.fit(&data, 10, 0.01, &mut rng);
        // threshold 1.0 is (almost) unreachable → final exit.
        let x = data.sample(0).0;
        let final_exit = m.infer_early_exit(x, 1.0);
        assert_eq!(final_exit.exit_index, m.num_exits() - 1);
        // A loose threshold exits at the head for easy data.
        let (acc, avg_macs) = m.evaluate_early_exit(&data, 0.6);
        let (_, full_macs) = m.evaluate_early_exit(&data, 1.0);
        assert!(acc > 0.7, "early-exit accuracy {acc}");
        assert!(
            avg_macs < full_macs,
            "early exits must save MACs: {avg_macs} vs {full_macs}"
        );
    }

    #[test]
    fn early_exit_saves_energy_with_modest_accuracy_cost() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut m = MultiExitModel::new(&backbone(), &[2], 4, &mut rng).expect("valid");
        let data = corners(48, 0.05);
        m.fit(&data, 12, 0.01, &mut rng);
        let (acc_full, macs_full) = m.evaluate_early_exit(&data, 1.0);
        let (acc_early, macs_early) = m.evaluate_early_exit(&data, 0.5);
        assert!(macs_early < 0.9 * macs_full, "{macs_early} vs {macs_full}");
        assert!(
            acc_early >= acc_full - 0.2,
            "early exit shouldn't collapse accuracy: {acc_early} vs {acc_full}"
        );
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0,1]")]
    fn bad_threshold_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut m = MultiExitModel::new(&backbone(), &[2], 4, &mut rng).expect("valid");
        let _ = m.infer_early_exit(&Tensor::zeros([8, 8, 1]), 0.0);
    }

    #[test]
    fn decision_reports_confidence_and_exit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut m = MultiExitModel::new(&backbone(), &[2], 4, &mut rng).expect("valid");
        let d = m.infer_early_exit(&Tensor::zeros([8, 8, 1]), 0.01);
        assert!(d.confidence >= 0.01);
        assert_eq!(d.exit_index, 0, "threshold 0.01 exits at the first head");
        assert_eq!(d.scores.len(), 4);
    }
}
