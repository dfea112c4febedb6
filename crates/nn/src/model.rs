//! An instantiated, trainable model.

use rand::Rng;

use crate::arch::ModelSpec;
use crate::layers::Layer;
use crate::tensor::Tensor;

/// A sequential model instantiated from a [`ModelSpec`].
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use solarml_nn::{arch::{LayerSpec, ModelSpec}, Model, Tensor};
///
/// # fn main() -> Result<(), solarml_nn::ArchError> {
/// let spec = ModelSpec::new(
///     [4, 4, 1],
///     vec![LayerSpec::flatten(), LayerSpec::dense(3)],
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = Model::from_spec(&spec, &mut rng);
/// let scores = model.infer(&Tensor::zeros([4, 4, 1]));
/// assert_eq!(scores.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    spec: ModelSpec,
    layers: Vec<Layer>,
    /// Activation buffers, reused across samples: `acts[0]` holds a copy of
    /// the last input, `acts[i + 1]` layer `i`'s output.
    acts: Vec<Tensor>,
    /// Gradient buffers: `grads[i]` holds the loss gradient w.r.t.
    /// `acts[i]` (the last layer's comes from the caller). `grads[0]` stays
    /// unused — nothing reads the gradient w.r.t. the input, so backward
    /// never computes it.
    grads: Vec<Tensor>,
}

impl Model {
    /// Instantiates random weights for a validated spec.
    pub fn from_spec(spec: &ModelSpec, rng: &mut impl Rng) -> Self {
        let layers = spec
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| Layer::instantiate(l, spec.shape_before(i), rng))
            .collect();
        let buffers = |n| (0..n).map(|_| Tensor::zeros([1])).collect();
        let n = spec.layers().len();
        Self {
            spec: spec.clone(),
            layers,
            acts: buffers(n + 1),
            grads: buffers(n),
        }
    }

    /// The architecture this model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Forward pass in training mode (keeps activations for
    /// [`Model::backward`], updates norm statistics).
    pub fn forward(&mut self, input: &Tensor) -> &Tensor {
        self.pass(input, true)
    }

    /// Forward pass in inference mode (class scores, no caching effects on
    /// statistics).
    pub fn infer(&mut self, input: &Tensor) -> &Tensor {
        self.pass(input, false)
    }

    fn pass(&mut self, input: &Tensor, training: bool) -> &Tensor {
        self.acts[0].copy_from(input);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (done, next) = self.acts.split_at_mut(i + 1);
            layer.forward_into(&done[i], &mut next[0], training);
        }
        &self.acts[self.layers.len()]
    }

    /// Backpropagates `grad_out` through the whole network after a
    /// training-mode [`Model::forward`], accumulating parameter gradients.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let n = self.layers.len();
        for i in (0..n).rev() {
            let (head, tail) = self.grads.split_at_mut(i + 1);
            let grad_out = if i + 1 == n { grad_out } else { &tail[0] };
            let grad_in = (i > 0).then_some(&mut head[i]);
            self.layers[i].backward_into(&self.acts[i], &self.acts[i + 1], grad_out, grad_in);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Iterates over `(params, grads)` pairs for every trainable tensor.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Vec<f32>, &mut Vec<f32>)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    /// Predicted class for an input.
    pub fn predict(&mut self, input: &Tensor) -> usize {
        self.infer(input).argmax()
    }

    /// Snapshots all trainable parameters in a stable order (what the
    /// training goldens and benchmarks digest).
    pub fn export_weights(&mut self) -> Vec<Vec<f32>> {
        self.params_and_grads()
            .into_iter()
            .map(|(p, _)| p.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{LayerSpec, Padding};
    use rand::SeedableRng;

    fn spec() -> ModelSpec {
        ModelSpec::new(
            [6, 6, 1],
            vec![
                LayerSpec::conv(4, 3, 1, Padding::Same),
                LayerSpec::relu(),
                LayerSpec::max_pool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(3),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn param_count_matches_spec() {
        let s = spec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut model = Model::from_spec(&s, &mut rng);
        let params: usize = model.params_and_grads().iter().map(|(p, _)| p.len()).sum();
        assert_eq!(params, s.param_count());
    }

    #[test]
    fn forward_shape_matches_output_units() {
        let s = spec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut model = Model::from_spec(&s, &mut rng);
        let y = model.infer(&Tensor::zeros([6, 6, 1]));
        assert_eq!(y.len(), s.output_units());
    }

    #[test]
    fn backward_fills_gradients() {
        let s = spec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut model = Model::from_spec(&s, &mut rng);
        let x = Tensor::from_vec([6, 6, 1], (0..36).map(|i| i as f32 / 36.0).collect());
        assert_eq!(model.forward(&x).len(), 3);
        model.backward(&Tensor::from_vec([3], vec![1.0; 3]));
        let has_grads = model
            .params_and_grads()
            .iter()
            .any(|(_, g)| g.iter().any(|&v| v != 0.0));
        assert!(has_grads);
        model.zero_grads();
        let all_zero = model
            .params_and_grads()
            .iter()
            .all(|(_, g)| g.iter().all(|&v| v == 0.0));
        assert!(all_zero);
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let s = spec();
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(2);
        let mut m1 = Model::from_spec(&s, &mut r1);
        let mut m2 = Model::from_spec(&s, &mut r2);
        let x = Tensor::from_vec([6, 6, 1], (0..36).map(|i| i as f32 / 36.0).collect());
        assert_ne!(m1.infer(&x).clone(), *m2.infer(&x));
    }
}
