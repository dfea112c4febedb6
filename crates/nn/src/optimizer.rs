//! The Adam optimizer every training run uses.

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical floor.
const EPS: f32 = 1e-8;

/// Adam with bias correction and the standard betas (0.9, 0.999).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update and leaves gradients untouched (call
    /// [`Model::zero_grads`](crate::Model::zero_grads) afterwards).
    ///
    /// `params_and_grads` holds the model's `(params, grads)` pairs in a
    /// stable order; the moment slots are keyed by position.
    pub fn step(&mut self, params_and_grads: &mut [(&mut Vec<f32>, &mut Vec<f32>)]) {
        if self.m.len() != params_and_grads.len() {
            self.m = params_and_grads
                .iter()
                .map(|(p, _)| vec![0.0; p.len()])
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (slot, (params, grads)) in params_and_grads.iter_mut().enumerate() {
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            for i in 0..params.len() {
                let g = grads[i];
                m[i] = BETA1 * m[i] + (1.0 - BETA1) * g;
                v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                params[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimizes f(x) = (x - 3)^2; grad = 2(x - 3).
        let mut opt = Adam::new(0.3);
        let mut x = vec![0.0f32];
        let mut g = vec![0.0f32];
        for _ in 0..200 {
            g[0] = 2.0 * (x[0] - 3.0);
            opt.step(&mut [(&mut x, &mut g)]);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "got {}", x[0]);
    }

    #[test]
    fn optimizers_handle_multiple_slots() {
        let mut opt = Adam::new(0.1);
        let mut a = vec![0.0f32; 2];
        let mut ga = vec![1.0f32; 2];
        let mut b = vec![0.0f32; 3];
        let mut gb = vec![-1.0f32; 3];
        let mut pairs = [(&mut a, &mut ga), (&mut b, &mut gb)];
        opt.step(&mut pairs);
        assert!(a.iter().all(|&v| v < 0.0));
        assert!(b.iter().all(|&v| v > 0.0));
    }
}
