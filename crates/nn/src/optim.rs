//! The optimiser.
//!
//! The paper's training loop is standard stochastic gradient descent on
//! a tiny model; every training path here steps with Adam (the PyTorch
//! default the authors would have used). Optimiser state is keyed by
//! parameter position, so the same optimiser instance must always be
//! fed the same parameters in the same order — which is what
//! [`crate::model::Sequential::params_mut`] guarantees. A step walks an
//! iterator over the parameters, so it collects nothing.

use crate::layer::Param;

/// Adam's first-moment decay β₁.
const BETA1: f32 = 0.9;
/// Adam's second-moment decay β₂.
const BETA2: f32 = 0.999;
/// Adam's denominator guard ε.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba 2015) with bias correction and the standard
/// β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to the given parameters (and clears
    /// nothing — call [`Param::zero_grad`] between steps via the model).
    pub fn step(&mut self, params: &mut dyn Iterator<Item = &mut Param>) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t.min(1 << 24) as i32);
        let bc2 = 1.0 - BETA2.powi(self.t.min(1 << 24) as i32);
        for (i, p) in params.enumerate() {
            if i == self.m.len() {
                self.m.push(vec![0.0; p.len()]);
                self.v.push(vec![0.0; p.len()]);
            }
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            debug_assert_eq!(p.len(), m.len(), "optimiser state shape drift");
            for (((w, &g), mi), vi) in p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }

    /// Overrides the learning rate (used by schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::matrix::Matrix;

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimises f(w) = ‖w − target‖².
        let target = [1.0f32, -2.0, 0.5];
        let mut p = Param::new(Matrix::zeros(1, 3));
        let mut opt = Adam::new(0.05);
        for _ in 0..500 {
            p.zero_grad();
            for (g, (&w, &t)) in p
                .grad
                .as_mut_slice()
                .iter_mut()
                .zip(p.value.as_slice().iter().zip(&target))
            {
                *g = 2.0 * (w - t);
            }
            opt.step(&mut std::iter::once(&mut p));
        }
        let err: f32 = p
            .value
            .as_slice()
            .iter()
            .zip(&target)
            .map(|(&w, &t)| (w - t) * (w - t))
            .sum();
        assert!(err < 1e-6, "residual {err}");
    }

    #[test]
    fn first_step_moves_by_the_set_learning_rate() {
        // At t = 1 the bias-corrected step is lr·g/(|g| + ε): one
        // learning rate against the gradient's sign.
        let mut p = Param::new(Matrix::from_rows(&[&[1.0f32, 1.0]]));
        p.grad.as_mut_slice().copy_from_slice(&[2.0, -0.5]);
        let mut opt = Adam::new(0.01);
        opt.set_learning_rate(0.25);
        opt.step(&mut std::iter::once(&mut p));
        assert!((p.value[(0, 0)] - 0.75).abs() < 1e-6, "{}", p.value[(0, 0)]);
        assert!((p.value[(0, 1)] - 1.25).abs() < 1e-6, "{}", p.value[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        let _ = Adam::new(0.0);
    }
}
