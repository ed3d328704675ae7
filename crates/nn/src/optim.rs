//! First-order optimisers.
//!
//! The paper's training loop is standard stochastic gradient descent on
//! a tiny model; we provide plain SGD (with optional momentum) and Adam
//! (the PyTorch default the authors would have used). Optimiser state
//! is keyed by parameter position, so the same optimiser instance must
//! always be fed the same parameters in the same order — which is what
//! [`crate::model::Sequential::params_mut`] guarantees. A step walks an
//! iterator over the parameters, so it collects nothing.

use crate::layer::Param;

/// A gradient-based parameter update rule.
pub trait Optimizer {
    /// Applies one update step to the given parameters (and clears
    /// nothing — call [`Param::zero_grad`] between steps via the model).
    fn step(&mut self, params: &mut dyn Iterator<Item = &mut Param>);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional classical momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `β`: `v ← βv + g; w ← w − lr·v`.
    pub(crate) fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum in [0,1)");
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut dyn Iterator<Item = &mut Param>) {
        for (i, p) in params.enumerate() {
            if i == self.velocity.len() {
                self.velocity.push(vec![0.0; p.len()]);
            }
            let v = &mut self.velocity[i];
            debug_assert_eq!(p.len(), v.len(), "optimiser state shape drift");
            if self.momentum == 0.0 {
                for (w, &g) in p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice()) {
                    *w -= self.lr * g;
                }
            } else {
                for ((w, &g), vel) in p
                    .value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(p.grad.as_slice())
                    .zip(v.iter_mut())
                {
                    *vel = self.momentum * *vel + g;
                    *w -= self.lr * *vel;
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the standard defaults β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Self::with_params(lr, 0.9, 0.999, 1e-8)
    }

    /// Fully parameterised constructor.
    pub(crate) fn with_params(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut dyn Iterator<Item = &mut Param>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t.min(1 << 24) as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t.min(1 << 24) as i32);
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
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::matrix::Matrix;

    /// Minimises f(w) = ‖w − target‖² with the given optimiser.
    fn minimise(opt: &mut impl Optimizer, steps: usize) -> f32 {
        let target = [1.0f32, -2.0, 0.5];
        let mut p = Param::new(Matrix::zeros(1, 3));
        for _ in 0..steps {
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
        p.value
            .as_slice()
            .iter()
            .zip(&target)
            .map(|(&w, &t)| (w - t) * (w - t))
            .sum()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(minimise(&mut opt, 200) < 1e-8);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.02, 0.9);
        assert!(minimise(&mut opt, 300) < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        assert!(minimise(&mut opt, 500) < 1e-6);
    }

    #[test]
    fn sgd_single_step_is_exact() {
        let mut p = Param::new(Matrix::from_rows(&[&[1.0f32]]));
        p.grad.as_mut_slice()[0] = 2.0;
        let mut opt = Sgd::new(0.5);
        opt.step(&mut std::iter::once(&mut p));
        assert_eq!(p.value.as_slice()[0], 0.0);
    }

    #[test]
    fn learning_rate_is_settable() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }
}
