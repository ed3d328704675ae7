//! End-to-end autoencoder training (paper step 1).
//!
//! Mapper and demapper train jointly over a *differentiable* channel:
//! `y = e^{jθ}·x + n`, `n ~ CN(0, 2σ²)`. Both the rotation and the
//! additive noise are differentiable — the backward pass rotates the
//! demapper's input gradient by `−θ` and passes it straight into the
//! mapper (the reparameterisation view of AWGN). Loss is bitwise BCE
//! on logits, maximising bitwise mutual information as in the paper.

use crate::config::SystemConfig;
use crate::demapper_ann::NeuralDemapper;
use crate::mapper::NeuralMapper;
use hybridem_comm::bits::bit_of;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_nn::loss::bce_with_logits;
use hybridem_nn::schedule::Cosine;
use hybridem_nn::Adam;

/// Joint trainer for the autoencoder.
pub(crate) struct E2eTrainer {
    cfg: SystemConfig,
    /// Static channel rotation used during training (0 for the paper's
    /// abstract AWGN channel).
    pub(crate) channel_theta: f32,
    rng: Xoshiro256pp,
    mapper_opt: Adam,
    demapper_opt: Adam,
    schedule: Cosine,
    step_count: u64,
    /// Per-step loss history.
    pub(crate) loss_history: Vec<f32>,
    /// The batch's symbol indices and target bits, the mapper's points,
    /// the channel outputs, the loss gradient and the gradient with
    /// respect to the points: buffers set up once, so a step allocates
    /// nothing once the demapper's tape and the optimisers are warm.
    indices: Vec<usize>,
    targets: Matrix<f32>,
    x: Matrix<f32>,
    y: Matrix<f32>,
    grad_z: Matrix<f32>,
    grad_x: Matrix<f32>,
}

impl E2eTrainer {
    /// New trainer for a configuration.
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        cfg.validate();
        let (b, m) = (cfg.batch_size, cfg.bits_per_symbol);
        Self {
            channel_theta: 0.0,
            rng: Xoshiro256pp::stream(cfg.seed, 1),
            mapper_opt: Adam::new(cfg.e2e_lr),
            demapper_opt: Adam::new(cfg.e2e_lr),
            // Cosine-anneal to 5 % of the initial rate: the constellation
            // settles early, the demapper boundaries keep refining.
            schedule: Cosine {
                lr: cfg.e2e_lr,
                min_lr: cfg.e2e_lr * 0.05,
                total: cfg.e2e_steps as u64,
            },
            step_count: 0,
            loss_history: Vec::with_capacity(cfg.e2e_steps),
            indices: vec![0; b],
            targets: Matrix::zeros(b, m),
            x: Matrix::zeros(b, 2),
            y: Matrix::zeros(b, 2),
            grad_z: Matrix::zeros(b, m),
            grad_x: Matrix::zeros(b, 2),
            cfg: cfg.clone(),
        }
    }

    /// One training step; returns the batch loss.
    pub(crate) fn step(&mut self, mapper: &mut NeuralMapper, demapper: &mut NeuralDemapper) -> f32 {
        let lr = self.schedule.at(self.step_count);
        self.mapper_opt.set_learning_rate(lr);
        self.demapper_opt.set_learning_rate(lr);
        self.step_count += 1;
        let m = self.cfg.bits_per_symbol;
        let sigma = self.cfg.sigma();

        // Sample symbols and their target bits.
        for (r, idx) in self.indices.iter_mut().enumerate() {
            *idx = (self.rng.next_u64() >> (64 - m)) as usize;
            for k in 0..m {
                self.targets[(r, k)] = f32::from(bit_of(*idx, m, k));
            }
        }

        // Mapper → channel (rotate + AWGN) → demapper.
        mapper.param_mut().zero_grad();
        demapper.model_mut().zero_grad();
        mapper.forward(&self.indices, &mut self.x);
        let (cos_t, sin_t) = (self.channel_theta.cos(), self.channel_theta.sin());
        for r in 0..self.indices.len() {
            let (re, im) = (self.x[(r, 0)], self.x[(r, 1)]);
            let (n1, n2) = self.rng.normal_pair_f64();
            self.y[(r, 0)] = re * cos_t - im * sin_t + sigma * n1 as f32;
            self.y[(r, 1)] = re * sin_t + im * cos_t + sigma * n2 as f32;
        }
        let loss = bce_with_logits(
            demapper.model_mut().forward(&self.y),
            &self.targets,
            &mut self.grad_z,
        );

        // Backward: demapper, then channel (rotate by −θ), then mapper.
        let grad_y = demapper.model_mut().backward_input(&self.grad_z);
        for r in 0..self.indices.len() {
            let (gre, gim) = (grad_y[(r, 0)], grad_y[(r, 1)]);
            self.grad_x[(r, 0)] = gre * cos_t + gim * sin_t;
            self.grad_x[(r, 1)] = -gre * sin_t + gim * cos_t;
        }
        mapper.backward(&self.indices, &self.grad_x);

        self.mapper_opt
            .step(&mut std::iter::once(mapper.param_mut()));
        self.demapper_opt
            .step(&mut demapper.model_mut().params_mut());
        self.loss_history.push(loss);
        loss
    }

    /// Runs the configured number of steps; returns the final loss.
    pub(crate) fn train(
        &mut self,
        mapper: &mut NeuralMapper,
        demapper: &mut NeuralDemapper,
    ) -> f32 {
        let mut last = f32::INFINITY;
        for _ in 0..self.cfg.e2e_steps {
            last = self.step(mapper, demapper);
        }
        last
    }

    /// Mean loss over the final `n` steps (smoother convergence metric).
    pub(crate) fn tail_loss(&self, n: usize) -> f32 {
        if self.loss_history.is_empty() {
            return f32::INFINITY;
        }
        let tail = &self.loss_history[self.loss_history.len().saturating_sub(n)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SystemConfig {
        let mut c = SystemConfig::fast_test();
        c.e2e_steps = 500;
        c.snr_db = 8.0;
        c
    }

    #[test]
    fn loss_decreases_substantially() {
        let cfg = small_cfg();
        let mut rng = Xoshiro256pp::stream(cfg.seed, 0);
        let mut mapper = NeuralMapper::new(cfg.num_symbols(), &mut rng);
        let mut demapper = NeuralDemapper::new(cfg.demapper.build(&mut rng));
        let mut t = E2eTrainer::new(&cfg);
        let first = t.step(&mut mapper, &mut demapper);
        let _ = t.train(&mut mapper, &mut demapper);
        let last = t.tail_loss(50);
        assert!(
            last < first * 0.35,
            "E2E loss should fall: first {first}, tail {last}"
        );
    }

    #[test]
    fn constellation_stays_normalised_through_training() {
        let cfg = small_cfg();
        let mut rng = Xoshiro256pp::stream(cfg.seed, 0);
        let mut mapper = NeuralMapper::new(cfg.num_symbols(), &mut rng);
        let mut demapper = NeuralDemapper::new(cfg.demapper.build(&mut rng));
        let mut t = E2eTrainer::new(&cfg);
        for _ in 0..100 {
            let _ = t.step(&mut mapper, &mut demapper);
        }
        let c = mapper.constellation();
        assert!((c.avg_energy() - 1.0).abs() < 1e-4);
        // Learned points must be distinct (no collapse).
        assert!(c.min_distance() > 0.05, "min distance {}", c.min_distance());
    }

    #[test]
    fn deterministic_replay() {
        let cfg = small_cfg();
        let run = || {
            let mut rng = Xoshiro256pp::stream(cfg.seed, 0);
            let mut mapper = NeuralMapper::new(cfg.num_symbols(), &mut rng);
            let mut demapper = NeuralDemapper::new(cfg.demapper.build(&mut rng));
            let mut t = E2eTrainer::new(&cfg);
            for _ in 0..50 {
                let _ = t.step(&mut mapper, &mut demapper);
            }
            t.loss_history.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn training_with_rotation_converges_too() {
        let mut cfg = small_cfg();
        cfg.e2e_steps = 400;
        let mut rng = Xoshiro256pp::stream(cfg.seed, 0);
        let mut mapper = NeuralMapper::new(cfg.num_symbols(), &mut rng);
        let mut demapper = NeuralDemapper::new(cfg.demapper.build(&mut rng));
        let mut t = E2eTrainer::new(&cfg);
        t.channel_theta = std::f32::consts::FRAC_PI_4;
        let first = t.step(&mut mapper, &mut demapper);
        let _ = t.train(&mut mapper, &mut demapper);
        assert!(t.tail_loss(50) < first * 0.5);
    }
}
