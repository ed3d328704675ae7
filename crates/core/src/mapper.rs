//! The neural mapper: trainable constellation.
//!
//! Paper §III-A: "the mapper consists of a trainable embedding layer
//! with 16 inputs and two outputs as well as an average power
//! normalization layer". `NeuralMapper` composes exactly those two
//! pieces and exposes the learned constellation to the rest of the
//! system.

use hybridem_comm::constellation::Constellation;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_nn::layer::Param;
use hybridem_nn::layers::{Embedding, PowerNorm};

/// Embedding + average-power normalisation.
pub(crate) struct NeuralMapper {
    embedding: Embedding,
    norm: PowerNorm,
    cached_indices: Vec<usize>,
}

impl NeuralMapper {
    /// Fresh mapper with `num_symbols` random points.
    pub(crate) fn new(num_symbols: usize, rng: &mut Xoshiro256pp) -> Self {
        Self {
            embedding: Embedding::new(num_symbols, 2, 1.0, rng),
            norm: PowerNorm::new(),
            cached_indices: Vec::new(),
        }
    }

    /// Maps a batch of symbol indices to normalised I/Q points
    /// (`batch × 2`), caching for backward.
    pub(crate) fn forward(&mut self, indices: &[usize]) -> Matrix<f32> {
        // Normalise the whole table, then gather — the constraint is a
        // property of the codebook, not of the batch.
        let normed = self.norm.forward(self.embedding.table());
        self.cached_indices.clear();
        self.cached_indices.extend_from_slice(indices);
        let mut out = Matrix::zeros(indices.len(), 2);
        for (r, &idx) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(normed.row(idx));
        }
        out
    }

    /// Pure inference (no caches): the current normalised codebook.
    pub(crate) fn constellation(&self) -> Constellation {
        let table = self.embedding.table();
        let p = PowerNorm::avg_power(table).sqrt();
        let points: Vec<C32> = (0..table.rows())
            .map(|r| C32::new(table[(r, 0)] / p, table[(r, 1)] / p))
            .collect();
        Constellation::from_points(points)
    }

    /// Backward: scatter the batch gradient into table rows, then pull
    /// it through the power-norm Jacobian into the embedding gradient.
    pub(crate) fn backward(&mut self, grad_points: &Matrix<f32>) {
        assert_eq!(
            grad_points.rows(),
            self.cached_indices.len(),
            "batch mismatch"
        );
        assert_eq!(grad_points.cols(), 2);
        // Scatter batch gradients to (normalised-)table gradients.
        let mut grad_table = Matrix::zeros(self.embedding.num_symbols(), 2);
        for (r, &idx) in self.cached_indices.iter().enumerate() {
            for (g, &v) in grad_table.row_mut(idx).iter_mut().zip(grad_points.row(r)) {
                *g += v;
            }
        }
        // Through the normalisation Jacobian.
        let grad_raw = self.norm.backward(&grad_table);
        // Into the embedding parameter: emulate a gather of the whole
        // table (identity indices) so the scatter-add hits every row.
        let all: Vec<usize> = (0..self.embedding.num_symbols()).collect();
        let _ = self.embedding.forward(&all);
        self.embedding.backward(&grad_raw);
    }

    /// The trainable parameter (for optimisers).
    pub(crate) fn param_mut(&mut self) -> &mut Param {
        self.embedding.param_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_produces_unit_power_codebook() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut m = NeuralMapper::new(16, &mut rng);
        let all: Vec<usize> = (0..16).collect();
        let pts = m.forward(&all);
        let p: f32 = pts.as_slice().iter().map(|v| v * v).sum::<f32>() / 16.0;
        assert!((p - 1.0).abs() < 1e-5, "avg power {p}");
    }

    #[test]
    fn constellation_matches_forward() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut m = NeuralMapper::new(16, &mut rng);
        let c = m.constellation();
        let all: Vec<usize> = (0..16).collect();
        let pts = m.forward(&all);
        for u in 0..16 {
            assert!((c.point(u).re - pts[(u, 0)]).abs() < 1e-6);
            assert!((c.point(u).im - pts[(u, 1)]).abs() < 1e-6);
        }
        assert!((c.avg_energy() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_descent_moves_a_point_toward_target() {
        // Minimise ‖x_0 − t‖² through forward/backward: point 0 must
        // approach the target direction (up to the power constraint).
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut m = NeuralMapper::new(4, &mut rng);
        let target = [1.2f32, -0.4];
        let mut opt = hybridem_nn::Adam::new(0.05);
        use hybridem_nn::optim::Optimizer;
        for _ in 0..300 {
            m.param_mut().zero_grad();
            let pts = m.forward(&[0]);
            let g = Matrix::from_rows(&[&[
                2.0 * (pts[(0, 0)] - target[0]),
                2.0 * (pts[(0, 1)] - target[1]),
            ]]);
            m.backward(&g);
            opt.step(&mut std::iter::once(m.param_mut()));
        }
        let c = m.constellation();
        let p0 = c.point(0);
        // Direction aligned with the target (power constraint limits
        // magnitude, not direction).
        let dot = p0.re * target[0] + p0.im * target[1];
        assert!(dot > 0.5, "point 0 = {p0} not aligned with target");
        // Codebook still unit power.
        assert!((c.avg_energy() - 1.0).abs() < 1e-4);
    }
}
