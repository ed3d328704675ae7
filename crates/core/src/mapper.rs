//! The neural mapper: trainable constellation.
//!
//! Paper §III-A: "the mapper consists of a trainable embedding layer
//! with 16 inputs and two outputs as well as an average power
//! normalization layer". `NeuralMapper` is exactly that: a trainable
//! `M × 2` table, one row of I/Q coordinates per symbol, scaled by
//! `1/√P̄` with `P̄ = (1/M) Σ_j ‖x_j‖²`. With equiprobable symbols that
//! gives `E[‖x‖²] = 1` exactly. The constraint is a property of the
//! codebook, not of the batch, so the forward pass normalises by the
//! whole table's power and gathers the batch's rows.
//!
//! The backward pass scatter-adds the batch gradient into table rows
//! and pulls it through the full Jacobian of the normalisation (the
//! scale itself depends on every entry):
//!
//! `∂L/∂x_j = g_j/√P̄ − x_j · (Σ_i ⟨g_i, x_i⟩) / (M·P̄^{3/2})`
//!
//! which is what lets E2E training trade power between symbols while
//! keeping the constraint active. Like the `hybridem-nn` layers, the
//! mapper keeps no forward cache: the caller hands the batch's indices
//! to both passes, and backward recomputes `P̄` from the table.

use hybridem_comm::constellation::Constellation;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_nn::layer::Param;

/// A trainable table plus average-power normalisation.
pub(crate) struct NeuralMapper {
    /// The raw (un-normalised) `M × 2` table.
    table: Param,
    /// The batch gradient scattered onto table rows, reused from step
    /// to step.
    scatter: Matrix<f32>,
}

impl NeuralMapper {
    /// Fresh mapper with `num_symbols` random points, each coordinate
    /// uniform on `±1`: power normalisation plus training shape the
    /// constellation.
    pub(crate) fn new(num_symbols: usize, rng: &mut Xoshiro256pp) -> Self {
        let mut table = Matrix::zeros(num_symbols, 2);
        for v in table.as_mut_slice() {
            *v = rng.range_f64(-1.0, 1.0) as f32;
        }
        Self {
            table: Param::new(table),
            scatter: Matrix::zeros(num_symbols, 2),
        }
    }

    /// Maps a batch of symbol indices to normalised I/Q points, written
    /// into `out` (reshaped to `batch × 2` via [`Matrix::resize_to`]).
    ///
    /// # Panics
    /// Panics on an all-zero table (power 0 cannot be normalised) or an
    /// out-of-range index.
    pub(crate) fn forward(&self, indices: &[usize], out: &mut Matrix<f32>) {
        let table = &self.table.value;
        let p = avg_power(table);
        assert!(p > 0.0, "cannot power-normalise an all-zero table");
        let scale = p.sqrt();
        out.resize_to(indices.len(), 2);
        for (r, &idx) in indices.iter().enumerate() {
            for (o, &v) in out.row_mut(r).iter_mut().zip(table.row(idx)) {
                *o = v / scale;
            }
        }
    }

    /// Pure inference: the current normalised codebook.
    pub(crate) fn constellation(&self) -> Constellation {
        let table = &self.table.value;
        let p = avg_power(table).sqrt();
        let points: Vec<C32> = (0..table.rows())
            .map(|r| C32::new(table[(r, 0)] / p, table[(r, 1)] / p))
            .collect();
        Constellation::from_points(points)
    }

    /// Backward for the forward that mapped `indices`: scatter-adds
    /// `grad` (∂L/∂points, `batch × 2`) onto table rows in batch order,
    /// pulls it through the normalisation's Jacobian (module docs) and
    /// adds the result into the table's gradient.
    pub(crate) fn backward(&mut self, indices: &[usize], grad: &Matrix<f32>) {
        assert_eq!(grad.shape(), (indices.len(), 2), "mapper gradient shape");
        let scatter = &mut self.scatter;
        scatter.fill_zero();
        for (r, &idx) in indices.iter().enumerate() {
            for (s, &g) in scatter.row_mut(idx).iter_mut().zip(grad.row(r)) {
                *s += g;
            }
        }
        let x = &self.table.value;
        let p = avg_power(x);
        let m = x.rows() as f32;
        let inner: f32 = scatter
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(&g, &xi)| g * xi)
            .sum();
        let s1 = 1.0 / p.sqrt();
        let s2 = inner / (m * p * p.sqrt());
        for ((acc, &g), &xi) in self
            .table
            .grad
            .as_mut_slice()
            .iter_mut()
            .zip(scatter.as_slice())
            .zip(x.as_slice())
        {
            *acc += g * s1 - xi * s2;
        }
    }

    /// The trainable table (for optimisers).
    pub(crate) fn param_mut(&mut self) -> &mut Param {
        &mut self.table
    }
}

/// Average row power `P̄` of a table.
fn avg_power(table: &Matrix<f32>) -> f32 {
    let sum: f32 = table.as_slice().iter().map(|v| v * v).sum();
    sum / table.rows() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_nn::Adam;

    /// The table the unit tests of `embedding` used: P̄ = (1 + 1 + 2)/3.
    const TABLE_3X2: [[f32; 2]; 3] = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]];

    fn with_table(rows: &[[f32; 2]]) -> NeuralMapper {
        NeuralMapper {
            table: Param::new(Matrix::from_vec(rows.len(), 2, rows.concat())),
            scatter: Matrix::zeros(rows.len(), 2),
        }
    }

    fn points(m: &NeuralMapper, indices: &[usize]) -> Matrix<f32> {
        let mut out = Matrix::zeros(0, 0);
        m.forward(indices, &mut out);
        out
    }

    fn power(points: &Matrix<f32>) -> f32 {
        points.as_slice().iter().map(|v| v * v).sum::<f32>() / points.rows() as f32
    }

    #[test]
    fn forward_produces_unit_power_codebook() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let m = NeuralMapper::new(16, &mut rng);
        assert!(m.table.value.as_slice().iter().all(|v| v.abs() <= 1.0));
        let all: Vec<usize> = (0..16).collect();
        let p = power(&points(&m, &all));
        assert!((p - 1.0).abs() < 1e-5, "avg power {p}");
        // A hand-made table keeps its directions at unit power.
        let y = points(&with_table(&[[3.0, 0.0], [0.0, 1.0]]), &[0, 1]);
        assert!((power(&y) - 1.0).abs() < 1e-6);
        assert!(y[(0, 1)] == 0.0 && y[(1, 0)] == 0.0);
        assert!(y[(0, 0)] > 0.0 && y[(1, 1)] > 0.0);
        // Scaling the table changes nothing.
        let t = [[1.0, 2.0], [-0.5, 0.25]];
        let y1 = points(&with_table(&t), &[0, 1]);
        let y2 = points(&with_table(&t.map(|r| r.map(|v| v * 7.5))), &[0, 1]);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_gathers_normalised_rows_in_batch_order() {
        let s = (4.0f32 / 3.0).sqrt();
        let y = points(&with_table(&TABLE_3X2), &[2, 0, 2]);
        assert_eq!(y.shape(), (3, 2));
        assert_eq!(y.row(0), &[-1.0 / s, -1.0 / s]);
        assert_eq!(y.row(1), &[1.0 / s, 0.0]);
        assert_eq!(y.row(2), &[-1.0 / s, -1.0 / s]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bounds_checked() {
        let _ = points(&with_table(&TABLE_3X2), &[3]);
    }

    #[test]
    #[should_panic(expected = "all-zero table")]
    fn zero_table_rejected() {
        let _ = points(&with_table(&[[0.0, 0.0], [0.0, 0.0]]), &[0]);
    }

    #[test]
    fn constellation_matches_forward() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let m = NeuralMapper::new(16, &mut rng);
        let c = m.constellation();
        let all: Vec<usize> = (0..16).collect();
        let pts = points(&m, &all);
        for u in 0..16 {
            assert!((c.point(u).re - pts[(u, 0)]).abs() < 1e-6);
            assert!((c.point(u).im - pts[(u, 1)]).abs() < 1e-6);
        }
        assert!((c.avg_energy() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn backward_scatter_adds_a_repeated_index() {
        // Batch rows at indices 1, 1, 0: table row 1 collects two
        // contributions, row 0 one, row 2 none — the same gradient, bit
        // for bit, as one batch row per table row carrying the sums.
        let mut repeated = with_table(&TABLE_3X2);
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        repeated.backward(&[1, 1, 0], &g);
        let mut summed = with_table(&TABLE_3X2);
        let sums = Matrix::from_rows(&[&[5.0, 6.0], &[4.0, 6.0], &[0.0, 0.0]]);
        summed.backward(&[0, 1, 2], &sums);
        assert_eq!(repeated.table.grad, summed.table.grad);
        assert!(repeated.table.grad.max_abs() > 0.0);
        // A second backward adds to the gradient.
        let once = repeated.table.grad.clone();
        repeated.backward(&[1, 1, 0], &g);
        for (&twice, &one) in repeated.table.grad.as_slice().iter().zip(once.as_slice()) {
            assert_eq!(twice, one + one);
        }
    }

    #[test]
    fn backward_orthogonal_to_scaling_direction() {
        // The normalised output is invariant to scaling the table, so
        // the pullback of any gradient must be orthogonal to it.
        let mut m = with_table(&[[1.0, 2.0], [-0.5, 0.25]]);
        let g = Matrix::from_rows(&[&[0.3, -0.7], &[0.2, 0.9]]);
        m.backward(&[0, 1], &g);
        let dot: f32 = m
            .table
            .grad
            .as_slice()
            .iter()
            .zip(m.table.value.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!(
            dot.abs() < 1e-5,
            "directional derivative along x must vanish, got {dot}"
        );
    }

    #[test]
    fn backward_matches_central_differences() {
        // L = Σ_r ⟨w_r, y_r⟩ over a batch that repeats index 2 and
        // leaves index 3 out: every table entry's ∂L/∂x against central
        // differences of L. (Orthogonality alone passes a Jacobian that
        // is off by a common factor.)
        let mut m = with_table(&[[0.9, -0.2], [-0.4, 1.1], [0.3, 0.6], [-1.2, -0.5]]);
        let indices = [2, 0, 2, 1];
        let w = Matrix::from_rows(&[&[0.7, -1.3], &[0.4, 0.8], &[-0.6, 0.2], &[1.1, 0.5]]);
        let loss = |m: &NeuralMapper| -> f64 {
            let y = points(m, &indices);
            y.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(&y, &w)| f64::from(y) * f64::from(w))
                .sum()
        };
        m.backward(&indices, &w);
        let analytic = m.table.grad.clone();
        let eps = 1e-3f32;
        for k in 0..analytic.len() {
            let orig = m.table.value.as_slice()[k];
            m.table.value.as_mut_slice()[k] = orig + eps;
            let lp = loss(&m);
            m.table.value.as_mut_slice()[k] = orig - eps;
            let lm = loss(&m);
            m.table.value.as_mut_slice()[k] = orig;
            let numeric = (lp - lm) / (2.0 * f64::from(eps));
            let a = f64::from(analytic.as_slice()[k]);
            assert!(
                (a - numeric).abs() < 2e-3 * a.abs().max(1.0),
                "entry {k}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradient_descent_moves_a_point_toward_target() {
        // Minimise ‖x_0 − t‖² through forward/backward: point 0 must
        // approach the target direction (up to the power constraint).
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut m = NeuralMapper::new(4, &mut rng);
        let target = [1.2f32, -0.4];
        let mut opt = Adam::new(0.05);
        let mut pts = Matrix::zeros(0, 0);
        for _ in 0..300 {
            m.param_mut().zero_grad();
            m.forward(&[0], &mut pts);
            let g = Matrix::from_rows(&[&[
                2.0 * (pts[(0, 0)] - target[0]),
                2.0 * (pts[(0, 1)] - target[1]),
            ]]);
            m.backward(&[0], &g);
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
