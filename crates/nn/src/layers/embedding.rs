//! Symbol embedding — the transmitter table.
//!
//! The paper's mapper is "a trainable embedding layer with 16 inputs
//! and two outputs": a table of `M` rows (one per symbol) and `dim`
//! columns (2: the I/Q coordinates). The forward pass is a row gather,
//! the backward pass a row scatter-add. Because its input is a batch of
//! symbol indices rather than a float matrix, it lives outside the
//! [`crate::layer::Layer`] trait and is composed explicitly by the
//! neural mapper in `hybridem-core`.

use crate::layer::Param;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;

/// Trainable lookup table `M × dim`.
pub struct Embedding {
    table: Param,
    cached_indices: Option<Vec<usize>>,
}

impl Embedding {
    /// New table with entries drawn uniformly from `±scale`. The paper's
    /// mapper starts from random points and lets power normalisation
    /// plus training shape the constellation.
    pub fn new(num_symbols: usize, dim: usize, scale: f32, rng: &mut Xoshiro256pp) -> Self {
        let init = crate::init::Init::Uniform(scale);
        Self {
            table: Param::new(init.sample(num_symbols, dim, rng)),
            cached_indices: None,
        }
    }

    /// Number of symbols (table rows).
    pub fn num_symbols(&self) -> usize {
        self.table.value.rows()
    }

    /// Embedding dimension (table columns).
    pub(crate) fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// The raw (un-normalised) table.
    pub fn table(&self) -> &Matrix<f32> {
        &self.table.value
    }

    /// Gathers rows for a batch of symbol indices.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn forward(&mut self, indices: &[usize]) -> Matrix<f32> {
        let mut out = Matrix::zeros(indices.len(), self.dim());
        for (r, &idx) in indices.iter().enumerate() {
            assert!(idx < self.num_symbols(), "symbol index {idx} out of range");
            out.row_mut(r).copy_from_slice(self.table.value.row(idx));
        }
        self.cached_indices = Some(indices.to_vec());
        out
    }

    /// Scatter-adds the batch gradient back into table rows.
    pub fn backward(&mut self, grad_out: &Matrix<f32>) {
        let indices = self
            .cached_indices
            .as_ref()
            .expect("backward before forward");
        assert_eq!(grad_out.rows(), indices.len(), "batch mismatch");
        assert_eq!(grad_out.cols(), self.dim(), "grad width");
        for (r, &idx) in indices.iter().enumerate() {
            for (g, &go) in self.table.grad.row_mut(idx).iter_mut().zip(grad_out.row(r)) {
                *g += go;
            }
        }
    }

    /// The parameter slot (for optimisers).
    pub fn param_mut(&mut self) -> &mut Param {
        &mut self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_3x2() -> Embedding {
        Embedding {
            table: Param::new(Matrix::from_rows(&[
                &[1.0, 0.0],
                &[0.0, 1.0],
                &[-1.0, -1.0],
            ])),
            cached_indices: None,
        }
    }

    #[test]
    fn gather_rows() {
        let mut e = table_3x2();
        let y = e.forward(&[2, 0, 2]);
        assert_eq!(y.row(0), &[-1.0, -1.0]);
        assert_eq!(y.row(1), &[1.0, 0.0]);
        assert_eq!(y.row(2), &[-1.0, -1.0]);
    }

    #[test]
    fn scatter_add_gradients() {
        let mut e = table_3x2();
        let _ = e.forward(&[1, 1, 0]);
        e.backward(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        // Row 1 accumulates two contributions, row 0 one, row 2 none.
        assert_eq!(e.table.grad.row(1), &[4.0, 6.0]);
        assert_eq!(e.table.grad.row(0), &[5.0, 6.0]);
        assert_eq!(e.table.grad.row(2), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bounds_checked() {
        let mut e = table_3x2();
        let _ = e.forward(&[3]);
    }

    #[test]
    fn random_init_within_scale() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let e = Embedding::new(16, 2, 0.7, &mut rng);
        assert_eq!(e.num_symbols(), 16);
        assert_eq!(e.dim(), 2);
        assert!(e.table().as_slice().iter().all(|v| v.abs() <= 0.7));
    }
}
