//! The layer abstraction.
//!
//! A [`Layer`] transforms a batch of activations (`batch × features`
//! [`Matrix<f32>`]) and, given the loss gradient with respect to its
//! output, produces the gradient with respect to its input while
//! accumulating parameter gradients into [`Param`] slots. Layers cache
//! whatever they need from the forward pass; the contract is strictly
//! "one `forward`, then at most one `backward` for that forward".

use hybridem_mathkit::matrix::Matrix;

/// A trainable tensor: value and accumulated gradient, always the same
/// shape. Optimisers walk `Vec<&mut Param>` collections.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix<f32>,
    /// Accumulated gradient (zeroed by [`Param::zero_grad`]).
    pub(crate) grad: Matrix<f32>,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub(crate) fn new(value: Matrix<f32>) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad }
    }

    /// Number of scalar parameters.
    pub(crate) fn len(&self) -> usize {
        self.value.len()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A differentiable transformation of batched activations.
pub trait Layer: Send + Sync {
    /// Human-readable kind, used by snapshots and reports.
    fn name(&self) -> &'static str;

    /// Forward pass. Must cache anything `backward` needs.
    fn forward(&mut self, input: &Matrix<f32>) -> Matrix<f32>;

    /// Pure inference writing into a caller-provided buffer: identical
    /// arithmetic to `forward` but without mutating caches, so trained
    /// models can be shared across threads behind `&self` (the link
    /// simulator's demapper path). `out` is reshaped via
    /// [`Matrix::resize_to`], so a warm buffer is reused without
    /// allocating — the primitive behind the block demapper's
    /// allocation-free batch path.
    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>);

    /// [`Layer::infer_into`] on a fresh output matrix.
    fn infer(&self, input: &Matrix<f32>) -> Matrix<f32> {
        let mut out = Matrix::zeros(0, 0);
        self.infer_into(input, &mut out);
        out
    }

    /// Backward pass for the most recent `forward`: receives ∂L/∂output,
    /// returns ∂L/∂input, accumulating parameter gradients.
    fn backward(&mut self, grad_out: &Matrix<f32>) -> Matrix<f32>;

    /// Mutable access to the layer's parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Read-only access to the layer's parameters (empty by default).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Output feature count for a given input feature count.
    fn output_dim(&self, input_dim: usize) -> usize;

    /// The fixed-point cast this layer simulates, when it is a
    /// fake-quantisation boundary (`FakeQuant`). The
    /// FPGA graph compiler reads these to reconstruct the integer
    /// datapath formats a QAT model was trained against; all other
    /// layers report `None`.
    fn quant_spec(&self) -> Option<hybridem_fixed::QuantSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_wraps_and_zeroes() {
        let mut p = Param::new(Matrix::from_rows(&[&[1.0f32, 2.0]]));
        assert_eq!(p.len(), 2);
        p.grad.as_mut_slice()[0] = 5.0;
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(p.value.as_slice(), &[1.0, 2.0]);
    }
}
