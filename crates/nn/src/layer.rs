//! The layer abstraction.
//!
//! A [`Layer`] is a stateless map of a batch of activations
//! (`batch × features` [`Matrix<f32>`]) plus its parameters. Its one
//! forward pass is [`Layer::infer_into`], which writes into a caller's
//! buffer and mutates nothing. [`Layer::backward`] gets the layer's
//! input and output back from the caller (the training tape that
//! [`crate::model::Sequential`] keeps) together with the loss gradient
//! with respect to the output. It accumulates the parameter gradients
//! into [`Param`] slots and writes the gradient with respect to the
//! input only when the caller asks for it. So a layer caches nothing
//! between the two passes.

use hybridem_mathkit::matrix::Matrix;

/// A trainable tensor: value and accumulated gradient, always the same
/// shape. Optimisers walk iterators of `&mut Param`
/// ([`crate::model::Sequential::params_mut`]).
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix<f32>,
    /// Accumulated gradient (zeroed by [`Param::zero_grad`]).
    pub grad: Matrix<f32>,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Matrix<f32>) -> Self {
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

    /// The forward pass, for training and inference alike, writing into
    /// a caller-provided buffer. It mutates nothing, so trained models
    /// can be shared across threads behind `&self` (the link
    /// simulator's demapper path). `out` is reshaped via
    /// [`Matrix::resize_to`], so a warm buffer is reused without
    /// allocating: the primitive behind the block demapper's
    /// allocation-free batch path and the training tape.
    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>);

    /// [`Layer::infer_into`] on a fresh output matrix.
    fn infer(&self, input: &Matrix<f32>) -> Matrix<f32> {
        let mut out = Matrix::zeros(0, 0);
        self.infer_into(input, &mut out);
        out
    }

    /// Backward pass for the forward that mapped `input` to `output`:
    /// receives ∂L/∂output and accumulates the parameter gradients.
    /// When `grad_in` is given, ∂L/∂input is written into it (reshaped
    /// via [`Matrix::resize_to`]); otherwise it is not computed.
    fn backward(
        &mut self,
        input: &Matrix<f32>,
        output: &Matrix<f32>,
        grad_out: &Matrix<f32>,
        grad_in: Option<&mut Matrix<f32>>,
    );

    /// Mutable access to the layer's parameters (empty by default).
    fn params_mut(&mut self) -> &mut [Param] {
        &mut []
    }

    /// Read-only access to the layer's parameters (empty by default).
    fn params(&self) -> &[Param] {
        &[]
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

/// The input gradient of an element-wise layer:
/// `grad_in[i] = f(grad_out[i], saved[i])`, where `saved` is the layer
/// input or output that its derivative reads.
///
/// # Panics
/// Panics if `grad_out` and `saved` differ in shape.
pub(crate) fn elementwise_grad(
    grad_out: &Matrix<f32>,
    saved: &Matrix<f32>,
    grad_in: &mut Matrix<f32>,
    f: impl Fn(f32, f32) -> f32,
) {
    assert_eq!(grad_out.shape(), saved.shape(), "element-wise grad shape");
    grad_in.resize_to(grad_out.rows(), grad_out.cols());
    for ((gi, &g), &s) in grad_in
        .as_mut_slice()
        .iter_mut()
        .zip(grad_out.as_slice())
        .zip(saved.as_slice())
    {
        *gi = f(g, s);
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
