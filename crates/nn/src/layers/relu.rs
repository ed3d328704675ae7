//! Rectified linear unit.

use crate::layer::{elementwise_grad, Layer};
use hybridem_mathkit::matrix::Matrix;

/// Element-wise `max(0, x)`. Its backward pass reads the unit's
/// activity from the output: `max(0, x) > 0` exactly when `x > 0`.
pub(crate) struct Relu;

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.resize_to(input.rows(), input.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = if x > 0.0 { x } else { 0.0 };
        }
    }

    fn backward(
        &mut self,
        _input: &Matrix<f32>,
        output: &Matrix<f32>,
        grad_out: &Matrix<f32>,
        grad_in: Option<&mut Matrix<f32>>,
    ) {
        let Some(grad_in) = grad_in else { return };
        // A bit mask rather than a branch: half the units of a trained
        // layer are inactive, in no order a predictor could learn.
        elementwise_grad(grad_out, output, grad_in, |g, y| {
            f32::from_bits(g.to_bits() & u32::from(y > 0.0).wrapping_neg())
        });
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward, then the input gradient of an all-ten output gradient.
    fn grad_of(x: &[f32]) -> (Matrix<f32>, Matrix<f32>) {
        let x = Matrix::from_vec(1, x.len(), x.to_vec());
        let y = Relu.infer(&x);
        let mut g = Matrix::zeros(0, 0);
        Relu.backward(&x, &y, &Matrix::full(1, x.len(), 10.0), Some(&mut g));
        (y, g)
    }

    #[test]
    fn forward_clamps_negatives() {
        let (y, _) = grad_of(&[-1.0, 0.0, 2.0]);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let (_, g) = grad_of(&[-1.0, 0.5, 2.0]);
        assert_eq!(g.as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_and_nan_inputs_have_zero_gradient() {
        // Subgradient convention at the kink: 0; a NaN unit is inactive.
        let (_, g) = grad_of(&[0.0, -0.0, f32::NAN]);
        assert!(g.as_slice().iter().all(|v| v.to_bits() == 0));
    }
}
