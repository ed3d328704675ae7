//! Logistic sigmoid layer.

use crate::layer::{elementwise_grad, Layer};
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::special::sigmoid_f32;

/// Element-wise `σ(x) = 1/(1+e^{−x})`. Its backward pass reads the
/// output, since `σ'(x) = σ(x)·(1−σ(x))`.
pub(crate) struct Sigmoid;

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.resize_to(input.rows(), input.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = sigmoid_f32(x);
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
        elementwise_grad(grad_out, output, grad_in, |g, y| g * y * (1.0 - y));
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The input gradient of a unit output gradient at `x`.
    fn slope_at(x: f32) -> f32 {
        let x = Matrix::from_rows(&[&[x]]);
        let y = Sigmoid.infer(&x);
        let mut g = Matrix::zeros(0, 0);
        Sigmoid.backward(&x, &y, &Matrix::from_rows(&[&[1.0]]), Some(&mut g));
        g[(0, 0)]
    }

    #[test]
    fn forward_reference_values() {
        let y = Sigmoid.infer(&Matrix::from_rows(&[&[0.0, 100.0, -100.0]]));
        assert!((y[(0, 0)] - 0.5).abs() < 1e-7);
        assert!((y[(0, 1)] - 1.0).abs() < 1e-6);
        assert!(y[(0, 2)] >= 0.0 && y[(0, 2)] < 1e-6);
    }

    #[test]
    fn backward_peak_at_zero() {
        assert!((slope_at(0.0) - 0.25).abs() < 1e-7); // σ'(0) = 1/4
    }

    #[test]
    fn saturated_gradient_vanishes() {
        assert!(slope_at(50.0).abs() < 1e-6);
    }
}
