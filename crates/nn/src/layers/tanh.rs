//! Hyperbolic tangent layer (used by ablation topologies).

use crate::layer::{elementwise_grad, Layer};
use hybridem_mathkit::matrix::Matrix;

/// Element-wise `tanh(x)`. Its backward pass reads the output, since
/// `tanh'(x) = 1 − tanh²(x)`.
pub(crate) struct Tanh;

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.resize_to(input.rows(), input.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = x.tanh();
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
        elementwise_grad(grad_out, output, grad_in, |g, y| g * (1.0 - y * y));
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_odd_function() {
        let y = Tanh.infer(&Matrix::from_rows(&[&[1.0, -1.0, 0.0]]));
        assert!((y[(0, 0)] + y[(0, 1)]).abs() < 1e-7);
        assert_eq!(y[(0, 2)], 0.0);
    }

    #[test]
    fn backward_unit_slope_at_zero() {
        let x = Matrix::from_rows(&[&[0.0]]);
        let y = Tanh.infer(&x);
        let mut g = Matrix::zeros(0, 0);
        Tanh.backward(&x, &y, &Matrix::from_rows(&[&[2.0]]), Some(&mut g));
        assert!((g[(0, 0)] - 2.0).abs() < 1e-7);
    }
}
