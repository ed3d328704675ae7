//! Logistic sigmoid layer.

use crate::layer::Layer;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::special::sigmoid_f32;

/// Element-wise `σ(x) = 1/(1+e^{−x})`; caches its output (the backward
/// pass only needs `σ(x)·(1−σ(x))`).
#[derive(Default)]
pub(crate) struct Sigmoid {
    output: Option<Matrix<f32>>,
}

impl Sigmoid {
    /// New sigmoid layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn forward(&mut self, input: &Matrix<f32>) -> Matrix<f32> {
        let out = self.infer(input);
        self.output = Some(out.clone());
        out
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.resize_to(input.rows(), input.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = sigmoid_f32(x);
        }
    }

    fn backward(&mut self, grad_out: &Matrix<f32>) -> Matrix<f32> {
        let y = self.output.as_ref().expect("backward before forward");
        grad_out.zip_map(y, |g, y| g * y * (1.0 - y))
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_reference_values() {
        let mut l = Sigmoid::new();
        let y = l.forward(&Matrix::from_rows(&[&[0.0, 100.0, -100.0]]));
        assert!((y[(0, 0)] - 0.5).abs() < 1e-7);
        assert!((y[(0, 1)] - 1.0).abs() < 1e-6);
        assert!(y[(0, 2)] >= 0.0 && y[(0, 2)] < 1e-6);
    }

    #[test]
    fn backward_peak_at_zero() {
        let mut l = Sigmoid::new();
        let _ = l.forward(&Matrix::from_rows(&[&[0.0]]));
        let g = l.backward(&Matrix::from_rows(&[&[1.0]]));
        assert!((g[(0, 0)] - 0.25).abs() < 1e-7); // σ'(0) = 1/4
    }

    #[test]
    fn saturated_gradient_vanishes() {
        let mut l = Sigmoid::new();
        let _ = l.forward(&Matrix::from_rows(&[&[50.0]]));
        let g = l.backward(&Matrix::from_rows(&[&[1.0]]));
        assert!(g[(0, 0)].abs() < 1e-6);
    }
}
