//! Hyperbolic tangent layer (used by ablation topologies).

use crate::layer::Layer;
use hybridem_mathkit::matrix::Matrix;

/// Element-wise `tanh(x)`; caches its output.
#[derive(Default)]
pub(crate) struct Tanh {
    output: Option<Matrix<f32>>,
}

impl Tanh {
    /// New tanh layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward(&mut self, input: &Matrix<f32>) -> Matrix<f32> {
        let out = self.infer(input);
        self.output = Some(out.clone());
        out
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.resize_to(input.rows(), input.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = x.tanh();
        }
    }

    fn backward(&mut self, grad_out: &Matrix<f32>) -> Matrix<f32> {
        let y = self.output.as_ref().expect("backward before forward");
        grad_out.zip_map(y, |g, y| g * (1.0 - y * y))
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
        let mut l = Tanh::new();
        let y = l.forward(&Matrix::from_rows(&[&[1.0, -1.0, 0.0]]));
        assert!((y[(0, 0)] + y[(0, 1)]).abs() < 1e-7);
        assert_eq!(y[(0, 2)], 0.0);
    }

    #[test]
    fn backward_unit_slope_at_zero() {
        let mut l = Tanh::new();
        let _ = l.forward(&Matrix::from_rows(&[&[0.0]]));
        let g = l.backward(&Matrix::from_rows(&[&[2.0]]));
        assert!((g[(0, 0)] - 2.0).abs() < 1e-7);
    }
}
