//! Rectified linear unit.

use crate::layer::Layer;
use hybridem_mathkit::matrix::Matrix;

/// Element-wise `max(0, x)`; caches the activation mask for backward,
/// in a buffer reused across forward passes.
#[derive(Default)]
pub(crate) struct Relu {
    mask: Option<Vec<bool>>,
    shape: (usize, usize),
}

impl Relu {
    /// New ReLU layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Matrix<f32>) -> Matrix<f32> {
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.extend(input.as_slice().iter().map(|&x| x > 0.0));
        self.shape = input.shape();
        self.infer(input)
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.resize_to(input.rows(), input.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = if x > 0.0 { x } else { 0.0 };
        }
    }

    fn backward(&mut self, grad_out: &Matrix<f32>) -> Matrix<f32> {
        let mask = self.mask.as_ref().expect("backward before forward");
        assert_eq!(grad_out.shape(), self.shape, "relu grad shape");
        // A bit mask rather than a branch: half the units of a trained
        // layer are inactive, in no order a predictor could learn.
        let g = grad_out
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| f32::from_bits(g.to_bits() & u32::from(m).wrapping_neg()))
            .collect();
        Matrix::from_vec(self.shape.0, self.shape.1, g)
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut l = Relu::new();
        let y = l.forward(&Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut l = Relu::new();
        let _ = l.forward(&Matrix::from_rows(&[&[-1.0, 0.5, 2.0]]));
        let g = l.backward(&Matrix::from_rows(&[&[10.0, 10.0, 10.0]]));
        assert_eq!(g.as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention at the kink: 0.
        let mut l = Relu::new();
        let _ = l.forward(&Matrix::from_rows(&[&[0.0]]));
        let g = l.backward(&Matrix::from_rows(&[&[1.0]]));
        assert_eq!(g.as_slice(), &[0.0]);
    }
}
