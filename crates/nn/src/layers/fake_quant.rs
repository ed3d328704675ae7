//! Straight-through fake quantisation for quantisation-aware training.
//!
//! A [`FakeQuant`] layer simulates one fixed-point cast of the deployed
//! integer datapath *inside the f32 training graph*: the forward pass
//! quantises and immediately dequantises every activation through a
//! [`QuantSpec`], so downstream layers see exactly the rounding and
//! saturation noise the hardware will inject. The backward pass is the
//! clipped straight-through estimator (STE): quantisation is a
//! staircase with zero gradient almost everywhere, so the gradient is
//! passed through unchanged where the input lies inside the
//! representable range and zeroed where the forward pass saturated —
//! the standard QAT rule (DESIGN.md §9).

use crate::layer::{elementwise_grad, Layer};
use hybridem_fixed::QuantSpec;
use hybridem_mathkit::matrix::Matrix;

/// Quantise–dequantise layer with a straight-through backward pass.
pub(crate) struct FakeQuant {
    spec: QuantSpec,
}

impl FakeQuant {
    /// New fake-quantisation layer for one tensor boundary.
    pub(crate) fn new(spec: QuantSpec) -> Self {
        Self { spec }
    }

    /// One element through the quantise→dequantise round trip.
    #[inline]
    fn fake_quantize(&self, x: f32) -> f32 {
        self.spec.dequantize(self.spec.quantize(x))
    }
}

impl Layer for FakeQuant {
    fn name(&self) -> &'static str {
        "fake_quant"
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.resize_to(input.rows(), input.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = self.fake_quantize(x);
        }
    }

    fn backward(
        &mut self,
        input: &Matrix<f32>,
        _output: &Matrix<f32>,
        grad_out: &Matrix<f32>,
        grad_in: Option<&mut Matrix<f32>>,
    ) {
        let Some(grad_in) = grad_in else { return };
        // The gradient passes where the input was inside the
        // representable range and is zeroed where the forward saturated.
        let lo = self.spec.format.min_value() as f32;
        let hi = self.spec.format.max_value() as f32;
        elementwise_grad(grad_out, input, grad_in, |g, x| {
            if (lo..=hi).contains(&x) {
                g
            } else {
                0.0
            }
        });
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    fn quant_spec(&self) -> Option<QuantSpec> {
        Some(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_fixed::{QFormat, Rounding};

    fn spec_q4_4() -> QuantSpec {
        QuantSpec {
            format: QFormat::signed(8, 4),
            rounding: Rounding::Nearest,
        }
    }

    /// The straight-through input gradient of `grad_out` at `x`.
    fn grad_of(x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        let mut l = FakeQuant::new(spec_q4_4());
        let x = Matrix::from_vec(1, x.len(), x.to_vec());
        let y = l.infer(&x);
        let mut g = Matrix::zeros(0, 0);
        let grad_out = Matrix::from_vec(1, grad_out.len(), grad_out.to_vec());
        l.backward(&x, &y, &grad_out, Some(&mut g));
        g.as_slice().to_vec()
    }

    #[test]
    fn forward_snaps_to_grid() {
        let l = FakeQuant::new(spec_q4_4());
        let y = l.infer(&Matrix::from_rows(&[&[0.30f32, -1.27, 0.0]]));
        // Resolution 1/16: every output is a multiple of 0.0625.
        for &v in y.as_slice() {
            assert_eq!(v, (v * 16.0).round() / 16.0);
        }
        assert!((y[(0, 0)] - 0.3125).abs() < 1e-7);
    }

    #[test]
    fn forward_saturates_at_format_bounds() {
        let l = FakeQuant::new(spec_q4_4());
        let y = l.infer(&Matrix::from_rows(&[&[100.0f32, -100.0]]));
        assert_eq!(y[(0, 0)], 127.0 / 16.0);
        assert_eq!(y[(0, 1)], -8.0);
    }

    #[test]
    fn backward_is_straight_through_inside_range() {
        let g = grad_of(&[0.3, -2.0, 5.0], &[1.0, 2.0, 3.0]);
        assert_eq!(g, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn backward_clips_gradient_where_saturated() {
        let g = grad_of(&[100.0, 0.5, -100.0], &[1.0, 1.0, 1.0]);
        assert_eq!(g, [0.0, 1.0, 0.0]);
    }

    #[test]
    fn infer_paths_agree_bitwise() {
        let l = FakeQuant::new(spec_q4_4());
        let x = Matrix::from_rows(&[&[0.31f32, -0.77], &[1.23, -4.56]]);
        let a = l.infer(&x);
        let mut b = Matrix::zeros(0, 0);
        l.infer_into(&x, &mut b);
        for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn exposes_its_spec() {
        let l = FakeQuant::new(spec_q4_4());
        assert_eq!(l.quant_spec(), Some(spec_q4_4()));
        assert_eq!(l.output_dim(7), 7);
    }
}
