//! Fully-connected layer `y = x·Wᵀ + b`.

use crate::init::Init;
use crate::kernels;
use crate::layer::{Layer, Param};
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_mathkit::simd::LaneWidth;

/// Dense layer with weights stored `out × in` (the row of `W` is the
/// fan-in of one output neuron — also the layout a folded MVAU consumes
/// row by row on the FPGA side). Its products run as the lane
/// [`kernels`] at the probed [`LaneWidth`].
pub(crate) struct Dense {
    /// The weight (`out × in`), then the bias (`1 × out`).
    params: [Param; 2],
}

impl Dense {
    /// New dense layer with the given initialisation for the weights and
    /// zero bias.
    pub(crate) fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut Xoshiro256pp) -> Self {
        Self {
            params: [
                Param::new(init.sample(out_dim, in_dim, rng)),
                Param::new(Matrix::zeros(1, out_dim)),
            ],
        }
    }

    /// Builds from explicit weight (`out × in`) and bias (`1 × out`)
    /// matrices (deserialisation, tests, FPGA export round-trips).
    pub(crate) fn from_parts(weight: Matrix<f32>, bias: Matrix<f32>) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weight.rows(), "bias length must equal out_dim");
        Self {
            params: [Param::new(weight), Param::new(bias)],
        }
    }

    /// Input feature count.
    pub(crate) fn in_dim(&self) -> usize {
        self.params[0].value.cols()
    }

    /// Output feature count.
    pub(crate) fn out_dim(&self) -> usize {
        self.params[0].value.rows()
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn infer_into(&self, input: &Matrix<f32>, out: &mut Matrix<f32>) {
        let [weight, bias] = &self.params;
        kernels::affine_into_at(
            LaneWidth::detect(),
            input,
            &weight.value,
            bias.value.as_slice(),
            out,
        );
    }

    fn backward(
        &mut self,
        input: &Matrix<f32>,
        _output: &Matrix<f32>,
        grad_out: &Matrix<f32>,
        grad_in: Option<&mut Matrix<f32>>,
    ) {
        let width = LaneWidth::detect();
        let [weight, bias] = &mut self.params;
        kernels::add_weight_grad_at(width, grad_out, input, &mut weight.grad);
        kernels::add_bias_grad_at(width, grad_out, bias.grad.as_mut_slice());
        if let Some(dx) = grad_in {
            kernels::input_grad_into_at(width, grad_out, &weight.value, dx);
        }
    }

    fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    fn params(&self) -> &[Param] {
        &self.params
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(input_dim, self.in_dim());
        self.out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_2x3() -> Dense {
        Dense::from_parts(
            Matrix::from_rows(&[&[1.0, 2.0], &[0.0, -1.0], &[0.5, 0.5]]),
            Matrix::from_rows(&[&[0.1, 0.2, 0.3]]),
        )
    }

    #[test]
    fn forward_known_values() {
        let l = layer_2x3();
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0]]);
        let y = l.infer(&x);
        assert_eq!(y.shape(), (2, 3));
        // Row 0: [1+2, −1, 1]+b = [3.1, −0.8, 1.3]
        assert!((y[(0, 0)] - 3.1).abs() < 1e-6);
        assert!((y[(0, 1)] + 0.8).abs() < 1e-6);
        assert!((y[(0, 2)] - 1.3).abs() < 1e-6);
        // Row 1: [2, 0, 1]+b
        assert!((y[(1, 0)] - 2.1).abs() < 1e-6);
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut l = layer_2x3();
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        let y = l.infer(&x);
        let g = Matrix::from_rows(&[&[1.0, 0.0, 0.0]]);
        let mut gx = Matrix::zeros(0, 0);
        l.backward(&x, &y, &g, Some(&mut gx));
        assert_eq!(gx.shape(), (1, 2));
        // dX = g·W = first row of W.
        assert_eq!(gx.as_slice(), &[1.0, 2.0]);
        // dW row 0 = x, other rows zero; db = g.
        assert_eq!(l.params()[0].grad.row(0), &[1.0, -1.0]);
        assert_eq!(l.params()[0].grad.row(1), &[0.0, 0.0]);
        assert_eq!(l.params()[1].grad.as_slice(), &[1.0, 0.0, 0.0]);
        // Accumulation across a second backward, this one without the
        // input gradient: `gx` keeps its bits.
        gx.as_mut_slice().fill(7.0);
        l.backward(&x, &y, &g, None);
        assert_eq!(l.params()[0].grad.row(0), &[2.0, -2.0]);
        assert_eq!(gx.as_slice(), &[7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "dense input width")]
    fn input_width_checked() {
        let l = layer_2x3();
        let _ = l.infer(&Matrix::zeros(1, 5));
    }

    #[test]
    fn output_dim_reports() {
        let l = layer_2x3();
        assert_eq!(l.output_dim(2), 3);
        assert_eq!(l.in_dim(), 2);
        assert_eq!(l.out_dim(), 3);
    }
}
