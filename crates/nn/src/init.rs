//! Weight initialisation.
//!
//! Xavier/Glorot for sigmoid stacks, He for ReLU stacks —
//! both in their uniform variants, drawn from the workspace's
//! deterministic xoshiro streams.

use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};

/// Initialisation scheme for a dense layer's weight matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Init {
    /// Uniform `±√(6/(fan_in+fan_out))` (Glorot & Bengio 2010).
    XavierUniform,
    /// Uniform `±√(6/fan_in)` (He et al. 2015), suited to ReLU.
    HeUniform,
}

impl Init {
    /// Samples a `rows × cols` matrix; `rows` is treated as `fan_out`,
    /// `cols` as `fan_in` (the dense-layer weight convention `W: out×in`).
    pub(crate) fn sample(&self, rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Matrix<f32> {
        let bound = match self {
            Init::XavierUniform => (6.0 / (rows + cols) as f64).sqrt(),
            Init::HeUniform => (6.0 / cols.max(1) as f64).sqrt(),
        };
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.range_f64(-bound, bound) as f32;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_respected() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let m = Init::XavierUniform.sample(16, 2, &mut rng);
        let bound = (6.0f32 / 18.0).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
        let h = Init::HeUniform.sample(4, 16, &mut rng);
        let hb = (6.0f32 / 16.0).sqrt();
        assert!(h.as_slice().iter().all(|v| v.abs() <= hb));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(3);
        let mut b = Xoshiro256pp::seed_from_u64(3);
        assert_eq!(
            Init::XavierUniform.sample(5, 7, &mut a),
            Init::XavierUniform.sample(5, 7, &mut b)
        );
    }

    #[test]
    fn spread_is_nontrivial() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let m = Init::XavierUniform.sample(64, 64, &mut rng);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / m.len() as f32;
        assert!(var > 1e-4);
    }
}
