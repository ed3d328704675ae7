//! Special functions and numerically careful primitives.
//!
//! The closed-form AWGN bit-error-rate baselines used to validate the
//! Monte-Carlo link simulator need the Gaussian Q function; demapper
//! LLR post-processing needs stable sigmoid/softplus/log-sum-exp.

/// Error function `erf(x)`, Abramowitz & Stegun 7.1.26 rational
/// approximation (|error| ≤ 1.5·10⁻⁷ — ample for BER baselines that are
/// compared against Monte-Carlo noise).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Complementary error function `erfc(x) = 1 − erf(x)`.
pub(crate) fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Gaussian tail probability `Q(x) = P(N(0,1) > x) = erfc(x/√2)/2`.
pub fn qfunc(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Numerically stable logistic sigmoid `1/(1+e^{−x})`.
///
/// Evaluates the exponential of a non-positive argument only, so it
/// never overflows; this is the reference implementation the FPGA
/// sigmoid LUT is checked against.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `f32` sigmoid used in the hot neural-network path.
#[inline]
pub fn sigmoid_f32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse sigmoid (logit). Saturates rather than returning ±∞ for
/// inputs at the boundary.
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-300, 1.0 - 1e-16);
    (p / (1.0 - p)).ln()
}

/// Stable `ln(Σ e^{x_i})` over a slice. Returns `-inf` for an empty
/// slice (the sum of zero exponentials).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// The max-log approximation `max_i x_i` of [`log_sum_exp`]; exposed so
/// tests can quantify the sub-optimality gap exploited by the paper's
/// suboptimal demapper.
pub fn max_log(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_points() {
        // Values from standard tables.
        assert!((erf(0.0) - 0.0).abs() < 1e-7);
        assert!((erf(0.5) - 0.5204999).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953223).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427008).abs() < 1e-6);
    }

    #[test]
    fn qfunc_reference_points() {
        assert!((qfunc(0.0) - 0.5).abs() < 1e-7);
        assert!((qfunc(1.0) - 0.1586553).abs() < 1e-6);
        assert!((qfunc(3.0) - 1.349898e-3).abs() < 1e-6);
        // Symmetry: Q(-x) = 1 - Q(x).
        assert!((qfunc(-1.3) - (1.0 - qfunc(1.3))).abs() < 1e-7);
    }

    #[test]
    fn sigmoid_stability_and_symmetry() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!((sigmoid(500.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-500.0) > 0.0);
        assert!(sigmoid(-500.0) < 1e-100);
        for &x in &[0.1, 1.0, 3.5, 10.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn logit_inverts_sigmoid() {
        for &x in &[-5.0, -0.5, 0.0, 2.5] {
            assert!((logit(sigmoid(x)) - x).abs() < 1e-9);
        }
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
    }

    #[test]
    fn log_sum_exp_matches_naive_and_is_stable() {
        let xs = [0.5f64, -1.0, 2.0];
        let naive: f64 = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
        // Large inputs would overflow a naive implementation.
        let big = [1000.0, 1000.0];
        assert!((log_sum_exp(&big) - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn max_log_lower_bounds_log_sum_exp() {
        let xs = [0.3, 0.1, -0.7, 1.2];
        assert!(max_log(&xs) <= log_sum_exp(&xs));
        assert!((log_sum_exp(&xs) - max_log(&xs)) <= (xs.len() as f64).ln());
    }
}
