//! Loss functions.
//!
//! The paper trains with **binary cross-entropy over the `m` bit
//! probabilities** (maximising bitwise mutual information). For
//! numerical robustness every training loop uses the fused
//! [`bce_with_logits`] form on the pre-sigmoid outputs; the plain
//! [`bce`] on probabilities is the reference that tests compare it
//! against.
//!
//! Every gradient is ∂loss/∂input with the `1/batch` factor already
//! applied, so `loss` decreases under a plain gradient step regardless
//! of batch size. The training loss, [`bce_with_logits`], writes its
//! gradient into a caller's buffer, and [`bce_with_logits_grad`]
//! computes that gradient without the loss, for the steps that do not
//! read it. [`bce`] returns `(loss, grad)`.

use hybridem_mathkit::matrix::Matrix;

/// Binary cross-entropy on probabilities `p ∈ (0,1)` against targets
/// in `{0,1}` (mean over all entries). Inputs are clamped away from
/// {0,1} by `1e-7` to avoid infinities.
pub fn bce(p: &Matrix<f32>, target: &Matrix<f32>) -> (f32, Matrix<f32>) {
    assert_eq!(p.shape(), target.shape(), "bce shape mismatch");
    let n = p.len() as f32;
    let mut loss = 0.0f64;
    let grad = p.zip_map(target, |p, t| {
        let p = p.clamp(1e-7, 1.0 - 1e-7);
        loss += -((t as f64) * (p as f64).ln() + (1.0 - t as f64) * (1.0 - p as f64).ln());
        (-(t / p) + (1.0 - t) / (1.0 - p)) / n
    });
    ((loss / n as f64) as f32, grad)
}

/// Fused sigmoid + BCE on logits `z`: `L = mean[softplus(z) − t·z]`,
/// `∂L/∂z = (σ(z) − t)/N`. Never overflows. Writes the gradient into
/// `grad` (reshaped via [`Matrix::resize_to`]) and returns the loss. One
/// `e^{−|z|}` serves both terms; σ is bit-identical to
/// [`sigmoid_f32`](hybridem_mathkit::special::sigmoid_f32).
///
/// # Panics
/// Panics if `z` and `target` differ in shape.
pub fn bce_with_logits(z: &Matrix<f32>, target: &Matrix<f32>, grad: &mut Matrix<f32>) -> f32 {
    bce_logits::<true>(z, target, grad)
}

/// The gradient of [`bce_with_logits`] alone, bit for bit, without the
/// loss's `ln` and f64 sum.
///
/// # Panics
/// Panics if `z` and `target` differ in shape.
pub fn bce_with_logits_grad(z: &Matrix<f32>, target: &Matrix<f32>, grad: &mut Matrix<f32>) {
    bce_logits::<false>(z, target, grad);
}

/// [`bce_with_logits`], summing the loss only when `LOSS` is set.
#[inline(always)]
fn bce_logits<const LOSS: bool>(
    z: &Matrix<f32>,
    target: &Matrix<f32>,
    grad: &mut Matrix<f32>,
) -> f32 {
    assert_eq!(z.shape(), target.shape(), "bce_with_logits shape mismatch");
    grad.resize_to(z.rows(), z.cols());
    let n = z.len() as f32;
    let mut loss = 0.0f64;
    for ((g, &z), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(z.as_slice())
        .zip(target.as_slice())
    {
        // softplus(z) − t·z in the standard overflow-free form
        // max(z,0) − t·z + ln(1+e^{−|z|}); `sigmoid_f32` evaluates the
        // same exponential, e^{−z} for z ≥ 0 and e^{z} otherwise.
        let e = (-z.abs()).exp();
        if LOSS {
            loss += (z.max(0.0) - t * z + (1.0 + e).ln()) as f64;
        }
        let sigma = if z >= 0.0 {
            1.0 / (1.0 + e)
        } else {
            e / (1.0 + e)
        };
        *g = (sigma - t) / n;
    }
    (loss / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::special::sigmoid_f32;

    #[test]
    fn bce_known_value() {
        let p = Matrix::from_rows(&[&[0.9f32, 0.1]]);
        let t = Matrix::from_rows(&[&[1.0f32, 0.0]]);
        let (l, g) = bce(&p, &t);
        let expected = -(0.9f64.ln() + 0.9f64.ln()) / 2.0;
        assert!((l as f64 - expected).abs() < 1e-6);
        // Gradient signs: pull p up toward t=1, down toward t=0.
        assert!(g[(0, 0)] < 0.0);
        assert!(g[(0, 1)] > 0.0);
    }

    #[test]
    fn bce_with_logits_matches_composition() {
        let z = Matrix::from_rows(&[&[1.3f32, -0.7, 0.0, 4.0]]);
        let t = Matrix::from_rows(&[&[1.0f32, 0.0, 1.0, 0.0]]);
        let p = z.map(sigmoid_f32);
        let (l1, _) = bce(&p, &t);
        let mut g2 = Matrix::zeros(0, 0);
        let l2 = bce_with_logits(&z, &t, &mut g2);
        assert!((l1 - l2).abs() < 1e-5, "{l1} vs {l2}");
        // grad wrt z from composition: (p−t)/N.
        for (i, (&pi, &ti)) in p.as_slice().iter().zip(t.as_slice()).enumerate() {
            assert!((g2.as_slice()[i] - (pi - ti) / 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bce_with_logits_extreme_inputs_finite() {
        let z = Matrix::from_rows(&[&[500.0f32, -500.0]]);
        let t = Matrix::from_rows(&[&[0.0f32, 1.0]]);
        let mut g = Matrix::zeros(0, 0);
        let l = bce_with_logits(&z, &t, &mut g);
        assert!(l.is_finite());
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
        assert!(l > 100.0); // confidently wrong ⇒ huge loss
    }

    #[test]
    fn perfect_prediction_zero_loss() {
        let p = Matrix::from_rows(&[&[1.0f32 - 1e-7, 1e-7]]);
        let t = Matrix::from_rows(&[&[1.0f32, 0.0]]);
        let (l, _) = bce(&p, &t);
        assert!(l < 1e-5);
    }
}
