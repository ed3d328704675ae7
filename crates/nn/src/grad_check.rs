//! Numerical gradient verification.
//!
//! Every analytic backward pass in this crate is checked against
//! central differences. The helpers here perturb each parameter (and
//! optionally each input) of a model under an arbitrary scalar loss and
//! report the worst relative error, so test failures point directly at
//! the offending coordinate.

use crate::model::Sequential;
use hybridem_mathkit::matrix::Matrix;

/// Result of a gradient check.
#[derive(Clone, Copy, Debug)]
pub struct GradCheckReport {
    /// Largest relative error across all checked coordinates.
    pub max_rel_error: f64,
}

/// Relative error between analytic and numeric derivatives with the
/// usual `|a−n| / max(1, |a|, |n|)` normalisation.
fn rel_err(analytic: f64, numeric: f64) -> f64 {
    (analytic - numeric).abs() / analytic.abs().max(numeric.abs()).max(1.0)
}

/// Checks model parameter gradients for a scalar loss.
///
/// `loss_fn(output)` must return `(loss, ∂loss/∂output)`; the model's
/// backward pass then produces analytic parameter gradients that are
/// compared against central differences of the loss.
pub fn check_model_grads<F>(
    model: &mut Sequential,
    input: &Matrix<f32>,
    loss_fn: F,
    eps: f32,
) -> GradCheckReport
where
    F: Fn(&Matrix<f32>) -> (f32, Matrix<f32>),
{
    // Analytic pass.
    model.zero_grad();
    let (_, grad_out) = loss_fn(model.forward(input));
    model.backward(&grad_out);
    let analytic: Vec<Vec<f32>> = model.params().map(|p| p.grad.as_slice().to_vec()).collect();

    // Numeric pass per coordinate.
    let mut max_rel = 0.0f64;
    for (pi, grads) in analytic.iter().enumerate() {
        for (k, &a) in grads.iter().enumerate() {
            let orig = *coordinate(model, pi, k);
            *coordinate(model, pi, k) = orig + eps;
            let (lp, _) = loss_fn(model.forward(input));
            *coordinate(model, pi, k) = orig - eps;
            let (lm, _) = loss_fn(model.forward(input));
            *coordinate(model, pi, k) = orig;
            let numeric = (lp as f64 - lm as f64) / (2.0 * eps as f64);
            max_rel = max_rel.max(rel_err(a as f64, numeric));
        }
    }
    GradCheckReport {
        max_rel_error: max_rel,
    }
}

/// Scalar `k` of the model's parameter `pi` (in layer order).
fn coordinate(model: &mut Sequential, pi: usize, k: usize) -> &mut f32 {
    let param = model.params_mut().nth(pi).expect("parameter index");
    &mut param.value.as_mut_slice()[k]
}

/// Checks the gradient a model propagates to its *input* (needed by the
/// E2E autoencoder, where the demapper's input gradient flows through
/// the channel into the mapper).
pub fn check_input_grads<F>(
    model: &mut Sequential,
    input: &Matrix<f32>,
    loss_fn: F,
    eps: f32,
) -> GradCheckReport
where
    F: Fn(&Matrix<f32>) -> (f32, Matrix<f32>),
{
    model.zero_grad();
    let (_, grad_out) = loss_fn(model.forward(input));
    let analytic = model.backward_input(&grad_out).clone();

    let mut max_rel = 0.0f64;
    let mut x = input.clone();
    for k in 0..x.len() {
        let orig = x.as_slice()[k];
        x.as_mut_slice()[k] = orig + eps;
        let (lp, _) = loss_fn(model.forward(&x));
        x.as_mut_slice()[k] = orig - eps;
        let (lm, _) = loss_fn(model.forward(&x));
        x.as_mut_slice()[k] = orig;
        let numeric = (lp as f64 - lm as f64) / (2.0 * eps as f64);
        max_rel = max_rel.max(rel_err(analytic.as_slice()[k] as f64, numeric));
    }
    GradCheckReport {
        max_rel_error: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{bce, bce_with_logits};
    use crate::model::{Activation, MlpSpec};
    use hybridem_mathkit::rng::Xoshiro256pp;

    /// [`bce_with_logits`] as a `(loss, grad)` pair.
    fn bce_pair(z: &Matrix<f32>, t: &Matrix<f32>) -> (f32, Matrix<f32>) {
        let mut grad = Matrix::zeros(0, 0);
        (bce_with_logits(z, t, &mut grad), grad)
    }

    /// f32 central differences on a composed model are good to ~1e-2
    /// relative; analytic bugs produce errors of order 1.
    const TOL: f64 = 2e-2;

    fn smooth_input(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        // Inputs away from ReLU kinks for clean numerics.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = (rng.normal_f64() * 0.7) as f32;
        }
        m
    }

    #[test]
    fn dense_sigmoid_stack_with_bce() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let spec = MlpSpec {
            dims: vec![3, 5, 2],
            hidden: Activation::Sigmoid,
            output: Activation::Sigmoid,
        };
        let mut model = spec.build(&mut rng);
        let x = smooth_input(4, 3, 1);
        let t = smooth_input(4, 2, 2).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        // One analytic loss call, then two per perturbed coordinate:
        // every parameter is checked.
        let calls = std::cell::Cell::new(0);
        let loss = |y: &Matrix<f32>| {
            calls.set(calls.get() + 1);
            bce(y, &t)
        };
        let rep = check_model_grads(&mut model, &x, loss, 1e-3);
        assert!(rep.max_rel_error < TOL, "rel err {}", rep.max_rel_error);
        assert_eq!(calls.get(), 1 + 2 * (3 * 5 + 5 + 5 * 2 + 2));
    }

    #[test]
    fn paper_demapper_with_bce_logits() {
        let mut rng = Xoshiro256pp::seed_from_u64(20);
        let mut model = MlpSpec::paper_demapper_logits().build(&mut rng);
        let x = smooth_input(6, 2, 3);
        let t = smooth_input(6, 4, 4).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let rep = check_model_grads(&mut model, &x, |z| bce_pair(z, &t), 1e-3);
        assert!(rep.max_rel_error < TOL, "rel err {}", rep.max_rel_error);
    }

    #[test]
    fn input_gradient_for_autoencoder_path() {
        let mut rng = Xoshiro256pp::seed_from_u64(40);
        let mut model = MlpSpec::paper_demapper_logits().build(&mut rng);
        let x = smooth_input(5, 2, 6);
        let t = smooth_input(5, 4, 7).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let calls = std::cell::Cell::new(0);
        let loss = |z: &Matrix<f32>| {
            calls.set(calls.get() + 1);
            bce_pair(z, &t)
        };
        let rep = check_input_grads(&mut model, &x, loss, 1e-3);
        assert!(rep.max_rel_error < TOL, "rel err {}", rep.max_rel_error);
        assert_eq!(calls.get(), 1 + 2 * 10, "every input coordinate checked");
    }
}
