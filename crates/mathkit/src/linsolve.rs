//! Small dense linear solves (f64).
//!
//! The centroid-refinement step of the extraction pipeline solves a
//! damped Gauss–Newton normal system of a few dozen unknowns; this
//! module provides the required Gaussian elimination with partial
//! pivoting. Sizes are tiny (≤ 2·M for M ≤ 256 sites), so no blocking
//! or pivd-growth heroics are needed.

use crate::matrix::Matrix;

/// Solves `A·x = b` in place via Gaussian elimination with partial
/// pivoting. Returns `None` if the matrix is numerically singular.
pub(crate) fn solve(a: &Matrix<f64>, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "square system required");
    assert_eq!(b.len(), n, "rhs length");
    // Augmented copy.
    let mut m = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        let mut best = m[(col, col)].abs();
        for r in (col + 1)..n {
            let v = m[(r, col)].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if piv != col {
            for c in 0..n {
                let tmp = m[(col, c)];
                m[(col, c)] = m[(piv, c)];
                m[(piv, c)] = tmp;
            }
            x.swap(col, piv);
        }
        // Eliminate below.
        let d = m[(col, col)];
        for r in (col + 1)..n {
            let f = m[(r, col)] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m[(col, c)];
                m[(r, c)] -= f * v;
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in (col + 1)..n {
            acc -= m[(col, c)] * x[c];
        }
        x[col] = acc / m[(col, col)];
    }
    Some(x)
}

/// Solves the regularised least-squares problem
/// `min ‖J·x − r‖² + λ‖x‖²` via the normal equations
/// `(JᵀJ + λI)·x = Jᵀr`, with `J` given row by row.
pub fn solve_least_squares(
    rows: &[Vec<f64>],
    rhs: &[f64],
    n_unknowns: usize,
    lambda: f64,
) -> Option<Vec<f64>> {
    assert_eq!(rows.len(), rhs.len());
    let mut jtj = Matrix::zeros(n_unknowns, n_unknowns);
    let mut jtr = vec![0.0; n_unknowns];
    for (row, &r) in rows.iter().zip(rhs) {
        assert_eq!(row.len(), n_unknowns, "jacobian row width");
        for i in 0..n_unknowns {
            if row[i] == 0.0 {
                continue;
            }
            jtr[i] += row[i] * r;
            for j in 0..n_unknowns {
                jtj[(i, j)] += row[i] * row[j];
            }
        }
    }
    for i in 0..n_unknowns {
        jtj[(i, i)] += lambda;
    }
    solve(&jtj, &jtr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn random_round_trip() {
        // A·x for a known x, then solve and compare.
        let n = 8;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 1234u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = next();
            }
            a[(r, r)] += 4.0; // diagonally dominant ⇒ well-conditioned
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.5).collect();
        let mut b = vec![0.0; n];
        for r in 0..n {
            for c in 0..n {
                b[r] += a[(r, c)] * x_true[c];
            }
        }
        let x = solve(&a, &b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-9);
        }
    }

    #[test]
    fn least_squares_overdetermined() {
        // Fit y = 2x + 1 from noisy-free samples: exact recovery.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        let rhs: Vec<f64> = (0..10).map(|i| 2.0 * i as f64 + 1.0).collect();
        let x = solve_least_squares(&rows, &rhs, 2, 1e-9).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn regularisation_controls_null_space() {
        // One equation, two unknowns: the λ‖x‖² term picks the
        // minimum-norm solution.
        let rows = vec![vec![1.0, 1.0]];
        let rhs = vec![2.0];
        let x = solve_least_squares(&rows, &rhs, 2, 1e-6).unwrap();
        assert!((x[0] - x[1]).abs() < 1e-6, "symmetric split");
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }
}
