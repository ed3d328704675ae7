//! The learning-rate schedule.
//!
//! E2E training anneals its rate: start aggressive while the
//! constellation forms, settle to refine the demapper's boundaries. The
//! rate is a pure function of the step index, so training remains
//! replayable.

/// Cosine annealing from `lr` to `min_lr` over `total` steps, then flat
/// at `min_lr`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cosine {
    /// Initial rate.
    pub lr: f32,
    /// Final rate.
    pub min_lr: f32,
    /// Annealing horizon in steps.
    pub total: u64,
}

impl Cosine {
    /// Rate at a given step (0-based).
    pub fn at(&self, step: u64) -> f32 {
        let Cosine { lr, min_lr, total } = *self;
        if total == 0 || step >= total {
            return min_lr;
        }
        let t = step as f32 / total as f32;
        min_lr + 0.5 * (lr - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_endpoints_and_monotonicity() {
        let s = Cosine {
            lr: 0.1,
            min_lr: 0.001,
            total: 100,
        };
        assert!((s.at(0) - 0.1).abs() < 1e-6);
        assert!((s.at(100) - 0.001).abs() < 1e-9);
        assert!((s.at(1000) - 0.001).abs() < 1e-9);
        let mut last = s.at(0);
        for step in 1..=100 {
            let v = s.at(step);
            assert!(v <= last + 1e-7, "cosine must be non-increasing");
            last = v;
        }
        // Midpoint is the average of the endpoints.
        assert!((s.at(50) - (0.1 + 0.001) / 2.0).abs() < 1e-3);
    }
}
