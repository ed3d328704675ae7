//! Receiver-side quality metrics: [`BitwiseMiEstimator`], the bitwise
//! mutual information the paper's E2E training maximises, estimated
//! from LLRs.

/// Streaming estimator of the **bitwise mutual information** (in bits
/// per channel bit) from LLR observations, assuming equiprobable bits:
///
/// `MI ≈ 1 − E[ log₂(1 + e^{−s}) ]`, where `s = (1−2b)·LLR` is the LLR
/// aligned with the transmitted bit `b` (workspace convention: positive
/// LLR ⇒ bit 0, so `s > 0` means "pointing the right way").
///
/// This is the standard demapper-aware MI estimate; it reaches `m` bits
/// per symbol summed over bit positions as the channel clears.
#[derive(Clone, Debug, Default)]
pub struct BitwiseMiEstimator {
    acc: f64,
    n: u64,
}

impl BitwiseMiEstimator {
    /// Empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one (transmitted bit, LLR) observation.
    pub fn push(&mut self, bit: u8, llr: f32) {
        debug_assert!(bit <= 1);
        let s = f64::from(if bit == 0 { llr } else { -llr });
        // log2(1 + e^{−s}), stable for both signs.
        let l = if s > 40.0 {
            0.0
        } else if s < -40.0 {
            -s / std::f64::consts::LN_2
        } else {
            (1.0 + (-s).exp()).ln() / std::f64::consts::LN_2
        };
        self.acc += l;
        self.n += 1;
    }

    /// Current MI estimate in bits. May be slightly negative for a
    /// mismatched demapper — that is information-loss signal, not an
    /// error.
    ///
    /// Zero-observation contract: returns exactly `0.0` (never NaN)
    /// when no LLRs were pushed, so campaign artefacts and adaptation
    /// thresholds always see a finite number.
    pub fn mi(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            1.0 - self.acc / self.n as f64
        }
    }

    /// Merges another estimator (parallel reduction).
    pub(crate) fn merge(&mut self, other: &Self) {
        self.acc += other.acc;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi_perfect_channel_approaches_one() {
        let mut mi = BitwiseMiEstimator::new();
        for i in 0..1000 {
            let bit = (i % 2) as u8;
            let llr = if bit == 0 { 50.0 } else { -50.0 };
            mi.push(bit, llr);
        }
        assert!((mi.mi() - 1.0).abs() < 1e-6, "mi {}", mi.mi());
    }

    #[test]
    fn mi_empty_estimator_is_finite_zero() {
        let mi = BitwiseMiEstimator::new();
        assert_eq!(mi.mi(), 0.0);
        assert!(mi.mi().is_finite());
    }

    #[test]
    fn mi_useless_llrs_give_zero() {
        let mut mi = BitwiseMiEstimator::new();
        for i in 0..1000 {
            mi.push((i % 2) as u8, 0.0);
        }
        assert!(mi.mi().abs() < 1e-9);
    }

    #[test]
    fn mi_anticorrelated_llrs_negative() {
        let mut mi = BitwiseMiEstimator::new();
        for i in 0..1000 {
            let bit = (i % 2) as u8;
            // Confidently wrong.
            let llr = if bit == 0 { -10.0 } else { 10.0 };
            mi.push(bit, llr);
        }
        assert!(mi.mi() < -5.0);
    }

    #[test]
    fn mi_merge_matches_sequential() {
        let mut a = BitwiseMiEstimator::new();
        let mut b = BitwiseMiEstimator::new();
        let mut whole = BitwiseMiEstimator::new();
        for i in 0..100 {
            let bit = (i % 2) as u8;
            let llr = (i as f32 - 50.0) * 0.1;
            whole.push(bit, llr);
            if i < 40 {
                a.push(bit, llr);
            } else {
                b.push(bit, llr);
            }
        }
        a.merge(&b);
        assert!((a.mi() - whole.mi()).abs() < 1e-12);
    }
}
