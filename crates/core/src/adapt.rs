//! Channel-change detection and retrain triggering.
//!
//! Paper §II-C: "the performance of the system can be regularly
//! evaluated, either by periodically sending pilot symbols to trigger
//! retraining of the demapper if the bit error rate reaches a
//! threshold, or by using an outer error correction code … the number
//! of bit flips that are corrected by the ECC can guide as performance
//! metric."
//!
//! [`AdaptationController`] implements both monitors with hysteresis:
//! the *retrain* decision requires statistical confidence (the Wilson
//! lower bound of the observed error rate must exceed the threshold),
//! so a brief noise burst does not trigger a spurious retrain, while
//! the *resume* decision requires the upper bound to fall back below a
//! lower threshold.

use hybridem_mathkit::stats::ErrorCounter;

/// Trigger thresholds.
#[derive(Clone, Copy, Debug)]
pub struct AdaptThresholds {
    /// Retrain when the pilot-BER Wilson lower bound exceeds this.
    pub ber_retrain: f64,
    /// Consider the channel healthy when the upper bound falls below
    /// this (must be < `ber_retrain`; the gap is the hysteresis).
    pub ber_healthy: f64,
    /// Minimum observed pilot bits before any decision.
    pub min_observations: u64,
    /// Retrain when the ECC corrected-flip rate exceeds this.
    pub ecc_flip_rate_retrain: f64,
    /// Confidence multiplier (z-score) for the Wilson bounds.
    pub z: f64,
}

impl Default for AdaptThresholds {
    fn default() -> Self {
        Self {
            ber_retrain: 0.05,
            ber_healthy: 0.02,
            min_observations: 2_000,
            ecc_flip_rate_retrain: 0.08,
            z: 2.58, // 99 %
        }
    }
}

/// What the controller recommends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recommendation {
    /// Keep operating; not enough evidence of degradation.
    Continue,
    /// The channel has drifted: retrain the demapper.
    Retrain,
}

/// Monitor over pilot errors and ECC corrections, cumulative since the
/// last retrain: the counters only grow until
/// [`reset_after_retrain`](Self::reset_after_retrain) clears them, so
/// a long clean run delays the trigger on a later drift.
#[derive(Clone, Debug)]
pub struct AdaptationController {
    thresholds: AdaptThresholds,
    pilots: ErrorCounter,
    ecc_flips: ErrorCounter,
    retrains_triggered: u64,
}

impl AdaptationController {
    /// New controller.
    pub fn new(thresholds: AdaptThresholds) -> Self {
        assert!(
            thresholds.ber_healthy < thresholds.ber_retrain,
            "hysteresis gap must be positive"
        );
        Self {
            thresholds,
            pilots: ErrorCounter::new(),
            ecc_flips: ErrorCounter::new(),
            retrains_triggered: 0,
        }
    }

    /// Records a pilot comparison: `errors` wrong decisions out of
    /// `bits` known pilot bits.
    pub fn observe_pilot_errors(&mut self, errors: u64, bits: u64) {
        self.pilots.record(errors, bits);
    }

    /// Records a pilot comparison given as transmitted vs decided bits.
    pub fn observe_pilot_bits(&mut self, tx: &[u8], rx: &[u8]) {
        assert_eq!(tx.len(), rx.len());
        let errors = tx.iter().zip(rx).filter(|(a, b)| a != b).count() as u64;
        self.observe_pilot_errors(errors, tx.len() as u64);
    }

    /// Records an ECC decode outcome: corrected flips out of total
    /// code bits.
    pub fn observe_ecc(&mut self, corrected: u64, code_bits: u64) {
        self.ecc_flips.record(corrected, code_bits);
    }

    /// Pilot bits observed since the last reset.
    pub fn observations(&self) -> u64 {
        self.pilots.trials()
    }

    /// Number of retrains this controller has triggered.
    pub fn retrains_triggered(&self) -> u64 {
        self.retrains_triggered
    }

    /// Current recommendation.
    pub fn recommendation(&self) -> Recommendation {
        let th = &self.thresholds;
        // Pilot-BER evidence.
        if self.pilots.trials() >= th.min_observations {
            let (lo, _) = self.pilots.wilson_interval(th.z);
            if lo > th.ber_retrain {
                return Recommendation::Retrain;
            }
        }
        // ECC evidence (each corrected flip ≈ one channel error caught).
        if self.ecc_flips.trials() >= th.min_observations {
            let (lo, _) = self.ecc_flips.wilson_interval(th.z);
            if lo > th.ecc_flip_rate_retrain {
                return Recommendation::Retrain;
            }
        }
        Recommendation::Continue
    }

    /// True when the monitored channel is confidently healthy (used to
    /// leave the retraining state).
    pub fn is_healthy(&self) -> bool {
        if self.pilots.trials() < self.thresholds.min_observations {
            return false;
        }
        let (_, hi) = self.pilots.wilson_interval(self.thresholds.z);
        hi < self.thresholds.ber_healthy
    }

    /// Clears the monitors after a retrain completed.
    pub fn reset_after_retrain(&mut self) {
        self.pilots = ErrorCounter::new();
        self.ecc_flips = ErrorCounter::new();
        self.retrains_triggered += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdaptationController {
        AdaptationController::new(AdaptThresholds::default())
    }

    #[test]
    fn quiet_channel_continues() {
        let mut c = controller();
        c.observe_pilot_errors(0, 10_000);
        assert_eq!(c.recommendation(), Recommendation::Continue);
        assert!(c.is_healthy());
    }

    #[test]
    fn broken_channel_triggers_retrain() {
        let mut c = controller();
        // 30 % pilot BER — the π/4-offset disaster case.
        c.observe_pilot_errors(3_000, 10_000);
        assert_eq!(c.recommendation(), Recommendation::Retrain);
        assert!(!c.is_healthy());
    }

    #[test]
    fn insufficient_evidence_never_triggers() {
        let mut c = controller();
        // 100 % BER but only 100 bits — below min_observations.
        c.observe_pilot_errors(100, 100);
        assert_eq!(c.recommendation(), Recommendation::Continue);
    }

    #[test]
    fn hysteresis_band_is_respected() {
        let mut c = controller();
        // BER 3 %: above healthy (2 %) but below retrain (5 %) —
        // neither healthy nor retraining.
        c.observe_pilot_errors(3_000, 100_000);
        assert_eq!(c.recommendation(), Recommendation::Continue);
        assert!(!c.is_healthy());
    }

    #[test]
    fn ecc_flip_rate_triggers() {
        let mut c = controller();
        // 12 % corrected-flip rate over plenty of code bits.
        c.observe_ecc(1_200, 10_000);
        assert_eq!(c.recommendation(), Recommendation::Retrain);
    }

    #[test]
    fn reset_clears_and_counts() {
        let mut c = controller();
        c.observe_pilot_errors(10_000, 10_000);
        assert_eq!(c.recommendation(), Recommendation::Retrain);
        c.reset_after_retrain();
        assert_eq!(c.recommendation(), Recommendation::Continue);
        assert_eq!(c.observations(), 0);
        assert_eq!(c.retrains_triggered(), 1);
    }

    #[test]
    #[should_panic(expected = "hysteresis gap")]
    fn bad_thresholds_rejected() {
        let _ = AdaptationController::new(AdaptThresholds {
            ber_retrain: 0.01,
            ber_healthy: 0.02,
            ..AdaptThresholds::default()
        });
    }
}
