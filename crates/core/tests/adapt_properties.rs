//! Property-based tests of the adaptation controller: the retrain
//! recommendation is monotone in observed pilot BER, a reset restores
//! a healthy state, and evidence accumulation is order-insensitive
//! (the monitors are pure counters — paper §II-C).

use hybridem_core::adapt::{AdaptThresholds, AdaptationController, Recommendation};
use proptest::prelude::*;

fn controller() -> AdaptationController {
    AdaptationController::new(AdaptThresholds::default())
}

proptest! {
    /// More pilot errors on the same trial count can only move the
    /// recommendation toward Retrain, never away from it.
    #[test]
    fn recommendation_is_monotone_in_pilot_ber(
        trials in 2_000u64..20_000,
        lo_errors in 0u64..2_000,
        extra in 0u64..2_000,
    ) {
        let lo = lo_errors.min(trials);
        let hi = (lo_errors + extra).min(trials);
        let mut a = controller();
        a.observe_pilot_errors(lo, trials);
        let mut b = controller();
        b.observe_pilot_errors(hi, trials);
        if a.recommendation() == Recommendation::Retrain {
            prop_assert_eq!(b.recommendation(), Recommendation::Retrain,
                "{} errors triggered but {} did not ({} trials)", lo, hi, trials);
        }
        // And the contrapositive direction for is_healthy.
        if b.is_healthy() {
            prop_assert!(a.is_healthy(),
                "{} errors healthy but {} not ({} trials)", hi, lo, trials);
        }
    }

    /// reset_after_retrain always restores the no-evidence state, no
    /// matter what was observed before: recommendation Continue, zero
    /// observations, retrain counter bumped.
    #[test]
    fn reset_restores_a_healthy_state(
        chunks in proptest::collection::vec((0u64..200, 1u64..500), 0..12),
        ecc in proptest::collection::vec((0u64..300, 1u64..3_000), 0..6),
    ) {
        let mut c = controller();
        for &(e, t) in &chunks {
            c.observe_pilot_errors(e.min(t), t);
        }
        for &(e, t) in &ecc {
            c.observe_ecc(e.min(t), t);
        }
        let before = c.retrains_triggered();
        c.reset_after_retrain();
        prop_assert_eq!(c.recommendation(), Recommendation::Continue);
        prop_assert_eq!(c.observations(), 0);
        prop_assert!(!c.is_healthy(), "no evidence is not *confidently* healthy");
        prop_assert_eq!(c.retrains_triggered(), before + 1);
    }

    /// The monitors are counters: feeding the same evidence chunks in
    /// reverse (or with pilot/ECC calls interleaved differently)
    /// yields the identical decision state.
    #[test]
    fn evidence_accumulation_is_order_insensitive(
        chunks in proptest::collection::vec((0u64..300, 1u64..800), 1..10),
        ecc in proptest::collection::vec((0u64..300, 1u64..3_000), 0..6),
    ) {
        let mut fwd = controller();
        for &(e, t) in &chunks {
            fwd.observe_pilot_errors(e.min(t), t);
        }
        for &(e, t) in &ecc {
            fwd.observe_ecc(e.min(t), t);
        }
        let mut rev = controller();
        // ECC first, then pilot chunks reversed: both streams permuted.
        for &(e, t) in ecc.iter().rev() {
            rev.observe_ecc(e.min(t), t);
        }
        for &(e, t) in chunks.iter().rev() {
            rev.observe_pilot_errors(e.min(t), t);
        }
        prop_assert_eq!(fwd.recommendation(), rev.recommendation());
        prop_assert_eq!(fwd.is_healthy(), rev.is_healthy());
        prop_assert_eq!(fwd.observations(), rev.observations());
    }

    /// Below the minimum observation count the controller never fires,
    /// whatever the error rate.
    #[test]
    fn no_decision_below_min_observations(
        trials in 1u64..2_000,
        errors in 0u64..2_000,
    ) {
        let mut c = controller();
        c.observe_pilot_errors(errors.min(trials), trials);
        prop_assert_eq!(c.recommendation(), Recommendation::Continue);
        prop_assert!(!c.is_healthy());
    }

    /// ECC evidence is monotone too: more corrected flips out of the
    /// same code-bit budget can only push toward Retrain.
    #[test]
    fn recommendation_is_monotone_in_ecc_flips(
        code_bits in 2_000u64..50_000,
        lo_flips in 0u64..5_000,
        extra in 0u64..5_000,
    ) {
        let lo = lo_flips.min(code_bits);
        let hi = (lo_flips + extra).min(code_bits);
        let mut a = controller();
        a.observe_ecc(lo, code_bits);
        let mut b = controller();
        b.observe_ecc(hi, code_bits);
        if a.recommendation() == Recommendation::Retrain {
            prop_assert_eq!(b.recommendation(), Recommendation::Retrain);
        }
    }
}
