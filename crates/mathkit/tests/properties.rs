//! Property-based tests of the numeric substrate.

use hybridem_mathkit::complex::C64;
use hybridem_mathkit::rng::{Rng64, SplitMix64, Xoshiro256pp};
use hybridem_mathkit::special::{log_sum_exp, max_log, qfunc, sigmoid};
use hybridem_mathkit::stats::{wilson_interval, ErrorCounter, Welford};
use hybridem_mathkit::vec2::Vec2;
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e3f64..1e3).prop_filter("nonzero-ish", |v| v.abs() > 1e-9)
}

proptest! {
    #[test]
    fn complex_field_axioms(ar in finite_f64(), ai in finite_f64(),
                            br in finite_f64(), bi in finite_f64()) {
        let a = C64::new(ar, ai);
        let b = C64::new(br, bi);
        // Commutativity.
        prop_assert!((a + b - (b + a)).abs() < 1e-9);
        prop_assert!((a * b - (b * a)).abs() < 1e-6);
        // Multiplicative inverse (b ≠ 0 by strategy).
        let recip = C64::one() / b;
        prop_assert!((b * recip - C64::one()).abs() < 1e-9);
        // |ab| = |a||b|.
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-6 * a.abs() * b.abs() + 1e-9);
    }

    #[test]
    fn complex_rotation_is_isometric(r in finite_f64(), i in finite_f64(),
                                     theta in -10.0f64..10.0) {
        let z = C64::new(r, i);
        let w = z.rotate(theta);
        prop_assert!((w.abs() - z.abs()).abs() < 1e-6 * z.abs().max(1.0));
        // Rotating back recovers the original.
        let back = w.rotate(-theta);
        prop_assert!((back - z).abs() < 1e-6 * z.abs().max(1.0));
    }

    #[test]
    fn vec2_cross_antisymmetric(ax in finite_f64(), ay in finite_f64(),
                                bx in finite_f64(), by in finite_f64()) {
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        prop_assert!((a.cross(b) + b.cross(a)).abs() < 1e-6 * (a.norm() * b.norm()).max(1.0));
        // Cauchy–Schwarz: |a·b| ≤ |a||b|.
        prop_assert!(a.dot(b).abs() <= a.norm() * b.norm() + 1e-6);
    }

    #[test]
    fn sigmoid_monotone_and_bounded(x in -700.0f64..700.0, dx in 0.001f64..10.0) {
        let a = sigmoid(x);
        let b = sigmoid(x + dx);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(b >= a);
    }

    #[test]
    fn qfunc_monotone_decreasing(x in -6.0f64..6.0, dx in 0.01f64..3.0) {
        prop_assert!(qfunc(x + dx) < qfunc(x));
        prop_assert!((0.0..=1.0).contains(&qfunc(x)));
    }

    #[test]
    fn log_sum_exp_bounds(xs in proptest::collection::vec(-50.0f64..50.0, 1..10)) {
        let lse = log_sum_exp(&xs);
        let ml = max_log(&xs);
        // max ≤ LSE ≤ max + ln n.
        prop_assert!(lse >= ml - 1e-9);
        prop_assert!(lse <= ml + (xs.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e3f64..1e3, 2..50)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.variance() - var).abs() < 1e-6 * var.max(1.0));
    }

    #[test]
    fn welford_merge_any_split(xs in proptest::collection::vec(-100.0f64..100.0, 2..40),
                               split in 0usize..40) {
        let split = split.min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-7);
    }

    #[test]
    fn wilson_interval_contains_rate(errors in 0u64..1000, extra in 0u64..100_000) {
        let trials = errors + extra;
        prop_assume!(trials > 0);
        let mut c = ErrorCounter::new();
        c.record(errors, trials);
        let (lo, hi) = c.wilson_interval(1.96);
        prop_assert!(lo <= c.rate() + 1e-12);
        prop_assert!(hi >= c.rate() - 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
    }

    #[test]
    fn error_counter_merge_commutative_and_associative(
        triples in proptest::collection::vec((0u64..1000, 0u64..100_000), 1..6),
    ) {
        // Counters built from (errors, extra-trials) pairs merged in
        // any grouping/order give identical totals and rates.
        let counters: Vec<ErrorCounter> = triples.iter().map(|&(e, extra)| {
            let mut c = ErrorCounter::new();
            c.record(e, e + extra);
            c
        }).collect();
        // Left fold.
        let mut fwd = ErrorCounter::new();
        for c in &counters {
            fwd.merge(c);
        }
        // Reverse fold.
        let mut rev = ErrorCounter::new();
        for c in counters.iter().rev() {
            rev.merge(c);
        }
        // Pairwise tree fold.
        let mut layer = counters.clone();
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|ch| {
                let mut a = ch[0];
                if let Some(b) = ch.get(1) {
                    a.merge(b);
                }
                a
            }).collect();
        }
        for other in [&rev, &layer[0]] {
            prop_assert_eq!(fwd.errors(), other.errors());
            prop_assert_eq!(fwd.trials(), other.trials());
            prop_assert_eq!(fwd.rate().to_bits(), other.rate().to_bits());
        }
    }

    #[test]
    fn wilson_width_shrinks_with_trials(
        errors in 0u64..500, extra in 0u64..10_000, scale in 2u64..50,
    ) {
        // Same observed rate, `scale`× the evidence ⇒ a strictly
        // narrower interval that still contains the rate.
        let trials = errors + extra;
        prop_assume!(trials > 0);
        let (lo1, hi1) = wilson_interval(errors, trials, 1.96);
        let (lo2, hi2) = wilson_interval(errors * scale, trials * scale, 1.96);
        prop_assert!(hi2 - lo2 < hi1 - lo1,
            "width must shrink: [{lo1}, {hi1}] → [{lo2}, {hi2}]");
        let p = errors as f64 / trials as f64;
        prop_assert!(lo2 <= p + 1e-12 && p <= hi2 + 1e-12);
    }

    #[test]
    fn wilson_degrades_gracefully_at_the_edges(trials in 0u64..100_000, z in 0.5f64..5.0) {
        // Zero errors: lo pinned at exactly 0 (the implementation pins
        // the edge, no float residue), hi a proper sub-1 bound once
        // any trial ran. Zero trials: the maximally uninformative
        // (0, 1). Never NaN, whatever the inputs.
        let (lo, hi) = wilson_interval(0, trials, z);
        prop_assert_eq!(lo, 0.0);
        prop_assert!(hi.is_finite());
        if trials == 0 {
            prop_assert_eq!(hi, 1.0);
        } else {
            prop_assert!(hi > 0.0 && hi < 1.0);
        }
        // All-errors mirror image: hi pinned at exactly 1.
        let (lo_all, hi_all) = wilson_interval(trials.max(1), trials.max(1), z);
        prop_assert_eq!(hi_all, 1.0);
        prop_assert!(lo_all > 0.0 && lo_all < 1.0);
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct(seed in any::<u64>(), i in 0u64..100, j in 0u64..100) {
        prop_assume!(i != j);
        let mut a1 = Xoshiro256pp::stream(seed, i);
        let mut a2 = Xoshiro256pp::stream(seed, i);
        let mut b = Xoshiro256pp::stream(seed, j);
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&xs, &ys);
        prop_assert_ne!(&xs, &zs);
    }

    #[test]
    fn splitmix_derive_is_deterministic(seed in any::<u64>(), idx in any::<u64>()) {
        prop_assert_eq!(SplitMix64::derive(seed, idx), SplitMix64::derive(seed, idx));
    }

    #[test]
    fn uniform_in_range(seed in any::<u64>(), lo in -1e3f64..0.0, width in 0.001f64..1e3) {
        let mut g = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..50 {
            let v = g.range_f64(lo, lo + width);
            prop_assert!(v >= lo && v < lo + width);
        }
    }
}
