//! Streaming statistics and Monte-Carlo error counters.
//!
//! BER points in the paper's Fig. 2 / Table 1 are binomial estimates;
//! [`ErrorCounter`] tracks them together with a Wilson confidence
//! interval so experiments can report how trustworthy each point is and
//! tests can assert against closed-form theory without flakiness.

/// `errors / trials`, or exactly `0.0` (never NaN) when nothing was
/// observed — the workspace's zero-observation contract for rates.
pub fn error_rate(errors: u64, trials: u64) -> f64 {
    if trials == 0 {
        0.0
    } else {
        errors as f64 / trials as f64
    }
}

/// Wilson score interval for a binomial proportion: `errors` successes
/// in `trials` trials at `z` standard-normal quantiles (z = 1.96 ⇒
/// 95 %). Well-behaved even at zero observed errors, unlike the naive
/// normal interval.
///
/// Zero-observation contract: with `trials == 0` the maximally
/// uninformative interval `(0, 1)` is returned — never NaN — so
/// campaign artefacts stay JSON-clean whatever the trial budget.
///
/// This is the single Wilson implementation in the workspace;
/// [`ErrorCounter::wilson_interval`] and the campaign engine's
/// per-point confidence intervals both delegate here.
pub fn wilson_interval(errors: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = errors as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // At the edges `centre ∓ half` is analytically 0 (resp. 1) but the
    // sqrt path leaves ±1e-17-ish residue; pin the bounds exactly so
    // "rate inside its interval" holds without tolerances.
    let lo = if errors == 0 {
        0.0
    } else {
        (centre - half).max(0.0)
    };
    let hi = if errors == trials {
        1.0
    } else {
        (centre + half).min(1.0)
    };
    (lo, hi)
}

/// Welford's online mean/variance accumulator.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Merges another accumulator (parallel reduction), Chan et al.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += d * other.n as f64 / n as f64;
        self.n = n;
    }
}

/// Binomial error counter with Wilson-score confidence intervals —
/// the unit of account of every BER simulation in the workspace.
#[derive(Clone, Copy, Debug, Default)]
pub struct ErrorCounter {
    errors: u64,
    trials: u64,
}

impl ErrorCounter {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `errors` errors out of `trials` trials.
    pub fn record(&mut self, errors: u64, trials: u64) {
        self.errors += errors;
        self.trials += trials;
    }

    /// Records a single binary outcome.
    pub fn push(&mut self, error: bool) {
        self.record(u64::from(error), 1);
    }

    /// Total error count.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Total trial count.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Point estimate of the error rate.
    ///
    /// Zero-observation contract: returns exactly `0.0` (never NaN)
    /// when no trials ran, so downstream JSON artefacts and adaptation
    /// thresholds see a finite number. Use [`ErrorCounter::trials`] to
    /// distinguish "no errors observed" from "nothing measured".
    pub fn rate(&self) -> f64 {
        error_rate(self.errors, self.trials)
    }

    /// Wilson score interval at `z` standard normal quantiles
    /// (z = 1.96 ⇒ 95 %) — delegates to [`wilson_interval`].
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.errors, self.trials, z)
    }

    /// True if `rate` lies inside the Wilson interval at the given `z`.
    pub fn consistent_with(&self, rate: f64, z: f64) -> bool {
        let (lo, hi) = self.wilson_interval(z);
        rate >= lo && rate <= hi
    }

    /// Merges another counter (parallel reduction).
    pub fn merge(&mut self, other: &ErrorCounter) {
        self.errors += other.errors;
        self.trials += other.trials;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let empty = Welford::new();
        let mut b = a.clone();
        b.merge(&empty);
        assert_eq!(b.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn error_counter_rate_and_merge() {
        let mut a = ErrorCounter::new();
        a.record(3, 100);
        let mut b = ErrorCounter::new();
        b.record(7, 900);
        a.merge(&b);
        assert_eq!(a.errors(), 10);
        assert_eq!(a.trials(), 1000);
        assert!((a.rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let mut c = ErrorCounter::new();
        c.record(13, 1000);
        let (lo, hi) = c.wilson_interval(1.96);
        assert!(lo < c.rate() && c.rate() < hi);
        assert!(lo > 0.0 && hi < 1.0);
        assert!(c.consistent_with(0.013, 1.96));
        assert!(!c.consistent_with(0.5, 1.96));
    }

    #[test]
    fn wilson_interval_zero_errors_is_proper() {
        let mut c = ErrorCounter::new();
        c.record(0, 1000);
        let (lo, hi) = c.wilson_interval(1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01);
        // No trials at all: the maximally uninformative interval.
        assert_eq!(ErrorCounter::new().wilson_interval(1.96), (0.0, 1.0));
    }

    #[test]
    fn zero_trial_contract_is_finite() {
        // The documented zero-observation contract: rate 0, interval
        // (0, 1), nothing NaN.
        let c = ErrorCounter::new();
        assert_eq!(c.rate(), 0.0);
        assert!(c.rate().is_finite());
        assert_eq!(c.wilson_interval(1.96), (0.0, 1.0));
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn free_wilson_matches_counter_method() {
        let mut c = ErrorCounter::new();
        c.record(17, 4321);
        assert_eq!(c.wilson_interval(2.5), wilson_interval(17, 4321, 2.5));
    }
}
