//! Linear adaptive equalization for frequency-selective (ISI) channels.
//!
//! The repo's demappers are memoryless: they map one received sample to
//! LLRs. A [`channel::TappedDelayLine`](crate::channel::TappedDelayLine)
//! smears symbols across time, and no per-sample demapper — hybrid or
//! ANN — can undo that. This module restores the memoryless world the
//! demappers assume by placing a linear FIR equalizer ahead of them,
//! following the group's unsupervised-equalizer line of work
//! (arXiv 2304.06987, 2402.15288): the equalizer adapts **without
//! labels**, using the constant-modulus algorithm (CMA) to acquire and
//! decision-directed LMS (DD-LMS) to track once the eye is open.
//!
//! ## Adaptation paths
//!
//! - **Supervised** ([`AdaptiveEqualizer::train`]): given pilot
//!   symbols, per-symbol LMS against the known transmitted symbols,
//!   which also resolves absolute phase.
//! - **Unsupervised** ([`AdaptiveEqualizer::equalize`]): per-symbol
//!   stochastic-gradient updates. In CMA mode the error is
//!   `e = z·(|z|² − R₂)` with `R₂ = E|a|⁴ / E|a|²` over the
//!   constellation — blind, driven only by the modulus of the output.
//!   Once the smoothed decision-error MSE drops below
//!   [`EqualizerConfig::dd_enter_mse`] the loop hands off to DD-LMS
//!   (`e = z − â`, `â` the nearest constellation point), which is
//!   unbiased at low error rates and tracks slow drift. If the eye
//!   closes again (MSE above [`EqualizerConfig::dd_exit_mse`],
//!   hysteresis) it falls back to CMA.
//!
//! CMA is blind to absolute phase up to the rotational symmetry of the
//! constellation. The drift-suite ISI presets keep the channel's main
//! tap positive-real and the equalizer starts from a unit spike on tap
//! 0, so acquisition converges to the unrotated inverse; links with
//! pilots should call `train` and avoid the ambiguity entirely.
//!
//! ## Determinism contract
//!
//! Adaptation is a pure fold over the input sample stream: no RNG, no
//! time, no thread-dependent state. Two equalizers with equal configs
//! fed equal streams hold bit-identical taps.
//!
//! The equalizer is stateful, so it is deliberately **not** a
//! [`Demapper`](crate::demapper::Demapper) (whose API is `&self` and
//! shareable). It is a stage of one link's datapath: the online link
//! runtime (`core::runtime::OnlineLink::equalized`) owns one instance
//! per link, trains it on the pilot prefix, equalizes the payload in
//! place and then hands the block to a stateless demapper. A private
//! instance per link keeps artefacts byte-identical at any
//! `HYBRIDEM_THREADS`.

use crate::channel::DelayLine;
use crate::constellation::Constellation;
use hybridem_mathkit::complex::C32;

/// Step sizes and mode-handoff thresholds for [`AdaptiveEqualizer`].
#[derive(Clone, Copy, Debug)]
pub struct EqualizerConfig {
    /// FIR length of the equalizer (causal, tap 0 first).
    pub num_taps: usize,
    /// CMA step size (acquisition).
    pub mu_cma: f32,
    /// DD-LMS step size (tracking).
    pub mu_dd: f32,
    /// Hand off CMA → DD-LMS when the smoothed decision-error MSE
    /// drops below this (eye open).
    pub dd_enter_mse: f32,
    /// Fall back DD-LMS → CMA when the smoothed decision-error MSE
    /// rises above this (eye closed; must exceed `dd_enter_mse` for
    /// hysteresis).
    pub dd_exit_mse: f32,
    /// EMA weight of the decision-error MSE tracker.
    pub ema_alpha: f32,
}

impl Default for EqualizerConfig {
    fn default() -> Self {
        Self {
            num_taps: 8,
            mu_cma: 2e-3,
            mu_dd: 8e-3,
            dd_enter_mse: 0.12,
            dd_exit_mse: 0.2,
            ema_alpha: 0.02,
        }
    }
}

/// Which update rule the equalizer is currently running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EqualizerMode {
    /// Blind acquisition via the constant-modulus criterion.
    Cma,
    /// Decision-directed LMS tracking (eye open).
    DecisionDirected,
}

/// Linear FIR equalizer with CMA acquisition, DD-LMS tracking and
/// optional supervised LMS on pilots. See the module docs for the
/// algorithm and the determinism contract.
#[derive(Clone, Debug)]
pub struct AdaptiveEqualizer {
    cfg: EqualizerConfig,
    constellation: Constellation,
    /// CMA dispersion constant `R₂ = E|a|⁴ / E|a|²`.
    r2: f32,
    taps: Vec<C32>,
    /// The last `num_taps` inputs, newest last.
    line: DelayLine,
    mode: EqualizerMode,
    /// EMA of |z − â|², the handoff statistic.
    dd_mse: f32,
}

impl AdaptiveEqualizer {
    /// Fresh equalizer: unit spike on tap 0 (pass-through), CMA mode.
    ///
    /// # Panics
    /// Panics when `cfg.num_taps == 0` or the hysteresis thresholds are
    /// inverted.
    pub fn new(constellation: Constellation, cfg: EqualizerConfig) -> Self {
        assert!(cfg.num_taps >= 1, "equalizer needs at least one tap");
        assert!(
            cfg.dd_exit_mse > cfg.dd_enter_mse,
            "handoff thresholds must leave a hysteresis band"
        );
        let pts = constellation.points();
        let (mut p2, mut p4) = (0.0f64, 0.0f64);
        for p in pts {
            let n = f64::from(p.norm_sqr());
            p2 += n;
            p4 += n * n;
        }
        let r2 = (p4 / p2) as f32;
        let mut taps = vec![C32::zero(); cfg.num_taps];
        taps[0] = C32::one();
        let line = DelayLine::new(cfg.num_taps);
        Self {
            cfg,
            constellation,
            r2,
            taps,
            line,
            mode: EqualizerMode::Cma,
            dd_mse: 1.0,
        }
    }

    /// Current mode (CMA or decision-directed).
    pub fn mode(&self) -> EqualizerMode {
        self.mode
    }

    /// Smoothed decision-error MSE driving the CMA↔DD handoff.
    pub fn dd_mse(&self) -> f32 {
        self.dd_mse
    }

    /// Current tap vector (tap 0 first).
    pub fn taps(&self) -> &[C32] {
        &self.taps
    }

    /// Equalizes one sample **with** unsupervised adaptation: filters,
    /// updates the taps (CMA or DD-LMS per the current mode), updates
    /// the handoff statistic, and returns the equalized sample.
    pub(crate) fn equalize_symbol(&mut self, y: C32) -> C32 {
        let window = self.line.push(y);
        let z = filter_output(&self.taps, window);
        // Handoff statistic: decision error against the nearest point,
        // tracked in both modes so entry and exit share one signal.
        let nearest = self.constellation.point(self.constellation.nearest(z));
        let dd_err = z - nearest;
        let a = self.cfg.ema_alpha;
        self.dd_mse = (1.0 - a) * self.dd_mse + a * dd_err.norm_sqr();
        match self.mode {
            EqualizerMode::Cma => {
                let e = z.scale(z.norm_sqr() - self.r2);
                adapt(&mut self.taps, window, e, self.cfg.mu_cma);
                if self.dd_mse < self.cfg.dd_enter_mse {
                    self.mode = EqualizerMode::DecisionDirected;
                }
            }
            EqualizerMode::DecisionDirected => {
                adapt(&mut self.taps, window, dd_err, self.cfg.mu_dd);
                if self.dd_mse > self.cfg.dd_exit_mse {
                    self.mode = EqualizerMode::Cma;
                }
            }
        }
        z
    }

    /// Equalizes a block in place with unsupervised adaptation.
    pub fn equalize(&mut self, block: &mut [C32]) {
        for y in block {
            *y = self.equalize_symbol(*y);
        }
    }

    /// Supervised pilot update: equalizes `rx` in place while adapting
    /// against the known transmitted symbols `tx` (plain LMS with the
    /// DD step size). Keeps the delay line warm across the
    /// pilot/payload boundary and forces DD mode when the pilots show
    /// an open eye.
    ///
    /// # Panics
    /// Panics unless `rx.len() == tx.len()`.
    pub fn train(&mut self, rx: &mut [C32], tx: &[C32]) {
        assert_eq!(rx.len(), tx.len(), "pilot rx/tx length mismatch");
        for (y, &x) in rx.iter_mut().zip(tx) {
            let window = self.line.push(*y);
            let z = filter_output(&self.taps, window);
            let err = z - x;
            let a = self.cfg.ema_alpha;
            self.dd_mse = (1.0 - a) * self.dd_mse + a * err.norm_sqr();
            adapt(&mut self.taps, window, err, self.cfg.mu_dd);
            *y = z;
        }
        if self.dd_mse < self.cfg.dd_enter_mse {
            self.mode = EqualizerMode::DecisionDirected;
        }
    }
}

/// The FIR output `z[n] = Σ_k w_k · y[n−k]` over `window` (the last
/// `taps.len()` inputs, newest last), summed from +0 with tap 0 first.
#[inline]
fn filter_output(taps: &[C32], window: &[C32]) -> C32 {
    let mut z = C32::zero();
    for (&w, &y) in taps.iter().zip(window.iter().rev()) {
        z += w * y;
    }
    z
}

/// The stochastic-gradient update `w_k ← w_k − μ·e·ȳ[n−k]` over
/// `window` (newest last).
#[inline]
fn adapt(taps: &mut [C32], window: &[C32], err: C32, mu: f32) {
    for (w, &y) in taps.iter_mut().zip(window.iter().rev()) {
        *w -= (err * y.conj()).scale(mu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, TappedDelayLine};
    use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};

    fn qpsk() -> Constellation {
        Constellation::qam_gray(4)
    }

    /// Random QPSK stream through a two-ray channel; returns (tx, rx).
    fn two_ray_stream(n: usize, seed: u64, echo: f32, phase: f32) -> (Vec<C32>, Vec<C32>) {
        let c = qpsk();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let tx: Vec<C32> = (0..n)
            .map(|_| c.point((rng.next_u64() & 3) as usize))
            .collect();
        let mut rx = tx.clone();
        let mut ch = TappedDelayLine::two_ray(echo, phase, 1);
        ch.transmit(&mut rx, &mut rng);
        (tx, rx)
    }

    fn tail_mse(c: &Constellation, zs: &[C32], tail: usize) -> f32 {
        let tail = &zs[zs.len() - tail..];
        tail.iter()
            .map(|&z| (z - c.point(c.nearest(z))).norm_sqr())
            .sum::<f32>()
            / tail.len() as f32
    }

    #[test]
    fn cma_then_dd_converges_blind_on_two_ray() {
        let (_, rx) = two_ray_stream(4000, 7, 0.4, 0.3);
        let mut eq = AdaptiveEqualizer::new(qpsk(), EqualizerConfig::default());
        let mut zs = rx;
        eq.equalize(&mut zs);
        assert_eq!(
            eq.mode(),
            EqualizerMode::DecisionDirected,
            "never opened the eye (dd_mse {})",
            eq.dd_mse()
        );
        let mse = tail_mse(&qpsk(), &zs, 500);
        assert!(mse < 0.02, "blind equalizer left MSE {mse}");
    }

    #[test]
    fn unsupervised_adaptation_is_deterministic() {
        let (_, rx) = two_ray_stream(2000, 11, 0.35, -0.2);
        let run = || {
            let mut eq = AdaptiveEqualizer::new(qpsk(), EqualizerConfig::default());
            let mut zs = rx.clone();
            eq.equalize(&mut zs);
            (zs, eq.taps().to_vec())
        };
        let (za, ta) = run();
        let (zb, tb) = run();
        assert_eq!(za, zb, "equalized streams differ between identical runs");
        assert_eq!(ta, tb, "tap trajectories differ between identical runs");
    }

    #[test]
    fn dd_falls_back_to_cma_when_eye_closes() {
        let (_, rx) = two_ray_stream(4000, 7, 0.4, 0.0);
        let mut eq = AdaptiveEqualizer::new(qpsk(), EqualizerConfig::default());
        let mut zs = rx;
        eq.equalize(&mut zs);
        assert_eq!(eq.mode(), EqualizerMode::DecisionDirected);
        // A hostile channel flip (deep new echo the taps are wrong for)
        // must push the smoothed MSE over the exit threshold.
        let mut ch = TappedDelayLine::two_ray(0.95, 2.0, 3);
        let (tx, _) = two_ray_stream(1500, 13, 0.4, 0.0);
        let mut bad = tx;
        ch.transmit(&mut bad, &mut Xoshiro256pp::seed_from_u64(1));
        eq.equalize(&mut bad);
        assert_eq!(
            eq.mode(),
            EqualizerMode::Cma,
            "eye closed (dd_mse {}) but no CMA fallback",
            eq.dd_mse()
        );
    }
}
