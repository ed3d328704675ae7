//! Channel models.
//!
//! Channels are composable, stateful block transforms on complex
//! samples. The paper's evaluation uses exactly two: AWGN (the abstract
//! E2E-training channel) and AWGN plus a **fixed π/4 phase offset** (the
//! "real" channel that the demapper must adapt to). CFO, IQ imbalance
//! and block Rayleigh fading extend the adaptation studies.
//!
//! Ordering matters: deterministic impairments (rotation, CFO, IQ) are
//! applied to the transmitted symbol, noise is added last —
//! [`ChannelChain`] applies its stages in construction order.

use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::Xoshiro256pp;

/// A (possibly stateful) channel. Cloning yields an independent channel
/// with the same initial state, which is how the parallel link
/// simulator gives each Monte-Carlo task its own instance.
pub trait Channel: Send + Sync {
    /// Applies the channel to a block of symbols in place.
    fn transmit(&mut self, block: &mut [C32], rng: &mut Xoshiro256pp);

    /// Per-dimension AWGN σ contributed by this channel (0 for
    /// noise-free impairments). Receivers use it as channel-state
    /// information for LLR scaling.
    fn noise_sigma(&self) -> f32 {
        0.0
    }

    /// Clones into a boxed trait object (object-safe `Clone`).
    fn box_clone(&self) -> Box<dyn Channel>;

    /// Resets internal state (phase accumulators, fading draws).
    fn reset(&mut self) {}
}

impl Clone for Box<dyn Channel> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Noise pairs [`Awgn`] draws per [`Xoshiro256pp::fill_normal_pairs`]
/// call, staged on the stack (1 KiB).
const NOISE_CHUNK: usize = 64;

/// Additive white Gaussian noise with per-dimension standard deviation σ.
#[derive(Clone, Debug)]
pub struct Awgn {
    sigma: f32,
}

impl Awgn {
    /// AWGN with per-dimension σ.
    pub fn new(sigma: f32) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { sigma }
    }

    /// AWGN for a given Es/N0 in dB at unit symbol energy.
    pub fn from_es_n0_db(es_n0_db: f64) -> Self {
        Self::new(crate::snr::noise_sigma(es_n0_db, 1.0) as f32)
    }
}

impl Channel for Awgn {
    fn transmit(&mut self, block: &mut [C32], rng: &mut Xoshiro256pp) {
        if self.sigma == 0.0 {
            return;
        }
        let mut pairs = [[0.0; 2]; NOISE_CHUNK];
        for ys in block.chunks_mut(NOISE_CHUNK) {
            let pairs = &mut pairs[..ys.len()];
            rng.fill_normal_pairs(pairs);
            for (y, &[n_re, n_im]) in ys.iter_mut().zip(pairs.iter()) {
                y.re += self.sigma * n_re as f32;
                y.im += self.sigma * n_im as f32;
            }
        }
    }

    fn noise_sigma(&self) -> f32 {
        self.sigma
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }
}

/// Static phase rotation `y = x·e^{jθ}` — the paper's channel-change
/// case study (θ = π/4).
#[derive(Clone, Debug)]
pub struct PhaseOffset {
    rot: C32,
}

impl PhaseOffset {
    /// Rotation by `theta` radians.
    pub fn new(theta: f32) -> Self {
        Self {
            rot: C32::from_angle(theta),
        }
    }
}

impl Channel for PhaseOffset {
    fn transmit(&mut self, block: &mut [C32], _rng: &mut Xoshiro256pp) {
        for y in block {
            *y *= self.rot;
        }
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }
}

/// Carrier-frequency offset: phase advancing by `delta` radians per
/// symbol (a slowly rotating constellation — the drift scenario for the
/// adaptation controller).
#[derive(Clone, Debug)]
pub struct Cfo {
    delta: f32,
    phase: f32,
}

impl Cfo {
    /// CFO advancing `delta` radians per symbol.
    pub fn new(delta: f32) -> Self {
        Self { delta, phase: 0.0 }
    }

    /// Phase accumulated so far (radians, wrapped to ±π). The
    /// trajectory runtime folds this into a static [`PhaseOffset`]
    /// when a scripted segment changes the CFO rate, so the rotation
    /// stays continuous across the re-lowering.
    pub(crate) fn phase(&self) -> f32 {
        self.phase
    }
}

impl Channel for Cfo {
    fn transmit(&mut self, block: &mut [C32], _rng: &mut Xoshiro256pp) {
        for y in block {
            *y = y.rotate(self.phase);
            self.phase += self.delta;
            if self.phase > std::f32::consts::PI {
                self.phase -= 2.0 * std::f32::consts::PI;
            }
        }
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.phase = 0.0;
    }
}

/// Transmitter IQ imbalance: `y = α·x + β·conj(x)` with
/// `α = cos(φ/2) + j·ε·sin(φ/2)`, `β = ε·cos(φ/2) − j·sin(φ/2)`,
/// ε the amplitude mismatch and φ the phase mismatch.
#[derive(Clone, Debug)]
pub struct IqImbalance {
    alpha: C32,
    beta: C32,
}

impl IqImbalance {
    /// Imbalance with amplitude mismatch `epsilon` (e.g. 0.05) and
    /// phase mismatch `phi` radians (e.g. 0.05).
    pub fn new(epsilon: f32, phi: f32) -> Self {
        let (c, s) = ((phi / 2.0).cos(), (phi / 2.0).sin());
        Self {
            alpha: C32::new(c, epsilon * s),
            beta: C32::new(epsilon * c, -s),
        }
    }
}

impl Channel for IqImbalance {
    fn transmit(&mut self, block: &mut [C32], _rng: &mut Xoshiro256pp) {
        for y in block {
            *y = self.alpha * *y + self.beta * y.conj();
        }
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }
}

/// Block Rayleigh fading: a complex Gaussian coefficient held constant
/// for `block_len` symbols, then redrawn (unit average power).
#[derive(Clone, Debug)]
pub struct RayleighBlockFading {
    block_len: usize,
    remaining: usize,
    coeff: C32,
}

impl RayleighBlockFading {
    /// Fading with coherence length `block_len` symbols.
    pub fn new(block_len: usize) -> Self {
        assert!(block_len > 0);
        Self {
            block_len,
            remaining: 0,
            coeff: C32::one(),
        }
    }
}

impl Channel for RayleighBlockFading {
    fn transmit(&mut self, block: &mut [C32], rng: &mut Xoshiro256pp) {
        for y in block {
            if self.remaining == 0 {
                let (a, b) = rng.normal_pair_f64();
                // CN(0,1): each dimension has variance 1/2.
                self.coeff = C32::new(
                    (a * std::f64::consts::FRAC_1_SQRT_2) as f32,
                    (b * std::f64::consts::FRAC_1_SQRT_2) as f32,
                );
                self.remaining = self.block_len;
            }
            *y *= self.coeff;
            self.remaining -= 1;
        }
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.remaining = 0;
        self.coeff = C32::one();
    }
}

/// The last `len` samples of a stream, as one contiguous slice.
///
/// A doubled linear delay line: each input is written at `pos` and at
/// `pos + len`, so after the write the last `len` inputs are
/// `line[pos..pos + len]`, oldest first and newest last, and no tap
/// index wraps. [`TappedDelayLine`] and the adaptive equalizer
/// (`crate::equalizer`) share it; each pairs tap `k` with the `k`-th
/// newest sample and keeps its own summation order.
#[derive(Clone, Debug)]
pub(crate) struct DelayLine {
    line: Vec<C32>,
    /// Start of the window, the slot the next input overwrites.
    pos: usize,
}

impl DelayLine {
    /// A line of `len` zero samples.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            line: vec![C32::zero(); 2 * len],
            pos: 0,
        }
    }

    /// Shifts `x` in and returns the last `len` inputs, newest last.
    #[inline]
    pub(crate) fn push(&mut self, x: C32) -> &[C32] {
        let len = self.line.len() / 2;
        self.line[self.pos] = x;
        self.line[self.pos + len] = x;
        self.pos += 1;
        if self.pos == len {
            self.pos = 0;
        }
        &self.line[self.pos..self.pos + len]
    }

    /// Forgets every input.
    pub(crate) fn clear(&mut self) {
        self.line.fill(C32::zero());
        self.pos = 0;
    }
}

/// Frequency-selective (ISI) channel: a complex FIR tapped delay line
/// `y[n] = Σ_k h_k · x[n−k]` with per-symbol memory that persists
/// across blocks, frames and [`Channel::box_clone`] — the multipath
/// scenario family of the group's equalizer follow-on work
/// (arXiv 2304.06987, 2402.15288).
///
/// Presets are **unit-power normalised** (`Σ|h_k|² = 1`) so the
/// average symbol energy — and with it every Es/N0 ↔ σ conversion —
/// is preserved through the channel. Both presets keep the main tap
/// dominant (minimum phase), so a causal zero-delay FIR equalizer can
/// invert them (see `equalizer`).
#[derive(Clone, Debug)]
pub struct TappedDelayLine {
    taps: Vec<C32>,
    /// The last `taps.len()` inputs, the current one included.
    line: DelayLine,
}

impl TappedDelayLine {
    /// FIR channel with the given impulse response (`taps[0]` is the
    /// main tap). Taps are used as given — call
    /// `TappedDelayLine::normalized` or use a preset for unit power.
    ///
    /// # Panics
    /// Panics when `taps` is empty or carries a non-finite coefficient.
    pub fn new(taps: Vec<C32>) -> Self {
        assert!(!taps.is_empty(), "a delay line needs at least one tap");
        assert!(
            taps.iter().all(|t| t.is_finite()),
            "delay-line taps must be finite"
        );
        let line = DelayLine::new(taps.len());
        Self { taps, line }
    }

    /// `new(taps)` scaled to unit power (`Σ|h_k|² = 1`).
    ///
    /// # Panics
    /// Panics on empty, non-finite or all-zero taps.
    pub(crate) fn normalized(taps: Vec<C32>) -> Self {
        let power: f32 = taps.iter().map(|t| t.norm_sqr()).sum();
        assert!(power > 0.0, "cannot normalise all-zero taps");
        let scale = power.sqrt().recip();
        Self::new(taps.into_iter().map(|t| t.scale(scale)).collect())
    }

    /// Two-ray multipath preset: a unit main tap plus one echo of
    /// amplitude `echo_gain` rotated by `echo_phase` radians, `delay`
    /// symbols later — the canonical frequency-selective onset of the
    /// drift suite. Unit-power normalised.
    ///
    /// # Panics
    /// Panics unless `0 < |echo_gain| < 1` (the main ray must dominate
    /// — minimum phase) and `delay ≥ 1`.
    pub fn two_ray(echo_gain: f32, echo_phase: f32, delay: usize) -> Self {
        assert!(
            echo_gain.abs() > 0.0 && echo_gain.abs() < 1.0,
            "two-ray echo must satisfy 0 < |gain| < 1"
        );
        assert!(delay >= 1, "the echo needs at least one symbol of delay");
        let mut taps = vec![C32::zero(); delay + 1];
        taps[0] = C32::one();
        taps[delay] = C32::from_angle(echo_phase).scale(echo_gain);
        Self::normalized(taps)
    }

    /// Exponential-decay power-delay profile: `num_taps` real taps with
    /// `|h_k|² ∝ e^{−k/decay}`, unit-power normalised — the dense-ISI
    /// counterpart of the two-ray preset.
    ///
    /// # Panics
    /// Panics unless `num_taps ≥ 1` and `decay > 0`.
    pub fn exponential(num_taps: usize, decay: f32) -> Self {
        assert!(num_taps >= 1, "profile needs at least one tap");
        assert!(decay > 0.0, "decay constant must be positive");
        let taps = (0..num_taps)
            .map(|k| C32::new((-(k as f32) / (2.0 * decay)).exp(), 0.0))
            .collect();
        Self::normalized(taps)
    }

    /// The impulse response (`taps()[0]` is the main tap).
    pub(crate) fn taps(&self) -> &[C32] {
        &self.taps
    }
}

impl Channel for TappedDelayLine {
    fn transmit(&mut self, block: &mut [C32], _rng: &mut Xoshiro256pp) {
        let len = self.taps.len();
        if len == 1 {
            let h0 = self.taps[0];
            for y in block {
                *y = h0 * *y;
            }
            return;
        }
        for y in block {
            let x = *y;
            let window = self.line.push(x);
            // From h₀·x, then taps[k] (k ≥ 1) times x[n−k], the k-th
            // newest sample.
            let mut acc = self.taps[0] * x;
            for (&h, &past) in self.taps.iter().zip(window.iter().rev()).skip(1) {
                acc += h * past;
            }
            *y = acc;
        }
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.line.clear();
    }
}

/// Sequential composition of channels.
pub struct ChannelChain {
    stages: Vec<Box<dyn Channel>>,
}

impl ChannelChain {
    /// Chain applying `stages` in order.
    pub fn new(stages: Vec<Box<dyn Channel>>) -> Self {
        Self { stages }
    }

    /// The paper's evaluation channel: phase offset θ then AWGN at the
    /// given Es/N0.
    pub fn phase_then_awgn(theta: f32, es_n0_db: f64) -> Self {
        Self::new(vec![
            Box::new(PhaseOffset::new(theta)),
            Box::new(Awgn::from_es_n0_db(es_n0_db)),
        ])
    }
}

impl Clone for ChannelChain {
    fn clone(&self) -> Self {
        Self {
            stages: self.stages.clone(),
        }
    }
}

impl Channel for ChannelChain {
    fn transmit(&mut self, block: &mut [C32], rng: &mut Xoshiro256pp) {
        for s in &mut self.stages {
            s.transmit(block, rng);
        }
    }

    fn noise_sigma(&self) -> f32 {
        // Independent noise sources add in variance.
        self.stages
            .iter()
            .map(|s| s.noise_sigma() * s.noise_sigma())
            .sum::<f32>()
            .sqrt()
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        for s in &mut self.stages {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::complex::avg_power;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(1234)
    }

    #[test]
    fn awgn_statistics() {
        let mut ch = Awgn::new(0.5);
        let mut r = rng();
        let n = 100_000;
        let mut block = vec![C32::zero(); n];
        ch.transmit(&mut block, &mut r);
        let mean_re: f64 = block.iter().map(|c| c.re as f64).sum::<f64>() / n as f64;
        let var_re: f64 = block.iter().map(|c| (c.re as f64).powi(2)).sum::<f64>() / n as f64;
        let var_im: f64 = block.iter().map(|c| (c.im as f64).powi(2)).sum::<f64>() / n as f64;
        assert!(mean_re.abs() < 0.01);
        assert!((var_re - 0.25).abs() < 0.01, "var {var_re}");
        assert!((var_im - 0.25).abs() < 0.01);
    }

    #[test]
    fn awgn_zero_sigma_is_identity() {
        let mut ch = Awgn::new(0.0);
        let mut block = vec![C32::new(1.0, -2.0); 10];
        ch.transmit(&mut block, &mut rng());
        assert!(block.iter().all(|&c| c == C32::new(1.0, -2.0)));
    }

    #[test]
    fn phase_offset_rotates_exactly() {
        let mut ch = PhaseOffset::new(std::f32::consts::FRAC_PI_2);
        let mut block = vec![C32::new(1.0, 0.0)];
        ch.transmit(&mut block, &mut rng());
        assert!(block[0].re.abs() < 1e-6);
        assert!((block[0].im - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cfo_accumulates_phase() {
        let delta = 0.01f32;
        let mut ch = Cfo::new(delta);
        let mut block = vec![C32::new(1.0, 0.0); 100];
        ch.transmit(&mut block, &mut rng());
        // Symbol k is rotated by k·delta.
        for (k, y) in block.iter().enumerate() {
            let expected = k as f32 * delta;
            assert!((y.arg() - expected).abs() < 1e-4, "symbol {k}");
        }
        ch.reset();
        let mut one = vec![C32::new(1.0, 0.0)];
        ch.transmit(&mut one, &mut rng());
        assert!(one[0].arg().abs() < 1e-6, "reset clears phase");
    }

    #[test]
    fn iq_imbalance_zero_params_is_identity() {
        let mut ch = IqImbalance::new(0.0, 0.0);
        let mut block = vec![C32::new(0.3, 0.7)];
        ch.transmit(&mut block, &mut rng());
        assert!((block[0].re - 0.3).abs() < 1e-6);
        assert!((block[0].im - 0.7).abs() < 1e-6);
    }

    #[test]
    fn iq_imbalance_distorts_asymmetrically() {
        let mut ch = IqImbalance::new(0.1, 0.1);
        let mut a = vec![C32::new(1.0, 0.0)];
        let mut b = vec![C32::new(0.0, 1.0)];
        ch.transmit(&mut a, &mut rng());
        ch.transmit(&mut b, &mut rng());
        // Image leakage: |y| differs between the two axes.
        assert!((a[0].abs() - b[0].abs()).abs() > 1e-3);
    }

    #[test]
    fn rayleigh_unit_average_power_and_coherence() {
        let mut ch = RayleighBlockFading::new(50);
        let mut r = rng();
        let n = 100_000;
        let mut block = vec![C32::new(1.0, 0.0); n];
        ch.transmit(&mut block, &mut r);
        let p = avg_power(&block) as f64;
        assert!((p - 1.0).abs() < 0.05, "avg fading power {p}");
        // Within a coherence block the coefficient is constant.
        assert_eq!(block[0], block[49]);
        assert_ne!(block[0], block[50]);
    }

    #[test]
    fn chain_composes_and_reports_sigma() {
        let mut ch = ChannelChain::phase_then_awgn(std::f32::consts::FRAC_PI_4, 10.0);
        assert!((ch.noise_sigma() - crate::snr::noise_sigma(10.0, 1.0) as f32).abs() < 1e-6);
        let mut block = vec![C32::new(1.0, 0.0); 1000];
        ch.transmit(&mut block, &mut rng());
        // Mean direction should be ≈ π/4.
        let mean = hybridem_mathkit::complex::mean(&block);
        assert!((mean.arg() - std::f32::consts::FRAC_PI_4).abs() < 0.05);
    }

    #[test]
    fn boxed_clone_is_independent() {
        let mut a: Box<dyn Channel> = Box::new(Cfo::new(0.1));
        let b = a.clone();
        let mut block = vec![C32::new(1.0, 0.0); 10];
        a.transmit(&mut block, &mut rng());
        // Clone retains initial state.
        let mut block2 = vec![C32::new(1.0, 0.0)];
        let mut b = b;
        b.transmit(&mut block2, &mut rng());
        assert!(block2[0].arg().abs() < 1e-6);
    }

    #[test]
    fn delay_line_impulse_response_matches_taps() {
        let taps = vec![C32::new(0.8, 0.0), C32::new(0.0, 0.5), C32::new(-0.3, 0.1)];
        let mut ch = TappedDelayLine::new(taps.clone());
        let mut block = vec![C32::zero(); 6];
        block[0] = C32::one();
        ch.transmit(&mut block, &mut rng());
        for (k, &h) in taps.iter().enumerate() {
            assert!(block[k].dist_sqr(h) < 1e-12, "tap {k}");
        }
        assert!(block[3].norm_sqr() < 1e-12);
    }

    #[test]
    fn delay_line_memory_spans_blocks() {
        // Feeding an impulse split across two transmit() calls must give
        // the same output as one call: the delay line carries state.
        let mut a = TappedDelayLine::two_ray(0.5, 0.3, 2);
        let mut b = a.clone();
        let mut whole = vec![C32::one(), C32::zero(), C32::zero(), C32::zero()];
        a.transmit(&mut whole, &mut rng());
        let mut first = vec![C32::one(), C32::zero()];
        let mut second = vec![C32::zero(), C32::zero()];
        b.transmit(&mut first, &mut rng());
        b.transmit(&mut second, &mut rng());
        let split: Vec<C32> = first.into_iter().chain(second).collect();
        for (i, (w, s)) in whole.iter().zip(&split).enumerate() {
            assert_eq!(w, s, "symbol {i}");
        }
    }

    #[test]
    fn delay_line_clone_preserves_and_reset_clears_state() {
        let mut ch = TappedDelayLine::two_ray(0.4, 0.0, 1);
        let mut primed = vec![C32::one()];
        ch.transmit(&mut primed, &mut rng());
        // Clone mid-stream: both must emit the echo of the primed symbol.
        let mut cl = ch.box_clone();
        let mut next = vec![C32::zero()];
        cl.transmit(&mut next, &mut rng());
        assert!(next[0].norm_sqr() > 0.1, "clone lost delay-line state");
        // Reset forgets the primed symbol entirely.
        ch.reset();
        let mut after = vec![C32::zero()];
        ch.transmit(&mut after, &mut rng());
        assert!(after[0].norm_sqr() < 1e-12, "reset left residual state");
    }

    #[test]
    fn delay_line_presets_are_unit_power() {
        for ch in [
            TappedDelayLine::two_ray(0.4, 1.0, 3),
            TappedDelayLine::exponential(6, 2.0),
        ] {
            let p: f32 = ch.taps().iter().map(|t| t.norm_sqr()).sum();
            assert!((p - 1.0).abs() < 1e-5, "tap power {p}");
            // Main tap dominates every echo (minimum phase, causally invertible).
            let main = ch.taps()[0].norm_sqr();
            for t in &ch.taps()[1..] {
                assert!(main > t.norm_sqr());
            }
        }
    }
}
