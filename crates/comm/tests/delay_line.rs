//! The linear delay line behind `TappedDelayLine` and
//! `AdaptiveEqualizer` is bit-identical to the circular buffer it
//! replaced. The oracle below is that textbook form: a circular line
//! indexed with `% len` per tap, with each user's summation order (the
//! channel from `h₀·x`, the equalizer from +0, taps ascending) and the
//! equalizer's CMA, DD-LMS and pilot LMS rules. Every tap count from 1
//! to 9 runs streams of 0, 1, 7 and 300 samples split at a random cut,
//! with exact ±0 samples and taps, and outputs, taps, mode and `dd_mse`
//! are compared bit for bit.

use hybridem_comm::channel::{Channel, TappedDelayLine};
use hybridem_comm::constellation::Constellation;
use hybridem_comm::equalizer::{AdaptiveEqualizer, EqualizerConfig, EqualizerMode};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use proptest::prelude::*;

const TAP_COUNTS: std::ops::RangeInclusive<usize> = 1..=9;
const STREAM_LENS: [usize; 4] = [0, 1, 7, 300];

/// `TappedDelayLine` over a circular line: `line[pos]` is the slot the
/// next input overwrites.
struct CircularChannel {
    taps: Vec<C32>,
    line: Vec<C32>,
    pos: usize,
}

impl CircularChannel {
    fn new(taps: Vec<C32>) -> Self {
        let line = vec![C32::zero(); taps.len()];
        Self { taps, line, pos: 0 }
    }

    fn transmit(&mut self, block: &mut [C32]) {
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
            let mut acc = self.taps[0] * x;
            for (k, &h) in self.taps.iter().enumerate().skip(1) {
                let idx = (self.pos + len - k) % len;
                acc += h * self.line[idx];
            }
            self.line[self.pos] = x;
            self.pos = (self.pos + 1) % len;
            *y = acc;
        }
    }
}

/// `AdaptiveEqualizer` over a circular line: after `push`,
/// `line[pos−1−k mod L]` holds `y[n−k]`.
struct CircularEqualizer {
    cfg: EqualizerConfig,
    constellation: Constellation,
    r2: f32,
    taps: Vec<C32>,
    line: Vec<C32>,
    pos: usize,
    mode: EqualizerMode,
    dd_mse: f32,
}

impl CircularEqualizer {
    fn new(constellation: Constellation, cfg: EqualizerConfig) -> Self {
        let (mut p2, mut p4) = (0.0f64, 0.0f64);
        for p in constellation.points() {
            let n = f64::from(p.norm_sqr());
            p2 += n;
            p4 += n * n;
        }
        let mut taps = vec![C32::zero(); cfg.num_taps];
        taps[0] = C32::one();
        Self {
            cfg,
            constellation,
            r2: (p4 / p2) as f32,
            taps,
            line: vec![C32::zero(); cfg.num_taps],
            pos: 0,
            mode: EqualizerMode::Cma,
            dd_mse: 1.0,
        }
    }

    fn filter_output(&self) -> C32 {
        let len = self.taps.len();
        let mut z = C32::zero();
        for (k, &w) in self.taps.iter().enumerate() {
            let idx = (self.pos + len - 1 - k) % len;
            z += w * self.line[idx];
        }
        z
    }

    fn push(&mut self, y: C32) {
        self.line[self.pos] = y;
        self.pos = (self.pos + 1) % self.line.len();
    }

    fn adapt(&mut self, err: C32, mu: f32) {
        let len = self.taps.len();
        for k in 0..len {
            let idx = (self.pos + len - 1 - k) % len;
            let g = err * self.line[idx].conj();
            self.taps[k] -= g.scale(mu);
        }
    }

    fn equalize(&mut self, block: &mut [C32]) {
        for y in block {
            self.push(*y);
            let z = self.filter_output();
            let nearest = self.constellation.point(self.constellation.nearest(z));
            let dd_err = z - nearest;
            let a = self.cfg.ema_alpha;
            self.dd_mse = (1.0 - a) * self.dd_mse + a * dd_err.norm_sqr();
            match self.mode {
                EqualizerMode::Cma => {
                    let e = z.scale(z.norm_sqr() - self.r2);
                    self.adapt(e, self.cfg.mu_cma);
                    if self.dd_mse < self.cfg.dd_enter_mse {
                        self.mode = EqualizerMode::DecisionDirected;
                    }
                }
                EqualizerMode::DecisionDirected => {
                    self.adapt(dd_err, self.cfg.mu_dd);
                    if self.dd_mse > self.cfg.dd_exit_mse {
                        self.mode = EqualizerMode::Cma;
                    }
                }
            }
            *y = z;
        }
    }

    fn train(&mut self, rx: &mut [C32], tx: &[C32]) {
        for (y, &x) in rx.iter_mut().zip(tx) {
            self.push(*y);
            let z = self.filter_output();
            let err = z - x;
            let a = self.cfg.ema_alpha;
            self.dd_mse = (1.0 - a) * self.dd_mse + a * err.norm_sqr();
            self.adapt(err, self.cfg.mu_dd);
            *y = z;
        }
        if self.dd_mse < self.cfg.dd_enter_mse {
            self.mode = EqualizerMode::DecisionDirected;
        }
    }
}

/// Asserts equal bit patterns, naming the first sample that differs.
fn assert_same_bits(got: &[C32], want: &[C32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "lengths differ: {ctx}");
    let same =
        |a: &C32, b: &C32| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits();
    if let Some(i) = (0..got.len()).find(|&i| !same(&got[i], &want[i])) {
        panic!("{ctx}: element {i} is {:?}, want {:?}", got[i], want[i]);
    }
}

fn signed_zero(rng: &mut Xoshiro256pp) -> f32 {
    if rng.next_u64() & 1 == 0 {
        0.0
    } else {
        -0.0
    }
}

/// Gaussian, or exactly ±0 one time in `1/zero_rate`.
fn component(rng: &mut Xoshiro256pp, zero_rate: u64) -> f32 {
    if rng.next_u64().is_multiple_of(zero_rate) {
        signed_zero(rng)
    } else {
        rng.normal_f32()
    }
}

/// Random finite taps with ±0 components.
fn random_taps(rng: &mut Xoshiro256pp, n: usize) -> Vec<C32> {
    (0..n)
        .map(|_| C32::new(component(rng, 6), component(rng, 6)).scale(0.5))
        .collect()
}

/// Channel input: every other sample (on average) exactly zero with
/// random component signs, so runs of zeros reach past the main tap
/// and a −0 sum is common.
fn channel_input(rng: &mut Xoshiro256pp, n: usize) -> Vec<C32> {
    (0..n)
        .map(|_| {
            if rng.next_u64() & 1 == 0 {
                C32::new(signed_zero(rng), signed_zero(rng))
            } else {
                C32::new(component(rng, 8), component(rng, 8))
            }
        })
        .collect()
}

/// Equalizer input: `constellation` symbols through a random FIR with a
/// dominant main tap plus light noise, with exact ±0 samples mixed in.
/// Returns (received, transmitted points).
fn equalizer_input(
    rng: &mut Xoshiro256pp,
    constellation: &Constellation,
    n: usize,
) -> (Vec<C32>, Vec<C32>) {
    let tx: Vec<C32> = (0..n)
        .map(|_| {
            constellation.point((rng.next_u64() % constellation.points().len() as u64) as usize)
        })
        .collect();
    let echoes = (rng.next_u64() % 3) as usize;
    let mut taps = random_taps(rng, 1 + echoes);
    taps[0] = C32::one();
    for t in &mut taps[1..] {
        *t = t.scale(0.3);
    }
    let mut rx = tx.clone();
    CircularChannel::new(taps).transmit(&mut rx);
    for y in &mut rx {
        if rng.next_u64().is_multiple_of(8) {
            *y = C32::new(signed_zero(rng), signed_zero(rng));
        } else {
            *y += C32::new(rng.normal_f32(), rng.normal_f32()).scale(0.05);
        }
    }
    (rx, tx)
}

/// An equalizer config at `num_taps` whose handoff thresholds make
/// both modes and switches between them likely.
fn random_config(rng: &mut Xoshiro256pp, num_taps: usize) -> EqualizerConfig {
    let unit = |rng: &mut Xoshiro256pp| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
    let dd_enter_mse = 0.02 + 0.6 * unit(rng);
    EqualizerConfig {
        num_taps,
        dd_enter_mse,
        dd_exit_mse: dd_enter_mse + 0.01 + 0.3 * unit(rng),
        ..EqualizerConfig::default()
    }
}

fn assert_same_state(eq: &AdaptiveEqualizer, oracle: &CircularEqualizer, ctx: &str) {
    assert_same_bits(eq.taps(), &oracle.taps, &format!("taps, {ctx}"));
    assert_eq!(eq.mode(), oracle.mode, "mode: {ctx}");
    assert_eq!(
        eq.dd_mse().to_bits(),
        oracle.dd_mse.to_bits(),
        "dd_mse: {ctx}"
    );
}

proptest! {
    #[test]
    fn channel_matches_the_circular_delay_line(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut unused = Xoshiro256pp::seed_from_u64(0);
        for num_taps in TAP_COUNTS {
            for len in STREAM_LENS {
                let taps = random_taps(&mut rng, num_taps);
                let input = channel_input(&mut rng, len);
                let cut = (rng.next_u64() % (len as u64 + 1)) as usize;
                let ctx = format!("{num_taps} taps, {len} samples cut at {cut}");

                let mut want = input.clone();
                let mut oracle = CircularChannel::new(taps.clone());
                oracle.transmit(&mut want[..cut]);
                oracle.transmit(&mut want[cut..]);

                // The second part runs through a clone, which must
                // carry the delay line's state.
                let mut got = input;
                let mut ch = TappedDelayLine::new(taps);
                ch.transmit(&mut got[..cut], &mut unused);
                ch.box_clone().transmit(&mut got[cut..], &mut unused);
                assert_same_bits(&got, &want, &format!("outputs, {ctx}"));
            }
        }
    }

    #[test]
    fn equalizer_matches_the_circular_delay_line(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for num_taps in TAP_COUNTS {
            for len in STREAM_LENS {
                let constellation = if rng.next_u64() & 1 == 0 {
                    Constellation::qam_gray(4)
                } else {
                    Constellation::qam_gray(16)
                };
                let cfg = random_config(&mut rng, num_taps);
                let (rx, tx) = equalizer_input(&mut rng, &constellation, len);
                let cut = (rng.next_u64() % (len as u64 + 1)) as usize;
                let ctx = format!("{num_taps} taps, {len} samples cut at {cut}");

                // Pilot LMS on the first part, blind on the rest.
                let mut eq = AdaptiveEqualizer::new(constellation.clone(), cfg);
                let mut oracle = CircularEqualizer::new(constellation.clone(), cfg);
                let (mut got, mut want) = (rx.clone(), rx.clone());
                eq.train(&mut got[..cut], &tx[..cut]);
                oracle.train(&mut want[..cut], &tx[..cut]);
                assert_same_state(&eq, &oracle, &format!("after train, {ctx}"));
                eq.equalize(&mut got[cut..]);
                oracle.equalize(&mut want[cut..]);
                assert_same_state(&eq, &oracle, &format!("after equalize, {ctx}"));
                assert_same_bits(&got, &want, &format!("train/equalize outputs, {ctx}"));

                // Blind on both parts.
                let mut eq = AdaptiveEqualizer::new(constellation.clone(), cfg);
                let mut oracle = CircularEqualizer::new(constellation, cfg);
                let (mut got, mut want) = (rx.clone(), rx);
                for range in [0..cut, cut..len] {
                    eq.equalize(&mut got[range.clone()]);
                    oracle.equalize(&mut want[range]);
                    assert_same_state(&eq, &oracle, &format!("blind, {ctx}"));
                }
                assert_same_bits(&got, &want, &format!("blind outputs, {ctx}"));
            }
        }
    }
}
