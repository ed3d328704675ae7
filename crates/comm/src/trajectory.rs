//! Scripted time-varying channels: the drift-scenario DSL.
//!
//! The paper's adaptation story (§II-C) is about channels that *move*:
//! pilot monitoring detects the drift, retraining follows. Everything
//! else in this crate models a channel frozen in time; a
//! [`Trajectory`] scripts how the impairment parameters evolve over
//! **frame time** as a sequence of piecewise-linear [`Segment`]s, and
//! [`TrajectoryChannel`] replays the script as an ordinary
//! [`Channel`]: each frame's parameter set is *lowered* to the
//! existing static stage implementations ([`PhaseOffset`], [`Cfo`],
//! [`IqImbalance`], [`TappedDelayLine`], [`RayleighBlockFading`],
//! [`Awgn`]), so a constant trajectory is **bit-identical** to today's
//! static channels (the golden reduction tests pin this).
//!
//! Determinism contract (DESIGN.md §10): the state at frame `f` is a
//! pure function of `(trajectory, f)`; the received stream is a pure
//! function of `(trajectory, frame_symbols, rng seed, block
//! partitioning at frame boundaries)`. Identity-valued stages are
//! omitted from the lowering — they would otherwise perturb both the
//! RNG stream and float bit patterns — and stateful stages (CFO phase,
//! fading draws, delay-line memory) are carried across re-lowerings
//! instead of rebuilt: a CFO rate change folds the accumulated phase
//! into the static rotation term, the fading process survives any
//! re-lowering that does not change its coherence length, and the
//! tapped delay line keeps its symbol memory unless the taps change.

use crate::channel::{
    Awgn, Cfo, Channel, ChannelChain, IqImbalance, PhaseOffset, RayleighBlockFading,
    TappedDelayLine,
};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::Xoshiro256pp;

/// Maximum FIR length a [`ChannelState`] can carry. Bounded so the
/// state stays `Copy` (segment interpolation and artefact plumbing
/// pass it by value everywhere).
pub(crate) const MAX_TAPS: usize = 8;

/// A bounded, by-value FIR impulse response for the frequency-selective
/// path of a [`ChannelState`]. The empty value ([`Taps::none`]) is the
/// identity: it lowers to no stage at all, like every other identity
/// parameter. Like `fading_block`, taps are **discrete** — a ramp
/// segment holds its start taps rather than interpolating coefficients
/// (a "half-way" channel between two echo profiles is not physically
/// meaningful frame-by-frame, and interpolating would force a stage
/// rebuild — and a delay-line restart — every frame of the ramp).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Taps {
    coef: [C32; MAX_TAPS],
    len: u8,
}

impl Taps {
    /// The identity (no ISI): lowers to no stage.
    pub const fn none() -> Self {
        Self {
            coef: [C32 { re: 0.0, im: 0.0 }; MAX_TAPS],
            len: 0,
        }
    }

    /// Taps from a slice (tap 0 first, as produced by the
    /// [`TappedDelayLine`] presets).
    ///
    /// # Panics
    /// Panics when `taps` has more than [`MAX_TAPS`] entries or a
    /// non-finite coefficient.
    pub(crate) fn from_slice(taps: &[C32]) -> Self {
        assert!(
            taps.len() <= MAX_TAPS,
            "at most {MAX_TAPS} channel taps, got {}",
            taps.len()
        );
        assert!(taps.iter().all(|t| t.is_finite()), "taps must be finite");
        let mut coef = [C32::zero(); MAX_TAPS];
        coef[..taps.len()].copy_from_slice(taps);
        Self {
            coef,
            len: taps.len() as u8,
        }
    }

    /// The unit-power two-ray preset of
    /// [`TappedDelayLine::two_ray`], by value.
    pub fn two_ray(echo_gain: f32, echo_phase: f32, delay: usize) -> Self {
        Self::from_slice(TappedDelayLine::two_ray(echo_gain, echo_phase, delay).taps())
    }

    /// The unit-power exponential-decay preset of
    /// [`TappedDelayLine::exponential`], by value.
    pub fn exponential(num_taps: usize, decay: f32) -> Self {
        Self::from_slice(TappedDelayLine::exponential(num_taps, decay).taps())
    }

    /// True for the identity value (no stage lowered).
    pub(crate) fn is_identity(&self) -> bool {
        self.len == 0
    }

    /// The coefficients, tap 0 first.
    pub fn as_slice(&self) -> &[C32] {
        &self.coef[..self.len as usize]
    }

    fn stage(&self) -> Option<TappedDelayLine> {
        (!self.is_identity()).then(|| TappedDelayLine::new(self.as_slice().to_vec()))
    }
}

/// One frame's channel parameters. Identity values (`0.0` angles and
/// mismatches, `fading_block == 0`, `taps == Taps::none()`,
/// `interference_sigma == 0.0`, `es_n0_db == f64::INFINITY`) lower to
/// *no stage at all*, which is what makes constant trajectories reduce
/// bit-exactly to the static channels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelState {
    /// AWGN level as Es/N0 in dB at unit symbol energy
    /// (`f64::INFINITY` ⇒ noiseless).
    pub es_n0_db: f64,
    /// Static phase rotation in radians (the paper's π/4 case study).
    pub phase_rad: f32,
    /// Carrier-frequency offset in radians per symbol.
    pub cfo_rad_per_sym: f32,
    /// IQ amplitude mismatch ε.
    pub iq_epsilon: f32,
    /// IQ phase mismatch φ in radians.
    pub iq_phi: f32,
    /// Block Rayleigh fading coherence length in symbols (0 ⇒ off).
    /// Discrete: a ramp segment holds its start value.
    pub(crate) fading_block: usize,
    /// Frequency-selective impulse response ([`Taps::none`] ⇒ no ISI).
    /// Discrete like `fading_block`: a ramp segment holds its start
    /// taps, and the delay-line memory survives re-lowerings that do
    /// not change the taps (the way CFO phase survives rate-unrelated
    /// changes).
    pub taps: Taps,
    /// Per-dimension σ of burst interference, added *after* the
    /// thermal AWGN and invisible to [`Channel::noise_sigma`] — the
    /// receiver is not told about the burst.
    pub interference_sigma: f32,
}

impl ChannelState {
    /// AWGN-only state at the given Es/N0.
    pub fn clean(es_n0_db: f64) -> Self {
        Self {
            es_n0_db,
            phase_rad: 0.0,
            cfo_rad_per_sym: 0.0,
            iq_epsilon: 0.0,
            iq_phi: 0.0,
            fading_block: 0,
            taps: Taps::none(),
            interference_sigma: 0.0,
        }
    }

    /// Copy with a static phase offset.
    pub fn with_phase(mut self, theta: f32) -> Self {
        self.phase_rad = theta;
        self
    }

    /// Copy with a CFO rate.
    pub fn with_cfo(mut self, rad_per_sym: f32) -> Self {
        self.cfo_rad_per_sym = rad_per_sym;
        self
    }

    /// Copy with IQ imbalance parameters.
    pub fn with_iq(mut self, epsilon: f32, phi: f32) -> Self {
        self.iq_epsilon = epsilon;
        self.iq_phi = phi;
        self
    }

    /// Copy with block Rayleigh fading of the given coherence length.
    pub fn with_fading(mut self, block: usize) -> Self {
        self.fading_block = block;
        self
    }

    /// Copy with a frequency-selective impulse response.
    pub fn with_taps(mut self, taps: Taps) -> Self {
        self.taps = taps;
        self
    }

    /// Copy with burst interference of the given per-dimension σ.
    pub fn with_interference(mut self, sigma: f32) -> Self {
        self.interference_sigma = sigma;
        self
    }
}

/// One piecewise segment: `frames` frames interpolating linearly from
/// `start` toward `end`. Frame offset `k` within the segment gets the
/// parameters at `t = k / frames` — `end` itself is attained at the
/// segment's closing boundary, i.e. by the first frame of whatever
/// follows (a hold segment has `start == end`, so the distinction
/// vanishes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Duration in frames (> 0).
    pub(crate) frames: u64,
    /// Parameters at the segment's first frame.
    pub(crate) start: ChannelState,
    /// Parameters approached over the segment.
    pub(crate) end: ChannelState,
}

// Segment interpolation. Equal endpoints return `a` verbatim (no float
// round-trip), so hold segments are exact. A ramp with a **non-finite**
// endpoint cannot interpolate — `INF + (b − INF)·t` is NaN, which once
// leaked out of here as a NaN noise σ mid-ramp — so it degenerates to a
// hold: the segment keeps its start value for every interior frame
// (t < 1) and the end value is attained, as for every segment, at the
// closing boundary by the first frame of whatever follows.
fn lerp64(a: f64, b: f64, t: f64) -> f64 {
    if a == b || !a.is_finite() || !b.is_finite() {
        a
    } else {
        a + (b - a) * t
    }
}

fn lerp32(a: f32, b: f32, t: f64) -> f32 {
    if a == b || !a.is_finite() || !b.is_finite() {
        a
    } else {
        a + (b - a) * t as f32
    }
}

impl Segment {
    fn state_at(&self, offset: u64) -> ChannelState {
        if self.start == self.end {
            return self.start;
        }
        let t = offset as f64 / self.frames as f64;
        ChannelState {
            es_n0_db: lerp64(self.start.es_n0_db, self.end.es_n0_db, t),
            phase_rad: lerp32(self.start.phase_rad, self.end.phase_rad, t),
            cfo_rad_per_sym: lerp32(self.start.cfo_rad_per_sym, self.end.cfo_rad_per_sym, t),
            iq_epsilon: lerp32(self.start.iq_epsilon, self.end.iq_epsilon, t),
            iq_phi: lerp32(self.start.iq_phi, self.end.iq_phi, t),
            fading_block: self.start.fading_block,
            taps: self.start.taps,
            interference_sigma: lerp32(
                self.start.interference_sigma,
                self.end.interference_sigma,
                t,
            ),
        }
    }
}

/// A deterministic, seed-free scenario script over frame time.
///
/// Build fluently: [`Trajectory::new`] then chained
/// [`Trajectory::hold`]/[`Trajectory::ramp`] calls. Past its last
/// scripted frame a trajectory extends indefinitely with its final
/// state, so a runtime may stream longer than the script.
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    /// Scenario label used in artefacts.
    pub name: String,
    /// The script, in playback order.
    pub segments: Vec<Segment>,
}

impl Trajectory {
    /// Empty script with a label; add segments with
    /// [`Trajectory::hold`] / [`Trajectory::ramp`].
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            segments: Vec::new(),
        }
    }

    /// A single-segment script holding `state` for `frames` frames —
    /// the constant trajectory of the golden reduction tests.
    pub fn constant(name: impl Into<String>, state: ChannelState, frames: u64) -> Self {
        Self::new(name).hold(frames, state)
    }

    /// Appends a constant segment.
    ///
    /// # Panics
    /// Panics if `frames == 0` or `state.es_n0_db` is NaN or −∞.
    pub fn hold(mut self, frames: u64, state: ChannelState) -> Self {
        assert!(frames > 0, "segment must last at least one frame");
        check_es_n0(state.es_n0_db);
        self.segments.push(Segment {
            frames,
            start: state,
            end: state,
        });
        self
    }

    /// Appends a linear ramp from the previous segment's end state to
    /// `to`.
    ///
    /// # Panics
    /// Panics if `frames == 0`, `to.es_n0_db` is NaN or −∞, or the
    /// trajectory has no segment yet (a ramp needs a starting state).
    pub fn ramp(mut self, frames: u64, to: ChannelState) -> Self {
        assert!(frames > 0, "segment must last at least one frame");
        check_es_n0(to.es_n0_db);
        let from = self
            .segments
            .last()
            .expect("ramp needs a preceding segment to start from")
            .end;
        self.segments.push(Segment {
            frames,
            start: from,
            end: to,
        });
        self
    }

    /// Total scripted frames.
    pub fn total_frames(&self) -> u64 {
        self.segments.iter().map(|s| s.frames).sum()
    }

    /// The parameter state of frame `frame` — a pure function of
    /// `(self, frame)`. Frames past the script hold the final state.
    ///
    /// # Panics
    /// Panics if the trajectory has no segments.
    pub fn state_at(&self, frame: u64) -> ChannelState {
        assert!(!self.segments.is_empty(), "trajectory has no segments");
        let mut start = 0u64;
        for seg in &self.segments {
            if frame < start + seg.frames {
                return seg.state_at(frame - start);
            }
            start += seg.frames;
        }
        self.segments.last().unwrap().end
    }
}

/// The lowered stage set of one parameter state. Stages apply in the
/// workspace's canonical order — deterministic impairments first,
/// noise last, interference after the noise it hides in — and
/// identity-valued stages are omitted entirely (see module docs).
#[derive(Clone)]
struct Stages {
    phase: Option<PhaseOffset>,
    cfo: Option<Cfo>,
    iq: Option<IqImbalance>,
    tdl: Option<TappedDelayLine>,
    fading: Option<RayleighBlockFading>,
    awgn: Option<Awgn>,
    interference: Option<Awgn>,
}

impl Stages {
    fn lower(state: &ChannelState, carry_phase: f32) -> Self {
        Self {
            phase: phase_stage(state.phase_rad + carry_phase),
            cfo: (state.cfo_rad_per_sym != 0.0).then(|| Cfo::new(state.cfo_rad_per_sym)),
            iq: (state.iq_epsilon != 0.0 || state.iq_phi != 0.0)
                .then(|| IqImbalance::new(state.iq_epsilon, state.iq_phi)),
            tdl: state.taps.stage(),
            fading: (state.fading_block > 0).then(|| RayleighBlockFading::new(state.fading_block)),
            awgn: awgn_stage(state.es_n0_db),
            interference: (state.interference_sigma > 0.0)
                .then(|| Awgn::new(state.interference_sigma)),
        }
    }

    fn apply(&mut self, block: &mut [C32], rng: &mut Xoshiro256pp) {
        if let Some(s) = &mut self.phase {
            s.transmit(block, rng);
        }
        if let Some(s) = &mut self.cfo {
            s.transmit(block, rng);
        }
        if let Some(s) = &mut self.iq {
            s.transmit(block, rng);
        }
        if let Some(s) = &mut self.tdl {
            s.transmit(block, rng);
        }
        if let Some(s) = &mut self.fading {
            s.transmit(block, rng);
        }
        if let Some(s) = &mut self.awgn {
            s.transmit(block, rng);
        }
        if let Some(s) = &mut self.interference {
            s.transmit(block, rng);
        }
    }
}

fn phase_stage(theta: f32) -> Option<PhaseOffset> {
    (theta != 0.0).then(|| PhaseOffset::new(theta))
}

fn awgn_stage(es_n0_db: f64) -> Option<Awgn> {
    (es_n0_db != f64::INFINITY).then(|| Awgn::from_es_n0_db(es_n0_db))
}

/// A segment's Es/N0 is finite or `f64::INFINITY`, the one noiseless
/// value (the only one [`awgn_stage`] lowers to no AWGN stage).
fn check_es_n0(es_n0_db: f64) {
    assert!(
        es_n0_db.is_finite() || es_n0_db == f64::INFINITY,
        "segment Es/N0 must be finite or +inf (noiseless), got {es_n0_db}"
    );
}

/// A [`Trajectory`] played back as a stateful [`Channel`].
///
/// The playhead advances one frame per `frame_symbols` transmitted
/// symbols, independent of how the caller partitions blocks (a block
/// spanning a frame boundary is split internally). When the frame's
/// state differs from the previous frame's the stage set is re-lowered
/// incrementally:
///
/// - stateless stages (rotation, IQ, AWGN) are rebuilt from the new
///   parameters;
/// - a CFO stage survives unless its *rate* changed, in which case its
///   accumulated phase is folded into the static rotation term before
///   the new-rate stage starts from zero;
/// - a fading stage survives unless its coherence length changed;
/// - a tapped-delay-line stage survives — with its per-symbol memory —
///   unless the taps themselves changed.
///
/// A constant trajectory therefore lowers exactly once and is
/// bit-identical to the equivalent static channel (golden reduction
/// tests).
#[derive(Clone)]
pub struct TrajectoryChannel {
    traj: Trajectory,
    frame_symbols: usize,
    frame: u64,
    offset: usize,
    state: ChannelState,
    carry_phase: f32,
    stages: Stages,
}

impl TrajectoryChannel {
    /// Playback of `traj` at `frame_symbols` symbols per frame.
    ///
    /// # Panics
    /// Panics if `frame_symbols == 0` or the trajectory is empty.
    pub fn new(traj: Trajectory, frame_symbols: usize) -> Self {
        assert!(frame_symbols > 0, "frame length must be positive");
        let state = traj.state_at(0);
        Self {
            traj,
            frame_symbols,
            frame: 0,
            offset: 0,
            state,
            carry_phase: 0.0,
            stages: Stages::lower(&state, 0.0),
        }
    }

    /// Symbols per frame.
    pub fn frame_symbols(&self) -> usize {
        self.frame_symbols
    }

    /// Total phase the playhead has accumulated beyond the scripted
    /// static offset: folded-in carry from past CFO-rate changes plus
    /// the live CFO stage's running phase.
    pub(crate) fn accumulated_phase(&self) -> f32 {
        self.carry_phase + self.stages.cfo.as_ref().map_or(0.0, Cfo::phase)
    }

    /// Freezes the *current* conditions into a static [`ChannelChain`]
    /// — what the runtime retrains against. The CFO **rate** is folded
    /// into its accumulated rotation (retraining sees a snapshot, not
    /// a moving target); fading and interference are included fresh.
    pub fn snapshot_static(&self) -> ChannelChain {
        let mut stages: Vec<Box<dyn Channel>> = Vec::new();
        let theta = self.state.phase_rad + self.accumulated_phase();
        if let Some(p) = phase_stage(theta) {
            stages.push(Box::new(p));
        }
        if self.state.iq_epsilon != 0.0 || self.state.iq_phi != 0.0 {
            stages.push(Box::new(IqImbalance::new(
                self.state.iq_epsilon,
                self.state.iq_phi,
            )));
        }
        if let Some(tdl) = self.state.taps.stage() {
            stages.push(Box::new(tdl));
        }
        if self.state.fading_block > 0 {
            stages.push(Box::new(RayleighBlockFading::new(self.state.fading_block)));
        }
        if let Some(a) = awgn_stage(self.state.es_n0_db) {
            stages.push(Box::new(a));
        }
        if self.state.interference_sigma > 0.0 {
            stages.push(Box::new(Awgn::new(self.state.interference_sigma)));
        }
        ChannelChain::new(stages)
    }

    fn advance_frame(&mut self) {
        self.frame += 1;
        let new = self.traj.state_at(self.frame);
        if new == self.state {
            return;
        }
        // CFO rate change: bank the accumulated phase so the rotation
        // is continuous across the re-lowering.
        if new.cfo_rad_per_sym != self.state.cfo_rad_per_sym {
            if let Some(cfo) = &self.stages.cfo {
                self.carry_phase += cfo.phase();
            }
            self.stages.cfo = (new.cfo_rad_per_sym != 0.0).then(|| Cfo::new(new.cfo_rad_per_sym));
        }
        self.stages.phase = phase_stage(new.phase_rad + self.carry_phase);
        self.stages.iq = (new.iq_epsilon != 0.0 || new.iq_phi != 0.0)
            .then(|| IqImbalance::new(new.iq_epsilon, new.iq_phi));
        if new.taps != self.state.taps {
            self.stages.tdl = new.taps.stage();
        }
        if new.fading_block != self.state.fading_block {
            self.stages.fading =
                (new.fading_block > 0).then(|| RayleighBlockFading::new(new.fading_block));
        }
        self.stages.awgn = awgn_stage(new.es_n0_db);
        self.stages.interference =
            (new.interference_sigma > 0.0).then(|| Awgn::new(new.interference_sigma));
        self.state = new;
    }
}

impl Channel for TrajectoryChannel {
    fn transmit(&mut self, block: &mut [C32], rng: &mut Xoshiro256pp) {
        let mut done = 0usize;
        while done < block.len() {
            let n = (self.frame_symbols - self.offset).min(block.len() - done);
            self.stages.apply(&mut block[done..done + n], rng);
            done += n;
            self.offset += n;
            if self.offset == self.frame_symbols {
                self.offset = 0;
                self.advance_frame();
            }
        }
    }

    fn noise_sigma(&self) -> f32 {
        // Thermal noise only: burst interference is deliberately not
        // part of the receiver's channel-state information.
        self.stages.awgn.as_ref().map_or(0.0, Channel::noise_sigma)
    }

    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.frame = 0;
        self.offset = 0;
        self.carry_phase = 0.0;
        self.state = self.traj.state_at(0);
        self.stages = Stages::lower(&self.state, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(7)
    }

    #[test]
    fn state_at_interpolates_and_holds_past_end() {
        let t = Trajectory::new("ramp")
            .hold(10, ChannelState::clean(14.0))
            .ramp(10, ChannelState::clean(4.0))
            .hold(5, ChannelState::clean(4.0));
        assert_eq!(t.total_frames(), 25);
        assert_eq!(t.state_at(0).es_n0_db, 14.0);
        assert_eq!(t.state_at(9).es_n0_db, 14.0);
        // Ramp frame offsets k = 0..10 map to t = k/10.
        assert_eq!(t.state_at(10).es_n0_db, 14.0);
        assert!((t.state_at(15).es_n0_db - 9.0).abs() < 1e-12);
        assert_eq!(t.state_at(20).es_n0_db, 4.0);
        // Past the script: final state forever.
        assert_eq!(t.state_at(1_000_000).es_n0_db, 4.0);
    }

    #[test]
    fn infinite_snr_ramps_never_nan() {
        let t = Trajectory::new("phase-in")
            .hold(2, ChannelState::clean(f64::INFINITY))
            .ramp(8, ChannelState::clean(f64::INFINITY).with_phase(0.8));
        let mid = t.state_at(6);
        assert!(mid.es_n0_db.is_infinite());
        assert!(mid.phase_rad > 0.0 && mid.phase_rad < 0.8);
    }

    #[test]
    fn constant_trajectory_lowers_once_and_matches_static_awgn() {
        let state = ChannelState::clean(10.0);
        let mut tc = TrajectoryChannel::new(Trajectory::constant("awgn", state, 4), 32);
        let mut stat = Awgn::from_es_n0_db(10.0);
        let mut a = vec![C32::new(1.0, -1.0); 200];
        let mut b = a.clone();
        let (mut r1, mut r2) = (rng(), rng());
        tc.transmit(&mut a, &mut r1); // crosses several frame boundaries
        stat.transmit(&mut b, &mut r2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        assert_eq!(tc.frame, 6);
        assert!((tc.noise_sigma() - stat.noise_sigma()).abs() == 0.0);
    }

    #[test]
    fn cfo_rate_change_keeps_phase_continuous() {
        let rate = 0.01f32;
        let t = Trajectory::new("cfo-pulse")
            .hold(1, ChannelState::clean(f64::INFINITY).with_cfo(rate))
            .hold(3, ChannelState::clean(f64::INFINITY));
        let mut tc = TrajectoryChannel::new(t, 10);
        let mut block = vec![C32::new(1.0, 0.0); 40];
        tc.transmit(&mut block, &mut rng());
        // During frame 0 the phase advances by `rate` per symbol; from
        // frame 1 on the accumulated 10·rate is frozen as a static
        // rotation.
        for (k, y) in block.iter().take(10).enumerate() {
            assert!((y.arg() - k as f32 * rate).abs() < 1e-5, "symbol {k}");
        }
        for y in block.iter().skip(10) {
            assert!((y.arg() - 10.0 * rate).abs() < 1e-5);
        }
        assert!((tc.accumulated_phase() - 10.0 * rate).abs() < 1e-6);
    }

    #[test]
    fn fading_survives_unrelated_relowering() {
        // SNR changes at frame 1 while fading (coherence 64 > frame
        // length) stays on: the fading coefficient must persist across
        // the re-lowering instead of being redrawn.
        let t = Trajectory::new("fade-ramp")
            .hold(1, ChannelState::clean(20.0).with_fading(64))
            .hold(3, ChannelState::clean(10.0).with_fading(64));
        let mut tc = TrajectoryChannel::new(t, 16);
        let mut block = vec![C32::new(1.0, 0.0); 48];
        // Noiseless probe of the fading coefficient: disable AWGN by
        // comparing angles instead — transmit, then check the fading
        // draw did not change at the frame-1 boundary by correlating
        // symbols 0 and 17 (same coherence block, different frames).
        let mut r = rng();
        tc.transmit(&mut block, &mut r);
        // Deterministic replay with a fresh channel that never
        // re-lowers: same seed, constant trajectory at 20 dB.
        let t2 = Trajectory::constant("fade", ChannelState::clean(20.0).with_fading(64), 4);
        let mut tc2 = TrajectoryChannel::new(t2, 16);
        let mut block2 = vec![C32::new(1.0, 0.0); 48];
        tc2.transmit(&mut block2, &mut rng());
        // First frame identical (same state, same stream) …
        for k in 0..16 {
            assert_eq!(block[k].re.to_bits(), block2[k].re.to_bits(), "symbol {k}");
        }
        // … and the fading coefficient itself (arg of a noisier
        // symbol changes, but the coherence draw consumed the same
        // RNG values: had the stage been rebuilt, `remaining` would
        // reset and a *new* pair would be drawn at symbol 16, visibly
        // desynchronising every later draw).
        assert_eq!(tc.frame, 3);
    }

    #[test]
    fn snapshot_freezes_cfo_into_static_rotation() {
        let rate = 0.002f32;
        let t = Trajectory::constant("cfo", ChannelState::clean(12.0).with_cfo(rate), 8);
        let mut tc = TrajectoryChannel::new(t, 25);
        let mut block = vec![C32::new(1.0, 0.0); 50];
        tc.transmit(&mut block, &mut rng());
        let frozen = tc.snapshot_static();
        // The snapshot's rotation equals the accumulated phase, and it
        // contains no live CFO: two transmissions rotate identically.
        let mut a = vec![C32::new(1.0, 0.0)];
        let mut b = vec![C32::new(1.0, 0.0)];
        let mut f1 = frozen.clone();
        let mut f2 = frozen;
        f1.transmit(&mut a, &mut rng());
        f2.transmit(&mut b, &mut rng());
        // 12 dB AWGN jitters the angle a little; compare against the
        // expected accumulated rotation loosely.
        let expect = tc.accumulated_phase();
        assert!(
            (a[0].arg() - expect).abs() < 0.3,
            "{} vs {}",
            a[0].arg(),
            expect
        );
        assert!((b[0].arg() - expect).abs() < 0.3);
    }

    #[test]
    fn reset_rewinds_to_frame_zero() {
        let t = Trajectory::new("step")
            .hold(1, ChannelState::clean(f64::INFINITY))
            .hold(1, ChannelState::clean(f64::INFINITY).with_phase(1.0));
        let mut tc = TrajectoryChannel::new(t, 4);
        let mut block = vec![C32::new(1.0, 0.0); 8];
        tc.transmit(&mut block, &mut rng());
        assert!(block[0].arg().abs() < 1e-6);
        assert!((block[4].arg() - 1.0).abs() < 1e-5);
        tc.reset();
        assert_eq!(tc.frame, 0);
        let mut again = vec![C32::new(1.0, 0.0)];
        tc.transmit(&mut again, &mut rng());
        assert!(again[0].arg().abs() < 1e-6, "reset must rewind the script");
    }

    #[test]
    fn boxed_clone_preserves_playhead() {
        let t = Trajectory::new("step")
            .hold(1, ChannelState::clean(f64::INFINITY))
            .hold(3, ChannelState::clean(f64::INFINITY).with_phase(0.5));
        let mut tc = TrajectoryChannel::new(t, 4);
        let mut block = vec![C32::new(1.0, 0.0); 4];
        tc.transmit(&mut block, &mut rng());
        let mut cloned = tc.box_clone();
        let mut probe = vec![C32::new(1.0, 0.0)];
        cloned.transmit(&mut probe, &mut rng());
        assert!((probe[0].arg() - 0.5).abs() < 1e-5, "clone mid-script");
    }

    #[test]
    fn ramp_from_infinite_snr_holds_instead_of_nan() {
        // Regression: `INF + (b − INF)·t` is NaN; a ramp leaving the
        // noiseless state must hold INF for every interior frame and
        // land on the finite endpoint at the closing boundary.
        let t = Trajectory::new("snr-in")
            .hold(2, ChannelState::clean(f64::INFINITY))
            .ramp(8, ChannelState::clean(10.0))
            .hold(2, ChannelState::clean(10.0));
        for f in 0..16 {
            let s = t.state_at(f);
            assert!(!s.es_n0_db.is_nan(), "frame {f} interpolated to NaN");
        }
        assert!(t.state_at(5).es_n0_db.is_infinite());
        assert_eq!(t.state_at(10).es_n0_db, 10.0);
        // And the lowered noise σ stays finite all the way through.
        let mut tc = TrajectoryChannel::new(t, 4);
        let mut block = vec![C32::new(1.0, 0.0); 64];
        tc.transmit(&mut block, &mut rng());
        assert!(block.iter().all(|y| y.is_finite()), "NaN escaped lowering");
        assert!(tc.noise_sigma().is_finite());
    }

    #[test]
    fn ramp_into_infinite_snr_holds_finite_start() {
        let t = Trajectory::new("snr-out")
            .hold(1, ChannelState::clean(6.0))
            .ramp(4, ChannelState::clean(f64::INFINITY));
        assert_eq!(t.state_at(3).es_n0_db, 6.0);
        assert!(t.state_at(5).es_n0_db.is_infinite());
    }

    #[test]
    fn taps_hold_discrete_on_ramps_and_delay_line_survives() {
        // A ramp that only moves the SNR must neither interpolate the
        // taps nor restart the delay-line memory at re-lowerings.
        let taps = Taps::two_ray(0.4, 0.0, 1);
        let t = Trajectory::new("isi-snr-ramp")
            .hold(1, ChannelState::clean(f64::INFINITY).with_taps(taps))
            .ramp(3, ChannelState::clean(40.0).with_taps(taps));
        // Discrete hold: mid-ramp state carries the start taps verbatim.
        assert_eq!(t.state_at(2).taps, taps);
        // Survival: a noiseless frame boundary with an SNR change must
        // keep the echo of the last pre-boundary symbol. Compare with a
        // static TDL fed the same stream: outputs of the *deterministic*
        // part must agree at the frame-1 first symbol (noise at 40 dB is
        // tiny; use a noiseless end state instead for exactness).
        let t = Trajectory::new("isi-phase-step")
            .hold(1, ChannelState::clean(f64::INFINITY).with_taps(taps))
            .hold(
                3,
                ChannelState::clean(f64::INFINITY)
                    .with_phase(0.5)
                    .with_taps(taps),
            );
        let mut tc = TrajectoryChannel::new(t, 4);
        let mut block = vec![
            C32::one(),
            C32::zero(),
            C32::zero(),
            C32::zero(),
            C32::zero(),
            C32::zero(),
            C32::zero(),
            C32::zero(),
        ];
        tc.transmit(&mut block, &mut rng());
        // Impulse at symbol 0: taps [h0, h1] put h1·1 at symbol 1 and
        // nothing after; had the delay line restarted at the frame-1
        // re-lowering nothing would change here, so probe the boundary
        // instead: impulse at symbol 3 (last of frame 0) echoes into
        // symbol 4 (first of frame 1).
        let mut tc2 = TrajectoryChannel::new(
            Trajectory::new("isi-phase-step-2")
                .hold(1, ChannelState::clean(f64::INFINITY).with_taps(taps))
                .hold(
                    3,
                    ChannelState::clean(f64::INFINITY)
                        .with_phase(0.5)
                        .with_taps(taps),
                ),
            4,
        );
        let mut boundary = vec![
            C32::zero(),
            C32::zero(),
            C32::zero(),
            C32::one(),
            C32::zero(),
            C32::zero(),
            C32::zero(),
            C32::zero(),
        ];
        tc2.transmit(&mut boundary, &mut rng());
        let h = TappedDelayLine::two_ray(0.4, 0.0, 1);
        let h1 = h.taps()[1];
        // Echo survives the re-lowering. Phase applies *before* the
        // delay line (transmitter-side), so the frame-0 impulse echoes
        // unrotated; a rebuilt delay line would emit zero here.
        assert!(
            boundary[4].dist_sqr(h1) < 1e-10,
            "delay-line memory lost across re-lowering: got {:?}, want {h1:?}",
            boundary[4],
        );
    }

    #[test]
    fn constant_taps_trajectory_matches_static_delay_line() {
        let taps = Taps::exponential(5, 1.5);
        let state = ChannelState::clean(f64::INFINITY).with_taps(taps);
        let mut tc = TrajectoryChannel::new(Trajectory::constant("isi", state, 4), 16);
        let mut stat = TappedDelayLine::new(taps.as_slice().to_vec());
        let mut a: Vec<C32> = (0..64).map(|k| C32::from_angle(k as f32 * 0.37)).collect();
        let mut b = a.clone();
        tc.transmit(&mut a, &mut rng());
        stat.transmit(&mut b, &mut rng());
        for (k, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "symbol {k}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "symbol {k}");
        }
    }

    #[test]
    fn snapshot_includes_delay_line() {
        let taps = Taps::two_ray(0.3, 0.2, 2);
        let state = ChannelState::clean(f64::INFINITY).with_taps(taps);
        let tc = TrajectoryChannel::new(Trajectory::constant("isi", state, 2), 8);
        let mut snap = tc.snapshot_static();
        let mut block = vec![C32::one(), C32::zero(), C32::zero(), C32::zero()];
        snap.transmit(&mut block, &mut rng());
        let h = TappedDelayLine::two_ray(0.3, 0.2, 2);
        assert!(block[2].dist_sqr(h.taps()[2]) < 1e-12, "snapshot lost ISI");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_length_segments_rejected() {
        let _ = Trajectory::new("bad").hold(0, ChannelState::clean(10.0));
    }

    #[test]
    #[should_panic(expected = "must be finite or +inf")]
    fn negative_infinite_es_n0_rejected() {
        let _ = Trajectory::new("bad").hold(10, ChannelState::clean(f64::NEG_INFINITY));
    }

    #[test]
    #[should_panic(expected = "must be finite or +inf")]
    fn nan_es_n0_ramp_rejected() {
        let _ = Trajectory::new("bad")
            .hold(1, ChannelState::clean(10.0))
            .ramp(4, ChannelState::clean(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "preceding segment")]
    fn leading_ramp_rejected() {
        let _ = Trajectory::new("bad").ramp(4, ChannelState::clean(10.0));
    }
}
