//! Online time-varying link runtime: the trigger→retrain→redeploy
//! loop the paper's adaptation story is actually about (DESIGN.md §10).
//!
//! [`OnlineLink`] streams frames through a scripted
//! [`TrajectoryChannel`]: each frame transmits known pilots plus
//! payload, demaps the whole frame in one block call, feeds the pilot
//! (or ECC) evidence to the [`AdaptationController`], and — for the
//! adaptive receiver — reacts to [`Recommendation::Retrain`] by
//! retraining the demapper ANN against a frozen snapshot of the
//! current channel, re-extracting centroids, and **swapping** both the
//! software [`HybridDemapper`] and the recompiled integer
//! [`QuantizedGraph`] deployment back into the datapath after a
//! retrain latency charged against the FPGA trainer cost model.
//!
//! A step logs the frame's error counts only; the payload's bitwise MI
//! is `OnlineLink::payload_mi`, computed on demand.
//! [`run_drift_campaign`], its one reader, runs many independent links
//! (one [`par_for_each_mut`] element per link, per-link RNG stream and
//! state) over the paper's receiver line-up × a drift scenario suite,
//! records each link's MI after every frame, and pools per-frame error
//! counts and MI in link order so the [`DriftRuntimeReport`] artefact is
//! a pure function of `(spec, seed)` — byte-identical at any thread
//! count.

use crate::adapt::{AdaptThresholds, AdaptationController, Recommendation};
use crate::config::SystemConfig;
use crate::demapper_ann::NeuralDemapper;
use crate::extraction::{extract, ExtractionConfig};
use crate::hybrid::HybridDemapper;
use crate::pipeline::HybridPipeline;
use crate::registry::{paper_registry, BackendHandle, BackendRegistry};
use crate::retrain::Retrainer;
use hybridem_comm::channel::Channel;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::Demapper;
use hybridem_comm::equalizer::{AdaptiveEqualizer, EqualizerConfig, EqualizerMode};
use hybridem_comm::frame::FrameEngine;
use hybridem_comm::metrics::BitwiseMiEstimator;
use hybridem_comm::trajectory::{ChannelState, Taps, Trajectory, TrajectoryChannel};
use hybridem_fpga::demapper_accel::SoftDemapperConfig;
use hybridem_fpga::graph::QuantizedGraph;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::SplitMix64;
use hybridem_mathkit::stats::error_rate;
use hybridem_nn::Sequential;
use hybridem_parallel::par_for_each_mut;
use std::sync::Arc;

pub use hybridem_comm::frame::Monitor;

/// What the adaptive receiver does when the controller fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerAction {
    /// Full loop: retrain, re-extract, recompile, swap after the
    /// modelled retrain latency.
    RetrainSwap,
    /// Record the trigger and reset the monitor — used by the
    /// detection-latency ablation, which measures *when* the trigger
    /// fires, not what retraining buys.
    LogOnly,
}

/// Everything about an online link except the scenario and the seed
/// (shared across a drift campaign's links and families).
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Symbols per frame (pilots + payload).
    pub frame_symbols: usize,
    /// Known pilot symbols at the start of every frame.
    pub pilot_symbols: usize,
    /// Evidence stream for the controller.
    pub monitor: Monitor,
    /// Reaction to a trigger.
    pub action: TriggerAction,
    /// Controller thresholds.
    pub thresholds: AdaptThresholds,
}

/// Modelled symbol rate in symbols/s: converts the FPGA trainer's
/// simulated retrain time into frames of latency.
const SYMBOL_RATE: f64 = 1e6;

/// Width of the recompiled integer deployment (the paper's 8-bit
/// datapath).
const DEPLOY_BITS: u32 = 8;

impl Default for LinkParams {
    fn default() -> Self {
        Self {
            frame_symbols: 256,
            pilot_symbols: 64,
            monitor: Monitor::Pilot,
            action: TriggerAction::RetrainSwap,
            // The paper-default thresholds: high enough that a
            // reduced-budget AE's clean-channel BER (≈ 3 % under
            // HYBRIDEM_QUICK) never trips the monitor spuriously — a
            // spurious clean-channel retrain would eat the latency
            // budget right before a scripted drift lands.
            thresholds: AdaptThresholds::default(),
        }
    }
}

/// One online link: scenario, seed, and the shared parameters.
#[derive(Clone, Debug)]
pub struct OnlineLinkSpec {
    /// The scripted channel scenario.
    pub trajectory: Trajectory,
    /// Link seed (payload/pilot stream, retrain pilots, calibration).
    pub seed: u64,
    /// Shared link parameters.
    pub params: LinkParams,
}

impl OnlineLinkSpec {
    /// Spec with default parameters.
    pub fn new(trajectory: Trajectory, seed: u64) -> Self {
        Self {
            trajectory,
            seed,
            params: LinkParams::default(),
        }
    }
}

/// Per-frame log entry.
#[derive(Clone, Debug)]
pub struct FrameRecord {
    /// Frame index.
    pub frame: u64,
    /// Payload bits transmitted this frame.
    pub payload_bits: u64,
    /// Payload bit errors (raw demapped decisions, before any ECC).
    pub payload_bit_errors: u64,
    /// Pilot bits transmitted this frame.
    pub(crate) pilot_bits: u64,
    /// Pilot bit errors.
    pub(crate) pilot_bit_errors: u64,
    /// The controller fired this frame.
    pub triggered: bool,
}

/// One completed trigger→swap cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetrainEvent {
    /// Frame at which the controller fired.
    pub trigger_frame: u64,
    /// Frame at which the retrained demapper entered the datapath
    /// (equals `trigger_frame` for [`TriggerAction::LogOnly`]).
    pub swap_frame: u64,
    /// `swap_frame − trigger_frame`.
    pub(crate) latency_frames: u64,
    /// Simulated on-chip retraining time (s) from the FPGA trainer
    /// cost model (0 for `LogOnly`).
    pub(crate) sim_time_s: f64,
}

struct Pending {
    trigger_frame: u64,
    swap_frame: u64,
    hybrid: HybridDemapper,
    deployment: QuantizedGraph,
    sim_time_s: f64,
}

/// The retrain policy: the link's own demapper ANN, its live integer
/// deployment and the adaptation controller. A trigger retrains the
/// ANN and recompiles the deployment; once the modelled retrain
/// latency has elapsed, the re-extracted centroid demapper replaces
/// the link's demapper.
struct Retrain {
    cfg: SystemConfig,
    ann: NeuralDemapper,
    deployment: QuantizedGraph,
    controller: AdaptationController,
    pending: Option<Pending>,
    events: Vec<RetrainEvent>,
}

/// Compiles the current float demapper to the shared integer IR at
/// [`DEPLOY_BITS`] with freshly calibrated tensor-boundary formats —
/// the runtime's mid-stream deployment path (full QAT fine-tuning
/// would blow the retrain-latency budget; see
/// [`crate::qat::calibrate_boundaries`]).
fn compile_deployment(
    constellation: &Constellation,
    model: &Sequential,
    sigma: f32,
    seed: u64,
) -> QuantizedGraph {
    let boundaries =
        crate::qat::calibrate_boundaries(constellation, model, sigma, DEPLOY_BITS, 1024, seed);
    hybridem_fpga::graph::compile(model, &boundaries)
}

impl Retrain {
    /// The matured retrain's centroid demapper, once its latency has
    /// elapsed; the recompiled deployment goes live with it.
    fn maybe_swap(&mut self, frame: u64) -> Option<Arc<dyn Demapper>> {
        if self.pending.as_ref().is_none_or(|p| frame < p.swap_frame) {
            return None;
        }
        let pnd = self.pending.take()?;
        self.deployment = pnd.deployment;
        self.controller.reset_after_retrain();
        self.events.push(RetrainEvent {
            trigger_frame: pnd.trigger_frame,
            swap_frame: frame,
            latency_frames: frame - pnd.trigger_frame,
            sim_time_s: pnd.sim_time_s,
        });
        Some(Arc::new(pnd.hybrid))
    }

    /// Feeds one frame's pilot (or ECC) evidence to the controller and
    /// reacts to a retrain recommendation. Returns true when the
    /// controller fired this frame.
    fn observe(
        &mut self,
        frame: u64,
        constellation: &Constellation,
        engine: &FrameEngine,
        llrs: &[f32],
        pilot_errors: u64,
        params: &LinkParams,
    ) -> bool {
        match params.monitor {
            Monitor::Pilot => self
                .controller
                .observe_pilot_errors(pilot_errors, engine.pilot_bits() as u64),
            Monitor::Ecc => {
                let corrected = engine.ecc_corrected(llrs);
                self.controller
                    .observe_ecc(corrected, engine.payload_bits() as u64);
            }
        }
        if self.pending.is_some() || self.controller.recommendation() != Recommendation::Retrain {
            return false;
        }
        match params.action {
            TriggerAction::LogOnly => {
                self.events.push(RetrainEvent {
                    trigger_frame: frame,
                    swap_frame: frame,
                    latency_frames: 0,
                    sim_time_s: 0.0,
                });
                self.controller.reset_after_retrain();
            }
            TriggerAction::RetrainSwap => {
                // Retrain against a *frozen* snapshot of the current
                // conditions (CFO rate folded to its accumulated
                // rotation): pilots collected at trigger time, not a
                // moving target.
                let channel = engine.channel();
                let mut snapshot: Box<dyn Channel> = Box::new(channel.snapshot_static());
                let mut rcfg = self.cfg.clone();
                rcfg.seed = SplitMix64::derive(self.cfg.seed, 0x5e7 + self.events.len() as u64);
                let mut rt = Retrainer::new(&rcfg).with_hardware_accounting();
                let report = rt.run(constellation, snapshot.as_mut(), &mut self.ann);
                let ecfg = ExtractionConfig::new(self.cfg.grid_n, self.cfg.window_scale);
                let ereport = extract(&self.ann, &ecfg, constellation);
                let hybrid = HybridDemapper::from_extraction(&ereport, self.cfg.sigma());
                let deployment = compile_deployment(
                    constellation,
                    self.ann.model(),
                    self.cfg.sigma(),
                    rcfg.seed,
                );
                let sim_time = report.sim_time_s.expect("hardware accounting enabled");
                let latency = ((sim_time * SYMBOL_RATE / channel.frame_symbols() as f64).ceil()
                    as u64)
                    .max(1);
                self.pending = Some(Pending {
                    trigger_frame: frame,
                    swap_frame: frame + latency,
                    hybrid,
                    deployment,
                    sim_time_s: sim_time,
                });
            }
        }
        true
    }
}

/// Policy of the backend-switching receiver: the `SwitchBackend`
/// adaptation action picks, from a [`BackendRegistry`], the cheapest
/// backend whose predicted BER at the current SNR estimate meets
/// `ber_target` — switching implementations instead of retraining
/// weights (DESIGN.md §13).
#[derive(Clone, Copy, Debug)]
pub struct SwitchPolicy {
    /// The link's BER target fed to [`BackendRegistry::select_or_best`].
    pub ber_target: f64,
    /// Frames of pilot evidence pooled into one SNR estimate; the
    /// estimator stays silent until the window fills.
    pub window_frames: usize,
    /// Minimum frames between switches (hysteresis against estimator
    /// noise flapping two backends near a selection threshold).
    pub min_dwell_frames: u64,
    /// Operating point assumed before the first estimate matures —
    /// selects the initial backend.
    pub initial_es_n0_db: f64,
}

/// SNR-estimate clamp floor in dB (an all-error window maps here).
const ES_FLOOR_DB: f64 = -10.0;

/// SNR-estimate clamp ceiling in dB (an error-free window maps here).
const ES_CEIL_DB: f64 = 40.0;

/// One backend switch of a switching link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SwitchEvent {
    /// Frame whose evidence triggered the switch (the new backend
    /// demaps from the *next* frame).
    pub(crate) frame: u64,
    /// Backend that demapped up to and including `frame`.
    pub(crate) from: BackendHandle,
    /// Backend that demaps from `frame + 1`.
    pub(crate) to: BackendHandle,
    /// The windowed pilot SNR estimate (Es/N0 dB) behind the decision.
    pub(crate) est_es_n0_db: f64,
    /// True when `to` is cheaper than `from` (rising SNR earned a
    /// cheaper implementation); false for the accuracy upshift.
    pub(crate) downshift: bool,
}

/// The switch policy: a registry handle and a ring buffer of per-frame
/// pilot signal/error energies feeding a data-aided SNR estimator. A
/// decision replaces the link's demapper from the next frame on.
struct Switch {
    registry: Arc<BackendRegistry>,
    policy: SwitchPolicy,
    active: BackendHandle,
    /// The selected backend's demapper, installed at the next frame.
    next: Option<Arc<dyn Demapper>>,
    win_sig: Vec<f64>,
    win_err: Vec<f64>,
    filled: usize,
    cursor: usize,
    last_switch: u64,
    events: Vec<SwitchEvent>,
}

impl Switch {
    /// Windowed data-aided estimate: Es/N0 ≈ Σ|x|² / Σ|y·e^{−jθ} − x|²
    /// over the pooled pilot window, in dB, clamped to
    /// `ES_FLOOR_DB..=ES_CEIL_DB` (an error-free window saturates at
    /// the ceiling). Each frame's error energy is derotated by its
    /// one-tap LS phase estimate before pooling (see
    /// [`Switch::observe`]), so a static rotation or slow CFO is not
    /// mistaken for noise.
    fn estimate_es_n0_db(&self) -> f64 {
        let sig: f64 = self.win_sig[..self.filled].iter().sum();
        let err: f64 = self.win_err[..self.filled].iter().sum();
        if err <= 0.0 {
            return ES_CEIL_DB;
        }
        (10.0 * (sig / err).log10()).clamp(ES_FLOOR_DB, ES_CEIL_DB)
    }

    /// Feeds this frame's pilot energies to the estimator and, once the
    /// window is full and the dwell has elapsed, re-runs the selection
    /// rule. Returns true when the decision switched backends
    /// (effective next frame).
    fn observe(
        &mut self,
        frame: u64,
        constellation: &Constellation,
        engine: &FrameEngine,
        pilots: usize,
    ) -> bool {
        // Pilot energies for the SNR estimate, derotated by the
        // one-tap LS phase θ* = arg Σ y·x̄ (the phase minimising
        // Σ|y·e^{−jθ} − x|²): raw Σ|y − x|² counts any uncompensated
        // rotation/CFO as noise and drives spurious downshifts on
        // phase-impaired links. With θ* the error has the closed
        // form Σ|y|² + Σ|x|² − 2·|Σ y·x̄|.
        let mut sig = 0.0f64;
        let mut ysq = 0.0f64;
        let (mut cr, mut ci) = (0.0f64, 0.0f64);
        for (&u, &y) in engine.tx_symbols()[..pilots].iter().zip(engine.block()) {
            let x = constellation.point(u);
            sig += f64::from(x.re) * f64::from(x.re) + f64::from(x.im) * f64::from(x.im);
            ysq += f64::from(y.re) * f64::from(y.re) + f64::from(y.im) * f64::from(y.im);
            cr += f64::from(y.re) * f64::from(x.re) + f64::from(y.im) * f64::from(x.im);
            ci += f64::from(y.im) * f64::from(x.re) - f64::from(y.re) * f64::from(x.im);
        }
        self.win_sig[self.cursor] = sig;
        // Rounding can push a noiseless frame epsilon-negative; an
        // err ≤ 0 frame saturates the estimate at the ceiling.
        self.win_err[self.cursor] = (ysq + sig - 2.0 * cr.hypot(ci)).max(0.0);
        self.cursor = (self.cursor + 1) % self.win_sig.len();
        self.filled = (self.filled + 1).min(self.win_sig.len());
        if self.filled < self.win_sig.len()
            || frame < self.last_switch + self.policy.min_dwell_frames
        {
            return false;
        }
        let est = self.estimate_es_n0_db();
        let sel = self.registry.select_or_best(est, self.policy.ber_target);
        if sel == self.active {
            return false;
        }
        let downshift = self
            .registry
            .get(sel)
            .cost(est)
            .cheaper_than(&self.registry.get(self.active).cost(est));
        self.events.push(SwitchEvent {
            frame,
            from: self.active,
            to: sel,
            est_es_n0_db: est,
            downshift,
        });
        self.next = Some(self.registry.get(sel).demapper(est));
        self.active = sel;
        self.last_switch = frame;
        // The estimator restarts: evidence gathered under the old
        // operating decision should not double-trigger.
        self.filled = 0;
        self.cursor = 0;
        true
    }
}

/// A link's adaptation policy: the only thing that may replace its
/// demapper.
enum Policy {
    Retrain(Box<Retrain>),
    Switch(Box<Switch>),
}

/// One link streaming frames through a scripted time-varying channel.
///
/// Every receiver runs the same datapath: the frame, an optional
/// adaptive FIR equalizer, the live demapper, the error counts, and at
/// most one adaptation policy, which may replace the demapper from the
/// next frame on. The constructors differ only in which parts they
/// fill in.
pub struct OnlineLink {
    spec: OnlineLinkSpec,
    constellation: Constellation,
    engine: FrameEngine,
    /// The live demapper every frame demaps through.
    demapper: Arc<dyn Demapper>,
    /// The blind FIR stage ahead of the demapper. Owned by this link,
    /// so its taps adapt on this link's stream alone.
    equalizer: Option<AdaptiveEqualizer>,
    /// Equalizer mode after each frame (empty without an equalizer).
    eq_modes: Vec<EqualizerMode>,
    policy: Option<Policy>,
    frame: u64,
    log: Vec<FrameRecord>,
    // Per-frame scratch, reused so streaming allocates nothing after
    // the first frame (matches the linksim discipline, DESIGN.md §7).
    llrs: Vec<f32>,
    // Pilot constellation points (the equalizer's supervised
    // reference; the engine's block holds channel output by the time
    // it trains).
    pilot_pts: Vec<C32>,
}

impl OnlineLink {
    fn build(
        spec: OnlineLinkSpec,
        constellation: Constellation,
        demapper: Arc<dyn Demapper>,
        equalizer: Option<AdaptiveEqualizer>,
        policy: Option<Policy>,
    ) -> Self {
        let p = &spec.params;
        let m = constellation.bits_per_symbol();
        assert_eq!(
            m,
            demapper.bits_per_symbol(),
            "constellation and demapper disagree on bits/symbol"
        );
        let engine = FrameEngine::new(
            spec.trajectory.clone(),
            spec.seed,
            p.frame_symbols,
            p.pilot_symbols,
            p.monitor,
            m,
        );
        let (n, pilots) = (p.frame_symbols, p.pilot_symbols);
        Self {
            spec,
            constellation,
            engine,
            demapper,
            equalizer,
            eq_modes: Vec::new(),
            policy,
            frame: 0,
            log: Vec::new(),
            llrs: vec![0.0; n * m],
            pilot_pts: vec![C32::zero(); pilots],
        }
    }

    /// A non-adapting receiver (the `static-conventional` and
    /// `frozen-ann` families): the demapper installed here serves the
    /// whole stream.
    ///
    /// # Panics
    /// Panics on constellation/demapper width mismatch or invalid
    /// frame geometry.
    pub fn fixed(
        spec: OnlineLinkSpec,
        constellation: Constellation,
        demapper: Box<dyn Demapper>,
    ) -> Self {
        Self::build(spec, constellation, Arc::from(demapper), None, None)
    }

    /// The adaptive hybrid receiver, cloned out of a pipeline that has
    /// already trained and extracted: per-link copies of the demapper
    /// ANN and centroid demapper, a fresh controller, and an initial
    /// integer deployment compiled at the paper's 8-bit width. The
    /// retrainer/calibration seeds are re-derived from the link seed
    /// so shards are independent.
    ///
    /// # Panics
    /// Panics unless [`HybridPipeline::extract_centroids`] ran, or
    /// when pilot monitoring has no pilot symbols.
    pub fn adaptive(spec: OnlineLinkSpec, pipe: &HybridPipeline) -> Self {
        // An adaptive receiver whose controller never sees evidence
        // can never trigger — reject the silent misconfiguration.
        assert!(
            spec.params.monitor != Monitor::Pilot || spec.params.pilot_symbols > 0,
            "pilot monitoring needs pilot_symbols > 0 (an adaptive \
             receiver without evidence can never trigger)"
        );
        let hybrid_src = pipe
            .hybrid_demapper()
            .expect("adaptive link needs extracted centroids: run extract_centroids() first");
        let mut cfg = pipe.config().clone();
        cfg.seed = spec.seed;
        let constellation = pipe.constellation();
        let ann = NeuralDemapper::new(Sequential::from_snapshot(
            pipe.ann_demapper().model().snapshot(),
        ));
        let hybrid = HybridDemapper::from_centroids(hybrid_src.centroids().clone(), cfg.sigma());
        let deployment = compile_deployment(&constellation, ann.model(), cfg.sigma(), spec.seed);
        let retrain = Retrain {
            controller: AdaptationController::new(spec.params.thresholds),
            cfg,
            ann,
            deployment,
            pending: None,
            events: Vec::new(),
        };
        let policy = Policy::Retrain(Box::new(retrain));
        Self::build(spec, constellation, Arc::new(hybrid), None, Some(policy))
    }

    /// The backend-switching receiver (`SwitchBackend` adaptation
    /// action): every frame, a data-aided SNR estimate from the pilot
    /// prefix drives [`BackendRegistry::select_or_best`] — the link
    /// rides the registry's cost ladder instead of retraining. The
    /// initial backend is selected at [`SwitchPolicy::initial_es_n0_db`];
    /// the transmit constellation is the first entry's, and every
    /// other entry must share it (a [`crate::registry::switch_registry`]
    /// does).
    ///
    /// # Panics
    /// Panics on an empty registry, on an entry whose constellation
    /// points differ from the first entry's, or when the spec has no
    /// pilot symbols.
    pub(crate) fn switching(
        spec: OnlineLinkSpec,
        registry: Arc<BackendRegistry>,
        policy: SwitchPolicy,
    ) -> Self {
        assert!(policy.window_frames >= 1, "estimator window must be ≥ 1");
        assert!(policy.ber_target > 0.0, "degenerate switch policy");
        // The switching receiver's SNR estimator is pilot-driven
        // unconditionally — without pilots it can never decide.
        assert!(
            spec.params.pilot_symbols > 0,
            "backend switching needs pilot_symbols > 0 (the SNR \
             estimator is data-aided from the pilot prefix)"
        );
        let mut entries = registry.iter().map(|(_, b)| b);
        let constellation = entries
            .next()
            .expect("switching needs ≥ 1 backend")
            .constellation()
            .clone();
        // A switch changes the demapper, never the transmitter — the
        // rule `LinkServer::switch_backend` enforces per switch.
        for backend in entries {
            assert!(
                backend.constellation().points() == constellation.points(),
                "backend switch must preserve the transmit constellation \
                 (`{}` differs from the first entry)",
                backend.name()
            );
        }
        let active = registry.select_or_best(policy.initial_es_n0_db, policy.ber_target);
        let demapper = registry.get(active).demapper(policy.initial_es_n0_db);
        let switch = Switch {
            registry,
            policy,
            active,
            next: None,
            win_sig: vec![0.0; policy.window_frames],
            win_err: vec![0.0; policy.window_frames],
            filled: 0,
            cursor: 0,
            last_switch: 0,
            events: Vec::new(),
        };
        let policy = Policy::Switch(Box::new(switch));
        Self::build(spec, constellation, demapper, None, Some(policy))
    }

    /// The self-equalizing receiver: a linear FIR equalizer adapts
    /// ahead of `inner` every frame — supervised LMS on the pilot
    /// prefix when the frame has one, blind CMA → DD-LMS on the
    /// payload — so the link re-converges on drifting ISI channels
    /// without retraining and, at `pilot_symbols == 0`, without any
    /// pilot overhead (the group's unsupervised-equalizer story,
    /// arXiv 2304.06987). The equalizer instance is private to this
    /// link, keeping artefacts byte-identical at any thread count.
    ///
    /// # Panics
    /// Panics on constellation/demapper width mismatch, invalid frame
    /// geometry, or a degenerate equalizer config.
    pub fn equalized(
        spec: OnlineLinkSpec,
        constellation: Constellation,
        inner: Box<dyn Demapper>,
        eq_cfg: EqualizerConfig,
    ) -> Self {
        let eq = AdaptiveEqualizer::new(constellation.clone(), eq_cfg);
        Self::build(spec, constellation, Arc::from(inner), Some(eq), None)
    }

    /// The link spec.
    pub fn spec(&self) -> &OnlineLinkSpec {
        &self.spec
    }

    /// Frames streamed so far.
    pub fn frames(&self) -> u64 {
        self.frame
    }

    /// The per-frame event log.
    pub fn log(&self) -> &[FrameRecord] {
        &self.log
    }

    /// Completed trigger→swap cycles (empty for fixed and switching
    /// receivers).
    pub fn events(&self) -> &[RetrainEvent] {
        match &self.policy {
            Some(Policy::Retrain(r)) => &r.events,
            _ => &[],
        }
    }

    /// Backend switches so far (empty for non-switching receivers).
    pub(crate) fn switch_events(&self) -> &[SwitchEvent] {
        match &self.policy {
            Some(Policy::Switch(s)) => &s.events,
            _ => &[],
        }
    }

    /// The live registry handle (switching receivers only).
    pub(crate) fn active_backend(&self) -> Option<BackendHandle> {
        match &self.policy {
            Some(Policy::Switch(s)) => Some(s.active),
            _ => None,
        }
    }

    /// Per-frame equalizer mode — `trace[f]` is the adaptation mode
    /// after frame `f` was equalized (empty for non-equalized
    /// receivers). The CMA→DD transition marks acquisition.
    pub fn equalizer_mode_trace(&self) -> &[EqualizerMode] {
        &self.eq_modes
    }

    /// The live demapper, the one the next frame demaps through.
    #[cfg(test)]
    pub(crate) fn demapper(&self) -> &Arc<dyn Demapper> {
        &self.demapper
    }

    /// The live integer deployment (adaptive receivers only).
    #[cfg(test)]
    pub(crate) fn deployment(&self) -> Option<&QuantizedGraph> {
        match &self.policy {
            Some(Policy::Retrain(r)) => Some(&r.deployment),
            _ => None,
        }
    }

    /// The playback channel (frame position, current state).
    pub fn channel(&self) -> &TrajectoryChannel {
        self.engine.channel()
    }

    /// Streams one frame; returns its log entry.
    pub fn step(&mut self) -> &FrameRecord {
        let frame = self.frame;
        let p = self.spec.params.pilot_symbols;

        // 0. A matured retrain (or a backend switch decided on the
        // previous frame's evidence) replaces the demapper here.
        let swap = match &mut self.policy {
            Some(Policy::Retrain(r)) => r.maybe_swap(frame),
            Some(Policy::Switch(s)) => s.next.take(),
            None => None,
        };
        if let Some(demapper) = swap {
            self.demapper = demapper;
        }

        // 1. Frame construction: pilot prefix, payload, mapping and
        // channel (comm::frame).
        self.engine.generate(&self.constellation);

        // 2. The equalizer adapts its FIR stage in place: supervised
        // LMS over the known pilot prefix, blind CMA/DD-LMS over the
        // payload.
        if let Some(eq) = &mut self.equalizer {
            for (pt, &u) in self.pilot_pts.iter_mut().zip(self.engine.tx_symbols()) {
                *pt = self.constellation.point(u);
            }
            let block = self.engine.block_mut();
            if p > 0 {
                eq.train(&mut block[..p], &self.pilot_pts);
            }
            eq.equalize(&mut block[p..]);
            self.eq_modes.push(eq.mode());
        }

        // 3. One block demap for the whole frame.
        self.demapper
            .demap_block(self.engine.block(), &mut self.llrs);

        // 4. Error counts (the MI is `payload_mi`, on demand).
        let errors = self.engine.count_errors(&self.llrs);

        // 5. The policy observes the frame: the switch policy
        // re-selects, the retrain policy monitors and triggers.
        let triggered = match &mut self.policy {
            Some(Policy::Retrain(r)) => r.observe(
                frame,
                &self.constellation,
                &self.engine,
                &self.llrs,
                errors.pilot,
                &self.spec.params,
            ),
            Some(Policy::Switch(s)) => s.observe(frame, &self.constellation, &self.engine, p),
            None => false,
        };

        self.log.push(FrameRecord {
            frame,
            payload_bits: self.engine.payload_bits() as u64,
            payload_bit_errors: errors.payload,
            pilot_bits: self.engine.pilot_bits() as u64,
            pilot_bit_errors: errors.pilot,
            triggered,
        });
        self.frame += 1;
        self.log.last().unwrap()
    }

    /// Bitwise mutual information of the last frame's payload LLRs, in
    /// bits: one [`BitwiseMiEstimator`] over the payload bits in frame
    /// order. 0.0 before the first frame and for a frame without
    /// payload. Computed on demand (one `exp` and one `ln` per bit), so
    /// [`OnlineLink::step`] does only datapath work.
    pub(crate) fn payload_mi(&self) -> f64 {
        if self.frame == 0 {
            return 0.0;
        }
        let pilot_bits = self.engine.pilot_bits();
        let mut mi = BitwiseMiEstimator::new();
        for (&b, &l) in self.engine.tx_bits()[pilot_bits..]
            .iter()
            .zip(&self.llrs[pilot_bits..])
        {
            mi.push(b, l);
        }
        mi.mi()
    }
}

// ---------------------------------------------------------------------
// Drift campaign: families × scenarios × links, pooled per frame.
// ---------------------------------------------------------------------

/// How a family relates to the drift expectations of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyRole {
    /// Conventional reference receiver — no recovery claims attached.
    Baseline,
    /// Trained but never-retrained receiver — carries the scenario's
    /// `frozen_recovers` expectation.
    Frozen,
    /// The full adapt/retrain loop — carries `adaptive_recovers`.
    Adaptive,
    /// Self-equalizing receiver ([`OnlineLink::equalized`]) — carries
    /// `adaptive_recovers` like [`FamilyRole::Adaptive`], but converges
    /// in the datapath: no retrain events are ever expected of it.
    Equalized,
}

/// One receiver family of a drift campaign. `build` constructs a fresh
/// link for `(trajectory, link_seed)`; it runs on the campaign's
/// shard workers, so captured state is shared read-only.
pub struct DriftFamily<'a> {
    /// Family label used in artefacts.
    pub name: String,
    /// Which recovery expectation applies.
    pub role: FamilyRole,
    /// Link factory.
    pub build: LinkBuilder<'a>,
}

/// Builds one link for `(trajectory, link_seed)` (see [`DriftFamily`]).
pub(crate) type LinkBuilder<'a> = Box<dyn Fn(&Trajectory, u64) -> OnlineLink + Sync + 'a>;

/// One drift scenario: the script plus the recovery expectations the
/// artefact validation enforces.
#[derive(Clone, Debug)]
pub struct DriftScenario {
    /// The scripted channel.
    pub trajectory: Trajectory,
    /// Frames of the pre-drift baseline window `[0, baseline_frames)`.
    pub baseline_frames: u64,
    /// First frame at which the scripted disturbance is over (the
    /// recovery clock starts here).
    pub drift_end_frame: u64,
    /// Whether the adaptive family must re-converge (`None` ⇒ no
    /// claim, e.g. fading that retraining cannot track).
    pub adaptive_recovers: Option<bool>,
    /// Whether the frozen family recovers on its own (`Some(false)`
    /// for persistent impairments — the paper's core claim).
    pub frozen_recovers: Option<bool>,
}

/// The scripted drift suite of the `drift_runtime` artefact, at a
/// given nominal Es/N0 (dB): SNR ramp, the paper's π/4 phase step, a
/// CFO drift pulse (leaving a persistent accumulated rotation), fading
/// onset, burst interference, and the frequency-selective pair —
/// a persistent two-ray ISI onset and a clearing ISI pulse.
pub fn drift_suite(es_n0_db: f64) -> Vec<DriftScenario> {
    let clean = ChannelState::clean(es_n0_db);
    let dip = ChannelState::clean(es_n0_db - 6.0);
    vec![
        DriftScenario {
            trajectory: Trajectory::new("snr-ramp")
                .hold(40, clean)
                .ramp(30, dip)
                .hold(30, dip)
                .ramp(30, clean)
                .hold(90, clean),
            baseline_frames: 40,
            drift_end_frame: 130,
            adaptive_recovers: Some(true),
            frozen_recovers: Some(true),
        },
        DriftScenario {
            trajectory: Trajectory::new("phase-step")
                .hold(40, clean)
                .hold(160, clean.with_phase(std::f32::consts::FRAC_PI_4)),
            baseline_frames: 40,
            drift_end_frame: 40,
            adaptive_recovers: Some(true),
            frozen_recovers: Some(false),
        },
        DriftScenario {
            // 4.5e-5 rad/sym × 30 frames × 256 symbols ≈ 0.346 rad of
            // accumulated rotation that persists after the rate
            // returns to zero.
            trajectory: Trajectory::new("cfo-drift")
                .hold(40, clean)
                .hold(30, clean.with_cfo(4.5e-5))
                .hold(170, clean),
            baseline_frames: 40,
            drift_end_frame: 70,
            adaptive_recovers: Some(true),
            frozen_recovers: Some(false),
        },
        DriftScenario {
            // Per-coherence-block fading is not a constellation shift:
            // retraining cannot track it, so no recovery claims.
            trajectory: Trajectory::new("fading-onset")
                .hold(40, clean)
                .hold(120, clean.with_fading(64)),
            baseline_frames: 40,
            drift_end_frame: 40,
            adaptive_recovers: None,
            frozen_recovers: None,
        },
        DriftScenario {
            trajectory: Trajectory::new("burst-interference")
                .hold(40, clean)
                .hold(20, clean.with_interference(0.35))
                .hold(140, clean),
            baseline_frames: 40,
            drift_end_frame: 60,
            adaptive_recovers: Some(true),
            frozen_recovers: Some(true),
        },
        DriftScenario {
            // A two-ray echo appears and stays. ISI is channel
            // *memory*: no memoryless demapper — retrained or not —
            // can undo it, so no recovery claims attach here (like
            // fading-onset). The equalized receiver's re-convergence
            // claim on this exact onset lives in the equalizer bench.
            trajectory: Trajectory::new("isi-onset")
                .hold(40, clean)
                .hold(120, clean.with_taps(Taps::two_ray(0.4, 0.35, 1))),
            baseline_frames: 40,
            drift_end_frame: 40,
            adaptive_recovers: None,
            frozen_recovers: None,
        },
        DriftScenario {
            // The echo clears again: once the channel is memoryless
            // all families are back on known ground, so both recovery
            // claims apply.
            trajectory: Trajectory::new("isi-pulse")
                .hold(40, clean)
                .hold(30, clean.with_taps(Taps::two_ray(0.4, 0.35, 1)))
                .hold(130, clean),
            baseline_frames: 40,
            drift_end_frame: 70,
            adaptive_recovers: Some(true),
            frozen_recovers: Some(true),
        },
    ]
}

/// The paper's receiver line-up as drift families: conventional Gray
/// QAM max-log, the frozen trained ANN, and the adaptive hybrid.
///
/// # Panics
/// Panics unless [`HybridPipeline::extract_centroids`] ran.
pub fn drift_families<'a>(pipe: &'a HybridPipeline, params: &LinkParams) -> Vec<DriftFamily<'a>> {
    assert!(
        pipe.hybrid_demapper().is_some(),
        "drift families need extracted centroids: run extract_centroids() first"
    );
    // The two fixed families come straight out of the shared backend
    // registry, pinned byte-identical to the hand-built demappers they
    // replaced (tests/registry_determinism.rs): at es = the config's
    // Es/N0, `conventional` builds max-log with the same σ as
    // `SystemConfig::sigma()`, and `AE-inference` shares a snapshot
    // round-trip of the trained network.
    let registry = paper_registry(pipe, &SoftDemapperConfig::paper_default(), &[]);
    let es = pipe.config().es_n0_db();
    let stock = |name: &str| {
        registry
            .get(registry.find(name).expect("stock backend"))
            .clone()
    };
    let conv = stock("conventional");
    let ann = stock("AE-inference");
    let spec = {
        let params = params.clone();
        move |traj: &Trajectory, seed: u64| OnlineLinkSpec {
            trajectory: traj.clone(),
            seed,
            params: params.clone(),
        }
    };
    let conv_spec = spec.clone();
    let frozen_spec = spec.clone();
    vec![
        DriftFamily {
            name: "static-conventional".to_string(),
            role: FamilyRole::Baseline,
            build: Box::new(move |traj, seed| {
                OnlineLink::fixed(
                    conv_spec(traj, seed),
                    conv.constellation().clone(),
                    Box::new(conv.demapper(es)),
                )
            }),
        },
        DriftFamily {
            name: "frozen-ann".to_string(),
            role: FamilyRole::Frozen,
            build: Box::new(move |traj, seed| {
                OnlineLink::fixed(
                    frozen_spec(traj, seed),
                    ann.constellation().clone(),
                    Box::new(ann.demapper(es)),
                )
            }),
        },
        DriftFamily {
            name: "adaptive-hybrid".to_string(),
            role: FamilyRole::Adaptive,
            build: Box::new(move |traj, seed| OnlineLink::adaptive(spec(traj, seed), pipe)),
        },
    ]
}

/// A full drift campaign: families × scenarios × independent links.
pub struct DriftCampaignSpec<'a> {
    /// Campaign label recorded in the artefact.
    pub name: String,
    /// Receiver families (matrix rows).
    pub families: Vec<DriftFamily<'a>>,
    /// Drift scenarios (matrix columns).
    pub scenarios: Vec<DriftScenario>,
    /// Independent links per (family, scenario) cell.
    pub links: u32,
    /// Shared link parameters (recorded in the artefact; the families
    /// built by [`drift_families`] use the same set).
    pub params: LinkParams,
    /// Base seed; per-link seeds are derived deterministically.
    pub seed: u64,
}

/// One retrain event of one link, as serialised in the artefact.
#[derive(Clone, Debug)]
pub struct RetrainEventRecord {
    /// Link index within the cell.
    pub link: u32,
    /// Frame at which the controller fired.
    pub trigger_frame: u64,
    /// Frame at which the retrained demapper entered the datapath.
    pub swap_frame: u64,
    /// Modelled retrain latency in frames.
    pub latency_frames: u64,
}

hybridem_mathkit::impl_json!(RetrainEventRecord {
    link,
    trigger_frame,
    swap_frame,
    latency_frames,
});

/// One (family, scenario) cell: per-frame statistics pooled across the
/// cell's links in link order.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// Family label.
    pub family: String,
    /// Family role (`"baseline"`, `"frozen"`, `"adaptive"`).
    pub(crate) role: String,
    /// Scenario label.
    pub trajectory: String,
    /// Scripted frames.
    pub frames: u64,
    /// Links pooled into this row.
    pub(crate) links: u32,
    /// Pre-drift baseline window length in frames.
    pub baseline_frames: u64,
    /// First post-disturbance frame.
    pub(crate) drift_end_frame: u64,
    /// The recovery expectation this row is validated against.
    pub(crate) expect_recovery: Option<bool>,
    /// Whether validation additionally requires ≥ 1 retrain event.
    pub(crate) expect_retrain: bool,
    /// Payload bits per frame, pooled across links.
    pub(crate) payload_bits_per_frame: u64,
    /// Pooled payload bit errors per frame.
    pub(crate) bit_errors: Vec<u64>,
    /// Pooled payload BER per frame (`bit_errors / payload bits`).
    pub(crate) ber: Vec<f64>,
    /// Pooled pilot BER per frame.
    pub(crate) pilot_ber: Vec<f64>,
    /// Mean bitwise MI per frame across links (link-order mean).
    pub(crate) mi: Vec<f64>,
    /// Every link's trigger→swap cycles.
    pub retrain_events: Vec<RetrainEventRecord>,
    /// Total retrains across the cell's links.
    pub retrains: u64,
}

hybridem_mathkit::impl_json!(DriftRow {
    family,
    role,
    trajectory,
    frames,
    links,
    baseline_frames,
    drift_end_frame,
    expect_recovery,
    expect_retrain,
    payload_bits_per_frame,
    bit_errors,
    ber,
    pilot_ber,
    mi,
    retrain_events,
    retrains,
});

impl DriftRow {
    /// Pooled payload BER over the frame window `[from, to)`.
    pub fn window_ber(&self, from: u64, to: u64) -> f64 {
        assert!(from <= to && to <= self.frames, "window out of range");
        let errors: u64 = self.bit_errors[from as usize..to as usize].iter().sum();
        error_rate(errors, self.payload_bits_per_frame * (to - from))
    }
}

/// Post-drift steady-state window (frames) used by the recovery
/// validation: the claim is judged on the *last* `RECOVERY_WINDOW`
/// frames of the row, i.e. recovery must complete within
/// `frames − drift_end_frame − RECOVERY_WINDOW` frames of the
/// disturbance ending.
pub const RECOVERY_WINDOW: u64 = 30;

/// The drift-runtime artefact (`drift_runtime.json`): execution
/// parameters + one row per (family, scenario) cell, JSON round-trip
/// and self-validation mirroring
/// [`hybridem_comm::campaign::CampaignReport`].
#[derive(Clone, Debug)]
pub struct DriftRuntimeReport {
    /// Campaign label.
    pub(crate) name: String,
    /// Base seed the artefact is a pure function of.
    pub(crate) seed: u64,
    /// Links per cell.
    pub links: u32,
    /// Symbols per frame.
    pub(crate) frame_symbols: u64,
    /// Pilot symbols per frame.
    pub(crate) pilot_symbols: u64,
    /// Modelled symbol rate (symbols/s) behind the latency accounting.
    pub(crate) symbol_rate: f64,
    /// Width of the recompiled integer deployments.
    pub(crate) deploy_bits: u32,
    /// One row per cell, in matrix order.
    pub rows: Vec<DriftRow>,
}

hybridem_mathkit::impl_json!(DriftRuntimeReport {
    name,
    seed,
    links,
    frame_symbols,
    pilot_symbols,
    symbol_rate,
    deploy_bits,
    rows,
});

impl DriftRuntimeReport {
    /// Schema/invariant validation of a (re-loaded) artefact: vector
    /// lengths match the frame count, rates are finite and consistent
    /// with their counts, events lie inside the stream. Returns the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.links == 0 {
            return Err("links must be positive".to_string());
        }
        if self.frame_symbols == 0 {
            return Err("frame_symbols must be positive".to_string());
        }
        for (i, r) in self.rows.iter().enumerate() {
            let ctx = |msg: String| format!("row {i} ({}/{}): {msg}", r.family, r.trajectory);
            for (label, len) in [
                ("bit_errors", r.bit_errors.len()),
                ("ber", r.ber.len()),
                ("pilot_ber", r.pilot_ber.len()),
                ("mi", r.mi.len()),
            ] {
                if len as u64 != r.frames {
                    return Err(ctx(format!(
                        "{label} has {len} entries for {} frames",
                        r.frames
                    )));
                }
            }
            if r.links != self.links {
                return Err(ctx("row link count differs from campaign".to_string()));
            }
            if r.payload_bits_per_frame == 0 {
                return Err(ctx("payload_bits_per_frame must be positive".to_string()));
            }
            for (f, (&e, &b)) in r.bit_errors.iter().zip(&r.ber).enumerate() {
                if e > r.payload_bits_per_frame {
                    return Err(ctx(format!("frame {f}: more errors than bits")));
                }
                let expect = e as f64 / r.payload_bits_per_frame as f64;
                if !b.is_finite() || (b - expect).abs() > 1e-12 {
                    return Err(ctx(format!(
                        "frame {f}: ber {b} inconsistent with count {e}"
                    )));
                }
            }
            if r.pilot_ber.iter().any(|x| !(0.0..=1.0).contains(x))
                || r.mi.iter().any(|x| !x.is_finite())
            {
                return Err(ctx("non-finite or out-of-range rate".to_string()));
            }
            if r.expect_recovery.is_some()
                && (r.baseline_frames == 0
                    || r.drift_end_frame + RECOVERY_WINDOW > r.frames
                    || r.baseline_frames > r.drift_end_frame)
            {
                return Err(ctx("windows do not fit the stream".to_string()));
            }
            if r.retrains != r.retrain_events.len() as u64 {
                return Err(ctx(
                    "retrains count disagrees with the event list".to_string()
                ));
            }
            for e in &r.retrain_events {
                if e.link >= r.links
                    || e.trigger_frame > e.swap_frame
                    || e.swap_frame >= r.frames
                    || e.swap_frame - e.trigger_frame != e.latency_frames
                {
                    return Err(ctx(format!("inconsistent retrain event {e:?}")));
                }
            }
        }
        Ok(())
    }

    /// Validates the drift claims themselves: every row carrying an
    /// expectation must (fail to) re-converge as scripted — the
    /// adaptive family within 2× of its pre-drift BER over the final
    /// [`RECOVERY_WINDOW`], a non-recovering frozen family at ≥ 4× —
    /// and rows flagged `expect_retrain` must log at least one
    /// trigger→swap cycle.
    pub fn validate_recovery(&self) -> Result<(), String> {
        for r in &self.rows {
            let ctx = |msg: String| format!("{}/{}: {msg}", r.family, r.trajectory);
            let Some(want) = r.expect_recovery else {
                continue;
            };
            // Same window bounds `validate()` enforces, re-checked
            // here so calling this gate alone on a malformed artefact
            // reports the violation instead of panicking.
            if r.baseline_frames == 0
                || r.baseline_frames > r.frames
                || r.frames < RECOVERY_WINDOW
                || r.bit_errors.len() as u64 != r.frames
            {
                return Err(ctx("windows do not fit the stream".to_string()));
            }
            let base = r.window_ber(0, r.baseline_frames);
            let post = r.window_ber(r.frames - RECOVERY_WINDOW, r.frames);
            if want {
                if post > 2.0 * base + 2e-3 {
                    return Err(ctx(format!(
                        "must re-converge: post-drift BER {post:.3e} vs baseline {base:.3e}"
                    )));
                }
            } else if post < 4.0 * base + 2e-3 {
                return Err(ctx(format!(
                    "must stay degraded: post-drift BER {post:.3e} vs baseline {base:.3e}"
                )));
            }
            if r.expect_retrain && r.retrains == 0 {
                return Err(ctx("expected at least one retrain event".to_string()));
            }
        }
        Ok(())
    }

    /// Renders one summary line per row as a Markdown table.
    pub fn markdown_table(&self) -> String {
        let mut s = String::from(
            "| Family | Trajectory | baseline BER | worst BER | final BER | retrains |\n\
             |---|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            let base = r.window_ber(0, r.baseline_frames.max(1));
            let worst = r.ber.iter().copied().fold(0.0f64, f64::max);
            let tail_from = r.frames.saturating_sub(RECOVERY_WINDOW.min(r.frames));
            let tail = r.window_ber(tail_from, r.frames);
            s.push_str(&format!(
                "| {} | {} | {:.3e} | {:.3e} | {:.3e} | {} |\n",
                r.family, r.trajectory, base, worst, tail, r.retrains
            ));
        }
        s
    }
}

fn link_seed(base: u64, family: usize, scenario: usize, link: u32) -> u64 {
    let cell = ((family as u64) << 42) | ((scenario as u64) << 21) | u64::from(link);
    SplitMix64::derive(base, cell)
}

/// Runs the campaign: every (family, scenario) cell runs its links
/// through [`par_for_each_mut`] (per-link seed, RNG stream and state)
/// and pools per-frame counts in link order, so the report is a pure
/// function of `(spec, seed)` — independent of `HYBRIDEM_THREADS`.
pub fn run_drift_campaign(spec: &DriftCampaignSpec<'_>) -> DriftRuntimeReport {
    assert!(!spec.families.is_empty(), "campaign needs ≥ 1 family");
    assert!(!spec.scenarios.is_empty(), "campaign needs ≥ 1 scenario");
    assert!(spec.links > 0, "campaign needs ≥ 1 link per cell");
    let mut rows = Vec::with_capacity(spec.families.len() * spec.scenarios.len());
    for (fi, family) in spec.families.iter().enumerate() {
        for (si, sc) in spec.scenarios.iter().enumerate() {
            let frames = sc.trajectory.total_frames() as usize;
            // Adaptive links are expensive to build (model-snapshot
            // restore, boundary calibration, graph compile), so
            // construction happens on the workers too — each slot is a
            // pure function of its index, preserving the
            // byte-identical artefact.
            // Each worker also records its link's per-frame payload
            // MI, which only this campaign reads.
            let mut links: Vec<Option<(OnlineLink, Vec<f64>)>> =
                (0..spec.links).map(|_| None).collect();
            par_for_each_mut(&mut links, |i, slot| {
                let seed = link_seed(spec.seed, fi, si, i as u32);
                let mut link = (family.build)(&sc.trajectory, seed);
                let mut mi = Vec::with_capacity(frames);
                while link.frames() < frames as u64 {
                    link.step();
                    mi.push(link.payload_mi());
                }
                *slot = Some((link, mi));
            });

            let mut bit_errors = vec![0u64; frames];
            let mut pilot_errors = vec![0u64; frames];
            let mut mi_sum = vec![0f64; frames];
            let mut payload_bits = 0u64;
            let mut pilot_bits = 0u64;
            let mut retrain_events = Vec::new();
            for (li, slot) in links.iter().enumerate() {
                let (link, mi) = slot.as_ref().expect("every worker built its link");
                assert_eq!(link.log().len(), frames, "link streamed the whole script");
                for (rec, &mi) in link.log().iter().zip(mi) {
                    let f = rec.frame as usize;
                    bit_errors[f] += rec.payload_bit_errors;
                    pilot_errors[f] += rec.pilot_bit_errors;
                    mi_sum[f] += mi;
                    if li == 0 && f == 0 {
                        payload_bits = rec.payload_bits * u64::from(spec.links);
                        pilot_bits = rec.pilot_bits * u64::from(spec.links);
                    }
                }
                for e in link.events() {
                    retrain_events.push(RetrainEventRecord {
                        link: li as u32,
                        trigger_frame: e.trigger_frame,
                        swap_frame: e.swap_frame,
                        latency_frames: e.latency_frames,
                    });
                }
            }
            let ber: Vec<f64> = bit_errors
                .iter()
                .map(|&e| error_rate(e, payload_bits))
                .collect();
            let pilot_ber: Vec<f64> = pilot_errors
                .iter()
                .map(|&e| error_rate(e, pilot_bits))
                .collect();
            let mi: Vec<f64> = mi_sum.iter().map(|&s| s / f64::from(spec.links)).collect();
            let expect_recovery = match family.role {
                FamilyRole::Baseline => None,
                FamilyRole::Frozen => sc.frozen_recovers,
                FamilyRole::Adaptive | FamilyRole::Equalized => sc.adaptive_recovers,
            };
            let expect_retrain = family.role == FamilyRole::Adaptive
                && sc.adaptive_recovers == Some(true)
                && sc.frozen_recovers == Some(false);
            rows.push(DriftRow {
                family: family.name.clone(),
                role: match family.role {
                    FamilyRole::Baseline => "baseline",
                    FamilyRole::Frozen => "frozen",
                    FamilyRole::Adaptive => "adaptive",
                    FamilyRole::Equalized => "equalized",
                }
                .to_string(),
                trajectory: sc.trajectory.name.clone(),
                frames: frames as u64,
                links: spec.links,
                baseline_frames: sc.baseline_frames,
                drift_end_frame: sc.drift_end_frame,
                expect_recovery,
                expect_retrain,
                payload_bits_per_frame: payload_bits,
                bit_errors,
                ber,
                pilot_ber,
                mi,
                retrains: retrain_events.len() as u64,
                retrain_events,
            });
        }
    }
    DriftRuntimeReport {
        name: spec.name.clone(),
        seed: spec.seed,
        links: spec.links,
        frame_symbols: spec.params.frame_symbols as u64,
        pilot_symbols: spec.params.pilot_symbols as u64,
        symbol_rate: SYMBOL_RATE,
        deploy_bits: DEPLOY_BITS,
        rows,
    }
}

// ---------------------------------------------------------------------
// Backend-switch campaign: one registry, many links, per-frame traces.
// ---------------------------------------------------------------------

/// A backend-switching campaign: independent `OnlineLink::switching`
/// links riding one scripted trajectory over one shared registry.
pub struct SwitchCampaignSpec {
    /// Campaign label recorded in the artefact.
    pub name: String,
    /// The backend line-up every link selects from.
    pub registry: Arc<BackendRegistry>,
    /// The scripted channel (shared by every link).
    pub trajectory: Trajectory,
    /// Independent links.
    pub links: u32,
    /// Shared link parameters.
    pub params: LinkParams,
    /// Shared switch policy.
    pub policy: SwitchPolicy,
    /// Base seed; per-link seeds are derived deterministically.
    pub seed: u64,
}

/// One backend switch of one link, as serialised in the artefact.
#[derive(Clone, Debug)]
pub struct SwitchEventRecord {
    /// Link index.
    pub link: u32,
    /// Frame whose evidence triggered the switch.
    pub frame: u64,
    /// Registry index demapping up to and including `frame`.
    pub from: u32,
    /// Registry index demapping from `frame + 1`.
    pub to: u32,
    /// The SNR estimate (Es/N0 dB) behind the decision.
    pub est_es_n0_db: f64,
    /// True when the switch moved to a cheaper backend.
    pub downshift: bool,
}

hybridem_mathkit::impl_json!(SwitchEventRecord {
    link,
    frame,
    from,
    to,
    est_es_n0_db,
    downshift,
});

/// One link of the backend-switch artefact: the per-frame backend
/// trace, per-frame payload errors, and the switch log.
#[derive(Clone, Debug)]
pub struct SwitchLinkRow {
    /// Link index.
    pub link: u32,
    /// `active[f]` = registry index that demapped frame `f`.
    pub active: Vec<u32>,
    /// Payload bit errors per frame.
    pub bit_errors: Vec<u64>,
    /// Switches to a cheaper backend.
    pub downshifts: u64,
    /// Switches to a costlier backend.
    pub upshifts: u64,
    /// The link's switch log, in frame order.
    pub events: Vec<SwitchEventRecord>,
}

hybridem_mathkit::impl_json!(SwitchLinkRow {
    link,
    active,
    bit_errors,
    downshifts,
    upshifts,
    events,
});

/// The backend-switch artefact (`backend_switch.json`): the registry's
/// backend table plus one row per link — a pure function of
/// `(spec, seed)`, byte-identical at any `HYBRIDEM_THREADS`.
#[derive(Clone, Debug)]
pub struct BackendSwitchReport {
    /// Campaign label.
    pub name: String,
    /// Base seed.
    pub seed: u64,
    /// Links in the campaign.
    pub links: u32,
    /// Scripted frames per link.
    pub frames: u64,
    /// Symbols per frame.
    pub frame_symbols: u64,
    /// Pilot symbols per frame (the SNR estimator's evidence).
    pub pilot_symbols: u64,
    /// The selection rule's BER target.
    pub ber_target: f64,
    /// Registry names, indexed by the `active`/`from`/`to` fields.
    pub backends: Vec<String>,
    /// Registry index selected at the policy's initial operating point.
    pub initial_backend: u32,
    /// One row per link, in link order.
    pub rows: Vec<SwitchLinkRow>,
    /// Total switches to cheaper backends across links.
    pub downshifts: u64,
    /// Total switches to costlier backends across links.
    pub upshifts: u64,
}

hybridem_mathkit::impl_json!(BackendSwitchReport {
    name,
    seed,
    links,
    frames,
    frame_symbols,
    pilot_symbols,
    ber_target,
    backends,
    initial_backend,
    rows,
    downshifts,
    upshifts,
});

impl BackendSwitchReport {
    /// Schema/invariant validation of a (re-loaded) artefact: trace
    /// and error vectors span the stream, every index resolves in the
    /// backend table, the trace is consistent with the event log
    /// (each event flips `active` at its frame boundary, nothing else
    /// does, and at most one trailing event decided on the last frame
    /// leaves the trace's last backend), and the shift counters match
    /// the events they summarise.
    pub fn validate(&self) -> Result<(), String> {
        if self.links == 0 {
            return Err("links must be positive".to_string());
        }
        if self.backends.is_empty() {
            return Err("backend table must not be empty".to_string());
        }
        if u64::from(self.initial_backend) >= self.backends.len() as u64 {
            return Err("initial_backend outside the backend table".to_string());
        }
        if self.rows.len() as u64 != u64::from(self.links) {
            return Err("one row per link required".to_string());
        }
        let (mut down, mut up) = (0u64, 0u64);
        for (i, r) in self.rows.iter().enumerate() {
            let ctx = |msg: String| format!("link {i}: {msg}");
            if r.link != i as u32 {
                return Err(ctx("rows must be in link order".to_string()));
            }
            if r.active.len() as u64 != self.frames || r.bit_errors.len() as u64 != self.frames {
                return Err(ctx("trace length differs from the stream".to_string()));
            }
            if r.active.first() != Some(&self.initial_backend) {
                return Err(ctx("trace must start on the initial backend".to_string()));
            }
            if r.active
                .iter()
                .any(|&a| u64::from(a) >= self.backends.len() as u64)
            {
                return Err(ctx("trace index outside the backend table".to_string()));
            }
            // An event of this link, decided on `frame`, leaving `from`
            // for another backend of the table on a finite estimate.
            let leaves = |e: &SwitchEventRecord, frame: u64, from: u32| {
                e.link == r.link
                    && e.frame == frame
                    && e.from == from
                    && e.to != from
                    && u64::from(e.to) < self.backends.len() as u64
                    && e.est_es_n0_db.is_finite()
            };
            let mut at = 0usize;
            for (f, w) in r.active.windows(2).enumerate() {
                if w[0] == w[1] {
                    continue;
                }
                let Some(e) = r.events.get(at) else {
                    return Err(ctx(format!("trace flips at frame {f} without an event")));
                };
                if !leaves(e, f as u64, w[0]) || e.to != w[1] {
                    return Err(ctx(format!("event {at} inconsistent with the trace")));
                }
                at += 1;
            }
            // At most one trailing event: a switch decided on the last
            // frame, which the stream ended before it demapped.
            let last = r.active[r.active.len() - 1];
            match &r.events[at..] {
                [] => {}
                [e] if leaves(e, self.frames - 1, last) => {}
                rest => return Err(ctx(format!("dangling events {rest:?}"))),
            }
            let rd = r.events.iter().filter(|e| e.downshift).count() as u64;
            let ru = r.events.len() as u64 - rd;
            if rd != r.downshifts || ru != r.upshifts {
                return Err(ctx("shift counters disagree with the event log".to_string()));
            }
            down += rd;
            up += ru;
        }
        if down != self.downshifts || up != self.upshifts {
            return Err("campaign shift totals disagree with the rows".to_string());
        }
        Ok(())
    }

    /// Validates the scenario's claim: the campaign exercised the
    /// cost ladder in **both** directions — at least one downshift
    /// and at least one upshift somewhere across the links.
    pub fn validate_switching(&self) -> Result<(), String> {
        if self.downshifts == 0 {
            return Err("expected ≥ 1 downshift to a cheaper backend".to_string());
        }
        if self.upshifts == 0 {
            return Err("expected ≥ 1 upshift back to a costlier backend".to_string());
        }
        Ok(())
    }

    /// Renders one summary line per link as a Markdown table.
    pub fn markdown_table(&self) -> String {
        let mut s = String::from(
            "| Link | switches | downshifts | upshifts | backends visited |\n|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            let mut visited: Vec<&str> = Vec::new();
            for &a in &r.active {
                let name = self.backends[a as usize].as_str();
                if visited.last() != Some(&name) {
                    visited.push(name);
                }
            }
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                r.link,
                r.events.len(),
                r.downshifts,
                r.upshifts,
                visited.join(" → ")
            ));
        }
        s
    }
}

/// Runs a backend-switch campaign: links run through
/// [`par_for_each_mut`] (per-link seed and state), rows are collected
/// in link order — the artefact is a pure function of `(spec, seed)`,
/// independent of `HYBRIDEM_THREADS`.
pub fn run_switch_campaign(spec: &SwitchCampaignSpec) -> BackendSwitchReport {
    assert!(spec.links > 0, "campaign needs ≥ 1 link");
    assert!(!spec.registry.is_empty(), "campaign needs ≥ 1 backend");
    let frames = spec.trajectory.total_frames();
    let initial = spec
        .registry
        .select_or_best(spec.policy.initial_es_n0_db, spec.policy.ber_target);
    // Each worker also records who demaps each of its link's frames:
    // the backend active before the frame's step.
    let mut links: Vec<Option<(OnlineLink, Vec<u32>)>> = (0..spec.links).map(|_| None).collect();
    par_for_each_mut(&mut links, |i, slot| {
        let link_spec = OnlineLinkSpec {
            trajectory: spec.trajectory.clone(),
            seed: link_seed(spec.seed, 0, 0, i as u32),
            params: spec.params.clone(),
        };
        let mut link = OnlineLink::switching(link_spec, spec.registry.clone(), spec.policy);
        let mut active = Vec::with_capacity(frames as usize);
        while link.frames() < frames {
            let backend = link.active_backend().expect("a switching link");
            active.push(backend.index() as u32);
            link.step();
        }
        *slot = Some((link, active));
    });
    let mut rows = Vec::with_capacity(spec.links as usize);
    let (mut downshifts, mut upshifts) = (0u64, 0u64);
    for (li, slot) in links.into_iter().enumerate() {
        let (link, active) = slot.expect("every worker built its link");
        assert_eq!(link.frames(), frames, "link streamed the whole script");
        let events: Vec<SwitchEventRecord> = link
            .switch_events()
            .iter()
            .map(|e| SwitchEventRecord {
                link: li as u32,
                frame: e.frame,
                from: e.from.index() as u32,
                to: e.to.index() as u32,
                est_es_n0_db: e.est_es_n0_db,
                downshift: e.downshift,
            })
            .collect();
        let down = events.iter().filter(|e| e.downshift).count() as u64;
        let up = events.len() as u64 - down;
        downshifts += down;
        upshifts += up;
        rows.push(SwitchLinkRow {
            link: li as u32,
            active,
            bit_errors: link.log().iter().map(|r| r.payload_bit_errors).collect(),
            downshifts: down,
            upshifts: up,
            events,
        });
    }
    BackendSwitchReport {
        name: spec.name.clone(),
        seed: spec.seed,
        links: spec.links,
        frames,
        frame_symbols: spec.params.frame_symbols as u64,
        pilot_symbols: spec.params.pilot_symbols as u64,
        ber_target: spec.policy.ber_target,
        backends: spec.registry.names(),
        initial_backend: initial.index() as u32,
        rows,
        downshifts,
        upshifts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Backend, BackendCost};
    use hybridem_comm::demapper::MaxLogMap;
    use hybridem_comm::snr::noise_sigma;
    use hybridem_mathkit::json::{FromJson, Json};

    /// Streams the whole scripted trajectory.
    fn run(link: &mut OnlineLink) {
        while link.frames() < link.spec().trajectory.total_frames() {
            link.step();
        }
    }

    fn noiseless_spec(frames: u64, seed: u64) -> OnlineLinkSpec {
        OnlineLinkSpec::new(
            Trajectory::constant("clean", ChannelState::clean(f64::INFINITY), frames),
            seed,
        )
    }

    fn qam_link(spec: OnlineLinkSpec) -> OnlineLink {
        let qam = Constellation::qam_gray(16);
        let demapper = MaxLogMap::new(qam.clone(), 0.14);
        OnlineLink::fixed(spec, qam, Box::new(demapper))
    }

    #[test]
    fn noiseless_fixed_link_is_error_free() {
        let mut link = qam_link(noiseless_spec(5, 3));
        assert_eq!(
            link.payload_mi().to_bits(),
            0.0f64.to_bits(),
            "no frame yet"
        );
        for _ in 0..5 {
            let rec = link.step();
            assert_eq!(rec.payload_bit_errors, 0);
            assert_eq!(rec.pilot_bit_errors, 0);
            assert_eq!(rec.payload_bits, (256 - 64) * 4);
            assert!(!rec.triggered);
            let mi = link.payload_mi();
            assert!(mi > 0.999, "clean LLRs carry the full bit: {mi}");
        }
        assert_eq!(link.frames(), 5);
        assert_eq!(link.log().len(), 5);
        assert!(link.events().is_empty());
        assert!(link.deployment().is_none());
    }

    #[test]
    fn fixed_link_replays_deterministically() {
        let run = || {
            let mut spec = noiseless_spec(4, 9);
            spec.trajectory = Trajectory::constant("awgn", ChannelState::clean(10.0), 4);
            let mut link = qam_link(spec);
            (0..4)
                .map(|_| {
                    let errors = link.step().payload_bit_errors;
                    (errors, link.payload_mi().to_bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn payload_mi_matches_an_estimator_over_the_frame_payload() {
        // The link's on-demand MI equals an estimator fed the payload
        // bits and LLRs of the same frame, run by hand from the same
        // seed: frame engine → the demapper's block call.
        let traj = Trajectory::constant("awgn", ChannelState::clean(8.0), 3);
        let spec = OnlineLinkSpec::new(traj.clone(), 12);
        let (n, p) = (spec.params.frame_symbols, spec.params.pilot_symbols);
        let qam = Constellation::qam_gray(16);
        let sigma = noise_sigma(8.0, 1.0) as f32;
        let demapper = MaxLogMap::new(qam.clone(), sigma);
        let mut engine = FrameEngine::new(traj, spec.seed, n, p, spec.params.monitor, 4);
        let mut llrs = vec![0.0f32; n * 4];
        let inner = MaxLogMap::new(qam.clone(), sigma);
        let mut link = OnlineLink::fixed(spec, qam.clone(), Box::new(inner));
        for _ in 0..3 {
            engine.generate(&qam);
            demapper.demap_block(engine.block(), &mut llrs);
            let mut want = BitwiseMiEstimator::new();
            for (&b, &l) in engine.tx_bits()[p * 4..].iter().zip(&llrs[p * 4..]) {
                want.push(b, l);
            }
            link.step();
            let mi = link.payload_mi();
            assert_eq!(mi.to_bits(), want.mi().to_bits());
            assert!(mi > 0.5 && mi < 0.999, "a noisy frame's MI: {mi}");
        }
    }

    #[test]
    fn ecc_monitor_decodes_cleanly_on_a_matched_link() {
        let mut spec = noiseless_spec(3, 5);
        spec.params.monitor = Monitor::Ecc;
        let mut link = qam_link(spec);
        run(&mut link);
        for rec in link.log() {
            assert_eq!(rec.payload_bit_errors, 0, "noiseless coded payload");
        }
    }

    #[test]
    fn pilot_only_frames_are_supported() {
        let mut spec = noiseless_spec(2, 1);
        spec.params.pilot_symbols = spec.params.frame_symbols;
        let mut link = qam_link(spec);
        for _ in 0..2 {
            let rec = link.step();
            assert_eq!(rec.payload_bits, 0);
            assert_eq!(rec.payload_bit_errors, 0);
            assert_eq!(link.payload_mi().to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "disagree on bits/symbol")]
    fn mismatched_widths_rejected() {
        let qam = Constellation::qam_gray(16);
        let wrong = MaxLogMap::new(Constellation::qam_gray(4), 0.1);
        let _ = OnlineLink::fixed(noiseless_spec(1, 0), qam, Box::new(wrong));
    }

    fn tiny_pipeline() -> HybridPipeline {
        // fast_test budgets land the hybrid at ≈ 3 % clean BER — good
        // enough to separate clean from π/4-broken with the loosened
        // thresholds below, cheap enough for debug-mode tests.
        let mut cfg = SystemConfig::fast_test();
        cfg.retrain_steps = 80;
        cfg.grid_n = 48;
        let mut pipe = HybridPipeline::new(cfg);
        let _ = pipe.e2e_train();
        let _ = pipe.extract_centroids();
        pipe
    }

    /// Thresholds sized for the weak test AE: clean (≈ 3 %) must not
    /// trigger, π/4-broken (≈ 25 %) must, on one frame of evidence.
    fn test_thresholds() -> AdaptThresholds {
        AdaptThresholds {
            ber_retrain: 0.12,
            ber_healthy: 0.05,
            min_observations: 256,
            ..AdaptThresholds::default()
        }
    }

    #[test]
    fn adaptive_link_triggers_on_phase_step_and_swaps() {
        let pipe = tiny_pipeline();
        let es = pipe.config().es_n0_db();
        let trajectory = Trajectory::new("step")
            .hold(4, ChannelState::clean(es))
            .hold(
                80,
                ChannelState::clean(es).with_phase(std::f32::consts::FRAC_PI_4),
            );
        let mut spec = OnlineLinkSpec::new(trajectory, 77);
        spec.params.thresholds = test_thresholds();
        let mut link = OnlineLink::adaptive(spec, &pipe);
        let probe = C32::new(0.55, -0.35);
        let before = link.deployment().unwrap().process_iq(probe);
        run(&mut link);
        assert!(!link.events().is_empty(), "π/4 step must trigger a retrain");
        let e = link.events()[0];
        assert!(e.trigger_frame >= 4, "no trigger on the clean prefix");
        assert!(e.latency_frames >= 1 && e.sim_time_s > 0.0);
        // The swap really replaced both demappers: the recompiled
        // integer deployment answers differently.
        let after = link.deployment().unwrap().process_iq(probe);
        assert_ne!(before, after, "deployment must be recompiled on swap");
        let broken = log_window_ber(&link, e.trigger_frame, e.trigger_frame + 1);
        let healed = log_window_ber(&link, link.frames() - 1, link.frames());
        assert!(
            healed < broken * 0.5,
            "retrained datapath must beat the stale one: {broken} → {healed}"
        );
    }

    #[test]
    fn log_only_action_records_triggers_without_retraining() {
        let pipe = tiny_pipeline();
        let es = pipe.config().es_n0_db();
        let trajectory = Trajectory::constant(
            "offset",
            ChannelState::clean(es).with_phase(std::f32::consts::FRAC_PI_4),
            40,
        );
        let mut spec = OnlineLinkSpec::new(trajectory, 13);
        spec.params.action = TriggerAction::LogOnly;
        spec.params.thresholds = test_thresholds();
        let mut link = OnlineLink::adaptive(spec, &pipe);
        while link.frames() < 40 && link.events().is_empty() {
            link.step();
        }
        assert!(!link.events().is_empty(), "offset must be detected");
        assert_eq!(link.events()[0].latency_frames, 0);
        // LogOnly never swaps: the stream stays broken.
        run(&mut link);
        assert!(log_window_ber(&link, link.frames() - 1, link.frames()) > 0.1);
    }

    #[test]
    fn adaptive_link_triggers_on_ecc_evidence_without_pilots() {
        // The paper's second monitor: no pilot overhead, the corrected
        // Viterbi flips of the coded payload are the evidence.
        let pipe = tiny_pipeline();
        let es = pipe.config().es_n0_db();
        let trajectory = Trajectory::new("step")
            .hold(4, ChannelState::clean(es))
            .hold(
                40,
                ChannelState::clean(es).with_phase(std::f32::consts::FRAC_PI_4),
            );
        let mut spec = OnlineLinkSpec::new(trajectory, 29);
        spec.params.pilot_symbols = 0;
        spec.params.monitor = Monitor::Ecc;
        spec.params.action = TriggerAction::LogOnly;
        spec.params.thresholds = test_thresholds();
        let mut link = OnlineLink::adaptive(spec, &pipe);
        run(&mut link);
        let first = link.events().first().expect("π/4 offset must trigger");
        assert!(first.trigger_frame >= 4, "triggered on the clean prefix");
        assert_eq!(first.latency_frames, 0);
        assert!(link.log().iter().all(|r| r.pilot_bits == 0));
    }

    #[test]
    fn drift_campaign_pools_links_and_round_trips_json() {
        use hybridem_mathkit::json::ToJson;
        let qam = Constellation::qam_gray(16);
        let sigma = 0.2f32;
        let scenarios = vec![DriftScenario {
            trajectory: Trajectory::constant("awgn", ChannelState::clean(12.0), 6),
            baseline_frames: 2,
            drift_end_frame: 2,
            adaptive_recovers: None,
            frozen_recovers: None,
        }];
        let qam2 = qam.clone();
        let families = vec![DriftFamily {
            name: "maxlog".to_string(),
            role: FamilyRole::Baseline,
            build: Box::new(move |traj, seed| {
                OnlineLink::fixed(
                    OnlineLinkSpec::new(traj.clone(), seed),
                    qam2.clone(),
                    Box::new(MaxLogMap::new(qam2.clone(), sigma)),
                )
            }),
        }];
        let spec = DriftCampaignSpec {
            name: "mini".to_string(),
            families,
            scenarios,
            links: 3,
            params: LinkParams::default(),
            seed: 11,
        };
        let report = run_drift_campaign(&spec);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.frames, 6);
        assert_eq!(row.payload_bits_per_frame, 3 * (256 - 64) * 4);
        report.validate().expect("artefact invariants");
        let text = report.to_json().to_string_pretty();
        let back = DriftRuntimeReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        back.validate().expect("reloaded artefact invariants");
        assert_eq!(back.to_json().to_string_pretty(), text);
    }

    #[test]
    fn link_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for f in 0..3 {
            for s in 0..5 {
                for l in 0..8 {
                    assert!(seen.insert(link_seed(7, f, s, l)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pilot monitoring needs pilot_symbols")]
    fn adaptive_pilot_monitor_without_pilots_rejected() {
        // An untrained pipeline is enough: extraction falls back to
        // the learned constellation, and the assert fires at build.
        let mut pipe = HybridPipeline::new(SystemConfig::fast_test());
        let _ = pipe.extract_centroids();
        let mut spec = noiseless_spec(1, 0);
        spec.params.pilot_symbols = 0;
        let _ = OnlineLink::adaptive(spec, &pipe);
    }

    /// A synthetic backend with a step-function BER model: meets any
    /// sane target at/above `ok_above_db`, hopeless below — gives the
    /// switching tests exact control of the selection threshold.
    struct FakeBackend {
        name: &'static str,
        tx: Constellation,
        cycles: f64,
        ok_above_db: f64,
    }

    impl Backend for FakeBackend {
        fn name(&self) -> &str {
            self.name
        }
        fn constellation(&self) -> &Constellation {
            &self.tx
        }
        fn demapper(&self, es_n0_db: f64) -> Arc<dyn Demapper> {
            Arc::new(MaxLogMap::new(
                self.tx.clone(),
                noise_sigma(es_n0_db, 1.0) as f32,
            ))
        }
        fn cost(&self, _es_n0_db: f64) -> BackendCost {
            BackendCost {
                cycles_per_symbol: self.cycles,
                energy_per_symbol_j: 1e-9 * self.cycles,
            }
        }
        fn predicted_ber(&self, es_n0_db: f64) -> f64 {
            if es_n0_db >= self.ok_above_db {
                1e-3
            } else {
                1.0
            }
        }
    }

    /// Two-entry registry: an always-accurate 16-cycle fallback and a
    /// 2-cycle backend that only works from 15 dB Es/N0 up.
    fn fake_registry() -> Arc<BackendRegistry> {
        let qam = Constellation::qam_gray(16);
        let mut reg = BackendRegistry::new();
        reg.register(Arc::new(FakeBackend {
            name: "precise",
            tx: qam.clone(),
            cycles: 16.0,
            ok_above_db: f64::NEG_INFINITY,
        }));
        reg.register(Arc::new(FakeBackend {
            name: "cheap",
            tx: qam,
            cycles: 2.0,
            ok_above_db: 15.0,
        }));
        Arc::new(reg)
    }

    fn switch_policy() -> SwitchPolicy {
        SwitchPolicy {
            ber_target: 1e-2,
            window_frames: 4,
            min_dwell_frames: 4,
            initial_es_n0_db: 10.0,
        }
    }

    fn up_down_trajectory() -> Trajectory {
        Trajectory::new("up-down")
            .hold(15, ChannelState::clean(10.0))
            .hold(30, ChannelState::clean(20.0))
            .hold(30, ChannelState::clean(10.0))
    }

    #[test]
    fn switching_link_rides_the_snr_ramp_both_ways() {
        let reg = fake_registry();
        let precise = reg.find("precise").unwrap();
        let cheap = reg.find("cheap").unwrap();
        let spec = OnlineLinkSpec::new(up_down_trajectory(), 21);
        let frames = spec.trajectory.total_frames();
        let mut link = OnlineLink::switching(spec, reg, switch_policy());
        assert_eq!(link.active_backend(), Some(precise));
        // Who demaps each frame: the backend active before its step,
        // and the demapper the step installed and ran.
        let mut trace = Vec::new();
        let mut live = Vec::new();
        while link.frames() < frames {
            trace.extend(link.active_backend());
            link.step();
            live.push(Arc::clone(link.demapper()));
        }
        let events = link.switch_events();
        assert!(events.len() >= 2, "one switch each way: {events:?}");
        let down = events.iter().find(|e| e.downshift).expect("a downshift");
        assert_eq!((down.from, down.to), (precise, cheap));
        assert!(down.est_es_n0_db >= 15.0, "downshift needs SNR headroom");
        let up = events.iter().find(|e| !e.downshift).expect("an upshift");
        assert_eq!((up.from, up.to), (cheap, precise));
        assert!(up.frame > down.frame, "upshift follows the SNR drop");
        // Trace bookkeeping: who demapped each frame, switch visible
        // one frame after its decision.
        assert_eq!(trace.len() as u64, link.frames());
        assert_eq!(trace[down.frame as usize], precise);
        assert_eq!(trace[down.frame as usize + 1], cheap);
        assert!(link.log()[down.frame as usize].triggered);
        // The selected backend's demapper goes live on the frame after
        // each decision, and on no other frame.
        for f in 1..live.len() {
            let swapped = !Arc::ptr_eq(&live[f], &live[f - 1]);
            let decided = events.iter().any(|e| e.frame as usize + 1 == f);
            assert_eq!(swapped, decided, "frame {f}");
        }
        assert!(link.events().is_empty(), "no retrain events on switching");
        assert!(link.deployment().is_none());
    }

    fn log_window_ber(link: &OnlineLink, from: u64, to: u64) -> f64 {
        let (mut bits, mut errs) = (0u64, 0u64);
        for r in &link.log()[from as usize..to as usize] {
            bits += r.payload_bits;
            errs += r.payload_bit_errors;
        }
        errs as f64 / bits as f64
    }

    #[test]
    fn equalized_link_reconverges_blind_where_fixed_stays_broken() {
        // The isi-onset scenario attaches no recovery claims to the
        // memoryless families; the equalized receiver is the one that
        // earns them — with zero pilot symbols.
        let es = 12.0;
        let sc = drift_suite(es)
            .into_iter()
            .find(|s| s.trajectory.name == "isi-onset")
            .expect("isi-onset in the suite");
        let qam = Constellation::qam_gray(4);
        let sigma = noise_sigma(es, 1.0) as f32;
        let params = LinkParams {
            pilot_symbols: 0, // fully blind
            ..Default::default()
        };
        let spec = OnlineLinkSpec {
            trajectory: sc.trajectory.clone(),
            seed: 9,
            params,
        };
        let mut eq = OnlineLink::equalized(
            spec.clone(),
            qam.clone(),
            Box::new(MaxLogMap::new(qam.clone(), sigma)),
            EqualizerConfig::default(),
        );
        run(&mut eq);
        let mut fixed = OnlineLink::fixed(spec, qam.clone(), Box::new(MaxLogMap::new(qam, sigma)));
        run(&mut fixed);
        let frames = eq.frames();
        let base = log_window_ber(&eq, 0, sc.baseline_frames);
        let eq_post = log_window_ber(&eq, frames - RECOVERY_WINDOW, frames);
        let fixed_post = log_window_ber(&fixed, frames - RECOVERY_WINDOW, frames);
        assert!(
            eq_post <= 2.0 * base + 2e-3,
            "equalized link failed to re-converge: base {base:.2e}, post {eq_post:.2e}"
        );
        assert!(
            fixed_post >= 4.0 * base + 2e-3,
            "unequalized link unexpectedly fine: base {base:.2e}, post {fixed_post:.2e}"
        );
        // The blind loop acquired: CMA handed off to decision-directed
        // tracking by the end of the stream.
        let trace = eq.equalizer_mode_trace();
        assert_eq!(trace.len() as u64, frames);
        assert_eq!(*trace.last().unwrap(), EqualizerMode::DecisionDirected);
        assert!(eq.events().is_empty() && eq.switch_events().is_empty());
    }

    #[test]
    fn equalized_link_is_a_pure_function_of_spec_and_seed() {
        let qam = Constellation::qam_gray(4);
        let traj = Trajectory::constant(
            "isi",
            ChannelState::clean(12.0).with_taps(Taps::two_ray(0.4, 0.35, 1)),
            25,
        );
        let run = || {
            let params = LinkParams {
                pilot_symbols: 32, // exercise the supervised path too
                ..Default::default()
            };
            let spec = OnlineLinkSpec {
                trajectory: traj.clone(),
                seed: 4,
                params,
            };
            let mut link = OnlineLink::equalized(
                spec,
                qam.clone(),
                Box::new(MaxLogMap::new(qam.clone(), noise_sigma(12.0, 1.0) as f32)),
                EqualizerConfig::default(),
            );
            run(&mut link);
            link.log()
                .iter()
                .map(|r| (r.payload_bit_errors, r.pilot_bit_errors))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn equalized_link_frame_matches_the_hand_run_stages() {
        // One frame of an equalized link with pilots equals the stages
        // run by hand from the same seed: frame engine → LMS training
        // on the pilots → blind equalization of the payload → the
        // inner demapper's block call.
        let qam = Constellation::qam_gray(4);
        let sigma = noise_sigma(12.0, 1.0) as f32;
        let traj = Trajectory::constant(
            "isi",
            ChannelState::clean(12.0).with_taps(Taps::two_ray(0.4, 0.35, 1)),
            1,
        );
        let spec = OnlineLinkSpec {
            trajectory: traj.clone(),
            seed: 6,
            params: LinkParams {
                pilot_symbols: 32,
                ..Default::default()
            },
        };
        let (n, p) = (spec.params.frame_symbols, spec.params.pilot_symbols);
        let mut engine = FrameEngine::new(traj, spec.seed, n, p, spec.params.monitor, 2);
        engine.generate(&qam);
        let pilots: Vec<C32> = engine.tx_symbols()[..p]
            .iter()
            .map(|&u| qam.point(u))
            .collect();
        let mut eq = AdaptiveEqualizer::new(qam.clone(), EqualizerConfig::default());
        let block = engine.block_mut();
        eq.train(&mut block[..p], &pilots);
        eq.equalize(&mut block[p..]);
        let mut llrs = vec![0.0f32; n * 2];
        MaxLogMap::new(qam.clone(), sigma).demap_block(engine.block(), &mut llrs);
        let want = engine.count_errors(&llrs);

        let mut link = OnlineLink::equalized(
            spec,
            qam.clone(),
            Box::new(MaxLogMap::new(qam, sigma)),
            EqualizerConfig::default(),
        );
        let rec = link.step().clone();
        assert_eq!(
            (rec.pilot_bit_errors, rec.payload_bit_errors),
            (want.pilot, want.payload)
        );
        assert!(
            want.pilot + want.payload > 0,
            "the echo leaves errors to compare"
        );
        assert_eq!(link.equalizer_mode_trace(), [eq.mode()]);
    }

    #[test]
    fn phase_offset_does_not_masquerade_as_noise_in_snr_estimate() {
        // Regression: the estimator once accumulated raw Σ|y−x|², so a
        // noiseless π/4-rotated link measured |e^{jπ/4}−1|²·Es of fake
        // "noise" (≈ 2.3 dB Es/N0) and pinned itself to the accurate
        // backend. With the one-tap LS derotation the same link is
        // error-free: the estimate saturates at the policy ceiling and
        // the selection downshifts to the cheap backend.
        let reg = fake_registry();
        let precise = reg.find("precise").unwrap();
        let cheap = reg.find("cheap").unwrap();
        let traj = Trajectory::constant(
            "pure-phase",
            ChannelState::clean(f64::INFINITY).with_phase(std::f32::consts::FRAC_PI_4),
            30,
        );
        let mut link = OnlineLink::switching(OnlineLinkSpec::new(traj, 33), reg, switch_policy());
        assert_eq!(link.active_backend(), Some(precise));
        run(&mut link);
        let down = link
            .switch_events()
            .iter()
            .find(|e| e.downshift)
            .expect("noiseless rotated link must earn the cheap backend");
        assert_eq!((down.from, down.to), (precise, cheap));
        assert_eq!(
            down.est_es_n0_db, ES_CEIL_DB,
            "noiseless link must estimate at the policy ceiling, not a \
             rotation-inflated floor"
        );
    }

    #[test]
    fn switch_campaign_round_trips_json_and_is_deterministic() {
        use hybridem_mathkit::json::ToJson;
        let run = || {
            let spec = SwitchCampaignSpec {
                name: "mini-switch".to_string(),
                registry: fake_registry(),
                trajectory: up_down_trajectory(),
                links: 3,
                params: LinkParams::default(),
                policy: switch_policy(),
                seed: 5,
            };
            run_switch_campaign(&spec)
        };
        let report = run();
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.frames, 75);
        assert_eq!(report.backends, vec!["precise", "cheap"]);
        assert_eq!(report.initial_backend, 0);
        report.validate().expect("artefact invariants");
        report.validate_switching().expect("both shift directions");
        let text = report.to_json().to_string_pretty();
        let back = BackendSwitchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        back.validate().expect("reloaded artefact invariants");
        assert_eq!(back.to_json().to_string_pretty(), text);
        assert_eq!(run().to_json().to_string_pretty(), text, "pure function");
        let md = report.markdown_table();
        assert!(md.contains("precise → cheap → precise"), "{md}");
    }

    #[test]
    fn switch_validate_rejects_trace_event_mismatch() {
        let report = run_switch_campaign(&SwitchCampaignSpec {
            name: "tamper".to_string(),
            registry: fake_registry(),
            trajectory: up_down_trajectory(),
            links: 1,
            params: LinkParams::default(),
            policy: switch_policy(),
            seed: 5,
        });
        let mut tampered = report.clone();
        tampered.rows[0].events.clear();
        tampered.rows[0].downshifts = 0;
        tampered.rows[0].upshifts = 0;
        tampered.downshifts = 0;
        tampered.upshifts = 0;
        let err = tampered.validate().unwrap_err();
        assert!(err.contains("without an event"), "{err}");
    }

    #[test]
    fn switch_validate_checks_a_trailing_event_like_a_flip() {
        let report = run_switch_campaign(&SwitchCampaignSpec {
            name: "tamper".to_string(),
            registry: fake_registry(),
            trajectory: up_down_trajectory(),
            links: 1,
            params: LinkParams::default(),
            policy: switch_policy(),
            seed: 5,
        });
        let row = &report.rows[0];
        assert!(row.events.iter().all(|e| e.frame + 1 < report.frames));
        let last = *row.active.last().unwrap();
        // A switch decided on the last frame, away from the trace's
        // last backend: valid once the counters include it.
        let with_trailing = |e: SwitchEventRecord| {
            let mut r = report.clone();
            r.rows[0].events.push(e);
            r.rows[0].upshifts += 1;
            r.upshifts += 1;
            r
        };
        let trailing = SwitchEventRecord {
            link: 0,
            frame: report.frames - 1,
            from: last,
            to: 1 - last,
            est_es_n0_db: 3.0,
            downshift: false,
        };
        with_trailing(trailing.clone())
            .validate()
            .expect("a trailing switch is valid");
        let tampered = [
            SwitchEventRecord {
                to: 2,
                ..trailing.clone()
            },
            SwitchEventRecord {
                link: 1,
                ..trailing.clone()
            },
            SwitchEventRecord {
                from: 1 - last,
                to: last,
                ..trailing.clone()
            },
            SwitchEventRecord {
                est_es_n0_db: f64::NAN,
                ..trailing.clone()
            },
        ];
        for e in tampered {
            let err = with_trailing(e.clone()).validate().unwrap_err();
            assert!(err.contains("dangling"), "{e:?}: {err}");
        }
        // Two trailing events: the stream ends after one decision.
        let mut twice = with_trailing(trailing.clone());
        twice.rows[0].events.push(SwitchEventRecord {
            from: 1 - last,
            to: last,
            ..trailing
        });
        twice.rows[0].upshifts += 1;
        twice.upshifts += 1;
        let err = twice.validate().unwrap_err();
        assert!(err.contains("dangling"), "{err}");
    }

    #[test]
    #[should_panic(expected = "needs pilot_symbols > 0")]
    fn switching_without_pilots_rejected() {
        let mut spec = OnlineLinkSpec::new(up_down_trajectory(), 0);
        spec.params.pilot_symbols = 0;
        let _ = OnlineLink::switching(spec, fake_registry(), switch_policy());
    }

    #[test]
    #[should_panic(expected = "must preserve the transmit constellation")]
    fn switching_rejects_mixed_constellations() {
        // A switch may only change the demapper: an entry whose points
        // differ from the transmitted ones would demap symbols the
        // transmitter never sent.
        let qam = Constellation::qam_gray(16);
        let mut reg = BackendRegistry::new();
        reg.register(Arc::new(FakeBackend {
            name: "precise",
            tx: qam.clone(),
            cycles: 16.0,
            ok_above_db: f64::NEG_INFINITY,
        }));
        reg.register(Arc::new(FakeBackend {
            name: "rotated",
            tx: qam.rotated(0.3),
            cycles: 2.0,
            ok_above_db: 15.0,
        }));
        let spec = OnlineLinkSpec::new(up_down_trajectory(), 0);
        let _ = OnlineLink::switching(spec, Arc::new(reg), switch_policy());
    }

    #[test]
    fn validate_recovery_reports_malformed_windows_instead_of_panicking() {
        // A row with a recovery claim but fewer frames than the
        // recovery window must yield Err from the claim gate alone
        // (no prior validate() call).
        let report = DriftRuntimeReport {
            name: "bad".to_string(),
            seed: 0,
            links: 1,
            frame_symbols: 256,
            pilot_symbols: 64,
            symbol_rate: 1e6,
            deploy_bits: 8,
            rows: vec![DriftRow {
                family: "adaptive-hybrid".to_string(),
                role: "adaptive".to_string(),
                trajectory: "truncated".to_string(),
                frames: 5,
                links: 1,
                baseline_frames: 2,
                drift_end_frame: 2,
                expect_recovery: Some(true),
                expect_retrain: false,
                payload_bits_per_frame: 768,
                bit_errors: vec![0; 5],
                ber: vec![0.0; 5],
                pilot_ber: vec![0.0; 5],
                mi: vec![0.0; 5],
                retrain_events: Vec::new(),
                retrains: 0,
            }],
        };
        let err = report.validate_recovery().unwrap_err();
        assert!(err.contains("windows do not fit"), "{err}");
    }
}
