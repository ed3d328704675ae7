//! Runtime demapper backend registry (DESIGN.md §13).
//!
//! The paper's central claim is that the *choice* of demapper —
//! conventional max-log, exact log-MAP, float ANN, hybrid centroids,
//! quantized MVAU graph, or an event-driven/spiking implementation —
//! is a cost/quality trade-off that should be made per operating
//! point, not at compile time. This module turns that choice into a
//! first-class runtime object: a [`Backend`] bundles a demapper
//! constructor with a per-symbol **cost model** (cycles and energy,
//! derived from the `fpga` resource/power model) and a **predicted
//! BER curve**, and a [`BackendRegistry`] makes the whole line-up
//! enumerable and selectable by one rule:
//!
//! > pick the *cheapest* registered backend whose predicted BER at
//! > the current SNR estimate meets the link's target
//! > ([`BackendRegistry::select`]).
//!
//! Campaigns ([`crate::eval::campaign_families`]), the drift runtime
//! ([`crate::runtime`], the `SwitchBackend` adaptation action) and the
//! serving fabric (one [`crate::server::LinkServer::register_backend`]
//! per entry) all draw on the same registry instead of hand-built
//! lists.
//!
//! Cost is cycles-per-symbol first (initiation interval of the
//! modelled hardware pipeline), energy-per-symbol second
//! (`fpga::power::PowerModel` over the structural
//! `fpga::resources::ResourceUsage` estimate), registration order
//! third. Every stock backend's cycle curve is *non-increasing* in
//! SNR (clocked datapaths are flat; event-driven ones get cheaper as
//! spike activity falls), which makes selection monotone: a higher
//! SNR never selects a more expensive backend for the same BER target
//! (pinned by a property test).

use crate::demapper_ann::NeuralDemapper;
use crate::hybrid::HybridDemapper;
use crate::pipeline::HybridPipeline;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, ExactLogMap, MaxLogMap};
use hybridem_comm::snr::noise_sigma;
use hybridem_comm::theory::ber_qam_gray_approx;
use hybridem_fpga::demapper_accel::{SoftDemapperAccel, SoftDemapperConfig};
use hybridem_fpga::graph::QuantizedGraph;
use hybridem_fpga::mvau::Folding;
use hybridem_fpga::power::PowerModel;
use hybridem_fpga::resources::ResourceUsage;
use hybridem_mathkit::complex::C32;
use hybridem_nn::model::{LayerSnapshot, Sequential};
use std::sync::Arc;

/// Per-symbol cost of running a backend at one operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackendCost {
    /// Steady-state initiation interval: cycles between symbols.
    pub cycles_per_symbol: f64,
    /// Energy per demapped symbol in joules (power model over the
    /// structural resource estimate at the modelled clock).
    pub(crate) energy_per_symbol_j: f64,
}

impl BackendCost {
    /// Strict-weak cost order: cycles first, energy as tie-break.
    /// `NaN`-free by construction (both fields come from finite
    /// resource/timing models).
    pub fn cheaper_than(&self, other: &BackendCost) -> bool {
        if self.cycles_per_symbol != other.cycles_per_symbol {
            return self.cycles_per_symbol < other.cycles_per_symbol;
        }
        self.energy_per_symbol_j < other.energy_per_symbol_j
    }
}

/// One registered demapper implementation family.
///
/// The SNR axis of every method is **Es/N0 in dB** (per-symbol SNR);
/// callers sweeping the paper's Eb/N0 axis convert first
/// (`hybridem_comm::snr::ebn0_to_esn0_db`).
pub trait Backend: Send + Sync {
    /// Unique registry name (artefact label).
    fn name(&self) -> &str;

    /// Transmit constellation this backend demaps.
    fn constellation(&self) -> &Constellation;

    /// Constructs the demapper for one operating point. SNR-agnostic
    /// backends (a trained ANN, a compiled integer graph) return a
    /// shared handle; noise-matched ones (max-log, hybrid) build with
    /// σ derived from `es_n0_db` at unit symbol energy.
    fn demapper(&self, es_n0_db: f64) -> Arc<dyn Demapper>;

    /// Per-symbol cost at one operating point. Stock backends keep
    /// this non-increasing in SNR so registry selection is monotone.
    fn cost(&self, es_n0_db: f64) -> BackendCost;

    /// Modelled BER at one operating point: the Gray-QAM reference
    /// curve shifted by a per-family implementation penalty. Strictly
    /// decreasing in SNR, which makes it invertible by the SNR
    /// estimators in [`crate::runtime`].
    fn predicted_ber(&self, es_n0_db: f64) -> f64;
}

/// Handle of a registered backend: a dense index into the registry,
/// stable for the registry's lifetime. Artefacts store the raw index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendHandle(u32);

impl BackendHandle {
    /// Dense registry index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An ordered, name-unique collection of [`Backend`]s.
#[derive(Clone, Default)]
pub struct BackendRegistry {
    entries: Vec<Arc<dyn Backend>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a backend and returns its handle.
    ///
    /// # Panics
    /// Panics on a duplicate name: names are artefact labels and
    /// selection tie-breaks, so they must be unique.
    pub(crate) fn register(&mut self, backend: Arc<dyn Backend>) -> BackendHandle {
        assert!(
            self.find(backend.name()).is_none(),
            "backend name {:?} already registered",
            backend.name()
        );
        let h = BackendHandle(u32::try_from(self.entries.len()).expect("registry fits u32"));
        self.entries.push(backend);
        h
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The backend behind a handle.
    pub fn get(&self, handle: BackendHandle) -> &Arc<dyn Backend> {
        &self.entries[handle.index()]
    }

    /// Registration-order iteration.
    pub fn iter(&self) -> impl Iterator<Item = (BackendHandle, &Arc<dyn Backend>)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, b)| (BackendHandle(i as u32), b))
    }

    /// Registration-order names (artefact backend table).
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|b| b.name().to_string()).collect()
    }

    /// Looks a backend up by name.
    pub fn find(&self, name: &str) -> Option<BackendHandle> {
        self.entries
            .iter()
            .position(|b| b.name() == name)
            .map(|i| BackendHandle(i as u32))
    }

    /// The selection rule: the cheapest backend (cycles, then energy,
    /// then registration order) whose predicted BER at `es_n0_db`
    /// meets `ber_target`. `None` when no backend meets the target.
    pub fn select(&self, es_n0_db: f64, ber_target: f64) -> Option<BackendHandle> {
        let mut best: Option<(BackendHandle, BackendCost)> = None;
        for (h, b) in self.iter() {
            if b.predicted_ber(es_n0_db) > ber_target {
                continue;
            }
            let c = b.cost(es_n0_db);
            if best.as_ref().is_none_or(|(_, bc)| c.cheaper_than(bc)) {
                best = Some((h, c));
            }
        }
        best.map(|(h, _)| h)
    }

    /// [`BackendRegistry::select`] with a graceful floor: when no
    /// backend meets the target, falls back to the most accurate one
    /// (lowest predicted BER, first registered on ties) — a link
    /// below every backend's operating region should run the best
    /// demapper available, not none.
    ///
    /// # Panics
    /// Panics on an empty registry.
    pub fn select_or_best(&self, es_n0_db: f64, ber_target: f64) -> BackendHandle {
        assert!(!self.is_empty(), "selection over an empty registry");
        if let Some(h) = self.select(es_n0_db, ber_target) {
            return h;
        }
        let mut best = BackendHandle(0);
        let mut best_ber = f64::INFINITY;
        for (h, b) in self.iter() {
            let ber = b.predicted_ber(es_n0_db);
            if ber < best_ber {
                best = h;
                best_ber = ber;
            }
        }
        best
    }
}

/// Reference BER curve used by every stock backend: the closed-form
/// Gray-QAM approximation at the backend's constellation order
/// (non-square orders fall back to 16-QAM — the paper's operating
/// order), shifted right by the family's implementation penalty.
fn reference_ber(order: usize, es_n0_db: f64, penalty_db: f64) -> f64 {
    let order = match order {
        4 | 16 | 64 | 256 => order,
        _ => 16,
    };
    ber_qam_gray_approx(order, es_n0_db - penalty_db)
}

/// Per-dimension noise σ at unit symbol energy — the workspace-wide
/// convention for matching a demapper to an Es/N0 operating point.
fn sigma_at(es_n0_db: f64) -> f32 {
    noise_sigma(es_n0_db, 1.0) as f32
}

type BuildFn = dyn Fn(f64) -> Arc<dyn Demapper> + Send + Sync;
type CurveFn = dyn Fn(f64) -> f64 + Send + Sync;

/// The stock [`Backend`] implementation: a demapper constructor plus
/// a structural cost model. Clocked datapaths have an SNR-independent
/// cycle count at full toggle activity; event-driven ones supply
/// cycle/activity curves that fall with SNR.
pub(crate) struct ModelBackend {
    name: String,
    constellation: Constellation,
    build: Box<BuildFn>,
    penalty_db: f64,
    usage: ResourceUsage,
    clock_mhz: f64,
    cycles: Box<CurveFn>,
    activity: Box<CurveFn>,
}

impl ModelBackend {
    /// A clocked (always-toggling) backend with a flat cycle count.
    pub(crate) fn clocked(
        name: impl Into<String>,
        constellation: Constellation,
        build: Box<BuildFn>,
        penalty_db: f64,
        usage: ResourceUsage,
        clock_mhz: f64,
        cycles_per_symbol: f64,
    ) -> Self {
        assert!(cycles_per_symbol >= 1.0, "a symbol costs at least a cycle");
        Self {
            name: name.into(),
            constellation,
            build,
            penalty_db,
            usage,
            clock_mhz,
            cycles: Box::new(move |_| cycles_per_symbol),
            activity: Box::new(|_| 1.0),
        }
    }

    /// An event-driven backend: cycles and toggle activity are curves
    /// of the operating SNR (both should be non-increasing so the
    /// registry's selection monotonicity holds).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn event_driven(
        name: impl Into<String>,
        constellation: Constellation,
        build: Box<BuildFn>,
        penalty_db: f64,
        usage: ResourceUsage,
        clock_mhz: f64,
        cycles: Box<CurveFn>,
        activity: Box<CurveFn>,
    ) -> Self {
        Self {
            name: name.into(),
            constellation,
            build,
            penalty_db,
            usage,
            clock_mhz,
            cycles,
            activity,
        }
    }
}

impl Backend for ModelBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn demapper(&self, es_n0_db: f64) -> Arc<dyn Demapper> {
        (self.build)(es_n0_db)
    }

    fn cost(&self, es_n0_db: f64) -> BackendCost {
        let cycles = (self.cycles)(es_n0_db).max(1.0);
        let activity = (self.activity)(es_n0_db).clamp(1e-3, 1.0);
        let throughput = self.clock_mhz * 1e6 / cycles;
        let energy = PowerModel::default().energy_per_symbol_j(
            &self.usage,
            self.clock_mhz,
            activity,
            throughput,
        );
        BackendCost {
            cycles_per_symbol: cycles,
            energy_per_symbol_j: energy,
        }
    }

    fn predicted_ber(&self, es_n0_db: f64) -> f64 {
        reference_ber(self.constellation.size(), es_n0_db, self.penalty_db)
    }
}

/// Event-driven (spiking) demapper stub: max-log soft metrics read out
/// through a rate-coded spike counter. Each LLR is accumulated as a
/// signed spike count over `levels` timesteps, so the output is the
/// max-log LLR quantised to `2·levels + 1` values with saturation at
/// `±llr_clip` — the precision/latency trade-off of SNN readouts
/// (arXiv 2409.08698). Deterministic and thread-count independent:
/// quantisation is a pure elementwise map over the max-log block
/// kernel's bit-exact output.
pub(crate) struct SpikingDemapper {
    inner: MaxLogMap,
    step: f32,
    llr_clip: f32,
}

impl SpikingDemapper {
    /// Spiking readout over `centroids` at noise σ with `levels`
    /// accumulation timesteps per bit and saturation at `llr_clip`.
    pub(crate) fn new(centroids: Constellation, sigma: f32, levels: u32, llr_clip: f32) -> Self {
        assert!(levels >= 1, "at least one accumulation timestep");
        assert!(llr_clip > 0.0, "spike saturation must be positive");
        Self {
            inner: MaxLogMap::new(centroids, sigma),
            step: llr_clip / levels as f32,
            llr_clip,
        }
    }

    #[inline]
    fn quantize(&self, l: f32) -> f32 {
        (l.clamp(-self.llr_clip, self.llr_clip) / self.step).round() * self.step
    }
}

impl Demapper for SpikingDemapper {
    fn bits_per_symbol(&self) -> usize {
        self.inner.bits_per_symbol()
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        self.inner.demap_block(ys, out);
        for l in out.iter_mut() {
            *l = self.quantize(*l);
        }
    }
}

/// Rule-of-thumb fabric footprint of one pipelined f32 multiply-add
/// unit (DSP-mapped mantissa multiplier plus alignment/normalisation
/// logic) — the unit cell of the float cost models below.
fn float_mac() -> ResourceUsage {
    ResourceUsage {
        lut: 800,
        ff: 600,
        dsp: 2,
        bram36: 0.0,
    }
}

/// Fabric clock every float/event-driven cost model is quoted at —
/// the paper's 150 MHz operating point.
const MODEL_CLOCK_MHZ: f64 = 150.0;

/// Implementation penalties (dB right-shift of the reference BER
/// curve) per stock family. Calibrated to the paper's ordering: exact
/// beats max-log by a hair, the float ANN and hybrid centroids sit
/// within half a dB, quantisation costs grow as width shrinks, and
/// the spiking stub lands between W6 and W4.
mod penalty {
    /// Exact log-MAP: optimal bitwise demapper.
    pub(crate) const EXACT: f64 = -0.05;
    /// Max-log with the true constellation.
    pub(crate) const MAX_LOG: f64 = 0.0;
    /// Trained float ANN at inference.
    pub(crate) const ANN: f64 = 0.25;
    /// Max-log on extracted centroids.
    pub(crate) const HYBRID: f64 = 0.45;
    /// Fixed-point accelerator model of the hybrid demapper.
    pub(crate) const ACCEL: f64 = 0.55;
    /// Spiking/event-driven readout stub.
    pub(crate) const SNN: f64 = 1.8;

    /// Quantized MVAU graph penalty by weight width.
    pub(crate) fn graph(weight_bits: u32) -> f64 {
        match weight_bits {
            w if w >= 8 => 0.9,
            6 | 7 => 1.4,
            _ => 2.6,
        }
    }
}

/// Total dense-layer multiply-accumulates of a model — the work term
/// of the float-ANN cost model (352 for the paper's 2→16→16→4
/// demapper, matching its 352-DSP full-parallel figure).
fn dense_macs(model: &Sequential) -> u64 {
    model
        .snapshot()
        .layers
        .iter()
        .map(|l| match l {
            LayerSnapshot::Dense { weight, .. } => (weight.rows() * weight.cols()) as u64,
            _ => 0,
        })
        .sum()
}

/// Float MAC units the modelled ANN/exact/max-log soft cores time-
/// multiplex their arithmetic over.
const FLOAT_UNITS: u64 = 4;

/// Max-log float software/soft-core backend on an arbitrary labelled
/// point set: one serial distance unit, `M` cycles per symbol.
pub(crate) fn max_log_backend(
    name: &str,
    tx: Constellation,
    points: Constellation,
) -> ModelBackend {
    let m = points.size() as f64;
    let usage = float_mac().times(3) // sub/square/accumulate chain
        + ResourceUsage {
            lut: 400,
            ff: 200,
            dsp: 0,
            bram36: 0.0,
        }; // per-bit running-min network
    ModelBackend::clocked(
        name,
        tx,
        Box::new(move |es| Arc::new(MaxLogMap::new(points.clone(), sigma_at(es))) as _),
        penalty::MAX_LOG,
        usage,
        MODEL_CLOCK_MHZ,
        m,
    )
}

/// Spiking stub backend over a labelled point set. Its cycle count is
/// activity-driven: spike rates track the distance metrics, so as SNR
/// rises (metrics concentrate) both the accumulation time and the
/// toggle activity fall — the cost curve that makes an event-driven
/// implementation attractive only at high SNR.
fn snn_backend(tx: Constellation, points: Constellation) -> ModelBackend {
    let usage = ResourceUsage {
        lut: 900,
        ff: 700,
        dsp: 0,
        bram36: 1.0, // event queues
    };
    // Logistic spike-activity curve: ~1 near 0 dB Es/N0, ~0.05 floor
    // deep in the waterfall's tail. Non-increasing in SNR.
    let activity = |es: f64| (1.0 / (1.0 + 10f64.powf((es - 6.0) / 6.0))).clamp(0.05, 1.0);
    ModelBackend::event_driven(
        "snn-event",
        tx,
        Box::new(move |es| {
            Arc::new(SpikingDemapper::new(points.clone(), sigma_at(es), 8, 24.0)) as _
        }),
        penalty::SNN,
        usage,
        MODEL_CLOCK_MHZ,
        Box::new(move |es| 4.0 + 48.0 * activity(es)),
        Box::new(activity),
    )
}

/// Quantized-graph backend at the folding its weight width earns: a
/// narrower datapath affords more parallel MAC lanes in the same
/// fabric budget, so W4 runs fully parallel (II 1) while W8 folds to
/// II 8. Cycle count and resources both come from the refolded
/// graph's own MVAU model. The folding prices the backend only: the
/// software kernels ignore it, so the served graph demaps exactly as
/// the source graph does, bit for bit and at the same speed.
fn graph_backend(tx: Constellation, graph: &QuantizedGraph) -> ModelBackend {
    let bits = graph.weight_bits();
    let folding = match bits {
        w if w >= 8 => Folding::new(4, 8),
        6 | 7 => Folding::new(8, 8),
        _ => Folding::new(16, 16),
    };
    let folded = Arc::new(graph.with_folding(folding));
    let cycles = folded
        .mvaus()
        .iter()
        .map(|m| m.config().ii_cycles())
        .max()
        .unwrap_or(1) as f64;
    let usage = folded
        .mvaus()
        .iter()
        .fold(ResourceUsage::zero(), |acc, m| acc + m.resources());
    ModelBackend::clocked(
        format!("ann-qat-w{bits}"),
        tx,
        Box::new(move |_| folded.clone() as _),
        penalty::graph(bits),
        usage,
        MODEL_CLOCK_MHZ,
        cycles,
    )
}

/// Hybrid-centroid max-log backend: the *software* float demapper on
/// the extracted centroids, costed as the hardware it deploys to —
/// the paper's fixed-point soft-demapper accelerator (1 DSP, ~1.1 k
/// LUT, `M / dist_par` cycles per symbol).
fn hybrid_backend(
    cfg: &SoftDemapperConfig,
    tx: Constellation,
    centroids: Constellation,
) -> ModelBackend {
    let design = SoftDemapperAccel::new(cfg.clone(), centroids.points(), sigma_at(10.0));
    let timing = design.timing();
    ModelBackend::clocked(
        "hybrid-centroids",
        tx,
        Box::new(move |es| {
            Arc::new(HybridDemapper::from_centroids(
                centroids.clone(),
                sigma_at(es),
            )) as _
        }),
        penalty::HYBRID,
        design.resources(),
        timing.clock_mhz(),
        timing.ii_cycles() as f64,
    )
}

/// Fixed-point accelerator backend: the bit-exact integer model *is*
/// the demapper, costed by its own timing/resource estimate.
fn accel_backend(cfg: &SoftDemapperConfig, tx: Constellation, centroids: Vec<C32>) -> ModelBackend {
    let design = SoftDemapperAccel::new(cfg.clone(), &centroids, sigma_at(10.0));
    let timing = design.timing();
    let usage = design.resources();
    let clock = timing.clock_mhz();
    let cycles = timing.ii_cycles() as f64;
    let cfg = cfg.clone();
    ModelBackend::clocked(
        "fixed-point-accel",
        tx,
        Box::new(move |es| {
            Arc::new(SoftDemapperAccel::new(
                cfg.clone(),
                &centroids,
                sigma_at(es),
            )) as _
        }),
        penalty::ACCEL,
        usage,
        clock,
        cycles,
    )
}

/// Float-ANN backend: an owned copy of the trained demapper network
/// (snapshot round-trip, bit-identical weights), shared SNR-agnostically.
fn ann_backend(tx: Constellation, model: Sequential) -> ModelBackend {
    let macs = dense_macs(&model).max(1);
    let cycles = macs.div_ceil(FLOAT_UNITS) as f64;
    let usage = float_mac().times(FLOAT_UNITS)
        + ResourceUsage {
            lut: 600, // activation evaluation + sequencing
            ff: 300,
            dsp: 0,
            bram36: 0.5, // weight store
        };
    let ann: Arc<dyn Demapper> = Arc::new(NeuralDemapper::new(model));
    ModelBackend::clocked(
        "AE-inference",
        tx,
        Box::new(move |_| ann.clone()),
        penalty::ANN,
        usage,
        MODEL_CLOCK_MHZ,
        cycles,
    )
}

/// Exact log-MAP backend: max-log's datapath plus the exp/log-sum
/// pair, serialised over four passes of the point set.
fn exact_backend(tx: Constellation, points: Constellation) -> ModelBackend {
    let m = points.size() as f64;
    let usage = float_mac().times(5)
        + ResourceUsage {
            lut: 600,
            ff: 300,
            dsp: 0,
            bram36: 2.0, // exp/log lookup tables
        };
    ModelBackend::clocked(
        "exact-logmap",
        tx,
        Box::new(move |es| Arc::new(ExactLogMap::new(points.clone(), sigma_at(es))) as _),
        penalty::EXACT,
        usage,
        MODEL_CLOCK_MHZ,
        4.0 * m,
    )
}

/// Clones the pipeline's trained demapper network (snapshot
/// round-trip: in-memory matrices, bit-identical weights).
fn owned_ann(pipe: &HybridPipeline) -> Sequential {
    Sequential::from_snapshot(pipe.ann_demapper().model().snapshot())
}

/// Extracted centroids of a pipeline that ran
/// [`HybridPipeline::extract_centroids`].
///
/// # Panics
/// Panics when extraction has not run.
fn centroids_of(pipe: &HybridPipeline) -> Constellation {
    pipe.hybrid_demapper()
        .expect("registry needs extracted centroids: run extract_centroids() first")
        .centroids()
        .clone()
}

/// The paper's full evaluation line-up as a registry, in the campaign
/// artefact's family order — `conventional`, `AE-inference`,
/// `hybrid-centroids`, `fixed-point-accel`, one `ann-qat-w{bits}` per
/// quantized graph — followed by the two families the registry adds
/// to the waterfall: `exact-logmap` and `snn-event`.
///
/// # Panics
/// Panics unless [`HybridPipeline::extract_centroids`] ran.
pub fn paper_registry(
    pipe: &HybridPipeline,
    accel_cfg: &SoftDemapperConfig,
    quantized: &[QuantizedGraph],
) -> BackendRegistry {
    let qam = Constellation::qam_gray(pipe.config().num_symbols());
    let learned = pipe.constellation();
    let centroids = centroids_of(pipe);
    let mut reg = BackendRegistry::new();
    reg.register(Arc::new(max_log_backend(
        "conventional",
        qam.clone(),
        qam.clone(),
    )));
    reg.register(Arc::new(ann_backend(learned.clone(), owned_ann(pipe))));
    reg.register(Arc::new(hybrid_backend(
        accel_cfg,
        learned.clone(),
        centroids.clone(),
    )));
    reg.register(Arc::new(accel_backend(
        accel_cfg,
        learned.clone(),
        centroids.points().to_vec(),
    )));
    for graph in quantized {
        reg.register(Arc::new(graph_backend(learned.clone(), graph)));
    }
    reg.register(Arc::new(exact_backend(qam.clone(), qam)));
    reg.register(Arc::new(snn_backend(learned, centroids)));
    reg
}

/// The per-link switching line-up: every backend transmits and demaps
/// the *learned* constellation, so one live session can migrate
/// between any two entries mid-stream. Ordered cheapest-last so the
/// cost axis, not registration order, drives selection: `max-log`,
/// `hybrid-centroids`, `ann-qat-w{bits}`…, `snn-event`.
///
/// # Panics
/// Panics unless [`HybridPipeline::extract_centroids`] ran.
pub fn switch_registry(pipe: &HybridPipeline, quantized: &[QuantizedGraph]) -> BackendRegistry {
    let learned = pipe.constellation();
    let centroids = centroids_of(pipe);
    let accel_cfg = SoftDemapperConfig::paper_default();
    let mut reg = BackendRegistry::new();
    reg.register(Arc::new(max_log_backend(
        "max-log",
        learned.clone(),
        learned.clone(),
    )));
    reg.register(Arc::new(hybrid_backend(
        &accel_cfg,
        learned.clone(),
        centroids.clone(),
    )));
    for graph in quantized {
        reg.register(Arc::new(graph_backend(learned.clone(), graph)));
    }
    reg.register(Arc::new(snn_backend(learned, centroids)));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::qat::{qat_quantized_demapper, QatConfig};

    fn test_pipe() -> HybridPipeline {
        let mut pipe = HybridPipeline::new(SystemConfig::fast_test());
        let _ = pipe.extract_centroids();
        pipe
    }

    fn quick_graphs(pipe: &HybridPipeline) -> Vec<QuantizedGraph> {
        [4u32, 6, 8]
            .iter()
            .map(|&bits| {
                let mut qcfg = QatConfig::at_bits(bits);
                qcfg.steps = 4;
                qcfg.batch = 16;
                qat_quantized_demapper(pipe, &qcfg)
            })
            .collect()
    }

    #[test]
    fn paper_registry_covers_the_line_up_in_order() {
        let pipe = test_pipe();
        let graphs = quick_graphs(&pipe);
        let reg = paper_registry(&pipe, &SoftDemapperConfig::paper_default(), &graphs);
        assert_eq!(
            reg.names(),
            vec![
                "conventional",
                "AE-inference",
                "hybrid-centroids",
                "fixed-point-accel",
                "ann-qat-w4",
                "ann-qat-w6",
                "ann-qat-w8",
                "exact-logmap",
                "snn-event",
            ]
        );
        assert_eq!(reg.find("exact-logmap").unwrap().index(), 7);
        for (_, b) in reg.iter() {
            let d = b.demapper(10.0);
            assert_eq!(d.bits_per_symbol(), b.constellation().bits_per_symbol());
            let c = b.cost(10.0);
            assert!(c.cycles_per_symbol >= 1.0);
            assert!(c.energy_per_symbol_j > 0.0 && c.energy_per_symbol_j.is_finite());
        }
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let qam = Constellation::qam_gray(16);
        let mut reg = BackendRegistry::new();
        reg.register(Arc::new(max_log_backend("a", qam.clone(), qam.clone())));
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.register(Arc::new(max_log_backend("a", qam.clone(), qam)))
        }));
        assert!(dup.is_err(), "duplicate name must panic");
    }

    #[test]
    fn switch_selection_rides_the_cost_ladder() {
        let pipe = test_pipe();
        let graphs = quick_graphs(&pipe);
        let reg = switch_registry(&pipe, &graphs);
        let target = 2e-2;
        // Below every backend's operating region: fall back to the
        // most accurate (max-log, penalty 0).
        assert_eq!(
            reg.select_or_best(2.0, target),
            reg.find("max-log").unwrap()
        );
        assert_eq!(reg.select(2.0, target), None);
        // The ramp downshifts max-log → hybrid → W4 as SNR headroom
        // grows; W6/W8 never win (hybrid is cheaper and accurate
        // enough first), snn never wins (costlier than hybrid).
        let at = |es: f64| reg.get(reg.select_or_best(es, target)).name().to_string();
        // 16-QAM Gray theory hits 2e-2 near 12.65 dB Es/N0; the
        // hybrid (+0.45 dB) and W4 (+2.6 dB) penalties stagger the
        // chain above it.
        assert_eq!(at(12.8), "max-log");
        assert_eq!(at(13.5), "hybrid-centroids");
        assert_eq!(at(15.5), "ann-qat-w4");
        // Cost strictly falls along the chain.
        let chain = ["max-log", "hybrid-centroids", "ann-qat-w4"];
        for w in chain.windows(2) {
            let a = reg.get(reg.find(w[0]).unwrap()).cost(12.0);
            let b = reg.get(reg.find(w[1]).unwrap()).cost(12.0);
            assert!(
                b.cheaper_than(&a),
                "{} should be cheaper than {}",
                w[1],
                w[0]
            );
        }
    }

    #[test]
    fn spiking_readout_quantises_the_maxlog_llrs() {
        let qam = Constellation::qam_gray(16);
        let snn = SpikingDemapper::new(qam.clone(), 0.2, 8, 24.0);
        let maxlog = MaxLogMap::new(qam.clone(), 0.2);
        let ys: Vec<C32> = qam
            .points()
            .iter()
            .map(|&p| C32::new(p.re * 1.05, p.im * 1.05))
            .collect();
        let m = qam.bits_per_symbol();
        let mut q = vec![0f32; ys.len() * m];
        let mut full = vec![0f32; ys.len() * m];
        snn.demap_block(&ys, &mut q);
        maxlog.demap_block(&ys, &mut full);
        let step = 24.0f32 / 8.0;
        for (i, (&ql, &fl)) in q.iter().zip(&full).enumerate() {
            assert!(ql.abs() <= 24.0 + 1e-6, "saturates at the clip");
            let levels = ql / step;
            assert!(
                (levels - levels.round()).abs() < 1e-4,
                "LLR {i} not on the spike grid: {ql}"
            );
            assert!((ql - fl.clamp(-24.0, 24.0)).abs() <= step * 0.5 + 1e-4);
        }
        // Sign agreement on confident symbols ⇒ hard decisions match.
        let mut hq = vec![0u8; ys.len() * m];
        let mut hf = vec![0u8; ys.len() * m];
        snn.hard_decide_block(&ys, &mut hq);
        maxlog.hard_decide_block(&ys, &mut hf);
        assert_eq!(hq, hf);
    }

    #[test]
    fn event_driven_cost_falls_with_snr() {
        let qam = Constellation::qam_gray(16);
        let b = snn_backend(qam.clone(), qam);
        let mut prev = b.cost(-5.0);
        for es in [0.0, 5.0, 10.0, 20.0, 30.0] {
            let c = b.cost(es);
            assert!(c.cycles_per_symbol <= prev.cycles_per_symbol);
            assert!(c.energy_per_symbol_j <= prev.energy_per_symbol_j);
            prev = c;
        }
    }
}
