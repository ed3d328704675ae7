//! The trained system every AE workload starts from, and the replay of
//! the adaptation chain through its public functions.

use crate::harness::{ref_time, TRAIN_SENSITIVITY};
use hybridem_comm::channel::Channel;
use hybridem_core::demapper_ann::NeuralDemapper;
use hybridem_core::extraction::{extract, ExtractionConfig};
use hybridem_core::hybrid::HybridDemapper;
use hybridem_core::qat::calibrate_boundaries;
use hybridem_core::retrain::Retrainer;
use hybridem_core::{HybridPipeline, SystemConfig};
use hybridem_fpga::graph::{compile, QuantizedGraph};
use hybridem_nn::Sequential;
use std::hint::black_box;

/// Width of the integer deployment (the paper's 8-bit datapath).
pub const DEPLOY_BITS: u32 = 8;

/// Boundary-calibration samples, as `OnlineLink` deploys.
const CALIBRATION_SAMPLES: usize = 1024;

/// The paper's case study trained end to end and extracted. The AE
/// seed is the configuration's own: the trained system is the program
/// under test, the workload seed only drives the traffic.
pub fn train_pipeline() -> (HybridPipeline, f64) {
    let mut pipe = HybridPipeline::new(SystemConfig::paper_default());
    let (_, train_s) = ref_time(TRAIN_SENSITIVITY, || pipe.e2e_train());
    pipe.extract_centroids();
    (pipe, train_s)
}

/// Compiles `model` to the integer graph the way `OnlineLink` deploys
/// it: calibrated tensor boundaries, then `graph::compile`.
pub fn compile_deployment(pipe: &HybridPipeline, model: &Sequential) -> QuantizedGraph {
    let cfg = pipe.config();
    let boundaries = calibrate_boundaries(
        &pipe.constellation(),
        model,
        cfg.sigma(),
        DEPLOY_BITS,
        CALIBRATION_SAMPLES,
        cfg.seed,
    );
    compile(model, &boundaries)
}

/// Time of each stage of one replayed adaptation (reference s).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChainTimes {
    /// `Retrainer::run` with hardware accounting.
    pub retrain_s: f64,
    /// `extraction::extract` plus the hybrid demapper build.
    pub extract_s: f64,
    /// `qat::calibrate_boundaries` plus `graph::compile`.
    pub deploy_s: f64,
}

impl ChainTimes {
    /// Sum of the stages.
    pub fn total_s(&self) -> f64 {
        self.retrain_s + self.extract_s + self.deploy_s
    }
}

/// Replays trigger → retrain → (extract) → (recompile) on a fresh copy
/// of the trained demapper against `channel`, timing each stage. This
/// is the chain `OnlineLink` runs inside a triggered step, on the same
/// shapes, called from outside.
pub fn replay_chain(
    pipe: &HybridPipeline,
    channel: &mut dyn Channel,
    with_extract: bool,
    with_deploy: bool,
) -> ChainTimes {
    let cfg = pipe.config();
    let constellation = pipe.constellation();
    let mut ann = NeuralDemapper::new(Sequential::from_snapshot(
        pipe.ann_demapper().model().snapshot(),
    ));
    let mut times = ChainTimes::default();
    let (report, retrain_s) = ref_time(TRAIN_SENSITIVITY, || {
        Retrainer::new(cfg)
            .with_hardware_accounting()
            .run(&constellation, channel, &mut ann)
    });
    black_box(report);
    times.retrain_s = retrain_s;
    if with_extract {
        let (demapper, s) = ref_time(TRAIN_SENSITIVITY, || {
            let ecfg = ExtractionConfig::new(cfg.grid_n, cfg.window_scale);
            let report = extract(&ann, &ecfg, &constellation);
            HybridDemapper::from_extraction(&report, cfg.sigma())
        });
        black_box(demapper);
        times.extract_s = s;
    }
    if with_deploy {
        let (graph, s) = ref_time(TRAIN_SENSITIVITY, || compile_deployment(pipe, ann.model()));
        black_box(graph);
        times.deploy_s = s;
    }
    times
}
