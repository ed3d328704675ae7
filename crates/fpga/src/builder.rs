//! Design assembly: trained model → deployable hardware design.
//!
//! [`build_inference_design`] performs the deployment flow the paper
//! runs through Vivado HLS: range-calibrate every tensor, quantise
//! weights and activations to 8-bit formats, lower the model through
//! the quantized-graph IR ([`crate::graph`], one fully-unfolded MVAU
//! per dense layer with runtime-writable weights, since retraining
//! updates them in place), and attach the stream interface.
//! [`build_soft_demapper_design`] wraps the centroid max-log
//! accelerator.

use crate::demapper_accel::{SoftDemapperAccel, SoftDemapperConfig};
use crate::graph::{compile_spec, GraphSpec, QuantizedGraph};
use crate::mvau::Mvau;
use crate::pipeline::{ExecutionMode, PipelineTiming, StageTiming};
use crate::power::PowerModel;
use crate::report::ImplReport;
use crate::resources::ResourceUsage;
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_nn::Sequential;

/// Fixed-point deployment parameters.
#[derive(Clone, Debug)]
pub struct DeployConfig {
    /// Bit width of weights.
    pub weight_bits: u32,
    /// Bit width of activations.
    pub act_bits: u32,
    /// I/Q input format (received symbols; ±4 range by default).
    pub input_format: QFormat,
    /// Sigmoid LUT address bits.
    pub sigmoid_addr_bits: u32,
    /// Fabric clock in MHz.
    pub clock_mhz: f64,
    /// Pipelining mode (the paper's inference module is iterative).
    pub mode: ExecutionMode,
}

impl Default for DeployConfig {
    fn default() -> Self {
        Self {
            weight_bits: 8,
            act_bits: 8,
            input_format: QFormat::signed(8, 5),
            sigmoid_addr_bits: 8,
            clock_mhz: 150.0,
            mode: ExecutionMode::Iterative,
        }
    }
}

/// A deployed ANN inference design: the quantised demapper datapath,
/// executing the shared integer IR ([`QuantizedGraph`], DESIGN.md §9).
pub struct InferenceDesign {
    graph: QuantizedGraph,
    timing: PipelineTiming,
    clock_mhz: f64,
}

impl InferenceDesign {
    /// Bit-exact inference: received sample → bit probabilities.
    pub fn process_iq(&self, y: C32) -> Vec<f32> {
        self.graph.process_iq(y)
    }

    /// The compiled integer program — the block-streaming executor,
    /// also a drop-in [`hybridem_comm::demapper::Demapper`].
    pub fn graph(&self) -> &QuantizedGraph {
        &self.graph
    }

    /// The MVAU chain.
    pub(crate) fn mvaus(&self) -> &[Mvau] {
        self.graph.mvaus()
    }

    /// Total resources including the stream-interface FIFO.
    pub(crate) fn resources(&self) -> ResourceUsage {
        let mut r: ResourceUsage = self.mvaus().iter().map(|m| m.resources()).sum();
        // AXI-stream input/output FIFO (half BRAM).
        r += ResourceUsage {
            bram36: 0.5,
            lut: 120,
            ff: 200,
            ..Default::default()
        };
        r
    }

    /// Table-2-style report (streaming activity = 1).
    pub fn report(&self, power: &PowerModel) -> ImplReport {
        let usage = self.resources();
        let thr = self.timing.throughput_per_s();
        ImplReport {
            name: "AE-inference".to_string(),
            clock_mhz: self.clock_mhz,
            latency_s: self.timing.latency_s(),
            throughput_sym_s: thr,
            power_w: power.power_w(&usage, self.clock_mhz, 1.0),
            energy_per_sym_j: power.energy_per_symbol_j(&usage, self.clock_mhz, 1.0, thr),
            usage,
        }
    }
}

/// Builds the quantised inference design from a trained model.
///
/// `calibration` provides representative received samples for the
/// activation range analysis (noisy symbols at the operating SNR).
pub fn build_inference_design(
    model: &Sequential,
    calibration: &[C32],
    cfg: &DeployConfig,
) -> InferenceDesign {
    assert_eq!(model.input_dim(), 2, "demapper models take I/Q inputs");
    assert!(!calibration.is_empty(), "need calibration samples");

    // Drive the calibration batch through the float model layer by
    // layer, recording pre-activation ranges of each dense layer.
    let mut batch = Matrix::zeros(calibration.len(), 2);
    for (r, c) in calibration.iter().enumerate() {
        batch.row_mut(r).copy_from_slice(&[c.re, c.im]);
    }

    // Per-dense-layer pre-activation range over the calibration batch.
    let mut pre_act_max: Vec<f32> = Vec::new();
    let mut x = batch;
    for layer in model.layers() {
        match layer.name() {
            "dense" => {
                let pre = layer.infer(&x);
                pre_act_max.push(pre.max_abs());
                x = pre;
            }
            "relu" | "sigmoid" => {
                assert!(
                    !pre_act_max.is_empty(),
                    "activation requires a preceding dense layer"
                );
                x = layer.infer(&x);
            }
            other => panic!("unsupported layer {other} for deployment"),
        }
    }

    // Lower through the shared IR: the calibration walk above becomes
    // the graph's boundary specs, so this builder, the QAT flow and
    // the ablations all execute the same integer program.
    // Sigmoid heads emit probabilities: all-fraction unsigned uses
    // every level on [0, 1). Linear (logits) heads feed LLRs, so the
    // sign must survive — fit a signed format to the calibrated logit
    // range instead of clamping negatives away.
    let n = pre_act_max.len();
    let out_format = if model.layers().last().map(|l| l.name()) == Some("sigmoid") {
        QFormat::unsigned(cfg.act_bits, cfg.act_bits)
    } else {
        QuantSpec::fit(cfg.act_bits, pre_act_max[n - 1] as f64, Rounding::Nearest).format
    };
    let mut boundaries = vec![QuantSpec {
        format: cfg.input_format,
        rounding: Rounding::Nearest,
    }];
    for (i, &range) in pre_act_max.iter().enumerate() {
        let format = if i + 1 == n {
            out_format
        } else {
            // Post-ReLU activations: fit the pre-activation range
            // (ReLU only clips negatives, magnitudes survive).
            QuantSpec::fit(cfg.act_bits, range as f64, Rounding::Nearest).format
        };
        boundaries.push(QuantSpec {
            format,
            rounding: Rounding::Nearest,
        });
    }
    let spec = GraphSpec {
        boundaries,
        weight_bits: vec![cfg.weight_bits; n],
        sigmoid_addr_bits: cfg.sigmoid_addr_bits,
        // Each sigmoid LUT clamps to its own layer's calibrated
        // pre-activation range.
        sigmoid_ranges: pre_act_max.iter().map(|&m| (m as f64).max(4.0)).collect(),
        writable_weights: true, // retraining rewrites weights in place
        folding: None,          // inference design: fully parallel
    };
    let graph = compile_spec(model, &spec);

    let stages: Vec<StageTiming> = graph
        .mvaus()
        .iter()
        .map(|m| StageTiming {
            ii: m.config().ii_cycles(),
            depth: m.config().depth_cycles(),
        })
        .collect();
    let timing = PipelineTiming::new(stages, cfg.mode, cfg.clock_mhz);

    InferenceDesign {
        graph,
        timing,
        clock_mhz: cfg.clock_mhz,
    }
}

/// A deployed hybrid soft-demapper design.
pub struct SoftDemapperDesign {
    /// The accelerator datapath.
    pub accel: SoftDemapperAccel,
    clock_mhz: f64,
}

impl SoftDemapperDesign {
    /// Table-2-style report.
    pub fn report(&self, power: &PowerModel) -> ImplReport {
        let usage = self.accel.resources();
        let t = self.accel.timing();
        let thr = t.throughput_per_s();
        ImplReport {
            name: "Soft-demapper (learned centroids)".to_string(),
            clock_mhz: self.clock_mhz,
            latency_s: t.latency_s(),
            throughput_sym_s: thr,
            power_w: power.power_w(&usage, self.clock_mhz, 1.0),
            energy_per_sym_j: power.energy_per_symbol_j(&usage, self.clock_mhz, 1.0, thr),
            usage,
        }
    }
}

/// Builds the hybrid soft-demapper design for extracted centroids.
pub fn build_soft_demapper_design(
    centroids: &[C32],
    sigma: f32,
    cfg: SoftDemapperConfig,
) -> SoftDemapperDesign {
    let clock = cfg.clock_mhz;
    SoftDemapperDesign {
        accel: SoftDemapperAccel::new(cfg, centroids, sigma),
        clock_mhz: clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::rng::Xoshiro256pp;
    use hybridem_nn::model::MlpSpec;

    fn calibration(n: usize, seed: u64) -> Vec<C32> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|_| C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect()
    }

    fn trained_ish_model(seed: u64) -> Sequential {
        // Untrained weights suffice for numeric-fidelity tests.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        MlpSpec::paper_demapper().build(&mut rng)
    }

    #[test]
    fn quantised_inference_tracks_float_model() {
        let model = trained_ish_model(1);
        let calib = calibration(256, 2);
        let design = build_inference_design(&model, &calib, &DeployConfig::default());
        let mut max_err = 0.0f32;
        for y in calibration(200, 3) {
            let hw = design.process_iq(y);
            let f = model.infer(&Matrix::from_rows(&[&[y.re, y.im]]));
            for k in 0..4 {
                max_err = max_err.max((hw[k] - f[(0, k)]).abs());
            }
        }
        // 8-bit activations: probabilities within a few percent.
        assert!(max_err < 0.08, "max probability error {max_err}");
    }

    #[test]
    fn paper_inference_operating_point() {
        let model = trained_ish_model(4);
        let design = build_inference_design(&model, &calibration(128, 5), &DeployConfig::default());
        let r = design.resources();
        // The Table-2 anchors: 352 DSP, 18.5 BRAM.
        assert_eq!(r.dsp, 352);
        assert!((r.bram36 - 18.5).abs() < 1e-9, "BRAM {}", r.bram36);
        // Iterative chain: 12-cycle latency at 150 MHz = 80 ns.
        let t = &design.timing;
        assert_eq!(t.total_depth_cycles(), 12);
        assert!((t.latency_s() - 8.0e-8).abs() < 1e-9);
        assert!((t.throughput_per_s() - 1.25e7).abs() < 1e4);
        // Fits the device.
        assert!(crate::device::DeviceModel::zu3eg().fits(&r));
    }

    #[test]
    fn pipelined_mode_raises_throughput() {
        let model = trained_ish_model(6);
        let calib = calibration(64, 7);
        let iter = build_inference_design(&model, &calib, &DeployConfig::default());
        let pipe = build_inference_design(
            &model,
            &calib,
            &DeployConfig {
                mode: ExecutionMode::Pipelined,
                ..DeployConfig::default()
            },
        );
        assert!(pipe.timing.throughput_per_s() > 5.0 * iter.timing.throughput_per_s());
        assert_eq!(pipe.timing.latency_s(), iter.timing.latency_s());
    }

    #[test]
    fn full_table2_ordering() {
        // Build all three designs and verify the paper's qualitative
        // resource/power ordering.
        let model = trained_ish_model(8);
        let calib = calibration(128, 9);
        let power = PowerModel::default();
        let inference = build_inference_design(&model, &calib, &DeployConfig::default());
        let centroids = hybridem_comm::constellation::Constellation::qam_gray(16);
        let demapper = build_soft_demapper_design(
            centroids.points(),
            0.2,
            SoftDemapperConfig::paper_default(),
        );
        let trainer =
            crate::trainer::TrainerDesign::new(crate::trainer::TrainerConfig::paper_default());

        let r_inf = inference.report(&power);
        let r_dem = demapper.report(&power);
        let r_trn = trainer.report(&power);

        // DSP: demapper ≪ inference ≤ trainer bound.
        assert_eq!(r_dem.usage.dsp, 1);
        assert_eq!(r_inf.usage.dsp, 352);
        assert!(r_trn.usage.dsp >= 343);
        // LUT/FF ordering.
        assert!(r_dem.usage.lut * 5 < r_inf.usage.lut);
        assert!(r_inf.usage.ff < r_trn.usage.ff);
        // Power ordering and ~10× gap.
        assert!(r_dem.power_w * 5.0 < r_inf.power_w);
        assert!(r_inf.power_w < r_trn.power_w * 1.2);
        // Energy per symbol: demapper wins by ≥20×.
        assert!(r_dem.energy_per_sym_j * 20.0 < r_inf.energy_per_sym_j);
        // Throughput: demapper ≥5× inference.
        assert!(r_dem.throughput_sym_s > 5.0 * r_inf.throughput_sym_s);
    }
}
