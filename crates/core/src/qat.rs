//! Quantisation-aware fine-tuning of the demapper ANN (DESIGN.md §9).
//!
//! The paper's central claim is that the learned demapper stays
//! accurate *after* fixed-point FPGA implementation. Post-training
//! quantisation alone leaves that to luck at narrow widths; the
//! FINN-style remedy (cf. arXiv:2405.02323, arXiv:2304.06987) is to
//! fine-tune the float network *through* the deployment's quantisation
//! noise, so the optimiser absorbs it. This module implements that
//! flow:
//!
//! 1. **Calibrate** — drive noisy pilot symbols through the trained
//!    float model and fit one fixed-point format per tensor boundary
//!    at the requested width (`QatConfig::bits`);
//! 2. **Fine-tune** — rebuild the model with straight-through
//!    `FakeQuant` casts at every boundary and
//!    run a short demapper-only training loop (mapper frozen, AWGN
//!    pilots at the operating SNR) — training stays in f32 per the §1
//!    substitution policy, only the injected rounding/saturation noise
//!    is quantised;
//! 3. **Deploy** — lower the QAT model to the shared integer IR with
//!    [`hybridem_fpga::graph::compile_qat`]; the graph reads the
//!    trained boundary formats straight out of the model.

use crate::pipeline::HybridPipeline;
use hybridem_comm::bits::bit_of;
use hybridem_comm::constellation::Constellation;
use hybridem_fixed::{QuantSpec, Rounding};
use hybridem_fpga::graph::QuantizedGraph;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_nn::model::insert_fake_quant;
use hybridem_nn::{Adam, Sequential};

/// Budget and width of one QAT fine-tuning run.
#[derive(Clone, Debug)]
pub struct QatConfig {
    /// Weight/activation width in bits (the W of W4/W6/W8). The I/O
    /// converter boundaries (ADC input, LLR output) stay at
    /// `bits.max(6)` — they model the fixed bus widths the paper's
    /// design keeps while the datapath width is swept.
    pub(crate) bits: u32,
    /// Fine-tuning steps (demapper only, mapper frozen).
    pub steps: usize,
    /// Pilot batch size per step.
    pub batch: usize,
    /// Adam learning rate.
    pub(crate) lr: f32,
    /// Calibration sample count for the range fit.
    pub(crate) calibration: usize,
    /// RNG seed (calibration noise and pilot stream).
    pub(crate) seed: u64,
}

impl QatConfig {
    /// Defaults for one width: 400 steps of 256 pilots at a gentle
    /// fine-tuning rate.
    pub fn at_bits(bits: u32) -> Self {
        Self {
            bits,
            steps: 400,
            batch: 256,
            lr: 1e-3,
            calibration: 2048,
            seed: 0x9a7,
        }
    }
}

/// Calibrates tensor-boundary formats and fine-tunes `base` with
/// straight-through fake quantisation: pilots are drawn from the
/// frozen `constellation`, passed through AWGN at `sigma`, and the
/// demapper-only BCE loss is minimised for [`QatConfig::steps`] steps.
/// Returns the fine-tuned quantisation-aware model, whose `FakeQuant`
/// boundaries carry the deployment formats.
fn qat_finetune(
    constellation: &Constellation,
    base: &Sequential,
    sigma: f32,
    cfg: &QatConfig,
) -> Sequential {
    assert_eq!(base.input_dim(), 2, "demapper models take I/Q inputs");
    assert!(cfg.steps >= 1, "need at least one fine-tuning step");
    // Fail before spending the training budget: the integer IR can
    // only lower dense/ReLU/sigmoid (`fpga::graph::compile_spec`), so
    // reject anything else up front.
    for layer in base.layers() {
        assert!(
            matches!(layer.name(), "dense" | "relu" | "sigmoid"),
            "QAT deploys through the quantized graph, which supports \
             dense/relu/sigmoid only — found `{}`",
            layer.name()
        );
    }
    let m = constellation.bits_per_symbol();
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let boundaries = calibrate_boundaries(
        constellation,
        base,
        sigma,
        cfg.bits,
        cfg.calibration,
        cfg.seed,
    );

    // 3. Straight-through fine-tuning, mapper frozen.
    let mut model = insert_fake_quant(base, &boundaries);
    let mut opt = Adam::new(cfg.lr);
    let mut y = Matrix::zeros(cfg.batch, 2);
    let mut targets = Matrix::zeros(cfg.batch, m);
    for _ in 0..cfg.steps {
        for r in 0..cfg.batch {
            let idx = (rng.next_u64() >> (64 - m)) as usize;
            for k in 0..m {
                targets[(r, k)] = f32::from(bit_of(idx, m, k));
            }
            let p = constellation.point(idx);
            y[(r, 0)] = p.re + sigma * rng.normal_f32();
            y[(r, 1)] = p.im + sigma * rng.normal_f32();
        }
        model.bce_step(&mut opt, &y, &targets, false);
    }
    model
}

/// Fits one fixed-point format per tensor boundary of `model` by
/// driving `samples` noisy pilot symbols (drawn from `constellation`
/// at noise level `sigma`) through it: input at the ADC width, each
/// hidden activation at `bits`, output at the LLR-bus width
/// (`bits.max(6)` for both I/O converters, matching
/// `QatConfig::bits`). This is the calibration half of
/// `qat_finetune`, exposed on its own because the online runtime
/// ([`crate::runtime`]) recompiles its integer deployment from freshly
/// retrained weights mid-stream, where a full fine-tuning pass would
/// blow the retrain-latency budget.
///
/// Each boundary sits *after* a dense layer's activation (the same
/// placement `insert_fake_quant` uses — keep the peeked activation
/// set here in lock-step with that function), so the range is
/// measured on the post-activation tensor the cast will actually see.
///
/// # Panics
/// Panics if `model` contains layers outside the integer IR's
/// dense/relu/sigmoid vocabulary.
pub fn calibrate_boundaries(
    constellation: &Constellation,
    model: &Sequential,
    sigma: f32,
    bits: u32,
    samples: usize,
    seed: u64,
) -> Vec<QuantSpec> {
    for layer in model.layers() {
        assert!(
            matches!(layer.name(), "dense" | "relu" | "sigmoid"),
            "calibration targets the quantized graph, which supports \
             dense/relu/sigmoid only — found `{}`",
            layer.name()
        );
    }
    // Calibration batch: noisy symbols at the operating point, on a
    // dedicated RNG stream so callers sharing `seed` with a training
    // loop do not correlate with these draws.
    let mut rng = Xoshiro256pp::stream(seed, 40);
    let n_cal = samples.max(64);
    let mut cal = Matrix::zeros(n_cal, 2);
    for r in 0..n_cal {
        let p = constellation.point(r % constellation.size());
        cal[(r, 0)] = p.re + sigma * rng.normal_f32();
        cal[(r, 1)] = p.im + sigma * rng.normal_f32();
    }

    let io_bits = bits.max(6);
    let mut boundaries = vec![QuantSpec::fit_to_data(
        io_bits,
        cal.as_slice(),
        Rounding::Nearest,
    )];
    let mut x = cal;
    let mut dense_seen = 0usize;
    let dense_count = model
        .layers()
        .iter()
        .filter(|l| l.name() == "dense")
        .count();
    let mut iter = model.layers().iter().peekable();
    while let Some(layer) = iter.next() {
        let is_dense = layer.name() == "dense";
        x = layer.infer(&x);
        if is_dense {
            if let Some(next) = iter.peek() {
                if matches!(next.name(), "relu" | "sigmoid") {
                    x = iter.next().unwrap().infer(&x);
                }
            }
            dense_seen += 1;
            let width = if dense_seen == dense_count {
                io_bits
            } else {
                bits
            };
            boundaries.push(QuantSpec::fit(width, x.max_abs() as f64, Rounding::Nearest));
        }
    }
    boundaries
}

/// End-to-end convenience: QAT-fine-tunes the pipeline's trained
/// demapper at the configured width and lowers it to the integer IR.
/// The returned graph is a drop-in `Demapper` for campaigns and link
/// simulations (family label `ann-qat-w{bits}`).
pub fn qat_quantized_demapper(pipe: &HybridPipeline, cfg: &QatConfig) -> QuantizedGraph {
    let constellation = pipe.constellation();
    let model = qat_finetune(
        &constellation,
        pipe.ann_demapper().model(),
        pipe.config().sigma(),
        cfg,
    );
    hybridem_fpga::graph::compile_qat(&model, cfg.bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use hybridem_comm::demapper::Demapper;
    use hybridem_mathkit::complex::C32;
    use hybridem_nn::loss::bce_with_logits;
    use hybridem_nn::model::MlpSpec;

    fn base_model(seed: u64) -> Sequential {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        MlpSpec::paper_demapper_logits().build(&mut rng)
    }

    #[test]
    fn finetune_fits_one_boundary_per_tensor_and_improves_loss() {
        let constellation = Constellation::qam_gray(16);
        let base = base_model(1);
        let mut cfg = QatConfig::at_bits(6);
        cfg.steps = 200;
        let mut tuned = qat_finetune(&constellation, &base, 0.1, &cfg);
        // The model carries the calibrated boundaries, one per tensor.
        let boundaries = hybridem_nn::model::boundary_specs(&tuned);
        assert_eq!(
            boundaries,
            calibrate_boundaries(&constellation, &base, 0.1, 6, cfg.calibration, cfg.seed)
        );
        assert_eq!(boundaries.len(), 4);
        // I/O boundaries at the bus width, hidden at the sweep width.
        assert_eq!(boundaries[0].format.total_bits, 6);
        assert_eq!(boundaries[1].format.total_bits, 6);
        assert_eq!(boundaries[3].format.total_bits, 6);
        // Fine-tuning beats the untuned quantisation-aware model on
        // fresh pilots.
        let mut untuned = insert_fake_quant(&base, &boundaries);
        let before = pilot_loss(&mut untuned, &constellation, 0.1);
        let after = pilot_loss(&mut tuned, &constellation, 0.1);
        assert!(
            after < before,
            "QAT fine-tuning must reduce the loss: {before} → {after}"
        );
    }

    /// Mean BCE of `model` over 1024 fresh AWGN pilots at `sigma`.
    fn pilot_loss(model: &mut Sequential, constellation: &Constellation, sigma: f32) -> f32 {
        let (n, m) = (1024, constellation.bits_per_symbol());
        let mut rng = Xoshiro256pp::seed_from_u64(0x5eed);
        let mut y = Matrix::zeros(n, 2);
        let mut targets = Matrix::zeros(n, m);
        for r in 0..n {
            let idx = (rng.next_u64() >> (64 - m)) as usize;
            for k in 0..m {
                targets[(r, k)] = f32::from(bit_of(idx, m, k));
            }
            let p = constellation.point(idx);
            y[(r, 0)] = p.re + sigma * rng.normal_f32();
            y[(r, 1)] = p.im + sigma * rng.normal_f32();
        }
        let mut grad = Matrix::zeros(0, 0);
        bce_with_logits(model.forward(&y), &targets, &mut grad)
    }

    #[test]
    fn qat_graph_slots_into_the_demapper_trait() {
        let mut cfg = SystemConfig::fast_test();
        cfg.e2e_steps = 120;
        cfg.batch_size = 64;
        let mut pipe = HybridPipeline::new(cfg);
        let _ = pipe.e2e_train();
        let mut qcfg = QatConfig::at_bits(8);
        qcfg.steps = 40;
        let graph = qat_quantized_demapper(&pipe, &qcfg);
        assert_eq!(graph.weight_bits(), 8);
        assert_eq!(Demapper::bits_per_symbol(&graph), 4);
        let ys = [C32::new(0.4, -0.2), C32::new(-1.0, 0.9)];
        let mut block = [0f32; 8];
        graph.demap_block(&ys, &mut block);
        let mut single = [0f32; 4];
        graph.llrs(ys[1], &mut single);
        for k in 0..4 {
            assert_eq!(block[4 + k].to_bits(), single[k].to_bits());
        }
    }
}
