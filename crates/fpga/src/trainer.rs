//! The on-chip training module.
//!
//! The paper's second FPGA design implements forward *and* backward
//! passes plus SGD weight update so the demapper can retrain against
//! the live channel (§II-B). This module models that datapath:
//!
//! - **Timing** — an iterative schedule per training sample: forward
//!   (same MVAU chain as inference), backward (output-loss gradient,
//!   per-layer weight-gradient outer products and transposed
//!   matrix-vector products), and a weight update that time-shares the
//!   forward multiplier array. One sample occupies the module
//!   end-to-end (II = latency), matching the paper's 267 ns / 3.75
//!   Msym/s row.
//! - **Resources** — the forward array is reused for the backward
//!   matrix products (the DSP count stays near the inference design's),
//!   while gradient/activation buffering and double-buffered writable
//!   weight memories add FF/LUT/BRAM — reproducing the pattern of
//!   Table 2's training row.
//! - **Cost** — [`TrainerEngine`] charges the simulated time of each
//!   mini-batch step. The step itself runs in f32 on the host
//!   (`hybridem_nn::Sequential::bce_step`; substitution documented in
//!   DESIGN.md: we verify *behaviour* in float and model *cost*
//!   structurally).

use crate::power::PowerModel;
use crate::report::ImplReport;
use crate::resources::{self, ResourceUsage};
use hybridem_fixed::QFormat;

/// Static configuration of the trainer datapath.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Layer widths (same convention as `MlpSpec::dims`).
    pub(crate) dims: Vec<usize>,
    /// Weight format (shared with the inference design).
    pub(crate) weight_format: QFormat,
    /// Activation format.
    pub(crate) act_format: QFormat,
    /// Gradient format (usually wider than activations).
    pub(crate) grad_format: QFormat,
    /// Training mini-batch size buffered on chip.
    pub(crate) batch_size: usize,
    /// Fabric clock in MHz.
    pub(crate) clock_mhz: f64,
    /// Toggle activity for the power model (iterative designs idle
    /// stages while others work).
    pub(crate) activity: f64,
}

impl TrainerConfig {
    /// The paper-calibrated configuration for the 2→16→16→4 demapper.
    pub fn paper_default() -> Self {
        Self {
            dims: vec![2, 16, 16, 4],
            weight_format: QFormat::signed(8, 6),
            act_format: QFormat::signed(8, 5),
            grad_format: QFormat::signed(16, 10),
            batch_size: 1024,
            clock_mhz: 150.0,
            activity: 0.85,
        }
    }

    /// Scalar parameter count (weights + biases).
    pub(crate) fn num_params(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// MAC count of one forward pass.
    pub(crate) fn mac_count(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1]).sum()
    }
}

fn ceil_log2(n: usize) -> u64 {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()).max(1) as u64
}

/// The modelled trainer design.
#[derive(Clone, Debug)]
pub struct TrainerDesign {
    cfg: TrainerConfig,
}

impl TrainerDesign {
    /// Builds the model from a configuration.
    pub fn new(cfg: TrainerConfig) -> Self {
        assert!(cfg.dims.len() >= 2);
        assert!(cfg.batch_size >= 1);
        Self { cfg }
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Forward cycles: fully-unfolded MVAU chain, one cycle of multiply
    /// plus the adder tree per layer.
    pub(crate) fn forward_cycles(&self) -> u64 {
        self.cfg.dims.windows(2).map(|w| 1 + ceil_log2(w[0])).sum()
    }

    /// Backward cycles: loss gradient, then per layer (reversed) an
    /// outer-product weight-gradient step and — except for the input
    /// layer, whose input gradient nobody consumes — a transposed
    /// matrix-vector product with its own adder tree, plus the
    /// activation-derivative gating.
    pub(crate) fn backward_cycles(&self) -> u64 {
        let mut cycles = 1; // dL/dz = p − t at the output
        for (li, w) in self.cfg.dims.windows(2).enumerate().rev() {
            let out_dim = w[1];
            cycles += 2; // outer product dW = δ·aᵀ (multiply, accumulate)
            if li > 0 {
                // δ_prev = Wᵀ·δ, tree over out_dim, plus ReLU' gating.
                cycles += 1 + ceil_log2(out_dim) + 1;
            }
        }
        cycles
    }

    /// Update cycles: `lr·grad` subtractions time-sharing the forward
    /// multiplier array, plus a write-back beat.
    pub(crate) fn update_cycles(&self) -> u64 {
        let pool = self.cfg.mac_count().max(1);
        (self.cfg.num_params() as u64).div_ceil(pool as u64) + 1
    }

    /// Control/handshake overhead per sample (state machine, buffer
    /// pointers) — HLS iterative regions spend a few cycles per region
    /// entry/exit.
    pub(crate) fn control_cycles(&self) -> u64 {
        8
    }

    /// Total cycles for one training sample (forward + backward +
    /// control), excluding the per-batch update.
    pub(crate) fn cycles_per_sample(&self) -> u64 {
        self.forward_cycles() + self.backward_cycles() + self.control_cycles()
    }

    /// Cycles for one full mini-batch step.
    pub(crate) fn cycles_per_batch(&self) -> u64 {
        self.cfg.batch_size as u64 * self.cycles_per_sample() + self.update_cycles()
    }

    /// Per-sample latency in seconds (the paper's Table-2 latency row
    /// for AE-training).
    pub(crate) fn latency_s(&self) -> f64 {
        self.cycles_per_sample() as f64 / (self.cfg.clock_mhz * 1e6)
    }

    /// Training throughput in samples per second.
    pub(crate) fn throughput_per_s(&self) -> f64 {
        let per_sample = self.cycles_per_batch() as f64 / self.cfg.batch_size as f64;
        self.cfg.clock_mhz * 1e6 / per_sample
    }

    /// Structural resource estimate.
    pub(crate) fn resources(&self) -> ResourceUsage {
        let cfg = &self.cfg;
        let mut r = ResourceUsage::zero();
        let wb = cfg.weight_format.total_bits;
        let ab = cfg.act_format.total_bits;
        let gb = cfg.grad_format.total_bits;
        // Shared forward/backward multiplier array: one DSP per MAC of
        // the forward pass (reused for outer products, transposed
        // products and updates via input muxes).
        let macs = cfg.mac_count() as u64;
        r += resources::multiplier(ab, wb).times(macs);
        // Input-select muxes per multiplier for the sharing.
        r += resources::mux2(ab.max(gb)).times(macs * 2);
        // Adder trees per layer at gradient width (reused fwd/bwd).
        for w in cfg.dims.windows(2) {
            let acc_bits = cfg
                .act_format
                .accumulator(&cfg.weight_format, w[0])
                .total_bits;
            r += resources::reduction_tree(w[0], resources::adder(acc_bits)).times(w[1] as u64);
        }
        // Gradient accumulator registers: one per parameter.
        r += resources::register(gb).times(cfg.num_params() as u64);
        // Activation stash for backward: activations of every layer for
        // the current sample (registers), plus the batch buffer in BRAM.
        let act_regs: u64 = cfg.dims.iter().map(|&d| d as u64).sum();
        r += resources::register(ab).times(act_regs);
        // Double-buffered writable weight memories (ping-pong so
        // inference can keep running while weights update): 2 × per-PE
        // half-BRAM granularity, PE = out_dim per layer.
        let mut wmem = 0.0f64;
        for w in cfg.dims.windows(2) {
            let bits_per_pe = (w[0] as u64) * wb as u64;
            let per_pe = (bits_per_pe as f64 / 18_432.0).ceil().max(1.0) * 0.5;
            wmem += 2.0 * per_pe * w[1] as f64;
        }
        r += ResourceUsage {
            bram36: wmem,
            ..Default::default()
        };
        // Batch buffer: inputs + targets + per-layer activations for
        // `batch_size` samples, double-buffered so acquisition overlaps
        // training.
        let sample_bits: u64 = cfg.dims.iter().map(|&d| d as u64 * ab as u64).sum::<u64>()
            + *cfg.dims.last().unwrap() as u64 * ab as u64;
        r += resources::memory(2 * cfg.batch_size as u64 * sample_bits, 64);
        // Optimiser state (first-moment accumulator per parameter at
        // gradient width) and the staging copy of the weights being
        // written back.
        r += resources::memory(cfg.num_params() as u64 * gb as u64 * 2, 64);
        // Backward-path interconnect: gradient routing muxes and the
        // transpose read network around the shared multiplier array.
        r += ResourceUsage {
            lut: 4 * macs,
            ff: macs,
            ..Default::default()
        };
        // Loss unit (p − t per output) and learning-rate logic.
        r += resources::adder(gb).times(*cfg.dims.last().unwrap() as u64);
        r += ResourceUsage {
            lut: 400,
            ff: 300,
            ..Default::default()
        };
        r
    }

    /// Table-2-style report.
    pub fn report(&self, power: &PowerModel) -> ImplReport {
        let usage = self.resources();
        let thr = self.throughput_per_s();
        ImplReport {
            name: "AE-training".to_string(),
            clock_mhz: self.cfg.clock_mhz,
            latency_s: self.latency_s(),
            throughput_sym_s: thr,
            power_w: power.power_w(&usage, self.cfg.clock_mhz, self.cfg.activity),
            energy_per_sym_j: power.energy_per_symbol_j(
                &usage,
                self.cfg.clock_mhz,
                self.cfg.activity,
                thr,
            ),
            usage,
        }
    }
}

/// Cost accounting of on-chip retraining: the simulated time of the
/// mini-batch steps charged so far.
pub struct TrainerEngine<'a> {
    design: &'a TrainerDesign,
    /// Cumulative simulated time (s).
    pub total_time_s: f64,
}

impl<'a> TrainerEngine<'a> {
    /// New engine over a design.
    pub fn new(design: &'a TrainerDesign) -> Self {
        Self {
            design,
            total_time_s: 0.0,
        }
    }

    /// Charges one mini-batch step of `batch` samples: `batch` passes of
    /// one sample each, then one weight update, at the design's clock.
    pub fn charge_batch(&mut self, batch: usize) {
        let cycles = batch as u64 * self.design.cycles_per_sample() + self.design.update_cycles();
        self.total_time_s += cycles as f64 / (self.design.config().clock_mhz * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cycle_counts_in_range() {
        let d = TrainerDesign::new(TrainerConfig::paper_default());
        // Forward 12 cycles (matches the inference design).
        assert_eq!(d.forward_cycles(), 12);
        // Total per-sample ≈ 40 cycles → 267 ns at 150 MHz, the paper's
        // Table-2 latency for AE-training.
        let cycles = d.cycles_per_sample();
        assert!((30..=50).contains(&cycles), "cycles {cycles}");
        let lat = d.latency_s();
        assert!((2.0e-7..3.4e-7).contains(&lat), "latency {lat}");
    }

    #[test]
    fn trainer_fits_zu3eg_and_exceeds_inference_resources() {
        let d = TrainerDesign::new(TrainerConfig::paper_default());
        let r = d.resources();
        let device = crate::device::DeviceModel::zu3eg();
        assert!(device.fits(&r), "trainer must fit the part: {r:?}");
        // DSPs: shared array = 352, within the 360 budget.
        assert_eq!(r.dsp, 352);
        // More FF and BRAM than a pure inference design (gradient
        // registers, double-buffered weights, batch buffers).
        assert!(r.ff > 10_000, "FF {}", r.ff);
        assert!(r.bram36 > 30.0, "BRAM {}", r.bram36);
    }

    #[test]
    fn throughput_below_latency_inverse() {
        let d = TrainerDesign::new(TrainerConfig::paper_default());
        // Batch update amortises: throughput ≈ 1/latency with small loss.
        let thr = d.throughput_per_s();
        assert!(thr < 1.0 / d.latency_s());
        assert!(thr > 0.8 / d.latency_s());
    }

    #[test]
    fn engine_charges_modelled_cycles_per_batch() {
        let design = TrainerDesign::new(TrainerConfig::paper_default());
        let mut engine = TrainerEngine::new(&design);
        // 201 steps of 2 samples, each step summed onto the total.
        let step_s = (2 * design.cycles_per_sample() + design.update_cycles()) as f64 / 150e6;
        let mut want = 0.0f64;
        for _ in 0..201 {
            engine.charge_batch(2);
            want += step_s;
        }
        assert!(engine.total_time_s > 0.0);
        assert_eq!(engine.total_time_s.to_bits(), want.to_bits());
    }

    #[test]
    fn update_shares_forward_array() {
        let d = TrainerDesign::new(TrainerConfig::paper_default());
        // 388 params / 352 multipliers → 2 beats + writeback.
        assert_eq!(d.update_cycles(), 3);
    }
}
