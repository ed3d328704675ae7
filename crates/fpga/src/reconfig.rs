//! Reconfiguration economics: the paper's §III-D argument.
//!
//! "As the inference is performed much more frequently, this would
//! result \[in\] high idle time of the training module on an ASIC. In
//! contrast, FPGA can be reconfigured to either perform training or
//! inference, resulting in a more efficient use of resources."
//!
//! This module quantifies that claim: given the Table-2 designs, a
//! duty cycle (how often retraining runs and for how long), and a
//! partial-reconfiguration time model, it compares
//!
//! - **FPGA time-sharing** — one fabric alternating between the
//!   inference and training bitstreams, paying reconfiguration time;
//! - **ASIC co-residency** — both datapaths permanently instantiated,
//!   the idle one still leaking static power.

use crate::report::ImplReport;

/// Partial-reconfiguration throughput of the device's configuration
/// port. ZU+ ICAP moves 32 bits at 200 MHz ≈ 800 MB/s; bitstream size
/// scales with the reconfigured region.
#[derive(Clone, Copy, Debug)]
pub struct ReconfigModel {
    /// Configuration port bandwidth in bytes/second.
    pub(crate) port_bytes_per_s: f64,
    /// Partial bitstream size per reconfigured LUT (bytes) — frames
    /// cover CLBs; ~12 bytes/LUT is the UltraScale+ ballpark.
    pub(crate) bytes_per_lut: f64,
}

impl Default for ReconfigModel {
    fn default() -> Self {
        Self {
            port_bytes_per_s: 800e6,
            bytes_per_lut: 12.0,
        }
    }
}

impl ReconfigModel {
    /// Time to swap in a design occupying `lut` LUTs.
    pub(crate) fn swap_time_s(&self, lut: u64) -> f64 {
        (lut as f64 * self.bytes_per_lut) / self.port_bytes_per_s
    }
}

/// One adaptation episode: how much retraining is needed and how often.
#[derive(Clone, Copy, Debug)]
pub struct DutyCycle {
    /// Seconds between channel changes (mean time between retrains).
    pub period_s: f64,
    /// Training samples consumed per retrain.
    pub retrain_samples: u64,
}

impl DutyCycle {
    /// The paper's case study scale: retraining every few seconds with
    /// a few hundred thousand pilot samples.
    pub fn paper_scale() -> Self {
        Self {
            period_s: 10.0,
            retrain_samples: 384_000, // 1500 steps × 256 symbols
        }
    }
}

/// Outcome of the time-sharing vs co-residency comparison.
#[derive(Clone, Debug)]
pub struct ReconfigReport {
    /// Fraction of each period spent retraining (training + 2 swaps).
    pub training_duty: f64,
    /// Fraction of each period lost to reconfiguration alone.
    pub reconfig_overhead: f64,
    /// Average power of the FPGA time-sharing strategy \[W\].
    pub fpga_avg_power_w: f64,
    /// Average power of permanent co-residency (ASIC-style) \[W\],
    /// with the idle module contributing its static share.
    pub coresident_avg_power_w: f64,
}

/// Evaluates the trade-off for a (inference, trainer) design pair.
///
/// `idle_static_w` is the leakage attributable to the dormant trainer
/// when both designs are co-resident (ASIC or spatially partitioned
/// FPGA); the paper's argument is precisely that this silicon sits idle
/// almost always.
pub fn compare(
    inference: &ImplReport,
    trainer: &ImplReport,
    duty: &DutyCycle,
    model: &ReconfigModel,
    idle_static_w: f64,
) -> ReconfigReport {
    assert!(duty.period_s > 0.0);
    let train_time = duty.retrain_samples as f64 / trainer.throughput_sym_s;
    let swap = model.swap_time_s(trainer.usage.lut) + model.swap_time_s(inference.usage.lut);
    let busy = (train_time + swap).min(duty.period_s);
    let training_duty = busy / duty.period_s;

    // Time-sharing: inference power while inferring, trainer power
    // while training, negligible power during the swap.
    let fpga_avg = trainer.power_w * training_duty + inference.power_w * (1.0 - training_duty);
    // Co-residency: inference always on; trainer active for its duty
    // and leaking when idle.
    let co_avg =
        inference.power_w + trainer.power_w * training_duty + idle_static_w * (1.0 - training_duty);

    ReconfigReport {
        training_duty,
        reconfig_overhead: swap / duty.period_s,
        fpga_avg_power_w: fpga_avg,
        coresident_avg_power_w: co_avg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceUsage;

    fn report(name: &str, lut: u64, power: f64, thr: f64) -> ImplReport {
        ImplReport {
            name: name.into(),
            clock_mhz: 150.0,
            latency_s: 1e-7,
            throughput_sym_s: thr,
            usage: ResourceUsage {
                lut,
                ff: lut,
                dsp: 100,
                bram36: 10.0,
            },
            power_w: power,
            energy_per_sym_j: power / thr,
        }
    }

    fn designs() -> (ImplReport, ImplReport) {
        (
            report("inference", 10_000, 0.45, 1.25e7),
            report("trainer", 14_000, 0.52, 4.0e6),
        )
    }

    #[test]
    fn swap_time_scales_with_region() {
        let m = ReconfigModel::default();
        assert!(m.swap_time_s(20_000) > m.swap_time_s(10_000));
        // 10k LUTs ≈ 120 kB ≈ 150 µs at 800 MB/s.
        let t = m.swap_time_s(10_000);
        assert!(t > 1e-4 && t < 2e-4, "swap {t}");
    }

    #[test]
    fn duty_cycle_small_for_paper_scale() {
        let (inf, trn) = designs();
        let r = compare(
            &inf,
            &trn,
            &DutyCycle::paper_scale(),
            &ReconfigModel::default(),
            0.05,
        );
        // 384k samples at 4 Msym/s ≈ 96 ms per 10 s period ⇒ ~1 %.
        assert!(
            r.training_duty > 0.005 && r.training_duty < 0.02,
            "duty {}",
            r.training_duty
        );
        assert!(r.reconfig_overhead < 1e-3);
        // Time sharing beats co-residency (idle leakage dominates).
        assert!(r.fpga_avg_power_w < r.coresident_avg_power_w);
        // The FPGA average sits very close to the inference power.
        assert!((r.fpga_avg_power_w - inf.power_w).abs() < 0.01);
    }

    #[test]
    fn frequent_retraining_raises_duty() {
        let (inf, trn) = designs();
        let rare = compare(
            &inf,
            &trn,
            &DutyCycle {
                period_s: 100.0,
                retrain_samples: 384_000,
            },
            &ReconfigModel::default(),
            0.05,
        );
        let often = compare(
            &inf,
            &trn,
            &DutyCycle {
                period_s: 0.5,
                retrain_samples: 384_000,
            },
            &ReconfigModel::default(),
            0.05,
        );
        assert!(often.training_duty > rare.training_duty * 50.0);
        assert!(often.fpga_avg_power_w > rare.fpga_avg_power_w);
    }

    #[test]
    fn duty_saturates_at_one() {
        let (inf, trn) = designs();
        let r = compare(
            &inf,
            &trn,
            &DutyCycle {
                period_s: 0.01,
                retrain_samples: 10_000_000,
            },
            &ReconfigModel::default(),
            0.05,
        );
        assert!(r.training_duty <= 1.0);
        assert!((r.fpga_avg_power_w - trn.power_w).abs() < 1e-9);
    }

    #[test]
    fn zero_idle_leakage_still_favours_time_sharing_or_ties() {
        let (inf, trn) = designs();
        let r = compare(
            &inf,
            &trn,
            &DutyCycle::paper_scale(),
            &ReconfigModel::default(),
            0.0,
        );
        // With zero idle leakage the co-resident option pays the full
        // inference power plus the trainer burst — still ≥ time-sharing.
        assert!(r.coresident_avg_power_w >= r.fpga_avg_power_w - 1e-12);
    }
}
