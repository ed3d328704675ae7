//! Receiver-side retraining (paper step 2).
//!
//! The mapper constellation is frozen (no feedback channel needed);
//! only the demapper retrains, from pilot transmissions through the
//! *actual* channel — the paper's case study uses AWGN plus a π/4
//! phase offset. Optionally every step is charged against the FPGA
//! trainer cost model, reproducing the "retraining on the board"
//! scenario with simulated time and energy.

use crate::config::SystemConfig;
use crate::demapper_ann::NeuralDemapper;
use hybridem_comm::bits::bit_of;
use hybridem_comm::channel::Channel;
use hybridem_comm::constellation::Constellation;
use hybridem_fpga::trainer::{TrainerConfig, TrainerDesign, TrainerEngine};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_nn::Adam;

/// Outcome of a retraining run.
#[derive(Clone, Debug)]
pub struct RetrainReport {
    /// Loss after the final step.
    pub final_loss: f32,
    /// Loss before the first update (how broken the channel was).
    pub initial_loss: f32,
    /// Steps executed.
    pub steps: usize,
    /// Simulated on-chip training time (s), when hardware accounting
    /// was enabled.
    pub(crate) sim_time_s: Option<f64>,
}

/// Demapper-only retrainer.
pub struct Retrainer {
    cfg: SystemConfig,
    rng: Xoshiro256pp,
    opt: Adam,
    /// Charge steps against the FPGA trainer model when set.
    hardware: Option<TrainerDesign>,
}

impl Retrainer {
    /// New retrainer (pure software).
    pub fn new(cfg: &SystemConfig) -> Self {
        Self {
            rng: Xoshiro256pp::stream(cfg.seed, 2),
            opt: Adam::new(cfg.retrain_lr),
            hardware: None,
            cfg: cfg.clone(),
        }
    }

    /// Enables FPGA cost accounting with the paper's trainer design.
    pub fn with_hardware_accounting(mut self) -> Self {
        self.hardware = Some(TrainerDesign::new(TrainerConfig::paper_default()));
        self
    }

    /// Retrains `demapper` against `channel`, transmitting pilot
    /// symbols from the frozen `constellation`. Each step runs
    /// [`hybridem_nn::Sequential::bce_step`] on a fresh pilot block; the
    /// loss is computed at the first and the last step only, the two the
    /// report carries. The pilot buffers are set up once, so a warm step
    /// allocates nothing.
    pub fn run(
        &mut self,
        constellation: &Constellation,
        channel: &mut dyn Channel,
        demapper: &mut NeuralDemapper,
    ) -> RetrainReport {
        let m = constellation.bits_per_symbol();
        let b = self.cfg.batch_size;
        let steps = self.cfg.retrain_steps;
        let mut engine = self.hardware.as_ref().map(TrainerEngine::new);
        let model = demapper.model_mut();

        let mut initial_loss = f32::NAN;
        let mut final_loss = f32::NAN;
        let mut pilots = vec![C32::zero(); b];
        let mut targets = Matrix::zeros(b, m);
        let mut y = Matrix::zeros(b, 2);
        for step in 0..steps {
            // Pilot block: known random symbols through the live channel.
            for (r, pilot) in pilots.iter_mut().enumerate() {
                let idx = (self.rng.next_u64() >> (64 - m)) as usize;
                for k in 0..m {
                    targets[(r, k)] = f32::from(bit_of(idx, m, k));
                }
                *pilot = constellation.point(idx);
            }
            channel.transmit(&mut pilots, &mut self.rng);
            for (r, p) in pilots.iter().enumerate() {
                y.row_mut(r).copy_from_slice(&[p.re, p.im]);
            }

            let logged = step == 0 || step + 1 == steps;
            if let Some(loss) = model.bce_step(&mut self.opt, &y, &targets, logged) {
                if step == 0 {
                    initial_loss = loss;
                }
                final_loss = loss;
            }
            if let Some(engine) = engine.as_mut() {
                engine.charge_batch(b);
            }
        }

        RetrainReport {
            final_loss,
            initial_loss,
            steps,
            sim_time_s: engine.as_ref().map(|e| e.total_time_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::E2eTrainer;
    use crate::mapper::NeuralMapper;
    use hybridem_comm::channel::ChannelChain;

    fn trained_system(cfg: &SystemConfig) -> (NeuralMapper, NeuralDemapper) {
        let mut rng = Xoshiro256pp::stream(cfg.seed, 0);
        let mut mapper = NeuralMapper::new(cfg.num_symbols(), &mut rng);
        let mut demapper = NeuralDemapper::new(cfg.demapper.build(&mut rng));
        let mut t = E2eTrainer::new(cfg);
        let _ = t.train(&mut mapper, &mut demapper);
        (mapper, demapper)
    }

    #[test]
    fn retraining_recovers_phase_offset() {
        let mut cfg = SystemConfig::fast_test();
        cfg.e2e_steps = 600;
        cfg.retrain_steps = 500;
        cfg.snr_db = 8.0;
        let (mapper, mut demapper) = trained_system(&cfg);
        let constellation = mapper.constellation();
        let mut channel =
            ChannelChain::phase_then_awgn(std::f32::consts::FRAC_PI_4, cfg.es_n0_db());
        let mut rt = Retrainer::new(&cfg);
        let report = rt.run(&constellation, &mut channel, &mut demapper);
        assert!(
            report.final_loss < report.initial_loss * 0.25,
            "retraining must recover the rotated channel: {} → {}",
            report.initial_loss,
            report.final_loss
        );
    }

    #[test]
    fn hardware_accounting_charges_time() {
        let mut cfg = SystemConfig::fast_test();
        cfg.e2e_steps = 200;
        cfg.retrain_steps = 50;
        let (mapper, mut demapper) = trained_system(&cfg);
        let constellation = mapper.constellation();
        let mut channel = ChannelChain::phase_then_awgn(0.3, cfg.es_n0_db());
        let mut rt = Retrainer::new(&cfg).with_hardware_accounting();
        let report = rt.run(&constellation, &mut channel, &mut demapper);
        let t = report.sim_time_s.unwrap();
        // 50 steps × 128 samples × ~40 cycles at 150 MHz ≈ 1.7 ms.
        assert!(t > 1e-4 && t < 1e-1, "sim time {t}");
    }

    #[test]
    fn report_counts_steps() {
        let mut cfg = SystemConfig::fast_test();
        cfg.e2e_steps = 100;
        cfg.retrain_steps = 7;
        let (mapper, mut demapper) = trained_system(&cfg);
        let constellation = mapper.constellation();
        let mut channel = ChannelChain::phase_then_awgn(0.1, cfg.es_n0_db());
        let mut rt = Retrainer::new(&cfg);
        let report = rt.run(&constellation, &mut channel, &mut demapper);
        assert_eq!(report.steps, 7);
        assert!(report.sim_time_s.is_none());
    }
}
