//! System configuration.
//!
//! One [`SystemConfig`] describes an entire experiment: modulation
//! order, network topology, training hyper-parameters, channel
//! settings and extraction grid. The paper's SNR axis is interpreted
//! as **Eb/N0 in dB** (validated against Table 1's baseline BERs in
//! `hybridem-comm::theory`); conversions to noise σ happen here so
//! every component agrees.

use hybridem_comm::snr::{ebn0_to_esn0_db, noise_sigma};
use hybridem_nn::model::MlpSpec;

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Bits per symbol (4 = the paper's 16-QAM order).
    pub(crate) bits_per_symbol: usize,
    /// Demapper topology.
    pub demapper: MlpSpec,
    /// SNR in dB (Eb/N0 — the paper's axis).
    pub snr_db: f64,
    /// E2E training steps.
    pub e2e_steps: usize,
    /// Retraining steps (demapper only).
    pub retrain_steps: usize,
    /// Mini-batch size in symbols.
    pub batch_size: usize,
    /// Adam learning rate for E2E training.
    pub e2e_lr: f32,
    /// Adam learning rate for retraining.
    pub retrain_lr: f32,
    /// Extraction grid resolution (cells per axis).
    pub grid_n: usize,
    /// Extraction window half-width as a multiple of the largest
    /// constellation coordinate (4/3 keeps outer-cell mass centroids
    /// unbiased on square lattices — see `extraction`).
    pub window_scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's case-study configuration (16-QAM order, 2→16→16→4
    /// demapper, full-length training).
    pub fn paper_default() -> Self {
        Self {
            bits_per_symbol: 4,
            demapper: MlpSpec::paper_demapper_logits(),
            snr_db: 8.0,
            e2e_steps: 4000,
            retrain_steps: 1500,
            batch_size: 256,
            e2e_lr: 5e-3,
            retrain_lr: 5e-3,
            grid_n: 192,
            window_scale: 4.0 / 3.0,
            seed: 0xAE_2022,
        }
    }

    /// A reduced configuration for fast unit/doc tests (small budgets,
    /// coarse grid — still trains to a usable demapper at 8 dB).
    pub fn fast_test() -> Self {
        Self {
            e2e_steps: 600,
            retrain_steps: 400,
            batch_size: 128,
            grid_n: 64,
            ..Self::paper_default()
        }
    }

    /// Constellation size `M = 2^m`.
    pub fn num_symbols(&self) -> usize {
        1 << self.bits_per_symbol
    }

    /// Es/N0 in dB for the configured Eb/N0.
    pub fn es_n0_db(&self) -> f64 {
        ebn0_to_esn0_db(self.snr_db, self.bits_per_symbol)
    }

    /// Per-dimension AWGN σ at unit symbol energy.
    pub fn sigma(&self) -> f32 {
        noise_sigma(self.es_n0_db(), 1.0) as f32
    }

    /// The same configuration at a different SNR (for sweeps).
    pub fn at_snr(&self, snr_db: f64) -> Self {
        Self {
            snr_db,
            ..self.clone()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) {
        assert!(self.bits_per_symbol >= 1 && self.bits_per_symbol <= 8);
        assert_eq!(
            self.demapper.dims.first(),
            Some(&2),
            "demapper input must be 2 (I/Q)"
        );
        assert_eq!(
            self.demapper.dims.last(),
            Some(&self.bits_per_symbol),
            "demapper output must equal bits/symbol"
        );
        assert!(self.grid_n >= 16, "extraction grid too coarse");
        assert!(
            self.window_scale > 1.0,
            "window must extend beyond the constellation"
        );
        assert!(self.batch_size >= 16);
    }
}

hybridem_mathkit::impl_json!(SystemConfig {
    bits_per_symbol,
    demapper,
    snr_db,
    e2e_steps,
    retrain_steps,
    batch_size,
    e2e_lr,
    retrain_lr,
    grid_n,
    window_scale,
    seed,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_16qam() {
        let c = SystemConfig::paper_default();
        c.validate();
        assert_eq!(c.num_symbols(), 16);
        assert_eq!(c.demapper.mac_count(), 352);
    }

    #[test]
    fn snr_conversion_matches_comm() {
        let c = SystemConfig::paper_default().at_snr(8.0);
        // Eb/N0 8 dB, 4 bits ⇒ Es/N0 ≈ 14.02 dB.
        assert!((c.es_n0_db() - 14.0206).abs() < 1e-3);
        let sigma = c.sigma() as f64;
        let expect = noise_sigma(14.0206, 1.0);
        assert!((sigma - expect).abs() < 1e-6);
    }

    #[test]
    fn at_snr_only_changes_snr() {
        let a = SystemConfig::paper_default();
        let b = a.at_snr(-2.0);
        assert_eq!(b.snr_db, -2.0);
        assert_eq!(a.e2e_steps, b.e2e_steps);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn fast_test_is_valid() {
        SystemConfig::fast_test().validate();
    }

    #[test]
    #[should_panic(expected = "demapper output")]
    fn inconsistent_width_rejected() {
        let mut c = SystemConfig::paper_default();
        c.bits_per_symbol = 6;
        c.validate();
    }

    #[test]
    fn json_round_trip() {
        let c = SystemConfig::paper_default();
        let json = hybridem_mathkit::json::to_string(&c);
        let back: SystemConfig = hybridem_mathkit::json::from_str(&json).unwrap();
        assert_eq!(back.snr_db, c.snr_db);
        assert_eq!(back.demapper, c.demapper);
        assert_eq!(back.seed, c.seed);
    }
}
