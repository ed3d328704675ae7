//! Evaluation harness: the BER comparisons of Fig. 2 and Table 1.
//!
//! Three receivers are compared throughout the paper:
//!
//! 1. **conventional** — Gray 16-QAM transmitter + max-log demapper
//!    with perfect knowledge of the (unrotated) constellation;
//! 2. **AE-inference** — the learned constellation, demapped by the
//!    trained ANN itself;
//! 3. **hybrid (centroid extraction)** — the learned constellation,
//!    demapped by the conventional max-log algorithm running on the
//!    centroids extracted from the trained ANN.

//!
//! For SNR-sweep campaigns ([`hybridem_comm::campaign`]), the same
//! receivers — plus the bit-exact fixed-point FPGA accelerator model —
//! are exposed as [`campaign_families`], and the paper's channel
//! impairments as [`paper_scenarios`]; both interpret the campaign's
//! grid values as **Eb/N0 in dB** (the paper's axis).

use crate::pipeline::HybridPipeline;
use crate::registry::{paper_registry, BackendRegistry};
use hybridem_comm::campaign::{ChannelScenario, DemapperFamily};
use hybridem_comm::channel::{Awgn, Channel, ChannelChain, IqImbalance, RayleighBlockFading};
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::Demapper;
use hybridem_comm::linksim::{simulate_link, LinkSpec};
use hybridem_comm::snr::ebn0_to_esn0_db;
use hybridem_fpga::demapper_accel::SoftDemapperConfig;
use hybridem_fpga::graph::QuantizedGraph;

/// One measured operating point.
#[derive(Clone, Debug)]
pub struct BerPoint {
    /// Receiver label.
    pub(crate) receiver: String,
    /// SNR in dB (Eb/N0, the paper's axis).
    pub(crate) snr_db: f64,
    /// Bit error rate.
    pub ber: f64,
    /// 95 % Wilson interval of the BER.
    pub(crate) ber_ci: (f64, f64),
    /// Symbol error rate.
    pub(crate) ser: f64,
    /// Bitwise mutual information (bits per bit).
    pub mi: f64,
    /// Simulated bits.
    pub(crate) bits: u64,
    /// Observed bit errors.
    pub bit_errors: u64,
}

hybridem_mathkit::impl_json!(BerPoint {
    receiver,
    snr_db,
    ber,
    ber_ci,
    ser,
    mi,
    bits,
    bit_errors,
});

/// Measures one receiver on one channel.
pub(crate) fn measure(
    receiver: &str,
    snr_db: f64,
    constellation: &Constellation,
    channel: &dyn Channel,
    demapper: &dyn Demapper,
    symbols: u64,
    seed: u64,
) -> BerPoint {
    let spec = LinkSpec::new(constellation, channel, demapper, symbols, seed);
    let r = simulate_link(&spec);
    BerPoint {
        receiver: receiver.to_string(),
        snr_db,
        ber: r.ber(),
        ber_ci: r.bit_errors.wilson_interval(1.96),
        ser: r.ser(),
        mi: r.mi.mi(),
        bits: r.bit_errors.trials(),
        bit_errors: r.bit_errors.errors(),
    }
}

/// Lowers a backend registry to campaign demapper families, one per
/// entry in registration order (grid SNR = **Eb/N0 in dB**, converted
/// to the registry's Es/N0 axis per family's symbol width). The
/// builders capture shared backend handles, so the returned families
/// own everything and outlive the registry borrow.
pub(crate) fn registry_families(registry: &BackendRegistry) -> Vec<DemapperFamily<'static>> {
    registry
        .iter()
        .map(|(_, b)| {
            let m = b.constellation().bits_per_symbol();
            let backend = b.clone();
            DemapperFamily::new(
                backend.name().to_string(),
                b.constellation().clone(),
                Box::new(move |snr| {
                    Box::new(backend.demapper(ebn0_to_esn0_db(snr, m))) as Box<dyn Demapper>
                }),
            )
        })
        .collect()
}

/// The paper's receiver line-up as campaign demapper families: the
/// full [`paper_registry`] enumerated through `registry_families`
/// (grid SNR = **Eb/N0 in dB**):
///
/// 1. `conventional` — Gray QAM + max-log with the true constellation;
/// 2. `AE-inference` — the learned constellation demapped by the
///    trained ANN itself (a shared bit-identical copy of the trained
///    network);
/// 3. `hybrid-centroids` — max-log on the extracted centroids;
/// 4. `fixed-point-accel` — the bit-exact integer model of the FPGA
///    soft-demapper accelerator running on the same centroids;
/// 5. one `ann-qat-w{bits}` family per entry of `quantized` — the
///    QAT-fine-tuned ANN lowered to the shared integer IR
///    ([`hybridem_fpga::graph`], DESIGN.md §9), shared per grid
///    point like the float ANN. Sweeping W4/W6/W8 here is what puts
///    the BER-vs-bitwidth trade-off into the waterfall artefact;
/// 6. `exact-logmap` — the optimal bitwise demapper on Gray QAM; and
/// 7. `snn-event` — the event-driven/spiking readout stub on the
///    extracted centroids.
///
/// Families 1–5 are byte-identical to the hand-built list this
/// function replaced (pinned by `tests/registry_determinism.rs`).
///
/// # Panics
/// Panics unless [`HybridPipeline::extract_centroids`] ran (the
/// centroid-backed families need the extracted set).
pub fn campaign_families(
    pipe: &HybridPipeline,
    accel_cfg: SoftDemapperConfig,
    quantized: &[QuantizedGraph],
) -> Vec<DemapperFamily<'static>> {
    registry_families(&paper_registry(pipe, &accel_cfg, quantized))
}

/// The paper's channel impairments as campaign scenarios
/// (grid SNR = **Eb/N0 in dB** for a `bits`-bit symbol): pure AWGN,
/// the π/4 phase-offset study, IQ imbalance, and block Rayleigh
/// fading — each with AWGN at the grid SNR applied last.
pub fn paper_scenarios(bits: usize) -> Vec<ChannelScenario<'static>> {
    vec![
        ChannelScenario::new(
            "awgn",
            Box::new(move |snr| Box::new(Awgn::from_es_n0_db(ebn0_to_esn0_db(snr, bits)))),
        ),
        ChannelScenario::new(
            "phase-pi4+awgn",
            Box::new(move |snr| {
                Box::new(ChannelChain::phase_then_awgn(
                    std::f32::consts::FRAC_PI_4,
                    ebn0_to_esn0_db(snr, bits),
                ))
            }),
        ),
        ChannelScenario::new(
            "iq-imbalance+awgn",
            Box::new(move |snr| {
                Box::new(ChannelChain::new(vec![
                    Box::new(IqImbalance::new(0.05, 0.05)),
                    Box::new(Awgn::from_es_n0_db(ebn0_to_esn0_db(snr, bits))),
                ]))
            }),
        ),
        ChannelScenario::new(
            "rayleigh64+awgn",
            Box::new(move |snr| {
                Box::new(ChannelChain::new(vec![
                    Box::new(RayleighBlockFading::new(64)),
                    Box::new(Awgn::from_es_n0_db(ebn0_to_esn0_db(snr, bits))),
                ]))
            }),
        ),
    ]
}

/// Renders points as a Markdown table (EXPERIMENTS.md format).
pub fn markdown_table(points: &[BerPoint]) -> String {
    let mut s = String::from(
        "| Receiver | SNR [dB] | BER | 95% CI | SER | bitwise MI |\n|---|---|---|---|---|---|\n",
    );
    for p in points {
        s.push_str(&format!(
            "| {} | {} | {:.4e} | [{:.2e}, {:.2e}] | {:.4e} | {:.3} |\n",
            p.receiver, p.snr_db, p.ber, p.ber_ci.0, p.ber_ci.1, p.ser, p.mi
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_comm::channel::Awgn;
    use hybridem_comm::demapper::MaxLogMap;
    use hybridem_comm::snr::{ebn0_to_esn0_db, noise_sigma};
    use hybridem_comm::theory::ber_qam16_gray;

    #[test]
    fn measure_matches_theory_for_conventional() {
        let snr_db = 4.0; // Eb/N0
        let es_n0 = ebn0_to_esn0_db(snr_db, 4);
        let sigma = noise_sigma(es_n0, 1.0) as f32;
        let qam = Constellation::qam_gray(16);
        let channel = Awgn::new(sigma);
        let demapper = MaxLogMap::new(qam.clone(), sigma);
        let p = measure(
            "conventional",
            snr_db,
            &qam,
            &channel,
            &demapper,
            200_000,
            3,
        );
        let theory = ber_qam16_gray(es_n0);
        assert!(
            p.ber_ci.0 * 0.8 <= theory && theory <= p.ber_ci.1 * 1.2,
            "theory {theory} vs CI {:?}",
            p.ber_ci
        );
        assert!(p.mi > 0.5 && p.mi <= 1.0);
        assert_eq!(p.bits, p.bit_errors + (p.bits - p.bit_errors));
    }

    #[test]
    fn campaign_families_cover_the_paper_line_up() {
        use crate::config::SystemConfig;
        use hybridem_comm::campaign::{run_campaign, CampaignSpec, EarlyStop};

        // Untrained network: centroids are meaningless but extraction's
        // fallback still yields a full labelled set, which is all the
        // wiring test needs.
        let mut pipe = HybridPipeline::new(SystemConfig::fast_test());
        let _ = pipe.extract_centroids();
        // One quantised family rides along: the W8 graph compiled
        // straight from the (untrained) demapper model.
        let mut qcfg = crate::qat::QatConfig::at_bits(8);
        qcfg.steps = 10;
        qcfg.batch = 32;
        let quantized = vec![crate::qat::qat_quantized_demapper(&pipe, &qcfg)];
        let families = campaign_families(&pipe, SoftDemapperConfig::paper_default(), &quantized);
        assert_eq!(
            families.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec![
                "conventional",
                "AE-inference",
                "hybrid-centroids",
                "fixed-point-accel",
                "ann-qat-w8",
                "exact-logmap",
                "snn-event",
            ]
        );

        let scenarios = paper_scenarios(4);
        assert_eq!(scenarios.len(), 4);

        // Micro-campaign across the full family line-up on one AWGN
        // point: every family must produce a valid artefact cell.
        let mut spec = CampaignSpec::new(
            families,
            paper_scenarios(4).into_iter().take(1).collect(),
            vec![6.0],
            5,
        );
        spec.stop = EarlyStop {
            target_bit_errors: 50,
            max_symbols_per_point: 4_096,
            first_round_symbols: 2_048,
            growth: 2,
        };
        spec.tasks = 4;
        let report = run_campaign(&spec);
        assert_eq!(report.points.len(), 7);
        report.validate().expect("campaign artefact invariants");
        // The conventional receiver at 6 dB Eb/N0 must be in a sane
        // BER range; the untrained ANN must be much worse.
        let conv = &report.points[0];
        let ann = &report.points[1];
        assert!(conv.ber < 0.1, "conventional BER {}", conv.ber);
        assert!(ann.ber > conv.ber, "untrained ANN can't beat max-log");
    }

    #[test]
    fn markdown_renders_rows() {
        let p = BerPoint {
            receiver: "x".into(),
            snr_db: 8.0,
            ber: 1e-2,
            ber_ci: (0.9e-2, 1.1e-2),
            ser: 3e-2,
            mi: 0.93,
            bits: 1000,
            bit_errors: 10,
        };
        let md = markdown_table(&[p]);
        assert!(md.contains("| x | 8 |"));
        assert_eq!(md.lines().count(), 3);
    }
}
