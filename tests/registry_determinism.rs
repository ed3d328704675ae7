//! Backend-registry acceptance (DESIGN.md §13): enumerating the
//! campaign line-up from [`hybridem::core::registry::paper_registry`]
//! is a pure refactor — every family the old hand-built list produced
//! yields byte-identical campaign points — the registry's selection
//! rule is monotone in SNR: more SNR never buys a more expensive
//! backend, and never loses feasibility — every backend demaps a
//! block bit-identically however it is split, with finite LLRs — and
//! the refolded graph backends demap exactly as their unfolded graphs.

use hybridem::comm::campaign::{run_campaign, CampaignSpec, DemapperFamily, EarlyStop};
use hybridem::comm::constellation::Constellation;
use hybridem::comm::demapper::{Demapper, MaxLogMap};
use hybridem::comm::snr::{ebn0_to_esn0_db, noise_sigma};
use hybridem::core::config::SystemConfig;
use hybridem::core::eval::{campaign_families, paper_scenarios};
use hybridem::core::hybrid::HybridDemapper;
use hybridem::core::pipeline::HybridPipeline;
use hybridem::core::qat::{qat_quantized_demapper, QatConfig};
use hybridem::core::registry::{paper_registry, switch_registry, BackendRegistry};
use hybridem::fpga::demapper_accel::{SoftDemapperAccel, SoftDemapperConfig};
use hybridem::fpga::graph::QuantizedGraph;
use hybridem::fpga::mvau::Folding;
use hybridem::mathkit::complex::C32;
use hybridem::mathkit::json::ToJson;
use hybridem::mathkit::rng::{Rng64, Xoshiro256pp};
use proptest::prelude::*;
use std::sync::OnceLock;

fn trained_pipe() -> HybridPipeline {
    let mut pipe = HybridPipeline::new(SystemConfig::fast_test().at_snr(8.0));
    pipe.e2e_train();
    pipe.extract_centroids();
    pipe
}

/// Per-dimension σ on the paper's Eb/N0 axis — the exact conversion
/// the pre-registry family list used.
fn sigma_ebn0(snr_db: f64, bits: usize) -> f32 {
    noise_sigma(ebn0_to_esn0_db(snr_db, bits), 1.0) as f32
}

/// The pre-registry hand-built family list, reconstructed verbatim:
/// conventional max-log, AE-inference, hybrid centroids, the
/// fixed-point accelerator, and one QAT family per graph.
fn hand_built<'a>(
    pipe: &'a HybridPipeline,
    accel_cfg: SoftDemapperConfig,
    quantized: &'a [QuantizedGraph],
) -> Vec<DemapperFamily<'a>> {
    let hybrid = pipe.hybrid_demapper().expect("centroids extracted");
    let m = pipe.constellation().bits_per_symbol();
    let qam = Constellation::qam_gray(pipe.config().num_symbols());
    let learned = pipe.constellation();
    let centroids = hybrid.centroids().clone();
    let accel_centroids = centroids.points().to_vec();
    let conv_tx = qam.clone();
    let mut families = vec![
        DemapperFamily::new(
            "conventional",
            conv_tx,
            Box::new(move |snr| Box::new(MaxLogMap::new(qam.clone(), sigma_ebn0(snr, m)))),
        ),
        DemapperFamily::new(
            "AE-inference",
            learned.clone(),
            Box::new(move |_snr| Box::new(pipe.ann_demapper())),
        ),
        DemapperFamily::new(
            "hybrid-centroids",
            learned.clone(),
            Box::new(move |snr| {
                Box::new(HybridDemapper::from_centroids(
                    centroids.clone(),
                    sigma_ebn0(snr, m),
                ))
            }),
        ),
        DemapperFamily::new(
            "fixed-point-accel",
            learned.clone(),
            Box::new(move |snr| {
                Box::new(SoftDemapperAccel::new(
                    accel_cfg.clone(),
                    &accel_centroids,
                    sigma_ebn0(snr, m),
                ))
            }),
        ),
    ];
    for graph in quantized {
        families.push(DemapperFamily::new(
            format!("ann-qat-w{}", graph.weight_bits()),
            learned.clone(),
            Box::new(move |_snr| Box::new(graph)),
        ));
    }
    families
}

/// Runs a seeded micro-campaign (one AWGN scenario, two grid SNRs,
/// tight symbol cap) and returns `(family, point-json)` rows.
fn micro_points(families: Vec<DemapperFamily<'_>>) -> Vec<(String, String)> {
    let mut scenarios = paper_scenarios(4);
    scenarios.truncate(1);
    let mut spec = CampaignSpec::new(families, scenarios, vec![4.0, 8.0], 0xD0_0D);
    spec.name = "registry-equivalence-micro".to_string();
    spec.stop = EarlyStop::paper_default().capped(2_048);
    let report = run_campaign(&spec);
    report.validate().unwrap();
    report
        .points
        .iter()
        .map(|p| (p.family.clone(), p.to_json().to_string_pretty()))
        .collect()
}

/// The registry-enumerated campaign reproduces the hand-built list's
/// points byte-for-byte. The registry appends two new families
/// (exact-logmap, snn-event) after the historical ones, so the shared
/// families occupy the same seed-bearing matrix rows; their cells must
/// therefore serialise identically.
#[test]
fn registry_campaign_matches_the_hand_built_line_up() {
    let pipe = trained_pipe();
    let mut qcfg = QatConfig::at_bits(8);
    qcfg.steps = 40;
    let quantized = vec![qat_quantized_demapper(&pipe, &qcfg)];
    let accel_cfg = SoftDemapperConfig::paper_default();

    let via_registry = micro_points(campaign_families(&pipe, accel_cfg.clone(), &quantized));
    let by_hand = micro_points(hand_built(&pipe, accel_cfg, &quantized));

    let hand_names: Vec<&str> = ["conventional", "AE-inference", "hybrid-centroids"]
        .into_iter()
        .chain(["fixed-point-accel", "ann-qat-w8"])
        .collect();
    let shared: Vec<&(String, String)> = via_registry
        .iter()
        .filter(|(fam, _)| hand_names.contains(&fam.as_str()))
        .collect();
    assert_eq!(shared.len(), by_hand.len(), "one row per historical cell");
    for (reg_row, hand_row) in shared.iter().zip(&by_hand) {
        assert_eq!(reg_row.0, hand_row.0, "family order preserved");
        assert_eq!(
            reg_row.1, hand_row.1,
            "registry family {} must reproduce the hand-built points byte-for-byte",
            reg_row.0
        );
    }
    // And the registry adds the two new families on top.
    assert!(via_registry.iter().any(|(f, _)| f == "exact-logmap"));
    assert!(via_registry.iter().any(|(f, _)| f == "snn-event"));
}

/// One shared registry for the selection properties — built once; the
/// pipeline training dominates the test's cost.
fn shared_registry() -> &'static BackendRegistry {
    static REG: OnceLock<BackendRegistry> = OnceLock::new();
    REG.get_or_init(|| switch_registry(&trained_pipe(), &[]))
}

/// Quick W4/W6/W8 QAT graphs and the two registries built over them.
struct QuickLineUp {
    graphs: Vec<QuantizedGraph>,
    paper: BackendRegistry,
    switch: BackendRegistry,
}

/// Quick QAT graphs and their registries — built once; the pipeline
/// training dominates the cost.
fn quick_line_up() -> &'static QuickLineUp {
    static LINE_UP: OnceLock<QuickLineUp> = OnceLock::new();
    LINE_UP.get_or_init(|| {
        let pipe = trained_pipe();
        let graphs: Vec<QuantizedGraph> = [4u32, 6, 8]
            .iter()
            .map(|&bits| {
                let mut qcfg = QatConfig::at_bits(bits);
                qcfg.steps = 4;
                qcfg.batch = 16;
                qat_quantized_demapper(&pipe, &qcfg)
            })
            .collect();
        QuickLineUp {
            paper: paper_registry(&pipe, &SoftDemapperConfig::paper_default(), &graphs),
            switch: switch_registry(&pipe, &graphs),
            graphs,
        }
    })
}

/// The full paper line-up with the quick graphs, so every backend kind
/// (max-log, float ANN, hybrid, accelerator, integer graphs, exact
/// log-MAP, spiking) is covered.
fn paper_line_up() -> &'static BackendRegistry {
    &quick_line_up().paper
}

/// The registry serves each graph refolded to the fabric budget its
/// weight width earns (PE×SIMD 4×8 at W8, 8×8 at W6, 16×16 at W4).
/// Folding prices the backend and nothing else: its `demap_block`
/// LLRs equal the unfolded graph's bit for bit at block lengths on
/// both sides of the lane and tile edges.
#[test]
fn refolded_graph_backends_demap_bit_identically_to_their_graphs() {
    let line_up = quick_line_up();
    let reg = &line_up.switch;
    let mut rng = Xoshiro256pp::seed_from_u64(0xF01D);
    let ys: Vec<C32> = (0..4096)
        .map(|_| C32::new(rng.normal_f32() * 0.7, rng.normal_f32() * 0.7))
        .collect();
    for graph in &line_up.graphs {
        let bits = graph.weight_bits();
        let name = format!("ann-qat-w{bits}");
        let backend = reg.get(reg.find(&name).expect("graph backend registered"));
        let folding = match bits {
            8 => Folding::new(4, 8),
            6 => Folding::new(8, 8),
            _ => Folding::new(16, 16),
        };
        // The backend is costed at that folding, so it really serves
        // the refolded graph.
        let ii = graph
            .with_folding(folding)
            .mvaus()
            .iter()
            .map(|m| m.config().ii_cycles())
            .max()
            .unwrap();
        assert_eq!(
            backend.cost(10.0).cycles_per_symbol,
            ii as f64,
            "{name}: cost must come from the {folding:?} refold"
        );
        let served = backend.demapper(10.0);
        let m = graph.bits_per_symbol();
        for n in [1usize, 17, 257, 4096] {
            let mut want = vec![0f32; n * m];
            graph.demap_block(&ys[..n], &mut want);
            let mut got = vec![0f32; n * m];
            served.demap_block(&ys[..n], &mut got);
            assert!(
                want.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name} n={n}: the refolded backend changed the LLRs"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A backend's LLRs for a symbol do not depend on the block it
    /// arrives in — the property the link server's byte-identical
    /// output across batch sizes rests on, and the one `llrs` (a
    /// one-symbol block) inherits — and finite input gives finite
    /// LLRs from deep noise to 40 dB.
    #[test]
    fn every_backend_demaps_split_blocks_identically_with_finite_llrs(
        len in 0usize..301,
        cut in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let at = (cut % (len as u64 + 1)) as usize;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for (_, backend) in paper_line_up().iter() {
            let points = backend.constellation().points();
            for es_n0_db in [-10.0, 0.0, 14.0, 40.0] {
                let sigma = noise_sigma(es_n0_db, 1.0) as f32;
                let ys: Vec<C32> = (0..len)
                    .map(|_| {
                        let c = points[rng.below(points.len() as u32) as usize];
                        C32::new(
                            c.re + sigma * rng.normal_f32(),
                            c.im + sigma * rng.normal_f32(),
                        )
                    })
                    .collect();
                let d = backend.demapper(es_n0_db);
                let m = d.bits_per_symbol();
                let mut whole = vec![0f32; len * m];
                d.demap_block(&ys, &mut whole);
                let mut split = vec![0f32; len * m];
                let (head, tail) = split.split_at_mut(at * m);
                d.demap_block(&ys[..at], head);
                d.demap_block(&ys[at..], tail);
                let name = backend.name();
                prop_assert!(
                    whole.iter().zip(&split).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} at {} dB: splitting {} symbols at {} changed the LLRs",
                    name, es_n0_db, len, at
                );
                prop_assert!(
                    whole.iter().all(|l| l.is_finite()),
                    "{} at {} dB: non-finite LLR", name, es_n0_db
                );
            }
        }
    }

    /// Selection is monotone in SNR: raising Es/N0 (a) never loses
    /// feasibility, and (b) never selects a backend that is strictly
    /// more expensive than the low-SNR choice at the same operating
    /// point — the controller's downshift-on-rising-SNR behaviour is
    /// a theorem of the rule, not a tuning accident.
    #[test]
    fn selection_is_monotone_in_snr(lo in -5.0f64..30.0, delta in 0.0f64..20.0) {
        let reg = shared_registry();
        let target = 2e-2;
        let hi = lo + delta;
        if let Some(a) = reg.select(lo, target) {
            let b = reg.select(hi, target)
                .expect("feasible at lo ⇒ feasible at hi (predicted BER decreasing in SNR)");
            let cost_a = reg.get(a).cost(hi);
            let cost_b = reg.get(b).cost(hi);
            prop_assert!(
                !cost_a.cheaper_than(&cost_b),
                "selection at {hi:.2} dB ({}) costs more than the {lo:.2} dB choice ({})",
                reg.get(b).name(),
                reg.get(a).name()
            );
        }
        // The graceful-floor variant always returns something and
        // agrees with `select` whenever the target is reachable.
        let floor = reg.select_or_best(hi, target);
        if let Some(b) = reg.select(hi, target) {
            prop_assert_eq!(floor, b);
        }
    }
}
