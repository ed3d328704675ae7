//! **Table 1** — "Phase-offset adaption of AE and conventional
//! algorithm applied to extracted centroids": BER before/after
//! retraining at SNR −2 and 8 dB under a π/4 offset, against the
//! no-offset baseline.

use hybridem_bench::{banner, budget, write_json};
use hybridem_comm::channel::ChannelChain;
use hybridem_comm::theory::ber_qam16_gray;
use hybridem_core::config::SystemConfig;
use hybridem_core::pipeline::HybridPipeline;

struct Table1Row {
    snr_db: f64,
    baseline_ber: f64,
    ae_before: f64,
    centroid_before: f64,
    ae_after: f64,
    centroid_after: f64,
    paper_baseline: f64,
    paper_ae_before: f64,
    paper_centroid_before: f64,
    paper_ae_after: f64,
    paper_centroid_after: f64,
}

hybridem_mathkit::impl_json!(Table1Row {
    snr_db,
    baseline_ber,
    ae_before,
    centroid_before,
    ae_after,
    centroid_after,
    paper_baseline,
    paper_ae_before,
    paper_centroid_before,
    paper_ae_after,
    paper_centroid_after,
});

fn main() {
    banner(
        "Table 1 — phase-offset adaptation (π/4) of AE and extracted centroids",
        "Ney, Hammoud, Wehn (IPDPSW'22), Table 1",
    );
    let theta = std::f32::consts::FRAC_PI_4;
    // The paper's reported values for comparison (0.318 is a quoted
    // BER from Table 1, not 1/π).
    #[allow(clippy::approx_constant)]
    let paper = [
        (-2.0, 0.19, 0.318, 0.319, 0.199, 0.2005),
        (8.0, 0.0103, 0.316, 0.323, 0.0127, 0.0143),
    ];
    let mut rows = Vec::new();

    for &(snr, p_base, p_ae_b, p_c_b, p_ae_a, p_c_a) in &paper {
        let mut cfg = SystemConfig::paper_default().at_snr(snr);
        cfg.e2e_steps = budget(5000) as usize;
        cfg.retrain_steps = budget(2500) as usize;
        let es = cfg.es_n0_db();
        let symbols = budget(1_000_000);

        eprintln!("SNR {snr} dB: training …");
        let mut pipe = HybridPipeline::new(cfg);
        let _ = pipe.e2e_train();
        let _ = pipe.extract_centroids();

        let rotated = ChannelChain::phase_then_awgn(theta, es);
        let before = pipe.evaluate_three(&rotated, symbols, 41);
        eprintln!("  retraining on the rotated channel …");
        let mut live = ChannelChain::phase_then_awgn(theta, es);
        let _ = pipe.retrain(&mut live);
        let after = pipe.evaluate_three(&rotated, symbols, 42);

        rows.push(Table1Row {
            snr_db: snr,
            baseline_ber: ber_qam16_gray(es),
            ae_before: before[1].ber,
            centroid_before: before[2].ber,
            ae_after: after[1].ber,
            centroid_after: after[2].ber,
            paper_baseline: p_base,
            paper_ae_before: p_ae_b,
            paper_centroid_before: p_c_b,
            paper_ae_after: p_ae_a,
            paper_centroid_after: p_c_a,
        });
    }

    println!("\n|  | Before retraining | | After retraining | |");
    println!("| SNR | AE BER | Cent. BER | AE BER | Cent. BER | Baseline |");
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} (ours) | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} |",
            r.snr_db, r.ae_before, r.centroid_before, r.ae_after, r.centroid_after, r.baseline_ber
        );
        println!(
            "| {} (paper) | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} |",
            r.snr_db,
            r.paper_ae_before,
            r.paper_centroid_before,
            r.paper_ae_after,
            r.paper_centroid_after,
            r.paper_baseline
        );
    }

    let path = write_json("table1_adaptation.json", &rows);
    println!("\nartefact: {path:?}");
    println!("\nExpected shape (paper): before retraining both receivers sit");
    println!("near BER ≈ 0.32 at either SNR; after retraining they approach");
    println!("the no-offset baseline (0.19 / 0.0103).");
}
