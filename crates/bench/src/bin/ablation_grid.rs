//! **Ablation — extraction grid resolution.** How finely must the
//! demapper's input space be sampled for faithful centroids? Sweeps
//! the grid resolution and reports Voronoi disagreement, centroid
//! stability and hybrid BER.

use hybridem_bench::{banner, budget, write_json};
use hybridem_comm::channel::{Awgn, Channel};
use hybridem_comm::linksim::{simulate_link, LinkSpec};
use hybridem_core::config::SystemConfig;
use hybridem_core::extraction::{extract, ExtractionConfig};
use hybridem_core::hybrid::HybridDemapper;
use hybridem_core::pipeline::HybridPipeline;

struct GridRow {
    grid_n: usize,
    voronoi_disagreement: f64,
    missing: usize,
    hybrid_ber: f64,
    centroid_drift_vs_finest: f64,
    extraction_samples: usize,
}

hybridem_mathkit::impl_json!(GridRow {
    grid_n,
    voronoi_disagreement,
    missing,
    hybrid_ber,
    centroid_drift_vs_finest,
    extraction_samples,
});

fn main() {
    banner(
        "Ablation — extraction grid resolution",
        "sampling step of §II-C (\"sample over the two-dimensional input space\")",
    );
    let mut cfg = SystemConfig::paper_default();
    cfg.e2e_steps = budget(4000) as usize;
    let sigma = cfg.sigma();
    let symbols = budget(400_000);

    let mut pipe = HybridPipeline::new(cfg);
    let _ = pipe.e2e_train();
    let constellation = pipe.constellation();
    let channel = Awgn::from_es_n0_db(pipe.config().es_n0_db());

    // Finest grid as the reference for centroid drift.
    let finest = extract(
        pipe.ann_demapper(),
        &ExtractionConfig::new(384, 4.0 / 3.0),
        &constellation,
    );

    let mut rows = Vec::new();
    for &n in &[24usize, 32, 48, 64, 96, 128, 192, 256] {
        let report = extract(
            pipe.ann_demapper(),
            &ExtractionConfig::new(n, 4.0 / 3.0),
            &constellation,
        );
        let hybrid = HybridDemapper::from_extraction(&report, sigma);
        let spec = LinkSpec::new(
            &constellation,
            &channel as &dyn Channel,
            &hybrid,
            symbols,
            23,
        );
        let ber = simulate_link(&spec).ber();
        let drift = report
            .centroids
            .iter()
            .zip(&finest.centroids)
            .map(|(a, b)| a.dist_sqr(*b).sqrt() as f64)
            .fold(0.0, f64::max);
        rows.push(GridRow {
            grid_n: n,
            voronoi_disagreement: report.voronoi_disagreement,
            missing: report.missing_labels.len(),
            hybrid_ber: ber,
            centroid_drift_vs_finest: drift,
            extraction_samples: n * n,
        });
        eprintln!(
            "grid {n:3}² → vdis {:.3}, BER {ber:.4e}",
            report.voronoi_disagreement
        );
    }

    println!("\n| grid | samples | Voronoi disagreement | missing labels | max centroid drift | hybrid BER |");
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {}² | {} | {:.3} | {} | {:.4} | {:.4e} |",
            r.grid_n,
            r.extraction_samples,
            r.voronoi_disagreement,
            r.missing,
            r.centroid_drift_vs_finest,
            r.hybrid_ber
        );
    }

    let path = write_json("ablation_grid.json", &rows);
    println!("\nartefact: {path:?}");
    println!("\nShape: BER and centroid positions stabilise around 64–128 cells");
    println!("per axis — the extraction is cheap relative to retraining.");
}
