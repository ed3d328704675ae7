//! Manual diagnostic for extraction quality (run with --ignored):
//! prints per-symbol centroid displacement and BER of every receiver
//! at the paper's full training budget.

use hybridem_comm::channel::Awgn;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::MaxLogMap;
use hybridem_comm::linksim::{simulate_link, LinkSpec};
use hybridem_core::config::SystemConfig;
use hybridem_core::hybrid::HybridDemapper;
use hybridem_core::pipeline::HybridPipeline;

#[test]
#[ignore]
fn extraction_diagnostics() {
    let mut cfg = SystemConfig::paper_default();
    cfg.grid_n = 128;
    cfg.e2e_steps = 8000;
    cfg.batch_size = 512;
    cfg.e2e_lr = 8e-3;
    cfg.snr_db = 8.0;
    let mut pipe = HybridPipeline::new(cfg);
    let loss = pipe.e2e_train();
    println!("loss {loss}");
    let report = pipe.extract_centroids();
    println!(
        "missing {:?} comps {:?} vdis {}",
        report.missing_labels, report.components, report.voronoi_disagreement
    );
    let learned = pipe.constellation();
    let vertex = report.vertex_centroids();
    for (u, (&c, v)) in report.centroids.iter().zip(&vertex).enumerate() {
        let p = learned.point(u);
        println!(
            "{u:2}: point ({:+.3},{:+.3}) mass ({:+.3},{:+.3}) d={:.3} vert {:?}",
            p.re,
            p.im,
            c.re,
            c.im,
            p.dist_sqr(c).sqrt(),
            v.map(|v| (v.re, v.im))
        );
    }
    let sigma = pipe.config().sigma();
    let channel = Awgn::from_es_n0_db(pipe.config().es_n0_db());
    let eval = |name: &str, demapper: &dyn hybridem_comm::demapper::Demapper| {
        let spec = LinkSpec::new(&learned, &channel, demapper, 200_000, 5);
        let r = simulate_link(&spec);
        println!("{name}: ber {:.4e}", r.ber());
    };
    eval("ae", pipe.ann_demapper());
    eval("hybrid-mass", pipe.hybrid_demapper().unwrap());
    let genie = MaxLogMap::new(learned.clone(), sigma);
    eval("genie-learned-points", &genie);
    let vc: Vec<_> = vertex
        .iter()
        .enumerate()
        .map(|(u, v)| v.unwrap_or(report.centroids[u]))
        .collect();
    let hv = HybridDemapper::from_centroids(Constellation::from_points(vc), sigma);
    eval("hybrid-vertex", &hv);
    let qam = Constellation::qam_gray(16);
    let conv = MaxLogMap::new(qam.clone(), sigma);
    let spec = LinkSpec::new(&qam, &channel, &conv, 200_000, 5);
    println!("conventional: {:.4e}", simulate_link(&spec).ber());
}
