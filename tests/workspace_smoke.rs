//! Workspace smoke test — catches manifest/facade regressions fast.
//!
//! The full e2e suite trains for minutes; this file asserts in seconds
//! that (a) every facade re-export resolves, and (b) the quickstart
//! path — `SystemConfig::fast_test()` → `HybridPipeline` →
//! `extract_centroids()` — actually runs. A broken member manifest or
//! facade rename fails here long before the slow suites run.

use std::time::{Duration, Instant};

/// Every workspace crate is reachable through the facade. This is a
/// compile-time check dressed as a test: if a re-export disappears,
/// this file stops building.
#[test]
fn facade_reexports_resolve() {
    // mathkit
    let c = hybridem::mathkit::complex::C32::new(1.0, -1.0);
    assert_eq!(c.norm_sqr(), 2.0);
    let _ = hybridem::mathkit::matrix::Matrix::<f32>::zeros(2, 2);
    // fixed
    let q = hybridem::fixed::QFormat::signed(8, 6);
    assert_eq!(q.total_bits, 8);
    // parallel
    let mut doubled = [1, 2, 3];
    hybridem::parallel::par_iter::par_for_each_mut(&mut doubled, |_, x| *x *= 2);
    assert_eq!(doubled, [2, 4, 6]);
    // nn
    let spec = hybridem::nn::model::MlpSpec::paper_demapper();
    assert_eq!(spec.mac_count(), 352);
    // geom
    let p = hybridem::geom::polygon::Polygon::new(vec![
        hybridem::mathkit::vec2::Vec2::new(0.0, 0.0),
        hybridem::mathkit::vec2::Vec2::new(1.0, 0.0),
        hybridem::mathkit::vec2::Vec2::new(0.0, 1.0),
    ]);
    assert!((p.signed_area() - 0.5).abs() < 1e-12);
    // comm
    let qam = hybridem::comm::constellation::Constellation::qam_gray(16);
    assert_eq!(qam.bits_per_symbol(), 4);
    // fpga
    let usage = hybridem::fpga::resources::ResourceUsage::zero();
    assert_eq!(usage.dsp, 0);
    // core
    let cfg = hybridem::core::config::SystemConfig::paper_default();
    cfg.validate();
}

/// The quickstart pipeline runs end to end on a tiny budget. Mirrors
/// the `src/lib.rs` doctest so a regression is caught by `--tests`
/// runs that skip doctests.
#[test]
fn quickstart_pipeline_extracts_centroids_quickly() {
    let mut cfg = hybridem::core::config::SystemConfig::fast_test();
    cfg.e2e_steps = 40;
    cfg.batch_size = 32;
    cfg.grid_n = 32;

    let t0 = Instant::now();
    let mut pipe = hybridem::core::pipeline::HybridPipeline::new(cfg);
    pipe.e2e_train();
    let report = pipe.extract_centroids();
    let elapsed = t0.elapsed();

    assert_eq!(report.centroids.len(), 16);
    // Second-scale budget: generous enough for a loaded debug-mode CI
    // runner, tight enough to flag an accidental full-budget train.
    assert!(
        elapsed < Duration::from_secs(30),
        "smoke pipeline took {elapsed:?}; budget regression?"
    );
}
