//! **Backend switch** — the `SwitchBackend` drift scenario
//! (DESIGN.md §13): links ride an SNR ramp while a per-link controller
//! picks, every frame, the cheapest registry backend whose predicted
//! BER at the windowed pilot-SNR estimate meets the link's target.
//! Rising SNR earns cheaper hardware (max-log → hybrid centroids →
//! fully parallel quantized W4); the ramp back forces the accuracy
//! upshifts. Writes a self-validated `backend_switch.json` with every
//! link's per-frame backend trace and switch log.
//!
//! Budget knobs: `HYBRIDEM_QUICK=1` cuts the AE training budget 8× and
//! halves the link count. The artefact is byte-for-byte reproducible
//! from the seed at any `HYBRIDEM_THREADS` (per-link RNG streams and
//! SNR estimators, link-order rows).

use hybridem_bench::{banner, budget, quick_mode, write_json};
use hybridem_comm::trajectory::{ChannelState, Trajectory};
use hybridem_core::config::SystemConfig;
use hybridem_core::pipeline::HybridPipeline;
use hybridem_core::qat::{qat_quantized_demapper, QatConfig};
use hybridem_core::registry::switch_registry;
use hybridem_core::runtime::{
    run_switch_campaign, BackendSwitchReport, LinkParams, SwitchCampaignSpec, SwitchPolicy,
};
use hybridem_mathkit::json::{FromJson, Json, ToJson};
use std::sync::Arc;

/// The scripted ramp, on the registry's Es/N0 axis. Gray 16-QAM
/// theory crosses the 2e-2 target near 12.65 dB; the hybrid
/// (+0.45 dB) and W4 (+2.6 dB) penalties put the selection thresholds
/// at ≈ 13.1 and ≈ 15.25 dB, so a 12.7 ↔ 16.6 dB ramp sweeps the
/// whole ladder in both directions.
fn ramp_trajectory() -> Trajectory {
    let low = ChannelState::clean(12.7);
    let high = ChannelState::clean(16.6);
    Trajectory::new("backend-switch-ramp")
        .hold(20, low)
        .ramp(30, high)
        .hold(30, high)
        .ramp(30, low)
        .hold(40, low)
}

fn main() {
    banner(
        "Backend switch — riding the registry's cost ladder over an SNR ramp",
        "Ney, Hammoud, Wehn (IPDPSW'22), §II-C adaptation as backend selection",
    );

    // One AE shared by every link; the switch line-up needs the
    // extracted centroids (hybrid backend) and the QAT graphs.
    let mut cfg = SystemConfig::paper_default().at_snr(8.0);
    cfg.e2e_steps = budget(5000) as usize;
    eprintln!("training AE at SNR 8 dB ({} steps) …", cfg.e2e_steps);
    let mut pipe = HybridPipeline::new(cfg);
    let loss = pipe.e2e_train();
    let extraction = pipe.extract_centroids();
    eprintln!(
        "  loss {loss:.3}, missing labels {}",
        extraction.missing_labels.len()
    );
    let quantized: Vec<_> = [4u32, 6, 8]
        .iter()
        .map(|&bits| {
            let mut qcfg = QatConfig::at_bits(bits);
            qcfg.steps = budget(600) as usize;
            qat_quantized_demapper(&pipe, &qcfg)
        })
        .collect();
    let registry = Arc::new(switch_registry(&pipe, &quantized));
    eprintln!("switch registry: {}", registry.names().join(", "));

    let policy = SwitchPolicy {
        ber_target: 2e-2,
        window_frames: 6,
        min_dwell_frames: 6,
        initial_es_n0_db: 12.7,
    };
    let links = if quick_mode() { 2 } else { 4 };
    let spec = SwitchCampaignSpec {
        name: "backend-switch".to_string(),
        registry: registry.clone(),
        trajectory: ramp_trajectory(),
        links,
        params: LinkParams::default(),
        policy,
        seed: 20_220_517, // the paper's publication date as a seed
    };
    eprintln!(
        "running {} links × {} frames over {} backends …",
        spec.links,
        spec.trajectory.total_frames(),
        registry.len()
    );
    let report = run_switch_campaign(&spec);
    println!("\n{}", report.markdown_table());
    for row in &report.rows {
        for e in &row.events {
            println!(
                "switch link {}: frame {} {} → {} at est {:.2} dB ({})",
                e.link,
                e.frame,
                report.backends[e.from as usize],
                report.backends[e.to as usize],
                e.est_es_n0_db,
                if e.downshift { "downshift" } else { "upshift" }
            );
        }
    }

    let path = write_json("backend_switch.json", &report.to_json());
    println!("\nartefact: {path:?}");

    // Schema + scenario gate: re-read the artefact from disk, parse it
    // back through the BackendSwitchReport schema, check the trace /
    // event-log consistency invariants AND the scenario's claim — the
    // ramp must produce at least one downshift and one upshift — so
    // the CI smoke fails on any drift.
    let text = std::fs::read_to_string(&path).expect("re-read artefact");
    let reloaded = BackendSwitchReport::from_json(&Json::parse(&text).expect("artefact parses"))
        .expect("artefact matches the BackendSwitchReport schema");
    reloaded.validate().expect("artefact invariants hold");
    reloaded
        .validate_switching()
        .expect("the ramp exercises the cost ladder in both directions");
    assert_eq!(
        reloaded.backends[reloaded.initial_backend as usize], "max-log",
        "the ramp starts below every cheaper backend's operating region"
    );
    let w4 = reloaded
        .backends
        .iter()
        .position(|b| b == "ann-qat-w4")
        .expect("W4 registered") as u32;
    assert!(
        reloaded.rows.iter().any(|r| r.active.contains(&w4)),
        "the high-SNR hold must reach the cheapest backend (W4)"
    );
    println!(
        "schema check: {} links valid, {} downshifts, {} upshifts",
        reloaded.rows.len(),
        reloaded.downshifts,
        reloaded.upshifts
    );
}
