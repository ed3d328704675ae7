//! **Ablation — retrain-trigger detection.** The paper proposes two
//! channel-change monitors (§II-C): pilot-BER thresholding and
//! ECC corrected-flip counting. Measure how many frames each needs to
//! detect phase offsets of different magnitudes.
//!
//! Driven by the online link runtime
//! ([`hybridem_core::runtime::OnlineLink`], DESIGN.md §10) in its
//! detection-only mode: a constant phase trajectory streams frames at
//! the chosen monitor until the controller fires
//! ([`TriggerAction::LogOnly`] records the trigger without spending a
//! retrain). Pilot monitoring uses all-pilot frames; ECC monitoring
//! needs no pilots at all — the payload carries a rate-1/2
//! convolutional codeword and the Viterbi corrected-flip count is the
//! evidence.

use hybridem_bench::{banner, budget, write_json};
use hybridem_comm::trajectory::{ChannelState, Trajectory};
use hybridem_core::adapt::AdaptThresholds;
use hybridem_core::config::SystemConfig;
use hybridem_core::pipeline::HybridPipeline;
use hybridem_core::runtime::{Monitor, OnlineLink, OnlineLinkSpec, TriggerAction};

struct TriggerRow {
    theta_rad: f32,
    pilot_frames_to_trigger: Option<usize>,
    ecc_frames_to_trigger: Option<usize>,
}

hybridem_mathkit::impl_json!(TriggerRow {
    theta_rad,
    pilot_frames_to_trigger,
    ecc_frames_to_trigger,
});

const MAX_FRAMES: u64 = 200;

fn main() {
    banner(
        "Ablation — retrain-trigger detection latency (pilot BER vs ECC flips)",
        "Ney, Hammoud, Wehn (IPDPSW'22), §II-C",
    );
    let mut cfg = SystemConfig::paper_default();
    cfg.e2e_steps = budget(4000) as usize;
    let es = cfg.es_n0_db();

    let mut pipe = HybridPipeline::new(cfg);
    let _ = pipe.e2e_train();
    let _ = pipe.extract_centroids();

    let frames_to_trigger = |theta: f32, monitor: Monitor| -> Option<usize> {
        let trajectory = Trajectory::constant(
            "phase-offset",
            ChannelState::clean(es).with_phase(theta),
            MAX_FRAMES,
        );
        let mut spec = OnlineLinkSpec::new(trajectory, 777);
        spec.params.monitor = monitor;
        spec.params.action = TriggerAction::LogOnly;
        spec.params.thresholds = AdaptThresholds::default();
        // Pilot monitoring: every frame symbol is a known pilot. ECC
        // monitoring: no pilot overhead, the whole frame is codeword.
        spec.params.pilot_symbols = match monitor {
            Monitor::Pilot => spec.params.frame_symbols,
            Monitor::Ecc => 0,
        };
        let mut link = OnlineLink::adaptive(spec, &pipe);
        while link.frames() < MAX_FRAMES && link.events().is_empty() {
            link.step();
        }
        link.events().first().map(|e| e.trigger_frame as usize + 1)
    };

    let mut rows = Vec::new();
    for &theta in &[0.0f32, 0.05, 0.1, 0.2, 0.4, std::f32::consts::FRAC_PI_4] {
        let pilot_hit = frames_to_trigger(theta, Monitor::Pilot);
        let ecc_hit = frames_to_trigger(theta, Monitor::Ecc);
        eprintln!(
            "θ = {theta:.3}: pilot trigger after {pilot_hit:?} frames, ECC after {ecc_hit:?}"
        );
        rows.push(TriggerRow {
            theta_rad: theta,
            pilot_frames_to_trigger: pilot_hit,
            ecc_frames_to_trigger: ecc_hit,
        });
    }

    println!("\n| phase offset [rad] | pilot frames to trigger | ECC frames to trigger |");
    println!("|---|---|---|");
    for r in &rows {
        let p = r
            .pilot_frames_to_trigger
            .map_or("never".to_string(), |v| v.to_string());
        let e = r
            .ecc_frames_to_trigger
            .map_or("never".to_string(), |v| v.to_string());
        println!("| {:.3} | {} | {} |", r.theta_rad, p, e);
    }

    let path = write_json("ablation_trigger.json", &rows);
    println!("\nartefact: {path:?}");
    println!("\nShape: no trigger on the healthy channel; large offsets detected");
    println!("within a couple of frames; the ECC monitor needs no pilot");
    println!("overhead but is blinder to small offsets (the decoder corrects");
    println!("them away, so the flip rate saturates below its threshold).");
}
