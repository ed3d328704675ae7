//! Closed-loop link adaptation: a long-running link whose channel
//! changes mid-stream; the adaptation controller watches pilot BER and
//! ECC corrected-flip counts (paper §II-C) and triggers demapper
//! retraining automatically.
//!
//! ```sh
//! cargo run --release --example link_adaptation
//! ```

use hybridem::comm::demapper::Demapper;
use hybridem::comm::frame::{FrameEngine, Monitor};
use hybridem::comm::trajectory::{ChannelState, Trajectory};
use hybridem::core::adapt::{AdaptThresholds, AdaptationController, Recommendation};
use hybridem::core::config::SystemConfig;
use hybridem::core::pipeline::HybridPipeline;

/// Frames per channel epoch.
const EPOCH_FRAMES: u64 = 40;

fn main() {
    let mut cfg = SystemConfig::paper_default();
    cfg.snr_db = 8.0;
    cfg.retrain_steps = 1200;
    let es_n0 = cfg.es_n0_db();

    println!("== closed-loop adaptation demo ==");
    let mut pipe = HybridPipeline::new(cfg);
    let _ = pipe.e2e_train();
    let _ = pipe.extract_centroids();
    let constellation = pipe.constellation();
    let m = constellation.bits_per_symbol();

    let mut controller = AdaptationController::new(AdaptThresholds::default());

    // The channel drifts: epochs of (phase offset, label).
    let epochs: [(f32, &str); 3] = [
        (0.0, "clean AWGN"),
        (std::f32::consts::FRAC_PI_4, "π/4 phase jump"),
        (0.6, "further drift to 0.6 rad"),
    ];
    let trajectory = epochs
        .iter()
        .fold(Trajectory::new("drift"), |t, &(theta, _)| {
            t.hold(EPOCH_FRAMES, ChannelState::clean(es_n0).with_phase(theta))
        });
    // Every frame: 128 known pilot symbols, then a rate-1/2
    // convolutionally coded payload of 128 data bits (65 symbols).
    let mut engine = FrameEngine::new(trajectory, 2024, 128 + 65, 128, Monitor::Ecc, m);
    let mut llrs = vec![0f32; engine.frame_symbols() * m];

    for (theta, label) in epochs {
        println!("\n--- channel epoch: {label} (θ = {theta:.3} rad) ---");
        // Stream frames; the controller watches both evidence streams.
        for frame in 0..EPOCH_FRAMES {
            engine.generate(&constellation);
            let hybrid = pipe.hybrid_demapper().expect("deployed");
            hybrid.demap_block(engine.block(), &mut llrs);
            let pilot_bits = engine.pilot_bits() as u64;
            let code_bits = engine.payload_bits() as u64;
            let pilot_errors = engine.count_errors(&llrs).pilot;
            let corrected = engine.ecc_corrected(&llrs);
            controller.observe_pilot_errors(pilot_errors, pilot_bits);
            controller.observe_ecc(corrected, code_bits);

            if controller.recommendation() == Recommendation::Retrain {
                let pilot_ber = pilot_errors as f64 / pilot_bits as f64;
                println!(
                    "  frame {frame:2}: RETRAIN triggered (pilot BER ≈ {pilot_ber:.3}, \
                     ECC flips {corrected}/{code_bits})"
                );
                let mut live = engine.channel().snapshot_static();
                let rt = pipe.retrain(&mut live);
                println!(
                    "  retrained: loss {:.3} → {:.3}; centroids re-extracted",
                    rt.initial_loss, rt.final_loss
                );
                controller.reset_after_retrain();
            } else if frame % 10 == 0 {
                println!("  frame {frame:2}: healthy={}", controller.is_healthy());
            }
        }
    }
    println!(
        "\ncontroller triggered {} retrains across {} channel epochs",
        controller.retrains_triggered(),
        epochs.len()
    );
}
