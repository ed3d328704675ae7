//! Thread-count determinism of the backend-switch artefact
//! (DESIGN.md §13): the `backend_switch` scenario — links riding an
//! SNR ramp while the controller walks the registry's cost ladder —
//! serialises to identical bytes at any `HYBRIDEM_THREADS`.
//!
//! This test mutates `HYBRIDEM_THREADS` between runs, so it lives
//! alone in its own test binary: `std::env::set_var` while other
//! tests' worker threads call `getenv` is a data race on glibc. With a
//! single `#[test]` in the process there are no concurrent readers
//! outside the serial points where the variable changes.

use hybridem::comm::trajectory::{ChannelState, Trajectory};
use hybridem::core::config::SystemConfig;
use hybridem::core::pipeline::HybridPipeline;
use hybridem::core::registry::switch_registry;
use hybridem::core::runtime::{run_switch_campaign, LinkParams, SwitchCampaignSpec, SwitchPolicy};
use hybridem::mathkit::json::ToJson;
use std::sync::Arc;

fn spec() -> SwitchCampaignSpec {
    let mut pipe = HybridPipeline::new(SystemConfig::fast_test().at_snr(8.0));
    pipe.e2e_train();
    pipe.extract_centroids();
    let registry = Arc::new(switch_registry(&pipe, &[]));
    // A ramp across the max-log/hybrid selection threshold (≈13.1 dB
    // Es/N0 at the 2e-2 target) and back — enough to force switches
    // in both directions without the full bench-bin ladder.
    let low = ChannelState::clean(12.7);
    let high = ChannelState::clean(14.5);
    let trajectory = Trajectory::new("switch-threads-ramp")
        .hold(12, low)
        .ramp(16, high)
        .hold(16, high)
        .ramp(16, low)
        .hold(20, low);
    SwitchCampaignSpec {
        name: "switch-threads".to_string(),
        registry,
        trajectory,
        links: 5,
        params: LinkParams::default(),
        policy: SwitchPolicy {
            ber_target: 2e-2,
            window_frames: 4,
            min_dwell_frames: 4,
            initial_es_n0_db: 12.7,
        },
        seed: 77,
    }
}

#[test]
fn switch_artefact_bytes_identical_across_thread_counts() {
    // Per-link RNG streams, per-link SNR estimators, and link-order
    // row collection make the report a pure function of (spec, seed):
    // 1 worker thread and 8 worker threads must serialise to the same
    // bytes (HYBRIDEM_THREADS is read per parallel region, so setting
    // it between runs is effective).
    let previous = std::env::var("HYBRIDEM_THREADS").ok();
    let s = spec();
    let baseline = run_switch_campaign(&s);
    baseline.validate().unwrap();
    let baseline = baseline.to_json().to_string_pretty();
    for threads in ["1", "8"] {
        std::env::set_var("HYBRIDEM_THREADS", threads);
        let run = run_switch_campaign(&s).to_json().to_string_pretty();
        assert_eq!(
            run, baseline,
            "backend-switch artefact changed with HYBRIDEM_THREADS={threads}"
        );
    }
    match previous {
        Some(v) => std::env::set_var("HYBRIDEM_THREADS", v),
        None => std::env::remove_var("HYBRIDEM_THREADS"),
    }
}
