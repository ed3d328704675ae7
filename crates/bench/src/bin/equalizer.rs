//! **Equalizer** — the frequency-selective drift story (DESIGN.md §14).
//!
//! Writes `equalizer_runtime.json`: a drift campaign on a two-ray ISI
//! onset at the 12 dB QPSK operating point, `unequalized` max-log vs
//! the blind `equalized` receiver
//! ([`OnlineLink::equalized`](hybridem_core::runtime::OnlineLink::equalized),
//! zero pilot symbols). The re-read artefact must prove the claim the
//! memoryless drift suite cannot: the equalized link re-converges to
//! within 2× of its pre-onset BER while the unequalized demapper stays
//! ≥ 4× degraded. Any schema drift or claim regression exits non-zero.
//! The adaptive-FIR kernels are timed by the `perf` bin.
//!
//! Budget knob: `HYBRIDEM_QUICK=1` halves the link count. The artefact
//! is byte-for-byte reproducible from the seed at any
//! `HYBRIDEM_THREADS` (per-link equalizer instances, link-order
//! pooling — see `tests/equalizer_runtime.rs`).

use hybridem_bench::{banner, quick_mode, write_json};
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::MaxLogMap;
use hybridem_comm::equalizer::EqualizerConfig;
use hybridem_comm::snr::noise_sigma;
use hybridem_comm::trajectory::{ChannelState, Taps, Trajectory};
use hybridem_core::runtime::{
    run_drift_campaign, DriftCampaignSpec, DriftFamily, DriftRuntimeReport, DriftScenario,
    FamilyRole, LinkParams, OnlineLink, OnlineLinkSpec,
};
use hybridem_mathkit::json::{FromJson, Json, ToJson};

/// The bench operating point: QPSK at 12 dB Es/N0. Low enough that
/// two-ray ISI is catastrophic for a memoryless demapper, high enough
/// that the decision-directed handoff threshold clears the noise floor
/// (noise-only decision MSE 2σ² ≈ 0.063 < `dd_enter_mse`).
const ES_N0_DB: f64 = 12.0;

/// The scripted disturbance: a two-ray echo (gain 0.4, phase 0.35,
/// one-symbol delay) appears at frame 40 and stays. ISI is channel
/// *memory* — the drift suite attaches no recovery claims to its
/// memoryless families on this onset; here the claims are the point.
fn two_ray_onset() -> DriftScenario {
    let clean = ChannelState::clean(ES_N0_DB);
    let isi = clean.with_taps(Taps::two_ray(0.4, 0.35, 1));
    DriftScenario {
        trajectory: Trajectory::new("two-ray-onset")
            .hold(40, clean)
            .hold(120, isi),
        baseline_frames: 40,
        drift_end_frame: 40,
        // The equalized family re-converges; the unequalized family
        // must stay broken (the frozen claim).
        adaptive_recovers: Some(true),
        frozen_recovers: Some(false),
    }
}

/// The two receiver families: the stock max-log demapper with no
/// equalizer ahead of it, and the same demapper behind the blind
/// adaptive FIR. Both run with zero pilot symbols — the re-convergence
/// is earned without any pilot overhead.
fn families(qam: &Constellation, params: &LinkParams) -> Vec<DriftFamily<'static>> {
    let sigma = noise_sigma(ES_N0_DB, 1.0) as f32;
    let spec = {
        let params = params.clone();
        move |traj: &Trajectory, seed: u64| OnlineLinkSpec {
            trajectory: traj.clone(),
            seed,
            params: params.clone(),
        }
    };
    let fixed_spec = spec.clone();
    let fixed_qam = qam.clone();
    let eq_qam = qam.clone();
    vec![
        DriftFamily {
            name: "unequalized".to_string(),
            role: FamilyRole::Frozen,
            build: Box::new(move |traj, seed| {
                OnlineLink::fixed(
                    fixed_spec(traj, seed),
                    fixed_qam.clone(),
                    Box::new(MaxLogMap::new(fixed_qam.clone(), sigma)),
                )
            }),
        },
        DriftFamily {
            name: "equalized".to_string(),
            role: FamilyRole::Equalized,
            build: Box::new(move |traj, seed| {
                OnlineLink::equalized(
                    spec(traj, seed),
                    eq_qam.clone(),
                    Box::new(MaxLogMap::new(eq_qam.clone(), sigma)),
                    EqualizerConfig::default(),
                )
            }),
        },
    ]
}

fn main() {
    banner(
        "equalizer — blind re-convergence on ISI",
        "Ney, Hammoud, Wehn (IPDPSW'22) + the group's unsupervised-equalizer line (arXiv 2304.06987)",
    );

    // ---- drift campaign: equalized vs unequalized on the onset ----
    let qam = Constellation::qam_gray(4);
    let params = LinkParams {
        pilot_symbols: 0, // fully blind: no pilot overhead
        ..Default::default()
    };
    let links = if quick_mode() { 2 } else { 4 };
    let spec = DriftCampaignSpec {
        name: "equalizer-runtime".to_string(),
        families: families(&qam, &params),
        scenarios: vec![two_ray_onset()],
        links,
        params,
        seed: 20_220_517,
    };
    eprintln!(
        "running {} families × 1 scenario × {} links …",
        spec.families.len(),
        spec.links
    );
    let report = run_drift_campaign(&spec);
    println!("\n{}", report.markdown_table());

    let path = write_json("equalizer_runtime.json", &report.to_json());
    println!("artefact: {path:?}");

    // Schema + claim gate: re-read from disk, parse back through the
    // DriftRuntimeReport schema, then hold the bench's headline claim
    // — `equalized` re-converges within 2× of its pre-onset BER,
    // `unequalized` stays ≥ 4× degraded — CI fails on any drift.
    let text = std::fs::read_to_string(&path).expect("re-read artefact");
    let reloaded = DriftRuntimeReport::from_json(&Json::parse(&text).expect("artefact parses"))
        .expect("artefact matches the DriftRuntimeReport schema");
    reloaded.validate().expect("artefact invariants hold");
    reloaded
        .validate_recovery()
        .expect("equalizer re-convergence claims hold");
    assert_eq!(reloaded.rows.len(), 2, "one row per family");
    assert!(
        reloaded.rows.iter().all(|r| r.retrains == 0),
        "neither family retrains — the equalizer converges in the datapath"
    );
    println!("claim check: equalized re-converges, unequalized stays broken");
}
