//! **Equalizer** — the frequency-selective drift story plus the
//! adaptive-FIR kernel trajectory (DESIGN.md §14).
//!
//! Two artefacts per run:
//!
//! 1. `equalizer_runtime.json` — a drift campaign on a two-ray ISI
//!    onset at the 12 dB QPSK operating point, `unequalized` max-log
//!    vs the blind `equalized` receiver
//!    ([`OnlineLink::equalized`](hybridem_core::runtime::OnlineLink::equalized),
//!    zero pilot symbols). The re-read artefact must prove the claim
//!    the memoryless drift suite cannot: the equalized link
//!    re-converges to within 2× of its pre-onset BER while the
//!    unequalized demapper stays ≥ 4× degraded. Any schema drift or
//!    claim regression exits non-zero.
//! 2. `BENCH_equalizer.json` — the committed `hybridem-perf-v1`
//!    trajectory for the adaptive-FIR hot paths (blind CMA/DD
//!    equalize, supervised LMS train, and equalize followed by a
//!    max-log demap block — the two stages an equalized link runs per
//!    frame), under the same 15% regression gate as the other kernel
//!    trajectories (DESIGN.md §11.4).
//!
//! Budget knobs: `HYBRIDEM_QUICK=1` halves the link count;
//! `HYBRIDEM_BENCH_MS` selects the perf smoke budget (schema + append
//! validation only; the trajectory goes to the results dir). The
//! runtime artefact is byte-for-byte reproducible from the seed at any
//! `HYBRIDEM_THREADS` (per-link equalizer instances, link-order
//! pooling — see `tests/equalizer_runtime.rs`).

use hybridem_bench::{banner, perf, quick_mode, write_json};
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, MaxLogMap};
use hybridem_comm::equalizer::{AdaptiveEqualizer, EqualizerConfig};
use hybridem_comm::snr::noise_sigma;
use hybridem_comm::trajectory::{ChannelState, Taps, Trajectory};
use hybridem_core::runtime::{
    run_drift_campaign, DriftCampaignSpec, DriftFamily, DriftRuntimeReport, DriftScenario,
    FamilyRole, LinkParams, OnlineLink, OnlineLinkSpec,
};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::json::{FromJson, Json, ToJson};
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use std::hint::black_box;

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

/// A deterministic two-ray QPSK stream for the kernel timings.
fn two_ray_stream(n: usize, qam: &Constellation) -> (Vec<C32>, Vec<C32>) {
    let mut chan = hybridem_comm::channel::TappedDelayLine::two_ray(0.4, 0.35, 1);
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    let tx: Vec<C32> = (0..n)
        .map(|_| qam.point((rng.next_u64() % qam.points().len() as u64) as usize))
        .collect();
    let mut rx = tx.clone();
    hybridem_comm::channel::Channel::transmit(&mut chan, &mut rx, &mut rng);
    (rx, tx)
}

fn main() {
    banner(
        "equalizer — blind re-convergence on ISI + adaptive-FIR kernel trajectory",
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
    println!("claim check: equalized re-converges, unequalized stays broken\n");

    // ---- adaptive-FIR kernel trajectory ---------------------------
    println!(
        "budget {} ms/case · rev {}\n",
        perf::bench_budget_ms(),
        perf::git_rev()
    );
    let n = 4096;
    let (rx, tx) = two_ray_stream(n, &qam);
    let mut block = rx.clone();

    // Blind CMA → DD equalization of a 4096-symbol block. State
    // persists across iterations (as it does across frames in a
    // link), so later samples time the converged DD fast path.
    let mut eq = AdaptiveEqualizer::new(qam.clone(), EqualizerConfig::default());
    let blind = perf::measure_melems(n as u64, || {
        block.copy_from_slice(&rx);
        eq.equalize(black_box(&mut block));
        black_box(&block);
    });

    // Supervised LMS training on a 256-symbol pilot prefix.
    let mut eq_t = AdaptiveEqualizer::new(qam.clone(), EqualizerConfig::default());
    let trained = perf::measure_melems(256, || {
        block[..256].copy_from_slice(&rx[..256]);
        eq_t.train(black_box(&mut block[..256]), &tx[..256]);
        black_box(&block);
    });

    // The equalized link's two datapath stages: blind equalize in
    // place, then one max-log demap_block over the equalized samples.
    let sigma = noise_sigma(ES_N0_DB, 1.0) as f32;
    let maxlog = MaxLogMap::new(qam.clone(), sigma);
    let mut eq_d = AdaptiveEqualizer::new(qam.clone(), EqualizerConfig::default());
    let mut llrs = vec![0f32; n * maxlog.bits_per_symbol()];
    let demap = perf::measure_melems(n as u64, || {
        block.copy_from_slice(&rx);
        eq_d.equalize(black_box(&mut block));
        maxlog.demap_block(&block, &mut llrs);
        black_box(&llrs);
    });

    let results = vec![
        ("eq_blind_block_n4096".to_string(), blind),
        ("eq_train_n256".to_string(), trained),
        ("eq_demap_block_n4096".to_string(), demap),
    ];
    println!("| case | median Melem/s |");
    println!("|---|---|");
    for (k, v) in &results {
        println!("| {k} | {v:.1} |");
    }

    perf::gate("equalizer perf", "Melem/s", &[("equalizer", &results)]);
}
