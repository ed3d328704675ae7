//! Campaign-engine statistical test suite (DESIGN.md §8).
//!
//! Three pillars:
//!
//! 1. **Theory anchoring** — campaign BER points for the max-log
//!    receiver must be statistically consistent (Wilson-CI based, not
//!    fixed epsilon) with the closed-form Gray QPSK/16-QAM curves,
//!    through both the block demap path and the per-symbol reference
//!    path.
//! 2. **Determinism** — the serialised artefact is byte-for-byte
//!    identical across thread counts at a fixed task count, and an
//!    early-stopped point equals the uncapped run truncated at the
//!    same round boundary.
//! 3. **Zero-observation hygiene** — a zero-budget campaign emits
//!    finite numbers only (no `null` in the JSON artefact).

use hybridem::comm::campaign::{
    run_campaign, CampaignReport, CampaignSpec, ChannelScenario, DemapperFamily, EarlyStop,
};
use hybridem::comm::channel::Awgn;
use hybridem::comm::constellation::Constellation;
use hybridem::comm::demapper::{Demapper, MaxLogMap};
use hybridem::comm::linksim::{LinkSim, LinkSpec};
use hybridem::comm::snr::noise_sigma;
use hybridem::comm::theory::{ber_qam16_gray, ber_qpsk_gray};
use hybridem::mathkit::complex::C32;
use hybridem::mathkit::json::{FromJson, Json, ToJson};
use hybridem::mathkit::stats::ErrorCounter;

/// Demaps a block as a loop of the inner demapper's per-symbol `llrs`,
/// turning any campaign into a test of the per-symbol reference path.
struct PerSymbol<D: Demapper>(D);

impl<D: Demapper> Demapper for PerSymbol<D> {
    fn bits_per_symbol(&self) -> usize {
        self.0.bits_per_symbol()
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        let m = self.bits_per_symbol();
        assert_eq!(out.len(), ys.len() * m);
        for (&y, chunk) in ys.iter().zip(out.chunks_exact_mut(m)) {
            self.0.llrs(y, chunk);
        }
    }
}

/// Max-log family that demaps through the per-symbol path (grid SNR =
/// Es/N0 in dB, like `DemapperFamily::maxlog_es_n0`).
fn maxlog_per_symbol_family(constellation: Constellation) -> DemapperFamily<'static> {
    let c = constellation.clone();
    DemapperFamily::new(
        "maxlog-per-symbol",
        constellation,
        Box::new(move |snr| {
            let sigma = noise_sigma(snr, 1.0) as f32;
            Box::new(PerSymbol(MaxLogMap::new(c.clone(), sigma)))
        }),
    )
}

/// Early-stop policy for the golden tests: enough errors for tight
/// intervals, bounded total work.
fn golden_stop() -> EarlyStop {
    EarlyStop {
        target_bit_errors: 250,
        max_symbols_per_point: 300_000,
        first_round_symbols: 8_192,
        growth: 4,
    }
}

/// Asserts every point of `report` is statistically consistent with
/// `theory(snr)` at z = 3.9 (two-sided ≈ 1e-4 per point, so the whole
/// suite stays deterministic-seed stable).
fn assert_matches_theory(report: &CampaignReport, theory: impl Fn(f64) -> f64) {
    assert!(!report.points.is_empty());
    for p in &report.points {
        let mut c = ErrorCounter::new();
        c.record(p.bit_errors, p.bits);
        let t = theory(p.snr_db);
        assert!(
            c.consistent_with(t, 3.9),
            "{}/{} at {} dB: sim {} ({} errs / {} bits) vs theory {t}",
            p.family,
            p.scenario,
            p.snr_db,
            p.ber,
            p.bit_errors,
            p.bits
        );
    }
}

#[test]
fn qpsk_campaign_matches_theory_block_and_per_symbol() {
    // Both demap paths in one campaign, against the exact QPSK curve
    // over a 4-point Es/N0 grid.
    let qpsk = Constellation::qam_gray(4);
    let mut spec = CampaignSpec::new(
        vec![
            DemapperFamily::maxlog_es_n0(qpsk.clone()),
            maxlog_per_symbol_family(qpsk),
        ],
        vec![ChannelScenario::awgn_es_n0()],
        vec![2.0, 4.0, 6.0, 8.0],
        2024,
    );
    spec.stop = golden_stop();
    spec.tasks = 16;
    let report = run_campaign(&spec);
    report.validate().expect("artefact invariants");
    assert_matches_theory(&report, ber_qpsk_gray);
    // Early stopping must have kicked in at the low-SNR end (high BER
    // ⇒ the first round already exceeds the error target).
    assert!(report.points[0].stopped_early, "2 dB must stop early");
    assert!(
        report.points[0].symbols < report.points[3].symbols,
        "low SNR must spend fewer trials than high SNR"
    );
}

#[test]
fn qam16_campaign_matches_theory_block_and_per_symbol() {
    let qam = Constellation::qam_gray(16);
    let mut spec = CampaignSpec::new(
        vec![
            DemapperFamily::maxlog_es_n0(qam.clone()),
            maxlog_per_symbol_family(qam),
        ],
        vec![ChannelScenario::awgn_es_n0()],
        vec![8.0, 11.0, 14.0],
        7,
    );
    spec.stop = golden_stop();
    spec.tasks = 16;
    let report = run_campaign(&spec);
    report.validate().expect("artefact invariants");
    assert_matches_theory(&report, ber_qam16_gray);
}

fn determinism_spec(seed: u64) -> CampaignSpec<'static> {
    let mut spec = CampaignSpec::new(
        vec![DemapperFamily::maxlog_es_n0(Constellation::qam_gray(16))],
        vec![ChannelScenario::awgn_es_n0()],
        vec![6.0, 12.0],
        seed,
    );
    spec.stop = EarlyStop {
        target_bit_errors: 100,
        max_symbols_per_point: 65_536,
        first_round_symbols: 4_096,
        growth: 4,
    };
    spec.tasks = 12;
    spec
}

// The HYBRIDEM_THREADS=1-vs-8 byte-identity test lives in its own
// binary (`tests/campaign_threads.rs`): mutating the process
// environment while sibling tests' worker threads call `getenv` is a
// data race on glibc, so that test must not share a process with
// anything else.

#[test]
fn early_stop_equals_uncapped_run_truncated_at_the_round_boundary() {
    // Run one campaign point with early stopping, then replay the
    // same (spec, seed) uncapped (error target unreachable) through
    // the public round schedule, truncated after the same number of
    // rounds: counts must agree exactly.
    let spec = determinism_spec(55);
    let report = run_campaign(&spec);
    let p = &report.points[0]; // 6 dB: stops before the cap
    assert!(p.stopped_early, "6 dB point must stop early");
    let total_rounds = spec.stop.round_schedule(spec.block_len).count() as u32;
    assert!(p.rounds < total_rounds, "early stop must skip rounds");

    let qam = Constellation::qam_gray(16);
    let sigma = noise_sigma(p.snr_db, 1.0) as f32;
    let channel = Awgn::from_es_n0_db(p.snr_db);
    let demapper = MaxLogMap::new(qam.clone(), sigma);
    let link = LinkSpec {
        constellation: &qam,
        channel: &channel,
        demapper: &demapper,
        symbols: 0,
        block_len: spec.block_len,
        seed: p.seed,
    };
    let mut sim = LinkSim::new(&link, spec.tasks);
    for blocks in spec
        .stop
        .round_schedule(spec.block_len)
        .take(p.rounds as usize)
    {
        sim.run_round(blocks);
    }
    let r = sim.result();
    assert_eq!(r.bit_errors.errors(), p.bit_errors);
    assert_eq!(r.bit_errors.trials(), p.bits);
    assert_eq!(r.symbol_errors.errors(), p.symbol_errors);
    assert_eq!(r.symbol_errors.trials(), p.symbols);
    assert_eq!(r.mi.mi().to_bits(), p.mi.to_bits());
}

#[test]
fn artefact_schema_round_trip_and_zero_budget_hygiene() {
    // Zero budget: all-zero counts, finite rates, interval (0, 1), no
    // `null` anywhere in the serialised artefact, schema re-loadable.
    let mut spec = determinism_spec(3);
    spec.stop.max_symbols_per_point = 0;
    let report = run_campaign(&spec);
    report.validate().expect("zero-budget artefact invariants");
    let text = report.to_json().to_string_pretty();
    assert!(!text.contains("null"), "NaN leaked into artefact:\n{text}");
    let back = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    back.validate().expect("reloaded artefact invariants");
    assert_eq!(back.to_json().to_string_pretty(), text, "round-trip drift");
    for p in &back.points {
        assert_eq!((p.symbols, p.bits, p.rounds), (0, 0, 0));
        assert_eq!(p.ber_ci, (0.0, 1.0));
    }
}
