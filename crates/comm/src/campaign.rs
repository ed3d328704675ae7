//! Deterministic SNR-sweep campaigns with statistical early stopping.
//!
//! The paper's headline artefacts are BER-over-SNR waterfall curves
//! comparing demapper families across channel impairments. A
//! [`CampaignSpec`] describes the whole scenario matrix — demapper
//! family × channel scenario × SNR grid — and [`run_campaign`]
//! produces one [`CampaignPoint`] per cell, each with Wilson confidence
//! intervals, as a JSON-serialisable [`CampaignReport`].
//!
//! ## Early stopping without losing determinism
//!
//! A fixed trial count per point wastes work at low SNR (the error
//! count saturates almost immediately) and under-powers high SNR (a
//! handful of errors ⇒ a CI spanning a decade). Each point therefore
//! runs in **geometrically escalating rounds** on a resumable
//! [`LinkSim`]: after every round the merged error count is checked
//! against [`EarlyStop::target_bit_errors`], and the point stops at
//! the first round boundary where the target (or the
//! [`EarlyStop::max_symbols_per_point`] cap) is reached.
//!
//! Determinism argument (DESIGN.md §8): the round schedule is a pure
//! function of `(stop, block_len)` — round sizes never depend on
//! observed errors, only the *number of rounds executed* does. Each
//! round extends fixed per-task RNG streams, so the state after any
//! round prefix is independent of thread count; and stopping after
//! round `k` yields exactly the `k`-round prefix of the uncapped run.
//! The whole report is thus a pure function of `(spec, seed)`, and the
//! serialised artefact is byte-for-byte reproducible.

use crate::channel::Channel;
use crate::constellation::Constellation;
use crate::demapper::Demapper;
use crate::linksim::{LinkSim, LinkSpec};
use hybridem_mathkit::rng::SplitMix64;
use hybridem_mathkit::stats::wilson_interval;

/// Builds the channel for one scenario at one grid SNR. The campaign
/// engine passes grid values through verbatim, so the builder decides
/// the axis convention (Es/N0 vs Eb/N0).
pub(crate) type ChannelBuilder<'a> = Box<dyn Fn(f64) -> Box<dyn Channel> + Sync + 'a>;

/// Builds the demapper for one family at one grid SNR (same axis
/// convention note as [`ChannelBuilder`]).
pub(crate) type DemapperBuilder<'a> = Box<dyn Fn(f64) -> Box<dyn Demapper + 'a> + Sync + 'a>;

/// One channel scenario of the campaign matrix (e.g. "awgn",
/// "phase-pi4+awgn", "rayleigh+awgn").
pub struct ChannelScenario<'a> {
    /// Scenario label used in artefacts.
    pub(crate) name: String,
    /// Channel factory, called once per (family, scenario, SNR) point.
    pub(crate) build: ChannelBuilder<'a>,
}

impl<'a> ChannelScenario<'a> {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, build: ChannelBuilder<'a>) -> Self {
        Self {
            name: name.into(),
            build,
        }
    }

    /// Pure AWGN with the grid value interpreted as **Es/N0 in dB** —
    /// the scenario of the theory-anchored golden tests.
    pub fn awgn_es_n0() -> Self {
        Self::new(
            "awgn",
            Box::new(|snr| Box::new(crate::channel::Awgn::from_es_n0_db(snr))),
        )
    }
}

/// One demapper family of the campaign matrix, bundling the
/// transmitter constellation it operates on (the conventional receiver
/// transmits Gray QAM; ANN-based receivers transmit the learned
/// constellation).
pub struct DemapperFamily<'a> {
    /// Family label used in artefacts.
    pub name: String,
    /// Transmit constellation for this family.
    pub(crate) constellation: Constellation,
    /// Demapper factory, called once per (family, scenario, SNR) point.
    pub(crate) build: DemapperBuilder<'a>,
}

impl<'a> DemapperFamily<'a> {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        constellation: Constellation,
        build: DemapperBuilder<'a>,
    ) -> Self {
        Self {
            name: name.into(),
            constellation,
            build,
        }
    }

    /// Max-log demapping of `constellation` with the grid value
    /// interpreted as **Es/N0 in dB** at unit symbol energy — the
    /// family of the theory-anchored golden tests.
    pub fn maxlog_es_n0(constellation: Constellation) -> Self {
        let c = constellation.clone();
        Self::new(
            "maxlog",
            constellation,
            Box::new(move |snr| {
                let sigma = crate::snr::noise_sigma(snr, 1.0) as f32;
                Box::new(crate::demapper::MaxLogMap::new(c.clone(), sigma))
            }),
        )
    }
}

/// Early-stopping policy: geometrically escalating rounds until a
/// target error count or a trial cap is reached.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyStop {
    /// Stop a point at the first round boundary with at least this
    /// many accumulated bit errors (≈100 gives a ±20 % 95 % CI).
    pub target_bit_errors: u64,
    /// Cap on simulated symbols per point (reached ⇒ the point
    /// reports whatever precision the budget bought). Rounded **up**
    /// to whole blocks by the schedule — a point may simulate up to
    /// `block_len − 1` symbols past this value, never a partial block.
    pub max_symbols_per_point: u64,
    /// Symbol budget of the first round.
    pub first_round_symbols: u64,
    /// Geometric growth factor between rounds (≥ 1).
    pub growth: u32,
}

impl EarlyStop {
    /// The defaults used by the paper-reproduction campaigns: stop at
    /// 100 bit errors, cap at 4 M symbols, rounds 8192·4ʳ.
    pub fn paper_default() -> Self {
        Self {
            target_bit_errors: 100,
            max_symbols_per_point: 4_000_000,
            first_round_symbols: 8_192,
            growth: 4,
        }
    }

    /// Returns a copy with the symbol cap lowered to `cap` (no-op if
    /// already lower; like the cap itself, rounded up to whole blocks
    /// at schedule time) — how CI clamps campaign budgets via
    /// `HYBRIDEM_CAMPAIGN_TRIALS`.
    pub fn capped(mut self, cap: u64) -> Self {
        self.max_symbols_per_point = self.max_symbols_per_point.min(cap);
        self
    }

    /// The deterministic round schedule, in **blocks** per round, for
    /// a given block length. Pure function of `(self, block_len)`:
    /// observed errors never change round sizes, only how many rounds
    /// actually execute — the heart of the determinism argument.
    ///
    /// # Panics
    /// Panics if `block_len == 0` or `growth == 0`.
    pub fn round_schedule(&self, block_len: usize) -> RoundSchedule {
        assert!(block_len > 0, "block length must be positive");
        assert!(self.growth >= 1, "growth factor must be at least 1");
        RoundSchedule {
            next: self.first_round_symbols.div_ceil(block_len as u64).max(1),
            growth: u64::from(self.growth),
            remaining: self.max_symbols_per_point.div_ceil(block_len as u64),
        }
    }
}

/// Iterator over per-round block counts (see
/// [`EarlyStop::round_schedule`]). Finite: the cumulative block count
/// equals `ceil(max_symbols_per_point / block_len)`, with the final
/// round truncated to land exactly on the cap.
#[derive(Clone, Debug)]
pub struct RoundSchedule {
    next: u64,
    growth: u64,
    remaining: u64,
}

impl Iterator for RoundSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let blocks = self.next.min(self.remaining);
        self.remaining -= blocks;
        self.next = self.next.saturating_mul(self.growth);
        Some(blocks)
    }
}

/// The full campaign description: scenario matrix, SNR grid, stopping
/// policy, and the execution parameters the determinism guarantee is
/// conditioned on (`tasks`, `seed`, `block_len`).
pub struct CampaignSpec<'a> {
    /// Campaign label recorded in the artefact.
    pub name: String,
    /// Demapper families (matrix rows).
    pub families: Vec<DemapperFamily<'a>>,
    /// Channel scenarios (matrix columns).
    pub scenarios: Vec<ChannelScenario<'a>>,
    /// SNR grid in dB (axis convention belongs to the builders).
    pub snrs_db: Vec<f64>,
    /// Early-stopping policy applied to every point.
    pub stop: EarlyStop,
    /// Symbols per simulated channel block.
    pub block_len: usize,
    /// Monte-Carlo task count. Fixed explicitly (not derived from the
    /// machine) so artefacts reproduce byte-for-byte anywhere.
    pub tasks: u32,
    /// Base seed; per-point seeds are derived deterministically.
    pub(crate) seed: u64,
    /// Standard-normal quantile of the reported confidence intervals
    /// (1.96 ⇒ 95 %).
    pub(crate) z: f64,
}

impl<'a> CampaignSpec<'a> {
    /// A campaign with the default execution parameters: paper-default
    /// early stopping, 256-symbol blocks, 64 tasks, 95 % intervals.
    pub fn new(
        families: Vec<DemapperFamily<'a>>,
        scenarios: Vec<ChannelScenario<'a>>,
        snrs_db: Vec<f64>,
        seed: u64,
    ) -> Self {
        Self {
            name: "campaign".to_string(),
            families,
            scenarios,
            snrs_db,
            stop: EarlyStop::paper_default(),
            block_len: 256,
            tasks: 64,
            seed,
            z: 1.96,
        }
    }
}

/// One measured cell of the campaign matrix.
#[derive(Clone, Debug)]
pub struct CampaignPoint {
    /// Demapper-family label.
    pub family: String,
    /// Channel-scenario label.
    pub scenario: String,
    /// Grid SNR in dB.
    pub snr_db: f64,
    /// Bit error rate (0 when nothing was simulated — never NaN).
    pub ber: f64,
    /// Wilson interval of the BER at the campaign's `z`.
    pub ber_ci: (f64, f64),
    /// Symbol error rate (same zero-observation contract).
    pub(crate) ser: f64,
    /// Wilson interval of the SER.
    pub(crate) ser_ci: (f64, f64),
    /// Bitwise mutual information (0 when nothing was simulated).
    pub mi: f64,
    /// Simulated bits.
    pub bits: u64,
    /// Observed bit errors.
    pub bit_errors: u64,
    /// Simulated symbols.
    pub symbols: u64,
    /// Observed symbol errors.
    pub symbol_errors: u64,
    /// Rounds executed before the stop decision.
    pub rounds: u32,
    /// True when the error target was reached (as opposed to the
    /// schedule running out at the trial cap).
    pub stopped_early: bool,
    /// The derived per-point seed (recorded for single-point replay).
    pub seed: u64,
}

hybridem_mathkit::impl_json!(CampaignPoint {
    family,
    scenario,
    snr_db,
    ber,
    ber_ci,
    ser,
    ser_ci,
    mi,
    bits,
    bit_errors,
    symbols,
    symbol_errors,
    rounds,
    stopped_early,
    seed,
});

/// The campaign artefact: execution parameters + all measured points,
/// serialisable with [`hybridem_mathkit::json::ToJson`] and
/// re-loadable with [`hybridem_mathkit::json::FromJson`] (which is how
/// CI validates artefact schemas).
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign label.
    pub(crate) name: String,
    /// Base seed the artefact is a pure function of.
    pub(crate) seed: u64,
    /// Monte-Carlo task count used by every point.
    pub(crate) tasks: u32,
    /// Symbols per channel block.
    pub(crate) block_len: u64,
    /// CI quantile.
    pub(crate) z: f64,
    /// Early-stop error target.
    pub(crate) target_bit_errors: u64,
    /// Early-stop symbol cap.
    pub(crate) max_symbols_per_point: u64,
    /// The SNR grid.
    pub snrs_db: Vec<f64>,
    /// One point per (family, scenario, SNR) cell, in matrix order.
    pub points: Vec<CampaignPoint>,
}

hybridem_mathkit::impl_json!(CampaignReport {
    name,
    seed,
    tasks,
    block_len,
    z,
    target_bit_errors,
    max_symbols_per_point,
    snrs_db,
    points,
});

impl CampaignReport {
    /// Schema/invariant validation of a (re-loaded) artefact: finite
    /// rates inside their intervals, counts consistent, no NaN
    /// anywhere. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.tasks == 0 {
            return Err("tasks must be positive".to_string());
        }
        if self.block_len == 0 {
            return Err("block_len must be positive".to_string());
        }
        if !self.z.is_finite() || self.z <= 0.0 {
            return Err(format!("z must be finite and positive, got {}", self.z));
        }
        for (i, p) in self.points.iter().enumerate() {
            let ctx = |msg: String| format!("point {i} ({}/{}): {msg}", p.family, p.scenario);
            if !p.snr_db.is_finite() {
                return Err(ctx("non-finite snr_db".to_string()));
            }
            for (label, x) in [("ber", p.ber), ("ser", p.ser)] {
                if !(0.0..=1.0).contains(&x) {
                    return Err(ctx(format!("{label} {x} outside [0, 1]")));
                }
            }
            if !p.mi.is_finite() {
                return Err(ctx("non-finite mi".to_string()));
            }
            for (label, rate, (lo, hi)) in [("ber", p.ber, p.ber_ci), ("ser", p.ser, p.ser_ci)] {
                if !(lo.is_finite() && hi.is_finite() && lo <= rate && rate <= hi) {
                    return Err(ctx(format!("{label} {rate} outside its CI [{lo}, {hi}]")));
                }
            }
            if p.bit_errors > p.bits || p.symbol_errors > p.symbols {
                return Err(ctx("more errors than trials".to_string()));
            }
            if p.symbols % self.block_len != 0 {
                return Err(ctx(format!(
                    "symbols {} not a whole number of {}-symbol blocks",
                    p.symbols, self.block_len
                )));
            }
        }
        Ok(())
    }

    /// Renders the points as a Markdown table.
    pub fn markdown_table(&self) -> String {
        let mut s = String::from(
            "| Family | Scenario | SNR [dB] | BER | CI | symbols | rounds | early |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for p in &self.points {
            s.push_str(&format!(
                "| {} | {} | {} | {:.4e} | [{:.2e}, {:.2e}] | {} | {} | {} |\n",
                p.family,
                p.scenario,
                p.snr_db,
                p.ber,
                p.ber_ci.0,
                p.ber_ci.1,
                p.symbols,
                p.rounds,
                if p.stopped_early { "✓" } else { "" }
            ));
        }
        s
    }
}

/// Derives the per-point seed from the base seed and the cell's matrix
/// coordinates. Stable across campaign compositions with the same
/// index triple, well separated via SplitMix64.
fn point_seed(base: u64, family: usize, scenario: usize, snr: usize) -> u64 {
    let cell = ((family as u64) << 42) | ((scenario as u64) << 21) | snr as u64;
    SplitMix64::derive(base, cell)
}

/// Runs one campaign point: geometrically escalating rounds until the
/// error target or the trial cap, as dictated by `spec.stop`.
fn run_point(
    spec: &CampaignSpec<'_>,
    family: &DemapperFamily<'_>,
    scenario: &ChannelScenario<'_>,
    snr_db: f64,
    seed: u64,
) -> CampaignPoint {
    let channel = (scenario.build)(snr_db);
    let demapper = (family.build)(snr_db);
    let link = LinkSpec {
        constellation: &family.constellation,
        channel: &*channel,
        demapper: &*demapper,
        symbols: 0, // budget comes from rounds, not the spec
        block_len: spec.block_len,
        seed,
    };
    let mut sim = LinkSim::new(&link, spec.tasks);
    let mut stopped_early = false;
    for blocks in spec.stop.round_schedule(spec.block_len) {
        sim.run_round(blocks);
        if sim.result().bit_errors.errors() >= spec.stop.target_bit_errors {
            stopped_early = true;
            break;
        }
    }
    let r = sim.result();
    CampaignPoint {
        family: family.name.clone(),
        scenario: scenario.name.clone(),
        snr_db,
        ber: r.ber(),
        ber_ci: wilson_interval(r.bit_errors.errors(), r.bit_errors.trials(), spec.z),
        ser: r.ser(),
        ser_ci: wilson_interval(r.symbol_errors.errors(), r.symbol_errors.trials(), spec.z),
        mi: r.mi.mi(),
        bits: r.bit_errors.trials(),
        bit_errors: r.bit_errors.errors(),
        symbols: r.symbol_errors.trials(),
        symbol_errors: r.symbol_errors.errors(),
        rounds: sim.rounds(),
        stopped_early,
        seed,
    }
}

/// Runs the full scenario matrix and assembles the artefact. The
/// result is a pure function of `(spec, spec.seed)`: fixed `tasks`
/// makes every point thread-count independent, and early stopping only
/// acts at round boundaries of a schedule that never looks at the
/// data.
pub fn run_campaign(spec: &CampaignSpec<'_>) -> CampaignReport {
    assert!(!spec.families.is_empty(), "campaign needs ≥ 1 family");
    assert!(!spec.scenarios.is_empty(), "campaign needs ≥ 1 scenario");
    assert!(spec.tasks > 0, "campaign needs ≥ 1 task");
    let mut points =
        Vec::with_capacity(spec.families.len() * spec.scenarios.len() * spec.snrs_db.len());
    for (fi, family) in spec.families.iter().enumerate() {
        for (si, scenario) in spec.scenarios.iter().enumerate() {
            for (ki, &snr_db) in spec.snrs_db.iter().enumerate() {
                let seed = point_seed(spec.seed, fi, si, ki);
                points.push(run_point(spec, family, scenario, snr_db, seed));
            }
        }
    }
    CampaignReport {
        name: spec.name.clone(),
        seed: spec.seed,
        tasks: spec.tasks,
        block_len: spec.block_len as u64,
        z: spec.z,
        target_bit_errors: spec.stop.target_bit_errors,
        max_symbols_per_point: spec.stop.max_symbols_per_point,
        snrs_db: spec.snrs_db.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::json::{FromJson, Json, ToJson};

    fn qpsk_campaign(stop: EarlyStop) -> CampaignSpec<'static> {
        let mut spec = CampaignSpec::new(
            vec![DemapperFamily::maxlog_es_n0(Constellation::qam_gray(4))],
            vec![ChannelScenario::awgn_es_n0()],
            vec![2.0, 8.0],
            99,
        );
        spec.stop = stop;
        spec.tasks = 8;
        spec
    }

    #[test]
    fn schedule_is_geometric_and_capped() {
        let stop = EarlyStop {
            target_bit_errors: 100,
            max_symbols_per_point: 100_000,
            first_round_symbols: 1_000,
            growth: 4,
        };
        let blocks: Vec<u64> = stop.round_schedule(100).collect();
        // 10, 40, 160, 640 … capped at 1000 cumulative blocks.
        assert_eq!(blocks, vec![10, 40, 160, 640, 150]);
        assert_eq!(blocks.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn schedule_zero_budget_is_empty() {
        let stop = EarlyStop {
            max_symbols_per_point: 0,
            ..EarlyStop::paper_default()
        };
        assert_eq!(stop.round_schedule(256).count(), 0);
    }

    #[test]
    fn low_snr_stops_early_high_snr_runs_longer() {
        let stop = EarlyStop {
            target_bit_errors: 200,
            max_symbols_per_point: 64_000,
            first_round_symbols: 2_048,
            growth: 4,
        };
        let report = run_campaign(&qpsk_campaign(stop));
        assert_eq!(report.points.len(), 2);
        let low = &report.points[0]; // 2 dB: BER ≈ 0.1 ⇒ first round suffices
        let high = &report.points[1]; // 8 dB: BER ≈ 6e-3 ⇒ needs escalation
        assert!(low.stopped_early, "low SNR must hit the error target");
        assert!(low.rounds < high.rounds || !high.stopped_early);
        assert!(low.symbols < high.symbols);
        report.validate().expect("artefact invariants");
    }

    #[test]
    fn report_round_trips_through_json() {
        let stop = EarlyStop {
            target_bit_errors: 50,
            max_symbols_per_point: 8_192,
            first_round_symbols: 4_096,
            growth: 2,
        };
        let report = run_campaign(&qpsk_campaign(stop));
        let text = report.to_json().to_string_pretty();
        let back = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        back.validate().expect("reloaded artefact invariants");
        assert_eq!(back.to_json().to_string_pretty(), text);
        assert_eq!(back.points.len(), report.points.len());
        assert_eq!(back.points[0].bit_errors, report.points[0].bit_errors);
    }

    #[test]
    fn zero_budget_point_is_json_clean() {
        // max_symbols_per_point = 0 ⇒ no rounds at all; every rate
        // must still be a finite number and the artefact valid.
        let stop = EarlyStop {
            max_symbols_per_point: 0,
            ..EarlyStop::paper_default()
        };
        let report = run_campaign(&qpsk_campaign(stop));
        for p in &report.points {
            assert_eq!(p.rounds, 0);
            assert_eq!(p.symbols, 0);
            assert_eq!(p.ber, 0.0);
            assert_eq!(p.mi, 0.0);
            assert_eq!(p.ber_ci, (0.0, 1.0));
            assert!(!p.stopped_early);
        }
        report.validate().expect("zero-budget artefact invariants");
        // The serialised artefact must not contain nulls (the JSON
        // writer's spelling of NaN/∞).
        let text = report.to_json().to_string_compact();
        assert!(!text.contains("null"), "NaN leaked into artefact: {text}");
    }

    #[test]
    fn validate_rejects_inconsistent_artefacts() {
        let stop = EarlyStop {
            target_bit_errors: 50,
            max_symbols_per_point: 4_096,
            first_round_symbols: 4_096,
            growth: 2,
        };
        let mut report = run_campaign(&qpsk_campaign(stop));
        report.points[0].ber = f64::NAN;
        assert!(report.validate().is_err());
        let mut report2 = run_campaign(&qpsk_campaign(stop));
        report2.points[0].bit_errors = report2.points[0].bits + 1;
        assert!(report2.validate().is_err());
    }

    #[test]
    fn point_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for f in 0..4 {
            for s in 0..4 {
                for k in 0..8 {
                    assert!(seen.insert(point_seed(7, f, s, k)));
                }
            }
        }
    }

    #[test]
    fn markdown_has_one_row_per_point() {
        let stop = EarlyStop {
            target_bit_errors: 10,
            max_symbols_per_point: 2_048,
            first_round_symbols: 2_048,
            growth: 2,
        };
        let report = run_campaign(&qpsk_campaign(stop));
        let md = report.markdown_table();
        assert_eq!(md.lines().count(), 2 + report.points.len());
    }
}
