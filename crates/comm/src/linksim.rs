//! End-to-end link simulation: the Monte-Carlo BER engine.
//!
//! One simulation transmits random symbols from a constellation through
//! a channel, demaps each channel block with one
//! [`Demapper::demap_block`] call (no per-symbol virtual dispatch, no
//! per-symbol allocation — see DESIGN.md §7), and counts bit and symbol
//! errors plus bitwise mutual information. Parallel execution reuses
//! the deterministic task-splitting Monte-Carlo runner, so every
//! BER point in EXPERIMENTS.md is exactly reproducible from its seed.
//!
//! Two entry points share one engine:
//!
//! - [`simulate_link`] — one-shot: the whole symbol budget in a single
//!   pass;
//! - [`LinkSim`] — resumable: blocks arrive in caller-chosen rounds on
//!   a [`RoundRunner`], which is how the campaign engine
//!   ([`crate::campaign`]) implements statistical early stopping
//!   without giving up determinism (DESIGN.md §8).

use crate::channel::Channel;
use crate::constellation::Constellation;
use crate::demapper::Demapper;
use crate::metrics::BitwiseMiEstimator;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_mathkit::stats::ErrorCounter;
use hybridem_parallel::montecarlo::{default_tasks, RoundRunner};

/// Everything needed to run one link simulation.
pub struct LinkSpec<'a> {
    /// Transmitter codebook (points indexed by bit label).
    pub constellation: &'a Constellation,
    /// Channel prototype; each parallel task clones and resets it.
    pub channel: &'a dyn Channel,
    /// Receiver demapper.
    pub demapper: &'a dyn Demapper,
    /// Total number of symbols to simulate (rounded up to whole blocks).
    pub symbols: u64,
    /// Symbols per transmitted block (also the granularity at which
    /// stateful channels see contiguous streams).
    pub block_len: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl<'a> LinkSpec<'a> {
    /// Convenience constructor with the default block length (256).
    pub fn new(
        constellation: &'a Constellation,
        channel: &'a dyn Channel,
        demapper: &'a dyn Demapper,
        symbols: u64,
        seed: u64,
    ) -> Self {
        Self {
            constellation,
            channel,
            demapper,
            symbols,
            block_len: 256,
            seed,
        }
    }
}

/// Outcome of a link simulation.
#[derive(Clone, Debug)]
pub struct LinkResult {
    /// Bit-level error counter (`trials` = simulated bits).
    pub bit_errors: ErrorCounter,
    /// Symbol-level error counter (`trials` = simulated symbols).
    pub symbol_errors: ErrorCounter,
    /// Bitwise mutual information estimate across all bit positions.
    pub mi: BitwiseMiEstimator,
}

impl LinkResult {
    /// Bit error rate. Zero-observation contract: `0.0` (never NaN)
    /// when no bits were simulated — check
    /// `self.bit_errors.trials() == 0` to tell "clean link" from
    /// "nothing measured".
    pub fn ber(&self) -> f64 {
        self.bit_errors.rate()
    }

    /// Symbol error rate. Zero-observation contract: `0.0` (never NaN)
    /// when no symbols were simulated.
    pub fn ser(&self) -> f64 {
        self.symbol_errors.rate()
    }
}

struct TaskAcc {
    channel: Box<dyn Channel>,
    bits: ErrorCounter,
    syms: ErrorCounter,
    mi: BitwiseMiEstimator,
    /// Per-task scratch, reused across blocks so the Monte-Carlo inner
    /// loop allocates nothing after the first block.
    tx_symbols: Vec<usize>,
    block: Vec<C32>,
    llrs: Vec<f32>,
}

/// Runs the simulation described by `spec` in one pass, with a task
/// count suited to the current machine (see [`default_tasks`];
/// fix `HYBRIDEM_THREADS` or use [`LinkSim::new`] with an explicit
/// task count for machine-independent results).
pub fn simulate_link(spec: &LinkSpec<'_>) -> LinkResult {
    // Checked again by LinkSim::new, but assert before the division so
    // a zero block length fails with the documented message rather
    // than an opaque divide-by-zero.
    assert!(spec.block_len > 0, "block length must be positive");
    let blocks = spec.symbols.div_ceil(spec.block_len as u64);
    let mut sim = LinkSim::new(spec, default_tasks());
    sim.run_round(blocks);
    sim.result()
}

/// A resumable link simulation: the same engine as [`simulate_link`],
/// but blocks are simulated in caller-chosen **rounds** and the
/// partial result can be inspected between rounds.
///
/// Built on [`RoundRunner`], so the per-task channel state and RNG
/// stream survive across rounds: running rounds `b₁, …, b_k` blocks is
/// bit-identical to one [`simulate_link`] call of `Σ bᵢ` blocks at the
/// same task count, and a caller that stops early gets exactly the
/// prefix of the uncapped run. This is what the campaign engine's
/// statistical early stopping is built on (DESIGN.md §8).
pub struct LinkSim<'a> {
    spec: &'a LinkSpec<'a>,
    runner: RoundRunner<TaskAcc>,
}

impl<'a> LinkSim<'a> {
    /// Prepares a resumable simulation with an explicit task count
    /// (`spec.symbols` is ignored; rounds decide the budget).
    ///
    /// # Panics
    /// Panics on constellation/demapper width mismatch, widths above
    /// 16 bits/symbol, a zero block length, or zero tasks.
    pub fn new(spec: &'a LinkSpec<'a>, tasks: u32) -> Self {
        let m = spec.constellation.bits_per_symbol();
        assert_eq!(
            m,
            spec.demapper.bits_per_symbol(),
            "constellation and demapper disagree on bits/symbol"
        );
        assert!(m <= 16, "bits per symbol > 16 unsupported");
        assert!(spec.block_len > 0, "block length must be positive");
        let runner = RoundRunner::new(tasks, spec.seed, || {
            let mut channel = spec.channel.box_clone();
            channel.reset();
            TaskAcc {
                channel,
                bits: ErrorCounter::new(),
                syms: ErrorCounter::new(),
                mi: BitwiseMiEstimator::new(),
                tx_symbols: vec![0usize; spec.block_len],
                block: vec![C32::zero(); spec.block_len],
                llrs: vec![0f32; spec.block_len * m],
            }
        });
        Self { spec, runner }
    }

    /// Simulates `blocks` further blocks (each `spec.block_len`
    /// symbols), split deterministically across the task set.
    pub fn run_round(&mut self, blocks: u64) {
        let spec = self.spec;
        self.runner
            .run_round(blocks, |acc, rng| simulate_block(spec, acc, rng));
    }

    /// Rounds executed so far.
    pub(crate) fn rounds(&self) -> u32 {
        self.runner.rounds()
    }

    /// Snapshot of the accumulated result, reduced in task order (so
    /// the floating-point MI sum is bit-stable across thread counts).
    /// Cheap relative to a round; callable between rounds.
    pub fn result(&self) -> LinkResult {
        self.runner.fold(
            |acc| LinkResult {
                bit_errors: acc.bits,
                symbol_errors: acc.syms,
                mi: acc.mi.clone(),
            },
            |total, part| {
                total.bit_errors.merge(&part.bit_errors);
                total.symbol_errors.merge(&part.symbol_errors);
                total.mi.merge(&part.mi);
            },
        )
    }
}

fn simulate_block(spec: &LinkSpec<'_>, acc: &mut TaskAcc, rng: &mut Xoshiro256pp) {
    let m = spec.constellation.bits_per_symbol();
    for (s, y) in acc.tx_symbols.iter_mut().zip(acc.block.iter_mut()) {
        *s = (rng.next_u64() >> (64 - m)) as usize;
        *y = spec.constellation.point(*s);
    }
    acc.channel.transmit(&mut acc.block, rng);

    // One block demap per channel block: no per-symbol virtual dispatch
    // in the hottest loop of the workspace.
    spec.demapper.demap_block(&acc.block, &mut acc.llrs);

    for (&u, llr) in acc.tx_symbols.iter().zip(acc.llrs.chunks_exact(m)) {
        let mut sym_err = false;
        for (k, &l) in llr.iter().enumerate() {
            let tx_bit = spec.constellation.bit(u, k);
            let rx_bit = u8::from(l < 0.0);
            let err = tx_bit != rx_bit;
            sym_err |= err;
            acc.bits.push(err);
            acc.mi.push(tx_bit, l);
        }
        acc.syms.push(sym_err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Awgn, ChannelChain};
    use crate::demapper::{ExactLogMap, HardNearest, MaxLogMap};
    use crate::snr::noise_sigma;
    use crate::theory::{ber_qam16_gray, ber_qpsk_gray};

    fn qam16() -> Constellation {
        Constellation::qam_gray(16)
    }

    #[test]
    fn noiseless_link_is_error_free() {
        let c = qam16();
        let awgn = Awgn::new(0.0);
        let demapper = MaxLogMap::new(c.clone(), 0.1);
        let spec = LinkSpec::new(&c, &awgn, &demapper, 10_000, 1);
        let r = simulate_link(&spec);
        assert_eq!(r.bit_errors.errors(), 0);
        assert_eq!(r.symbol_errors.errors(), 0);
        assert!(r.bit_errors.trials() >= 40_000);
        // Clean LLRs carry the full bit of information.
        assert!(r.mi.mi() > 0.999);
    }

    #[test]
    fn qam16_maxlog_matches_theory() {
        let c = qam16();
        for &snr in &[4.0f64, 8.0] {
            let sigma = noise_sigma(snr, 1.0) as f32;
            let channel = Awgn::new(sigma);
            let demapper = MaxLogMap::new(c.clone(), sigma);
            let spec = LinkSpec::new(&c, &channel, &demapper, 400_000, 42);
            let r = simulate_link(&spec);
            let theory = ber_qam16_gray(snr);
            assert!(
                r.bit_errors.consistent_with(theory, 3.9),
                "snr {snr}: sim {} vs theory {theory}",
                r.ber()
            );
        }
    }

    #[test]
    fn qpsk_exact_demapper_matches_theory() {
        let c = Constellation::qam_gray(4);
        let snr = 6.0;
        let sigma = noise_sigma(snr, 1.0) as f32;
        let channel = Awgn::new(sigma);
        let demapper = ExactLogMap::new(c.clone(), sigma);
        let spec = LinkSpec::new(&c, &channel, &demapper, 400_000, 7);
        let r = simulate_link(&spec);
        let theory = ber_qpsk_gray(snr);
        assert!(
            r.bit_errors.consistent_with(theory, 3.9),
            "sim {} vs theory {theory}",
            r.ber()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let c = qam16();
        let sigma = noise_sigma(8.0, 1.0) as f32;
        let channel = Awgn::new(sigma);
        let demapper = MaxLogMap::new(c.clone(), sigma);
        let spec = LinkSpec::new(&c, &channel, &demapper, 50_000, 99);
        let a = simulate_link(&spec);
        let b = simulate_link(&spec);
        assert_eq!(a.bit_errors.errors(), b.bit_errors.errors());
        assert_eq!(a.symbol_errors.errors(), b.symbol_errors.errors());
    }

    #[test]
    fn uncompensated_phase_offset_destroys_the_link() {
        // The paper's Table 1 "before retraining" condition.
        let c = qam16();
        let sigma = noise_sigma(8.0, 1.0) as f32;
        let channel = ChannelChain::phase_then_awgn(std::f32::consts::FRAC_PI_4, 8.0);
        let demapper = MaxLogMap::new(c.clone(), sigma);
        let spec = LinkSpec::new(&c, &channel, &demapper, 100_000, 5);
        let r = simulate_link(&spec);
        assert!(
            r.ber() > 0.2,
            "π/4 offset must be catastrophic: {}",
            r.ber()
        );
        // MI collapses as well.
        assert!(r.mi.mi() < 0.3);
    }

    #[test]
    fn rotated_centroids_compensate_phase_offset() {
        // The paper's core claim in miniature: demapping against the
        // rotated point set restores the no-offset BER.
        let theta = std::f32::consts::FRAC_PI_4;
        let c = qam16();
        let snr = 8.0;
        let sigma = noise_sigma(snr, 1.0) as f32;
        let channel = ChannelChain::phase_then_awgn(theta, snr);
        let demapper = MaxLogMap::new(c.rotated(theta), sigma);
        let spec = LinkSpec::new(&c, &channel, &demapper, 400_000, 11);
        let r = simulate_link(&spec);
        let theory = ber_qam16_gray(snr);
        assert!(
            r.bit_errors.consistent_with(theory, 3.9),
            "compensated sim {} vs theory {theory}",
            r.ber()
        );
    }

    #[test]
    fn hard_demapper_close_to_soft_for_uncoded_ber() {
        // For uncoded transmission, hard nearest-neighbour decisions on
        // a Gray QAM equal the max-log bit decisions.
        let c = qam16();
        let snr = 6.0;
        let sigma = noise_sigma(snr, 1.0) as f32;
        let channel = Awgn::new(sigma);
        let soft = MaxLogMap::new(c.clone(), sigma);
        let hard = HardNearest::new(c.clone());
        let rs = simulate_link(&LinkSpec::new(&c, &channel, &soft, 200_000, 3));
        let rh = simulate_link(&LinkSpec::new(&c, &channel, &hard, 200_000, 3));
        assert_eq!(rs.bit_errors.errors(), rh.bit_errors.errors());
    }

    #[test]
    fn zero_symbol_budget_yields_finite_zeroes() {
        // The zero-observation contract end-to-end: no trials, no NaN.
        let c = qam16();
        let awgn = Awgn::new(0.3);
        let demapper = MaxLogMap::new(c.clone(), 0.3);
        let spec = LinkSpec::new(&c, &awgn, &demapper, 0, 1);
        let r = simulate_link(&spec);
        assert_eq!(r.bit_errors.trials(), 0);
        assert_eq!(r.ber(), 0.0);
        assert_eq!(r.ser(), 0.0);
        assert_eq!(r.mi.mi(), 0.0);
        assert!(r.ber().is_finite() && r.ser().is_finite() && r.mi.mi().is_finite());
        assert_eq!(r.bit_errors.wilson_interval(1.96), (0.0, 1.0));
    }

    #[test]
    fn incremental_rounds_match_one_shot() {
        // LinkSim over rounds 8+24+32 blocks ≡ one 64-block round at
        // the same task count, bit-for-bit (round sizes divisible by
        // the task count, so per-task trial prefixes line up) —
        // including the stateful-channel case (CFO phase persists
        // across rounds within a task).
        let c = qam16();
        let sigma = noise_sigma(8.0, 1.0) as f32;
        let channel = ChannelChain::new(vec![
            Box::new(crate::channel::Cfo::new(1e-4)),
            Box::new(Awgn::new(sigma)),
        ]);
        let demapper = MaxLogMap::new(c.clone(), sigma);
        let mut spec = LinkSpec::new(&c, &channel, &demapper, 64 * 256, 77);
        spec.block_len = 256;

        let mut sim = LinkSim::new(&spec, 8);
        for blocks in [8u64, 24, 32] {
            sim.run_round(blocks);
        }
        let incremental = sim.result();
        assert_eq!(sim.rounds(), 3);

        let mut one_shot = LinkSim::new(&spec, 8);
        one_shot.run_round(64);
        let whole = one_shot.result();
        assert_eq!(incremental.bit_errors.errors(), whole.bit_errors.errors());
        assert_eq!(
            incremental.symbol_errors.errors(),
            whole.symbol_errors.errors()
        );
        assert_eq!(incremental.mi.mi().to_bits(), whole.mi.mi().to_bits());
    }

    #[test]
    #[should_panic(expected = "disagree on bits/symbol")]
    fn mismatched_widths_rejected() {
        let c = qam16();
        let c4 = Constellation::qam_gray(4);
        let channel = Awgn::new(0.1);
        let demapper = MaxLogMap::new(c4, 0.1);
        let spec = LinkSpec::new(&c, &channel, &demapper, 100, 0);
        let _ = simulate_link(&spec);
    }
}
