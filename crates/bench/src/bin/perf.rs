//! The one timing binary (DESIGN.md §11.4): the SIMD hot kernels, the
//! many-link serving grid, the adaptive-FIR equalizer kernels and the
//! whole `OnlineLink` step at pinned shapes, run by
//! [`hybridem_bench::perf::main`]. `perf` times every case and checks
//! the invariants below; `perf --case <name>` times one case;
//! `perf --against <rev>` pairs this build against `<rev>`'s, case by
//! case.
//!
//! Cases (elements are symbols, grid cells for `extract_*`, or frames
//! for `serve_*` and `link_step_*`; 27 on a 2-thread host, where the
//! worker sweep is {1, 2, 4}):
//!
//! - `max_log_block_n{256,4096}`, `max_log_per_symbol_n4096`: the
//!   max-log point-outer kernel (QAM-16, σ=0.2) and its per-symbol
//!   reference; `graph_demap_block_n256`: the compiled paper-demapper
//!   `QuantizedGraph` block demap.
//! - `serve_{maxlog,graph}_l1024_t{T}_b{B}`: one submit→serve round of
//!   a 1024-link `LinkServer` fleet per iteration, at worker counts
//!   T ∈ {1, 2, 4, N} × `batch_links` B ∈ {1, 16, 256} on the max-log
//!   backend, and at B ∈ {1, 256} on the graph backend. Frames are 8
//!   noiseless QAM-16 symbols: one frame cannot fill the max-log tile's
//!   SIMD lanes, which is the regime cross-link gathering exists for.
//! - `eq_blind_block_n4096`, `eq_train_n256`, `eq_demap_block_n4096`:
//!   the adaptive FIR on a two-ray QPSK stream (blind CMA/DD equalize,
//!   supervised LMS train, and equalize followed by a max-log demap
//!   block: the two stages an equalized link runs per frame).
//! - `train_step_paper_b256`: one step of the retrainer's loop on the
//!   float paper demapper (2→16→16→4, logit head), the shared
//!   `Sequential::bce_step` without the loss: forward, the BCE gradient,
//!   backward without the input gradient and an Adam update of a fixed
//!   batch of 256 noisy QAM-16 pilots. `ann_demap_block_n4096`: the
//!   float demapper's `demap_block`, the inference path of the
//!   decision-region extraction grid. Both run the `nn` dense lane
//!   kernels.
//! - `extract_paper_g192`: `extraction::extract` of the paper demapper,
//!   trained end to end at `SystemConfig::paper_default`, on its
//!   192×192 grid: the second stage of the retrain → extract → swap
//!   chain.
//! - `link_step_fixed_qam16_f256`, `link_step_eq_qpsk_f256`: one
//!   `OnlineLink::step` per iteration, the whole per-frame path (frame
//!   build, channel, equalizer, demap, error counts). The first is a
//!   fixed max-log QAM-16 link, 256-symbol frames with 64 pilots, on
//!   AWGN at the paper's Es/N0; the second an equalized QPSK link
//!   without pilots on the two-ray echo (gain 0.4, one symbol) at
//!   12 dB. Both trajectories are constant, so the link streams for
//!   the whole budget.
//!
//! Invariants, checked after a full-budget plain run:
//!
//! - block max-log demap never loses to the per-symbol loop at
//!   n=4096, the regression a per-tile allocation once caused on long
//!   cold streams;
//! - cross-link batching at `batch_links = 256` at least doubles
//!   max-log frames/s over per-link calls at every worker count.

use hybridem_bench::perf::{self, Case};
use hybridem_comm::channel::{Channel, TappedDelayLine};
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, MaxLogMap};
use hybridem_comm::equalizer::{AdaptiveEqualizer, EqualizerConfig};
use hybridem_comm::snr::noise_sigma;
use hybridem_comm::trajectory::{ChannelState, Taps, Trajectory};
use hybridem_core::config::SystemConfig;
use hybridem_core::demapper_ann::NeuralDemapper;
use hybridem_core::extraction::{extract, ExtractionConfig};
use hybridem_core::pipeline::HybridPipeline;
use hybridem_core::runtime::{LinkParams, OnlineLink, OnlineLinkSpec};
use hybridem_core::server::{LinkServer, ServerCfg, SessionCfg};
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_fpga::graph::{compile, QuantizedGraph};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_nn::model::MlpSpec;
use hybridem_nn::optim::Adam;
use std::hint::black_box;
use std::sync::Arc;

/// Fleet size of the serving cases.
const LINKS: u64 = 1024;
/// Symbols per served frame.
const FRAME_SYMBOLS: usize = 8;

fn qam16_maxlog() -> MaxLogMap {
    MaxLogMap::new(Constellation::qam_gray(16), 0.2)
}

/// The compiled paper demapper (2→16→16→4, W8).
fn paper_graph() -> QuantizedGraph {
    let model = MlpSpec::paper_demapper().build(&mut Xoshiro256pp::seed_from_u64(3));
    let q = |fmt: QFormat| QuantSpec {
        format: fmt,
        rounding: Rounding::Nearest,
    };
    compile(
        &model,
        &[
            q(QFormat::signed(8, 5)),
            q(QFormat::signed(8, 4)),
            q(QFormat::signed(8, 4)),
            q(QFormat::unsigned(8, 8)),
        ],
    )
}

/// `n` received samples around the QAM-16 grid.
fn demap_input(n: usize) -> Vec<C32> {
    let mut rng = Xoshiro256pp::seed_from_u64(23);
    (0..n)
        .map(|_| C32::new(rng.normal_f32() * 0.7, rng.normal_f32() * 0.7))
        .collect()
}

fn demap_block_case(demapper: &impl Demapper, n: usize) -> f64 {
    let ys = demap_input(n);
    let mut llrs = vec![0f32; n * demapper.bits_per_symbol()];
    perf::measure_melems(n as u64, || {
        demapper.demap_block(black_box(&ys), &mut llrs);
        black_box(&llrs);
    })
}

fn max_log_per_symbol_case(n: usize) -> f64 {
    let maxlog = qam16_maxlog();
    let ys = demap_input(n);
    let mut llrs = vec![0f32; n * 4];
    perf::measure_melems(n as u64, || {
        for (y, chunk) in ys.iter().zip(llrs.chunks_exact_mut(4)) {
            maxlog.llrs(black_box(*y), chunk);
        }
        black_box(&llrs);
    })
}

fn serve_name(backend: &str, workers: usize, batch_links: usize) -> String {
    format!("serve_{backend}_l{LINKS}_t{workers}_b{batch_links}")
}

/// Worker counts of the serving grid: 1, 2, 4 and every thread.
fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, 4, hybridem_parallel::num_threads()];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// Times full submit-one-frame-per-link + serve-to-drain rounds, so
/// the median is in M frames/s across the whole fleet.
fn serve_case(demapper: Arc<dyn Demapper>, workers: usize, batch_links: usize) -> f64 {
    let qam = Constellation::qam_gray(16);
    let mut server = LinkServer::new(ServerCfg {
        workers,
        queue_cap: 4,
        batch_links,
    });
    let be = server.register_backend(qam, demapper);
    let ids: Vec<_> = (0..LINKS)
        .map(|i| {
            let mut cfg = SessionCfg::new(
                be,
                Trajectory::constant("clean", ChannelState::clean(f64::INFINITY), 1),
                i,
            );
            cfg.frame_symbols = FRAME_SYMBOLS;
            cfg.pilot_symbols = 2;
            server.open_session(cfg)
        })
        .collect();
    perf::measure_melems(LINKS, || {
        for &id in &ids {
            server.submit(id, 1).unwrap();
        }
        let served = server.serve();
        assert_eq!(served, LINKS);
    })
}

/// A deterministic two-ray QPSK stream of `n` symbols: (received,
/// transmitted).
fn two_ray_stream(n: usize) -> (Vec<C32>, Vec<C32>) {
    let qam = Constellation::qam_gray(4);
    let mut chan = TappedDelayLine::two_ray(0.4, 0.35, 1);
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    let tx: Vec<C32> = (0..n)
        .map(|_| qam.point((rng.next_u64() % qam.points().len() as u64) as usize))
        .collect();
    let mut rx = tx.clone();
    chan.transmit(&mut rx, &mut rng);
    (rx, tx)
}

fn equalizer() -> AdaptiveEqualizer {
    AdaptiveEqualizer::new(Constellation::qam_gray(4), EqualizerConfig::default())
}

/// Blind CMA → DD equalization of a 4096-symbol block. State persists
/// across iterations (as it does across frames in a link), so later
/// samples time the converged DD fast path.
fn eq_blind_case() -> f64 {
    let (rx, _) = two_ray_stream(4096);
    let mut block = rx.clone();
    let mut eq = equalizer();
    perf::measure_melems(4096, || {
        block.copy_from_slice(&rx);
        eq.equalize(black_box(&mut block));
        black_box(&block);
    })
}

/// Supervised LMS training on a 256-symbol pilot prefix.
fn eq_train_case() -> f64 {
    let (rx, tx) = two_ray_stream(256);
    let mut block = rx.clone();
    let mut eq = equalizer();
    perf::measure_melems(256, || {
        block.copy_from_slice(&rx);
        eq.train(black_box(&mut block), &tx);
        black_box(&block);
    })
}

/// The equalized link's two datapath stages: blind equalize in place,
/// then one max-log `demap_block` at the 12 dB QPSK operating point of
/// the `equalizer` bin.
fn eq_demap_case() -> f64 {
    let (rx, _) = two_ray_stream(4096);
    let mut block = rx.clone();
    let mut eq = equalizer();
    let maxlog = MaxLogMap::new(Constellation::qam_gray(4), noise_sigma(12.0, 1.0) as f32);
    let mut llrs = vec![0f32; 4096 * maxlog.bits_per_symbol()];
    perf::measure_melems(4096, || {
        block.copy_from_slice(&rx);
        eq.equalize(black_box(&mut block));
        maxlog.demap_block(&block, &mut llrs);
        black_box(&llrs);
    })
}

/// The float paper demapper with a logit head, freshly initialised.
fn paper_ann() -> NeuralDemapper {
    NeuralDemapper::new(MlpSpec::paper_demapper_logits().build(&mut Xoshiro256pp::seed_from_u64(3)))
}

/// One retrainer step (`core::retrain`) on a fixed batch of 256 QAM-16
/// pilots at σ = 0.3 per dimension. The classes overlap, so the logits
/// stay bounded however long the case trains and every iteration does
/// the same work.
fn train_step_case() -> f64 {
    const BATCH: usize = 256;
    let cfg = SystemConfig::paper_default();
    let qam = Constellation::qam_gray(16);
    let mut rng = Xoshiro256pp::seed_from_u64(29);
    let mut x = Matrix::zeros(BATCH, 2);
    let mut targets = Matrix::zeros(BATCH, 4);
    for r in 0..BATCH {
        let label = (rng.next_u64() % 16) as usize;
        let p = qam.point(label);
        x[(r, 0)] = p.re + 0.3 * rng.normal_f32();
        x[(r, 1)] = p.im + 0.3 * rng.normal_f32();
        for k in 0..4 {
            targets[(r, k)] = f32::from(qam.bit(label, k));
        }
    }
    let mut demapper = paper_ann();
    let model = demapper.model_mut();
    let mut opt = Adam::new(cfg.retrain_lr);
    perf::measure_melems(BATCH as u64, || {
        black_box(model.bce_step(&mut opt, black_box(&x), &targets, false));
    })
}

/// Grid cells per axis of the extraction case (`SystemConfig::grid_n`
/// of the paper configuration).
const EXTRACT_GRID: usize = 192;

/// `extraction::extract` of the paper demapper, trained end to end at
/// the paper configuration, on its grid: M grid cells/s.
fn extract_case() -> f64 {
    let cfg = SystemConfig::paper_default();
    assert_eq!(cfg.grid_n, EXTRACT_GRID, "the case name pins the grid");
    let ecfg = ExtractionConfig::new(cfg.grid_n, cfg.window_scale);
    let mut pipe = HybridPipeline::new(cfg);
    pipe.e2e_train();
    let constellation = pipe.constellation();
    perf::measure_melems((EXTRACT_GRID * EXTRACT_GRID) as u64, || {
        black_box(extract(pipe.ann_demapper(), &ecfg, &constellation));
    })
}

/// A spec of 256-symbol frames on a constant `state`, which the
/// trajectory holds past its one scripted frame.
fn link_spec(state: ChannelState, pilot_symbols: usize) -> OnlineLinkSpec {
    OnlineLinkSpec {
        trajectory: Trajectory::constant("constant", state, 1),
        seed: 31,
        params: LinkParams {
            frame_symbols: 256,
            pilot_symbols,
            ..LinkParams::default()
        },
    }
}

/// One `OnlineLink::step` per iteration: M frames/s.
fn link_step_case(mut link: OnlineLink) -> f64 {
    perf::measure_melems(1, || {
        black_box(link.step());
    })
}

/// A fixed max-log QAM-16 link with 64 pilots on AWGN at the paper's
/// Es/N0.
fn link_step_fixed_case() -> f64 {
    let es_n0_db = SystemConfig::paper_default().es_n0_db();
    let qam = Constellation::qam_gray(16);
    let maxlog = MaxLogMap::new(qam.clone(), noise_sigma(es_n0_db, 1.0) as f32);
    let spec = link_spec(ChannelState::clean(es_n0_db), 64);
    link_step_case(OnlineLink::fixed(spec, qam, Box::new(maxlog)))
}

/// An equalized max-log QPSK link without pilots on the two-ray echo of
/// the equalizer cases at 12 dB.
fn link_step_eq_case() -> f64 {
    let qpsk = Constellation::qam_gray(4);
    let maxlog = MaxLogMap::new(qpsk.clone(), noise_sigma(12.0, 1.0) as f32);
    let state = ChannelState::clean(12.0).with_taps(Taps::two_ray(0.4, 0.35, 1));
    let link = OnlineLink::equalized(
        link_spec(state, 0),
        qpsk,
        Box::new(maxlog),
        EqualizerConfig::default(),
    );
    link_step_case(link)
}

fn cases() -> Vec<Case> {
    let mut cases = vec![
        Case::new("max_log_block_n256", || {
            demap_block_case(&qam16_maxlog(), 256)
        }),
        Case::new("max_log_block_n4096", || {
            demap_block_case(&qam16_maxlog(), 4096)
        }),
        Case::new("max_log_per_symbol_n4096", || max_log_per_symbol_case(4096)),
        Case::new("graph_demap_block_n256", || {
            demap_block_case(&paper_graph(), 256)
        }),
    ];
    // The full worker × batch grid on the conventional kernel; the graph
    // backend (the paper's deployment datapath) at the extreme batch
    // sizes only, to bound the matrix.
    let maxlog: fn() -> Arc<dyn Demapper> = || Arc::new(qam16_maxlog());
    let graph: fn() -> Arc<dyn Demapper> = || Arc::new(paper_graph());
    for (backend, batches, demapper) in [
        ("maxlog", &[1, 16, 256][..], maxlog),
        ("graph", &[1, 256][..], graph),
    ] {
        for t in thread_sweep() {
            for &b in batches {
                let run = move || serve_case(demapper(), t, b);
                cases.push(Case::new(serve_name(backend, t, b), run));
            }
        }
    }
    cases.push(Case::new("eq_blind_block_n4096", eq_blind_case));
    cases.push(Case::new("eq_train_n256", eq_train_case));
    cases.push(Case::new("eq_demap_block_n4096", eq_demap_case));
    cases.push(Case::new("train_step_paper_b256", train_step_case));
    cases.push(Case::new("ann_demap_block_n4096", || {
        demap_block_case(&paper_ann(), 4096)
    }));
    cases.push(Case::new("extract_paper_g192", extract_case));
    cases.push(Case::new(
        "link_step_fixed_qam16_f256",
        link_step_fixed_case,
    ));
    cases.push(Case::new("link_step_eq_qpsk_f256", link_step_eq_case));
    cases
}

/// The two invariants of the module docs, with their margins printed.
fn invariants(median: &dyn Fn(&str) -> f64) {
    let block = median("max_log_block_n4096");
    let per_symbol = median("max_log_per_symbol_n4096");
    println!(
        "max-log block ÷ per-symbol at n=4096: {:.2}× (must be ≥ 1)",
        block / per_symbol
    );
    assert!(
        block >= per_symbol,
        "max-log block demap ({block:.1} Melem/s) lost to the per-symbol \
         loop ({per_symbol:.1} Melem/s) at n=4096"
    );
    for t in thread_sweep() {
        let per_link = median(&serve_name("maxlog", t, 1));
        let batched = median(&serve_name("maxlog", t, 256));
        println!(
            "max-log serving b256 ÷ b1 at t={t}: {:.2}× (must be ≥ 2)",
            batched / per_link
        );
        assert!(
            batched >= 2.0 * per_link,
            "cross-link batching must double max-log serving throughput at \
             {LINKS} links, t={t}: batched {batched:.3} vs per-link {per_link:.3} M frames/s"
        );
    }
}

fn main() {
    perf::main(&cases(), invariants);
}
