//! Serving-fabric saturation curves + regression gate: drives a
//! 1024-link [`LinkServer`] fleet through full submit→serve rounds and
//! appends to the committed `BENCH_linkserver.json` trajectory
//! (DESIGN.md §12.5).
//!
//! Cases (elements = frames, so medians read as M frames/s): a
//! noiseless QAM-16 fleet of 1024 sessions, 8 symbols/frame, served
//! at worker counts {1, 2, 4, N} × batch sizes {1, 16, 256} with the
//! max-log backend, plus the compiled paper-demapper
//! [`QuantizedGraph`](hybridem_fpga::graph::compile) backend at the
//! extreme batch sizes. The channel is noiseless and the frames are
//! short so demapping dominates each round — the regime the cross-link
//! gather/scatter path exists for: the max-log tile kernel cannot fill
//! its SIMD lanes from one short frame (≈2 Msym/s at 8 symbols vs
//! ≈55 Msym/s at 256 on ×8 lanes), so fusing frames across links into
//! one `demap_block` call is worth a large factor. The graph backend's
//! MVAU datapath is symbol-sequential (SIMD spans neurons, not
//! symbols), so its curves record the smaller call-overhead
//! amortisation — both shapes belong in the trajectory.
//!
//! Invariant pinned here (not just recorded): cross-link batching at
//! `batch_links = 256` must at least **double** frames/s over per-link
//! `demap_block` calls (`batch_links = 1`, where every call gathers a
//! single frame through the same round) on the max-log backend at
//! every measured worker count.
//!
//! Exit is non-zero when any case regresses more than 15% against the
//! last committed entry, unless `HYBRIDEM_BENCH_MS` selects the smoke
//! budget (schema + append validation only; artefacts go to the
//! results dir). A failing run leaves the committed trajectory as it
//! was and writes its updated one to the results dir.

use hybridem_bench::perf;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, MaxLogMap};
use hybridem_comm::trajectory::{ChannelState, Trajectory};
use hybridem_core::server::{LinkServer, ServerCfg, SessionCfg};
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_fpga::graph::compile;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_nn::model::MlpSpec;
use std::sync::Arc;

/// Fleet size: the issue's many-link regime.
const LINKS: u64 = 1024;
/// Symbols per frame: short frames are the serving regime batching
/// exists for — one frame cannot fill the max-log kernel's SIMD lanes.
const FRAME_SYMBOLS: usize = 8;

/// The two serving backends under test.
#[derive(Clone, Copy, PartialEq)]
enum Backend {
    MaxLog,
    Graph,
}

impl Backend {
    fn demapper(self) -> Arc<dyn Demapper> {
        let qam = Constellation::qam_gray(16);
        match self {
            Backend::MaxLog => Arc::new(MaxLogMap::new(qam, 0.2)),
            Backend::Graph => {
                let model = MlpSpec::paper_demapper().build(&mut Xoshiro256pp::seed_from_u64(3));
                let q = |fmt: QFormat| QuantSpec {
                    format: fmt,
                    rounding: Rounding::Nearest,
                };
                Arc::new(compile(
                    &model,
                    &[
                        q(QFormat::signed(8, 5)),
                        q(QFormat::signed(8, 4)),
                        q(QFormat::signed(8, 4)),
                        q(QFormat::unsigned(8, 8)),
                    ],
                ))
            }
        }
    }

    fn name(self) -> &'static str {
        match self {
            Backend::MaxLog => "maxlog",
            Backend::Graph => "graph",
        }
    }
}

/// Times one configuration: a full submit-one-frame-per-link +
/// serve-to-drain round is one iteration, so the median is in
/// M frames/s across the whole fleet.
fn serve_case(backend: Backend, workers: usize, batch_links: usize) -> f64 {
    let qam = Constellation::qam_gray(16);
    let mut server = LinkServer::new(ServerCfg {
        workers,
        queue_cap: 4,
        batch_links,
    });
    let be = server.register_backend(qam, backend.demapper());
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

fn main() {
    hybridem_bench::banner(
        "linkserver — many-link serving saturation + regression gate",
        "DESIGN.md §12.5 (tracks the ISSUE 7 ≥2× cross-link batching target)",
    );
    let max_threads = hybridem_parallel::num_threads();
    println!(
        "budget {} ms/case · {} links × {} sym frames · max threads {} · rev {}\n",
        perf::bench_budget_ms(),
        LINKS,
        FRAME_SYMBOLS,
        max_threads,
        perf::git_rev()
    );

    let mut thread_sweep = vec![1usize, 2, 4, max_threads];
    thread_sweep.sort_unstable();
    thread_sweep.dedup();
    let batch_sweep = [1usize, 16, 256];

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |backend: Backend, t: usize, b: usize| -> f64 {
        let melems = serve_case(backend, t, b);
        let name = format!("serve_{}_l{LINKS}_t{t}_b{b}", backend.name());
        println!("  {name}: {melems:.3} M frames/s");
        results.push((name, melems));
        melems
    };

    // Full worker × batch sweep on the conventional kernel; the graph
    // backend (the paper's deployment datapath) at the extreme batch
    // sizes only, to bound the matrix.
    let mut maxlog_pairs = Vec::new();
    for &t in &thread_sweep {
        let mut by_batch = Vec::new();
        for &b in &batch_sweep {
            by_batch.push(record(Backend::MaxLog, t, b));
        }
        maxlog_pairs.push((t, by_batch[0], by_batch[batch_sweep.len() - 1]));
    }
    for &t in &thread_sweep {
        record(Backend::Graph, t, 1);
        record(Backend::Graph, t, 256);
    }

    println!("\n| case | median M frames/s |");
    println!("|---|---|");
    for (k, v) in &results {
        println!("| {k} | {v:.3} |");
    }

    // Tentpole invariant: cross-link batching doubles max-log serving
    // throughput at 1024 links. Smoke budgets are too noisy to judge
    // it.
    if !perf::smoke_mode() {
        for (t, unbatched, batched) in &maxlog_pairs {
            assert!(
                batched >= &(2.0 * unbatched),
                "cross-link batching must double max-log serving throughput at \
                 {LINKS} links, t={t}: batched {batched:.3} vs per-link {unbatched:.3} M frames/s"
            );
        }
    }

    perf::gate("linkserver perf", "M frames/s", &[("linkserver", &results)]);
}
