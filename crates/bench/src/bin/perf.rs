//! Perf-regression gate: times the SIMD hot kernels at pinned shapes
//! and appends to the committed `BENCH_*.json` trajectories
//! (DESIGN.md §11.4).
//!
//! Cases (elements = symbols):
//!
//! - `BENCH_mvau.json` — the MVAU block datapath, 16×16 W8 Q(8,6)
//!   ReLU, at n=256 (the tracked headline number) and n=4096.
//! - `BENCH_demap.json` — the max-log point-outer kernel (QAM-16,
//!   σ=0.2) at n=256 and n=4096 against its per-symbol reference, and
//!   the compiled paper-demapper `QuantizedGraph` block demap at
//!   n=256.
//!
//! Invariant pinned here (not just recorded): block max-log demap
//! must never lose to the per-symbol loop — the regression a per-tile
//! allocation once caused on long cold streams.
//!
//! Exit is non-zero when any case regresses more than 15% against the
//! last committed entry, unless `HYBRIDEM_BENCH_MS` selects the smoke
//! budget (schema + append validation only; artefacts go to the
//! results dir). A failing run leaves the committed trajectories as
//! they were and writes its updated ones to the results dir.

use hybridem_bench::perf;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, MaxLogMap};
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_fpga::graph::compile;
use hybridem_fpga::mvau::{HwActivation, Mvau, MvauConfig, MvauScratch};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_mathkit::simd::LaneWidth;
use hybridem_nn::model::MlpSpec;
use std::hint::black_box;

/// The pinned MVAU shape: 16×16 dense, W8 weights/activations (Q8.6),
/// ReLU — the headline kernel of the issue's 17.6 Melem/s baseline.
fn pinned_mvau() -> Mvau {
    let fmt = QFormat::signed(8, 6);
    let cfg = MvauConfig::full_parallel(16, 16, fmt, fmt, fmt, false);
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let mut w = Matrix::zeros(16, 16);
    for v in w.as_mut_slice() {
        *v = rng.normal_f32() * 0.3;
    }
    let mut b = Matrix::zeros(1, 16);
    for v in b.as_mut_slice() {
        *v = rng.normal_f32() * 0.1;
    }
    Mvau::from_dense(cfg, &w, &b, HwActivation::Relu)
}

fn mvau_case(mvau: &Mvau, n: usize) -> f64 {
    let fmt = QFormat::signed(8, 6);
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let inputs: Vec<i64> = (0..n * 16)
        .map(|_| fmt.raw_from_f64(rng.normal_f64() * 0.4, Rounding::Nearest))
        .collect();
    let mut out = vec![0i64; n * 16];
    let mut scratch = MvauScratch::new();
    perf::measure_melems(n as u64, || {
        mvau.process_block_into(black_box(&inputs), &mut out, &mut scratch);
        black_box(&out);
    })
}

fn main() {
    hybridem_bench::banner(
        "perf — SIMD kernel trajectories + regression gate",
        "DESIGN.md §11.4 (infra; tracks the ISSUE 6 ≥3× MVAU target)",
    );
    println!(
        "budget {} ms/case · lanes ×{} · rev {}\n",
        perf::bench_budget_ms(),
        LaneWidth::detect().lanes(),
        perf::git_rev()
    );

    // ---- MVAU block datapath -------------------------------------
    let mvau = pinned_mvau();
    assert!(
        mvau.has_fast_path(),
        "pinned shape must take the i32 fast path"
    );
    let mvau_results = vec![
        ("mvau_block_n256_w8".to_string(), mvau_case(&mvau, 256)),
        ("mvau_block_n4096_w8".to_string(), mvau_case(&mvau, 4096)),
    ];

    // ---- max-log demapper + compiled graph -----------------------
    let maxlog = MaxLogMap::new(Constellation::qam_gray(16), 0.2);
    let mut rng = Xoshiro256pp::seed_from_u64(23);
    let ys: Vec<C32> = (0..4096)
        .map(|_| C32::new(rng.normal_f32() * 0.7, rng.normal_f32() * 0.7))
        .collect();
    let mut llrs = vec![0f32; 4096 * 4];
    let mut maxlog_block = |n: usize| {
        let (ys, llrs) = (&ys[..n], &mut llrs[..n * 4]);
        perf::measure_melems(n as u64, || {
            maxlog.demap_block(black_box(ys), llrs);
            black_box(&llrs);
        })
    };
    let block_256 = maxlog_block(256);
    let block_4096 = maxlog_block(4096);
    let per_symbol_4096 = perf::measure_melems(4096, || {
        for (y, chunk) in ys.iter().zip(llrs.chunks_exact_mut(4)) {
            maxlog.llrs(black_box(*y), chunk);
        }
        black_box(&llrs);
    });

    let model = MlpSpec::paper_demapper().build(&mut Xoshiro256pp::seed_from_u64(3));
    let q = |fmt: QFormat| QuantSpec {
        format: fmt,
        rounding: Rounding::Nearest,
    };
    let graph = compile(
        &model,
        &[
            q(QFormat::signed(8, 5)),
            q(QFormat::signed(8, 4)),
            q(QFormat::signed(8, 4)),
            q(QFormat::unsigned(8, 8)),
        ],
    );
    let graph_256 = {
        let (ys, llrs) = (&ys[..256], &mut llrs[..256 * 4]);
        perf::measure_melems(256, || {
            graph.demap_block(black_box(ys), llrs);
            black_box(&llrs);
        })
    };
    let demap_results = vec![
        ("max_log_block_n256".to_string(), block_256),
        ("max_log_block_n4096".to_string(), block_4096),
        ("max_log_per_symbol_n4096".to_string(), per_symbol_4096),
        ("graph_demap_block_n256".to_string(), graph_256),
    ];

    println!("| case | median Melem/s |");
    println!("|---|---|");
    for (k, v) in mvau_results.iter().chain(&demap_results) {
        println!("| {k} | {v:.1} |");
    }

    // Satellite invariant: the block path never loses to per-symbol,
    // at any length. Smoke budgets are too noisy to judge it.
    if !perf::smoke_mode() {
        assert!(
            block_4096 >= per_symbol_4096,
            "max-log block demap ({block_4096:.1} Melem/s) lost to the \
             per-symbol loop ({per_symbol_4096:.1} Melem/s) at n=4096"
        );
    }

    perf::gate(
        "perf",
        "Melem/s",
        &[("mvau", &mvau_results), ("demap", &demap_results)],
    );
}
