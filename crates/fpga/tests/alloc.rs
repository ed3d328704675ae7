//! No-alloc-after-warm-up contract of the fpga crate's integer hot
//! paths (the fpga-side extension of the nn crate's allocator test):
//! the scratch-based block kernels and the legacy per-symbol entry
//! points they back must allocate nothing once their buffers are warm.

use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::Demapper;
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_fpga::demapper_accel::{SoftDemapperAccel, SoftDemapperConfig};
use hybridem_fpga::graph::{compile, GraphScratch};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_nn::model::MlpSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation counter: integration
/// tests run on their own threads, so counting thread-locally isolates
/// the measured region from the harness and from other tests.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn samples(n: usize, seed: u64) -> Vec<C32> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| C32::new(rng.normal_f32() * 0.7, rng.normal_f32() * 0.7))
        .collect()
}

#[test]
fn accel_block_and_per_symbol_paths_allocate_nothing_when_warm() {
    let qam = Constellation::qam_gray(16);
    let accel = SoftDemapperAccel::new(SoftDemapperConfig::paper_default(), qam.points(), 0.2);
    let ys = samples(512, 1);
    let mut out = vec![0f32; ys.len() * 4];
    // Warm-up: thread-local tile/raw scratch grows to its high-water mark.
    accel.demap_block(&ys, &mut out);

    let before = allocations();
    for _ in 0..10 {
        accel.demap_block(&ys, &mut out);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm accel demap_block must not allocate"
    );

    // The per-symbol view is a one-symbol `demap_block`, so it stages
    // through the same warm thread-local block scratch.
    let mut single = [0f32; 4];
    let before = allocations();
    for &y in &ys {
        accel.llrs(y, &mut single);
    }
    assert_eq!(
        allocations() - before,
        0,
        "per-symbol accel demapping must not allocate"
    );
}

#[test]
fn quantized_graph_block_pipeline_allocates_nothing_when_warm() {
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let model = MlpSpec::paper_demapper_logits().build(&mut rng);
    let q = |t: u32, f: u32| QuantSpec {
        format: QFormat::signed(t, f),
        rounding: Rounding::Nearest,
    };
    let graph = compile(&model, &[q(8, 5), q(8, 6), q(8, 6), q(10, 5)]);
    let ys = samples(512, 3);

    // Explicit-scratch integer path.
    let mut scratch = GraphScratch::new();
    let mut raw = Vec::new();
    graph.process_block_raw(&ys, &mut raw, &mut scratch);
    let before = allocations();
    for _ in 0..10 {
        graph.process_block_raw(&ys, &mut raw, &mut scratch);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm process_block_raw must not allocate"
    );

    // Receiver-facing Demapper path (thread-local scratch).
    let mut out = vec![0f32; ys.len() * 4];
    graph.demap_block(&ys, &mut out);
    let mut single = [0f32; 4];
    graph.llrs(ys[0], &mut single);
    let before = allocations();
    for _ in 0..10 {
        graph.demap_block(&ys, &mut out);
    }
    for &y in &ys[..64] {
        graph.llrs(y, &mut single);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm graph demapping must not allocate"
    );

    // Shrunk blocks reuse the warm buffers too.
    let small = &ys[..16];
    let mut small_out = vec![0f32; small.len() * 4];
    graph.demap_block(small, &mut small_out);
    let before = allocations();
    graph.demap_block(small, &mut small_out);
    assert_eq!(allocations() - before, 0, "shrunk block must not allocate");
}

#[test]
fn mvau_per_symbol_pass_allocates_nothing() {
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let model = MlpSpec::paper_demapper_logits().build(&mut rng);
    let q = |t: u32, f: u32| QuantSpec {
        format: QFormat::signed(t, f),
        rounding: Rounding::Nearest,
    };
    let graph = compile(&model, &[q(8, 5), q(8, 6), q(8, 6), q(10, 5)]);
    let mvau = &graph.mvaus()[1];
    let inputs: Vec<i64> = (0..64 * 16).map(|i| ((i * 13) % 127) as i64 - 63).collect();
    let mut single = [0i64; 16];
    let before = allocations();
    for sym in inputs.chunks_exact(16) {
        mvau.process_into(sym, &mut single);
    }
    assert_eq!(allocations() - before, 0, "process_into must not allocate");
}
