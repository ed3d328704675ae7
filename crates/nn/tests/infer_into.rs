//! The batched inference contract behind the block demapper:
//! `Sequential::infer_into` matches row-by-row `infer` to f32 equality,
//! and the scratch-buffer path allocates nothing once warmed.

use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_nn::model::{Activation, InferScratch, MlpSpec};
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

fn random_batch(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut x = Matrix::zeros(rows, cols);
    for v in x.as_mut_slice() {
        *v = rng.normal_f32();
    }
    x
}

#[test]
fn batched_infer_into_matches_row_by_row_infer_exactly() {
    for (seed, spec) in [
        (1u64, MlpSpec::paper_demapper()),
        (2, MlpSpec::paper_demapper_logits()),
        (
            3,
            MlpSpec {
                dims: vec![2, 8, 8, 3],
                hidden: Activation::Sigmoid,
                output: Activation::Sigmoid,
            },
        ),
    ] {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let model = spec.build(&mut rng);
        let x = random_batch(37, model.input_dim(), seed + 100);

        let mut scratch = InferScratch::new();
        let mut batched = Matrix::zeros(0, 0);
        model.infer_into(&x, &mut batched, &mut scratch);
        assert_eq!(batched.shape(), (x.rows(), model.output_dim()));

        for r in 0..x.rows() {
            let row = Matrix::from_vec(1, x.cols(), x.row(r).to_vec());
            let single = model.infer(&row);
            for (k, (&b, &s)) in batched.row(r).iter().zip(single.row(0)).enumerate() {
                assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "row {r} col {k}: batched {b} vs single {s}"
                );
            }
        }
    }
}

#[test]
fn infer_into_allocates_nothing_after_warmup() {
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let model = MlpSpec::paper_demapper_logits().build(&mut rng);
    let x = random_batch(256, 2, 10);

    let mut scratch = InferScratch::new();
    let mut out = Matrix::zeros(0, 0);
    // Warm-up: buffers grow to their high-water mark.
    model.infer_into(&x, &mut out, &mut scratch);

    let before = allocations();
    for _ in 0..10 {
        model.infer_into(&x, &mut out, &mut scratch);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm infer_into must not allocate ({} allocations in 10 passes)",
        after - before
    );

    // Smaller batches reuse the warm buffers too.
    let small = random_batch(16, 2, 11);
    model.infer_into(&small, &mut out, &mut scratch);
    let before = allocations();
    model.infer_into(&small, &mut out, &mut scratch);
    assert_eq!(allocations() - before, 0, "shrunk batch must not allocate");
}
