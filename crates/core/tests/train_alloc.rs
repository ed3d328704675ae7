//! No-alloc contract of the training step (DESIGN.md §11.2): once the
//! training tape is warm at a batch size, the paper demapper's float
//! step allocates nothing — forward, the BCE gradient, backward with
//! and without ∂L/∂input, and Adam — and `Retrainer::run` and
//! `HybridPipeline::e2e_train` set their batch buffers up once, so each
//! allocates the same at 10 steps as at 200.

use hybridem_comm::channel::ChannelChain;
use hybridem_comm::constellation::Constellation;
use hybridem_core::config::SystemConfig;
use hybridem_core::demapper_ann::NeuralDemapper;
use hybridem_core::retrain::Retrainer;
use hybridem_core::HybridPipeline;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_nn::loss::bce_with_logits_grad;
use hybridem_nn::model::MlpSpec;
use hybridem_nn::{Adam, Sequential};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation counter (same rig as
/// `server_alloc.rs`): counting thread-locally isolates the measured
/// region from the test harness and from other tests.
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

const BATCH: usize = 256;

/// Every form of the step on one batch: the primitives with and
/// without the input gradient, then the shared `bce_step` with and
/// without its loss.
fn train_steps(
    model: &mut Sequential,
    opt: &mut Adam,
    x: &Matrix<f32>,
    t: &Matrix<f32>,
    grad: &mut Matrix<f32>,
) {
    model.zero_grad();
    bce_with_logits_grad(model.forward(x), t, grad);
    model.backward(grad);
    assert_eq!(model.backward_input(grad).shape(), (BATCH, 2));
    opt.step(&mut model.params_mut());
    assert!(model.bce_step(opt, x, t, true).is_some());
    assert!(model.bce_step(opt, x, t, false).is_none());
}

#[test]
fn warm_training_step_allocates_nothing() {
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let mut model = MlpSpec::paper_demapper_logits().build(&mut rng);
    let mut x = Matrix::zeros(BATCH, 2);
    let mut t = Matrix::zeros(BATCH, 4);
    for v in x.as_mut_slice() {
        *v = rng.normal_f32();
    }
    for v in t.as_mut_slice() {
        *v = (rng.next_u64() & 1) as f32;
    }
    let mut opt = Adam::new(5e-3);
    let mut grad = Matrix::zeros(0, 0);
    // Warm-up: the tape, the gradient buffers and Adam's moments grow
    // to their high-water mark.
    train_steps(&mut model, &mut opt, &x, &t, &mut grad);

    let before = allocations();
    for _ in 0..5 {
        train_steps(&mut model, &mut opt, &x, &t, &mut grad);
    }
    let n = allocations() - before;
    assert_eq!(
        n, 0,
        "a warm training step allocated ({n} allocations in 5 rounds)"
    );
}

/// Allocations of one hardware-accounted `Retrainer::run` of `steps`
/// steps on a fresh paper demapper.
fn retrain_allocations(steps: usize) -> u64 {
    let mut cfg = SystemConfig::fast_test();
    cfg.batch_size = BATCH;
    cfg.retrain_steps = steps;
    let mut rng = Xoshiro256pp::seed_from_u64(6);
    let mut demapper = NeuralDemapper::new(cfg.demapper.build(&mut rng));
    let qam = Constellation::qam_gray(16);
    let mut channel = ChannelChain::phase_then_awgn(0.3, cfg.es_n0_db());
    let mut retrainer = Retrainer::new(&cfg).with_hardware_accounting();
    let before = allocations();
    let report = retrainer.run(&qam, &mut channel, &mut demapper);
    let n = allocations() - before;
    assert_eq!(report.steps, steps);
    assert!(report.initial_loss.is_finite() && report.final_loss.is_finite());
    n
}

#[test]
fn retrainer_allocations_do_not_grow_with_steps() {
    let (short, long) = (retrain_allocations(10), retrain_allocations(200));
    assert_eq!(
        short, long,
        "Retrainer::run allocated {short} times at 10 steps and {long} at 200"
    );
}

/// Allocations of `HybridPipeline::e2e_train` at `steps` steps, from a
/// fresh pipeline.
fn e2e_allocations(steps: usize) -> u64 {
    let mut cfg = SystemConfig::fast_test();
    cfg.batch_size = BATCH;
    cfg.e2e_steps = steps;
    let mut pipe = HybridPipeline::new(cfg);
    let before = allocations();
    let loss = pipe.e2e_train();
    let n = allocations() - before;
    assert!(loss.is_finite());
    n
}

#[test]
fn e2e_allocations_do_not_grow_with_steps() {
    let (short, long) = (e2e_allocations(10), e2e_allocations(200));
    assert_eq!(
        short, long,
        "HybridPipeline::e2e_train allocated {short} times at 10 steps and {long} at 200"
    );
}
