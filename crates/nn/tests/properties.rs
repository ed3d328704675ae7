//! Property-based tests of the neural-network library: gradient
//! correctness over random topologies, optimiser behaviour,
//! serialisation stability, the dense lane kernels' bit-identity with
//! their textbook loops at every SIMD width, and whole training steps'
//! bit-identity with a plain-loop reference trainer.

use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_mathkit::simd::LaneWidth;
use hybridem_mathkit::special::sigmoid_f32;
use hybridem_nn::grad_check::{check_input_grads, check_model_grads};
use hybridem_nn::kernels;
use hybridem_nn::loss::{bce, bce_with_logits, bce_with_logits_grad};
use hybridem_nn::model::{insert_fake_quant, Activation, LayerSnapshot, MlpSpec};
use hybridem_nn::{Adam, Sequential};
use proptest::prelude::*;

fn random_batch(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.normal_f32() * 0.6;
    }
    m
}

fn binary_targets(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    random_batch(rows, cols, seed).map(|v| f32::from(v > 0.0))
}

/// [`bce_with_logits`] as a `(loss, grad)` pair.
fn bce_pair(z: &Matrix<f32>, t: &Matrix<f32>) -> (f32, Matrix<f32>) {
    let mut grad = Matrix::zeros(0, 0);
    (bce_with_logits(z, t, &mut grad), grad)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn gradients_correct_for_random_topologies(
        hidden in 2usize..12,
        depth in 1usize..3,
        act in 0usize..2,
        seed in 0u64..1000,
    ) {
        let hidden_act = [Activation::Relu, Activation::Sigmoid][act];
        let mut dims = vec![2usize];
        for _ in 0..depth {
            dims.push(hidden);
        }
        dims.push(3);
        let spec = MlpSpec {
            dims,
            hidden: hidden_act,
            output: Activation::Linear,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut model = spec.build(&mut rng);
        let x = random_batch(4, 2, seed + 1);
        let t = binary_targets(4, 3, seed + 2);
        let report = check_model_grads(&mut model, &x, |z| bce_pair(z, &t), 1e-3);
        // ReLU topologies: an activation can sit near its kink, where
        // f32 central differences straddle the non-differentiable point;
        // allow a wider envelope there (a real gradient bug shows up as
        // errors of order 1).
        let tol = if hidden_act == Activation::Relu { 0.12 } else { 5e-2 };
        prop_assert!(report.max_rel_error < tol,
            "rel err {} for seed {}", report.max_rel_error, seed);
    }

    #[test]
    fn input_gradients_correct(seed in 0u64..1000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut model = MlpSpec::paper_demapper_logits().build(&mut rng);
        let x = random_batch(3, 2, seed + 10);
        let t = binary_targets(3, 4, seed + 11);
        let report = check_input_grads(&mut model, &x, |z| bce_pair(z, &t), 1e-3);
        prop_assert!(report.max_rel_error < 5e-2, "rel err {}", report.max_rel_error);
    }

    #[test]
    fn loss_gradients_match_numeric(seed in 0u64..500, on_logits in any::<bool>()) {
        // Direct central-difference check of each loss's own gradient:
        // the fused form at logits, the probability form at their
        // sigmoids.
        let logits = random_batch(2, 4, seed);
        let t = binary_targets(2, 4, seed + 1);
        let z = if on_logits { logits } else { logits.map(sigmoid_f32) };
        let f = |z: &Matrix<f32>| -> (f32, Matrix<f32>) {
            if on_logits {
                bce_pair(z, &t)
            } else {
                bce(z, &t)
            }
        };
        let (_, g) = f(&z);
        let eps = 1e-3f32;
        for k in 0..z.len() {
            let mut zp = z.clone();
            zp.as_mut_slice()[k] += eps;
            let mut zm = z.clone();
            zm.as_mut_slice()[k] -= eps;
            let (lp, _) = f(&zp);
            let (lm, _) = f(&zm);
            let num = (lp - lm) / (2.0 * eps);
            let ana = g.as_slice()[k];
            prop_assert!((num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                "coord {}: numeric {} vs analytic {}", k, num, ana);
        }
    }

    #[test]
    fn bce_forms_agree(seed in 0u64..500) {
        let z = random_batch(3, 4, seed);
        let t = binary_targets(3, 4, seed + 1);
        let p = z.map(hybridem_mathkit::special::sigmoid_f32);
        let (l1, _) = bce(&p, &t);
        let (l2, _) = bce_pair(&z, &t);
        prop_assert!((l1 - l2).abs() < 1e-4, "{l1} vs {l2}");
    }

    #[test]
    fn snapshot_round_trip_bit_exact(seed in any::<u64>(), rows in 1usize..6) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut model = MlpSpec::paper_demapper().build(&mut rng);
        let x = random_batch(rows, 2, seed ^ 0xABCD);
        let y1 = model.forward(&x).clone();
        let json = model.to_json();
        let restored = Sequential::from_json(&json).unwrap();
        let y2 = restored.infer(&x);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn forward_and_infer_agree(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut model = MlpSpec::paper_demapper().build(&mut rng);
        let x = random_batch(5, 2, seed ^ 0x1234);
        let a = model.forward(&x).clone();
        let b = model.infer(&x);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn gradient_step_reduces_loss_on_small_problems(seed in 0u64..200) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let spec = MlpSpec {
            dims: vec![2, 6, 2],
            hidden: Activation::Relu,
            output: Activation::Linear,
        };
        let mut model = spec.build(&mut rng);
        let x = random_batch(8, 2, seed + 5);
        let t = binary_targets(8, 2, seed + 6);
        let mut opt = Adam::new(0.01);
        let (first, _) = bce_pair(&model.infer(&x), &t);
        for _ in 0..50 {
            model.bce_step(&mut opt, &x, &t, false);
        }
        let (last, _) = bce_pair(&model.infer(&x), &t);
        prop_assert!(last < first + 1e-6, "loss should not increase: {first} → {last}");
    }
}

/// A `rows × cols` batch in which about a quarter of the values are +0
/// (ReLU zeros), an eighth are −0 and the rest are normal draws.
fn batch_with_zeros(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Matrix<f32> {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = match rng.next_u64() % 8 {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => rng.normal_f32(),
        };
    }
    m
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Checks each dense kernel against its textbook scalar loop, bit for
/// bit, at every width this host runs: products from +0 in ascending
/// inner index with the bias added last, gradients from +0 in ascending
/// batch row, then added to the accumulated gradient.
fn check_dense_kernels(in_dim: usize, out_dim: usize, rows: usize, rng: &mut Xoshiro256pp) {
    let w = batch_with_zeros(out_dim, in_dim, rng);
    let b = batch_with_zeros(1, out_dim, rng);
    let dw0 = batch_with_zeros(out_dim, in_dim, rng);
    let db0 = batch_with_zeros(1, out_dim, rng);
    let x = batch_with_zeros(rows, in_dim, rng);
    let g = batch_with_zeros(rows, out_dim, rng);
    let (mut y, mut dx) = (Matrix::zeros(rows, out_dim), Matrix::zeros(rows, in_dim));
    let (mut dw, mut db) = (dw0.clone(), db0.clone());
    for i in 0..rows {
        for j in 0..out_dim {
            let mut acc = 0.0f32;
            for k in 0..in_dim {
                acc += x[(i, k)] * w[(j, k)];
            }
            y[(i, j)] = acc + b[(0, j)];
        }
        for k in 0..in_dim {
            let mut acc = 0.0f32;
            for j in 0..out_dim {
                acc += g[(i, j)] * w[(j, k)];
            }
            dx[(i, k)] = acc;
        }
    }
    for j in 0..out_dim {
        for k in 0..in_dim {
            let mut acc = 0.0f32;
            for r in 0..rows {
                acc += g[(r, j)] * x[(r, k)];
            }
            dw[(j, k)] += acc;
        }
        let mut acc = 0.0f32;
        for r in 0..rows {
            acc += g[(r, j)];
        }
        db[(0, j)] += acc;
    }
    for width in LaneWidth::supported() {
        let what = |k: &str| format!("{k} {in_dim}->{out_dim} batch {rows} {width:?}");
        let mut got = Matrix::zeros(0, 0);
        kernels::affine_into_at(width, &x, &w, b.as_slice(), &mut got);
        assert_bits_eq(got.as_slice(), y.as_slice(), &what("affine"));
        kernels::input_grad_into_at(width, &g, &w, &mut got);
        assert_bits_eq(got.as_slice(), dx.as_slice(), &what("input grad"));
        let mut got = dw0.clone();
        kernels::add_weight_grad_at(width, &g, &x, &mut got);
        assert_bits_eq(got.as_slice(), dw.as_slice(), &what("weight grad"));
        let mut got = db0.clone();
        kernels::add_bias_grad_at(width, &g, got.as_mut_slice());
        assert_bits_eq(got.as_slice(), db.as_slice(), &what("bias grad"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every pair of layer widths — pure remainders, whole lane blocks
    /// at every width and their edges, an inner dimension deeper than
    /// one 16-deep weight panel — at the short batches (empty, one row,
    /// a row block plus a remainder). The training batch and its edges
    /// run every width against a width of 1, on either side, and the
    /// paper demapper's three layer shapes. (A debug build spends about
    /// 0.1 µs per kernel multiply-add, which bounds the sweep.)
    #[test]
    fn dense_kernels_match_textbook_loops_at_every_width(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let widths = [1, 2, 4, 15, 16, 17, 33];
        for in_dim in widths {
            for out_dim in widths {
                for rows in [0, 1, 7] {
                    check_dense_kernels(in_dim, out_dim, rows, &mut rng);
                }
            }
        }
        let long = widths.iter().flat_map(|&w| [(w, 1), (1, w)]);
        for (in_dim, out_dim) in long.chain([(2, 16), (16, 16), (16, 4)]) {
            for rows in [255, 256, 257] {
                check_dense_kernels(in_dim, out_dim, rows, &mut rng);
            }
        }
    }
}

/// The shared-exponential `bce_with_logits` against the form that
/// evaluates `e^{−|z|}` for the softplus and `sigmoid_f32` for the
/// gradient: the loss and every gradient bit agree, and a NaN logit
/// gives a NaN gradient either way. `bce_with_logits_grad` writes the
/// same gradient bits.
#[test]
fn bce_with_logits_shares_one_exp_bit_exactly() {
    let zs = [
        0.0f32,
        -0.0,
        1e-30,
        -1e-30,
        88.0,
        -88.0,
        500.0,
        -500.0,
        f32::NAN,
    ];
    for t in [0.0f32, 1.0] {
        let z = Matrix::from_vec(1, zs.len(), zs.to_vec());
        let target = Matrix::full(1, zs.len(), t);
        let (loss, grad) = bce_pair(&z, &target);
        // The gradient-only form writes the same bits.
        let mut grad_only = Matrix::full(3, 3, 7.0);
        bce_with_logits_grad(&z, &target, &mut grad_only);
        assert_eq!(grad_only.shape(), grad.shape());
        for (a, b) in grad_only.as_slice().iter().zip(grad.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "t {t}: gradient-only {a} vs {b}");
        }
        let n = zs.len() as f32;
        let mut want_loss = 0.0f64;
        for (&z, &g) in zs.iter().zip(grad.as_slice()) {
            want_loss += (z.max(0.0) - t * z + (1.0 + (-z.abs()).exp()).ln()) as f64;
            let want = (sigmoid_f32(z) - t) / n;
            if z.is_nan() {
                assert!(g.is_nan(), "NaN logit gave gradient {g}");
            } else {
                assert_eq!(g.to_bits(), want.to_bits(), "z {z} t {t}: {g} vs {want}");
            }
        }
        let want_loss = (want_loss / n as f64) as f32;
        assert!(
            loss.is_nan() && want_loss.is_nan(),
            "a NaN logit makes the mean loss NaN"
        );
        // Without the NaN logit, the losses agree bit for bit.
        let finite = Matrix::from_vec(1, zs.len() - 1, zs[..zs.len() - 1].to_vec());
        let (loss, _) = bce_pair(&finite, &Matrix::full(1, zs.len() - 1, t));
        let mut want = 0.0f64;
        for &z in &zs[..zs.len() - 1] {
            want += (z.max(0.0) - t * z + (1.0 + (-z.abs()).exp()).ln()) as f64;
        }
        let want = (want / (zs.len() - 1) as f64) as f32;
        assert_eq!(
            loss.to_bits(),
            want.to_bits(),
            "t {t}: loss {loss} vs {want}"
        );
    }
}

/// A snapshot whose dense shapes disagree with the running width is a
/// decode error, not a panic at construction or on first use.
#[test]
fn from_json_rejects_inconsistent_dense_shapes() {
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let json = MlpSpec::paper_demapper_logits().build(&mut rng).to_json();
    assert!(Sequential::from_json(&json).is_ok());
    // The first layer's 16-long bias is the first `"cols":16` after
    // `"bias"`; its weight is 16x2 and its input 2 wide.
    let bias_at = json.find("\"bias\"").expect("a dense bias");
    let short_bias = format!(
        "{}{}",
        &json[..bias_at],
        json[bias_at..]
            .replacen("\"cols\":16", "\"cols\":15", 1)
            .replacen(",0.0]", "]", 1)
    );
    let wide_input = json.replacen("\"input_dim\":2", "\"input_dim\":3", 1);
    // The middle layer's weight: 16x16 becomes 8x32 with the same data.
    let second = json
        .find("\"rows\":16,\"cols\":16")
        .expect("a 16x16 weight");
    let bad_width = format!(
        "{}{}",
        &json[..second],
        json[second..].replacen("\"rows\":16,\"cols\":16", "\"rows\":8,\"cols\":32", 1)
    );
    for (text, reason) in [
        (short_bias, "layer 0: dense bias is 1x15, not 1x16"),
        (
            wide_input,
            "layer 0: dense weight is 16x2 but its input is 3 wide",
        ),
        (
            bad_width,
            "layer 2: dense weight is 8x32 but its input is 16 wide",
        ),
    ] {
        match Sequential::from_json(&text) {
            Ok(_) => panic!("a corrupt snapshot decoded ({reason})"),
            Err(e) => assert!(e.to_string().ends_with(reason), "{e}, expected {reason}"),
        }
    }
}

/// One layer of [`Reference`], with its own parameter gradients.
enum RefLayer {
    Dense {
        w: Matrix<f32>,
        b: Matrix<f32>,
        dw: Matrix<f32>,
        db: Matrix<f32>,
    },
    Relu,
    Sigmoid,
    FakeQuant(QuantSpec),
}

/// A plain-loop trainer of a model's stack in DESIGN.md §11.2's
/// textbook orders: a dense product from +0 over the inner index
/// ascending with the bias added last, a gradient from +0 over batch
/// rows ascending and then added to the zeroed accumulator; element-wise
/// activations and their derivatives from the forward's values; the
/// BCE-with-logits gradient `(σ(z) − t)/N`; then Adam.
struct Reference {
    layers: Vec<RefLayer>,
    lr: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Reference {
    fn new(model: &Sequential, lr: f32) -> Self {
        let layers = model
            .snapshot()
            .layers
            .into_iter()
            .map(|l| match l {
                LayerSnapshot::Dense { weight, bias } => RefLayer::Dense {
                    dw: Matrix::zeros(weight.rows(), weight.cols()),
                    db: Matrix::zeros(1, bias.cols()),
                    w: weight,
                    b: bias,
                },
                LayerSnapshot::Relu => RefLayer::Relu,
                LayerSnapshot::Sigmoid => RefLayer::Sigmoid,
                LayerSnapshot::FakeQuant { spec } => RefLayer::FakeQuant(spec),
            })
            .collect();
        Self {
            layers,
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The batch input, then every layer's output.
    fn forward(&self, x: &Matrix<f32>) -> Vec<Matrix<f32>> {
        let mut acts = vec![x.clone()];
        for layer in &self.layers {
            let a = &acts[acts.len() - 1];
            let y = match layer {
                RefLayer::Dense { w, b, .. } => {
                    let mut y = Matrix::zeros(a.rows(), w.rows());
                    for i in 0..a.rows() {
                        for j in 0..w.rows() {
                            let mut acc = 0.0f32;
                            for k in 0..w.cols() {
                                acc += a[(i, k)] * w[(j, k)];
                            }
                            y[(i, j)] = acc + b[(0, j)];
                        }
                    }
                    y
                }
                RefLayer::Relu => a.map(|x| if x > 0.0 { x } else { 0.0 }),
                RefLayer::Sigmoid => a.map(sigmoid_f32),
                RefLayer::FakeQuant(spec) => a.map(|x| spec.dequantize(spec.quantize(x))),
            };
            acts.push(y);
        }
        acts
    }

    /// One training step on `(x, targets)`; returns ∂L/∂input.
    fn step(&mut self, x: &Matrix<f32>, targets: &Matrix<f32>) -> Matrix<f32> {
        let acts = self.forward(x);
        let z = &acts[acts.len() - 1];
        let n = z.len() as f32;
        let mut g = z.zip_map(targets, |z, t| (sigmoid_f32(z) - t) / n);
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let (a, y) = (&acts[i], &acts[i + 1]);
            g = match layer {
                RefLayer::Dense { w, dw, db, .. } => {
                    dw.fill_zero();
                    db.fill_zero();
                    for j in 0..w.rows() {
                        for k in 0..w.cols() {
                            let mut acc = 0.0f32;
                            for r in 0..a.rows() {
                                acc += g[(r, j)] * a[(r, k)];
                            }
                            dw[(j, k)] += acc;
                        }
                        let mut acc = 0.0f32;
                        for r in 0..a.rows() {
                            acc += g[(r, j)];
                        }
                        db[(0, j)] += acc;
                    }
                    let mut dx = Matrix::zeros(a.rows(), w.cols());
                    for r in 0..a.rows() {
                        for k in 0..w.cols() {
                            let mut acc = 0.0f32;
                            for j in 0..w.rows() {
                                acc += g[(r, j)] * w[(j, k)];
                            }
                            dx[(r, k)] = acc;
                        }
                    }
                    dx
                }
                RefLayer::Relu => g.zip_map(y, |g, y| if y > 0.0 { g } else { 0.0 }),
                RefLayer::Sigmoid => g.zip_map(y, |g, y| g * y * (1.0 - y)),
                RefLayer::FakeQuant(spec) => {
                    let lo = spec.format.min_value() as f32;
                    let hi = spec.format.max_value() as f32;
                    g.zip_map(a, |g, x| if lo <= x && x <= hi { g } else { 0.0 })
                }
            };
        }
        // Adam with the defaults of `Adam::new`.
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        self.t += 1;
        let bc1 = 1.0 - b1.powi(self.t);
        let bc2 = 1.0 - b2.powi(self.t);
        let mut slot = 0;
        for layer in &mut self.layers {
            let RefLayer::Dense { w, b, dw, db } = layer else {
                continue;
            };
            for (value, grad) in [(w, &*dw), (b, &*db)] {
                if slot == self.m.len() {
                    self.m.push(vec![0.0; value.len()]);
                    self.v.push(vec![0.0; value.len()]);
                }
                for (((w, &g), m), v) in value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(grad.as_slice())
                    .zip(&mut self.m[slot])
                    .zip(&mut self.v[slot])
                {
                    *m = b1 * *m + (1.0 - b1) * g;
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    *w -= self.lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
                }
                slot += 1;
            }
        }
        g
    }

    /// Every weight and bias, in layer order.
    fn weights(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &self.layers {
            if let RefLayer::Dense { w, b, .. } = layer {
                out.extend_from_slice(w.as_slice());
                out.extend_from_slice(b.as_slice());
            }
        }
        out
    }
}

/// Every weight and bias of `model`, in layer order.
fn model_weights(model: &Sequential) -> Vec<f32> {
    let mut out = Vec::new();
    for layer in model.snapshot().layers {
        if let LayerSnapshot::Dense { weight, bias } = layer {
            out.extend_from_slice(weight.as_slice());
            out.extend_from_slice(bias.as_slice());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A few Adam steps of a small MLP through the public step API, in
    /// both forms (the primitives with `backward_input`, and
    /// `bce_step`, which skips the input gradient and the loss on
    /// alternate steps), against [`Reference`]: every weight, bias and
    /// input-gradient bit agrees. Random widths and batch sizes, ReLU
    /// and sigmoid hidden layers, linear and sigmoid heads, with and
    /// without fake-quantisation boundaries.
    #[test]
    fn training_steps_match_a_plain_loop_reference(
        in_dim in 1usize..5,
        hidden in 1usize..20,
        depth in 1usize..3,
        out_dim in 1usize..6,
        batch in 1usize..40,
        sigmoid_hidden in any::<bool>(),
        sigmoid_head in any::<bool>(),
        quantised in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut dims = vec![in_dim];
        dims.extend(std::iter::repeat_n(hidden, depth));
        dims.push(out_dim);
        let spec = MlpSpec {
            dims,
            hidden: if sigmoid_hidden { Activation::Sigmoid } else { Activation::Relu },
            output: if sigmoid_head { Activation::Sigmoid } else { Activation::Linear },
        };
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut model = spec.build(&mut rng);
        if quantised {
            // A narrow format, so that some activations saturate and
            // the straight-through gradient clips.
            let q = QuantSpec {
                format: QFormat::signed(6, 3),
                rounding: Rounding::Nearest,
            };
            model = insert_fake_quant(&model, &vec![q; depth + 2]);
        }
        let mut stepped = Sequential::from_snapshot(model.snapshot());
        let lr = 0.05;
        let mut reference = Reference::new(&model, lr);
        let (mut opt, mut stepped_opt) = (Adam::new(lr), Adam::new(lr));
        let mut grad = Matrix::zeros(0, 0);
        for step in 0..3u64 {
            let x = random_batch(batch, in_dim, seed ^ (step + 1)).map(|v| v * 3.0);
            let t = binary_targets(batch, out_dim, seed ^ (step + 100));
            let want_dx = reference.step(&x, &t);

            model.zero_grad();
            bce_with_logits_grad(model.forward(&x), &t, &mut grad);
            let dx = model.backward_input(&grad);
            prop_assert_eq!(dx.shape(), want_dx.shape());
            for (i, (a, b)) in dx.as_slice().iter().zip(want_dx.as_slice()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "step {} input grad {}: {} vs {}", step, i, a, b);
            }
            opt.step(&mut model.params_mut());
            stepped.bce_step(&mut stepped_opt, &x, &t, step % 2 == 0);

            let want = reference.weights();
            for got in [model_weights(&model), model_weights(&stepped)] {
                prop_assert_eq!(got.len(), want.len());
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "step {} weight {}: {} vs {}", step, i, a, b);
                }
            }
        }
    }
}

/// `bce_step` returns the loss of the batch it trains on, before the
/// update, exactly when asked for it.
#[test]
fn bce_step_reports_the_pre_update_loss_on_demand() {
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let mut model = MlpSpec::paper_demapper_logits().build(&mut rng);
    let x = random_batch(32, 2, 18);
    let t = binary_targets(32, 4, 19);
    let mut opt = Adam::new(0.01);
    let (want, _) = bce_pair(&model.infer(&x), &t);
    let got = model.bce_step(&mut opt, &x, &t, true).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    assert!(model.bce_step(&mut opt, &x, &t, false).is_none());
}
