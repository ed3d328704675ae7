//! Property-based tests of the FPGA substrate: fold invariance,
//! quantisation fidelity, timing and resource monotonicity.

use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::Demapper;
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_fpga::demapper_accel::{SoftDemapperAccel, SoftDemapperConfig};
use hybridem_fpga::mvau::{Folding, HwActivation, Mvau, MvauConfig};
use hybridem_fpga::pipeline::{ExecutionMode, PipelineTiming, StageTiming};
use hybridem_fpga::power::PowerModel;
use hybridem_fpga::resources::ResourceUsage;
use hybridem_fpga::sigmoid_lut::SigmoidLut;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;
use proptest::prelude::*;

fn random_dense(out_dim: usize, in_dim: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut w = Matrix::zeros(out_dim, in_dim);
    for v in w.as_mut_slice() {
        *v = rng.normal_f32() * 0.4;
    }
    let mut b = Matrix::zeros(1, out_dim);
    for v in b.as_mut_slice() {
        *v = rng.normal_f32() * 0.2;
    }
    (w, b)
}

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn accel_block_bit_exact_with_per_symbol_process(
        len in 0usize..33,
        theta in -3.2f32..3.2,
        sigma in 0.05f32..0.5,
        seed in any::<u64>(),
    ) {
        // The fixed-point block kernel equals a per-symbol `process`
        // loop exactly — integer arithmetic end to end — including on
        // rotated centroid sets.
        let centroids = Constellation::qam_gray(16).rotated(theta);
        let accel = SoftDemapperAccel::new(
            SoftDemapperConfig::paper_default(),
            centroids.points(),
            sigma,
        );
        let m = accel.bits_per_symbol();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let ys: Vec<_> = (0..len)
            .map(|_| hybridem_mathkit::complex::C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect();
        let mut raw_block = vec![0i64; len * m];
        accel.process_block(&ys, &mut raw_block);
        let mut f32_block = vec![0f32; len * m];
        accel.demap_block(&ys, &mut f32_block);
        let mut f32_single = vec![0f32; m];
        for (s, &y) in ys.iter().enumerate() {
            prop_assert_eq!(&raw_block[s * m..(s + 1) * m], &accel.process(y)[..]);
            accel.llrs(y, &mut f32_single);
            for k in 0..m {
                prop_assert_eq!(f32_block[s * m + k].to_bits(), f32_single[k].to_bits());
            }
        }
    }

    #[test]
    fn mvau_fold_invariance_random_layers(
        in_pow in 1usize..5, out_pow in 1usize..5, seed in any::<u64>()
    ) {
        let in_dim = 1 << in_pow;
        let out_dim = 1 << out_pow;
        let fmt = QFormat::signed(8, 6);
        let (w, b) = random_dense(out_dim, in_dim, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 1);
        let input: Vec<i64> = (0..in_dim)
            .map(|_| fmt.raw_from_f64(rng.normal_f64() * 0.5, Rounding::Nearest))
            .collect();

        let reference = {
            let cfg = MvauConfig::full_parallel(in_dim, out_dim, fmt, fmt, fmt, false);
            Mvau::from_dense(cfg, &w, &b, HwActivation::Relu).process(&input)
        };
        for &simd in &divisors(in_dim) {
            for &pe in &divisors(out_dim) {
                let cfg = MvauConfig {
                    in_dim, out_dim, folding: Folding::new(pe, simd),
                    weight_format: fmt, in_format: fmt, out_format: fmt,
                    writable_weights: false,
                };
                let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
                prop_assert_eq!(m.process(&input), reference.clone(),
                    "simd={} pe={}", simd, pe);
            }
        }
    }

    #[test]
    fn mvau_matches_float_within_quantisation_bound(seed in any::<u64>()) {
        let fmt = QFormat::signed(10, 7);
        let (w, b) = random_dense(8, 8, seed);
        let cfg = MvauConfig::full_parallel(8, 8, fmt, fmt, QFormat::signed(12, 8), false);
        let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Linear);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 2);
        let xs: Vec<f64> = (0..8).map(|_| rng.normal_f64() * 0.5).collect();
        let raw: Vec<i64> = xs.iter().map(|&x| fmt.raw_from_f64(x, Rounding::Nearest)).collect();
        let out = m.process(&raw);
        // Float reference on the quantised weights/inputs.
        let wq = m.effective_weights();
        for o in 0..8 {
            let mut acc = b[(0, o)] as f64;
            // Bias is quantised to the accumulator format: allow its lsb.
            for i in 0..8 {
                acc += wq[(o, i)] as f64 * fmt.f64_from_raw(raw[i]);
            }
            let got = QFormat::signed(12, 8).f64_from_raw(out[o]);
            let tol = QFormat::signed(12, 8).resolution()
                + m.config().acc_format().resolution();
            prop_assert!((got - acc).abs() <= tol + 1e-9,
                "output {}: {} vs {}", o, got, acc);
        }
    }

    #[test]
    fn dsp_ii_product_is_constant(in_pow in 2usize..5, out_pow in 2usize..5) {
        // DSP × II = MAC count for every folding: the resource/time
        // trade-off is exact.
        let in_dim = 1 << in_pow;
        let out_dim = 1 << out_pow;
        let fmt = QFormat::signed(8, 6);
        let (w, b) = random_dense(out_dim, in_dim, 3);
        let macs = (in_dim * out_dim) as u64;
        for &simd in &divisors(in_dim) {
            for &pe in &divisors(out_dim) {
                let cfg = MvauConfig {
                    in_dim, out_dim, folding: Folding::new(pe, simd),
                    weight_format: fmt, in_format: fmt, out_format: fmt,
                    writable_weights: false,
                };
                let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
                prop_assert_eq!(m.resources().dsp * m.config().ii_cycles(), macs);
            }
        }
    }

    #[test]
    fn pipeline_simulation_matches_analysis(
        stages in proptest::collection::vec((1u64..6, 1u64..12), 1..6),
        iterative in any::<bool>(),
    ) {
        let stages: Vec<StageTiming> = stages
            .into_iter()
            .map(|(ii, extra)| StageTiming { ii, depth: ii + extra })
            .collect();
        let mode = if iterative { ExecutionMode::Iterative } else { ExecutionMode::Pipelined };
        let p = PipelineTiming::new(stages, mode, 100.0);
        let trace = p.simulate(64);
        prop_assert_eq!(trace.latency_cycles, p.total_depth_cycles());
        prop_assert_eq!(trace.ii_cycles, p.ii_cycles());
        // Completion times strictly increase.
        for w in trace.finish_cycles.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn power_monotone_in_resources(lut in 0u64..50_000, ff in 0u64..50_000,
                                   dsp in 0u64..360, bram in 0.0f64..200.0) {
        let m = PowerModel::default();
        let base = ResourceUsage { lut, ff, dsp, bram36: bram };
        let p0 = m.power_w(&base, 150.0, 1.0);
        let bigger = ResourceUsage { lut: lut + 100, ff, dsp, bram36: bram };
        prop_assert!(m.power_w(&bigger, 150.0, 1.0) > p0);
        prop_assert!(p0 >= m.static_w);
        // Energy scales inversely with throughput.
        let e1 = m.energy_per_symbol_j(&base, 150.0, 1.0, 1e7);
        let e2 = m.energy_per_symbol_j(&base, 150.0, 1.0, 2e7);
        prop_assert!((e1 / e2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_lut_error_bound_random_configs(addr in 5u32..12, range in 2.0f64..12.0) {
        let lut = SigmoidLut::new(addr, range, QFormat::unsigned(10, 10));
        let bound = lut.error_bound();
        let mut x = -range * 1.5;
        while x < range * 1.5 {
            let approx = lut.out_format.f64_from_raw(lut.lookup_f64(x));
            let exact = hybridem_mathkit::special::sigmoid(x);
            prop_assert!((approx - exact).abs() <= bound,
                "x={}: {} vs {} bound {}", x, approx, exact, bound);
            x += range / 37.0;
        }
    }

    #[test]
    fn relu_mvau_outputs_nonnegative(seed in any::<u64>()) {
        let fmt = QFormat::signed(8, 5);
        let (w, b) = random_dense(6, 4, seed);
        let cfg = MvauConfig::full_parallel(4, 6, fmt, fmt, fmt, false);
        let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 3);
        let input: Vec<i64> = (0..4)
            .map(|_| fmt.raw_from_f64(rng.normal_f64(), Rounding::Nearest))
            .collect();
        for &o in &m.process(&input) {
            prop_assert!(o >= 0);
        }
    }
}

proptest! {
    // Width × format sweep of the SIMD fast path: few cases, each
    // re-run at every supported lane width (the kernel is
    // deterministic per (width, input)).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn graph_block_bit_exact_at_every_lane_width_and_weight_width(seed in any::<u64>()) {
        // The plane kernels' contract (DESIGN.md §11): the graph's
        // block entry — the i32 symbol-lane MACs plus the branchless
        // activation epilogue — is bit-identical to a per-symbol
        // scalar pass through each layer at every supported lane
        // width, for W4/W6/W8 formats, ReLU and linear (rounding-cast)
        // hidden layers and heads, and every layer shape the kernel
        // vectorises:
        // the paper's 2→16 input, 16→16 hidden and 16→4 head layers,
        // plus a 16→6 head, whose output count is a multiple of no
        // lane width. A sigmoid-LUT head has no fast path and runs the
        // per-column path of the same plane executor, so it is swept
        // too. Each graph runs fully parallel and under the served
        // PE 4 × SIMD 8 folding. Block lengths cover empty input, pure
        // remainders (1, 7), one lane chunk and its edges (15, 16,
        // 17), one full tile (256) and a multi-tile stream with a
        // trailing remainder (4097, W8 without the LUT only, to bound
        // debug-build time).
        use hybridem_fpga::graph::{compile, GraphScratch, QuantizedGraph};
        use hybridem_mathkit::complex::C32;
        use hybridem_mathkit::simd::LaneWidth;
        use hybridem_nn::model::{Activation, MlpSpec};
        let combos = [
            (QFormat::signed(4, 2), Activation::Relu, Activation::Linear),
            (QFormat::signed(6, 4), Activation::Linear, Activation::Linear),
            (QFormat::signed(8, 6), Activation::Relu, Activation::Linear),
            (QFormat::signed(8, 6), Activation::Linear, Activation::Linear),
            (QFormat::signed(8, 6), Activation::Relu, Activation::Sigmoid),
            (QFormat::signed(8, 6), Activation::Relu, Activation::Relu),
        ];
        // The scalar reference: each symbol quantised as the graph
        // quantises it, then `process_into` layer by layer.
        let per_symbol = |g: &QuantizedGraph, fmt: QFormat, ys: &[C32]| -> Vec<i64> {
            let mut out = Vec::new();
            for y in ys {
                let mut x: Vec<i64> = [y.re, y.im]
                    .iter()
                    .map(|&v| fmt.raw_from_f64(v as f64, Rounding::Nearest))
                    .collect();
                for m in g.mvaus() {
                    let mut next = vec![0i64; m.config().out_dim];
                    m.process_into(&x, &mut next);
                    x = next;
                }
                out.extend(x);
            }
            out
        };
        for (fmt, hidden, output) in combos {
            for head in [4usize, 6] {
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ u64::from(fmt.total_bits));
                let mut model = MlpSpec {
                    dims: vec![2, 16, 16, head],
                    hidden,
                    output,
                }
                .build(&mut rng);
                // Random biases too, so the kernels' bias path runs.
                for p in model.params_mut() {
                    for v in p.value.as_mut_slice() {
                        *v = rng.normal_f32() * 0.4;
                    }
                }
                let q = QuantSpec { format: fmt, rounding: Rounding::Nearest };
                let g = compile(&model, &[q; 4]);
                let lut = output == Activation::Sigmoid;
                for (i, m) in g.mvaus().iter().enumerate() {
                    prop_assert_eq!(m.has_fast_path(), !(lut && i == 2),
                        "only a sigmoid head lacks the fast path");
                }
                let folded = g.with_folding(Folding::new(4, 8));
                let full_len = if fmt.total_bits == 8 && !lut { 4097 } else { 256 };
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 99);
                let ys: Vec<C32> = (0..full_len)
                    .map(|_| C32::new(rng.normal_f32() * 0.7, rng.normal_f32() * 0.7))
                    .collect();
                let reference = per_symbol(&g, fmt, &ys);
                let mut scratch = GraphScratch::new();
                let mut got = Vec::new();
                for &n in &[0usize, 1, 7, 15, 16, 17, 256, full_len] {
                    for unit in [&g, &folded] {
                        for width in LaneWidth::supported() {
                            unit.process_block_raw_at(width, &ys[..n], &mut got, &mut scratch);
                            prop_assert_eq!(&got[..], &reference[..n * head],
                                "2→16→16→{} {:?} n {} width {:?} fmt W{}", head,
                                unit.mvaus()[1].config().folding, n, width, fmt.total_bits);
                        }
                    }
                }
            }
        }
    }
}
