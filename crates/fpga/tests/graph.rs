//! The quantized-graph IR contract (DESIGN.md §9): block execution is
//! bit-exact versus the per-symbol path at every width and block
//! length, and QAT snapshots round-trip through JSON to the identical
//! integer program.

use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_fpga::graph::{compile, compile_qat, GraphScratch, QuantizedGraph};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_nn::model::{insert_fake_quant, MlpSpec};
use hybridem_nn::Sequential;

fn float_model(seed: u64) -> Sequential {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    MlpSpec::paper_demapper_logits().build(&mut rng)
}

/// Boundary specs for a uniform width sweep: ADC/LLR buses at
/// `bits.max(6)`, hidden activations at `bits` (the core::qat layout).
fn boundaries(bits: u32) -> Vec<QuantSpec> {
    let io = bits.max(6);
    let q = |fmt: QFormat| QuantSpec {
        format: fmt,
        rounding: Rounding::Nearest,
    };
    vec![
        q(QFormat::signed(io, io - 3)),
        q(QFormat::signed(bits, bits - 1)),
        q(QFormat::signed(bits, bits - 1)),
        q(QFormat::signed(io, io - 4)),
    ]
}

fn samples(n: usize, seed: u64) -> Vec<C32> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| C32::new(rng.normal_f32(), rng.normal_f32()))
        .collect()
}

/// Per-symbol reference: quantise one sample and fold it through the
/// MVAU chain with the allocating per-symbol entry points.
fn reference_raw(g: &QuantizedGraph, y: C32) -> Vec<i64> {
    let f = g.input_format();
    let mut raw = vec![
        f.raw_from_f64(y.re as f64, Rounding::Nearest),
        f.raw_from_f64(y.im as f64, Rounding::Nearest),
    ];
    for m in g.mvaus() {
        raw = m.process(&raw);
    }
    raw
}

/// The sigmoid-head paper demapper with a UQ0.8 probability output —
/// the model of `perf`'s `graph_demap_block_n256`. Its head has no
/// fast path, so the plane executor runs it per symbol.
fn sigmoid_graph() -> QuantizedGraph {
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

#[test]
fn block_bit_exact_with_per_symbol_all_widths_and_lengths() {
    // (label, sample seed, graph)
    let mut graphs: Vec<(String, u64, QuantizedGraph)> = [4u32, 6, 8]
        .iter()
        .map(|&bits| {
            let g = compile(&float_model(bits as u64), &boundaries(bits));
            (format!("W{bits}"), 1000 + bits as u64, g)
        })
        .collect();
    let sigmoid = sigmoid_graph();
    assert!(
        !sigmoid.mvaus()[2].has_fast_path(),
        "the sigmoid head must exercise the per-symbol layer"
    );
    graphs.push(("sigmoid".to_string(), 1003, sigmoid));
    for (label, seed, g) in &graphs {
        let mut scratch = GraphScratch::new();
        let mut raw_block = Vec::new();
        // Whole lane chunks and tiles, and their edges: pure
        // remainders, one past a chunk, one short of and one past a
        // tile, and a multi-tile stream with a trailing remainder.
        for len in [0usize, 1, 7, 17, 255, 256, 257, 4096, 4097] {
            let ys = samples(len, *seed);
            g.process_block_raw(&ys, &mut raw_block, &mut scratch);
            assert_eq!(raw_block.len(), len * 4, "{label} n={len}");
            for (s, &y) in ys.iter().enumerate() {
                assert_eq!(
                    &raw_block[s * 4..(s + 1) * 4],
                    &reference_raw(g, y)[..],
                    "{label} n={len} symbol {s}: block and per-symbol integer \
                     outputs must be identical"
                );
            }
        }
    }
}

#[test]
fn demapper_block_llrs_bit_exact_with_per_symbol_llrs() {
    use hybridem_comm::demapper::Demapper;
    for bits in [4u32, 6, 8] {
        let g = compile(&float_model(7), &boundaries(bits));
        let ys = samples(301, 2000 + bits as u64);
        let mut block = vec![0f32; ys.len() * 4];
        g.demap_block(&ys, &mut block);
        let mut single = [0f32; 4];
        for (s, &y) in ys.iter().enumerate() {
            g.llrs(y, &mut single);
            for k in 0..4 {
                assert_eq!(
                    block[s * 4 + k].to_bits(),
                    single[k].to_bits(),
                    "W{bits} symbol {s} bit {k}"
                );
            }
        }
    }
}

#[test]
fn qat_snapshot_json_round_trip_restores_identical_integer_outputs() {
    for bits in [4u32, 6, 8] {
        let qat = insert_fake_quant(&float_model(20 + bits as u64), &boundaries(bits));
        let json = qat.to_json();
        let restored = Sequential::from_json(&json).expect("QAT snapshot must parse");

        let g1 = compile_qat(&qat, bits);
        let g2 = compile_qat(&restored, bits);
        assert_eq!(g1.weight_bits(), g2.weight_bits());
        assert_eq!(g1.input_format(), g2.input_format());
        assert_eq!(g1.output_format(), g2.output_format());

        let ys = samples(128, 30 + bits as u64);
        let mut s1 = GraphScratch::new();
        let mut s2 = GraphScratch::new();
        let (mut r1, mut r2) = (Vec::new(), Vec::new());
        g1.process_block_raw(&ys, &mut r1, &mut s1);
        g2.process_block_raw(&ys, &mut r2, &mut s2);
        assert_eq!(
            r1, r2,
            "W{bits}: the graph compiled from a JSON-restored QAT model \
             must produce identical raw integers"
        );
    }
}

#[test]
fn compile_qat_reads_the_boundaries_the_model_was_trained_with() {
    let bounds = boundaries(6);
    let qat = insert_fake_quant(&float_model(42), &bounds);
    let via_qat = compile_qat(&qat, 6);
    // Compiling the same float weights against the same explicit
    // boundary list must produce the identical integer program (the
    // FakeQuant layers are transparent to the lowering).
    let via_explicit = compile(&qat, &bounds);
    let ys = samples(64, 43);
    let mut s1 = GraphScratch::new();
    let mut s2 = GraphScratch::new();
    let (mut r1, mut r2) = (Vec::new(), Vec::new());
    via_qat.process_block_raw(&ys, &mut r1, &mut s1);
    via_explicit.process_block_raw(&ys, &mut r2, &mut s2);
    assert_eq!(r1, r2);
}
