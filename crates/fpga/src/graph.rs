//! The quantized-graph IR: one integer program for every deployment
//! path (DESIGN.md §9).
//!
//! Before this module the workspace had three divergent quantisation
//! code paths: `builder::build_inference_design` (calibration →
//! per-layer MVAUs), the `ablation_quant` adapter (per-symbol f32
//! round trips) and the ad-hoc per-test chains. [`compile`] replaces
//! them: a float [`Sequential`] — plain or quantisation-aware (with
//! `FakeQuant` boundaries) — lowers to a [`QuantizedGraph`] of
//! integer [`Mvau`] ops that executes bit-exactly per symbol
//! ([`QuantizedGraph::process_iq`]) and per block
//! ([`QuantizedGraph::process_block_raw`]), allocation-free after
//! warm-up, and slots straight into the link simulator as a
//! [`Demapper`].

use crate::mvau::{fill_plane, widen_plane, Folding, HwActivation, Mvau, MvauConfig, TILE};
use crate::sigmoid_lut::SigmoidLut;
use hybridem_comm::demapper::Demapper;
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::simd::{self, LaneWidth, SimdKernel};
use hybridem_nn::Sequential;
use std::cell::RefCell;

/// How the raw outputs of the final op map to receiver LLRs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GraphOutput {
    /// Final op is linear: outputs are quantised logits,
    /// `LLR = −logit` (the workspace convention).
    Logits,
    /// Final op ends in the sigmoid LUT: outputs are quantised bit
    /// probabilities, `LLR = −logit(clamp(p))`.
    Probabilities,
}

/// Full lowering plan: per-boundary activation formats plus per-layer
/// weight widths. [`compile`] derives one from a boundary list;
/// `builder::build_inference_design` constructs one from calibration.
pub struct GraphSpec {
    /// `dense_count + 1` tensor-boundary quantisation specs in
    /// datapath order: input format first, each layer's activation
    /// format after.
    pub(crate) boundaries: Vec<QuantSpec>,
    /// Weight width per dense layer.
    pub(crate) weight_bits: Vec<u32>,
    /// Address bits of the sigmoid LUTs (for layers that end in one).
    pub(crate) sigmoid_addr_bits: u32,
    /// Per-dense-layer input clamp range of the sigmoid LUT (used only
    /// when that layer's activation is a sigmoid).
    pub(crate) sigmoid_ranges: Vec<f64>,
    /// Whether weight memories stay runtime-writable (retraining).
    pub(crate) writable_weights: bool,
    /// Requested folding applied to every layer (fitted per layer via
    /// [`Folding::fit_to`], since one uniform request must match
    /// different shapes). `None` compiles fully parallel — the paper's
    /// inference design. It sets the hardware cost model only; the
    /// compiled graph executes identically at any folding.
    pub folding: Option<Folding>,
}

impl GraphSpec {
    /// Uniform-width plan: weights as wide as the activation boundary
    /// that follows them, 8-bit sigmoid LUT over ±8.
    pub fn uniform(boundaries: Vec<QuantSpec>) -> Self {
        let weight_bits: Vec<u32> = boundaries[1..]
            .iter()
            .map(|b| b.format.total_bits)
            .collect();
        Self {
            sigmoid_ranges: vec![8.0; weight_bits.len()],
            boundaries,
            weight_bits,
            sigmoid_addr_bits: 8,
            writable_weights: true,
            folding: None,
        }
    }
}

/// A compiled integer program: the MVAU chain plus the boundary
/// formats every executor shares.
pub struct QuantizedGraph {
    mvaus: Vec<Mvau>,
    input_format: QFormat,
    output_format: QFormat,
    output: GraphOutput,
    weight_bits: u32,
}

/// Reusable executor buffers: the ping-pong feature-major `i32`
/// activation planes of one tile (the quantised I/Q input is the first
/// plane), the column staging of layers without a fast path, and the
/// raw output staging for the f32 views. One warm scratch makes the
/// whole integer pipeline allocation-free (asserted by the fpga
/// crate's counting-allocator test).
pub struct GraphScratch {
    ping: Vec<i32>,
    pong: Vec<i32>,
    col: Vec<i64>,
    raw: Vec<i64>,
}

impl GraphScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            ping: Vec::new(),
            pong: Vec::new(),
            col: Vec::new(),
            raw: Vec::new(),
        }
    }
}

impl Default for GraphScratch {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static GRAPH_SCRATCH: RefCell<GraphScratch> = RefCell::new(GraphScratch::new());
}

/// Lowers a float model to the integer IR with uniform widths: the
/// boundary list gives the input format plus each layer's activation
/// format, and each layer's weights are quantised (max-abs fit,
/// round-to-nearest) at the width of the boundary that follows them.
/// `FakeQuant` layers in the model are transparent here — pass the
/// specs they carry (e.g. via [`compile_qat`]).
pub fn compile(model: &Sequential, boundaries: &[QuantSpec]) -> QuantizedGraph {
    compile_spec(model, &GraphSpec::uniform(boundaries.to_vec()))
}

/// Lowers a quantisation-aware model: the tensor-boundary specs are
/// read back out of its `FakeQuant` layers, so the integer graph
/// executes exactly the formats the model was trained against.
/// `weight_bits` gives the (uniform) weight width.
///
/// # Panics
/// Panics unless the model carries one `FakeQuant` boundary per dense
/// layer plus the input.
pub fn compile_qat(model: &Sequential, weight_bits: u32) -> QuantizedGraph {
    let boundaries = hybridem_nn::model::boundary_specs(model);
    let dense_count = model
        .layers()
        .iter()
        .filter(|l| l.name() == "dense")
        .count();
    assert_eq!(
        boundaries.len(),
        dense_count + 1,
        "QAT model must carry one FakeQuant boundary per tensor \
         (found {}, need {})",
        boundaries.len(),
        dense_count + 1
    );
    let mut spec = GraphSpec::uniform(boundaries);
    spec.weight_bits = vec![weight_bits; dense_count];
    compile_spec(model, &spec)
}

/// Lowers a float model with a fully explicit [`GraphSpec`].
///
/// # Panics
/// Panics unless every boundary format fits the executor's `i32`
/// activation planes (≤ 31 bits), and unless the spec lists one
/// boundary per dense layer plus the input and one weight width and
/// one sigmoid range per dense layer.
pub fn compile_spec(model: &Sequential, spec: &GraphSpec) -> QuantizedGraph {
    struct Unit {
        weight: hybridem_mathkit::matrix::Matrix<f32>,
        bias: hybridem_mathkit::matrix::Matrix<f32>,
        act: &'static str,
    }
    let mut units: Vec<Unit> = Vec::new();
    for layer in model.layers() {
        match layer.name() {
            "dense" => {
                let ps = layer.params();
                units.push(Unit {
                    weight: ps[0].value.clone(),
                    bias: ps[1].value.clone(),
                    act: "linear",
                });
            }
            act @ ("relu" | "sigmoid") => {
                units
                    .last_mut()
                    .expect("activation requires a preceding dense layer")
                    .act = if act == "relu" { "relu" } else { "sigmoid" };
            }
            // QAT boundaries are transparent: their formats arrive via
            // the GraphSpec (see `compile_qat`).
            "fake_quant" => {}
            other => panic!("unsupported layer `{other}` for the quantized graph"),
        }
    }
    assert_eq!(
        spec.boundaries.len(),
        units.len() + 1,
        "need one boundary spec per dense layer plus the input"
    );
    assert_eq!(
        spec.weight_bits.len(),
        units.len(),
        "weight width per layer"
    );
    assert_eq!(
        spec.sigmoid_ranges.len(),
        units.len(),
        "sigmoid range per layer"
    );
    for b in &spec.boundaries {
        assert!(
            b.format.total_bits <= 31,
            "boundary format {} exceeds the 31 bits of the i32 activation planes",
            b.format
        );
    }

    let mut mvaus = Vec::with_capacity(units.len());
    for (i, unit) in units.iter().enumerate() {
        let in_fmt = spec.boundaries[i].format;
        let out_fmt = spec.boundaries[i + 1].format;
        let wspec = QuantSpec::fit_to_data(
            spec.weight_bits[i],
            unit.weight.as_slice(),
            Rounding::Nearest,
        );
        let activation = match unit.act {
            "relu" => HwActivation::Relu,
            "sigmoid" => HwActivation::Sigmoid(SigmoidLut::new(
                spec.sigmoid_addr_bits,
                spec.sigmoid_ranges[i],
                out_fmt,
            )),
            _ => HwActivation::Linear,
        };
        let mut cfg = MvauConfig::full_parallel(
            unit.weight.cols(),
            unit.weight.rows(),
            wspec.format,
            in_fmt,
            out_fmt,
            spec.writable_weights,
        );
        if let Some(f) = spec.folding {
            cfg.folding = f.fit_to(cfg.in_dim, cfg.out_dim);
        }
        mvaus.push(Mvau::from_dense(cfg, &unit.weight, &unit.bias, activation));
    }
    assert!(!mvaus.is_empty(), "model has no dense layers");
    let output = if units.last().unwrap().act == "sigmoid" {
        GraphOutput::Probabilities
    } else {
        GraphOutput::Logits
    };
    QuantizedGraph {
        input_format: spec.boundaries[0].format,
        output_format: spec.boundaries[spec.boundaries.len() - 1].format,
        output,
        weight_bits: spec.weight_bits.iter().copied().max().unwrap(),
        mvaus,
    }
}

impl QuantizedGraph {
    /// The same compiled graph under a uniform folding request, fitted
    /// per layer ([`Folding::fit_to`]). Only the hardware cost model
    /// follows the new factors (each layer's `ii_cycles` and
    /// `resources`); the software kernels ignore folding, so outputs
    /// and execution are unchanged.
    pub fn with_folding(&self, folding: Folding) -> QuantizedGraph {
        let mvaus = self
            .mvaus
            .iter()
            .map(|m| {
                let f = folding.fit_to(m.config().in_dim, m.config().out_dim);
                m.refold(f).expect("fitted folding divides the shape")
            })
            .collect();
        QuantizedGraph {
            mvaus,
            input_format: self.input_format,
            output_format: self.output_format,
            output: self.output,
            weight_bits: self.weight_bits,
        }
    }

    /// The compiled MVAU chain.
    pub fn mvaus(&self) -> &[Mvau] {
        &self.mvaus
    }

    /// Input quantisation format (the receiver ADC view).
    pub fn input_format(&self) -> QFormat {
        self.input_format
    }

    /// Raw output format of the final op.
    pub fn output_format(&self) -> QFormat {
        self.output_format
    }

    /// Weight width label (W4/W6/W8 in artefacts).
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Output feature count.
    pub(crate) fn output_dim(&self) -> usize {
        self.mvaus.last().unwrap().config().out_dim
    }

    /// Integer block execution, one dispatched kernel per block: per
    /// [`BLOCK_TILE`](hybridem_comm::demapper::BLOCK_TILE) tile it
    /// quantises the samples once into a zero-padded feature-major
    /// `i32` I/Q plane, runs every op plane to plane in `i32`, and
    /// widens the final plane once into the symbol-major raw `out`
    /// (resized to `ys.len() · output_dim`). Bit-exact versus a
    /// per-symbol [`QuantizedGraph::process_iq`] loop — integer
    /// arithmetic end to end — and allocation-free once `scratch` is
    /// warm.
    pub fn process_block_raw(&self, ys: &[C32], out: &mut Vec<i64>, scratch: &mut GraphScratch) {
        self.process_block_raw_at(LaneWidth::detect(), ys, out, scratch);
    }

    /// [`QuantizedGraph::process_block_raw`] pinned to an explicit
    /// [`LaneWidth`] — the hook the property tests use to prove the
    /// plane kernels bit-exact at every supported width. Results never
    /// depend on `width`.
    pub fn process_block_raw_at(
        &self,
        width: LaneWidth,
        ys: &[C32],
        out: &mut Vec<i64>,
        scratch: &mut GraphScratch,
    ) {
        out.resize(ys.len() * self.output_dim(), 0);
        simd::dispatch_at(
            width,
            GraphKernel {
                graph: self,
                ys,
                out,
                scratch,
            },
        );
    }

    /// One raw output to one LLR, per the graph's output semantic.
    #[inline]
    fn llr_from_raw(&self, raw: i64) -> f32 {
        let v = self.output_format.f64_from_raw(raw);
        match self.output {
            GraphOutput::Logits => -v as f32,
            GraphOutput::Probabilities => {
                let p = v.clamp(1e-3, 1.0 - 1e-3);
                -hybridem_mathkit::special::logit(p) as f32
            }
        }
    }

    /// Bit-exact inference of one received sample, dequantised to f32
    /// (bit probabilities for sigmoid-output graphs, logits for linear
    /// ones) — the legacy `InferenceDesign::process_iq` view, routed
    /// through the per-thread block scratch so a warm thread does not
    /// allocate beyond the returned `Vec`.
    pub fn process_iq(&self, y: C32) -> Vec<f32> {
        GRAPH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let mut raw = std::mem::take(&mut scratch.raw);
            self.process_block_raw(&[y], &mut raw, scratch);
            let out = raw
                .iter()
                .map(|&r| self.output_format.f64_from_raw(r) as f32)
                .collect();
            scratch.raw = raw;
            out
        })
    }
}

/// [`QuantizedGraph::process_block_raw`]'s width-generic body, so the
/// input rounding, every plane layer and the transposes all run under
/// the dispatch trampoline's ISA.
struct GraphKernel<'a> {
    graph: &'a QuantizedGraph,
    ys: &'a [C32],
    /// Symbol-major raw outputs, `ys.len() × output_dim`.
    out: &'a mut [i64],
    scratch: &'a mut GraphScratch,
}

impl SimdKernel for GraphKernel<'_> {
    type Output = ();

    fn run<const N: usize>(self) {
        let GraphKernel {
            graph,
            ys,
            out,
            scratch,
        } = self;
        let f = graph.input_format;
        let dim = graph.output_dim();
        for (ys, out) in ys.chunks(TILE).zip(out.chunks_mut(TILE * dim)) {
            let stride = fill_plane(&mut scratch.ping, 2, ys.len(), |s, i| {
                let v = if i == 0 { ys[s].re } else { ys[s].im };
                f.raw_from_f64(v as f64, Rounding::Nearest) as i32
            });
            for m in &graph.mvaus {
                m.process_plane::<N>(&scratch.ping, &mut scratch.pong, stride, &mut scratch.col);
                std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            }
            widen_plane(&scratch.ping, stride, out, dim);
        }
    }
}

/// The compiled graph is a drop-in receiver demapper: the integer
/// datapath slots into the link simulator and the campaign engine
/// through the workspace [`Demapper`] trait, with per-thread scratch
/// keeping the Monte-Carlo hot loop allocation-free. `demap_block`
/// runs [`QuantizedGraph::process_block_raw`] and maps each raw output
/// to a symbol-major f32 LLR (`LLR > 0 ⇒ bit 0`); `llrs` is its
/// one-symbol block.
impl Demapper for QuantizedGraph {
    fn bits_per_symbol(&self) -> usize {
        self.output_dim()
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        let m = self.output_dim();
        assert_eq!(
            out.len(),
            ys.len() * m,
            "demap_block output buffer must hold exactly {} LLRs",
            ys.len() * m
        );
        GRAPH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let mut raw = std::mem::take(&mut scratch.raw);
            self.process_block_raw(ys, &mut raw, scratch);
            for (o, &r) in out.iter_mut().zip(&raw) {
                *o = self.llr_from_raw(r);
            }
            scratch.raw = raw;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::rng::Xoshiro256pp;
    use hybridem_nn::model::MlpSpec;

    fn boundaries(bits: u32) -> Vec<QuantSpec> {
        let q = |fmt: QFormat| QuantSpec {
            format: fmt,
            rounding: Rounding::Nearest,
        };
        vec![
            q(QFormat::signed(8, 5)),
            q(QFormat::signed(bits, bits.saturating_sub(3).max(1))),
            q(QFormat::signed(bits, bits.saturating_sub(3).max(1))),
            q(QFormat::signed(bits.max(6), bits.max(6) - 4)),
        ]
    }

    fn model(seed: u64) -> Sequential {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        MlpSpec::paper_demapper_logits().build(&mut rng)
    }

    #[test]
    fn compile_builds_one_mvau_per_dense_layer() {
        let g = compile(&model(1), &boundaries(8));
        assert_eq!(g.mvaus().len(), 3);
        assert_eq!(g.output_dim(), 4);
        assert_eq!(g.output, GraphOutput::Logits);
        assert_eq!(g.weight_bits(), 8);
        // Fully parallel: one DSP per MAC, the paper's 352 anchor.
        let dsp: u64 = g.mvaus().iter().map(|m| m.resources().dsp).sum();
        assert_eq!(dsp, 352);
    }

    #[test]
    fn sigmoid_model_compiles_to_probability_output() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let m = MlpSpec::paper_demapper().build(&mut rng);
        let mut b = boundaries(8);
        b[3] = QuantSpec {
            format: QFormat::unsigned(8, 8),
            rounding: Rounding::Nearest,
        };
        let g = compile(&m, &b);
        assert_eq!(g.output, GraphOutput::Probabilities);
        for p in g.process_iq(C32::new(0.4, -0.9)) {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
    }

    #[test]
    fn demapper_llrs_match_block_path_bitwise() {
        let g = compile(&model(3), &boundaries(6));
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let ys: Vec<C32> = (0..33)
            .map(|_| C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect();
        let mut block = vec![0f32; ys.len() * 4];
        g.demap_block(&ys, &mut block);
        let mut single = [0f32; 4];
        for (s, &y) in ys.iter().enumerate() {
            g.llrs(y, &mut single);
            for k in 0..4 {
                assert_eq!(block[s * 4 + k].to_bits(), single[k].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one FakeQuant boundary per tensor")]
    fn compile_qat_rejects_float_models() {
        let _ = compile_qat(&model(5), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds the 31 bits of the i32 activation planes")]
    fn compile_spec_rejects_boundaries_wider_than_the_planes() {
        let mut b = boundaries(8);
        b[2] = QuantSpec {
            format: QFormat::signed(40, 20),
            rounding: Rounding::Nearest,
        };
        let _ = compile(&model(6), &b);
    }
}
