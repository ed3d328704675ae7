//! The FINN-style Matrix-Vector-Activation Unit (MVAU).
//!
//! One MVAU implements one dense layer in hardware. Parallelism is
//! described FINN-style by two folding factors:
//!
//! - `simd` — how many of the `in_dim` inputs are multiplied per cycle;
//! - `pe`   — how many of the `out_dim` neurons are computed in
//!   parallel ("processing elements").
//!
//! One input vector therefore occupies the unit for
//! `II = (in_dim/simd) · (out_dim/pe)` cycles — the paper's "degree of
//! parallelism (DOP) … trade-off between latency and power".
//!
//! The numeric path is bit-exact fixed point: weights and activations
//! are quantised ([`hybridem_fixed`]), products and accumulations are
//! exact (the accumulator format carries ⌈log₂ fan-in⌉ guard bits), and
//! only the final activation cast narrows. Because integer addition is
//! associative, the result is independent of the folding — asserted by
//! tests, and the reason the software paths ignore it: `process`
//! computes in natural order, and the block kernel puts its lanes
//! across symbols.

use crate::resources::{self, ResourceUsage};
use crate::sigmoid_lut::SigmoidLut;
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::simd::{self, Simd};

/// Hardware activation function of an MVAU.
#[derive(Clone, Debug)]
pub enum HwActivation {
    /// max(0, x), then cast to the output format.
    Relu,
    /// Sigmoid via lookup table.
    Sigmoid(SigmoidLut),
    /// Cast only.
    Linear,
}

/// Why a [`Folding`] cannot be applied to a layer shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FoldingError {
    /// `pe` and `simd` must both be ≥ 1.
    ZeroFactor,
    /// `pe` must divide the output neuron count.
    PeDoesNotDivide {
        /// Requested output-side parallelism.
        pe: usize,
        /// Layer output dimension it fails to divide.
        out_dim: usize,
    },
    /// `simd` must divide the input feature count.
    SimdDoesNotDivide {
        /// Requested input-side parallelism.
        simd: usize,
        /// Layer input dimension it fails to divide.
        in_dim: usize,
    },
}

impl std::fmt::Display for FoldingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldingError::ZeroFactor => {
                write!(f, "folding factors must be >= 1 (pe and simd)")
            }
            FoldingError::PeDoesNotDivide { pe, out_dim } => {
                write!(f, "pe={pe} must divide out_dim={out_dim}")
            }
            FoldingError::SimdDoesNotDivide { simd, in_dim } => {
                write!(f, "simd={simd} must divide in_dim={in_dim}")
            }
        }
    }
}

impl std::error::Error for FoldingError {}

/// FINN-style folding factors — a parameter of the hardware cost
/// model (DESIGN.md §11.3).
///
/// In hardware, `pe` output neurons and `simd` input features are
/// processed per cycle, so one input occupies the unit for
/// `(in_dim/simd)·(out_dim/pe)` cycles and the resource model
/// replicates multipliers `pe·simd` times. The software kernels do not
/// read it: results are folding-invariant (integer addition is
/// associative), asserted by tests, so the block kernel is free to put
/// its lanes across symbols whatever the fabric schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Folding {
    /// Output-side parallelism (processing elements); must divide the
    /// layer's `out_dim`.
    pub pe: usize,
    /// Input-side parallelism (multiplier lanes per PE); must divide
    /// the layer's `in_dim`.
    pub simd: usize,
}

impl Folding {
    /// Folding with explicit factors.
    pub fn new(pe: usize, simd: usize) -> Self {
        Self { pe, simd }
    }

    /// Fully unfolded: every MAC in parallel, II = 1.
    pub fn full(in_dim: usize, out_dim: usize) -> Self {
        Self {
            pe: out_dim,
            simd: in_dim,
        }
    }

    /// Fully folded: one MAC per cycle, minimal resources.
    pub fn unit() -> Self {
        Self { pe: 1, simd: 1 }
    }

    /// Checks this folding against a layer shape, with a clear error
    /// instead of a panic — the validation the consistency tests and
    /// sweep drivers rely on.
    pub fn validate_for(&self, in_dim: usize, out_dim: usize) -> Result<(), FoldingError> {
        if self.pe == 0 || self.simd == 0 {
            return Err(FoldingError::ZeroFactor);
        }
        if !out_dim.is_multiple_of(self.pe) {
            return Err(FoldingError::PeDoesNotDivide {
                pe: self.pe,
                out_dim,
            });
        }
        if !in_dim.is_multiple_of(self.simd) {
            return Err(FoldingError::SimdDoesNotDivide {
                simd: self.simd,
                in_dim,
            });
        }
        Ok(())
    }

    /// The nearest valid folding for a layer shape: each factor is
    /// reduced to the largest divisor of its dimension that does not
    /// exceed the request. Used when one uniform folding is applied
    /// across layers of different shapes (`fpga::graph`).
    pub fn fit_to(&self, in_dim: usize, out_dim: usize) -> Self {
        fn largest_divisor_at_most(n: usize, cap: usize) -> usize {
            let cap = cap.clamp(1, n.max(1));
            (1..=cap).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1)
        }
        Self {
            pe: largest_divisor_at_most(out_dim, self.pe),
            simd: largest_divisor_at_most(in_dim, self.simd),
        }
    }

    /// Initiation interval of a layer under this folding.
    pub(crate) fn ii_cycles(&self, in_dim: usize, out_dim: usize) -> u64 {
        ((in_dim / self.simd) * (out_dim / self.pe)) as u64
    }
}

/// Static configuration of an MVAU.
#[derive(Clone, Debug)]
pub struct MvauConfig {
    /// Input feature count.
    pub in_dim: usize,
    /// Output neuron count.
    pub out_dim: usize,
    /// Folding factors (PE × SIMD parallelism) — consumed by the
    /// resource/latency model only; the software kernels ignore it.
    pub folding: Folding,
    /// Weight quantisation format.
    pub weight_format: QFormat,
    /// Input activation format.
    pub in_format: QFormat,
    /// Output activation format.
    pub out_format: QFormat,
    /// Weight memories writable at runtime (required for on-chip
    /// retraining; forces BRAM mapping per PE).
    pub writable_weights: bool,
}

impl MvauConfig {
    /// Validates the folding factors.
    ///
    /// # Panics
    /// Panics with the [`FoldingError`] message when the folding does
    /// not divide the layer shape.
    pub(crate) fn validate(&self) {
        if let Err(e) = self.folding.validate_for(self.in_dim, self.out_dim) {
            panic!("invalid MVAU folding: {e}");
        }
    }

    /// Output-side parallelism.
    pub fn pe(&self) -> usize {
        self.folding.pe
    }

    /// Input-side parallelism.
    pub fn simd(&self) -> usize {
        self.folding.simd
    }

    /// Fully-unfolded configuration (simd = in, pe = out): one result
    /// per cycle, maximal resources — the paper's inference design.
    pub fn full_parallel(
        in_dim: usize,
        out_dim: usize,
        weight_format: QFormat,
        in_format: QFormat,
        out_format: QFormat,
        writable_weights: bool,
    ) -> Self {
        Self {
            in_dim,
            out_dim,
            folding: Folding::full(in_dim, out_dim),
            weight_format,
            in_format,
            out_format,
            writable_weights,
        }
    }

    /// Initiation interval in cycles.
    pub fn ii_cycles(&self) -> u64 {
        self.folding.ii_cycles(self.in_dim, self.out_dim)
    }

    /// Pipeline depth in cycles: the input fold drains through the
    /// multiplier stage (`in_dim/simd` beats interleaved with the
    /// output fold — bounded below by II), plus the SIMD adder tree,
    /// with the activation folded into the final tree level.
    /// For the fully-unfolded case this is `1 + ⌈log₂ in_dim⌉`.
    pub fn depth_cycles(&self) -> u64 {
        self.ii_cycles() + ceil_log2(self.simd()) as u64
    }

    /// Exact accumulator format.
    pub fn acc_format(&self) -> QFormat {
        self.in_format.accumulator(&self.weight_format, self.in_dim)
    }
}

fn ceil_log2(n: usize) -> u32 {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()).max(1)
}

/// Symbols per cache-resident block tile (the comm-side demapper
/// tiling constant, so both halves of the receiver stream in the same
/// granularity).
pub(crate) const TILE: usize = hybridem_comm::demapper::BLOCK_TILE;

/// Output neurons the block kernel keeps in flight, each in its own
/// accumulator. [`FastPlan`] pads its weight rows to a whole number of
/// groups, so no layer shape needs a neuron remainder.
const OUT_GROUP: usize = 4;

/// Builds a zero-padded feature-major `i32` plane of `rows` features
/// for `symbols` symbols in `plane`, with `value(s, i)` at row `i`,
/// lane `s`, and returns its stride: the symbols rounded up to whole
/// [`simd::MAX_LANES`] chunks. The padded lanes are computed and never
/// read, so no block length needs a symbol remainder at any dispatch
/// width. The one transpose into the plane world.
#[inline(always)]
pub(crate) fn fill_plane(
    plane: &mut Vec<i32>,
    rows: usize,
    symbols: usize,
    mut value: impl FnMut(usize, usize) -> i32,
) -> usize {
    debug_assert!(symbols > 0, "a plane holds at least one symbol");
    let stride = symbols.next_multiple_of(simd::MAX_LANES);
    plane.clear();
    plane.resize(rows * stride, 0);
    for (i, row) in plane.chunks_exact_mut(stride).enumerate() {
        for (s, slot) in row[..symbols].iter_mut().enumerate() {
            *slot = value(s, i);
        }
    }
    stride
}

/// Widens the first `out.len() / dim` lanes of a feature-major plane
/// (`dim` rows of `stride` lanes) into symbol-major raw values — the
/// one transpose out of the plane world.
#[inline(always)]
pub(crate) fn widen_plane(plane: &[i32], stride: usize, out: &mut [i64], dim: usize) {
    for (s, sym) in out.chunks_exact_mut(dim).enumerate() {
        for (o, slot) in sym.iter_mut().enumerate() {
            *slot = plane[o * stride + s] as i64;
        }
    }
}

/// The activation + cast of the 32-bit fast path, reduced to pure
/// integer shift/clamp lane arithmetic. Bit-identical to the `Fx`
/// reference: `ReluShr` is saturate → max(0,·) → `Rounding::Truncate`
/// right shift → output saturation, `LinearShr` is saturate →
/// `Rounding::Nearest` right shift (ties away from zero) → output
/// saturation — exactly [`Mvau::apply_activation`] term for term for
/// formats whose fraction bits do not grow across the cast.
#[derive(Clone, Copy, Debug)]
enum FastEpilogue {
    /// ReLU then truncating cast, dropping `shift` fraction bits.
    ReluShr {
        /// `acc_frac − out_frac`.
        shift: u32,
    },
    /// Linear (cast-only) with round-to-nearest, ties away from zero.
    LinearShr {
        /// `acc_frac − out_frac`.
        shift: u32,
    },
}

/// Precomputed 32-bit fast path: present when every accumulation
/// provably fits an `i32` (the accumulator format's guard bits plus
/// one headroom bit stay under 31 bits), the output raw range fits an
/// `i32`, and the activation reduces to [`FastEpilogue`] integer
/// arithmetic. The block kernel then runs 32-bit SIMD MACs
/// (single-instruction vector multiplies) with results identical to
/// the 64-bit `Fx` path of [`Mvau::process_into`]: exact integer
/// arithmetic is exact at any width that never overflows. Layers
/// without a plan run that per-symbol path instead.
///
/// The plan describes the layer's arithmetic only; the hardware
/// folding ([`MvauConfig::folding`]) never reaches it.
#[derive(Clone, Debug)]
struct FastPlan {
    /// `i32` copy of the weights, row-major, `out_dim` rows of
    /// `in_dim` padded with zero rows to a whole number of
    /// [`OUT_GROUP`]s.
    weights32: Vec<i32>,
    /// `i32` copy of the biases (accumulator-format raw values),
    /// zero-padded like the weight rows.
    bias32: Vec<i32>,
    epilogue: FastEpilogue,
    /// Accumulator saturation bounds (`acc_format` range).
    acc_lo: i32,
    acc_hi: i32,
    /// Output saturation bounds (`out_format` range).
    out_lo: i32,
    out_hi: i32,
}

/// The register-resident copy of a [`FastPlan`]'s epilogue scalars —
/// `Copy`, so the kernel hoists one value load instead of re-reading
/// plan fields through a reference inside the hot loop.
#[derive(Clone, Copy, Debug)]
struct Epilogue {
    mode: FastEpilogue,
    acc_lo: i32,
    acc_hi: i32,
    out_lo: i32,
    out_hi: i32,
}

impl Epilogue {
    /// One accumulator lane through saturate → activation → cast →
    /// output saturation. `#[inline(always)]` so the lane ops fuse
    /// into the MAC kernel's vector loop.
    #[inline(always)]
    fn apply_lanes<const N: usize>(self, acc: Simd<i32, N>) -> Simd<i32, N> {
        let a = acc.clamp(self.acc_lo, self.acc_hi);
        let a = match self.mode {
            FastEpilogue::ReluShr { shift } => {
                let r = a.relu();
                if shift == 0 {
                    r
                } else {
                    r.shr(shift)
                }
            }
            FastEpilogue::LinearShr { shift } => {
                if shift == 0 {
                    a
                } else {
                    a.round_shr_nearest(shift)
                }
            }
        };
        a.clamp(self.out_lo, self.out_hi)
    }
}

impl FastPlan {
    /// The epilogue scalars as a `Copy` bundle for the kernel.
    #[inline(always)]
    fn epilogue(&self) -> Epilogue {
        Epilogue {
            mode: self.epilogue,
            acc_lo: self.acc_lo,
            acc_hi: self.acc_hi,
            out_lo: self.out_lo,
            out_hi: self.out_hi,
        }
    }

    /// The 32-bit MAC + epilogue kernel over one feature-major plane
    /// tile: `x` holds `in_dim` rows of `stride` symbols, `y` receives
    /// one row per padded weight row. Lanes run across symbols: each
    /// weight broadcasts against a chunk of `N` symbols of its input
    /// row, and [`OUT_GROUP`] neurons accumulate in flight, each in
    /// its own register, before the epilogue and a full-width store.
    /// `stride` is a multiple of every `N` ([`fill_plane`]), so no
    /// symbol or neuron remainder exists.
    ///
    /// The accumulation order per `(symbol, neuron)` is bias, then
    /// ascending feature index, at every width — bit-identical to the
    /// scalar reference.
    #[inline(always)]
    fn mac_planes<const N: usize>(&self, in_dim: usize, x: &[i32], y: &mut [i32], stride: usize) {
        let ep = self.epilogue();
        let groups = self
            .weights32
            .chunks_exact(OUT_GROUP * in_dim)
            .zip(self.bias32.chunks_exact(OUT_GROUP))
            .zip(y.chunks_exact_mut(OUT_GROUP * stride));
        for ((w, bias), yg) in groups {
            // Exact-length weight rows: `rows[j][i]` with `i < in_dim`
            // is provably in bounds, so the inner loop keeps only the
            // input-row check.
            let rows: [&[i32]; OUT_GROUP] =
                std::array::from_fn(|j| &w[j * in_dim..(j + 1) * in_dim]);
            for s in (0..stride).step_by(N) {
                let mut acc: [Simd<i32, N>; OUT_GROUP] =
                    std::array::from_fn(|j| Simd::<i32, N>::splat(bias[j]));
                for i in 0..in_dim {
                    let xv = Simd::<i32, N>::load(&x[i * stride + s..]);
                    for (a, row) in acc.iter_mut().zip(&rows) {
                        *a = a.mul_add(Simd::<i32, N>::splat(row[i]), xv);
                    }
                }
                for (j, a) in acc.into_iter().enumerate() {
                    ep.apply_lanes(a).store(&mut yg[j * stride + s..]);
                }
            }
        }
    }
}

/// A configured MVAU holding quantised weights.
#[derive(Clone, Debug)]
pub struct Mvau {
    cfg: MvauConfig,
    activation: HwActivation,
    /// Raw weights, `out_dim × in_dim` row-major, in `weight_format`.
    weights: Vec<i64>,
    /// Raw biases in the accumulator format.
    biases: Vec<i64>,
    /// 32-bit SIMD fast path when the formats allow it.
    fast: Option<FastPlan>,
}

impl Mvau {
    /// Quantises a dense layer (`weight`: `out × in`, `bias`: `1 × out`)
    /// into hardware form.
    pub fn from_dense(
        cfg: MvauConfig,
        weight: &Matrix<f32>,
        bias: &Matrix<f32>,
        activation: HwActivation,
    ) -> Self {
        cfg.validate();
        assert_eq!(weight.shape(), (cfg.out_dim, cfg.in_dim), "weight shape");
        assert_eq!(bias.cols(), cfg.out_dim, "bias length");
        let wspec = QuantSpec {
            format: cfg.weight_format,
            rounding: Rounding::Nearest,
        };
        let weights: Vec<i64> = weight
            .as_slice()
            .iter()
            .map(|&w| wspec.quantize(w))
            .collect();
        let acc = cfg.acc_format();
        let biases: Vec<i64> = bias
            .as_slice()
            .iter()
            .map(|&b| acc.raw_from_f64(b as f64, Rounding::Nearest))
            .collect();
        // |bias| ≤ acc_max and |Σ products| ≤ acc_max (the accumulator
        // format's guard bits cover the worst case), so every partial
        // sum is bounded by 2·acc_max < 2^(acc_bits+1): one extra bit
        // of headroom suffices.
        // (acc_bits + 1 headroom bits must fit the 31 value bits of i32)
        let epilogue = match &activation {
            HwActivation::Relu if cfg.out_format.frac_bits <= acc.frac_bits => {
                Some(FastEpilogue::ReluShr {
                    shift: acc.frac_bits - cfg.out_format.frac_bits,
                })
            }
            HwActivation::Linear if cfg.out_format.frac_bits <= acc.frac_bits => {
                Some(FastEpilogue::LinearShr {
                    shift: acc.frac_bits - cfg.out_format.frac_bits,
                })
            }
            // Sigmoid LUTs and fraction-growing casts stay on the
            // 64-bit Fx path.
            _ => None,
        };
        let fast = match epilogue {
            Some(epilogue) if acc.total_bits < 31 && cfg.out_format.total_bits < 31 => {
                let rows = cfg.out_dim.next_multiple_of(OUT_GROUP);
                let mut weights32: Vec<i32> = weights.iter().map(|&w| w as i32).collect();
                weights32.resize(rows * cfg.in_dim, 0);
                let mut bias32: Vec<i32> = biases.iter().map(|&b| b as i32).collect();
                bias32.resize(rows, 0);
                Some(FastPlan {
                    weights32,
                    bias32,
                    epilogue,
                    acc_lo: acc.raw_min() as i32,
                    acc_hi: acc.raw_max() as i32,
                    out_lo: cfg.out_format.raw_min() as i32,
                    out_hi: cfg.out_format.raw_max() as i32,
                })
            }
            _ => None,
        };
        Self {
            cfg,
            activation,
            weights,
            biases,
            fast,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MvauConfig {
        &self.cfg
    }

    /// Whether the i32 SIMD fast path is active for this layer (narrow
    /// enough formats and a shift-expressible activation cast).
    pub fn has_fast_path(&self) -> bool {
        self.fast.is_some()
    }

    /// The same quantised layer under a different folding. Only the
    /// hardware cost model reads the factors (`ii_cycles`,
    /// `resources`); the software kernels and their results do not
    /// change.
    pub fn refold(&self, folding: Folding) -> Result<Mvau, FoldingError> {
        folding.validate_for(self.cfg.in_dim, self.cfg.out_dim)?;
        let mut m = self.clone();
        m.cfg.folding = folding;
        Ok(m)
    }

    /// The quantised weights as dequantised f32s (`out × in`) — what
    /// the rest of the system "sees" after deployment.
    pub fn effective_weights(&self) -> Matrix<f32> {
        let mut m = Matrix::zeros(self.cfg.out_dim, self.cfg.in_dim);
        for (slot, &raw) in m.as_mut_slice().iter_mut().zip(&self.weights) {
            *slot = self.cfg.weight_format.f64_from_raw(raw) as f32;
        }
        m
    }

    /// Bit-exact forward pass for one input vector (raw values in
    /// `in_format`). Fold-invariant by integer associativity. Legacy
    /// allocating entry point — routes through [`Mvau::process_into`];
    /// block paths run the layer inside
    /// [`QuantizedGraph::process_block_raw`](crate::graph::QuantizedGraph::process_block_raw).
    pub fn process(&self, input_raw: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; self.cfg.out_dim];
        self.process_into(input_raw, &mut out);
        out
    }

    /// Allocation-free per-symbol forward pass writing raw outputs
    /// into `out` (`out_dim` values in `out_format`).
    pub fn process_into(&self, input_raw: &[i64], out: &mut [i64]) {
        assert_eq!(input_raw.len(), self.cfg.in_dim, "input width");
        assert_eq!(out.len(), self.cfg.out_dim, "output width");
        let acc_fmt = self.cfg.acc_format();
        let prod_frac = self.cfg.in_format.frac_bits + self.cfg.weight_format.frac_bits;
        debug_assert_eq!(acc_fmt.frac_bits, prod_frac);
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.cfg.in_dim..(o + 1) * self.cfg.in_dim];
            let mut acc: i64 = self.biases[o];
            for (&w, &x) in row.iter().zip(input_raw) {
                acc += w * x;
            }
            // Saturate into the accumulator format (guard bits make
            // overflow impossible for worst-case inputs, but keep the
            // hardware semantics explicit).
            let (acc, _) = acc_fmt.saturate(acc);
            *slot = self.apply_activation(acc, acc_fmt);
        }
    }

    /// Runs the layer plane to plane inside a dispatched kernel: `x`
    /// holds `in_dim` feature-major rows of `stride` symbols (built by
    /// [`fill_plane`]); `y` is resized to `out_dim` rows padded to
    /// whole [`OUT_GROUP`]s, the rows the symbol-lane kernel writes,
    /// and rows past `out_dim` are never read. A layer with a
    /// [`FastPlan`] runs that kernel; any other layer runs
    /// [`Mvau::process_into`] on each plane column through the `col`
    /// staging buffer, padded lanes included, so every lane a later
    /// layer reads holds an in-range value.
    ///
    /// Exact only while the input and output formats fit the `i32`
    /// planes (≤ 31 bits), which `graph::compile_spec` asserts.
    #[inline(always)]
    pub(crate) fn process_plane<const N: usize>(
        &self,
        x: &[i32],
        y: &mut Vec<i32>,
        stride: usize,
        col: &mut Vec<i64>,
    ) {
        let in_dim = self.cfg.in_dim;
        let out_dim = self.cfg.out_dim;
        debug_assert!(x.len() >= in_dim * stride, "input plane too short");
        y.resize(out_dim.next_multiple_of(OUT_GROUP) * stride, 0);
        if let Some(plan) = &self.fast {
            plan.mac_planes::<N>(in_dim, x, y, stride);
            return;
        }
        col.resize(in_dim + out_dim, 0);
        let (xi, yo) = col.split_at_mut(in_dim);
        for s in 0..stride {
            for (i, v) in xi.iter_mut().enumerate() {
                *v = x[i * stride + s] as i64;
            }
            self.process_into(xi, yo);
            for (o, &v) in yo.iter().enumerate() {
                y[o * stride + s] = v as i32;
            }
        }
    }

    fn apply_activation(&self, acc_raw: i64, acc_fmt: QFormat) -> i64 {
        match &self.activation {
            HwActivation::Relu => {
                let clamped = acc_raw.max(0);
                hybridem_fixed::Fx::from_raw(clamped, acc_fmt)
                    .cast(self.cfg.out_format, Rounding::Truncate)
                    .raw()
            }
            HwActivation::Linear => hybridem_fixed::Fx::from_raw(acc_raw, acc_fmt)
                .cast(self.cfg.out_format, Rounding::Nearest)
                .raw(),
            HwActivation::Sigmoid(lut) => lut.lookup(acc_raw, acc_fmt),
        }
    }

    /// Structural resource estimate.
    pub fn resources(&self) -> ResourceUsage {
        let cfg = &self.cfg;
        let acc = cfg.acc_format();
        let mut r = ResourceUsage::zero();
        // PE × SIMD multiplier lanes: the multiplier itself plus the
        // per-lane weight-fetch/accumulate interface logic FINN MVAUs
        // spend around each DSP (~6 LUTs per lane after synthesis).
        r += (resources::multiplier(cfg.in_format.total_bits, cfg.weight_format.total_bits)
            + ResourceUsage {
                lut: 6,
                ..Default::default()
            })
        .times((cfg.pe() * cfg.simd()) as u64);
        // Per-PE SIMD adder tree at accumulator width.
        r += resources::reduction_tree(cfg.simd(), resources::adder(acc.total_bits))
            .times(cfg.pe() as u64);
        // Per-PE fold accumulator (register + adder) when input folds.
        if cfg.simd() < cfg.in_dim {
            r += (resources::adder(acc.total_bits) + resources::register(acc.total_bits))
                .times(cfg.pe() as u64);
        }
        // Weight memory: per-PE partitions. Writable memories (needed by
        // on-chip retraining) are forced to BRAM with half-BRAM minimum
        // granularity per PE — the FINN weight-streamer layout.
        let bits_per_pe =
            (cfg.in_dim * cfg.out_dim / cfg.pe()) as u64 * cfg.weight_format.total_bits as u64;
        if cfg.writable_weights {
            let per_pe = (bits_per_pe as f64 / 18_432.0).ceil().max(1.0) * 0.5;
            r += ResourceUsage {
                bram36: per_pe * cfg.pe() as f64,
                ..Default::default()
            };
        } else {
            r += resources::memory(
                bits_per_pe,
                cfg.weight_format.total_bits * cfg.simd() as u32,
            )
            .times(cfg.pe() as u64);
        }
        // Activation units per PE.
        match &self.activation {
            HwActivation::Relu => {
                r += resources::comparator(acc.total_bits).times(cfg.pe() as u64);
                r += resources::mux2(cfg.out_format.total_bits).times(cfg.pe() as u64);
            }
            HwActivation::Sigmoid(lut) => {
                r += lut.resources().times(cfg.pe() as u64);
            }
            HwActivation::Linear => {}
        }
        // Output registers and fold-control counters.
        r += resources::register(cfg.out_format.total_bits).times(cfg.pe() as u64);
        r += ResourceUsage {
            lut: 40 + 8 * (ceil_log2(cfg.ii_cycles().max(2) as usize) as u64),
            ff: 24,
            ..Default::default()
        };
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt8_6() -> QFormat {
        QFormat::signed(8, 6)
    }

    fn make_mvau(simd: usize, pe: usize, act: HwActivation) -> Mvau {
        let w = Matrix::from_rows(&[&[0.5f32, -0.25, 0.75, 0.125], &[-0.5, 0.5, -0.125, 0.25]]);
        let b = Matrix::from_rows(&[&[0.1f32, -0.2]]);
        let cfg = MvauConfig {
            in_dim: 4,
            out_dim: 2,
            folding: Folding::new(pe, simd),
            weight_format: fmt8_6(),
            in_format: fmt8_6(),
            out_format: fmt8_6(),
            writable_weights: false,
        };
        Mvau::from_dense(cfg, &w, &b, act)
    }

    #[test]
    fn process_matches_reference_float() {
        let mvau = make_mvau(4, 2, HwActivation::Linear);
        let in_fmt = fmt8_6();
        let xs = [0.9f32, -0.4, 0.2, 0.7];
        let raw: Vec<i64> = xs
            .iter()
            .map(|&x| in_fmt.raw_from_f64(x as f64, Rounding::Nearest))
            .collect();
        let out = mvau.process(&raw);
        // Reference: exact dot product of the *quantised* values.
        let wq = mvau.effective_weights();
        for o in 0..2 {
            let mut acc = mvau.config().acc_format().f64_from_raw(mvau.biases[o]);
            for i in 0..4 {
                acc += wq[(o, i)] as f64 * in_fmt.f64_from_raw(raw[i]);
            }
            let got = fmt8_6().f64_from_raw(out[o]);
            assert!(
                (got - acc).abs() <= fmt8_6().resolution() + 1e-9,
                "output {o}: {got} vs {acc}"
            );
        }
    }

    #[test]
    fn folding_does_not_change_results() {
        let input: Vec<i64> = vec![30, -20, 5, 63];
        let reference = make_mvau(4, 2, HwActivation::Relu).process(&input);
        for (simd, pe) in [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2)] {
            let folded = make_mvau(simd, pe, HwActivation::Relu);
            assert_eq!(folded.process(&input), reference, "simd={simd} pe={pe}");
        }
    }

    #[test]
    fn relu_clamps_in_fixed_point() {
        let mvau = make_mvau(4, 2, HwActivation::Relu);
        // Strongly negative input drives output 1 negative pre-ReLU.
        let in_fmt = fmt8_6();
        let raw: Vec<i64> = [1.0f32, -1.0, 1.0, -1.0]
            .iter()
            .map(|&x| in_fmt.raw_from_f64(x as f64, Rounding::Nearest))
            .collect();
        let out = mvau.process(&raw);
        assert!(
            out.iter().all(|&o| o >= 0),
            "ReLU output must be non-negative"
        );
    }

    #[test]
    fn ii_and_depth_formulas() {
        let full = MvauConfig::full_parallel(16, 16, fmt8_6(), fmt8_6(), fmt8_6(), false);
        assert_eq!(full.ii_cycles(), 1);
        assert_eq!(full.depth_cycles(), 1 + 4);
        let folded = MvauConfig {
            folding: Folding::new(4, 4),
            ..full
        };
        assert_eq!(folded.ii_cycles(), 16);
        assert!(folded.depth_cycles() >= folded.ii_cycles());
    }

    #[test]
    fn paper_demapper_full_parallel_uses_352_dsp() {
        // The calibration anchor: 2→16, 16→16, 16→4 fully unfolded.
        let dims = [(2usize, 16usize), (16, 16), (16, 4)];
        let mut dsp = 0u64;
        for (i, o) in dims {
            let cfg = MvauConfig::full_parallel(i, o, fmt8_6(), fmt8_6(), fmt8_6(), true);
            let w = Matrix::zeros(o, i);
            let b = Matrix::zeros(1, o);
            let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
            dsp += m.resources().dsp;
        }
        assert_eq!(dsp, 352);
    }

    #[test]
    fn folding_trades_dsp_for_time() {
        let mk = |simd, pe| {
            let cfg = MvauConfig {
                in_dim: 16,
                out_dim: 16,
                folding: Folding::new(pe, simd),
                weight_format: fmt8_6(),
                in_format: fmt8_6(),
                out_format: fmt8_6(),
                writable_weights: false,
            };
            let m = Mvau::from_dense(
                cfg,
                &Matrix::zeros(16, 16),
                &Matrix::zeros(1, 16),
                HwActivation::Relu,
            );
            (m.resources().dsp, m.config().ii_cycles())
        };
        let (dsp_full, ii_full) = mk(16, 16);
        let (dsp_half, ii_half) = mk(8, 8);
        let (dsp_min, ii_min) = mk(1, 1);
        assert_eq!(dsp_full, 256);
        assert_eq!(dsp_half, 64);
        assert_eq!(dsp_min, 1);
        assert_eq!(ii_full, 1);
        assert_eq!(ii_half, 4);
        assert_eq!(ii_min, 256);
        // DSP × II ≈ constant (the MAC count).
        assert_eq!(dsp_full * ii_full, 256);
        assert_eq!(dsp_half * ii_half, 256);
        assert_eq!(dsp_min * ii_min, 256);
    }

    #[test]
    fn writable_weights_force_bram() {
        let mk = |writable| {
            let cfg = MvauConfig {
                in_dim: 16,
                out_dim: 16,
                folding: Folding::full(16, 16),
                weight_format: fmt8_6(),
                in_format: fmt8_6(),
                out_format: fmt8_6(),
                writable_weights: writable,
            };
            Mvau::from_dense(
                cfg,
                &Matrix::zeros(16, 16),
                &Matrix::zeros(1, 16),
                HwActivation::Relu,
            )
            .resources()
        };
        let ro = mk(false);
        let rw = mk(true);
        assert_eq!(
            ro.bram36, 0.0,
            "256 small weights fit LUTRAM when read-only"
        );
        assert_eq!(rw.bram36, 8.0, "16 PEs × half-BRAM when runtime-writable");
    }

    #[test]
    fn sigmoid_activation_outputs_probabilities() {
        let lut = SigmoidLut::new(8, 8.0, QFormat::unsigned(8, 8));
        let mvau = make_mvau(4, 2, HwActivation::Sigmoid(lut));
        let out = mvau.process(&[63, 63, 63, 63]);
        let f = QFormat::unsigned(8, 8);
        for &o in &out {
            let p = f.f64_from_raw(o);
            assert!((0.0..=1.0).contains(&p), "sigmoid output {p} out of range");
        }
    }
}
