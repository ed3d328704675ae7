//! Lane kernels of the dense layer (DESIGN.md §11.2).
//!
//! `Dense` runs its four products here, each a
//! [`SimdKernel`] that [`simd::dispatch_at`] monomorphises at a
//! [`LaneWidth`]:
//!
//! - [`affine_into_at`]: `y = x·Wᵀ + b`, the forward pass and inference;
//! - [`add_weight_grad_at`]: `∂W += gᵀ·x`;
//! - [`add_bias_grad_at`]: `∂b += Σ_rows g`;
//! - [`input_grad_into_at`]: `∂x = g·W`.
//!
//! Lanes run along a contiguous feature dimension, and `W` is read in
//! place: the optimisers write `Param::value` in place, so a cached
//! transposed copy would go stale. Each output element keeps the
//! accumulation order of the textbook scalar loop: a product from +0
//! over the inner index ascending, the bias added last; a gradient from
//! +0 over batch rows ascending, then added to the accumulated gradient.
//! Every result is therefore bit-identical to that loop at every width
//! (`crates/nn/tests/properties.rs` sweeps them all).

use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::simd::{self, LaneWidth, Simd, SimdKernel};

/// Rows (or neurons) per register block: four independent accumulator
/// chains hide the latency of one add.
const BLOCK: usize = 4;
/// Inner-dimension depth of the weight panel gathered onto the stack.
const PANEL: usize = 16;

/// `L` f32 lanes.
type Lanes<const L: usize> = Simd<f32, L>;

/// `y = x·Wᵀ + b` for `x` (`batch × in`), `w` (`out × in`) and `b`
/// (`out` values); `y` is reshaped to `batch × out`. Element `(i, j)`
/// is `Σ_k x[i][k]·w[j][k]` summed from +0 with `k` ascending, plus
/// `b[j]`.
///
/// # Panics
/// Panics if the widths disagree.
pub fn affine_into_at(
    width: LaneWidth,
    x: &Matrix<f32>,
    w: &Matrix<f32>,
    b: &[f32],
    y: &mut Matrix<f32>,
) {
    let (out_dim, in_dim) = w.shape();
    assert_eq!(x.cols(), in_dim, "dense input width");
    assert_eq!(b.len(), out_dim, "bias length");
    y.resize_to(x.rows(), out_dim);
    let w = w.as_slice();
    simd::dispatch_at(
        width,
        RowsByPanel {
            a: x.as_slice(),
            inner: in_dim,
            panel: |t, c| w[c * in_dim + t],
            bias: Some(b),
            out: y,
        },
    );
}

/// `dx = g·W` for `g` (`batch × out`) and `w` (`out × in`); `dx` is
/// reshaped to `batch × in`. Element `(i, k)` is `Σ_j g[i][j]·w[j][k]`
/// summed from +0 with `j` ascending.
///
/// # Panics
/// Panics if the widths disagree.
pub fn input_grad_into_at(
    width: LaneWidth,
    g: &Matrix<f32>,
    w: &Matrix<f32>,
    dx: &mut Matrix<f32>,
) {
    let (out_dim, in_dim) = w.shape();
    assert_eq!(g.cols(), out_dim, "grad width");
    dx.resize_to(g.rows(), in_dim);
    let w = w.as_slice();
    simd::dispatch_at(
        width,
        RowsByPanel {
            a: g.as_slice(),
            inner: out_dim,
            panel: |t, c| w[t * in_dim + c],
            bias: None,
            out: dx,
        },
    );
}

/// `dw += gᵀ·x` for `g` (`batch × out`), `x` (`batch × in`) and `dw`
/// (`out × in`): `Σ_r g[r][j]·x[r][k]` summed from +0 with `r`
/// ascending, then added to `dw[j][k]`. Lanes run along the wider of
/// the two feature dimensions.
///
/// # Panics
/// Panics if the shapes disagree.
pub fn add_weight_grad_at(
    width: LaneWidth,
    g: &Matrix<f32>,
    x: &Matrix<f32>,
    dw: &mut Matrix<f32>,
) {
    assert_eq!(g.rows(), x.rows(), "batch mismatch");
    assert_eq!(dw.shape(), (g.cols(), x.cols()), "weight grad shape");
    let in_dim = x.cols();
    let dw = dw.as_mut_slice();
    if in_dim >= g.cols() {
        let emit = |j: usize, k: usize, v: f32| dw[j * in_dim + k] += v;
        simd::dispatch_at(width, OuterSum { a: g, b: x, emit });
    } else {
        let emit = |k: usize, j: usize, v: f32| dw[j * in_dim + k] += v;
        simd::dispatch_at(width, OuterSum { a: x, b: g, emit });
    }
}

/// `db += Σ_r g[r]` for `g` (`batch × out`): each column summed from +0
/// with `r` ascending, then added to `db[j]`.
///
/// # Panics
/// Panics if `db` does not hold one value per column of `g`.
pub fn add_bias_grad_at(width: LaneWidth, g: &Matrix<f32>, db: &mut [f32]) {
    assert_eq!(db.len(), g.cols(), "bias grad length");
    simd::dispatch_at(width, BiasGrad { g, db });
}

/// A kernel body over one block of `L` consecutive lanes.
trait LaneBlock {
    /// Computes lanes `c0..c0 + L`.
    fn block<const L: usize>(&mut self, c0: usize);
}

/// Covers lanes `0..n` with blocks of `N`, then of 4, then at most one
/// block each of 2 and 1 lanes, so that every load and store is whole.
#[inline(always)]
fn for_each_block<const N: usize>(n: usize, k: &mut impl LaneBlock) {
    let mut c = 0;
    while c + N <= n {
        k.block::<N>(c);
        c += N;
    }
    while c + 4 <= n {
        k.block::<4>(c);
        c += 4;
    }
    if c + 2 <= n {
        k.block::<2>(c);
        c += 2;
    }
    if c < n {
        k.block::<1>(c);
    }
}

/// `out[i][c] = Σ_t a[i][t]·panel(t, c)` (plus `bias[c]`), `a` being
/// `rows × inner` and `out` `rows × cols`, both row-major. Lanes run
/// along `c`. Per block of output columns, the weights are gathered in
/// `PANEL`-deep chunks of `t` into a stack panel, one lane vector per
/// `t`, which every batch row then streams against, `BLOCK` rows at a
/// time. A row's partial sums wait in `out` between chunks, so each
/// element still sums its terms from +0 in ascending `t`.
struct RowsByPanel<'a, P> {
    a: &'a [f32],
    inner: usize,
    panel: P,
    bias: Option<&'a [f32]>,
    out: &'a mut Matrix<f32>,
}

impl<P: Fn(usize, usize) -> f32> SimdKernel for RowsByPanel<'_, P> {
    type Output = ();

    fn run<const N: usize>(mut self) {
        for_each_block::<N>(self.out.cols(), &mut self);
    }
}

impl<P: Fn(usize, usize) -> f32> LaneBlock for RowsByPanel<'_, P> {
    #[inline(always)]
    fn block<const L: usize>(&mut self, c0: usize) {
        let (rows, cols) = self.out.shape();
        let (a, inner) = (self.a, self.inner);
        let out = self.out.as_mut_slice();
        // One chunk even at `inner == 0`, where the sum is +0.
        let mut t0 = 0;
        loop {
            let tw = PANEL.min(inner - t0);
            let mut p = [Lanes::<L>::splat(0.0); PANEL];
            for (t, pt) in p[..tw].iter_mut().enumerate() {
                for (c, v) in pt.0.iter_mut().enumerate() {
                    *v = (self.panel)(t0 + t, c0 + c);
                }
            }
            let last = t0 + tw == inner;
            let chunk = Chunk {
                panel: &p[..tw],
                bias: self.bias.filter(|_| last).map(|b| Lanes::load(&b[c0..])),
                first: t0 == 0,
            };
            let mut i = 0;
            while i + BLOCK <= rows {
                chunk.rows::<BLOCK>(&a[i * inner + t0..], inner, &mut out[i * cols + c0..], cols);
                i += BLOCK;
            }
            for i in i..rows {
                chunk.rows::<1>(&a[i * inner + t0..], inner, &mut out[i * cols + c0..], cols);
            }
            t0 += tw;
            if last {
                break;
            }
        }
    }
}

/// One gathered panel of [`RowsByPanel`].
struct Chunk<'p, const L: usize> {
    panel: &'p [Lanes<L>],
    /// Added after the last chunk's terms.
    bias: Option<Lanes<L>>,
    /// Start the sums from +0 rather than from the partial sums in `out`.
    first: bool,
}

impl<const L: usize> Chunk<'_, L> {
    /// Streams `R` consecutive rows through the panel: row `r` reads its
    /// terms from `a[r·inner..]` and its lanes in `out[r·cols..]`.
    #[inline(always)]
    fn rows<const R: usize>(&self, a: &[f32], inner: usize, out: &mut [f32], cols: usize) {
        let tw = self.panel.len();
        let mut xs = [&a[..0]; R];
        let mut acc = [Lanes::<L>::splat(0.0); R];
        for (r, (x, acc)) in xs.iter_mut().zip(&mut acc).enumerate() {
            *x = &a[r * inner..][..tw];
            if !self.first {
                *acc = Lanes::load(&out[r * cols..]);
            }
        }
        for (t, &p) in self.panel.iter().enumerate() {
            for (acc, x) in acc.iter_mut().zip(&xs) {
                *acc = acc.mul_add(Lanes::splat(x[t]), p);
            }
        }
        for (r, acc) in acc.into_iter().enumerate() {
            let acc = match self.bias {
                Some(b) => acc.add(b),
                None => acc,
            };
            acc.store(&mut out[r * cols..]);
        }
    }
}

/// `emit(p, q, Σ_r a[r][p]·b[r][q])` for every `p < a.cols()` and
/// `q < b.cols()`, each sum from +0 with `r` ascending. Lanes run along
/// `q`, the contiguous columns of `b`; `BLOCK` values of `p` accumulate
/// in flight, each in its own register, while the batch streams past.
struct OuterSum<'a, E> {
    a: &'a Matrix<f32>,
    b: &'a Matrix<f32>,
    emit: E,
}

impl<E: FnMut(usize, usize, f32)> SimdKernel for OuterSum<'_, E> {
    type Output = ();

    fn run<const N: usize>(mut self) {
        for_each_block::<N>(self.b.cols(), &mut self);
    }
}

impl<E: FnMut(usize, usize, f32)> LaneBlock for OuterSum<'_, E> {
    #[inline(always)]
    fn block<const L: usize>(&mut self, q0: usize) {
        let ps = self.a.cols();
        let mut p = 0;
        while p + BLOCK <= ps {
            self.rows::<L, BLOCK>(p, q0);
            p += BLOCK;
        }
        for p in p..ps {
            self.rows::<L, 1>(p, q0);
        }
    }
}

impl<E: FnMut(usize, usize, f32)> OuterSum<'_, E> {
    /// Sums of `p0..p0 + J` against lanes `q0..q0 + L`.
    #[inline(always)]
    fn rows<const L: usize, const J: usize>(&mut self, p0: usize, q0: usize) {
        let (ap, bq) = (self.a.cols(), self.b.cols());
        let (a, b) = (self.a.as_slice(), self.b.as_slice());
        let mut acc = [Lanes::<L>::splat(0.0); J];
        for r in 0..self.a.rows() {
            let bv = Lanes::<L>::load(&b[r * bq + q0..]);
            let ar = &a[r * ap + p0..][..J];
            for (acc, &av) in acc.iter_mut().zip(ar) {
                *acc = acc.mul_add(Lanes::splat(av), bv);
            }
        }
        for (j, acc) in acc.into_iter().enumerate() {
            for (l, v) in acc.0.into_iter().enumerate() {
                (self.emit)(p0 + j, q0 + l, v);
            }
        }
    }
}

/// [`add_bias_grad_at`]'s body: lanes along the columns of `g`.
struct BiasGrad<'a> {
    g: &'a Matrix<f32>,
    db: &'a mut [f32],
}

impl SimdKernel for BiasGrad<'_> {
    type Output = ();

    fn run<const N: usize>(mut self) {
        for_each_block::<N>(self.g.cols(), &mut self);
    }
}

impl LaneBlock for BiasGrad<'_> {
    #[inline(always)]
    fn block<const L: usize>(&mut self, c0: usize) {
        let cols = self.g.cols();
        let g = self.g.as_slice();
        let mut acc = Lanes::<L>::splat(0.0);
        for r in 0..self.g.rows() {
            acc = acc.add(Lanes::load(&g[r * cols + c0..]));
        }
        let db = &mut self.db[c0..];
        Lanes::<L>::load(db).add(acc).store(db);
    }
}
