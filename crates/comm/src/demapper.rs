//! Soft demappers: received samples → per-bit LLRs.
//!
//! Convention (workspace-wide): `LLR_k = ln P(b_k=0|y) − ln P(b_k=1|y)`,
//! so **positive LLR ⇒ bit 0** and the hard decision is `b = (LLR<0)`.
//!
//! The one required entry point is [`Demapper::demap_block`]: a whole
//! block of received samples in, one contiguous symbol-major LLR buffer
//! out (`[sym0_bit0 … sym0_bit(m−1), sym1_bit0 …]` — see DESIGN.md §7).
//! The kernels here iterate the constellation points in the *outer*
//! loop over a whole tile, so the point set streams through cache once
//! per tile instead of once per symbol, and a block of any length —
//! one symbol included — runs the same tile kernel. [`Demapper::llrs`]
//! is the one-symbol block; only the three kernels of this module
//! override it, with the scalar loops the property tests hold their
//! tile kernels to: `demap_block` is bit-exact with a per-symbol
//! `llrs` loop.
//!
//! Two soft algorithms:
//!
//! - [`ExactLogMap`] — the optimal bitwise demapper
//!   `LLR_k = ln Σ_{i∈S⁰_k} e^{−‖y−c_i‖²/2σ²} − ln Σ_{i∈S¹_k} e^{−‖y−c_i‖²/2σ²}`,
//!   computed with stable log-sum-exp;
//! - [`MaxLogMap`] — the suboptimal demapper of Robertson et al. 1995
//!   used by the paper:
//!   `LLR_k = (min_{i∈S¹_k} ‖y−c_i‖² − min_{i∈S⁰_k} ‖y−c_i‖²) / 2σ²`,
//!   which replaces the exponential/logarithm pair with two running
//!   minima — the hardware-friendly form implemented by the FPGA
//!   soft-demapper accelerator.
//!
//! Both operate on any labelled point set ("centroids"): a conventional
//! constellation, or the centroids extracted from a trained demapper
//! ANN — that interchangeability is the paper's core idea.

use crate::constellation::Constellation;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::simd::{self, LaneWidth, Simd, SimdKernel};
use std::cell::RefCell;

/// Widest symbol (bits) the fixed stack buffers of the per-symbol
/// convenience paths support.
pub(crate) const MAX_BITS_PER_SYMBOL: usize = 16;

/// Largest labelled point set [`ExactLogMap`] supports (the size of its
/// fixed per-point metric buffer).
pub(crate) const MAX_EXACT_POINTS: usize = 256;

/// Symbols per internal tile of the point-outer block kernels. The
/// bit-major working planes of one tile (distances plus per-bit
/// min/max/sum lanes) must stay cache-resident or the point-outer
/// restructuring loses its advantage to memory traffic; at 256 symbols
/// the max-log working set is ~20 KB (L1-sized). With the vectorized
/// max-log tile kernel and its reusable thread-local scratch (the
/// per-tile allocations that once dragged long cold streams below the
/// per-symbol path are gone), block demap beats the per-symbol loop at
/// every length — ~12× at n=4096 on an AVX-512 host. That is an
/// invariant of `perf`: a full-budget run asserts
/// `max_log_block_n4096 ≥ max_log_per_symbol_n4096`. Tiling does not
/// affect results: symbols are independent.
pub const BLOCK_TILE: usize = 256;

/// A bit-level soft demapper.
pub trait Demapper: Send + Sync {
    /// Bits per symbol produced.
    fn bits_per_symbol(&self) -> usize;

    /// Demaps a whole block: writes `ys.len() * bits_per_symbol` LLRs
    /// to `out` in symbol-major order
    /// (`[sym0_bit0 … sym0_bit(m−1), sym1_bit0 …]`).
    ///
    /// The one receiver datapath every implementor supplies (a single
    /// N×2 ANN inference, point-outer distance tiles, the integer MVAU
    /// chain). A symbol's LLRs must not depend on the block it arrives
    /// in, so any split of a block demaps bit-identically.
    ///
    /// # Panics
    /// Panics unless `out.len() == ys.len() * bits_per_symbol()`.
    fn demap_block(&self, ys: &[C32], out: &mut [f32]);

    /// Writes `bits_per_symbol` LLRs for received sample `y` into
    /// `out[..bits_per_symbol]`: a one-symbol [`Demapper::demap_block`].
    fn llrs(&self, y: C32, out: &mut [f32]) {
        let m = self.bits_per_symbol();
        self.demap_block(std::slice::from_ref(&y), &mut out[..m]);
    }

    /// Hard decisions derived from LLR signs (negative ⇒ bit 1).
    fn hard_decide(&self, y: C32, out: &mut [u8]) {
        let m = self.bits_per_symbol();
        let mut llr = [0f32; MAX_BITS_PER_SYMBOL];
        assert!(
            m <= MAX_BITS_PER_SYMBOL,
            "hard_decide LLR buffer holds {MAX_BITS_PER_SYMBOL} bits, demapper produces {m}"
        );
        self.llrs(y, &mut llr[..m]);
        for (b, &l) in out[..m].iter_mut().zip(&llr[..m]) {
            *b = u8::from(l < 0.0);
        }
    }

    /// Block hard decisions: `ys.len() * bits_per_symbol` bits in
    /// symbol-major order, derived from [`Demapper::demap_block`].
    ///
    /// # Panics
    /// Panics unless `out.len() == ys.len() * bits_per_symbol()`.
    fn hard_decide_block(&self, ys: &[C32], out: &mut [u8]) {
        let m = self.bits_per_symbol();
        assert_eq!(
            out.len(),
            ys.len() * m,
            "hard_decide_block output buffer must hold exactly {} bits ({} symbols × {} bits)",
            ys.len() * m,
            ys.len(),
            m
        );
        let mut llr = vec![0f32; ys.len() * m];
        self.demap_block(ys, &mut llr);
        for (b, &l) in out.iter_mut().zip(&llr) {
            *b = u8::from(l < 0.0);
        }
    }
}

/// Forwarding impls: a shared reference or a shared-ownership handle
/// demaps exactly like the value it points to. `&D` lets long-lived
/// demappers (a trained `NeuralDemapper`, say) be handed out by
/// campaign demapper-family builders as `Box<dyn Demapper + '_>`
/// without cloning the weights. `Arc<D>` is what the backend registry
/// (`core::registry`) hands out, so one constructed demapper can be
/// shared by campaign family builders, online links and the link
/// server without cloning state, and plug straight into every
/// `&dyn Demapper` / `Box<dyn Demapper>` call site bit-exactly.
macro_rules! forward_demapper {
    ($($ptr:ty),+) => {$(
        impl<D: Demapper + ?Sized> Demapper for $ptr {
            fn bits_per_symbol(&self) -> usize {
                (**self).bits_per_symbol()
            }

            fn llrs(&self, y: C32, out: &mut [f32]) {
                (**self).llrs(y, out);
            }

            fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
                (**self).demap_block(ys, out);
            }

            fn hard_decide(&self, y: C32, out: &mut [u8]) {
                (**self).hard_decide(y, out);
            }

            fn hard_decide_block(&self, ys: &[C32], out: &mut [u8]) {
                (**self).hard_decide_block(ys, out);
            }
        }
    )+};
}

forward_demapper!(&D, std::sync::Arc<D>);

/// Per-bit point-subset membership, precomputed once per point set:
/// `one[i * m + k]` is true when bit `k` of label `i` is 1 (point `i`
/// belongs to subset `S¹_k`). Shared by the max-log and exact kernels
/// so the block loops never re-derive label bits in their hot paths.
#[derive(Clone, Debug)]
struct BitSubsets {
    one: Vec<bool>,
    m: usize,
}

impl BitSubsets {
    fn of(constellation: &Constellation) -> Self {
        let m = constellation.bits_per_symbol();
        let n = constellation.size();
        let mut one = vec![false; n * m];
        for i in 0..n {
            for k in 0..m {
                one[i * m + k] = constellation.bit(i, k) == 1;
            }
        }
        Self { one, m }
    }

    /// Subset row of point `i`: `row(i)[k]` ⇔ `i ∈ S¹_k`.
    #[inline]
    fn row(&self, i: usize) -> &[bool] {
        &self.one[i * self.m..(i + 1) * self.m]
    }
}

/// Exact bitwise log-MAP demapper.
pub struct ExactLogMap {
    constellation: Constellation,
    subsets: BitSubsets,
    two_sigma_sqr: f32,
}

impl ExactLogMap {
    /// Demapper over `constellation` with per-dimension noise σ.
    pub fn new(constellation: Constellation, sigma: f32) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        assert!(
            constellation.size() <= MAX_EXACT_POINTS,
            "ExactLogMap supports at most {MAX_EXACT_POINTS} points, constellation has {}",
            constellation.size()
        );
        Self {
            subsets: BitSubsets::of(&constellation),
            constellation,
            two_sigma_sqr: 2.0 * sigma * sigma,
        }
    }

    #[inline]
    fn metric(&self, y: C32, c: C32) -> f64 {
        // Metric per point: −‖y−c‖²/2σ².
        -(y.dist_sqr(c) as f64) / self.two_sigma_sqr as f64
    }
}

impl Demapper for ExactLogMap {
    fn bits_per_symbol(&self) -> usize {
        self.constellation.bits_per_symbol()
    }

    fn llrs(&self, y: C32, out: &mut [f32]) {
        let m = self.bits_per_symbol();
        debug_assert!(out.len() >= m);
        let pts = self.constellation.points();
        assert!(
            pts.len() <= MAX_EXACT_POINTS,
            "ExactLogMap metric buffer holds {MAX_EXACT_POINTS} points, constellation has {}",
            pts.len()
        );
        let mut metrics = [0f64; MAX_EXACT_POINTS];
        for (i, &c) in pts.iter().enumerate() {
            metrics[i] = self.metric(y, c);
        }
        for (k, o) in out.iter_mut().enumerate().take(m) {
            // Stable two-set log-sum-exp.
            let (mut max0, mut max1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (i, &mi) in metrics.iter().enumerate().take(pts.len()) {
                if self.subsets.row(i)[k] {
                    max1 = max1.max(mi);
                } else {
                    max0 = max0.max(mi);
                }
            }
            let (mut s0, mut s1) = (0f64, 0f64);
            for (i, &mi) in metrics.iter().enumerate().take(pts.len()) {
                if self.subsets.row(i)[k] {
                    s1 += (mi - max1).exp();
                } else {
                    s0 += (mi - max0).exp();
                }
            }
            *o = ((max0 + s0.ln()) - (max1 + s1.ln())) as f32;
        }
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        let m = self.bits_per_symbol();
        assert_eq!(
            out.len(),
            ys.len() * m,
            "demap_block output buffer must hold exactly {} LLRs",
            ys.len() * m
        );
        for (ys_t, out_t) in ys.chunks(BLOCK_TILE).zip(out.chunks_mut(BLOCK_TILE * m)) {
            self.demap_tile(ys_t, out_t);
        }
    }
}

impl ExactLogMap {
    /// Point-outer kernel over one cache-resident tile.
    fn demap_tile(&self, ys: &[C32], out: &mut [f32]) {
        let m = self.bits_per_symbol();
        let n = ys.len();
        let pts = self.constellation.points();
        assert!(
            pts.len() <= MAX_EXACT_POINTS,
            "ExactLogMap supports at most {MAX_EXACT_POINTS} points, constellation has {}",
            pts.len()
        );
        // Bit-major planes `plane[k*n + s]`: the point loop is outer, so
        // each centroid is loaded once per tile, and the inner
        // per-symbol sweeps are contiguous. Two passes keep the memory
        // footprint at O(m·n) instead of O(M·n): pass 1 finds the
        // per-subset maxima (exact max is order-insensitive), pass 2
        // recomputes the identical metrics and accumulates the shifted
        // exponentials in the same point order as the per-symbol path —
        // hence bit-exact.
        let mut max0 = vec![f64::NEG_INFINITY; m * n];
        let mut max1 = vec![f64::NEG_INFINITY; m * n];
        let mut metric = vec![0f64; n];
        for (i, &c) in pts.iter().enumerate() {
            for (mv, &y) in metric.iter_mut().zip(ys) {
                *mv = self.metric(y, c);
            }
            let row = self.subsets.row(i);
            for (k, &is_one) in row.iter().enumerate() {
                let plane = if is_one {
                    &mut max1[k * n..(k + 1) * n]
                } else {
                    &mut max0[k * n..(k + 1) * n]
                };
                for (p, &mv) in plane.iter_mut().zip(&metric) {
                    *p = p.max(mv);
                }
            }
        }
        let mut s0 = vec![0f64; m * n];
        let mut s1 = vec![0f64; m * n];
        for (i, &c) in pts.iter().enumerate() {
            for (mv, &y) in metric.iter_mut().zip(ys) {
                *mv = self.metric(y, c);
            }
            let row = self.subsets.row(i);
            for (k, &is_one) in row.iter().enumerate() {
                let (sums, maxima) = if is_one {
                    (&mut s1[k * n..(k + 1) * n], &max1[k * n..(k + 1) * n])
                } else {
                    (&mut s0[k * n..(k + 1) * n], &max0[k * n..(k + 1) * n])
                };
                for ((s, &mx), &mv) in sums.iter_mut().zip(maxima).zip(&metric) {
                    *s += (mv - mx).exp();
                }
            }
        }
        for (s, chunk) in out.chunks_exact_mut(m).enumerate() {
            for (k, o) in chunk.iter_mut().enumerate() {
                let l0 = max0[k * n + s] + s0[k * n + s].ln();
                let l1 = max1[k * n + s] + s1[k * n + s].ln();
                *o = (l0 - l1) as f32;
            }
        }
    }
}

/// Suboptimal max-log demapper (Robertson et al. 1995) — the paper's
/// "conventional soft-demapping algorithm".
pub struct MaxLogMap {
    constellation: Constellation,
    subsets: BitSubsets,
    inv_two_sigma_sqr: f32,
}

impl MaxLogMap {
    /// Demapper over `constellation` with per-dimension noise σ.
    pub fn new(constellation: Constellation, sigma: f32) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self {
            subsets: BitSubsets::of(&constellation),
            constellation,
            inv_two_sigma_sqr: 1.0 / (2.0 * sigma * sigma),
        }
    }

    /// The labelled point set in use.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Replaces the point set, keeping σ (used when new centroids are
    /// extracted after retraining). Rebuilds the per-bit subset masks.
    pub fn set_constellation(&mut self, constellation: Constellation) {
        self.subsets = BitSubsets::of(&constellation);
        self.constellation = constellation;
    }
}

impl Demapper for MaxLogMap {
    fn bits_per_symbol(&self) -> usize {
        self.constellation.bits_per_symbol()
    }

    fn llrs(&self, y: C32, out: &mut [f32]) {
        let m = self.bits_per_symbol();
        debug_assert!(out.len() >= m);
        assert!(
            m <= MAX_BITS_PER_SYMBOL,
            "MaxLogMap min buffers hold {MAX_BITS_PER_SYMBOL} bits, constellation has {m}"
        );
        // One pass: for every bit position track min distance over the
        // 0-labelled and 1-labelled subsets.
        let mut min0 = [f32::INFINITY; MAX_BITS_PER_SYMBOL];
        let mut min1 = [f32::INFINITY; MAX_BITS_PER_SYMBOL];
        for (i, &c) in self.constellation.points().iter().enumerate() {
            let d = y.dist_sqr(c);
            let row = self.subsets.row(i);
            for (k, &is_one) in row.iter().enumerate() {
                if is_one {
                    if d < min1[k] {
                        min1[k] = d;
                    }
                } else if d < min0[k] {
                    min0[k] = d;
                }
            }
        }
        for k in 0..m {
            // ln P0 − ln P1 ≈ (min over 1-set − min over 0-set)/2σ².
            out[k] = (min1[k] - min0[k]) * self.inv_two_sigma_sqr;
        }
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        self.demap_block_at(LaneWidth::detect(), ys, out);
    }
}

/// Reusable working planes of the vectorized max-log tile kernel
/// (split-component samples plus the bit-major running-min planes).
/// Thread-local so `demap_tile_at` allocates only on each thread's first
/// tile: per-tile `vec!` allocations were what dragged the block path
/// below the per-symbol loop on long cold streams (n ≳ 4096).
struct MaxLogScratch {
    yr: Vec<f32>,
    yi: Vec<f32>,
    min0: Vec<f32>,
    min1: Vec<f32>,
}

thread_local! {
    static MAXLOG_SCRATCH: RefCell<MaxLogScratch> = const {
        RefCell::new(MaxLogScratch {
            yr: Vec::new(),
            yi: Vec::new(),
            min0: Vec::new(),
            min1: Vec::new(),
        })
    };
}

/// The point-outer max-log tile, written once over `Simd` lanes and
/// monomorphised at the probed width by [`simd::dispatch_at`]. Lanes run
/// across symbols: one distance vector per chunk feeds the per-bit
/// running-min planes the subset masks select. Same distance
/// expression (`dr·dr + di·di`), point order and strict-`<` min update
/// as the scalar `llrs` loop ⇒ bit-exact at every width.
struct MaxLogTile<'a> {
    pts: &'a [C32],
    subsets: &'a BitSubsets,
    inv_two_sigma_sqr: f32,
    ys: &'a [C32],
    out: &'a mut [f32],
    scratch: &'a mut MaxLogScratch,
}

impl SimdKernel for MaxLogTile<'_> {
    type Output = ();

    fn run<const N: usize>(self) {
        let m = self.subsets.m;
        let n = self.ys.len();
        let sc = self.scratch;
        sc.yr.clear();
        sc.yr.extend(self.ys.iter().map(|y| y.re));
        sc.yi.clear();
        sc.yi.extend(self.ys.iter().map(|y| y.im));
        sc.min0.clear();
        sc.min0.resize(m * n, f32::INFINITY);
        sc.min1.clear();
        sc.min1.resize(m * n, f32::INFINITY);
        let s_vec = n - n % N;
        for (i, &c) in self.pts.iter().enumerate() {
            let row = self.subsets.row(i);
            let cr = Simd::<f32, N>::splat(c.re);
            let ci = Simd::<f32, N>::splat(c.im);
            let mut s = 0;
            while s < s_vec {
                // Distances of one symbol chunk stay in a register
                // while every bit plane consumes them.
                let dr = Simd::<f32, N>::load(&sc.yr[s..]).sub(cr);
                let di = Simd::<f32, N>::load(&sc.yi[s..]).sub(ci);
                let d = dr.mul(dr).add(di.mul(di));
                for (k, &is_one) in row.iter().enumerate() {
                    let plane = if is_one { &mut sc.min1 } else { &mut sc.min0 };
                    let p = &mut plane[k * n + s..];
                    Simd::<f32, N>::load(p).min(d).store(p);
                }
                s += N;
            }
            for s in s_vec..n {
                let dr = sc.yr[s] - c.re;
                let di = sc.yi[s] - c.im;
                let d = dr * dr + di * di;
                for (k, &is_one) in row.iter().enumerate() {
                    let p = if is_one {
                        &mut sc.min1[k * n + s]
                    } else {
                        &mut sc.min0[k * n + s]
                    };
                    if d < *p {
                        *p = d;
                    }
                }
            }
        }
        for (s, chunk) in self.out.chunks_exact_mut(m).enumerate() {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o = (sc.min1[k * n + s] - sc.min0[k * n + s]) * self.inv_two_sigma_sqr;
            }
        }
    }
}

impl MaxLogMap {
    /// Point-outer kernel over one cache-resident tile at lane width
    /// `width`.
    fn demap_tile_at(&self, width: LaneWidth, ys: &[C32], out: &mut [f32]) {
        MAXLOG_SCRATCH.with(|sc| {
            simd::dispatch_at(
                width,
                MaxLogTile {
                    pts: self.constellation.points(),
                    subsets: &self.subsets,
                    inv_two_sigma_sqr: self.inv_two_sigma_sqr,
                    ys,
                    out,
                    scratch: &mut sc.borrow_mut(),
                },
            );
        });
    }

    /// [`Demapper::demap_block`] pinned to an explicit [`LaneWidth`] —
    /// the hook the property tests use to prove the tile kernel
    /// bit-exact at every supported width. Results never depend on
    /// `width`; hot paths should use the trait method, which dispatches
    /// at the probed width.
    ///
    /// # Panics
    /// Panics unless `out.len() == ys.len() * bits_per_symbol()`.
    pub fn demap_block_at(&self, width: LaneWidth, ys: &[C32], out: &mut [f32]) {
        let m = self.bits_per_symbol();
        assert_eq!(
            out.len(),
            ys.len() * m,
            "demap_block output buffer must hold exactly {} LLRs",
            ys.len() * m
        );
        for (ys_t, out_t) in ys.chunks(BLOCK_TILE).zip(out.chunks_mut(BLOCK_TILE * m)) {
            self.demap_tile_at(width, ys_t, out_t);
        }
    }
}

/// Hard nearest-neighbour decision (no soft output): the classical
/// minimum-distance symbol demapper, exposed through the same trait by
/// emitting ±1-scaled pseudo-LLRs.
pub struct HardNearest {
    constellation: Constellation,
}

impl HardNearest {
    /// Hard demapper over `constellation`.
    pub fn new(constellation: Constellation) -> Self {
        Self { constellation }
    }
}

impl Demapper for HardNearest {
    fn bits_per_symbol(&self) -> usize {
        self.constellation.bits_per_symbol()
    }

    fn llrs(&self, y: C32, out: &mut [f32]) {
        let m = self.bits_per_symbol();
        let u = self.constellation.nearest(y);
        for (k, o) in out.iter_mut().enumerate().take(m) {
            *o = if self.constellation.bit(u, k) == 0 {
                1.0
            } else {
                -1.0
            };
        }
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        let m = self.bits_per_symbol();
        assert_eq!(
            out.len(),
            ys.len() * m,
            "demap_block output buffer must hold exactly {} LLRs",
            ys.len() * m
        );
        for (ys_t, out_t) in ys.chunks(BLOCK_TILE).zip(out.chunks_mut(BLOCK_TILE * m)) {
            self.demap_tile(ys_t, out_t);
        }
    }
}

impl HardNearest {
    /// Point-outer kernel over one cache-resident tile.
    fn demap_tile(&self, ys: &[C32], out: &mut [f32]) {
        let m = self.bits_per_symbol();
        let n = ys.len();
        // Point-outer nearest search: strict `<` with first-point-wins
        // tie-breaking, exactly `Constellation::nearest`.
        let mut best_d = vec![f32::INFINITY; n];
        let mut best_u = vec![0usize; n];
        for (i, &c) in self.constellation.points().iter().enumerate() {
            for (s, &y) in ys.iter().enumerate() {
                let d = y.dist_sqr(c);
                if d < best_d[s] {
                    best_d[s] = d;
                    best_u[s] = i;
                }
            }
        }
        for (&u, chunk) in best_u.iter().zip(out.chunks_exact_mut(m)) {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o = if self.constellation.bit(u, k) == 0 {
                    1.0
                } else {
                    -1.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bit_of;

    fn qam16() -> Constellation {
        Constellation::qam_gray(16)
    }

    #[test]
    fn clean_symbol_gives_correct_hard_decisions() {
        let sigma = 0.1;
        let exact = ExactLogMap::new(qam16(), sigma);
        let maxlog = MaxLogMap::new(qam16(), sigma);
        let hard = HardNearest::new(qam16());
        let mut bits = [0u8; 4];
        for u in 0..16 {
            let y = qam16().point(u);
            for demapper in [&exact as &dyn Demapper, &maxlog, &hard] {
                demapper.hard_decide(y, &mut bits);
                for (k, &b) in bits.iter().enumerate() {
                    assert_eq!(b, bit_of(u, 4, k), "symbol {u} bit {k}");
                }
            }
        }
    }

    #[test]
    fn maxlog_matches_exact_at_high_snr() {
        // As σ→0 the log-sum-exp is dominated by its max term, so the
        // two demappers converge.
        let sigma = 0.02f32;
        let exact = ExactLogMap::new(qam16(), sigma);
        let maxlog = MaxLogMap::new(qam16(), sigma);
        let y = C32::new(0.21, -0.43);
        let mut l1 = [0f32; 4];
        let mut l2 = [0f32; 4];
        exact.llrs(y, &mut l1);
        maxlog.llrs(y, &mut l2);
        for k in 0..4 {
            let rel = ((l1[k] - l2[k]) / l1[k].abs().max(1.0)).abs();
            assert!(rel < 1e-3, "bit {k}: exact {} vs maxlog {}", l1[k], l2[k]);
        }
    }

    #[test]
    fn maxlog_is_optimistic_about_magnitudes() {
        // |LLR_maxlog| ≥ |LLR_exact| is not universally true per-bit, but
        // the max-log llr equals exact when each subset has a single
        // dominant term. At least check same signs at moderate noise.
        let sigma = 0.3f32;
        let exact = ExactLogMap::new(qam16(), sigma);
        let maxlog = MaxLogMap::new(qam16(), sigma);
        let mut l1 = [0f32; 4];
        let mut l2 = [0f32; 4];
        let mut rng = hybridem_mathkit::rng::Xoshiro256pp::seed_from_u64(8);
        for _ in 0..200 {
            let y = C32::new(rng.normal_f32(), rng.normal_f32());
            exact.llrs(y, &mut l1);
            maxlog.llrs(y, &mut l2);
            for k in 0..4 {
                if l1[k].abs() > 0.5 {
                    assert_eq!(l1[k] > 0.0, l2[k] > 0.0, "sign flip at {y} bit {k}");
                }
            }
        }
    }

    #[test]
    fn llr_scales_inverse_with_noise_power() {
        let y = C32::new(0.1, 0.2);
        let a = MaxLogMap::new(qam16(), 0.1);
        let b = MaxLogMap::new(qam16(), 0.2);
        let mut la = [0f32; 4];
        let mut lb = [0f32; 4];
        a.llrs(y, &mut la);
        b.llrs(y, &mut lb);
        for k in 0..4 {
            assert!(
                (la[k] / lb[k] - 4.0).abs() < 1e-3,
                "σ² ratio 4 ⇒ LLR ratio 4"
            );
        }
    }

    #[test]
    fn symmetric_point_gives_zero_llr() {
        // On the I axis midway in Q, the Q-deciding bit is ambiguous.
        let maxlog = MaxLogMap::new(qam16(), 0.2);
        let mut l = [0f32; 4];
        // Centre of the constellation: first bit of each axis undecided.
        maxlog.llrs(C32::new(0.0, 0.0), &mut l);
        // The sign bits (axis polarity) must be exactly balanced.
        assert!(l[0].abs() < 1e-4);
        assert!(l[2].abs() < 1e-4);
    }

    #[test]
    fn hard_nearest_pseudo_llrs_are_unit() {
        let hard = HardNearest::new(qam16());
        let mut l = [0f32; 4];
        hard.llrs(C32::new(0.4, 0.4), &mut l);
        assert!(l.iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn works_on_rotated_centroids() {
        // The hybrid use-case: demap with a rotated point set.
        let theta = std::f32::consts::FRAC_PI_4;
        let rot = qam16().rotated(theta);
        let maxlog = MaxLogMap::new(rot.clone(), 0.1);
        let mut bits = [0u8; 4];
        for u in 0..16 {
            maxlog.hard_decide(rot.point(u), &mut bits);
            for (k, &b) in bits.iter().enumerate() {
                assert_eq!(b, bit_of(u, 4, k));
            }
        }
    }

    #[test]
    fn block_path_is_bit_exact_on_qam64() {
        // Spot check on a wider constellation (the property tests sweep
        // random blocks); m = 6 exercises non-power-of-two strides.
        let c = Constellation::qam_gray(64);
        let sigma = 0.15f32;
        let demappers: Vec<Box<dyn Demapper>> = vec![
            Box::new(ExactLogMap::new(c.clone(), sigma)),
            Box::new(MaxLogMap::new(c.clone(), sigma)),
            Box::new(HardNearest::new(c.clone())),
        ];
        let mut rng = hybridem_mathkit::rng::Xoshiro256pp::seed_from_u64(5);
        let ys: Vec<C32> = (0..97)
            .map(|_| C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect();
        for d in &demappers {
            let m = d.bits_per_symbol();
            let mut block = vec![0f32; ys.len() * m];
            d.demap_block(&ys, &mut block);
            let mut single = vec![0f32; m];
            for (s, &y) in ys.iter().enumerate() {
                d.llrs(y, &mut single);
                assert_eq!(&block[s * m..(s + 1) * m], &single[..], "symbol {s}");
            }
        }
    }

    #[test]
    fn empty_and_single_symbol_blocks() {
        let maxlog = MaxLogMap::new(qam16(), 0.2);
        let mut none: [f32; 0] = [];
        maxlog.demap_block(&[], &mut none);
        let y = C32::new(0.3, -0.2);
        let mut one = [0f32; 4];
        maxlog.demap_block(&[y], &mut one);
        let mut reference = [0f32; 4];
        maxlog.llrs(y, &mut reference);
        assert_eq!(one, reference);
    }

    #[test]
    fn hard_decide_block_matches_per_symbol() {
        let maxlog = MaxLogMap::new(qam16(), 0.2);
        let mut rng = hybridem_mathkit::rng::Xoshiro256pp::seed_from_u64(12);
        let ys: Vec<C32> = (0..33)
            .map(|_| C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect();
        let mut block = vec![0u8; ys.len() * 4];
        maxlog.hard_decide_block(&ys, &mut block);
        let mut single = [0u8; 4];
        for (s, &y) in ys.iter().enumerate() {
            maxlog.hard_decide(y, &mut single);
            assert_eq!(&block[s * 4..(s + 1) * 4], &single[..]);
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 points")]
    fn exact_log_map_rejects_oversized_point_sets() {
        // 512 unlabelled-but-indexed points exceed the fixed metric
        // buffer; construction must fail loudly, not index-panic later.
        let pts: Vec<C32> = (0..512).map(|i| C32::from_angle(i as f32 * 0.01)).collect();
        let _ = ExactLogMap::new(Constellation::from_points(pts), 0.2);
    }

    #[test]
    #[should_panic(expected = "output buffer must hold exactly")]
    fn demap_block_rejects_wrong_buffer_length() {
        let maxlog = MaxLogMap::new(qam16(), 0.2);
        let mut out = [0f32; 7]; // 2 symbols × 4 bits ≠ 7
        maxlog.demap_block(&[C32::zero(), C32::zero()], &mut out);
    }
}
