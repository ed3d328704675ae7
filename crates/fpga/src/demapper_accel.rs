//! The hybrid soft-demapper accelerator.
//!
//! Hardware form of the paper's suboptimal max-log demapper running on
//! extracted centroids (§III-A):
//!
//! `llr(b_k|s_r) = 1/2σ² · [ min_{i∈S¹_k}(s_r−c_i)² − min_{i∈S⁰_k}(s_r−c_i)² ]`
//!
//! Datapath: a centroid ROM, `dist_par` parallel distance units
//! (two subtractors + two LUT-fabric squarers + one adder each — LUT
//! squarers are deliberate: the whole point of the hybrid design is to
//! leave the DSP column free), per-bit running min trees, and a single
//! DSP multiplying the min-difference by the constant `1/2σ²`.
//!
//! With `dist_par = 8` and 16 centroids the unit accepts a symbol every
//! 2 cycles through an 8-stage pipeline — at 150 MHz exactly the
//! paper's 53.3 ns latency and 75 Msymbols/s throughput.

use crate::pipeline::{ExecutionMode, PipelineTiming, StageTiming};
use crate::resources::{self, ResourceUsage};
use hybridem_comm::demapper::Demapper;
use hybridem_fixed::{QFormat, Rounding};
use hybridem_mathkit::complex::C32;
use std::cell::RefCell;

/// Most bits a centroid set can encode (bounds the stack planes that
/// keep the per-symbol [`SoftDemapperAccel::process_into`]
/// allocation-free).
const MAX_BITS: usize = 16;

/// Reusable block-kernel buffers. One set per thread: the link
/// simulator demaps from many Monte-Carlo workers through
/// `&dyn Demapper`, and thread-locals keep the integer path
/// allocation-free after warm-up without serialising the workers.
#[derive(Default)]
struct TileScratch {
    quant: Vec<(i64, i64)>,
    min0: Vec<i64>,
    min1: Vec<i64>,
    dist: Vec<i64>,
}

thread_local! {
    static TILE_SCRATCH: RefCell<TileScratch> = RefCell::new(TileScratch::default());
    /// Raw-LLR staging for the f32 block view — separate cell so the
    /// block kernel can borrow `TILE_SCRATCH` while this is held.
    static RAW_SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
}

/// Configuration of the accelerator.
#[derive(Clone, Debug)]
pub struct SoftDemapperConfig {
    /// Fixed-point format of inputs and centroids.
    pub(crate) coord_format: QFormat,
    /// Output LLR format.
    pub(crate) llr_format: QFormat,
    /// Parallel distance units (must divide the centroid count).
    pub(crate) dist_par: usize,
    /// Fabric clock in MHz.
    pub(crate) clock_mhz: f64,
}

impl SoftDemapperConfig {
    /// The paper-calibrated configuration: 8-bit coordinates, 16-bit
    /// LLRs, 8 distance units, 150 MHz.
    pub fn paper_default() -> Self {
        Self {
            coord_format: QFormat::signed(8, 5),
            llr_format: QFormat::signed(16, 8),
            dist_par: 8,
            clock_mhz: 150.0,
        }
    }
}

/// The configured accelerator with quantised centroids.
#[derive(Clone, Debug)]
pub struct SoftDemapperAccel {
    cfg: SoftDemapperConfig,
    /// Quantised centroids (re, im) raw pairs; index = bit label.
    centroids: Vec<(i64, i64)>,
    bits_per_symbol: usize,
    /// Raw constant `1/2σ²` in the scale format.
    scale_raw: i64,
    scale_format: QFormat,
}

impl SoftDemapperAccel {
    /// Builds the accelerator for a set of labelled centroids and a
    /// noise level σ.
    pub fn new(cfg: SoftDemapperConfig, centroids: &[C32], sigma: f32) -> Self {
        let m = centroids.len();
        assert!(m >= 2 && m.is_power_of_two(), "centroid count must be 2^k");
        assert!(
            m.is_multiple_of(cfg.dist_par),
            "dist_par must divide centroid count"
        );
        assert!(
            (m.trailing_zeros() as usize) <= MAX_BITS,
            "at most {MAX_BITS} bits per symbol"
        );
        assert!(sigma > 0.0);
        let quant: Vec<(i64, i64)> = centroids
            .iter()
            .map(|c| {
                (
                    cfg.coord_format
                        .raw_from_f64(c.re as f64, Rounding::Nearest),
                    cfg.coord_format
                        .raw_from_f64(c.im as f64, Rounding::Nearest),
                )
            })
            .collect();
        // The scale constant: unsigned, chosen with enough integer bits
        // for low-SNR (large 1/2σ²) operation.
        let scale_format = QFormat::unsigned(16, 8);
        let scale_raw =
            scale_format.raw_from_f64(1.0 / (2.0 * sigma as f64 * sigma as f64), Rounding::Nearest);
        Self {
            bits_per_symbol: m.trailing_zeros() as usize,
            cfg,
            centroids: quant,
            scale_raw,
            scale_format,
        }
    }

    /// Bit-exact demap of one received symbol: returns raw LLRs in
    /// `llr_format` (positive ⇒ bit 0). Legacy allocating entry point —
    /// routes through `SoftDemapperAccel::process_into`.
    pub fn process(&self, y: C32) -> Vec<i64> {
        let mut out = vec![0i64; self.bits_per_symbol];
        self.process_into(y, &mut out);
        out
    }

    /// Allocation-free per-symbol demap: raw LLRs in `llr_format` into
    /// `out` (`bits_per_symbol` values, positive ⇒ bit 0).
    pub(crate) fn process_into(&self, y: C32, out: &mut [i64]) {
        let m = self.bits_per_symbol;
        assert_eq!(out.len(), m, "process_into output width");
        let f = self.cfg.coord_format;
        let y_re = f.raw_from_f64(y.re as f64, Rounding::Nearest);
        let y_im = f.raw_from_f64(y.im as f64, Rounding::Nearest);
        // Distance accumulator: (2·coord_bits + 1) bits of headroom,
        // exact in i64. Stack planes (m ≤ MAX_BITS) keep this alloc-free.
        let mut min0 = [i64::MAX; MAX_BITS];
        let mut min1 = [i64::MAX; MAX_BITS];
        for (i, &(c_re, c_im)) in self.centroids.iter().enumerate() {
            let dr = y_re - c_re;
            let di = y_im - c_im;
            let d = dr * dr + di * di;
            for k in 0..m {
                let bit = (i >> (m - 1 - k)) & 1;
                if bit == 0 {
                    if d < min0[k] {
                        min0[k] = d;
                    }
                } else if d < min1[k] {
                    min1[k] = d;
                }
            }
        }
        // Distance format: coord² has 2×frac fraction bits. The
        // subtraction is exact; multiplying by the quantised 1/2σ² (one
        // DSP) gives dist_frac + scale_frac fraction bits, then a cast
        // to llr_format.
        let dist_frac = 2 * f.frac_bits;
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.scale_raw_llr(min1[k] - min0[k], dist_frac);
        }
    }

    /// Scales a min-difference to the raw LLR format (the DSP stage).
    #[inline]
    fn scale_raw_llr(&self, diff: i64, dist_frac: u32) -> i64 {
        let prod = diff as i128 * self.scale_raw as i128;
        let shift =
            (dist_frac + self.scale_format.frac_bits) as i32 - self.cfg.llr_format.frac_bits as i32;
        let raw = if shift >= 0 {
            (prod >> shift) as i64
        } else {
            (prod << (-shift)) as i64
        };
        self.cfg.llr_format.saturate(raw).0
    }

    /// Bit-exact block demap: raw LLRs in `llr_format`, symbol-major
    /// (`out.len() == ys.len() * bits_per_symbol`). This is the
    /// streaming view of the pipelined datapath — inputs are quantised
    /// once, then the centroid ROM is swept in the outer loop with the
    /// per-bit running-min planes held across the whole block. Results
    /// equal a [`SoftDemapperAccel::process`] loop exactly (integer
    /// arithmetic throughout).
    pub fn process_block(&self, ys: &[C32], out: &mut [i64]) {
        let m = self.bits_per_symbol;
        assert_eq!(
            out.len(),
            ys.len() * m,
            "process_block output buffer must hold exactly {} LLRs",
            ys.len() * m
        );
        // Tile so the running-min planes stay cache-resident (see
        // `hybridem_comm::demapper::BLOCK_TILE`); symbols are
        // independent, so tiling cannot change results.
        const TILE: usize = hybridem_comm::demapper::BLOCK_TILE;
        for (ys_t, out_t) in ys.chunks(TILE).zip(out.chunks_mut(TILE * m)) {
            self.process_tile(ys_t, out_t);
        }
    }

    /// Integer point-outer kernel over one cache-resident tile. All
    /// staging buffers live in a per-thread scratch, so a warm thread
    /// allocates nothing.
    fn process_tile(&self, ys: &[C32], out: &mut [i64]) {
        let m = self.bits_per_symbol;
        let n = ys.len();
        let f = self.cfg.coord_format;
        TILE_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.quant.clear();
            s.quant.extend(ys.iter().map(|y| {
                (
                    f.raw_from_f64(y.re as f64, Rounding::Nearest),
                    f.raw_from_f64(y.im as f64, Rounding::Nearest),
                )
            }));
            s.min0.clear();
            s.min0.resize(m * n, i64::MAX);
            s.min1.clear();
            s.min1.resize(m * n, i64::MAX);
            s.dist.resize(n, 0);
            for (i, &(c_re, c_im)) in self.centroids.iter().enumerate() {
                for (d, &(y_re, y_im)) in s.dist.iter_mut().zip(&s.quant) {
                    let dr = y_re - c_re;
                    let di = y_im - c_im;
                    *d = dr * dr + di * di;
                }
                for k in 0..m {
                    let bit = (i >> (m - 1 - k)) & 1;
                    let plane = if bit == 0 {
                        &mut s.min0[k * n..(k + 1) * n]
                    } else {
                        &mut s.min1[k * n..(k + 1) * n]
                    };
                    for (p, &d) in plane.iter_mut().zip(&s.dist) {
                        if d < *p {
                            *p = d;
                        }
                    }
                }
            }
            let dist_frac = 2 * f.frac_bits;
            for (sym, chunk) in out.chunks_exact_mut(m).enumerate() {
                for (k, o) in chunk.iter_mut().enumerate() {
                    *o = self.scale_raw_llr(s.min1[k * n + sym] - s.min0[k * n + sym], dist_frac);
                }
            }
        });
    }

    /// Pipeline timing: distance wave-front (II = M/dist_par), running
    /// min + tree, difference, scale.
    pub fn timing(&self) -> PipelineTiming {
        let m = self.centroids.len();
        let waves = (m / self.cfg.dist_par) as u64;
        let tree_depth = (usize::BITS - (self.cfg.dist_par - 1).leading_zeros()).max(1) as u64;
        let stages = vec![
            // Distance units: subtract, square, add (3 levels), folded
            // over `waves` beats.
            StageTiming {
                ii: waves,
                depth: waves + 1,
            },
            // Per-bit min tree over one wave + running min across waves.
            StageTiming {
                ii: waves,
                depth: tree_depth.max(waves),
            },
            // min1 − min0.
            StageTiming {
                ii: waves,
                depth: 1,
            },
            // DSP scale.
            StageTiming {
                ii: waves,
                depth: 1,
            },
        ];
        PipelineTiming::new(stages, ExecutionMode::Pipelined, self.cfg.clock_mhz)
    }

    /// Structural resources.
    pub fn resources(&self) -> ResourceUsage {
        let cb = self.cfg.coord_format.total_bits;
        let dist_bits = 2 * cb + 1;
        // The min network compares LSB-truncated distances (max-log only
        // needs distance *ordering*; 12 bits of a 17-bit metric keep the
        // ordering of any pair whose gap matters at 8-bit coordinates).
        let cmp_bits = dist_bits.min(12);
        let m = self.centroids.len();
        let mut r = ResourceUsage::zero();
        // Distance units: 2 subtractors, 2 LUT squarers, 1 adder.
        let squarer = ResourceUsage {
            // A dedicated squarer is about half a generic multiplier.
            lut: ((cb * cb) as u64).div_ceil(4),
            ff: (2 * cb) as u64,
            ..Default::default()
        };
        let dist_unit =
            resources::adder(cb).times(2) + squarer.times(2) + resources::adder(dist_bits);
        r += dist_unit.times(self.cfg.dist_par as u64);
        // Centroid ROM (small → LUTRAM).
        r += resources::memory((m as u64) * 2 * cb as u64, 2 * cb);
        // Per-bit position: two min trees over dist_par entries plus a
        // running-min register pair.
        let min_tree = resources::reduction_tree(
            self.cfg.dist_par,
            resources::comparator(cmp_bits) + resources::mux2(cmp_bits),
        );
        r += (min_tree.times(2)
            + resources::register(cmp_bits).times(2)
            + resources::comparator(cmp_bits).times(2))
        .times(self.bits_per_symbol as u64);
        // Difference per bit.
        r += resources::adder(cmp_bits).times(self.bits_per_symbol as u64);
        // One shared DSP for the 1/2σ² scaling (time-multiplexed over
        // the bit positions during the II window).
        r += ResourceUsage {
            dsp: 1,
            ff: (self.cfg.llr_format.total_bits * self.bits_per_symbol as u32) as u64,
            ..Default::default()
        };
        // Control.
        r += ResourceUsage {
            lut: 60,
            ff: 40,
            ..Default::default()
        };
        r
    }
}

/// The accelerator is a drop-in receiver demapper: the bit-exact
/// quantised datapath slots straight into the link simulator and the
/// frame receiver through the workspace [`Demapper`] trait.
/// `demap_block` is [`SoftDemapperAccel::process_block`] with every raw
/// LLR dequantised to f32, symbol-major.
impl Demapper for SoftDemapperAccel {
    fn bits_per_symbol(&self) -> usize {
        self.bits_per_symbol
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        RAW_SCRATCH.with(|cell| {
            let raws = &mut *cell.borrow_mut();
            raws.resize(out.len(), 0);
            self.process_block(ys, raws);
            for (o, &r) in out.iter_mut().zip(raws.iter()) {
                *o = self.cfg.llr_format.f64_from_raw(r) as f32;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_comm::constellation::Constellation;
    use hybridem_comm::demapper::MaxLogMap;

    /// The dequantised centroids the hardware effectively uses.
    fn effective_centroids(hw: &SoftDemapperAccel) -> Vec<C32> {
        hw.centroids
            .iter()
            .map(|&(re, im)| {
                C32::new(
                    hw.cfg.coord_format.f64_from_raw(re) as f32,
                    hw.cfg.coord_format.f64_from_raw(im) as f32,
                )
            })
            .collect()
    }

    fn accel(sigma: f32) -> SoftDemapperAccel {
        let c = Constellation::qam_gray(16);
        SoftDemapperAccel::new(SoftDemapperConfig::paper_default(), c.points(), sigma)
    }

    #[test]
    fn matches_float_maxlog_decisions() {
        let sigma = 0.2f32;
        let hw = accel(sigma);
        // Float reference on the *quantised* centroids.
        let eff = Constellation::from_points(effective_centroids(&hw));
        let reference = MaxLogMap::new(eff, sigma);
        let mut rng = hybridem_mathkit::rng::Xoshiro256pp::seed_from_u64(3);
        let mut llr_hw = [0f32; 4];
        let mut llr_ref = [0f32; 4];
        let mut agree = 0usize;
        let total = 2000usize;
        for _ in 0..total {
            let y = C32::new(rng.normal_f32() * 0.7, rng.normal_f32() * 0.7);
            hw.llrs(y, &mut llr_hw);
            reference.llrs(y, &mut llr_ref);
            for k in 0..4 {
                // Decisions must agree except for near-zero LLRs where
                // input quantisation can flip the sign.
                if llr_ref[k].abs() > 0.5 {
                    if (llr_hw[k] < 0.0) == (llr_ref[k] < 0.0) {
                        agree += 1;
                    }
                } else {
                    agree += 1;
                }
            }
        }
        let rate = agree as f64 / (4 * total) as f64;
        assert!(rate > 0.995, "decision agreement {rate}");
    }

    #[test]
    fn llr_magnitude_tracks_reference() {
        let sigma = 0.2f32;
        let hw = accel(sigma);
        let eff = Constellation::from_points(effective_centroids(&hw));
        let reference = MaxLogMap::new(eff, sigma);
        let mut llr_hw = [0f32; 4];
        let mut llr_ref = [0f32; 4];
        let y = C32::new(0.31, -0.62);
        hw.llrs(y, &mut llr_hw);
        reference.llrs(y, &mut llr_ref);
        for k in 0..4 {
            let err = (llr_hw[k] - llr_ref[k]).abs();
            // Quantisation of input coords (Q2.5) and LLR (Q8.8) bounds
            // the error; allow a generous envelope.
            assert!(err < 1.5, "bit {k}: hw {} vs ref {}", llr_hw[k], llr_ref[k]);
        }
    }

    #[test]
    fn paper_timing_point() {
        let hw = accel(0.2);
        let t = hw.timing();
        // 16 centroids / 8 units → II 2 at 150 MHz = 75 Msym/s.
        assert_eq!(t.ii_cycles(), 2);
        assert!((t.throughput_per_s() - 7.5e7).abs() < 1.0);
        // 8-cycle depth → 53.3 ns.
        assert_eq!(t.total_depth_cycles(), 8);
        assert!((t.latency_s() - 5.33e-8).abs() < 0.05e-8);
    }

    #[test]
    fn uses_exactly_one_dsp() {
        let hw = accel(0.2);
        let r = hw.resources();
        assert_eq!(
            r.dsp, 1,
            "the hybrid demapper must not consume the DSP column"
        );
        assert_eq!(r.bram36, 0.0, "centroid ROM fits LUTRAM");
        // LUT/FF in the right magnitude (paper: 1107 LUT, 1042 FF).
        assert!(r.lut > 400 && r.lut < 4000, "LUT {}", r.lut);
        assert!(r.ff > 300 && r.ff < 4000, "FF {}", r.ff);
    }

    #[test]
    fn more_distance_units_cost_more_but_run_faster() {
        let c = Constellation::qam_gray(16);
        let mut cfg_slow = SoftDemapperConfig::paper_default();
        cfg_slow.dist_par = 2;
        let slow = SoftDemapperAccel::new(cfg_slow, c.points(), 0.2);
        let fast = accel(0.2);
        assert!(slow.resources().lut < fast.resources().lut);
        assert!(slow.timing().ii_cycles() > fast.timing().ii_cycles());
    }

    #[test]
    fn clean_symbols_decode_correctly() {
        let hw = accel(0.15);
        let c = Constellation::qam_gray(16);
        for u in 0..16 {
            let llrs = hw.process(c.point(u));
            for (k, &l) in llrs.iter().enumerate() {
                let bit = (u >> (3 - k)) & 1;
                if bit == 0 {
                    assert!(l > 0, "symbol {u} bit {k}: llr {l}");
                } else {
                    assert!(l < 0, "symbol {u} bit {k}: llr {l}");
                }
            }
        }
    }
}
