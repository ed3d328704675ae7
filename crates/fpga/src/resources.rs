//! Structural resource costing.
//!
//! FINN-style HLS datapaths have very predictable synthesis results:
//! carry-chain adders cost ≈1 LUT/bit, registers 1 FF/bit, wide
//! multiplies map to DSP48 slices, narrow ones to LUT fabric. The
//! constants here are the standard rules of thumb for UltraScale+
//! parts; they are *models*, not measurements, and the Table-2
//! reproduction in EXPERIMENTS.md compares their outputs against the
//! paper's reported utilisation.

use std::ops::{Add, AddAssign};

/// LUT/FF/DSP/BRAM usage of a module or design.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResourceUsage {
    /// 6-input LUTs.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP48 slices.
    pub dsp: u64,
    /// 36 Kb BRAM equivalents (0.5 = one 18 Kb half).
    pub bram36: f64,
}

hybridem_mathkit::impl_json!(ResourceUsage {
    lut,
    ff,
    dsp,
    bram36
});

impl ResourceUsage {
    /// The zero usage.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Scales usage by an integer replication factor.
    pub fn times(&self, n: u64) -> Self {
        Self {
            lut: self.lut * n,
            ff: self.ff * n,
            dsp: self.dsp * n,
            bram36: self.bram36 * n as f64,
        }
    }
}

impl Add for ResourceUsage {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self {
            lut: self.lut + o.lut,
            ff: self.ff + o.ff,
            dsp: self.dsp + o.dsp,
            bram36: self.bram36 + o.bram36,
        }
    }
}

impl AddAssign for ResourceUsage {
    fn add_assign(&mut self, o: Self) {
        self.lut += o.lut;
        self.ff += o.ff;
        self.dsp += o.dsp;
        self.bram36 += o.bram36;
    }
}

impl std::iter::Sum for ResourceUsage {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

/// Width (bits) above which a multiply is mapped to a DSP48 slice
/// rather than LUT fabric. DSP48E2 natively handles 27×18; HLS maps
/// ≥~5-bit operands onto it by default.
pub(crate) const DSP_MULT_THRESHOLD: u32 = 5;

/// Ripple/carry adder of `bits` width: ~1 LUT per bit plus an output
/// register.
pub(crate) fn adder(bits: u32) -> ResourceUsage {
    ResourceUsage {
        lut: bits as u64,
        ff: bits as u64,
        dsp: 0,
        bram36: 0.0,
    }
}

/// Comparator (`<`): carry chain, ~1 LUT per bit, no register.
pub(crate) fn comparator(bits: u32) -> ResourceUsage {
    ResourceUsage {
        lut: bits as u64,
        ..Default::default()
    }
}

/// 2:1 multiplexer of `bits` width: ~0.5 LUT per bit (two muxes per
/// LUT6), rounded up.
pub(crate) fn mux2(bits: u32) -> ResourceUsage {
    ResourceUsage {
        lut: bits.div_ceil(2) as u64,
        ..Default::default()
    }
}

/// Pipeline register of `bits` width.
pub(crate) fn register(bits: u32) -> ResourceUsage {
    ResourceUsage {
        ff: bits as u64,
        ..Default::default()
    }
}

/// `a × b` multiplier: one DSP48 when both operands reach the DSP
/// threshold (and fit 27×18), LUT fabric otherwise (≈ a·b/2 LUTs for a
/// Baugh-Wooley array after synthesis optimisation).
pub(crate) fn multiplier(a_bits: u32, b_bits: u32) -> ResourceUsage {
    let (lo, hi) = if a_bits <= b_bits {
        (a_bits, b_bits)
    } else {
        (b_bits, a_bits)
    };
    if lo >= DSP_MULT_THRESHOLD && hi <= 27 && lo <= 18 {
        ResourceUsage {
            dsp: 1,
            // Interface/pipeline flops around the DSP.
            ff: (a_bits + b_bits) as u64,
            lut: 0,
            bram36: 0.0,
        }
    } else {
        ResourceUsage {
            lut: ((a_bits * b_bits) as u64).div_ceil(2),
            ff: (a_bits + b_bits) as u64,
            dsp: 0,
            bram36: 0.0,
        }
    }
}

/// Balanced reduction tree of `n` inputs combined by `op_cost`-sized
/// two-input operators (adder trees, min trees): `n−1` operators.
pub(crate) fn reduction_tree(n: usize, op_cost: ResourceUsage) -> ResourceUsage {
    if n <= 1 {
        return ResourceUsage::zero();
    }
    op_cost.times((n - 1) as u64)
}

/// On-chip memory for `total_bits` with a `width`-bit read port.
/// Below the BRAM threshold HLS infers distributed (LUT) RAM;
/// above it, 18 Kb/36 Kb BRAMs. One BRAM36 = 36 864 bits.
pub(crate) fn memory(total_bits: u64, width: u32) -> ResourceUsage {
    const BRAM36_BITS: u64 = 36_864;
    const LUTRAM_THRESHOLD: u64 = 2_048;
    if total_bits == 0 {
        return ResourceUsage::zero();
    }
    if total_bits <= LUTRAM_THRESHOLD {
        // 64 bits per LUT6 used as LUTRAM.
        ResourceUsage {
            lut: total_bits.div_ceil(64),
            ..Default::default()
        }
    } else {
        // Width-limited mapping: each BRAM36 offers up to a 72-bit port.
        let by_capacity = total_bits as f64 / BRAM36_BITS as f64;
        let by_width = width as f64 / 72.0;
        let bram = by_capacity.max(by_width);
        // Round to half-BRAM granularity.
        ResourceUsage {
            bram36: (bram * 2.0).ceil() / 2.0,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_sum() {
        let a = adder(8);
        let r = register(8);
        let both = a.clone() + r;
        assert_eq!(both.lut, 8);
        assert_eq!(both.ff, 16);
        let tripled = both.times(3);
        assert_eq!(tripled.ff, 48);
        let total: ResourceUsage = vec![adder(4), adder(4)].into_iter().sum();
        assert_eq!(total.lut, 8);
    }

    #[test]
    fn multiplier_dsp_inference() {
        // 8×8: DSP.
        assert_eq!(multiplier(8, 8).dsp, 1);
        assert_eq!(multiplier(8, 8).lut, 0);
        // 4×8: LUT fabric.
        let small = multiplier(4, 8);
        assert_eq!(small.dsp, 0);
        assert!(small.lut > 0);
        // 18×27 fits one DSP; wider does not.
        assert_eq!(multiplier(18, 27).dsp, 1);
        assert_eq!(
            multiplier(32, 32).dsp,
            0,
            "bigger than one DSP → modelled as fabric"
        );
    }

    #[test]
    fn reduction_tree_counts_operators() {
        let t = reduction_tree(16, comparator(12));
        assert_eq!(t.lut, 15 * 12);
        assert_eq!(reduction_tree(1, comparator(12)), ResourceUsage::zero());
    }

    #[test]
    fn memory_thresholds() {
        // Small tables → LUTRAM.
        let small = memory(1024, 16);
        assert_eq!(small.bram36, 0.0);
        assert_eq!(small.lut, 16);
        // Large tables → BRAM, half-BRAM granularity.
        let big = memory(36_864, 32);
        assert_eq!(big.bram36, 1.0);
        assert_eq!(big.lut, 0);
        let bigger = memory(40_000, 32);
        assert_eq!(bigger.bram36, 1.5);
        // Wide ports cost BRAM even at low capacity.
        let wide = memory(4_096, 144);
        assert_eq!(wide.bram36, 2.0);
        assert_eq!(memory(0, 8), ResourceUsage::zero());
    }

    #[test]
    fn usage_monotone_in_bits() {
        assert!(adder(16).lut > adder(8).lut);
        assert!(multiplier(6, 6).ff < multiplier(12, 12).ff);
        assert!(memory(100_000, 32).bram36 > memory(50_000, 32).bram36);
    }
}
