//! Runtime Q-format descriptors.
//!
//! A [`QFormat`] mirrors an HLS `ap_fixed<W, I>` type: `W = total_bits`
//! total bits of which `I = total_bits − frac_bits` are integer bits
//! (including the sign for signed formats). The FPGA resource model
//! prices operators by these widths, and the datapath simulator uses
//! them to saturate and round exactly as the hardware would.

use crate::rounding::Rounding;

/// A fixed-point number format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QFormat {
    /// Total width in bits (1..=63 so raw values fit an `i64` with
    /// headroom for products).
    pub total_bits: u32,
    /// Number of fraction bits. May exceed `total_bits` (all-fraction
    /// sub-unit formats) or be negative-equivalent via large integer
    /// parts; here it is constrained to `0..=total_bits` for clarity.
    pub frac_bits: u32,
    /// Two's-complement signed when true, unsigned otherwise.
    pub signed: bool,
}

impl QFormat {
    /// Signed format with `total_bits` total and `frac_bits` fraction bits.
    ///
    /// # Panics
    /// Panics unless `1 ≤ total_bits ≤ 63` and `frac_bits ≤ total_bits`.
    pub fn signed(total_bits: u32, frac_bits: u32) -> Self {
        assert!(
            (1..=63).contains(&total_bits) && frac_bits <= total_bits,
            "invalid QFormat({total_bits},{frac_bits})"
        );
        Self {
            total_bits,
            frac_bits,
            signed: true,
        }
    }

    /// Unsigned format.
    ///
    /// # Panics
    /// Panics unless `1 ≤ total_bits ≤ 63` and `frac_bits ≤ total_bits`.
    pub fn unsigned(total_bits: u32, frac_bits: u32) -> Self {
        assert!(
            (1..=63).contains(&total_bits) && frac_bits <= total_bits,
            "invalid QFormat({total_bits},{frac_bits})"
        );
        Self {
            total_bits,
            frac_bits,
            signed: false,
        }
    }

    /// Number of integer bits (including sign when signed).
    pub(crate) fn int_bits(&self) -> u32 {
        self.total_bits - self.frac_bits
    }

    /// Smallest representable raw value.
    pub fn raw_min(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.total_bits - 1))
        } else {
            0
        }
    }

    /// Largest representable raw value.
    pub fn raw_max(&self) -> i64 {
        if self.signed {
            (1i64 << (self.total_bits - 1)) - 1
        } else {
            (1i64 << self.total_bits) - 1
        }
    }

    /// Value of one least-significant bit.
    pub fn resolution(&self) -> f64 {
        (-(self.frac_bits as f64)).exp2()
    }

    /// Smallest representable real value.
    pub fn min_value(&self) -> f64 {
        self.raw_min() as f64 * self.resolution()
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f64 {
        self.raw_max() as f64 * self.resolution()
    }

    /// Converts a real value to the nearest raw integer, saturating at
    /// the format bounds. `#[inline]`, so a block quantiser inside a
    /// dispatched kernel hoists the `2^frac_bits` scale out of its loop
    /// and rounds with the kernel's ISA.
    #[inline]
    pub fn raw_from_f64(&self, v: f64, rounding: Rounding) -> i64 {
        let scaled = v * (self.frac_bits as f64).exp2();
        let raw = match rounding {
            Rounding::Truncate => scaled.floor(),
            Rounding::Nearest => {
                if scaled >= 0.0 {
                    (scaled + 0.5).floor()
                } else {
                    -((-scaled + 0.5).floor())
                }
            }
            Rounding::NearestEven => {
                let f = scaled.floor();
                let rem = scaled - f;
                if rem > 0.5 || (rem == 0.5 && (f as i64) & 1 == 1) {
                    f + 1.0
                } else {
                    f
                }
            }
        };
        let raw = raw.clamp(self.raw_min() as f64, self.raw_max() as f64);
        raw as i64
    }

    /// Converts a raw integer back to a real value (no checks — raw is
    /// assumed in range).
    pub fn f64_from_raw(&self, raw: i64) -> f64 {
        raw as f64 * self.resolution()
    }

    /// Saturates a raw value into this format's range, reporting whether
    /// clipping occurred.
    pub fn saturate(&self, raw: i64) -> (i64, bool) {
        let lo = self.raw_min();
        let hi = self.raw_max();
        if raw < lo {
            (lo, true)
        } else if raw > hi {
            (hi, true)
        } else {
            (raw, false)
        }
    }

    /// The exact product format of two inputs: widths add, fraction bits
    /// add (what a DSP multiplier emits before any narrowing).
    ///
    /// # Panics
    /// Panics if the product would exceed 63 bits.
    pub(crate) fn product(&self, other: &QFormat) -> QFormat {
        let total = self.total_bits + other.total_bits;
        assert!(
            total <= 63,
            "product format {total} bits exceeds i64 headroom"
        );
        QFormat {
            total_bits: total,
            frac_bits: self.frac_bits + other.frac_bits,
            signed: self.signed || other.signed,
        }
    }

    /// Accumulator format for summing `n` products without overflow:
    /// the product format widened by ⌈log₂ n⌉ guard bits.
    pub fn accumulator(&self, other: &QFormat, n: usize) -> QFormat {
        let p = self.product(other);
        let guard = usize::BITS - n.max(1).leading_zeros();
        let total = (p.total_bits + guard).min(63);
        QFormat {
            total_bits: total,
            frac_bits: p.frac_bits,
            signed: true,
        }
    }
}

impl std::fmt::Display for QFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}Q{}.{}",
            if self.signed { "" } else { "u" },
            self.int_bits(),
            self.frac_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges() {
        let q = QFormat::signed(8, 4); // Q4.4
        assert_eq!(q.raw_min(), -128);
        assert_eq!(q.raw_max(), 127);
        assert_eq!(q.resolution(), 1.0 / 16.0);
        assert_eq!(q.min_value(), -8.0);
        assert!((q.max_value() - 7.9375).abs() < 1e-12);
        let u = QFormat::unsigned(8, 8);
        assert_eq!(u.raw_min(), 0);
        assert_eq!(u.raw_max(), 255);
        assert!((u.max_value() - 255.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn f64_round_trip_within_resolution() {
        let q = QFormat::signed(16, 10);
        for &v in &[0.0, 1.0, -1.0, 0.123, -3.9, 5.4321] {
            let raw = q.raw_from_f64(v, Rounding::Nearest);
            let back = q.f64_from_raw(raw);
            assert!(
                (back - v).abs() <= q.resolution() / 2.0 + 1e-12,
                "{v} → {back}"
            );
        }
    }

    #[test]
    fn saturation_on_conversion() {
        let q = QFormat::signed(8, 4);
        assert_eq!(q.raw_from_f64(100.0, Rounding::Nearest), q.raw_max());
        assert_eq!(q.raw_from_f64(-100.0, Rounding::Nearest), q.raw_min());
        let (v, clipped) = q.saturate(1000);
        assert_eq!(v, 127);
        assert!(clipped);
        let (v, clipped) = q.saturate(-5);
        assert_eq!(v, -5);
        assert!(!clipped);
    }

    #[test]
    fn product_and_accumulator_formats() {
        let a = QFormat::signed(8, 6);
        let w = QFormat::signed(8, 7);
        let p = a.product(&w);
        assert_eq!(p.total_bits, 16);
        assert_eq!(p.frac_bits, 13);
        // 16 products → 4 guard bits? ⌈log2 16⌉ = 5 by the leading_zeros
        // formula on n=16 (bits needed to count 16 items).
        let acc = a.accumulator(&w, 16);
        assert_eq!(acc.frac_bits, 13);
        assert!(acc.total_bits >= p.total_bits + 4);
        assert!(acc.signed);
    }

    #[test]
    fn accumulator_never_overflows_worst_case() {
        let a = QFormat::signed(8, 6);
        let w = QFormat::signed(8, 7);
        let n = 16usize;
        let acc = a.accumulator(&w, n);
        // Worst case: n × (most negative × most negative products).
        let worst = (a.raw_min() * w.raw_min()) as i128 * n as i128;
        assert!(worst <= acc.raw_max() as i128);
    }

    #[test]
    fn display() {
        assert_eq!(QFormat::signed(8, 4).to_string(), "Q4.4");
        assert_eq!(QFormat::unsigned(10, 8).to_string(), "uQ2.8");
    }

    #[test]
    #[should_panic(expected = "invalid QFormat")]
    fn rejects_zero_width() {
        let _ = QFormat::signed(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds i64 headroom")]
    fn rejects_oversized_product() {
        let a = QFormat::signed(40, 0);
        let _ = a.product(&a);
    }
}
