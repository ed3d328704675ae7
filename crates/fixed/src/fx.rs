//! Fixed-point values with format-tracking arithmetic.
//!
//! [`Fx`] couples a raw two's-complement integer with its [`QFormat`].
//! Arithmetic follows HLS semantics: additions align binary points and
//! widen, multiplications produce the exact double-width product, and
//! [`Fx::resize`] performs the rounding + saturation step that a
//! hardware cast inserts. The MVAU datapath in `hybridem-fpga` is built
//! on exactly these three operations.

use crate::qformat::QFormat;
use crate::rounding::Rounding;

/// A fixed-point value: raw integer plus format.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fx {
    raw: i64,
    format: QFormat,
}

impl Fx {
    /// Builds from a raw integer already expressed in `format`.
    ///
    /// # Panics
    /// Panics (debug) if `raw` is outside the representable range.
    pub fn from_raw(raw: i64, format: QFormat) -> Self {
        debug_assert!(
            raw >= format.raw_min() && raw <= format.raw_max(),
            "raw {raw} out of range for {format}"
        );
        Self { raw, format }
    }

    /// Quantises a real value into `format` (saturating).
    pub fn from_f64(v: f64, format: QFormat, rounding: Rounding) -> Self {
        Self {
            raw: format.raw_from_f64(v, rounding),
            format,
        }
    }

    /// The raw integer.
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// Real value represented.
    pub fn to_f64(&self) -> f64 {
        self.format.f64_from_raw(self.raw)
    }

    /// Exact sum: binary points aligned, result widened by one bit
    /// (never overflows, mirrors a full-width hardware adder).
    pub fn add_exact(&self, other: &Fx) -> Fx {
        let f = self.format.frac_bits.max(other.format.frac_bits);
        let a = self.raw << (f - self.format.frac_bits);
        let b = other.raw << (f - other.format.frac_bits);
        let int = self.format.int_bits().max(other.format.int_bits()) + 1;
        let total = (int + f).min(63);
        Fx {
            raw: a + b,
            format: QFormat {
                total_bits: total,
                frac_bits: f,
                signed: self.format.signed || other.format.signed,
            },
        }
    }

    /// Exact difference (same widening as [`Fx::add_exact`]).
    pub fn sub_exact(&self, other: &Fx) -> Fx {
        self.add_exact(&other.neg())
    }

    /// Exact product: widths and fraction bits add (a DSP multiply).
    pub fn mul_exact(&self, other: &Fx) -> Fx {
        Fx {
            raw: self.raw * other.raw,
            format: self.format.product(&other.format),
        }
    }

    /// Negation (stays in a signed version of the format, widened by one
    /// bit so `-raw_min` is representable).
    pub(crate) fn neg(&self) -> Fx {
        Fx {
            raw: -self.raw,
            format: QFormat {
                total_bits: (self.format.total_bits + 1).min(63),
                frac_bits: self.format.frac_bits,
                signed: true,
            },
        }
    }

    /// Casts into `target`: rounds away fraction bits, then saturates.
    /// This is the only lossy operation; it reports whether saturation
    /// clipped the value.
    pub fn resize(&self, target: QFormat, rounding: Rounding) -> (Fx, bool) {
        let raw = if target.frac_bits >= self.format.frac_bits {
            let shift = target.frac_bits - self.format.frac_bits;
            if shift >= 63 {
                0
            } else {
                self.raw.checked_shl(shift).unwrap_or(0)
            }
        } else {
            rounding.shift_right(self.raw, self.format.frac_bits - target.frac_bits)
        };
        let (raw, clipped) = target.saturate(raw);
        (
            Fx {
                raw,
                format: target,
            },
            clipped,
        )
    }

    /// Convenience: resize and discard the clipping flag.
    pub fn cast(&self, target: QFormat, rounding: Rounding) -> Fx {
        self.resize(target, rounding).0
    }
}

impl std::fmt::Display for Fx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.to_f64(), self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(t: u32, fr: u32) -> QFormat {
        QFormat::signed(t, fr)
    }

    #[test]
    fn f64_round_trip() {
        let f = q(16, 8);
        let x = Fx::from_f64(1.5, f, Rounding::Nearest);
        assert_eq!(x.to_f64(), 1.5);
        assert_eq!(x.raw(), 384);
    }

    #[test]
    fn addition_aligns_binary_points() {
        let a = Fx::from_f64(1.25, q(8, 2), Rounding::Nearest); // raw 5
        let b = Fx::from_f64(0.375, q(8, 3), Rounding::Nearest); // raw 3
        let s = a.add_exact(&b);
        assert_eq!(s.to_f64(), 1.625);
        assert_eq!(s.format.frac_bits, 3);
    }

    #[test]
    fn multiplication_is_exact() {
        let a = Fx::from_f64(1.5, q(8, 4), Rounding::Nearest);
        let b = Fx::from_f64(-2.25, q(8, 4), Rounding::Nearest);
        let p = a.mul_exact(&b);
        assert_eq!(p.to_f64(), -3.375);
        assert_eq!(p.format.total_bits, 16);
        assert_eq!(p.format.frac_bits, 8);
    }

    #[test]
    fn add_exact_never_overflows_at_extremes() {
        let f = q(8, 0);
        let a = Fx::from_raw(f.raw_max(), f);
        let s = a.add_exact(&a);
        assert_eq!(s.to_f64(), 254.0);
        let b = Fx::from_raw(f.raw_min(), f);
        let d = b.add_exact(&b);
        assert_eq!(d.to_f64(), -256.0);
    }

    #[test]
    fn resize_rounds_and_saturates() {
        let wide = Fx::from_f64(std::f64::consts::PI, q(24, 16), Rounding::Nearest);
        let (narrow, clipped) = wide.resize(q(8, 4), Rounding::Nearest);
        assert!(!clipped);
        assert!(
            (narrow.to_f64() - std::f64::consts::PI).abs() <= q(8, 4).resolution() / 2.0 + 1e-9
        );

        let big = Fx::from_f64(100.0, q(16, 4), Rounding::Nearest);
        let (sat, clipped) = big.resize(q(8, 4), Rounding::Nearest);
        assert!(clipped);
        assert_eq!(sat.raw(), q(8, 4).raw_max());
    }

    #[test]
    fn resize_can_widen_fraction() {
        let x = Fx::from_f64(0.5, q(8, 2), Rounding::Nearest);
        let (y, clipped) = x.resize(q(16, 8), Rounding::Truncate);
        assert!(!clipped);
        assert_eq!(y.to_f64(), 0.5);
        assert_eq!(y.raw(), 128);
    }

    #[test]
    fn neg_handles_most_negative() {
        let f = q(8, 0);
        let x = Fx::from_raw(f.raw_min(), f);
        let y = x.neg();
        assert_eq!(y.to_f64(), 128.0);
        assert!(y.format.raw_max() >= 128);
    }

    #[test]
    fn mac_chain_matches_float_within_bound() {
        // A little dot product in Q2.6 × Q1.7 with a wide accumulator,
        // the exact pattern the MVAU performs.
        let af = q(8, 6);
        let wf = q(8, 7);
        let acc_f = af.accumulator(&wf, 4);
        let xs = [0.9, -0.5, 0.25, 1.1];
        let ws = [0.7, 0.3, -0.9, 0.5];
        let mut acc = Fx::from_raw(0, acc_f);
        let mut exact = 0.0;
        for (&x, &w) in xs.iter().zip(&ws) {
            let xq = Fx::from_f64(x, af, Rounding::Nearest);
            let wq = Fx::from_f64(w, wf, Rounding::Nearest);
            exact += xq.to_f64() * wq.to_f64();
            let p = xq.mul_exact(&wq);
            acc = p.add_exact(&acc).cast(acc_f, Rounding::Truncate);
        }
        assert!(
            (acc.to_f64() - exact).abs() < 1e-9,
            "accumulation must be exact"
        );
    }
}
