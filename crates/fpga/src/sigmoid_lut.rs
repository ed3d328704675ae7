//! Fixed-point sigmoid by table lookup.
//!
//! The demapper's output layer needs σ(x) in hardware. The standard
//! FINN/HLS approach is a lookup table over a clamped input range: the
//! input is saturated to `[−range, +range]`, quantised to
//! `addr_bits` addresses, and the table stores the output in the
//! activation format. This module provides the bit-exact table, its
//! resource cost, and an analytic worst-case error bound that the tests
//! verify against the reference `σ`.

use crate::resources::{memory, ResourceUsage};
use hybridem_fixed::{QFormat, Rounding};
use hybridem_mathkit::special::sigmoid;

/// A quantised sigmoid lookup table.
#[derive(Clone, Debug)]
pub struct SigmoidLut {
    /// Inputs are clamped to `[−range, +range]` before lookup.
    pub(crate) range: f64,
    /// Output format (unsigned, all-fraction is natural for σ ∈ (0,1)).
    pub out_format: QFormat,
    table: Vec<i64>,
}

impl SigmoidLut {
    /// Builds the table. Typical configuration: 8 address bits over
    /// `[−8, 8]`, `uQ0.8` output.
    pub fn new(addr_bits: u32, range: f64, out_format: QFormat) -> Self {
        assert!((4..=16).contains(&addr_bits), "addr_bits out of range");
        assert!(range > 0.0);
        let n = 1usize << addr_bits;
        let mut table = Vec::with_capacity(n);
        for i in 0..n {
            // Address i covers the input interval centre.
            let x = -range + (i as f64 + 0.5) * (2.0 * range / n as f64);
            table.push(out_format.raw_from_f64(sigmoid(x), Rounding::Nearest));
        }
        Self {
            range,
            out_format,
            table,
        }
    }

    /// Looks up σ for an input in a given fixed-point format, returning
    /// the raw output in `out_format`.
    pub(crate) fn lookup(&self, raw_in: i64, in_format: QFormat) -> i64 {
        let x = in_format.f64_from_raw(raw_in);
        self.lookup_f64(x)
    }

    /// Looks up σ for a real-valued input (clamping to the range).
    pub fn lookup_f64(&self, x: f64) -> i64 {
        let n = self.table.len();
        let t = (x + self.range) / (2.0 * self.range);
        let idx = ((t * n as f64) as isize).clamp(0, n as isize - 1) as usize;
        self.table[idx]
    }

    /// Worst-case absolute error bound: half the maximum slope (σ' ≤ ¼)
    /// times the address step, plus half an output LSB, plus the tail
    /// clamp error σ(−range).
    pub fn error_bound(&self) -> f64 {
        let step = 2.0 * self.range / self.table.len() as f64;
        0.25 * step / 2.0 + self.out_format.resolution() / 2.0 + sigmoid(-self.range)
    }

    /// Memory cost of the table.
    pub(crate) fn resources(&self) -> ResourceUsage {
        memory(
            self.table.len() as u64 * self.out_format.total_bits as u64,
            self.out_format.total_bits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lut8() -> SigmoidLut {
        SigmoidLut::new(8, 8.0, QFormat::unsigned(8, 8))
    }

    #[test]
    fn known_points() {
        let lut = lut8();
        // σ(0) = 0.5.
        let y = lut.out_format.f64_from_raw(lut.lookup_f64(0.0));
        assert!((y - 0.5).abs() <= lut.error_bound());
        // Saturated tails.
        let hi = lut.out_format.f64_from_raw(lut.lookup_f64(100.0));
        assert!(hi > 0.99);
        let lo = lut.out_format.f64_from_raw(lut.lookup_f64(-100.0));
        assert!(lo < 0.01);
    }

    #[test]
    fn error_bound_holds_everywhere() {
        let lut = lut8();
        let bound = lut.error_bound();
        for i in 0..2000 {
            let x = -10.0 + i as f64 * 0.01;
            let approx = lut.out_format.f64_from_raw(lut.lookup_f64(x));
            let exact = sigmoid(x);
            assert!(
                (approx - exact).abs() <= bound,
                "x={x}: {approx} vs {exact}, bound {bound}"
            );
        }
    }

    #[test]
    fn error_shrinks_with_address_bits() {
        let coarse = SigmoidLut::new(6, 8.0, QFormat::unsigned(10, 10));
        let fine = SigmoidLut::new(10, 8.0, QFormat::unsigned(10, 10));
        assert!(fine.error_bound() < coarse.error_bound());
        // Empirical max error also shrinks.
        let max_err = |lut: &SigmoidLut| {
            (0..1000)
                .map(|i| {
                    let x = -8.0 + i as f64 * 0.016;
                    (lut.out_format.f64_from_raw(lut.lookup_f64(x)) - sigmoid(x)).abs()
                })
                .fold(0.0, f64::max)
        };
        assert!(max_err(&fine) < max_err(&coarse));
    }

    #[test]
    fn fixed_point_input_path() {
        let lut = lut8();
        let in_fmt = QFormat::signed(12, 6);
        let raw = in_fmt.raw_from_f64(1.5, Rounding::Nearest);
        let via_fx = lut.lookup(raw, in_fmt);
        let direct = lut.lookup_f64(1.5);
        assert_eq!(via_fx, direct);
    }

    #[test]
    fn small_table_is_lutram() {
        let lut = lut8();
        let r = lut.resources();
        assert_eq!(r.bram36, 0.0, "256×8 bits fits LUTRAM");
        assert!(r.lut > 0);
        let big = SigmoidLut::new(14, 8.0, QFormat::unsigned(16, 16));
        assert!(big.resources().bram36 > 0.0);
    }

    #[test]
    fn monotone_nondecreasing() {
        let lut = lut8();
        let mut last = i64::MIN;
        for i in 0..512 {
            let x = -9.0 + i as f64 * (18.0 / 512.0);
            let y = lut.lookup_f64(x);
            assert!(y >= last, "sigmoid table must be monotone");
            last = y;
        }
    }
}
