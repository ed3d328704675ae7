//! Complex numbers for the I/Q signal plane.
//!
//! A transmitted constellation point, a received noisy sample and a
//! channel coefficient are all values of [`Complex`]. The type is a
//! plain `#[repr(C)]` pair so slices of symbols can be reinterpreted as
//! interleaved I/Q buffers without copying.

use crate::real::Real;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + j·im` over a [`Real`] scalar.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex<T> {
    /// Real (in-phase) component.
    pub re: T,
    /// Imaginary (quadrature) component.
    pub im: T,
}

/// Single-precision complex sample, the workhorse of the simulator.
pub type C32 = Complex<f32>;
/// Double-precision complex sample, used where accumulation error matters.
pub type C64 = Complex<f64>;

impl<T: Real> Complex<T> {
    /// Builds `re + j·im`.
    #[inline(always)]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::new(T::ZERO, T::ZERO)
    }

    /// The multiplicative identity.
    #[inline(always)]
    pub fn one() -> Self {
        Self::new(T::ONE, T::ZERO)
    }

    /// Unit phasor `e^{jθ}`.
    #[inline]
    pub fn from_angle(theta: T) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Squared magnitude `re² + im²` — the Euclidean distance metric used
    /// by every demapper in this workspace.
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Phase angle in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, k: T) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Rotates by angle `theta` (multiplication by `e^{jθ}`).
    #[inline]
    pub fn rotate(self, theta: T) -> Self {
        self * Self::from_angle(theta)
    }

    /// Squared Euclidean distance to `other`.
    #[inline(always)]
    pub fn dist_sqr(self, other: Self) -> T {
        (self - other).norm_sqr()
    }

    /// Both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Real> std::fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= T::ZERO {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

/// Mean of a slice of complex samples.
pub fn mean<T: Real>(xs: &[Complex<T>]) -> Complex<T> {
    if xs.is_empty() {
        return Complex::zero();
    }
    let mut acc = Complex::zero();
    for &x in xs {
        acc += x;
    }
    acc.scale(T::ONE / T::from_usize(xs.len()))
}

/// Average power `E[|x|²]` of a slice of complex samples.
pub fn avg_power<T: Real>(xs: &[Complex<T>]) -> T {
    if xs.is_empty() {
        return T::ZERO;
    }
    let mut acc = T::ZERO;
    for &x in xs {
        acc += x.norm_sqr();
    }
    acc / T::from_usize(xs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-3.0, 0.5);
        assert_eq!(a + b, C64::new(-2.0, 2.5));
        assert_eq!(a - a, C64::zero());
        assert_eq!(a * C64::one(), a);
        let q = (a / b) * b;
        assert!((q - a).abs() < EPS);
    }

    #[test]
    fn conj_mul_gives_norm() {
        let a = C64::new(3.0, -4.0);
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < EPS);
        assert!(p.im.abs() < EPS);
        assert!((a.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn rotation_preserves_magnitude_and_shifts_phase() {
        let a = C64::new(2.0 * 0.3f64.cos(), 2.0 * 0.3f64.sin());
        let r = a.rotate(std::f64::consts::FRAC_PI_4);
        assert!((r.abs() - 2.0).abs() < EPS);
        assert!((r.arg() - (0.3 + std::f64::consts::FRAC_PI_4)).abs() < EPS);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = C32::new(0.5, -0.25);
        let b = C32::new(-1.0, 2.0);
        assert_eq!(a.dist_sqr(b), b.dist_sqr(a));
        assert_eq!(a.dist_sqr(a), 0.0);
    }

    #[test]
    fn mean_and_power() {
        let xs = [C64::new(1.0, 0.0), C64::new(-1.0, 0.0), C64::new(0.0, 2.0)];
        let m = mean(&xs);
        assert!((m.re - 0.0).abs() < EPS && (m.im - 2.0 / 3.0).abs() < EPS);
        assert!((avg_power(&xs) - (1.0 + 1.0 + 4.0) / 3.0).abs() < EPS);
        assert_eq!(mean::<f64>(&[]), C64::zero());
        assert_eq!(avg_power::<f64>(&[]), 0.0);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1+2j");
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1-2j");
    }
}
