//! 2-D points/vectors (double precision) for the geometry substrate.
//!
//! Decision-region extraction interprets the demapper's I/Q input plane
//! geometrically; [`Vec2`] is the coordinate type used by label grids,
//! polygons and Voronoi cells in `hybridem-geom`.

use crate::complex::C64;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D point or vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec2 {
    /// Horizontal component (in-phase axis).
    pub x: f64,
    /// Vertical component (quadrature axis).
    pub y: f64,
}

impl Vec2 {
    /// Builds `(x, y)`.
    #[inline(always)]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin.
    #[inline(always)]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0)
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, o: Self) -> f64 {
        self.x * o.x + self.y * o.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    /// Positive when `o` is counter-clockwise from `self`.
    #[inline(always)]
    pub fn cross(self, o: Self) -> f64 {
        self.x * o.y - self.y * o.x
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Squared distance to another point.
    #[inline(always)]
    pub fn dist_sqr(self, o: Self) -> f64 {
        (self - o).norm_sqr()
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, o: Self) -> f64 {
        self.dist_sqr(o).sqrt()
    }

    /// Unit vector in the same direction; returns the zero vector for the
    /// zero input rather than dividing by zero.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            Self::zero()
        } else {
            self / n
        }
    }

    /// Counter-clockwise perpendicular.
    #[inline(always)]
    pub fn perp(self) -> Self {
        Self::new(-self.y, self.x)
    }

    /// Linear interpolation `self + t·(o − self)`.
    #[inline]
    pub fn lerp(self, o: Self, t: f64) -> Self {
        self + (o - self) * t
    }

    /// Midpoint with another point.
    #[inline]
    pub fn midpoint(self, o: Self) -> Self {
        self.lerp(o, 0.5)
    }

    /// Converts to a complex sample (x→re, y→im).
    #[inline]
    pub fn to_complex(self) -> C64 {
        C64::new(self.x, self.y)
    }

    /// Converts from a complex sample.
    #[inline]
    pub fn from_complex(c: C64) -> Self {
        Self::new(c.re, c.im)
    }
}

impl Add for Vec2 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Vec2 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, k: f64) -> Self {
        Self::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Vec2 {
    type Output = Self;
    #[inline(always)]
    fn div(self, k: f64) -> Self {
        Self::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y)
    }
}

impl AddAssign for Vec2 {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl SubAssign for Vec2 {
    #[inline(always)]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// Counter-clockwise turn.
    Ccw,
    /// Clockwise turn.
    Cw,
    /// The three points are collinear (within `eps`).
    Collinear,
}

/// Robust-enough orientation predicate for the scales used here
/// (unit-power constellations, |coord| ≲ 4).
pub fn orientation(a: Vec2, b: Vec2, c: Vec2, eps: f64) -> Orientation {
    let v = (b - a).cross(c - a);
    if v > eps {
        Orientation::Ccw
    } else if v < -eps {
        Orientation::Cw
    } else {
        Orientation::Collinear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dist(Vec2::zero()), 5.0);
        assert_eq!(a.normalized().norm(), 1.0);
        assert_eq!(Vec2::zero().normalized(), Vec2::zero());
    }

    #[test]
    fn perp_is_orthogonal_and_ccw() {
        let a = Vec2::new(2.0, 1.0);
        assert_eq!(a.dot(a.perp()), 0.0);
        assert!(a.cross(a.perp()) > 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn orientation_predicate() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 0.0);
        assert_eq!(
            orientation(a, b, Vec2::new(0.0, 1.0), 1e-12),
            Orientation::Ccw
        );
        assert_eq!(
            orientation(a, b, Vec2::new(0.0, -1.0), 1e-12),
            Orientation::Cw
        );
        assert_eq!(
            orientation(a, b, Vec2::new(2.0, 0.0), 1e-12),
            Orientation::Collinear
        );
    }

    #[test]
    fn complex_round_trip() {
        let v = Vec2::new(0.25, -1.5);
        assert_eq!(Vec2::from_complex(v.to_complex()), v);
    }
}
