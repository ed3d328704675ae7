//! 2-D points/vectors (double precision) for the geometry substrate.
//!
//! Decision-region extraction interprets the demapper's I/Q input plane
//! geometrically; [`Vec2`] is the coordinate type used by label grids,
//! polygons and Voronoi cells in `hybridem-geom`.

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
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Vec2::new(1.0, 2.0));
    }
}
