//! Constellations: labelled sets of complex symbols.
//!
//! A [`Constellation`] is the transmitter's codebook: `M = 2^m` complex
//! points, where the point at index `u` carries the `m` bits of `u`
//! (MSB first, see [`crate::bits`]). Square Gray-labelled QAM and PSK
//! constructors cover the conventional baselines; learned autoencoder
//! constellations enter through [`Constellation::from_points`].

use crate::bits::{bit_of, gray};
use hybridem_mathkit::complex::{avg_power, C32};

/// A labelled constellation.
#[derive(Clone, Debug)]
pub struct Constellation {
    points: Vec<C32>,
    bits_per_symbol: usize,
}

impl Constellation {
    /// Builds from explicit points; the index of each point is its bit
    /// label. The number of points must be a power of two ≥ 2.
    pub fn from_points(points: Vec<C32>) -> Self {
        let m = points.len();
        assert!(
            m >= 2 && m.is_power_of_two(),
            "constellation size {m} not 2^k"
        );
        Self {
            bits_per_symbol: m.trailing_zeros() as usize,
            points,
        }
    }

    /// Gray-labelled square QAM of order `order` ∈ {4, 16, 64, 256},
    /// normalised to unit average power.
    ///
    /// The `m`-bit label splits half/half: the first `m/2` bits Gray-code
    /// the I level, the last `m/2` bits the Q level.
    pub fn qam_gray(order: usize) -> Self {
        assert!(
            matches!(order, 4 | 16 | 64 | 256),
            "unsupported QAM order {order}"
        );
        let m = order.trailing_zeros() as usize;
        let side = 1usize << (m / 2);
        // PAM levels −(side−1), …, −1, +1, …, +(side−1) step 2, indexed
        // so that Gray(level index) = bit pattern.
        let mut level_of_bits = vec![0usize; side];
        for li in 0..side {
            level_of_bits[gray(li)] = li;
        }
        let mut points = vec![C32::zero(); order];
        for (u, p) in points.iter_mut().enumerate() {
            let i_bits = u >> (m / 2);
            let q_bits = u & (side - 1);
            let li = level_of_bits[i_bits];
            let lq = level_of_bits[q_bits];
            let re = (2 * li) as f32 - (side - 1) as f32;
            let im = (2 * lq) as f32 - (side - 1) as f32;
            *p = C32::new(re, im);
        }
        let mut c = Self::from_points(points);
        c.normalize_power();
        c
    }

    /// Number of points `M`.
    pub fn size(&self) -> usize {
        self.points.len()
    }

    /// Bits per symbol `m = log2 M`.
    pub fn bits_per_symbol(&self) -> usize {
        self.bits_per_symbol
    }

    /// The labelled points.
    pub fn points(&self) -> &[C32] {
        &self.points
    }

    /// The point carrying label `u`.
    #[inline]
    pub fn point(&self, u: usize) -> C32 {
        self.points[u]
    }

    /// Bit `k` of label `u`.
    #[inline]
    pub fn bit(&self, u: usize, k: usize) -> u8 {
        bit_of(u, self.bits_per_symbol, k)
    }

    /// Average symbol energy.
    pub fn avg_energy(&self) -> f32 {
        avg_power(&self.points)
    }

    /// Scales the constellation to unit average power in place.
    pub(crate) fn normalize_power(&mut self) {
        let p = self.avg_energy();
        assert!(p > 0.0, "cannot normalise zero-power constellation");
        let k = 1.0 / p.sqrt();
        for pt in &mut self.points {
            *pt = pt.scale(k);
        }
    }

    /// Minimum Euclidean distance between distinct points.
    pub fn min_distance(&self) -> f32 {
        let mut best = f32::INFINITY;
        for i in 0..self.points.len() {
            for j in (i + 1)..self.points.len() {
                best = best.min(self.points[i].dist_sqr(self.points[j]));
            }
        }
        best.sqrt()
    }

    /// Index of the nearest point to `y` (maximum-likelihood symbol
    /// decision over AWGN).
    pub fn nearest(&self, y: C32) -> usize {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (i, &p) in self.points.iter().enumerate() {
            let d = y.dist_sqr(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Applies a global phase rotation (returns a new constellation) —
    /// models what the channel's phase offset does to the codebook.
    pub fn rotated(&self, theta: f32) -> Self {
        Self {
            points: self.points.iter().map(|p| p.rotate(theta)).collect(),
            bits_per_symbol: self.bits_per_symbol,
        }
    }

    /// Mean label Hamming distance over **all** nearest-neighbour pairs
    /// (ties included) — exactly 1.0 for a perfect Gray labelling of a
    /// square lattice; larger values quantify how "un-Gray" a labelling
    /// (e.g. natural binary, or a learned constellation) is.
    pub fn gray_penalty(&self) -> f64 {
        let n = self.points.len();
        let mut total = 0.0;
        let mut pairs = 0u64;
        for i in 0..n {
            let mut best_d = f32::INFINITY;
            for j in 0..n {
                if j != i {
                    best_d = best_d.min(self.points[i].dist_sqr(self.points[j]));
                }
            }
            for j in 0..n {
                if j != i && self.points[i].dist_sqr(self.points[j]) <= best_d * 1.0001 {
                    total += crate::bits::hamming_distance(i, j) as f64;
                    pairs += 1;
                }
            }
        }
        total / pairs.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qam16_structure() {
        let c = Constellation::qam_gray(16);
        assert_eq!(c.size(), 16);
        assert_eq!(c.bits_per_symbol(), 4);
        assert!((c.avg_energy() - 1.0).abs() < 1e-6);
        // 16 distinct points on a 4×4 grid.
        let d = c.min_distance();
        assert!((d - 2.0 / 10.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn qam16_gray_labelling() {
        let c = Constellation::qam_gray(16);
        // Horizontally/vertically adjacent points differ in exactly 1 bit.
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    continue;
                }
                let d = c.point(i).dist_sqr(c.point(j)).sqrt();
                if (d - c.min_distance()).abs() < 1e-5 {
                    assert_eq!(
                        crate::bits::hamming_distance(i, j),
                        1,
                        "labels {i:04b},{j:04b} adjacent but differ in >1 bit"
                    );
                }
            }
        }
        assert!((c.gray_penalty() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qam_orders_all_normalised() {
        for order in [4usize, 16, 64, 256] {
            let c = Constellation::qam_gray(order);
            assert_eq!(c.size(), order);
            assert!((c.avg_energy() - 1.0).abs() < 1e-5, "order {order}");
        }
    }

    #[test]
    fn qpsk_equals_4qam_geometry() {
        let qam = Constellation::qam_gray(4);
        // 4-QAM corners at (±1/√2, ±1/√2).
        for p in qam.points() {
            assert!((p.abs() - 1.0).abs() < 1e-6);
            assert!((p.re.abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        }
    }

    #[test]
    fn nearest_recovers_clean_symbols() {
        let c = Constellation::qam_gray(16);
        for u in 0..16 {
            assert_eq!(c.nearest(c.point(u)), u);
        }
    }

    #[test]
    fn rotation_preserves_energy_and_distances() {
        let c = Constellation::qam_gray(16);
        let r = c.rotated(std::f32::consts::FRAC_PI_4);
        assert!((r.avg_energy() - 1.0).abs() < 1e-5);
        assert!((r.min_distance() - c.min_distance()).abs() < 1e-6);
        // But points moved.
        assert!(r.point(0).dist_sqr(c.point(0)) > 1e-4);
    }

    #[test]
    #[should_panic(expected = "not 2^k")]
    fn rejects_non_power_of_two() {
        let _ = Constellation::from_points(vec![C32::zero(); 6]);
    }
}
