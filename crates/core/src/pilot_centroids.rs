//! Data-aided centroid estimation — the classical baseline the
//! paper's geometric extraction competes against.
//!
//! A receiver that already transmits pilots for retraining could also
//! estimate the post-channel constellation *directly*: average the
//! received samples of each known pilot symbol (the conditional mean
//! `E[y | x = c_u]`, which over AWGN converges to the channel-distorted
//! constellation point). This needs no neural network at all — but it
//! only captures effects expressible as a constellation shift, while
//! the ANN's decision regions can also encode non-Gaussian boundary
//! shapes. Comparing the two isolates what the learned demapper
//! actually contributes (see `tests/` and the pilot-vs-extraction
//! integration test).

use hybridem_comm::channel::Channel;
use hybridem_comm::constellation::Constellation;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};

/// Streaming estimator of per-symbol conditional means.
#[derive(Clone, Debug)]
pub(crate) struct PilotCentroidEstimator {
    sums: Vec<C32>,
    counts: Vec<u64>,
}

impl PilotCentroidEstimator {
    /// Estimator for `m` symbols.
    pub(crate) fn new(num_symbols: usize) -> Self {
        assert!(num_symbols >= 2);
        Self {
            sums: vec![C32::zero(); num_symbols],
            counts: vec![0; num_symbols],
        }
    }

    /// Records one received pilot with its known transmitted label.
    pub(crate) fn observe(&mut self, label: usize, received: C32) {
        self.sums[label] += received;
        self.counts[label] += 1;
    }

    /// Current centroid estimates; labels never observed fall back to
    /// the supplied constellation point.
    pub(crate) fn centroids(&self, fallback: &Constellation) -> Constellation {
        assert_eq!(fallback.size(), self.sums.len());
        let points: Vec<C32> = self
            .sums
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(u, (&s, &n))| {
                if n == 0 {
                    fallback.point(u)
                } else {
                    s.scale(1.0 / n as f32)
                }
            })
            .collect();
        Constellation::from_points(points)
    }
}

/// Convenience: transmits `n_pilots` known random symbols through
/// `channel` and returns the estimated post-channel constellation.
pub fn estimate_from_pilots(
    constellation: &Constellation,
    channel: &mut dyn Channel,
    n_pilots: usize,
    seed: u64,
) -> Constellation {
    let m = constellation.bits_per_symbol();
    let mut rng = Xoshiro256pp::stream(seed, 7);
    let mut est = PilotCentroidEstimator::new(constellation.size());
    let mut block = vec![C32::zero(); 256];
    let mut labels = vec![0usize; 256];
    let mut sent = 0usize;
    while sent < n_pilots {
        let n = block.len().min(n_pilots - sent);
        for i in 0..n {
            labels[i] = (rng.next_u64() >> (64 - m)) as usize;
            block[i] = constellation.point(labels[i]);
        }
        channel.transmit(&mut block[..n], &mut rng);
        for i in 0..n {
            est.observe(labels[i], block[i]);
        }
        sent += n;
    }
    est.centroids(constellation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_comm::channel::{Awgn, ChannelChain};

    #[test]
    fn recovers_clean_constellation() {
        let qam = Constellation::qam_gray(16);
        let mut ch = Awgn::new(0.1);
        let est = estimate_from_pilots(&qam, &mut ch, 16_000, 3);
        for u in 0..16 {
            let d = est.point(u).dist_sqr(qam.point(u)).sqrt();
            // σ/√n per dimension with n ≈ 1000 per symbol.
            assert!(d < 0.02, "symbol {u}: drift {d}");
        }
    }

    #[test]
    fn recovers_rotated_constellation() {
        let theta = std::f32::consts::FRAC_PI_4;
        let qam = Constellation::qam_gray(16);
        let mut ch = ChannelChain::phase_then_awgn(theta, 14.0);
        let est = estimate_from_pilots(&qam, &mut ch, 32_000, 5);
        let rotated = qam.rotated(theta);
        for u in 0..16 {
            let d = est.point(u).dist_sqr(rotated.point(u)).sqrt();
            assert!(d < 0.03, "symbol {u}: drift {d}");
        }
    }

    #[test]
    fn unobserved_labels_fall_back() {
        let qam = Constellation::qam_gray(16);
        let mut est = PilotCentroidEstimator::new(16);
        est.observe(3, C32::new(0.5, 0.5));
        let c = est.centroids(&qam);
        assert_eq!(c.point(3), C32::new(0.5, 0.5));
        assert_eq!(c.point(7), qam.point(7));
    }

    #[test]
    fn estimate_improves_with_pilot_count() {
        let qam = Constellation::qam_gray(16);
        let drift = |n: usize| {
            let mut ch = Awgn::new(0.3);
            let est = estimate_from_pilots(&qam, &mut ch, n, 11);
            (0..16)
                .map(|u| est.point(u).dist_sqr(qam.point(u)).sqrt() as f64)
                .sum::<f64>()
                / 16.0
        };
        let coarse = drift(800);
        let fine = drift(51_200);
        // 64× pilots ⇒ ~8× lower standard error.
        assert!(fine < coarse * 0.5, "{coarse} → {fine}");
    }
}
