//! Deterministic, splittable random number generation.
//!
//! Reproducibility is a hard requirement for the experiments in this
//! workspace: a BER point must not depend on thread count or platform.
//! We therefore implement the two small, well-known generators used by
//! most scientific stacks ourselves instead of depending on a crate
//! whose stream may change between versions:
//!
//! - [`SplitMix64`] — Steele et al.'s 64-bit mixer, used to derive
//!   uncorrelated seeds for parallel workers;
//! - [`Xoshiro256pp`] — Blackman & Vigna's xoshiro256++ 1.0, the
//!   general-purpose stream generator.
//!
//! Gaussian variates come from the Marsaglia polar method, which is
//! exact (no tail truncation) — AWGN tail behaviour is precisely what
//! drives high-SNR BER. Its rejection loop is branch-heavy one variate
//! at a time; [`Xoshiro256pp::fill_normal_pairs`] draws a block of the
//! same variates without data-dependent branches.

/// Convenience trait implemented by all RNGs in this module.
pub trait Rng64 {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits: mantissa precision of f64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 random bits.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift reduction
    /// (unbiased enough for simulation workloads; `n` ≤ 2³² here).
    #[inline]
    fn below(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0);
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// A uniformly random bit.
    #[inline]
    fn bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Fills a slice with uniformly random bits (0/1 bytes).
    fn fill_bits(&mut self, out: &mut [u8]) {
        let mut buf = 0u64;
        let mut avail = 0u32;
        for b in out.iter_mut() {
            if avail == 0 {
                buf = self.next_u64();
                avail = 64;
            }
            *b = (buf & 1) as u8;
            buf >>= 1;
            avail -= 1;
        }
    }
}

/// SplitMix64 — a tiny mixing generator. Its main role here is turning
/// `(experiment seed, worker index)` pairs into well-separated seeds for
/// [`Xoshiro256pp`] streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives a child seed for worker `index`, well separated from other
    /// indices (golden-ratio jumps through the SplitMix sequence).
    pub fn derive(seed: u64, index: u64) -> u64 {
        let mut sm = Self::new(seed ^ index.wrapping_mul(0x9E3779B97F4A7C15));
        sm.next_u64()
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 — the workhorse stream generator.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the state through SplitMix64 as recommended by the authors
    /// (guarantees a non-zero state for every seed).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Independent stream for a parallel worker: equivalent to seeding
    /// from `SplitMix64::derive(seed, index)`.
    pub fn stream(seed: u64, index: u64) -> Self {
        Self::seed_from_u64(SplitMix64::derive(seed, index))
    }

    /// Standard-normal variate via the Marsaglia polar method: the
    /// first value of a [`Xoshiro256pp::normal_pair_f64`] pair.
    pub fn normal_f64(&mut self) -> f64 {
        self.normal_pair_f64().0
    }

    /// Standard-normal `f32` variate.
    #[inline]
    pub fn normal_f32(&mut self) -> f32 {
        self.normal_f64() as f32
    }

    /// A pair of independent standard normals (both polar outputs).
    pub fn normal_pair_f64(&mut self) -> (f64, f64) {
        let mut p = [[0.0; 2]];
        self.fill_normal_pairs(&mut p);
        (p[0][0], p[0][1])
    }

    /// Fills `out` with independent standard-normal pairs: bit for bit
    /// the values, and the stream position, of one
    /// [`Xoshiro256pp::normal_pair_f64`] call per entry in order. The
    /// polar accept test runs over the whole slice first and the
    /// `sqrt(−2 ln s / s)` scaling follows in a second pass, neither
    /// with a data-dependent branch, so no mispredicted rejection
    /// stalls the `ln`/division/`sqrt` chains of neighbouring pairs.
    pub fn fill_normal_pairs(&mut self, out: &mut [[f64; 2]]) {
        // Every candidate is written to the next free slot, which only
        // an accepted one advances.
        let mut n = 0;
        while n < out.len() {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            out[n] = [u, v];
            n += usize::from((s > 0.0) & (s < 1.0));
        }
        for p in out.iter_mut() {
            let [u, v] = *p;
            let s = u * u + v * v;
            let k = (-2.0 * s.ln() / s).sqrt();
            *p = [u * k, v * k];
        }
    }
}

impl Rng64 for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // Reference values computed from the public-domain C source of
        // xoshiro256++ 1.0 with state {1, 2, 3, 4}.
        let mut g = Xoshiro256pp { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    #[test]
    fn filled_normal_pairs_replay_the_one_pair_polar_loop() {
        // The textbook one-pair-at-a-time polar loop, accept test and
        // scaling interleaved.
        fn reference(g: &mut Xoshiro256pp) -> [f64; 2] {
            loop {
                let u = 2.0 * g.next_f64() - 1.0;
                let v = 2.0 * g.next_f64() - 1.0;
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    let k = (-2.0 * s.ln() / s).sqrt();
                    return [u * k, v * k];
                }
            }
        }
        for n in [0, 1, 7, 300] {
            let (mut a, mut b) = (Xoshiro256pp::stream(9, n), Xoshiro256pp::stream(9, n));
            let mut pairs = vec![[0.0; 2]; n as usize];
            a.fill_normal_pairs(&mut pairs);
            for p in &pairs {
                assert_eq!(p.map(f64::to_bits), reference(&mut b).map(f64::to_bits));
            }
            let (x, y) = a.normal_pair_f64();
            assert_eq!(
                [x.to_bits(), y.to_bits()],
                reference(&mut b).map(f64::to_bits)
            );
            assert_eq!(a.normal_f64().to_bits(), reference(&mut b)[0].to_bits());
            assert_eq!(a.next_u64(), b.next_u64(), "stream position");
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // From the public-domain reference implementation, seed = 0.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(g.next_u64(), 0x6E789E6AA1B965F4);
    }

    #[test]
    fn deterministic_streams() {
        let mut a = Xoshiro256pp::stream(42, 3);
        let mut b = Xoshiro256pp::stream(42, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::stream(42, 4);
        // Different stream indices should diverge immediately.
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_unit_interval() {
        let mut g = Xoshiro256pp::seed_from_u64(7);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut g = Xoshiro256pp::seed_from_u64(1);
        let mut counts = [0u32; 16];
        for _ in 0..160_000 {
            counts[g.below(16) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut g = Xoshiro256pp::seed_from_u64(123);
        let n = 200_000;
        let (mut m, mut v) = (0.0, 0.0);
        for _ in 0..n {
            let x = g.normal_f64();
            m += x;
            v += x * x;
        }
        let mean = m / n as f64;
        let var = v / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_pair_components_uncorrelated() {
        let mut g = Xoshiro256pp::seed_from_u64(5);
        let n = 100_000;
        let mut cov = 0.0;
        for _ in 0..n {
            let (a, b) = g.normal_pair_f64();
            cov += a * b;
        }
        assert!((cov / n as f64).abs() < 0.02);
    }

    #[test]
    fn fill_bits_balanced() {
        let mut g = Xoshiro256pp::seed_from_u64(99);
        let mut buf = vec![0u8; 100_000];
        g.fill_bits(&mut buf);
        let ones: u64 = buf.iter().map(|&b| b as u64).sum();
        assert!(buf.iter().all(|&b| b <= 1));
        assert!((ones as f64 - 50_000.0).abs() < 1_000.0);
    }
}
