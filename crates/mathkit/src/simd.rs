//! Portable fixed-width SIMD lanes with runtime width dispatch.
//!
//! The workspace's hot integer/float kernels (the MVAU block datapath,
//! the max-log point-outer demapper, the float dense layer's products)
//! are written once, generic over a
//! compile-time lane count `N`, against the chunked-lane type
//! [`Simd<T, N>`] — a plain `[T; N]` whose `#[inline(always)]`
//! elementwise ops the LLVM autovectorizer lowers to one vector
//! instruction each. No nightly features and no intrinsics: the
//! portable scalar form *is* the specification, so results are
//! bit-exact at every width (including the scalar remainder loops the
//! kernels keep for non-multiple lengths).
//!
//! Width selection is a *runtime* decision behind the [`LaneWidth`]
//! probe: [`dispatch_at`] monomorphises the caller's [`SimdKernel`]
//! at N = 4/8/16 (at [`LaneWidth::detect`] on the hot paths, at every
//! supported width in the tests) inside `#[target_feature]` trampolines (AVX2 for ×8,
//! AVX-512 for ×16 on x86-64), so a plain portable build — **without**
//! `-C target-cpu=native` — still executes AVX2/AVX-512 code on hosts
//! that have it, and falls back to 128-bit (SSE2/NEON) lanes anywhere
//! else. Correctness never depends on the probe: every path computes
//! the same elementwise arithmetic in the same order (DESIGN.md §11).

use std::sync::OnceLock;

/// The widest lane count [`dispatch_at`] will select (AVX-512: 16 × i32).
pub const MAX_LANES: usize = 16;

/// A runtime-selected SIMD width, in 32-bit lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneWidth {
    /// 128-bit vectors (SSE2 / NEON baseline): 4 × i32/f32.
    X4,
    /// 256-bit vectors (AVX2): 8 × i32/f32.
    X8,
    /// 512-bit vectors (AVX-512F/BW/DQ/VL): 16 × i32/f32.
    X16,
}

impl LaneWidth {
    /// Number of 32-bit lanes.
    pub const fn lanes(self) -> usize {
        match self {
            LaneWidth::X4 => 4,
            LaneWidth::X8 => 8,
            LaneWidth::X16 => 16,
        }
    }

    /// The widest width this host can execute, probed once per
    /// process. `HYBRIDEM_LANES=4|8|16` caps the selection (useful for
    /// A/B timing and for exercising narrower code paths); it can
    /// never raise it above what the CPU supports.
    pub fn detect() -> LaneWidth {
        static DETECTED: OnceLock<LaneWidth> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let hw = probe_hardware();
            // Strict shared parsing (crate::env): "+8" or " 4 " fall
            // back to the hardware probe instead of being honoured.
            let cap = std::env::var("HYBRIDEM_LANES")
                .ok()
                .as_deref()
                .and_then(crate::env::parse_count);
            match cap {
                Some(4) => LaneWidth::X4,
                Some(8) => hw.min(LaneWidth::X8),
                Some(16) => hw,
                _ => hw,
            }
        })
    }

    /// Every width this host can execute, narrowest first — the sweep
    /// the bit-exactness property tests run over.
    pub fn supported() -> Vec<LaneWidth> {
        let mut v = vec![LaneWidth::X4];
        let top = probe_hardware();
        if top >= LaneWidth::X8 {
            v.push(LaneWidth::X8);
        }
        if top >= LaneWidth::X16 {
            v.push(LaneWidth::X16);
        }
        v
    }
}

#[cfg(target_arch = "x86_64")]
fn probe_hardware() -> LaneWidth {
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
    {
        LaneWidth::X16
    } else if is_x86_feature_detected!("avx2") {
        LaneWidth::X8
    } else {
        LaneWidth::X4
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe_hardware() -> LaneWidth {
    // 128-bit NEON/SSE2-class baseline; wider portable lanes bring no
    // benefit without matching hardware vectors.
    LaneWidth::X4
}

/// A width-generic SIMD computation: implementors capture their inputs
/// and write the kernel body once in `run::<N>()`. [`dispatch_at`]
/// monomorphises it at the requested width inside a `#[target_feature]`
/// trampoline so the body vectorises with the host's full ISA.
pub trait SimdKernel {
    /// Result of the kernel.
    type Output;
    /// The kernel body, generic over the lane count.
    fn run<const N: usize>(self) -> Self::Output;
}

/// Runs `k` at an explicit width (clamped to what the host supports —
/// the trampolines must not execute unavailable instructions): the hot
/// paths pass [`LaneWidth::detect`], the property tests every width of
/// [`LaneWidth::supported`] to prove bit-exactness across them.
#[inline]
pub fn dispatch_at<K: SimdKernel>(width: LaneWidth, k: K) -> K::Output {
    match width.min(probe_hardware()) {
        // SAFETY: probe_hardware() confirmed the trampoline's target
        // features are available on this CPU.
        LaneWidth::X16 => unsafe { run16(k) },
        LaneWidth::X8 => unsafe { run8(k) },
        LaneWidth::X4 => k.run::<4>(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run8<K: SimdKernel>(k: K) -> K::Output {
    k.run::<8>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(
    enable = "avx512f",
    enable = "avx512bw",
    enable = "avx512dq",
    enable = "avx512vl"
)]
unsafe fn run16<K: SimdKernel>(k: K) -> K::Output {
    k.run::<16>()
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn run8<K: SimdKernel>(k: K) -> K::Output {
    k.run::<8>()
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn run16<K: SimdKernel>(k: K) -> K::Output {
    k.run::<16>()
}

/// A chunk of `N` lanes of `T` — the portable stand-in for `i32x8` /
/// `f32x8`-style vector registers. All ops are elementwise, lane `i`
/// of the result depending only on lane `i` of the operands, so a
/// kernel written over `Simd` chunks plus a scalar remainder loop is
/// bit-identical to its scalar reference at any `N`.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct Simd<T, const N: usize>(pub [T; N]);

macro_rules! simd_common {
    ($t:ty) => {
        impl<const N: usize> Simd<$t, N> {
            /// All lanes set to `v`.
            #[inline(always)]
            pub fn splat(v: $t) -> Self {
                Self([v; N])
            }

            /// Loads the first `N` elements of `s`.
            ///
            /// # Panics
            /// Panics if `s.len() < N`.
            #[inline(always)]
            pub fn load(s: &[$t]) -> Self {
                Self(s[..N].try_into().unwrap())
            }

            /// Stores the lanes into the first `N` elements of `d`.
            ///
            /// # Panics
            /// Panics if `d.len() < N`.
            #[inline(always)]
            pub fn store(self, d: &mut [$t]) {
                d[..N].copy_from_slice(&self.0);
            }

            /// Lanewise sum.
            #[inline(always)]
            #[allow(clippy::should_implement_trait)] // method-call style is the lane-op idiom
            pub fn add(self, o: Self) -> Self {
                let mut r = self.0;
                for (a, b) in r.iter_mut().zip(o.0) {
                    *a += b;
                }
                Self(r)
            }

            /// Lanewise product.
            #[inline(always)]
            #[allow(clippy::should_implement_trait)] // method-call style is the lane-op idiom
            pub fn mul(self, o: Self) -> Self {
                let mut r = self.0;
                for (a, b) in r.iter_mut().zip(o.0) {
                    *a *= b;
                }
                Self(r)
            }

            /// Lanewise `self + a * b` — the MAC step of the integer
            /// datapaths (and an FMA candidate for floats).
            #[inline(always)]
            pub fn mul_add(self, a: Self, b: Self) -> Self {
                self.add(a.mul(b))
            }

            /// Lanewise minimum, keeping `self` on ties: exactly the
            /// `if o < self { o } else { self }` update of the scalar
            /// running-minimum loops it replaces.
            #[inline(always)]
            pub fn min(self, o: Self) -> Self {
                let mut r = self.0;
                for (a, b) in r.iter_mut().zip(o.0) {
                    if b < *a {
                        *a = b;
                    }
                }
                Self(r)
            }
        }
    };
}

macro_rules! simd_int {
    ($t:ty) => {
        impl<const N: usize> Simd<$t, N> {
            /// Lanewise clamp into `[lo, hi]` — the saturation step of
            /// a fixed-point cast.
            #[inline(always)]
            pub fn clamp(self, lo: $t, hi: $t) -> Self {
                let mut r = self.0;
                for a in r.iter_mut() {
                    *a = (*a).clamp(lo, hi);
                }
                Self(r)
            }

            /// Lanewise arithmetic shift right (truncate-toward-−∞,
            /// i.e. `Rounding::Truncate`). `s` must be < the lane width.
            #[inline(always)]
            #[allow(clippy::should_implement_trait)] // method-call style is the lane-op idiom
            pub fn shr(self, s: u32) -> Self {
                let mut r = self.0;
                for a in r.iter_mut() {
                    *a >>= s;
                }
                Self(r)
            }

            /// Lanewise round-to-nearest right shift, ties away from
            /// zero — bit-identical to
            /// `hybridem_fixed::Rounding::Nearest::shift_right` for
            /// `1 ≤ s < lane width − 1`. Branchless (sign-mask
            /// absolute value, round, restore sign) so the lowering is
            /// a handful of vector ops instead of per-lane branches —
            /// exact because callers keep |x| well below the type's
            /// maximum (no `abs` overflow).
            #[inline(always)]
            pub fn round_shr_nearest(self, s: u32) -> Self {
                let half = 1 << (s - 1);
                let mut r = self.0;
                for a in r.iter_mut() {
                    let m = *a >> (<$t>::BITS - 1);
                    let mag = (*a ^ m) - m;
                    let rounded = (mag + half) >> s;
                    *a = (rounded ^ m) - m;
                }
                Self(r)
            }

            /// Lanewise `max(0, x)` — the ReLU pre-cast step.
            #[inline(always)]
            pub fn relu(self) -> Self {
                let mut r = self.0;
                for a in r.iter_mut() {
                    *a = (*a).max(0);
                }
                Self(r)
            }
        }
    };
}

simd_common!(i32);
simd_common!(i64);
simd_common!(f32);
simd_int!(i32);
simd_int!(i64);

impl<const N: usize> Simd<f32, N> {
    /// Lanewise difference.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)] // method-call style is the lane-op idiom
    pub fn sub(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(o.0) {
            *a -= b;
        }
        Self(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_width_ordering_and_lanes() {
        assert!(LaneWidth::X4 < LaneWidth::X8);
        assert!(LaneWidth::X8 < LaneWidth::X16);
        assert_eq!(LaneWidth::X4.lanes(), 4);
        assert_eq!(LaneWidth::X8.lanes(), 8);
        assert_eq!(LaneWidth::X16.lanes(), 16);
        assert!(LaneWidth::detect().lanes() <= MAX_LANES);
    }

    #[test]
    fn supported_is_prefix_closed() {
        let s = LaneWidth::supported();
        assert_eq!(s[0], LaneWidth::X4);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.contains(&LaneWidth::detect()) || LaneWidth::detect() <= *s.last().unwrap());
    }

    struct SumSquares<'a>(&'a [f32]);
    impl SimdKernel for SumSquares<'_> {
        type Output = f32;
        fn run<const N: usize>(self) -> f32 {
            // Per-chunk-then-remainder, accumulated in slice order per
            // lane, summed lane-major: deterministic at any width only
            // because the test fixes the reduction order below.
            let mut acc = [0f32; MAX_LANES];
            let chunks = self.0.chunks_exact(N);
            let rem = chunks.remainder();
            for c in chunks {
                let v = Simd::<f32, N>::load(c);
                for (a, x) in acc.iter_mut().zip(v.mul(v).0) {
                    *a += x;
                }
            }
            let mut tail = 0f32;
            for &x in rem {
                tail += x * x;
            }
            acc[..N].iter().sum::<f32>() + tail
        }
    }

    #[test]
    fn dispatch_runs_at_every_supported_width() {
        let xs: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let reference: f32 = xs.iter().map(|x| x * x).sum::<f32>();
        for w in LaneWidth::supported() {
            let got = dispatch_at(w, SumSquares(&xs));
            // Chunked summation reassociates, so allow float slack.
            assert!(
                (got - reference).abs() / reference < 1e-5,
                "width {w:?}: {got} vs {reference}"
            );
        }
        let got = dispatch_at(LaneWidth::detect(), SumSquares(&xs));
        assert!((got - reference).abs() / reference < 1e-5);
    }

    #[test]
    fn integer_ops_match_scalar_semantics() {
        let a = Simd::<i32, 4>([7, -7, 5, -3]);
        assert_eq!(a.round_shr_nearest(1).0, [4, -4, 3, -2]);
        assert_eq!(a.shr(1).0, [3, -4, 2, -2]);
        assert_eq!(a.relu().0, [7, 0, 5, 0]);
        assert_eq!(a.clamp(-4, 4).0, [4, -4, 4, -3]);
        let b = Simd::<i32, 4>::splat(2);
        assert_eq!(a.mul(b).0, [14, -14, 10, -6]);
        assert_eq!(a.add(b).0, [9, -5, 7, -1]);
        assert_eq!(
            b.mul_add(a, Simd::<i32, 4>::splat(10)).0,
            [72, -68, 52, -28]
        );
    }

    #[test]
    fn round_shr_nearest_matches_fixed_rounding() {
        // Exhaustive small-range check against the scalar definition
        // (ties away from zero), mirroring Rounding::Nearest.
        for s in 1..8u32 {
            for raw in -1000i64..1000 {
                let half = 1i64 << (s - 1);
                let want = if raw >= 0 {
                    (raw + half) >> s
                } else {
                    -((-raw + half) >> s)
                };
                let got = Simd::<i64, 4>::splat(raw).round_shr_nearest(s).0[0];
                assert_eq!(got, want, "raw={raw} s={s}");
            }
        }
    }

    #[test]
    fn min_keeps_self_on_ties() {
        let a = Simd::<f32, 4>([1.0, 2.0, 3.0, 4.0]);
        let b = Simd::<f32, 4>([1.0, 0.0, 9.0, 4.0]);
        assert_eq!(a.min(b).0, [1.0, 0.0, 3.0, 4.0]);
        // NaN in the incoming operand never replaces a finite lane
        // (matches `if b < a { b }`).
        let n = Simd::<f32, 4>::splat(f32::NAN);
        assert_eq!(a.min(n).0, a.0);
    }

    #[test]
    fn load_store_round_trip() {
        let src = [1i32, 2, 3, 4, 5];
        let v = Simd::<i32, 4>::load(&src);
        let mut dst = [0i32; 5];
        v.store(&mut dst);
        assert_eq!(dst, [1, 2, 3, 4, 0]);
    }
}
