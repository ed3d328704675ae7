//! Property-based tests of the communication substrate.

use hybridem_comm::bits::{bit_of, gray, gray_inverse, hamming_distance, pack_bits, unpack_bits};
use hybridem_comm::campaign::EarlyStop;
use hybridem_comm::channel::{Awgn, Cfo, Channel, ChannelChain, IqImbalance, PhaseOffset};
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, ExactLogMap, HardNearest, MaxLogMap};
use hybridem_comm::ecc::{ConvCode, Viterbi};
use hybridem_comm::trajectory::{ChannelState, Taps, Trajectory};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_mathkit::simd::LaneWidth;
use proptest::prelude::*;

proptest! {
    #[test]
    fn pack_unpack_inverse(idx in 0usize..65536, m in 1usize..16) {
        let idx = idx & ((1 << m) - 1);
        let mut bits = vec![0u8; m];
        unpack_bits(idx, m, &mut bits);
        prop_assert_eq!(pack_bits(&bits), idx);
        for (k, &b) in bits.iter().enumerate() {
            prop_assert_eq!(bit_of(idx, m, k), b);
        }
    }

    #[test]
    fn round_schedule_covers_the_cap_exactly(
        max_symbols in 0u64..10_000_000,
        first in 1u64..100_000,
        growth in 1u32..8,
        block_len in 1usize..2048,
    ) {
        // The campaign round schedule is a pure function of
        // (stop, block_len): rounds are non-empty, grow geometrically
        // until the final (possibly truncated) round, and sum to
        // exactly ceil(max_symbols / block_len) blocks.
        let stop = EarlyStop {
            target_bit_errors: 100,
            max_symbols_per_point: max_symbols,
            first_round_symbols: first,
            growth,
        };
        let rounds: Vec<u64> = stop.round_schedule(block_len).collect();
        let cap_blocks = max_symbols.div_ceil(block_len as u64);
        prop_assert_eq!(rounds.iter().sum::<u64>(), cap_blocks);
        prop_assert!(rounds.iter().all(|&b| b > 0));
        let nominal_first = first.div_ceil(block_len as u64).max(1);
        let mut expected = nominal_first;
        for (i, &b) in rounds.iter().enumerate() {
            if i + 1 < rounds.len() {
                prop_assert_eq!(b, expected, "round {} not geometric", i);
            } else {
                prop_assert!(b <= expected, "final round may only truncate");
            }
            expected = expected.saturating_mul(u64::from(growth));
        }
        // Determinism: re-collecting gives the same schedule.
        prop_assert_eq!(rounds, stop.round_schedule(block_len).collect::<Vec<u64>>());
    }

    #[test]
    fn gray_bijective_with_unit_steps(n in 0usize..100_000) {
        prop_assert_eq!(gray_inverse(gray(n)), n);
        prop_assert_eq!(hamming_distance(gray(n), gray(n + 1)), 1);
    }

    #[test]
    fn qam_rotation_commutes_with_nearest(theta in -3.2f32..3.2, u in 0usize..16) {
        // Rotating both the constellation and the query point preserves
        // the decision.
        let qam = Constellation::qam_gray(16);
        let rot = qam.rotated(theta);
        let y = qam.point(u).scale(0.9);
        prop_assert_eq!(qam.nearest(y), rot.nearest(y.rotate(theta)));
    }

    #[test]
    fn maxlog_hard_decisions_equal_nearest_symbol(
        re in -1.6f32..1.6, im in -1.6f32..1.6, sigma in 0.05f32..0.5
    ) {
        // The max-log bit decisions are exactly the bits of the nearest
        // point (the global min dominates both per-bit minima).
        let qam = Constellation::qam_gray(16);
        let demapper = MaxLogMap::new(qam.clone(), sigma);
        let hard = HardNearest::new(qam.clone());
        let y = C32::new(re, im);
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        demapper.hard_decide(y, &mut a);
        hard.hard_decide(y, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn exact_and_maxlog_agree_confidently(
        re in -1.6f32..1.6, im in -1.6f32..1.6
    ) {
        // Wherever the exact demapper is confident (|LLR| > 1), the
        // max-log sign agrees.
        let sigma = 0.25f32;
        let qam = Constellation::qam_gray(16);
        let exact = ExactLogMap::new(qam.clone(), sigma);
        let ml = MaxLogMap::new(qam, sigma);
        let y = C32::new(re, im);
        let mut le = [0f32; 4];
        let mut lm = [0f32; 4];
        exact.llrs(y, &mut le);
        ml.llrs(y, &mut lm);
        for k in 0..4 {
            if le[k].abs() > 1.0 {
                prop_assert_eq!(le[k] > 0.0, lm[k] > 0.0, "bit {}", k);
            }
        }
    }

    #[test]
    fn llr_antisymmetric_under_point_reflection(re in -1.5f32..1.5, im in -1.5f32..1.5) {
        // Gray square QAM is symmetric under (I,Q) → (−I,−Q) with the
        // sign bits of both axes flipped: the axis-polarity LLRs negate,
        // the amplitude LLRs are unchanged.
        let sigma = 0.2f32;
        let qam = Constellation::qam_gray(16);
        let d = MaxLogMap::new(qam, sigma);
        let mut l1 = [0f32; 4];
        let mut l2 = [0f32; 4];
        d.llrs(C32::new(re, im), &mut l1);
        d.llrs(C32::new(-re, -im), &mut l2);
        prop_assert!((l1[0] + l2[0]).abs() < 1e-3, "I-sign bit antisymmetric");
        prop_assert!((l1[2] + l2[2]).abs() < 1e-3, "Q-sign bit antisymmetric");
        prop_assert!((l1[1] - l2[1]).abs() < 1e-3, "I-amplitude bit symmetric");
        prop_assert!((l1[3] - l2[3]).abs() < 1e-3, "Q-amplitude bit symmetric");
    }

    #[test]
    fn demap_block_bit_exact_with_per_symbol_loop(
        len in 0usize..40,
        theta in -3.2f32..3.2,
        sigma in 0.05f32..0.5,
        seed in any::<u64>(),
    ) {
        // The block-demapping contract: for every conventional demapper
        // family, `demap_block` equals a per-symbol `llrs` loop to the
        // bit, across block lengths (incl. 0 and 1) and rotated
        // centroid sets (the hybrid use-case).
        let centroids = Constellation::qam_gray(16).rotated(theta);
        let demappers: Vec<Box<dyn Demapper>> = vec![
            Box::new(ExactLogMap::new(centroids.clone(), sigma)),
            Box::new(MaxLogMap::new(centroids.clone(), sigma)),
            Box::new(HardNearest::new(centroids.clone())),
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let ys: Vec<C32> = (0..len)
            .map(|_| C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect();
        for d in &demappers {
            let m = d.bits_per_symbol();
            let mut block = vec![0f32; ys.len() * m];
            d.demap_block(&ys, &mut block);
            let mut single = vec![0f32; m];
            for (s, &y) in ys.iter().enumerate() {
                d.llrs(y, &mut single);
                for k in 0..m {
                    prop_assert_eq!(
                        block[s * m + k].to_bits(),
                        single[k].to_bits(),
                        "symbol {} bit {}: block {} vs per-symbol {}",
                        s, k, block[s * m + k], single[k]
                    );
                }
            }
            // Block hard decisions follow the same LLR signs.
            let mut hard_block = vec![0u8; ys.len() * m];
            d.hard_decide_block(&ys, &mut hard_block);
            for (b, &l) in hard_block.iter().zip(&block) {
                prop_assert_eq!(*b, u8::from(l < 0.0));
            }
        }
    }

    #[test]
    fn deterministic_channels_preserve_energy_statistics(
        theta in -3.0f32..3.0, seed in any::<u64>()
    ) {
        // Phase rotation is an isometry on every sample.
        let mut ch = PhaseOffset::new(theta);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut block = vec![C32::new(0.7, -0.3); 32];
        ch.transmit(&mut block, &mut rng);
        for y in &block {
            prop_assert!((y.abs() - C32::new(0.7, -0.3).abs()).abs() < 1e-5);
        }
    }

    #[test]
    fn channel_chain_equals_manual_composition(theta in -1.0f32..1.0, seed in any::<u64>()) {
        let mut chain = ChannelChain::phase_then_awgn(theta, 10.0);
        let mut manual_rot = PhaseOffset::new(theta);
        let mut manual_awgn = Awgn::from_es_n0_db(10.0);
        let mut a = vec![C32::new(1.0, 0.25); 16];
        let mut b = a.clone();
        let mut rng1 = Xoshiro256pp::seed_from_u64(seed);
        let mut rng2 = Xoshiro256pp::seed_from_u64(seed);
        chain.transmit(&mut a, &mut rng1);
        manual_rot.transmit(&mut b, &mut rng2);
        manual_awgn.transmit(&mut b, &mut rng2);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.re - y.re).abs() < 1e-6 && (x.im - y.im).abs() < 1e-6);
        }
    }

    #[test]
    fn cfo_reset_restores_initial_state(delta in -0.5f32..0.5, n in 1usize..64, seed in any::<u64>()) {
        let mut ch = Cfo::new(delta);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut first = vec![C32::new(1.0, 0.0); n];
        ch.transmit(&mut first, &mut rng);
        ch.reset();
        let mut second = vec![C32::new(1.0, 0.0); n];
        ch.transmit(&mut second, &mut rng);
        for (a, b) in first.iter().zip(&second) {
            prop_assert!((a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6);
        }
    }

    #[test]
    fn iq_imbalance_is_linear_over_reals(eps in -0.2f32..0.2, phi in -0.3f32..0.3,
                                         k in -2.0f32..2.0) {
        // y(k·x) = k·y(x) for real scaling (the map is R-linear).
        let mut ch = IqImbalance::new(eps, phi);
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let x = C32::new(0.6, -0.8);
        let mut a = vec![x];
        let mut b = vec![x.scale(k)];
        ch.transmit(&mut a, &mut rng);
        ch.transmit(&mut b, &mut rng);
        prop_assert!((b[0].re - k * a[0].re).abs() < 1e-4);
        prop_assert!((b[0].im - k * a[0].im).abs() < 1e-4);
    }

    #[test]
    fn viterbi_decodes_clean_streams(bits in proptest::collection::vec(0u8..2, 1..128)) {
        let code = ConvCode::new();
        let vit = Viterbi::new();
        let tx = code.encode(&bits);
        let out = vit.decode_hard(&code, &tx);
        prop_assert_eq!(out.bits, bits);
        prop_assert_eq!(out.corrected, 0);
    }

    #[test]
    fn trajectory_states_never_go_non_finite(
        script in proptest::collection::vec(
            (
                (
                    any::<bool>(),   // ramp (true) or hold (false)
                    1u64..12,        // segment frames
                    prop_oneof![     // Es/N0: finite or noiseless
                        Just(f64::INFINITY),
                        -10.0f64..40.0,
                    ],
                ),
                (
                    -3.2f32..3.2,    // phase
                    -0.01f32..0.01,  // CFO rate
                    0u8..3,          // taps preset selector
                ),
            ),
            1..8,
        ),
    ) {
        // Regression territory for the lerp NaN bug: a ramp between a
        // noiseless (INFINITY) endpoint and a finite one once computed
        // INF − INF inside the interpolation. The contract is that a
        // ramp with any non-finite endpoint degenerates to holding its
        // start, so *no* script — however it mixes INFINITY holds,
        // INFINITY→finite ramps and finite→INFINITY ramps — may ever
        // produce a NaN field. `es_n0_db` must stay finite-or-+INF;
        // every other field must stay strictly finite.
        let mut traj = Trajectory::new("prop");
        for &((ramp, frames, snr), (phase, cfo, tap_sel)) in &script {
            let taps = match tap_sel {
                0 => Taps::none(),
                1 => Taps::two_ray(0.4, 0.35, 1),
                _ => Taps::exponential(4, 1.0),
            };
            let state = ChannelState::clean(snr)
                .with_phase(phase)
                .with_cfo(cfo)
                .with_taps(taps);
            // A ramp needs a segment to start from: the first segment
            // of any script is always a hold.
            traj = if ramp && !traj.segments.is_empty() {
                traj.ramp(frames, state)
            } else {
                traj.hold(frames, state)
            };
        }
        for frame in 0..traj.total_frames() {
            let s = traj.state_at(frame);
            prop_assert!(
                s.es_n0_db.is_finite() || s.es_n0_db == f64::INFINITY,
                "frame {}: es_n0_db {}", frame, s.es_n0_db
            );
            prop_assert!(s.phase_rad.is_finite(), "frame {}: phase", frame);
            prop_assert!(s.cfo_rad_per_sym.is_finite(), "frame {}: cfo", frame);
            prop_assert!(s.iq_epsilon.is_finite() && s.iq_phi.is_finite(),
                         "frame {}: iq", frame);
            prop_assert!(s.interference_sigma.is_finite(), "frame {}: interference", frame);
            prop_assert!(
                s.taps.as_slice().iter().all(|c| c.is_finite()),
                "frame {}: taps {:?}", frame, s.taps
            );
        }
    }

    #[test]
    fn viterbi_corrected_count_bounded_by_flips(
        bits in proptest::collection::vec(0u8..2, 16..64),
        flips in proptest::collection::vec(0usize..128, 0..4),
    ) {
        let code = ConvCode::new();
        let vit = Viterbi::new();
        let clean = code.encode(&bits);
        let mut rx = clean.clone();
        let mut actual_flips = std::collections::BTreeSet::new();
        for &f in &flips {
            let pos = f % rx.len();
            // Count each position once (two flips cancel).
            if !actual_flips.insert(pos) {
                actual_flips.remove(&pos);
            }
            rx[pos] ^= 1;
        }
        let out = vit.decode_hard(&code, &rx);
        if out.bits == bits {
            // Correct decode: the survivor equals the clean codeword, so
            // the corrected count equals the number of flipped positions.
            prop_assert_eq!(out.corrected, actual_flips.len() as u64);
        }
    }
}

proptest! {
    // The width sweep re-runs every length at every supported lane
    // width; a handful of random point sets suffices because the
    // kernel is deterministic per (width, input).
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn maxlog_block_bit_exact_at_every_lane_width(
        theta in -3.2f32..3.2,
        sigma in 0.05f32..0.5,
        seed in any::<u64>(),
    ) {
        // The SIMD tile kernel's contract (DESIGN.md §11): demapping is
        // bit-identical at every lane width the host supports — chunk
        // lanes plus the scalar remainder compute exactly the scalar
        // reference — across lengths that exercise empty blocks, pure
        // remainders (1, 7), one full tile (256) and a multi-tile
        // stream with a trailing remainder (4097).
        let centroids = Constellation::qam_gray(16).rotated(theta);
        let maxlog = MaxLogMap::new(centroids, sigma);
        let m = maxlog.bits_per_symbol();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let all: Vec<C32> = (0..4097)
            .map(|_| C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect();
        for &len in &[0usize, 1, 7, 256, 4097] {
            let ys = &all[..len];
            let mut reference = vec![0f32; len * m];
            let mut single = vec![0f32; m];
            for (s, &y) in ys.iter().enumerate() {
                maxlog.llrs(y, &mut single);
                reference[s * m..(s + 1) * m].copy_from_slice(&single);
            }
            for width in LaneWidth::supported() {
                let mut block = vec![0f32; len * m];
                maxlog.demap_block_at(width, ys, &mut block);
                for (i, (b, r)) in block.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        b.to_bits(), r.to_bits(),
                        "len {} width {:?} llr {}: {} vs {}", len, width, i, b, r
                    );
                }
            }
        }
    }
}
