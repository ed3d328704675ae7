//! Folding-model consistency: the `Folding { pe, simd }` knob must
//! mean the same thing to the resource/latency model and the graph
//! compiler (DESIGN.md §11.3), it must never change a result, and
//! invalid factors must be rejected with errors that say what is
//! wrong.

use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_fpga::graph::{compile, compile_spec, GraphSpec};
use hybridem_fpga::mvau::{Folding, FoldingError, HwActivation, Mvau, MvauConfig};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;
use hybridem_nn::model::MlpSpec;

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

fn test_mvau(folding: Folding) -> Mvau {
    let fmt = QFormat::signed(8, 6);
    let mut cfg = MvauConfig::full_parallel(16, 16, fmt, fmt, fmt, false);
    cfg.folding = folding;
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let mut w = Matrix::zeros(16, 16);
    for v in w.as_mut_slice() {
        *v = rng.normal_f32() * 0.3;
    }
    let b = Matrix::zeros(1, 16);
    Mvau::from_dense(cfg, &w, &b, HwActivation::Relu)
}

#[test]
fn invalid_foldings_rejected_with_clear_errors() {
    assert_eq!(
        Folding::new(0, 4).validate_for(16, 16),
        Err(FoldingError::ZeroFactor)
    );
    assert_eq!(
        Folding::new(4, 0).validate_for(16, 16),
        Err(FoldingError::ZeroFactor)
    );
    let pe_err = Folding::new(3, 4).validate_for(16, 16).unwrap_err();
    assert_eq!(pe_err, FoldingError::PeDoesNotDivide { pe: 3, out_dim: 16 });
    assert_eq!(pe_err.to_string(), "pe=3 must divide out_dim=16");
    let simd_err = Folding::new(4, 5).validate_for(16, 16).unwrap_err();
    assert_eq!(
        simd_err,
        FoldingError::SimdDoesNotDivide {
            simd: 5,
            in_dim: 16
        }
    );
    assert_eq!(simd_err.to_string(), "simd=5 must divide in_dim=16");
    // `refold` refuses the same factors instead of building a unit
    // with a broken schedule.
    let m = test_mvau(Folding::full(16, 16));
    assert!(matches!(
        m.refold(Folding::new(3, 4)),
        Err(FoldingError::PeDoesNotDivide { .. })
    ));
}

#[test]
fn fit_to_picks_the_largest_valid_divisors() {
    for in_dim in [2usize, 6, 16] {
        for out_dim in [4usize, 12, 16] {
            for pe_req in 0..=2 * out_dim {
                for simd_req in 0..=2 * in_dim {
                    let fitted = Folding::new(pe_req, simd_req).fit_to(in_dim, out_dim);
                    fitted
                        .validate_for(in_dim, out_dim)
                        .expect("fitted folding valid");
                    // Never exceeds a non-zero request, and is maximal
                    // among divisors under it.
                    if pe_req > 0 {
                        assert!(fitted.pe <= pe_req.min(out_dim));
                        assert!(!(fitted.pe + 1..=pe_req.min(out_dim)).any(|d| out_dim % d == 0));
                    }
                    if simd_req > 0 {
                        assert!(fitted.simd <= simd_req.min(in_dim));
                        assert!(!(fitted.simd + 1..=simd_req.min(in_dim)).any(|d| in_dim % d == 0));
                    }
                }
            }
        }
    }
}

#[test]
fn resource_op_counts_scale_with_folding() {
    // One knob, two readings: multiplier count tracks pe·simd exactly
    // (the replicated MAC lanes), the initiation interval tracks the
    // fold counts exactly, and their product — work per input — is
    // invariant. The software kernels ignore the knob, so this is its
    // whole contract.
    let macs = 16u64 * 16;
    let mut last_dsp = 0;
    for &simd in &divisors(16) {
        for &pe in &divisors(16) {
            let m = test_mvau(Folding::new(pe, simd));
            let r = m.resources();
            assert_eq!(r.dsp, (pe * simd) as u64, "pe={pe} simd={simd}");
            assert_eq!(
                m.config().ii_cycles(),
                (16 / simd) as u64 * (16 / pe) as u64
            );
            assert_eq!(r.dsp * m.config().ii_cycles(), macs);
            // More parallelism never shrinks the fabric cost.
            if pe * simd > last_dsp as usize {
                last_dsp = r.dsp;
            }
        }
    }
    // Endpoints: unit folding is one multiplier over in·out cycles;
    // full folding is in·out multipliers at II=1.
    assert_eq!(test_mvau(Folding::unit()).resources().dsp, 1);
    assert_eq!(test_mvau(Folding::full(16, 16)).config().ii_cycles(), 1);
    let lut_unit = test_mvau(Folding::unit()).resources().lut;
    let lut_full = test_mvau(Folding::full(16, 16)).resources().lut;
    assert!(
        lut_full > lut_unit,
        "fully parallel fabric must cost more LUTs ({lut_full} vs {lut_unit})"
    );
}

#[test]
fn graph_folding_is_fitted_per_layer_and_fold_invariant() {
    // One uniform request across the paper demapper's 2→16→16→4
    // layers: each layer gets the request fitted to its own shape, and
    // the integer outputs stay bit-identical to the fully parallel
    // compile (fold invariance lifts from the MVAU to the graph).
    let model = MlpSpec::paper_demapper().build(&mut Xoshiro256pp::seed_from_u64(9));
    let q = |fmt: QFormat| QuantSpec {
        format: fmt,
        rounding: Rounding::Nearest,
    };
    let boundaries = vec![
        q(QFormat::signed(8, 5)),
        q(QFormat::signed(8, 4)),
        q(QFormat::signed(8, 4)),
        q(QFormat::unsigned(8, 8)),
    ];
    let parallel = compile(&model, &boundaries);
    let mut spec = GraphSpec::uniform(boundaries);
    spec.folding = Some(Folding::new(4, 4));
    let folded = compile_spec(&model, &spec);
    let dims = [(2usize, 16usize), (16, 16), (16, 4)];
    for (m, &(in_dim, out_dim)) in folded.mvaus().iter().zip(&dims) {
        let want = Folding::new(4, 4).fit_to(in_dim, out_dim);
        assert_eq!(m.config().pe(), want.pe, "{in_dim}→{out_dim}");
        assert_eq!(m.config().simd(), want.simd, "{in_dim}→{out_dim}");
    }
    // `with_folding` refits an already compiled graph the same way.
    let refolded = parallel.with_folding(Folding::new(4, 4));
    for (a, b) in refolded.mvaus().iter().zip(folded.mvaus()) {
        assert_eq!(a.config().pe(), b.config().pe());
        assert_eq!(a.config().simd(), b.config().simd());
    }
    let mut rng = Xoshiro256pp::seed_from_u64(10);
    for _ in 0..64 {
        let y = C32::new(rng.normal_f32(), rng.normal_f32());
        assert_eq!(parallel.process_iq(y), folded.process_iq(y));
        assert_eq!(parallel.process_iq(y), refolded.process_iq(y));
    }
}
