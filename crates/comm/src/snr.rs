//! SNR bookkeeping.
//!
//! The paper reports SNR as symbol-energy to noise-density ratio
//! `Es/N0` over a complex AWGN channel. With unit average symbol energy
//! (`Es = 1`, guaranteed by the mapper's power normalisation) and noise
//! variance σ² **per real dimension**, `N0 = 2σ²`, so
//! `σ = sqrt(1 / (2 · 10^(SNR_dB/10)))`.

/// Converts dB to the linear power ratio.
#[inline]
pub(crate) fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to dB.
#[inline]
pub(crate) fn linear_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Per-dimension noise standard deviation for a given Es/N0 (dB) and
/// average symbol energy `es` (1.0 for normalised constellations).
pub fn noise_sigma(es_n0_db: f64, es: f64) -> f64 {
    (es / (2.0 * db_to_linear(es_n0_db))).sqrt()
}

/// Eb/N0 (dB) → Es/N0 (dB) for `m` bits per symbol (no coding).
pub fn ebn0_to_esn0_db(eb_n0_db: f64, m: usize) -> f64 {
    eb_n0_db + linear_to_db(m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for &db in &[-10.0, 0.0, 3.0, 12.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-12);
        }
        assert!((db_to_linear(0.0) - 1.0).abs() < 1e-12);
        assert!((db_to_linear(3.0) - 1.9952623).abs() < 1e-6);
    }

    #[test]
    fn sigma_at_zero_db() {
        // Es/N0 = 1 ⇒ σ² = 1/2 per dimension.
        let s = noise_sigma(0.0, 1.0);
        assert!((s * s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sigma_decreases_with_snr() {
        assert!(noise_sigma(10.0, 1.0) < noise_sigma(0.0, 1.0));
        assert!(noise_sigma(0.0, 1.0) < noise_sigma(-10.0, 1.0));
    }

    #[test]
    fn es_eb_conversions() {
        // 16-QAM: 4 bits ⇒ 10·log10(4) ≈ 6.02 dB apart.
        let eb = 6.0;
        assert!((ebn0_to_esn0_db(eb, 4) - eb - 6.0206).abs() < 1e-3);
    }
}
