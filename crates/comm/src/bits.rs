//! Bit manipulation: symbol/bit packing and Gray codes.
//!
//! Convention: a symbol index packs its bits **MSB first** — bit `k = 0`
//! of an `m`-bit symbol is the most significant. This matches the
//! indexing `b_k` used in the paper's LLR formula and is used
//! consistently by constellations, demappers and the autoencoder.

/// Unpacks symbol `index` into `m` bits, MSB first.
#[inline]
pub fn unpack_bits(index: usize, m: usize, out: &mut [u8]) {
    debug_assert!(out.len() >= m);
    for (k, o) in out.iter_mut().enumerate().take(m) {
        *o = ((index >> (m - 1 - k)) & 1) as u8;
    }
}

/// Packs `m` bits (MSB first) into a symbol index.
#[inline]
pub fn pack_bits(bits: &[u8]) -> usize {
    let mut v = 0usize;
    for &b in bits {
        debug_assert!(b <= 1);
        v = (v << 1) | b as usize;
    }
    v
}

/// Bit `k` (MSB first) of symbol `index` with `m` bits total.
#[inline]
pub fn bit_of(index: usize, m: usize, k: usize) -> u8 {
    ((index >> (m - 1 - k)) & 1) as u8
}

/// Binary-reflected Gray code of `n`.
#[inline]
pub fn gray(n: usize) -> usize {
    n ^ (n >> 1)
}

/// Inverse Gray code (prefix-XOR by doubling shifts).
pub fn gray_inverse(g: usize) -> usize {
    let mut v = g;
    let mut s = 1;
    while s < usize::BITS as usize {
        v ^= v >> s;
        s <<= 1;
    }
    v
}

/// Number of differing bits between two words.
#[inline]
pub fn hamming_distance(a: usize, b: usize) -> u32 {
    (a ^ b).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let mut bits = [0u8; 4];
        for idx in 0..16 {
            unpack_bits(idx, 4, &mut bits);
            assert_eq!(pack_bits(&bits), idx);
        }
        // MSB-first convention: 0b1000 = 8.
        unpack_bits(8, 4, &mut bits);
        assert_eq!(bits, [1, 0, 0, 0]);
        assert_eq!(bit_of(8, 4, 0), 1);
        assert_eq!(bit_of(8, 4, 3), 0);
    }

    #[test]
    fn gray_adjacent_codes_differ_in_one_bit() {
        for n in 0..255usize {
            assert_eq!(hamming_distance(gray(n), gray(n + 1)), 1);
        }
    }

    #[test]
    fn gray_is_a_bijection_with_inverse() {
        let mut seen = [false; 256];
        for n in 0..256usize {
            let g = gray(n);
            assert!(!seen[g], "gray not injective");
            seen[g] = true;
            assert_eq!(gray_inverse(g), n);
        }
    }
}
