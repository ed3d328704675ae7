//! Worker-count and chunking heuristics.
//!
//! All thread-count policy lives here: every crate and bench binary
//! that honours the `HYBRIDEM_THREADS` override goes through
//! [`num_threads`], which parses it with the workspace's one strict
//! rule ([`hybridem_mathkit::env::parse_count`]), so the fallback for
//! unset, zero and garbage values is defined (and tested) exactly once.

use std::num::NonZeroUsize;

/// Environment variable overriding the worker count workspace-wide.
pub(crate) const THREADS_ENV: &str = "HYBRIDEM_THREADS";

/// Number of worker threads to use: the `HYBRIDEM_THREADS`
/// environment variable when it holds a valid count, even one above
/// the host's parallelism (useful for benchmarking scaling behaviour
/// and for CI determinism checks), else the available parallelism.
/// Only a plain all-digit string ≥ 1 is a valid count. Invalid values
/// (`0`, empty, whitespace, a signed form like `"+8"`, non-numeric)
/// are ignored rather than honoured or fatal: a misconfigured
/// environment degrades to the host default instead of serialising or
/// crashing a campaign. `HYBRIDEM_LANES` and the bench budget vars
/// reject the same strings, so one value means one thing
/// workspace-wide.
pub fn num_threads() -> usize {
    let value = std::env::var(THREADS_ENV).ok();
    hybridem_mathkit::env::parse_count_opt(value.as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Splits `len` items into at most `pieces` contiguous ranges of nearly
/// equal size (the first `len % pieces` ranges get one extra item).
/// Returns an empty vector for `len == 0`.
pub fn split_ranges(len: usize, pieces: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || pieces == 0 {
        return Vec::new();
    }
    let pieces = pieces.min(len);
    let base = len / pieces;
    let extra = len % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_thread() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn split_covers_everything_in_order() {
        for len in [0usize, 1, 7, 100, 101] {
            for pieces in [1usize, 2, 3, 8, 200] {
                let rs = split_ranges(len, pieces);
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next, "gapless");
                    assert!(!r.is_empty(), "no empty ranges");
                    next = r.end;
                }
                assert_eq!(next, len, "covers len={len} pieces={pieces}");
                if len > 0 {
                    assert!(rs.len() <= pieces);
                    let max = rs.iter().map(|r| r.len()).max().unwrap();
                    let min = rs.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1, "balanced");
                }
            }
        }
    }
}
