//! Strict parsing for workspace environment knobs.
//!
//! Every `HYBRIDEM_*` count variable (`HYBRIDEM_THREADS`,
//! `HYBRIDEM_LANES`, the bench budget vars) is parsed by the one rule
//! in [`parse_count`]. The rule is deliberately stricter than
//! `str::parse::<u64>`: `parse` accepts a leading `+` and callers used
//! to pre-`trim`, so `"+8"` and `" 4 "` silently configured worker
//! pools while the SIMD lane cap's ad-hoc matcher rejected both —
//! the same value string meant different things to different crates.
//! One strict, shared parser makes a malformed value mean "fall back
//! to the default" *everywhere*, and makes that contract testable in
//! exactly one place.

/// Parses a count-valued environment variable strictly: `Some(n)` only
/// when `value` is entirely ASCII digits, fits in a `u64`, and is
/// ≥ 1. Rejected (→ `None`): the empty string, `"0"` (and `"00"`…),
/// any whitespace, a leading `+` or `-`, fractions, and garbage.
pub fn parse_count(value: &str) -> Option<u64> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse::<u64>().ok().filter(|&n| n >= 1)
}

/// [`parse_count`] for an optional value (the common
/// `std::env::var(..).ok().as_deref()` shape), narrowed to `usize`.
/// Counts above `usize::MAX` are rejected rather than truncated.
pub fn parse_count_opt(value: Option<&str>) -> Option<usize> {
    value
        .and_then(parse_count)
        .and_then(|n| usize::try_from(n).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_plain_positive_integers() {
        assert_eq!(parse_count("1"), Some(1));
        assert_eq!(parse_count("8"), Some(8));
        assert_eq!(parse_count("4096"), Some(4096));
        assert_eq!(parse_count("007"), Some(7), "leading zeros are digits");
    }

    #[test]
    fn rejects_zero_signs_whitespace_and_garbage() {
        assert_eq!(parse_count(""), None, "empty");
        assert_eq!(parse_count("0"), None, "zero");
        assert_eq!(parse_count("00"), None, "zero in disguise");
        assert_eq!(parse_count("+8"), None, "leading plus");
        assert_eq!(parse_count("-2"), None, "negative");
        assert_eq!(parse_count(" 4 "), None, "whitespace");
        assert_eq!(parse_count("4 "), None, "trailing whitespace");
        assert_eq!(parse_count("\t2"), None, "tab-padded");
        assert_eq!(parse_count("3.5"), None, "fractional");
        assert_eq!(parse_count("many"), None, "non-numeric");
        assert_eq!(parse_count("1e3"), None, "scientific notation");
    }

    #[test]
    fn rejects_overflow_instead_of_wrapping() {
        assert_eq!(parse_count("18446744073709551616"), None, "u64::MAX + 1");
        assert_eq!(parse_count("18446744073709551615"), Some(u64::MAX));
    }

    #[test]
    fn opt_narrows_to_usize() {
        assert_eq!(parse_count_opt(Some("12")), Some(12));
        assert_eq!(parse_count_opt(Some("+12")), None);
        assert_eq!(parse_count_opt(None), None);
    }
}
