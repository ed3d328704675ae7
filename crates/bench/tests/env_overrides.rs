//! The bench harness under its environment overrides.
//!
//! This test sets and removes process environment variables, so it
//! lives alone in its own test binary: `std::env::set_var` while other
//! tests' threads call `getenv` is a data race on glibc (see
//! `tests/drift_runtime.rs`). With a single `#[test]` in the process
//! there are no concurrent readers.

use hybridem_bench::{assert_written, budget, perf, write_json, write_text};
use hybridem_mathkit::json::Json;

#[test]
fn harness_honours_its_environment_overrides() {
    // HYBRIDEM_BENCH_MS: a malformed or zero value means the full
    // budget everywhere, so it is no smoke run either.
    for bad in ["0", "abc", ""] {
        std::env::set_var("HYBRIDEM_BENCH_MS", bad);
        assert_eq!(perf::bench_budget_ms(), 300, "{bad:?}");
        assert!(!perf::smoke_mode(), "{bad:?}");
    }
    // A 1 ms budget is a smoke run and still yields a positive median.
    std::env::set_var("HYBRIDEM_BENCH_MS", "1");
    assert_eq!(perf::bench_budget_ms(), 1);
    assert!(perf::smoke_mode());
    let mut x = 0u64;
    let melems = perf::measure_melems(1000, || {
        x = x.wrapping_add(std::hint::black_box(1));
    });
    assert!(melems > 0.0);

    // HYBRIDEM_RESULTS: artefacts land in the named directory.
    let dir = std::env::temp_dir().join("hybridem-bench-test");
    std::env::set_var("HYBRIDEM_RESULTS", &dir);
    let p = write_json("test.json", &Json::object([("x", Json::Int(1))]));
    assert_written(&p);
    assert!(p.starts_with(&dir), "{p:?} outside {dir:?}");
    let p = write_text("test.txt", "hello");
    assert_written(&p);
    assert_eq!(std::fs::read_to_string(p).unwrap(), "hello");

    // HYBRIDEM_QUICK: full budgets unless set to 1.
    std::env::remove_var("HYBRIDEM_QUICK");
    assert_eq!(budget(800), 800);
    std::env::set_var("HYBRIDEM_QUICK", "1");
    assert_eq!(budget(800), 100);
}
