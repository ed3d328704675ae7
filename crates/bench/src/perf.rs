//! In-repo perf-regression trajectories (DESIGN.md §11.4).
//!
//! The `perf` binary times the three hot software kernels — the MVAU
//! block datapath, the max-log point-outer demapper and the compiled
//! [`QuantizedGraph`](hybridem_fpga::graph::QuantizedGraph) demap — at
//! pinned shapes and appends one entry per run to the committed
//! trajectory files `BENCH_mvau.json` / `BENCH_demap.json` at the repo
//! root. Each entry records the median throughput per case (Melem/s,
//! elements = symbols), a host fingerprint (arch, probed SIMD lane
//! width, thread count) and the git revision, so the repo carries its
//! own performance history and a run **fails** when any case regresses
//! more than [`REGRESSION_TOLERANCE`] against the last committed
//! entry. A failing run leaves the committed file as it was and writes
//! its updated trajectory to the results dir, so a re-run still
//! compares against the last good entry.
//!
//! Budgets come from `HYBRIDEM_BENCH_MS` (milliseconds of sampling per
//! case). Setting it also switches to *smoke mode*: the schema and the
//! append path are still exercised, but the updated trajectory goes to
//! the results dir instead of the repo root and the regression
//! threshold only warns — a 1 ms CI smoke must not fail on timing
//! noise, and must not dirty the working tree.

use hybridem_mathkit::json::{Json, JsonError};
use hybridem_mathkit::simd::LaneWidth;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Schema tag every trajectory file must carry.
pub const PERF_SCHEMA: &str = "hybridem-perf-v1";

/// Relative throughput loss vs the last committed entry that fails a
/// full run (15%: generous against run-to-run noise at the default
/// budget, tight against a real kernel regression).
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// Sampling budget per case in milliseconds: `HYBRIDEM_BENCH_MS`
/// parsed by the strict shared rule
/// ([`hybridem_mathkit::env::parse_count`]), or 300 ms for full runs
/// and malformed values alike.
pub fn bench_budget_ms() -> u64 {
    std::env::var("HYBRIDEM_BENCH_MS")
        .ok()
        .as_deref()
        .and_then(hybridem_mathkit::env::parse_count)
        .unwrap_or(300)
}

/// True when `HYBRIDEM_BENCH_MS` is set: a reduced-budget run that
/// validates schema + append but neither fails on the threshold nor
/// writes into the repo.
pub fn smoke_mode() -> bool {
    std::env::var("HYBRIDEM_BENCH_MS").is_ok()
}

/// Times `f` repeatedly for the sampling budget and returns the median
/// per-iteration throughput in Melem/s. One warm-up call precedes
/// sampling (fills scratch buffers, faults pages); at least three
/// samples are always taken so the smoke budget still yields a median.
pub fn measure_melems<F: FnMut()>(elems_per_iter: u64, mut f: F) -> f64 {
    f();
    let budget = Duration::from_millis(bench_budget_ms());
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 3 || (t0.elapsed() < budget && samples.len() < 1_000_000) {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64().max(1e-9);
        samples.push(elems_per_iter as f64 / dt / 1e6);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Host fingerprint recorded with every entry: CPU architecture, the
/// probed [`LaneWidth`] (32-bit lanes the SIMD kernels dispatched at)
/// and the thread count.
pub fn host_fingerprint() -> Json {
    Json::object([
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("simd_lanes", Json::Int(LaneWidth::detect().lanes() as i128)),
        (
            "threads",
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as i128,
            ),
        ),
    ])
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// UTC date of the run (`YYYY-MM-DD`), or `"unknown"` without a `date`
/// binary.
pub fn utc_date() -> String {
    std::process::Command::new("date")
        .args(["-u", "+%Y-%m-%d"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Validates a trajectory document against the `hybridem-perf-v1`
/// schema: the tag, the bench name, and for every entry a `rev`,
/// `date`, a complete host fingerprint and a non-empty numeric
/// `results` map.
pub fn validate_trajectory(doc: &Json, bench: &str) -> Result<(), JsonError> {
    if doc.field("schema")?.as_str()? != PERF_SCHEMA {
        return Err(JsonError::new(format!(
            "trajectory schema must be {PERF_SCHEMA}"
        )));
    }
    if doc.field("bench")?.as_str()? != bench {
        return Err(JsonError::new(format!(
            "trajectory bench name must be {bench}"
        )));
    }
    let entries = doc.field("entries")?.as_arr()?;
    for (i, e) in entries.iter().enumerate() {
        let ctx = |msg: &str| JsonError::new(format!("entry {i}: {msg}"));
        e.field("rev")?.as_str()?;
        e.field("date")?.as_str()?;
        let host = e.field("host")?;
        host.field("arch")?.as_str()?;
        host.field("simd_lanes")?.as_i64()?;
        host.field("threads")?.as_i64()?;
        match e.field("results")? {
            Json::Obj(pairs) if !pairs.is_empty() => {
                for (k, v) in pairs {
                    let melems = v
                        .as_f64()
                        .map_err(|_| ctx(&format!("result {k} must be a number")))?;
                    if !(melems.is_finite() && melems > 0.0) {
                        return Err(ctx(&format!("result {k} must be positive")));
                    }
                }
            }
            _ => return Err(ctx("results must be a non-empty object")),
        }
    }
    Ok(())
}

/// Compares new medians against the previous entry's: one message per
/// case whose throughput dropped by more than `tolerance`
/// (fraction), quoting both medians in `unit`. Cases absent from
/// either side are skipped — adding or retiring a case is not a
/// regression.
pub fn regressions(
    prev_results: &Json,
    new_results: &[(String, f64)],
    tolerance: f64,
    unit: &str,
) -> Vec<String> {
    let mut msgs = Vec::new();
    for (case, new) in new_results {
        let Some(old) = prev_results.get(case).and_then(|v| v.as_f64().ok()) else {
            continue;
        };
        if *new < old * (1.0 - tolerance) {
            msgs.push(format!(
                "{case}: {new:.1} {unit} vs committed {old:.1} \
                 ({:+.1}% exceeds the {:.0}% tolerance)",
                (new / old - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    msgs
}

/// Repo-root path of a committed trajectory file
/// (`BENCH_<bench>.json`).
pub fn trajectory_path(bench: &str) -> PathBuf {
    // crates/bench → workspace root, fixed at compile time: the perf
    // gate must find the committed trajectory regardless of the cwd it
    // is invoked from.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{bench}.json"))
}

/// Outcome of one [`append_trajectory`] run.
struct TrajectoryUpdate {
    /// Where the updated trajectory was written.
    path: PathBuf,
    /// Regression messages vs the last committed entry (empty when
    /// clean or when there was no prior entry).
    regressions: Vec<String>,
}

/// Loads + validates the committed trajectory at `committed`, checks
/// the new medians against its last entry and appends the new entry.
/// A clean full-budget run writes the result back to `committed`; a
/// smoke run, or a run where any case regressed, writes it into the
/// directory `spill_dir` returns instead — CI must not dirty the tree,
/// and a failing gate must not commit its own regression as the next
/// baseline.
///
/// # Errors
/// Returns a message when the committed file exists but fails
/// validation — a corrupt trajectory must fail loudly, not be
/// silently replaced.
fn append_trajectory(
    committed: &Path,
    spill_dir: impl FnOnce() -> PathBuf,
    smoke: bool,
    bench: &str,
    results: &[(String, f64)],
    unit: &str,
) -> Result<TrajectoryUpdate, String> {
    let mut doc = match std::fs::read_to_string(committed) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", committed.display()))?;
            validate_trajectory(&doc, bench)
                .map_err(|e| format!("{}: {e:?}", committed.display()))?;
            doc
        }
        Err(_) => Json::object([
            ("schema", Json::Str(PERF_SCHEMA.to_string())),
            ("bench", Json::Str(bench.to_string())),
            ("entries", Json::Arr(Vec::new())),
        ]),
    };

    let regressions = doc
        .field("entries")
        .ok()
        .and_then(|e| e.as_arr().ok())
        .and_then(|entries| entries.last())
        .and_then(|last| last.get("results"))
        .map(|prev| self::regressions(prev, results, REGRESSION_TOLERANCE, unit))
        .unwrap_or_default();

    let entry = Json::object([
        ("rev", Json::Str(git_rev())),
        ("date", Json::Str(utc_date())),
        ("host", host_fingerprint()),
        (
            "results",
            Json::Obj(
                results
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Float(*v)))
                    .collect(),
            ),
        ),
    ]);
    if let Json::Obj(pairs) = &mut doc {
        for (k, v) in pairs.iter_mut() {
            if k == "entries" {
                if let Json::Arr(entries) = v {
                    entries.push(entry);
                    break;
                }
            }
        }
    }
    validate_trajectory(&doc, bench).map_err(|e| format!("new entry invalid: {e:?}"))?;

    let path = if smoke || !regressions.is_empty() {
        spill_dir().join(format!("BENCH_{bench}.json"))
    } else {
        committed.to_path_buf()
    };
    std::fs::write(&path, doc.to_string_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(TrajectoryUpdate { path, regressions })
}

/// The regression gate of a kernel bench bin: appends each
/// `(bench, results)` pair to its `BENCH_<bench>.json` trajectory,
/// prints every regression (medians in `unit`), and exits 1 when a
/// full-budget run regressed or a trajectory failed to load. Only a
/// clean full-budget run updates the committed file; smoke and
/// regressing runs write the updated trajectory to the results dir.
/// `gate` names the gate in the closing line (`"<gate> gate OK"`).
pub fn gate(gate: &str, unit: &str, benches: &[(&str, &[(String, f64)])]) {
    let mut failed = false;
    for &(bench, results) in benches {
        let update = append_trajectory(
            &trajectory_path(bench),
            crate::results_dir,
            smoke_mode(),
            bench,
            results,
            unit,
        );
        match update {
            Ok(update) => {
                println!("\nwrote {}", update.path.display());
                for msg in &update.regressions {
                    if smoke_mode() {
                        println!("  smoke-budget regression (ignored): {msg}");
                    } else {
                        eprintln!("  REGRESSION: {msg}");
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("trajectory {bench}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("\n{gate} gate FAILED (>15% below the last committed entry)");
        std::process::exit(1);
    }
    println!("\n{gate} gate OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(results: Vec<(&str, f64)>) -> Json {
        Json::object([
            ("rev", Json::Str("abc1234".into())),
            ("date", Json::Str("2026-08-08".into())),
            ("host", host_fingerprint()),
            (
                "results",
                Json::Obj(
                    results
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Float(v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn doc(bench: &str, entries: Vec<Json>) -> Json {
        Json::object([
            ("schema", Json::Str(PERF_SCHEMA.into())),
            ("bench", Json::Str(bench.into())),
            ("entries", Json::Arr(entries)),
        ])
    }

    #[test]
    fn schema_accepts_well_formed_and_rejects_mutations() {
        let good = doc("mvau", vec![entry(vec![("mvau_block_n256_w8", 56.0)])]);
        validate_trajectory(&good, "mvau").unwrap();
        // Round-trips through the serializer.
        let reparsed = Json::parse(&good.to_string_pretty()).unwrap();
        validate_trajectory(&reparsed, "mvau").unwrap();

        assert!(validate_trajectory(&good, "demap").is_err(), "bench name");
        let bad_schema = doc("mvau", vec![]);
        let Json::Obj(mut pairs) = bad_schema else {
            unreachable!()
        };
        pairs[0].1 = Json::Str("other-v0".into());
        assert!(validate_trajectory(&Json::Obj(pairs), "mvau").is_err());
        let empty_results = doc("mvau", vec![entry(vec![])]);
        assert!(validate_trajectory(&empty_results, "mvau").is_err());
        let nan = doc("mvau", vec![entry(vec![("x", f64::NAN)])]);
        assert!(validate_trajectory(&nan, "mvau").is_err());
    }

    #[test]
    fn regression_check_flags_only_losses_beyond_tolerance() {
        let prev = entry(vec![("a", 100.0), ("b", 100.0), ("c", 100.0)]);
        let prev = prev.get("results").unwrap().clone();
        let new = vec![
            ("a".to_string(), 90.0), // −10%: within tolerance
            ("b".to_string(), 80.0), // −20%: regression
            ("d".to_string(), 1.0),  // new case: skipped
        ];
        let msgs = regressions(&prev, &new, REGRESSION_TOLERANCE, "Melem/s");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("b:"), "{msgs:?}");
    }

    #[test]
    fn only_a_clean_full_run_appends_to_the_committed_trajectory() {
        let dir = std::env::temp_dir().join(format!("hybridem-perf-gate-{}", std::process::id()));
        let spill = dir.join("results");
        std::fs::create_dir_all(&spill).unwrap();
        let committed = dir.join("BENCH_mvau.json");
        let before = doc("mvau", vec![entry(vec![("a", 100.0)])]).to_string_pretty();
        std::fs::write(&committed, &before).unwrap();
        let run = |median: f64| {
            let results = [("a".to_string(), median)];
            append_trajectory(&committed, || spill.clone(), false, "mvau", &results, "x/s").unwrap()
        };
        let entries = |path: &Path| {
            let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            doc.field("entries").unwrap().as_arr().unwrap().len()
        };

        // −50%: the regressing trajectory goes to the results dir and
        // the committed bytes stay as they were.
        let update = run(50.0);
        assert_eq!(update.regressions.len(), 1);
        assert!(
            update.regressions[0].contains("50.0 x/s"),
            "{:?}",
            update.regressions
        );
        assert_eq!(update.path, spill.join("BENCH_mvau.json"));
        assert_eq!(entries(&update.path), 2);
        assert_eq!(std::fs::read_to_string(&committed).unwrap(), before);

        // A clean run appends exactly one entry in place.
        let update = run(100.0);
        assert!(update.regressions.is_empty());
        assert_eq!(update.path, committed);
        assert_eq!(entries(&committed), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_trajectories_validate() {
        // The in-repo BENCH_*.json files must always satisfy their own
        // schema — this is what lets the perf gate trust them.
        for bench in ["mvau", "demap", "linkserver", "equalizer"] {
            let p = trajectory_path(bench);
            if let Ok(text) = std::fs::read_to_string(&p) {
                let doc = Json::parse(&text).expect("committed trajectory parses");
                validate_trajectory(&doc, bench).expect("committed trajectory validates");
            }
        }
    }
}
