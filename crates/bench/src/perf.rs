//! The one timing harness and its paired A/B gate (DESIGN.md §11.4).
//!
//! The `perf` binary hands [`main`] its [`Case`]s and its invariants;
//! its arguments pick one of three modes:
//!
//! - no arguments: time every case, print `| case | median M/s |` and
//!   check the invariants. Nothing is written anywhere.
//! - `--case <name>`: time that one case and print one line,
//!   `<name> <median>`. This is the child protocol of `--against`.
//! - `--against <rev>`: export `<rev>` to `target/perf-against/<hash>/`,
//!   build its `perf` there, then time every case in ten alternating
//!   pairs of one-case children of both builds. A case regressed when
//!   the change was slower in at least 9 of the 10 pairs and its median
//!   per-pair throughput ratio is below 0.90. The run exits 1 when a
//!   case regressed.
//!
//! Budgets come from `HYBRIDEM_BENCH_MS` (milliseconds of sampling per
//! case). A valid value marks a *smoke budget*: too short to judge
//! timing, so the invariants are skipped and `--against` prints its
//! verdicts without enforcing them.

use hybridem_mathkit::json::Json;
use hybridem_mathkit::simd::LaneWidth;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Alternating base/change pairs per case in an `--against` run.
const PAIRS: usize = 10;

/// Pairs the change must lose before a case can regress. For identical
/// builds, 9 or more of 10 pairs come up slower with p ≈ 1.1%.
const MIN_SLOWER: usize = 9;

/// Median change ÷ base throughput ratio below which a case can
/// regress: inside the 15% slowdown the gate must catch.
const RATIO_LINE: f64 = 0.90;

/// Sampling budget per case in milliseconds: `HYBRIDEM_BENCH_MS`
/// parsed by the strict shared rule
/// ([`hybridem_mathkit::env::parse_count`]), or 300 ms for full runs
/// and malformed values alike.
pub fn bench_budget_ms() -> u64 {
    budget_override().unwrap_or(300)
}

/// True when `HYBRIDEM_BENCH_MS` holds a valid budget: a smoke run,
/// which neither checks invariants nor enforces `--against` verdicts.
/// A malformed value means the full default budget, so it is no smoke
/// run either.
pub fn smoke_mode() -> bool {
    budget_override().is_some()
}

fn budget_override() -> Option<u64> {
    std::env::var("HYBRIDEM_BENCH_MS")
        .ok()
        .as_deref()
        .and_then(hybridem_mathkit::env::parse_count)
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
    median(&samples)
}

/// Host fingerprint: CPU architecture, the probed [`LaneWidth`]
/// (32-bit lanes the SIMD kernels dispatched at) and the thread count.
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

/// Short git revision of the working tree, suffixed `-dirty` when a
/// tracked file differs from `HEAD`, or `"unknown"` outside a git
/// checkout.
pub fn git_rev() -> String {
    git_rev_in(Path::new("."))
}

fn git_rev_in(dir: &Path) -> String {
    let changes = git(dir, &["status", "--porcelain", "--untracked-files=no"]);
    match (git(dir, &["rev-parse", "--short", "HEAD"]), changes) {
        (Some(rev), Some(changes)) if !changes.is_empty() => format!("{rev}-dirty"),
        (Some(rev), _) => rev,
        (None, _) => "unknown".to_string(),
    }
}

/// Runs `git -C dir args…` and returns its trimmed stdout on success.
fn git(dir: &Path, args: &[&str]) -> Option<String> {
    Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// One timed case: its name and a closure that builds the case's
/// inputs and returns its median throughput from [`measure_melems`].
pub struct Case {
    name: String,
    run: Box<dyn Fn() -> f64>,
}

impl Case {
    /// A case named `name` timed by `run`.
    pub fn new(name: impl Into<String>, run: impl Fn() -> f64 + 'static) -> Self {
        Case {
            name: name.into(),
            run: Box::new(run),
        }
    }
}

/// Runs the mode the process arguments select (see the module docs)
/// and exits non-zero on a failure: 1 for an enforced regression, 2
/// for a usage, build or child error. `invariants` receives a lookup
/// of each case's median by name after a plain full-budget run.
pub fn main(cases: &[Case], invariants: impl FnOnce(&dyn Fn(&str) -> f64)) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let regressed = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {
            run_all(cases, invariants);
            Ok(0)
        }
        ["--case", name] => run_case(cases, name).map(|()| 0),
        ["--against", rev] => against(cases, rev),
        _ => Err("usage: perf [--case <name> | --against <rev>]".to_string()),
    };
    match regressed {
        Ok(n) if n > 0 && !smoke_mode() => std::process::exit(1),
        Ok(_) => {}
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    }
}

fn run_all(cases: &[Case], invariants: impl FnOnce(&dyn Fn(&str) -> f64)) {
    println!(
        "perf (DESIGN.md §11.4) · rev {} · budget {} ms/case · host {}\n",
        git_rev(),
        bench_budget_ms(),
        host_fingerprint()
    );
    println!("| case | median M/s |");
    println!("|---|---|");
    let mut medians = Vec::with_capacity(cases.len());
    for case in cases {
        let median = (case.run)();
        println!("| {} | {} |", case.name, sig4(median));
        medians.push((case.name.as_str(), median));
    }
    if smoke_mode() {
        println!("\nsmoke budget: invariants not checked");
        return;
    }
    println!();
    invariants(&|name| {
        medians
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("invariant reads unknown case {name}"))
            .1
    });
}

fn run_case(cases: &[Case], name: &str) -> Result<(), String> {
    let case = cases
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown case {name}"))?;
    println!("{}", case_line(name, (case.run)()));
    Ok(())
}

/// A median in M/s to four significant digits: the `link_step_*`
/// cases run at 0.03–0.12 M/s, where a fixed `{:.3}` shows two.
fn sig4(median: f64) -> String {
    let decimals = if median > 0.0 && median.is_finite() {
        (3 - median.log10().floor() as i32).max(0) as usize
    } else {
        3
    };
    format!("{median:.decimals$}")
}

/// The child protocol's one output line. `{}` prints the shortest
/// string that parses back to the same `f64`.
fn case_line(name: &str, median: f64) -> String {
    format!("{name} {median}")
}

/// Parses a child's whole stdout as one [`case_line`]: exactly a name
/// and a finite, positive median. Anything else (a table, an error,
/// an older `perf` that ignores `--case`) is no answer.
fn parse_case_line(out: &str) -> Option<(&str, f64)> {
    let mut tokens = out.split_whitespace();
    let (Some(name), Some(median), None) = (tokens.next(), tokens.next(), tokens.next()) else {
        return None;
    };
    let median: f64 = median.parse().ok()?;
    (median.is_finite() && median > 0.0).then_some((name, median))
}

/// The gate's rule over one case's paired medians.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Verdict {
    /// Median over the pairs of change ÷ base throughput.
    median_ratio: f64,
    /// Pairs in which the change was slower than the base.
    slower: usize,
}

impl Verdict {
    /// Judges `change[i]` against `base[i]`, one pair per index.
    fn of(base: &[f64], change: &[f64]) -> Self {
        let ratios: Vec<f64> = base.iter().zip(change).map(|(b, c)| c / b).collect();
        Verdict {
            median_ratio: median(&ratios),
            slower: ratios.iter().filter(|&&r| r < 1.0).count(),
        }
    }

    fn regressed(self) -> bool {
        self.slower >= MIN_SLOWER && self.median_ratio < RATIO_LINE
    }
}

/// One row of the `--against` table and whether the case regressed.
/// An empty `base` means the base build does not know the case: the
/// row reads `new` and is not judged.
fn table_row(name: &str, base: &[f64], change: &[f64]) -> (String, bool) {
    if base.is_empty() {
        let row = format!("| {name} | – | {} | – | – | new |", sig4(median(change)));
        return (row, false);
    }
    let verdict = Verdict::of(base, change);
    let regressed = verdict.regressed();
    let row = format!(
        "| {name} | {} | {} | {:.3} | {}/{} | {} |",
        sig4(median(base)),
        sig4(median(change)),
        verdict.median_ratio,
        verdict.slower,
        base.len(),
        if regressed { "REGRESSED" } else { "ok" }
    );
    (row, regressed)
}

/// Pairs this build against `rev`'s case by case; returns the number
/// of regressed cases.
fn against(cases: &[Case], rev: &str) -> Result<usize, String> {
    if cfg!(debug_assertions) {
        return Err("--against times optimised builds only: run it with --release".to_string());
    }
    let here = Path::new(".");
    let commit = format!("{rev}^{{commit}}");
    let hash = git(here, &["rev-parse", "--verify", "--quiet", &commit])
        .ok_or_else(|| format!("{rev} names no commit"))?;
    let top = git(here, &["rev-parse", "--show-toplevel"])
        .ok_or("--against runs inside a git checkout")?;
    let base = base_binary(Path::new(&top), &hash)?;
    let change = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let short = &hash[..7];

    println!(
        "perf --against {rev} (DESIGN.md §11.4) · change {} · base {short} · \
         budget {} ms/child · host {}\n",
        git_rev(),
        bench_budget_ms(),
        host_fingerprint()
    );
    println!("| case | base M/s | change M/s | median ratio | pairs slower | verdict |");
    println!("|---|---|---|---|---|---|");
    let (mut regressed, mut answered) = (0, 0);
    for case in cases {
        let (base_medians, change_medians) = time_pairs(&base, &change, &case.name)?;
        let (row, case_regressed) = table_row(&case.name, &base_medians, &change_medians);
        println!("{row}");
        answered += usize::from(!base_medians.is_empty());
        regressed += usize::from(case_regressed);
    }
    if answered == 0 {
        return Err(format!(
            "the base build of {rev} ({short}) answered no `--case` query: \
             it predates the paired gate"
        ));
    }
    let smoke = if smoke_mode() {
        " (smoke budget: not enforced)"
    } else {
        ""
    };
    println!("\n{regressed} of {} cases regressed{smoke}", cases.len());
    Ok(regressed)
}

/// The `perf` binary of commit `hash`, exported to and built in
/// `<top>/target/perf-against/<hash>/` with its own target dir, or
/// reused from there.
fn base_binary(top: &Path, hash: &str) -> Result<PathBuf, String> {
    let dir = top.join("target/perf-against").join(hash);
    let exe = dir
        .join("target/release")
        .join(format!("perf{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        return Ok(exe);
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut archive = Command::new("git")
        .arg("-C")
        .arg(top)
        .args(["archive", hash])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let untar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&dir)
        .stdin(archive.stdout.take().expect("git archive stdout is piped"))
        .status();
    let archived = archive.wait();
    if !(untar.is_ok_and(|s| s.success()) && archived.is_ok_and(|s| s.success())) {
        return Err(format!("export of {hash} to {} failed", dir.display()));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = Command::new(cargo)
        .args(["build", "-p", "hybridem-bench", "--bin", "perf"])
        .args(["--release", "--offline"])
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .status()
        .is_ok_and(|s| s.success());
    if !(built && exe.is_file()) {
        return Err(format!(
            "building perf at {hash} in {} failed",
            dir.display()
        ));
    }
    Ok(exe)
}

/// Times case `name` in [`PAIRS`] pairs of one-case children, the base
/// first in even pairs and the change first in odd ones. Returns the
/// (base, change) medians; the base's are empty, after one change
/// child, when the base does not answer the case in the first pair.
fn time_pairs(base: &Path, change: &Path, name: &str) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut base_medians = Vec::with_capacity(PAIRS);
    let mut change_medians = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let base_first = pair % 2 == 0;
        for run_base in [base_first, !base_first] {
            if !run_base {
                change_medians.push(child_median(change, name)?);
                continue;
            }
            match child_median(base, name) {
                Ok(median) => base_medians.push(median),
                Err(_) if pair == 0 => {
                    return Ok((Vec::new(), vec![child_median(change, name)?]));
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok((base_medians, change_medians))
}

/// Runs `exe --case name` and returns the median it answers.
fn child_median(exe: &Path, name: &str) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["--case", name])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match parse_case_line(&stdout) {
        Some((answered, median)) if out.status.success() && answered == name => Ok(median),
        _ => Err(format!(
            "{} --case {name} gave no answer ({}): {}",
            exe.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Median of `xs`, the mean of the two middle values for an even
/// count.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten pairs at base 100 with the given change ÷ base ratios.
    fn verdict(ratios: &[f64]) -> Verdict {
        let change: Vec<f64> = ratios.iter().map(|r| 100.0 * r).collect();
        Verdict::of(&vec![100.0; ratios.len()], &change)
    }

    #[test]
    fn verdict_fails_only_a_consistent_loss_past_the_ratio_line() {
        let same = verdict(&[1.0; 10]);
        assert_eq!((same.slower, same.median_ratio), (0, 1.0));
        assert!(!same.regressed(), "ten identical pairs pass");

        assert!(verdict(&[0.85; 10]).regressed(), "ten pairs at 0.85 fail");

        let mut nine_mild = [0.95; 10];
        nine_mild[9] = 1.05;
        let v = verdict(&nine_mild);
        assert_eq!(v.slower, 9);
        assert!((v.median_ratio - 0.95).abs() < 1e-12);
        assert!(!v.regressed(), "nine slower pairs with median 0.95 pass");

        let mut eight_deep = [0.80; 10];
        eight_deep[8..].fill(1.1);
        let v = verdict(&eight_deep);
        assert_eq!(v.slower, 8);
        assert!(!v.regressed(), "eight slower pairs at 0.80 pass");

        let mut nine_past = [0.89; 10];
        nine_past[9] = 1.2;
        let v = verdict(&nine_past);
        assert_eq!(v.slower, 9);
        assert!((v.median_ratio - 0.89).abs() < 1e-12);
        assert!(
            v.regressed(),
            "exactly nine slower pairs with median 0.89 fail"
        );
    }

    #[test]
    fn case_line_round_trips_and_nothing_else_parses() {
        for median in [0.330_482_918_164_167_4, 83.879_423_328_964_6, 1e-3] {
            let out = format!("{}\n", case_line("max_log_block_n256", median));
            assert_eq!(parse_case_line(&out), Some(("max_log_block_n256", median)));
        }
        for out in [
            "",
            "max_log_block_n256",
            "| max_log_block_n256 | 83.879 |",
            "max_log_block_n256 83.9 Melem/s",
            "max_log_block_n256 fast",
            "max_log_block_n256 NaN",
            "max_log_block_n256 -1",
            "max_log_block_n256 0",
        ] {
            assert_eq!(parse_case_line(out), None, "{out:?}");
        }
    }

    #[test]
    fn a_case_the_base_does_not_answer_is_new_and_not_judged() {
        let (row, regressed) = table_row("eq_train_n256", &[], &[20.4]);
        assert_eq!(row, "| eq_train_n256 | – | 20.40 | – | – | new |");
        assert!(!regressed);

        let (row, regressed) = table_row("eq_train_n256", &[20.0; 10], &[15.0; 10]);
        assert!(regressed);
        assert!(row.ends_with("| 0.750 | 10/10 | REGRESSED |"), "{row}");
    }

    #[test]
    fn medians_print_four_significant_digits() {
        assert_eq!(sig4(0.035123), "0.03512");
        assert_eq!(sig4(0.1234), "0.1234");
        assert_eq!(sig4(2.5), "2.500");
        assert_eq!(sig4(123.456), "123.5");
        assert_eq!(sig4(98765.4), "98765");
        let (row, _) = table_row("link_step_eq_qpsk_f256", &[0.0351; 10], &[0.0369; 10]);
        assert!(
            row.starts_with("| link_step_eq_qpsk_f256 | 0.03510 | 0.03690 | 1.051 |"),
            "{row}"
        );
    }

    #[test]
    fn git_rev_marks_an_edited_tracked_file_dirty() {
        let dir = std::env::temp_dir().join(format!("hybridem-git-rev-{}", std::process::id()));
        let repo = dir.join("repo");
        std::fs::create_dir_all(&repo).unwrap();
        assert_eq!(git_rev_in(&dir), "unknown", "outside a repository");

        let run = |args: &[&str]| {
            let config = [
                "-c",
                "user.name=t",
                "-c",
                "user.email=t@t",
                "-c",
                "commit.gpgsign=false",
            ];
            let ok = git(&repo, &[&config[..], args].concat()).is_some();
            assert!(ok, "git {args:?}");
        };
        run(&["init", "-q"]);
        std::fs::write(repo.join("f.txt"), "a").unwrap();
        run(&["add", "f.txt"]);
        run(&["commit", "-q", "-m", "init"]);
        let hash = git(&repo, &["rev-parse", "--short", "HEAD"]).unwrap();
        assert_eq!(git_rev_in(&repo), hash, "clean tree");

        std::fs::write(repo.join("f.txt"), "b").unwrap();
        assert_eq!(git_rev_in(&repo), format!("{hash}-dirty"), "edited file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
