//! Repository benchmark of the hybrid demapping system.
//!
//! One workload per process:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-hybrid-short --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last line of standard output is the
//! result object (`correct`, `attempted`, `failed`, `metrics`); the line
//! before it carries the run metadata. See `benchmark/README.md`.

mod harness;
mod online;
mod serve;
mod system;

use harness::{peak_rss_mb, Latencies, MetricSpec, Outcome};
use hybridem_mathkit::json::Json;
use std::process::ExitCode;

/// Which metric set a run produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, no instrumentation.
    Timed,
    /// Per-layer metrics: untraced and traced stretches alternate.
    Traced,
}

/// One benchmark workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Runs it: `(seed, seconds, mode, outcome)`.
    pub run: fn(u64, f64, Mode, &mut Outcome),
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-hybrid-short",
        why: "the paper's inference path with many short links: per-frame overhead, not the hybrid demap kernel, does most of the work",
        run: |seed, s, mode, out| serve::run(&serve::HYBRID_SHORT, seed, s, mode, out),
    },
    Workload {
        name: "serve-ann-long",
        why: "the paper's 8-bit ANN deployment datapath: MVAU demapping does most of each round's work",
        run: |seed, s, mode, out| serve::run(&serve::ANN_LONG, seed, s, mode, out),
    },
    Workload {
        name: "adapt-phase-flip",
        why: "the paper's adaptation loop: every phase flip costs one retrain, extract, recompile and swap, dominated by retraining",
        run: online::run_adapt,
    },
    Workload {
        name: "isi-blind-eq",
        why: "the blind equalizer on a two-ray ISI onset: the only workload that exercises comm::equalizer, and it trains no AE",
        run: online::run_isi,
    },
];

const fn spec(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [MetricSpec; 8] = [
    spec("frames_per_s", "1/s"),
    spec("latency_p50_ms", "ms"),
    spec("latency_p99_ms", "ms"),
    spec("retrain_p50_ms", "ms"),
    spec("payload_ber", "ratio"),
    spec("ok_ratio", "ratio"),
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A workload that does not reach a
/// layer reports 0 for its metrics.
pub const PER_LAYER: [MetricSpec; 20] = [
    spec("demap.busy_s", "s"),
    spec("demap.calls_per_round", "count"),
    spec("demap.syms_per_call", "count"),
    spec("demap.msym_per_s", "Msym/s"),
    spec("demap.share", "ratio"),
    spec("server.round_ms", "ms"),
    spec("server.frames_per_round", "count"),
    spec("server.other_share", "ratio"),
    spec("pool.steals_per_round", "count"),
    spec("retrain.ms", "ms"),
    spec("setup.train_s", "s"),
    spec("extract.ms", "ms"),
    spec("deploy.ms", "ms"),
    spec("adapt.retrains", "count"),
    spec("adapt.recovered_ratio", "ratio"),
    spec("runtime.step_us", "us"),
    spec("adapt.accounted_ratio", "ratio"),
    spec("eq.other_us", "us"),
    spec("eq.dd_ratio", "ratio"),
    spec("trace_overhead", "x"),
];

/// Records the end-to-end metrics every timed workload shares:
/// latency percentiles, the check ratio, set-up time and peak memory.
pub fn finish_timed(out: &mut Outcome, setup_s: f64, latencies: &Latencies) {
    let (p50, p99) = latencies.p50_p99_ms().expect("the run timed samples");
    out.metrics.set("latency_p50_ms", p50);
    out.metrics.set("latency_p99_ms", p99);
    out.metrics.set("setup_s", setup_s);
    out.metrics
        .set("peak_rss_mb", peak_rss_mb().expect("/proc/self/status"));
    out.metrics.set("ok_ratio", out.ok_ratio());
    out.meta
        .push(("latency_samples", Json::Int(i128::from(latencies.len()))));
    out.meta.push((
        "latency_tail_percentile",
        latencies.supported_tail().map_or(Json::Null, Json::Float),
    ));
}

/// Records the traced run's overhead: traced over untraced host time
/// per frame.
pub fn finish_traced(out: &mut Outcome, plain_s_per_frame: f64, traced_s_per_frame: f64) {
    out.metrics
        .set("trace_overhead", traced_s_per_frame / plain_s_per_frame);
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut mode) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::Timed,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        mode: mode.unwrap_or(Mode::Timed),
    })
}

/// Runs one workload and returns its outcome with the metadata filled.
pub fn run_workload(workload: &Workload, seed: u64, seconds: f64, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    (workload.run)(seed, seconds, mode, &mut out);
    let mut meta = vec![
        ("workload", Json::Str(workload.name.to_string())),
        ("why", Json::Str(workload.why.to_string())),
        ("seed", Json::Int(i128::from(seed))),
        ("seconds", Json::Float(seconds)),
        ("trace", Json::Bool(mode == Mode::Traced)),
        ("host", hybridem_bench::perf::host_fingerprint()),
        ("git_rev", Json::Str(hybridem_bench::perf::git_rev())),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i128),
        ),
        ("workers", Json::Int(serve::WORKERS as i128)),
    ];
    // Reference seconds scale CPU seconds by the host speed (`harness::Timing`).
    let (probes, speed) = harness::host_speed_summary();
    meta.push(("host_speed_probes", Json::Int(probes as i128)));
    meta.push(("host_speed_median", Json::Float(speed)));
    meta.append(&mut out.meta);
    out.meta = meta;
    out
}

fn main() -> ExitCode {
    harness::fix_mmap_threshold();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = run_workload(args.workload, args.seed, args.seconds, args.mode);
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    let set: &[MetricSpec] = match args.mode {
        Mode::Timed => &END_TO_END,
        Mode::Traced => &PER_LAYER,
    };
    for s in set {
        if let Some(v) = out.metrics.get(s.name) {
            eprintln!("{:>24} {v:>14.6} {}", s.name, s.unit);
        }
    }
    println!(
        "meta {}",
        Json::object(out.meta.clone()).to_string_compact()
    );
    println!("{}", out.result_line(set));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::valid_metric_name;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .collect();
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_declares_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|e| e.field(field).unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let want = |set: &[MetricSpec]| set.iter().map(|s| s.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end", "name"), want(&END_TO_END));
        assert_eq!(names("per_layer", "name"), want(&PER_LAYER));
        assert_eq!(
            names("end_to_end", "unit"),
            END_TO_END.map(|s| s.unit.to_string())
        );
        assert_eq!(
            names("per_layer", "unit"),
            PER_LAYER.map(|s| s.unit.to_string())
        );
        assert_eq!(
            names("workloads", "name"),
            WORKLOADS.map(|w| w.name.to_string())
        );
        assert_eq!(
            names("workloads", "why"),
            WORKLOADS.map(|w| w.why.to_string())
        );
    }

    #[test]
    fn seed_changes_the_inputs_but_not_the_metric_set() {
        assert_ne!(
            serve::session_seeds(1, 64),
            serve::session_seeds(2, 64),
            "session inputs follow the seed"
        );
        assert_ne!(online::link_seeds(1, 0, 8), online::link_seeds(2, 0, 8));
        let isi = &WORKLOADS[3];
        let a = run_workload(isi, 1, 0.05, Mode::Timed);
        let b = run_workload(isi, 2, 0.05, Mode::Timed);
        for spec in &END_TO_END {
            assert!(a.metrics.get(spec.name).is_some(), "{} missing", spec.name);
            assert!(b.metrics.get(spec.name).is_some(), "{} missing", spec.name);
        }
        assert_ne!(
            a.metrics.get("payload_ber"),
            b.metrics.get("payload_ber"),
            "another seed sends other frames"
        );
        let keys = |o: &Outcome| {
            let Json::Obj(pairs) = Json::parse(&o.result_line(&END_TO_END)).unwrap() else {
                panic!("result is an object")
            };
            let Some((_, Json::Obj(metrics))) = pairs.into_iter().find(|p| p.0 == "metrics") else {
                panic!("metrics is an object")
            };
            metrics.into_iter().map(|m| m.0).collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
    }
}
