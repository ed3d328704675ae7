//! Measurement plumbing shared by every workload: the pass-through
//! timing demapper, percentiles, the metric record and the result line.

use hybridem_comm::demapper::Demapper;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::json::Json;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CPU time the calling thread has used so far (s), from
/// `CLOCK_THREAD_CPUTIME_ID`. Every span the benchmark reports is a
/// difference of two readings: unlike wall time it leaves out the
/// stretches in which the hypervisor runs another guest on this vCPU
/// (steal time) or the guest runs another thread. Every workload runs
/// on the benchmark thread alone (the servers have one pool
/// participant, the caller), so this clock sees all of its work.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Elsewhere: wall time since the first reading.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_now() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Counters one [`Timed`] demapper accumulates. Workers of the serving
/// pool update them concurrently; the values are statistics only, so
/// `Relaxed` suffices (nothing else is published through them).
#[derive(Debug, Default)]
pub struct DemapProbe {
    calls: AtomicU64,
    symbols: AtomicU64,
    busy_ns: AtomicU64,
}

/// A snapshot of a [`DemapProbe`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DemapCounts {
    /// `demap_block` calls.
    pub calls: u64,
    /// Symbols demapped by those calls.
    pub symbols: u64,
    /// CPU time spent inside them ([`cpu_now`], s).
    pub busy_s: f64,
}

impl DemapProbe {
    /// Current totals.
    pub fn counts(&self) -> DemapCounts {
        DemapCounts {
            calls: self.calls.load(Ordering::Relaxed),
            symbols: self.symbols.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// Pass-through [`Demapper`] that times every `demap_block` and counts
/// calls and symbols. Every other method forwards untimed; all outputs
/// are the inner demapper's, bit for bit.
pub struct Timed {
    inner: Arc<dyn Demapper>,
    probe: Arc<DemapProbe>,
}

impl Timed {
    /// Wraps `inner`, adding into `probe` (one probe can total many
    /// wrapped demappers).
    pub fn new(inner: Arc<dyn Demapper>, probe: Arc<DemapProbe>) -> Self {
        Self { inner, probe }
    }
}

impl Demapper for Timed {
    fn bits_per_symbol(&self) -> usize {
        self.inner.bits_per_symbol()
    }

    fn llrs(&self, y: C32, out: &mut [f32]) {
        self.inner.llrs(y, out);
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        let t = cpu_now();
        self.inner.demap_block(ys, out);
        let ns = ((cpu_now() - t) * 1e9) as u64;
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        self.probe
            .symbols
            .fetch_add(ys.len() as u64, Ordering::Relaxed);
        self.probe.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn hard_decide(&self, y: C32, out: &mut [u8]) {
        self.inner.hard_decide(y, out);
    }

    fn hard_decide_block(&self, ys: &[C32], out: &mut [u8]) {
        self.inner.hard_decide_block(ys, out);
    }
}

/// Probe words: 32 KiB, so a probe stays in L1 and evicts little of
/// the workload's cache.
const PROBE_WORDS: usize = 4096;
/// Passes of a probe over its words (about 2 M multiply-adds).
const PROBE_PASSES: usize = 512;
/// Probe time taken as speed 1: the probe's time on an uncontended
/// vCPU of the two-vCPU x86-64 VM the benchmark was tuned on.
const PROBE_REF_S: f64 = 0.9e-3;
/// A speed reading older than this is refreshed before it is used.
const PROBE_PERIOD: Duration = Duration::from_millis(50);
/// How strongly AE training, retraining, extraction and compiling
/// follow the probe (see [`Timing::host_s`]).
pub const TRAIN_SENSITIVITY: f64 = 0.73;

/// The host speed gauge of one thread: the last three probe times and
/// every probe time of the run.
struct Gauge {
    words: Vec<i64>,
    recent: [f64; 3],
    last: Option<Instant>,
    probes: Vec<f64>,
}

thread_local! {
    static GAUGE: std::cell::RefCell<Gauge> = std::cell::RefCell::new(Gauge {
        words: (0..PROBE_WORDS as i64).collect(),
        recent: [PROBE_REF_S; 3],
        last: None,
        probes: Vec::new(),
    });
}

/// The probe: fixed integer multiply-adds, independent across lanes of
/// 16, throughput-bound on the multiplier. Its time tracks the speed
/// swings of the shared host that the workloads see (see README).
fn probe(words: &mut [i64]) -> f64 {
    let t = cpu_now();
    for _ in 0..PROBE_PASSES {
        for lane in words.chunks_exact_mut(16) {
            for j in 0..16 {
                let w = j as i64 + 1;
                lane[j] = lane[j].wrapping_add(lane[(j + 1) & 15].wrapping_mul(w)) >> 1;
            }
        }
    }
    std::hint::black_box(&mut *words);
    cpu_now() - t
}

/// Current speed of this thread's host relative to the reference:
/// `PROBE_REF_S` ÷ the median of the last three probe times. Probes
/// first when the last probe is older than `PROBE_PERIOD`.
fn host_speed() -> f64 {
    GAUGE.with(|g| {
        let g = &mut *g.borrow_mut();
        if g.last.is_none_or(|t| t.elapsed() >= PROBE_PERIOD) {
            let p = probe(&mut g.words);
            g.recent.rotate_left(1);
            g.recent[2] = p;
            if g.probes.is_empty() {
                g.recent = [p; 3];
            }
            g.probes.push(p);
            g.last = Some(Instant::now());
        }
        let mut r = g.recent;
        r.sort_by(f64::total_cmp);
        PROBE_REF_S / r[1]
    })
}

/// CPU time of one timed call and the host speed around it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// CPU time ([`cpu_now`], s).
    pub cpu_s: f64,
    /// Mean of the host speed read just before and just after.
    pub speed: f64,
}

impl Timing {
    /// The time in reference seconds: CPU time × speed^`sensitivity`.
    /// The sensitivity is how strongly the timed code follows the
    /// probe: the log-ratio of its time in the slow and the fast host
    /// state over that of the probe's speed, measured per call and then
    /// corrected over whole runs on the tuning host (README, "Noise").
    pub fn host_s(&self, sensitivity: f64) -> f64 {
        self.cpu_s * self.speed.powf(sensitivity)
    }
}

/// Runs `f` and returns its result with its [`Timing`].
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let before = host_speed();
    let t = cpu_now();
    let r = f();
    let cpu_s = cpu_now() - t;
    let speed = (before + host_speed()) / 2.0;
    (r, Timing { cpu_s, speed })
}

/// Runs `f` and returns its result with its time in reference seconds
/// at `sensitivity` ([`Timing::host_s`]). Every timing the benchmark
/// reports is taken this way, except the wrapped demapper's busy time
/// and the shares built on it.
pub fn ref_time<T>(sensitivity: f64, f: impl FnOnce() -> T) -> (T, f64) {
    let (r, t) = timed(f);
    (r, t.host_s(sensitivity))
}

/// Probes this thread made and their median speed, for the run
/// metadata.
pub fn host_speed_summary() -> (usize, f64) {
    GAUGE.with(|g| {
        let g = g.borrow();
        let speeds: Vec<f64> = g.probes.iter().map(|p| PROBE_REF_S / p).collect();
        (speeds.len(), median(&speeds))
    })
}

/// Percentiles the tail report may use, lowest first, in hundredths
/// of a percent (exact integers, so rank arithmetic has no rounding).
const TAIL_LADDER: [u64; 4] = [9000, 9900, 9990, 9999];

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps an exact product (p = 99, n = 1000) from being
    // pushed past its integer by rounding.
    ((p / 100.0 * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
///
/// # Panics
/// Panics on an empty slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile of the tail ladder (90, 99, 99.9, 99.99)
/// that leaves at least ten of `n` samples beyond its nearest-rank
/// position, or `None` when even the lowest does not.
fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&q| n >= (q * n).div_ceil(10_000) + 10)
        .map(|&q| q as f64 / 100.0)
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Latency samples kept per run. Beyond this many, a uniform
/// reservoir keeps the percentiles exact-valued while memory stays
/// flat, so `peak_rss_mb` does not grow with the sample count.
const RESERVOIR: usize = 1 << 17;

/// Latency samples of one run, in reference seconds: the first [`RESERVOIR`]
/// verbatim, later ones by reservoir sampling (Algorithm R, fixed
/// seed).
#[derive(Debug)]
pub struct Latencies {
    kept: Vec<f64>,
    seen: u64,
    rng: Xoshiro256pp,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            kept: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: Xoshiro256pp::seed_from_u64(0x1a7e),
        }
    }
}

impl Latencies {
    /// Records one sample (s).
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(x);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.kept.get_mut(j as usize) {
                *slot = x;
            }
        }
    }

    /// Samples recorded (kept or not).
    pub fn len(&self) -> u64 {
        self.seen
    }

    /// The run's `(p50, p99)` in milliseconds; `None` without samples.
    pub fn p50_p99_ms(&self) -> Option<(f64, f64)> {
        if self.kept.is_empty() {
            return None;
        }
        let mut v = self.kept.clone();
        v.sort_by(f64::total_cmp);
        Some((percentile(&v, 50.0) * 1e3, percentile(&v, 99.0) * 1e3))
    }

    /// The highest percentile the kept samples support (see
    /// [`tail_percentile`]), reported next to the numbers.
    pub fn supported_tail(&self) -> Option<f64> {
        tail_percentile(self.kept.len())
    }
}

/// True when `name` is made of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One metric of the benchmark's declared set.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
}

/// Metric values recorded by a run.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().rev().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// What one run reports: the output checks, the metrics and the run
/// metadata.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: frames offered plus output checks made.
    pub attempted: u64,
    /// Frames refused or lost plus output checks failed.
    pub failed: u64,
    /// Human-readable reason of every failed check.
    pub failures: Vec<String>,
    /// The run's metrics.
    pub metrics: Metrics,
    /// Run metadata printed next to the numbers.
    pub meta: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one output check; a failure records `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, and one
    /// `{value, unit}` per metric of `set`, in its order. A metric the
    /// run did not record reads 0: the workload does not reach that
    /// layer.
    pub fn result_line(&self, set: &[MetricSpec]) -> String {
        let metrics = set.iter().map(|spec| {
            let value = self.metrics.get(spec.name).unwrap_or(0.0);
            (
                spec.name,
                Json::object([
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(spec.unit.to_string())),
                ]),
            )
        });
        Json::object([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(i128::from(self.attempted.max(1)))),
            ("failed", Json::Int(i128::from(self.failed))),
            ("metrics", Json::object(metrics)),
        ])
        .to_string_compact()
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Fixes glibc's mmap threshold at its initial 128 KiB. By default the
/// threshold rises to the size of each large block freed, after which
/// such blocks come from the heap and its fragmentation: which blocks
/// that catches depends on the order of allocations, which follows the
/// seed, and the peak resident set of `adapt-phase-flip` spread by 11%
/// over five seeds. Fixed, every block of 128 KiB or more is mapped on
/// its own and unmapped when freed, so `peak_rss_mb` tracks live memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two plain integers and is called before
    // the benchmark starts any other thread.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// Elsewhere the allocator keeps its own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_mmap_threshold() {}

/// Runs `build` `reps` times, keeping the last result, and returns it
/// with the median build time in reference seconds. Earlier results are
/// dropped before the next build starts, so the peak resident set holds
/// one.
pub fn timed_setup<T>(reps: usize, sensitivity: f64, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (built, s) = ref_time(sensitivity, &mut build);
        last = Some(built);
        times.push(s);
    }
    (last.expect("at least one setup"), median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_comm::constellation::Constellation;
    use hybridem_comm::demapper::MaxLogMap;

    #[test]
    fn timed_demapper_is_bit_exact_pass_through() {
        let qam = Constellation::qam_gray(16);
        let inner: Arc<dyn Demapper> = Arc::new(MaxLogMap::new(qam, 0.3));
        let probe = Arc::new(DemapProbe::default());
        let timed = Timed::new(inner.clone(), probe.clone());
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut symbols = 0;
        for n in [0usize, 1, 8, 4096] {
            let ys: Vec<C32> = (0..n)
                .map(|_| C32::new(rng.next_f32() * 4.0 - 2.0, rng.next_f32() * 4.0 - 2.0))
                .collect();
            let (mut want, mut got) = (vec![0f32; n * 4], vec![1f32; n * 4]);
            inner.demap_block(&ys, &mut want);
            timed.demap_block(&ys, &mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(&got), "block of {n}");
            symbols += n as u64;
        }
        let c = probe.counts();
        assert_eq!((c.calls, c.symbols), (4, symbols));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [100usize, 1234, 10_007, 250_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n = {n}, p = {p}");
        }
    }

    #[test]
    fn latencies_keep_a_bounded_reservoir_of_real_samples() {
        let mut lat = Latencies::default();
        let n = RESERVOIR as u64 * 3;
        for i in 0..n {
            lat.push(i as f64 * 1e-9);
        }
        assert_eq!(lat.len(), n);
        assert_eq!(lat.kept.len(), RESERVOIR);
        let (p50, _) = lat.p50_p99_ms().unwrap();
        let mid = n as f64 / 2.0 * 1e-6;
        assert!(
            (p50 - mid).abs() < 0.02 * mid,
            "reservoir median {p50} vs {mid}"
        );
    }

    #[test]
    fn ref_time_scales_cpu_time_by_the_probed_speed() {
        let spin = || {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(20) {
                std::hint::black_box(t);
            }
        };
        let ((), s) = ref_time(1.0, spin);
        let (probes, speed) = host_speed_summary();
        assert!(probes >= 1, "the first reading probes");
        assert!(speed.is_finite() && speed > 0.0, "speed {speed}");
        // At most 20 ms of CPU at a speed within 10× of the reference.
        assert!(s > 0.0 && s < 0.2, "reference seconds {s}");
    }

    #[test]
    fn cpu_clock_leaves_out_time_off_the_cpu() {
        let t = cpu_now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = cpu_now() - t;
        assert!(
            (0.0..0.01).contains(&slept),
            "{slept} s of CPU while asleep"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("demap.syms_per_call"));
        assert!(valid_metric_name("latency_p99_ms"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("ber/frame"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metrics.set("frames_per_s", 12.5);
        let set = [MetricSpec {
            name: "frames_per_s",
            unit: "1/s",
        }];
        let doc = Json::parse(&o.result_line(&set)).unwrap();
        let Json::Obj(pairs) = doc else {
            panic!("not an object")
        };
        let keys: Vec<_> = pairs.iter().map(|p| p.0.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
