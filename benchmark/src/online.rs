//! The two `OnlineLink` workloads. Each steps a small fleet of links
//! frame by frame, one link after another on the benchmark thread; when
//! every link has played its script the fleet is rebuilt with fresh
//! seeds (a new generation), so memory stays flat however long the run.

use crate::harness::{
    median, timed, timed_setup, DemapProbe, Latencies, Outcome, Timed, TRAIN_SENSITIVITY,
};
use crate::system::{replay_chain, train_pipeline, ChainTimes};
use crate::Mode;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, MaxLogMap};
use hybridem_comm::equalizer::{EqualizerConfig, EqualizerMode};
use hybridem_comm::snr::noise_sigma;
use hybridem_comm::trajectory::{ChannelState, Taps, Trajectory};
use hybridem_core::runtime::{
    FrameRecord, LinkParams, OnlineLink, OnlineLinkSpec, RECOVERY_WINDOW,
};
use hybridem_core::HybridPipeline;
use hybridem_mathkit::rng::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeds of generation `generation`'s `links` links.
pub fn link_seeds(seed: u64, generation: u64, links: usize) -> Vec<u64> {
    (0..links as u64)
        .map(|l| SplitMix64::derive(seed, (generation << 16) | l))
        .collect()
}

/// Pooled payload error count of a frame window of one link.
fn window_ber(log: &[FrameRecord], from: u64, to: u64) -> f64 {
    let (errors, bits) = log[from as usize..to as usize]
        .iter()
        .fold((0u64, 0u64), |(e, b), r| {
            (e + r.payload_bit_errors, b + r.payload_bits)
        });
    errors as f64 / bits.max(1) as f64
}

/// The drift suite's recovery rule: within 2× the pre-drift BER (plus
/// its 2e-3 floor).
fn recovered(post: f64, base: f64) -> bool {
    post <= 2.0 * base + 2e-3
}

/// Time of one `OnlineLink::step`.
#[derive(Clone, Copy)]
struct StepTime {
    /// CPU time (s), comparable with the wrapped demapper's busy time.
    cpu_s: f64,
    /// Reference seconds ([`crate::harness::Timing::host_s`]).
    host_s: f64,
}

/// Steps every link of `links` through `frames` frames, round-robin,
/// handing each step's record and time to `on_step`. A round steps
/// every link once: its summed step time, which bounds each of its
/// frames' latency in this loop, goes into `rounds` unless one of its
/// steps triggered a retrain. A step's time is taken at `sensitivity`,
/// a triggered one's (mostly retraining) at [`TRAIN_SENSITIVITY`].
fn step_fleet(
    links: &mut [OnlineLink],
    frames: u64,
    sensitivity: f64,
    rounds: &mut Latencies,
    mut on_step: impl FnMut(&OnlineLink, &FrameRecord, StepTime),
) {
    for _ in 0..frames {
        let (mut round_s, mut triggered) = (0.0, false);
        for link in links.iter_mut() {
            let (rec, t) = timed(|| link.step().clone());
            let host_s = t.host_s(if rec.triggered {
                TRAIN_SENSITIVITY
            } else {
                sensitivity
            });
            round_s += host_s;
            triggered |= rec.triggered;
            on_step(
                link,
                &rec,
                StepTime {
                    cpu_s: t.cpu_s,
                    host_s,
                },
            );
        }
        if !triggered {
            rounds.push(round_s);
        }
    }
}

/// Payload bit errors and bits of a finished generation.
fn fleet_errors(links: &[OnlineLink]) -> (u64, u64) {
    links
        .iter()
        .flat_map(|l| l.log())
        .fold((0u64, 0u64), |(e, b), r| {
            (e + r.payload_bit_errors, b + r.payload_bits)
        })
}

// ---------------------------------------------------------------------
// adapt-phase-flip
// ---------------------------------------------------------------------

/// Links per generation.
const ADAPT_LINKS: usize = 4;
/// Frames per phase hold: detection, the modelled retrain latency (371
/// frames for the paper configuration at default `LinkParams`) and the
/// recovery window fit inside one hold, and the untriggered rounds get
/// about a quarter of the host time, enough for a steady tail.
const HOLD: u64 = 2000;
/// Scripted flips per link (0 → π/4 → 0).
const FLIPS: u64 = 2;
/// Setups per timed run; `setup_s` is their median.
const ADAPT_SETUP_REPS: usize = 5;
/// How strongly an untriggered step follows the host speed probe
/// ([`crate::harness::Timing::host_s`]).
const ADAPT_SENSITIVITY: f64 = 0.67;
/// `payload_ber` ceiling. The stream includes each flip's transient:
/// the old demapper serves until the retrained one is swapped in.
const ADAPT_BER_CEILING: f64 = 0.35;

fn flip_trajectory(es_n0_db: f64) -> Trajectory {
    let clean = ChannelState::clean(es_n0_db);
    (0..FLIPS).fold(Trajectory::new("phase-flip").hold(HOLD, clean), |t, k| {
        let phase = if k % 2 == 0 {
            std::f32::consts::FRAC_PI_4
        } else {
            0.0
        };
        t.hold(HOLD, clean.with_phase(phase))
    })
}

fn adapt_generation(pipe: &HybridPipeline, seed: u64, generation: u64) -> Vec<OnlineLink> {
    let trajectory = flip_trajectory(pipe.config().es_n0_db());
    link_seeds(seed, generation, ADAPT_LINKS)
        .into_iter()
        .map(|s| OnlineLink::adaptive(OnlineLinkSpec::new(trajectory.clone(), s), pipe))
        .collect()
}

/// Output checks of a finished adaptive link: exactly one retrain per
/// flip, swapped inside its hold early enough to leave the recovery
/// window, and each window back within the recovery rule. Returns the
/// recovered windows.
fn check_adapt_link(link: &OnlineLink, out: &mut Outcome) -> u64 {
    let events = link.events();
    out.check(events.len() as u64 == FLIPS, || {
        format!("{} retrains for {FLIPS} flips", events.len())
    });
    let base = window_ber(link.log(), 0, HOLD);
    let mut ok = 0;
    for k in 0..FLIPS {
        let (start, end) = (HOLD * (k + 1), HOLD * (k + 2));
        let event = events.get(k as usize);
        let timely = event.is_some_and(|e| {
            (start..end).contains(&e.trigger_frame) && e.swap_frame + RECOVERY_WINDOW <= end
        });
        let post = window_ber(link.log(), end - RECOVERY_WINDOW, end);
        let good = timely && recovered(post, base);
        out.check(good, || {
            format!("flip {k}: {event:?}, post BER {post:.3e} vs base {base:.3e}")
        });
        ok += u64::from(good);
    }
    ok
}

/// Totals of the generations one side of a run played.
#[derive(Default)]
struct AdaptDrive {
    frames: u64,
    /// Summed step time (reference s).
    host_s: f64,
    /// Frames per second of each generation.
    rates: Vec<f64>,
    /// Rounds without a triggered step (reference s).
    rounds: Latencies,
    triggered_ms: Vec<f64>,
    recovered: u64,
    flips: u64,
    retrains: u64,
    /// Replayed chain and the triggered step's time (reference s).
    chains: Vec<(ChainTimes, f64)>,
}

/// Plays one generation to the end of its script and checks it.
/// `replay` re-times the adaptation chain at every trigger (traced).
/// Returns the generation's pooled payload BER.
fn adapt_generation_run(
    pipe: &HybridPipeline,
    mut links: Vec<OnlineLink>,
    replay: bool,
    d: &mut AdaptDrive,
    out: &mut Outcome,
) -> f64 {
    let frames = HOLD * (FLIPS + 1);
    let mut host_s = 0.0;
    step_fleet(
        &mut links,
        frames,
        ADAPT_SENSITIVITY,
        &mut d.rounds,
        |link, rec, dt| {
            host_s += dt.host_s;
            if !rec.triggered {
                return;
            }
            d.triggered_ms.push(dt.host_s * 1e3);
            if replay {
                let chain = replay_chain(pipe, &mut link.channel().snapshot_static(), true, true);
                d.chains.push((chain, dt.host_s));
            }
        },
    );
    d.host_s += host_s;
    d.frames += frames * links.len() as u64;
    d.rates.push((frames * links.len() as u64) as f64 / host_s);
    out.attempted += frames * links.len() as u64;
    for link in &links {
        d.recovered += check_adapt_link(link, out);
        d.retrains += link.events().len() as u64;
        d.flips += FLIPS;
    }
    let (errors, bits) = fleet_errors(&links);
    errors as f64 / bits as f64
}

/// `adapt-phase-flip`.
pub fn run_adapt(seed: u64, seconds: f64, mode: Mode, out: &mut Outcome) {
    let deadline = Duration::from_secs_f64(seconds);
    match mode {
        Mode::Timed => {
            let ((pipe, first), setup_s) = timed_setup(ADAPT_SETUP_REPS, TRAIN_SENSITIVITY, || {
                let (pipe, _) = train_pipeline();
                let first = adapt_generation(&pipe, seed, 0);
                (pipe, first)
            });
            let mut d = AdaptDrive::default();
            let t0 = Instant::now();
            let ber = adapt_generation_run(&pipe, first, false, &mut d, out);
            for generation in 1.. {
                if t0.elapsed() >= deadline {
                    break;
                }
                let links = adapt_generation(&pipe, seed, generation);
                adapt_generation_run(&pipe, links, false, &mut d, out);
            }
            out.check(ber < ADAPT_BER_CEILING, || {
                format!("payload BER {ber:.3e} above {ADAPT_BER_CEILING}")
            });
            out.metrics.set("frames_per_s", median(&d.rates));
            out.metrics.set("retrain_p50_ms", median(&d.triggered_ms));
            out.metrics.set("payload_ber", ber);
            crate::finish_timed(out, setup_s, &d.rounds);
        }
        Mode::Traced => {
            let (pipe, train_s) = train_pipeline();
            let (mut p, mut d) = (AdaptDrive::default(), AdaptDrive::default());
            let t0 = Instant::now();
            for generation in 0.. {
                if generation > 1 && t0.elapsed() >= deadline {
                    break;
                }
                let links = adapt_generation(&pipe, seed, generation);
                if generation % 2 == 0 {
                    adapt_generation_run(&pipe, links, false, &mut p, out);
                } else {
                    adapt_generation_run(&pipe, links, true, &mut d, out);
                }
            }
            let med = |f: fn(&(ChainTimes, f64)) -> f64| {
                median(&d.chains.iter().map(f).collect::<Vec<_>>())
            };
            // Attribution: the replayed stages account for the triggered
            // step (the step's own frame work is microseconds).
            let accounted = med(|c| c.0.total_s() / c.1);
            out.check((0.8..1.25).contains(&accounted), || {
                format!("replayed stages account for {accounted:.3} of a triggered step")
            });
            let m = &mut out.metrics;
            m.set("retrain.ms", med(|c| c.0.retrain_s * 1e3));
            m.set("extract.ms", med(|c| c.0.extract_s * 1e3));
            m.set("deploy.ms", med(|c| c.0.deploy_s * 1e3));
            m.set("adapt.accounted_ratio", accounted);
            m.set("setup.train_s", train_s);
            m.set("adapt.retrains", d.retrains as f64 / d.flips as f64);
            m.set("adapt.recovered_ratio", d.recovered as f64 / d.flips as f64);
            let (p50_ms, _) = d.rounds.p50_p99_ms().expect("untriggered rounds ran");
            m.set("runtime.step_us", p50_ms * 1e3 / ADAPT_LINKS as f64);
            crate::finish_traced(out, p.host_s / p.frames as f64, d.host_s / d.frames as f64);
        }
    }
}

// ---------------------------------------------------------------------
// isi-blind-eq
// ---------------------------------------------------------------------

/// Links per generation.
const ISI_LINKS: usize = 32;
/// QPSK operating point of the equalizer bench.
const ISI_ES_N0_DB: f64 = 12.0;
/// Frame at which the two-ray echo appears.
const ISI_ONSET: u64 = 40;
/// Frames the echo stays.
const ISI_TAIL: u64 = 120;
/// Setups per timed run; `setup_s` is their median.
const ISI_SETUP_REPS: usize = 201;
/// How strongly an equalized step follows the host speed probe
/// ([`crate::harness::Timing::host_s`]).
const ISI_SENSITIVITY: f64 = 0.61;
/// `payload_ber` ceiling, onset transient included.
const ISI_BER_CEILING: f64 = 0.01;
/// Generations pooled into `payload_ber`.
const ISI_BER_GENERATIONS: u64 = 8;

fn isi_trajectory() -> Trajectory {
    let clean = ChannelState::clean(ISI_ES_N0_DB);
    Trajectory::new("two-ray-onset")
        .hold(ISI_ONSET, clean)
        .hold(ISI_TAIL, clean.with_taps(Taps::two_ray(0.4, 0.35, 1)))
}

/// A generation of zero-pilot equalized QPSK links with max-log
/// inside; traced, every inner demapper adds into `probe`.
fn isi_generation(seed: u64, generation: u64, probe: Option<&Arc<DemapProbe>>) -> Vec<OnlineLink> {
    let qpsk = Constellation::qam_gray(4);
    let sigma = noise_sigma(ISI_ES_N0_DB, 1.0) as f32;
    let params = LinkParams {
        pilot_symbols: 0,
        ..LinkParams::default()
    };
    let trajectory = isi_trajectory();
    link_seeds(seed, generation, ISI_LINKS)
        .into_iter()
        .map(|s| {
            let maxlog = MaxLogMap::new(qpsk.clone(), sigma);
            let inner: Box<dyn Demapper> = match probe {
                Some(p) => Box::new(Timed::new(Arc::new(maxlog), p.clone())),
                None => Box::new(maxlog),
            };
            let spec = OnlineLinkSpec {
                trajectory: trajectory.clone(),
                seed: s,
                params: params.clone(),
            };
            OnlineLink::equalized(spec, qpsk.clone(), inner, EqualizerConfig::default())
        })
        .collect()
}

/// Totals of the generations one side of a run played.
#[derive(Default)]
struct IsiDrive {
    frames: u64,
    /// Summed step time (reference s).
    host_s: f64,
    /// Frames per second of each generation.
    rates: Vec<f64>,
    /// Summed step CPU time (s), the base of `eq.other_us`.
    step_cpu_s: f64,
    /// Rounds of steps (reference s).
    rounds: Latencies,
    /// Time of each link's onset step, the frame in which its
    /// equalizer re-acquires the echo (reference ms).
    onset_ms: Vec<f64>,
    dd_frames: u64,
}

/// Plays one generation to the end of its script and checks that
/// every equalizer ends in decision-directed tracking. Returns the
/// generation's payload bit errors and bits.
fn isi_generation_run(links: &mut [OnlineLink], d: &mut IsiDrive, out: &mut Outcome) -> (u64, u64) {
    let frames = ISI_ONSET + ISI_TAIL;
    let mut host_s = 0.0;
    step_fleet(
        links,
        frames,
        ISI_SENSITIVITY,
        &mut d.rounds,
        |link, rec, dt| {
            host_s += dt.host_s;
            d.step_cpu_s += dt.cpu_s;
            if link.equalizer_mode_trace().last() == Some(&EqualizerMode::DecisionDirected) {
                d.dd_frames += 1;
            }
            if rec.frame == ISI_ONSET {
                d.onset_ms.push(dt.host_s * 1e3);
            }
        },
    );
    d.host_s += host_s;
    d.frames += frames * links.len() as u64;
    d.rates.push((frames * links.len() as u64) as f64 / host_s);
    out.attempted += frames * links.len() as u64;
    for link in links.iter() {
        let end = link.equalizer_mode_trace().last();
        out.check(end == Some(&EqualizerMode::DecisionDirected), || {
            format!("link {} ends in {end:?}", link.spec().seed)
        });
    }
    fleet_errors(links)
}

/// `isi-blind-eq`.
pub fn run_isi(seed: u64, seconds: f64, mode: Mode, out: &mut Outcome) {
    let deadline = Duration::from_secs_f64(seconds);
    match mode {
        Mode::Timed => {
            let (mut first, setup_s) = timed_setup(ISI_SETUP_REPS, ISI_SENSITIVITY, || {
                isi_generation(seed, 0, None)
            });
            let mut d = IsiDrive::default();
            let t0 = Instant::now();
            let (mut errors, mut bits) = isi_generation_run(&mut first, &mut d, out);
            drop(first);
            for generation in 1.. {
                if generation >= ISI_BER_GENERATIONS && t0.elapsed() >= deadline {
                    break;
                }
                let (e, b) =
                    isi_generation_run(&mut isi_generation(seed, generation, None), &mut d, out);
                if generation < ISI_BER_GENERATIONS {
                    (errors, bits) = (errors + e, bits + b);
                }
            }
            let ber = errors as f64 / bits as f64;
            out.check(ber < ISI_BER_CEILING, || {
                format!("payload BER {ber:.3e} above {ISI_BER_CEILING}")
            });
            out.metrics.set("frames_per_s", median(&d.rates));
            out.metrics.set("retrain_p50_ms", median(&d.onset_ms));
            out.metrics.set("payload_ber", ber);
            crate::finish_timed(out, setup_s, &d.rounds);
        }
        Mode::Traced => {
            let (mut p, mut d) = (IsiDrive::default(), IsiDrive::default());
            let probe = Arc::new(DemapProbe::default());
            let t0 = Instant::now();
            for generation in 0.. {
                if generation > 1 && t0.elapsed() >= deadline {
                    break;
                }
                let traced = generation % 2 == 1;
                let mut links = isi_generation(seed, generation, traced.then_some(&probe));
                isi_generation_run(&mut links, if traced { &mut d } else { &mut p }, out);
            }
            let c = probe.counts();
            let steps = d.frames as f64;
            let m = &mut out.metrics;
            m.set("demap.busy_s", c.busy_s);
            m.set("demap.calls_per_round", c.calls as f64 / steps);
            m.set(
                "demap.syms_per_call",
                c.symbols as f64 / c.calls.max(1) as f64,
            );
            m.set("demap.msym_per_s", c.symbols as f64 / c.busy_s / 1e6);
            m.set("demap.share", c.busy_s / d.step_cpu_s);
            let (p50_ms, _) = d.rounds.p50_p99_ms().expect("rounds ran");
            m.set("runtime.step_us", p50_ms * 1e3 / ISI_LINKS as f64);
            m.set("eq.other_us", (d.step_cpu_s - c.busy_s) / steps * 1e6);
            m.set("eq.dd_ratio", d.dd_frames as f64 / steps);
            crate::finish_traced(out, p.host_s / p.frames as f64, d.host_s / d.frames as f64);
        }
    }
}
