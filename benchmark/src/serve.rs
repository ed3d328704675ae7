//! The two `LinkServer` workloads: closed-loop rounds over a fleet of
//! sessions, one frame per session per round, served to drain.

use crate::harness::{
    cpu_now, median, ref_time, timed_setup, DemapCounts, DemapProbe, Latencies, Outcome, Timed,
    TRAIN_SENSITIVITY,
};
use crate::system::{compile_deployment, replay_chain, train_pipeline, ChainTimes};
use crate::Mode;
use hybridem_comm::demapper::Demapper;
use hybridem_comm::trajectory::{ChannelState, Trajectory, TrajectoryChannel};
use hybridem_core::registry::switch_registry;
use hybridem_core::server::{LinkServer, ServerCfg, SessionCfg, SessionId};
use hybridem_core::HybridPipeline;
use hybridem_mathkit::rng::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool participants: the calling thread alone. On a shared two-vCPU
/// host a second participant makes every round wait for whichever vCPU
/// the hypervisor has just taken away: measured under neighbour load,
/// two workers served 0.45–0.6 M frames/s with a 12–20 ms round p99,
/// one worker 1.1–1.16 M frames/s with a ~1 ms p99, run after run.
pub const WORKERS: usize = 1;
const BATCH_LINKS: usize = 256;
const QUEUE_CAP: u32 = 4;
/// Untimed rounds before the clock starts (scratch buffers grow, pages
/// fault in).
const WARMUP_ROUNDS: u64 = 3;
/// Setups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Replays of the backend's redeploy chain behind `retrain_p50_ms`,
/// and the number of serving slices between them.
const REDEPLOY_REPS: usize = 9;

/// Fleet and frame geometry of one serving workload.
pub struct Shape {
    /// Open sessions.
    pub sessions: u64,
    /// Symbols per frame.
    pub frame_symbols: usize,
    /// Pilot symbols per frame.
    pub pilot_symbols: usize,
    /// Registry name of the backend that demaps every session.
    pub backend: &'static str,
    /// Rounds (warm-up included) whose payload errors make
    /// `payload_ber`: a fixed count, so the figure repeats exactly for
    /// a seed.
    pub ber_rounds: u64,
    /// Ceiling on `payload_ber` (output check).
    pub ber_ceiling: f64,
    /// How strongly a round follows the host speed probe
    /// ([`crate::harness::Timing::host_s`]).
    pub sensitivity: f64,
}

/// `serve-hybrid-short`.
pub const HYBRID_SHORT: Shape = Shape {
    sessions: 1024,
    frame_symbols: 8,
    pilot_symbols: 2,
    backend: "hybrid-centroids",
    ber_rounds: 128,
    ber_ceiling: 0.02,
    sensitivity: 0.65,
};

/// `serve-ann-long`.
pub const ANN_LONG: Shape = Shape {
    sessions: 16,
    frame_symbols: 256,
    pilot_symbols: 64,
    backend: "ann-qat-w8",
    ber_rounds: 512,
    ber_ceiling: 0.02,
    sensitivity: 0.9,
};

impl Shape {
    fn is_graph(&self) -> bool {
        self.backend.starts_with("ann-qat")
    }
}

/// Per-session seeds derived from the workload seed.
pub fn session_seeds(seed: u64, sessions: u64) -> Vec<u64> {
    (0..sessions).map(|i| SplitMix64::derive(seed, i)).collect()
}

/// A server with its sessions open, plus the probe when traced.
struct Fleet {
    server: LinkServer,
    ids: Vec<SessionId>,
    probe: Option<Arc<DemapProbe>>,
    /// Rounds served so far, warm-up included.
    rounds: u64,
    /// Payload BER after [`Shape::ber_rounds`] rounds.
    ber: Option<f64>,
}

fn open_fleet(pipe: &HybridPipeline, shape: &Shape, seed: u64, traced: bool) -> Fleet {
    let es = pipe.config().es_n0_db();
    let graphs = if shape.is_graph() {
        vec![compile_deployment(pipe, pipe.ann_demapper().model())]
    } else {
        Vec::new()
    };
    let registry = switch_registry(pipe, &graphs);
    let backend = registry.get(
        registry
            .find(shape.backend)
            .expect("backend is in the switch line-up"),
    );
    let mut demapper: Arc<dyn Demapper> = backend.demapper(es);
    let probe = traced.then(|| Arc::new(DemapProbe::default()));
    if let Some(p) = &probe {
        demapper = Arc::new(Timed::new(demapper, p.clone()));
    }
    let mut server = LinkServer::new(ServerCfg {
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        batch_links: BATCH_LINKS,
    });
    let id = server.register_backend(backend.constellation().clone(), demapper);
    let awgn = Trajectory::constant("awgn", ChannelState::clean(es), 1);
    let ids = session_seeds(seed, shape.sessions)
        .into_iter()
        .map(|s| {
            let mut cfg = SessionCfg::new(id, awgn.clone(), s);
            cfg.frame_symbols = shape.frame_symbols;
            cfg.pilot_symbols = shape.pilot_symbols;
            server.open_session(cfg)
        })
        .collect();
    Fleet {
        server,
        ids,
        probe,
        rounds: 0,
        ber: None,
    }
}

impl Fleet {
    /// One closed-loop round: a frame per session, then serve to
    /// drain. Returns the frames served, the `serve()` time and the
    /// whole round's time, in reference seconds.
    fn round(&mut self, shape: &Shape) -> (u64, f64, f64) {
        let ((), submit_s) = ref_time(shape.sensitivity, || {
            for &id in &self.ids {
                // A shed frame is counted in the aggregate and fails the run.
                self.server.submit(id, 1).expect("session is open");
            }
        });
        let (served, serve_s) = ref_time(shape.sensitivity, || self.server.serve());
        self.rounds += 1;
        if self.rounds == shape.ber_rounds {
            self.ber = Some(self.server.aggregate().ber());
        }
        (served, serve_s, submit_s + serve_s)
    }

    fn demap_counts(&self) -> DemapCounts {
        self.probe.as_ref().map(|p| p.counts()).unwrap_or_default()
    }
}

/// Totals of the measured rounds of one fleet.
#[derive(Default)]
struct Drive {
    rounds: u64,
    frames: u64,
    /// Wall time of the measured rounds (s), which paces the traced run.
    wall_s: f64,
    /// CPU time of the measured rounds (s), the base of `demap.share`.
    cpu_s: f64,
    /// Time of the measured rounds in reference seconds.
    host_s: f64,
    latencies: Latencies,
    steals: u64,
    demap: DemapCounts,
}

/// Serves closed-loop rounds for `seconds` (warming the fleet up
/// first), adding them to `d`.
fn drive(fleet: &mut Fleet, shape: &Shape, seconds: f64, d: &mut Drive) {
    while fleet.rounds < WARMUP_ROUNDS {
        fleet.round(shape);
    }
    let demap0 = fleet.demap_counts();
    let steals0 = fleet.server.steal_count();
    let deadline = Duration::from_secs_f64(seconds);
    let (t0, c0) = (Instant::now(), cpu_now());
    while t0.elapsed() < deadline {
        let (served, serve_s, round_s) = fleet.round(shape);
        d.latencies.push(serve_s);
        d.host_s += round_s;
        d.frames += served;
        d.rounds += 1;
    }
    d.wall_s += t0.elapsed().as_secs_f64();
    d.cpu_s += cpu_now() - c0;
    d.steals += fleet.server.steal_count() - steals0;
    let c = fleet.demap_counts();
    d.demap.calls += c.calls - demap0.calls;
    d.demap.symbols += c.symbols - demap0.symbols;
    d.demap.busy_s += c.busy_s - demap0.busy_s;
}

/// Output checks on a fleet that has finished: conservation holds,
/// every offered frame was served (nothing shed, dropped or left
/// pending), and the payload BER stays under the ceiling. Returns the
/// BER after the fixed BER rounds.
fn check(fleet: &mut Fleet, shape: &Shape, out: &mut Outcome) -> f64 {
    while fleet.ber.is_none() {
        fleet.round(shape);
    }
    let agg = fleet.server.aggregate();
    let offered = fleet.rounds * fleet.ids.len() as u64;
    out.attempted += agg.submitted_frames;
    out.failed += agg.shed_frames + agg.dropped_frames + agg.pending_frames;
    out.check(agg.validate().is_ok(), || {
        format!("aggregate invalid: {:?}", agg.validate())
    });
    out.check(
        agg.frames == offered && agg.submitted_frames == offered,
        || {
            format!(
                "served {} of {} offered frames ({} submitted)",
                agg.frames, offered, agg.submitted_frames
            )
        },
    );
    let ber = fleet.ber.expect("BER rounds served");
    out.check(
        agg.ber() < shape.ber_ceiling && ber < shape.ber_ceiling,
        || {
            format!(
                "payload BER {:.3e} above ceiling {}",
                agg.ber(),
                shape.ber_ceiling
            )
        },
    );
    ber
}

/// One replay of the backend's redeploy chain on the serving channel:
/// retrain, then extract (hybrid centroids) or recalibrate and compile
/// (integer graph).
fn redeploy(pipe: &HybridPipeline, shape: &Shape) -> ChainTimes {
    let es = pipe.config().es_n0_db();
    let chan = TrajectoryChannel::new(
        Trajectory::constant("awgn", ChannelState::clean(es), 1),
        shape.frame_symbols,
    );
    replay_chain(
        pipe,
        &mut chan.snapshot_static(),
        !shape.is_graph(),
        shape.is_graph(),
    )
}

/// Alternation slice of the traced run: untraced and traced fleets
/// take turns, so drift in host speed hits both alike.
const TRACE_SLICE_S: f64 = 0.5;

/// Runs one serving workload in `mode` for `seconds`.
pub fn run(shape: &Shape, seed: u64, seconds: f64, mode: Mode, out: &mut Outcome) {
    match mode {
        Mode::Timed => {
            let ((pipe, mut fleet), setup_s) = timed_setup(SETUP_REPS, TRAIN_SENSITIVITY, || {
                let (pipe, _) = train_pipeline();
                let fleet = open_fleet(&pipe, shape, seed, false);
                (pipe, fleet)
            });
            // Serving slices alternate with redeploy replays, so a slow
            // stretch of the host hits one sample of each, not all.
            let mut d = Drive::default();
            let (mut rates, mut chain) = (Vec::new(), Vec::new());
            for _ in 0..REDEPLOY_REPS {
                let (frames, host_s) = (d.frames, d.host_s);
                drive(&mut fleet, shape, seconds / REDEPLOY_REPS as f64, &mut d);
                rates.push((d.frames - frames) as f64 / (d.host_s - host_s));
                chain.push(redeploy(&pipe, shape).total_s() * 1e3);
            }
            let ber = check(&mut fleet, shape, out);
            let m = &mut out.metrics;
            m.set("frames_per_s", median(&rates));
            m.set("retrain_p50_ms", median(&chain));
            m.set("payload_ber", ber);
            crate::finish_timed(out, setup_s, &d.latencies);
        }
        Mode::Traced => {
            let (pipe, train_s) = train_pipeline();
            let mut plain = open_fleet(&pipe, shape, seed, false);
            let mut traced = open_fleet(&pipe, shape, seed, true);
            let (mut p, mut d) = (Drive::default(), Drive::default());
            while p.wall_s + d.wall_s < seconds {
                drive(&mut plain, shape, TRACE_SLICE_S, &mut p);
                drive(&mut traced, shape, TRACE_SLICE_S, &mut d);
            }
            check(&mut plain, shape, out);
            check(&mut traced, shape, out);
            let chain: Vec<_> = (0..3).map(|_| redeploy(&pipe, shape)).collect();
            let rounds = d.rounds as f64;
            let share = d.demap.busy_s / (WORKERS as f64 * d.cpu_s);
            // Attribution: the integer graph does most of a long-frame
            // round's work, the hybrid kernel little of a short-frame one.
            out.check((share > 0.5) == shape.is_graph(), || {
                format!(
                    "demap.share {share:.3} on the wrong side of 0.5 for {}",
                    shape.backend
                )
            });
            let m = &mut out.metrics;
            m.set("demap.busy_s", d.demap.busy_s);
            m.set("demap.calls_per_round", d.demap.calls as f64 / rounds);
            m.set(
                "demap.syms_per_call",
                d.demap.symbols as f64 / d.demap.calls.max(1) as f64,
            );
            m.set(
                "demap.msym_per_s",
                d.demap.symbols as f64 / d.demap.busy_s / 1e6,
            );
            m.set("demap.share", share);
            m.set("server.round_ms", d.host_s / rounds * 1e3);
            m.set("server.frames_per_round", d.frames as f64 / rounds);
            m.set("server.other_share", 1.0 - share);
            m.set("pool.steals_per_round", d.steals as f64 / rounds);
            let med = |f: fn(&ChainTimes) -> f64| median(&chain.iter().map(f).collect::<Vec<_>>());
            m.set("retrain.ms", med(|c| c.retrain_s * 1e3));
            m.set("extract.ms", med(|c| c.extract_s * 1e3));
            m.set("deploy.ms", med(|c| c.deploy_s * 1e3));
            m.set("setup.train_s", train_s);
            crate::finish_traced(out, p.host_s / p.frames as f64, d.host_s / d.frames as f64);
        }
    }
}
