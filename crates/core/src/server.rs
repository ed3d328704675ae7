//! Many-link serving fabric: thousands of independent link sessions
//! multiplexed over a bounded work-stealing pool, with **cross-link
//! batched demapping** (DESIGN.md §12).
//!
//! [`crate::runtime`] simulates links one campaign at a time; the
//! ROADMAP north star is serving millions of concurrent users, which
//! is a different shape of problem: sessions open and close
//! continuously, load is imbalanced, and the SIMD / integer-graph
//! demap kernels (DESIGN.md §11) only pay for themselves when fed
//! large contiguous blocks. [`LinkServer`] owns per-session state in a
//! generation-checked slab, admits frame work through bounded queues
//! with explicit backpressure ([`Admit::Shed`]), and serves rounds on
//! a [`StealPool`] so hot links spread across workers instead of
//! pinning a static partition. The hot path cuts the sessions of each
//! backend into chunks of up to [`ServerCfg::batch_links`] links; each
//! chunk gathers its sessions' fresh frames into its own batch, issues
//! **one** [`Demapper::demap_block`] call over it, and hands each
//! session its LLR span. A one-link chunk takes the same steps.
//!
//! What is and is not deterministic: scheduling is not — tasks run on
//! arbitrary workers in arbitrary order. The *report* is: every
//! session draws from its own seeded RNG stream, `demap_block` is
//! bit-exact against the per-symbol reference (so LLRs are independent
//! of which batch a symbol landed in), per-session statistics are
//! integer counts, and [`LinkServer::aggregate`] folds them in slab
//! order. The aggregate artefact is therefore byte-identical at any
//! worker count and any batch size — pinned by the root
//! `linkserver` integration test.
//!
//! Each session streams through its own [`FrameEngine`], the same
//! frame engine [`crate::runtime::OnlineLink`] uses, so a session and
//! an online link with the same seed, trajectory and frame geometry
//! transmit and count the same frames.
//!
//! Steady state allocates nothing: session buffers, the plan scratch,
//! the per-chunk batches (which only grow) and the pool's deques all
//! reuse their capacity after a warmup round.

use crate::runtime::Monitor;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::Demapper;
use hybridem_comm::frame::FrameEngine;
use hybridem_comm::trajectory::Trajectory;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::stats::error_rate;
use hybridem_parallel::{num_threads, StealPool};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Server shape: worker count, per-session queue bound, batch width.
#[derive(Clone, Copy, Debug)]
pub struct ServerCfg {
    /// Pool participants including the serving thread (≥ 1).
    pub workers: usize,
    /// Maximum frames a session may have queued; a `submit` that would
    /// exceed it is shed whole (never partially enqueued).
    pub queue_cap: u32,
    /// Maximum links gathered into one `demap_block` call. `1`
    /// gathers a single frame per call — the per-link baseline the
    /// saturation bench compares against.
    pub batch_links: usize,
}

impl Default for ServerCfg {
    fn default() -> Self {
        Self {
            workers: num_threads(),
            queue_cap: 64,
            batch_links: 256,
        }
    }
}

/// Handle to a registered (constellation, demapper) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BackendId(u32);

/// Generation-checked session handle. Slab slots are reused after
/// [`LinkServer::close_session`], but the slot's generation is bumped
/// on close, so a stale handle held past the close is rejected with
/// [`SessionError::Stale`] instead of silently addressing the new
/// tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId {
    index: u32,
    generation: u32,
}

/// Admission verdict of [`LinkServer::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// The frames were enqueued.
    Accepted,
    /// The bounded queue would overflow: nothing was enqueued and the
    /// shed frames were counted in the session's statistics. The
    /// caller sees backpressure explicitly instead of an unbounded
    /// queue absorbing it.
    Shed,
}

/// A session handle failed the slab check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The handle's slot is empty, out of range, or reused by a newer
    /// session (generation mismatch).
    Stale,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Stale => write!(f, "stale session id (closed or never opened)"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Everything needed to open one serving session.
#[derive(Clone, Debug)]
pub struct SessionCfg {
    /// Which registered backend demaps this session's frames.
    pub(crate) backend: BackendId,
    /// The session's scripted channel (held at its final state past
    /// the script's end, so long-lived sessions keep streaming).
    pub(crate) trajectory: Trajectory,
    /// Seed of the session's private RNG stream.
    pub(crate) seed: u64,
    /// Symbols per frame.
    pub frame_symbols: usize,
    /// Known pilot symbols at the start of every frame.
    pub pilot_symbols: usize,
}

impl SessionCfg {
    /// Session with the default frame geometry (256 symbols, 64
    /// pilots).
    pub fn new(backend: BackendId, trajectory: Trajectory, seed: u64) -> Self {
        Self {
            backend,
            trajectory,
            seed,
            frame_symbols: 256,
            pilot_symbols: 64,
        }
    }
}

/// Integer-only per-session counters. Deliberately no floating-point
/// accumulation: integer sums merge order-independently, which is what
/// makes the aggregate report byte-identical across worker counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames offered to admission control (accepted **and** shed) —
    /// the left-hand side of the frame-conservation invariant
    /// `submitted = frames + shed + dropped (+ still pending)`.
    pub(crate) submitted_frames: u64,
    /// Frames served.
    pub(crate) frames: u64,
    /// Payload bits transmitted.
    pub(crate) payload_bits: u64,
    /// Payload bit errors (raw demapped decisions).
    pub(crate) payload_bit_errors: u64,
    /// Pilot bits transmitted.
    pub(crate) pilot_bits: u64,
    /// Pilot bit errors.
    pub(crate) pilot_bit_errors: u64,
    /// Frames refused by admission control.
    pub(crate) shed_frames: u64,
    /// Frames accepted but still queued when the session closed.
    /// Closing is the caller's choice (not backpressure), but the
    /// frames must still be accounted — they were admitted and never
    /// served.
    pub dropped_frames: u64,
}

impl SessionStats {
    /// Adds `other` into `self` (associative + commutative: all
    /// fields are counts).
    pub(crate) fn merge(&mut self, other: &SessionStats) {
        self.submitted_frames += other.submitted_frames;
        self.frames += other.frames;
        self.payload_bits += other.payload_bits;
        self.payload_bit_errors += other.payload_bit_errors;
        self.pilot_bits += other.pilot_bits;
        self.pilot_bit_errors += other.pilot_bit_errors;
        self.shed_frames += other.shed_frames;
        self.dropped_frames += other.dropped_frames;
    }
}

/// Slab-order fold of every session's counters (open + closed), plus
/// server-level counts. All fields are integers, so the serialised
/// artefact is byte-identical across worker counts and batch sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggregateReport {
    /// Sessions currently open.
    pub sessions_open: u64,
    /// Sessions closed over the server's lifetime.
    pub(crate) sessions_closed: u64,
    /// Serving rounds executed.
    pub(crate) rounds: u64,
    /// Frames offered to admission control (accepted and shed).
    pub submitted_frames: u64,
    /// Frames served.
    pub frames: u64,
    /// Payload bits transmitted.
    pub payload_bits: u64,
    /// Payload bit errors.
    pub payload_bit_errors: u64,
    /// Pilot bits transmitted.
    pub(crate) pilot_bits: u64,
    /// Pilot bit errors.
    pub(crate) pilot_bit_errors: u64,
    /// Frames refused by admission control.
    pub shed_frames: u64,
    /// Frames accepted but dropped unserved by a session close.
    pub dropped_frames: u64,
    /// Frames accepted and still queued on open sessions.
    pub pending_frames: u64,
}

hybridem_mathkit::impl_json!(AggregateReport {
    sessions_open,
    sessions_closed,
    rounds,
    submitted_frames,
    frames,
    payload_bits,
    payload_bit_errors,
    pilot_bits,
    pilot_bit_errors,
    shed_frames,
    dropped_frames,
    pending_frames,
});

impl AggregateReport {
    /// Aggregate payload BER (0 when nothing was served — never NaN).
    pub fn ber(&self) -> f64 {
        error_rate(self.payload_bit_errors, self.payload_bits)
    }

    /// Internal-consistency check: error counts never exceed their bit
    /// counts, and every submitted frame is accounted for exactly once
    /// (`submitted = served + shed + dropped + pending`). Returns the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.payload_bit_errors > self.payload_bits {
            return Err("more payload errors than bits".to_string());
        }
        if self.pilot_bit_errors > self.pilot_bits {
            return Err("more pilot errors than bits".to_string());
        }
        let accounted = self.frames + self.shed_frames + self.dropped_frames + self.pending_frames;
        if self.submitted_frames != accounted {
            return Err(format!(
                "frame conservation broken: {} submitted vs {} served + {} shed \
                 + {} dropped + {} pending",
                self.submitted_frames,
                self.frames,
                self.shed_frames,
                self.dropped_frames,
                self.pending_frames
            ));
        }
        Ok(())
    }
}

struct Backend {
    constellation: Constellation,
    demapper: Arc<dyn Demapper>,
}

/// One serving session: a frame engine (private RNG stream, scripted
/// channel, reused frame buffers) and integer counters. Lives behind a
/// slot `Mutex` so the parallel phases can lock exactly the sessions
/// of their chunk (chunks never share a session, so the locks are
/// uncontended).
struct Session {
    backend: u32,
    engine: FrameEngine,
    pending: u32,
    stats: SessionStats,
}

impl Session {
    /// Consumes one frame's LLR span of its chunk's batch: error
    /// counts from the LLR signs, queue decrement.
    fn finish_frame(&mut self, llrs: &[f32]) {
        let errors = self.engine.count_errors(llrs);
        self.stats.frames += 1;
        self.stats.payload_bits += self.engine.payload_bits() as u64;
        self.stats.payload_bit_errors += errors.payload;
        self.stats.pilot_bits += self.engine.pilot_bits() as u64;
        self.stats.pilot_bit_errors += errors.pilot;
        self.pending -= 1;
    }
}

struct Slot {
    generation: u32,
    session: Option<Mutex<Session>>,
}

/// A contiguous run of up to `batch_links` same-backend sessions,
/// demapped with one `demap_block` call.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    backend: u32,
    /// Range into the round's `order` list.
    start: usize,
    end: usize,
}

/// One chunk's gather batch, kept across rounds: its sessions' received
/// symbols back to back, and the LLRs the chunk's `demap_block` call
/// writes for them. `llrs` only grows, so no round zero-fills it.
#[derive(Default)]
struct Batch {
    symbols: Vec<C32>,
    llrs: Vec<f32>,
}

/// The many-link serving fabric. See the module docs for the
/// architecture; DESIGN.md §12 for the full design discussion.
pub struct LinkServer {
    cfg: ServerCfg,
    backends: Vec<Backend>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    retired: SessionStats,
    closed: u64,
    rounds: u64,
    pool: StealPool,
    // Round-plan scratch, reused across rounds (no steady-state
    // allocation): active slots grouped by backend, the chunk
    // descriptors, and one batch per chunk (its lock is uncontended:
    // each chunk runs exactly once per round).
    order: Vec<u32>,
    chunks: Vec<Chunk>,
    batches: Vec<Mutex<Batch>>,
}

impl LinkServer {
    /// Server with the given shape. Spawns `cfg.workers − 1`
    /// persistent background workers.
    ///
    /// # Panics
    /// Panics if `workers`, `queue_cap` or `batch_links` is zero.
    pub fn new(cfg: ServerCfg) -> Self {
        assert!(cfg.workers >= 1, "at least the serving thread");
        assert!(cfg.queue_cap >= 1, "a zero queue admits nothing");
        assert!(cfg.batch_links >= 1, "batches gather at least one link");
        Self {
            cfg,
            backends: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            retired: SessionStats::default(),
            closed: 0,
            rounds: 0,
            pool: StealPool::new(cfg.workers),
            order: Vec::new(),
            chunks: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// The server shape.
    pub fn cfg(&self) -> &ServerCfg {
        &self.cfg
    }

    /// Registers a (constellation, demapper) pair sessions can bind
    /// to. Backends are shared read-only across all workers.
    ///
    /// # Panics
    /// Panics when the demapper's width disagrees with the
    /// constellation's, or exceeds the 16-bit symbol cap.
    pub fn register_backend(
        &mut self,
        constellation: Constellation,
        demapper: Arc<dyn Demapper>,
    ) -> BackendId {
        let m = constellation.bits_per_symbol();
        assert_eq!(
            m,
            demapper.bits_per_symbol(),
            "constellation and demapper disagree on bits/symbol"
        );
        assert!(m <= 16, "bits per symbol > 16 unsupported");
        self.backends.push(Backend {
            constellation,
            demapper,
        });
        BackendId(self.backends.len() as u32 - 1)
    }

    /// Opens a session in the slab: a freed slot is reused if one
    /// exists (its generation already bumped by the close), otherwise
    /// the slab grows.
    ///
    /// # Panics
    /// Panics on an unknown backend or invalid frame geometry.
    pub fn open_session(&mut self, cfg: SessionCfg) -> SessionId {
        let backend = self
            .backends
            .get(cfg.backend.0 as usize)
            .expect("unknown backend id");
        let m = backend.constellation.bits_per_symbol();
        let n = cfg.frame_symbols;
        let session = Session {
            backend: cfg.backend.0,
            engine: FrameEngine::new(
                cfg.trajectory,
                cfg.seed,
                n,
                cfg.pilot_symbols,
                Monitor::Pilot,
                m,
            ),
            pending: 0,
            stats: SessionStats::default(),
        };
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].session = Some(Mutex::new(session));
                i
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    session: Some(Mutex::new(session)),
                });
                (self.slots.len() - 1) as u32
            }
        };
        SessionId {
            index,
            generation: self.slots[index as usize].generation,
        }
    }

    fn slot_mut(&mut self, id: SessionId) -> Result<&mut Slot, SessionError> {
        let slot = self
            .slots
            .get_mut(id.index as usize)
            .ok_or(SessionError::Stale)?;
        if slot.generation != id.generation || slot.session.is_none() {
            return Err(SessionError::Stale);
        }
        Ok(slot)
    }

    fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, SessionError> {
        let cell = self.slot_mut(id)?.session.as_mut();
        let cell = cell.expect("slot_mut checked the slot is occupied");
        Ok(cell
            .get_mut()
            .expect("a round panicked holding the session"))
    }

    /// Closes a session: its counters fold into the retired
    /// accumulator (they stay visible to [`LinkServer::aggregate`]),
    /// the slot's generation is bumped so stale handles are rejected,
    /// and the slot joins the free list for reuse. Returns the
    /// session's final counters. Queued-but-unserved frames are
    /// counted as `dropped_frames` — closing is the caller's choice
    /// (not shed), but the admitted frames must stay accounted, or
    /// the aggregate's conservation invariant would leak on every
    /// close.
    pub fn close_session(&mut self, id: SessionId) -> Result<SessionStats, SessionError> {
        let slot = self.slot_mut(id)?;
        let session = slot.session.take().expect("checked occupied");
        slot.generation = slot.generation.wrapping_add(1);
        let session = session.into_inner().unwrap();
        let mut stats = session.stats;
        stats.dropped_frames += u64::from(session.pending);
        self.retired.merge(&stats);
        self.closed += 1;
        self.free.push(id.index);
        Ok(stats)
    }

    /// Frames a session has queued.
    pub fn pending(&mut self, id: SessionId) -> Result<u32, SessionError> {
        Ok(self.session_mut(id)?.pending)
    }

    /// Admission control: enqueues `frames` for the session, or sheds
    /// the whole request when it would push the queue past
    /// [`ServerCfg::queue_cap`]. Shed frames are counted in the
    /// session's statistics; the queue never exceeds its bound.
    pub fn submit(&mut self, id: SessionId, frames: u32) -> Result<Admit, SessionError> {
        let cap = self.cfg.queue_cap;
        // The slab check runs before any counter moves: a stale handle
        // must not touch the slot's current tenant (its shed/submit
        // counts belong to a different session).
        let s = self.session_mut(id)?;
        s.stats.submitted_frames += u64::from(frames);
        if frames > cap - s.pending {
            s.stats.shed_frames += u64::from(frames);
            Ok(Admit::Shed)
        } else {
            s.pending += frames;
            Ok(Admit::Accepted)
        }
    }

    /// Rebinds an open session to another registered backend: the next
    /// served frame demaps through the new backend, and the round
    /// planner's grouping moves the session between batch groups
    /// automatically (grouping is recomputed from `session.backend`
    /// every round). Constellations must agree — the transmitter does
    /// not change mid-stream, only the demapper implementation does
    /// (the registry's switch line-up shares one constellation for
    /// exactly this reason).
    ///
    /// # Panics
    /// Panics on an unknown backend id or a constellation mismatch.
    pub fn switch_backend(
        &mut self,
        id: SessionId,
        backend: BackendId,
    ) -> Result<(), SessionError> {
        let to = backend.0 as usize;
        assert!(to < self.backends.len(), "unknown backend id");
        let from = self.session_mut(id)?.backend as usize;
        assert_eq!(
            self.backends[from].constellation.points(),
            self.backends[to].constellation.points(),
            "backend switch must preserve the transmit constellation"
        );
        self.session_mut(id)?.backend = backend.0;
        Ok(())
    }

    /// Serves one frame on every session with queued work; returns the
    /// number of frames served.
    ///
    /// A round is: **plan** (sequential — group active sessions by
    /// backend in slab order, chop into chunks of ≤ `batch_links`
    /// links), then one pool round over the chunks. Every chunk, one
    /// link or many, takes the same steps: generate each session's
    /// frame and append it to the chunk's batch, issue one
    /// `demap_block` over the batch, and hand each session its LLR
    /// span.
    pub fn serve_round(&mut self) -> u64 {
        let Self {
            cfg,
            backends,
            slots,
            pool,
            order,
            chunks,
            batches,
            rounds,
            ..
        } = self;

        // ---- plan (sequential, reused scratch) -----------------------
        order.clear();
        chunks.clear();
        for b in 0..backends.len() as u32 {
            let seg_start = order.len();
            for (i, slot) in slots.iter_mut().enumerate() {
                let Some(cell) = slot.session.as_mut() else {
                    continue;
                };
                let s = cell.get_mut().unwrap();
                if s.backend == b && s.pending > 0 {
                    order.push(i as u32);
                }
            }
            for start in (seg_start..order.len()).step_by(cfg.batch_links) {
                let end = (start + cfg.batch_links).min(order.len());
                chunks.push(Chunk {
                    backend: b,
                    start,
                    end,
                });
            }
        }
        if order.is_empty() {
            return 0;
        }
        if batches.len() < chunks.len() {
            batches.resize_with(chunks.len(), Default::default);
        }

        // ---- execute (work-stealing over chunks) ---------------------
        let slots: &[Slot] = slots;
        let order: &[u32] = order;
        let batches: &[Mutex<Batch>] = batches;
        let lock = |i: u32| {
            slots[i as usize]
                .session
                .as_ref()
                .expect("planned slots stay occupied for the round")
                .lock()
                .expect("a round panicked holding the session")
        };
        pool.run(chunks.len(), |ci| {
            let c = chunks[ci];
            let backend = &backends[c.backend as usize];
            let m = backend.constellation.bits_per_symbol();
            let sessions = &order[c.start..c.end];
            let mut batch = batches[ci]
                .lock()
                .expect("a round panicked holding the batch");
            let Batch { symbols, llrs } = &mut *batch;
            // Gather: each session's fresh frame is appended to the batch.
            symbols.clear();
            for &i in sessions {
                let mut s = lock(i);
                s.engine.generate(&backend.constellation);
                symbols.extend_from_slice(s.engine.block());
            }
            // One demap call for the whole chunk — this is the batching
            // the saturation bench measures. `demap_block` is bit-exact
            // against the per-symbol path, so LLRs are independent of
            // batch composition.
            let bits = symbols.len() * m;
            if llrs.len() < bits {
                llrs.resize(bits, 0.0);
            }
            backend.demapper.demap_block(symbols, &mut llrs[..bits]);
            // Scatter: each session consumes its span, in gather order.
            let mut at = 0;
            for &i in sessions {
                let mut s = lock(i);
                let span = s.engine.frame_symbols() * m;
                s.finish_frame(&llrs[at..at + span]);
                at += span;
            }
        });
        *rounds += 1;
        order.len() as u64
    }

    /// Serves rounds until every queue is drained; returns the total
    /// frames served.
    pub fn serve(&mut self) -> u64 {
        let mut total = 0;
        loop {
            let served = self.serve_round();
            if served == 0 {
                return total;
            }
            total += served;
        }
    }

    /// Serving rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cumulative steal count of the underlying pool (observability;
    /// deliberately **not** part of [`AggregateReport`] — it depends
    /// on scheduling).
    pub fn steal_count(&self) -> u64 {
        self.pool.steal_count()
    }

    /// Folds every session's counters — open sessions in slab order,
    /// then the retired accumulator — into the aggregate artefact.
    /// Integer counts + fixed fold order ⇒ byte-identical JSON at any
    /// worker count and batch size.
    pub fn aggregate(&mut self) -> AggregateReport {
        let mut total = SessionStats::default();
        let mut open = 0u64;
        let mut pending = 0u64;
        for slot in &mut self.slots {
            if let Some(cell) = slot.session.as_mut() {
                let s = cell.get_mut().unwrap();
                total.merge(&s.stats);
                pending += u64::from(s.pending);
                open += 1;
            }
        }
        total.merge(&self.retired.clone());
        AggregateReport {
            sessions_open: open,
            sessions_closed: self.closed,
            rounds: self.rounds,
            submitted_frames: total.submitted_frames,
            frames: total.frames,
            payload_bits: total.payload_bits,
            payload_bit_errors: total.payload_bit_errors,
            pilot_bits: total.pilot_bits,
            pilot_bit_errors: total.pilot_bit_errors,
            shed_frames: total.shed_frames,
            dropped_frames: total.dropped_frames,
            pending_frames: pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_comm::demapper::MaxLogMap;
    use hybridem_comm::trajectory::ChannelState;
    use hybridem_mathkit::json::{FromJson, Json, ToJson};

    fn qam_server(cfg: ServerCfg) -> (LinkServer, BackendId) {
        let qam = Constellation::qam_gray(16);
        let mut server = LinkServer::new(cfg);
        let backend = server.register_backend(qam.clone(), Arc::new(MaxLogMap::new(qam, 0.2)) as _);
        (server, backend)
    }

    fn clean_session(backend: BackendId, seed: u64) -> SessionCfg {
        let mut cfg = SessionCfg::new(
            backend,
            Trajectory::constant("clean", ChannelState::clean(f64::INFINITY), 1),
            seed,
        );
        cfg.frame_symbols = 32;
        cfg.pilot_symbols = 8;
        cfg
    }

    #[test]
    fn noiseless_sessions_serve_error_free() {
        let (mut server, backend) = qam_server(ServerCfg {
            workers: 2,
            ..ServerCfg::default()
        });
        let ids: Vec<_> = (0..17)
            .map(|i| server.open_session(clean_session(backend, i)))
            .collect();
        for &id in &ids {
            assert_eq!(server.submit(id, 3).unwrap(), Admit::Accepted);
        }
        assert_eq!(server.serve(), 17 * 3);
        let agg = server.aggregate();
        agg.validate().unwrap();
        assert_eq!(agg.frames, 51);
        assert_eq!(agg.payload_bit_errors, 0);
        assert_eq!(agg.pilot_bit_errors, 0);
        assert_eq!(agg.payload_bits, 51 * (32 - 8) * 4);
        assert_eq!(agg.shed_frames, 0);
        assert_eq!(agg.sessions_open, 17);
    }

    #[test]
    fn noisy_aggregate_is_identical_across_batch_sizes() {
        // The determinism claim at the heart of the design: a symbol's
        // LLRs do not depend on which gather batch it landed in, so
        // the whole artefact is independent of batch_links.
        let serve = |batch_links: usize| {
            let (mut server, backend) = qam_server(ServerCfg {
                workers: 3,
                queue_cap: 16,
                batch_links,
            });
            for i in 0..29 {
                let mut cfg = clean_session(backend, 1000 + i);
                cfg.trajectory = Trajectory::constant("awgn", ChannelState::clean(8.0), 1);
                let id = server.open_session(cfg);
                server.submit(id, 4).unwrap();
            }
            server.serve();
            server.aggregate().to_json().to_string_pretty()
        };
        let baseline = serve(1);
        assert_eq!(baseline, serve(7));
        assert_eq!(baseline, serve(256));
    }

    #[test]
    fn slab_reuses_slots_and_rejects_stale_ids() {
        let (mut server, backend) = qam_server(ServerCfg::default());
        let a = server.open_session(clean_session(backend, 1));
        let b = server.open_session(clean_session(backend, 2));
        server.submit(a, 1).unwrap();
        server.serve();
        let stats = server.close_session(a).unwrap();
        assert_eq!(stats.frames, 1);
        // The slot is reused for the next open…
        let c = server.open_session(clean_session(backend, 3));
        assert_eq!(c.index, a.index, "freed slot must be reused");
        assert_ne!(c.generation, a.generation, "…under a new generation");
        // …and every operation through the stale handle is rejected.
        assert_eq!(server.submit(a, 1), Err(SessionError::Stale));
        assert_eq!(server.close_session(a), Err(SessionError::Stale));
        // Closed counters stay in the aggregate.
        assert_eq!(server.aggregate().frames, 1);
        assert_eq!(server.aggregate().sessions_closed, 1);
        let _ = (b, c);
    }

    #[test]
    fn double_close_is_stale() {
        let (mut server, backend) = qam_server(ServerCfg::default());
        let id = server.open_session(clean_session(backend, 5));
        server.close_session(id).unwrap();
        assert_eq!(server.close_session(id), Err(SessionError::Stale));
    }

    #[test]
    fn admission_sheds_whole_requests_and_caps_the_queue() {
        let (mut server, backend) = qam_server(ServerCfg {
            queue_cap: 4,
            ..ServerCfg::default()
        });
        let id = server.open_session(clean_session(backend, 9));
        assert_eq!(server.submit(id, 3).unwrap(), Admit::Accepted);
        // 3 + 2 > 4: shed whole, nothing partially enqueued.
        assert_eq!(server.submit(id, 2).unwrap(), Admit::Shed);
        assert_eq!(server.pending(id).unwrap(), 3);
        assert_eq!(server.submit(id, 1).unwrap(), Admit::Accepted);
        assert_eq!(server.pending(id).unwrap(), 4);
        assert_eq!(server.submit(id, 1).unwrap(), Admit::Shed);
        assert_eq!(server.pending(id).unwrap(), 4, "queue never exceeds cap");
        server.serve();
        let stats = server.close_session(id).unwrap();
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.shed_frames, 3);
    }

    #[test]
    fn close_counts_queued_frames_as_dropped() {
        let (mut server, backend) = qam_server(ServerCfg::default());
        let id = server.open_session(clean_session(backend, 4));
        server.submit(id, 5).unwrap();
        server.serve_round(); // serves exactly one frame
        let stats = server.close_session(id).unwrap();
        assert_eq!(stats.submitted_frames, 5);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.dropped_frames, 4, "pending at close must be counted");
        let agg = server.aggregate();
        agg.validate()
            .expect("conservation holds through the close");
        assert_eq!(agg.dropped_frames, 4);
        assert_eq!(agg.pending_frames, 0);
        assert_eq!(
            agg.submitted_frames,
            agg.frames + agg.shed_frames + agg.dropped_frames + agg.pending_frames
        );
    }

    #[test]
    fn stale_submit_never_touches_the_slots_new_tenant() {
        // Regression: a stale handle into a reused slab slot must be
        // rejected *before* any counter moves, or the old session's
        // traffic would pollute the new occupant's shed/submitted
        // statistics.
        let (mut server, backend) = qam_server(ServerCfg {
            queue_cap: 2,
            ..ServerCfg::default()
        });
        let old = server.open_session(clean_session(backend, 1));
        server.close_session(old).unwrap();
        let new = server.open_session(clean_session(backend, 2));
        assert_eq!(new.index, old.index, "slot reuse is the precondition");
        // Oversized and normal submits through the stale handle.
        assert_eq!(server.submit(old, 100), Err(SessionError::Stale));
        assert_eq!(server.submit(old, 1), Err(SessionError::Stale));
        assert_eq!(server.pending(new).unwrap(), 0);
        let stats = server.close_session(new).unwrap();
        assert_eq!(stats.submitted_frames, 0, "stale submit must not count");
        assert_eq!(stats.shed_frames, 0, "stale shed must not count");
        server.aggregate().validate().unwrap();
    }

    #[test]
    fn switch_backend_migrates_between_batch_groups() {
        // Two demappers over the same constellation but different σ:
        // LLR magnitudes differ, hard decisions (and counters) agree
        // on a clean channel. A session switched mid-stream must serve
        // the remaining frames under the new backend's batch group and
        // keep the aggregate byte-identical at any worker count.
        let serve = |workers: usize| {
            let qam = Constellation::qam_gray(16);
            let mut server = LinkServer::new(ServerCfg {
                workers,
                ..ServerCfg::default()
            });
            let a = server
                .register_backend(qam.clone(), Arc::new(MaxLogMap::new(qam.clone(), 0.2)) as _);
            let b = server.register_backend(qam.clone(), Arc::new(MaxLogMap::new(qam, 0.4)) as _);
            let ids: Vec<_> = (0..13)
                .map(|i| {
                    let mut cfg = clean_session(if i % 2 == 0 { a } else { b }, 300 + i);
                    cfg.trajectory = Trajectory::constant("awgn", ChannelState::clean(9.0), 1);
                    server.open_session(cfg)
                })
                .collect();
            for &id in &ids {
                server.submit(id, 2).unwrap();
            }
            server.serve();
            // Mid-stream migration: every even session moves a → b.
            for (i, &id) in ids.iter().enumerate() {
                if i % 2 == 0 {
                    server.switch_backend(id, b).unwrap();
                }
            }
            for &id in &ids {
                server.submit(id, 2).unwrap();
            }
            server.serve();
            let agg = server.aggregate();
            agg.validate().unwrap();
            agg.to_json().to_string_pretty()
        };
        let baseline = serve(1);
        assert_eq!(baseline, serve(4), "migration keeps worker determinism");
    }

    #[test]
    fn switch_backend_rejects_stale_and_mismatched() {
        let qam = Constellation::qam_gray(16);
        let mut server = LinkServer::new(ServerCfg::default());
        let a =
            server.register_backend(qam.clone(), Arc::new(MaxLogMap::new(qam.clone(), 0.2)) as _);
        let id = server.open_session(clean_session(a, 1));
        server.close_session(id).unwrap();
        assert_eq!(server.switch_backend(id, a), Err(SessionError::Stale));
        // A different constellation must panic, not silently corrupt
        // the session's transmit side.
        let learned = Constellation::qam_gray(16).rotated(0.3);
        let b =
            server.register_backend(learned.clone(), Arc::new(MaxLogMap::new(learned, 0.2)) as _);
        let id2 = server.open_session(clean_session(a, 2));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = server.switch_backend(id2, b);
        }));
        assert!(r.is_err(), "constellation mismatch must panic");
    }

    #[test]
    fn switch_registry_backends_share_one_constellation_on_the_server() {
        use crate::config::SystemConfig;
        use crate::pipeline::HybridPipeline;
        use crate::registry::switch_registry;
        let mut pipe = HybridPipeline::new(SystemConfig::fast_test());
        let _ = pipe.extract_centroids();
        let registry = switch_registry(&pipe, &[]);
        let mut server = LinkServer::new(ServerCfg::default());
        let ids: Vec<BackendId> = registry
            .iter()
            .map(|(_, b)| server.register_backend(b.constellation().clone(), b.demapper(12.0)))
            .collect();
        assert_eq!(ids.len(), registry.len());
        // A session on any of them can switch to any other: the whole
        // switch line-up shares the learned constellation.
        let id = server.open_session(clean_session(ids[0], 7));
        for &b in &ids[1..] {
            server.switch_backend(id, b).unwrap();
        }
        server.submit(id, 1).unwrap();
        assert_eq!(server.serve(), 1);
        server.aggregate().validate().unwrap();
    }

    #[test]
    fn server_session_and_online_link_count_the_same_frames() {
        // One frame engine behind both callers: an online link and a
        // one-session server with the same seed, trajectory, frame
        // geometry and max-log demapper transmit the same frames and
        // report the same pilot and payload error totals.
        use crate::runtime::{LinkParams, OnlineLink, OnlineLinkSpec};
        let frames = 12u32;
        let trajectory = Trajectory::new("drift")
            .hold(4, ChannelState::clean(6.0))
            .ramp(8, ChannelState::clean(9.0).with_phase(0.2));
        let (mut server, backend) = qam_server(ServerCfg::default());
        let mut cfg = SessionCfg::new(backend, trajectory.clone(), 41);
        cfg.frame_symbols = 48;
        cfg.pilot_symbols = 6;
        let id = server.open_session(cfg.clone());
        server.submit(id, frames).unwrap();
        server.serve();
        let agg = server.aggregate();

        let qam = Constellation::qam_gray(16);
        let spec = OnlineLinkSpec {
            trajectory,
            seed: cfg.seed,
            params: LinkParams {
                frame_symbols: cfg.frame_symbols,
                pilot_symbols: cfg.pilot_symbols,
                ..LinkParams::default()
            },
        };
        let mut link = OnlineLink::fixed(spec, qam.clone(), Box::new(MaxLogMap::new(qam, 0.2)));
        for _ in 0..frames {
            link.step();
        }
        let total =
            |f: fn(&crate::runtime::FrameRecord) -> u64| link.log().iter().map(f).sum::<u64>();
        assert!(agg.payload_bit_errors > 0, "a noisy channel");
        assert_eq!(agg.pilot_bits, total(|r| r.pilot_bits));
        assert_eq!(agg.pilot_bit_errors, total(|r| r.pilot_bit_errors));
        assert_eq!(agg.payload_bits, total(|r| r.payload_bits));
        assert_eq!(agg.payload_bit_errors, total(|r| r.payload_bit_errors));
    }

    #[test]
    fn aggregate_report_round_trips_json() {
        let (mut server, backend) = qam_server(ServerCfg::default());
        let id = server.open_session(clean_session(backend, 3));
        server.submit(id, 2).unwrap();
        server.serve();
        let report = server.aggregate();
        report.validate().unwrap();
        let text = report.to_json().to_string_pretty();
        let back = AggregateReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    #[should_panic(expected = "disagree on bits/symbol")]
    fn mismatched_backend_widths_rejected() {
        let mut server = LinkServer::new(ServerCfg::default());
        let wrong = MaxLogMap::new(Constellation::qam_gray(4), 0.1);
        let _ = server.register_backend(Constellation::qam_gray(16), Arc::new(wrong) as _);
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn unknown_backend_rejected() {
        let mut server = LinkServer::new(ServerCfg::default());
        let _ = server.open_session(clean_session(BackendId(0), 0));
    }
}
