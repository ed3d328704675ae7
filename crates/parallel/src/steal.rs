//! Work-stealing task pool for latency-imbalanced workloads.
//!
//! [`crate::par_for_each_mut`] **static-partitions**: element ranges
//! are fixed before any work runs, which is what makes its results a
//! pure function of the input (DESIGN.md §10) — and what lets one
//! slow element starve its whole partition while other workers sit
//! idle. [`StealPool`] is the complement for workloads
//! where *who* runs a task must not matter but *when* it finishes
//! does: each participant owns a deque seeded with a contiguous range
//! of task indices, pops its own work from the front, and — when its
//! deque runs dry — steals from the back of a victim's deque. Hot
//! tasks therefore spread across workers instead of pinning their
//! partition (DESIGN.md §12.1).
//!
//! Scheduling is **not** deterministic: tasks run exactly once each,
//! but on arbitrary workers in arbitrary order. Callers that need
//! bit-stable results must keep per-task state independent and fold in
//! task order afterwards — the same discipline the campaigns keep
//! over [`crate::par_for_each_mut`].
//!
//! Workers are **persistent**: `new` spawns them once, every
//! [`StealPool::run`] round reuses them, and a warm round performs no
//! heap allocation (deques refill within capacity, the job handle is a
//! type-erased pointer) — the pool sits on the link server's
//! steady-state hot path, which is allocation-free by contract.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The job of one round: a borrowed task body with its lifetime erased.
/// Safety: [`StealPool::run`] blocks until every worker has finished
/// the round before returning, so the pointee outlives every use.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and `run` keeps it alive for the whole round.
unsafe impl Send for Job {}

struct Coord {
    /// Round counter; bumped once per `run` that engages the workers.
    epoch: u64,
    /// The current round's body (present only while a round is live).
    job: Option<Job>,
    /// Background workers still inside the current round.
    running: usize,
    /// A task panicked on a background worker this round.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    /// One task deque per participant; index 0 belongs to the caller.
    deques: Vec<Mutex<VecDeque<usize>>>,
    coord: Mutex<Coord>,
    /// Wakes background workers for a new round (or shutdown).
    work: Condvar,
    /// Wakes the caller when the last background worker finishes.
    done: Condvar,
    /// Successful steals, cumulative (observability + tests).
    steals: AtomicU64,
}

/// A fixed set of persistent workers executing rounds of indexed tasks
/// with deque-based work stealing. See the module docs for semantics.
pub struct StealPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl StealPool {
    /// Pool with `threads` participants **including the caller**:
    /// `threads − 1` background workers are spawned. `threads == 1`
    /// spawns nothing and [`StealPool::run`] degenerates to the
    /// sequential loop `for i in 0..tasks { f(i) }`.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least the calling thread");
        let shared = Arc::new(Shared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            coord: Mutex::new(Coord {
                epoch: 0,
                job: None,
                running: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            steals: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared, me))
            })
            .collect();
        Self { shared, workers }
    }

    /// Tasks executed via a steal (cumulative across rounds). Zero on
    /// a single-thread pool and on perfectly balanced rounds.
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Runs `f(i)` for every `i in 0..tasks`, each exactly once,
    /// distributed over the pool by work stealing, and returns when
    /// all are done. Tasks must not submit new tasks to this pool
    /// (the pool would deadlock waiting on itself).
    ///
    /// # Panics
    /// Panics if any task panicked (after the round has drained).
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        self.run_dyn(tasks, &f);
    }

    fn run_dyn(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let participants = self.shared.deques.len();
        if participants == 1 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // Seed each participant's deque with a contiguous,
        // cache-friendly range (same split as `util::split_ranges`,
        // computed inline: a warm round must not allocate, and this
        // runs inside the link server's no-alloc steady state). The
        // ranges only balance the *start*; stealing balances the
        // finish.
        let pieces = participants.min(tasks);
        let (base, extra) = (tasks / pieces, tasks % pieces);
        let mut start = 0usize;
        for (pi, d) in self.shared.deques.iter().enumerate() {
            let mut q = d.lock().unwrap();
            debug_assert!(q.is_empty(), "previous round drained every deque");
            if pi < pieces {
                let sz = base + usize::from(pi < extra);
                q.extend(start..start + sz);
                start += sz;
            }
        }
        debug_assert_eq!(start, tasks, "the seeded ranges cover every task");

        // SAFETY: `run_dyn` does not return until `running == 0`, so
        // the erased borrow outlives every worker's use of it.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut c = self.shared.coord.lock().unwrap();
            c.job = Some(job);
            c.epoch += 1;
            c.running = participants - 1;
            self.shared.work.notify_all();
        }

        // The caller is participant 0 and works the round too; a task
        // panic on this thread unwinds through `run` directly (the
        // wait below must still drain the workers first).
        let caller_result = catch_unwind(AssertUnwindSafe(|| Self::work(&self.shared, 0, f)));

        let mut c = self.shared.coord.lock().unwrap();
        while c.running > 0 {
            c = self.shared.done.wait(c).unwrap();
        }
        c.job = None;
        let worker_panicked = std::mem::take(&mut c.panicked);
        drop(c);
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        assert!(!worker_panicked, "StealPool task panicked on a worker");
    }

    /// One participant's share of a round: drain the own deque from
    /// the front, then steal from the back of the next non-empty
    /// victim; return when a full scan finds nothing. Tasks never
    /// enqueue new tasks, so an all-empty scan is a stable exit.
    fn work(shared: &Shared, me: usize, f: &(dyn Fn(usize) + Sync)) {
        let n = shared.deques.len();
        loop {
            let mine = shared.deques[me].lock().unwrap().pop_front();
            if let Some(t) = mine {
                f(t);
                continue;
            }
            let mut stolen = None;
            for k in 1..n {
                let victim = (me + k) % n;
                if let Some(t) = shared.deques[victim].lock().unwrap().pop_back() {
                    stolen = Some(t);
                    break;
                }
            }
            match stolen {
                Some(t) => {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    f(t);
                }
                None => return,
            }
        }
    }

    fn worker_loop(shared: &Shared, me: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut c = shared.coord.lock().unwrap();
                loop {
                    if c.shutdown {
                        return;
                    }
                    if c.epoch > seen_epoch {
                        if let Some(job) = c.job {
                            seen_epoch = c.epoch;
                            break job;
                        }
                    }
                    c = shared.work.wait(c).unwrap();
                }
            };
            // SAFETY: the caller blocks in `run_dyn` until this worker
            // decrements `running`, so the job pointee is still alive.
            let f = unsafe { &*job.0 };
            let result = catch_unwind(AssertUnwindSafe(|| Self::work(shared, me, f)));
            let mut c = shared.coord.lock().unwrap();
            if result.is_err() {
                c.panicked = true;
                // A panicking task aborts only its own participant;
                // drain what the panicked worker left behind so the
                // round still completes every remaining task.
            }
            c.running -= 1;
            if c.running == 0 {
                shared.done.notify_one();
            }
        }
    }
}

impl Drop for StealPool {
    fn drop(&mut self) {
        {
            let mut c = self.shared.coord.lock().unwrap();
            c.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize};

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let pool = StealPool::new(threads);
            for tasks in [0usize, 1, 7, 64, 257] {
                let hits: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
                pool.run(tasks, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "task {i} at {threads} threads/{tasks} tasks"
                    );
                }
            }
        }
    }

    #[test]
    fn rounds_reuse_the_same_workers() {
        let pool = StealPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(32, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 32);
    }

    #[test]
    fn imbalanced_rounds_are_rebalanced_by_stealing() {
        // All the slow tasks land in the caller's seeded range; the
        // idle background workers must steal them. The pool can't
        // guarantee *which* tasks are stolen, but with 3 starving
        // workers and 16 × 1 ms of work in deque 0, zero steals would
        // mean stealing is broken.
        let pool = StealPool::new(4);
        pool.run(64, |i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        assert!(
            pool.steal_count() > 0,
            "idle workers must steal from the loaded deque"
        );
    }

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = StealPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.run(5, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.steal_count(), 0);
    }

    #[test]
    fn pool_survives_a_panicking_round() {
        let pool = StealPool::new(3);
        let done = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, |i| {
                if i == 7 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(r.is_err(), "the panic must propagate to the caller");
        // The pool is still usable afterwards: deques drained, workers
        // alive.
        let total = AtomicUsize::new(0);
        pool.run(16, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    #[should_panic(expected = "at least the calling thread")]
    fn zero_threads_rejected() {
        let _ = StealPool::new(0);
    }
}
