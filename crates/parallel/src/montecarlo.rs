//! Deterministic parallel Monte-Carlo execution.
//!
//! A BER point is an embarrassingly parallel estimation problem, but a
//! naive "one RNG per thread" split makes the result depend on the
//! machine's core count. Here the work is divided into a fixed number
//! of **tasks** chosen by the caller (not by the scheduler); task `i`
//! always processes the same number of trials with the RNG stream
//! `Xoshiro256pp::stream(seed, i)`, and partial results are reduced in
//! task order. The outcome is a pure function of `(tasks, seed)` and
//! the trial counts.
//!
//! [`RoundRunner`] runs the tasks resumably: trials arrive in
//! caller-chosen **rounds**, each task keeping its accumulator and RNG
//! stream alive between rounds. The state after rounds `r₁, …, r_k` is
//! a pure function of `(tasks, seed, r₁ … r_k)` — independent of
//! thread count and of whether later rounds ever run — which is what
//! makes statistical early stopping deterministic: a caller that stops
//! after round `k` obtains exactly the `k`-round prefix of the uncapped
//! run (DESIGN.md §8). (Collapsing rounds into one bigger round
//! additionally preserves results whenever the per-task trial splits
//! line up, e.g. round sizes divisible by the task count.) A one-shot
//! run is a single round.

use crate::par_iter::par_for_each_mut;
use hybridem_mathkit::rng::Xoshiro256pp;

/// A task count suited to the current machine: 4× the worker threads
/// (for load balancing), clamped to `1..=256`. Results depend on the
/// task count, never on the thread count, so replaying a run only
/// requires the same task count.
pub fn default_tasks() -> u32 {
    (crate::util::num_threads() * 4).clamp(1, 256) as u32
}

struct TaskState<A> {
    rng: Xoshiro256pp,
    acc: A,
}

/// Resumable deterministic Monte-Carlo execution in rounds.
///
/// Holds one `(accumulator, RNG stream)` pair per task. Every call to
/// [`RoundRunner::run_round`] splits the round's trials across the
/// fixed task set (remainder first: the first `trials % tasks` tasks
/// run one extra) and lets each task continue its own stream where
/// the previous round left it. Because task state never migrates
/// between tasks, the accumulated result after any round prefix is a
/// pure function of `(tasks, seed, round sizes so far)` — independent
/// of thread count and of whether later rounds ever run. Stop
/// decisions taken between rounds therefore cannot perturb the
/// estimate they stopped.
pub struct RoundRunner<A> {
    states: Vec<TaskState<A>>,
    rounds: u32,
}

impl<A: Send> RoundRunner<A> {
    /// Creates `tasks` resumable task states for the given seed; task
    /// `i` draws from `Xoshiro256pp::stream(seed, i)` for its lifetime.
    ///
    /// # Panics
    /// Panics if `tasks == 0`.
    pub fn new<I: Fn() -> A>(tasks: u32, seed: u64, init: I) -> Self {
        assert!(tasks > 0, "at least one task");
        let states = (0..tasks)
            .map(|i| TaskState {
                rng: Xoshiro256pp::stream(seed, u64::from(i)),
                acc: init(),
            })
            .collect();
        Self { states, rounds: 0 }
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Executes one round of `trials` further trials, split across the
    /// task set (first `trials % tasks` tasks get one extra).
    /// `body(acc, rng)` performs **one trial**.
    pub fn run_round<B>(&mut self, trials: u64, body: B)
    where
        B: Fn(&mut A, &mut Xoshiro256pp) + Sync,
    {
        let tasks = self.states.len() as u64;
        let base = trials / tasks;
        let extra = trials % tasks;
        par_for_each_mut(&mut self.states, |i, state| {
            let n = base + u64::from((i as u64) < extra);
            for _ in 0..n {
                body(&mut state.acc, &mut state.rng);
            }
        });
        self.rounds += 1;
    }

    /// Reduces a snapshot of the task accumulators in task order:
    /// `map` projects each accumulator, `merge` folds projections into
    /// the first one. Task-order folding keeps floating-point
    /// reductions bit-stable across thread counts.
    pub fn fold<R, P, M>(&self, map: P, merge: M) -> R
    where
        P: Fn(&A) -> R,
        M: Fn(&mut R, R),
    {
        let mut iter = self.states.iter();
        let first = iter.next().expect("RoundRunner has at least one task");
        let mut total = map(&first.acc);
        for s in iter {
            merge(&mut total, map(&s.acc));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::rng::Rng64;
    use hybridem_mathkit::stats::ErrorCounter;

    fn pi_trial(hits: &mut u64, rng: &mut Xoshiro256pp) {
        let x = rng.next_f64();
        let y = rng.next_f64();
        if x * x + y * y <= 1.0 {
            *hits += 1;
        }
    }

    /// One round of `trials` pi trials over `tasks` task streams,
    /// folded in task order.
    fn pi_estimate(trials: u64, tasks: u32, seed: u64) -> f64 {
        let mut r = RoundRunner::new(tasks, seed, || 0u64);
        r.run_round(trials, pi_trial);
        let hits = r.fold(|a| *a, |a, b| *a += b);
        4.0 * hits as f64 / trials as f64
    }

    #[test]
    fn estimates_pi() {
        let pi = pi_estimate(1_000_000, 16, 42);
        assert!((pi - std::f64::consts::PI).abs() < 0.01, "pi ≈ {pi}");
    }

    #[test]
    fn deterministic_replay() {
        assert_eq!(
            pi_estimate(100_000, 8, 7).to_bits(),
            pi_estimate(100_000, 8, 7).to_bits()
        );
    }

    #[test]
    fn independent_of_thread_count() {
        // The same round evaluated with the scheduler forced to one
        // thread must agree bit-for-bit with the parallel run. We
        // emulate the one-thread case by running tasks sequentially by
        // hand, with the remainder-first split.
        let (trials, tasks, seed) = (50_000u64, 12u32, 99);
        let parallel = pi_estimate(trials, tasks, seed);
        let mut hits = 0u64;
        for i in 0..tasks {
            let mut rng = Xoshiro256pp::stream(seed, u64::from(i));
            let n = trials / u64::from(tasks) + u64::from(u64::from(i) < trials % u64::from(tasks));
            for _ in 0..n {
                pi_trial(&mut hits, &mut rng);
            }
        }
        let sequential = 4.0 * hits as f64 / trials as f64;
        assert_eq!(parallel.to_bits(), sequential.to_bits());
    }

    #[test]
    fn trial_split_is_exact_and_remainder_first() {
        for trials in [0u64, 1, 10, 999, 1000, 1001] {
            let mut r = RoundRunner::new(7, 0, || 0u64);
            r.run_round(trials, |acc, _| *acc += 1);
            let per_task = r.fold(|&a| vec![a], |a, b| a.extend(b));
            assert_eq!(per_task.iter().sum::<u64>(), trials);
            let extra = (trials % 7) as usize;
            assert!(per_task[..extra].iter().all(|&n| n == trials / 7 + 1));
            assert!(per_task[extra..].iter().all(|&n| n == trials / 7));
        }
    }

    #[test]
    fn works_with_error_counter() {
        // Simulate a Bernoulli(0.1) error process.
        let mut runner = RoundRunner::new(16, 5, ErrorCounter::new);
        runner.run_round(200_000, |acc, rng| acc.push(rng.next_f64() < 0.1));
        let counter = runner.fold(|c| *c, |a, b| a.merge(&b));
        assert_eq!(counter.trials(), 200_000);
        assert!(counter.consistent_with(0.1, 3.9), "rate {}", counter.rate());
        assert_eq!(runner.rounds(), 1);
    }

    #[test]
    fn rounds_are_a_prefix_of_the_uncapped_run() {
        // Three geometric rounds must equal one round of the summed
        // trial count, and stopping after round two must equal the
        // two-round prefix of the three-round run — the early-stopping
        // determinism argument in miniature.
        let hits = |rounds: &[u64]| {
            let mut r = RoundRunner::new(8, 33, || 0u64);
            for &t in rounds {
                r.run_round(t, pi_trial);
            }
            r.fold(|a| *a, |a, b| *a += b)
        };
        assert_eq!(hits(&[1000, 4000, 16000]), hits(&[21000]));
        assert_eq!(hits(&[1000, 4000]), hits(&[5000]));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_rejected() {
        let _ = RoundRunner::new(0, 0, || 0u8);
    }

    #[test]
    fn zero_trials_fold_only_inits() {
        // 4 tasks, 0 trials each: body never runs, the four init
        // accumulators (17 each) are summed by the fold.
        let mut r = RoundRunner::new(4, 1, || 17u32);
        r.run_round(0, |_, _| unreachable!());
        assert_eq!(r.fold(|a| *a, |a, b| *a += b), 68);
    }
}
