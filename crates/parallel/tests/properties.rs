//! Property-based tests of the parallel substrate: order preservation,
//! determinism, and exact work accounting.

use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_parallel::montecarlo::RoundRunner;
use hybridem_parallel::par_iter::par_for_each_mut;
use hybridem_parallel::util::split_ranges;
use hybridem_parallel::StealPool;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// One round of `trials` trials of `body` over `tasks` task streams,
/// folded in task order.
fn one_round(
    trials: u64,
    tasks: u32,
    seed: u64,
    body: impl Fn(&mut u64, &mut Xoshiro256pp) + Sync,
) -> u64 {
    let mut runner = RoundRunner::new(tasks, seed, || 0u64);
    runner.run_round(trials, body);
    runner.fold(|a| *a, |a, b| *a += b)
}

proptest! {
    #[test]
    fn par_for_each_mut_equals_sequential(xs in proptest::collection::vec(any::<i32>(), 0..500)) {
        let seq: Vec<i64> = xs.iter().enumerate().map(|(i, &x)| x as i64 * 3 - i as i64).collect();
        let mut par: Vec<i64> = xs.iter().map(|&x| x as i64).collect();
        par_for_each_mut(&mut par, |i, x| *x = *x * 3 - i as i64);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn split_ranges_partition(len in 0usize..1000, pieces in 1usize..32) {
        let rs = split_ranges(len, pieces);
        let mut covered = 0usize;
        let mut next = 0usize;
        for r in &rs {
            prop_assert_eq!(r.start, next);
            covered += r.len();
            next = r.end;
        }
        prop_assert_eq!(covered, len);
    }

    #[test]
    fn montecarlo_result_independent_of_task_count(
        trials in 1u64..5000, tasks_a in 1u32..16, tasks_b in 1u32..16, seed in any::<u64>()
    ) {
        // Different task counts give different (but individually
        // reproducible) streams; the *same* plan must always replay.
        let go = |tasks: u32| {
            one_round(trials, tasks, seed, |acc, rng| {
                if rng.next_f64() < 0.25 {
                    *acc += 1;
                }
            })
        };
        prop_assert_eq!(go(tasks_a), go(tasks_a));
        prop_assert_eq!(go(tasks_b), go(tasks_b));
        // And both estimates agree statistically (loose bound).
        let (a, b) = (go(tasks_a) as f64 / trials as f64, go(tasks_b) as f64 / trials as f64);
        prop_assert!((a - b).abs() < 0.25 + 3.0 / (trials as f64).sqrt());
    }

    #[test]
    fn montecarlo_trial_count_exact(trials in 0u64..10_000, tasks in 1u32..64, seed in any::<u64>()) {
        let counted = one_round(trials, tasks, seed, |acc, _| *acc += 1);
        prop_assert_eq!(counted, trials);
    }

    #[test]
    fn steal_pool_runs_every_task_exactly_once(
        threads in 1usize..6, tasks in 0usize..400, rounds in 1usize..4
    ) {
        // The pool makes no ordering promise, but exact-once execution
        // must hold for every (thread count, task count) combination
        // and must not degrade across reused rounds.
        let pool = StealPool::new(threads);
        for _ in 0..rounds {
            let hits: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
            pool.run(tasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                prop_assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }
}
