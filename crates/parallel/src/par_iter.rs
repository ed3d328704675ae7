//! Parallel in-place mutation over slices.
//!
//! A fork–join helper in the Rayon style, specialised to the access
//! pattern of the workspace: every element owns independent state
//! (an accumulator and RNG stream, or one whole online link), and the
//! elements are partitioned contiguously across scoped worker threads.
//! Element `i` is always stepped against its own state, exactly once,
//! so the outcome is identical to the sequential loop regardless of
//! scheduling; callers that reduce afterwards fold in index order.

use crate::util::{num_threads, split_ranges};

/// Parallel in-place mutation: runs `f(index, &mut items[index])` for
/// every element, partitioned contiguously across worker threads.
///
/// This is the primitive behind resumable Monte-Carlo rounds
/// ([`crate::montecarlo::RoundRunner`]) and the drift and switch
/// campaigns (one online link per element): each element owns
/// independent state, so the result is identical to the sequential
/// loop regardless of how elements land on threads.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = num_threads();
    if items.is_empty() {
        return;
    }
    if threads == 1 || items.len() < 2 {
        for (i, t) in items.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }
    let ranges = split_ranges(items.len(), threads);
    std::thread::scope(|s| {
        let mut rest = items;
        let mut offset = 0;
        let mut handles = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let start = offset;
            offset += r.len();
            let f = &f;
            handles.push(s.spawn(move || {
                for (k, t) in head.iter_mut().enumerate() {
                    f(start + k, t);
                }
            }));
        }
        for h in handles {
            h.join().expect("parallel worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mut_matches_sequential() {
        let mut par: Vec<u64> = (0..5000).collect();
        let mut seq = par.clone();
        par_for_each_mut(&mut par, |i, x| *x = *x * 3 + i as u64);
        for (i, x) in seq.iter_mut().enumerate() {
            *x = *x * 3 + i as u64;
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn for_each_mut_empty_and_singleton() {
        let mut empty: Vec<u8> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = vec![7u32];
        par_for_each_mut(&mut one, |i, x| *x += i as u32 + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn fold_order_pinned_under_imbalanced_load() {
        // Regression pin for the determinism contract: even when some
        // elements take much longer than others (so parallel
        // *completion* order scrambles), every element must be visited
        // exactly once with its own index, and the results must read
        // back in index order. This is exactly the property StealPool
        // does NOT provide, and the drift and switch campaigns' report
        // folds depend on par_for_each_mut keeping it.
        let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); 8];
        par_for_each_mut(&mut items, |i, s| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            s.0 = i;
            s.1 += 1;
        });
        let order: Vec<usize> = items.iter().map(|s| s.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(items.iter().all(|s| s.1 == 1), "one visit per element");
    }
}
