//! # hybridem-parallel
//!
//! Thread-based data parallelism for the Monte-Carlo workloads in the
//! workspace (BER sweeps need 10⁶–10⁷ simulated symbols per point).
//!
//! Built directly on `std::thread::scope` in the spirit of the
//! Rayon model (fork–join over slices), but deliberately tiny and —
//! crucially — **deterministic**: work is split into a fixed number of
//! *tasks* that is independent of the worker count, and each task draws
//! from its own counter-derived RNG stream. Running on 1 thread or 64
//! produces bit-identical results.
//!
//! Two executors, one per determinism regime:
//!
//! - [`par_for_each_mut`] — static-partition parallel in-place
//!   mutation of independent element states, visited exactly once each
//!   and read back in index order. Behind it sit
//!   [`montecarlo::RoundRunner`], the resumable round-based
//!   Monte-Carlo runner of the campaign engine's statistical early
//!   stopping (DESIGN.md §8), and the drift and switch campaigns (one
//!   online link per element, DESIGN.md §10);
//! - [`steal::StealPool`] — persistent work-stealing workers for
//!   latency-imbalanced serving rounds, where static partitioning
//!   would let one hot task starve its whole range (DESIGN.md §12).
//!   Deliberately **non**-deterministic in schedule; consumers fold
//!   results in task order to stay reproducible.

#![warn(missing_docs)]

pub mod montecarlo;
pub mod par_iter;
pub mod steal;
pub mod util;

pub use par_iter::par_for_each_mut;
pub use steal::StealPool;
pub use util::num_threads;
