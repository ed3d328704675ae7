//! # hybridem — Hybrid ANN + conventional demapping
//!
//! A Rust reproduction of *"A Hybrid Approach combining ANN-based and
//! Conventional Demapping in Communication for Efficient
//! FPGA-Implementation"* (Ney, Hammoud, Wehn — IEEE IPDPSW 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`mathkit`] — numeric substrate (complex numbers, matrices, stats,
//!   deterministic RNG, special functions);
//! - [`fixed`] — fixed-point arithmetic and tensor quantisation;
//! - [`parallel`] — scoped worker pool and deterministic Monte-Carlo;
//! - [`nn`] — from-scratch neural-network library with manual backprop;
//! - [`comm`] — communication substrate (constellations, channels,
//!   demappers, metrics, ECC, link simulation);
//! - [`geom`] — computational geometry (label grids, polygons, Voronoi);
//! - [`fpga`] — FPGA substrate simulator (MVAU pipelines, resource /
//!   latency / power models for the Xilinx ZU3EG);
//! - [`core`] — the paper's contribution: E2E autoencoder training,
//!   demapper retraining, decision-region centroid extraction, the
//!   hybrid demapper and the adaptation controller.
//!
//! ## Quickstart
//!
//! ```
//! use hybridem::core::config::SystemConfig;
//! use hybridem::core::pipeline::HybridPipeline;
//!
//! // Tiny budgets so the doctest runs in debug mode; examples and the
//! // experiment binaries use `SystemConfig::paper_default()`.
//! let mut cfg = SystemConfig::fast_test();
//! cfg.e2e_steps = 40;
//! cfg.batch_size = 32;
//! cfg.grid_n = 32;
//! let mut pipe = HybridPipeline::new(cfg);
//! pipe.e2e_train();
//! let report = pipe.extract_centroids();
//! assert_eq!(report.centroids.len(), 16);
//! ```

#![forbid(unsafe_code)]

pub use hybridem_comm as comm;
pub use hybridem_core as core;
pub use hybridem_fixed as fixed;
pub use hybridem_fpga as fpga;
pub use hybridem_geom as geom;
pub use hybridem_mathkit as mathkit;
pub use hybridem_nn as nn;
pub use hybridem_parallel as parallel;

/// The README's Rust snippets, compiled (and, unless marked `no_run`,
/// run) as doctests, so that the README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
