//! # hybridem-mathkit
//!
//! Numeric substrate shared by the whole `hybridem` workspace:
//!
//! - [`real::Real`] — a minimal float abstraction over `f32`/`f64`;
//! - [`complex::Complex`] — complex numbers (the I/Q plane of the
//!   communication system);
//! - [`vec2::Vec2`] — 2-D points used by the geometry crate;
//! - [`matrix::Matrix`] — dense row-major matrices backing the neural
//!   network library;
//! - [`stats`] — streaming statistics and binomial confidence intervals
//!   for Monte-Carlo bit-error-rate estimation;
//! - [`special`] — `erf`/`erfc`/Gaussian Q function (closed-form BER
//!   baselines), numerically stable sigmoid/logit/log-sum-exp;
//! - [`rng`] — deterministic, splittable random number generation
//!   (SplitMix64 seeding, xoshiro256++ streams, Gaussian sampling);
//! - [`simd`] — portable fixed-width SIMD lanes with runtime width
//!   dispatch (the substrate of the MVAU and demapper block kernels);
//! - [`json`] — from-scratch JSON tree, parser and serialiser backing
//!   model checkpoints and experiment artefacts.
//!
//! Everything here is dependency-free and deterministic so that
//! higher-level experiments are exactly reproducible across thread
//! counts and platforms.

#![warn(missing_docs)]

pub mod complex;
pub mod env;
pub mod json;
pub mod linsolve;
pub mod matrix;
pub mod real;
pub mod rng;
pub mod simd;
pub mod special;
pub mod stats;
pub mod vec2;
