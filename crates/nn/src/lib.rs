//! # hybridem-nn
//!
//! A from-scratch neural-network library with manual backpropagation —
//! the training substrate for the paper's autoencoder.
//!
//! The paper trains a tiny system: a mapper (embedding of 16 symbols
//! into the complex plane + average-power normalisation) and a demapper
//! MLP (`2 → 16 → 16 → 4`, ReLU/ReLU/Sigmoid) with binary cross-entropy
//! loss and a first-order optimiser. Rather than binding to an ML
//! framework, this crate implements exactly that machinery:
//!
//! - [`layer::Layer`] and the [`layers`] module — dense, ReLU, sigmoid
//!   and fake-quantisation layers for batched `Matrix<f32>` activations
//!   (the dense products run as bit-exact SIMD lane [`kernels`]); the
//!   mapper's table is one [`layer::Param`] that `hybridem-core` owns;
//! - [`loss`] — BCE in its fused-logit training form and its
//!   probability form;
//! - [`optim`] — Adam;
//! - [`model::Sequential`] — layer stacks with JSON-snapshot round-trips
//!   and one reused training tape (stateless layers; a warm training
//!   step allocates nothing);
//! - [`grad_check`] — central-difference gradient verification used by
//!   the test-suite on every layer and loss;
//! - [`init`] / [`schedule`] — Xavier/He initialisation and the cosine
//!   learning-rate schedule.
//!
//! Everything is deterministic given a seed, and fast enough that full
//! E2E training runs inside unit tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grad_check;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod schedule;

pub use model::{MlpSpec, Sequential};
pub use optim::Adam;
