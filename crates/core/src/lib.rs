//! # hybridem-core
//!
//! The paper's contribution: a hybrid demapper that combines the
//! adaptability of autoencoder-based communication with the hardware
//! efficiency of conventional max-log demapping.
//!
//! The three-phase flow of the paper's Fig. 1 maps onto this crate as:
//!
//! 1. **E2E training** ([`e2e`]) — the neural mapper ([`mapper`]) and
//!    demapper ([`demapper_ann`]) train jointly over a differentiable
//!    channel model (AWGN ± static rotation) with bitwise BCE loss.
//! 2. **Retraining** ([`retrain`]) — the mapper constellation freezes;
//!    the demapper retrains against the *actual* channel from pilot
//!    symbols, optionally charged against the FPGA trainer cost model.
//! 3. **Inference** ([`extraction`], [`hybrid`]) — the demapper's
//!    decision regions are sampled over the I/Q plane, one centroid per
//!    region is extracted (mass- and polygon-vertex-based), and the
//!    conventional suboptimal soft demapper runs on those centroids.
//!    [`adapt::AdaptationController`] watches pilot BER or ECC
//!    corrected-flip counts and triggers re-entry into phase 2.
//!
//! [`pipeline::HybridPipeline`] ties the phases together;
//! [`eval`] regenerates the paper's BER comparisons; [`qat`]
//! quantisation-aware-fine-tunes the demapper for fixed-point
//! deployment through the shared integer IR (DESIGN.md §9);
//! [`runtime`] streams frames through scripted time-varying channels
//! and exercises the full trigger→retrain→redeploy loop online
//! (DESIGN.md §10); [`server`] multiplexes thousands of independent
//! link sessions over a work-stealing pool with cross-link batched
//! demapping (DESIGN.md §12); [`viz`] renders decision regions
//! (Fig. 3) as ASCII/PGM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod config;
pub mod demapper_ann;
pub mod e2e;
pub mod eval;
pub mod extraction;
pub mod hybrid;
pub mod mapper;
pub mod pilot_centroids;
pub mod pipeline;
pub mod qat;
pub mod registry;
pub mod retrain;
pub mod runtime;
pub mod server;
pub mod viz;

pub use config::SystemConfig;
pub use pipeline::HybridPipeline;
