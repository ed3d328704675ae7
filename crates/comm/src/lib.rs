//! # hybridem-comm
//!
//! The communication-system substrate: everything the paper's receiver
//! sits on top of.
//!
//! - [`bits`] — bit/symbol packing and Gray coding;
//! - [`constellation`] — QAM/PSK/learned constellations with bit labels;
//! - [`snr`] — Es/N0, Eb/N0 and noise-σ conversions;
//! - [`channel`] — composable channel models: AWGN, static phase offset
//!   (the paper's adaptation case study), CFO, IQ imbalance, block
//!   Rayleigh fading;
//! - [`demapper`] — block-oriented soft demappers producing bit LLRs
//!   (primary entry point [`demapper::Demapper::demap_block`], see
//!   DESIGN.md §7): exact log-MAP and the suboptimal **max-log**
//!   demapper of Robertson et al. 1995 that the paper runs on
//!   extracted centroids, plus hard decision;
//! - [`metrics`] — bitwise mutual information from LLRs;
//! - [`equalizer`] — linear FIR equalization for ISI channels: CMA
//!   acquisition, decision-directed LMS tracking and supervised LMS on
//!   pilots; a stateful per-link stage that runs ahead of a stateless
//!   demapper (DESIGN.md §14);
//! - [`ecc`] — the outer code used for retrain triggering: a rate-1/2
//!   convolutional code with hard/soft Viterbi;
//! - [`frame`] — the paper's §II-C monitoring frame: the
//!   [`frame::FrameEngine`] every frame-streaming link (the online link
//!   runtime and the link server's sessions) builds, transmits and
//!   error-counts its pilot + payload frames with;
//! - [`theory`] — closed-form AWGN baselines used to validate the
//!   simulator;
//! - [`linksim`] — the deterministic, parallel end-to-end BER engine,
//!   one-shot ([`linksim::simulate_link`]) or resumable in rounds
//!   ([`linksim::LinkSim`]);
//! - [`campaign`] — deterministic SNR-sweep campaigns over a demapper
//!   family × channel scenario × SNR matrix with statistical early
//!   stopping and JSON waterfall artefacts (DESIGN.md §8);
//! - [`trajectory`] — scripted time-varying channels: a piecewise
//!   scenario DSL over frame time whose playback
//!   ([`trajectory::TrajectoryChannel`]) lowers each frame's state to
//!   the static [`channel`] stages (DESIGN.md §10).
//!
//! ## LLR sign convention
//!
//! Throughout the workspace `LLR = ln P(b=0|y) − ln P(b=1|y)`:
//! **positive LLR means bit 0**. The paper displays the opposite sign;
//! only the convention differs, decisions are identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod campaign;
pub mod channel;
pub mod constellation;
pub mod demapper;
pub mod ecc;
pub mod equalizer;
pub mod frame;
pub mod linksim;
pub mod metrics;
pub mod snr;
pub mod theory;
pub mod trajectory;
