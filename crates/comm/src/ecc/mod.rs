//! Outer error-correcting codes.
//!
//! The paper (§II-C, citing Schibisch et al. 2018) proposes using the
//! number of bit flips corrected by an outer ECC as the channel-quality
//! metric that triggers demapper retraining. This module provides the
//! code for that purpose: [`ConvCode`] + [`Viterbi`], a rate-1/2,
//! constraint-length-3 convolutional code with hard- and soft-decision
//! Viterbi decoding, demonstrating that the LLRs from soft demappers
//! are worth real coding gain (and providing the re-encode/compare
//! flip counter).

mod convolutional;

pub use convolutional::{ConvCode, Viterbi};

/// Outcome of decoding one protected block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Decoded information bits.
    pub bits: Vec<u8>,
    /// Number of channel bits the decoder corrected (the paper's
    /// retrain-trigger metric).
    pub corrected: u64,
}
