//! # hybridem-fixed
//!
//! Fixed-point arithmetic for the FPGA substrate.
//!
//! The paper implements its demapper ANN with Vivado HLS in fixed point
//! (FINN-style). This crate provides the arithmetic that the cycle
//! simulator in `hybridem-fpga` executes:
//!
//! - [`QFormat`] — a runtime Q-format descriptor (total bits, fraction
//!   bits, signedness) mirroring HLS `ap_fixed<W, I>`;
//! - [`rounding::Rounding`] — truncation / round-to-nearest modes;
//! - [`fx::Fx`] — a fixed-point value (raw integer + format) with
//!   saturating, format-tracking arithmetic;
//! - [`quantize`] — tensor quantisation: range analysis, f32 → fixed
//!   conversion, signal-to-quantisation-noise (SQNR) measurement.
//!
//! All operations are bit-exact and deterministic: the same quantised
//! network produces the same outputs on every platform, which is what
//! lets integration tests assert that the simulated FPGA datapath
//! matches the f32 reference model within an analytic error bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fx;
pub mod qformat;
pub mod quantize;
pub mod rounding;

pub use fx::Fx;
pub use qformat::QFormat;
pub use quantize::{dequantize, quantize_slice, sqnr_db, QuantSpec};
pub use rounding::Rounding;
