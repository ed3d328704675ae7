//! Concrete layers.
//!
//! `Dense`, `Relu`, `Sigmoid` and `Tanh` compose into the
//! demapper MLP; `FakeQuant` injects straight-through fixed-point
//! casts for quantisation-aware training; [`Embedding`] + [`PowerNorm`]
//! form the transmitter-side mapper (symbol index → power-normalised
//! constellation point). The mapper pair has a different input type
//! (symbol indices), so it is used directly rather than through the
//! [`crate::layer::Layer`] trait.

mod dense;
mod embedding;
mod fake_quant;
mod power_norm;
mod relu;
mod sigmoid;
mod tanh;

pub(crate) use dense::Dense;
pub use embedding::Embedding;
pub(crate) use fake_quant::FakeQuant;
pub use power_norm::PowerNorm;
pub(crate) use relu::Relu;
pub(crate) use sigmoid::Sigmoid;
pub(crate) use tanh::Tanh;
