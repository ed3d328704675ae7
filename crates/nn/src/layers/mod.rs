//! Concrete layers.
//!
//! `Dense`, `Relu` and `Sigmoid` compose into the demapper MLP;
//! `FakeQuant` injects straight-through fixed-point casts for
//! quantisation-aware training. The transmitter-side mapper (a
//! trainable table plus average-power normalisation) takes symbol
//! indices rather than a float batch, so it lives with its one user,
//! `hybridem-core`'s neural mapper, on a plain [`crate::layer::Param`].

mod dense;
mod fake_quant;
mod relu;
mod sigmoid;

pub(crate) use dense::Dense;
pub(crate) use fake_quant::FakeQuant;
pub(crate) use relu::Relu;
pub(crate) use sigmoid::Sigmoid;
