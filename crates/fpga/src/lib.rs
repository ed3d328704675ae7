//! # hybridem-fpga
//!
//! FPGA substrate simulator — the stand-in for the paper's Xilinx
//! ZU3EG (Avnet Ultra96-V2) + Vivado HLS 2019.2 toolchain.
//!
//! What the paper measures on silicon, this crate models in four
//! deterministic, testable layers:
//!
//! 1. **Bit-exact datapaths** — [`mvau::Mvau`] (a FINN-style folded
//!    matrix-vector-activation unit executing the quantised demapper in
//!    [`hybridem_fixed`] arithmetic) and
//!    [`demapper_accel::SoftDemapperAccel`] (the centroid max-log
//!    datapath). [`graph`] lowers trained models — plain or
//!    quantisation-aware — to one shared integer IR
//!    ([`graph::QuantizedGraph`], DESIGN.md §9) that streams whole
//!    blocks allocation-free and slots into the link simulator as a
//!    demapper. Numeric outputs are checked against the f32 reference
//!    models within analytic quantisation bounds.
//! 2. **Cycle timing** — [`pipeline`] computes per-token latency and
//!    initiation intervals through chains of stages with arbitrary
//!    folding, reproducing HLS dataflow timing.
//! 3. **Resources** — [`resources`] prices each operator (adders,
//!    multipliers, comparators, RAMs) in LUT/FF/DSP/BRAM as structural
//!    functions of bit widths and parallelism; [`device`] holds ZU3EG
//!    capacities for fit checks.
//! 4. **Power/energy** — [`power`] applies an activity-based linear
//!    model calibrated against the paper's Table 2 (constants and
//!    calibration documented in `power.rs` and DESIGN.md).
//!
//! [`builder`] assembles full designs (AE inference, AE trainer, hybrid
//!    soft demapper) from trained models, and [`report`] renders
//!    Table-2-style comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod demapper_accel;
pub mod device;
pub mod graph;
pub mod mvau;
pub mod pipeline;
pub mod power;
pub mod reconfig;
pub mod report;
pub mod resources;
pub mod sigmoid_lut;
pub mod trainer;

pub use report::ImplReport;
