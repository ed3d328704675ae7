//! # hybridem-geom
//!
//! Computational geometry for decision-region analysis.
//!
//! The paper's extraction step samples the demapper ANN over the I/Q
//! plane, interprets the resulting label map as a Voronoi diagram and
//! computes one centroid per cell. This crate supplies the geometric
//! machinery:
//!
//! - [`grid::LabelGrid`] — a rectangular map of symbol labels over a
//!   window of the plane (the sampled decision regions);
//! - [`components`] — connected components of a label grid, which the
//!   extraction step uses to find each label's dominant region;
//! - [`marching`] — marching-squares boundary extraction of a label's
//!   region as polygons;
//! - [`polygon`] — areas, vertex centroids, point-in-polygon and
//!   Sutherland–Hodgman clipping;
//! - [`voronoi`] — exact Voronoi cells of a point set inside a bounding
//!   box via half-plane clipping, used to validate that extracted
//!   regions behave like a Voronoi partition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod grid;
pub mod marching;
pub mod polygon;
pub mod voronoi;
