//! Decision-region sampling and centroid extraction (paper step 3).
//!
//! "First, we sample over the two-dimensional input space of the
//! demapper-ANN to get the learned symbol for each complex input
//! sample. This gives us the decision regions of each symbol. Since
//! this DR-diagram can be interpreted as a Voronoi diagram, we can find
//! a centroid cᵢ for each Voronoi cell …"
//!
//! Two centroid estimators are provided:
//!
//! - **mass centroids** — the mean of all grid cells carrying a label
//!   (robust, never fails for non-empty regions), then refined by a
//!   bisector fit to the sampled boundaries. These are the deployable
//!   [`ExtractionReport::centroids`] that the hybrid demapper is built
//!   from, and all that [`extract`] computes beyond the grid;
//! - **vertex centroids** — marching-squares boundary polygons of each
//!   region fed through the shoelace centroid, the literal "centroid
//!   from the vertices of the Voronoi cell" of the paper. No deployment
//!   reads them, so [`ExtractionReport::vertex_centroids`] computes them
//!   on demand from the report's grid.
//!
//! [`ExtractionReport::voronoi_disagreement`] measures how close the
//! sampled regions are to the Voronoi partition of the extracted
//! centroids — the paper's implicit claim, validated here.

use crate::demapper_ann::NeuralDemapper;
use hybridem_comm::constellation::Constellation;
use hybridem_geom::components::label_components;
use hybridem_geom::grid::{LabelGrid, Window};
use hybridem_geom::marching::{boundary_centroid, region_boundaries};
use hybridem_geom::voronoi::nearest_site;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::linsolve::solve_least_squares;
use hybridem_mathkit::vec2::Vec2;

/// Extraction configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExtractionConfig {
    /// Grid cells per axis.
    pub(crate) grid_n: usize,
    /// Window half-width as a multiple of the constellation's largest
    /// coordinate. **4/3 is the unbiased choice for square grids**: an
    /// outer cell of a 4×4 lattice spans `[2a, W]` per axis, so its
    /// mass centroid `(2a + W)/2` equals the true point `3a` exactly
    /// when `W = 4a = (4/3)·3a` — larger windows drag outer centroids
    /// outward and visibly shift the max-log decision boundaries.
    pub(crate) scale: f64,
}

impl ExtractionConfig {
    /// Default (unbiased) scaling for a grid resolution.
    pub fn new(grid_n: usize, scale: f64) -> Self {
        assert!(grid_n >= 16 && scale > 1.0);
        Self { grid_n, scale }
    }

    /// Resolved half-width for a reference constellation.
    pub(crate) fn halfwidth(&self, reference: &Constellation) -> f64 {
        let max_coord = reference
            .points()
            .iter()
            .fold(0.0f32, |m, p| m.max(p.re.abs()).max(p.im.abs()));
        self.scale * max_coord as f64
    }
}

/// Result of an extraction pass.
#[derive(Clone, Debug)]
pub struct ExtractionReport {
    /// The sampled decision regions.
    pub grid: LabelGrid,
    /// Mass centroid per symbol label (the deployable set).
    pub centroids: Vec<C32>,
    /// Labels whose decision region was empty — filled with the
    /// fallback (see [`extract`]); non-empty list signals an
    /// under-trained demapper.
    pub missing_labels: Vec<usize>,
    /// Number of connected components per label (1 = clean region).
    pub components: Vec<usize>,
    /// Fraction of grid cells whose sampled label disagrees with the
    /// nearest-extracted-centroid rule (0 = the regions *are* the
    /// Voronoi diagram of the centroids).
    pub voronoi_disagreement: f64,
}

impl ExtractionReport {
    /// The extracted centroids as a labelled constellation, ready for
    /// the conventional max-log demapper.
    pub(crate) fn centroid_constellation(&self) -> Constellation {
        Constellation::from_points(self.centroids.clone())
    }

    /// Polygon-vertex centroid per symbol label, computed from `grid`
    /// on each call: the marching-squares boundaries of the label's
    /// region, restricted to the dominant loop (the largest outer
    /// boundary) and its holes, through the shoelace centroid. `None`
    /// for a missing label or a degenerate region.
    pub fn vertex_centroids(&self) -> Vec<Option<C32>> {
        (0..self.centroids.len())
            .map(|l| {
                if self.missing_labels.contains(&l) {
                    return None;
                }
                let polys = region_boundaries(&self.grid, l as u16);
                let main = polys
                    .iter()
                    .filter(|p| p.signed_area() > 0.0)
                    .max_by(|a, b| a.signed_area().total_cmp(&b.signed_area()))?;
                let kept: Vec<_> = polys
                    .iter()
                    .filter(|p| {
                        std::ptr::eq(*p, main)
                            || (p.signed_area() < 0.0 && main.contains(p.centroid()))
                    })
                    .cloned()
                    .collect();
                boundary_centroid(&kept).map(|v| C32::new(v.x as f32, v.y as f32))
            })
            .collect()
    }
}

/// Samples the demapper's decision regions and extracts centroids.
///
/// `fallback` supplies a point for any label whose decision region is
/// empty within the window (e.g. the frozen mapper constellation); the
/// label is also recorded in `missing_labels`.
pub fn extract(
    demapper: &NeuralDemapper,
    cfg: &ExtractionConfig,
    fallback: &Constellation,
) -> ExtractionReport {
    let m = demapper.bits_per_symbol();
    let num_labels = 1usize << m;
    assert_eq!(fallback.size(), num_labels, "fallback size mismatch");

    // 1. Sample the decision regions — all grid cells in one batched
    //    inference instead of grid_n² single-sample forward passes.
    let window = Window::square(cfg.halfwidth(fallback));
    let centers: Vec<C32> = LabelGrid::cell_centers(window, cfg.grid_n, cfg.grid_n)
        .iter()
        .map(|p| C32::new(p.x as f32, p.y as f32))
        .collect();
    let mut labels = Vec::new();
    demapper.decide_symbols(&centers, &mut labels);
    let grid = LabelGrid::from_labels(
        window,
        cfg.grid_n,
        cfg.grid_n,
        labels.into_iter().map(|l| l as u16).collect(),
    );
    report_from_grid(grid, num_labels, fallback, cfg)
}

/// Shared extraction back-end: robust centroids from a sampled grid.
fn report_from_grid(
    grid: LabelGrid,
    num_labels: usize,
    fallback: &Constellation,
    cfg: &ExtractionConfig,
) -> ExtractionReport {
    // Mass centroids, restricted to each label's *dominant* connected
    // component (a neural demapper produces spurious wedges where it
    // extrapolates far outside the training distribution; they would
    // drag a naive mean) and weighted by the expected received-sample
    // density of a unit-power constellation, exp(−‖p‖²/2(1+2σ²)) ≈
    // exp(−‖p‖²/4) — corners of the window see almost no real samples
    // and should carry almost no centroid mass.
    let comps = label_components(&grid);
    let mut w_sum = vec![0.0f64; num_labels];
    let mut cx = vec![Vec2::zero(); num_labels];
    let mut components = vec![0usize; num_labels];
    let mut dominant = vec![u32::MAX; num_labels];
    for l in 0..num_labels {
        components[l] = comps.count_of_label(l as u16);
        if let Some(d) = comps.dominant_of_label(l as u16) {
            dominant[l] = d;
        }
    }
    for iy in 0..grid.ny() {
        for ix in 0..grid.nx() {
            let l = grid.label(ix, iy) as usize;
            if comps.id_at(&grid, ix, iy) != dominant[l] {
                continue;
            }
            let p = grid.center(ix, iy);
            let w = (-p.norm_sqr() / 4.0).exp();
            w_sum[l] += w;
            cx[l] += p * w;
        }
    }
    let mut centroids: Vec<Option<C32>> = (0..num_labels)
        .map(|l| {
            if w_sum[l] > 0.0 {
                let c = cx[l] / w_sum[l];
                Some(C32::new(c.x as f32, c.y as f32))
            } else {
                None
            }
        })
        .collect();

    // Fallback for missing labels.
    let mut missing = Vec::new();
    for (l, slot) in centroids.iter_mut().enumerate() {
        if slot.is_none() {
            missing.push(l);
            *slot = Some(fallback.point(l));
        }
    }
    let mut centroids: Vec<C32> = centroids.into_iter().map(Option::unwrap).collect();

    // Bisector refinement: the paper's premise is that the DR diagram
    // *is* a Voronoi diagram — so recover the sites that actually
    // generate the sampled boundaries. Every pair of adjacent grid
    // cells with different labels yields one bisector equation
    // `‖b−s_i‖² = ‖b−s_j‖²` at the edge midpoint `b`; a few damped
    // Gauss–Newton iterations over all equations (anchored softly at
    // the mass centroids) snap the sites onto the partition.
    let mass_centroids = centroids.clone();
    refine_sites_from_boundaries(&grid, &mut centroids, &dominant, &comps);

    // Voronoi consistency: re-decide every grid cell by nearest
    // centroid and count disagreements. The refinement is accepted only
    // if it reproduces the sampled partition at least as well as the
    // plain mass centroids (on badly fragmented partitions — an
    // under-trained demapper — the bisector fit can be ill-posed).
    let disagreement_of = |sites: &[C32]| {
        let pts: Vec<Vec2> = sites
            .iter()
            .map(|c| Vec2::new(c.re as f64, c.im as f64))
            .collect();
        let revoted = LabelGrid::sample(grid.window(), cfg.grid_n, cfg.grid_n, |p| {
            nearest_site(&pts, p) as u16
        });
        grid.disagreement(&revoted)
    };
    let refined_dis = disagreement_of(&centroids);
    let mass_dis = disagreement_of(&mass_centroids);
    let disagreement = if refined_dis <= mass_dis {
        refined_dis
    } else {
        centroids = mass_centroids;
        mass_dis
    };

    ExtractionReport {
        grid,
        centroids,
        missing_labels: missing,
        components,
        voronoi_disagreement: disagreement,
    }
}

/// Gauss–Newton recovery of Voronoi sites from sampled region
/// boundaries (see the call site in [`report_from_grid`] for context).
fn refine_sites_from_boundaries(
    grid: &LabelGrid,
    sites: &mut [C32],
    dominant: &[u32],
    comps: &hybridem_geom::components::Components,
) {
    // Collect boundary samples (midpoints of adjacent different-label
    // cells, both cells in their label's dominant component).
    let mut samples: Vec<(Vec2, usize, usize, f64)> = Vec::new();
    let keep = |ix: usize, iy: usize| {
        let l = grid.label(ix, iy) as usize;
        comps.id_at(grid, ix, iy) == dominant[l]
    };
    for iy in 0..grid.ny() {
        for ix in 0..grid.nx() {
            let li = grid.label(ix, iy) as usize;
            for (jx, jy) in [(ix + 1, iy), (ix, iy + 1)] {
                if jx >= grid.nx() || jy >= grid.ny() {
                    continue;
                }
                let lj = grid.label(jx, jy) as usize;
                if li == lj || !keep(ix, iy) || !keep(jx, jy) {
                    continue;
                }
                let b = grid.center(ix, iy).midpoint(grid.center(jx, jy));
                // Weight by the expected received-sample density: far
                // boundaries are rarely exercised and are also where the
                // ANN extrapolates worst.
                let w = (-b.norm_sqr() / 4.0).exp();
                samples.push((b, li, lj, w));
            }
        }
    }
    if samples.len() < sites.len() {
        return; // not enough structure to fit
    }

    let n = sites.len();
    let n_unknowns = 2 * n;
    let anchors: Vec<Vec2> = sites
        .iter()
        .map(|c| Vec2::new(c.re as f64, c.im as f64))
        .collect();
    let mut cur = anchors.clone();
    for _ in 0..6 {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(samples.len() + n_unknowns);
        let mut rhs: Vec<f64> = Vec::with_capacity(samples.len() + n_unknowns);
        for &(b, i, j, w) in &samples {
            // Residual r = ‖b−s_i‖² − ‖b−s_j‖² (want 0).
            let di = b - cur[i];
            let dj = b - cur[j];
            let r = di.norm_sqr() - dj.norm_sqr();
            // ∂r/∂s_i = −2(b−s_i); ∂r/∂s_j = +2(b−s_j).
            let mut row = vec![0.0; n_unknowns];
            row[2 * i] = -2.0 * di.x * w;
            row[2 * i + 1] = -2.0 * di.y * w;
            row[2 * j] = 2.0 * dj.x * w;
            row[2 * j + 1] = 2.0 * dj.y * w;
            rows.push(row);
            rhs.push(-r * w);
        }
        // Soft anchor to the mass centroids (fixes sites whose cells
        // contribute few boundary samples, e.g. fallback labels, and
        // selects a member of the bisector null space — sliding a pair
        // of sites symmetrically about their shared boundary changes no
        // equation). Scaled with the data so its relative strength is
        // resolution-independent.
        let total_w: f64 = samples.iter().map(|&(_, _, _, w)| w * w).sum();
        let anchor_w = 0.15 * (total_w / n as f64).sqrt();
        for (k, a) in anchors.iter().enumerate() {
            let mut row = vec![0.0; n_unknowns];
            row[2 * k] = anchor_w;
            rows.push(row);
            rhs.push(anchor_w * (a.x - cur[k].x));
            let mut row = vec![0.0; n_unknowns];
            row[2 * k + 1] = anchor_w;
            rows.push(row);
            rhs.push(anchor_w * (a.y - cur[k].y));
        }
        let Some(delta) = solve_least_squares(&rows, &rhs, n_unknowns, 1e-9) else {
            break;
        };
        // Trust region: cap the per-coordinate step so one bad
        // iteration cannot fling a site across the plane.
        const MAX_STEP: f64 = 0.08;
        let mut biggest = 0.0f64;
        for k in 0..n {
            cur[k].x += delta[2 * k].clamp(-MAX_STEP, MAX_STEP);
            cur[k].y += delta[2 * k + 1].clamp(-MAX_STEP, MAX_STEP);
            biggest = biggest.max(delta[2 * k].abs()).max(delta[2 * k + 1].abs());
        }
        if biggest < 1e-6 {
            break;
        }
    }
    for (s, c) in sites.iter_mut().zip(&cur) {
        *s = C32::new(c.x as f32, c.y as f32);
    }
}

/// Extraction against a *conventional* demapper's decision function —
/// used by tests and the grid-resolution ablation: sampling the
/// max-log decisions of a known constellation must recover (nearly)
/// that constellation's Voronoi structure.
pub fn extract_from_decider(
    decide: impl Fn(C32) -> usize,
    m: usize,
    cfg: &ExtractionConfig,
    fallback: &Constellation,
) -> ExtractionReport {
    let num_labels = 1usize << m;
    assert_eq!(fallback.size(), num_labels);
    let window = Window::square(cfg.halfwidth(fallback));
    let grid = LabelGrid::sample(window, cfg.grid_n, cfg.grid_n, |p| {
        decide(C32::new(p.x as f32, p.y as f32)) as u16
    });
    report_from_grid(grid, num_labels, fallback, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extraction on the *known* max-log decisions of Gray 16-QAM: the
    /// gold-standard correctness check, no training involved.
    #[test]
    fn recovers_qam_voronoi_structure() {
        let qam = Constellation::qam_gray(16);
        let cfg = ExtractionConfig::new(160, 4.0 / 3.0);
        let report = extract_from_decider(|y| qam.nearest(y), 4, &cfg, &qam);
        assert!(report.missing_labels.is_empty());
        assert!(report.components.iter().all(|&c| c == 1));
        // Mass centroids lie in the correct cells: re-deciding with them
        // reproduces the sampled regions almost exactly.
        assert!(
            report.voronoi_disagreement < 0.02,
            "disagreement {}",
            report.voronoi_disagreement
        );
        // Inner cells' centroids sit exactly on the constellation
        // points; outer cells are pulled outward by the window, but
        // nearest-point labels still match.
        for (u, c) in report.centroids.iter().enumerate() {
            assert_eq!(qam.nearest(*c), u, "centroid {u} in the wrong cell");
        }
    }

    #[test]
    fn inner_cell_mass_centroid_matches_point() {
        // An interior 16-QAM cell is a square centred on the point, so
        // the mass centroid must match it to grid resolution.
        let qam = Constellation::qam_gray(16);
        let cfg = ExtractionConfig::new(200, 4.0 / 3.0);
        let report = extract_from_decider(|y| qam.nearest(y), 4, &cfg, &qam);
        // Find the label of an inner point (|re|, |im| = 1/√10 ≈ 0.316).
        let inner = (0..16)
            .find(|&u| {
                let p = qam.point(u);
                p.re > 0.0 && p.im > 0.0 && p.re < 0.5 && p.im < 0.5
            })
            .unwrap();
        let c = report.centroids[inner];
        let p = qam.point(inner);
        assert!(c.dist_sqr(p).sqrt() < 0.03, "centroid {c} vs point {p}");
        // The vertex centroid agrees with the mass centroid for a
        // convex interior cell.
        let vc = report.vertex_centroids()[inner].unwrap();
        assert!(vc.dist_sqr(c).sqrt() < 0.03, "vertex {vc} vs mass {c}");
    }

    #[test]
    fn rotated_decider_yields_rotated_centroids() {
        // The adaptability mechanism: a rotated decision rule must
        // produce rotated centroids.
        let theta = std::f32::consts::FRAC_PI_4;
        let qam = Constellation::qam_gray(16);
        let rot = qam.rotated(theta);
        let cfg = ExtractionConfig::new(160, 4.0 / 3.0);
        let report = extract_from_decider(|y| rot.nearest(y), 4, &cfg, &qam);
        for u in 0..16 {
            let c = report.centroids[u];
            // Nearest rotated point carries the right label.
            assert_eq!(rot.nearest(c), u);
        }
    }

    #[test]
    fn missing_labels_fall_back() {
        // A decider that never outputs label 0.
        let qam = Constellation::qam_gray(16);
        let cfg = ExtractionConfig::new(64, 4.0 / 3.0);
        let report = extract_from_decider(
            |y| {
                let u = qam.nearest(y);
                if u == 0 {
                    1
                } else {
                    u
                }
            },
            4,
            &cfg,
            &qam,
        );
        assert_eq!(report.missing_labels, vec![0]);
        assert_eq!(report.centroids[0], qam.point(0));
    }

    #[test]
    fn finer_grid_reduces_centroid_error() {
        let qam = Constellation::qam_gray(16);
        let mut errs = Vec::new();
        for n in [32usize, 64, 128] {
            let cfg = ExtractionConfig::new(n, 4.0 / 3.0);
            let report = extract_from_decider(|y| qam.nearest(y), 4, &cfg, &qam);
            // Mean distance of inner-cell centroids to their points.
            let mut err = 0.0f64;
            let mut count = 0;
            for u in 0..16 {
                let p = qam.point(u);
                if p.re.abs() < 0.5 && p.im.abs() < 0.5 {
                    err += report.centroids[u].dist_sqr(p).sqrt() as f64;
                    count += 1;
                }
            }
            errs.push(err / count as f64);
        }
        assert!(
            errs[2] <= errs[0] + 1e-4,
            "finer grids must not be worse: {errs:?}"
        );
    }
}
