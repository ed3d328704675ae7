//! Label grids: sampled decision regions.
//!
//! A [`LabelGrid`] stores, for each cell of a regular `nx × ny` grid
//! over a window of the plane, the symbol label a demapper assigns to
//! the cell's centre point. It is the discrete decision-region diagram
//! of the paper's Fig. 3 and the input to centroid extraction.

use hybridem_mathkit::vec2::Vec2;

/// A rectangular window of the plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Minimum x (inclusive).
    pub x0: f64,
    /// Minimum y (inclusive).
    pub y0: f64,
    /// Maximum x (exclusive for cell centres).
    pub(crate) x1: f64,
    /// Maximum y.
    pub(crate) y1: f64,
}

impl Window {
    /// Symmetric square window `[−a, a]²`.
    pub fn square(a: f64) -> Self {
        assert!(a > 0.0);
        Self {
            x0: -a,
            y0: -a,
            x1: a,
            y1: a,
        }
    }

    /// Window width.
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Window height.
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }
}

/// Symbol labels sampled on a regular grid.
#[derive(Clone, Debug)]
pub struct LabelGrid {
    window: Window,
    nx: usize,
    ny: usize,
    labels: Vec<u16>,
}

impl LabelGrid {
    /// Samples `label_fn` at every cell centre of an `nx × ny` grid
    /// covering `window`.
    pub fn sample(
        window: Window,
        nx: usize,
        ny: usize,
        mut label_fn: impl FnMut(Vec2) -> u16,
    ) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid too small");
        assert!(
            window.width() > 0.0 && window.height() > 0.0,
            "empty window"
        );
        let mut labels = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                labels.push(label_fn(Self::center_of(window, nx, ny, ix, iy)));
            }
        }
        Self {
            window,
            nx,
            ny,
            labels,
        }
    }

    /// Builds a grid from labels already sampled in row-major order
    /// (`iy` outer, `ix` inner — the order [`LabelGrid::sample`] visits
    /// cells, and the order [`LabelGrid::cell_centers`] yields). This
    /// is the batch entry point: callers evaluate all cell centres in
    /// one block (e.g. a single batched ANN inference) and hand the
    /// labels over.
    ///
    /// # Panics
    /// Panics unless `labels.len() == nx * ny` (and the grid/window are
    /// valid, as for [`LabelGrid::sample`]).
    pub fn from_labels(window: Window, nx: usize, ny: usize, labels: Vec<u16>) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid too small");
        assert!(
            window.width() > 0.0 && window.height() > 0.0,
            "empty window"
        );
        assert_eq!(labels.len(), nx * ny, "labels must cover the grid");
        Self {
            window,
            nx,
            ny,
            labels,
        }
    }

    /// Cell centres in sampling order (`iy` outer, `ix` inner) — the
    /// batch companion of [`LabelGrid::from_labels`].
    pub fn cell_centers(window: Window, nx: usize, ny: usize) -> Vec<Vec2> {
        let mut out = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                out.push(Self::center_of(window, nx, ny, ix, iy));
            }
        }
        out
    }

    fn center_of(w: Window, nx: usize, ny: usize, ix: usize, iy: usize) -> Vec2 {
        let dx = w.width() / nx as f64;
        let dy = w.height() / ny as f64;
        Vec2::new(w.x0 + (ix as f64 + 0.5) * dx, w.y0 + (iy as f64 + 0.5) * dy)
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The sampled window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Label of cell `(ix, iy)`.
    #[inline]
    pub fn label(&self, ix: usize, iy: usize) -> u16 {
        self.labels[iy * self.nx + ix]
    }

    /// Centre point of cell `(ix, iy)`.
    pub fn center(&self, ix: usize, iy: usize) -> Vec2 {
        Self::center_of(self.window, self.nx, self.ny, ix, iy)
    }

    /// Area of one grid cell.
    pub fn cell_area(&self) -> f64 {
        (self.window.width() / self.nx as f64) * (self.window.height() / self.ny as f64)
    }

    /// Number of distinct labels present.
    pub fn distinct_labels(&self) -> Vec<u16> {
        let mut seen = std::collections::BTreeSet::new();
        for &l in &self.labels {
            seen.insert(l);
        }
        seen.into_iter().collect()
    }

    /// Raw label buffer (row-major, `iy` major).
    pub fn labels(&self) -> &[u16] {
        &self.labels
    }

    /// Fraction of cells whose label disagrees with `other` (grids must
    /// have identical shape) — used to compare an extracted region map
    /// against the Voronoi re-decision of its centroids.
    pub fn disagreement(&self, other: &LabelGrid) -> f64 {
        assert_eq!(self.nx, other.nx, "grid shape mismatch");
        assert_eq!(self.ny, other.ny, "grid shape mismatch");
        let diff = self
            .labels
            .iter()
            .zip(&other.labels)
            .filter(|(a, b)| a != b)
            .count();
        diff as f64 / self.labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadrant_grid(n: usize) -> LabelGrid {
        LabelGrid::sample(Window::square(1.0), n, n, |p| {
            match (p.x >= 0.0, p.y >= 0.0) {
                (true, true) => 0,
                (false, true) => 1,
                (false, false) => 2,
                (true, false) => 3,
            }
        })
    }

    #[test]
    fn sampling_covers_window() {
        let g = quadrant_grid(8);
        assert_eq!(g.nx(), 8);
        assert_eq!(g.ny(), 8);
        assert_eq!(g.labels().len(), 64);
        // Cell centres stay strictly inside the window.
        let c00 = g.center(0, 0);
        assert!(c00.x > -1.0 && c00.y > -1.0);
        let c77 = g.center(7, 7);
        assert!(c77.x < 1.0 && c77.y < 1.0);
        // Total area is conserved.
        assert!((g.cell_area() * 64.0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quadrant_labels_correct() {
        let g = quadrant_grid(8);
        assert_eq!(g.label(7, 7), 0); // +x, +y
        assert_eq!(g.label(0, 7), 1); // −x, +y
        assert_eq!(g.label(0, 0), 2); // −x, −y
        assert_eq!(g.label(7, 0), 3); // +x, −y
        assert_eq!(g.distinct_labels(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn disagreement_metric() {
        let a = quadrant_grid(16);
        let b = quadrant_grid(16);
        assert_eq!(a.disagreement(&b), 0.0);
        // Rotate labels: everything disagrees.
        let c = LabelGrid::sample(Window::square(1.0), 16, 16, |p| {
            match (p.x >= 0.0, p.y >= 0.0) {
                (true, true) => 1,
                (false, true) => 2,
                (false, false) => 3,
                (true, false) => 0,
            }
        });
        assert_eq!(a.disagreement(&c), 1.0);
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn tiny_grid_rejected() {
        let _ = LabelGrid::sample(Window::square(1.0), 1, 8, |_| 0);
    }
}
