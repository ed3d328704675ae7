//! Per-cell connected-component labelling.
//!
//! [`label_components`] assigns every grid cell a component id (4-connected,
//! same label), so downstream consumers can reason about fragments —
//! e.g. restrict centroid extraction to each label's dominant component,
//! discarding spurious wedges a neural demapper produces where it
//! extrapolates far outside the training distribution.

use crate::grid::LabelGrid;
use std::collections::VecDeque;

/// Component labelling of a grid.
#[derive(Clone, Debug)]
pub struct Components {
    /// Component id per cell (row-major, same layout as the grid).
    pub(crate) id: Vec<u32>,
    /// Cell count per component id.
    pub sizes: Vec<usize>,
    /// Symbol label per component id.
    pub label_of: Vec<u16>,
}

impl Components {
    /// Component id of cell `(ix, iy)`.
    pub fn id_at(&self, grid: &LabelGrid, ix: usize, iy: usize) -> u32 {
        self.id[iy * grid.nx() + ix]
    }

    /// The largest component carrying `label`, if any.
    pub fn dominant_of_label(&self, label: u16) -> Option<u32> {
        self.label_of
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == label)
            .max_by_key(|&(cid, _)| self.sizes[cid])
            .map(|(cid, _)| cid as u32)
    }

    /// Number of components carrying `label`.
    pub fn count_of_label(&self, label: u16) -> usize {
        self.label_of.iter().filter(|&&l| l == label).count()
    }
}

/// BFS flood-fill component labelling (4-connectivity).
pub fn label_components(grid: &LabelGrid) -> Components {
    let (nx, ny) = (grid.nx(), grid.ny());
    const UNSET: u32 = u32::MAX;
    let mut id = vec![UNSET; nx * ny];
    let mut sizes = Vec::new();
    let mut label_of = Vec::new();
    let mut queue = VecDeque::new();
    for sy in 0..ny {
        for sx in 0..nx {
            if id[sy * nx + sx] != UNSET {
                continue;
            }
            let cid = sizes.len() as u32;
            let label = grid.label(sx, sy);
            label_of.push(label);
            let mut size = 0usize;
            id[sy * nx + sx] = cid;
            queue.push_back((sx, sy));
            while let Some((cx, cy)) = queue.pop_front() {
                size += 1;
                let neighbours = [
                    (cx.wrapping_sub(1), cy),
                    (cx + 1, cy),
                    (cx, cy.wrapping_sub(1)),
                    (cx, cy + 1),
                ];
                for (vx, vy) in neighbours {
                    if vx < nx && vy < ny {
                        let vi = vy * nx + vx;
                        if id[vi] == UNSET && grid.label(vx, vy) == label {
                            id[vi] = cid;
                            queue.push_back((vx, vy));
                        }
                    }
                }
            }
            sizes.push(size);
        }
    }
    Components {
        id,
        sizes,
        label_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Window;

    #[test]
    fn split_label_has_two_components() {
        let g = LabelGrid::sample(Window::square(1.0), 16, 16, |p| {
            if (p.x > 0.5 && p.y > 0.5) || (p.x < -0.5 && p.y < -0.5) {
                1
            } else {
                0
            }
        });
        let comps = label_components(&g);
        assert_eq!(comps.count_of_label(1), 2);
        assert_eq!(comps.count_of_label(0), 1);
        // Sizes cover the grid.
        assert_eq!(comps.sizes.iter().sum::<usize>(), 256);
        // The dominant component of label 0 is the big background.
        let dom0 = comps.dominant_of_label(0).unwrap();
        assert!(comps.sizes[dom0 as usize] > 200);
        assert!(comps.dominant_of_label(9).is_none());
    }

    #[test]
    fn ids_consistent_with_labels() {
        let g = LabelGrid::sample(Window::square(1.0), 8, 8, |p| u16::from(p.x > 0.0));
        let comps = label_components(&g);
        for iy in 0..8 {
            for ix in 0..8 {
                let cid = comps.id_at(&g, ix, iy);
                assert_eq!(comps.label_of[cid as usize], g.label(ix, iy));
            }
        }
    }

    #[test]
    fn dominant_picks_largest() {
        // Label 1: one 2-cell blob, one larger blob.
        let g = LabelGrid::sample(Window::square(1.0), 16, 16, |p| {
            // Two disjoint blobs share label 1: a small corner blob and
            // a bigger quadrant blob.
            u16::from((p.x > 0.6 && p.y > 0.6) || (p.x < -0.2 && p.y < -0.2))
        });
        let comps = label_components(&g);
        let dom = comps.dominant_of_label(1).unwrap() as usize;
        // The dominant blob is the lower-left one: it contains the cell
        // nearest (−0.5, −0.5).
        let mut found = false;
        for iy in 0..16 {
            for ix in 0..16 {
                let c = g.center(ix, iy);
                if c.x < -0.3 && c.y < -0.3 && comps.id_at(&g, ix, iy) == dom as u32 {
                    found = true;
                }
            }
        }
        assert!(found, "dominant component must be the large blob");
    }
}
