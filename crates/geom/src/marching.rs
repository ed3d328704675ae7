//! Marching squares: boundary polygons of a labelled region.
//!
//! Turns the cells of a [`LabelGrid`] carrying one target label into
//! closed boundary polygons. The mask is padded with one ring of
//! "outside" so every contour closes, and segments are oriented with
//! the region on the left (CCW loops around regions, CW around holes).
//! The resulting polygons feed [`crate::polygon::Polygon::centroid`] —
//! the paper's "centroid from the vertices of the Voronoi cell".
//!
//! The output is a function of the grid alone: loops are chained in
//! scan order over a dense edge table, so two calls return the same
//! polygons, in the same order, from the same start vertices.

use crate::grid::LabelGrid;
use crate::polygon::Polygon;
use hybridem_mathkit::vec2::Vec2;

/// An edge-midpoint key on the padded node lattice:
/// `(x, y, 0)` = horizontal edge from node (x,y) to (x+1,y),
/// `(x, y, 1)` = vertical edge from node (x,y) to (x,y+1).
type EdgeKey = (usize, usize, u8);

/// Marks an edge of the table with no outgoing segment.
const NO_EDGE: u32 = u32::MAX;

/// Extracts the boundary polygons of all cells labelled `label`, one
/// per closed loop, each starting at its first edge in scan order
/// (`y`, then `x`, then horizontal before vertical) and listed in the
/// order of those starts.
pub fn region_boundaries(grid: &LabelGrid, label: u16) -> Vec<Polygon> {
    let (nx, ny) = (grid.nx(), grid.ny());
    // Padded mask: (nx+2) × (ny+2), border = outside.
    let pnx = nx + 2;
    let pny = ny + 2;
    let mask = |ix: usize, iy: usize| -> bool {
        if ix == 0 || iy == 0 || ix > nx || iy > ny {
            false
        } else {
            grid.label(ix - 1, iy - 1) == label
        }
    };

    // World position of padded node (ix, iy): the centre of grid cell
    // (ix−1, iy−1), linearly extended outside the window for the pad.
    let w = grid.window();
    let dx = w.width() / nx as f64;
    let dy = w.height() / ny as f64;
    let node = move |ix: usize, iy: usize| -> Vec2 {
        Vec2::new(w.x0 + (ix as f64 - 0.5) * dx, w.y0 + (iy as f64 - 0.5) * dy)
    };
    let midpoint = move |e: EdgeKey| -> Vec2 {
        let a = node(e.0, e.1);
        let b = if e.2 == 0 {
            node(e.0 + 1, e.1)
        } else {
            node(e.0, e.1 + 1)
        };
        a.midpoint(b)
    };

    // Directed segments: start edge → end edge, region kept on the left,
    // in a dense table indexed by `(y·pnx + x)·2 + dir`.
    let index = |(x, y, dir): EdgeKey| (y * pnx + x) * 2 + dir as usize;
    let key = |i: usize| -> EdgeKey { ((i / 2) % pnx, (i / 2) / pnx, (i % 2) as u8) };
    let mut next = vec![NO_EDGE; pnx * pny * 2];
    for y in 0..pny - 1 {
        for x in 0..pnx - 1 {
            let c0 = mask(x, y) as u8;
            let c1 = mask(x + 1, y) as u8;
            let c2 = mask(x + 1, y + 1) as u8;
            let c3 = mask(x, y + 1) as u8;
            let case = c0 | c1 << 1 | c2 << 2 | c3 << 3;
            let b: EdgeKey = (x, y, 0); // bottom
            let r: EdgeKey = (x + 1, y, 1); // right
            let t: EdgeKey = (x, y + 1, 0); // top
            let l: EdgeKey = (x, y, 1); // left
            let mut put = |from: EdgeKey, to: EdgeKey| {
                let slot = &mut next[index(from)];
                debug_assert_eq!(*slot, NO_EDGE, "marching-squares edge reused");
                *slot = index(to) as u32;
            };
            match case {
                0 | 15 => {}
                1 => put(b, l),
                2 => put(r, b),
                3 => put(r, l),
                4 => put(t, r),
                5 => {
                    put(b, l);
                    put(t, r);
                }
                6 => put(t, b),
                7 => put(t, l),
                8 => put(l, t),
                9 => put(b, t),
                10 => {
                    put(r, b);
                    put(l, t);
                }
                11 => put(r, t),
                12 => put(l, r),
                13 => put(b, r),
                14 => put(l, b),
                _ => unreachable!(),
            }
        }
    }

    // Chain segments into closed loops, each from its first edge in
    // scan order.
    let mut polygons = Vec::new();
    let mut visited = vec![false; next.len()];
    for start in 0..next.len() {
        if next[start] == NO_EDGE || visited[start] {
            continue;
        }
        let mut loop_pts = Vec::new();
        let mut cur = start;
        loop {
            visited[cur] = true;
            loop_pts.push(midpoint(key(cur)));
            cur = next[cur] as usize;
            if cur == start {
                break;
            }
        }
        if loop_pts.len() >= 3 {
            polygons.push(Polygon::new(simplify_collinear(loop_pts)));
        }
    }
    polygons
}

/// Drops interior vertices that are collinear with their neighbours
/// (marching squares produces long axis-aligned runs of midpoints).
fn simplify_collinear(pts: Vec<Vec2>) -> Vec<Vec2> {
    let n = pts.len();
    if n <= 4 {
        return pts;
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let prev = pts[(i + n - 1) % n];
        let cur = pts[i];
        let nxt = pts[(i + 1) % n];
        if (cur - prev).cross(nxt - cur).abs() > 1e-12 {
            out.push(cur);
        }
    }
    if out.len() < 3 {
        pts
    } else {
        out
    }
}

/// Area centroid over (possibly several) boundary polygons of a region:
/// outer CCW loops carry positive signed area, holes negative, so the
/// signed-weighted combination is the true region centroid.
pub fn boundary_centroid(polygons: &[Polygon]) -> Option<Vec2> {
    let mut total_a = 0.0;
    let mut acc = Vec2::zero();
    for p in polygons {
        let a = p.signed_area();
        acc += p.centroid() * a;
        total_a += a;
    }
    if total_a.abs() < 1e-30 {
        None
    } else {
        Some(acc / total_a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{LabelGrid, Window};

    fn disc_grid(n: usize, cx: f64, cy: f64, r: f64) -> LabelGrid {
        LabelGrid::sample(Window::square(1.0), n, n, |p| {
            u16::from((p.x - cx).powi(2) + (p.y - cy).powi(2) <= r * r)
        })
    }

    #[test]
    fn disc_boundary_single_loop() {
        let g = disc_grid(64, 0.2, -0.1, 0.5);
        let polys = region_boundaries(&g, 1);
        assert_eq!(polys.len(), 1, "a disc has one boundary loop");
        let p = &polys[0];
        // CCW (region-left orientation).
        assert!(p.signed_area() > 0.0);
        // Area ≈ πr² within grid resolution.
        let expect = std::f64::consts::PI * 0.25;
        assert!((p.area() - expect).abs() < 0.05, "area {}", p.area());
        // Vertex centroid ≈ disc centre.
        let c = boundary_centroid(&polys).unwrap();
        assert!(
            (c.x - 0.2).abs() < 0.02 && (c.y + 0.1).abs() < 0.02,
            "{c:?}"
        );
    }

    #[test]
    fn complement_has_hole() {
        // The complement of the disc inside the window: an outer loop
        // plus a CW hole where the disc sits.
        let g = disc_grid(64, 0.0, 0.0, 0.4);
        let polys = region_boundaries(&g, 0);
        assert_eq!(polys.len(), 2);
        let (pos, neg): (Vec<_>, Vec<_>) = polys.iter().partition(|p| p.signed_area() > 0.0);
        assert_eq!(pos.len(), 1, "one outer boundary");
        assert_eq!(neg.len(), 1, "one hole");
        // Signed-area combination gives window area − disc area.
        let total: f64 = polys.iter().map(|p| p.signed_area()).sum();
        let expect = 4.0 - std::f64::consts::PI * 0.16;
        assert!((total - expect).abs() < 0.08, "net area {total}");
        // The centroid of the symmetric complement is the origin.
        let c = boundary_centroid(&polys).unwrap();
        assert!(c.norm() < 0.02, "{c:?}");
    }

    #[test]
    fn two_separate_blobs_two_loops() {
        let g = LabelGrid::sample(Window::square(1.0), 64, 64, |p| {
            u16::from(
                (p.x - 0.5).powi(2) + (p.y - 0.5).powi(2) <= 0.04
                    || (p.x + 0.5).powi(2) + (p.y + 0.5).powi(2) <= 0.04,
            )
        });
        let polys = region_boundaries(&g, 1);
        assert_eq!(polys.len(), 2);
        assert!(polys.iter().all(|p| p.signed_area() > 0.0));
    }

    #[test]
    fn absent_label_yields_nothing() {
        let g = disc_grid(16, 0.0, 0.0, 0.5);
        assert!(region_boundaries(&g, 42).is_empty());
        assert!(boundary_centroid(&[]).is_none());
    }

    #[test]
    fn two_calls_return_identical_polygons_in_the_same_order() {
        // Sixteen labels in a 4×4 lattice of cells on a 64×64 grid, with
        // a ring cut out of the cell at (1, 1) as label 16, so that the
        // lattice has convex regions, one with a hole, and an annulus.
        let g = LabelGrid::sample(Window::square(1.0), 64, 64, |p| {
            let (cx, cy) = (-0.25, -0.25);
            let r2 = (p.x - cx).powi(2) + (p.y - cy).powi(2);
            if (0.01..=0.04).contains(&r2) {
                return 16;
            }
            let col = ((p.x + 1.0) * 2.0).floor().clamp(0.0, 3.0) as u16;
            let row = ((p.y + 1.0) * 2.0).floor().clamp(0.0, 3.0) as u16;
            4 * row + col
        });
        for label in 0..17 {
            let a = region_boundaries(&g, label);
            let b = region_boundaries(&g, label);
            assert!(!a.is_empty(), "label {label} has a region");
            assert_eq!(a.len(), b.len(), "label {label}: loop count");
            for (pa, pb) in a.iter().zip(&b) {
                let bits = |p: &Polygon| -> Vec<(u64, u64)> {
                    p.vertices()
                        .iter()
                        .map(|v| (v.x.to_bits(), v.y.to_bits()))
                        .collect()
                };
                assert_eq!(bits(pa), bits(pb), "label {label}: vertices");
            }
            let ca = boundary_centroid(&a).unwrap();
            let cb = boundary_centroid(&b).unwrap();
            assert_eq!(
                (ca.x.to_bits(), ca.y.to_bits()),
                (cb.x.to_bits(), cb.y.to_bits())
            );
        }
    }

    #[test]
    fn half_plane_region_touching_border_closes() {
        // A region touching the window edge must still close (via the
        // padding ring).
        let g = LabelGrid::sample(Window::square(1.0), 32, 32, |p| u16::from(p.x > 0.0));
        let polys = region_boundaries(&g, 1);
        assert_eq!(polys.len(), 1);
        let c = boundary_centroid(&polys).unwrap();
        assert!(c.x > 0.4 && c.x < 0.6, "{c:?}");
        assert!(c.y.abs() < 0.02);
    }
}
