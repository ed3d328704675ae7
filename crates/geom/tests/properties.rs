//! Property-based tests of the geometry substrate.

use hybridem_geom::components::label_components;
use hybridem_geom::grid::{LabelGrid, Window};
use hybridem_geom::marching::{boundary_centroid, region_boundaries};
use hybridem_geom::polygon::Polygon;
use hybridem_geom::voronoi::{nearest_site, voronoi_cells};
use hybridem_mathkit::vec2::Vec2;
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec2>> {
    proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Vec2::new(x, y)).collect())
}

/// Convex polygons: vertices at sorted random angles on a circle,
/// counter-clockwise.
fn convex(n: std::ops::Range<usize>) -> impl Strategy<Value = Polygon> {
    (
        proptest::collection::vec(0.0f64..std::f64::consts::TAU, n),
        -5.0f64..5.0,
        -5.0f64..5.0,
        0.5f64..10.0,
    )
        .prop_map(|(mut angles, cx, cy, r)| {
            angles.sort_by(f64::total_cmp);
            Polygon::new(
                angles
                    .into_iter()
                    .map(|a| Vec2::new(cx + r * a.cos(), cy + r * a.sin()))
                    .collect(),
            )
        })
}

proptest! {
    #[test]
    fn polygon_area_invariant_under_translation(
        p1 in convex(3..12), dx in -5.0f64..5.0, dy in -5.0f64..5.0
    ) {
        prop_assert!(p1.signed_area() > -1e-12, "counter-clockwise");
        let shifted: Vec<Vec2> = p1.vertices().iter().map(|&v| v + Vec2::new(dx, dy)).collect();
        let p2 = Polygon::new(shifted);
        prop_assert!((p1.area() - p2.area()).abs() < 1e-6 * p1.area().max(1.0));
        // Centroid translates with the polygon.
        let c1 = p1.centroid() + Vec2::new(dx, dy);
        let c2 = p2.centroid();
        prop_assert!(c1.dist(c2) < 1e-6);
    }

    #[test]
    fn polygon_centroid_inside_convex_hull(poly in convex(3..20)) {
        prop_assume!(poly.area() > 1e-6);
        prop_assert!(poly.contains(poly.centroid()));
    }

    #[test]
    fn clipping_never_grows_area(poly in convex(3..15), c in -8.0f64..8.0) {
        if let Some(clipped) = poly.clip_half_plane(Vec2::new(1.0, 0.0), c) {
            prop_assert!(clipped.area() <= poly.area() + 1e-9);
            // Every vertex satisfies the half-plane.
            for v in clipped.vertices() {
                prop_assert!(v.x <= c + 1e-6);
            }
        }
    }

    #[test]
    fn voronoi_cells_tile_the_box(pts in points(2..12)) {
        // Deduplicate (duplicates legitimately produce empty cells).
        let mut sites = pts;
        sites.dedup_by(|a, b| a.dist(*b) < 1e-9);
        prop_assume!(sites.len() >= 2);
        let cells = voronoi_cells(&sites, -12.0, -12.0, 12.0, 12.0);
        let total: f64 = cells.iter().flatten().map(|c| c.area()).sum();
        prop_assert!((total - 576.0).abs() < 1e-6, "cells must tile: {total}");
    }

    #[test]
    fn voronoi_centroid_belongs_to_its_site(pts in points(2..10)) {
        let mut sites = pts;
        sites.dedup_by(|a, b| a.dist(*b) < 1e-9);
        prop_assume!(sites.len() >= 2);
        let cells = voronoi_cells(&sites, -12.0, -12.0, 12.0, 12.0);
        for (i, cell) in cells.iter().enumerate() {
            if let Some(cell) = cell {
                prop_assert_eq!(nearest_site(&sites, cell.centroid()), i);
            }
        }
    }

    #[test]
    fn marching_area_matches_cell_count(cx in -0.5f64..0.5, cy in -0.5f64..0.5, r in 0.15f64..0.45) {
        // The signed-area sum of the boundary loops equals the counted
        // cell area to within one boundary ring.
        let n = 48usize;
        let grid = LabelGrid::sample(Window::square(1.0), n, n, |p| {
            u16::from((p.x - cx).powi(2) + (p.y - cy).powi(2) <= r * r)
        });
        let cells = grid
            .labels()
            .iter()
            .filter(|&&l| l == 1)
            .count();
        prop_assume!(cells > 4);
        let polys = region_boundaries(&grid, 1);
        let poly_area: f64 = polys.iter().map(|p| p.signed_area()).sum();
        let cell_area = cells as f64 * grid.cell_area();
        let perimeter = 2.0 * std::f64::consts::PI * r;
        let ring = perimeter * (2.0 / n as f64);
        prop_assert!((poly_area - cell_area).abs() <= ring + 1e-9,
            "poly {poly_area} vs cells {cell_area} (ring {ring})");
        // And the vertex centroid is inside the disc.
        let c = boundary_centroid(&polys).unwrap();
        prop_assert!(c.dist(Vec2::new(cx, cy)) < r);
    }

    #[test]
    fn components_partition_the_grid(seed in any::<u64>()) {
        // Random 4-label grid: component sizes sum to the cell count and
        // each component is label-homogeneous.
        let n = 24usize;
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 62) as u16
        };
        let labels: Vec<u16> = (0..n * n).map(|_| next()).collect();
        let grid = {
            let labels = labels.clone();
            LabelGrid::sample(Window::square(1.0), n, n, move |p| {
                let ix = (((p.x + 1.0) / 2.0) * n as f64) as usize;
                let iy = (((p.y + 1.0) / 2.0) * n as f64) as usize;
                labels[iy.min(n - 1) * n + ix.min(n - 1)]
            })
        };
        let comps = label_components(&grid);
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), n * n);
        for iy in 0..n {
            for ix in 0..n {
                let cid = comps.id_at(&grid, ix, iy) as usize;
                prop_assert_eq!(comps.label_of[cid], grid.label(ix, iy));
            }
        }
    }
}
