//! Simple polygons: area, centroid, containment, clipping.
//!
//! The paper computes each cell centroid "based on the vertices of each
//! Voronoi cell" — that is [`Polygon::centroid`] (the area centroid from
//! the shoelace formula), applied to cells produced either by marching
//! squares over the sampled decision regions or by exact Voronoi
//! clipping.

use hybridem_mathkit::vec2::Vec2;

/// A simple polygon given by its vertices in order (either winding);
/// the closing edge from last back to first is implicit.
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    vertices: Vec<Vec2>,
}

impl Polygon {
    /// Builds from vertices.
    ///
    /// # Panics
    /// Panics with fewer than 3 vertices.
    pub fn new(vertices: Vec<Vec2>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs ≥3 vertices");
        Self { vertices }
    }

    /// Axis-aligned rectangle `[x0,x1] × [y0,y1]` (CCW).
    pub(crate) fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        assert!(x1 > x0 && y1 > y0, "degenerate rectangle");
        Self::new(vec![
            Vec2::new(x0, y0),
            Vec2::new(x1, y0),
            Vec2::new(x1, y1),
            Vec2::new(x0, y1),
        ])
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Vec2] {
        &self.vertices
    }

    /// Signed area (positive for CCW winding).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut a = 0.0;
        for i in 0..n {
            a += self.vertices[i].cross(self.vertices[(i + 1) % n]);
        }
        a / 2.0
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Area centroid (shoelace-weighted). Falls back to the vertex mean
    /// for degenerate (zero-area) polygons.
    pub fn centroid(&self) -> Vec2 {
        let n = self.vertices.len();
        let a = self.signed_area();
        if a.abs() < 1e-30 {
            let mut m = Vec2::zero();
            for &v in &self.vertices {
                m += v;
            }
            return m / n as f64;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Vec2::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Point containment by the even–odd (ray casting) rule; boundary
    /// points may land either way (the decision-region use never places
    /// query points exactly on boundaries).
    pub fn contains(&self, p: Vec2) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[j];
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Clips this polygon against a half-plane `{x : n·x ≤ c}` using
    /// Sutherland–Hodgman; returns `None` when the intersection is
    /// empty or degenerate.
    pub fn clip_half_plane(&self, normal: Vec2, c: f64) -> Option<Polygon> {
        let inside = |p: Vec2| normal.dot(p) <= c + 1e-12;
        let mut out: Vec<Vec2> = Vec::with_capacity(self.vertices.len() + 2);
        let n = self.vertices.len();
        for i in 0..n {
            let cur = self.vertices[i];
            let nxt = self.vertices[(i + 1) % n];
            let cur_in = inside(cur);
            let nxt_in = inside(nxt);
            if cur_in {
                out.push(cur);
            }
            if cur_in != nxt_in {
                // Edge crosses the boundary: add the intersection point.
                let d = normal.dot(nxt - cur);
                if d.abs() > 1e-30 {
                    let t = (c - normal.dot(cur)) / d;
                    out.push(cur.lerp(nxt, t.clamp(0.0, 1.0)));
                }
            }
        }
        if out.len() < 3 {
            return None;
        }
        Some(Polygon::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_area_and_centroid() {
        let p = Polygon::rect(0.0, 0.0, 4.0, 2.0);
        assert_eq!(p.signed_area(), 8.0);
        assert_eq!(p.centroid(), Vec2::new(2.0, 1.0));
    }

    #[test]
    fn triangle_centroid_is_vertex_mean() {
        let p = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(3.0, 0.0),
            Vec2::new(0.0, 3.0),
        ]);
        assert_eq!(p.area(), 4.5);
        let c = p.centroid();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn winding_independence_of_centroid() {
        let ccw = Polygon::rect(1.0, 1.0, 2.0, 3.0);
        let mut rev = ccw.vertices().to_vec();
        rev.reverse();
        let cw = Polygon::new(rev);
        assert!(cw.signed_area() < 0.0);
        assert_eq!(ccw.centroid(), cw.centroid());
        assert_eq!(ccw.area(), cw.area());
    }

    #[test]
    fn l_shape_centroid_differs_from_vertex_mean() {
        // Non-convex L: area centroid must weight by area, not vertices.
        let p = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 2.0),
            Vec2::new(0.0, 2.0),
        ]);
        assert_eq!(p.area(), 3.0);
        let c = p.centroid();
        // Decompose: [0,2]×[0,1] (c=(1,0.5), A=2) + [0,1]×[1,2] (c=(0.5,1.5), A=1).
        assert!((c.x - (2.0 * 1.0 + 1.0 * 0.5) / 3.0).abs() < 1e-12);
        assert!((c.y - (2.0 * 0.5 + 1.0 * 1.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        let p = Polygon::rect(0.0, 0.0, 1.0, 1.0);
        assert!(p.contains(Vec2::new(0.5, 0.5)));
        assert!(!p.contains(Vec2::new(1.5, 0.5)));
        assert!(!p.contains(Vec2::new(-0.5, 0.5)));
        // Non-convex containment.
        let l = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 2.0),
            Vec2::new(0.0, 2.0),
        ]);
        assert!(l.contains(Vec2::new(0.5, 1.5)));
        assert!(!l.contains(Vec2::new(1.5, 1.5)));
    }

    #[test]
    fn half_plane_clip_splits_square() {
        let p = Polygon::rect(0.0, 0.0, 2.0, 2.0);
        // Keep x ≤ 1.
        let h = p.clip_half_plane(Vec2::new(1.0, 0.0), 1.0).unwrap();
        assert!((h.area() - 2.0).abs() < 1e-12);
        let c = h.centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_to_empty_returns_none() {
        let p = Polygon::rect(0.0, 0.0, 1.0, 1.0);
        assert!(p.clip_half_plane(Vec2::new(1.0, 0.0), -1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "polygon needs")]
    fn too_few_vertices_rejected() {
        let _ = Polygon::new(vec![Vec2::zero(), Vec2::new(1.0, 0.0)]);
    }
}
