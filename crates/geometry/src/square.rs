use crate::{Point, Rect, Separator};

/// An axis-parallel square given by its center and width.
///
/// Squares are the recursion unit of `ASeparator` (a square of width `2ρ` is
/// split into four quadrant sub-squares each round) and the tiling unit of
/// `AGrid`/`AWave`.
///
/// # Example
///
/// ```
/// use freezetag_geometry::{Point, Square};
/// let s = Square::new(Point::ORIGIN, 8.0);
/// let q = s.quadrants();
/// assert_eq!(q[0].center(), Point::new(-2.0, -2.0));
/// assert_eq!(q[0].width(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Square {
    center: Point,
    width: f64,
}

impl Square {
    /// Creates a square from its center and width.
    ///
    /// # Panics
    ///
    /// Panics if `width < 0` or not finite.
    pub fn new(center: Point, width: f64) -> Self {
        assert!(width >= 0.0 && width.is_finite(), "invalid square width");
        Square { center, width }
    }

    /// Center of the square.
    pub fn center(&self) -> Point {
        self.center
    }

    /// Side length.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Half the side length.
    pub fn half_width(&self) -> f64 {
        self.width / 2.0
    }

    /// Lower-left corner; `AGrid` robots meet there before exploring
    /// (Section 8.1).
    pub fn min_corner(&self) -> Point {
        self.center - Point::new(self.half_width(), self.half_width())
    }

    /// Upper-right corner.
    pub fn max_corner(&self) -> Point {
        self.center + Point::new(self.half_width(), self.half_width())
    }

    /// View as a [`Rect`].
    pub fn to_rect(&self) -> Rect {
        Rect::from_corners(self.min_corner(), self.max_corner())
    }

    /// Closed containment test with `EPS` slack.
    pub fn contains(&self, p: Point) -> bool {
        p.dist_linf(self.center) <= self.half_width() + crate::EPS
    }

    /// The four quadrant sub-squares of half width, in the order
    /// lower-left, lower-right, upper-right, upper-left (counter-clockwise,
    /// matching the partition phase of `ASeparator`).
    pub fn quadrants(&self) -> [Square; 4] {
        let q = self.width / 4.0;
        [
            Square::new(self.center + Point::new(-q, -q), self.width / 2.0),
            Square::new(self.center + Point::new(q, -q), self.width / 2.0),
            Square::new(self.center + Point::new(q, q), self.width / 2.0),
            Square::new(self.center + Point::new(-q, q), self.width / 2.0),
        ]
    }

    /// The separator of the square: the ring between the border of `self`
    /// and the concentric square of width `w − 2ℓ` (Section 2.3).
    ///
    /// When `w ≤ 2ℓ` the "ring" degenerates to the whole square; the
    /// returned separator then has an empty interior hole, which matches the
    /// paper's convention that any crossing path is caught.
    pub fn separator(&self, ell: f64) -> Separator {
        Separator::new(*self, ell)
    }

    /// Perimeter parameter of the projection of `p` onto the square's
    /// border, measured clockwise (when the y-axis points up) starting from
    /// the top-left corner. Ties towards the first clockwise projection.
    ///
    /// This is the key of `Sort(X)` (Section 6.5): `DFSampling` seeds are
    /// visited in clockwise order of their border projections, which bounds
    /// the total tour by the square's perimeter plus `2ℓ` per seed.
    pub fn border_parameter(&self, p: Point) -> f64 {
        // Nearest border point: clamp to the rect, then push the clamped
        // point to the nearest side if p was interior.
        let r = self.to_rect();
        let c = r.clamp(p);
        let (min, max) = (r.min(), r.max());
        // Distances from the clamped point to each side.
        let d_left = c.x - min.x;
        let d_right = max.x - c.x;
        let d_bottom = c.y - min.y;
        let d_top = max.y - c.y;
        let m = d_left.min(d_right).min(d_bottom).min(d_top);
        let b = if m == d_top {
            Point::new(c.x, max.y)
        } else if m == d_right {
            Point::new(max.x, c.y)
        } else if m == d_bottom {
            Point::new(c.x, min.y)
        } else {
            Point::new(min.x, c.y)
        };
        // Clockwise walk starting at the top-left corner:
        // top edge (left→right), right edge (top→bottom),
        // bottom edge (right→left), left edge (bottom→top).
        let w = self.width.max(crate::EPS);
        if (b.y - max.y).abs() <= crate::EPS {
            b.x - min.x
        } else if (b.x - max.x).abs() <= crate::EPS {
            w + (max.y - b.y)
        } else if (b.y - min.y).abs() <= crate::EPS {
            2.0 * w + (max.x - b.x)
        } else {
            3.0 * w + (b.y - min.y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_and_rect_round_trip() {
        let s = Square::new(Point::new(1.0, 1.0), 4.0);
        assert_eq!(s.min_corner(), Point::new(-1.0, -1.0));
        assert_eq!(s.max_corner(), Point::new(3.0, 3.0));
        let r = s.to_rect();
        assert_eq!(r.center(), s.center());
        assert_eq!(r.width(), s.width());
    }

    #[test]
    fn quadrants_tile_the_square() {
        let s = Square::new(Point::ORIGIN, 8.0);
        let qs = s.quadrants();
        let total: f64 = qs.iter().map(|q| q.to_rect().area()).sum();
        assert!((total - 64.0).abs() < 1e-9);
        for q in &qs {
            assert!(s.contains(q.min_corner()));
            assert!(s.contains(q.max_corner()));
        }
        // Counter-clockwise order starting lower-left.
        assert!(qs[0].center().x < 0.0 && qs[0].center().y < 0.0);
        assert!(qs[1].center().x > 0.0 && qs[1].center().y < 0.0);
        assert!(qs[2].center().x > 0.0 && qs[2].center().y > 0.0);
        assert!(qs[3].center().x < 0.0 && qs[3].center().y > 0.0);
    }

    #[test]
    fn border_parameter_orders_clockwise() {
        let s = Square::new(Point::ORIGIN, 2.0);
        // Walk clockwise: top-left start.
        let top = s.border_parameter(Point::new(0.0, 2.0));
        let right = s.border_parameter(Point::new(2.0, 0.0));
        let bottom = s.border_parameter(Point::new(0.0, -2.0));
        let left = s.border_parameter(Point::new(-2.0, 0.0));
        assert!(top < right && right < bottom && bottom < left);
        assert!(left < 8.0); // perimeter of width-2 square
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The border parameter is a bijection-ish walk: values lie in
            /// [0, perimeter].
            #[test]
            fn border_parameter_in_range(
                cx in -10.0f64..10.0, cy in -10.0f64..10.0,
                w in 0.5f64..20.0,
                px in -40.0f64..40.0, py in -40.0f64..40.0,
            ) {
                let s = Square::new(Point::new(cx, cy), w);
                let p = Point::new(px, py);
                let t = s.border_parameter(p);
                prop_assert!(t >= 0.0);
                prop_assert!(t <= 4.0 * w + 1e-9);
            }

            /// Quadrants tile the square: every interior point belongs to
            /// at least one quadrant, and the quadrant areas sum exactly.
            #[test]
            fn quadrants_tile(
                cx in -5.0f64..5.0, cy in -5.0f64..5.0, w in 1.0f64..16.0,
                fx in 0.01f64..0.99, fy in 0.01f64..0.99,
            ) {
                let s = Square::new(Point::new(cx, cy), w);
                let p = Point::new(
                    s.min_corner().x + w * fx,
                    s.min_corner().y + w * fy,
                );
                let qs = s.quadrants();
                prop_assert!(qs.iter().any(|q| q.contains(p)));
                let area: f64 = qs.iter().map(|q| q.to_rect().area()).sum();
                prop_assert!((area - w * w).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn separator_of_wide_square_has_hole() {
        let s = Square::new(Point::ORIGIN, 10.0);
        let sep = s.separator(1.0);
        assert!(sep.contains(Point::new(4.5, 0.0)));
        assert!(!sep.contains(Point::ORIGIN));
    }
}
