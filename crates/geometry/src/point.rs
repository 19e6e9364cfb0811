use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or vector) in the Euclidean plane.
///
/// `Point` doubles as a 2-vector: addition, subtraction and scalar
/// multiplication are defined componentwise, which keeps trajectory code
/// (`p + (q - p) * t`) readable.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// let p = Point::new(3.0, 4.0);
/// assert_eq!(p.dist(Point::ORIGIN), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`, where the source robot starts.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean norm of `self` viewed as a vector.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm; cheaper than [`Point::norm`] when only
    /// comparisons are needed.
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Euclidean distance to `other`.
    pub fn dist(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist_sq(self, other: Point) -> f64 {
        (self - other).norm_sq()
    }

    /// Chebyshev (L∞) distance to `other`; `p.dist_linf(c) <= w/2` is the
    /// containment test for the square of center `c` and width `w`.
    pub fn dist_linf(self, other: Point) -> f64 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// Midpoint of the segment `self → other`.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: returns `self` at `t = 0` and `other` at `t = 1`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// Whether `self` and `other` are within the workspace co-location
    /// tolerance [`crate::EPS`] of each other.
    pub fn approx_eq(self, other: Point) -> bool {
        self.dist(other) <= crate::EPS
    }

    /// Whether both coordinates are finite (not NaN/∞).
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_agree_on_345_triangle() {
        let p = Point::new(3.0, 4.0);
        assert_eq!(p.dist(Point::ORIGIN), 5.0);
        assert_eq!(p.dist_sq(Point::ORIGIN), 25.0);
        assert_eq!(p.dist_linf(Point::ORIGIN), 4.0);
    }

    #[test]
    fn vector_arithmetic_is_componentwise() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 0.5);
        assert_eq!(a + b, Point::new(-2.0, 2.5));
        assert_eq!(a - b, Point::new(4.0, 1.5));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), a.midpoint(b));
    }

    #[test]
    fn conversion_round_trips() {
        let p: Point = (1.5, -2.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, -2.5));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::ORIGIN).is_empty());
    }
}
