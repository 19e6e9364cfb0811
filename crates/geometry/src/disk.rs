use crate::{Point, Rect, Square};

/// A closed disk `B_p(r)` of center `p` and radius `r` (notation of
/// Section 6 of the paper).
///
/// # Example
///
/// ```
/// use freezetag_geometry::{Disk, Point};
/// let d = Disk::new(Point::ORIGIN, 2.0);
/// assert!(d.contains(Point::new(1.0, 1.0)));
/// assert!(!d.contains(Point::new(2.0, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disk {
    center: Point,
    radius: f64,
}

impl Disk {
    /// Creates a disk from its center and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius < 0` or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(radius >= 0.0 && radius.is_finite(), "invalid disk radius");
        Disk { center, radius }
    }

    /// Center of the disk.
    pub fn center(&self) -> Point {
        self.center
    }

    /// Radius of the disk.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Area `πr²`.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Closed containment test with `EPS` slack.
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist(p) <= self.radius + crate::EPS
    }

    /// The smallest axis-parallel square containing the disk.
    pub fn bounding_square(&self) -> Square {
        Square::new(self.center, 2.0 * self.radius)
    }

    /// The bounding rectangle of the disk.
    pub fn bounding_rect(&self) -> Rect {
        self.bounding_square().to_rect()
    }

    /// Whether two disks intersect (closed sets).
    pub fn intersects(&self, other: &Disk) -> bool {
        self.center.dist(other.center) <= self.radius + other.radius + crate::EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_on_boundary() {
        let d = Disk::new(Point::new(1.0, 0.0), 2.0);
        assert!(d.contains(Point::new(3.0, 0.0)));
        assert!(d.contains(Point::new(1.0, -2.0)));
        assert!(!d.contains(Point::new(3.1, 0.0)));
    }

    #[test]
    fn area_of_unit_disk() {
        let d = Disk::new(Point::ORIGIN, 1.0);
        assert!((d.area() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn bounding_square_is_the_diameter_wide() {
        let d = Disk::new(Point::new(5.0, 5.0), 3.0);
        let outer = d.bounding_square();
        assert_eq!(outer.width(), 6.0);
        assert_eq!(outer.center(), d.center());
    }

    #[test]
    fn disk_intersection() {
        let a = Disk::new(Point::ORIGIN, 1.0);
        let b = Disk::new(Point::new(2.0, 0.0), 1.0);
        let c = Disk::new(Point::new(2.0 + 1e-3, 0.0), 1e-4);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }
}
