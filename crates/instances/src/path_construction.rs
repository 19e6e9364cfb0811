//! Theorem 6 construction (Section 9.3): instances with *prescribed*
//! ℓ-eccentricity.
//!
//! The point set is spread along a rectilinear path `Π` made of horizontal
//! segments of length `H = ρ/√2` and vertical segments of length
//! `V = B + 1` (so an energy-`B` robot can never shortcut between two
//! horizontal corridors). The path length — and hence `ξ_ℓ` — can be
//! dialled to any admissible `ξ ∈ [ρ, min(nℓ − ρ/3, ρ²/(2(B+1)) + 1)]`.

use crate::Instance;
use freezetag_geometry::{Point, Polyline};

/// Parameters accepted by [`theorem6_instance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem6Params {
    /// Connectivity parameter ℓ (robot spacing along the path).
    pub ell: f64,
    /// Radius bound ρ.
    pub rho: f64,
    /// Energy budget `B` the construction defeats (`B > ℓ` required).
    pub budget: f64,
    /// Prescribed ℓ-eccentricity ξ.
    pub xi: f64,
}

/// The rectilinear path `Π` of the construction, truncated at arc-length ξ.
///
/// Waypoints follow Section 9.3: `u_j = (0, j(B+1))`,
/// `v_j = (ρ/√2, j(B+1))`; section `j` is the horizontal `[u_j v_j]` (or
/// its reverse) followed by a vertical riser on alternating sides.
pub fn theorem6_path(p: &Theorem6Params) -> Polyline {
    let h = p.rho / std::f64::consts::SQRT_2;
    let v = p.budget + 1.0;
    let sections = (p.xi / (h + v)).floor() as usize;
    let mut poly = Polyline::new(Point::ORIGIN);
    let mut total = 0.0;
    let mut j = 0usize;
    // Build whole sections until adding one more would exceed ξ.
    while j < sections.max(1) && total + h + v <= p.xi + freezetag_geometry::EPS {
        let y = j as f64 * v;
        let (from_x, to_x) = if j.is_multiple_of(2) {
            (0.0, h)
        } else {
            (h, 0.0)
        };
        poly.push(Point::new(to_x, y));
        poly.push(Point::new(to_x, y + v));
        let _ = from_x;
        total += h + v;
        j += 1;
    }
    // Final partial stretch so the arc length is exactly ξ.
    let remaining = (p.xi - total).max(0.0);
    if remaining > freezetag_geometry::EPS {
        let y = j as f64 * v;
        let (from_x, to_x) = if j.is_multiple_of(2) {
            (0.0, h)
        } else {
            (h, 0.0)
        };
        let horizontal = remaining.min(h);
        let t = horizontal / h;
        let end_x = from_x + (to_x - from_x) * t;
        poly.push(Point::new(end_x, y));
        let vertical = remaining - horizontal;
        if vertical > freezetag_geometry::EPS {
            poly.push(Point::new(end_x, y + vertical));
        }
    }
    poly
}

/// Builds the Theorem 6 instance: robots every ℓ along `Π` (which pins
/// `ξ_ℓ` to ≈ ξ), plus a spur from `v₀ = (ρ/√2, 0)` to `w₀ = (ρ, 0)` so the
/// radius is exactly ρ.
///
/// # Panics
///
/// Panics unless `B > ℓ > 0` and `ρ ≤ ξ ≤ ρ²/(2(B+1)) + 1` (the validity
/// range of the construction, Equation 15).
pub fn theorem6_instance(p: &Theorem6Params) -> Instance {
    assert!(p.ell > 0.0, "ell must be positive");
    assert!(p.budget > p.ell, "construction requires B > ell");
    assert!(p.xi >= p.rho - freezetag_geometry::EPS, "need xi >= rho");
    let cap = p.rho * p.rho / (2.0 * (p.budget + 1.0)) + 1.0;
    assert!(
        p.xi <= cap + freezetag_geometry::EPS,
        "xi={} exceeds geometric cap {}",
        p.xi,
        cap
    );
    let poly = theorem6_path(p);
    let mut pts = Vec::new();
    let total = poly.length();
    let count = (total / p.ell).ceil() as usize;
    for k in 1..=count {
        let d = (k as f64 * p.ell).min(total);
        let q = poly.point_at(d);
        if q.norm() > 1e-9 {
            pts.push(q);
        }
    }
    // Spur to w0 = (rho, 0) so that rho* = rho. Include v0 itself: the
    // arc-length sampling of Π does not necessarily place a robot exactly
    // at the corner, and the spur must attach to the path within ℓ.
    let v0 = Point::new(p.rho / std::f64::consts::SQRT_2, 0.0);
    let w0 = Point::new(p.rho, 0.0);
    let spur_len = v0.dist(w0);
    let links = (spur_len / p.ell).ceil() as usize;
    for k in 0..=links {
        let q = v0.lerp(w0, k as f64 / links as f64);
        if pts.iter().all(|r| r.dist(q) > 1e-9) {
            pts.push(q);
        }
    }
    Instance::new(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(xi: f64) -> Theorem6Params {
        Theorem6Params {
            ell: 1.0,
            rho: 20.0,
            budget: 4.0,
            xi,
        }
    }

    #[test]
    fn path_length_matches_xi() {
        for xi in [20.0, 30.0, 41.0] {
            let p = params(xi);
            let poly = theorem6_path(&p);
            assert!(
                (poly.length() - xi).abs() < 1e-6,
                "xi={xi} got {}",
                poly.length()
            );
        }
    }

    #[test]
    fn instance_has_prescribed_eccentricity() {
        let p = params(35.0);
        let inst = theorem6_instance(&p);
        let ip = inst.params(Some(p.ell));
        let xi = ip.xi_ell.expect("path instance connected at ell");
        // ξ_ℓ within a small factor of ξ (discretization slack of one hop
        // per segment).
        assert!(xi >= 0.8 * p.xi, "xi_ell={xi} too small vs ξ={}", p.xi);
        assert!(xi <= 1.2 * p.xi + p.rho, "xi_ell={xi} too large");
    }

    #[test]
    fn radius_is_rho() {
        let p = params(30.0);
        let inst = theorem6_instance(&p);
        let ip = inst.params(Some(p.ell));
        assert!((ip.rho_star - p.rho).abs() < p.ell + 1e-6);
    }

    #[test]
    fn vertical_separation_defeats_budget() {
        // Any two points on distinct horizontal corridors are >= B+1 apart
        // vertically unless connected through the riser.
        let p = params(40.0);
        let inst = theorem6_instance(&p);
        let v = p.budget + 1.0;
        for a in inst.positions() {
            for b in inst.positions() {
                let same_corridor = (a.y / v).floor() == (b.y / v).floor();
                if !same_corridor && (a.y - b.y).abs() < v - 1e-9 {
                    // Points in different sections closer than V vertically
                    // must lie on a riser (x = 0 or x = H).
                    let h = p.rho / std::f64::consts::SQRT_2;
                    let on_riser = |q: &Point| q.x < 1e-6 || (q.x - h).abs() < 1e-6;
                    assert!(
                        on_riser(a) || on_riser(b),
                        "shortcut between corridors: {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_budget_not_above_ell() {
        let p = Theorem6Params {
            ell: 5.0,
            rho: 20.0,
            budget: 5.0,
            xi: 25.0,
        };
        let _ = theorem6_instance(&p);
    }
}
