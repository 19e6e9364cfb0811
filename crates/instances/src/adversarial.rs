//! Adversarial lower-bound layouts (Theorems 2 and 3, Section 9.1–9.2).
//!
//! The Theorem 2 construction places one sleeping robot in each disk
//! `D_c = B_c(ℓ/4)` over a connected set of grid centres `C_m ⊂ (ℓ/2·Z)²`,
//! at *the last position of the disk explored by the algorithm*. The robot
//! positions are therefore adaptive; this module builds the static part
//! (the centre set, including the vertical spine that forces the `Ω(ρ)`
//! term), and `freezetag-sim::AdversarialWorld` plays the adversary against
//! any algorithm driven through the sensing interface.

use freezetag_geometry::Point;
use std::collections::{HashSet, VecDeque};

/// Static description of an adaptive lower-bound instance: one robot per
/// disk `B_c(disk_radius)`, positioned adversarially at runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialLayout {
    /// The connectivity parameter ℓ the construction is built for.
    pub ell: f64,
    /// The radius bound ρ of the construction.
    pub rho: f64,
    /// Disk centres `C_m`, one sleeping robot per disk.
    pub centers: Vec<Point>,
    /// Disk radius (ℓ/4 for Theorem 2, ℓ for Theorem 3).
    pub disk_radius: f64,
}

impl AdversarialLayout {
    /// Number of sleeping robots (= number of disks).
    pub fn n(&self) -> usize {
        self.centers.len()
    }
}

/// Builds the Theorem 2 layout for parameters `(ℓ, ρ, n)`.
///
/// The centre set starts with the vertical spine
/// `{(0, i·ℓ/2) : 1 ≤ i ≤ ⌊ρ/ℓ⌋}` (which forces the `Ω(ρ)` travel term),
/// then grows by breadth-first search over grid-adjacent centres inside the
/// disk of radius `ρ − ℓ/4`, up to `m = min(n, |C*|)` centres. Adjacent
/// centres are `ℓ/2` apart, and any two points of adjacent disks are within
/// `ℓ` (Lemma 13), so the resulting point set always has `ℓ* ≤ ℓ`.
///
/// # Panics
///
/// Panics if `ℓ < 1`, `ρ < ℓ` or `n == 0`.
pub fn theorem2_layout(ell: f64, rho: f64, n: usize) -> AdversarialLayout {
    assert!(ell >= 1.0, "construction assumes ell >= 1");
    assert!(rho >= ell, "need rho >= ell");
    assert!(n > 0, "need at least one robot");
    let step = ell / 2.0;
    let limit = rho - ell / 4.0;
    let in_range = |c: Point| c.norm() <= limit + freezetag_geometry::EPS;
    let key = |c: Point| ((c.x / step).round() as i64, (c.y / step).round() as i64);

    // Spine first (skipping the origin, which is the source's cell).
    let spine_len = ((rho / ell).floor() as usize).min(n).max(1);
    let mut centers: Vec<Point> = Vec::new();
    let mut seen: HashSet<(i64, i64)> = HashSet::new();
    seen.insert((0, 0));
    let mut queue: VecDeque<Point> = VecDeque::new();
    for i in 1..=spine_len {
        let c = Point::new(0.0, i as f64 * step);
        if in_range(c) && seen.insert(key(c)) {
            centers.push(c);
            queue.push_back(c);
        }
    }
    // BFS growth over 4-adjacent grid centres until m centres collected.
    while centers.len() < n {
        let Some(c) = queue.pop_front() else {
            break; // |C*| exhausted: m = |C*| < n
        };
        for (dx, dy) in [(step, 0.0), (0.0, step), (-step, 0.0), (0.0, -step)] {
            let nb = c + Point::new(dx, dy);
            if in_range(nb) && seen.insert(key(nb)) {
                centers.push(nb);
                queue.push_back(nb);
                if centers.len() == n {
                    break;
                }
            }
        }
    }
    AdversarialLayout {
        ell,
        rho,
        centers,
        disk_radius: ell / 4.0,
    }
}

/// Builds the Theorem 3 layout: `n` robots hidden in the single disk
/// `B_{(0,0)}(ℓ)`; an algorithm with energy budget `B < π(ℓ² − 1)/2`
/// cannot discover the hidden position, hence wakes nobody.
///
/// # Panics
///
/// Panics if `ℓ <= 1` (the disk must exceed the initial vision radius) or
/// `n == 0`.
pub fn theorem3_layout(ell: f64, n: usize) -> AdversarialLayout {
    assert!(ell > 1.0, "theorem 3 needs ell > 1");
    assert!(n > 0, "need at least one robot");
    AdversarialLayout {
        ell,
        rho: ell,
        // All robots share one adversarial disk centred at the source: the
        // adversary will co-locate them at the last explored position.
        centers: vec![Point::ORIGIN; n],
        disk_radius: ell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spine_is_present_and_centers_in_range() {
        let l = theorem2_layout(4.0, 32.0, 200);
        // Spine points (0, 2), (0, 4), ... must be present.
        for i in 1..=8 {
            let c = Point::new(0.0, i as f64 * 2.0);
            assert!(
                l.centers.iter().any(|&p| p.dist(c) < 1e-9),
                "missing spine centre {c}"
            );
        }
        for c in &l.centers {
            assert!(c.norm() <= 32.0 - 1.0 + 1e-9);
            assert!(c.norm() > 1e-9, "origin must not carry a robot");
        }
    }

    #[test]
    fn centers_are_distinct_and_on_half_ell_grid() {
        let l = theorem2_layout(2.0, 16.0, 150);
        let mut seen = std::collections::HashSet::new();
        for c in &l.centers {
            let k = (
                (c.x / 1.0_f64).round() as i64,
                (c.y / 1.0_f64).round() as i64,
            );
            assert!(seen.insert(k), "duplicate centre {c}");
            assert!((c.x - k.0 as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn growth_is_connected_via_grid_adjacency() {
        let l = theorem2_layout(4.0, 24.0, 60);
        // Every centre (plus the origin) must be reachable through
        // (ℓ/2)-grid adjacency — the paper's connectivity requirement.
        let step = 2.0;
        let mut pts = vec![Point::ORIGIN];
        pts.extend_from_slice(&l.centers);
        let g = freezetag_graph::DiskGraph::new(pts, step + 1e-9);
        assert!(g.is_connected());
    }

    #[test]
    fn resulting_disks_give_ell_connectivity() {
        // Any two points of adjacent disks are within ℓ (Lemma 13): with
        // robots at the worst corners the threshold stays <= ell.
        let l = theorem2_layout(4.0, 16.0, 40);
        let mut pts = vec![Point::ORIGIN];
        // Worst case: each robot at the far boundary of its disk.
        for c in &l.centers {
            let dir = if c.norm() > 0.0 { *c / c.norm() } else { *c };
            pts.push(*c + dir * l.disk_radius);
        }
        let t = freezetag_graph::connectivity_threshold(&pts);
        assert!(t <= l.ell + 1e-9, "threshold {t} exceeds ell {}", l.ell);
    }

    #[test]
    fn cardinality_caps_at_available_centers() {
        let small = theorem2_layout(4.0, 8.0, 10_000);
        // |C| >= 1 + rho^2/ell^2 by Lemma 12, but bounded.
        assert!(small.n() < 10_000);
        assert!(small.n() >= (8.0_f64 / 4.0).powi(2) as usize);
    }

    #[test]
    fn theorem3_layout_shape() {
        let l = theorem3_layout(8.0, 3);
        assert_eq!(l.n(), 3);
        assert_eq!(l.disk_radius, 8.0);
    }
}
