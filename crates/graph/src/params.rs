use crate::{dijkstra, DiskGraph, GridIndex, UnionFind};
use freezetag_geometry::Point;

/// Radius `ρ*`: the largest distance from `points[source]` to any other
/// point (0 when the set is a singleton).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn radius(points: &[Point], source: usize) -> f64 {
    let s = points[source];
    points.iter().map(|p| p.dist(s)).fold(0.0, f64::max)
}

/// Connectivity threshold `ℓ*`: the least `δ` such that the δ-disk graph of
/// the point set is connected — the bottleneck (largest) edge of a minimum
/// spanning tree, returned as the exact [`Point::dist`] of that edge.
///
/// Near-linear on the benchmark's point sets. A doubling search from the
/// density estimate `sqrt(area / n)` brackets `ℓ*` in `(lo, 2·lo]` with
/// grid connectivity tests; Kruskal then joins the components of the
/// `lo`-disk graph using only the cross-component pairs no longer than
/// `2·lo`. Every step decides with the definition's own `dist ≤ δ`
/// predicate, so the value is bit-identical to an `O(n²)` Prim pass over
/// all pairs (the unit tests keep Prim as the oracle). Point sets whose
/// bottleneck is contested by many near-equal pairs between two dense
/// clusters degrade towards quadratic distance work, never beyond it.
///
/// Returns 0 for empty, singleton and all-coincident sets.
pub fn connectivity_threshold(points: &[Point]) -> f64 {
    if points.len() <= 1 {
        return 0.0;
    }
    let (mut min, mut max) = (points[0], points[0]);
    for p in points {
        min = Point::new(min.x.min(p.x), min.y.min(p.y));
        max = Point::new(max.x.max(p.x), max.y.max(p.y));
    }
    let (w, h) = (max.x - min.x, max.y - min.y);
    if w == 0.0 && h == 0.0 {
        return 0.0;
    }
    let n = points.len() as f64;
    // Density estimate, floored at the spread over n for (near-)collinear
    // sets whose box has no area.
    let delta = ((w / n).sqrt() * h.sqrt()).max(w.max(h) / n);
    // Bucket relative to the bounding-box corner. Every tested δ is at
    // least max(w, h) / 2n (a spanning tree crosses the box in n - 1
    // hops of length ≤ ℓ*), so cell keys stay below ~4n and their
    // rounding error stays a vanishing fraction of a cell at any offset.
    let local: Vec<Point> = points.iter().map(|&p| p - min).collect();
    let mut test = Layer::build(points, &local, delta);
    let below = if test.connected {
        loop {
            test = Layer::build(points, &local, 0.5 * test.delta);
            if !test.connected {
                break test;
            }
        }
    } else {
        loop {
            let up = Layer::build(points, &local, 2.0 * test.delta);
            if up.connected {
                break test;
            }
            test = up;
        }
    };
    below.bottleneck_within_twice(points)
}

/// The δ-disk graph's components, found on a grid of δ/2-wide cells.
///
/// A cell's diagonal (≈ 0.71 δ) is within reach, so every cell is a
/// clique: its points are merged without a distance check, and two cells
/// are merged at their first pair with `dist ≤ δ`.
struct Layer {
    delta: f64,
    grid: GridIndex,
    /// Components of the δ-disk graph over the point indices.
    components: UnionFind,
    connected: bool,
}

impl Layer {
    fn build(points: &[Point], local: &[Point], delta: f64) -> Layer {
        let grid = GridIndex::build(local, 0.5 * delta);
        let mut uf = UnionFind::new(points.len());
        grid.for_each_cell(|_, cell| {
            for &p in &cell[1..] {
                uf.union(cell[0] as usize, p as usize);
            }
        });
        let reach = forward_window(2);
        grid.for_each_cell(|key, a| {
            for &(di, dj) in &reach {
                if uf.components() == 1 {
                    return;
                }
                let b = grid.cell_members((key.0 + di, key.1 + dj));
                if b.is_empty() || uf.connected(a[0] as usize, b[0] as usize) {
                    continue;
                }
                let linked = a.iter().any(|&p| {
                    b.iter()
                        .any(|&q| points[p as usize].dist(points[q as usize]) <= delta)
                });
                if linked {
                    uf.union(a[0] as usize, b[0] as usize);
                }
            }
        });
        Layer {
            delta,
            grid,
            connected: uf.components() == 1,
            components: uf,
        }
    }

    /// `ℓ*` for a disconnected layer whose doubled `δ` connects: Kruskal
    /// over the layer's components with the shortest pair of every
    /// cross-component cell pair within `2δ` as the candidate edges. Both
    /// cells of a pair are cliques of the layer, so no other pair of theirs
    /// can matter.
    fn bottleneck_within_twice(self, points: &[Point]) -> f64 {
        let Layer {
            delta,
            grid,
            components: mut uf,
            ..
        } = self;
        let hi = 2.0 * delta;
        let mut edges: Vec<(f64, u32, u32)> = Vec::new();
        // 2δ spans four δ/2-wide cells.
        let reach = forward_window(4);
        grid.for_each_cell(|key, a| {
            for &(di, dj) in &reach {
                let b = grid.cell_members((key.0 + di, key.1 + dj));
                if b.is_empty() || uf.connected(a[0] as usize, b[0] as usize) {
                    continue;
                }
                let shortest = a
                    .iter()
                    .flat_map(|&p| b.iter().map(move |&q| (p, q)))
                    .map(|(p, q)| points[p as usize].dist(points[q as usize]))
                    .fold(f64::INFINITY, f64::min);
                if shortest <= hi {
                    edges.push((shortest, a[0], b[0]));
                }
            }
        });
        edges.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        let mut bottleneck = 0.0;
        for (d, a, b) in edges {
            if uf.union(a as usize, b as usize) {
                bottleneck = d;
                if uf.components() == 1 {
                    break;
                }
            }
        }
        debug_assert_eq!(uf.components(), 1, "2δ-disk graph must connect");
        bottleneck
    }
}

/// Cell offsets `(di, dj)`, one per unordered pair of distinct cells, that
/// can hold two points within `reach` cell widths of each other. Two cells
/// `d` apart along an axis hold points more than `d - 1` widths apart on
/// it; the extra ring (`|d| = reach + 1`) absorbs the key rounding of a
/// pair that sits exactly `reach` widths apart.
fn forward_window(reach: i64) -> Vec<(i64, i64)> {
    let gap = |d: i64| (d.abs() - 1).max(0);
    let mut out = Vec::new();
    for dj in 0..=reach + 1 {
        for di in -(reach + 1)..=reach + 1 {
            if (dj > 0 || di > 0) && gap(di).pow(2) + gap(dj).pow(2) <= reach * reach {
                out.push((di, dj));
            }
        }
    }
    out
}

/// ℓ-eccentricity `ξ_ℓ`: the minimum weighted depth of a spanning tree of
/// the ℓ-disk graph rooted at the source — equivalently the largest
/// shortest-path distance from the source. `None` when the ℓ-disk graph is
/// not connected (the paper writes `ξ_ℓ = ∞`).
///
/// # Panics
///
/// Panics if `source` is out of range or `ell <= 0`.
pub fn eccentricity(points: &[Point], source: usize, ell: f64) -> Option<f64> {
    if points.len() <= 1 {
        return Some(0.0);
    }
    let g = DiskGraph::new(points.to_vec(), ell);
    dijkstra(&g, source).eccentricity()
}

/// The three parameters `(ρ*, ℓ*, ξ_ℓ)` of an instance, computed exactly.
///
/// Proposition 1 of the paper: `0 < ℓ* ≤ ρ* ≤ ξ_ℓ ≤ n·ℓ*` for every point
/// set with at least one non-source point (the property tests of this
/// workspace check exactly this chain).
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_graph::InstanceParams;
///
/// let pts = vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let params = InstanceParams::compute(&pts, 0, None);
/// assert!((params.rho_star - 2.0).abs() < 1e-9);
/// assert!((params.ell_star - 1.0).abs() < 1e-9);
/// assert_eq!(params.xi_ell, Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceParams {
    /// Radius `ρ*`.
    pub rho_star: f64,
    /// Connectivity threshold `ℓ*`.
    pub ell_star: f64,
    /// The `ℓ` at which `xi_ell` was evaluated (defaults to `ℓ*`).
    pub ell: f64,
    /// ℓ-eccentricity `ξ_ℓ`, `None` when the ℓ-disk graph is disconnected.
    pub xi_ell: Option<f64>,
}

impl InstanceParams {
    /// Computes all parameters of `points` with the given source index.
    /// `ell` defaults to the exact connectivity threshold `ℓ*` when `None`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range, or if the provided `ell` is not
    /// positive while the set has more than one point.
    pub fn compute(points: &[Point], source: usize, ell: Option<f64>) -> Self {
        let rho_star = radius(points, source);
        let ell_star = connectivity_threshold(points);
        let ell = ell.unwrap_or(ell_star);
        let xi_ell = if points.len() <= 1 {
            Some(0.0)
        } else {
            assert!(ell > 0.0, "ell must be positive for multi-point sets");
            eccentricity(points, source, ell)
        };
        InstanceParams {
            rho_star,
            ell_star,
            ell,
            xi_ell,
        }
    }

    /// Whether a tuple `(ℓ, ρ, n)` is admissible (`ℓ ≤ ρ ≤ nℓ`, Section
    /// 1.2) *and* consistent with these parameters (`ℓ* ≤ ℓ`, `ρ* ≤ ρ`).
    pub fn admits(&self, ell: f64, rho: f64, n: usize) -> bool {
        ell <= rho + freezetag_geometry::EPS
            && rho <= n as f64 * ell + freezetag_geometry::EPS
            && self.ell_star <= ell + freezetag_geometry::EPS
            && self.rho_star <= rho + freezetag_geometry::EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prim's `O(n²)` pass over all pairs — the implementation the grid
    /// algorithm replaced, kept as its bit-exact oracle.
    fn prim_threshold(points: &[Point]) -> f64 {
        let n = points.len();
        if n <= 1 {
            return 0.0;
        }
        let mut in_tree = vec![false; n];
        let mut best: Vec<f64> = points.iter().map(|p| p.dist(points[0])).collect();
        in_tree[0] = true;
        let mut bottleneck: f64 = 0.0;
        for _ in 1..n {
            let v = (0..n)
                .filter(|&u| !in_tree[u])
                .min_by(|&a, &b| best[a].total_cmp(&best[b]))
                .expect("a vertex outside the tree");
            in_tree[v] = true;
            bottleneck = bottleneck.max(best[v]);
            for u in 0..n {
                if !in_tree[u] {
                    best[u] = best[u].min(points[u].dist(points[v]));
                }
            }
        }
        bottleneck
    }

    fn assert_oracle(points: &[Point]) {
        let (got, want) = (connectivity_threshold(points), prim_threshold(points));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "grid {got:e} vs Prim {want:e} on {} points",
            points.len()
        );
    }

    /// A splitmix64 stream in `[0, 1)` for the oracle fixtures.
    fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        }
    }

    fn scattered(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut u = unit_stream(seed);
        (0..n).map(|_| Point::new(u() * side, u() * side)).collect()
    }

    #[test]
    fn oracle_on_empty_singleton_and_pairs() {
        assert_oracle(&[]);
        assert_oracle(&[Point::new(3.0, -2.0)]);
        let a = Point::new(-7.25, 1.5);
        for b in [
            a,
            Point::new(-7.25, 4.0),
            Point::new(1e-300, 0.0),
            Point::new(1e9, -1e9),
            Point::new(-7.25 + 1e-6, 1.5),
        ] {
            assert_oracle(&[a, b]);
            assert_oracle(&[b, a]);
        }
    }

    #[test]
    fn oracle_on_coincident_points() {
        for n in [2, 3, 40] {
            let same = vec![Point::new(4.25, -1.5); n];
            assert_oracle(&same);
            assert_eq!(connectivity_threshold(&same), 0.0);
        }
        // Every point doubled or tripled, and a coincident pair far out.
        for seed in 0..20 {
            let base = scattered(30, 10.0, seed);
            let mut pts: Vec<Point> = base
                .iter()
                .enumerate()
                .flat_map(|(i, &p)| std::iter::repeat_n(p, 1 + i % 3))
                .collect();
            assert_oracle(&pts);
            pts.extend([Point::new(500.0, 500.0); 2]);
            assert_oracle(&pts);
        }
    }

    #[test]
    fn oracle_on_collinear_points() {
        for seed in 0..20 {
            let mut u = unit_stream(seed);
            let ts: Vec<f64> = (0..50).map(|_| u() * 40.0 - 20.0).collect();
            let lines: [&dyn Fn(f64) -> Point; 4] = [
                &|t| Point::new(t, 0.0),
                &|t| Point::new(-3.0, t),
                &|t| Point::new(t, 2.0 * t + 1.0),
                &|t| Point::new(1e6 + t, 1e6 - t),
            ];
            for line in lines {
                assert_oracle(&ts.iter().map(|&t| line(t)).collect::<Vec<_>>());
            }
            // Evenly spaced: every MST edge ties.
            assert_oracle(
                &(0..50)
                    .map(|i| Point::new(0.5 * i as f64, 0.0))
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn oracle_on_integer_lattices() {
        for side in 1..=12 {
            for spacing in [1.0, 0.5, 1.5, 3.0] {
                let lattice: Vec<Point> = (0..side * side)
                    .map(|k| Point::new((k % side) as f64 * spacing, (k / side) as f64 * spacing))
                    .collect();
                assert_oracle(&lattice);
                // A hole, and a row pulled away: ties at a second length.
                let mut holed = lattice.clone();
                holed.remove(lattice.len() / 2);
                assert_oracle(&holed);
                let stretched: Vec<Point> = lattice
                    .iter()
                    .map(|p| Point::new(p.x, if p.y > 0.0 { p.y + spacing } else { p.y }))
                    .collect();
                assert_oracle(&stretched);
            }
        }
    }

    #[test]
    fn oracle_on_two_far_clusters_joined_by_a_bridge() {
        for (seed, gap) in [10.0, 1e3, 1e6].into_iter().enumerate() {
            let mut pts = scattered(80, 2.0, seed as u64);
            pts.extend(
                scattered(80, 2.0, 100 + seed as u64)
                    .iter()
                    .map(|p| Point::new(p.x + gap, p.y)),
            );
            assert_oracle(&pts);
            // A chain of links shorter than the gap but longer than the clusters' spacing.
            let links = 9;
            pts.extend((1..links).map(|i| Point::new(1.0 + gap * i as f64 / links as f64, 1.0)));
            assert_oracle(&pts);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The grid threshold equals Prim's bit for bit on random sets
            /// at offsets up to 10⁹ and scales from 10⁻⁶ to 10³ — raw,
            /// snapped to an integer lattice (ties everywhere), or
            /// flattened onto a line.
            #[test]
            fn threshold_matches_prim_bitwise(
                raw in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..60),
                ox in -1e9f64..1e9,
                oy in -1e9f64..1e9,
                log_scale in -6.0f64..3.0,
                shape in 0u32..3,
            ) {
                let scale = 10f64.powf(log_scale);
                let pts: Vec<Point> = raw
                    .iter()
                    .map(|&(x, y)| match shape {
                        0 => (x, y),
                        1 => ((x * 4.0).round(), (y * 4.0).round()),
                        _ => (x, 0.0),
                    })
                    .map(|(x, y)| Point::new(ox + x * scale, oy + y * scale))
                    .collect();
                prop_assert_eq!(
                    connectivity_threshold(&pts).to_bits(),
                    prim_threshold(&pts).to_bits()
                );
            }

            /// Proposition 1 needs the ℓ*-disk graph connected: ξ_ℓ at ℓ*
            /// is finite at scales up to 10¹², where `2·ℓ*·EPS` is far
            /// below an ulp of `ℓ*²`.
            #[test]
            fn xi_at_the_threshold_is_finite_at_every_scale(
                raw in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..40),
                log_scale in -6.0f64..12.0,
            ) {
                let scale = 10f64.powf(log_scale);
                let pts: Vec<Point> = raw
                    .iter()
                    .map(|&(x, y)| Point::new(x * scale, y * scale))
                    .collect();
                let ell = connectivity_threshold(&pts);
                prop_assert!(eccentricity(&pts, 0, ell).is_some(), "ℓ* = {}", ell);
            }
        }
    }

    #[test]
    fn xi_at_the_threshold_is_finite_on_a_wide_disk() {
        // Its bottleneck pair fails the squared test `|p−q|² ≤ (ℓ*+EPS)²`
        // by one rounding, though `dist(p, q) = ℓ*`.
        let inst = freezetag_instances::generators::uniform_disk(4, 1e8, 1);
        let pts = inst.all_points();
        let ell = connectivity_threshold(&pts);
        assert!(eccentricity(&pts, 0, ell).is_some(), "ℓ* = {ell}");
    }

    #[test]
    fn oracle_on_every_concrete_registry_family() {
        use freezetag_instances::registry::{self, ParamMap};
        for info in registry::GENERATORS.iter().filter(|g| !g.adversarial) {
            // Scale families shrink to a size Prim can check.
            let shrunk: &[(&str, f64)] = match info.name {
                "uniform_1m" | "wave_100k" | "separator_100k" => &[("n", 2000.0), ("radius", 28.0)],
                "grid_1m" => &[("side", 40.0)],
                "skewed_500k" => &[
                    ("n", 2000.0),
                    ("radius", 19.0),
                    ("far", 40.0),
                    ("ell", 40.0),
                ],
                _ => &[],
            };
            let params: ParamMap = shrunk.iter().map(|&(k, v)| (k.to_string(), v)).collect();
            for seed in [1, 2] {
                let inst = registry::build_instance(info.name, &params, seed)
                    .unwrap_or_else(|e| panic!("{}: {e}", info.name));
                assert_oracle(&inst.all_points());
            }
        }
    }

    #[test]
    fn radius_of_cross() {
        let pts = vec![
            Point::ORIGIN,
            Point::new(3.0, 0.0),
            Point::new(0.0, -5.0),
            Point::new(-1.0, 0.0),
        ];
        assert_eq!(radius(&pts, 0), 5.0);
    }

    #[test]
    fn threshold_is_bottleneck_edge() {
        // Two clusters at distance 5 with intra-cluster distances <= sqrt(2).
        let pts = vec![
            Point::ORIGIN,
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(6.0, 1.0),
            Point::new(6.0, 2.0),
        ];
        let t = connectivity_threshold(&pts);
        assert!((t - 5.0).abs() < 1e-9, "got {t}");
        // Sanity: graph at threshold is connected, just below is not.
        assert!(DiskGraph::new(pts.clone(), t).is_connected());
        assert!(!DiskGraph::new(pts, t * 0.999).is_connected());
    }

    #[test]
    fn threshold_edge_cases() {
        assert_eq!(connectivity_threshold(&[]), 0.0);
        assert_eq!(connectivity_threshold(&[Point::ORIGIN]), 0.0);
        let two = [Point::ORIGIN, Point::new(0.0, 2.5)];
        assert!((connectivity_threshold(&two) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn eccentricity_on_line_and_disconnection() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(eccentricity(&pts, 0, 1.0), Some(4.0));
        // Larger ell allows longer hops, shrinking the eccentricity.
        assert_eq!(eccentricity(&pts, 0, 4.0), Some(4.0));
        assert_eq!(eccentricity(&pts, 0, 0.5), None);
    }

    #[test]
    fn proposition_1_chain_on_line() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.0)).collect();
        let p = InstanceParams::compute(&pts, 0, None);
        let xi = p.xi_ell.unwrap();
        assert!(p.ell_star > 0.0);
        assert!(p.ell_star <= p.rho_star);
        assert!(p.rho_star <= xi);
        assert!(xi <= pts.len() as f64 * p.ell_star);
    }

    #[test]
    fn admissibility() {
        let pts = vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let p = InstanceParams::compute(&pts, 0, None);
        assert!(p.admits(1.0, 2.0, 2));
        assert!(!p.admits(0.5, 2.0, 4)); // ell below ell*
        assert!(!p.admits(1.0, 1.5, 2)); // rho below rho*
        assert!(!p.admits(1.0, 4.0, 3)); // rho > n*ell
    }

    #[test]
    fn singleton_params() {
        let p = InstanceParams::compute(&[Point::ORIGIN], 0, None);
        assert_eq!(p.rho_star, 0.0);
        assert_eq!(p.ell_star, 0.0);
        assert_eq!(p.xi_ell, Some(0.0));
    }
}
