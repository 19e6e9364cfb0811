use crate::kdtree::{Best, KdTree};
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
/// Three exact steps:
///
/// 1. `L`, the largest nearest-neighbour distance, found on a k-d tree.
///    Every point's spanning-tree edges are at least its nearest-neighbour
///    distance, so `L ≤ ℓ*`.
/// 2. The components of the `L`-disk graph, found in linear time on a grid
///    of clique cells. When that graph is connected, `ℓ* = L`. This
///    certificate usually holds on random swarms (Penrose: the longest
///    spanning-tree edge of a random point set is, with high probability,
///    its longest nearest-neighbour edge).
/// 3. Otherwise Borůvka rounds join the components on the same tree (the
///    EMST of March, Ram and Gray, queried one point at a time): every
///    component but the largest finds its nearest foreign point, and
///    subtrees inside the querying component are pruned whole. Each joining edge is the
///    shortest edge leaving some component, so no longer than `ℓ*`, and
///    the edges connect the set: `ℓ*` is the larger of `L` and the longest
///    joining edge.
///
/// Uniform disks, lattices and two dense clusters all take under
/// `n·⌈log₂ n⌉` pair distance evaluations (a unit test bounds the count).
///
/// Every decision uses the definition's own [`Point::dist`] (pruning only
/// with conservative lower bounds), so the value is bit-identical to an
/// `O(n²)` Prim pass over all pairs (the unit tests keep Prim as the
/// oracle).
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
    let spread = (max.x - min.x).max(max.y - min.y);
    if spread == 0.0 {
        return 0.0;
    }
    let tree = KdTree::build(points);
    let nearest = tree.max_nearest_neighbour();
    // A connected L-disk graph crosses the bounding box in at most n - 1
    // hops of length ≤ L. Past twice that (L = 0 included) the graph is
    // disconnected and its cells would be too fine to key exactly, so
    // Borůvka starts from singletons; so it does when L overflows.
    let conditioned = nearest >= f64::MIN_POSITIVE && nearest.is_finite();
    let components = if conditioned && spread <= 2.0 * points.len() as f64 * nearest {
        let components = disk_components(points, min, nearest);
        if components.components() == 1 {
            #[cfg(test)]
            probe::record(|p| p.certified += 1);
            return nearest;
        }
        components
    } else {
        UnionFind::new(points.len())
    };
    #[cfg(test)]
    probe::record(|p| p.fell_back += 1);
    nearest.max(boruvka(&tree, components))
}

/// Components of the δ-disk graph over `points`, whose bounding box has its
/// lower corner at `corner`, found on a grid of clique cells. Each
/// merge joins two points no more than δ apart; a cell pair whose link is
/// not found cheaply stays apart, which costs [`boruvka`] a little time
/// and never changes its answer.
///
/// Cells are `0.7 δ` wide, so a cell's diagonal (≈ 0.99 δ) is within
/// reach and every cell is a clique: its points are merged without a
/// distance check. Cell pairs are then visited ring by ring, nearest first,
/// so most far pairs are already joined through near ones; a pair is
/// merged at its first point pair with `dist ≤ δ`, and gives up after
/// `|a| + |b|` tests, which keeps the pass linear when two crowded cells
/// have no pair within reach.
fn disk_components(points: &[Point], corner: Point, delta: f64) -> UnionFind {
    // Bucket relative to the bounding-box corner: cell keys stay below ~3n,
    // so their rounding error stays a vanishing fraction of a cell at any
    // offset.
    let width = 0.7 * delta;
    let keys: Vec<(i64, i64)> = points
        .iter()
        .map(|&p| GridIndex::cell_key(p - corner, width))
        .collect();
    let grid = GridIndex::build_from_keys(points, width, &keys);
    drop(keys);
    let mut uf = UnionFind::new(points.len());
    grid.for_each_cell(|_, cell| {
        for &p in &cell[1..] {
            uf.union(cell[0] as usize, p as usize);
        }
    });
    let window = forward_window();
    for ring in window.chunk_by(|&x, &y| ring(x) == ring(y)) {
        grid.for_each_cell(|key, a| {
            for &(di, dj) in ring {
                if uf.components() == 1 {
                    return;
                }
                let b = grid.cell_members((key.0 + di, key.1 + dj));
                if b.is_empty() || uf.connected(a[0] as usize, b[0] as usize) {
                    continue;
                }
                let linked = a
                    .iter()
                    .flat_map(|&p| b.iter().map(move |&q| (p, q)))
                    .take(a.len() + b.len())
                    .any(|(p, q)| {
                        #[cfg(test)]
                        probe::record(|p| p.pairs += 1);
                        points[p as usize].dist(points[q as usize]) <= delta
                    });
                if linked {
                    uf.union(a[0] as usize, b[0] as usize);
                }
            }
        });
    }
    uf
}

/// Cell offsets `(di, dj)`, one per unordered pair of distinct cells, that
/// can hold two points within δ of each other, nearest [`ring`] first. Two
/// cells `d` apart along an axis hold points more than `(|d| - 1)·0.7 δ`
/// apart on it, so only cells within two of each other on both axes can
/// link (`√2 · 0.7 < 1 < 2 · 0.7`).
fn forward_window() -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = (0..=2)
        .flat_map(|dj| (-2..=2).map(move |di| (di, dj)))
        .filter(|&(di, dj)| dj > 0 || di > 0)
        .collect();
    out.sort_by_key(|&offset| ring(offset));
    out
}

/// Whole empty cells between two cells at `offset`, summed over the axes.
fn ring((di, dj): (i64, i64)) -> i64 {
    (di.abs() - 1).max(0) + (dj.abs() - 1).max(0)
}

/// `ℓ*` from a partition of the points into sets each connected by edges no
/// longer than `ℓ*`: Borůvka rounds join the sets until one is left, and
/// the longest joining edge is returned (0 when `uf` is already one set).
fn boruvka(tree: &KdTree, mut uf: UnionFind) -> f64 {
    const UNSEEN: u32 = u32::MAX;
    let n = uf.len();
    // Each round numbers the components densely: `comp` per tree position,
    // `dense` per union-find root (reset after the round).
    let mut comp = vec![0u32; n];
    let mut dense = vec![UNSEEN; n];
    let mut labels = vec![0u32; tree.node_count()];
    let mut stack = Vec::new();
    let mut longest: f64 = 0.0;
    while uf.components() > 1 {
        let (mut roots, mut size) = (Vec::new(), Vec::new());
        for (k, c) in (0..).zip(comp.iter_mut()) {
            let root = uf.find(tree.input_index(k));
            if dense[root] == UNSEEN {
                dense[root] = roots.len() as u32;
                roots.push(root);
                size.push(0u32);
            }
            *c = dense[root];
            size[*c as usize] += 1;
        }
        for &root in &roots {
            dense[root] = UNSEEN;
        }
        let largest = (0..roots.len())
            .max_by_key(|&c| size[c])
            .expect("two or more components");
        tree.label(&comp, &mut labels);
        let mut best = vec![Best::NONE; roots.len()];
        for k in 0..n as u32 {
            let c = comp[k as usize] as usize;
            if c != largest {
                tree.nearest_foreign(k, &comp, &labels, &mut best[c], &mut stack);
            }
        }
        for (c, edge) in best.into_iter().enumerate() {
            if c == largest {
                continue;
            }
            if edge.dist == f64::INFINITY {
                // Every distance out of this component overflows.
                return f64::INFINITY;
            }
            if uf.union(tree.input_index(edge.from), tree.input_index(edge.to)) {
                longest = longest.max(edge.dist);
            }
        }
    }
    longest
}

/// Per-thread counters of the threshold's work and of the path it took,
/// for the unit tests' work bounds and path coverage.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    #[derive(Debug, Clone, Copy, Default)]
    pub(crate) struct Probe {
        /// Point pairs whose distance (or squared distance) was evaluated.
        pub(crate) pairs: u64,
        /// Calls answered by the nearest-neighbour certificate.
        pub(crate) certified: u32,
        /// Calls that ran Borůvka rounds.
        pub(crate) fell_back: u32,
    }

    thread_local! {
        static PROBE: Cell<Probe> = Cell::new(Probe::default());
    }

    pub(crate) fn record(f: impl FnOnce(&mut Probe)) {
        PROBE.with(|c| {
            let mut p = c.get();
            f(&mut p);
            c.set(p);
        });
    }

    /// This thread's counters since the last call, which resets them.
    pub(crate) fn take() -> Probe {
        PROBE.with(|c| c.take())
    }
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

            /// Up to four blobs of random size at offsets up to 10³ apart,
            /// a quarter of the sets with every point doubled: both the
            /// certificate and the Borůvka fallback meet Prim bit for bit.
            /// Run by [`both_paths_match_prim_on_clustered_sets`].
            fn clustered_threshold_matches_prim(
                raw in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0usize..4), 2..80),
                centres in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4..5),
                log_gap in -1.0f64..3.0,
                doubled in 0u32..4,
            ) {
                let gap = 10f64.powf(log_gap);
                let pts: Vec<Point> = raw
                    .iter()
                    .map(|&(x, y, c)| Point::new(centres[c].0 * gap + x, centres[c].1 * gap + y))
                    .flat_map(|p| std::iter::repeat_n(p, if doubled == 0 { 2 } else { 1 }))
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

        #[test]
        fn both_paths_match_prim_on_clustered_sets() {
            probe::take();
            clustered_threshold_matches_prim();
            let p = probe::take();
            assert!(p.certified > 0 && p.fell_back > 0, "{p:?}");
        }
    }

    /// What one `connectivity_threshold` call did, checked against Prim.
    fn oracle_probe(points: &[Point]) -> probe::Probe {
        probe::take();
        assert_oracle(points);
        probe::take()
    }

    fn assert_falls_back(points: &[Point]) {
        let p = oracle_probe(points);
        assert_eq!((p.certified, p.fell_back), (0, 1), "{p:?}");
    }

    fn shifted(points: &[Point], by: Point) -> impl Iterator<Item = Point> + '_ {
        points.iter().map(move |&p| p + by)
    }

    #[test]
    fn fallback_on_a_mutual_nearest_pair_far_from_the_rest() {
        for seed in 0..10 {
            let mut pts = scattered(60, 5.0, seed);
            pts.extend([Point::new(40.0, 40.0), Point::new(40.3, 40.1)]);
            assert_falls_back(&pts);
        }
    }

    #[test]
    fn fallback_on_isolated_pairs() {
        for seed in 0..10 {
            let mut u = unit_stream(seed);
            let pts: Vec<Point> = (0..25)
                .flat_map(|_| {
                    let p = Point::new(u() * 1e3, u() * 1e3);
                    [p, p + Point::new(0.01 + 0.1 * u(), 0.05 * u())]
                })
                .collect();
            assert_falls_back(&pts);
        }
    }

    #[test]
    fn fallback_on_two_far_clusters_without_a_bridge() {
        for (seed, gap) in [3.0, 10.0, 1e3, 1e6].into_iter().enumerate() {
            let mut pts = scattered(80, 2.0, seed as u64);
            let far = scattered(80, 2.0, 100 + seed as u64);
            pts.extend(shifted(&far, Point::new(gap, 0.5 * gap)));
            assert_falls_back(&pts);
        }
    }

    #[test]
    fn fallback_on_three_to_six_components() {
        for k in 3..=6u64 {
            let mut pts = Vec::new();
            for c in 0..k {
                let blob = scattered(20 + 7 * c as usize, 1.0 + c as f64, 10 * k + c);
                let angle = c as f64 * 2.4;
                let centre = Point::new(angle.cos(), angle.sin()) * (15.0 * (c + 1) as f64);
                pts.extend(shifted(&blob, centre));
            }
            assert_falls_back(&pts);
        }
    }

    #[test]
    fn fallback_on_doubled_sets_where_the_nearest_neighbour_is_zero() {
        for seed in 0..10 {
            let pts: Vec<Point> = scattered(40, 10.0, seed)
                .into_iter()
                .flat_map(|p| [p, p])
                .collect();
            assert_falls_back(&pts);
        }
    }

    #[test]
    fn certificate_on_a_uniform_set() {
        let p = oracle_probe(&scattered(400, 20.0, 7));
        assert_eq!((p.certified, p.fell_back), (1, 0), "{p:?}");
    }

    #[test]
    fn oracle_on_overflowing_distances() {
        assert_oracle(&[
            Point::new(-1e308, 0.0),
            Point::new(1e308, 0.0),
            Point::new(1e308, 1.0),
        ]);
    }

    /// Point pairs whose distance one call evaluated, against `C·n·⌈log₂ n⌉`.
    fn assert_n_log_n(points: &[Point]) {
        const C: u64 = 1;
        probe::take();
        connectivity_threshold(points);
        let pairs = probe::take().pairs;
        let n = points.len() as u64;
        let bound = C * n * u64::from(n.ilog2() + 1);
        assert!(
            pairs <= bound,
            "{pairs} pair evaluations on {n} points (bound {bound})"
        );
    }

    #[test]
    fn distance_evaluations_stay_within_n_log_n() {
        use freezetag_instances::generators::{clustered, uniform_disk};
        assert_n_log_n(&clustered(2, 5000, 5.0, 200.0, 1).all_points());
        assert_n_log_n(&uniform_disk(10_000, 100.0, 1).all_points());
        let side = 100;
        assert_n_log_n(
            &(0..side * side)
                .map(|k| Point::new((k % side) as f64, (k / side) as f64))
                .collect::<Vec<_>>(),
        );
    }

    /// Two clusters of 5·10⁴ robots, dense enough that the former δ-bracket
    /// tested every cross pair (3.3 s). A release-build timing case: CI
    /// runs it under a wall-clock budget.
    #[test]
    #[ignore = "release-build timing case"]
    fn two_dense_clusters_at_scale() {
        let pts = freezetag_instances::generators::clustered(2, 50_000, 5.0, 200.0, 1).all_points();
        assert_n_log_n(&pts);
        // The bridge links of 5 + 2.8e-14, as the former algorithm found.
        assert_eq!(
            connectivity_threshold(&pts).to_bits(),
            0x4014_0000_0000_0020
        );
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
