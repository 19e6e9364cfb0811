use crate::{GridIndex, UnionFind};
use freezetag_geometry::Point;

/// The δ-disk graph of a point set: vertices are the points, and two points
/// are adjacent iff their Euclidean distance is at most `δ`; edge weights
/// are the distances (Section 1.2 of the paper).
///
/// Adjacency is answered through a [`GridIndex`] with cell width `δ`, so
/// building the graph is `O(n)` and neighbourhood queries touch only the
/// nine surrounding cells.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_graph::DiskGraph;
///
/// let g = DiskGraph::new(
///     vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(3.0, 0.0)],
///     1.5,
/// );
/// assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 1.0)]);
/// assert!(!g.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct DiskGraph {
    index: GridIndex,
    delta: f64,
}

impl DiskGraph {
    /// Builds the δ-disk graph of `points`.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0` or not finite.
    pub fn new(points: Vec<Point>, delta: f64) -> Self {
        assert!(delta > 0.0 && delta.is_finite(), "invalid disk-graph delta");
        DiskGraph {
            index: GridIndex::build(&points, delta),
            delta,
        }
    }

    /// Position of vertex `v`.
    pub fn point(&self, v: usize) -> Point {
        self.index.point(v)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The connectivity parameter δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Neighbours of vertex `v` with their edge weights, ascending by
    /// vertex index. `v` itself is excluded.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let p = self.point(v);
        let mut out = Vec::new();
        self.neighbors_into(v, &mut out);
        out.into_iter().map(move |u| (u, self.point(u).dist(p)))
    }

    /// Neighbour indices of `v` written into a reusable buffer (cleared
    /// first), ascending; `v` itself excluded. The allocation-free variant
    /// of [`DiskGraph::neighbors`] for hot loops that scan many vertices.
    ///
    /// `u` is adjacent to `v` when the index's squared test
    /// `|u − v|² ≤ (δ + EPS)²` accepts it *or* `dist(u, v) ≤ δ`. The second
    /// arm matters once `2·δ·EPS` falls below an ulp of `δ²` (distances
    /// past ~10⁷): there a pair exactly `ℓ*` apart, as
    /// [`connectivity_threshold`](crate::connectivity_threshold) measured
    /// it with [`Point::dist`], can fail the squared test by one rounding.
    /// The query radius is widened by far more than those roundings so the
    /// index returns every such pair; the filter drops whatever else the
    /// widening let in.
    pub fn neighbors_into(&self, v: usize, out: &mut Vec<usize>) {
        let p = self.point(v);
        self.index.within_into(p, self.delta * (1.0 + 1e-12), out);
        let accept = self.delta + freezetag_geometry::EPS;
        let accept_sq = accept * accept;
        out.retain(|&u| {
            let q = self.point(u);
            u != v && (q.dist_sq(p) <= accept_sq || q.dist(p) <= self.delta)
        });
    }

    /// Whether the whole graph is connected (vacuously true when empty or a
    /// single vertex).
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        let n = self.len();
        let mut uf = UnionFind::new(n);
        let mut adj: Vec<usize> = Vec::new();
        for v in 0..n {
            self.neighbors_into(v, &mut adj);
            for &u in &adj {
                uf.union(u, v);
            }
        }
        uf.components()
    }

    /// Underlying spatial index (for callers that need raw range queries).
    pub fn index(&self) -> &GridIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nbrs(g: &DiskGraph, v: usize) -> Vec<(usize, f64)> {
        g.neighbors(v).collect()
    }

    #[test]
    fn neighbors_respect_delta() {
        let g = DiskGraph::new(
            vec![
                Point::ORIGIN,
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(0.0, 3.0),
            ],
            1.0,
        );
        assert_eq!(nbrs(&g, 0), vec![(1, 1.0)]);
        assert_eq!(nbrs(&g, 1).len(), 2);
        assert!(nbrs(&g, 3).is_empty());
    }

    #[test]
    fn neighbors_into_matches_iterator() {
        let g = DiskGraph::new(
            vec![
                Point::ORIGIN,
                Point::new(0.5, 0.0),
                Point::new(1.0, 0.0),
                Point::new(5.0, 5.0),
            ],
            1.0,
        );
        let mut buf = vec![7usize; 3];
        for v in 0..g.len() {
            g.neighbors_into(v, &mut buf);
            let via_iter: Vec<usize> = g.neighbors(v).map(|(u, _)| u).collect();
            assert_eq!(buf, via_iter, "vertex {v}");
        }
    }

    #[test]
    fn connectivity_and_components() {
        let mut pts = vec![Point::ORIGIN];
        for i in 1..10 {
            pts.push(Point::new(i as f64, 0.0));
        }
        let g = DiskGraph::new(pts.clone(), 1.0);
        assert!(g.is_connected());
        let g2 = DiskGraph::new(pts, 0.9);
        assert_eq!(g2.component_count(), 10);
        assert!(!g2.is_connected());
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(DiskGraph::new(vec![], 1.0).is_connected());
        assert!(DiskGraph::new(vec![Point::ORIGIN], 1.0).is_connected());
        assert!(DiskGraph::new(vec![], 1.0).is_empty());
        assert_eq!(DiskGraph::new(vec![Point::ORIGIN], 2.0).len(), 1);
    }

    #[test]
    fn delta_is_inclusive() {
        let g = DiskGraph::new(vec![Point::ORIGIN, Point::new(2.0, 0.0)], 2.0);
        assert_eq!(nbrs(&g, 0).len(), 1);
    }
}
