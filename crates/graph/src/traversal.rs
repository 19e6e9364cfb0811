use crate::DiskGraph;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Result of a single-source shortest-path computation on a δ-disk graph.
///
/// The shortest-path tree rooted at the source is exactly the paper's
/// minimum weighted-depth spanning tree, so
/// [`ShortestPaths::eccentricity`] is the ℓ-eccentricity `ξ_ℓ` when the
/// graph is the ℓ-disk graph of `P ∪ {s}`.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: usize,
    dist: Vec<f64>,
    parent: Vec<Option<usize>>,
}

impl ShortestPaths {
    /// The source vertex.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Distance from the source to `v`, `f64::INFINITY` when unreachable.
    pub fn dist(&self, v: usize) -> f64 {
        self.dist[v]
    }

    /// All distances, indexed by vertex.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Parent of `v` in the shortest-path tree (`None` for the source and
    /// for unreachable vertices).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Whether every vertex is reachable from the source.
    pub fn all_reachable(&self) -> bool {
        self.dist.iter().all(|d| d.is_finite())
    }

    /// Largest finite distance (the weighted eccentricity of the source),
    /// or `None` when some vertex is unreachable.
    pub fn eccentricity(&self) -> Option<f64> {
        if !self.all_reachable() {
            return None;
        }
        self.dist.iter().cloned().fold(None, |acc, d| {
            Some(match acc {
                None => d,
                Some(m) => m.max(d),
            })
        })
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance through reversed comparison; distances are
        // finite by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("finite distances")
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra single-source shortest paths on a δ-disk graph.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_graph::{dijkstra, DiskGraph};
///
/// let g = DiskGraph::new(
///     vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
///     1.0,
/// );
/// let sp = dijkstra(&g, 0);
/// assert_eq!(sp.dist(2), 2.0);
/// assert_eq!(sp.parent(2), Some(1));
/// ```
pub fn dijkstra(graph: &DiskGraph, source: usize) -> ShortestPaths {
    let n = graph.len();
    assert!(source < n, "source {source} out of range {n}");
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        vertex: source,
    });
    while let Some(HeapEntry { dist: d, vertex: v }) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for (u, w) in graph.neighbors(v) {
            let nd = d + w;
            if nd < dist[u] {
                dist[u] = nd;
                parent[u] = Some(v);
                heap.push(HeapEntry {
                    dist: nd,
                    vertex: u,
                });
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// Minimum hop counts from `source` (unweighted BFS), `usize::MAX` when
/// unreachable.
///
/// Lemma 6 guarantees a path from `s` to any robot with at most
/// `1 + 2ξ_ℓ/ℓ` hops; the BFS count is a lower bound on the hops of any
/// such path, which the property tests exploit.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_hops(graph: &DiskGraph, source: usize) -> Vec<usize> {
    let n = graph.len();
    assert!(source < n, "source {source} out of range {n}");
    let mut hops = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    hops[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for (u, _) in graph.neighbors(v) {
            if hops[u] == usize::MAX {
                hops[u] = hops[v] + 1;
                queue.push_back(u);
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezetag_geometry::Point;

    fn line_graph(n: usize, delta: f64) -> DiskGraph {
        let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        DiskGraph::new(pts, delta)
    }

    #[test]
    fn dijkstra_on_a_line() {
        let g = line_graph(5, 1.0);
        let sp = dijkstra(&g, 0);
        for v in 0..5 {
            assert!((sp.dist(v) - v as f64).abs() < 1e-12);
        }
        assert_eq!(sp.eccentricity(), Some(4.0));
        assert!(sp.all_reachable());
        assert_eq!(sp.parent(4), Some(3));
        assert_eq!(sp.parent(0), None);
        assert_eq!(sp.source(), 0);
    }

    #[test]
    fn dijkstra_prefers_direct_edges() {
        // Triangle: direct edge 0-2 shorter than through 1.
        let g = DiskGraph::new(
            vec![Point::ORIGIN, Point::new(1.0, 1.0), Point::new(1.4, 0.0)],
            1.5,
        );
        let sp = dijkstra(&g, 0);
        assert!((sp.dist(2) - 1.4).abs() < 1e-12);
        assert_eq!(sp.parent(2), Some(0));
    }

    #[test]
    fn unreachable_vertices() {
        let g = DiskGraph::new(vec![Point::ORIGIN, Point::new(10.0, 0.0)], 1.0);
        let sp = dijkstra(&g, 0);
        assert!(sp.dist(1).is_infinite());
        assert!(!sp.all_reachable());
        assert_eq!(sp.eccentricity(), None);
        assert_eq!(sp.parent(1), None);
    }

    #[test]
    fn bfs_hop_counts() {
        let g = line_graph(4, 1.0);
        assert_eq!(bfs_hops(&g, 0), vec![0, 1, 2, 3]);
        let g2 = line_graph(4, 2.0);
        assert_eq!(bfs_hops(&g2, 0), vec![0, 1, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = DiskGraph::new(vec![Point::ORIGIN, Point::new(5.0, 0.0)], 1.0);
        assert_eq!(bfs_hops(&g, 0)[1], usize::MAX);
    }
}
