//! Incremental uniform-grid index: the growable companion of
//! [`crate::GridIndex`].
//!
//! `GridIndex` is built once over a fixed point set (CSR buckets); the
//! distributed algorithms' *knowledge* layer instead discovers points one
//! sighting at a time and queries between insertions. [`CellGrid`] serves
//! that access pattern: points append into flat coordinate arrays, each
//! cell's members form a chain threaded through a `next` array, and the
//! cell directory is the same open-addressing `CellMap`
//! the CSR index uses — so a bounded range query costs O(cells scanned +
//! chain lengths), never O(points inserted).
//!
//! Membership tests run through the [`crate::kernel`] scans: each chain is
//! gathered into small stack-resident coordinate buffers (preserving chain
//! order) and the buffer is tested as one batch by the wide lane kernels.

use crate::cellmap::{CellMap, EMPTY};
use crate::kernel;
use freezetag_geometry::Point;

/// Chain entries gathered per membership-kernel batch: large enough that
/// typical cell chains (tens of points) take one or two batches, small
/// enough to stay in registers/L1 as three stack arrays.
const GATHER: usize = 32;

/// Growable uniform-grid spatial index over an append-only point sequence.
///
/// Cell width is fixed at construction; queries with radii on the order of
/// the cell width touch O(1) cells. Indices are assigned in insertion
/// order (`push` returns them), and [`CellGrid::within_into`] reports
/// matches in ascending index order — mirroring [`crate::GridIndex`]'s
/// contract so callers can swap between the two.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_graph::CellGrid;
///
/// let mut g = CellGrid::new(1.0);
/// g.push(Point::ORIGIN);
/// g.push(Point::new(0.5, 0.0));
/// g.push(Point::new(9.0, 9.0));
/// let mut near = Vec::new();
/// g.within_into(Point::ORIGIN, 1.0, &mut near);
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CellGrid {
    cell: f64,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// `next[i]` chains point `i` to the previously-pushed point of the
    /// same cell (`EMPTY` terminates).
    next: Vec<u32>,
    /// Cell key → most recently pushed point index of that cell.
    heads: CellMap,
}

impl CellGrid {
    /// An empty grid with the given cell width.
    ///
    /// # Panics
    ///
    /// Panics if `cell_width <= 0` or not finite.
    pub fn new(cell_width: f64) -> Self {
        assert!(
            cell_width > 0.0 && cell_width.is_finite(),
            "invalid cell width"
        );
        CellGrid {
            cell: cell_width,
            xs: Vec::new(),
            ys: Vec::new(),
            next: Vec::new(),
            heads: CellMap::new(),
        }
    }

    /// Number of points pushed.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no point has been pushed.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The configured cell width.
    pub fn cell_width(&self) -> f64 {
        self.cell
    }

    /// Point `i` (in push order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Appends a point; returns its index (== the previous [`CellGrid::len`]).
    pub fn push(&mut self, p: Point) -> usize {
        let i = self.xs.len() as u32;
        self.xs.push(p.x);
        self.ys.push(p.y);
        let key = CellMap::key_of(p, self.cell);
        let prev = self.heads.insert(key, i).unwrap_or(EMPTY);
        self.next.push(prev);
        i as usize
    }

    /// Drops every point, keeping allocations for reuse (cost is
    /// proportional to the previous contents, not to any coordinate
    /// domain).
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.next.clear();
        self.heads.clear();
    }

    /// Clears the grid and changes its cell width — scratch grids reused
    /// across calls with varying ℓ go through this instead of
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `cell_width <= 0` or not finite.
    pub fn reset(&mut self, cell_width: f64) {
        assert!(
            cell_width > 0.0 && cell_width.is_finite(),
            "invalid cell width"
        );
        self.clear();
        self.cell = cell_width;
    }

    /// Gathers the chain rooted at `head` into the stack buffers and hands
    /// each batch to `scan` as `(indices, xs, ys)`. Batches preserve chain
    /// order; returning `false` from `scan` stops the walk early.
    #[inline]
    fn gather_chain(&self, head: u32, mut scan: impl FnMut(&[u32], &[f64], &[f64]) -> bool) {
        let mut idxs = [0u32; GATHER];
        let mut xs = [0.0f64; GATHER];
        let mut ys = [0.0f64; GATHER];
        let mut cur = head;
        while cur != EMPTY {
            let mut n = 0;
            while cur != EMPTY && n < GATHER {
                let i = cur as usize;
                idxs[n] = cur;
                xs[n] = self.xs[i];
                ys[n] = self.ys[i];
                n += 1;
                cur = self.next[i];
            }
            if !scan(&idxs[..n], &xs[..n], &ys[..n]) {
                return;
            }
        }
    }

    /// Calls `f(index, point)` for every point `p` with `min.x - EPS <=
    /// p.x <= max.x + EPS` and likewise in `y` — exactly the acceptance of
    /// `Rect::contains` on the rectangle `[min, max]` — in **unspecified
    /// order**. The containment test runs through the rect membership
    /// kernel over gathered chain batches.
    pub fn for_each_in_rect(&self, min: Point, max: Point, mut f: impl FnMut(usize, Point)) {
        let s = 2.0 * freezetag_geometry::EPS;
        let lo = CellMap::key_of(min - Point::new(s, s), self.cell);
        let hi = CellMap::key_of(max + Point::new(s, s), self.cell);
        let eps = freezetag_geometry::EPS;
        let (x0, y0, x1, y1) = (min.x - eps, min.y - eps, max.x + eps, max.y + eps);
        for i in lo.0..=hi.0 {
            for j in lo.1..=hi.1 {
                let Some(head) = self.heads.get((i, j)) else {
                    continue;
                };
                self.gather_chain(head, |idxs, xs, ys| {
                    kernel::rect_scan(xs, ys, x0, y0, x1, y1, |k| {
                        f(idxs[k] as usize, Point::new(xs[k], ys[k]));
                    });
                    true
                });
            }
        }
    }

    /// Calls `f(index, point)` for every point within Euclidean distance
    /// `r` of `q` (inclusive, with the same `EPS` slack as
    /// [`crate::GridIndex::within_into`]), in **unspecified order**. Use
    /// this for order-independent reductions (min-selection, existence);
    /// use [`CellGrid::within_into`] when index order matters.
    #[inline]
    pub fn for_each_within(&self, q: Point, r: f64, mut f: impl FnMut(usize, Point)) {
        let r = r.max(0.0);
        let rr = r + 2.0 * freezetag_geometry::EPS;
        let lo = CellMap::key_of(q - Point::new(rr, rr), self.cell);
        let hi = CellMap::key_of(q + Point::new(rr, rr), self.cell);
        let accept = r + freezetag_geometry::EPS;
        let accept_sq = accept * accept;
        for i in lo.0..=hi.0 {
            for j in lo.1..=hi.1 {
                let Some(head) = self.heads.get((i, j)) else {
                    continue;
                };
                self.gather_chain(head, |idxs, xs, ys| {
                    kernel::disk_scan(xs, ys, q.x, q.y, accept_sq, |k| {
                        f(idxs[k] as usize, Point::new(xs[k], ys[k]));
                    });
                    true
                });
            }
        }
    }

    /// Indices of all points within distance `r` of `q`, appended to `out`
    /// in ascending index order (`out` is cleared first).
    pub fn within_into(&self, q: Point, r: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_within(q, r, |i, _| out.push(i));
        out.sort_unstable();
    }

    /// Whether any point lies within distance `r` of `q` (same acceptance
    /// as [`CellGrid::for_each_within`]). Early-exits on the first batch
    /// containing a hit.
    pub fn any_within(&self, q: Point, r: f64) -> bool {
        let r = r.max(0.0);
        let rr = r + 2.0 * freezetag_geometry::EPS;
        let lo = CellMap::key_of(q - Point::new(rr, rr), self.cell);
        let hi = CellMap::key_of(q + Point::new(rr, rr), self.cell);
        let accept = r + freezetag_geometry::EPS;
        let accept_sq = accept * accept;
        let mut hit = false;
        for i in lo.0..=hi.0 {
            for j in lo.1..=hi.1 {
                let Some(head) = self.heads.get((i, j)) else {
                    continue;
                };
                self.gather_chain(head, |_, xs, ys| {
                    hit = kernel::disk_any(xs, ys, q.x, q.y, accept_sq);
                    !hit
                });
                if hit {
                    return true;
                }
            }
        }
        false
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.xs.len() * 20 + self.heads.len() * (16 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_query_clear_roundtrip() {
        let mut g = CellGrid::new(1.5);
        assert!(g.is_empty());
        assert_eq!(g.push(Point::ORIGIN), 0);
        assert_eq!(g.push(Point::new(1.0, 1.0)), 1);
        assert_eq!(g.push(Point::new(10.0, 0.0)), 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.point(2), Point::new(10.0, 0.0));
        let mut out = Vec::new();
        g.within_into(Point::new(0.5, 0.5), 1.0, &mut out);
        assert_eq!(out, vec![0, 1]);
        assert!(g.any_within(Point::new(9.5, 0.0), 0.6));
        assert!(!g.any_within(Point::new(9.5, 0.0), 0.1));
        g.clear();
        assert!(g.is_empty());
        assert!(!g.any_within(Point::ORIGIN, 5.0));
        // Reuse after clear: indices restart from 0.
        assert_eq!(g.push(Point::new(2.0, 2.0)), 0);
        g.within_into(Point::new(2.0, 2.0), 0.5, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn colocated_points_all_reported() {
        let mut g = CellGrid::new(1.0);
        for _ in 0..5 {
            g.push(Point::new(0.25, 0.25));
        }
        let mut out = Vec::new();
        g.within_into(Point::new(0.25, 0.25), 0.0, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cell_width_validation() {
        assert!(std::panic::catch_unwind(|| CellGrid::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| CellGrid::new(f64::NAN)).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Incremental queries agree with brute force at every prefix
            /// of an arbitrary push sequence, and with a [`GridIndex`]
            /// built over the same points.
            #[test]
            fn matches_brute_force_and_gridindex(
                raw in prop::collection::vec((-15.0f64..15.0, -15.0f64..15.0), 1..50),
                cell in 0.2f64..4.0,
                qx in -18.0f64..18.0,
                qy in -18.0f64..18.0,
                r in 0.0f64..20.0,
            ) {
                let pts: Vec<Point> = raw.into_iter().map(|(x, y)| Point::new(x, y)).collect();
                let q = Point::new(qx, qy);
                let mut g = CellGrid::new(cell);
                let mut out = Vec::new();
                for (k, &p) in pts.iter().enumerate() {
                    g.push(p);
                    if k == pts.len() / 2 || k + 1 == pts.len() {
                        g.within_into(q, r, &mut out);
                        let want: Vec<usize> = (0..=k)
                            .filter(|&i| pts[i].dist(q) <= r + freezetag_geometry::EPS)
                            .collect();
                        prop_assert_eq!(&out, &want);
                        prop_assert_eq!(g.any_within(q, r), !want.is_empty());
                    }
                }
                let idx = crate::GridIndex::build(&pts, cell);
                let fixed: Vec<usize> = idx.within(q, r).collect();
                g.within_into(q, r, &mut out);
                prop_assert_eq!(out, fixed);
            }
        }
    }
}
