use crate::cellmap::{CellMap, EMPTY};
use freezetag_geometry::Point;

/// Dense row-major directory over the occupied cell bounding box: cell
/// `(i, j)` maps to `ids[(j - min.1) * w + (i - min.0)]` (the dense cell
/// id, or [`EMPTY`]). The ids themselves are row-major too: they count
/// the occupied cells in key order, so reading `ids` front to back yields
/// `0, 1, 2, …` with gaps only at [`EMPTY`] slots.
///
/// Range queries hit the directory instead of probing the open-addressing
/// [`CellMap`] once per scanned cell — a plain array load, and queries
/// outside the bounding box reject after the clamp without touching memory
/// at all. The sparse map is the fallback for point sets whose bounding
/// box is too large to enumerate densely (long adversarial paths,
/// far-flung stragglers); an index has one directory or the other.
#[derive(Debug, Clone, PartialEq)]
struct CellWindow {
    min: (i64, i64),
    /// Extent in cells; `ids.len() == w * h`.
    w: i64,
    h: i64,
    ids: Vec<u32>,
    /// Coordinate-space bounds of the window inflated by one full cell on
    /// every side: any query whose inflated box lies outside cannot touch
    /// an occupied cell (the one-cell margin swallows every bucketing
    /// rounding concern), so the empty-space fast path is four compares.
    reject: [f64; 4],
}

impl CellWindow {
    /// Buckets `keys` into a window over their bounding box when it stays
    /// within `budget` cells; `None` otherwise (fallback to the sparse
    /// directory). No hashing: one counting pass over the keys, then one
    /// pass over the window that numbers the occupied cells row-major —
    /// ids in key order without a sort — so the occupied cells of a window
    /// row own one contiguous CSR range. Returns the window, the point
    /// count of every cell id, and every point's cell id.
    fn bucket(
        keys: &[(i64, i64)],
        cell: f64,
        budget: usize,
    ) -> Option<(CellWindow, Vec<u32>, Vec<u32>)> {
        let (&first, rest) = keys.split_first()?;
        let (mut min, mut max) = (first, first);
        for k in rest {
            min = (min.0.min(k.0), min.1.min(k.1));
            max = (max.0.max(k.0), max.1.max(k.1));
        }
        let w = max.0.checked_sub(min.0)?.checked_add(1)?;
        let h = max.1.checked_sub(min.1)?.checked_add(1)?;
        let area = (w as i128) * (h as i128);
        if area > budget as i128 {
            return None;
        }
        let slot = |k: (i64, i64)| ((k.1 - min.1) * w + (k.0 - min.0)) as usize;
        // Points per slot first, then overwritten by the cell id.
        let mut ids = vec![0u32; area as usize];
        for &k in keys {
            ids[slot(k)] += 1;
        }
        let mut counts = Vec::new();
        for id in &mut ids {
            if *id == 0 {
                *id = EMPTY;
            } else {
                counts.push(*id);
                *id = counts.len() as u32 - 1;
            }
        }
        let cell_of = keys.iter().map(|&k| ids[slot(k)]).collect();
        let reject = [
            (min.0 - 1) as f64 * cell,
            (min.1 - 1) as f64 * cell,
            (max.0 + 2) as f64 * cell,
            (max.1 + 2) as f64 * cell,
        ];
        let window = CellWindow {
            min,
            w,
            h,
            ids,
            reject,
        };
        Some((window, counts, cell_of))
    }
}

/// Uniform-grid spatial index over a fixed point set.
///
/// Buckets points into square cells of a chosen width; range queries then
/// touch only the `O(1)` cells overlapping the query disk (for query radii
/// on the order of the cell width). This keeps δ-disk-graph adjacency
/// queries near-linear instead of quadratic, which matters for the
/// instance-parameter computations on large swarms.
///
/// Storage is flat (struct-of-arrays): coordinates live in two `Vec<f64>`
/// and the buckets are a CSR layout (`starts` offsets into one `order`
/// array). The cell directory is two-tiered: a dense row-major window over
/// the occupied bounding box (one array load per scanned cell, instant
/// rejection outside the box) backed by the open-addressing `CellMap`
/// for point sets too spread out to enumerate densely.
///
/// The build additionally stores a cell-ordered copy of the coordinates
/// (the `xs`/`ys` permuted into CSR order), so a cell scan is a pair of
/// contiguous slice loads feeding the wide [`crate::kernel`] membership
/// kernels.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_graph::GridIndex;
///
/// let pts = vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(5.0, 5.0)];
/// let idx = GridIndex::build(&pts, 1.0);
/// let near: Vec<usize> = idx.within(Point::ORIGIN, 1.5).collect();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    xs: Vec<f64>,
    ys: Vec<f64>,
    cell: f64,
    /// Cell key → dense cell id (index into `starts`) for point sets too
    /// spread out for the window; empty when the window exists.
    cells: CellMap,
    /// Dense fast path over the occupied cell bounding box, when small
    /// enough (see [`GridIndex::WINDOW_BUDGET_PER_POINT`]).
    window: Option<CellWindow>,
    /// CSR offsets: cell id `c` owns `order[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// Point indices grouped by cell, ascending within each cell.
    order: Vec<u32>,
    /// Coordinates permuted into `order`'s layout (`cxs[k] ==
    /// xs[order[k]]`): cell scans read these contiguously instead of
    /// gathering through `order`, which is what lets the membership
    /// kernel vectorize.
    cxs: Vec<f64>,
    cys: Vec<f64>,
}

impl GridIndex {
    /// Dense-window budget: the occupied cell bounding box may cover at
    /// most `max(65536, 8 n)` cells (4 bytes each) before the index falls
    /// back to the sparse directory. The floor covers every small-n
    /// instance (a 256 KiB directory at worst); the per-point term keeps
    /// the window within a constant factor of the point storage at 10⁶
    /// scale, and degenerate spreads (clusters megacells apart) fall back.
    pub const WINDOW_BUDGET_PER_POINT: usize = 8;

    /// Builds an index over `points` with the given cell width.
    ///
    /// # Panics
    ///
    /// Panics if `cell_width <= 0` or not finite.
    pub fn build(points: &[Point], cell_width: f64) -> Self {
        let keys: Vec<(i64, i64)> = points.iter().map(|&p| Self::key(p, cell_width)).collect();
        Self::assemble(points, cell_width, &keys)
    }

    /// Builds an index from precomputed cell keys — `keys[i]` must equal
    /// [`GridIndex::cell_key`]`(points[i], cell_width)`. This is the hook
    /// for parallel construction: the key pass is the only per-point float
    /// work of the build, so callers fan it out over batches (order
    /// preserved) and hand the flat key array to this single-threaded CSR
    /// assembly, yielding an index bit-identical to [`GridIndex::build`].
    ///
    /// # Panics
    ///
    /// Panics if `cell_width` is invalid or the lengths disagree.
    pub fn build_from_keys(points: &[Point], cell_width: f64, keys: &[(i64, i64)]) -> Self {
        assert_eq!(points.len(), keys.len(), "one key per point");
        Self::assemble(points, cell_width, keys)
    }

    /// Shared CSR assembly over the key array. Cell ids are a function of
    /// the keys alone — independent of how the keys were computed.
    fn assemble(points: &[Point], cell_width: f64, keys: &[(i64, i64)]) -> Self {
        assert!(
            cell_width > 0.0 && cell_width.is_finite(),
            "invalid cell width"
        );
        let n = points.len();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for p in points {
            xs.push(p.x);
            ys.push(p.y);
        }
        // Pass 1: count points per distinct cell — through the dense
        // window (row-major ids) when the bounding box fits its budget,
        // else through the sparse map (first-occurrence ids).
        let budget = (1 << 16).max(Self::WINDOW_BUDGET_PER_POINT * n);
        let mut cells = CellMap::new();
        let (window, counts, ids) = match CellWindow::bucket(keys, cell_width, budget) {
            Some((win, counts, ids)) => (Some(win), counts, ids),
            None => {
                let mut counts: Vec<u32> = Vec::new();
                let mut ids: Vec<u32> = Vec::with_capacity(n);
                for &key in keys {
                    let next = counts.len() as u32;
                    let id = cells.get_or_insert(key, next);
                    if id == next {
                        counts.push(0);
                    }
                    counts[id as usize] += 1;
                    ids.push(id);
                }
                (None, counts, ids)
            }
        };
        // Pass 2: prefix sums, then scatter point indices. Scattering in
        // input order keeps each cell's slice ascending by point index.
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0u32;
        starts.push(0);
        for &c in &counts {
            acc += c;
            starts.push(acc);
        }
        let mut cursor: Vec<u32> = starts[..counts.len()].to_vec();
        let mut order = vec![0u32; n];
        for (i, &cid) in ids.iter().enumerate() {
            order[cursor[cid as usize] as usize] = i as u32;
            cursor[cid as usize] += 1;
        }
        let mut cxs = Vec::with_capacity(n);
        let mut cys = Vec::with_capacity(n);
        for &i in &order {
            cxs.push(xs[i as usize]);
            cys.push(ys[i as usize]);
        }
        GridIndex {
            xs,
            ys,
            cell: cell_width,
            cells,
            window,
            starts,
            order,
            cxs,
            cys,
        }
    }

    /// Build- and query-side bucketing share this exact division so a
    /// point's cell and a range's cell bounds can never disagree, at any
    /// coordinate magnitude.
    fn key(p: Point, cell: f64) -> (i64, i64) {
        CellMap::key_of(p, cell)
    }

    /// The bucket key of point `p` for the given cell width — the exact
    /// function [`GridIndex::build`] applies per point, exposed so callers
    /// of [`GridIndex::build_from_keys`] can precompute keys (possibly in
    /// parallel batches) without drifting from the built-in bucketing.
    pub fn cell_key(p: Point, cell_width: f64) -> (i64, i64) {
        Self::key(p, cell_width)
    }

    /// Coordinates of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// The configured cell width.
    pub fn cell_width(&self) -> f64 {
        self.cell
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Approximate heap footprint of the index in bytes (flat arrays, the
    /// cell directory and the dense window), for the experiment engine's
    /// memory accounting.
    pub fn memory_bytes(&self) -> usize {
        // xs/ys plus the cell-ordered copies: 32 bytes of coordinates per
        // point.
        self.xs.len() * 32
            + self.order.len() * 4
            + self.starts.len() * 4
            + self.cells.len() * (16 + 4)
            + self.window.as_ref().map_or(0, |w| w.ids.len() * 4)
    }

    /// Point indices bucketed in cell `cid`, ascending.
    fn members(&self, cid: u32) -> &[u32] {
        &self.order[self.starts[cid as usize] as usize..self.starts[cid as usize + 1] as usize]
    }

    /// Calls `f(key, members)` once per occupied cell: the hook for
    /// cell-level passes such as the connectivity threshold's, which pair
    /// up whole cells instead of querying points. With the dense window
    /// the walk is row-major over the window — ascending cell id, so the
    /// member slices are visited in memory order; the sparse directory is
    /// walked in table order.
    pub(crate) fn for_each_cell(&self, mut f: impl FnMut((i64, i64), &[u32])) {
        match &self.window {
            Some(win) => {
                for (row, j) in win.ids.chunks_exact(win.w as usize).zip(win.min.1..) {
                    for (&cid, i) in row.iter().zip(win.min.0..) {
                        if cid != EMPTY {
                            f((i, j), self.members(cid));
                        }
                    }
                }
            }
            None => self.cells.for_each(|key, cid| f(key, self.members(cid))),
        }
    }

    /// The points bucketed in the cell with `key` (empty when unoccupied).
    pub(crate) fn cell_members(&self, key: (i64, i64)) -> &[u32] {
        let cid = match &self.window {
            Some(win) => {
                let (i, j) = (key.0 - win.min.0, key.1 - win.min.1);
                if i < 0 || j < 0 || i >= win.w || j >= win.h {
                    return &[];
                }
                win.ids[(j * win.w + i) as usize]
            }
            None => self.cells.get(key).unwrap_or(EMPTY),
        };
        if cid == EMPTY {
            &[]
        } else {
            self.members(cid)
        }
    }

    /// Appends the in-range points of CSR positions `a..b` to `out`: one
    /// contiguous membership-kernel scan over their coordinate slice.
    #[inline]
    fn scan_range(&self, a: usize, b: usize, q: Point, accept_sq: f64, out: &mut Vec<usize>) {
        let order = &self.order[a..b];
        crate::kernel::disk_scan(&self.cxs[a..b], &self.cys[a..b], q.x, q.y, accept_sq, |k| {
            out.push(order[k] as usize)
        });
    }

    /// [`GridIndex::scan_range`] over the points of cell `cid`.
    #[inline]
    fn scan_cell(&self, cid: u32, q: Point, accept_sq: f64, out: &mut Vec<usize>) {
        let c = cid as usize;
        self.scan_range(
            self.starts[c] as usize,
            self.starts[c + 1] as usize,
            q,
            accept_sq,
            out,
        );
    }

    /// Indices of all points within Euclidean distance `r` of `q`
    /// (inclusive, with `EPS` slack: a point `p` is accepted iff
    /// `|p - q|² <= (r + EPS)²`, evaluated in squared form so the kernel
    /// never takes a square root), appended to `out` in ascending index
    /// order. `out` is cleared first; reusing one buffer across queries
    /// makes the hot `look` path allocation-free after warm-up.
    pub fn within_into(&self, q: Point, r: f64, out: &mut Vec<usize>) {
        out.clear();
        let r = r.max(0.0);
        // Inflate the scanned cell range by the acceptance slack: a point
        // at distance r + 1e-15 must still be found (the distance test
        // below accepts it), even when it falls a hair across a cell
        // boundary.
        let rr = r + 2.0 * freezetag_geometry::EPS;
        match &self.window {
            Some(win) => {
                // Queries whose inflated box cannot touch the occupied
                // bounding box (most of a wave's empty-space sweeps)
                // reject on four compares, before any bucketing math.
                if q.x + rr < win.reject[0]
                    || q.y + rr < win.reject[1]
                    || q.x - rr > win.reject[2]
                    || q.y - rr > win.reject[3]
                {
                    return;
                }
                let lo = Self::key(q - Point::new(rr, rr), self.cell);
                let hi = Self::key(q + Point::new(rr, rr), self.cell);
                let accept = r + freezetag_geometry::EPS;
                let accept_sq = accept * accept;
                // Clamp the scan to the occupied bounding box. Ids are
                // row-major, so a row's occupied cells in `i0..=i1` are the
                // consecutive ids from its first to its last occupied one:
                // one kernel call over their joint CSR range per row.
                let (i0, i1) = (lo.0.max(win.min.0), hi.0.min(win.min.0 + win.w - 1));
                let (j0, j1) = (lo.1.max(win.min.1), hi.1.min(win.min.1 + win.h - 1));
                if i0 <= i1 {
                    for j in j0..=j1 {
                        let base = ((j - win.min.1) * win.w + (i0 - win.min.0)) as usize;
                        let row = &win.ids[base..=base + (i1 - i0) as usize];
                        let Some(&first) = row.iter().find(|&&cid| cid != EMPTY) else {
                            continue;
                        };
                        let last = *row
                            .iter()
                            .rfind(|&&cid| cid != EMPTY)
                            .expect("row has a cell");
                        self.scan_range(
                            self.starts[first as usize] as usize,
                            self.starts[last as usize + 1] as usize,
                            q,
                            accept_sq,
                            out,
                        );
                    }
                }
            }
            None => {
                // The sparse fallback exists for far-flung point sets —
                // exactly the regime where coordinates can exceed the
                // `EPS / ulp` bound the reciprocal bucketing relies on —
                // so it keeps the exact division keys of the build side.
                let lo = Self::key(q - Point::new(rr, rr), self.cell);
                let hi = Self::key(q + Point::new(rr, rr), self.cell);
                let accept = r + freezetag_geometry::EPS;
                let accept_sq = accept * accept;
                for i in lo.0..=hi.0 {
                    for j in lo.1..=hi.1 {
                        if let Some(cid) = self.cells.get((i, j)) {
                            self.scan_cell(cid, q, accept_sq, out);
                        }
                    }
                }
            }
        }
        if out.len() > 1 {
            out.sort_unstable();
        }
    }

    /// Indices of all points within Euclidean distance `r` of `q`, in
    /// ascending index order. Allocates a fresh buffer per call; hot loops
    /// should prefer [`GridIndex::within_into`].
    pub fn within(&self, q: Point, r: f64) -> impl Iterator<Item = usize> + '_ {
        let mut out = Vec::new();
        self.within_into(q, r, &mut out);
        out.into_iter()
    }

    /// Index of the closest point to `q`, or `None` when the index is
    /// empty. Falls back to a full scan; the index accelerates only
    /// bounded-radius queries.
    pub fn nearest(&self, q: Point) -> Option<usize> {
        (0..self.len()).min_by(|&a, &b| {
            self.point(a)
                .dist_sq(q)
                .partial_cmp(&self.point(b).dist_sq(q))
                .expect("finite coordinates")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        vec![
            Point::ORIGIN,
            Point::new(0.9, 0.0),
            Point::new(2.0, 0.0),
            Point::new(-3.0, 4.0),
            Point::new(0.0, 0.95),
        ]
    }

    #[test]
    fn within_matches_brute_force() {
        let points = pts();
        let idx = GridIndex::build(&points, 1.0);
        for &(q, r) in &[
            (Point::ORIGIN, 1.0),
            (Point::new(1.0, 1.0), 2.0),
            (Point::new(-3.0, 4.0), 0.5),
            (Point::ORIGIN, 10.0),
            (Point::ORIGIN, 0.0),
        ] {
            let got: Vec<usize> = idx.within(q, r).collect();
            let want: Vec<usize> = (0..points.len())
                .filter(|&i| points[i].dist(q) <= r + freezetag_geometry::EPS)
                .collect();
            assert_eq!(got, want, "query {q} r={r}");
        }
    }

    #[test]
    fn within_into_reuses_the_buffer() {
        let idx = GridIndex::build(&pts(), 1.0);
        let mut buf = vec![99usize; 8];
        idx.within_into(Point::ORIGIN, 1.0, &mut buf);
        assert_eq!(buf, vec![0, 1, 4]);
        idx.within_into(Point::new(-3.0, 4.0), 0.5, &mut buf);
        assert_eq!(buf, vec![3], "buffer must be cleared between queries");
    }

    #[test]
    fn nearest_point() {
        let points = pts();
        let idx = GridIndex::build(&points, 1.0);
        assert_eq!(idx.nearest(Point::new(0.8, 0.1)), Some(1));
        assert_eq!(idx.nearest(Point::new(-2.0, 3.0)), Some(3));
        assert!(GridIndex::build(&[], 1.0).nearest(Point::ORIGIN).is_none());
    }

    #[test]
    fn len_empty_and_point_access() {
        assert!(GridIndex::build(&[], 2.0).is_empty());
        let idx = GridIndex::build(&pts(), 2.0);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.point(3), Point::new(-3.0, 4.0));
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn build_from_keys_matches_build_exactly() {
        let points: Vec<Point> = (0..500)
            .map(|i| {
                let a = (i * 2654435761u64 as usize % 1000) as f64 / 37.0 - 13.0;
                let b = (i * 40503 % 997) as f64 / 29.0 - 17.0;
                Point::new(a, b)
            })
            .collect();
        // The last width spreads the box past the window budget, so both
        // directories are covered.
        for cell in [0.7, 1.0, 3.5, 1e-4] {
            let keys: Vec<(i64, i64)> = points
                .iter()
                .map(|&p| GridIndex::cell_key(p, cell))
                .collect();
            let a = GridIndex::build(&points, cell);
            let b = GridIndex::build_from_keys(&points, cell, &keys);
            assert_eq!(a.xs, b.xs);
            assert_eq!(a.ys, b.ys);
            assert_eq!(a.starts, b.starts);
            assert_eq!(a.order, b.order);
            assert_eq!(a.cxs, b.cxs);
            assert_eq!(a.cys, b.cys);
            assert_eq!(a.cells, b.cells);
            assert_eq!(a.window, b.window);
        }
    }

    #[test]
    fn window_ids_are_row_major() {
        // Cells filled in scrambled input order, with a gap in row 0.
        let points = vec![
            Point::new(3.5, 1.5),
            Point::new(0.5, 0.5),
            Point::new(2.5, 0.5),
            Point::new(0.5, 1.5),
            Point::new(1.5, 1.5),
            Point::new(2.2, 0.2),
            Point::new(1.5, 0.5),
        ];
        let idx = GridIndex::build(&points, 1.0);
        let win = idx.window.as_ref().expect("compact set gets the window");
        let id = |i: i64, j: i64| win.ids[((j - win.min.1) * win.w + (i - win.min.0)) as usize];
        // Adjacent occupied cells of a window row get consecutive ids,
        // and each row continues where the previous one stopped.
        assert_eq!([id(0, 0), id(1, 0), id(2, 0)], [0, 1, 2]);
        assert_eq!([id(0, 1), id(1, 1), id(2, 1), id(3, 1)], [3, 4, EMPTY, 5]);
        assert_eq!(idx.cell_members((2, 0)), &[2, 5]);
        // The walk follows the ids.
        let mut walked = Vec::new();
        idx.for_each_cell(|key, members| walked.push((key, members.to_vec())));
        let keys: Vec<(i64, i64)> = walked.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (3, 1)]);
        assert_eq!(walked[2].1, [2, 5]);
        // CSR ranges follow the ids: row 0 is one contiguous prefix.
        assert_eq!(&idx.order[..idx.starts[3] as usize], &[1, 6, 2, 5]);
    }

    #[test]
    #[should_panic(expected = "one key per point")]
    fn build_from_keys_rejects_length_mismatch() {
        GridIndex::build_from_keys(&pts(), 1.0, &[(0, 0)]);
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let points = vec![Point::new(-0.5, -0.5), Point::new(-1.5, -1.5)];
        let idx = GridIndex::build(&points, 1.0);
        let got: Vec<usize> = idx.within(Point::new(-1.0, -1.0), 0.8).collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn sparse_fallback_answers_like_the_window() {
        // Two tight clusters a million cells apart: the bounding box blows
        // the dense budget, forcing the CellMap path — results must match
        // brute force exactly, same as the windowed path does.
        let mut points: Vec<Point> = (0..40)
            .map(|i| Point::new((i % 8) as f64 * 0.4, (i / 8) as f64 * 0.4))
            .collect();
        points.extend(
            (0..40).map(|i| Point::new(1.0e6 + (i % 8) as f64 * 0.4, 1.0e6 + (i / 8) as f64 * 0.4)),
        );
        let idx = GridIndex::build(&points, 1.0);
        assert!(idx.window.is_none(), "bounding box must exceed the budget");
        for &q in &[
            Point::ORIGIN,
            Point::new(1.0e6 + 1.0, 1.0e6 + 1.0),
            Point::new(500.0, 500.0),
        ] {
            let got: Vec<usize> = idx.within(q, 1.5).collect();
            let want: Vec<usize> = (0..points.len())
                .filter(|&i| points[i].dist(q) <= 1.5 + freezetag_geometry::EPS)
                .collect();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn window_covers_compact_sets_and_rejects_outside_queries() {
        let points: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let idx = GridIndex::build(&points, 1.0);
        assert!(idx.window.is_some(), "compact set must get the window");
        // Far outside the box: clamp produces an empty scan.
        assert_eq!(idx.within(Point::new(500.0, -500.0), 2.0).count(), 0);
        // On the boundary, results still match brute force.
        let q = Point::new(9.5, 9.5);
        let got: Vec<usize> = idx.within(q, 1.0).collect();
        let want: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].dist(q) <= 1.0 + freezetag_geometry::EPS)
            .collect();
        assert_eq!(got, want);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The grid index agrees with brute force for arbitrary points,
            /// cell widths, query centres and radii — including radii much
            /// larger and much smaller than the cell width, and points
            /// sitting exactly on cell boundaries.
            #[test]
            fn within_matches_brute_force_always(
                raw in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 0..40),
                cell in 0.1f64..5.0,
                qx in -25.0f64..25.0,
                qy in -25.0f64..25.0,
                r in 0.0f64..30.0,
            ) {
                let pts: Vec<Point> = raw.into_iter().map(|(x, y)| Point::new(x, y)).collect();
                let idx = GridIndex::build(&pts, cell);
                let q = Point::new(qx, qy);
                let got: Vec<usize> = idx.within(q, r).collect();
                let want: Vec<usize> = (0..pts.len())
                    .filter(|&i| pts[i].dist(q) <= r + freezetag_geometry::EPS)
                    .collect();
                prop_assert_eq!(got, want);
            }

            /// The same agreement on the sparse directory: a far straggler
            /// stretches the bounding box past the window budget.
            #[test]
            fn within_matches_brute_force_on_the_sparse_directory(
                raw in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..40),
                cell in 0.1f64..5.0,
                qx in -25.0f64..25.0,
                qy in -25.0f64..25.0,
                r in 0.0f64..30.0,
            ) {
                let mut pts: Vec<Point> = raw.into_iter().map(|(x, y)| Point::new(x, y)).collect();
                pts.push(Point::new(1.0e7, -1.0e7));
                let idx = GridIndex::build(&pts, cell);
                prop_assert!(idx.window.is_none());
                let q = Point::new(qx, qy);
                let got: Vec<usize> = idx.within(q, r).collect();
                let want: Vec<usize> = (0..pts.len())
                    .filter(|&i| pts[i].dist(q) <= r + freezetag_geometry::EPS)
                    .collect();
                prop_assert_eq!(got, want);
            }

            /// Points landing exactly on integer cell boundaries are found
            /// at exactly boundary-touching radii.
            #[test]
            fn boundary_exactness(k in -10i32..10, cell in 0.5f64..3.0) {
                let p = Point::new(k as f64 * cell, 0.0);
                let idx = GridIndex::build(&[p], cell);
                let q = Point::new(p.x + cell, 0.0);
                let got: Vec<usize> = idx.within(q, cell).collect();
                prop_assert_eq!(got, vec![0usize]);
            }
        }
    }
}
