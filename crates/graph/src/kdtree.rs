//! A k-d tree for the connectivity threshold's exact passes: every
//! point's nearest neighbour, and the nearest point outside a component
//! (one Borůvka step).
//!
//! Searches prune a subtree only when a conservative lower bound on its
//! squared distance exceeds the current best, and decide every surviving
//! candidate with [`Point::dist`], so each answer is the exact minimum of
//! `Point::dist` over the pairs the caller admits, at any point density.

use freezetag_geometry::Point;

/// Points per leaf at most.
const LEAF: usize = 8;

/// Node label of a subtree whose points lie in more than one component.
const MIXED: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Bounding box of the subtree's points.
    lo: Point,
    hi: Point,
    /// The subtree's tree positions: `start..end`.
    start: u32,
    end: u32,
    /// First child (the second is `child + 1`); 0 for a leaf.
    child: u32,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.child == 0
    }

    /// A lower bound on the squared distance from `q` to any point of the
    /// subtree. Each axis gap is at most the coordinate difference of every
    /// point inside (float subtraction is monotone), so the bound never
    /// exceeds the `dist_sq` of a member.
    fn gap_sq(&self, q: Point) -> f64 {
        let dx = (self.lo.x - q.x).max(q.x - self.hi.x).max(0.0);
        let dy = (self.lo.y - q.y).max(q.y - self.hi.y).max(0.0);
        dx * dx + dy * dy
    }
}

/// The best candidate of a search: its [`Point::dist`] and tree positions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Best {
    pub(crate) dist: f64,
    pub(crate) from: u32,
    pub(crate) to: u32,
    /// `dist²` widened by a relative 1e-12 plus the smallest normal, so a
    /// squared test against it never rejects a pair whose `Point::dist` is
    /// `≤ dist` (both squares round within a few ulps, subnormals within
    /// one absolute step).
    reach_sq: f64,
    /// `dist²` narrowed the same way: a pair whose squared distance is below
    /// it has `Point::dist < dist`.
    inside_sq: f64,
}

impl Best {
    pub(crate) const NONE: Best = Best {
        dist: f64::INFINITY,
        from: 0,
        to: 0,
        reach_sq: f64::INFINITY,
        inside_sq: f64::INFINITY,
    };

    fn at(dist: f64, from: u32, to: u32) -> Best {
        let sq = dist * dist;
        Best {
            dist,
            from,
            to,
            reach_sq: sq * (1.0 + 1e-12) + f64::MIN_POSITIVE,
            // Finite even when `dist²` overflows: below `MAX / 2`, `dist`
            // is well under the overflowing one.
            inside_sq: (sq * (1.0 - 1e-12) - f64::MIN_POSITIVE).min(f64::MAX / 2.0),
        }
    }

    /// Whether `Point::dist(p, q) ≤ dist`, deciding with `Point::dist` only
    /// when the squared distance is too close to call.
    fn reaches(&self, p: Point, q: Point) -> bool {
        #[cfg(test)]
        crate::params::probe::record(|p| p.pairs += 1);
        let sq = p.dist_sq(q);
        sq < self.inside_sq || (sq <= self.reach_sq && p.dist(q) <= self.dist)
    }

    fn offer(&mut self, from: u32, to: u32, p: Point, q: Point) {
        #[cfg(test)]
        crate::params::probe::record(|p| p.pairs += 1);
        if p.dist_sq(q) <= self.reach_sq {
            let d = p.dist(q);
            if d < self.dist {
                *self = Best::at(d, from, to);
            }
        }
    }
}

/// A median-split k-d tree over a point set, nodes in breadth-first order
/// (children after their parent), points permuted into tree order.
pub(crate) struct KdTree {
    /// Tree position `k` holds a point and its input index.
    items: Vec<(Point, u32)>,
    nodes: Vec<Node>,
}

impl KdTree {
    /// Builds the tree over at least one point. Splits run top-down on
    /// the wider side of a box cut from the parent's at each median; the
    /// tight boxes the searches prune with are then filled bottom-up.
    pub(crate) fn build(points: &[Point]) -> KdTree {
        let mut items: Vec<(Point, u32)> = points.iter().zip(0..).map(|(&p, i)| (p, i)).collect();
        let (mut lo, mut hi) = (points[0], points[0]);
        for &p in points {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let mut nodes = vec![Node {
            lo,
            hi,
            start: 0,
            end: points.len() as u32,
            child: 0,
        }];
        let mut next = 0;
        while next < nodes.len() {
            let Node {
                lo, hi, start, end, ..
            } = nodes[next];
            next += 1;
            let span = &mut items[start as usize..end as usize];
            if span.len() <= LEAF {
                continue;
            }
            let mid = span.len() / 2;
            let (mut left_hi, mut right_lo) = (hi, lo);
            if hi.x - lo.x >= hi.y - lo.y {
                span.select_nth_unstable_by(mid, |a, b| a.0.x.total_cmp(&b.0.x));
                (left_hi.x, right_lo.x) = (span[mid].0.x, span[mid].0.x);
            } else {
                span.select_nth_unstable_by(mid, |a, b| a.0.y.total_cmp(&b.0.y));
                (left_hi.y, right_lo.y) = (span[mid].0.y, span[mid].0.y);
            }
            nodes[next - 1].child = nodes.len() as u32;
            let mid = start + mid as u32;
            nodes.push(Node {
                lo,
                hi: left_hi,
                start,
                end: mid,
                child: 0,
            });
            nodes.push(Node {
                lo: right_lo,
                hi,
                start: mid,
                end,
                child: 0,
            });
        }
        for id in (0..nodes.len()).rev() {
            let node = nodes[id];
            let (lo, hi) = if node.is_leaf() {
                let span = &items[node.start as usize..node.end as usize];
                span.iter()
                    .fold((span[0].0, span[0].0), |(lo, hi), &(p, _)| {
                        (
                            Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                            Point::new(hi.x.max(p.x), hi.y.max(p.y)),
                        )
                    })
            } else {
                let (a, b) = (nodes[node.child as usize], nodes[node.child as usize + 1]);
                (
                    Point::new(a.lo.x.min(b.lo.x), a.lo.y.min(b.lo.y)),
                    Point::new(a.hi.x.max(b.hi.x), a.hi.y.max(b.hi.y)),
                )
            };
            nodes[id].lo = lo;
            nodes[id].hi = hi;
        }
        KdTree { items, nodes }
    }

    /// Number of nodes; [`KdTree::label`] fills one label per node.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn point(&self, k: u32) -> Point {
        self.items[k as usize].0
    }

    /// The input index of tree position `k`.
    pub(crate) fn input_index(&self, k: u32) -> usize {
        self.items[k as usize].1 as usize
    }

    /// The largest nearest-neighbour distance `L = max_p min_{q≠p}
    /// dist(p, q)` over at least two points. A point is searched only while
    /// its nearest neighbour could still raise the running maximum, which a
    /// neighbour in its own leaf within the maximum rules out.
    pub(crate) fn max_nearest_neighbour(&self) -> f64 {
        let mut stack = Vec::new();
        let mut max = Best::at(0.0, 0, 0);
        for leaf in self.nodes.iter().filter(|n| n.is_leaf()) {
            for k in leaf.start..leaf.end {
                let q = self.point(k);
                let covered =
                    (leaf.start..leaf.end).any(|j| j != k && max.reaches(q, self.point(j)));
                if !covered {
                    let mut best = Best::NONE;
                    self.search(k, &mut best, max.dist, &mut stack, |_| false, |j| j == k);
                    if best.dist > max.dist {
                        max = best;
                    }
                }
            }
        }
        max.dist
    }

    /// Labels every node with the component its points share, or
    /// [`MIXED`]; `comp[k]` is the component of tree position `k`.
    pub(crate) fn label(&self, comp: &[u32], labels: &mut [u32]) {
        for (id, node) in self.nodes.iter().enumerate().rev() {
            labels[id] = if node.is_leaf() {
                let first = comp[node.start as usize];
                let same = comp[node.start as usize..node.end as usize]
                    .iter()
                    .all(|&c| c == first);
                if same {
                    first
                } else {
                    MIXED
                }
            } else {
                let (a, b) = (labels[node.child as usize], labels[node.child as usize + 1]);
                if a == b {
                    a
                } else {
                    MIXED
                }
            };
        }
    }

    /// Improves `best` with the nearest point to position `k` outside its
    /// component `comp[k]`: subtrees labelled with that component are
    /// pruned whole.
    pub(crate) fn nearest_foreign(
        &self,
        k: u32,
        comp: &[u32],
        labels: &[u32],
        best: &mut Best,
        stack: &mut Vec<(u32, f64)>,
    ) {
        let own = comp[k as usize];
        self.search(
            k,
            best,
            0.0,
            stack,
            |node| labels[node] == own,
            |j| comp[j as usize] == own,
        );
    }

    /// Nearest-first depth-first search from position `k`, passing over the
    /// nodes `skip_node` names and the positions `skip` names, improving
    /// `best` and stopping once `best.dist ≤ stop`.
    fn search(
        &self,
        k: u32,
        best: &mut Best,
        stop: f64,
        stack: &mut Vec<(u32, f64)>,
        skip_node: impl Fn(usize) -> bool,
        skip: impl Fn(u32) -> bool,
    ) {
        let q = self.point(k);
        stack.clear();
        stack.push((0, 0.0));
        while let Some((id, gap)) = stack.pop() {
            if gap > best.reach_sq || skip_node(id as usize) {
                continue;
            }
            let node = &self.nodes[id as usize];
            if node.is_leaf() {
                self.scan(node, k, best, &skip);
                if best.dist <= stop {
                    return;
                }
                continue;
            }
            let (a, b) = (node.child, node.child + 1);
            let (ga, gb) = (
                self.nodes[a as usize].gap_sq(q),
                self.nodes[b as usize].gap_sq(q),
            );
            // Nearer child on top.
            if ga <= gb {
                stack.extend([(b, gb), (a, ga)]);
            } else {
                stack.extend([(a, ga), (b, gb)]);
            }
        }
    }

    fn scan(&self, leaf: &Node, k: u32, best: &mut Best, skip: impl Fn(u32) -> bool) {
        let q = self.point(k);
        for j in leaf.start..leaf.end {
            if !skip(j) {
                best.offer(k, j, q, self.point(j));
            }
        }
    }
}
