//! GLS-style anytime optimizer over wake trees: parallel local search
//! with delta evaluation.
//!
//! The constructive strategies ([`crate::WakeStrategy`]) build one tree
//! and stop; this module *improves* a tree by local moves until an
//! iteration budget, a strike limit, or a wall-clock deadline is hit —
//! the strong centralized baseline the competitive-ratio tables need.
//!
//! # Search model
//!
//! [`anytime_wake_tree`] runs a fixed number of logical *streams*
//! ([`AnytimeConfig::streams`]), each owning a candidate [`OptTree`] and
//! an RNG deterministically split from `(seed, stream_id)`. Streams run
//! *rounds* of random local moves — [subtree reassignment](OptTree::reassign)
//! and [wake-order swaps](OptTree::swap) under an only-improving
//! acceptance rule — and exchange the globally best tree at every round
//! barrier: the best stream's tree (ties to the lowest stream id)
//! replaces every candidate that is strictly worse. A global strike
//! counter stops the search after [`AnytimeConfig::strike_limit`]
//! consecutive rounds without improvement.
//!
//! The streams are mapped onto a [`ParPool`] one stream per batch, so the
//! pool width is an execution lever only: **the best tree is
//! byte-identical at any worker count** — the same two-axis contract as
//! the rest of the workspace (`--sim-threads`, `--threads`).
//!
//! # Delta evaluation
//!
//! The perf core is the cached per-subtree completion time
//! ([`OptTree`]'s `height` array): a local move re-evaluates only the
//! paths from the touched nodes to the root — `O(depth)` instead of the
//! `O(n)` full-tree DFS of [`WakeTree::makespan`]. The cache is pinned
//! bit-equal to a full recomputation ([`OptTree::oracle_makespan`],
//! [`OptTree::cache_matches_oracle`]) by the workspace proptest suite.
//!
//! # Critical-chain filter
//!
//! Nearly every random move is rejected, so each stream marks one
//! critical root-to-leaf chain (at each node, the first child whose edge
//! plus height equals the node's height bit for bit) and applies only
//! moves that touch it: a reassignment whose moved node is on the chain,
//! a swap with a slot on the chain. Any other move keeps every chain
//! edge, so the chain's heights can only stay or rise (`+` and
//! `f64::max` are monotone) and the move could not have been accepted;
//! skipping it instead of applying and reverting it leaves the same
//! bits. Skipped moves still draw from the RNG and count as tried, so the
//! search is byte-identical to the unfiltered one.
//!
//! # Cancellation
//!
//! Two tokens with different contracts: the *ambient* engine token
//! aborts the job with [`Cancelled::unwind`] (no partial result — a
//! cancelled sweep job never pollutes the result cache), while the
//! optional [`AnytimeConfig::time_budget`] arms an internal deadline
//! that stops the search cleanly at the best-so-far tree (the *anytime*
//! contract behind `dftp solve --time-budget`). Both are polled at round
//! barriers only, so a run's reachable states stay deterministic; under
//! a time budget the number of completed rounds is wall-clock dependent,
//! under a pure iteration budget the result is fully reproducible.

use crate::{WakeStrategy, WakeTree};
use freezetag_geometry::Point;
use freezetag_sim::{CancelToken, Cancelled, ParPool, RobotId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::Duration;

/// Sentinel for "no node" in [`OptTree`]'s parent/children arrays.
const NONE: usize = usize::MAX;

/// Tuning knobs of [`anytime_wake_tree`]. The defaults keep a sweep job
/// deterministic and cheap; the CLI raises budgets explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimeConfig {
    /// Logical search streams. Fixed independently of the pool width —
    /// this count (not the thread count) is what shapes the search, so
    /// results are byte-identical at any [`ParPool`] width.
    pub streams: usize,
    /// Round barriers (best-tree exchange points).
    pub rounds: usize,
    /// Move attempts per stream per round.
    pub moves_per_round: usize,
    /// Consecutive rounds without a global improvement before stopping.
    pub strike_limit: usize,
    /// Seed one stream with the `O(n³)` earliest-finish greedy when
    /// `n` is at most this; larger instances start from the fast
    /// divide-and-conquer trees only.
    pub greedy_init_max_n: usize,
    /// Optional anytime deadline: the search stops cleanly at the best
    /// tree so far once this much wall clock has elapsed. `None` runs
    /// the full iteration budget (fully reproducible).
    pub time_budget: Option<Duration>,
}

impl Default for AnytimeConfig {
    fn default() -> Self {
        AnytimeConfig {
            streams: 8,
            rounds: 16,
            moves_per_round: 1000,
            strike_limit: 3,
            greedy_init_max_n: 2500,
            time_budget: None,
        }
    }
}

/// What one [`anytime_wake_tree`] run produced, plus its search counters.
#[derive(Debug, Clone)]
pub struct AnytimeReport {
    /// The best tree found (at least as good as every initial tree).
    pub tree: WakeTree,
    /// Makespan of the best *initial* tree, before any move.
    pub initial_makespan: f64,
    /// Makespan of [`AnytimeReport::tree`] as the optimizer evaluated it
    /// (bit-equal to a bottom-up recomputation; [`WakeTree::makespan`]'s
    /// top-down accumulation may differ in the last ulp).
    pub makespan: f64,
    /// Rounds completed before a budget, strike limit, or deadline hit.
    pub rounds_run: usize,
    /// Local moves attempted across all streams (invalid proposals count).
    pub moves_tried: u64,
    /// Local moves that passed the critical-chain filter and were applied
    /// (and so evaluated): the optimizer's real work.
    pub moves_evaluated: u64,
    /// Local moves accepted (strict improvements).
    pub moves_accepted: u64,
}

/// A wake tree in the optimizer's mutable representation: parent
/// pointers, fixed-arity child slots, and the cached per-subtree
/// completion time that makes move evaluation `O(depth)`.
///
/// `height[v]` is the time from reaching `v` until the last robot of
/// `v`'s subtree is woken: `0` for a leaf, else the max over children
/// `c` of `dist(pos(v), pos(c)) + height[c]`. The tree's makespan is
/// `height[root]` (the root holds the already-awake source).
///
/// The arity invariant of [`WakeTree`] is preserved by every move: the
/// root keeps at most one child, every other node at most two.
#[derive(Debug, PartialEq)]
pub struct OptTree {
    robot: Vec<RobotId>,
    pos: Vec<Point>,
    parent: Vec<usize>,
    children: Vec<[usize; 2]>,
    n_children: Vec<u8>,
    height: Vec<f64>,
}

impl Clone for OptTree {
    fn clone(&self) -> Self {
        OptTree {
            robot: self.robot.clone(),
            pos: self.pos.clone(),
            parent: self.parent.clone(),
            children: self.children.clone(),
            n_children: self.n_children.clone(),
            height: self.height.clone(),
        }
    }

    /// Copies into `self`'s existing allocations: the round-barrier
    /// exchange copies whole trees of one size, so no copy allocates.
    fn clone_from(&mut self, source: &Self) {
        self.robot.clone_from(&source.robot);
        self.pos.clone_from(&source.pos);
        self.parent.clone_from(&source.parent);
        self.children.clone_from(&source.children);
        self.n_children.clone_from(&source.n_children);
        self.height.clone_from(&source.height);
    }
}

impl OptTree {
    /// Converts a [`WakeTree`] (node ids are preserved: parents precede
    /// children, the root is node 0) and fills the height cache.
    pub fn from_wake_tree(tree: &WakeTree) -> Self {
        let len = tree.len();
        let mut t = OptTree {
            robot: (0..len).map(|v| tree.robot(v)).collect(),
            pos: (0..len).map(|v| tree.pos(v)).collect(),
            parent: vec![NONE; len],
            children: vec![[NONE; 2]; len],
            n_children: vec![0; len],
            height: vec![0.0; len],
        };
        for v in 0..len {
            for &c in tree.children(v) {
                t.children[v][t.n_children[v] as usize] = c;
                t.n_children[v] += 1;
                t.parent[c] = v;
            }
            t.sort_slots(v);
        }
        // `add_child` only ever appends nodes under existing ones, so
        // every parent id is smaller than its children's: reverse index
        // order is a valid bottom-up pass.
        for v in (0..len).rev() {
            t.recompute_height(v);
        }
        t
    }

    /// Converts back to a [`WakeTree`] by a DFS from the root: visiting a
    /// node inserts all of its children, last slot first, so parents
    /// precede children — a deterministic function of the tree state.
    pub fn to_wake_tree(&self) -> WakeTree {
        let mut out = WakeTree::new(self.pos[0]);
        let mut new_id = vec![NONE; self.len()];
        new_id[0] = WakeTree::ROOT;
        // After reassignments a parent's index may exceed its child's,
        // so raw index order is not insertion-safe; walk an explicit
        // DFS from the root instead.
        let mut stack = vec![0usize];
        while let Some(v) = stack.pop() {
            for slot in (0..self.n_children[v] as usize).rev() {
                let c = self.children[v][slot];
                let id = out.add_child(new_id[v], self.robot[c], self.pos[c]);
                new_id[c] = id;
                stack.push(c);
            }
        }
        out
    }

    /// Total node count, including the root.
    pub fn len(&self) -> usize {
        self.robot.len()
    }

    /// Whether only the root is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// The cached makespan: `height[root]`, maintained incrementally.
    pub fn makespan(&self) -> f64 {
        self.height[0]
    }

    /// The parent of node `v`, or `None` for the root — what a caller
    /// needs to revert a [`OptTree::reassign`] (the benches drive the
    /// apply/revert loop from outside the crate).
    pub fn parent(&self, v: usize) -> Option<usize> {
        if v == 0 {
            None
        } else {
            Some(self.parent[v])
        }
    }

    /// Full `O(n)` bottom-up recomputation of the makespan, ignoring the
    /// cache — the oracle the delta evaluation is pinned against.
    pub fn oracle_makespan(&self) -> f64 {
        self.oracle_heights()[0]
    }

    /// Whether every cached height is bit-equal to a full recomputation.
    pub fn cache_matches_oracle(&self) -> bool {
        let oracle = self.oracle_heights();
        self.height
            .iter()
            .zip(&oracle)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn oracle_heights(&self) -> Vec<f64> {
        // Bottom-up over a DFS post-order (indices are not ordered by
        // depth once moves have run).
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![0usize];
        while let Some(v) = stack.pop() {
            order.push(v);
            for slot in 0..self.n_children[v] as usize {
                stack.push(self.children[v][slot]);
            }
        }
        let mut heights = vec![0.0f64; self.len()];
        for &v in order.iter().rev() {
            let mut h = 0.0f64;
            for slot in 0..self.n_children[v] as usize {
                let c = self.children[v][slot];
                h = h.max(self.pos[v].dist(self.pos[c]) + heights[c]);
            }
            heights[v] = h;
        }
        heights
    }

    fn capacity(v: usize) -> usize {
        if v == 0 {
            1
        } else {
            2
        }
    }

    /// Keeps a node's child slots sorted by index — the canonical form
    /// that makes apply/revert exactly involutive (detach-compaction
    /// plus sorted re-insertion always lands back on the same slots).
    /// Child order never affects makespan (height is a max).
    fn sort_slots(&mut self, v: usize) {
        if self.n_children[v] == 2 && self.children[v][0] > self.children[v][1] {
            self.children[v].swap(0, 1);
        }
    }

    fn recompute_height(&mut self, v: usize) {
        let mut h = 0.0f64;
        for slot in 0..self.n_children[v] as usize {
            let c = self.children[v][slot];
            h = h.max(self.pos[v].dist(self.pos[c]) + self.height[c]);
        }
        self.height[v] = h;
    }

    /// Recomputes heights from `v` to the root — the `O(depth)` delta
    /// pass every move is built on.
    fn bubble_up(&mut self, mut v: usize) {
        loop {
            self.recompute_height(v);
            if v == 0 {
                break;
            }
            v = self.parent[v];
        }
    }

    /// Whether `candidate` lies in the subtree rooted at `v` (including
    /// `v` itself). `O(depth)` ancestor walk.
    fn in_subtree(&self, candidate: usize, v: usize) -> bool {
        let mut x = candidate;
        loop {
            if x == v {
                return true;
            }
            if x == 0 {
                return false;
            }
            x = self.parent[x];
        }
    }

    /// Subtree reassignment: detaches the subtree rooted at `v` and
    /// re-attaches it under `new_parent`. Returns `false` (tree
    /// untouched) when the move is invalid: `v` is the root, the target
    /// is `v`'s current parent, the target has no free child slot, or
    /// the target lies inside `v`'s own subtree (which would disconnect
    /// it). On success both affected root paths are re-evaluated in
    /// `O(depth)`.
    ///
    /// The move is its own inverse: `reassign(v, old_parent)` restores
    /// the previous tree (and, because heights are recomputed from the
    /// same inputs, the exact cache bits).
    pub fn reassign(&mut self, v: usize, new_parent: usize) -> bool {
        if v == 0 || new_parent == self.parent[v] {
            return false;
        }
        if (self.n_children[new_parent] as usize) >= Self::capacity(new_parent) {
            return false;
        }
        if self.in_subtree(new_parent, v) {
            return false;
        }
        let p = self.parent[v];
        // Detach, keeping the remaining sibling (if any) in slot 0.
        if self.children[p][0] == v {
            self.children[p][0] = self.children[p][1];
        }
        self.children[p][1] = NONE;
        self.n_children[p] -= 1;
        // Attach (child slots stay sorted — the canonical form).
        self.children[new_parent][self.n_children[new_parent] as usize] = v;
        self.n_children[new_parent] += 1;
        self.sort_slots(new_parent);
        self.parent[v] = new_parent;
        // v's own subtree heights are unchanged; both former and new
        // ancestor chains must be re-evaluated. Shared ancestors are
        // recomputed twice — the second pass sees only current values.
        self.bubble_up(p);
        self.bubble_up(new_parent);
        true
    }

    /// Wake-order swap: exchanges which robots are woken at tree slots
    /// `a` and `b` (payload swap — structure is untouched, the four-ish
    /// edges around `a` and `b` change weight). Returns `false` when a
    /// slot is the root or `a == b`. Applying the same swap again
    /// restores the previous tree and cache bits.
    pub fn swap(&mut self, a: usize, b: usize) -> bool {
        if a == 0 || b == 0 || a == b {
            return false;
        }
        self.robot.swap(a, b);
        self.pos.swap(a, b);
        // Each bubble starts at the touched node (its child edges moved
        // with its position); shared ancestors settle on the second pass.
        self.bubble_up(a);
        self.bubble_up(b);
        true
    }

    /// Writes one critical root-to-leaf chain into `out`, root first: from
    /// each node it follows the first child slot whose edge plus cached
    /// height equals the node's height bit for bit. Returns `false` when
    /// some node has no such child (a NaN coordinate, say); `out` then
    /// holds only a prefix of a chain.
    fn critical_chain(&self, out: &mut Vec<usize>) -> bool {
        out.clear();
        let mut v = 0;
        loop {
            out.push(v);
            let height = self.height[v].to_bits();
            let slots = &self.children[v][..self.n_children[v] as usize];
            if slots.is_empty() {
                return true;
            }
            match slots
                .iter()
                .find(|&&c| (self.pos[v].dist(self.pos[c]) + self.height[c]).to_bits() == height)
            {
                Some(&c) => v = c,
                None => return false,
            }
        }
    }
}

/// One logical search stream: a candidate tree plus its private RNG.
struct Stream {
    tree: OptTree,
    rng: StdRng,
    /// `critical[v]`: whether node `v` lies on the marked critical chain
    /// (every entry is set when no chain could be marked).
    critical: Vec<bool>,
    /// The marked chain, root first; empty before the first mark and when
    /// every node is marked (the next mark then clears all of `critical`).
    chain: Vec<usize>,
    moves_tried: u64,
    moves_evaluated: u64,
    moves_accepted: u64,
}

impl Stream {
    fn new(tree: OptTree, seed: u64) -> Self {
        Stream {
            critical: vec![false; tree.len()],
            chain: Vec::new(),
            tree,
            rng: StdRng::seed_from_u64(seed),
            moves_tried: 0,
            moves_evaluated: 0,
            moves_accepted: 0,
        }
    }

    /// Re-marks [`Stream::critical`] for the current tree. A tree whose
    /// chain cannot be traced marks every node, which turns the filter
    /// off instead of guessing.
    fn mark_critical_chain(&mut self) {
        if self.chain.is_empty() {
            self.critical.fill(false);
        } else {
            for &v in &self.chain {
                self.critical[v] = false;
            }
        }
        if self.tree.critical_chain(&mut self.chain) {
            for &v in &self.chain {
                self.critical[v] = true;
            }
        } else {
            self.chain.clear();
            self.critical.fill(true);
        }
    }

    /// Runs one round of random local moves under only-improving
    /// acceptance; returns the resulting makespan. Moves that miss the
    /// critical chain are drawn and counted but never applied (see the
    /// [module docs](self)).
    fn run_round(&mut self, moves: usize) -> f64 {
        let len = self.tree.len();
        if len <= 2 {
            // 0 or 1 robots: no move can change anything.
            return self.tree.makespan();
        }
        self.mark_critical_chain();
        for _ in 0..moves {
            self.moves_tried += 1;
            let before = self.tree.makespan();
            let reassign = self.rng.gen_range(0..2u32) == 0;
            let a = self.rng.gen_range(1..len);
            let b = self.rng.gen_range(if reassign { 0 } else { 1 }..len);
            // A reassignment must move a chain node; a swap must touch one.
            if !(self.critical[a] || (!reassign && self.critical[b])) {
                continue;
            }
            let p = self.tree.parent[a];
            let applied = if reassign {
                self.tree.reassign(a, b)
            } else {
                self.tree.swap(a, b)
            };
            if !applied {
                continue;
            }
            self.moves_evaluated += 1;
            if self.tree.makespan() < before {
                self.moves_accepted += 1;
                self.mark_critical_chain();
            } else {
                let ok = if reassign {
                    self.tree.reassign(a, p)
                } else {
                    self.tree.swap(a, b)
                };
                debug_assert!(ok, "revert must apply");
            }
        }
        self.tree.makespan()
    }
}

/// Splitmix64 finalizer: the per-stream RNG seed from `(seed, stream)`.
fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The start strategy of stream `i`: the fast quadtree for most streams,
/// with the median split (stream 1) and — on small instances — the
/// strong `O(n³)` greedy (stream 0) mixed in for diversity. The greedy
/// seed is what makes the optimizer dominate the greedy baseline by
/// construction wherever that baseline is tractable.
fn start_strategy(i: usize, n: usize, config: &AnytimeConfig) -> WakeStrategy {
    match i {
        0 if n <= config.greedy_init_max_n => WakeStrategy::Greedy,
        1 => WakeStrategy::MedianSplit,
        _ => WakeStrategy::Quadtree,
    }
}

/// The initial tree of every stream. Each distinct start tree is built
/// and converted once; streams take clones, and the last stream of a
/// strategy takes the original, so no template outlives the streams.
///
/// The builds run on the calling thread. Building them concurrently on
/// the job's pool saved ~10 % of an n = 10⁴ job, but the pool threads'
/// allocator arenas kept the build buffers resident and raised the
/// process's peak RSS by ~3 MB (a third).
fn initial_trees(
    root_pos: Point,
    items: &[(RobotId, Point)],
    config: &AnytimeConfig,
) -> Vec<OptTree> {
    let starts: Vec<WakeStrategy> = (0..config.streams)
        .map(|i| start_strategy(i, items.len(), config))
        .collect();
    let mut built: Vec<(WakeStrategy, Option<OptTree>)> = Vec::new();
    for &s in &starts {
        if !built.iter().any(|(b, _)| *b == s) {
            built.push((s, Some(OptTree::from_wake_tree(&s.build(root_pos, items)))));
        }
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let slot = &mut built.iter_mut().find(|(b, _)| b == s).expect("built").1;
            if starts[i + 1..].contains(s) {
                slot.clone().expect("taken by the last user only")
            } else {
                slot.take().expect("taken once")
            }
        })
        .collect()
}

/// Runs the parallel anytime optimizer; see the [module docs](self).
///
/// `seed` shapes every stream's RNG (split as `(seed, stream_id)`);
/// `pool` only maps the fixed logical streams onto threads, so the
/// result is byte-identical at any pool width. The ambient `cancel`
/// token aborts the job via [`Cancelled::unwind`] with no result; the
/// config's own [`AnytimeConfig::time_budget`] instead stops cleanly at
/// the best-so-far tree.
///
/// # Panics
///
/// Panics if `config.streams`, `config.rounds` or
/// `config.moves_per_round` is 0 (user-facing layers reject these
/// before this is reached), and unwinds with [`Cancelled`] when the
/// ambient token fires.
pub fn anytime_wake_tree(
    root_pos: Point,
    items: &[(RobotId, Point)],
    config: &AnytimeConfig,
    seed: u64,
    pool: &ParPool,
    cancel: &CancelToken,
) -> AnytimeReport {
    search(
        root_pos,
        items,
        config,
        seed,
        pool,
        cancel,
        Stream::run_round,
    )
}

/// The search loop behind [`anytime_wake_tree`], generic over the
/// round body so the tests can run the unfiltered reference round.
fn search(
    root_pos: Point,
    items: &[(RobotId, Point)],
    config: &AnytimeConfig,
    seed: u64,
    pool: &ParPool,
    cancel: &CancelToken,
    run_round: fn(&mut Stream, usize) -> f64,
) -> AnytimeReport {
    assert!(config.streams >= 1, "anytime needs at least one stream");
    assert!(config.rounds >= 1, "anytime needs at least one round");
    assert!(
        config.moves_per_round >= 1,
        "anytime needs at least one move per round"
    );
    let deadline = match config.time_budget {
        Some(budget) => CancelToken::with_deadline(budget),
        None => CancelToken::never(),
    };
    let streams: Vec<Mutex<Stream>> = initial_trees(root_pos, items, config)
        .into_iter()
        .enumerate()
        .map(|(i, tree)| Mutex::new(Stream::new(tree, split_seed(seed, i as u64))))
        .collect();

    // Global best: strictly smallest makespan, ties to the lowest
    // stream id (the iteration order below).
    let mut best_makespan = f64::INFINITY;
    let mut best_tree: Option<OptTree> = None;
    for s in &streams {
        let s = s.lock().expect("stream lock");
        if s.tree.makespan() < best_makespan {
            best_makespan = s.tree.makespan();
            best_tree = Some(s.tree.clone());
        }
    }
    let mut best_tree = best_tree.expect("at least one stream");
    let initial_makespan = best_makespan;

    let mut rounds_run = 0;
    let mut strikes = 0;
    for _ in 0..config.rounds {
        if cancel.should_stop(true) {
            // Engine-owned cancellation: no partial result may escape
            // (the job either completes bit-identically or not at all).
            Cancelled::unwind();
        }
        if deadline.should_stop(true) {
            break; // anytime: return the best tree found so far
        }
        // One stream per batch: each worker locks a distinct stream, so
        // the pool adds concurrency without contention, and the
        // makespans come back in stream order at any width.
        let makespans = pool.map_batches(&streams, 1, |_, chunk| {
            let mut s = chunk[0].lock().expect("stream lock");
            run_round(&mut s, config.moves_per_round)
        });
        rounds_run += 1;
        let mut improved = false;
        for (i, &m) in makespans.iter().enumerate() {
            if m < best_makespan {
                best_makespan = m;
                best_tree.clone_from(&streams[i].lock().expect("stream lock").tree);
                improved = true;
            }
        }
        if improved {
            strikes = 0;
        } else {
            strikes += 1;
            if strikes >= config.strike_limit {
                break;
            }
        }
        // Exchange: strictly worse streams restart from the global best.
        for s in &streams {
            let mut s = s.lock().expect("stream lock");
            if s.tree.makespan() > best_makespan {
                s.tree.clone_from(&best_tree);
            }
        }
    }

    let mut report = AnytimeReport {
        tree: best_tree.to_wake_tree(),
        initial_makespan,
        makespan: best_makespan,
        rounds_run,
        moves_tried: 0,
        moves_evaluated: 0,
        moves_accepted: 0,
    };
    for s in &streams {
        let s = s.lock().expect("stream lock");
        report.moves_tried += s.moves_tried;
        report.moves_evaluated += s.moves_evaluated;
        report.moves_accepted += s.moves_accepted;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy_wake_tree, quadtree_wake_tree};
    use proptest::prelude::*;

    fn random_items(n: usize, radius: f64, seed: u64) -> Vec<(RobotId, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(-radius..radius);
                let y: f64 = rng.gen_range(-radius..radius);
                (RobotId::sleeper(i), Point::new(x, y))
            })
            .collect()
    }

    fn run(items: &[(RobotId, Point)], config: &AnytimeConfig, threads: usize) -> AnytimeReport {
        anytime_wake_tree(
            Point::ORIGIN,
            items,
            config,
            7,
            &ParPool::new(threads),
            &CancelToken::never(),
        )
    }

    #[test]
    fn round_trip_preserves_tree_and_makespan_cache() {
        let items = random_items(80, 20.0, 3);
        let tree = quadtree_wake_tree(Point::ORIGIN, &items);
        let opt = OptTree::from_wake_tree(&tree);
        assert!(opt.cache_matches_oracle());
        let back = opt.to_wake_tree();
        assert_eq!(back.robot_count(), tree.robot_count());
        assert_eq!(back.woken_robots(), tree.woken_robots());
        assert_eq!(back.makespan().to_bits(), tree.makespan().to_bits());
    }

    #[test]
    fn moves_keep_the_cache_consistent_and_are_invertible() {
        let items = random_items(60, 15.0, 5);
        let mut opt = OptTree::from_wake_tree(&quadtree_wake_tree(Point::ORIGIN, &items));
        let snapshot = opt.clone();
        let mut rng = StdRng::seed_from_u64(11);
        let len = opt.len();
        let mut log: Vec<(u8, usize, usize, usize)> = Vec::new();
        for _ in 0..500 {
            if rng.gen_bool(0.5) {
                let v = rng.gen_range(1..len);
                let u = rng.gen_range(0..len);
                let p = opt.parent[v];
                if opt.reassign(v, u) {
                    log.push((0, v, u, p));
                }
            } else {
                let a = rng.gen_range(1..len);
                let b = rng.gen_range(1..len);
                if opt.swap(a, b) {
                    log.push((1, a, b, 0));
                }
            }
            assert!(opt.cache_matches_oracle(), "cache drifted after a move");
        }
        assert!(!log.is_empty(), "no move applied — test is vacuous");
        // Unwind the full move log: the exact starting state returns.
        for &(kind, x, y, p) in log.iter().rev() {
            let ok = if kind == 0 {
                opt.reassign(x, p)
            } else {
                opt.swap(x, y)
            };
            assert!(ok, "inverse move must apply");
        }
        assert_eq!(opt, snapshot, "move log unwind must restore the tree");
    }

    #[test]
    fn reassign_rejects_structurally_invalid_moves() {
        // Chain: root -> a -> b -> c.
        let mut t = WakeTree::new(Point::ORIGIN);
        let a = t.add_child(WakeTree::ROOT, RobotId::sleeper(0), Point::new(1.0, 0.0));
        let b = t.add_child(a, RobotId::sleeper(1), Point::new(2.0, 0.0));
        let c = t.add_child(b, RobotId::sleeper(2), Point::new(3.0, 0.0));
        let mut opt = OptTree::from_wake_tree(&t);
        assert!(!opt.reassign(0, a), "root cannot move");
        assert!(!opt.reassign(b, a), "already the parent");
        assert!(!opt.reassign(a, c), "target inside own subtree");
        assert!(!opt.reassign(c, 0), "root already has one child");
        assert!(!opt.swap(a, a), "self-swap rejected");
        assert!(!opt.swap(0, a), "root payload is pinned");
        // A valid move: c re-parented under a (a has one free slot).
        assert!(opt.reassign(c, a));
        assert!(opt.cache_matches_oracle());
        assert_eq!(opt.to_wake_tree().woken_robots().len(), 3);
    }

    #[test]
    fn optimizer_improves_and_never_regresses() {
        let items = random_items(120, 25.0, 1);
        let report = run(&items, &AnytimeConfig::default(), 2);
        assert!(report.makespan <= report.initial_makespan);
        assert!(report.moves_accepted > 0, "no improving move on n=120");
        assert!(report.rounds_run >= 1);
        let tree = &report.tree;
        assert_eq!(tree.robot_count(), 120);
        assert_eq!(tree.woken_robots().len(), 120);
        // The reported makespan is the optimizer's own (bottom-up)
        // evaluation of the same tree: agreement up to accumulation
        // order.
        assert!((tree.makespan() - report.makespan).abs() <= 1e-9 * report.makespan.max(1.0));
    }

    #[test]
    fn result_is_byte_identical_at_any_pool_width() {
        let items = random_items(90, 18.0, 9);
        let config = AnytimeConfig {
            rounds: 6,
            moves_per_round: 300,
            ..AnytimeConfig::default()
        };
        let base = run(&items, &config, 1);
        for threads in [2, 4] {
            let other = run(&items, &config, threads);
            assert_eq!(base.tree, other.tree, "threads={threads}");
            assert_eq!(
                base.makespan.to_bits(),
                other.makespan.to_bits(),
                "threads={threads}"
            );
            assert_eq!(base.moves_tried, other.moves_tried);
            assert_eq!(base.moves_evaluated, other.moves_evaluated);
            assert_eq!(base.moves_accepted, other.moves_accepted);
            assert_eq!(base.rounds_run, other.rounds_run);
        }
    }

    #[test]
    fn different_seeds_explore_differently() {
        let items = random_items(70, 14.0, 4);
        let config = AnytimeConfig {
            rounds: 4,
            moves_per_round: 200,
            ..AnytimeConfig::default()
        };
        let a = anytime_wake_tree(
            Point::ORIGIN,
            &items,
            &config,
            1,
            &ParPool::sequential(),
            &CancelToken::never(),
        );
        let b = anytime_wake_tree(
            Point::ORIGIN,
            &items,
            &config,
            2,
            &ParPool::sequential(),
            &CancelToken::never(),
        );
        // Same instance, different seeds: counters virtually never agree.
        assert_ne!(
            (a.moves_accepted, a.makespan.to_bits()),
            (b.moves_accepted, b.makespan.to_bits())
        );
    }

    #[test]
    fn dominates_the_greedy_baseline_on_small_instances() {
        // greedy_init_max_n covers these sizes, so domination is by
        // construction (greedy seed + only-improving moves).
        for seed in [1, 2, 3] {
            let items = random_items(100, 20.0, seed);
            let greedy = greedy_wake_tree(Point::ORIGIN, &items).makespan();
            let report = run(&items, &AnytimeConfig::default(), 2);
            assert!(
                report.makespan <= greedy + 1e-12,
                "anytime {} vs greedy {} (seed {seed})",
                report.makespan,
                greedy
            );
        }
    }

    #[test]
    fn empty_and_singleton_instances_are_handled() {
        let report = run(&[], &AnytimeConfig::default(), 2);
        assert_eq!(report.tree.robot_count(), 0);
        assert_eq!(report.makespan, 0.0);
        let one = [(RobotId::sleeper(0), Point::new(3.0, 4.0))];
        let report = run(&one, &AnytimeConfig::default(), 2);
        assert_eq!(report.tree.robot_count(), 1);
        assert!((report.makespan - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ambient_cancellation_aborts_without_a_result() {
        let items = random_items(50, 10.0, 2);
        let token = CancelToken::new();
        token.cancel();
        let caught = freezetag_sim::catch_cancel(|| {
            anytime_wake_tree(
                Point::ORIGIN,
                &items,
                &AnytimeConfig::default(),
                7,
                &ParPool::sequential(),
                &token,
            )
        });
        assert!(caught.is_err(), "fired ambient token must unwind");
    }

    #[test]
    fn expired_time_budget_still_returns_a_valid_tree() {
        let items = random_items(50, 10.0, 2);
        let config = AnytimeConfig {
            time_budget: Some(Duration::from_secs(0)),
            ..AnytimeConfig::default()
        };
        let report = run(&items, &config, 2);
        // The deadline fires before the first barrier: zero rounds, but
        // the best initial tree is still a complete, valid answer.
        assert_eq!(report.rounds_run, 0);
        assert_eq!(report.tree.woken_robots().len(), 50);
        assert!(report.makespan <= report.initial_makespan);
    }

    /// The round before the critical-chain filter: every valid proposal
    /// is applied, evaluated, and reverted unless it improves. It is the
    /// oracle [`Stream::run_round`] is pinned against; its
    /// `moves_evaluated` counts every applied move.
    fn unfiltered_round(s: &mut Stream, moves: usize) -> f64 {
        let len = s.tree.len();
        if len <= 2 {
            return s.tree.makespan();
        }
        for _ in 0..moves {
            s.moves_tried += 1;
            let before = s.tree.makespan();
            match s.rng.gen_range(0..2u32) {
                0 => {
                    let v = s.rng.gen_range(1..len);
                    let u = s.rng.gen_range(0..len);
                    let p = s.tree.parent[v];
                    if s.tree.reassign(v, u) {
                        s.moves_evaluated += 1;
                        if s.tree.makespan() < before {
                            s.moves_accepted += 1;
                        } else {
                            assert!(s.tree.reassign(v, p), "reassign revert must apply");
                        }
                    }
                }
                _ => {
                    let a = s.rng.gen_range(1..len);
                    let b = s.rng.gen_range(1..len);
                    if s.tree.swap(a, b) {
                        s.moves_evaluated += 1;
                        if s.tree.makespan() < before {
                            s.moves_accepted += 1;
                        } else {
                            assert!(s.tree.swap(a, b), "swap revert must apply");
                        }
                    }
                }
            }
        }
        s.tree.makespan()
    }

    /// Asserts that two reports describe the same search: tree, makespan
    /// bits and every counter except `moves_evaluated`.
    fn assert_same_search(a: &AnytimeReport, b: &AnytimeReport) {
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.initial_makespan.to_bits(), b.initial_makespan.to_bits());
        assert_eq!(a.rounds_run, b.rounds_run);
        assert_eq!(a.moves_tried, b.moves_tried);
        assert_eq!(a.moves_accepted, b.moves_accepted);
    }

    /// An instance family that stresses the filter's exactness, shifted
    /// by `offset` on both axes: 0–3 robots, coincident robots, robots at
    /// the source, collinear sets, lattices (many tied critical
    /// children) and tight clusters.
    fn stress_instance(
        family: usize,
        n: usize,
        seed: u64,
        offset: f64,
    ) -> (Point, Vec<(RobotId, Point)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Integer x coordinates: shared columns give equal distances.
        let mut uniform = |span: f64| {
            Point::new(
                rng.gen_range(-span..span).round(),
                rng.gen_range(-span..span),
            )
        };
        let local: Vec<Point> = match family {
            0 => (0..n % 4).map(|_| uniform(10.0)).collect(),
            1 => {
                let spots: Vec<Point> = (0..1 + n % 3).map(|_| uniform(8.0)).collect();
                (0..n)
                    .map(|i| spots[(i * 7 + i / 3) % spots.len()])
                    .collect()
            }
            2 => (0..n)
                .map(|i| {
                    if i.is_multiple_of(2) {
                        Point::ORIGIN
                    } else {
                        uniform(6.0)
                    }
                })
                .collect(),
            3 => {
                let step = uniform(3.0);
                (0..n)
                    .map(|i| {
                        let t = ((i * 5) % 11) as f64 - 5.0;
                        Point::new(step.x * t, step.y * t)
                    })
                    .collect()
            }
            4 => {
                let side = (n as f64).sqrt().ceil().max(1.0) as usize;
                let spacing = if seed.is_multiple_of(2) { 1.0 } else { 2.5 };
                (0..n)
                    .map(|i| Point::new((i % side) as f64 * spacing, (i / side) as f64 * spacing))
                    .collect()
            }
            _ => {
                let centers: Vec<Point> = (0..3).map(|_| uniform(50.0)).collect();
                (0..n)
                    .map(|i| {
                        let c = centers[i % 3];
                        let d = uniform(1.0);
                        Point::new(c.x + d.x, c.y + d.y)
                    })
                    .collect()
            }
        };
        let shift = |p: Point| Point::new(p.x + offset, p.y - offset);
        let items = local
            .into_iter()
            .enumerate()
            .map(|(i, p)| (RobotId::sleeper(i), shift(p)))
            .collect();
        (shift(Point::ORIGIN), items)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The filter's exactness pin: at pool widths 1, 2 and 4 the
        /// filtered search returns the unfiltered reference's report —
        /// tree, makespan bits and counters — while evaluating no more
        /// moves, and `moves_evaluated` itself is width-independent.
        #[test]
        fn filtered_search_matches_the_unfiltered_reference(
            family in 0usize..6,
            n in 0usize..40,
            seed in 0u64..1 << 40,
            shape in (1usize..10, 0usize..60, 0usize..3),
        ) {
            let (streams, greedy_init_max_n, shift) = shape;
            let offset = [0.0, 1e9, -7.5e8][shift];
            let (root, items) = stress_instance(family, n, seed, offset);
            let config = AnytimeConfig {
                streams,
                rounds: 4,
                moves_per_round: 100,
                greedy_init_max_n,
                ..AnytimeConfig::default()
            };
            let never = CancelToken::never();
            let reference = search(
                root, &items, &config, seed, &ParPool::sequential(), &never, unfiltered_round,
            );
            let base = anytime_wake_tree(root, &items, &config, seed, &ParPool::sequential(), &never);
            assert_same_search(&base, &reference);
            prop_assert!(base.moves_evaluated <= reference.moves_evaluated);
            for threads in [2, 4] {
                let other = anytime_wake_tree(root, &items, &config, seed, &ParPool::new(threads), &never);
                assert_same_search(&base, &other);
                prop_assert_eq!(base.moves_evaluated, other.moves_evaluated);
            }
        }
    }

    #[test]
    fn critical_chain_is_a_tight_root_to_leaf_path() {
        let items = random_items(200, 30.0, 6);
        let tree = OptTree::from_wake_tree(&quadtree_wake_tree(Point::ORIGIN, &items));
        let mut chain = Vec::new();
        assert!(tree.critical_chain(&mut chain));
        assert_eq!(chain[0], 0);
        let leaf = *chain.last().expect("non-empty chain");
        assert_eq!(tree.n_children[leaf], 0, "the chain ends at a leaf");
        for w in chain.windows(2) {
            let (v, c) = (w[0], w[1]);
            assert_eq!(tree.parent[c], v);
            let edge = tree.pos[v].dist(tree.pos[c]) + tree.height[c];
            assert_eq!(edge.to_bits(), tree.height[v].to_bits());
        }
    }

    #[test]
    fn an_untraceable_chain_turns_the_filter_off() {
        // The root's only child sits at a NaN position: no child edge
        // reproduces the root's height, so every node is marked and the
        // round behaves exactly like the unfiltered reference.
        let mut t = WakeTree::new(Point::ORIGIN);
        let a = t.add_child(
            WakeTree::ROOT,
            RobotId::sleeper(0),
            Point::new(f64::NAN, 0.0),
        );
        let b = t.add_child(a, RobotId::sleeper(1), Point::new(2.0, 1.0));
        t.add_child(a, RobotId::sleeper(2), Point::new(-3.0, 0.5));
        t.add_child(b, RobotId::sleeper(3), Point::new(4.0, -2.0));
        let tree = OptTree::from_wake_tree(&t);
        let mut filtered = Stream::new(tree.clone(), 3);
        let mut reference = Stream::new(tree, 3);
        filtered.mark_critical_chain();
        assert!(filtered.critical.iter().all(|&c| c));
        let m = filtered.run_round(400);
        let r = unfiltered_round(&mut reference, 400);
        assert_eq!(m.to_bits(), r.to_bits());
        // NaN != NaN, so compare the trees by their debug text.
        assert_eq!(
            format!("{:?}", filtered.tree),
            format!("{:?}", reference.tree)
        );
        assert_eq!(filtered.moves_evaluated, reference.moves_evaluated);
        assert_eq!(filtered.moves_accepted, reference.moves_accepted);
    }
}
