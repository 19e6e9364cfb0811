//! The shared team memory, stored struct-of-arrays with a spatial index.
//!
//! The paper's teams exchange variables when co-located; the drivers in
//! this crate model that with one store shared by all teams, every read
//! filtered by the reading team's owned region (the `separator` driver
//! notes). Soundness property: `Knowledge` only ever contains robots that some
//! `look` has returned or that the algorithm woke itself — never
//! undiscovered positions.
//!
//! ## Layout
//!
//! The original store was a `BTreeMap<RobotId, RobotInfo>` that every
//! `DFSampling` step re-scanned in full — the quadratic term that kept
//! `ASeparator`/`AWave` from 10⁵–10⁶-robot runs. This version is dense and
//! grid-indexed:
//!
//! * origin coordinates and known/awake flags live in flat arrays indexed
//!   by [`RobotId::index`] (robot ids are dense — the id *is* the slot);
//! * the flags are **epoch stamps** (`known_at[i] == epoch`), so
//!   [`Knowledge::clear`] is a counter bump, not an `O(n)` refill;
//! * a [`CellGrid`] over the known origins answers bounded region queries
//!   ([`Knowledge::for_each_known_within`],
//!   [`Knowledge::for_each_known_in_rect`]) in O(cells + matches) instead
//!   of O(everything known).
//!
//! Iteration-order contract: the id-ordered iterators ([`Knowledge::iter`],
//! [`Knowledge::known_where`], [`Knowledge::asleep_where`]) report robots
//! in ascending id order exactly as the `BTreeMap` did; the grid-backed
//! visitors trade that order for locality and say so in their docs. The
//! `knowledge_parity` proptest suite pins both against a map-based model.

use freezetag_geometry::{Point, Rect};
use freezetag_graph::CellGrid;
use freezetag_sim::RobotId;

/// What a team knows about an individual robot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobotInfo {
    /// Initial position (robots identify themselves by it — Section 1.2).
    pub origin: Point,
    /// Whether the team knows the robot to be awake.
    pub awake: bool,
}

/// Shared team memory: every robot ever observed (by a `look`) or woken.
///
/// # Example
///
/// ```
/// use freezetag_core::knowledge::Knowledge;
/// use freezetag_geometry::Point;
/// use freezetag_sim::RobotId;
///
/// let mut k = Knowledge::new();
/// k.note_sighting(RobotId::sleeper(0), Point::new(1.0, 0.0));
/// assert!(!k.is_awake(RobotId::sleeper(0)));
/// k.note_awake(RobotId::sleeper(0), Point::new(1.0, 0.0));
/// assert!(k.is_awake(RobotId::sleeper(0)));
/// assert_eq!(k.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Knowledge {
    /// Robot `i` is known iff `known_at[i] == epoch`.
    known_at: Vec<u32>,
    /// Robot `i` is known awake iff `awake_at[i] == epoch`.
    awake_at: Vec<u32>,
    /// Origin coordinates (valid only while known).
    ox: Vec<f64>,
    oy: Vec<f64>,
    /// The grid entry that currently represents robot `i` (stale entries
    /// from origin updates are skipped by comparing against this).
    grid_slot: Vec<u32>,
    /// Current epoch; bumping it forgets everything in O(1).
    epoch: u32,
    /// Number of known robots this epoch.
    len: usize,
    /// Spatial index over known origins.
    grid: CellGrid,
    /// Robot index of each grid entry.
    grid_robot: Vec<u32>,
}

impl Default for Knowledge {
    fn default() -> Self {
        Knowledge::new()
    }
}

impl Knowledge {
    /// Empty knowledge with a unit grid cell.
    pub fn new() -> Self {
        Knowledge::with_cell_width(1.0)
    }

    /// Empty knowledge whose spatial index buckets origins into cells of
    /// `cell_width` — callers pass their connectivity parameter ℓ so the
    /// `2ℓ`-radius queries of `DFSampling` scan O(1) cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell_width <= 0` or not finite.
    pub fn with_cell_width(cell_width: f64) -> Self {
        Knowledge {
            known_at: Vec::new(),
            awake_at: Vec::new(),
            ox: Vec::new(),
            oy: Vec::new(),
            grid_slot: Vec::new(),
            epoch: 1,
            len: 0,
            grid: CellGrid::new(cell_width),
            grid_robot: Vec::new(),
        }
    }

    /// [`clear`](Self::clear) plus a spatial-index re-bucketing to a new
    /// `cell_width` — the reuse path for worker-resident stores serving
    /// jobs with varying ℓ. Equivalent to a fresh
    /// [`with_cell_width`](Self::with_cell_width) but keeps every
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `cell_width <= 0` or not finite.
    pub fn reset(&mut self, cell_width: f64) {
        self.clear();
        self.grid.reset(cell_width);
    }

    /// Forgets everything in O(previously known), keeping allocations.
    /// The dense per-robot arrays are invalidated by an epoch bump alone.
    pub fn clear(&mut self) {
        self.len = 0;
        self.grid.clear();
        self.grid_robot.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap (u32::MAX clears): refill the stamps once so
                // stale epochs can never alias the restarted counter.
                self.known_at.fill(0);
                self.awake_at.fill(0);
                1
            }
        };
    }

    #[inline]
    fn slot(&mut self, id: RobotId) -> usize {
        let i = id.index();
        if i >= self.known_at.len() {
            self.known_at.resize(i + 1, 0);
            self.awake_at.resize(i + 1, 0);
            self.ox.resize(i + 1, 0.0);
            self.oy.resize(i + 1, 0.0);
            self.grid_slot.resize(i + 1, u32::MAX);
        }
        i
    }

    #[inline]
    fn known(&self, i: usize) -> bool {
        self.known_at.get(i).copied() == Some(self.epoch)
    }

    #[inline]
    fn origin(&self, i: usize) -> Point {
        Point::new(self.ox[i], self.oy[i])
    }

    /// Inserts robot `i` (not currently known) with the given origin.
    #[inline]
    fn insert(&mut self, i: usize, origin: Point) {
        self.known_at[i] = self.epoch;
        self.ox[i] = origin.x;
        self.oy[i] = origin.y;
        self.grid_slot[i] = self.grid.push(origin) as u32;
        self.grid_robot.push(i as u32);
        self.len += 1;
    }

    /// Records a sleeping sighting at its initial position.
    ///
    /// For a robot already known *asleep*, the latest sighting wins (as
    /// repeated map inserts did — initial positions never change, so
    /// duplicates are identical anyway). For a robot known *awake* the
    /// recorded origin is kept: its first look wins, and a later
    /// (necessarily inconsistent) report cannot silently relocate it.
    pub fn note_sighting(&mut self, id: RobotId, pos: Point) {
        let i = self.slot(id);
        if !self.known(i) {
            self.insert(i, pos);
        } else if self.awake_at[i] != self.epoch && (self.ox[i] != pos.x || self.oy[i] != pos.y) {
            // Origin update for a sleeping robot: re-index under the new
            // position; the old grid entry goes stale and is skipped by
            // the `grid_slot` check in every query.
            self.ox[i] = pos.x;
            self.oy[i] = pos.y;
            self.grid_slot[i] = self.grid.push(pos) as u32;
            self.grid_robot.push(i as u32);
        }
    }

    /// Records that a robot (with the given origin) is awake. The origin
    /// argument is only used when the robot was entirely unknown; a known
    /// robot keeps its recorded origin.
    pub fn note_awake(&mut self, id: RobotId, origin: Point) {
        let i = self.slot(id);
        if !self.known(i) {
            self.insert(i, origin);
        }
        self.awake_at[i] = self.epoch;
    }

    /// Lookup.
    pub fn get(&self, id: RobotId) -> Option<RobotInfo> {
        let i = id.index();
        self.known(i).then(|| RobotInfo {
            origin: self.origin(i),
            awake: self.awake_at[i] == self.epoch,
        })
    }

    /// Whether the team knows this robot to be awake.
    pub fn is_awake(&self, id: RobotId) -> bool {
        self.awake_at.get(id.index()).copied() == Some(self.epoch)
    }

    /// All known robots, ordered by id.
    pub fn iter(&self) -> impl Iterator<Item = (RobotId, RobotInfo)> + '_ {
        (0..self.known_at.len())
            .filter(|&i| self.known(i))
            .map(|i| {
                (
                    RobotId::from_index(i),
                    RobotInfo {
                        origin: self.origin(i),
                        awake: self.awake_at[i] == self.epoch,
                    },
                )
            })
    }

    /// Known *sleeping* robots whose origin satisfies `filter`, ordered by
    /// id. A full scan — bounded regions should use the grid-backed
    /// visitors instead.
    pub fn asleep_where<'a, F: Fn(Point) -> bool + 'a>(
        &'a self,
        filter: F,
    ) -> impl Iterator<Item = (RobotId, Point)> + 'a {
        self.iter()
            .filter(move |(_, info)| !info.awake && filter(info.origin))
            .map(|(id, info)| (id, info.origin))
    }

    /// Known robots (any status) whose origin satisfies `filter`, ordered
    /// by id. A full scan — bounded regions should use the grid-backed
    /// visitors instead.
    pub fn known_where<'a, F: Fn(Point) -> bool + 'a>(
        &'a self,
        filter: F,
    ) -> impl Iterator<Item = (RobotId, RobotInfo)> + 'a {
        self.iter().filter(move |(_, info)| filter(info.origin))
    }

    /// Calls `f(id, origin, awake)` for every known robot whose origin
    /// lies within Euclidean distance `r` of `q` (inclusive, `EPS` slack —
    /// the exact acceptance of [`CellGrid::within_into`]), in
    /// **unspecified order**. Cost is O(cells scanned + chain lengths).
    #[inline]
    pub fn for_each_known_within(&self, q: Point, r: f64, mut f: impl FnMut(RobotId, Point, bool)) {
        self.grid.for_each_within(q, r, |gi, p| {
            let i = self.grid_robot[gi] as usize;
            if self.grid_slot[i] == gi as u32 {
                f(RobotId::from_index(i), p, self.awake_at[i] == self.epoch);
            }
        });
    }

    /// Calls `f(id, origin, awake)` for every known robot whose origin
    /// satisfies `rect.contains` (closed containment with `EPS` slack —
    /// the test runs through the grid's rect membership kernel), in
    /// **unspecified order**. Callers with a *stricter* predicate (ring
    /// membership, quadrant ownership) still apply it in `f`; the `EPS`
    /// slack guarantees no origin such a predicate accepts is filtered
    /// out here first.
    #[inline]
    pub fn for_each_known_in_rect(&self, rect: &Rect, mut f: impl FnMut(RobotId, Point, bool)) {
        self.grid.for_each_in_rect(rect.min(), rect.max(), |gi, p| {
            let i = self.grid_robot[gi] as usize;
            if self.grid_slot[i] == gi as u32 {
                f(RobotId::from_index(i), p, self.awake_at[i] == self.epoch);
            }
        });
    }

    /// Number of known robots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is known yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sightings_then_wake() {
        let mut k = Knowledge::new();
        k.note_sighting(RobotId::sleeper(0), Point::new(1.0, 0.0));
        assert!(!k.is_awake(RobotId::sleeper(0)));
        k.note_awake(RobotId::sleeper(0), Point::new(1.0, 0.0));
        assert!(k.is_awake(RobotId::sleeper(0)));
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn filters_by_region() {
        let mut k = Knowledge::new();
        k.note_sighting(RobotId::sleeper(0), Point::new(1.0, 0.0));
        k.note_sighting(RobotId::sleeper(1), Point::new(10.0, 0.0));
        k.note_awake(RobotId::sleeper(2), Point::new(2.0, 0.0));
        let near: Vec<_> = k.asleep_where(|p| p.x < 5.0).collect();
        assert_eq!(near, vec![(RobotId::sleeper(0), Point::new(1.0, 0.0))]);
        let known: Vec<_> = k.known_where(|p| p.x < 5.0).collect();
        assert_eq!(known.len(), 2);
    }

    #[test]
    fn empty_knowledge() {
        let k = Knowledge::new();
        assert!(k.is_empty());
        assert_eq!(k.iter().count(), 0);
        assert!(k.get(RobotId::SOURCE).is_none());
    }

    #[test]
    fn awake_origin_keeps_its_first_look() {
        // Regression for the silent-overwrite bug: an awake robot's origin
        // must not move when a (necessarily bogus) later sighting arrives.
        let mut k = Knowledge::new();
        k.note_awake(RobotId::sleeper(0), Point::new(1.0, 0.0));
        k.note_sighting(RobotId::sleeper(0), Point::new(9.0, 9.0));
        let info = k.get(RobotId::sleeper(0)).unwrap();
        assert_eq!(info.origin, Point::new(1.0, 0.0), "first look must win");
        assert!(info.awake);
        // note_awake on a known robot also keeps the recorded origin.
        k.note_awake(RobotId::sleeper(0), Point::new(7.0, 7.0));
        assert_eq!(
            k.get(RobotId::sleeper(0)).unwrap().origin,
            Point::new(1.0, 0.0)
        );
        // A *sleeping* robot still takes the latest sighting, as before.
        k.note_sighting(RobotId::sleeper(1), Point::new(2.0, 0.0));
        k.note_sighting(RobotId::sleeper(1), Point::new(3.0, 0.0));
        assert_eq!(
            k.get(RobotId::sleeper(1)).unwrap().origin,
            Point::new(3.0, 0.0)
        );
    }

    #[test]
    fn grid_queries_see_updated_origins_exactly_once() {
        let mut k = Knowledge::new();
        k.note_sighting(RobotId::sleeper(0), Point::new(1.0, 0.0));
        k.note_sighting(RobotId::sleeper(0), Point::new(6.0, 0.0));
        // Old location: stale grid entry must be suppressed.
        let mut seen = Vec::new();
        k.for_each_known_within(Point::new(1.0, 0.0), 1.0, |id, p, _| seen.push((id, p)));
        assert!(seen.is_empty(), "stale origin reported: {seen:?}");
        k.for_each_known_within(Point::new(6.0, 0.0), 1.0, |id, p, _| seen.push((id, p)));
        assert_eq!(seen, vec![(RobotId::sleeper(0), Point::new(6.0, 0.0))]);
        // Bounce back to the original cell: still exactly one report.
        k.note_sighting(RobotId::sleeper(0), Point::new(1.0, 0.0));
        seen.clear();
        k.for_each_known_within(Point::new(1.0, 0.0), 1.0, |id, p, _| seen.push((id, p)));
        assert_eq!(seen.len(), 1, "duplicate grid entries leaked: {seen:?}");
    }

    #[test]
    fn clear_is_an_epoch_bump() {
        let mut k = Knowledge::with_cell_width(2.0);
        for i in 0..10 {
            k.note_sighting(RobotId::sleeper(i), Point::new(i as f64, 0.0));
        }
        k.note_awake(RobotId::sleeper(3), Point::new(3.0, 0.0));
        k.clear();
        assert!(k.is_empty());
        assert!(k.get(RobotId::sleeper(3)).is_none());
        assert!(!k.is_awake(RobotId::sleeper(3)));
        assert_eq!(k.iter().count(), 0);
        let mut hits = 0;
        k.for_each_known_within(Point::new(3.0, 0.0), 50.0, |_, _, _| hits += 1);
        assert_eq!(hits, 0, "grid must forget cleared robots");
        // Reuse after clear behaves like a fresh store.
        k.note_sighting(RobotId::sleeper(3), Point::new(5.0, 5.0));
        assert_eq!(k.len(), 1);
        assert!(!k.is_awake(RobotId::sleeper(3)));
        assert_eq!(
            k.get(RobotId::sleeper(3)).unwrap().origin,
            Point::new(5.0, 5.0)
        );
    }

    #[test]
    fn reset_rebuckets_like_a_fresh_store() {
        let mut reused = Knowledge::with_cell_width(8.0);
        for i in 0..32 {
            reused.note_sighting(RobotId::sleeper(i), Point::new(i as f64, 0.0));
        }
        reused.reset(1.5);
        let mut fresh = Knowledge::with_cell_width(1.5);
        for i in 0..16 {
            let p = Point::new((i % 4) as f64 * 0.7, (i / 4) as f64 * 0.7);
            reused.note_sighting(RobotId::sleeper(i), p);
            fresh.note_sighting(RobotId::sleeper(i), p);
        }
        let collect = |k: &Knowledge| {
            let mut got = Vec::new();
            k.for_each_known_within(Point::new(1.0, 1.0), 1.2, |id, p, _| got.push((id, p)));
            got.sort_unstable_by_key(|&(id, _)| id);
            got
        };
        assert_eq!(collect(&reused), collect(&fresh));
        assert_eq!(reused.len(), fresh.len());
    }

    #[test]
    fn rect_visitor_is_a_superset_with_exact_origins() {
        let mut k = Knowledge::new();
        for i in 0..20 {
            k.note_sighting(
                RobotId::sleeper(i),
                Point::new((i % 5) as f64, (i / 5) as f64),
            );
        }
        let rect = Rect::with_size(Point::new(1.0, 1.0), 2.0, 1.0);
        let mut got = Vec::new();
        k.for_each_known_in_rect(&rect, |id, p, _| {
            if rect.contains(p) {
                got.push(id);
            }
        });
        got.sort_unstable();
        let want: Vec<RobotId> = k
            .known_where(|p| rect.contains(p))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(got, want);
    }
}
