use crate::par::{ParPool, LOOK_BATCH, PAR_LOOK_MIN, POINT_BATCH};
use crate::{RobotId, SimError};
use freezetag_geometry::Point;
use freezetag_graph::GridIndex;
use freezetag_instances::Instance;

/// A robot observed by a `look` snapshot: a *sleeping* robot within
/// Euclidean distance 1 of the observer, reported at its initial position.
///
/// Awake robots are deliberately not reported: the paper's algorithms track
/// awake teammates through shared memory (co-location exchanges), never
/// through vision, and a woken robot leaves its initial position anyway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sighting {
    /// The observed sleeping robot.
    pub id: RobotId,
    /// Its (initial) position.
    pub pos: Point,
}

/// The restricted sensing interface: the *only* channel through which a
/// distributed algorithm learns robot positions.
///
/// Implementations: [`ConcreteWorld`] (fixed instance) and
/// [`crate::AdversarialWorld`] (adaptive lower-bound adversary).
pub trait WorldView {
    /// Number of initially-sleeping robots `n`.
    fn n(&self) -> usize;

    /// Position of the source robot.
    fn source_pos(&self) -> Point;

    /// Snapshot into a reusable buffer: clears `out` and fills it with the
    /// sleeping robots within Euclidean distance 1 of `from` at time
    /// `time`, sorted by id. Takes `&mut self` because adversarial worlds
    /// update their knowledge state on every look.
    ///
    /// This is the hot sensing path: implementations must not allocate per
    /// call beyond growing `out` and internal scratch to their high-water
    /// marks.
    fn look_into(&mut self, from: Point, time: f64, out: &mut Vec<Sighting>);

    /// Allocating convenience wrapper around [`WorldView::look_into`].
    fn look(&mut self, from: Point, time: f64) -> Vec<Sighting> {
        let mut out = Vec::new();
        self.look_into(from, time, &mut out);
        out
    }

    /// Whether sensing is a pure function of the committed wake state:
    /// two `look`s with the same `(from, time)` and the same wake commits
    /// in between return the same sightings, regardless of what other
    /// `look`s happened. Concrete worlds qualify; the adaptive adversary
    /// does **not** (every snapshot eliminates hiding candidates, so look
    /// *history* is state). No driver branches on it: batched sensing
    /// goes through [`WorldView::look_batch_into`], whose in-order default
    /// already keeps impure worlds sound, and only pure worlds override
    /// that with a parallel fan-out. It stays on the trait as a declared
    /// property of each world, which wrapping worlds forward.
    fn pure_sensing(&self) -> bool {
        false
    }

    /// Batched sensing: clears `out` and `counts`, then resolves every
    /// query `(from, time)` of `queries` **in order**, appending each
    /// query's sightings to `out` (concatenated) and its sighting count to
    /// `counts` — exactly the result of calling [`WorldView::look_into`]
    /// once per query in sequence, and counted as `queries.len()` looks.
    ///
    /// The provided implementation *is* that sequential loop, which is the
    /// only sound order for impure-sensing worlds (see
    /// [`WorldView::pure_sensing`]). Pure-sensing worlds override it to
    /// fan the queries out over `pool` in fixed-size batches with an
    /// order-preserving merge, which keeps the result bit-identical to the
    /// sequential loop for any thread count.
    fn look_batch_into(
        &mut self,
        queries: &[(Point, f64)],
        pool: &ParPool,
        out: &mut Vec<Sighting>,
        counts: &mut Vec<u32>,
    ) {
        let _ = pool;
        out.clear();
        counts.clear();
        let mut one = Vec::new();
        for &(from, time) in queries {
            self.look_into(from, time, &mut one);
            counts.push(one.len() as u32);
            out.extend_from_slice(&one);
        }
    }

    /// Marks `target` awake at `time`.
    ///
    /// # Errors
    ///
    /// [`SimError::AlreadyAwake`] if it was already awake;
    /// [`SimError::Undiscovered`] if its position has never been observed
    /// (adversarial worlds only).
    fn wake(&mut self, target: RobotId, time: f64) -> Result<(), SimError>;

    /// Whether `target` is awake.
    fn is_awake(&self, target: RobotId) -> bool;

    /// Wake time of `target` (`Some(0.0)` for the source).
    fn wake_time(&self, target: RobotId) -> Option<f64>;

    /// Initial position of `target` if known to the world — always known
    /// for concrete worlds; `None` for adversarial robots not yet pinned.
    fn position(&self, target: RobotId) -> Option<Point>;

    /// Whether every robot (including the source) is awake.
    ///
    /// The provided implementation scans all robots; both shipped worlds
    /// override it with a maintained O(1) counter — this sits inside the
    /// wave loops of every driver.
    fn all_awake(&self) -> bool {
        (0..=self.n()).all(|i| self.is_awake(RobotId::from_index(i)))
    }

    /// Number of sleeping robots remaining (see [`WorldView::all_awake`]
    /// on the provided implementation's cost).
    fn asleep_count(&self) -> usize {
        (0..=self.n())
            .filter(|&i| !self.is_awake(RobotId::from_index(i)))
            .count()
    }

    /// Total `look` snapshots taken so far (model-accounting statistic).
    fn look_count(&self) -> usize;
}

/// A bitset over robot indices (`RobotId::index()`), one bit per robot.
#[derive(Debug, Clone)]
struct AwakeBits(Vec<u64>);

impl AwakeBits {
    fn new(slots: usize) -> Self {
        AwakeBits(vec![0; slots.div_ceil(64)])
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
}

/// A world built from a fixed [`Instance`], stored struct-of-arrays: the
/// initial positions live in the flat coordinate arrays of a unit-cell
/// [`GridIndex`], wake state is a bitset plus a flat `Vec<f64>` of wake
/// times, and a maintained counter answers [`WorldView::asleep_count`] in
/// O(1). `look_into` reuses an internal scratch buffer, so steady-state
/// sensing performs no allocations — the layout that makes 10⁶-robot runs
/// tractable.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_instances::Instance;
/// use freezetag_sim::{ConcreteWorld, RobotId, WorldView};
///
/// let inst = Instance::new(vec![Point::new(0.5, 0.0), Point::new(3.0, 0.0)]);
/// let mut w = ConcreteWorld::new(&inst);
/// let seen = w.look(Point::ORIGIN, 0.0);
/// assert_eq!(seen.len(), 1);
/// assert_eq!(seen[0].id, RobotId::sleeper(0));
/// ```
#[derive(Debug, Clone)]
pub struct ConcreteWorld {
    source: Point,
    /// Wake time by `RobotId::index()`; meaningful only when the awake bit
    /// is set (NaN otherwise).
    wake_times: Vec<f64>,
    awake: AwakeBits,
    asleep: usize,
    index: GridIndex,
    scratch: Vec<usize>,
    looks: usize,
}

impl ConcreteWorld {
    /// Builds the world of an instance; only the source starts awake.
    pub fn new(instance: &Instance) -> Self {
        Self::with_pool(instance, &ParPool::sequential())
    }

    /// Builds the world with the CSR grid construction's per-point key
    /// pass fanned out over `pool` (order-preserving batches), producing
    /// an index bit-identical to the sequential [`ConcreteWorld::new`].
    pub fn with_pool(instance: &Instance, pool: &ParPool) -> Self {
        let n = instance.n();
        let mut wake_times = vec![f64::NAN; n + 1];
        wake_times[0] = 0.0;
        let mut awake = AwakeBits::new(n + 1);
        awake.set(0);
        let positions = instance.positions();
        let index = if pool.is_sequential() || positions.len() < POINT_BATCH {
            GridIndex::build(positions, 1.0)
        } else {
            let keys = pool.map_concat(positions, POINT_BATCH, |chunk| {
                chunk
                    .iter()
                    .map(|&p| GridIndex::cell_key(p, 1.0))
                    .collect::<Vec<_>>()
            });
            GridIndex::build_from_keys(positions, 1.0, &keys)
        };
        ConcreteWorld {
            source: instance.source(),
            wake_times,
            awake,
            asleep: n,
            index,
            scratch: Vec::new(),
            looks: 0,
        }
    }

    /// Initial position of sleeping robot `i` (`RobotId::sleeper(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn sleeper_pos(&self, i: usize) -> Point {
        self.index.point(i)
    }

    /// Deterministic estimate of the world's heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.wake_times.len() * 8 + self.awake.0.len() * 8
    }

    /// The pure core of a snapshot at `(from, time)`: appends the visible
    /// sleeping robots (id order) to `out` using an external `scratch`.
    /// Takes `&self` so batched sensing can run it from many workers
    /// against the same committed wake state; does not bump `look_count`.
    #[inline]
    fn sense_at(&self, from: Point, time: f64, scratch: &mut Vec<usize>, out: &mut Vec<Sighting>) {
        self.index.within_into(from, 1.0, scratch);
        for &i in scratch.iter() {
            // Visible iff still asleep at `time` (woken strictly later
            // counts as asleep now).
            let visible = if self.awake.get(i + 1) {
                time < self.wake_times[i + 1] - freezetag_geometry::EPS
            } else {
                true
            };
            if visible {
                out.push(Sighting {
                    id: RobotId::sleeper(i),
                    pos: self.index.point(i),
                });
            }
        }
    }
}

impl WorldView for ConcreteWorld {
    fn n(&self) -> usize {
        self.index.len()
    }

    fn source_pos(&self) -> Point {
        self.source
    }

    fn look_into(&mut self, from: Point, time: f64, out: &mut Vec<Sighting>) {
        self.looks += 1;
        out.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.sense_at(from, time, &mut scratch, out);
        self.scratch = scratch;
    }

    fn pure_sensing(&self) -> bool {
        true
    }

    fn look_batch_into(
        &mut self,
        queries: &[(Point, f64)],
        pool: &ParPool,
        out: &mut Vec<Sighting>,
        counts: &mut Vec<u32>,
    ) {
        self.looks += queries.len();
        out.clear();
        counts.clear();
        if pool.is_sequential() || queries.len() < PAR_LOOK_MIN {
            let mut scratch = std::mem::take(&mut self.scratch);
            for &(from, time) in queries {
                let before = out.len();
                self.sense_at(from, time, &mut scratch, out);
                counts.push((out.len() - before) as u32);
            }
            self.scratch = scratch;
            return;
        }
        // Fan out in fixed-size batches; sense_at is pure in the committed
        // wake state, and the order-preserving merge makes the result
        // bit-identical to the sequential loop above.
        let this = &*self;
        let parts = pool.map_batches(queries, LOOK_BATCH, |_, chunk| {
            let mut scratch = Vec::new();
            let mut sightings = Vec::new();
            let mut chunk_counts = Vec::with_capacity(chunk.len());
            for &(from, time) in chunk {
                let before = sightings.len();
                this.sense_at(from, time, &mut scratch, &mut sightings);
                chunk_counts.push((sightings.len() - before) as u32);
            }
            (sightings, chunk_counts)
        });
        for (sightings, chunk_counts) in parts {
            out.extend_from_slice(&sightings);
            counts.extend_from_slice(&chunk_counts);
        }
    }

    fn wake(&mut self, target: RobotId, time: f64) -> Result<(), SimError> {
        let i = target.index();
        if self.awake.get(i) {
            return Err(SimError::AlreadyAwake(target));
        }
        self.awake.set(i);
        self.wake_times[i] = time;
        self.asleep -= 1;
        Ok(())
    }

    fn is_awake(&self, target: RobotId) -> bool {
        self.awake.get(target.index())
    }

    fn wake_time(&self, target: RobotId) -> Option<f64> {
        let i = target.index();
        self.awake.get(i).then(|| self.wake_times[i])
    }

    fn position(&self, target: RobotId) -> Option<Point> {
        match target.sleeper_index() {
            None => Some(self.source),
            Some(i) => Some(self.index.point(i)),
        }
    }

    fn all_awake(&self) -> bool {
        self.asleep == 0
    }

    fn asleep_count(&self) -> usize {
        self.asleep
    }

    fn look_count(&self) -> usize {
        self.looks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> ConcreteWorld {
        let inst = Instance::new(vec![
            Point::new(0.5, 0.0),
            Point::new(0.0, 0.9),
            Point::new(2.0, 2.0),
        ]);
        ConcreteWorld::new(&inst)
    }

    #[test]
    fn look_sees_only_within_unit_distance() {
        let mut w = world();
        let seen = w.look(Point::ORIGIN, 0.0);
        let ids: Vec<RobotId> = seen.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![RobotId::sleeper(0), RobotId::sleeper(1)]);
        assert_eq!(w.look_count(), 1);
    }

    #[test]
    fn look_into_reuses_buffers_without_stale_entries() {
        let mut w = world();
        let mut buf = Vec::new();
        w.look_into(Point::ORIGIN, 0.0, &mut buf);
        assert_eq!(buf.len(), 2);
        w.look_into(Point::new(2.0, 2.0), 0.0, &mut buf);
        assert_eq!(buf.len(), 1, "buffer must be cleared between looks");
        assert_eq!(buf[0].id, RobotId::sleeper(2));
        assert_eq!(w.look_count(), 2);
    }

    #[test]
    fn woken_robots_disappear_from_later_looks() {
        let mut w = world();
        w.wake(RobotId::sleeper(0), 5.0).unwrap();
        // Before the wake they are still visible...
        assert_eq!(w.look(Point::ORIGIN, 4.0).len(), 2);
        // ...and invisible from the wake time onward.
        assert_eq!(w.look(Point::ORIGIN, 5.0).len(), 1);
        assert_eq!(w.look(Point::ORIGIN, 6.0).len(), 1);
    }

    #[test]
    fn double_wake_is_an_error() {
        let mut w = world();
        w.wake(RobotId::sleeper(2), 1.0).unwrap();
        assert_eq!(
            w.wake(RobotId::sleeper(2), 2.0),
            Err(SimError::AlreadyAwake(RobotId::sleeper(2)))
        );
    }

    #[test]
    fn status_and_counts() {
        let mut w = world();
        assert!(w.is_awake(RobotId::SOURCE));
        assert_eq!(w.wake_time(RobotId::SOURCE), Some(0.0));
        assert_eq!(w.asleep_count(), 3);
        assert!(!w.all_awake());
        for i in 0..3 {
            w.wake(RobotId::sleeper(i), 1.0).unwrap();
        }
        assert!(w.all_awake());
        assert_eq!(w.asleep_count(), 0);
    }

    #[test]
    fn counter_agrees_with_trait_default_scan() {
        let mut w = world();
        let scan = |w: &ConcreteWorld| {
            (0..=w.n())
                .filter(|&i| !w.is_awake(RobotId::from_index(i)))
                .count()
        };
        assert_eq!(w.asleep_count(), scan(&w));
        w.wake(RobotId::sleeper(1), 2.0).unwrap();
        assert_eq!(w.asleep_count(), scan(&w));
        assert_eq!(w.all_awake(), scan(&w) == 0);
    }

    #[test]
    fn with_pool_builds_the_identical_world() {
        let inst = Instance::new(
            (0..3000)
                .map(|i| Point::new((i % 55) as f64 * 0.4 + 0.2, (i / 55) as f64 * 0.4 + 0.2))
                .collect(),
        );
        let mut a = ConcreteWorld::new(&inst);
        let mut b = ConcreteWorld::with_pool(&inst, &ParPool::new(4));
        for q in [Point::ORIGIN, Point::new(10.0, 8.0), Point::new(21.9, 21.0)] {
            assert_eq!(a.look(q, 0.0), b.look(q, 0.0), "query {q}");
        }
        assert_eq!(a.memory_bytes(), b.memory_bytes());
    }

    #[test]
    fn batched_sensing_matches_sequential_looks_and_counts_them() {
        let inst = Instance::new(
            (0..4000)
                .map(|i| Point::new((i % 64) as f64 * 0.3 + 0.1, (i / 64) as f64 * 0.3 + 0.1))
                .collect(),
        );
        // Wake a few robots at staggered times so visibility windows are
        // exercised on both paths.
        let build = || {
            let mut w = ConcreteWorld::new(&inst);
            for i in (0..4000).step_by(7) {
                w.wake(RobotId::sleeper(i), (i % 13) as f64).unwrap();
            }
            w
        };
        let queries: Vec<(Point, f64)> = (0..3000)
            .map(|i| {
                (
                    Point::new((i % 60) as f64 * 0.33, (i / 60) as f64 * 0.37),
                    (i % 17) as f64,
                )
            })
            .collect();
        assert!(queries.len() >= PAR_LOOK_MIN, "must exercise the fan-out");
        let mut seq_w = build();
        let (mut seq_out, mut seq_counts) = (Vec::new(), Vec::new());
        seq_w.look_batch_into(
            &queries,
            &ParPool::sequential(),
            &mut seq_out,
            &mut seq_counts,
        );
        // The sequential batch equals per-query look_into calls.
        let mut loop_w = build();
        let mut one = Vec::new();
        let mut flat = Vec::new();
        for &(from, time) in &queries {
            loop_w.look_into(from, time, &mut one);
            flat.extend_from_slice(&one);
        }
        assert_eq!(seq_out, flat);
        assert_eq!(seq_w.look_count(), loop_w.look_count());
        assert_eq!(
            seq_counts.iter().map(|&c| c as usize).sum::<usize>(),
            flat.len()
        );
        // And the parallel batch equals the sequential batch exactly.
        for threads in [2, 4] {
            let mut par_w = build();
            let (mut par_out, mut par_counts) = (Vec::new(), Vec::new());
            par_w.look_batch_into(
                &queries,
                &ParPool::new(threads),
                &mut par_out,
                &mut par_counts,
            );
            assert_eq!(par_out, seq_out, "threads={threads}");
            assert_eq!(par_counts, seq_counts, "threads={threads}");
            assert_eq!(par_w.look_count(), seq_w.look_count());
        }
    }

    #[test]
    fn pure_sensing_flags() {
        let w = world();
        assert!(w.pure_sensing());
    }

    #[test]
    fn positions_are_known() {
        let w = world();
        assert_eq!(w.position(RobotId::SOURCE), Some(Point::ORIGIN));
        assert_eq!(w.position(RobotId::sleeper(2)), Some(Point::new(2.0, 2.0)));
        assert_eq!(w.sleeper_pos(2), Point::new(2.0, 2.0));
        assert!(w.memory_bytes() > 0);
    }
}
