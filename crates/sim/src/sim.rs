use crate::cancel::{CancelToken, Cancelled, DEADLINE_STRIDE};
use crate::record::{FullRecorder, Recorder, StatsRecorder};
use crate::{
    CompressedRecorder, ParPool, RobotId, Schedule, Sighting, Trace, WakeEvent, WorldView,
};
use freezetag_geometry::Point;

/// The simulation driver: couples a [`WorldView`] (restricted sensing) with
/// a [`Recorder`] (time/energy accounting).
///
/// Algorithms manipulate robots exclusively through this API:
/// [`Sim::move_to`], [`Sim::wait_until`], [`Sim::look`] and [`Sim::wake`].
/// Misuse — moving a sleeping robot, waking from a distance, waking an
/// already-awake robot — panics immediately: those are algorithm bugs, not
/// recoverable conditions.
///
/// The recorder is a type parameter defaulting to [`FullRecorder`] (full
/// per-robot segment timelines, as the validator and SVG renderer need);
/// [`Sim::with_stats`] builds a constant-memory [`StatsRecorder`] driver
/// for aggregate-only sweeps at 10⁶-robot scale, and
/// [`Sim::with_recorder`] accepts any custom recorder.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_instances::Instance;
/// use freezetag_sim::{ConcreteWorld, RobotId, Sim};
///
/// let inst = Instance::new(vec![Point::new(2.0, 0.0)]);
/// let mut sim = Sim::new(ConcreteWorld::new(&inst));
/// sim.move_to(RobotId::SOURCE, Point::new(2.0, 0.0));
/// assert_eq!(sim.time(RobotId::SOURCE), 2.0);
/// ```
#[derive(Debug)]
pub struct Sim<W, R = FullRecorder> {
    world: W,
    recorder: R,
    trace: Trace,
    pool: ParPool,
    cancel: CancelToken,
    cancel_polls: u32,
}

impl<W: WorldView> Sim<W> {
    /// Starts a fully-recorded simulation at time 0 with only the source
    /// awake, at the world's source position.
    pub fn new(world: W) -> Self {
        let recorder = FullRecorder::with_capacity(world.n());
        Sim::with_recorder(world, recorder)
    }

    /// The schedule recorded so far (full recorder only).
    pub fn schedule(&self) -> &Schedule {
        self.recorder.schedule()
    }

    /// Consumes the simulation, returning `(world, schedule, trace)`.
    pub fn into_parts(self) -> (W, Schedule, Trace) {
        (self.world, self.recorder.into_schedule(), self.trace)
    }
}

impl<W: WorldView> Sim<W, StatsRecorder> {
    /// Starts a constant-memory simulation: per-robot aggregates only, no
    /// segment timelines. The run cannot be validated or rendered, but
    /// every aggregate matches a [`FullRecorder`] run bit-for-bit.
    pub fn with_stats(world: W) -> Self {
        let recorder = StatsRecorder::with_capacity(world.n());
        Sim::with_recorder(world, recorder)
    }
}

impl<W: WorldView> Sim<W, CompressedRecorder> {
    /// Starts a block-compressed full-record simulation: complete
    /// trajectories at ≤ 12 B/move, validated by
    /// [`validate`](crate::validate), with every aggregate bit-identical
    /// to a [`FullRecorder`] run.
    pub fn with_compressed(world: W) -> Self {
        let recorder = CompressedRecorder::with_capacity(world.n());
        Sim::with_recorder(world, recorder)
    }
}

impl<W: WorldView, R: Recorder> Sim<W, R> {
    /// Starts a simulation over an arbitrary recorder (which must be fresh
    /// — no robot activated yet).
    pub fn with_recorder(world: W, mut recorder: R) -> Self {
        recorder.activate(RobotId::SOURCE, 0.0, world.source_pos());
        Sim {
            world,
            recorder,
            trace: Trace::new(),
            pool: ParPool::sequential(),
            cancel: CancelToken::never(),
            cancel_polls: 0,
        }
    }

    /// Attaches a [`ParPool`] for deterministic intra-run parallelism
    /// (builder style). The pool only accelerates pure batched work —
    /// sensing fan-out on pure-sensing worlds, frontier bucketing — so the
    /// run's observable results are bit-identical for any pool width; the
    /// default is sequential.
    #[must_use]
    pub fn with_pool(mut self, pool: ParPool) -> Self {
        self.pool = pool;
        self
    }

    /// The configured intra-run parallelism (1 = sequential, the
    /// default). This is the `--sim-threads` value a sweep job runs with.
    pub fn sim_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The pool batched operations run on (`Copy`; owns no threads).
    pub fn pool(&self) -> ParPool {
        self.pool
    }

    /// Attaches a [`CancelToken`] (builder style). The run polls it at
    /// every sensing checkpoint — [`Sim::look_into`],
    /// [`Sim::look_many_into`], [`Sim::wake`] — and aborts by unwinding
    /// with [`Cancelled`] once it fires (caught at the engine boundary by
    /// [`catch_cancel`](crate::catch_cancel)). Polling is a pure read, so
    /// an uncancelled run is bit-identical with or without a token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The attached cancellation token (inert by default).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The cooperative cancellation checkpoint: cheap flag poll on every
    /// call, wall-clock deadline re-check every [`DEADLINE_STRIDE`] calls.
    /// Unwinds with [`Cancelled`] (bypassing the panic hook) once the
    /// token fires.
    #[inline]
    fn cancel_checkpoint(&mut self) {
        self.cancel_polls = self.cancel_polls.wrapping_add(1);
        let deep = self.cancel_polls.is_multiple_of(DEADLINE_STRIDE);
        if self.cancel.should_stop(deep) {
            Cancelled::unwind();
        }
    }

    /// Read access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Read access to the recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The phase trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the phase trace (algorithms annotate spans).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Number of recorded wake events (available on every recorder).
    pub fn wake_count(&self) -> usize {
        self.recorder.wake_count()
    }

    /// Visits wake events from index `start` onward in recording order —
    /// the streaming replacement for a wake slice, so compressed recorders
    /// never materialise the log. Drivers polling for *new* wakes (the
    /// wave frontier) pass the count they saw last.
    pub fn for_each_wake_from(&self, start: usize, mut f: impl FnMut(&WakeEvent)) {
        self.recorder.for_each_wake_from(start, &mut f);
    }

    /// Consumes the simulation, returning `(world, recorder, trace)`.
    pub fn into_recorder_parts(self) -> (W, R, Trace) {
        (self.world, self.recorder, self.trace)
    }

    /// Current time of an awake robot.
    ///
    /// # Panics
    ///
    /// Panics if the robot is asleep.
    pub fn time(&self, robot: RobotId) -> f64 {
        self.recorder.current_time(robot).expect("robot is asleep")
    }

    /// Current position of an awake robot.
    ///
    /// # Panics
    ///
    /// Panics if the robot is asleep.
    pub fn pos(&self, robot: RobotId) -> Point {
        self.recorder.current_pos(robot).expect("robot is asleep")
    }

    /// Moves an awake robot in a straight line at unit speed; returns the
    /// arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the robot is asleep.
    pub fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        self.recorder.move_to(robot, dest)
    }

    /// Hints that about `extra` more moves of `robot` follow (see
    /// [`Recorder::reserve_moves`]): sweep drivers announce their snapshot
    /// counts so full-profile segment storage allocates once per sweep
    /// instead of growing mid-flight. Never changes recorded contents.
    ///
    /// # Panics
    ///
    /// Panics if the robot is asleep (full recorder only).
    pub fn reserve_moves(&mut self, robot: RobotId, extra: usize) {
        self.recorder.reserve_moves(robot, extra);
    }

    /// Makes an awake robot wait (at its position) until absolute time `t`;
    /// times in the past are a no-op so barrier joins are painless.
    ///
    /// # Panics
    ///
    /// Panics if the robot is asleep.
    pub fn wait_until(&mut self, robot: RobotId, t: f64) {
        self.recorder.wait_until(robot, t);
    }

    /// Takes a snapshot from the robot's current position at its current
    /// time: sleeping robots within Euclidean distance 1. Allocates a
    /// fresh vector; hot loops should prefer [`Sim::look_into`].
    ///
    /// # Panics
    ///
    /// Panics if the robot is asleep.
    pub fn look(&mut self, robot: RobotId) -> Vec<Sighting> {
        let mut out = Vec::new();
        self.look_into(robot, &mut out);
        out
    }

    /// Buffer-reusing snapshot: clears `out` and fills it with the
    /// sleeping robots within Euclidean distance 1 of the robot's current
    /// position, sorted by id. Reusing one buffer across a sweep makes the
    /// hottest loop of every algorithm allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the robot is asleep.
    pub fn look_into(&mut self, robot: RobotId, out: &mut Vec<Sighting>) {
        self.cancel_checkpoint();
        let (pos, time) = (self.pos(robot), self.time(robot));
        self.world.look_into(pos, time, out);
    }

    /// Batched snapshots at explicit `(position, time)` pairs — the
    /// sensing side of a sweep whose trajectory was already driven (see
    /// `sweep` planning in the algorithms): clears and fills `out` with
    /// every query's sightings concatenated in query order, and `counts`
    /// with the per-query sighting counts, counting `queries.len()` looks.
    ///
    /// Equivalent to one [`Sim::look_into`] per query in order; on worlds
    /// with pure sensing the queries fan out over the sim's [`ParPool`]
    /// with an order-preserving merge, bit-identical at any thread count.
    pub fn look_many_into(
        &mut self,
        queries: &[(Point, f64)],
        out: &mut Vec<Sighting>,
        counts: &mut Vec<u32>,
    ) {
        self.cancel_checkpoint();
        let pool = self.pool;
        self.world.look_batch_into(queries, &pool, out, counts);
    }

    /// Wakes `target`, which must be co-located with `waker` (within
    /// `EPS`). The woken robot's timeline starts at the waker's current
    /// time at the target's initial position. Returns `target`.
    ///
    /// # Panics
    ///
    /// Panics if `waker` is asleep, `target` is already awake, `target`'s
    /// position is unknown to the world, or the two are not co-located —
    /// all of which are algorithm bugs.
    pub fn wake(&mut self, waker: RobotId, target: RobotId) -> RobotId {
        self.cancel_checkpoint();
        let (wpos, time) = (self.pos(waker), self.time(waker));
        let tpos = self
            .world
            .position(target)
            .unwrap_or_else(|| panic!("waking undiscovered robot {target}"));
        let d = wpos.dist(tpos);
        assert!(
            d <= 1e-6,
            "robot {waker} tried to wake {target} from distance {d}"
        );
        self.world
            .wake(target, time)
            .unwrap_or_else(|e| panic!("wake failed: {e}"));
        self.recorder.activate(target, time, tpos);
        self.recorder.record_wake(WakeEvent {
            waker,
            target,
            time,
            pos: tpos,
        });
        target
    }

    /// Synchronizes a group of awake robots to their common latest time;
    /// returns that barrier time. This is how co-located teams realize the
    /// paper's "wait until the four teams can merge".
    ///
    /// # Panics
    ///
    /// Panics if any robot is asleep or `robots` is empty.
    pub fn barrier(&mut self, robots: &[RobotId]) -> f64 {
        assert!(!robots.is_empty(), "empty barrier");
        let t = robots
            .iter()
            .map(|&r| self.time(r))
            .fold(f64::NEG_INFINITY, f64::max);
        for &r in robots {
            self.wait_until(r, t);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcreteWorld;
    use freezetag_instances::Instance;

    fn instance() -> Instance {
        Instance::new(vec![
            Point::new(0.5, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
        ])
    }

    fn sim() -> Sim<ConcreteWorld> {
        Sim::new(ConcreteWorld::new(&instance()))
    }

    #[test]
    fn source_starts_at_origin_time_zero() {
        let s = sim();
        assert_eq!(s.time(RobotId::SOURCE), 0.0);
        assert_eq!(s.pos(RobotId::SOURCE), Point::ORIGIN);
    }

    #[test]
    fn wake_chain() {
        let mut s = sim();
        let seen = s.look(RobotId::SOURCE);
        assert_eq!(seen.len(), 2);
        s.move_to(RobotId::SOURCE, seen[0].pos);
        let r0 = s.wake(RobotId::SOURCE, seen[0].id);
        assert_eq!(s.time(r0), 0.5);
        assert_eq!(s.pos(r0), Point::new(0.5, 0.0));
        // The woken robot can now act on its own.
        s.move_to(r0, Point::new(1.0, 0.0));
        s.wake(r0, RobotId::sleeper(1));
        assert_eq!(s.schedule().wakes().len(), 2);
        assert_eq!(s.schedule().makespan(), 1.0);
    }

    #[test]
    fn stats_driver_matches_full_driver_on_a_chain() {
        let inst = instance();
        let script = |mut s: Sim<ConcreteWorld, StatsRecorder>| -> (f64, f64, f64) {
            let mut buf = Vec::new();
            s.look_into(RobotId::SOURCE, &mut buf);
            assert_eq!(buf.len(), 2);
            s.move_to(RobotId::SOURCE, buf[0].pos);
            let r0 = s.wake(RobotId::SOURCE, buf[0].id);
            s.move_to(r0, Point::new(1.0, 0.0));
            s.wake(r0, RobotId::sleeper(1));
            let (_, rec, _) = s.into_recorder_parts();
            (rec.makespan(), rec.total_energy(), rec.max_energy())
        };
        let (mk, te, me) = script(Sim::with_stats(ConcreteWorld::new(&inst)));
        let mut full = Sim::new(ConcreteWorld::new(&inst));
        let seen = full.look(RobotId::SOURCE);
        full.move_to(RobotId::SOURCE, seen[0].pos);
        let r0 = full.wake(RobotId::SOURCE, seen[0].id);
        full.move_to(r0, Point::new(1.0, 0.0));
        full.wake(r0, RobotId::sleeper(1));
        let (_, schedule, _) = full.into_parts();
        assert_eq!(mk.to_bits(), schedule.makespan().to_bits());
        assert_eq!(te.to_bits(), schedule.total_energy().to_bits());
        assert_eq!(me.to_bits(), schedule.max_energy().to_bits());
    }

    #[test]
    fn look_into_reuses_the_buffer() {
        let mut s = sim();
        let mut buf = vec![
            Sighting {
                id: RobotId::sleeper(2),
                pos: Point::ORIGIN,
            };
            4
        ];
        s.look_into(RobotId::SOURCE, &mut buf);
        let ids: Vec<RobotId> = buf.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![RobotId::sleeper(0), RobotId::sleeper(1)]);
    }

    #[test]
    #[should_panic]
    fn waking_from_afar_panics() {
        let mut s = sim();
        s.wake(RobotId::SOURCE, RobotId::sleeper(2)); // 5 units away
    }

    #[test]
    #[should_panic]
    fn moving_sleeping_robot_panics() {
        let mut s = sim();
        s.move_to(RobotId::sleeper(0), Point::ORIGIN);
    }

    #[test]
    fn barrier_aligns_times() {
        let mut s = sim();
        s.move_to(RobotId::SOURCE, Point::new(0.5, 0.0));
        let r0 = s.wake(RobotId::SOURCE, RobotId::sleeper(0));
        s.move_to(r0, Point::new(1.0, 0.0));
        let r1 = s.wake(r0, RobotId::sleeper(1));
        s.move_to(r1, Point::new(3.0, 0.0));
        let t = s.barrier(&[RobotId::SOURCE, r0, r1]);
        assert_eq!(t, 3.0);
        assert_eq!(s.time(RobotId::SOURCE), 3.0);
        assert_eq!(s.time(r0), 3.0);
    }

    #[test]
    fn sim_threads_default_and_builder() {
        let s = sim();
        assert_eq!(s.sim_threads(), 1);
        assert!(s.pool().is_sequential());
        let s = sim().with_pool(ParPool::new(3));
        assert_eq!(s.sim_threads(), 3);
    }

    #[test]
    fn look_many_matches_single_looks() {
        let mut s = sim();
        let queries = vec![
            (Point::ORIGIN, 0.0),
            (Point::new(4.5, 0.0), 0.0),
            (Point::new(100.0, 100.0), 0.0),
        ];
        let (mut flat, mut counts) = (Vec::new(), Vec::new());
        s.look_many_into(&queries, &mut flat, &mut counts);
        assert_eq!(counts, vec![2, 1, 0]);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[2].id, RobotId::sleeper(2));
        assert_eq!(s.world().look_count(), 3);
    }

    #[test]
    fn cancelled_token_unwinds_at_the_next_look() {
        use crate::cancel::{catch_cancel, CancelToken, Cancelled};
        let token = CancelToken::new();
        token.cancel();
        let r = catch_cancel(|| {
            let mut s = sim().with_cancel(token);
            s.look(RobotId::SOURCE);
            unreachable!("checkpoint must fire before sensing");
        });
        assert_eq!(r, Err(Cancelled));
    }

    #[test]
    fn inert_token_changes_nothing() {
        use crate::cancel::CancelToken;
        let mut plain = sim();
        let mut tokened = sim().with_cancel(CancelToken::new());
        assert_eq!(
            plain.look(RobotId::SOURCE).len(),
            tokened.look(RobotId::SOURCE).len()
        );
        assert!(!tokened.cancel_token().is_cancelled());
    }

    #[test]
    fn look_is_at_current_position() {
        let mut s = sim();
        s.move_to(RobotId::SOURCE, Point::new(4.5, 0.0));
        let seen = s.look(RobotId::SOURCE);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].id, RobotId::sleeper(2));
    }
}
