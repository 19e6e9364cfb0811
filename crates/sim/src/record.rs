//! Pluggable run observability: the [`Recorder`] trait splits *driving* a
//! simulation from *recording* it.
//!
//! [`Sim`](crate::Sim) routes every kinematic event (activation, move,
//! wait, wake) through its recorder. Three implementations ship:
//!
//! * [`FullRecorder`] — today's complete record: one
//!   [`Timeline`](crate::Timeline) of segments per robot inside a
//!   [`Schedule`], as required by the independent validator, the SVG
//!   renderer and the adversarial theorem checks. Memory grows with the
//!   number of *moves* (`O(total segments)`, ~48 B each).
//! * [`StatsRecorder`] — constant memory per robot: wake time, current
//!   time/position, and accumulated travel. No segments are kept, which is
//!   what makes 10⁶-robot sweeps fit in memory.
//! * [`CompressedRecorder`](crate::CompressedRecorder) — complete
//!   trajectories in delta-encoded, block-compressed form (≤ 12 B/move),
//!   validated block by block by [`validate`](crate::validate).
//!
//! The recorders are *bit-identical* on every aggregate they share
//! (makespan, completion time, per-robot wake times and travel, max/total
//! energy): the constant-memory recorders perform the same floating-point
//! additions in the same per-robot order that [`Schedule`]'s derived
//! statistics do, a property pinned by the `recorder_parity` proptest
//! suite.

use crate::{RobotId, Schedule, WakeEvent};
use freezetag_geometry::Point;

/// Receives every kinematic event of a run and answers the per-robot state
/// queries the simulation driver needs (current time/position).
///
/// All f64-returning aggregate methods must be deterministic functions of
/// the event sequence — the experiment engine's byte-identical-output
/// guarantee rests on it.
pub trait Recorder {
    /// A fresh recorder for `n` sleeping robots (robot slots `0..=n`, with
    /// the source at index 0).
    fn with_capacity(n: usize) -> Self
    where
        Self: Sized;

    /// Starts recording `robot` from `time` at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the robot was already activated.
    fn activate(&mut self, robot: RobotId, time: f64, pos: Point);

    /// Whether `robot` has been activated.
    fn is_active(&self, robot: RobotId) -> bool;

    /// Current (latest) time of `robot`, `None` if not activated.
    fn current_time(&self, robot: RobotId) -> Option<f64>;

    /// Current (latest) position of `robot`, `None` if not activated.
    fn current_pos(&self, robot: RobotId) -> Option<Point>;

    /// Records a unit-speed move of `robot` to `dest`; returns the arrival
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the robot is not activated.
    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64;

    /// Hints that about `extra` more moves of `robot` are coming (drivers
    /// announce sweep sizes so segment storage can pre-allocate). Purely a
    /// capacity hint: it must never change recorded contents or any
    /// deterministic accounting. The default does nothing.
    fn reserve_moves(&mut self, robot: RobotId, extra: usize) {
        let _ = (robot, extra);
    }

    /// Records a wait of `robot` until absolute time `t` (no-op for past
    /// times).
    ///
    /// # Panics
    ///
    /// Panics if the robot is not activated.
    fn wait_until(&mut self, robot: RobotId, t: f64);

    /// Appends a wake event to the log.
    fn record_wake(&mut self, event: WakeEvent);

    /// Number of recorded wake events.
    fn wake_count(&self) -> usize;

    /// Visits the wake events from index `start` onward, in recording
    /// order. Streaming-friendly: compressed recorders decode lazily
    /// instead of exposing a slice, and drivers that poll for *new* wakes
    /// (the wave frontier) pass the count they saw last.
    fn for_each_wake_from(&self, start: usize, f: &mut dyn FnMut(&WakeEvent));

    /// Activation (wake) time of `robot`, `None` if not activated.
    fn wake_time(&self, robot: RobotId) -> Option<f64>;

    /// Total distance travelled by `robot` so far, `None` if not
    /// activated.
    fn travel(&self, robot: RobotId) -> Option<f64>;

    /// Number of activated robots.
    fn active_count(&self) -> usize;

    /// The latest wake time — the paper's *makespan*; 0 when nothing was
    /// woken.
    fn makespan(&self) -> f64 {
        // Same op sequence as `wakes.iter().map(..).fold(0.0, f64::max)`.
        let mut acc = 0.0;
        self.for_each_wake_from(0, &mut |w| acc = f64::max(acc, w.time));
        acc
    }

    /// The time the last robot finishes moving/waiting (≥ makespan).
    fn completion_time(&self) -> f64;

    /// Largest per-robot travel distance (worst-case energy).
    fn max_energy(&self) -> f64;

    /// Total travel distance over all robots.
    fn total_energy(&self) -> f64;

    /// Deterministic estimate of the recorder's heap footprint in bytes —
    /// a function of the event sequence only (no allocator introspection),
    /// so sweep output stays byte-identical across thread counts.
    fn memory_bytes(&self) -> usize;
}

/// The complete-record implementation: a [`Schedule`] (per-robot segment
/// timelines plus the wake log). Required by `validate`, SVG export and
/// every consumer that replays trajectories.
#[derive(Debug, Clone)]
pub struct FullRecorder {
    schedule: Schedule,
}

impl FullRecorder {
    /// Read access to the recorded schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Consumes the recorder, returning the schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// The wake-event log in recording order.
    pub fn wakes(&self) -> &[WakeEvent] {
        self.schedule.wakes()
    }
}

impl Recorder for FullRecorder {
    fn with_capacity(n: usize) -> Self {
        FullRecorder {
            schedule: Schedule::new(n),
        }
    }

    fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        self.schedule.activate(robot, time, pos);
    }

    fn is_active(&self, robot: RobotId) -> bool {
        self.schedule.timeline(robot).is_some()
    }

    fn current_time(&self, robot: RobotId) -> Option<f64> {
        self.schedule.timeline(robot).map(|tl| tl.current_time())
    }

    fn current_pos(&self, robot: RobotId) -> Option<Point> {
        self.schedule.timeline(robot).map(|tl| tl.current_pos())
    }

    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        self.schedule.timeline_mut(robot).move_to(dest)
    }

    fn reserve_moves(&mut self, robot: RobotId, extra: usize) {
        self.schedule.timeline_mut(robot).reserve(extra);
    }

    fn wait_until(&mut self, robot: RobotId, t: f64) {
        self.schedule.timeline_mut(robot).wait_until(t);
    }

    fn record_wake(&mut self, event: WakeEvent) {
        self.schedule.record_wake(event);
    }

    fn wake_count(&self) -> usize {
        self.schedule.wakes().len()
    }

    fn for_each_wake_from(&self, start: usize, f: &mut dyn FnMut(&WakeEvent)) {
        for w in &self.schedule.wakes()[start..] {
            f(w);
        }
    }

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        self.schedule.timeline(robot).map(|tl| tl.start_time())
    }

    fn travel(&self, robot: RobotId) -> Option<f64> {
        self.schedule.timeline(robot).map(|tl| tl.travel())
    }

    fn active_count(&self) -> usize {
        self.schedule.active_count()
    }

    fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }

    fn completion_time(&self) -> f64 {
        self.schedule.completion_time()
    }

    fn max_energy(&self) -> f64 {
        self.schedule.max_energy()
    }

    fn total_energy(&self) -> f64 {
        self.schedule.total_energy()
    }

    fn memory_bytes(&self) -> usize {
        self.schedule.memory_bytes()
    }
}

/// Panic message of a move or wait recorded for an asleep robot.
pub(crate) const ASLEEP_PANIC: &str = "robot has no timeline (asleep)";

/// One robot's current kinematic state — wake time, clock, position and
/// accumulated travel — in one 40-byte record, so a recorded event touches
/// one cache line instead of one per field. Both constant-memory recorders
/// hold their per-robot state in this type, which is why their move/wait
/// arithmetic exists once: the operations below are the same float ops in
/// the same order as [`Timeline`](crate::Timeline)'s, so
/// [`StatsRecorder`] and [`CompressedRecorder`](crate::CompressedRecorder)
/// agree with [`FullRecorder`] bit-for-bit by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RobotState {
    /// Activation time; NaN means "asleep".
    wake_time: f64,
    pub(crate) time: f64,
    pub(crate) x: f64,
    pub(crate) y: f64,
    travel: f64,
}

impl RobotState {
    /// A robot that has not been activated: the record a robot gets on
    /// activation, before its state is set.
    pub(crate) const ASLEEP: RobotState = RobotState {
        wake_time: f64::NAN,
        time: 0.0,
        x: 0.0,
        y: 0.0,
        travel: 0.0,
    };

    /// Bytes per woken robot that [`Recorder::memory_bytes`] charges for
    /// this state: five f64 fields.
    pub(crate) const BYTES: usize = 8 * 5;

    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        !self.wake_time.is_nan()
    }

    /// Starts the robot's clock at `time` from `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the robot was already activated.
    #[inline]
    pub(crate) fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        assert!(!self.is_active(), "robot {robot} activated twice");
        *self = RobotState {
            wake_time: time,
            time,
            x: pos.x,
            y: pos.y,
            travel: 0.0,
        };
    }

    /// Panics unless the robot is active — the precondition of every
    /// recorded move and wait.
    #[inline]
    pub(crate) fn check_active(&self) {
        assert!(self.is_active(), "{ASLEEP_PANIC}");
    }

    #[inline]
    pub(crate) fn pos(&self) -> Point {
        Point::new(self.x, self.y)
    }

    #[inline]
    pub(crate) fn wake_time(&self) -> Option<f64> {
        self.is_active().then_some(self.wake_time)
    }

    #[inline]
    pub(crate) fn current_time(&self) -> Option<f64> {
        self.is_active().then_some(self.time)
    }

    #[inline]
    pub(crate) fn current_pos(&self) -> Option<Point> {
        self.is_active().then(|| self.pos())
    }

    #[inline]
    pub(crate) fn travel(&self) -> Option<f64> {
        self.is_active().then_some(self.travel)
    }

    /// A unit-speed move to `dest`; returns the arrival time. Same
    /// operations in the same order as `Timeline::move_to` +
    /// `Timeline::travel`: one dist per move, accumulated per robot.
    #[inline]
    pub(crate) fn move_to(&mut self, dest: Point) -> f64 {
        let d = self.pos().dist(dest);
        let end = self.time + d;
        self.time = end;
        self.x = dest.x;
        self.y = dest.y;
        self.travel += d;
        end
    }

    /// Whether waiting until `t` records a wait segment — exactly when
    /// `Timeline::wait_until` would push one.
    #[inline]
    pub(crate) fn waits_until(&self, t: f64) -> bool {
        t > self.time + freezetag_geometry::EPS
    }

    /// A wait until `t`. Waits add a 0-length segment, i.e. exactly 0.0
    /// travel, so skipping the addition keeps the per-robot travel sum
    /// bit-identical.
    #[inline]
    pub(crate) fn wait_until(&mut self, t: f64) {
        if self.waits_until(t) {
            self.time = t;
        }
    }
}

/// Per-robot records of a constant-memory recorder, stored in activation
/// order behind one slot map by robot index.
///
/// The generators number robots in no spatial order, but the robots one
/// `realize` call wakes are exactly the group that moves together next: in
/// activation order they sit in one contiguous run of records, so a group
/// move walks neighbouring memory instead of jumping across the whole
/// array. Asleep robots hold no record at all. Everything defined by robot
/// index stays so: [`ActivationOrder::by_index`] walks the map in index
/// order, which is what the aggregate folds use.
#[derive(Debug, Clone)]
pub(crate) struct ActivationOrder<T> {
    /// Storage slot of each robot's record, by `RobotId::index()`;
    /// [`ActivationOrder::ASLEEP`] until the robot is activated.
    slot_of: Vec<u32>,
    /// The records, in activation order.
    records: Vec<T>,
}

impl<T> ActivationOrder<T> {
    /// Slot-map entry of a robot with no record.
    const ASLEEP: u32 = u32::MAX;

    /// An empty store for `slots` robots. The record array is reserved up
    /// front (address space, not resident memory) so activations never
    /// move the records already stored.
    pub(crate) fn new(slots: usize) -> Self {
        ActivationOrder {
            slot_of: vec![Self::ASLEEP; slots],
            records: Vec::with_capacity(slots),
        }
    }

    /// Back to the `new(slots)` state, keeping both allocations.
    pub(crate) fn reset(&mut self, slots: usize) {
        self.slot_of.clear();
        self.slot_of.resize(slots, Self::ASLEEP);
        self.records.clear();
        self.records.reserve(slots);
    }

    /// Number of robot slots (`n + 1`).
    pub(crate) fn slots(&self) -> usize {
        self.slot_of.len()
    }

    /// The stored records, in activation order.
    pub(crate) fn records(&self) -> &[T] {
        &self.records
    }

    /// `robot`'s record, `None` while it has none.
    ///
    /// # Panics
    ///
    /// Panics if `robot` has no slot.
    #[inline]
    pub(crate) fn get(&self, robot: RobotId) -> Option<&T> {
        // `ASLEEP` is past every stored index, so one bounds check answers
        // both "asleep" and "stored".
        self.records.get(self.slot_of[robot.index()] as usize)
    }

    /// Mutable [`ActivationOrder::get`].
    #[inline]
    pub(crate) fn get_mut(&mut self, robot: RobotId) -> Option<&mut T> {
        self.records.get_mut(self.slot_of[robot.index()] as usize)
    }

    /// `robot`'s record, storing `fresh` as its record first if it has
    /// none.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, robot: RobotId, fresh: T) -> &mut T {
        let i = robot.index();
        let slot = match self.slot_of[i] {
            Self::ASLEEP => {
                let slot = u32::try_from(self.records.len())
                    .ok()
                    .filter(|&s| s != Self::ASLEEP)
                    .expect("more records than a u32 slot map can address");
                self.records.push(fresh);
                self.slot_of[i] = slot;
                slot
            }
            slot => slot,
        };
        &mut self.records[slot as usize]
    }

    /// The stored records in robot-index order.
    pub(crate) fn by_index(&self) -> impl Iterator<Item = &T> {
        self.slot_of
            .iter()
            .filter_map(|&s| self.records.get(s as usize))
    }

    /// The robots with a record, in storage order: the slot map inverted.
    pub(crate) fn storage_order(&self) -> Vec<RobotId> {
        let mut order = vec![RobotId::SOURCE; self.records.len()];
        for (i, &s) in self.slot_of.iter().enumerate() {
            if let Some(r) = order.get_mut(s as usize) {
                *r = RobotId::from_index(i);
            }
        }
        order
    }

    /// Bytes [`Recorder::memory_bytes`] charges for the slot map, one
    /// `u32` per robot slot; records are charged by their owners.
    pub(crate) fn slot_map_bytes(&self) -> usize {
        self.slot_of.len() * std::mem::size_of::<u32>()
    }
}

/// Latest clock over the active robots, folded in index order exactly
/// like `Schedule::completion_time`.
pub(crate) fn completion_time<'a>(states: impl Iterator<Item = &'a RobotState>) -> f64 {
    states
        .filter_map(RobotState::current_time)
        .fold(0.0, f64::max)
}

/// Largest per-robot travel, in index order.
pub(crate) fn max_energy<'a>(states: impl Iterator<Item = &'a RobotState>) -> f64 {
    states.filter_map(RobotState::travel).fold(0.0, f64::max)
}

/// Per-robot travels summed in index order — the same association and the
/// same +0.0 fold `Schedule::total_energy` uses.
pub(crate) fn total_energy<'a>(states: impl Iterator<Item = &'a RobotState>) -> f64 {
    states
        .filter_map(RobotState::travel)
        .fold(0.0, |a, b| a + b)
}

/// The constant-memory implementation: one `RobotState` per woken robot
/// (wake time, current time, current position, accumulated travel), stored
/// in activation order, plus the wake log. No segments — trajectories
/// cannot be replayed or validated, but every aggregate statistic matches
/// [`FullRecorder`] bit-for-bit.
#[derive(Debug, Clone)]
pub struct StatsRecorder {
    robots: ActivationOrder<RobotState>,
    wakes: Vec<WakeEvent>,
    active: usize,
}

impl StatsRecorder {
    /// The wake-event log in recording order.
    pub fn wakes(&self) -> &[WakeEvent] {
        &self.wakes
    }

    /// Restores the recorder to the fresh `with_capacity(n)` state while
    /// keeping its allocations — the reuse path for worker-resident
    /// recorders serving one job after another. A recycled recorder is
    /// indistinguishable from a new one (including
    /// [`memory_bytes`](Recorder::memory_bytes), which counts lengths, not
    /// capacity).
    pub fn recycle(&mut self, n: usize) {
        self.robots.reset(n + 1);
        self.wakes.clear();
        self.active = 0;
    }

    #[inline]
    fn active_state(&mut self, robot: RobotId) -> &mut RobotState {
        let r = self.robots.get_mut(robot).expect(ASLEEP_PANIC);
        r.check_active();
        r
    }
}

impl Recorder for StatsRecorder {
    fn with_capacity(n: usize) -> Self {
        StatsRecorder {
            robots: ActivationOrder::new(n + 1),
            wakes: Vec::new(),
            active: 0,
        }
    }

    fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        self.robots
            .get_or_insert(robot, RobotState::ASLEEP)
            .activate(robot, time, pos);
        self.active += 1;
    }

    fn is_active(&self, robot: RobotId) -> bool {
        self.robots.get(robot).is_some_and(RobotState::is_active)
    }

    fn current_time(&self, robot: RobotId) -> Option<f64> {
        self.robots.get(robot).and_then(RobotState::current_time)
    }

    fn current_pos(&self, robot: RobotId) -> Option<Point> {
        self.robots.get(robot).and_then(RobotState::current_pos)
    }

    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        self.active_state(robot).move_to(dest)
    }

    fn wait_until(&mut self, robot: RobotId, t: f64) {
        self.active_state(robot).wait_until(t);
    }

    fn record_wake(&mut self, event: WakeEvent) {
        self.wakes.push(event);
    }

    fn wake_count(&self) -> usize {
        self.wakes.len()
    }

    fn for_each_wake_from(&self, start: usize, f: &mut dyn FnMut(&WakeEvent)) {
        for w in &self.wakes[start..] {
            f(w);
        }
    }

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        self.robots.get(robot).and_then(RobotState::wake_time)
    }

    fn travel(&self, robot: RobotId) -> Option<f64> {
        self.robots.get(robot).and_then(RobotState::travel)
    }

    fn active_count(&self) -> usize {
        self.active
    }

    fn completion_time(&self) -> f64 {
        completion_time(self.robots.by_index())
    }

    fn max_energy(&self) -> f64 {
        max_energy(self.robots.by_index())
    }

    fn total_energy(&self) -> f64 {
        total_energy(self.robots.by_index())
    }

    fn memory_bytes(&self) -> usize {
        self.robots.slot_map_bytes()
            + self.robots.records().len() * RobotState::BYTES
            + self.wakes.len() * std::mem::size_of::<WakeEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<R: Recorder>(rec: &mut R) {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.move_to(RobotId::SOURCE, Point::new(3.0, 4.0));
        rec.record_wake(WakeEvent {
            waker: RobotId::SOURCE,
            target: RobotId::sleeper(0),
            time: 5.0,
            pos: Point::new(3.0, 4.0),
        });
        rec.activate(RobotId::sleeper(0), 5.0, Point::new(3.0, 4.0));
        rec.wait_until(RobotId::sleeper(0), 7.0);
        rec.move_to(RobotId::sleeper(0), Point::new(3.0, 0.0));
        rec.wait_until(RobotId::SOURCE, 2.0); // past: no-op
    }

    #[test]
    fn stats_and_full_agree_bitwise_on_a_scripted_run() {
        let mut full = FullRecorder::with_capacity(2);
        let mut stats = StatsRecorder::with_capacity(2);
        drive(&mut full);
        drive(&mut stats);
        assert_eq!(full.makespan().to_bits(), stats.makespan().to_bits());
        assert_eq!(
            full.completion_time().to_bits(),
            stats.completion_time().to_bits()
        );
        assert_eq!(full.max_energy().to_bits(), stats.max_energy().to_bits());
        assert_eq!(
            full.total_energy().to_bits(),
            stats.total_energy().to_bits()
        );
        for i in 0..=2 {
            let r = RobotId::from_index(i);
            assert_eq!(full.wake_time(r), stats.wake_time(r), "wake_time {r}");
            assert_eq!(
                full.travel(r).map(f64::to_bits),
                stats.travel(r).map(f64::to_bits),
                "travel {r}"
            );
            assert_eq!(full.current_time(r), stats.current_time(r));
            assert_eq!(full.current_pos(r), stats.current_pos(r));
        }
        assert_eq!(full.active_count(), 2);
        assert_eq!(stats.active_count(), 2);
        assert_eq!(full.wakes(), stats.wakes());
    }

    #[test]
    fn stats_memory_is_independent_of_move_count() {
        let mut rec = StatsRecorder::with_capacity(1);
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        let before = rec.memory_bytes();
        for i in 0..1000 {
            rec.move_to(RobotId::SOURCE, Point::new(i as f64, 0.0));
        }
        assert_eq!(rec.memory_bytes(), before, "stats memory must not grow");

        let mut full = FullRecorder::with_capacity(1);
        full.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        let before = full.memory_bytes();
        for i in 0..1000 {
            full.move_to(RobotId::SOURCE, Point::new(i as f64, 0.0));
        }
        assert!(full.memory_bytes() > before, "full memory must grow");
    }

    #[test]
    #[should_panic(expected = "activated twice")]
    fn stats_double_activation_panics() {
        let mut rec = StatsRecorder::with_capacity(1);
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.activate(RobotId::SOURCE, 1.0, Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "robot has no timeline (asleep)")]
    fn stats_moving_sleeping_robot_panics() {
        let mut rec = StatsRecorder::with_capacity(1);
        rec.move_to(RobotId::sleeper(0), Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "robot has no timeline (asleep)")]
    fn stats_waiting_sleeping_robot_panics() {
        let mut rec = StatsRecorder::with_capacity(2);
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.wait_until(RobotId::sleeper(1), 1.0);
    }

    #[test]
    fn stats_asleep_robots_answer_nothing_and_hold_no_record() {
        let mut rec = StatsRecorder::with_capacity(3);
        let empty = rec.memory_bytes();
        assert_eq!(empty, 4 * 4, "a fresh recorder holds only its slot map");
        rec.activate(RobotId::sleeper(2), 1.0, Point::new(1.0, 1.0));
        rec.reserve_moves(RobotId::sleeper(0), 1000);
        assert_eq!(rec.memory_bytes(), empty + RobotState::BYTES);
        for r in [RobotId::SOURCE, RobotId::sleeper(0), RobotId::sleeper(1)] {
            assert!(!rec.is_active(r));
            assert_eq!(rec.current_time(r), None);
            assert_eq!(rec.current_pos(r), None);
            assert_eq!(rec.wake_time(r), None);
            assert_eq!(rec.travel(r), None);
        }
        assert_eq!(rec.active_count(), 1);
    }

    #[test]
    fn stats_recycled_recorder_equals_a_fresh_one() {
        let second_job = |rec: &mut StatsRecorder| {
            rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
            rec.move_to(RobotId::SOURCE, Point::new(0.5, 0.0));
            rec.record_wake(WakeEvent {
                waker: RobotId::SOURCE,
                target: RobotId::sleeper(1),
                time: 0.5,
                pos: Point::new(0.5, 0.0),
            });
            rec.activate(RobotId::sleeper(1), 0.5, Point::new(0.5, 0.0));
            rec.move_to(RobotId::sleeper(1), Point::new(0.5, 2.0));
        };
        // A larger first job, woken in another order, leaves records,
        // wakes and a longer slot map behind.
        let mut recycled = StatsRecorder::with_capacity(2);
        drive(&mut recycled);
        recycled.activate(RobotId::sleeper(1), 9.0, Point::new(9.0, 9.0));
        recycled.recycle(3);
        second_job(&mut recycled);
        let mut fresh = StatsRecorder::with_capacity(3);
        second_job(&mut fresh);

        assert_eq!(recycled.memory_bytes(), fresh.memory_bytes());
        assert_eq!(recycled.wakes(), fresh.wakes());
        assert_eq!(recycled.active_count(), fresh.active_count());
        assert_eq!(recycled.makespan().to_bits(), fresh.makespan().to_bits());
        assert_eq!(
            recycled.completion_time().to_bits(),
            fresh.completion_time().to_bits()
        );
        assert_eq!(
            recycled.max_energy().to_bits(),
            fresh.max_energy().to_bits()
        );
        assert_eq!(
            recycled.total_energy().to_bits(),
            fresh.total_energy().to_bits()
        );
        for i in 0..=3 {
            let r = RobotId::from_index(i);
            assert_eq!(recycled.is_active(r), fresh.is_active(r), "{r}");
            assert_eq!(recycled.wake_time(r), fresh.wake_time(r), "{r}");
            assert_eq!(recycled.current_time(r), fresh.current_time(r), "{r}");
            assert_eq!(recycled.current_pos(r), fresh.current_pos(r), "{r}");
            assert_eq!(recycled.travel(r), fresh.travel(r), "{r}");
        }
    }

    #[test]
    fn activation_order_store_keeps_records_in_activation_order() {
        let mut store: ActivationOrder<u32> = ActivationOrder::new(4);
        for (i, r) in [3, 0, 2].into_iter().enumerate() {
            *store.get_or_insert(RobotId::from_index(r), 0) = 10 + i as u32;
        }
        assert_eq!(store.records(), &[10, 11, 12]);
        assert_eq!(store.by_index().copied().collect::<Vec<_>>(), [11, 12, 10]);
        let order: Vec<usize> = store.storage_order().iter().map(|r| r.index()).collect();
        assert_eq!(order, [3, 0, 2]);
        assert_eq!(store.get(RobotId::from_index(1)), None);
        assert_eq!(store.get(RobotId::from_index(2)), Some(&12));
        // A stored robot keeps its slot.
        *store.get_or_insert(RobotId::from_index(0), 99) += 1;
        assert_eq!(store.records(), &[10, 12, 12]);
        assert_eq!(store.slot_map_bytes(), 16);
        store.reset(2);
        assert_eq!((store.slots(), store.records().len()), (2, 0));
    }
}
