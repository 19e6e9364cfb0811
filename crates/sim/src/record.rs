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

/// A [`Recorder`] that can answer *where a robot was* at an arbitrary past
/// time — the random-access query the event-driven executor's co-location
/// scan and the wake-validation pass need. [`FullRecorder`] answers from
/// its timelines; [`CompressedRecorder`](crate::CompressedRecorder)
/// decodes the one block containing `t`. `StatsRecorder` keeps no
/// trajectory and deliberately does not implement this.
pub trait ReplayRecorder: Recorder {
    /// Position of `robot` at absolute time `t` (clamped before activation
    /// / after the last event), `None` if the robot was never activated.
    ///
    /// Must agree bit-for-bit with
    /// [`Timeline::position_at`](crate::Timeline::position_at) on the same
    /// event sequence.
    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point>;
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

impl ReplayRecorder for FullRecorder {
    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point> {
        self.schedule.timeline(robot).map(|tl| tl.position_at(t))
    }
}

const ASLEEP: f64 = f64::NAN;

/// The constant-memory implementation: flat per-robot arrays (wake time,
/// current time, current position, accumulated travel) plus the wake log.
/// No segments — trajectories cannot be replayed or validated, but every
/// aggregate statistic matches [`FullRecorder`] bit-for-bit.
#[derive(Debug, Clone)]
pub struct StatsRecorder {
    // Indexed by RobotId::index(); NaN in `wake_times` means "asleep".
    wake_times: Vec<f64>,
    times: Vec<f64>,
    pos_x: Vec<f64>,
    pos_y: Vec<f64>,
    travels: Vec<f64>,
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
        self.wake_times.clear();
        self.wake_times.resize(n + 1, ASLEEP);
        self.times.clear();
        self.times.resize(n + 1, 0.0);
        self.pos_x.clear();
        self.pos_x.resize(n + 1, 0.0);
        self.pos_y.clear();
        self.pos_y.resize(n + 1, 0.0);
        self.travels.clear();
        self.travels.resize(n + 1, 0.0);
        self.wakes.clear();
        self.active = 0;
    }

    #[inline]
    fn check_active(&self, robot: RobotId) -> usize {
        let i = robot.index();
        assert!(
            !self.wake_times[i].is_nan(),
            "robot has no timeline (asleep)"
        );
        i
    }
}

impl Recorder for StatsRecorder {
    fn with_capacity(n: usize) -> Self {
        StatsRecorder {
            wake_times: vec![ASLEEP; n + 1],
            times: vec![0.0; n + 1],
            pos_x: vec![0.0; n + 1],
            pos_y: vec![0.0; n + 1],
            travels: vec![0.0; n + 1],
            wakes: Vec::new(),
            active: 0,
        }
    }

    fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        let i = robot.index();
        assert!(self.wake_times[i].is_nan(), "robot {robot} activated twice");
        self.wake_times[i] = time;
        self.times[i] = time;
        self.pos_x[i] = pos.x;
        self.pos_y[i] = pos.y;
        self.travels[i] = 0.0;
        self.active += 1;
    }

    fn is_active(&self, robot: RobotId) -> bool {
        !self.wake_times[robot.index()].is_nan()
    }

    fn current_time(&self, robot: RobotId) -> Option<f64> {
        let i = robot.index();
        (!self.wake_times[i].is_nan()).then(|| self.times[i])
    }

    fn current_pos(&self, robot: RobotId) -> Option<Point> {
        let i = robot.index();
        (!self.wake_times[i].is_nan()).then(|| Point::new(self.pos_x[i], self.pos_y[i]))
    }

    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        let i = self.check_active(robot);
        // Same operations in the same order as Timeline::move_to +
        // Timeline::travel: one dist per move, accumulated per robot.
        let d = Point::new(self.pos_x[i], self.pos_y[i]).dist(dest);
        let end = self.times[i] + d;
        self.times[i] = end;
        self.pos_x[i] = dest.x;
        self.pos_y[i] = dest.y;
        self.travels[i] += d;
        end
    }

    fn wait_until(&mut self, robot: RobotId, t: f64) {
        let i = self.check_active(robot);
        // Mirrors Timeline::wait_until: waits contribute a 0-length
        // segment, which adds exactly 0.0 travel — skipping the addition
        // keeps the per-robot travel sum bit-identical.
        if t > self.times[i] + freezetag_geometry::EPS {
            self.times[i] = t;
        }
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
        let t = self.wake_times[robot.index()];
        (!t.is_nan()).then_some(t)
    }

    fn travel(&self, robot: RobotId) -> Option<f64> {
        let i = robot.index();
        (!self.wake_times[i].is_nan()).then(|| self.travels[i])
    }

    fn active_count(&self) -> usize {
        self.active
    }

    fn completion_time(&self) -> f64 {
        // Index order, exactly like Schedule::completion_time.
        (0..self.times.len())
            .filter(|&i| !self.wake_times[i].is_nan())
            .map(|i| self.times[i])
            .fold(0.0, f64::max)
    }

    fn max_energy(&self) -> f64 {
        (0..self.travels.len())
            .filter(|&i| !self.wake_times[i].is_nan())
            .map(|i| self.travels[i])
            .fold(0.0, f64::max)
    }

    fn total_energy(&self) -> f64 {
        // Per-robot travels summed in index order — the same association
        // and the same +0.0 fold Schedule::total_energy uses.
        (0..self.travels.len())
            .filter(|&i| !self.wake_times[i].is_nan())
            .map(|i| self.travels[i])
            .fold(0.0, |a, b| a + b)
    }

    fn memory_bytes(&self) -> usize {
        self.wake_times.len() * 8 * 5 + self.wakes.len() * std::mem::size_of::<WakeEvent>()
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
    #[should_panic]
    fn stats_double_activation_panics() {
        let mut rec = StatsRecorder::with_capacity(1);
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.activate(RobotId::SOURCE, 1.0, Point::ORIGIN);
    }

    #[test]
    #[should_panic]
    fn stats_moving_sleeping_robot_panics() {
        let mut rec = StatsRecorder::with_capacity(1);
        rec.move_to(RobotId::sleeper(0), Point::ORIGIN);
    }
}
