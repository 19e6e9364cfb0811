use crate::RobotId;
use freezetag_geometry::Point;

/// One atomic leg of a robot's trajectory: a straight move at unit speed,
/// or a wait (when `from == to`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Departure time.
    pub start_time: f64,
    /// Arrival time.
    pub end_time: f64,
    /// Departure position.
    pub from: Point,
    /// Arrival position.
    pub to: Point,
}

impl Segment {
    /// Whether this segment is a wait at a fixed position.
    pub fn is_wait(&self) -> bool {
        self.from.approx_eq(self.to)
    }

    /// Distance travelled (0 for waits).
    pub fn length(&self) -> f64 {
        self.from.dist(self.to)
    }

    /// Duration of the segment.
    pub fn duration(&self) -> f64 {
        self.end_time - self.start_time
    }

    /// Position at absolute time `t`, clamped to the segment's interval.
    pub fn position_at(&self, t: f64) -> Point {
        if self.duration() <= freezetag_geometry::EPS {
            return self.to;
        }
        let u = ((t - self.start_time) / self.duration()).clamp(0.0, 1.0);
        self.from.lerp(self.to, u)
    }
}

/// The full trajectory of one robot from its wake-up time onward.
///
/// Timelines are built incrementally by [`crate::Sim`]; they always remain
/// contiguous in both time and space, and every move runs at exactly unit
/// speed.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    robot: RobotId,
    start_time: f64,
    start_pos: Point,
    segments: Vec<Segment>,
}

impl Timeline {
    /// A fresh timeline for a robot waking at `start_time` at `start_pos`.
    pub fn new(robot: RobotId, start_time: f64, start_pos: Point) -> Self {
        Timeline {
            robot,
            start_time,
            start_pos,
            segments: Vec::new(),
        }
    }

    /// The robot this timeline belongs to.
    pub fn robot(&self) -> RobotId {
        self.robot
    }

    /// Wake-up (activation) time.
    pub fn start_time(&self) -> f64 {
        self.start_time
    }

    /// Initial position.
    pub fn start_pos(&self) -> Point {
        self.start_pos
    }

    /// Recorded segments in chronological order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Current (latest) time.
    pub fn current_time(&self) -> f64 {
        self.segments.last().map_or(self.start_time, |s| s.end_time)
    }

    /// Current (latest) position.
    pub fn current_pos(&self) -> Point {
        self.segments.last().map_or(self.start_pos, |s| s.to)
    }

    /// Appends a unit-speed move to `dest`; returns the arrival time.
    pub fn move_to(&mut self, dest: Point) -> f64 {
        let from = self.current_pos();
        let start = self.current_time();
        let end = start + from.dist(dest);
        self.segments.push(Segment {
            start_time: start,
            end_time: end,
            from,
            to: dest,
        });
        end
    }

    /// Appends a wait until absolute time `t` (no-op when `t` is in the
    /// past, which keeps barrier joins simple).
    pub fn wait_until(&mut self, t: f64) {
        let now = self.current_time();
        if t > now + freezetag_geometry::EPS {
            let pos = self.current_pos();
            self.segments.push(Segment {
                start_time: now,
                end_time: t,
                from: pos,
                to: pos,
            });
        }
    }

    /// Total distance travelled — the robot's energy consumption in the
    /// paper's model. Folded from `+0.0` (not `Sum`'s `-0.0` identity) so
    /// a never-moving robot reports bit-exact `+0.0`, matching the
    /// constant-memory recorder's accumulator.
    pub fn travel(&self) -> f64 {
        self.segments
            .iter()
            .map(Segment::length)
            .fold(0.0, |a, b| a + b)
    }

    /// Appends a physically impossible segment (10 units of distance in 1
    /// unit of time) so the validator tests have something to catch.
    #[cfg(test)]
    pub(crate) fn segments_tamper_for_test(&mut self) {
        let now = self.current_time();
        let pos = self.current_pos();
        self.segments.push(Segment {
            start_time: now,
            end_time: now + 1.0,
            from: pos,
            to: pos + Point::new(10.0, 0.0),
        });
    }

    /// Position at absolute time `t` (clamped before activation / after the
    /// last segment).
    ///
    /// Segment end times are nondecreasing (timelines are contiguous), so
    /// the containing segment is found by binary search — the validator
    /// resolves one of these per wake event, and a linear scan over a
    /// team lead's hundred-thousand-segment timeline was quadratic there.
    pub fn position_at(&self, t: f64) -> Point {
        if t <= self.start_time || self.segments.is_empty() {
            return if self.segments.is_empty() {
                self.current_pos()
            } else {
                self.start_pos
            };
        }
        let k = self.segments.partition_point(|s| s.end_time < t);
        match self.segments.get(k) {
            Some(s) => s.position_at(t),
            None => self.current_pos(),
        }
    }

    /// Pre-allocates room for `extra` more segments (hot drivers hint the
    /// known size of an upcoming sweep so mid-sweep reallocation copies
    /// disappear). Capacity never affects recorded contents or the
    /// length-based [`Schedule::memory_bytes`] accounting.
    pub fn reserve(&mut self, extra: usize) {
        self.segments.reserve(extra);
    }
}

/// A robot-wake event: `waker` woke `target` at `time` at position `pos`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeEvent {
    /// The already-awake robot performing the wake.
    pub waker: RobotId,
    /// The sleeping robot being woken.
    pub target: RobotId,
    /// Absolute time of the wake.
    pub time: f64,
    /// Position where it happened (the target's initial position).
    pub pos: Point,
}

/// The complete record of a simulation run: one timeline per awake robot
/// plus the wake-event log. The validator replays this record against the
/// revealed instance.
#[derive(Debug, Clone)]
pub struct Schedule {
    timelines: Vec<Option<Timeline>>, // indexed by RobotId::index()
    wakes: Vec<WakeEvent>,
}

impl Schedule {
    /// An empty schedule for `n` sleeping robots (capacity `n + 1` with the
    /// source at index 0).
    pub fn new(n: usize) -> Self {
        Schedule {
            timelines: vec![None; n + 1],
            wakes: Vec::new(),
        }
    }

    /// Number of robot slots (`n + 1`, the source included).
    pub fn robot_slots(&self) -> usize {
        self.timelines.len()
    }

    /// Starts a timeline for `robot`.
    ///
    /// # Panics
    ///
    /// Panics if the robot already has a timeline.
    pub fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        let slot = &mut self.timelines[robot.index()];
        assert!(slot.is_none(), "robot {robot} activated twice");
        *slot = Some(Timeline::new(robot, time, pos));
    }

    /// The timeline of `robot`, if awake.
    pub fn timeline(&self, robot: RobotId) -> Option<&Timeline> {
        self.timelines[robot.index()].as_ref()
    }

    /// Mutable access to the timeline of `robot`.
    ///
    /// # Panics
    ///
    /// Panics if the robot has no timeline (is still asleep).
    pub fn timeline_mut(&mut self, robot: RobotId) -> &mut Timeline {
        self.timelines[robot.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("robot has no timeline (asleep)"))
    }

    /// All started timelines.
    pub fn timelines(&self) -> impl Iterator<Item = &Timeline> {
        self.timelines.iter().filter_map(Option::as_ref)
    }

    /// Records a wake event.
    pub fn record_wake(&mut self, event: WakeEvent) {
        self.wakes.push(event);
    }

    /// The wake-event log in recording order.
    pub fn wakes(&self) -> &[WakeEvent] {
        &self.wakes
    }

    /// The latest wake time — the paper's *makespan* (time until the last
    /// robot is awake). 0 when nothing was woken.
    pub fn makespan(&self) -> f64 {
        self.wakes.iter().map(|w| w.time).fold(0.0, f64::max)
    }

    /// The time the last robot finishes moving/waiting (≥ makespan).
    pub fn completion_time(&self) -> f64 {
        self.timelines()
            .map(Timeline::current_time)
            .fold(0.0, f64::max)
    }

    /// Largest per-robot travel distance — the worst-case energy
    /// consumption, bounded by `B` in the energy-constrained model.
    pub fn max_energy(&self) -> f64 {
        self.timelines().map(Timeline::travel).fold(0.0, f64::max)
    }

    /// Total travel distance over all robots (`+0.0` fold, see
    /// [`Timeline::travel`]).
    pub fn total_energy(&self) -> f64 {
        self.timelines()
            .map(Timeline::travel)
            .fold(0.0, |a, b| a + b)
    }

    /// Number of robots with a started timeline (awake robots).
    pub fn active_count(&self) -> usize {
        self.timelines().count()
    }

    /// Deterministic estimate of the schedule's heap footprint in bytes:
    /// slot array plus recorded segments plus the wake log. Counts lengths,
    /// not capacities, so the value depends only on the event sequence.
    pub fn memory_bytes(&self) -> usize {
        self.timelines.len() * std::mem::size_of::<Option<Timeline>>()
            + self
                .timelines()
                .map(|tl| std::mem::size_of_val(tl.segments()))
                .sum::<usize>()
            + self.wakes.len() * std::mem::size_of::<WakeEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_moves_at_unit_speed() {
        let mut t = Timeline::new(RobotId::SOURCE, 0.0, Point::ORIGIN);
        let arrival = t.move_to(Point::new(3.0, 4.0));
        assert_eq!(arrival, 5.0);
        assert_eq!(t.current_time(), 5.0);
        assert_eq!(t.current_pos(), Point::new(3.0, 4.0));
        assert_eq!(t.travel(), 5.0);
    }

    #[test]
    fn wait_until_past_is_noop() {
        let mut t = Timeline::new(RobotId::SOURCE, 10.0, Point::ORIGIN);
        t.wait_until(5.0);
        assert_eq!(t.segments().len(), 0);
        t.wait_until(12.0);
        assert_eq!(t.current_time(), 12.0);
        assert_eq!(t.travel(), 0.0);
        assert!(t.segments()[0].is_wait());
    }

    #[test]
    fn position_at_interpolates() {
        let mut t = Timeline::new(RobotId::SOURCE, 0.0, Point::ORIGIN);
        t.move_to(Point::new(10.0, 0.0));
        t.wait_until(15.0);
        t.move_to(Point::new(10.0, 5.0));
        assert_eq!(t.position_at(-1.0), Point::ORIGIN);
        assert_eq!(t.position_at(4.0), Point::new(4.0, 0.0));
        assert_eq!(t.position_at(12.0), Point::new(10.0, 0.0));
        assert_eq!(t.position_at(17.0), Point::new(10.0, 2.0));
        assert_eq!(t.position_at(100.0), Point::new(10.0, 5.0));
    }

    #[test]
    fn schedule_bookkeeping() {
        let mut s = Schedule::new(2);
        s.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        s.timeline_mut(RobotId::SOURCE)
            .move_to(Point::new(1.0, 0.0));
        s.record_wake(WakeEvent {
            waker: RobotId::SOURCE,
            target: RobotId::sleeper(0),
            time: 1.0,
            pos: Point::new(1.0, 0.0),
        });
        s.activate(RobotId::sleeper(0), 1.0, Point::new(1.0, 0.0));
        s.timeline_mut(RobotId::sleeper(0))
            .move_to(Point::new(1.0, 2.0));
        assert_eq!(s.makespan(), 1.0);
        assert_eq!(s.completion_time(), 3.0);
        assert_eq!(s.max_energy(), 2.0);
        assert_eq!(s.total_energy(), 3.0);
        assert_eq!(s.active_count(), 2);
        assert!(s.timeline(RobotId::sleeper(1)).is_none());
    }

    #[test]
    #[should_panic]
    fn double_activation_panics() {
        let mut s = Schedule::new(1);
        s.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        s.activate(RobotId::SOURCE, 1.0, Point::ORIGIN);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random move/wait programs always yield continuous, unit-
            /// speed timelines whose travel equals the sum of move lengths
            /// and whose `position_at` is consistent with segment ends.
            #[test]
            fn timeline_kinematics(
                start in (-10.0f64..10.0, -10.0f64..10.0),
                ops in prop::collection::vec(
                    prop_oneof![
                        ((-20.0f64..20.0), (-20.0f64..20.0)).prop_map(|(x, y)| Some(Point::new(x, y))),
                        (0.0f64..30.0).prop_map(|_| None),
                    ],
                    1..20,
                ),
                waits in prop::collection::vec(0.0f64..30.0, 1..20),
            ) {
                let mut t = Timeline::new(RobotId::SOURCE, 0.0, Point::new(start.0, start.1));
                let mut expected_travel = 0.0;
                let mut wi = 0;
                for op in &ops {
                    match op {
                        Some(dest) => {
                            expected_travel += t.current_pos().dist(*dest);
                            t.move_to(*dest);
                        }
                        None => {
                            let until = t.current_time() + waits[wi % waits.len()];
                            t.wait_until(until);
                            wi += 1;
                        }
                    }
                }
                prop_assert!((t.travel() - expected_travel).abs() < 1e-6);
                // Continuity and unit speed.
                let mut time = t.start_time();
                let mut pos = t.start_pos();
                for s in t.segments() {
                    prop_assert!((s.start_time - time).abs() < 1e-9);
                    prop_assert!(s.from.approx_eq(pos));
                    prop_assert!(s.length() <= s.duration() + 1e-9);
                    time = s.end_time;
                    pos = s.to;
                }
                // position_at at segment boundaries.
                for s in t.segments() {
                    prop_assert!(t.position_at(s.end_time).dist(s.to) < 1e-6
                        || s.duration() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn segment_helpers() {
        let seg = Segment {
            start_time: 2.0,
            end_time: 7.0,
            from: Point::ORIGIN,
            to: Point::new(5.0, 0.0),
        };
        assert!(!seg.is_wait());
        assert_eq!(seg.length(), 5.0);
        assert_eq!(seg.duration(), 5.0);
        assert_eq!(seg.position_at(4.0), Point::new(2.0, 0.0));
    }
}
