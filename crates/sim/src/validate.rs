use crate::record::ReplayRecorder;
use crate::{
    CompressedRecorder, Recorder, RobotId, Schedule, Segment, SegmentIter, SimError, Timeline,
    WakeEvent, WakeIter,
};
use freezetag_geometry::Point;
use std::iter::Copied;
use std::slice;

/// Tolerances and requirements for schedule validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationOptions {
    /// Per-robot energy budget `B`, if the run claims one.
    pub energy_budget: Option<f64>,
    /// Require every robot to be awake at the end.
    pub require_all_awake: bool,
    /// Absolute tolerance on positions/times/speed (float slack).
    pub tolerance: f64,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            energy_budget: None,
            require_all_awake: true,
            tolerance: 1e-6,
        }
    }
}

/// Summary of a successfully validated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// Time the last robot was woken (the paper's makespan).
    pub makespan: f64,
    /// Time the last robot stopped moving/waiting.
    pub completion_time: f64,
    /// Largest per-robot travel distance (worst-case energy).
    pub max_energy: f64,
    /// Total travel distance of the swarm.
    pub total_energy: f64,
    /// Robots awake at the end (including the source).
    pub robots_awake: usize,
    /// Number of wake events.
    pub wake_count: usize,
}

/// Read-only access to a recorded run: exactly the queries [`validate`]
/// makes. Implemented by the flat [`Schedule`] and by the block-compressed
/// [`CompressedRecorder`], so one check sequence serves both stores.
/// [`validate`] is generic over it — static dispatch, no per-segment
/// virtual call.
pub trait RecordedRun {
    /// One robot's segments in chronological order.
    type Segments<'a>: Iterator<Item = Segment>
    where
        Self: 'a;
    /// The wake-event log in recording order.
    type Wakes<'a>: Iterator<Item = WakeEvent>
    where
        Self: 'a;

    /// Activation (wake) time of `robot`, `None` if it never woke.
    fn wake_time(&self, robot: RobotId) -> Option<f64>;

    /// Activation position of `robot`, `None` if it never woke.
    fn start_pos(&self, robot: RobotId) -> Option<Point>;

    /// The segments of `robot` (empty if it never woke).
    fn segments(&self, robot: RobotId) -> Self::Segments<'_>;

    /// Every wake event, in recording order.
    fn wake_events(&self) -> Self::Wakes<'_>;

    /// Position of `robot` at absolute time `t`, `None` if it never woke
    /// (the semantics of [`Timeline::position_at`](crate::Timeline::position_at)).
    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point>;

    /// Number of robots that woke (including the source).
    fn active_count(&self) -> usize;

    /// The latest wake time; 0 when nothing was woken.
    fn makespan(&self) -> f64;

    /// Number of recorded wake events.
    fn wake_count(&self) -> usize;
}

impl RecordedRun for Schedule {
    type Segments<'a> = Copied<slice::Iter<'a, Segment>>;
    type Wakes<'a> = Copied<slice::Iter<'a, WakeEvent>>;

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        self.timeline(robot).map(Timeline::start_time)
    }

    fn start_pos(&self, robot: RobotId) -> Option<Point> {
        self.timeline(robot).map(Timeline::start_pos)
    }

    fn segments(&self, robot: RobotId) -> Self::Segments<'_> {
        self.timeline(robot)
            .map_or(&[][..], Timeline::segments)
            .iter()
            .copied()
    }

    fn wake_events(&self) -> Self::Wakes<'_> {
        self.wakes().iter().copied()
    }

    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point> {
        self.timeline(robot).map(|tl| tl.position_at(t))
    }

    fn active_count(&self) -> usize {
        Schedule::active_count(self)
    }

    fn makespan(&self) -> f64 {
        Schedule::makespan(self)
    }

    fn wake_count(&self) -> usize {
        self.wakes().len()
    }
}

impl RecordedRun for CompressedRecorder {
    type Segments<'a> = SegmentIter<'a>;
    type Wakes<'a> = WakeIter<'a>;

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        Recorder::wake_time(self, robot)
    }

    fn start_pos(&self, robot: RobotId) -> Option<Point> {
        CompressedRecorder::start_pos(self, robot)
    }

    fn segments(&self, robot: RobotId) -> Self::Segments<'_> {
        CompressedRecorder::segments(self, robot)
    }

    fn wake_events(&self) -> Self::Wakes<'_> {
        self.wake_events_from(0)
    }

    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point> {
        ReplayRecorder::position_at(self, robot, t)
    }

    fn active_count(&self) -> usize {
        Recorder::active_count(self)
    }

    fn makespan(&self) -> f64 {
        Recorder::makespan(self)
    }

    fn wake_count(&self) -> usize {
        Recorder::wake_count(self)
    }
}

/// Independently re-checks a finished run against the model of
/// Section 1.2:
///
/// * the source starts at time 0 at `source`;
/// * every timeline is contiguous in time and space, and every segment
///   respects unit speed (`length ≤ duration + tol`);
/// * every non-source timeline is introduced by exactly one wake event, at
///   the robot's initial position, performed by a robot that was awake and
///   co-located at that moment;
/// * (optional) every robot is awake at the end;
/// * (optional) every robot's travel is within the energy budget.
///
/// `run` is either store: a flat [`Schedule`], or a [`CompressedRecorder`]
/// whose blocks are decoded one per robot at a time, so validation memory
/// stays `O(block)` instead of `O(total segments)`. Both go through this
/// one check sequence, and the report's folds run in a fixed order —
/// per-segment travel additions in timeline order, `f64::max`
/// completion/energy folds in robot-index order, the same operations as
/// [`Timeline::travel`] and the [`Schedule`] statistics — so on the same
/// event sequence the two stores yield bit-identical reports.
///
/// `initial_positions[i]` must be the initial position of
/// `RobotId::sleeper(i)` — for adversarial worlds, the positions revealed
/// at the end of the run.
///
/// # Errors
///
/// Returns the first [`SimError`] found; the run is only trusted when the
/// result is `Ok`.
pub fn validate<R: RecordedRun>(
    run: &R,
    source: Point,
    initial_positions: &[Point],
    opts: &ValidationOptions,
) -> Result<ValidationReport, SimError> {
    let tol = opts.tolerance;
    let n = initial_positions.len();

    // --- source timeline -------------------------------------------------
    let src_start = run
        .wake_time(RobotId::SOURCE)
        .ok_or_else(|| SimError::InvalidTimeline("source has no timeline".into()))?;
    if src_start != 0.0 {
        return Err(SimError::InvalidTimeline(format!(
            "source starts at t={src_start} instead of 0"
        )));
    }
    let src_pos = run.start_pos(RobotId::SOURCE).expect("source is active");
    if src_pos.dist(source) > tol {
        return Err(SimError::InvalidTimeline(
            "source timeline does not start at the source position".into(),
        ));
    }

    // --- per-timeline kinematics -----------------------------------------
    // One fused pass per timeline, in robot-index order: the replay checks
    // share their segment loads (and single per-segment `dist`) with the
    // travel/completion accumulation that ValidationReport needs.
    let mut travels: Vec<f64> = Vec::with_capacity(run.active_count());
    let mut completion = 0.0f64;
    let mut max_energy = 0.0f64;
    let mut total_energy = 0.0f64;
    for idx in 0..=n {
        let robot = RobotId::from_index(idx);
        let Some(start) = run.wake_time(robot) else {
            continue;
        };
        let mut t = start;
        let mut pos = run.start_pos(robot).expect("active robot has a start");
        if let Some(i) = robot.sleeper_index() {
            let expect = initial_positions[i];
            if pos.dist(expect) > tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} starts at {pos} instead of its initial position {expect}"
                )));
            }
        }
        let mut travel = 0.0f64;
        for (k, s) in run.segments(robot).enumerate() {
            if (s.start_time - t).abs() > tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} starts at {} expected {t}",
                    s.start_time
                )));
            }
            // Bit-equal endpoints (the recorder's normal output) skip the
            // continuity distance entirely; the comparison outcome is the
            // same either way since equal points are at distance 0.
            if (s.from.x != pos.x || s.from.y != pos.y) && s.from.dist(pos) > tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} teleports from {pos} to {}",
                    s.from
                )));
            }
            if s.end_time < s.start_time - tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} goes back in time"
                )));
            }
            let length = s.length();
            if length > s.duration() + tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} exceeds unit speed: length {length} in {}",
                    s.duration()
                )));
            }
            travel += length;
            t = s.end_time;
            pos = s.to;
        }
        completion = f64::max(completion, t);
        max_energy = f64::max(max_energy, travel);
        total_energy += travel;
        travels.push(travel);
    }

    // --- wake events -------------------------------------------------------
    let mut woken = vec![false; n];
    for (k, w) in run.wake_events().enumerate() {
        let i = w.target.sleeper_index().ok_or_else(|| {
            SimError::InvalidTimeline(format!("wake event {k} targets the source"))
        })?;
        if woken[i] {
            return Err(SimError::AlreadyAwake(w.target));
        }
        woken[i] = true;
        if w.pos.dist(initial_positions[i]) > tol {
            return Err(SimError::InvalidTimeline(format!(
                "wake event {k}: position {} is not {}'s initial position",
                w.pos, w.target
            )));
        }
        let target_start = run.wake_time(w.target).ok_or_else(|| {
            SimError::InvalidTimeline(format!("woken robot {} has no timeline", w.target))
        })?;
        if (target_start - w.time).abs() > tol {
            return Err(SimError::InvalidTimeline(format!(
                "robot {} timeline starts at {target_start} but was woken at {}",
                w.target, w.time
            )));
        }
        let waker_start = run.wake_time(w.waker).ok_or(SimError::Asleep(w.waker))?;
        if waker_start > w.time + tol {
            return Err(SimError::Asleep(w.waker));
        }
        let wp = run.position_at(w.waker, w.time).expect("waker is active");
        let d = wp.dist(w.pos);
        if d > tol {
            return Err(SimError::NotColocated {
                waker: w.waker,
                target: w.target,
                distance: d,
            });
        }
    }
    // Every non-source timeline must correspond to a wake event.
    for (i, &w) in woken.iter().enumerate() {
        let robot = RobotId::sleeper(i);
        if !w && run.wake_time(robot).is_some() {
            return Err(SimError::InvalidTimeline(format!(
                "robot {robot} has a timeline but no wake event"
            )));
        }
    }

    // --- coverage ----------------------------------------------------------
    let awake = run.active_count();
    if opts.require_all_awake && awake != n + 1 {
        return Err(SimError::NotAllAwake {
            asleep: n + 1 - awake,
        });
    }

    // --- energy ------------------------------------------------------------
    // `travels` holds the active robots in robot-index order.
    if let Some(budget) = opts.energy_budget {
        let active = (0..=n)
            .map(RobotId::from_index)
            .filter(|&r| run.wake_time(r).is_some());
        for (robot, &spent) in active.zip(&travels) {
            if spent > budget + tol {
                return Err(SimError::EnergyExceeded {
                    robot,
                    spent,
                    budget,
                });
            }
        }
    }

    Ok(ValidationReport {
        makespan: run.makespan(),
        completion_time: completion,
        max_energy,
        total_energy,
        robots_awake: awake,
        wake_count: run.wake_count(),
    })
}

/// [`validate`] under the name callers of the [`CompressedRecorder`]
/// store use; it is the same generic function.
pub use self::validate as validate_compressed;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcreteWorld, FullRecorder, Sim};
    use freezetag_instances::Instance;

    fn run_two_robot_chain<R: Recorder>() -> (R, Vec<Point>) {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let recorder = R::with_capacity(inst.n());
        let mut sim = Sim::with_recorder(ConcreteWorld::new(&inst), recorder);
        sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        let r0 = sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
        sim.move_to(r0, Point::new(2.0, 0.0));
        sim.wake(r0, RobotId::sleeper(1));
        let (_, rec, _) = sim.into_recorder_parts();
        (rec, inst.positions().to_vec())
    }

    #[test]
    fn valid_run_passes() {
        let (full, positions) = run_two_robot_chain::<FullRecorder>();
        let rep = validate(
            full.schedule(),
            Point::ORIGIN,
            &positions,
            &ValidationOptions::default(),
        )
        .expect("valid run");
        assert_eq!(rep.wake_count, 2);
        assert_eq!(rep.robots_awake, 3);
        assert!((rep.makespan - 2.0).abs() < 1e-9);
        assert!((rep.max_energy - 1.0).abs() < 1e-9);
        assert!((rep.total_energy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compressed_report_matches_flat_validator_bitwise() {
        let (full, positions) = run_two_robot_chain::<FullRecorder>();
        let (rec, _) = run_two_robot_chain::<CompressedRecorder>();
        let opts = ValidationOptions::default();
        let flat = validate(full.schedule(), Point::ORIGIN, &positions, &opts).expect("valid");
        let streamed = validate(&rec, Point::ORIGIN, &positions, &opts).expect("valid");
        assert_eq!(flat.makespan.to_bits(), streamed.makespan.to_bits());
        assert_eq!(
            flat.completion_time.to_bits(),
            streamed.completion_time.to_bits()
        );
        assert_eq!(flat.max_energy.to_bits(), streamed.max_energy.to_bits());
        assert_eq!(flat.total_energy.to_bits(), streamed.total_energy.to_bits());
        assert_eq!(flat.robots_awake, streamed.robots_awake);
        assert_eq!(flat.wake_count, streamed.wake_count);
    }

    // Flat store only: the compressed codec recomputes every move's end
    // time as start + length, so a faster-than-unit-speed segment cannot
    // be encoded there.
    #[test]
    fn tampered_speed_is_caught() {
        let (full, positions) = run_two_robot_chain::<FullRecorder>();
        let mut schedule = full.into_schedule();
        // Corrupt: teleport the source by appending an impossible segment.
        schedule
            .timeline_mut(RobotId::SOURCE)
            .segments_tamper_for_test();
        let err = validate(
            &schedule,
            Point::ORIGIN,
            &positions,
            &ValidationOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidTimeline(_)));
    }
}
