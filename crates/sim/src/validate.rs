use crate::{
    CompressedRecorder, ParPool, Recorder, RobotId, Schedule, Segment, SegmentIter, SimError,
    Timeline, WakeEvent, WakeIter, WAKE_BLOCK_EVENTS,
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
/// virtual call — and `Sync`, so [`validate_with_pool`] can read one run
/// from several workers.
pub trait RecordedRun: Sync {
    /// One robot's segments in chronological order.
    type Segments<'a>: Iterator<Item = Segment>
    where
        Self: 'a;
    /// The wake-event log in recording order.
    type Wakes<'a>: Iterator<Item = WakeEvent>
    where
        Self: 'a;

    /// Number of robot slots (`n + 1` for a run over `n` sleepers).
    fn robot_slots(&self) -> usize;

    /// Activation (wake) time of `robot`, `None` if it never woke.
    fn wake_time(&self, robot: RobotId) -> Option<f64>;

    /// Activation position of `robot`, `None` if it never woke.
    fn start_pos(&self, robot: RobotId) -> Option<Point>;

    /// The segments of `robot` (empty if it never woke).
    fn segments(&self, robot: RobotId) -> Self::Segments<'_>;

    /// The wake events from index `start` on, in recording order
    /// (`start <= wake_count()`).
    fn wake_events_from(&self, start: usize) -> Self::Wakes<'_>;

    /// Position of `robot` at absolute time `t`, `None` if it never woke
    /// (the semantics of [`Timeline::position_at`](crate::Timeline::position_at)).
    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point>;

    /// Number of robots that woke (including the source).
    fn active_count(&self) -> usize;

    /// The latest wake time; 0 when nothing was woken.
    fn makespan(&self) -> f64;

    /// Number of recorded wake events.
    fn wake_count(&self) -> usize;

    /// The robots whose records the store keeps, in the order it keeps
    /// them, when that is not robot-index order — the order in which the
    /// per-timeline pass reads the store front to back. `None`, the
    /// default, means robot-index order.
    fn storage_order(&self) -> Option<Vec<RobotId>> {
        None
    }
}

impl RecordedRun for Schedule {
    type Segments<'a> = Copied<slice::Iter<'a, Segment>>;
    type Wakes<'a> = Copied<slice::Iter<'a, WakeEvent>>;

    fn robot_slots(&self) -> usize {
        Schedule::robot_slots(self)
    }

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

    fn wake_events_from(&self, start: usize) -> Self::Wakes<'_> {
        self.wakes()[start..].iter().copied()
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

    fn robot_slots(&self) -> usize {
        CompressedRecorder::robot_slots(self)
    }

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        Recorder::wake_time(self, robot)
    }

    fn start_pos(&self, robot: RobotId) -> Option<Point> {
        CompressedRecorder::start_pos(self, robot)
    }

    fn segments(&self, robot: RobotId) -> Self::Segments<'_> {
        CompressedRecorder::segments(self, robot)
    }

    fn wake_events_from(&self, start: usize) -> Self::Wakes<'_> {
        CompressedRecorder::wake_events_from(self, start)
    }

    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point> {
        CompressedRecorder::position_at(self, robot, t)
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

    fn storage_order(&self) -> Option<Vec<RobotId>> {
        Some(CompressedRecorder::storage_order(self))
    }
}

/// Independently re-checks a finished run against the model of
/// Section 1.2:
///
/// * the source starts at time 0 at `source`;
/// * every timeline is contiguous in time and space, and every segment
///   respects unit speed (`length ≤ duration + tol`);
/// * every non-source timeline belongs to a robot of `initial_positions`
///   and is introduced by exactly one wake event, at the robot's initial
///   position, performed by a robot that was awake and co-located at that
///   moment;
/// * (optional) every robot is awake at the end;
/// * (optional) every robot's travel is within the energy budget.
///
/// `run` is either store: a flat [`Schedule`], or a [`CompressedRecorder`]
/// whose event bytes are decoded one segment at a time, so validation
/// memory stays `O(robots)` instead of `O(total segments)`. Both go
/// through this one check sequence, and the report's folds run in a fixed
/// order — per-segment travel additions in timeline order, `f64::max`
/// completion/energy folds and the total-energy sum in robot-index order,
/// the same operations as [`Timeline::travel`] and the [`Schedule`]
/// statistics — so on the same event sequence the two stores yield
/// bit-identical reports.
///
/// `initial_positions[i]` must be the initial position of
/// `RobotId::sleeper(i)` — for adversarial worlds, the positions revealed
/// at the end of the run.
///
/// Runs on the calling thread; [`validate_with_pool`] is the same check
/// on a worker pool.
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
    validate_with_pool(run, source, initial_positions, opts, &ParPool::sequential())
}

/// Robots per per-timeline kinematics task of [`validate_with_pool`].
const TIMELINE_BATCH: usize = 2048;

/// Wake events per wake-pass task of [`validate_with_pool`]: a whole
/// number of the compressed log's snapshot blocks, so every task starts
/// decoding at a snapshot instead of skip-decoding into one.
const WAKE_BATCH: usize = 8 * WAKE_BLOCK_EVENTS;

/// One active robot's kinematics, as the report's folds need it:
/// `(robot, end time, travel)`.
type Tally = (RobotId, f64, f64);

/// One unit of [`validate_with_pool`]'s work.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// The order-dependent pass over the whole wake log: valid targets,
    /// at most one wake each.
    Targets,
    /// Kinematics of the robot slots from this index on.
    Timelines(usize),
    /// Per-event wake checks from this event index on.
    Wakes(usize),
}

/// A finished task, in the shape its merge step needs.
enum Done {
    /// The first failing event with its error, and which sleepers were
    /// woken (complete only when no event failed).
    Targets(Option<(usize, SimError)>, Vec<bool>),
    /// A tally per passing active robot of the batch, and the batch's
    /// lowest-index failing robot with its error.
    Timelines(Vec<Tally>, Option<(RobotId, SimError)>),
    /// The batch's first failing event with its error.
    Wakes(Option<(usize, SimError)>),
}

/// [`validate`] with its per-timeline kinematics and per-event wake checks
/// spread over `pool` — the one check sequence, cut into independent
/// tasks: timelines in batches of the store's
/// [`storage_order`](RecordedRun::storage_order), the wake log at its
/// snapshot blocks, and the order-dependent duplicate-wake pass as one
/// sequential task. The lowest-index timeline error wins, per-robot
/// results merge back into robot-index order, and the report's folds run
/// sequentially over them, so the report and the *first* error are
/// bit-identical to [`validate`]'s at any pool width and in either storage
/// order.
///
/// # Errors
///
/// Exactly those of [`validate`].
pub fn validate_with_pool<R: RecordedRun>(
    run: &R,
    source: Point,
    initial_positions: &[Point],
    opts: &ValidationOptions,
    pool: &ParPool,
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

    // --- the independent passes ------------------------------------------
    let order = run.storage_order();
    let timelines = order.as_ref().map_or(run.robot_slots(), Vec::len);
    let robot_at = |k: usize| order.as_ref().map_or(RobotId::from_index(k), |o| o[k]);
    let mut tasks = vec![Task::Targets];
    tasks.extend((0..timelines).step_by(TIMELINE_BATCH).map(Task::Timelines));
    tasks.extend((0..run.wake_count()).step_by(WAKE_BATCH).map(Task::Wakes));
    let done = pool.map_batches(&tasks, 1, |_, task| match task[0] {
        Task::Targets => {
            let (first, woken) = check_targets(run, n);
            Done::Targets(first, woken)
        }
        Task::Timelines(from) => {
            let robots = (from..(from + TIMELINE_BATCH).min(timelines)).map(robot_at);
            let (tallies, first) = check_timelines(run, robots, initial_positions, tol);
            Done::Timelines(tallies, first)
        }
        Task::Wakes(from) => Done::Wakes(check_wakes(run, from, initial_positions, tol)),
    });

    // --- merge, in the sequential check order ----------------------------
    // Timelines first (lowest robot index), then the wake log (event
    // order), where the sequential target pass wins ties: at one event,
    // its checks precede the per-event ones.
    let mut tallies: Vec<Tally> = Vec::with_capacity(run.active_count());
    let mut timeline_error: Option<(RobotId, SimError)> = None;
    let mut targets = None;
    let mut wake_error: Option<(usize, SimError)> = None;
    for d in done {
        match d {
            Done::Timelines(batch, first) => {
                tallies.extend(batch);
                timeline_error = earliest(timeline_error, first);
            }
            Done::Targets(first, woken) => {
                wake_error = earliest(wake_error, first);
                targets = Some(woken);
            }
            Done::Wakes(first) => wake_error = earliest(wake_error, first),
        }
    }
    if let Some((_, e)) = timeline_error {
        return Err(e);
    }
    if let Some((_, e)) = wake_error {
        return Err(e);
    }
    if order.is_some() {
        // Back to robot-index order for the energy check and the folds.
        tallies.sort_unstable_by_key(|&(robot, ..)| robot);
    }
    // Every non-source timeline must correspond to a wake event.
    let woken = targets.expect("the target pass always runs");
    for (i, &w) in woken.iter().enumerate() {
        let robot = RobotId::sleeper(i);
        if !w && wake_time(run, robot).is_some() {
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
    if let Some(budget) = opts.energy_budget {
        for &(robot, _, spent) in &tallies {
            if spent > budget + tol {
                return Err(SimError::EnergyExceeded {
                    robot,
                    spent,
                    budget,
                });
            }
        }
    }

    // Robot-index folds over the merged tallies: the same operations in
    // the same order as one sequential pass.
    let mut completion = 0.0f64;
    let mut max_energy = 0.0f64;
    let mut total_energy = 0.0f64;
    for &(_, end, travel) in &tallies {
        completion = f64::max(completion, end);
        max_energy = f64::max(max_energy, travel);
        total_energy += travel;
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

/// Of two `(position, error)` candidates — an event index or a robot —
/// the one at the earlier position; `a` on a tie.
fn earliest<K: Ord>(a: Option<(K, SimError)>, b: Option<(K, SimError)>) -> Option<(K, SimError)> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
        (a, b) => a.or(b),
    }
}

/// `run.wake_time(robot)`, `None` for a robot the run has no slot for.
fn wake_time<R: RecordedRun>(run: &R, robot: RobotId) -> Option<f64> {
    (robot.index() < run.robot_slots())
        .then(|| run.wake_time(robot))
        .flatten()
}

/// Kinematics of `robots`, in the order given. Returns a tally per active
/// robot that passes, and the lowest-index failing robot with its error.
fn check_timelines<R: RecordedRun>(
    run: &R,
    robots: impl Iterator<Item = RobotId>,
    initial_positions: &[Point],
    tol: f64,
) -> (Vec<Tally>, Option<(RobotId, SimError)>) {
    let mut out = Vec::new();
    let mut first = None;
    for robot in robots {
        match check_timeline(run, robot, initial_positions, tol) {
            Ok(Some((end, travel))) => out.push((robot, end, travel)),
            Ok(None) => {}
            Err(e) => first = earliest(first, Some((robot, e))),
        }
    }
    (out, first)
}

/// Kinematics of one timeline in one fused pass, whose replay checks share
/// their segment loads (and single per-segment `dist`) with the travel
/// accumulation the report needs. Returns `(end time, travel)`, `None` for
/// an asleep robot, or the timeline's first error.
fn check_timeline<R: RecordedRun>(
    run: &R,
    robot: RobotId,
    initial_positions: &[Point],
    tol: f64,
) -> Result<Option<(f64, f64)>, SimError> {
    let Some(start) = run.wake_time(robot) else {
        return Ok(None);
    };
    let mut t = start;
    let mut pos = run.start_pos(robot).expect("active robot has a start");
    if let Some(i) = robot.sleeper_index() {
        let Some(&expect) = initial_positions.get(i) else {
            return Err(SimError::InvalidTimeline(format!(
                "robot {robot} has a timeline but no initial position"
            )));
        };
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
        // continuity distance entirely; the comparison outcome is the same
        // either way since equal points are at distance 0.
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
    Ok(Some((t, travel)))
}

/// The order-dependent half of the wake checks, over the whole log: every
/// target is a sleeper with an initial position, woken at most once.
/// Returns the first failing event with its error, and the woken flags.
fn check_targets<R: RecordedRun>(run: &R, n: usize) -> (Option<(usize, SimError)>, Vec<bool>) {
    let mut woken = vec![false; n];
    for (k, w) in run.wake_events_from(0).enumerate() {
        let Some(i) = w.target.sleeper_index() else {
            let e = SimError::InvalidTimeline(format!("wake event {k} targets the source"));
            return (Some((k, e)), woken);
        };
        if i >= n {
            let e = SimError::InvalidTimeline(format!(
                "wake event {k} targets {}, which has no initial position",
                w.target
            ));
            return (Some((k, e)), woken);
        }
        if woken[i] {
            return (Some((k, SimError::AlreadyAwake(w.target))), woken);
        }
        woken[i] = true;
    }
    (None, woken)
}

/// The per-event half of the wake checks on the events `from..from +
/// WAKE_BATCH`: position, target timeline, waker awake and co-located.
/// Events whose target [`check_targets`] rejects are skipped — that pass
/// reports them, at or before their index. Returns the batch's first
/// failing event with its error.
fn check_wakes<R: RecordedRun>(
    run: &R,
    from: usize,
    initial_positions: &[Point],
    tol: f64,
) -> Option<(usize, SimError)> {
    let events = run.wake_events_from(from).take(WAKE_BATCH);
    for (k, w) in (from..).zip(events) {
        let Some(&expect) = w
            .target
            .sleeper_index()
            .and_then(|i| initial_positions.get(i))
        else {
            continue;
        };
        let fail = |e: SimError| Some((k, e));
        if w.pos.dist(expect) > tol {
            return fail(SimError::InvalidTimeline(format!(
                "wake event {k}: position {} is not {}'s initial position",
                w.pos, w.target
            )));
        }
        let Some(target_start) = wake_time(run, w.target) else {
            return fail(SimError::InvalidTimeline(format!(
                "woken robot {} has no timeline",
                w.target
            )));
        };
        if (target_start - w.time).abs() > tol {
            return fail(SimError::InvalidTimeline(format!(
                "robot {} timeline starts at {target_start} but was woken at {}",
                w.target, w.time
            )));
        }
        let Some(waker_start) = wake_time(run, w.waker) else {
            return fail(SimError::Asleep(w.waker));
        };
        if waker_start > w.time + tol {
            return fail(SimError::Asleep(w.waker));
        }
        let wp = run.position_at(w.waker, w.time).expect("waker is active");
        let d = wp.dist(w.pos);
        if d > tol {
            return fail(SimError::NotColocated {
                waker: w.waker,
                target: w.target,
                distance: d,
            });
        }
    }
    None
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
