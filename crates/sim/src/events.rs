//! Per-robot event-driven execution — robots as autonomous programs.
//!
//! The main drivers in `freezetag-core` orchestrate robots from a global
//! vantage point (fork/join over teams) while the restricted
//! [`WorldView`] keeps them honest about *information*.
//! This module closes the remaining gap for *control*: a [`RobotProgram`]
//! is a state machine owned by a single robot, which only ever sees its
//! own clock, its own position, its snapshots, and the identities of
//! co-located robots — exactly the paper's Look-Compute-Move robot. The
//! [`EventSim`] engine schedules all programs on one event queue, on one
//! thread, and records through a [`FullRecorder`], so a run yields the
//! same [`Schedule`] the validator checks.
//!
//! `freezetag-core` ships `AGrid` in both styles and the test-suite checks
//! the two produce the same makespan — evidence that the orchestrated
//! drivers emit schedules genuinely realizable by distributed robots.

use crate::record::{FullRecorder, Recorder};
use crate::{RobotId, Schedule, Sighting, WakeEvent, WorldView};
use freezetag_geometry::Point;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a robot decides to do next (the "Move" of Look-Compute-Move;
/// `Look` is the explicit snapshot action, as the paper's snapshots are
/// discrete).
pub enum Action {
    /// Move in a straight line at unit speed.
    MoveTo(Point),
    /// Wait at the current position until an absolute time (robots share
    /// the global clock). Past times complete immediately.
    WaitUntil(f64),
    /// Take a unit-vision snapshot; the result arrives in the next
    /// [`StepContext::sightings`].
    Look,
    /// Set this robot's visible light (the paper equips robots with a
    /// status light observable by co-located robots; Section 1.2).
    /// Instantaneous; the next step follows immediately.
    SetLight(u64),
    /// Wake the co-located sleeping robot `target`, installing `program`
    /// as its behaviour (co-located robots may exchange state — the
    /// program *is* the handed-over state).
    Wake {
        /// The sleeping robot to wake (must be co-located).
        target: RobotId,
        /// The behaviour the woken robot starts executing immediately.
        program: Box<dyn RobotProgram>,
    },
    /// Stop forever.
    Halt,
}

/// Per-step observation handed to a program: strictly local information.
pub struct StepContext<'a> {
    /// The robot's own id (self-naming by initial position is the paper's
    /// convention; a dense id is the simulation equivalent).
    pub id: RobotId,
    /// Global clock.
    pub now: f64,
    /// Own position.
    pub pos: Point,
    /// Result of the immediately preceding [`Action::Look`], if any.
    pub sightings: Option<&'a [Sighting]>,
    /// Robots co-located right now (halted ones included — a finished
    /// robot still physically sits there), ascending by id, each with its
    /// visible light. Co-location is the paper's communication primitive.
    pub colocated: &'a [(RobotId, u64)],
}

/// A robot behaviour: called once when activated (with `sightings = None`)
/// and then once after each completed action.
pub trait RobotProgram {
    /// Decide the next action.
    fn step(&mut self, ctx: &StepContext<'_>) -> Action;
}

/// Discrete-event engine executing one [`RobotProgram`] per awake robot.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_instances::Instance;
/// use freezetag_sim::events::{Action, EventSim, RobotProgram, StepContext};
/// use freezetag_sim::{ConcreteWorld, WorldView};
///
/// /// Walk to a fixed point, look, wake whatever is there, halt.
/// struct GoWake(Point, bool);
/// impl RobotProgram for GoWake {
///     fn step(&mut self, ctx: &StepContext<'_>) -> Action {
///         if !self.1 {
///             self.1 = true;
///             return Action::MoveTo(self.0);
///         }
///         if let Some(seen) = ctx.sightings {
///             if let Some(s) = seen.iter().find(|s| s.pos.approx_eq(ctx.pos)) {
///                 return Action::Wake { target: s.id, program: Box::new(Idle) };
///             }
///             return Action::Halt;
///         }
///         Action::Look
///     }
/// }
/// struct Idle;
/// impl RobotProgram for Idle {
///     fn step(&mut self, _: &StepContext<'_>) -> Action { Action::Halt }
/// }
///
/// let inst = Instance::new(vec![Point::new(2.0, 0.0)]);
/// let mut sim = EventSim::new(ConcreteWorld::new(&inst));
/// sim.run(Box::new(GoWake(Point::new(2.0, 0.0), false)));
/// assert!(sim.world().all_awake());
/// assert_eq!(sim.schedule().makespan(), 2.0);
/// ```
pub struct EventSim<W> {
    world: W,
    recorder: FullRecorder,
    // Struct-of-arrays robot state, indexed by RobotId::index().
    programs: Vec<Option<Box<dyn RobotProgram>>>,
    halted: Vec<bool>,
    lights: Vec<u64>,
    /// Sightings captured by a just-completed Look, delivered on the next
    /// step.
    pending: Vec<Option<Vec<Sighting>>>,
    // Min-heap of (time, robot) — ties resolved by robot id for
    // determinism. Times are ordered through total_cmp wrapped in a
    // sortable integer representation.
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    steps: usize,
}

/// Monotone map from non-negative finite f64 to u64 preserving order.
fn time_key(t: f64) -> u64 {
    debug_assert!(t >= 0.0 && t.is_finite(), "event times must be >= 0");
    t.to_bits()
}

impl<W: WorldView> EventSim<W> {
    /// Creates a fully-recorded engine over a world; only the source is
    /// active at first.
    pub fn new(world: W) -> Self {
        let n = world.n();
        let mut recorder = FullRecorder::with_capacity(n);
        recorder.activate(RobotId::SOURCE, 0.0, world.source_pos());
        let mut programs: Vec<Option<Box<dyn RobotProgram>>> = Vec::with_capacity(n + 1);
        programs.resize_with(n + 1, || None);
        EventSim {
            world,
            recorder,
            programs,
            halted: vec![false; n + 1],
            lights: vec![0; n + 1],
            pending: (0..n + 1).map(|_| None).collect(),
            queue: BinaryHeap::new(),
            steps: 0,
        }
    }

    /// The schedule recorded so far.
    pub fn schedule(&self) -> &Schedule {
        self.recorder.schedule()
    }

    /// Consumes the engine, returning world and schedule.
    pub fn into_parts(self) -> (W, Schedule) {
        (self.world, self.recorder.into_schedule())
    }

    /// Read access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Number of program steps executed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Installs the source's program and runs every robot to completion
    /// (until all programs halt and the queue drains).
    ///
    /// # Panics
    ///
    /// Panics on model violations (waking from a distance, waking an awake
    /// robot, moving a halted robot's program logic astray) — algorithm
    /// bugs, exactly like the orchestrated driver.
    pub fn run(&mut self, source_program: Box<dyn RobotProgram>) {
        self.programs[RobotId::SOURCE.index()] = Some(source_program);
        self.queue
            .push(Reverse((time_key(0.0), RobotId::SOURCE.index())));
        while let Some(Reverse((_, idx))) = self.queue.pop() {
            let robot = RobotId::from_index(idx);
            if self.programs[idx].is_none() || self.halted[idx] {
                continue;
            }
            self.step_robot(robot);
        }
    }

    fn colocated_at(&self, me: RobotId, pos: Point, now: f64) -> Vec<(RobotId, u64)> {
        let schedule = self.recorder.schedule();
        let mut out = Vec::new();
        for (i, &light) in self.lights.iter().enumerate() {
            if i == me.index() {
                continue;
            }
            let id = RobotId::from_index(i);
            // Only activated robots have a timeline (a robot has a program
            // iff it was activated); halted robots still physically sit
            // there and stay visible.
            if let Some(tl) = schedule.timeline(id) {
                if tl.position_at(now).dist(pos) <= freezetag_geometry::EPS {
                    out.push((id, light));
                }
            }
        }
        out
    }

    fn step_robot(&mut self, robot: RobotId) {
        self.steps += 1;
        let now = self.recorder.current_time(robot).expect("active robot");
        let pos = self.recorder.current_pos(robot).expect("active robot");
        let colocated = self.colocated_at(robot, pos, now);
        let sightings = self.pending[robot.index()].take();
        let action = {
            let ctx = StepContext {
                id: robot,
                now,
                pos,
                sightings: sightings.as_deref(),
                colocated: &colocated,
            };
            self.programs[robot.index()]
                .as_mut()
                .expect("active robot")
                .step(&ctx)
        };
        match action {
            Action::MoveTo(dest) => {
                let arrival = self.recorder.move_to(robot, dest);
                self.queue.push(Reverse((time_key(arrival), robot.index())));
            }
            Action::WaitUntil(t) => {
                self.recorder.wait_until(robot, t);
                let at = self.recorder.current_time(robot).expect("active");
                self.queue.push(Reverse((time_key(at), robot.index())));
            }
            Action::SetLight(light) => {
                self.lights[robot.index()] = light;
                self.queue.push(Reverse((time_key(now), robot.index())));
            }
            Action::Look => {
                let seen = self.world.look(pos, now);
                self.pending[robot.index()] = Some(seen);
                self.queue.push(Reverse((time_key(now), robot.index())));
            }
            Action::Wake { target, program } => {
                let tpos = self
                    .world
                    .position(target)
                    .unwrap_or_else(|| panic!("waking undiscovered robot {target}"));
                assert!(
                    tpos.dist(pos) <= 1e-6,
                    "robot {robot} tried to wake {target} from distance {}",
                    tpos.dist(pos)
                );
                self.world
                    .wake(target, now)
                    .unwrap_or_else(|e| panic!("wake failed: {e}"));
                self.recorder.activate(target, now, tpos);
                self.recorder.record_wake(WakeEvent {
                    waker: robot,
                    target,
                    time: now,
                    pos: tpos,
                });
                self.programs[target.index()] = Some(program);
                self.halted[target.index()] = false;
                self.lights[target.index()] = 0;
                self.pending[target.index()] = None;
                self.queue.push(Reverse((time_key(now), target.index())));
                self.queue.push(Reverse((time_key(now), robot.index())));
            }
            Action::Halt => {
                self.halted[robot.index()] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcreteWorld;
    use freezetag_instances::Instance;

    /// Chain program: look, wake anything here, walk right one unit,
    /// repeat `hops` times.
    struct Walker {
        hops: usize,
        looked: bool,
    }

    impl RobotProgram for Walker {
        fn step(&mut self, ctx: &StepContext<'_>) -> Action {
            if !self.looked {
                self.looked = true;
                return Action::Look;
            }
            if let Some(seen) = ctx.sightings {
                if let Some(s) = seen.iter().find(|s| s.pos.approx_eq(ctx.pos)) {
                    return Action::Wake {
                        target: s.id,
                        program: Box::new(Walker {
                            hops: self.hops,
                            looked: false,
                        }),
                    };
                }
            }
            if self.hops == 0 {
                return Action::Halt;
            }
            self.hops -= 1;
            self.looked = false;
            Action::MoveTo(ctx.pos + Point::new(1.0, 0.0))
        }
    }

    #[test]
    fn walker_wakes_a_line_and_validates() {
        let pts: Vec<Point> = (1..=4).map(|i| Point::new(i as f64, 0.0)).collect();
        let inst = Instance::new(pts);
        let mut sim = EventSim::new(ConcreteWorld::new(&inst));
        sim.run(Box::new(Walker {
            hops: 4,
            looked: false,
        }));
        assert!(sim.world().all_awake());
        let (_, schedule) = sim.into_parts();
        assert_eq!(schedule.wakes().len(), 4);
        assert_eq!(schedule.makespan(), 4.0);
        crate::validate(
            &schedule,
            Point::ORIGIN,
            inst.positions(),
            &crate::ValidationOptions::default(),
        )
        .expect("event schedule validates");
    }

    /// Two robots gather at a point and check they see each other.
    struct Gatherer {
        target: Point,
        state: u8,
        partner_seen: std::rc::Rc<std::cell::Cell<bool>>,
    }

    impl RobotProgram for Gatherer {
        fn step(&mut self, ctx: &StepContext<'_>) -> Action {
            match self.state {
                0 => {
                    self.state = 1;
                    Action::MoveTo(self.target)
                }
                1 => {
                    self.state = 2;
                    Action::WaitUntil(100.0)
                }
                _ => {
                    if !ctx.colocated.is_empty() {
                        self.partner_seen.set(true);
                    }
                    Action::Halt
                }
            }
        }
    }

    #[test]
    fn colocation_is_visible_to_programs() {
        let inst = Instance::new(vec![Point::new(0.5, 0.0)]);
        let seen = std::rc::Rc::new(std::cell::Cell::new(false));
        // Source wakes the nearby robot, both gather at (3, 3), then check
        // co-location.
        struct Starter {
            state: u8,
            flag: std::rc::Rc<std::cell::Cell<bool>>,
        }
        impl RobotProgram for Starter {
            fn step(&mut self, ctx: &StepContext<'_>) -> Action {
                match self.state {
                    0 => {
                        self.state = 1;
                        Action::MoveTo(Point::new(0.5, 0.0))
                    }
                    1 => {
                        self.state = 2;
                        Action::Look
                    }
                    2 => {
                        self.state = 3;
                        let s = ctx.sightings.unwrap()[0];
                        Action::Wake {
                            target: s.id,
                            program: Box::new(Gatherer {
                                target: Point::new(3.0, 3.0),
                                state: 0,
                                partner_seen: self.flag.clone(),
                            }),
                        }
                    }
                    3 => {
                        self.state = 4;
                        Action::MoveTo(Point::new(3.0, 3.0))
                    }
                    4 => {
                        self.state = 5;
                        Action::WaitUntil(100.0)
                    }
                    _ => Action::Halt,
                }
            }
        }
        let mut sim = EventSim::new(ConcreteWorld::new(&inst));
        sim.run(Box::new(Starter {
            state: 0,
            flag: seen.clone(),
        }));
        assert!(sim.world().all_awake());
        assert!(seen.get(), "gatherer never saw its partner");
    }

    #[test]
    fn halted_robots_stop_consuming_events() {
        let inst = Instance::new(vec![Point::new(50.0, 50.0)]);
        struct Stop;
        impl RobotProgram for Stop {
            fn step(&mut self, _: &StepContext<'_>) -> Action {
                Action::Halt
            }
        }
        let mut sim = EventSim::new(ConcreteWorld::new(&inst));
        sim.run(Box::new(Stop));
        assert_eq!(sim.steps(), 1);
        assert!(!sim.world().all_awake());
    }
}
