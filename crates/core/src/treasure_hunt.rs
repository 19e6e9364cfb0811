//! Treasure hunt (cow-path) primitives — the discovery substrate the
//! paper's introduction builds on.
//!
//! The intro observes that a robot with unit vision must move `Ω(D²)` to
//! find the closest robot at unknown distance `D`, achievable by a spiral;
//! and that `k` co-located robots discover a robot at distance `D` within
//! `Θ(D + D²/k)` moves per robot, by exploring squares of doubling width
//! split into strips (\[FHG+16\], \[FKLS12\] in the paper's bibliography).
//! Both are implemented here against the restricted sensing interface and
//! measured by Ablation 3 of the `ablation` bench binary.

use crate::explore::{dedup_sightings, explore};
use crate::team::Team;
use freezetag_geometry::Square;
use freezetag_sim::{Recorder, Sighting, Sim, WorldView};

/// Outcome of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// First sleeping robots discovered (non-empty on success).
    pub found: Vec<Sighting>,
    /// Simulated time the search took.
    pub duration: f64,
    /// Width of the last square searched.
    pub final_width: f64,
}

/// Square-spiral search by a single robot: sweep the boundary rings of
/// squares of doubling width around the start until a sleeping robot is
/// seen or `max_width` is exhausted.
///
/// Guarantees `O(D²)` total movement to discover a robot at distance `D`
/// (each doubling costs the area swept so far, a geometric series).
///
/// # Panics
///
/// Panics if the robot is asleep or `max_width <= 0`.
///
/// # Example
///
/// ```
/// use freezetag_core::spiral_search;
/// use freezetag_geometry::Point;
/// use freezetag_instances::Instance;
/// use freezetag_sim::{ConcreteWorld, RobotId, Sim};
///
/// let inst = Instance::new(vec![Point::new(6.0, 2.0)]);
/// let mut sim = Sim::new(ConcreteWorld::new(&inst));
/// let out = spiral_search(&mut sim, RobotId::SOURCE, 64.0);
/// assert_eq!(out.found.len(), 1);
/// ```
pub fn spiral_search<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    robot: freezetag_sim::RobotId,
    max_width: f64,
) -> SearchOutcome {
    assert!(max_width > 0.0, "max_width must be positive");
    let start = sim.pos(robot);
    let t0 = sim.time(robot);
    let team = Team::solo(robot);
    let mut width = 2.0;
    let mut inner = 0.0;
    loop {
        // Explore the ring between the previous square and the new one —
        // the doubled square minus the already-seen core.
        let square = Square::new(start, width);
        let found = if inner <= freezetag_geometry::EPS {
            explore(sim, &team, &square.to_rect(), start)
        } else {
            let ring = freezetag_geometry::Separator::new(square, (width - inner) / 2.0);
            // Ring rectangles overlap in vision range: dedupe by id with
            // the shared sort-based pass (last sighting wins, id order —
            // exactly what the old ad-hoc map here did).
            let mut all: Vec<Sighting> = Vec::new();
            for rect in ring.rectangles() {
                all.extend(explore(sim, &team, &rect, rect.min()));
            }
            sim.move_to(robot, start);
            dedup_sightings(&all)
        };
        if !found.is_empty() {
            return SearchOutcome {
                duration: sim.time(robot) - t0,
                found,
                final_width: width,
            };
        }
        if width >= max_width {
            return SearchOutcome {
                found: Vec::new(),
                duration: sim.time(robot) - t0,
                final_width: width,
            };
        }
        inner = width;
        width = (width * 2.0).min(max_width);
    }
}

/// Collaborative doubling search by a co-located team: each round the team
/// explores the square of doubled width around the start, split into one
/// strip per member — `Θ(D + D²/k)` per robot to reach distance `D`
/// (the \[FHG+16\]/\[FKLS12\] bound quoted in the paper's introduction).
///
/// # Panics
///
/// Panics if any team robot is asleep or `max_width <= 0`.
pub fn team_search<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    team_members: &[freezetag_sim::RobotId],
    max_width: f64,
) -> SearchOutcome {
    assert!(max_width > 0.0, "max_width must be positive");
    let team = Team::new(team_members.to_vec());
    let start = team.pos(sim);
    let t0 = team.time(sim);
    let mut width = 2.0;
    loop {
        let square = Square::new(start, width);
        let found = explore(sim, &team, &square.to_rect(), start);
        if !found.is_empty() {
            return SearchOutcome {
                duration: team.time(sim) - t0,
                found,
                final_width: width,
            };
        }
        if width >= max_width {
            return SearchOutcome {
                found: Vec::new(),
                duration: team.time(sim) - t0,
                final_width: width,
            };
        }
        width = (width * 2.0).min(max_width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezetag_geometry::Point;
    use freezetag_instances::Instance;
    use freezetag_sim::{ConcreteWorld, RobotId};

    fn single_robot_at(p: Point) -> Sim<ConcreteWorld> {
        Sim::new(ConcreteWorld::new(&Instance::new(vec![p])))
    }

    #[test]
    fn spiral_finds_nearby_robot() {
        let mut sim = single_robot_at(Point::new(3.0, -2.0));
        let out = spiral_search(&mut sim, RobotId::SOURCE, 32.0);
        assert_eq!(out.found.len(), 1);
        assert!(
            out.final_width >= 6.0,
            "width {} too small",
            out.final_width
        );
    }

    #[test]
    fn spiral_cost_is_quadratic_in_distance() {
        // Doubling distance should roughly quadruple the search time.
        let mut t = Vec::new();
        for d in [4.0, 8.0, 16.0] {
            let mut sim = single_robot_at(Point::new(d, 0.0));
            let out = spiral_search(&mut sim, RobotId::SOURCE, 128.0);
            assert!(!out.found.is_empty());
            t.push(out.duration);
        }
        let r1 = t[1] / t[0];
        let r2 = t[2] / t[1];
        assert!(r1 > 2.0 && r1 < 8.0, "growth {r1} not quadratic-ish");
        assert!(r2 > 2.0 && r2 < 8.0, "growth {r2} not quadratic-ish");
    }

    #[test]
    fn spiral_gives_up_at_max_width() {
        let mut sim = single_robot_at(Point::new(500.0, 0.0));
        let out = spiral_search(&mut sim, RobotId::SOURCE, 16.0);
        assert!(out.found.is_empty());
        assert_eq!(out.final_width, 16.0);
    }

    #[test]
    fn team_search_speedup() {
        // Same target, 1 vs 4 searchers: the k-team must be faster.
        let target = Point::new(11.0, 7.0);
        let run = |k: usize| -> f64 {
            let mut pts: Vec<Point> = (0..k - 1)
                .map(|i| Point::new(0.01 * (i + 1) as f64, 0.0))
                .collect();
            pts.push(target);
            let inst = Instance::new(pts);
            let mut sim = Sim::new(ConcreteWorld::new(&inst));
            let mut members = vec![RobotId::SOURCE];
            for i in 0..k - 1 {
                sim.move_to(*members.last().unwrap(), inst.positions()[i]);
                members.push(sim.wake(*members.last().unwrap(), RobotId::sleeper(i)));
            }
            for &m in &members {
                sim.move_to(m, Point::ORIGIN);
            }
            sim.barrier(&members);
            let out = team_search(&mut sim, &members, 64.0);
            assert!(out.found.iter().any(|s| s.pos.approx_eq(target)));
            out.duration
        };
        let solo = run(1);
        let four = run(4);
        assert!(
            four < 0.6 * solo,
            "4 searchers ({four:.1}) not substantially faster than 1 ({solo:.1})"
        );
    }

    #[test]
    fn search_with_no_robots_terminates_empty() {
        let inst = Instance::new(vec![Point::new(1000.0, 1000.0)]);
        let mut sim = Sim::new(ConcreteWorld::new(&inst));
        let out = team_search(&mut sim, &[RobotId::SOURCE], 8.0);
        assert!(out.found.is_empty());
    }
}
