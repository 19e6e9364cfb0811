//! `AGrid` — the energy-optimal algorithm of Section 4 / 8.1: energy
//! budget `O(ℓ²)` per robot, makespan `O(ξ_ℓ · ℓ)` (Theorem 4).
//!
//! The plane is tiled by squares of width `2ℓ` centred on the grid
//! `{(2kℓ, 2k'ℓ)}` (relative to the source). Round 0 explores and wakes
//! the source's square (Corollary 1). In round `k`, every robot woken in
//! round `k−1` visits the 8 squares adjacent to its own in counter-
//! clockwise order, within fixed time slots; in each slot one designated
//! robot explores the target square and wakes its sleepers with a
//! centralized wake-up tree. The slot schedule is conflict-free: for a
//! fixed slot index the "i-th neighbour" map is a translation, so two
//! different source squares never target the same square in the same slot,
//! and distinct slots are disjoint time windows.

use crate::explore::{dedup_sightings, explore, sighting_offsets, sweep_queries};
use crate::team::Team;
use freezetag_central::{quadtree_wake_tree, realize, WakeTree};
use freezetag_geometry::{sweep, CellCoord, Point, Square, SquareTiling, SQRT_2};
use freezetag_sim::par::FRONTIER_BATCH;
use freezetag_sim::{Recorder, RobotId, Sim, WorldView};
use std::collections::BTreeMap;

/// Minimum concatenated sighting count before per-group target selection
/// fans out to the pool; below this the spawn cost dominates.
const PAR_SELECT_MIN: usize = 1 << 12;

/// Configuration of an `AGrid` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AGridConfig {
    /// Upper bound ℓ on the connectivity threshold (the only input the
    /// algorithm needs — Section 5).
    pub ell: f64,
}

/// Upper bound on the duration of one *explore-and-wake* of a square of
/// width `r` by a single robot (Corollary 1's `R² + (10 + √2)R`, with our
/// sweep and wake-tree constants made explicit).
pub(crate) fn explore_and_wake_bound(r: f64) -> f64 {
    let rect = Square::new(Point::ORIGIN, r).to_rect();
    // entry to the sweep + sweep + move to centre + centralized wake.
    SQRT_2 * r + sweep::sweep_length_bound(&rect) + SQRT_2 * r + 10.0 * r
}

/// Travel margin between consecutive slots: from anywhere in one target
/// square to the corner of the next (both within the 3×3 neighbourhood of
/// the group's square, diameter `3√2·r < 4.5r`).
pub(crate) fn hop_margin(r: f64) -> f64 {
    4.5 * r
}

/// Duration of one wave slot: explore-and-wake plus the hop to the next
/// adjacent square's corner.
pub(crate) fn slot_duration(r: f64) -> f64 {
    explore_and_wake_bound(r) + hop_margin(r)
}

/// Upper bound on round 0 (the source exploring its own square).
pub(crate) fn round0_bound(r: f64) -> f64 {
    SQRT_2 * r + explore_and_wake_bound(r)
}

/// Absolute start time of wave round `k ≥ 1`. Every robot can compute this
/// from `ℓ` and the global clock alone — the wave needs no messages beyond
/// co-location, which is what makes the fixed slot schedule work.
pub(crate) fn round_start(r: f64, k: usize) -> f64 {
    debug_assert!(k >= 1);
    round0_bound(r) + k as f64 * hop_margin(r) + (k - 1) as f64 * 8.0 * slot_duration(r)
}

/// Runs `AGrid` to completion (wakes every robot, given `ℓ ≥ ℓ*`).
///
/// # Example
///
/// ```
/// use freezetag_core::{a_grid, AGridConfig};
/// use freezetag_instances::generators::grid_lattice;
/// use freezetag_sim::{ConcreteWorld, Sim, WorldView};
///
/// let inst = grid_lattice(3, 6, 1.0);
/// let mut sim = Sim::new(ConcreteWorld::new(&inst));
/// a_grid(&mut sim, &AGridConfig { ell: 1.0 });
/// assert!(sim.world().all_awake());
/// ```
pub fn a_grid<W: WorldView, R: Recorder>(sim: &mut Sim<W, R>, cfg: &AGridConfig) {
    assert!(cfg.ell > 0.0 && cfg.ell.is_finite(), "ell must be positive");
    let r = 2.0 * cfg.ell;
    let src = sim.world().source_pos();
    let tiling = SquareTiling::new(r);
    let cell_of = move |p: Point| tiling.cell_of(p - src);
    let square_of = move |c: CellCoord| {
        let s = tiling.square_of(c);
        Square::new(s.center() + src, s.width())
    };

    // Round 0: the source explores and wakes its own square.
    let home = cell_of(src);
    let t0_bound = round0_bound(r);
    let mut frontier = explore_and_wake(sim, RobotId::SOURCE, &square_of(home), &cell_of, home);
    frontier.push(RobotId::SOURCE);
    assert!(
        sim.time(RobotId::SOURCE) <= t0_bound + 1e-6,
        "round 0 exceeded its bound"
    );
    let t_round0_end = sim.time(RobotId::SOURCE);
    sim.trace_mut().record(
        "grid/round0",
        0.0,
        t_round0_end,
        format!("woke={}", frontier.len() - 1),
    );

    let slot = slot_duration(r);
    // Grace hop: robots woken in the previous round (or the source after
    // round 0) need time to reach their first corner.
    let mut round_begin = round_start(r, 1);
    let mut round = 1usize;
    while !frontier.is_empty() {
        // Group the fresh robots by the square they are in.
        let groups = bucket_by_cell(sim, &frontier, &cell_of);
        let mut new_frontier: Vec<RobotId> = Vec::new();
        for slot_idx in 0..8 {
            run_slot(
                sim,
                &groups,
                SlotSchedule {
                    slot_idx,
                    slot_start: round_begin + slot_idx as f64 * slot,
                    slot,
                    round,
                },
                &tiling,
                &cell_of,
                &square_of,
                &mut new_frontier,
            );
        }
        sim.trace_mut().record(
            format!("grid/round{round}"),
            round_begin,
            round_begin + 8.0 * slot,
            format!("groups={} woke={}", groups.len(), new_frontier.len()),
        );
        frontier = new_frontier;
        round += 1;
        round_begin = round_start(r, round);
    }
}

/// Groups frontier robots by the cell of their current position — the
/// per-round bucketing both wave drivers (`AGrid`, `AWave`) share.
///
/// Positions are read off the recorder in frontier order; on a parallel
/// pool with more than one batch of robots, the cell lookups run in
/// fixed-size batches and the stable zip merge below is the
/// order-preserving reduction that keeps group contents (and everything
/// downstream) identical at any thread count. Otherwise the direct
/// allocation-free insert loop runs — a single batch would execute inline
/// anyway, so fan-out buys nothing there.
pub(crate) fn bucket_by_cell<W: WorldView, R: Recorder>(
    sim: &Sim<W, R>,
    frontier: &[RobotId],
    cell_of: &(impl Fn(Point) -> CellCoord + Sync),
) -> BTreeMap<CellCoord, Vec<RobotId>> {
    let mut groups: BTreeMap<CellCoord, Vec<RobotId>> = BTreeMap::new();
    if sim.pool().is_sequential() || frontier.len() <= FRONTIER_BATCH {
        for &rb in frontier {
            groups.entry(cell_of(sim.pos(rb))).or_default().push(rb);
        }
    } else {
        let positions: Vec<Point> = frontier.iter().map(|&rb| sim.pos(rb)).collect();
        let cells = sim.pool().map_concat(&positions, FRONTIER_BATCH, |chunk| {
            chunk.iter().map(|&p| cell_of(p)).collect::<Vec<_>>()
        });
        for (&rb, &cell) in frontier.iter().zip(&cells) {
            groups.entry(cell).or_default().push(rb);
        }
    }
    groups
}

/// Timing of one wave slot (bundled to keep the planner's signature sane).
#[derive(Clone, Copy)]
struct SlotSchedule {
    slot_idx: usize,
    slot_start: f64,
    slot: f64,
    round: usize,
}

/// One wave slot, in phases that fan out over the sim's pool. The slot's
/// groups target pairwise-distinct squares and wake only robots *owned*
/// by their target, so the phases below produce bit-identical results to
/// running the groups one after another:
///
/// 1. **kinematics** (sequential, cheap): every group's corner moves,
///    waits and oblivious sweep trajectory are driven through the
///    recorder, accumulating one `(position, time)` query list for the
///    whole slot;
/// 2. **sensing** (parallel): one [`Sim::look_many_into`] resolves the
///    slot's queries in fixed-size batches on the pool — this is the hot
///    60–65% of a 10⁶-robot run;
/// 3. **target selection** (parallel): each group's sighting slice is
///    deduplicated and ownership-filtered, and its wake-up tree built,
///    independently;
/// 4. **commit** (sequential): wake trees are realized in group order —
///    the stable order-preserving reduction that merges the parallel
///    phases' wake decisions into the recorder and the world's wake
///    bitset.
///
/// Cross-group visibility is the only thing the reordering can change
/// (a robot woken by its owner mid-slot may still be *seen* by another
/// group), and step 3's ownership filter is exactly what discards it. On
/// the adaptive adversary, whose look history is state, the looks still
/// reach the world one at a time in group order (its
/// [`WorldView::look_batch_into`] is the sequential loop); the `AGrid`
/// adversary pins in `tests/schedule_identity.rs` hold this path to the
/// group-by-group schedules.
#[allow(clippy::too_many_arguments)]
fn run_slot<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    groups: &BTreeMap<CellCoord, Vec<RobotId>>,
    sched: SlotSchedule,
    tiling: &SquareTiling,
    cell_of: &(impl Fn(Point) -> CellCoord + Sync),
    square_of: &impl Fn(CellCoord) -> Square,
    new_frontier: &mut Vec<RobotId>,
) {
    struct GroupPlan {
        explorer: RobotId,
        target_cell: CellCoord,
        target_sq: Square,
        q_lo: usize,
        q_hi: usize,
    }
    let SlotSchedule {
        slot_idx,
        slot_start,
        slot,
        round,
    } = sched;
    let mut queries: Vec<(Point, f64)> = Vec::new();
    let mut plans: Vec<GroupPlan> = Vec::new();
    for (cell, robots) in groups {
        let target_cell = tiling.neighbors8(*cell)[slot_idx];
        let target_sq = square_of(target_cell);
        let corner = target_sq.min_corner();
        for &rb in robots {
            sim.move_to(rb, corner);
            assert!(
                sim.time(rb) <= slot_start + 1e-6,
                "robot {rb} missed slot {slot_idx} of round {round}"
            );
            sim.wait_until(rb, slot_start);
        }
        // One designated explorer per slot, rotating through the group so
        // no robot explores more than ⌈8/|group|⌉ squares.
        let explorer = robots[slot_idx % robots.len()];
        let q_lo = queries.len();
        sweep_queries(
            sim,
            &Team::solo(explorer),
            &target_sq.to_rect(),
            target_sq.center(),
            &mut queries,
        );
        plans.push(GroupPlan {
            explorer,
            target_cell,
            target_sq,
            q_lo,
            q_hi: queries.len(),
        });
    }
    let mut flat = Vec::new();
    let mut counts = Vec::new();
    sim.look_many_into(&queries, &mut flat, &mut counts);
    let offsets = sighting_offsets(&counts);
    let select = |p: &GroupPlan| -> WakeTree {
        let items: Vec<(RobotId, Point)> = dedup_sightings(&flat[offsets[p.q_lo]..offsets[p.q_hi]])
            .into_iter()
            .filter(|s| cell_of(s.pos) == p.target_cell)
            .map(|s| (s.id, s.pos))
            .collect();
        quadtree_wake_tree(p.target_sq.center(), &items)
    };
    let pool = sim.pool();
    let trees: Vec<WakeTree> = if pool.is_sequential() || flat.len() < PAR_SELECT_MIN {
        plans.iter().map(select).collect()
    } else {
        pool.map_batches(&plans, 1, |_, ps| select(&ps[0]))
    };
    for (p, tree) in plans.iter().zip(trees) {
        let woken = realize(sim, p.explorer, &tree);
        assert!(
            sim.time(p.explorer) <= slot_start + slot + 1e-6,
            "slot {slot_idx} of round {round} overran"
        );
        new_frontier.extend(woken);
    }
}

/// Corollary 1: one robot explores `square` (full sweep) and wakes every
/// sleeping robot *owned* by the square (`cell_of(pos) == cell`) with a
/// centralized wake-up tree from the square's centre. Returns the robots
/// woken.
fn explore_and_wake<W: WorldView, R: Recorder, C: Fn(Point) -> CellCoord>(
    sim: &mut Sim<W, R>,
    robot: RobotId,
    square: &Square,
    cell_of: &C,
    cell: CellCoord,
) -> Vec<RobotId> {
    let solo = Team::solo(robot);
    let sightings = explore(sim, &solo, &square.to_rect(), square.center());
    let items: Vec<(RobotId, Point)> = sightings
        .into_iter()
        .filter(|s| cell_of(s.pos) == cell)
        .map(|s| (s.id, s.pos))
        .collect();
    let tree = quadtree_wake_tree(square.center(), &items);
    realize(sim, robot, &tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezetag_instances::generators::{grid_lattice, snake, uniform_disk};
    use freezetag_instances::Instance;
    use freezetag_sim::{validate, ConcreteWorld, ValidationOptions};

    fn run(inst: &Instance, ell: f64) -> freezetag_sim::ValidationReport {
        let mut sim = Sim::new(ConcreteWorld::new(inst));
        a_grid(&mut sim, &AGridConfig { ell });
        assert!(sim.world().all_awake(), "not everyone woke up");
        let (_, schedule, _) = sim.into_parts();
        validate(
            &schedule,
            inst.source(),
            inst.positions(),
            &ValidationOptions::default(),
        )
        .expect("schedule must validate")
    }

    #[test]
    fn wakes_lattice() {
        let inst = grid_lattice(4, 6, 1.2);
        let rep = run(&inst, 1.2);
        assert_eq!(rep.wake_count, 24);
    }

    #[test]
    fn wakes_uniform_disk() {
        let inst = uniform_disk(50, 10.0, 7);
        let tuple = inst.admissible_tuple();
        let rep = run(&inst, tuple.ell);
        assert_eq!(rep.wake_count, 50);
    }

    #[test]
    fn energy_stays_quadratic_in_ell() {
        // Theorem 4: every robot spends O(ℓ²) energy. The wave travels far
        // (makespan grows with ξ) but per-robot energy must not.
        let inst = snake(5, 20.0, 1.5, 1.0);
        let tuple = inst.admissible_tuple();
        let rep = run(&inst, tuple.ell);
        let ell = tuple.ell;
        let budget = 80.0 * ell * ell + 60.0 * ell + 40.0;
        assert!(
            rep.max_energy <= budget,
            "max energy {} exceeds O(ell^2) budget {budget}",
            rep.max_energy
        );
        // And the makespan follows O(ξ·ℓ) in shape.
        let xi = inst.params(Some(ell)).xi_ell.expect("connected");
        assert!(rep.makespan <= 60.0 * xi * ell + 200.0 * ell * ell);
    }

    #[test]
    fn single_neighbor_robot() {
        let inst = Instance::new(vec![Point::new(2.5, 0.0)]);
        // ell = 2: home square [-2,2]^2 does not contain the robot; the
        // wave's first round must find it in the east neighbour.
        let rep = run(&inst, 2.0);
        assert_eq!(rep.wake_count, 1);
    }

    #[test]
    fn bounds_are_monotone() {
        assert!(explore_and_wake_bound(4.0) < explore_and_wake_bound(8.0));
        assert!(slot_duration(4.0) > explore_and_wake_bound(4.0));
    }
}
