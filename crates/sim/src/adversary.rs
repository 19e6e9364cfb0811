use crate::par::{ParPool, POINT_BATCH};
use crate::{RobotId, Sighting, SimError, WorldView};
use freezetag_geometry::Point;
use freezetag_graph::GridIndex;
use freezetag_instances::adversarial::AdversarialLayout;

/// Number of candidate cells across a disk diameter; ~`π/4 · RES²` cells
/// per disk. 20 gives ≈ 314 cells — fine-grained enough that the
/// discretized adversary loses only an `O(1)` factor of the `Ω(area/2)`
/// exploration work (see DESIGN.md, substitution 3).
const RES: usize = 20;

#[derive(Debug, Clone)]
enum DiskState {
    /// The robot can still be at any of these cell centres: none of them
    /// has ever been within distance 1 of a snapshot.
    Hidden { candidates: Vec<Point> },
    /// The robot's position was forced on discovery.
    Pinned { pos: Point },
}

/// The adaptive adversary of Theorems 2 and 3.
///
/// Each sleeping robot lives in a disk `B_c(r)` of its
/// [`AdversarialLayout`], but its exact position is decided *lazily*: every
/// snapshot eliminates the candidate cells it would have seen, and only
/// when a snapshot would eliminate the last candidates is the robot pinned
/// — at the just-eliminated cell farthest from the observer. The pinned
/// position was therefore never within distance 1 of any earlier snapshot:
/// exactly the "last position of the disk to be explored" adversary in the
/// proof of Theorem 2.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_instances::adversarial::theorem3_layout;
/// use freezetag_sim::{AdversarialWorld, WorldView};
///
/// let mut w = AdversarialWorld::new(theorem3_layout(4.0, 1));
/// // One snapshot at the source reveals nothing: the robot hides in the
/// // unexplored part of the radius-4 disk.
/// assert!(w.look(Point::ORIGIN, 0.0).is_empty());
/// assert!(w.position(freezetag_sim::RobotId::sleeper(0)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AdversarialWorld {
    layout: AdversarialLayout,
    disks: Vec<DiskState>,
    wake_times: Vec<Option<f64>>, // indexed by RobotId::index()
    asleep: usize,
    center_index: GridIndex,
    scratch: Vec<usize>,
    looks: usize,
}

impl AdversarialWorld {
    /// Builds the adversary for a layout.
    pub fn new(layout: AdversarialLayout) -> Self {
        Self::with_pool(layout, &ParPool::sequential())
    }

    /// Builds the adversary with the per-disk candidate construction (a
    /// pure function of each disk centre) fanned out over `pool` in
    /// order-preserving batches — bit-identical to
    /// [`AdversarialWorld::new`]. Sensing itself stays sequential: the
    /// adaptive adversary's look history is state (see
    /// [`WorldView::pure_sensing`]), so this world keeps the in-order
    /// default of [`WorldView::look_batch_into`].
    pub fn with_pool(layout: AdversarialLayout, pool: &ParPool) -> Self {
        let r = layout.disk_radius;
        let h = 2.0 * r / RES as f64;
        let candidates_of = |c: Point| {
            let mut candidates = Vec::new();
            for i in 0..RES {
                for j in 0..RES {
                    let p = Point::new(
                        c.x - r + (i as f64 + 0.5) * h,
                        c.y - r + (j as f64 + 0.5) * h,
                    );
                    if p.dist(c) <= r {
                        candidates.push(p);
                    }
                }
            }
            DiskState::Hidden { candidates }
        };
        // ~RES² candidate points per disk: batch by disk count / RES².
        let disks = pool.map_concat(&layout.centers, POINT_BATCH / (RES * RES), |chunk| {
            chunk.iter().map(|&c| candidates_of(c)).collect::<Vec<_>>()
        });
        let mut wake_times = vec![None; layout.centers.len() + 1];
        wake_times[0] = Some(0.0);
        let cell = layout.disk_radius.max(1.0);
        let center_index = GridIndex::build(&layout.centers, cell);
        let asleep = wake_times.len() - 1;
        AdversarialWorld {
            layout,
            disks,
            wake_times,
            asleep,
            center_index,
            scratch: Vec::new(),
            looks: 0,
        }
    }

    /// The final positions of all robots, or `None` if some robot was
    /// never discovered (its position is still ambiguous).
    pub fn final_positions(&self) -> Option<Vec<Point>> {
        self.disks
            .iter()
            .map(|d| match d {
                DiskState::Pinned { pos } => Some(*pos),
                DiskState::Hidden { .. } => None,
            })
            .collect()
    }
}

impl WorldView for AdversarialWorld {
    fn n(&self) -> usize {
        self.layout.centers.len()
    }

    fn source_pos(&self) -> Point {
        Point::ORIGIN
    }

    fn look_into(&mut self, from: Point, time: f64, out: &mut Vec<Sighting>) {
        self.looks += 1;
        out.clear();
        let reach = 1.0 + self.layout.disk_radius + freezetag_geometry::EPS;
        let mut near = std::mem::take(&mut self.scratch);
        self.center_index.within_into(from, reach, &mut near);
        for &i in &near {
            let id = RobotId::sleeper(i);
            let awake_before = match self.wake_times[id.index()] {
                Some(wt) => time >= wt - freezetag_geometry::EPS,
                None => false,
            };
            match &mut self.disks[i] {
                DiskState::Pinned { pos } => {
                    if !awake_before && pos.dist(from) <= 1.0 + freezetag_geometry::EPS {
                        out.push(Sighting { id, pos: *pos });
                    }
                }
                DiskState::Hidden { candidates } => {
                    let (visible, invisible): (Vec<Point>, Vec<Point>) = candidates
                        .iter()
                        .partition(|p| p.dist(from) <= 1.0 + freezetag_geometry::EPS);
                    if invisible.is_empty() {
                        // The snapshot corners the robot: pin it at the
                        // just-seen cell farthest from the observer.
                        let pos = visible
                            .into_iter()
                            .max_by(|a, b| {
                                a.dist_sq(from)
                                    .partial_cmp(&b.dist_sq(from))
                                    .expect("finite")
                            })
                            .expect("hidden disk always has candidates");
                        self.disks[i] = DiskState::Pinned { pos };
                        out.push(Sighting { id, pos });
                    } else {
                        *candidates = invisible;
                    }
                }
            }
        }
        self.scratch = near;
        out.sort_by_key(|s| s.id);
    }

    fn wake(&mut self, target: RobotId, time: f64) -> Result<(), SimError> {
        let i = target
            .sleeper_index()
            .ok_or(SimError::AlreadyAwake(target))?;
        if !matches!(self.disks[i], DiskState::Pinned { .. }) {
            return Err(SimError::Undiscovered(target));
        }
        let slot = &mut self.wake_times[target.index()];
        if slot.is_some() {
            return Err(SimError::AlreadyAwake(target));
        }
        *slot = Some(time);
        self.asleep -= 1;
        Ok(())
    }

    fn is_awake(&self, target: RobotId) -> bool {
        self.wake_times[target.index()].is_some()
    }

    fn wake_time(&self, target: RobotId) -> Option<f64> {
        self.wake_times[target.index()]
    }

    fn position(&self, target: RobotId) -> Option<Point> {
        match target.sleeper_index() {
            None => Some(Point::ORIGIN),
            Some(i) => match &self.disks[i] {
                DiskState::Pinned { pos } => Some(*pos),
                DiskState::Hidden { .. } => None,
            },
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
    use freezetag_instances::adversarial::{theorem2_layout, theorem3_layout};

    #[test]
    fn robot_hides_until_disk_nearly_explored() {
        let mut w = AdversarialWorld::new(theorem3_layout(3.0, 1));
        // Snapshots along a coarse path never corner the robot...
        for k in 0..3 {
            let p = Point::new(k as f64, 0.0);
            assert!(w.look(p, k as f64).is_empty(), "seen too early at {p}");
        }
        assert!(w.position(RobotId::sleeper(0)).is_none());
        assert!(w.final_positions().is_none());
    }

    #[test]
    fn dense_sweep_eventually_pins_each_robot() {
        let mut w = AdversarialWorld::new(theorem3_layout(2.0, 1));
        // Sweep the bounding square of the disk with unit-vision snapshots
        // on a sqrt(2)-grid: guaranteed coverage.
        let rect = freezetag_geometry::Disk::new(Point::ORIGIN, 2.0).bounding_rect();
        let mut seen = Vec::new();
        for (k, p) in freezetag_geometry::sweep::snapshot_positions(&rect)
            .into_iter()
            .enumerate()
        {
            seen.extend(w.look(p, k as f64));
        }
        assert_eq!(seen.len(), 1, "exactly one discovery event");
        let pos = w.position(RobotId::sleeper(0)).unwrap();
        assert!(pos.norm() <= 2.0 + 1e-9, "pinned inside the disk");
    }

    #[test]
    fn pinned_position_was_never_visible_before() {
        let mut w = AdversarialWorld::new(theorem3_layout(2.5, 1));
        let rect = freezetag_geometry::Disk::new(Point::ORIGIN, 2.5).bounding_rect();
        let snaps = freezetag_geometry::sweep::snapshot_positions(&rect);
        let mut history: Vec<Point> = Vec::new();
        let mut pinned: Option<(usize, Point)> = None;
        for (k, p) in snaps.iter().enumerate() {
            let seen = w.look(*p, k as f64);
            if let Some(s) = seen.first() {
                pinned = Some((k, s.pos));
                break;
            }
            history.push(*p);
        }
        let (_, pos) = pinned.expect("sweep must discover the robot");
        for h in &history {
            assert!(
                h.dist(pos) > 1.0,
                "pinned position {pos} was visible from earlier snapshot {h}"
            );
        }
    }

    #[test]
    fn wake_requires_discovery() {
        let mut w = AdversarialWorld::new(theorem3_layout(2.0, 1));
        assert_eq!(
            w.wake(RobotId::sleeper(0), 1.0),
            Err(SimError::Undiscovered(RobotId::sleeper(0)))
        );
    }

    #[test]
    fn theorem2_world_has_many_disks() {
        let layout = theorem2_layout(4.0, 16.0, 30);
        let n = layout.n();
        let w = AdversarialWorld::new(layout);
        assert_eq!(w.n(), n);
        assert!(n >= 4);
        assert_eq!(w.asleep_count(), n);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// For arbitrary look sequences, the adversary never reveals a
            /// position visible to an earlier look, candidate sets only
            /// shrink, and any pinned position lies inside its disk.
            #[test]
            fn adversary_soundness(
                looks in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 1..60),
                ell in 1.5f64..3.0,
            ) {
                let mut w = AdversarialWorld::new(theorem3_layout(ell, 1));
                let mut history: Vec<Point> = Vec::new();
                let mut pinned: Option<Point> = None;
                for (t, (x, y)) in looks.iter().enumerate() {
                    let p = Point::new(*x, *y);
                    let seen = w.look(p, t as f64);
                    if let Some(s) = seen.first() {
                        pinned = Some(s.pos);
                        break;
                    }
                    history.push(p);
                }
                if let Some(pos) = pinned {
                    prop_assert!(pos.norm() <= ell + 1e-9, "pinned outside the disk");
                    for h in &history {
                        prop_assert!(
                            h.dist(pos) > 1.0,
                            "pinned position visible from earlier look {h}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn co_located_theorem3_robots_pin_identically() {
        let mut w = AdversarialWorld::new(theorem3_layout(2.0, 3));
        let rect = freezetag_geometry::Disk::new(Point::ORIGIN, 2.0).bounding_rect();
        for (k, p) in freezetag_geometry::sweep::snapshot_positions(&rect)
            .into_iter()
            .enumerate()
        {
            let _ = w.look(p, k as f64);
        }
        let ps = w.final_positions().expect("all pinned");
        assert!(ps.windows(2).all(|ab| ab[0].approx_eq(ab[1])));
    }
}
