//! Property tests pinning the recorder contract: a `StatsRecorder` or
//! `CompressedRecorder` run is bit-identical to the statistics derived
//! from a `FullRecorder` run of the same algorithm on the same instance —
//! makespan, completion time, total/max energy, per-robot wake times and
//! per-robot travel — for all three distributed algorithms on random
//! registry instances.
//!
//! This is what licenses the `--profile stats` and `--profile compressed`
//! execution paths: neither recorder is an approximation — they run the
//! same arithmetic, one throwing the segments away, the other
//! delta-encoding them.
//!
//! Both constant-memory recorders store their per-robot records in
//! activation order; the last property drives one scripted run through
//! them under shuffled activation orders and checks that no answer, and
//! no byte of the memory accounting, depends on that order.

use freezetag::core::{run_algorithm, Algorithm};
use freezetag::geometry::Point;
use freezetag::instances::registry;
use freezetag::sim::{
    CompressedRecorder, ConcreteWorld, FullRecorder, Recorder, RobotId, Segment, Sim,
    StatsRecorder, WakeEvent, WorldView,
};
use proptest::prelude::*;

/// A random registry scenario: generator, parameters, seed.
fn arb_scenario() -> impl Strategy<Value = (&'static str, Vec<(&'static str, f64)>, u64)> {
    let disk = (6usize..28, 3.0f64..9.0, 0u64..1_000_000_000)
        .prop_map(|(n, radius, seed)| ("disk", vec![("n", n as f64), ("radius", radius)], seed));
    let lattice = (2usize..6, 1.0f64..2.0).prop_map(|(side, spacing)| {
        (
            "lattice",
            vec![("side", side as f64), ("spacing", spacing)],
            0u64,
        )
    });
    let ring = (6usize..20, 4.0f64..8.0, 0u64..1_000_000_000)
        .prop_map(|(n, radius, seed)| ("ring", vec![("n", n as f64), ("radius", radius)], seed));
    let clusters = (2usize..4, 4usize..9, 0u64..1_000_000_000).prop_map(|(clusters, per, seed)| {
        (
            "clusters",
            vec![("clusters", clusters as f64), ("per", per as f64)],
            seed,
        )
    });
    prop_oneof![disk, lattice, ring, clusters]
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0usize..3).prop_map(|i| [Algorithm::Separator, Algorithm::Grid, Algorithm::Wave][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stats_recorder_matches_full_recorder_bitwise(
        (generator, params, seed) in arb_scenario(),
        alg in arb_algorithm(),
    ) {
        let params: registry::ParamMap =
            params.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let inst = registry::build_instance(generator, &params, seed).expect("builds");
        let tuple = inst.admissible_tuple();

        let mut full = Sim::new(ConcreteWorld::new(&inst));
        run_algorithm(&mut full, &tuple, alg);
        let (world_full, schedule, _) = full.into_parts();

        let mut stats: Sim<ConcreteWorld, StatsRecorder> =
            Sim::with_stats(ConcreteWorld::new(&inst));
        run_algorithm(&mut stats, &tuple, alg);
        let looks_stats = stats.world().look_count();
        prop_assert_eq!(world_full.look_count(), looks_stats);
        let (_, rec, _) = stats.into_recorder_parts();

        // Aggregates, bit for bit.
        prop_assert_eq!(schedule.makespan().to_bits(), rec.makespan().to_bits());
        prop_assert_eq!(
            schedule.completion_time().to_bits(),
            rec.completion_time().to_bits()
        );
        prop_assert_eq!(schedule.max_energy().to_bits(), rec.max_energy().to_bits());
        prop_assert_eq!(
            schedule.total_energy().to_bits(),
            rec.total_energy().to_bits()
        );
        prop_assert_eq!(schedule.active_count(), rec.active_count());
        prop_assert_eq!(schedule.wakes(), rec.wakes());

        // Per-robot wake times and travel, bit for bit.
        for i in 0..=inst.n() {
            let r = RobotId::from_index(i);
            let (full_wake, full_travel) = match schedule.timeline(r) {
                Some(tl) => (Some(tl.start_time()), Some(tl.travel())),
                None => (None, None),
            };
            prop_assert_eq!(full_wake.map(f64::to_bits), rec.wake_time(r).map(f64::to_bits));
            prop_assert_eq!(full_travel.map(f64::to_bits), rec.travel(r).map(f64::to_bits));
        }

        // The constant-memory recorder is never larger than the full one
        // (equality only on degenerate no-move runs, which these are not).
        prop_assert!(rec.memory_bytes() < schedule.memory_bytes());
    }

    #[test]
    fn compressed_recorder_matches_full_recorder_bitwise(
        (generator, params, seed) in arb_scenario(),
        alg in arb_algorithm(),
    ) {
        let params: registry::ParamMap =
            params.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let inst = registry::build_instance(generator, &params, seed).expect("builds");
        let tuple = inst.admissible_tuple();

        let mut full = Sim::new(ConcreteWorld::new(&inst));
        run_algorithm(&mut full, &tuple, alg);
        let (world_full, schedule, _) = full.into_parts();

        let mut comp: Sim<ConcreteWorld, CompressedRecorder> =
            Sim::with_compressed(ConcreteWorld::new(&inst));
        run_algorithm(&mut comp, &tuple, alg);
        prop_assert_eq!(world_full.look_count(), comp.world().look_count());
        let (_, rec, _) = comp.into_recorder_parts();

        // Aggregates, bit for bit.
        prop_assert_eq!(schedule.makespan().to_bits(), rec.makespan().to_bits());
        prop_assert_eq!(
            schedule.completion_time().to_bits(),
            rec.completion_time().to_bits()
        );
        prop_assert_eq!(schedule.max_energy().to_bits(), rec.max_energy().to_bits());
        prop_assert_eq!(
            schedule.total_energy().to_bits(),
            rec.total_energy().to_bits()
        );
        prop_assert_eq!(schedule.active_count(), rec.active_count());

        // The wake log round-trips through its snapshot blocks.
        let mut wakes: Vec<WakeEvent> = Vec::new();
        rec.for_each_wake_from(0, &mut |w| wakes.push(*w));
        prop_assert_eq!(schedule.wakes(), wakes.as_slice());

        // Per-robot wake times and travel, bit for bit.
        for i in 0..=inst.n() {
            let r = RobotId::from_index(i);
            let (full_wake, full_travel) = match schedule.timeline(r) {
                Some(tl) => (Some(tl.start_time()), Some(tl.travel())),
                None => (None, None),
            };
            prop_assert_eq!(full_wake.map(f64::to_bits), rec.wake_time(r).map(f64::to_bits));
            prop_assert_eq!(full_travel.map(f64::to_bits), rec.travel(r).map(f64::to_bits));
        }

        // Keeping every segment in delta-encoded blocks must still beat
        // the flat segment store.
        prop_assert!(rec.memory_bytes() < schedule.memory_bytes());
    }
}

/// SplitMix64: the scripted run's deterministic stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One scripted run over `n` sleepers: which robots wake, the order they
/// wake in, and each woken robot's own events. A robot's script depends
/// only on `(seed, robot)`, so every activation order records the same
/// per-robot events.
struct Script {
    n: usize,
    seed: u64,
    moves: usize,
    /// Woken robots (the source first), in activation order.
    order: Vec<RobotId>,
}

impl Script {
    fn new(n: usize, seed: u64, moves: usize, asleep_every: usize) -> Script {
        let mut state = seed;
        let mut order: Vec<RobotId> = (1..=n)
            .filter(|i| asleep_every == 0 || i % asleep_every != 0)
            .map(RobotId::from_index)
            .collect();
        // Fisher–Yates on the sleepers; the source always wakes first.
        for k in (1..order.len()).rev() {
            order.swap(k, (splitmix(&mut state) % (k as u64 + 1)) as usize);
        }
        order.insert(0, RobotId::SOURCE);
        Script {
            n,
            seed,
            moves,
            order,
        }
    }

    /// The same robots woken in robot-index order.
    fn index_ordered(&self) -> Script {
        let mut order = self.order.clone();
        order.sort_unstable();
        Script { order, ..*self }
    }

    /// Records the run: robots wake in `order`, each recording its whole
    /// script (moves, waits, no-op waits; enough to cross block
    /// boundaries) right after waking. The wake log is recorded last, in
    /// robot-index order, so it is the same log in every activation order.
    fn drive(&self, rec: &mut dyn Recorder) {
        let mut wakes = Vec::new();
        for &robot in &self.order {
            let mut state = self.seed ^ (robot.index() as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
            let start = Point::new(unit(&mut state) * 50.0, unit(&mut state) * 50.0);
            let time = if robot == RobotId::SOURCE {
                0.0
            } else {
                unit(&mut state) * 100.0
            };
            rec.activate(robot, time, start);
            if robot != RobotId::SOURCE {
                wakes.push(WakeEvent {
                    waker: RobotId::SOURCE,
                    target: robot,
                    time,
                    pos: start,
                });
            }
            rec.reserve_moves(robot, self.moves);
            for _ in 0..self.moves {
                let p = rec.current_pos(robot).expect("woken");
                match splitmix(&mut state) % 4 {
                    0 => rec.move_to(robot, Point::new(p.x + unit(&mut state), p.y)),
                    1 => rec.move_to(robot, Point::new(p.x, p.y - unit(&mut state))),
                    2 => {
                        let now = rec.current_time(robot).expect("woken");
                        rec.wait_until(robot, now + unit(&mut state));
                        rec.wait_until(robot, now); // past: no-op
                        now
                    }
                    _ => rec.move_to(robot, Point::new(unit(&mut state), unit(&mut state))),
                };
            }
        }
        wakes.sort_unstable_by_key(|w| w.target);
        for w in wakes {
            rec.record_wake(w);
        }
    }
}

/// Every per-robot answer of a recorder, as bits.
fn per_robot<R: Recorder>(rec: &R, robot: RobotId) -> [Option<u64>; 5] {
    let pos = rec.current_pos(robot);
    [
        rec.wake_time(robot).map(f64::to_bits),
        rec.current_time(robot).map(f64::to_bits),
        pos.map(|p| p.x.to_bits()),
        pos.map(|p| p.y.to_bits()),
        rec.travel(robot).map(f64::to_bits),
    ]
}

/// A recorder's aggregates and memory accounting, as bits.
fn aggregates<R: Recorder>(rec: &R) -> [u64; 7] {
    [
        rec.makespan().to_bits(),
        rec.completion_time().to_bits(),
        rec.max_energy().to_bits(),
        rec.total_energy().to_bits(),
        rec.active_count() as u64,
        rec.wake_count() as u64,
        rec.memory_bytes() as u64,
    ]
}

fn segment_bits(s: &Segment) -> [u64; 6] {
    [
        s.start_time.to_bits(),
        s.end_time.to_bits(),
        s.from.x.to_bits(),
        s.from.y.to_bits(),
        s.to.x.to_bits(),
        s.to.y.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn activation_order_changes_no_recorded_answer(
        n in 0usize..40,
        seed in 0u64..u64::MAX,
        moves in 0usize..150,
        asleep_every in 0usize..5,
    ) {
        let shuffled = Script::new(n, seed, moves, asleep_every);
        let sorted = shuffled.index_ordered();
        let record = |script: &Script| {
            let mut full = FullRecorder::with_capacity(script.n);
            let mut stats = StatsRecorder::with_capacity(script.n);
            let mut comp = CompressedRecorder::with_capacity(script.n);
            script.drive(&mut full);
            script.drive(&mut stats);
            script.drive(&mut comp);
            (full, stats, comp)
        };
        let (full, stats, comp) = record(&shuffled);
        let (_, stats_sorted, comp_sorted) = record(&sorted);

        // Aggregates and memory accounting: independent of activation
        // order, and (memory aside) equal to the flat store's.
        prop_assert_eq!(aggregates(&stats), aggregates(&stats_sorted));
        prop_assert_eq!(aggregates(&comp), aggregates(&comp_sorted));
        for rec_bits in [aggregates(&stats), aggregates(&comp)] {
            prop_assert_eq!(&aggregates(&full)[..6], &rec_bits[..6]);
        }
        prop_assert_eq!(comp.total_segments(), comp_sorted.total_segments());
        prop_assert_eq!(comp.robot_slots(), n + 1);

        let horizon = full.completion_time() + 1.0;
        for i in 0..=n {
            let r = RobotId::from_index(i);
            let want = per_robot(&full, r);
            prop_assert_eq!(per_robot(&stats, r), want);
            prop_assert_eq!(per_robot(&stats_sorted, r), want);
            prop_assert_eq!(per_robot(&comp, r), want);
            prop_assert_eq!(per_robot(&comp_sorted, r), want);
            prop_assert_eq!(stats.is_active(r), full.is_active(r));
            prop_assert_eq!(comp.is_active(r), full.is_active(r));

            // Trajectories: decoded segments, start and replayed positions.
            let tl = full.schedule().timeline(r);
            let flat: Vec<[u64; 6]> =
                tl.map_or(&[][..], |tl| tl.segments()).iter().map(segment_bits).collect();
            for rec in [&comp, &comp_sorted] {
                let decoded: Vec<[u64; 6]> = rec.segments(r).map(|s| segment_bits(&s)).collect();
                prop_assert_eq!(&decoded, &flat);
                prop_assert_eq!(rec.segment_count(r), flat.len());
                prop_assert_eq!(rec.start_pos(r), tl.map(|tl| tl.start_pos()));
                let mut t = -1.0;
                while t < horizon {
                    prop_assert_eq!(rec.position_at(r, t), tl.map(|tl| tl.position_at(t)));
                    t += horizon / 37.0;
                }
            }
        }
    }
}
