//! Property tests pinning the compressed codec itself: decoding a
//! `CompressedRecorder` run reproduces the `FullRecorder` timelines
//! segment for segment, bit for bit — start/end times, endpoints, wait
//! flags — for all three distributed algorithms on random registry
//! instances, and the block-seeking accessors (`position_at`,
//! `wake_events_from`) agree with their flat counterparts at arbitrary
//! query points.
//!
//! `recorder_parity.rs` checks the *aggregates*; this suite checks the
//! *reconstruction*, which is what the streaming validator and the replay
//! queries stand on.

use freezetag::core::{run_algorithm, Algorithm};
use freezetag::instances::registry;
use freezetag::sim::{
    CompressedRecorder, ConcreteWorld, FullRecorder, Recorder, RobotId, Schedule, Sim, WorldView,
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
    let clusters = (2usize..4, 4usize..9, 0u64..1_000_000_000).prop_map(|(clusters, per, seed)| {
        (
            "clusters",
            vec![("clusters", clusters as f64), ("per", per as f64)],
            seed,
        )
    });
    prop_oneof![disk, lattice, clusters]
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0usize..3).prop_map(|i| [Algorithm::Separator, Algorithm::Grid, Algorithm::Wave][i])
}

/// Runs the same algorithm on the same instance under both recorders.
fn paired_run(
    generator: &str,
    params: Vec<(&str, f64)>,
    seed: u64,
    alg: Algorithm,
) -> (Schedule, CompressedRecorder, usize) {
    let params: registry::ParamMap = params
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let inst = registry::build_instance(generator, &params, seed).expect("builds");
    let tuple = inst.admissible_tuple();
    let mut full: Sim<ConcreteWorld, FullRecorder> = Sim::new(ConcreteWorld::new(&inst));
    run_algorithm(&mut full, &tuple, alg);
    let (_, schedule, _) = full.into_parts();
    let mut comp: Sim<ConcreteWorld, CompressedRecorder> =
        Sim::with_compressed(ConcreteWorld::new(&inst));
    run_algorithm(&mut comp, &tuple, alg);
    assert!(comp.world().all_awake(), "paired run left robots asleep");
    let (_, rec, _) = comp.into_recorder_parts();
    (schedule, rec, inst.n())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn decoded_segments_match_the_flat_timelines_bitwise(
        (generator, params, seed) in arb_scenario(),
        alg in arb_algorithm(),
    ) {
        let (schedule, rec, n) = paired_run(generator, params, seed, alg);
        for i in 0..=n {
            let r = RobotId::from_index(i);
            let tl = schedule.timeline(r).expect("all robots woke");
            prop_assert_eq!(
                rec.start_pos(r).map(|p| (p.x.to_bits(), p.y.to_bits())),
                Some((tl.start_pos().x.to_bits(), tl.start_pos().y.to_bits()))
            );
            prop_assert_eq!(rec.segment_count(r), tl.segments().len());
            for (k, (dec, flat)) in rec.segments(r).zip(tl.segments()).enumerate() {
                prop_assert!(
                    dec.start_time.to_bits() == flat.start_time.to_bits(),
                    "robot {} segment {} start time", i, k
                );
                prop_assert!(
                    dec.end_time.to_bits() == flat.end_time.to_bits(),
                    "robot {} segment {} end time", i, k
                );
                prop_assert_eq!(dec.from.x.to_bits(), flat.from.x.to_bits());
                prop_assert_eq!(dec.from.y.to_bits(), flat.from.y.to_bits());
                prop_assert_eq!(dec.to.x.to_bits(), flat.to.x.to_bits());
                prop_assert_eq!(dec.to.y.to_bits(), flat.to.y.to_bits());
                prop_assert_eq!(dec.is_wait(), flat.is_wait());
            }
        }
        prop_assert_eq!(
            rec.total_segments(),
            (0..=n).map(|i| schedule
                .timeline(RobotId::from_index(i))
                .expect("awake")
                .segments()
                .len())
                .sum::<usize>()
        );
    }

    #[test]
    fn replay_position_queries_match_the_timelines(
        (generator, params, seed) in arb_scenario(),
        alg in arb_algorithm(),
        fractions in proptest::collection::vec(0.0f64..1.2, 1..12),
    ) {
        let (schedule, rec, n) = paired_run(generator, params, seed, alg);
        let horizon = schedule.completion_time();
        for i in 0..=n {
            let r = RobotId::from_index(i);
            let tl = schedule.timeline(r).expect("all robots woke");
            // Random interior/after-horizon times plus the exact segment
            // boundaries, where ties are where binary searches go wrong.
            let mut queries: Vec<f64> = fractions.iter().map(|f| f * horizon).collect();
            queries.push(tl.start_time());
            queries.push(tl.current_time());
            for s in tl.segments().iter().take(3) {
                queries.push(s.end_time);
            }
            for t in queries {
                let flat = tl.position_at(t);
                let dec = rec.position_at(r, t).expect("active robot");
                prop_assert!(
                    (flat.x.to_bits(), flat.y.to_bits()) == (dec.x.to_bits(), dec.y.to_bits()),
                    "robot {} at t={}", i, t
                );
            }
        }
    }

    #[test]
    fn wake_iterator_seeks_match_the_flat_log(
        (generator, params, seed) in arb_scenario(),
        alg in arb_algorithm(),
        cut in 0.0f64..1.0,
    ) {
        let (schedule, rec, _) = paired_run(generator, params, seed, alg);
        let wakes = schedule.wakes();
        prop_assert_eq!(rec.wake_count(), wakes.len());
        // A seek from an arbitrary interior index (snapshot blocks are
        // 256 events wide, so small runs exercise the in-block replay
        // path) and from both ends.
        let start = (cut * wakes.len() as f64) as usize;
        for from in [0, start, wakes.len()] {
            let seeked: Vec<_> = rec.wake_events_from(from).collect();
            prop_assert!(seeked.as_slice() == &wakes[from..], "seek from {}", from);
        }
    }
}

/// A deterministic footprint pin on a real algorithm run through the
/// engine's own execution path (the synthetic ≤ 12 bytes/move pin on
/// axis-aligned sweeps lives with the codec's unit tests; the Criterion
/// harness measures the 10⁵ case).
#[test]
fn real_wave_run_compresses_well_below_the_flat_store() {
    use freezetag::core::{a_wave, AWaveConfig};
    use freezetag::exp::{AlgSpec, Engine, Profile, ScenarioSpec};
    let spec = ScenarioSpec::new("wave_100k")
        .with("n", 2000.0)
        .with("radius", 20.0);
    let alg = AlgSpec::from(Algorithm::Wave);
    let engine = Engine::default();
    let full = engine.single(&spec, alg, 7).expect("full run");
    let comp = engine
        .single_job(&spec, alg, 7, Profile::Compressed)
        .expect("compressed run");
    assert!(comp.all_awake);
    assert_eq!(
        full.report.makespan.to_bits(),
        comp.makespan.to_bits(),
        "engine paths must agree bitwise"
    );
    // The record carries the recorder footprint, not the codec's
    // bytes/move: replay the job's recording and pin that it is the same
    // recording (identical footprint) before reading the codec figure.
    let inst = registry::build_instance(&spec.generator, &spec.params, 7).expect("builds");
    let mut sim = Sim::with_compressed(ConcreteWorld::new(&inst));
    a_wave(&mut sim, &AWaveConfig { ell: comp.ell });
    let (_, rec, _) = sim.into_recorder_parts();
    assert_eq!(rec.memory_bytes() as f64, comp.peak_mem_bytes);
    assert!(
        rec.bytes_per_move() <= 12.0,
        "AWave encodes mostly axis-aligned sweeps; got {:.2} B/move",
        rec.bytes_per_move()
    );
    assert!(
        comp.peak_mem_bytes * 3.0 <= full.schedule.memory_bytes() as f64,
        "compressed {} vs flat {} bytes",
        comp.peak_mem_bytes,
        full.schedule.memory_bytes()
    );
}
