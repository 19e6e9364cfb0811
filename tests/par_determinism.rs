//! Property tests pinning the intra-job parallelism contract: a run on a
//! `ParPool` of 2–4 threads is bit-identical to the sequential run — same
//! schedule (wake log, per-robot wake times and travel), same aggregates,
//! same look count — for all three distributed algorithms, both recorders,
//! and adversarial worlds.
//!
//! This is what licenses `--sim-threads`: the pool only fans out pure
//! batches (sensing queries, frontier bucketing, grid-build key passes)
//! with order-preserving merges, so thread scheduling can never reach an
//! output bit.

use freezetag::core::{run_algorithm, Algorithm};
use freezetag::exp::{AlgSpec, Engine, EngineConfig, Profile, ScenarioSpec};
use freezetag::instances::registry;
use freezetag::sim::{
    ConcreteWorld, ParPool, Recorder, RobotId, Schedule, Sim, StatsRecorder, WorldView,
};
use proptest::prelude::*;

/// An engine whose single-run entry points execute with the given
/// intra-job pool width — the test-facing face of `--sim-threads`.
fn sim_engine(sim_threads: usize) -> Engine {
    Engine::new(EngineConfig {
        threads: 1,
        sim_threads,
        cache_capacity: 0,
    })
}

/// Bitwise schedule comparison: wake log, aggregates, and per-robot wake
/// time / travel / final state.
fn assert_schedules_identical(a: &Schedule, b: &Schedule, n: usize, label: &str) {
    assert_eq!(a.wakes(), b.wakes(), "{label}: wake logs differ");
    assert_eq!(a.makespan().to_bits(), b.makespan().to_bits(), "{label}");
    assert_eq!(
        a.completion_time().to_bits(),
        b.completion_time().to_bits(),
        "{label}"
    );
    assert_eq!(
        a.max_energy().to_bits(),
        b.max_energy().to_bits(),
        "{label}"
    );
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{label}"
    );
    for i in 0..=n {
        let r = RobotId::from_index(i);
        match (a.timeline(r), b.timeline(r)) {
            (None, None) => {}
            (Some(ta), Some(tb)) => {
                assert_eq!(
                    ta.start_time().to_bits(),
                    tb.start_time().to_bits(),
                    "{label} {r}"
                );
                assert_eq!(ta.travel().to_bits(), tb.travel().to_bits(), "{label} {r}");
                assert_eq!(
                    ta.current_time().to_bits(),
                    tb.current_time().to_bits(),
                    "{label} {r}"
                );
                assert_eq!(ta.current_pos(), tb.current_pos(), "{label} {r}");
            }
            _ => panic!("{label}: robot {r} activated in one run only"),
        }
    }
}

/// A random registry scenario: generator, parameters, seed (mirrors the
/// recorder-parity suite).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full-recorder schedules are bit-identical between the sequential
    /// pool and ParPool(2..=4), for all three algorithms.
    #[test]
    fn parallel_schedule_matches_sequential_bitwise(
        (generator, params, seed) in arb_scenario(),
        alg in arb_algorithm(),
        threads in 2usize..5,
    ) {
        let params: registry::ParamMap =
            params.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let inst = registry::build_instance(generator, &params, seed).expect("builds");
        let tuple = inst.admissible_tuple();

        let mut seq = Sim::new(ConcreteWorld::new(&inst));
        run_algorithm(&mut seq, &tuple, alg);
        let looks_seq = seq.world().look_count();
        let (_, schedule_seq, _) = seq.into_parts();

        let pool = ParPool::new(threads);
        let mut par = Sim::new(ConcreteWorld::with_pool(&inst, &pool)).with_pool(pool);
        prop_assert_eq!(par.sim_threads(), threads);
        run_algorithm(&mut par, &tuple, alg);
        prop_assert_eq!(looks_seq, par.world().look_count());
        let (_, schedule_par, _) = par.into_parts();

        assert_schedules_identical(
            &schedule_seq,
            &schedule_par,
            inst.n(),
            &format!("{alg} threads={threads}"),
        );
    }

    /// Stats-recorder aggregates are bit-identical between the sequential
    /// pool and ParPool(2..=4).
    #[test]
    fn parallel_stats_match_sequential_bitwise(
        (generator, params, seed) in arb_scenario(),
        alg in arb_algorithm(),
        threads in 2usize..5,
    ) {
        let params: registry::ParamMap =
            params.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let inst = registry::build_instance(generator, &params, seed).expect("builds");
        let tuple = inst.admissible_tuple();

        let run = |pool: ParPool| {
            let mut sim: Sim<ConcreteWorld, StatsRecorder> =
                Sim::with_stats(ConcreteWorld::with_pool(&inst, &pool)).with_pool(pool);
            run_algorithm(&mut sim, &tuple, alg);
            let looks = sim.world().look_count();
            let (_, rec, _) = sim.into_recorder_parts();
            (looks, rec)
        };
        let (looks_seq, rec_seq) = run(ParPool::sequential());
        let (looks_par, rec_par) = run(ParPool::new(threads));

        prop_assert_eq!(looks_seq, looks_par);
        prop_assert_eq!(rec_seq.makespan().to_bits(), rec_par.makespan().to_bits());
        prop_assert_eq!(
            rec_seq.completion_time().to_bits(),
            rec_par.completion_time().to_bits()
        );
        prop_assert_eq!(rec_seq.max_energy().to_bits(), rec_par.max_energy().to_bits());
        prop_assert_eq!(
            rec_seq.total_energy().to_bits(),
            rec_par.total_energy().to_bits()
        );
        prop_assert_eq!(rec_seq.wakes(), rec_par.wakes());
        prop_assert_eq!(rec_seq.memory_bytes(), rec_par.memory_bytes());
        for i in 0..=inst.n() {
            let r = RobotId::from_index(i);
            prop_assert_eq!(
                rec_seq.wake_time(r).map(f64::to_bits),
                rec_par.wake_time(r).map(f64::to_bits)
            );
            prop_assert_eq!(
                rec_seq.travel(r).map(f64::to_bits),
                rec_par.travel(r).map(f64::to_bits)
            );
        }
    }

    /// Adversarial worlds (impure sensing: the pool must stay out of the
    /// look path) still produce identical runs at any `sim_threads`.
    #[test]
    fn adversarial_runs_are_sim_thread_invariant(
        ell in 1.5f64..3.0,
        n in 10usize..40,
        threads in 2usize..5,
    ) {
        let spec = ScenarioSpec::new("theorem2")
            .with("ell", ell)
            .with("rho", 8.0)
            .with("n", n as f64);
        let alg = AlgSpec::from(Algorithm::Separator);
        let seq = sim_engine(1).single(&spec, alg, 1).expect("runs");
        let par = sim_engine(threads).single(&spec, alg, 1).expect("runs");
        prop_assert_eq!(seq.report.makespan.to_bits(), par.report.makespan.to_bits());
        prop_assert_eq!(seq.report.looks, par.report.looks);
        prop_assert_eq!(&seq.positions, &par.positions);
        assert_schedules_identical(&seq.schedule, &par.schedule, seq.n, "theorem2");
    }
}

/// A mid-size stats job (20k robots) where the batched sensing path
/// genuinely fans out to worker threads (slot query batches exceed the
/// parallel threshold), pinned bit-identical across pool widths through
/// the engine's `--sim-threads` entry point.
#[test]
fn scale_family_stats_are_bitwise_identical_across_pools() {
    let spec = ScenarioSpec::new("uniform_1m")
        .with("n", 20_000.0)
        .with("radius", 60.0);
    let alg = AlgSpec::from(Algorithm::Grid);
    let seq = sim_engine(1)
        .single_job(&spec, alg, 42, Profile::Stats)
        .expect("runs");
    for threads in [2, 4] {
        let par = sim_engine(threads)
            .single_job(&spec, alg, 42, Profile::Stats)
            .expect("runs");
        assert_eq!(seq.n, par.n);
        assert!(par.all_awake);
        assert_eq!(
            seq.makespan.to_bits(),
            par.makespan.to_bits(),
            "t={threads}"
        );
        assert_eq!(
            seq.completion_time.to_bits(),
            par.completion_time.to_bits(),
            "t={threads}"
        );
        assert_eq!(
            seq.max_energy.to_bits(),
            par.max_energy.to_bits(),
            "t={threads}"
        );
        assert_eq!(
            seq.total_energy.to_bits(),
            par.total_energy.to_bits(),
            "t={threads}"
        );
        assert_eq!(seq.looks, par.looks, "t={threads}");
        assert_eq!(
            seq.peak_mem_bytes.to_bits(),
            par.peak_mem_bytes.to_bits(),
            "t={threads}"
        );
        assert_eq!(seq.ell.to_bits(), par.ell.to_bits(), "t={threads}");
        assert_eq!(seq.rho.to_bits(), par.rho.to_bits(), "t={threads}");
    }
}
