//! Criterion benchmark of the full recording stack at production scale:
//! the same `AGrid` run on the same 10⁵-robot instance recorded by the
//! flat `FullRecorder`, the constant-memory `StatsRecorder`, and the
//! delta-encoded `CompressedRecorder` — plus the validation paths (flat,
//! streaming, and streaming on a two-thread pool as a 2-core job runs it)
//! on prebuilt runs. Before any timing, the harness
//! prints the footprint comparison (total bytes and bytes per recorded
//! move) that backs the `--profile compressed` claim: full fidelity at a
//! fraction of the flat store's memory, ≤ 12 bytes per move.

use criterion::{criterion_group, criterion_main, Criterion};
use freezetag_core::{a_grid, AGridConfig};
use freezetag_instances::registry::{self, ParamMap};
use freezetag_instances::Instance;
use freezetag_sim::{
    validate, validate_with_pool, CompressedRecorder, ConcreteWorld, ParPool, Recorder, Schedule,
    Sim, ValidationOptions, WorldView,
};
use std::hint::black_box;

const ELL: f64 = 4.0;

fn instance_100k() -> Instance {
    let mut params = ParamMap::new();
    params.insert("n".to_string(), 100_000.0);
    params.insert("radius".to_string(), 200.0);
    params.insert("ell".to_string(), ELL);
    registry::build_instance("uniform_1m", &params, 7).expect("scale family builds")
}

fn full_run(inst: &Instance) -> Schedule {
    let mut sim = Sim::new(ConcreteWorld::new(inst));
    a_grid(&mut sim, &AGridConfig { ell: ELL });
    assert!(sim.world().all_awake());
    let (_, schedule, _) = sim.into_parts();
    schedule
}

fn compressed_run(inst: &Instance) -> CompressedRecorder {
    let mut sim = Sim::with_compressed(ConcreteWorld::new(inst));
    a_grid(&mut sim, &AGridConfig { ell: ELL });
    assert!(sim.world().all_awake());
    let (_, rec, _) = sim.into_recorder_parts();
    rec
}

fn bench_recording(c: &mut Criterion) {
    let inst = instance_100k();

    // Footprint report (deterministic, so once is enough): the numbers
    // CI budgets against and the ≤ 12 B/move acceptance pin.
    let schedule = full_run(&inst);
    let rec = compressed_run(&inst);
    assert_eq!(
        schedule.makespan().to_bits(),
        rec.makespan().to_bits(),
        "recorders must agree bitwise before their speed is compared"
    );
    eprintln!(
        "recording footprint @ n=100k: full {} B, compressed {} B ({:.1}x), \
         {:.2} B/move over {} moves",
        schedule.memory_bytes(),
        rec.memory_bytes(),
        schedule.memory_bytes() as f64 / rec.memory_bytes() as f64,
        rec.bytes_per_move(),
        rec.total_segments(),
    );
    assert!(
        rec.bytes_per_move() <= 12.0,
        "compressed encoding regressed past 12 B/move: {:.2}",
        rec.bytes_per_move()
    );

    let mut g = c.benchmark_group("recording");
    g.sample_size(10);
    g.bench_function("agrid_100k_record_full", |b| {
        b.iter(|| black_box(full_run(&inst).memory_bytes()));
    });
    g.bench_function("agrid_100k_record_stats", |b| {
        b.iter(|| {
            let mut sim = Sim::with_stats(ConcreteWorld::new(&inst));
            a_grid(&mut sim, &AGridConfig { ell: ELL });
            assert!(sim.world().all_awake());
            let (_, rec, _) = sim.into_recorder_parts();
            black_box((rec.makespan(), rec.memory_bytes()))
        });
    });
    g.bench_function("agrid_100k_record_compressed", |b| {
        b.iter(|| black_box(compressed_run(&inst).memory_bytes()));
    });
    g.bench_function("agrid_100k_validate_full", |b| {
        b.iter(|| {
            black_box(
                validate(
                    &schedule,
                    inst.source(),
                    inst.positions(),
                    &ValidationOptions::default(),
                )
                .expect("schedule validates"),
            )
        });
    });
    g.bench_function("agrid_100k_validate_streaming", |b| {
        b.iter(|| {
            black_box(
                validate(
                    &rec,
                    inst.source(),
                    inst.positions(),
                    &ValidationOptions::default(),
                )
                .expect("compressed run validates"),
            )
        });
    });
    g.bench_function("agrid_100k_validate_streaming_pool2", |b| {
        b.iter(|| {
            black_box(
                validate_with_pool(
                    &rec,
                    inst.source(),
                    inst.positions(),
                    &ValidationOptions::default(),
                    &ParPool::new(2),
                )
                .expect("compressed run validates"),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_recording);
criterion_main!(benches);
