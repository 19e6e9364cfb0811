//! Criterion benchmark of the sensing kernels' membership scans, at three
//! levels of the stack.
//!
//! * `kernel/*` — the raw `freezetag_graph::kernel` disk/rect scans over
//!   realistic cell-window slices;
//! * `grid/*` — `GridIndex::within_into` at `AWave`'s unit sensing radius
//!   over a `wave_100k`-density swarm, plus the index build;
//! * `world/*` — end-to-end `ConcreteWorld` sensing through
//!   `look_batch_into`, the exact call the wave drivers make per slot.
//!
//! The `N`-robot rows fit in L2 and spread their queries over the whole
//! swarm; the `SWEEP_N`-robot rows (the `uniform_1m` family's density at
//! perfbench's `grid_validated` size) query in sweep order, the access
//! pattern of a sweeping robot, over a swarm whose index outgrows the
//! caches — the rows where the index layout shows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use freezetag_geometry::Point;
use freezetag_graph::{kernel, GridIndex};
use freezetag_instances::generators::uniform_disk;
use freezetag_sim::{ConcreteWorld, ParPool, WorldView};
use std::hint::black_box;

/// `wave_100k` is 10⁵ robots in a 200-radius disk (~0.8 robots per unit
/// cell); the benches keep that density at a tamer point count.
const N: usize = 20_000;

fn radius_for(n: usize) -> f64 {
    200.0 * (n as f64 / 100_000.0).sqrt()
}

/// Robots of the sweep-order rows: `uniform_1m`'s density (10⁶ robots in
/// a 640-radius disk) at 2.5·10⁵ robots.
const SWEEP_N: usize = 250_000;

fn sweep_radius() -> f64 {
    640.0 * (SWEEP_N as f64 / 1_000_000.0).sqrt()
}

/// Query centres in boustrophedon order over the disk of `radius`: rows
/// `spacing` apart, alternating direction, `spacing` between centres.
fn sweep(radius: f64, spacing: f64) -> Vec<Point> {
    let steps = (2.0 * radius / spacing) as i64;
    let mut out = Vec::new();
    for row in 0..=steps {
        let y = -radius + row as f64 * spacing;
        let cols: Vec<i64> = if row % 2 == 0 {
            (0..=steps).collect()
        } else {
            (0..=steps).rev().collect()
        };
        for col in cols {
            let p = Point::new(-radius + col as f64 * spacing, y);
            if p.dist(Point::ORIGIN) <= radius {
                out.push(p);
            }
        }
    }
    out
}

/// Query centres spread across the swarm.
fn centres(radius: f64, count: usize) -> Vec<Point> {
    (0..count)
        .map(|i| {
            let a = i as f64 * 0.7;
            let r = radius * ((i % 16) as f64 / 16.0);
            Point::new(r * a.cos(), r * a.sin())
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);
    // A flat SoA window like one GridIndex cell row: coordinates in a
    // band so a realistic fraction (not all, not none) pass the tests.
    for &len in &[8usize, 64, 1024] {
        let xs: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
        let ys: Vec<f64> = (0..len).map(|i| (i as f64 * 0.73).cos() * 2.0).collect();
        let accept_sq = 1.0f64;
        g.bench_with_input(BenchmarkId::new("disk", len), &len, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                kernel::disk_scan(&xs, &ys, 0.25, -0.5, accept_sq, |k| acc += k);
                black_box(acc)
            });
        });
        g.bench_with_input(BenchmarkId::new("rect", len), &len, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                kernel::rect_scan(&xs, &ys, -1.0, -1.0, 1.0, 1.0, |k| acc += k);
                black_box(acc)
            });
        });
    }
    g.finish();
}

fn bench_grid_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid");
    g.sample_size(10);
    let within = |qs: &[Point], idx: &GridIndex, out: &mut Vec<usize>| {
        let mut acc = 0usize;
        for &q in qs {
            idx.within_into(q, 1.0, out);
            acc += out.len();
        }
        acc
    };
    let radius = radius_for(N);
    let inst = uniform_disk(N, radius, 11);
    let idx = GridIndex::build(inst.positions(), 1.0);
    let qs = centres(radius, 4096);
    g.bench_with_input(BenchmarkId::new("within_into", N), &qs, |b, qs| {
        let mut out = Vec::new();
        b.iter(|| black_box(within(qs, &idx, &mut out)));
    });
    let radius = sweep_radius();
    let inst = uniform_disk(SWEEP_N, radius, 11);
    g.bench_with_input(
        BenchmarkId::new("build", SWEEP_N),
        inst.positions(),
        |b, pts| b.iter(|| black_box(GridIndex::build(pts, 1.0).len())),
    );
    let idx = GridIndex::build(inst.positions(), 1.0);
    let qs = sweep(radius, 2.0);
    g.bench_with_input(
        BenchmarkId::new("within_into_sweep", SWEEP_N),
        &qs,
        |b, qs| {
            let mut out = Vec::new();
            b.iter(|| black_box(within(qs, &idx, &mut out)));
        },
    );
    g.finish();
}

fn bench_world_sensing(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(10);
    let pool = ParPool::new(1);
    let rows = [
        (N, radius_for(N), centres(radius_for(N), 4096), "look_batch"),
        (
            SWEEP_N,
            sweep_radius(),
            sweep(sweep_radius(), 2.0),
            "look_batch_sweep",
        ),
    ];
    for (n, radius, centres, name) in rows {
        let inst = uniform_disk(n, radius, 11);
        let mut world = ConcreteWorld::new(&inst);
        let qs: Vec<(Point, f64)> = centres.into_iter().map(|p| (p, 0.0)).collect();
        g.bench_with_input(BenchmarkId::new(name, n), &qs, |b, qs| {
            let mut flat = Vec::new();
            let mut counts = Vec::new();
            b.iter(|| {
                world.look_batch_into(qs, &pool, &mut flat, &mut counts);
                black_box(flat.len())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_grid_index,
    bench_world_sensing
);
criterion_main!(benches);
