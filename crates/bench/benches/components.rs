//! Criterion micro-benchmarks of the substrate components: spatial index,
//! disk graphs, instance parameters, centralized wake-up trees and the
//! exploration sweep. These track implementation wall-clock, not simulated
//! makespan (the table/figure binaries measure those).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use freezetag_central::{greedy_wake_tree, optimal_makespan, quadtree_wake_tree};
use freezetag_geometry::{sweep, Point, Rect};
use freezetag_graph::{connectivity_threshold, dijkstra, DiskGraph, GridIndex};
use freezetag_instances::adversarial::theorem2_layout;
use freezetag_instances::generators::{clustered, uniform_disk};
use freezetag_sim::RobotId;
use std::hint::black_box;

fn points(n: usize, radius: f64) -> Vec<Point> {
    let inst = uniform_disk(n, radius, 42);
    inst.all_points()
}

fn bench_geometry(c: &mut Criterion) {
    let mut g = c.benchmark_group("geometry");
    for &side in &[16.0, 64.0, 256.0] {
        g.bench_with_input(
            BenchmarkId::new("snapshot_positions", side as u64),
            &side,
            |b, &side| {
                let rect = Rect::with_size(Point::ORIGIN, side, side);
                b.iter(|| black_box(sweep::snapshot_positions(&rect).len()));
            },
        );
    }
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph");
    for &n in &[200usize, 1000] {
        let pts = points(n, (n as f64).sqrt());
        g.bench_with_input(BenchmarkId::new("grid_index_build", n), &pts, |b, pts| {
            b.iter(|| black_box(GridIndex::build(pts, 1.0).len()));
        });
        g.bench_with_input(
            BenchmarkId::new("connectivity_threshold", n),
            &pts,
            |b, pts| {
                b.iter(|| black_box(connectivity_threshold(pts)));
            },
        );
        let ell = connectivity_threshold(&pts).max(0.5);
        let graph = DiskGraph::new(pts.clone(), ell);
        g.bench_with_input(BenchmarkId::new("dijkstra", n), &graph, |b, graph| {
            b.iter(|| black_box(dijkstra(graph, 0).eccentricity()));
        });
    }
    // The exact threshold is near-linear, so it also covers the swarm
    // sizes an all-pairs pass could not afford.
    g.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let pts = points(n, (n as f64).sqrt());
        g.bench_with_input(
            BenchmarkId::new("connectivity_threshold", n),
            &pts,
            |b, pts| {
                b.iter(|| black_box(connectivity_threshold(pts)));
            },
        );
    }
    // Two dense clusters of 5·10⁴ whose bridge sets ℓ*: the layout the
    // former δ-bracket made quadratic.
    let pts = clustered(2, 50_000, 5.0, 200.0, 42).all_points();
    g.bench_with_input(
        BenchmarkId::new("connectivity_threshold_two_clusters", pts.len()),
        &pts,
        |b, pts| {
            b.iter(|| black_box(connectivity_threshold(pts)));
        },
    );
    g.finish();
}

fn bench_central(c: &mut Criterion) {
    let mut g = c.benchmark_group("central");
    for &n in &[100usize, 500] {
        let items: Vec<(RobotId, Point)> = points(n, 30.0)
            .into_iter()
            .skip(1)
            .enumerate()
            .map(|(i, p)| (RobotId::sleeper(i), p))
            .collect();
        g.bench_with_input(BenchmarkId::new("quadtree_tree", n), &items, |b, items| {
            b.iter(|| black_box(quadtree_wake_tree(Point::ORIGIN, items).makespan()));
        });
        g.bench_with_input(BenchmarkId::new("greedy_tree", n), &items, |b, items| {
            b.iter(|| black_box(greedy_wake_tree(Point::ORIGIN, items).makespan()));
        });
        g.bench_with_input(BenchmarkId::new("median_tree", n), &items, |b, items| {
            b.iter(|| {
                black_box(freezetag_central::median_wake_tree(Point::ORIGIN, items).makespan())
            });
        });
        g.bench_with_input(BenchmarkId::new("chain_tree", n), &items, |b, items| {
            b.iter(|| {
                black_box(freezetag_central::chain_wake_tree(Point::ORIGIN, items).makespan())
            });
        });
    }
    let tiny: Vec<Point> = points(7, 5.0).into_iter().skip(1).collect();
    g.bench_function("optimal_makespan_n6", |b| {
        b.iter(|| black_box(optimal_makespan(Point::ORIGIN, &tiny)));
    });
    g.finish();
}

fn bench_instances(c: &mut Criterion) {
    let mut g = c.benchmark_group("instances");
    g.bench_function("uniform_disk_500", |b| {
        b.iter(|| black_box(uniform_disk(500, 25.0, 7).n()));
    });
    g.bench_function("theorem2_layout", |b| {
        b.iter(|| black_box(theorem2_layout(4.0, 32.0, 1000).n()));
    });
    let inst = uniform_disk(300, 20.0, 3);
    g.bench_function("csv_round_trip_300", |b| {
        b.iter(|| {
            let text = freezetag_instances::io::to_csv(&inst);
            black_box(freezetag_instances::io::from_csv(&text).unwrap().n())
        });
    });
    g.finish();
}

fn bench_discovery(c: &mut Criterion) {
    use freezetag_core::{spiral_search, team_search};
    use freezetag_instances::Instance;
    use freezetag_sim::{ConcreteWorld, Sim};
    let mut g = c.benchmark_group("discovery");
    g.sample_size(20);
    g.bench_function("spiral_search_d12", |b| {
        b.iter(|| {
            let inst = Instance::new(vec![Point::new(12.0, 5.0)]);
            let mut sim = Sim::new(ConcreteWorld::new(&inst));
            black_box(spiral_search(&mut sim, RobotId::SOURCE, 64.0).duration)
        });
    });
    g.bench_function("team_search_d12_k1", |b| {
        b.iter(|| {
            let inst = Instance::new(vec![Point::new(12.0, 5.0)]);
            let mut sim = Sim::new(ConcreteWorld::new(&inst));
            black_box(team_search(&mut sim, &[RobotId::SOURCE], 64.0).duration)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_geometry,
    bench_graph,
    bench_central,
    bench_instances,
    bench_discovery
);
criterion_main!(benches);
