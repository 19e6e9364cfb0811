//! CI smoke check for the anytime wake-tree optimizer (release only —
//! the greedy baseline is `O(n²)` per woken robot and the instances here
//! are the table-1 workloads at n ≥ 1000).
//!
//! Three acceptance criteria, all asserted so CI fails loudly:
//!
//! * under the default fixed iteration budget, `central-anytime` is no
//!   worse than the best constructive baseline (chain / greedy / median /
//!   quadtree) on every workload, and strictly better on at least half;
//! * the best tree is byte-identical at pool widths 1, 2 and 4
//!   (`--workers` is execution-only; the logical stream count is fixed);
//! * the critical-chain filter evaluates fewer than a tenth of the
//!   proposed moves (`moves_evaluated * 10 < moves_tried`).
//!
//! Run with: `cargo run --release -p freezetag_bench --bin optimizer_smoke`

use freezetag_bench::{header, lattice_with, row, snake_with};
use freezetag_central::{
    anytime_wake_tree, chain_wake_tree, greedy_wake_tree, median_wake_tree, quadtree_wake_tree,
    AnytimeConfig, AnytimeReport,
};
use freezetag_geometry::Point;
use freezetag_instances::generators::uniform_disk;
use freezetag_instances::Instance;
use freezetag_sim::{CancelToken, ParPool, RobotId};

fn items_of(inst: &Instance) -> Vec<(RobotId, Point)> {
    inst.positions()
        .iter()
        .enumerate()
        .map(|(i, &p)| (RobotId::sleeper(i), p))
        .collect()
}

fn run(root: Point, items: &[(RobotId, Point)], threads: usize) -> AnytimeReport {
    // A larger-than-default but still fixed iteration budget: at n >= 1000
    // a uniform random move only rarely touches the critical path, so the
    // CI check needs enough proposals per stream to find the improving ones.
    let config = AnytimeConfig {
        rounds: 48,
        moves_per_round: 8_000,
        strike_limit: 48,
        ..AnytimeConfig::default()
    };
    anytime_wake_tree(
        root,
        items,
        &config,
        9,
        &ParPool::new(threads),
        &CancelToken::never(),
    )
}

fn main() {
    let workloads: Vec<(&str, Instance)> = vec![
        ("lattice ℓ=1 ρ=48", lattice_with(1.0, 48.0)),
        ("snake ℓ=2 ξ≈2200", snake_with(2.0, 2200.0)),
        ("disk n=1200", uniform_disk(1200, 130.0, 21)),
    ];
    println!("\n## Optimizer smoke — anytime vs constructive baselines (n >= 1000)\n");
    header(&[
        "workload",
        "n",
        "best constructive",
        "anytime",
        "evaluated moves",
        "accepted moves",
    ]);
    let mut strict = 0;
    for (name, inst) in &workloads {
        let items = items_of(inst);
        assert!(items.len() >= 1000, "{name}: n={} too small", items.len());
        let root = inst.source();
        let best_constructive = [
            chain_wake_tree(root, &items),
            greedy_wake_tree(root, &items),
            median_wake_tree(root, &items),
            quadtree_wake_tree(root, &items),
        ]
        .iter()
        .map(|t| t.makespan())
        .fold(f64::INFINITY, f64::min);

        let report = run(root, &items, 4);
        assert!(
            report.makespan <= best_constructive + 1e-9,
            "{name}: anytime {} worse than best constructive {best_constructive}",
            report.makespan
        );
        if report.makespan < best_constructive - 1e-9 {
            strict += 1;
        }

        // The --workers byte-compare: identical best tree at widths 1/2/4
        // (`report` above already ran at width 4).
        let base = run(root, &items, 1);
        let two = run(root, &items, 2);
        for (threads, other) in [(2usize, &two), (4, &report)] {
            assert_eq!(
                base.tree.digest(),
                other.tree.digest(),
                "{name}: tree digest differs between 1 and {threads} workers"
            );
            assert_eq!(
                base.makespan.to_bits(),
                other.makespan.to_bits(),
                "{name}: makespan bits differ between 1 and {threads} workers"
            );
            assert_eq!(base.moves_tried, other.moves_tried);
            assert_eq!(base.moves_evaluated, other.moves_evaluated);
            assert_eq!(base.moves_accepted, other.moves_accepted);
        }
        // The critical-chain filter is deterministic, so its work count
        // is a wall-clock-free guard: a disabled filter evaluates every
        // valid proposal and fails here.
        assert!(
            report.moves_evaluated * 10 < report.moves_tried,
            "{name}: {} of {} moves evaluated; the critical-chain filter is off",
            report.moves_evaluated,
            report.moves_tried
        );

        row(&[
            name.to_string(),
            items.len().to_string(),
            format!("{best_constructive:.4}"),
            format!("{:.4}", report.makespan),
            format!("{} / {}", report.moves_evaluated, report.moves_tried),
            report.moves_accepted.to_string(),
        ]);
    }
    assert!(
        strict * 2 >= workloads.len(),
        "anytime must strictly improve on at least half the workloads, got {strict}/{}",
        workloads.len()
    );
    println!(
        "\nok: anytime <= best constructive everywhere, strictly better on {strict}/{} workloads,",
        workloads.len()
    );
    println!("byte-identical across 1/2/4 workers, with under a tenth of the moves evaluated.");
}
