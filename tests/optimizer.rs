//! Property and determinism tests of the anytime wake-tree optimizer:
//! the delta-evaluation cache is pinned bit-equal against a
//! full-recompute oracle over random move sequences, moves preserve the
//! wake-tree invariants, and the best tree is byte-identical at any
//! worker count.

use freezetag::central::{
    anytime_wake_tree, greedy_wake_tree, quadtree_wake_tree, AnytimeConfig, OptTree,
};
use freezetag::geometry::Point;
use freezetag::sim::{CancelToken, ParPool, RobotId};
use proptest::prelude::*;

fn arb_items(max_n: usize, span: f64) -> impl Strategy<Value = Vec<(RobotId, Point)>> {
    prop::collection::vec((-span..span, -span..span), 2..max_n).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y))| (RobotId::sleeper(i), Point::new(x, y)))
            .collect()
    })
}

/// A random move: `(kind, a, b)` with indices drawn large and reduced
/// modulo the tree size at application time, so the strategy is
/// independent of the instance size.
fn arb_moves(max_len: usize) -> impl Strategy<Value = Vec<(bool, usize, usize)>> {
    prop::collection::vec(
        (0usize..2, 0usize..1 << 20, 0usize..1 << 20).prop_map(|(k, a, b)| (k == 0, a, b)),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole pin: after every applied move, every cached subtree
    /// height is bit-equal to a full bottom-up recomputation, and the
    /// incremental makespan is exactly the oracle's.
    #[test]
    fn delta_evaluation_matches_the_full_recompute_oracle(
        items in arb_items(60, 25.0),
        moves in arb_moves(120),
    ) {
        let mut tree = OptTree::from_wake_tree(&quadtree_wake_tree(Point::ORIGIN, &items));
        prop_assert!(tree.cache_matches_oracle());
        let len = tree.len();
        for (reassign, a, b) in moves {
            let applied = if reassign {
                tree.reassign(1 + a % (len - 1), b % len)
            } else {
                tree.swap(1 + a % (len - 1), 1 + b % (len - 1))
            };
            if applied {
                prop_assert!(tree.cache_matches_oracle(),
                    "cache drifted from the oracle after a move");
            }
            prop_assert_eq!(tree.makespan().to_bits(), tree.oracle_makespan().to_bits());
        }
    }

    /// Moves never break the wake-tree structure: converting back passes
    /// the arity assertions of `add_child`, wakes every robot exactly
    /// once, and agrees with the cache on the makespan up to the
    /// accumulation-order ulp.
    #[test]
    fn moves_preserve_wake_tree_invariants(
        items in arb_items(50, 20.0),
        moves in arb_moves(80),
    ) {
        let mut tree = OptTree::from_wake_tree(&quadtree_wake_tree(Point::ORIGIN, &items));
        let len = tree.len();
        for (reassign, a, b) in moves {
            if reassign {
                tree.reassign(1 + a % (len - 1), b % len);
            } else {
                tree.swap(1 + a % (len - 1), 1 + b % (len - 1));
            }
        }
        let back = tree.to_wake_tree();
        prop_assert_eq!(back.robot_count(), items.len());
        prop_assert_eq!(back.woken_robots().len(), items.len());
        let slack = 1e-9 * back.makespan().max(1.0);
        prop_assert!((back.makespan() - tree.makespan()).abs() <= slack);
    }

    /// A revert is exact: applying a move and its inverse restores the
    /// makespan bits (the acceptance loop relies on this).
    #[test]
    fn reassign_then_revert_restores_the_makespan_bits(
        items in arb_items(40, 15.0),
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
    ) {
        let mut tree = OptTree::from_wake_tree(&quadtree_wake_tree(Point::ORIGIN, &items));
        let len = tree.len();
        let before = tree.makespan();
        let v = 1 + a % (len - 1);
        let old_parent = tree.parent(v).expect("non-root has a parent");
        if tree.reassign(v, b % len) {
            prop_assert!(tree.reassign(v, old_parent), "revert must apply");
        }
        prop_assert_eq!(tree.makespan().to_bits(), before.to_bits());
        prop_assert!(tree.cache_matches_oracle());
    }

    /// The full optimizer run is byte-identical at pool widths 1, 2 and
    /// 4 on arbitrary instances — the `--workers` contract.
    #[test]
    fn optimizer_is_byte_identical_across_pool_widths(
        items in arb_items(40, 20.0),
        seed in 0u64..1 << 40,
    ) {
        let config = AnytimeConfig {
            rounds: 3,
            moves_per_round: 120,
            ..AnytimeConfig::default()
        };
        let run = |threads| anytime_wake_tree(
            Point::ORIGIN,
            &items,
            &config,
            seed,
            &ParPool::new(threads),
            &CancelToken::never(),
        );
        let base = run(1);
        for threads in [2, 4] {
            let other = run(threads);
            prop_assert_eq!(base.tree.digest(), other.tree.digest());
            prop_assert_eq!(&base.tree, &other.tree);
            prop_assert_eq!(base.makespan.to_bits(), other.makespan.to_bits());
            prop_assert_eq!(base.moves_tried, other.moves_tried);
            prop_assert_eq!(base.moves_evaluated, other.moves_evaluated);
            prop_assert_eq!(base.moves_accepted, other.moves_accepted);
        }
    }
}

#[test]
fn optimizer_dominates_the_greedy_baseline_on_mixed_instances() {
    // Small enough for the greedy seed tree, so domination is by
    // construction; strict improvement happens on most instances.
    let mut strict = 0;
    for seed in 1..=4u64 {
        let items: Vec<(RobotId, Point)> = (0..150)
            .map(|i| {
                let angle = (i as f64) * 2.4 + seed as f64;
                let r = 3.0 + (i as f64).sqrt() * (seed as f64).sqrt();
                (
                    RobotId::sleeper(i),
                    Point::new(r * angle.cos(), r * angle.sin()),
                )
            })
            .collect();
        let greedy = greedy_wake_tree(Point::ORIGIN, &items).makespan();
        let report = anytime_wake_tree(
            Point::ORIGIN,
            &items,
            &AnytimeConfig::default(),
            seed,
            &ParPool::new(2),
            &CancelToken::never(),
        );
        assert!(
            report.makespan <= greedy + 1e-12,
            "seed {seed}: anytime {} worse than greedy {greedy}",
            report.makespan
        );
        if report.makespan < greedy - 1e-9 {
            strict += 1;
        }
    }
    assert!(
        strict >= 2,
        "anytime should strictly beat greedy on most instances, got {strict}/4"
    );
}
