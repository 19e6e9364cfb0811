//! Centralized Freeze Tag: waking robots whose positions are *known*.
//!
//! The distributed algorithms of the paper repeatedly reduce to the
//! centralized problem: once a team knows the sleeping positions inside a
//! region, one robot computes a *wake-up tree* and the swarm realizes it
//! (Lemma 2 and Algorithm 1 of the paper). This crate provides:
//!
//! * [`WakeTree`] — the binary wake-up tree structure (root = the initial
//!   robot, one child; every other node ≤ 2 children);
//! * [`quadtree_wake_tree`] — a divide-and-conquer strategy with makespan
//!   `O(R)` for points in a region of diameter `R` (our stand-in for the
//!   5R algorithm of \[BCGH24\], see DESIGN.md);
//! * [`greedy_wake_tree`] — the earliest-finish greedy baseline;
//! * [`anytime_wake_tree`] — a parallel anytime local-search optimizer
//!   over wake trees with `O(depth)` delta evaluation, the strong
//!   centralized baseline behind the competitive-ratio tables;
//! * [`optimal_makespan`] — exhaustive branch-and-bound for tiny inputs,
//!   used to sanity-check the approximation quality of the strategies;
//! * [`realize`] — Algorithm 1: executes a wake-up tree on a
//!   [`freezetag_sim::Sim`], splitting the tree between waker and woken at
//!   every node.
//!
//! # Example
//!
//! ```
//! use freezetag_geometry::Point;
//! use freezetag_sim::RobotId;
//! use freezetag_central::quadtree_wake_tree;
//!
//! let items = vec![
//!     (RobotId::sleeper(0), Point::new(1.0, 0.0)),
//!     (RobotId::sleeper(1), Point::new(0.0, 2.0)),
//!     (RobotId::sleeper(2), Point::new(-1.0, -1.0)),
//! ];
//! let tree = quadtree_wake_tree(Point::ORIGIN, &items);
//! assert_eq!(tree.robot_count(), 3);
//! assert!(tree.makespan() > 0.0);
//! ```

pub mod anytime;
mod greedy;
mod optimal;
mod propagate;
mod quadtree;
mod strategy;
mod tree;
mod variants;

pub use anytime::{anytime_wake_tree, AnytimeConfig, AnytimeReport, OptTree};
pub use greedy::greedy_wake_tree;
pub use optimal::optimal_makespan;
pub use propagate::realize;
pub use quadtree::quadtree_wake_tree;
pub use strategy::WakeStrategy;
pub use tree::{NodeId, WakeTree};
pub use variants::{chain_wake_tree, median_wake_tree};
