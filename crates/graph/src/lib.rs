//! Disk graphs and instance parameters for the distributed Freeze Tag
//! Problem.
//!
//! The paper's complexity bounds are phrased in terms of three quantities of
//! a point set `P` with source `s` (Section 1.2):
//!
//! * the **radius** `ρ*` — the largest distance from `s` to any point of `P`;
//! * the **connectivity threshold** `ℓ*` — the least `δ` such that the
//!   δ-disk graph of `P ∪ {s}` is connected;
//! * the **ℓ-eccentricity** `ξ_ℓ` — the minimum weighted depth of a spanning
//!   tree of the ℓ-disk graph rooted at `s`, which equals the largest
//!   shortest-path distance from `s` in that graph.
//!
//! This crate computes all three exactly, provides the δ-disk graph itself
//! (adjacency through a uniform-grid spatial index, [`GridIndex`]), plus the
//! traversals the algorithms and the test-suite need: Dijkstra shortest
//! paths, BFS hop counts and a union-find.
//!
//! # Example
//!
//! ```
//! use freezetag_geometry::Point;
//! use freezetag_graph::{connectivity_threshold, DiskGraph};
//!
//! // Three robots on a line, source at the origin.
//! let pts = vec![
//!     Point::ORIGIN,
//!     Point::new(1.0, 0.0),
//!     Point::new(2.5, 0.0),
//! ];
//! let ell_star = connectivity_threshold(&pts);
//! assert!((ell_star - 1.5).abs() < 1e-9);
//! let g = DiskGraph::new(pts, 1.5);
//! assert!(g.is_connected());
//! ```

#![warn(missing_docs)]

mod cellgrid;
mod cellmap;
mod diskgraph;
mod index;
mod kdtree;
pub mod kernel;
mod params;
mod traversal;
mod unionfind;

pub use cellgrid::CellGrid;
pub use diskgraph::DiskGraph;
pub use index::GridIndex;
pub use params::{connectivity_threshold, eccentricity, radius, InstanceParams};
pub use traversal::{bfs_hops, dijkstra, ShortestPaths};
pub use unionfind::UnionFind;
