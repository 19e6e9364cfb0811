//! The distributed Freeze Tag algorithms of *Distributed Freeze Tag: a
//! Sustainable Solution to Discover and Wake-up a Robot Swarm* (Gavoille,
//! Hanusse, Le Bouder, Marcé — PODC 2025).
//!
//! A swarm of `n` sleeping robots at unknown positions must be woken from
//! one awake source robot, under unit speed, unit vision and co-location
//! communication. This crate implements the paper's three algorithms plus
//! their building blocks, all driven through the restricted sensing
//! interface of `freezetag-sim`:
//!
//! | algorithm | energy/robot | makespan |
//! |-----------|--------------|----------|
//! | [`a_separator`] | unconstrained | `O(ρ + ℓ² log(ρ/ℓ))` (Thm 1, optimal by Thm 2) |
//! | [`a_grid`] | `Θ(ℓ²)` (optimal by Thm 3) | `O(ξ_ℓ·ℓ)` (Thm 4) |
//! | [`a_wave`] | `Θ(ℓ² log ℓ)` | `O(ξ_ℓ + ℓ² log(ξ_ℓ/ℓ))` (Thm 5, optimal by Thm 6) |
//!
//! Building blocks: team exploration (Lemma 1), distributed ℓ-sampling
//! `DFSampling` (Lemma 5), geometric separators (Lemma 3), centralized
//! wake-up trees (Lemma 2, from `freezetag-central`), and the `ρ*`
//! estimation of Section 5 ([`estimate_radius`]).
//!
//! # Quickstart
//!
//! ```
//! use freezetag_core::{solve, Algorithm};
//! use freezetag_instances::generators::uniform_disk;
//!
//! let instance = uniform_disk(50, 10.0, 42);
//! let tuple = instance.admissible_tuple();
//! let report = solve(&instance, &tuple, Algorithm::Separator).unwrap();
//! assert!(report.all_awake);
//! println!("makespan {:.1}, worst energy {:.1}", report.makespan, report.max_energy);
//! ```

pub mod bounds;
mod explore;
mod grid;
mod grid_events;
pub mod knowledge;
mod radius_approx;
mod sampling;
pub mod scratch;
mod separator;
mod solve;
mod team;
mod treasure_hunt;
mod wave;

pub use grid::{a_grid, AGridConfig};
pub use grid_events::{a_grid_events, AGridRobot};
pub use radius_approx::{estimate_radius, RadiusEstimate};
pub use scratch::AlgScratch;
pub use separator::{a_separator, a_separator_in, ASeparatorConfig};
pub use solve::{run_algorithm, solve, Algorithm, RunReport};
pub use treasure_hunt::{spiral_search, team_search, SearchOutcome};
pub use wave::{a_wave, a_wave_in, AWaveConfig};
