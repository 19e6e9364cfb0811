//! Experiment engine for the freezetag workspace: every number this
//! repository reports is produced by running an [`ExperimentPlan`] through
//! this crate.
//!
//! A plan is *data*: a list of named scenarios (a registry generator plus
//! a parameter map, see `freezetag_instances::registry`), a list of
//! algorithm specifications ([`AlgSpec`]: the three distributed
//! algorithms, optionally with a Lemma 2 wake-strategy override, the
//! centralized wake-tree baselines, or the exact small-`n` optimum), and a
//! number of seeded repetitions per cell. The [`Engine`] executes the full
//! cross-product `scenarios × algorithms × seeds` on a `std::thread`
//! worker pool, splitting the core budget between inter-job workers and
//! each job's deterministic `sim_threads`-wide intra-job pool (see
//! [`inter_job_workers`] and `freezetag_sim::ParPool`); every job draws
//! its seed deterministically via
//! [`derive_seed`] from `(plan_seed, scenario, repetition)` — deliberately
//! *not* from the algorithm, so all algorithms of a cell run on the
//! identical instance (paired comparisons) — and the results, like the
//! aggregated JSON emitted by [`emit`], are byte-identical for any thread
//! count.
//!
//! The layers:
//!
//! * [`plan`] — [`ScenarioSpec`], [`AlgSpec`], [`ExperimentPlan`], job
//!   cross-product and validation;
//! * [`engine`] — the [`Engine`] facade: plan submission onto a resident
//!   worker pool, the in-order cancellable [`JobStream`], the
//!   deterministic result cache, and the single-run entry points;
//! * [`runner`] — per-job execution (one path for every recorder profile
//!   on concrete worlds, plus the adversarial one), [`JobResult`] and
//!   [`SingleRun`];
//! * [`serve`] — `dftp serve`: the engine behind a hand-rolled HTTP/1.1
//!   service with streaming JSONL results;
//! * [`agg`] — grouping job results into [`Aggregate`]s with
//!   mean/min/max/p50/p95 statistics;
//! * [`emit`] — JSON-lines, CSV, aggregated JSON, and the
//!   `BENCH_results.json` perf-trajectory format.
//!
//! # Example
//!
//! ```
//! use freezetag_exp::{agg, emit, AlgSpec, Engine, ExperimentPlan, ScenarioSpec};
//! use freezetag_core::Algorithm;
//!
//! let plan = ExperimentPlan::new("doc")
//!     .scenario(ScenarioSpec::new("disk").with("n", 15.0).with("radius", 5.0))
//!     .algorithm(AlgSpec::from(Algorithm::Grid))
//!     .seeds(2);
//! let results = Engine::with_threads(2).run(&plan).unwrap();
//! assert_eq!(results.len(), 2);
//! let aggregates = agg::aggregate(&results);
//! let json = emit::aggregates_to_json(&plan, &aggregates);
//! assert!(json.contains("\"makespan\""));
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod emit;
pub mod engine;
mod error;
pub mod journal;
pub mod plan;
pub mod runner;
pub mod serve;

pub use agg::{aggregate, Aggregate, Stats, StreamingAgg};
pub use emit::JobStreamWriter;
pub use engine::{CacheStats, Engine, EngineConfig, JobStream, SubmitOptions};
pub use error::ExpError;
pub use plan::{derive_seed, AlgSpec, ExperimentPlan, JobSpec, Profile, ScenarioSpec};
pub use runner::{central_run, inter_job_workers, CentralAnswer, JobResult, SingleRun};
