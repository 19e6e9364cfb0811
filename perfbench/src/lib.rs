//! End-to-end and per-layer benchmark of the freezetag workspace.
//!
//! The `perfbench` binary runs one workload per process (see `README.md`
//! in this directory for the workloads, the metrics and what each layer
//! figure should move). Everything here calls the workspace crates'
//! public API only.

pub mod batch;
pub mod layers;
pub mod report;
pub mod serve_mix;
pub mod trace;

use report::Report;
use std::path::PathBuf;

/// Workload names, in the order the docs list them.
pub const WORKLOADS: [&str; 4] = [
    "grid_validated",
    "explore_stats",
    "serve_mix",
    "anytime_10k",
];

/// Runs `workload` for `seed`: the timed run for `--trace 0`, the traced
/// run (spans written under `perfbench/out/`) for `--trace 1`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let trace_path =
        PathBuf::from("perfbench/out").join(format!("trace-{workload}-seed{seed}.jsonl"));
    let batch = match workload {
        "grid_validated" => batch::grid_validated(seed),
        "explore_stats" => batch::explore_stats(seed),
        "anytime_10k" => batch::anytime_10k(seed),
        "serve_mix" if trace => return Ok(serve_mix::traced(seed, &trace_path)),
        "serve_mix" => return Ok(serve_mix::timed(seed, seconds)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(if trace {
        batch::traced(&batch, &trace_path)
    } else {
        batch::timed(&batch, seconds)
    })
}
