//! A job that panics is counted in `error_rate` and the run goes on.
//!
//! `AWave` on `wave_100k` with plan seed 1, repetition 1 (derived seed
//! 13757245211066428519) panics with `wave slot 5 of round 2 overran`.
//! This runs that job through the `explore_stats` machinery and checks
//! that the failure is counted, the plan resumes after it, and the other
//! jobs still complete. Run it optimized (about 20 s):
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use freezetag_perfbench::batch::{explore_mix, timed};

#[test]
fn the_known_wave_panic_is_counted_and_the_run_completes() {
    // Wave repetitions 0 and 1 of plan seed 1, then one separator job.
    let batch = explore_mix(1, 2, 1);
    assert_eq!(batch.cycle[0].jobs()[1].seed, 13_757_245_211_066_428_519);

    let report = timed(&batch, 1.0);
    assert_eq!(report.attempted, 3, "{report:?}");
    assert_eq!(report.failed, 1, "{report:?}");
    assert!(
        report
            .info
            .iter()
            .any(|l| l.contains("job 1 of plan 0 failed") && l.contains("overran")),
        "{:?}",
        report.info
    );
    let error_rate = report
        .notes
        .iter()
        .find(|m| m.name == "error_rate")
        .expect("error_rate is reported");
    assert!((error_rate.value - 1.0 / 3.0).abs() < 1e-12);
    // The jobs before and after the panic completed and passed the checks.
    assert!(report.correct(), "{:?}", report.problems);
    assert!(
        report.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        report.metrics
    );
}
