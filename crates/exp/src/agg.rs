//! Aggregation of job results into per-(scenario, algorithm) statistics.

use crate::runner::JobResult;

/// Summary statistics of one measured quantity across a group of jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

impl Stats {
    /// Computes the statistics of a non-empty sample. Percentiles use the
    /// nearest-rank definition: `p50` of `[1, 2, 3, 4]` is `2`. Non-finite
    /// observations (quantities a job does not measure, e.g. the energy of
    /// a `central[optimal]` run) are excluded; an all-non-finite sample
    /// yields all-NaN statistics, which the emitters render as JSON
    /// `null`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn compute(values: &[f64]) -> Stats {
        assert!(!values.is_empty(), "no observations to aggregate");
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return Stats {
                mean: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
                p50: f64::NAN,
                p95: f64::NAN,
            };
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite after filter"));
        let rank = |p: f64| -> f64 {
            let k = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[k - 1]
        };
        Stats {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: rank(50.0),
            p95: rank(95.0),
        }
    }
}

/// Aggregated results of one (scenario, algorithm) cell across its seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Scenario display name.
    pub scenario: String,
    /// Canonical generator name.
    pub generator: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Robots per run (from the first job of the cell).
    pub n: usize,
    /// Number of seeded repetitions aggregated.
    pub seeds: usize,
    /// Makespan statistics.
    pub makespan: Stats,
    /// Worst per-robot energy statistics.
    pub max_energy: Stats,
    /// Total swarm energy statistics.
    pub total_energy: Stats,
    /// Look-count statistics.
    pub looks: Stats,
    /// Recorder peak-memory statistics (bytes; deterministic estimates).
    pub peak_mem_bytes: Stats,
    /// Whether every aggregated run ended with all robots awake.
    pub all_awake: bool,
    /// Summed wall-clock seconds of the cell's jobs (non-deterministic;
    /// excluded from the deterministic aggregate JSON).
    pub wall_time_s: f64,
}

/// Groups job results by (scenario, algorithm) in first-appearance order —
/// which, for results straight out of `Engine::run`, is the plan's own order —
/// and computes the per-cell statistics: a [`StreamingAgg`] fed every
/// result in turn.
pub fn aggregate(results: &[JobResult]) -> Vec<Aggregate> {
    let mut acc = StreamingAgg::new();
    for r in results {
        acc.push(r);
    }
    acc.finish()
}

/// One (scenario, algorithm) cell being accumulated by [`StreamingAgg`]:
/// the per-quantity observation vectors, in arrival order.
struct GroupAcc {
    scenario: String,
    generator: String,
    algorithm: String,
    n: usize,
    makespan: Vec<f64>,
    max_energy: Vec<f64>,
    total_energy: Vec<f64>,
    looks: Vec<f64>,
    peak_mem_bytes: Vec<f64>,
    all_awake: bool,
    wall_time_s: f64,
}

/// The one aggregator, for streaming sweeps and [`aggregate`] alike: feed
/// it each [`JobResult`] as it is emitted (dropping the result afterwards)
/// and [`StreamingAgg::finish`] groups cells in first-appearance order,
/// with nearest-rank percentiles over each cell's observations in arrival
/// order. Memory is `O(groups × seeds)` observations instead of `O(jobs)`
/// full results (a `JobResult` carries strings; an observation is one
/// `f64`).
#[derive(Default)]
pub struct StreamingAgg {
    groups: Vec<GroupAcc>,
}

impl StreamingAgg {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingAgg { groups: Vec::new() }
    }

    /// Folds one job result into its (scenario, algorithm) cell. Feed
    /// results in job order to group cells in plan order.
    pub fn push(&mut self, r: &JobResult) {
        let group = match self
            .groups
            .iter_mut()
            .find(|g| g.scenario == r.scenario && g.algorithm == r.algorithm)
        {
            Some(g) => g,
            None => {
                self.groups.push(GroupAcc {
                    scenario: r.scenario.clone(),
                    generator: r.generator.clone(),
                    algorithm: r.algorithm.clone(),
                    n: r.n,
                    makespan: Vec::new(),
                    max_energy: Vec::new(),
                    total_energy: Vec::new(),
                    looks: Vec::new(),
                    peak_mem_bytes: Vec::new(),
                    all_awake: true,
                    wall_time_s: 0.0,
                });
                self.groups.last_mut().expect("just pushed")
            }
        };
        group.makespan.push(r.makespan);
        group.max_energy.push(r.max_energy);
        group.total_energy.push(r.total_energy);
        group.looks.push(r.looks as f64);
        group.peak_mem_bytes.push(r.peak_mem_bytes);
        group.all_awake &= r.all_awake;
        group.wall_time_s += r.wall_time_s;
    }

    /// Number of job results pushed so far.
    pub fn job_count(&self) -> usize {
        self.groups.iter().map(|g| g.makespan.len()).sum()
    }

    /// Computes the per-cell statistics, in first-appearance order.
    pub fn finish(self) -> Vec<Aggregate> {
        self.groups
            .into_iter()
            .map(|g| Aggregate {
                seeds: g.makespan.len(),
                makespan: Stats::compute(&g.makespan),
                max_energy: Stats::compute(&g.max_energy),
                total_energy: Stats::compute(&g.total_energy),
                looks: Stats::compute(&g.looks),
                peak_mem_bytes: Stats::compute(&g.peak_mem_bytes),
                scenario: g.scenario,
                generator: g.generator,
                algorithm: g.algorithm,
                n: g.n,
                all_awake: g.all_awake,
                wall_time_s: g.wall_time_s,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(scenario: &str, algorithm: &str, makespan: f64) -> JobResult {
        JobResult {
            job: 0,
            scenario: scenario.to_string(),
            generator: "g".to_string(),
            algorithm: algorithm.to_string(),
            seed: 0,
            seed_index: 0,
            n: 5,
            ell: 1.0,
            rho: 2.0,
            xi_ell: None,
            makespan,
            completion_time: makespan,
            max_energy: makespan / 2.0,
            total_energy: makespan * 2.0,
            looks: 10,
            all_awake: true,
            peak_mem_bytes: 1024.0,
            wall_time_s: 0.5,
        }
    }

    #[test]
    fn stats_nearest_rank() {
        let s = Stats::compute(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0);
        let one = Stats::compute(&[7.0]);
        assert_eq!(one.p50, 7.0);
        assert_eq!(one.p95, 7.0);
    }

    #[test]
    fn stats_skip_unmeasured_observations() {
        let s = Stats::compute(&[f64::NAN, 2.0, 4.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 4.0);
        let unmeasured = Stats::compute(&[f64::NAN, f64::NAN]);
        assert!(unmeasured.mean.is_nan());
        assert!(unmeasured.p95.is_nan());
    }

    #[test]
    fn streaming_agg_folds_interleaved_cells_and_skips_unmeasured_values() {
        let mut results = vec![
            job("a", "AGrid", 10.0),
            job("a", "AGrid", 20.0),
            job("a", "AWave", 5.0),
            job("b", "AGrid", 1.0),
            job("b", "AGrid", 3.0),
            job("a", "AGrid", 30.0),
        ];
        results[3].max_energy = f64::NAN;
        results[3].all_awake = false;
        let mut streaming = StreamingAgg::new();
        for r in &results {
            streaming.push(r);
        }
        assert_eq!(streaming.job_count(), results.len());
        let aggs = streaming.finish();
        assert_eq!(aggs.len(), 3);
        // A cell's late member joins its first-appearance group.
        assert_eq!((aggs[0].scenario.as_str(), aggs[0].seeds), ("a", 3));
        assert_eq!(aggs[0].makespan, Stats::compute(&[10.0, 20.0, 30.0]));
        // The unmeasured energy is skipped, not averaged in as NaN.
        assert_eq!(aggs[2].max_energy, Stats::compute(&[1.5]));
        assert!(!aggs[2].all_awake);
        assert!(aggs[0].all_awake);
        assert_eq!(aggs[0].wall_time_s, 1.5);
    }

    #[test]
    fn aggregate_groups_in_first_appearance_order() {
        let results = vec![
            job("a", "AGrid", 10.0),
            job("a", "AGrid", 20.0),
            job("a", "AWave", 5.0),
            job("b", "AGrid", 1.0),
        ];
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 3);
        assert_eq!(aggs[0].scenario, "a");
        assert_eq!(aggs[0].algorithm, "AGrid");
        assert_eq!(aggs[0].seeds, 2);
        assert_eq!(aggs[0].makespan.mean, 15.0);
        assert_eq!(aggs[0].wall_time_s, 1.0);
        assert_eq!(aggs[1].algorithm, "AWave");
        assert_eq!(aggs[2].scenario, "b");
        assert!(aggs.iter().all(|a| a.all_awake));
    }
}
