//! The batch workloads — `grid_validated`, `explore_stats` and
//! `anytime_10k` — driven through [`Engine::submit`] on one resident
//! engine, plus their traced runs.
//!
//! A workload is a *cycle* of plans derived from the seed. A timed run
//! repeats whole cycles until the next one would end past `--seconds`,
//! so every run measures the same job mix. A job that errors or panics
//! is counted as failed and the plan is resubmitted from the next job
//! (`Engine::submit` ends a stream at its first error).

use crate::layers::Layers;
use crate::report::{mean, median, median_time, peak_rss_mb, same_records, thm1_bound, Report};
use crate::trace::{anytime_items, traced_anytime, traced_job, Tracer};
use freezetag_central::{median_wake_tree, quadtree_wake_tree};
use freezetag_core::{AlgScratch, Algorithm};
use freezetag_exp::emit::job_to_jsonl_line;
use freezetag_exp::{
    AlgSpec, Engine, EngineConfig, ExperimentPlan, JobResult, Profile, ScenarioSpec, SubmitOptions,
};
use freezetag_instances::registry;
use freezetag_sim::{ConcreteWorld, ParPool};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Both cores of the reference machine: one engine worker whose jobs run
/// on a two-thread intra-job pool.
const THREADS: usize = 2;

/// A batch workload: the plans of one cycle and how the engine runs them.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Workload name.
    pub name: &'static str,
    /// The plans of one cycle, submitted in order.
    pub cycle: Vec<ExperimentPlan>,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Whether the jobs build a `ConcreteWorld` (the central optimizer
    /// does not).
    pub builds_world: bool,
}

fn plan(
    name: &str,
    scenario: ScenarioSpec,
    alg: AlgSpec,
    seeds: usize,
    seed: u64,
) -> ExperimentPlan {
    ExperimentPlan::new(name)
        .scenario(scenario)
        .algorithm(alg)
        .seeds(seeds)
        .plan_seed(seed)
        .sim_threads(THREADS)
}

fn distributed(algorithm: Algorithm) -> AlgSpec {
    AlgSpec::Distributed {
        algorithm,
        strategy: None,
    }
}

/// `AGrid` on two `uniform_1m`-family instances shrunk to 2.5·10⁵ robots
/// at the family's density (radius 320), validated under the compressed
/// profile.
pub fn grid_validated(seed: u64) -> Batch {
    let scenario = ScenarioSpec::parse("uniform_1m:n=250000:radius=320").expect("static spec");
    Batch {
        name: "grid_validated",
        cycle: vec![plan(
            "grid_validated",
            scenario,
            distributed(Algorithm::Grid),
            2,
            seed,
        )
        .profile(Profile::Compressed)],
        setup_reps: 5,
        builds_world: true,
    }
}

/// `AWave` on `wave_100k` then `ASeparator` on `separator_100k` under the
/// stats profile: `wave_seeds` wave jobs and `separator_seeds` separator
/// jobs, both plans seeded with `plan_seed`.
pub fn explore_mix(plan_seed: u64, wave_seeds: usize, separator_seeds: usize) -> Batch {
    let wave = plan(
        "explore_stats",
        ScenarioSpec::new("wave_100k"),
        distributed(Algorithm::Wave),
        wave_seeds,
        plan_seed,
    )
    .profile(Profile::Stats);
    let separator = plan(
        "explore_stats",
        ScenarioSpec::new("separator_100k"),
        distributed(Algorithm::Separator),
        separator_seeds,
        plan_seed,
    )
    .profile(Profile::Stats);
    Batch {
        name: "explore_stats",
        cycle: vec![wave, separator],
        setup_reps: 5,
        builds_world: true,
    }
}

/// One `AWave` job and seven `ASeparator` jobs, about half the wall
/// clock each.
pub fn explore_stats(seed: u64) -> Batch {
    explore_mix(seed, 1, 7)
}

/// `central-anytime` (default fixed-iteration budget) on twelve
/// `disk:n=10000:radius=100` instances: one cycle fills a run, and the
/// quality ratios average over twelve instances.
pub fn anytime_10k(seed: u64) -> Batch {
    let scenario = ScenarioSpec::parse("disk:n=10000:radius=100").expect("static spec");
    Batch {
        name: "anytime_10k",
        cycle: vec![plan(
            "anytime_10k",
            scenario,
            AlgSpec::CentralAnytime,
            12,
            seed,
        )],
        setup_reps: 15,
        builds_world: false,
    }
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        threads: THREADS,
        sim_threads: THREADS,
        cache_capacity: 0,
    })
}

/// One job's outcome as the engine stream reported it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the plan within the cycle.
    pub plan: usize,
    /// Job index within the plan.
    pub job: usize,
    /// The record, or the error the stream ended with.
    pub result: Result<JobResult, String>,
    /// Time since the previous record (or the submission) arrived.
    pub gap: Duration,
}

/// Runs `plan` to its end through [`Engine::submit`], recording every
/// job's outcome; after a failed job the rest of the plan is resubmitted
/// with [`SubmitOptions::first_job`] so one failure costs one job.
pub fn run_plan(engine: &Engine, index: usize, plan: &ExperimentPlan, out: &mut Vec<Outcome>) {
    let total = plan.job_count();
    let mut next = 0;
    while next < total {
        let opts = SubmitOptions {
            deadline: None,
            first_job: next,
        };
        let mut last = Instant::now();
        let stream = match engine.submit_with(plan, opts) {
            Ok(stream) => stream,
            Err(e) => {
                for job in next..total {
                    out.push(Outcome {
                        plan: index,
                        job,
                        result: Err(e.to_string()),
                        gap: Duration::ZERO,
                    });
                }
                return;
            }
        };
        let start = next;
        for item in stream {
            let gap = last.elapsed();
            last = Instant::now();
            let failed = item.is_err();
            out.push(Outcome {
                plan: index,
                job: next,
                result: item.map_err(|e| e.to_string()),
                gap,
            });
            next += 1;
            if failed {
                break;
            }
        }
        if next == start {
            // A stream that ended without a record or an error cannot be
            // resumed meaningfully; count the rest as failed.
            for job in next..total {
                out.push(Outcome {
                    plan: index,
                    job,
                    result: Err("stream ended early".to_string()),
                    gap: Duration::ZERO,
                });
            }
            return;
        }
    }
}

/// Runs one cycle of `batch` on `engine`.
pub fn run_cycle(engine: &Engine, batch: &Batch) -> Vec<Outcome> {
    let mut out = Vec::new();
    for (i, plan) in batch.cycle.iter().enumerate() {
        run_plan(engine, i, plan, &mut out);
    }
    out
}

/// The distinct instances `plans` run on, as (scenario, seed, pool width).
pub fn distinct_instances(plans: &[ExperimentPlan]) -> Vec<(ScenarioSpec, u64, usize)> {
    let mut out: Vec<(ScenarioSpec, u64, usize)> = Vec::new();
    for plan in plans {
        for job in plan.jobs() {
            let spec = &plan.scenarios[job.scenario];
            if !out
                .iter()
                .any(|(s, seed, _)| s == spec && *seed == job.seed)
            {
                out.push((spec.clone(), job.seed, plan.sim_threads));
            }
        }
    }
    out
}

/// One set-up: an engine plus every distinct instance (and its world).
fn setup_once(batch: &Batch, distinct: &[(ScenarioSpec, u64, usize)]) -> Duration {
    let start = Instant::now();
    let engine = engine();
    let mut built = Vec::with_capacity(distinct.len());
    for (spec, seed, threads) in distinct {
        let inst = registry::build_instance(&spec.generator, &spec.params, *seed)
            .expect("workload instances are valid");
        let world = batch
            .builds_world
            .then(|| ConcreteWorld::with_pool(&inst, &ParPool::new(*threads)));
        built.push((inst, world));
    }
    let elapsed = start.elapsed();
    black_box((&engine, &built));
    elapsed
}

fn is_central(r: &JobResult) -> bool {
    r.algorithm.starts_with("central")
}

/// Checks every completed record and returns the deterministic quality
/// ratios over the first cycle: (`thm1_ratio`, `energy_ell2_ratio`,
/// `anytime_ratio`), the last two NaN where undefined.
fn check_records(report: &mut Report, cycles: &[Vec<Outcome>]) -> (f64, f64, f64) {
    let first = &cycles[0];
    let lines = |cycle: &[Outcome]| -> Vec<String> {
        cycle
            .iter()
            .map(|o| {
                o.result
                    .as_ref()
                    .map_or_else(|_| "failed".to_string(), job_to_jsonl_line)
            })
            .collect()
    };
    let first_lines = lines(first);
    for (c, cycle) in cycles.iter().enumerate() {
        for o in cycle {
            if let Ok(r) = &o.result {
                report.check(r.all_awake, || {
                    format!("job {} of plan {} left robots asleep", o.job, o.plan)
                });
            }
        }
        // Later cycles repeat the first one's jobs: records must agree.
        report.check(same_records(&lines(cycle), &first_lines), || {
            format!("cycle {c} records differ from cycle 0")
        });
    }
    let done: Vec<&JobResult> = first
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    let thm1 = mean(done.iter().map(|r| r.makespan / thm1_bound(r.rho, r.ell)));
    let energy = mean(
        done.iter()
            .filter(|r| !is_central(r))
            .map(|r| r.max_energy / (r.ell * r.ell)),
    );
    let mut anytime = Vec::new();
    for r in done.iter().filter(|r| is_central(r)) {
        let spec = ScenarioSpec::parse(&r.scenario).expect("scenario names are specs");
        let inst = registry::build_instance(&spec.generator, &spec.params, r.seed)
            .expect("workload instances are valid");
        let items = anytime_items(&inst);
        let constructive = median_wake_tree(inst.source(), &items)
            .makespan()
            .min(quadtree_wake_tree(inst.source(), &items).makespan());
        let ratio = r.makespan / constructive;
        report.check(ratio <= 1.0, || {
            format!(
                "anytime makespan {} exceeds constructive {constructive}",
                r.makespan
            )
        });
        anytime.push(ratio);
    }
    (thm1, energy, mean(anytime))
}

fn count_failures(report: &mut Report, outcomes: &[Outcome]) {
    report.attempted += outcomes.len() as u64;
    for o in outcomes {
        if let Err(e) = &o.result {
            report.failed += 1;
            report
                .info
                .push(format!("job {} of plan {} failed: {e}", o.job, o.plan));
        }
    }
}

/// The timed run: set-up, then whole cycles for about `seconds`.
pub fn timed(batch: &Batch, seconds: f64) -> Report {
    let mut report = Report::default();
    let distinct = distinct_instances(&batch.cycle);
    let setup_s = median_time(batch.setup_reps, || setup_once(batch, &distinct));
    let engine = engine();
    let start = Instant::now();
    let mut cycles = Vec::new();
    loop {
        cycles.push(run_cycle(&engine, batch));
        let elapsed = start.elapsed().as_secs_f64();
        // Stop at the cycle boundary nearest to the requested duration.
        if elapsed + 0.5 * elapsed / cycles.len() as f64 >= seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    for cycle in &cycles {
        count_failures(&mut report, cycle);
    }
    let done: Vec<&JobResult> = cycles
        .iter()
        .flatten()
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    report.check(!done.is_empty(), || "no job completed".to_string());
    let robots: usize = done.iter().map(|r| r.n).sum();
    let job_times: Vec<f64> = done.iter().map(|r| r.wall_time_s).collect();
    let (thm1, energy, anytime) = check_records(&mut report, &cycles);
    report.info.push(format!(
        "{} cycles, {} jobs in {wall:.3} s",
        cycles.len(),
        done.len()
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("robots_per_s", robots as f64 / wall, "robots/s");
    report.metric("job_s_p50", median(&job_times), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("thm1_ratio", thm1, "ratio");
    report.note("error_rate", report.error_rate(), "fraction");
    if !energy.is_nan() {
        report.note("energy_ell2_ratio", energy, "ratio");
    }
    if !anytime.is_nan() {
        report.note("anytime_ratio", anytime, "ratio");
    }
    report
}

/// The traced run: one cycle through the engine (untraced), then the same
/// jobs through the instrumented public-function path, compared job by
/// job. Spans go to `trace_path`.
pub fn traced(batch: &Batch, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let distinct = distinct_instances(&batch.cycle);
    layer_setup(batch, &distinct, &mut layers);

    let engine = engine();
    let outcomes = run_cycle(&engine, batch);
    count_failures(&mut report, &outcomes);
    let overheads: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| {
            let r = o.result.as_ref().ok()?;
            Some(o.gap.as_secs_f64() - r.wall_time_s)
        })
        .collect();
    layers.engine_overhead_s = median(&overheads);

    let mut tracer = Tracer::default();
    let mut scratch = AlgScratch::new();
    // Summed job times of the jobs both passes completed.
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    for (id, o) in outcomes.iter().enumerate() {
        let plan = &batch.cycle[o.plan];
        let job = plan.jobs()[o.job];
        let spec = &plan.scenarios[job.scenario];
        let id = id as u64;
        if job.algorithm == AlgSpec::CentralAnytime {
            match traced_anytime(&mut tracer, id, spec, job.seed, plan.sim_threads) {
                Ok(t) => {
                    if let Ok(r) = &o.result {
                        traced_total += t.total.as_secs_f64();
                        untraced_total += r.wall_time_s;
                        let m = t.report.tree.makespan();
                        report.check(m.to_bits() == r.makespan.to_bits(), || {
                            format!("traced job {id}: makespan {m} != engine {}", r.makespan)
                        });
                    }
                    layers.add_central(&t);
                }
                Err(e) => report.problems.push(format!("traced job {id}: {e}")),
            }
            continue;
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            traced_job(
                &mut tracer,
                id,
                spec,
                job.algorithm,
                job.seed,
                plan.profile,
                plan.sim_threads,
                &mut scratch,
            )
        }));
        match (run, &o.result) {
            (Ok(Ok(t)), Ok(r)) => {
                traced_total += t.total.as_secs_f64();
                untraced_total += r.wall_time_s;
                report.check(t.looks == r.looks, || {
                    format!("traced job {id}: {} looks != engine {}", t.looks, r.looks)
                });
                report.check(t.sensing.looks == t.looks as u64, || {
                    format!(
                        "traced job {id}: wrapper saw {} looks, world counted {}",
                        t.sensing.looks, t.looks
                    )
                });
                report.check(t.makespan.to_bits() == r.makespan.to_bits(), || {
                    format!(
                        "traced job {id}: makespan {} != engine {}",
                        t.makespan, r.makespan
                    )
                });
                report.check(t.peak_mem_bytes as f64 == r.peak_mem_bytes, || {
                    format!(
                        "traced job {id}: peak_mem_bytes {} != engine {}",
                        t.peak_mem_bytes, r.peak_mem_bytes
                    )
                });
                report.check(t.all_awake, || {
                    format!("traced job {id} left robots asleep")
                });
                layers.add_job(&t);
            }
            // The engine job failed too: the traced path reproduces it.
            (Ok(Err(_)) | Err(_), Err(_)) => {}
            (Ok(Err(e)), Ok(_)) => report.problems.push(format!("traced job {id}: {e}")),
            (Err(_), Ok(_)) => report.problems.push(format!(
                "traced job {id} panicked but the engine job completed"
            )),
            (Ok(Ok(_)), Err(e)) => report.problems.push(format!(
                "traced job {id} completed but the engine job failed: {e}"
            )),
        }
    }
    layers.trace_overhead_frac = traced_total / untraced_total - 1.0;
    layers.emit(&mut report);
    finish_trace(&mut report, &tracer, trace_path);
    report
}

/// The set-up layer figures: median over repetitions of the summed
/// `registry::build` and `ConcreteWorld::with_pool` times.
fn layer_setup(batch: &Batch, distinct: &[(ScenarioSpec, u64, usize)], layers: &mut Layers) {
    let mut builds = Vec::new();
    let mut worlds = Vec::new();
    for _ in 0..batch.setup_reps {
        let (mut b, mut w) = (Duration::ZERO, Duration::ZERO);
        for (spec, seed, threads) in distinct {
            let t = Instant::now();
            let inst = registry::build_instance(&spec.generator, &spec.params, *seed)
                .expect("workload instances are valid");
            b += t.elapsed();
            if batch.builds_world {
                let t = Instant::now();
                black_box(ConcreteWorld::with_pool(&inst, &ParPool::new(*threads)));
                w += t.elapsed();
            }
        }
        builds.push(b.as_secs_f64());
        worlds.push(w.as_secs_f64());
    }
    layers.instances_build_s = median(&builds);
    layers.world_build_s = median(&worlds);
}

/// Writes the span log and notes where it went.
pub fn finish_trace(report: &mut Report, tracer: &Tracer, path: &Path) {
    match tracer.write_jsonl(path) {
        Ok(()) => report.info.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => report
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}
