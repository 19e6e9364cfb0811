//! Per-job execution: building a world from a [`JobSpec`], dispatching the
//! algorithm under a recorder profile, and measuring the result.
//!
//! This module owns the *single-job* layer: the result types
//! ([`JobResult`], [`SingleRun`]), the worker-resident `JobContext` and
//! the core-budget split ([`inter_job_workers`]). Every distributed job on
//! a concrete instance takes one path, whatever its [`Profile`]: registry
//! instance, `tuple_for`, `ConcreteWorld`, `Sim`, dispatch. The profile
//! supplies only its recorder and its finishing step (see `Recording`).
//! Multi-job orchestration — worker pools, streaming windows, the result
//! cache, cancellation — lives in the [`Engine`](crate::Engine) facade.

use crate::plan::{AlgSpec, ExperimentPlan, JobSpec, Profile, ScenarioSpec};
use crate::ExpError;
use freezetag_central::{
    anytime_wake_tree, optimal_makespan, AnytimeConfig, AnytimeReport, WakeStrategy, WakeTree,
};
use freezetag_core::{
    a_grid, a_separator_in, a_wave_in, AGridConfig, ASeparatorConfig, AWaveConfig, AlgScratch,
    Algorithm, RunReport,
};
use freezetag_geometry::Point;
use freezetag_instances::registry::{self, Built};
use freezetag_instances::{AdmissibleTuple, Instance};
use freezetag_sim::par::PAR_VALIDATE_MIN;
use freezetag_sim::{
    validate, validate_with_pool, AdversarialWorld, CancelToken, CompressedRecorder, ConcreteWorld,
    FullRecorder, ParPool, RecordedRun, Recorder, RobotId, Schedule, Sim, SimError, StatsRecorder,
    ValidationOptions, ValidationReport, WorldView,
};
use std::time::Instant;

/// Worker-resident per-job state: everything a resident worker thread
/// reuses across jobs instead of reallocating — the algorithms'
/// [`AlgScratch`] (knowledge store + spatial index, epoch-cleared between
/// jobs) and the stats recorder's per-robot buffers (recycled in place).
/// The cancellation token is shared by every job the worker runs.
///
/// Reuse is unobservable in results (pinned by the determinism suites);
/// state left dirty by a cancelled job heals itself: the scratch resets on
/// next use and a recorder lost to an unwind is simply rebuilt.
pub(crate) struct JobContext {
    pub(crate) cancel: CancelToken,
    pub(crate) scratch: AlgScratch,
    pub(crate) stats_recorder: Option<StatsRecorder>,
}

impl JobContext {
    pub(crate) fn new(cancel: CancelToken) -> Self {
        JobContext {
            cancel,
            scratch: AlgScratch::new(),
            stats_recorder: None,
        }
    }
}

/// Everything measured on one job of a plan. Every field except
/// [`JobResult::wall_time_s`] is a deterministic function of
/// `(plan, job index)` — the wall time is the only thing a machine or
/// thread count may change.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job index in the plan's cross-product.
    pub job: usize,
    /// Scenario display name.
    pub scenario: String,
    /// Canonical generator name.
    pub generator: String,
    /// Algorithm label ([`AlgSpec::label`]).
    pub algorithm: String,
    /// Derived generator seed.
    pub seed: u64,
    /// Repetition number within the cell.
    pub seed_index: usize,
    /// Number of sleeping robots.
    pub n: usize,
    /// Connectivity parameter ℓ handed to the algorithm.
    pub ell: f64,
    /// Radius bound ρ handed to the algorithm.
    pub rho: f64,
    /// Measured eccentricity ξ_ℓ (concrete instances only).
    pub xi_ell: Option<f64>,
    /// Time the last robot was woken.
    pub makespan: f64,
    /// Time the last robot stopped moving.
    pub completion_time: f64,
    /// Worst per-robot travel. `NaN` for the centralized baselines, which
    /// do not measure per-robot energy (emitted as JSON `null`/empty CSV
    /// and skipped by aggregation).
    pub max_energy: f64,
    /// Total travel of the swarm (`NaN` for `central[optimal]`).
    pub total_energy: f64,
    /// `look` snapshots taken (0 for centralized baselines).
    pub looks: usize,
    /// Whether every robot ended awake.
    pub all_awake: bool,
    /// Recorder high-water heap footprint in bytes — a deterministic
    /// estimate counting recorded lengths, not allocator capacity, so it is
    /// identical for any thread count. `NaN` for the centralized baselines
    /// (no simulation recorder; emitted as JSON `null`/empty CSV).
    pub peak_mem_bytes: f64,
    /// Wall-clock seconds this job took (non-deterministic).
    pub wall_time_s: f64,
}

/// One fully materialized run, for harnesses that need more than the
/// [`JobResult`] numbers: the schedule (wake times, timelines), the phase
/// trace (inside [`RunReport`]), and the robot positions for rendering.
#[derive(Debug, Clone)]
pub struct SingleRun {
    /// Source position.
    pub source: Point,
    /// Number of sleeping robots in the world (authoritative even when
    /// `positions` is empty because an adversary kept robots hidden).
    pub n: usize,
    /// Robot positions — initial for concrete scenarios, final (pinned)
    /// for adversarial ones (empty if not all were pinned).
    pub positions: Vec<Point>,
    /// Connectivity parameter ℓ of the run.
    pub ell: f64,
    /// Radius bound ρ of the run.
    pub rho: f64,
    /// Measured eccentricity ξ_ℓ (concrete instances only).
    pub xi_ell: Option<f64>,
    /// Validated measurements plus the phase trace.
    pub report: RunReport,
    /// The full schedule the run produced.
    pub schedule: Schedule,
}

/// The tuple a job reports and (for the distributed algorithms) hands to
/// its algorithm: the scale families take their declared `ℓ` — the
/// paper's input convention, pinning one schedule per family member —
/// with `ρ` from an `O(n)` radius scan; every other scenario computes its
/// exact canonical tuple. Central and distributed jobs share this one
/// rule, so paired records report the same `ℓ` and `ρ`.
///
/// # Errors
///
/// [`ExpError::InvalidPlan`] when a declared `ℓ` rounds to an inadmissible
/// tuple for the built instance (e.g. a shrunken scale family whose radius
/// exceeds `nℓ`) — a clean sweep error instead of a worker panic.
fn tuple_for(
    spec: &ScenarioSpec,
    inst: &Instance,
    pool: &ParPool,
) -> Result<AdmissibleTuple, ExpError> {
    match registry::preset_ell(&spec.generator, &spec.params) {
        Some(ell) => {
            let src = inst.source();
            // O(n) radius scan, batched on the pool: f64::max is exactly
            // associative, so the reduction is bit-identical to the
            // sequential fold.
            let rho_star = pool.max_f64(
                inst.positions(),
                freezetag_sim::par::POINT_BATCH,
                0.0,
                |p| p.dist(src),
            );
            AdmissibleTuple::rounded(ell, rho_star, inst.n())
                .map_err(|e| ExpError::InvalidPlan(format!("scenario '{}': {e}", spec.name)))
        }
        None => Ok(inst.admissible_tuple()),
    }
}

fn dispatch<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    tuple: &AdmissibleTuple,
    algorithm: Algorithm,
    strategy: Option<WakeStrategy>,
    scratch: &mut AlgScratch,
) -> Result<(), ExpError> {
    match (algorithm, strategy) {
        (Algorithm::Separator, s) => a_separator_in(
            sim,
            &ASeparatorConfig {
                tuple: *tuple,
                strategy: s.unwrap_or_default(),
            },
            scratch,
        ),
        (_, Some(_)) => {
            return Err(ExpError::Unsupported(format!(
                "wake-strategy overrides only apply to ASeparator, not {algorithm}"
            )))
        }
        (Algorithm::Grid, None) => a_grid(sim, &AGridConfig { ell: tuple.ell }),
        (Algorithm::Wave, None) => a_wave_in(sim, &AWaveConfig { ell: tuple.ell }, scratch),
    }
    Ok(())
}

/// What a recorder profile plugs into the one distributed-job path: its
/// recorder and its finishing step.
trait Recording: Recorder + Sized {
    /// The recorder for a run over `n` sleeping robots.
    fn start(n: usize, ctx: &mut JobContext) -> Self;

    /// The finishing step: the run's measured numbers and ξ_ℓ (evaluated
    /// at `ell`, the tuple's rounded ℓ), after whatever validation the
    /// profile performs on the job's `pool`.
    fn finish(
        &self,
        inst: &Instance,
        ell: f64,
        pool: &ParPool,
    ) -> Result<(ValidationReport, Option<f64>), SimError>;

    /// Hands the recorder back to the worker once the job is measured.
    fn bank(self, _: &mut JobContext) {}
}

/// `full`: the flat schedule, checked by [`validate`], plus ξ_ℓ.
impl Recording for FullRecorder {
    fn start(n: usize, _: &mut JobContext) -> Self {
        FullRecorder::with_capacity(n)
    }

    fn finish(
        &self,
        inst: &Instance,
        ell: f64,
        pool: &ParPool,
    ) -> Result<(ValidationReport, Option<f64>), SimError> {
        let report = validate_on_job_pool(self.schedule(), inst, pool)?;
        // For ordinary scenarios the radius/threshold pass is already paid
        // inside tuple_for; for the preset-ℓ scale families this Dijkstra
        // is the first (and only) graph pass of the run.
        let xi_ell = freezetag_graph::eccentricity(&inst.all_points(), 0, ell);
        Ok((report, xi_ell))
    }
}

/// `stats`: constant-memory aggregates, no validation, no ξ_ℓ. The
/// recorder's buffers are recycled through the worker's [`JobContext`].
impl Recording for StatsRecorder {
    fn start(n: usize, ctx: &mut JobContext) -> Self {
        match ctx.stats_recorder.take() {
            Some(mut r) => {
                r.recycle(n);
                r
            }
            None => StatsRecorder::with_capacity(n),
        }
    }

    fn finish(
        &self,
        _: &Instance,
        _: f64,
        _: &ParPool,
    ) -> Result<(ValidationReport, Option<f64>), SimError> {
        Ok((unvalidated(self), None))
    }

    fn bank(self, ctx: &mut JobContext) {
        ctx.stats_recorder = Some(self);
    }
}

/// `compressed`: delta-encoded event streams, checked by [`validate`]
/// one decoded segment at a time; no ξ_ℓ.
impl Recording for CompressedRecorder {
    fn start(n: usize, _: &mut JobContext) -> Self {
        CompressedRecorder::with_capacity(n)
    }

    fn finish(
        &self,
        inst: &Instance,
        _: f64,
        pool: &ParPool,
    ) -> Result<(ValidationReport, Option<f64>), SimError> {
        Ok((validate_on_job_pool(self, inst, pool)?, None))
    }
}

/// [`validate`] against `inst` under the default options, on the job's
/// pool once the run has [`PAR_VALIDATE_MIN`] robots (the report and the
/// first error do not depend on the pool width).
fn validate_on_job_pool<R: RecordedRun>(
    run: &R,
    inst: &Instance,
    pool: &ParPool,
) -> Result<ValidationReport, SimError> {
    let pool = if inst.n() < PAR_VALIDATE_MIN {
        ParPool::sequential()
    } else {
        *pool
    };
    validate_with_pool(
        run,
        inst.source(),
        inst.positions(),
        &ValidationOptions::default(),
        &pool,
    )
}

/// A recorder's own aggregates in the shape of a validation report, for
/// runs that are not validated.
fn unvalidated(rec: &impl Recorder) -> ValidationReport {
    ValidationReport {
        makespan: rec.makespan(),
        completion_time: rec.completion_time(),
        max_energy: rec.max_energy(),
        total_energy: rec.total_energy(),
        robots_awake: rec.active_count(),
        wake_count: rec.wake_count(),
    }
}

fn label(algorithm: Algorithm, strategy: Option<WakeStrategy>) -> String {
    AlgSpec::Distributed {
        algorithm,
        strategy,
    }
    .label()
}

/// A finished distributed run on a concrete instance.
struct ConcreteRun<R> {
    inst: Instance,
    tuple: AdmissibleTuple,
    xi_ell: Option<f64>,
    report: RunReport,
    recorder: R,
}

/// The one distributed-job path: instance → [`tuple_for`] →
/// `ConcreteWorld` → `Sim` over the profile's recorder → dispatch → the
/// profile's finishing step.
fn run_concrete<R: Recording>(
    spec: &ScenarioSpec,
    inst: Instance,
    algorithm: Algorithm,
    strategy: Option<WakeStrategy>,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<ConcreteRun<R>, ExpError> {
    let tuple = tuple_for(spec, &inst, &pool)?;
    let recorder = R::start(inst.n(), ctx);
    let mut sim = Sim::with_recorder(ConcreteWorld::with_pool(&inst, &pool), recorder)
        .with_pool(pool)
        .with_cancel(ctx.cancel.clone());
    dispatch(&mut sim, &tuple, algorithm, strategy, &mut ctx.scratch)?;
    let looks = sim.world().look_count();
    let (_, recorder, trace) = sim.into_recorder_parts();
    let (vr, xi_ell) = recorder
        .finish(&inst, tuple.ell, &pool)
        .map_err(|e| ExpError::validation(&spec.name, &label(algorithm, strategy), e))?;
    Ok(ConcreteRun {
        report: RunReport::from_parts(algorithm, vr, looks, inst.n(), trace),
        inst,
        tuple,
        xi_ell,
        recorder,
    })
}

/// The adversarial counterpart of [`run_concrete`], full profile only:
/// the adversary decides positions as the run goes, so validation uses
/// whatever it pinned by the end.
fn single_adversarial(
    scenario: &str,
    layout: freezetag_instances::adversarial::AdversarialLayout,
    algorithm: Algorithm,
    strategy: Option<WakeStrategy>,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<SingleRun, ExpError> {
    let tuple = AdmissibleTuple::new(layout.ell, layout.rho, layout.n());
    // Adversarial sensing is impure (look history is state), so the pool
    // only accelerates world construction and frontier bucketing here —
    // which keeps the run identical at any `sim_threads`.
    let mut sim = Sim::new(AdversarialWorld::with_pool(layout, &pool))
        .with_pool(pool)
        .with_cancel(ctx.cancel.clone());
    dispatch(&mut sim, &tuple, algorithm, strategy, &mut ctx.scratch)?;
    let looks = sim.world().look_count();
    let finals = sim.world().final_positions();
    let (_, recorder, trace) = sim.into_recorder_parts();
    let vr = match &finals {
        // All robots pinned: the revealed positions support the full
        // independent schedule validation, exactly like a concrete run.
        Some(positions) => {
            let opts = ValidationOptions {
                require_all_awake: false,
                ..Default::default()
            };
            validate(recorder.schedule(), Point::ORIGIN, positions, &opts)
                .map_err(|e| ExpError::validation(scenario, &label(algorithm, strategy), e))?
        }
        // Adversary still hiding robots: report schedule-level statistics.
        None => unvalidated(&recorder),
    };
    Ok(SingleRun {
        source: Point::ORIGIN,
        n: tuple.n,
        positions: finals.unwrap_or_default(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell: None,
        report: RunReport::from_parts(algorithm, vr, looks, tuple.n, trace),
        schedule: recorder.into_schedule(),
    })
}

fn build(spec: &ScenarioSpec, seed: u64) -> Result<Built, ExpError> {
    registry::build(&spec.generator, &spec.params, seed)
        .map_err(|e| ExpError::Registry(format!("scenario '{}': {e}", spec.name)))
}

/// The full-profile run behind [`Engine::single`](crate::Engine::single),
/// materialized with its schedule and positions.
pub(crate) fn single(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<SingleRun, ExpError> {
    // The centralized baselines have no schedule.
    let AlgSpec::Distributed {
        algorithm,
        strategy,
    } = alg
    else {
        return Err(ExpError::Unsupported(format!(
            "a single run needs a distributed algorithm, got {}",
            alg.label()
        )));
    };
    match build(spec, seed)? {
        Built::Concrete(inst) => {
            let run = run_concrete::<FullRecorder>(spec, inst, algorithm, strategy, pool, ctx)?;
            Ok(SingleRun {
                source: run.inst.source(),
                n: run.inst.n(),
                positions: run.inst.positions().to_vec(),
                ell: run.tuple.ell,
                rho: run.tuple.rho,
                xi_ell: run.xi_ell,
                report: run.report,
                schedule: run.recorder.into_schedule(),
            })
        }
        Built::Adversarial(layout) => {
            single_adversarial(&spec.name, layout, algorithm, strategy, pool, ctx)
        }
    }
}

/// Runs one job under `profile` and measures it — the single execution
/// path behind the [`Engine`](crate::Engine) workers and
/// [`Engine::single_job`](crate::Engine::single_job). `job.scenario` is
/// not read: `spec` is the scenario.
pub(crate) fn run_job(
    spec: &ScenarioSpec,
    job: &JobSpec,
    profile: Profile,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<JobResult, ExpError> {
    let started = Instant::now();
    let mut result = match job.algorithm {
        AlgSpec::Distributed {
            algorithm,
            strategy,
        } => match (build(spec, job.seed)?, profile) {
            (Built::Concrete(inst), Profile::Full) => {
                concrete_job::<FullRecorder>(spec, job, inst, algorithm, strategy, pool, ctx)?
            }
            (Built::Concrete(inst), Profile::Stats) => {
                concrete_job::<StatsRecorder>(spec, job, inst, algorithm, strategy, pool, ctx)?
            }
            (Built::Concrete(inst), Profile::Compressed) => {
                concrete_job::<CompressedRecorder>(spec, job, inst, algorithm, strategy, pool, ctx)?
            }
            (Built::Adversarial(layout), Profile::Full) => {
                let run = single_adversarial(&spec.name, layout, algorithm, strategy, pool, ctx)?;
                let tuple = AdmissibleTuple {
                    ell: run.ell,
                    rho: run.rho,
                    n: run.n,
                };
                let peak = run.schedule.memory_bytes();
                distributed_result(spec, job, &tuple, None, &run.report, peak)
            }
            (Built::Adversarial(_), profile) => {
                return Err(ExpError::Unsupported(format!(
                    "adversarial scenario '{}' needs the full profile, not {profile}",
                    spec.name
                )))
            }
        },
        AlgSpec::Central(_) | AlgSpec::CentralAnytime | AlgSpec::CentralOptimal => {
            central_job(spec, job, &pool, &ctx.cancel)?
        }
    };
    result.wall_time_s = started.elapsed().as_secs_f64();
    Ok(result)
}

/// Executes job `job` of `plan` inside a worker-resident [`JobContext`].
pub(crate) fn execute_job(
    plan: &ExperimentPlan,
    job: &JobSpec,
    ctx: &mut JobContext,
) -> Result<JobResult, ExpError> {
    let pool = ParPool::new(plan.sim_threads.max(1));
    run_job(&plan.scenarios[job.scenario], job, plan.profile, pool, ctx)
}

fn concrete_job<R: Recording>(
    spec: &ScenarioSpec,
    job: &JobSpec,
    inst: Instance,
    algorithm: Algorithm,
    strategy: Option<WakeStrategy>,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<JobResult, ExpError> {
    let run = run_concrete::<R>(spec, inst, algorithm, strategy, pool, ctx)?;
    let peak = run.recorder.memory_bytes();
    let result = distributed_result(spec, job, &run.tuple, run.xi_ell, &run.report, peak);
    run.recorder.bank(ctx);
    Ok(result)
}

/// The canonical generator name a record reports.
fn generator_name(spec: &ScenarioSpec) -> String {
    registry::lookup(&spec.generator)
        .map(|g| g.name.to_string())
        .unwrap_or_else(|| spec.generator.clone())
}

/// The record of a distributed job, whichever profile recorded it
/// (`wall_time_s` is filled in by [`run_job`]).
fn distributed_result(
    spec: &ScenarioSpec,
    job: &JobSpec,
    tuple: &AdmissibleTuple,
    xi_ell: Option<f64>,
    report: &RunReport,
    peak_mem_bytes: usize,
) -> JobResult {
    JobResult {
        job: job.index,
        scenario: spec.name.clone(),
        generator: generator_name(spec),
        algorithm: job.algorithm.label(),
        seed: job.seed,
        seed_index: job.seed_index,
        n: tuple.n,
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell,
        makespan: report.makespan,
        completion_time: report.completion_time,
        max_energy: report.max_energy,
        total_energy: report.total_energy,
        looks: report.looks,
        all_awake: report.all_awake,
        peak_mem_bytes: peak_mem_bytes as f64,
        wall_time_s: 0.0,
    }
}

/// What a centralized baseline computes on a concrete instance.
#[derive(Debug, Clone)]
pub enum CentralAnswer {
    /// The wake tree of a constructive strategy (`central:STRATEGY`).
    Tree(WakeTree),
    /// The anytime optimizer's report (`central-anytime`).
    Anytime(AnytimeReport),
    /// The exact optimal makespan (`optimal`).
    Optimal(f64),
}

/// The instance of the one centralized-baseline path, behind plan jobs
/// and `dftp solve`: the scenario's instance, which `alg` needs with known
/// positions. [`central_run`] then runs `alg` on it.
///
/// # Errors
///
/// Registry errors, or [`ExpError::Unsupported`] for an adversarial
/// scenario.
pub fn central_instance(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
) -> Result<Instance, ExpError> {
    match build(spec, seed)? {
        Built::Concrete(inst) => Ok(inst),
        Built::Adversarial(_) => Err(ExpError::Unsupported(format!(
            "scenario '{}' is adversarial but {} needs known positions",
            spec.name,
            alg.label()
        ))),
    }
}

/// Runs the centralized baseline `alg` on the known positions of `inst`,
/// the [`central_instance`] of `spec`. `config` reaches `central-anytime`
/// only: plan jobs pass the default, whose fixed iteration budget keeps
/// the answer a pure function of (instance, seed) at any `pool` width, as
/// the Engine's thread-count-free cache key requires. The seed also drives
/// the search streams, so repetitions explore independently while staying
/// paired on the instance.
///
/// # Errors
///
/// [`ExpError::Unsupported`] for `optimal` beyond `n = 10` or a
/// distributed `alg`.
pub fn central_run(
    spec: &ScenarioSpec,
    inst: &Instance,
    alg: AlgSpec,
    seed: u64,
    config: &AnytimeConfig,
    pool: &ParPool,
    cancel: &CancelToken,
) -> Result<CentralAnswer, ExpError> {
    let items: Vec<(RobotId, Point)> = inst
        .positions()
        .iter()
        .enumerate()
        .map(|(i, &p)| (RobotId::sleeper(i), p))
        .collect();
    Ok(match alg {
        AlgSpec::Central(strategy) => CentralAnswer::Tree(strategy.build(inst.source(), &items)),
        AlgSpec::CentralAnytime => CentralAnswer::Anytime(anytime_wake_tree(
            inst.source(),
            &items,
            config,
            seed,
            pool,
            cancel,
        )),
        AlgSpec::CentralOptimal if inst.n() > 10 => {
            return Err(ExpError::Unsupported(format!(
                "central[optimal] is branch-and-bound; n={} > 10 on scenario '{}'",
                inst.n(),
                spec.name
            )))
        }
        AlgSpec::CentralOptimal => {
            CentralAnswer::Optimal(optimal_makespan(inst.source(), inst.positions()))
        }
        AlgSpec::Distributed { .. } => {
            return Err(ExpError::Unsupported(format!(
                "{} is not a centralized baseline",
                alg.label()
            )))
        }
    })
}

/// The record of a centralized baseline job (`wall_time_s` is filled in
/// by [`run_job`]).
fn central_job(
    spec: &ScenarioSpec,
    job: &JobSpec,
    pool: &ParPool,
    cancel: &CancelToken,
) -> Result<JobResult, ExpError> {
    let inst = central_instance(spec, job.algorithm, job.seed)?;
    // Before the search, as distributed jobs do: an inadmissible declared
    // ℓ fails at once.
    let tuple = tuple_for(spec, &inst, pool)?;
    let config = AnytimeConfig::default();
    let answer = central_run(spec, &inst, job.algorithm, job.seed, &config, pool, cancel)?;
    let (makespan, total_energy) = match answer {
        CentralAnswer::Tree(tree) => (tree.makespan(), tree.total_length()),
        CentralAnswer::Anytime(report) => (report.tree.makespan(), report.tree.total_length()),
        CentralAnswer::Optimal(m) => (m, f64::NAN),
    };
    Ok(JobResult {
        job: job.index,
        scenario: spec.name.clone(),
        generator: generator_name(spec),
        algorithm: job.algorithm.label(),
        seed: job.seed,
        seed_index: job.seed_index,
        n: inst.n(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell: None,
        makespan,
        completion_time: makespan,
        // A wake tree's makespan is a multi-robot critical path, not any
        // single robot's travel — per-robot energy is simply not measured
        // by the centralized baselines.
        max_energy: f64::NAN,
        total_energy,
        looks: 0,
        all_awake: true,
        peak_mem_bytes: f64::NAN,
        wall_time_s: 0.0,
    })
}

/// How many inter-job workers a plan gets from a total core budget of
/// `threads`, given its per-job `sim_threads`: the scheduler treats
/// `threads` as the overall budget and divides it (rounding *down*, so
/// the budget is never exceeded by adding workers) between the two axes —
/// `--threads 8 --sim-threads 4` runs 2 jobs at a time on 4 cores each
/// instead of oversubscribing 32 threads onto 8 cores, and
/// `--threads 7 --sim-threads 2` runs 3 workers (6 threads), not 4 (8).
/// Always at least 1 worker and never more than `jobs` — so the one case
/// that exceeds the budget is an explicit `sim_threads > threads`, where
/// the single job still gets its full requested width.
pub fn inter_job_workers(threads: usize, sim_threads: usize, jobs: usize) -> usize {
    let budget = threads.max(1);
    (budget / sim_threads.max(1)).clamp(1, jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_splits_the_core_budget_between_axes() {
        assert_eq!(inter_job_workers(8, 4, 100), 2);
        assert_eq!(inter_job_workers(8, 1, 100), 8);
        assert_eq!(inter_job_workers(4, 8, 100), 1, "intra-job takes it all");
        assert_eq!(inter_job_workers(7, 2, 100), 3, "rounds down: 6 <= 7");
        assert_eq!(inter_job_workers(16, 1, 3), 3, "never exceeds job count");
        assert_eq!(inter_job_workers(0, 0, 0), 1, "degenerate inputs clamp");
    }

    #[test]
    fn central_jobs_check_the_tuple_before_the_search() {
        // ρ* ≈ 10⁷ exceeds n·ℓ = 10³·4: inadmissible before any search.
        let spec = ScenarioSpec::new("uniform_1m")
            .with("n", 1000.0)
            .with("radius", 1e7);
        let job = JobSpec {
            index: 0,
            scenario: 0,
            algorithm: AlgSpec::CentralAnytime,
            seed_index: 0,
            seed: 1,
        };
        // A fired token: a search that started would unwind as cancelled.
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut ctx = JobContext::new(cancel);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(&spec, &job, Profile::Stats, ParPool::new(1), &mut ctx)
        }));
        match out {
            Ok(Err(ExpError::InvalidPlan(msg))) => assert!(msg.contains("uniform_1m"), "{msg}"),
            Ok(other) => panic!("expected InvalidPlan, got {other:?}"),
            Err(_) => panic!("the search ran before the tuple check and was cancelled"),
        }
    }
}
