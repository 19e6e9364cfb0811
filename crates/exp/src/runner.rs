//! Per-job execution: building a world from a [`JobSpec`], dispatching the
//! algorithm under the plan's recorder profile, and measuring the result.
//!
//! This module owns the *single-job* layer: the result types
//! ([`JobResult`], [`SingleRun`], [`StatsRun`], [`CompressedRun`]), the
//! worker-resident `JobContext` and the core-budget split
//! ([`inter_job_workers`]). Multi-job orchestration — worker pools,
//! streaming windows, the result cache, cancellation — lives in the
//! [`Engine`](crate::Engine) facade; the free functions kept here
//! ([`run_single`] and friends, [`run_plan`], [`run_plan_streaming`]) are
//! deprecated shims over it.

use crate::plan::{AlgSpec, ExperimentPlan, JobSpec, Profile, ScenarioSpec};
use crate::ExpError;
use freezetag_central::{anytime_wake_tree, optimal_makespan, AnytimeConfig, WakeStrategy};
use freezetag_core::{
    a_grid, a_separator_in, a_wave_in, AGridConfig, ASeparatorConfig, AWaveConfig, AlgScratch,
    Algorithm, RunReport,
};
use freezetag_geometry::Point;
use freezetag_instances::registry::{self, Built};
use freezetag_instances::{AdmissibleTuple, Instance};
use freezetag_sim::{
    validate, validate_compressed, AdversarialWorld, CancelToken, ConcreteWorld, ParPool, Recorder,
    RobotId, Schedule, Sim, StatsRecorder, ValidationOptions, WorldView,
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

fn single_concrete(
    scenario: &str,
    spec: &ScenarioSpec,
    inst: Instance,
    algorithm: Algorithm,
    strategy: Option<WakeStrategy>,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<SingleRun, ExpError> {
    let tuple = tuple_for(spec, &inst, &pool)?;
    let mut sim = Sim::new(ConcreteWorld::with_pool(&inst, &pool))
        .with_pool(pool)
        .with_cancel(ctx.cancel.clone());
    dispatch(&mut sim, &tuple, algorithm, strategy, &mut ctx.scratch)?;
    let looks = sim.world().look_count();
    let (_, schedule, trace) = sim.into_parts();
    let label = AlgSpec::Distributed {
        algorithm,
        strategy,
    }
    .label();
    let vr = validate(
        &schedule,
        inst.source(),
        inst.positions(),
        &ValidationOptions::default(),
    )
    .map_err(|e| ExpError::validation(scenario, &label, e))?;
    let report = RunReport {
        algorithm,
        makespan: vr.makespan,
        completion_time: vr.completion_time,
        max_energy: vr.max_energy,
        total_energy: vr.total_energy,
        wake_count: vr.wake_count,
        all_awake: vr.robots_awake == inst.n() + 1,
        looks,
        trace,
    };
    // ξ_ℓ is evaluated at the rounded ℓ of the tuple — whichever branch of
    // tuple_for produced it. For ordinary scenarios the radius/threshold
    // pass is already paid inside admissible_tuple(); for the preset-ℓ
    // scale families this Dijkstra is the first (and only) graph pass of
    // the run.
    let xi_ell = freezetag_graph::eccentricity(&inst.all_points(), 0, tuple.ell);
    Ok(SingleRun {
        source: inst.source(),
        n: inst.n(),
        positions: inst.positions().to_vec(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell,
        report,
        schedule,
    })
}

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
    let all_awake = sim.world().all_awake();
    let looks = sim.world().look_count();
    let finals = sim.world().final_positions();
    let (_, schedule, trace) = sim.into_parts();
    let label = AlgSpec::Distributed {
        algorithm,
        strategy,
    }
    .label();
    let report = match &finals {
        // All robots pinned: the revealed positions support the full
        // independent schedule validation, exactly like a concrete run.
        Some(positions) => {
            let opts = ValidationOptions {
                require_all_awake: false,
                ..Default::default()
            };
            let vr = validate(&schedule, Point::ORIGIN, positions, &opts)
                .map_err(|e| ExpError::validation(scenario, &label, e))?;
            RunReport {
                algorithm,
                makespan: vr.makespan,
                completion_time: vr.completion_time,
                max_energy: vr.max_energy,
                total_energy: vr.total_energy,
                wake_count: vr.wake_count,
                all_awake,
                looks,
                trace,
            }
        }
        // Adversary still hiding robots: report schedule-level statistics.
        None => RunReport {
            algorithm,
            makespan: schedule.makespan(),
            completion_time: schedule.completion_time(),
            max_energy: schedule.max_energy(),
            total_energy: schedule.total_energy(),
            wake_count: schedule.wakes().len(),
            all_awake,
            looks,
            trace,
        },
    };
    Ok(SingleRun {
        source: Point::ORIGIN,
        n: tuple.n,
        positions: finals.unwrap_or_default(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell: None,
        report,
        schedule,
    })
}

/// The full-profile single-run core shared by the [`Engine`](crate::Engine)
/// facade and the deprecated [`run_single`] shims.
pub(crate) fn single_full(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<SingleRun, ExpError> {
    let AlgSpec::Distributed {
        algorithm,
        strategy,
    } = alg
    else {
        return Err(ExpError::Unsupported(format!(
            "run_single needs a distributed algorithm, got {}",
            alg.label()
        )));
    };
    match registry::build(&spec.generator, &spec.params, seed)? {
        Built::Concrete(inst) => {
            single_concrete(&spec.name, spec, inst, algorithm, strategy, pool, ctx)
        }
        Built::Adversarial(layout) => {
            single_adversarial(&spec.name, layout, algorithm, strategy, pool, ctx)
        }
    }
}

/// Runs one scenario × algorithm × seed combination to completion and
/// returns the full run — schedule, phase trace, positions — for harnesses
/// (figures, SVG rendering) that need more than aggregate numbers.
///
/// # Errors
///
/// Registry errors, validation failures, or an [`ExpError::Unsupported`]
/// combination (centralized baselines have no schedule, so only
/// [`AlgSpec::Distributed`] is accepted here).
#[deprecated(note = "use Engine::new(EngineConfig::default()).single(...)")]
pub fn run_single(spec: &ScenarioSpec, alg: AlgSpec, seed: u64) -> Result<SingleRun, ExpError> {
    single_full(
        spec,
        alg,
        seed,
        ParPool::sequential(),
        &mut JobContext::new(CancelToken::never()),
    )
}

/// [`run_single`] with an explicit [`ParPool`] for deterministic intra-run
/// parallelism — the `--sim-threads` execution path. The returned run is
/// bit-identical for any pool width.
///
/// # Errors
///
/// As [`run_single`].
#[deprecated(note = "use Engine::single with EngineConfig::sim_threads")]
pub fn run_single_with(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
) -> Result<SingleRun, ExpError> {
    single_full(
        spec,
        alg,
        seed,
        pool,
        &mut JobContext::new(CancelToken::never()),
    )
}

/// The aggregate-only measurements of one constant-memory run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsRun {
    /// Number of sleeping robots.
    pub n: usize,
    /// Connectivity parameter ℓ handed to the algorithm.
    pub ell: f64,
    /// Radius bound ρ handed to the algorithm.
    pub rho: f64,
    /// Time the last robot was woken.
    pub makespan: f64,
    /// Time the last robot stopped moving.
    pub completion_time: f64,
    /// Worst per-robot travel.
    pub max_energy: f64,
    /// Total travel of the swarm.
    pub total_energy: f64,
    /// `look` snapshots taken.
    pub looks: usize,
    /// Whether every robot ended awake.
    pub all_awake: bool,
    /// Recorder heap footprint (deterministic estimate, bytes).
    pub peak_mem_bytes: usize,
}

/// Runs one scenario × algorithm × seed combination under the constant-
/// memory [`freezetag_sim::StatsRecorder`]: no schedule is kept, no
/// validation runs, no ξ_ℓ is measured — only the aggregate numbers, which
/// match a full-profile run bit-for-bit. This is the execution path behind
/// `--profile stats` and the only tractable one at 10⁵–10⁶ robots.
///
/// # Errors
///
/// Registry errors, or [`ExpError::Unsupported`] for non-distributed
/// algorithms and adversarial scenarios (those require full schedules).
#[deprecated(note = "use Engine::new(EngineConfig::default()).single_stats(...)")]
pub fn run_single_stats(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
) -> Result<StatsRun, ExpError> {
    single_stats(
        spec,
        alg,
        seed,
        ParPool::sequential(),
        &mut JobContext::new(CancelToken::never()),
    )
}

/// [`run_single_stats`] with an explicit [`ParPool`] for deterministic
/// intra-run parallelism — the `--profile stats --sim-threads` execution
/// path that turns one 10⁶-robot job from one-core-bound into
/// hardware-bound. Aggregates (including `peak_mem_bytes`) are
/// bit-identical for any pool width.
///
/// # Errors
///
/// As [`run_single_stats`].
#[deprecated(note = "use Engine::single_stats with EngineConfig::sim_threads")]
pub fn run_single_stats_with(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
) -> Result<StatsRun, ExpError> {
    single_stats(
        spec,
        alg,
        seed,
        pool,
        &mut JobContext::new(CancelToken::never()),
    )
}

/// The stats-profile single-run core: constant-memory recorder, recycled
/// from the worker-resident [`JobContext`] when one is banked there.
pub(crate) fn single_stats(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<StatsRun, ExpError> {
    let AlgSpec::Distributed {
        algorithm,
        strategy,
    } = alg
    else {
        return Err(ExpError::Unsupported(format!(
            "run_single_stats needs a distributed algorithm, got {}",
            alg.label()
        )));
    };
    let inst = registry::build_instance(&spec.generator, &spec.params, seed)
        .map_err(|e| ExpError::Registry(format!("scenario '{}': {e}", spec.name)))?;
    let tuple = tuple_for(spec, &inst, &pool)?;
    let world = ConcreteWorld::with_pool(&inst, &pool);
    let n = inst.n();
    drop(inst); // the world owns its own flat copy; free the Vec<Point>
    let recorder = match ctx.stats_recorder.take() {
        Some(mut r) => {
            r.recycle(n);
            r
        }
        None => StatsRecorder::with_capacity(n),
    };
    let mut sim = Sim::with_recorder(world, recorder)
        .with_pool(pool)
        .with_cancel(ctx.cancel.clone());
    dispatch(&mut sim, &tuple, algorithm, strategy, &mut ctx.scratch)?;
    let looks = sim.world().look_count();
    let all_awake = sim.world().all_awake();
    let (_, rec, _) = sim.into_recorder_parts();
    let out = StatsRun {
        n: tuple.n,
        ell: tuple.ell,
        rho: tuple.rho,
        makespan: rec.makespan(),
        completion_time: rec.completion_time(),
        max_energy: rec.max_energy(),
        total_energy: rec.total_energy(),
        looks,
        all_awake,
        peak_mem_bytes: rec.memory_bytes(),
    };
    // Bank the recorder for the worker's next stats job.
    ctx.stats_recorder = Some(rec);
    Ok(out)
}

/// The measurements of one compressed-recorder run: the aggregate numbers
/// of a [`StatsRun`] plus the codec's own footprint figures. Unlike the
/// stats path, every compressed run has passed the streaming validator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressedRun {
    /// Number of sleeping robots.
    pub n: usize,
    /// Connectivity parameter ℓ handed to the algorithm.
    pub ell: f64,
    /// Radius bound ρ handed to the algorithm.
    pub rho: f64,
    /// Time the last robot was woken.
    pub makespan: f64,
    /// Time the last robot stopped moving.
    pub completion_time: f64,
    /// Worst per-robot travel.
    pub max_energy: f64,
    /// Total travel of the swarm.
    pub total_energy: f64,
    /// `look` snapshots taken.
    pub looks: usize,
    /// Whether every robot ended awake.
    pub all_awake: bool,
    /// Recorder heap footprint (deterministic estimate, bytes).
    pub peak_mem_bytes: usize,
    /// Encoded schedule payload alone (segment + wake streams, bytes).
    pub compressed_bytes: usize,
    /// Encoded payload divided by the number of recorded move segments.
    pub bytes_per_move: f64,
}

/// Runs one scenario × algorithm × seed combination under the
/// [`freezetag_sim::CompressedRecorder`]: the full schedule is kept in
/// delta-encoded blocks (~an order of magnitude smaller than the flat
/// segment store) and the run is checked by the streaming validator,
/// block by block — full-fidelity validation at `--profile stats` scale.
/// No ξ_ℓ is measured. The aggregate numbers match a full-profile run
/// bit-for-bit. This is the execution path behind `--profile compressed`.
///
/// # Errors
///
/// Registry errors, validation failures, or [`ExpError::Unsupported`] for
/// non-distributed algorithms and adversarial scenarios (the theorem
/// checks need a materialized [`Schedule`]).
#[deprecated(note = "use Engine::new(EngineConfig::default()).single_compressed(...)")]
pub fn run_single_compressed(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
) -> Result<CompressedRun, ExpError> {
    single_compressed(
        spec,
        alg,
        seed,
        ParPool::sequential(),
        &mut JobContext::new(CancelToken::never()),
    )
}

/// [`run_single_compressed`] with an explicit [`ParPool`] for
/// deterministic intra-run parallelism — the
/// `--profile compressed --sim-threads` execution path. All returned
/// numbers (including `peak_mem_bytes`) are bit-identical for any pool
/// width.
///
/// # Errors
///
/// As [`run_single_compressed`].
#[deprecated(note = "use Engine::single_compressed with EngineConfig::sim_threads")]
pub fn run_single_compressed_with(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
) -> Result<CompressedRun, ExpError> {
    single_compressed(
        spec,
        alg,
        seed,
        pool,
        &mut JobContext::new(CancelToken::never()),
    )
}

/// The compressed-profile single-run core: delta-encoded schedule blocks
/// plus streaming validation.
pub(crate) fn single_compressed(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<CompressedRun, ExpError> {
    let AlgSpec::Distributed {
        algorithm,
        strategy,
    } = alg
    else {
        return Err(ExpError::Unsupported(format!(
            "run_single_compressed needs a distributed algorithm, got {}",
            alg.label()
        )));
    };
    let inst = registry::build_instance(&spec.generator, &spec.params, seed)
        .map_err(|e| ExpError::Registry(format!("scenario '{}': {e}", spec.name)))?;
    let tuple = tuple_for(spec, &inst, &pool)?;
    // The instance stays alive (unlike the stats path): the streaming
    // validator needs the initial positions to check wake sites.
    let world = ConcreteWorld::with_pool(&inst, &pool);
    let mut sim = Sim::with_compressed(world)
        .with_pool(pool)
        .with_cancel(ctx.cancel.clone());
    dispatch(&mut sim, &tuple, algorithm, strategy, &mut ctx.scratch)?;
    let looks = sim.world().look_count();
    let all_awake = sim.world().all_awake();
    let (_, rec, _) = sim.into_recorder_parts();
    let label = AlgSpec::Distributed {
        algorithm,
        strategy,
    }
    .label();
    let vr = validate_compressed(
        &rec,
        inst.source(),
        inst.positions(),
        &ValidationOptions::default(),
    )
    .map_err(|e| ExpError::validation(&spec.name, &label, e))?;
    Ok(CompressedRun {
        n: tuple.n,
        ell: tuple.ell,
        rho: tuple.rho,
        makespan: vr.makespan,
        completion_time: vr.completion_time,
        max_energy: vr.max_energy,
        total_energy: vr.total_energy,
        looks,
        all_awake,
        peak_mem_bytes: rec.memory_bytes(),
        compressed_bytes: rec.compressed_bytes(),
        bytes_per_move: rec.bytes_per_move(),
    })
}

fn central_job(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: &ParPool,
    cancel: &CancelToken,
) -> Result<(usize, f64, f64, f64, f64), ExpError> {
    let inst = registry::build_instance(&spec.generator, &spec.params, seed)?;
    let items: Vec<(RobotId, Point)> = inst
        .positions()
        .iter()
        .enumerate()
        .map(|(i, &p)| (RobotId::sleeper(i), p))
        .collect();
    let (makespan, total) = match alg {
        AlgSpec::Central(strategy) => {
            let tree = strategy.build(inst.source(), &items);
            (tree.makespan(), tree.total_length())
        }
        AlgSpec::CentralAnytime => {
            // Default (fixed-iteration) budget: the result is a pure
            // function of (instance, seed) at any pool width — required
            // by the Engine's thread-count-free cache key. The job seed
            // drives the search streams, so repetitions explore
            // independently while staying paired on the instance.
            let report = anytime_wake_tree(
                inst.source(),
                &items,
                &AnytimeConfig::default(),
                seed,
                pool,
                cancel,
            );
            (report.tree.makespan(), report.tree.total_length())
        }
        AlgSpec::CentralOptimal => {
            if inst.n() > 10 {
                return Err(ExpError::Unsupported(format!(
                    "central[optimal] is branch-and-bound; n={} > 10 on scenario '{}'",
                    inst.n(),
                    spec.name
                )));
            }
            let m = optimal_makespan(inst.source(), inst.positions());
            (m, f64::NAN)
        }
        AlgSpec::Distributed { .. } => unreachable!("routed to run_single"),
    };
    let tuple = tuple_for(spec, &inst, pool)?;
    Ok((inst.n(), tuple.ell, tuple.rho, makespan, total))
}

/// Executes one job of a plan inside a worker-resident [`JobContext`] —
/// the single execution path behind the [`Engine`](crate::Engine) workers
/// and (through a throwaway context) the deprecated shims.
pub(crate) fn execute_job_ctx(
    plan: &ExperimentPlan,
    job: &JobSpec,
    ctx: &mut JobContext,
) -> Result<JobResult, ExpError> {
    let spec = &plan.scenarios[job.scenario];
    let pool = ParPool::new(plan.sim_threads.max(1));
    let generator = registry::lookup(&spec.generator)
        .map(|g| g.name.to_string())
        .unwrap_or_else(|| spec.generator.clone());
    let started = Instant::now();
    let result = match job.algorithm {
        AlgSpec::Distributed { .. } if plan.profile == Profile::Compressed => {
            let run = single_compressed(spec, job.algorithm, job.seed, pool, ctx)?;
            JobResult {
                job: job.index,
                scenario: spec.name.clone(),
                generator,
                algorithm: job.algorithm.label(),
                seed: job.seed,
                seed_index: job.seed_index,
                n: run.n,
                ell: run.ell,
                rho: run.rho,
                xi_ell: None,
                makespan: run.makespan,
                completion_time: run.completion_time,
                max_energy: run.max_energy,
                total_energy: run.total_energy,
                looks: run.looks,
                all_awake: run.all_awake,
                peak_mem_bytes: run.peak_mem_bytes as f64,
                wall_time_s: 0.0,
            }
        }
        AlgSpec::Distributed { .. } if plan.profile == Profile::Stats => {
            let run = single_stats(spec, job.algorithm, job.seed, pool, ctx)?;
            JobResult {
                job: job.index,
                scenario: spec.name.clone(),
                generator,
                algorithm: job.algorithm.label(),
                seed: job.seed,
                seed_index: job.seed_index,
                n: run.n,
                ell: run.ell,
                rho: run.rho,
                xi_ell: None,
                makespan: run.makespan,
                completion_time: run.completion_time,
                max_energy: run.max_energy,
                total_energy: run.total_energy,
                looks: run.looks,
                all_awake: run.all_awake,
                peak_mem_bytes: run.peak_mem_bytes as f64,
                wall_time_s: 0.0,
            }
        }
        AlgSpec::Distributed { .. } => {
            let run = single_full(spec, job.algorithm, job.seed, pool, ctx)?;
            JobResult {
                job: job.index,
                scenario: spec.name.clone(),
                generator,
                algorithm: job.algorithm.label(),
                seed: job.seed,
                seed_index: job.seed_index,
                n: run.n,
                ell: run.ell,
                rho: run.rho,
                xi_ell: run.xi_ell,
                makespan: run.report.makespan,
                completion_time: run.report.completion_time,
                max_energy: run.report.max_energy,
                total_energy: run.report.total_energy,
                looks: run.report.looks,
                all_awake: run.report.all_awake,
                peak_mem_bytes: run.schedule.memory_bytes() as f64,
                wall_time_s: 0.0,
            }
        }
        AlgSpec::Central(_) | AlgSpec::CentralAnytime | AlgSpec::CentralOptimal => {
            let (n, ell, rho, makespan, total_energy) =
                central_job(spec, job.algorithm, job.seed, &pool, &ctx.cancel)?;
            JobResult {
                job: job.index,
                scenario: spec.name.clone(),
                generator,
                algorithm: job.algorithm.label(),
                seed: job.seed,
                seed_index: job.seed_index,
                n,
                ell,
                rho,
                xi_ell: None,
                makespan,
                completion_time: makespan,
                // A wake tree's makespan is a multi-robot critical path,
                // not any single robot's travel — per-robot energy is
                // simply not measured by the centralized baselines.
                max_energy: f64::NAN,
                total_energy,
                looks: 0,
                all_awake: true,
                peak_mem_bytes: f64::NAN,
                wall_time_s: 0.0,
            }
        }
    };
    Ok(JobResult {
        wall_time_s: started.elapsed().as_secs_f64(),
        ..result
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

/// Executes the plan's full cross-product on a worker pool and returns
/// the results in job order. `threads` is the total core budget, split
/// between inter-job workers and each job's `sim_threads`-wide intra-job
/// pool by [`inter_job_workers`]. All result fields except `wall_time_s`
/// are independent of both thread axes.
///
/// # Errors
///
/// Plan validation errors before anything runs. A failing job makes
/// workers stop picking up further jobs (in-flight jobs finish), and the
/// lowest-indexed recorded failure is returned.
#[deprecated(note = "use Engine::with_threads(threads).run(plan)")]
pub fn run_plan(plan: &ExperimentPlan, threads: usize) -> Result<Vec<JobResult>, ExpError> {
    crate::engine::Engine::with_threads(threads).run(plan)
}

/// [`run_plan`] without the `O(jobs)` result vector: every [`JobResult`]
/// is handed to `on_result` in strict job order as soon as it (and every
/// lower-indexed job) has finished, then dropped. Workers run ahead of
/// the in-order emission point by at most a bounded reorder window, so
/// peak memory is `O(workers)` results regardless of plan size — the
/// execution path behind `dftp sweep --out FILE`, where each record goes
/// straight to disk.
///
/// Everything `on_result` observes is byte-identical (bar `wall_time_s`)
/// to the corresponding entry of [`run_plan`]'s result vector, for any
/// thread count.
///
/// # Errors
///
/// Plan validation errors before anything runs. A failing job makes
/// workers stop picking up further jobs (in-flight jobs finish), and the
/// lowest-indexed failure is returned; results preceding it have already
/// been emitted by then — callers streaming to a file should treat an
/// `Err` as truncating the output.
#[deprecated(note = "use Engine::with_threads(threads).run_streaming(plan, on_result)")]
pub fn run_plan_streaming(
    plan: &ExperimentPlan,
    threads: usize,
    on_result: impl FnMut(&JobResult),
) -> Result<(), ExpError> {
    crate::engine::Engine::with_threads(threads).run_streaming(plan, on_result)
}

// The shims above are this module's public contract with pre-Engine
// callers, so the tests exercise the deprecated surface on purpose —
// pinning that every shim still produces the Engine's exact output.
#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::plan::ScenarioSpec;

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::new("tiny")
            .scenario(
                ScenarioSpec::new("disk")
                    .with("n", 12.0)
                    .with("radius", 4.0),
            )
            .algorithm(Algorithm::Grid)
            .algorithm(Algorithm::Wave)
            .seeds(2)
            .plan_seed(7)
    }

    #[test]
    fn run_plan_reports_in_job_order_and_wakes_everyone() {
        let results = run_plan(&tiny_plan(), 2).expect("plan runs");
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.job, i);
            assert!(r.all_awake, "job {i} left robots asleep");
            assert_eq!(r.n, 12);
            assert!(r.makespan > 0.0);
            assert!(r.xi_ell.is_some());
        }
        assert_eq!(results[0].algorithm, "AGrid");
        assert_eq!(results[2].algorithm, "AWave");
    }

    #[test]
    fn results_are_identical_for_any_thread_count() {
        let plan = tiny_plan();
        let a = run_plan(&plan, 1).unwrap();
        let b = run_plan(&plan, 4).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let mut y = y.clone();
            y.wall_time_s = x.wall_time_s;
            assert_eq!(*x, y, "job {} differs across thread counts", x.job);
        }
    }

    #[test]
    fn results_are_identical_for_any_sim_thread_count() {
        let base = tiny_plan();
        let a = run_plan(&base, 1).unwrap();
        for sim_threads in [2, 4] {
            let b = run_plan(&base.clone().sim_threads(sim_threads), 2).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                let mut y = y.clone();
                y.wall_time_s = x.wall_time_s;
                assert_eq!(*x, y, "job {} differs at sim_threads={sim_threads}", x.job);
            }
        }
    }

    #[test]
    fn compressed_profile_matches_full_profile_bitwise() {
        let full = run_plan(&tiny_plan(), 2).unwrap();
        let compressed = run_plan(&tiny_plan().profile(Profile::Compressed), 2).unwrap();
        assert_eq!(full.len(), compressed.len());
        for (f, c) in full.iter().zip(&compressed) {
            assert_eq!(f.makespan.to_bits(), c.makespan.to_bits(), "job {}", f.job);
            assert_eq!(f.completion_time.to_bits(), c.completion_time.to_bits());
            assert_eq!(f.max_energy.to_bits(), c.max_energy.to_bits());
            assert_eq!(f.total_energy.to_bits(), c.total_energy.to_bits());
            assert_eq!(f.looks, c.looks);
            assert!(c.all_awake);
            assert_eq!(c.xi_ell, None, "compressed profile skips ξ_ℓ");
            assert!(
                c.peak_mem_bytes < f.peak_mem_bytes,
                "compressed recorder ({}) must undercut the flat store ({})",
                c.peak_mem_bytes,
                f.peak_mem_bytes
            );
        }
    }

    #[test]
    fn compressed_single_run_reports_codec_figures() {
        let spec = ScenarioSpec::new("disk")
            .with("n", 30.0)
            .with("radius", 6.0);
        let run = run_single_compressed(&spec, Algorithm::Wave.into(), 5).unwrap();
        assert!(run.all_awake);
        assert!(run.compressed_bytes > 0);
        assert!(run.compressed_bytes < run.peak_mem_bytes);
        assert!(
            run.bytes_per_move.is_finite() && run.bytes_per_move > 0.0,
            "bytes/move {}",
            run.bytes_per_move
        );
        let err = run_single_compressed(&spec, AlgSpec::CentralOptimal, 5).unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
    }

    #[test]
    fn streaming_runner_emits_run_plan_results_in_order() {
        let plan = tiny_plan().profile(Profile::Compressed);
        let buffered = run_plan(&plan, 2).unwrap();
        for threads in [1, 4] {
            let mut streamed = Vec::new();
            run_plan_streaming(&plan, threads, |r| streamed.push(r.clone())).unwrap();
            assert_eq!(streamed.len(), buffered.len());
            for (s, b) in streamed.iter().zip(&buffered) {
                let mut s = s.clone();
                s.wall_time_s = b.wall_time_s;
                assert_eq!(s, *b, "job {} differs at threads={threads}", b.job);
            }
        }
    }

    #[test]
    fn streaming_runner_surfaces_the_lowest_indexed_failure() {
        // Same failing plan as the buffered abort test: central[optimal]
        // refuses n > 10. Everything before the first failing job index
        // must still have been emitted, in order.
        let plan = ExperimentPlan::new("abort-stream")
            .scenario(
                ScenarioSpec::new("disk")
                    .with("n", 50.0)
                    .with("radius", 8.0),
            )
            .algorithm(Algorithm::Grid)
            .algorithm(AlgSpec::CentralOptimal)
            .seeds(2);
        let mut streamed = Vec::new();
        let err = run_plan_streaming(&plan, 2, |r| streamed.push(r.job)).unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
        assert_eq!(streamed, vec![0, 1], "AGrid jobs precede the failure");
    }

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
    fn strategy_override_runs_and_mismatches_error() {
        let spec = ScenarioSpec::new("disk")
            .with("n", 15.0)
            .with("radius", 5.0);
        let run = run_single(&spec, AlgSpec::separator_with(WakeStrategy::Chain), 3).unwrap();
        assert!(run.report.all_awake);
        let err = run_single(
            &spec,
            AlgSpec::Distributed {
                algorithm: Algorithm::Grid,
                strategy: Some(WakeStrategy::Chain),
            },
            3,
        )
        .unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)));
    }

    #[test]
    fn central_baselines_and_optimal_run_through_the_engine() {
        let plan = ExperimentPlan::new("central")
            .scenario(ScenarioSpec::new("disk").with("n", 6.0).with("radius", 4.0))
            .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
            .algorithm(AlgSpec::Central(WakeStrategy::Greedy))
            .algorithm(AlgSpec::CentralOptimal);
        let results = run_plan(&plan, 2).unwrap();
        assert_eq!(results.len(), 3);
        let opt = results[2].makespan;
        assert!(opt > 0.0);
        assert!(results[0].makespan >= opt - 1e-9, "quadtree beats optimal?");
        assert!(results[1].makespan >= opt - 1e-9, "greedy beats optimal?");
    }

    #[test]
    fn central_and_distributed_jobs_report_one_scale_family_tuple() {
        // A scale family declares ℓ: the central baseline must report the
        // tuple its paired distributed run was handed, not the exact ℓ*.
        let spec = ScenarioSpec::new("uniform_1m")
            .with("n", 300.0)
            .with("radius", 10.0);
        let plan = ExperimentPlan::new("paired")
            .scenario(spec.clone())
            .algorithm(Algorithm::Grid)
            .algorithm(AlgSpec::Central(WakeStrategy::Greedy));
        let results = run_plan(&plan, 1).unwrap();
        assert_eq!(results.len(), 2);
        let (grid, central) = (&results[0], &results[1]);
        assert_eq!(grid.ell, 4.0, "the family's declared ℓ");
        assert_eq!(central.ell.to_bits(), grid.ell.to_bits());
        assert_eq!(central.rho.to_bits(), grid.rho.to_bits());
        let inst = registry::build_instance(&spec.generator, &spec.params, grid.seed).unwrap();
        assert_ne!(
            inst.admissible_tuple().ell,
            grid.ell,
            "the exact ℓ* must differ, or this test pins nothing"
        );
    }

    #[test]
    fn central_results_aggregate_and_emit_without_panicking() {
        // Regression: central jobs leave per-robot energy (and, for the
        // exact optimum, total energy) unmeasured as NaN — aggregation
        // must skip them and the JSON emitters must render null.
        let plan = ExperimentPlan::new("central-agg")
            .scenario(ScenarioSpec::new("disk").with("n", 6.0).with("radius", 4.0))
            .algorithm(AlgSpec::CentralOptimal)
            .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
            .seeds(2);
        let results = run_plan(&plan, 2).expect("plan runs");
        let aggregates = crate::agg::aggregate(&results);
        assert_eq!(aggregates.len(), 2);
        assert!(aggregates[0].max_energy.mean.is_nan());
        let json = crate::emit::aggregates_to_json(&plan, &aggregates);
        assert!(
            json.contains("\"max_energy\":{\"mean\":null"),
            "unmeasured energy must emit null: {json}"
        );
        let csv = crate::emit::jobs_to_csv(&results);
        assert!(!csv.contains("NaN"), "NaN leaked into CSV: {csv}");
    }

    #[test]
    fn failing_job_aborts_the_plan_with_its_error() {
        // central[optimal] refuses n > 10; the error must surface instead
        // of the runner running (or hanging on) the remaining jobs.
        let plan = ExperimentPlan::new("abort")
            .scenario(
                ScenarioSpec::new("disk")
                    .with("n", 50.0)
                    .with("radius", 8.0),
            )
            .algorithm(AlgSpec::CentralOptimal)
            .algorithm(Algorithm::Grid)
            .seeds(4);
        let err = run_plan(&plan, 2).unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
    }

    #[test]
    fn adversarial_scenario_runs_separator_through_the_engine() {
        let plan = ExperimentPlan::new("adv")
            .scenario(
                ScenarioSpec::new("theorem2")
                    .with("ell", 2.0)
                    .with("rho", 8.0)
                    .with("n", 40.0),
            )
            .algorithm(Algorithm::Separator);
        let results = run_plan(&plan, 1).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].all_awake, "adversarial robots must all wake");
        assert!(results[0].looks > 0);
        assert_eq!(results[0].xi_ell, None);
    }
}
