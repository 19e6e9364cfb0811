//! The traced run's instruments: an in-memory span log, pass-through
//! wrappers that count and time the sensing ([`WorldView`]) and recording
//! ([`Recorder`]) layers, and the traced job paths that call each crate's
//! public functions in the order the engine's runner does.
//!
//! The wrappers forward every trait method — in particular
//! [`WorldView::pure_sensing`] and [`WorldView::look_batch_into`], without
//! which `AGrid` would silently fall back to its interleaved path — so a
//! traced job takes the same path and produces the same schedule as the
//! engine's job; the traced run checks that against the engine's record.

use freezetag_central::{
    anytime_wake_tree, median_wake_tree, quadtree_wake_tree, AnytimeConfig, AnytimeReport,
};
use freezetag_core::{
    a_grid, a_separator_in, a_wave_in, AGridConfig, ASeparatorConfig, AWaveConfig, AlgScratch,
    Algorithm,
};
use freezetag_exp::{AlgSpec, Profile, ScenarioSpec};
use freezetag_geometry::Point;
use freezetag_instances::registry;
use freezetag_instances::{AdmissibleTuple, Instance};
use freezetag_sim::{
    validate, validate_compressed, CancelToken, CompressedRecorder, ConcreteWorld, FullRecorder,
    ParPool, Recorder, RobotId, Sighting, SimError, StatsRecorder, ValidationOptions, WakeEvent,
    WorldView,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One span: a timed interval at a layer boundary. Spans that summarise
/// many short calls (sensing, recording) carry the summed busy time and
/// the call count instead of one interval per call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`job`, `instances.build`, `alg.grid`, `sensing`, …).
    pub name: String,
    /// The job this span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// For summary spans: summed busy time of the calls.
    pub busy: Option<f64>,
    /// For summary spans: number of calls.
    pub calls: Option<u64>,
}

/// An in-memory span log, written out once at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, job: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            job,
            parent,
            start,
            end: start,
            busy: None,
            calls: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        Duration::from_secs_f64(end - span.start)
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(name, job, parent);
        let out = f();
        (out, self.end(id))
    }

    /// Adds a summary child span of `parent` for `calls` calls that were
    /// busy for `busy` in total.
    pub fn summary(&mut self, name: &str, job: u64, parent: usize, busy: Duration, calls: u64) {
        let (start, end) = (self.spans[parent].start, self.spans[parent].end);
        self.spans.push(Span {
            name: name.to_string(),
            job,
            parent: Some(parent),
            start,
            end,
            busy: Some(busy.as_secs_f64()),
            calls: Some(calls),
        });
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_s\":{},\"end_s\":{}",
                s.name,
                s.job,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start,
                s.end
            );
            if let (Some(busy), Some(calls)) = (s.busy, s.calls) {
                let _ = write!(out, ",\"busy_s\":{busy},\"calls\":{calls}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

/// Times a sample of the calls through it: every `every`-th call is
/// timed, every call is counted, and [`Meter::busy`] scales the sampled
/// time up to all calls after removing the clock's own cost. Timing every
/// call of a layer that is called 10⁷ times would mostly measure the
/// clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Meter {
    /// Calls made.
    pub calls: u64,
    timed: u64,
    sampled: Duration,
}

impl Meter {
    #[inline]
    fn run<T>(&mut self, every: u64, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !self.calls.is_multiple_of(every) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.sampled += t.elapsed();
        self.timed += 1;
        out
    }

    /// Estimated total time inside the calls.
    pub fn busy(&self) -> Duration {
        if self.timed == 0 {
            return Duration::ZERO;
        }
        let net = (self.sampled.as_secs_f64() - self.timed as f64 * clock_cost()).max(0.0);
        Duration::from_secs_f64(net * self.calls as f64 / self.timed as f64)
    }
}

/// The cost of one empty `Instant::now()` … `elapsed()` interval, in
/// seconds (median of a few hundred, measured once).
fn clock_cost() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut samples: Vec<f64> = (0..501)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    })
}

/// Single looks timed per sampled call (batches are always timed).
const LOOK_SAMPLE: u64 = 8;
/// Recorder writes timed per sampled call.
const RECORD_SAMPLE: u64 = 16;

/// Counters of the sensing layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SensingCounters {
    /// Snapshots resolved (single looks plus every query of a batch).
    pub looks: u64,
    /// Snapshots that saw no sleeping robot.
    pub empty: u64,
    /// `look_into` calls.
    pub single: Meter,
    /// `look_batch_into` calls.
    pub batch: Meter,
}

impl SensingCounters {
    /// Estimated time inside the world's sensing calls.
    pub fn busy(&self) -> Duration {
        self.single.busy() + self.batch.busy()
    }
}

/// A [`WorldView`] that forwards to `inner` and times/counts sensing.
pub struct TracedWorld<W> {
    /// The wrapped world.
    pub inner: W,
    /// Sensing counters so far.
    pub counters: SensingCounters,
}

impl<W: WorldView> WorldView for TracedWorld<W> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn source_pos(&self) -> Point {
        self.inner.source_pos()
    }

    fn look_into(&mut self, from: Point, time: f64, out: &mut Vec<Sighting>) {
        let inner = &mut self.inner;
        self.counters
            .single
            .run(LOOK_SAMPLE, || inner.look_into(from, time, out));
        self.counters.looks += 1;
        self.counters.empty += u64::from(out.is_empty());
    }

    fn pure_sensing(&self) -> bool {
        self.inner.pure_sensing()
    }

    fn look_batch_into(
        &mut self,
        queries: &[(Point, f64)],
        pool: &ParPool,
        out: &mut Vec<Sighting>,
        counts: &mut Vec<u32>,
    ) {
        let inner = &mut self.inner;
        self.counters
            .batch
            .run(1, || inner.look_batch_into(queries, pool, out, counts));
        self.counters.looks += queries.len() as u64;
        self.counters.empty += counts.iter().filter(|&&c| c == 0).count() as u64;
    }

    fn wake(&mut self, target: RobotId, time: f64) -> Result<(), SimError> {
        self.inner.wake(target, time)
    }

    fn is_awake(&self, target: RobotId) -> bool {
        self.inner.is_awake(target)
    }

    fn wake_time(&self, target: RobotId) -> Option<f64> {
        self.inner.wake_time(target)
    }

    fn position(&self, target: RobotId) -> Option<Point> {
        self.inner.position(target)
    }

    fn all_awake(&self) -> bool {
        self.inner.all_awake()
    }

    fn asleep_count(&self) -> usize {
        self.inner.asleep_count()
    }

    fn look_count(&self) -> usize {
        self.inner.look_count()
    }
}

/// Counters of the recording layer (writes only; reads are not timed).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordCounters {
    /// `move_to` calls.
    pub moves: u64,
    /// `record_wake` calls.
    pub wakes: u64,
    /// Every write call (activate, move, reserve, wait, wake).
    pub writes: Meter,
}

/// A [`Recorder`] that forwards to `inner` and times/counts its writes.
pub struct TracedRecorder<R> {
    /// The wrapped recorder.
    pub inner: R,
    /// Recording counters so far.
    pub counters: RecordCounters,
}

impl<R: Recorder> TracedRecorder<R> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut R) -> T) -> T {
        let inner = &mut self.inner;
        self.counters.writes.run(RECORD_SAMPLE, || f(inner))
    }
}

impl<R: Recorder> Recorder for TracedRecorder<R> {
    fn with_capacity(n: usize) -> Self {
        TracedRecorder {
            inner: R::with_capacity(n),
            counters: RecordCounters::default(),
        }
    }

    fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        self.timed(|r| r.activate(robot, time, pos));
    }

    fn is_active(&self, robot: RobotId) -> bool {
        self.inner.is_active(robot)
    }

    fn current_time(&self, robot: RobotId) -> Option<f64> {
        self.inner.current_time(robot)
    }

    fn current_pos(&self, robot: RobotId) -> Option<Point> {
        self.inner.current_pos(robot)
    }

    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        self.counters.moves += 1;
        self.timed(|r| r.move_to(robot, dest))
    }

    fn reserve_moves(&mut self, robot: RobotId, extra: usize) {
        self.timed(|r| r.reserve_moves(robot, extra));
    }

    fn wait_until(&mut self, robot: RobotId, t: f64) {
        self.timed(|r| r.wait_until(robot, t));
    }

    fn record_wake(&mut self, event: WakeEvent) {
        self.counters.wakes += 1;
        self.timed(|r| r.record_wake(event));
    }

    fn wake_count(&self) -> usize {
        self.inner.wake_count()
    }

    fn for_each_wake_from(&self, start: usize, f: &mut dyn FnMut(&WakeEvent)) {
        self.inner.for_each_wake_from(start, f);
    }

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        self.inner.wake_time(robot)
    }

    fn travel(&self, robot: RobotId) -> Option<f64> {
        self.inner.travel(robot)
    }

    fn active_count(&self) -> usize {
        self.inner.active_count()
    }

    fn makespan(&self) -> f64 {
        self.inner.makespan()
    }

    fn completion_time(&self) -> f64 {
        self.inner.completion_time()
    }

    fn max_energy(&self) -> f64 {
        self.inner.max_energy()
    }

    fn total_energy(&self) -> f64 {
        self.inner.total_energy()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// Per-layer figures of one traced distributed job, plus the numbers the
/// fidelity check compares with the engine's record of the same job.
#[derive(Debug, Clone, Default)]
pub struct TracedJob {
    /// The algorithm's label (`AGrid`, `AWave`, `ASeparator`).
    pub algorithm: String,
    /// Input-tuple pass (the exact `ℓ*`/`ρ*` computation, or the scale
    /// families' radius scan).
    pub tuple: Duration,
    /// Sensing counters of the run.
    pub sensing: SensingCounters,
    /// Recording counters of the run.
    pub record: RecordCounters,
    /// The algorithm span's duration (sensing and recording included).
    pub alg: Duration,
    /// Validator time (0 under the stats profile).
    pub validate: Duration,
    /// Whole traced job, build to validation.
    pub total: Duration,
    /// Looks as the world counted them.
    pub looks: usize,
    /// Makespan (validator's, or the recorder's under stats).
    pub makespan: f64,
    /// Recorder footprint as the engine reports it in `peak_mem_bytes`.
    pub peak_mem_bytes: usize,
    /// Encoded schedule bytes per move (compressed profile), else the
    /// recorder footprint per move.
    pub bytes_per_move: f64,
    /// Whether every robot ended awake.
    pub all_awake: bool,
}

/// The input tuple exactly as the engine's runner derives it: the scale
/// families' declared `ℓ` with `ρ` from a pooled radius scan, otherwise
/// the instance's exact canonical tuple.
fn tuple_for(
    spec: &ScenarioSpec,
    inst: &Instance,
    pool: &ParPool,
) -> Result<AdmissibleTuple, String> {
    match registry::preset_ell(&spec.generator, &spec.params) {
        Some(ell) => {
            let src = inst.source();
            let rho_star = pool.max_f64(
                inst.positions(),
                freezetag_sim::par::POINT_BATCH,
                0.0,
                |p| p.dist(src),
            );
            AdmissibleTuple::rounded(ell, rho_star, inst.n())
        }
        None => Ok(inst.admissible_tuple()),
    }
}

type Traced<R> = (TracedWorld<ConcreteWorld>, TracedRecorder<R>);

/// Runs the algorithm on the wrapped world/recorder inside an `alg.*`
/// span and adds the sensing/recording summary spans under it.
#[allow(clippy::too_many_arguments)]
fn simulate<R: Recorder>(
    tracer: &mut Tracer,
    job: u64,
    parent: usize,
    world: ConcreteWorld,
    tuple: &AdmissibleTuple,
    alg: AlgSpec,
    pool: ParPool,
    scratch: &mut AlgScratch,
) -> Result<(Traced<R>, Duration), String> {
    let AlgSpec::Distributed {
        algorithm,
        strategy,
    } = alg
    else {
        return Err(format!("{} is not a distributed algorithm", alg.label()));
    };
    let n = world.n();
    let world = TracedWorld {
        inner: world,
        counters: SensingCounters::default(),
    };
    let mut sim = freezetag_sim::Sim::with_recorder(world, TracedRecorder::<R>::with_capacity(n))
        .with_pool(pool);
    let name = match algorithm {
        Algorithm::Grid => "alg.grid",
        Algorithm::Wave => "alg.wave",
        Algorithm::Separator => "alg.separator",
    };
    let span = tracer.begin(name, job, Some(parent));
    match algorithm {
        Algorithm::Separator => a_separator_in(
            &mut sim,
            &ASeparatorConfig {
                tuple: *tuple,
                strategy: strategy.unwrap_or_default(),
            },
            scratch,
        ),
        Algorithm::Grid => a_grid(&mut sim, &AGridConfig { ell: tuple.ell }),
        Algorithm::Wave => a_wave_in(&mut sim, &AWaveConfig { ell: tuple.ell }, scratch),
    }
    let alg_time = tracer.end(span);
    let (world, rec, _) = sim.into_recorder_parts();
    tracer.summary(
        "sensing",
        job,
        span,
        world.counters.busy(),
        world.counters.looks,
    );
    tracer.summary(
        "record",
        job,
        span,
        rec.counters.writes.busy(),
        rec.counters.writes.calls,
    );
    Ok(((world, rec), alg_time))
}

/// Runs one distributed job through the crates' public functions with
/// every layer instrumented, mirroring the engine runner's path for
/// `profile` (compressed: streaming validation; full: flat validation and
/// ξ_ℓ; stats: neither).
///
/// # Errors
///
/// Registry, tuple, or validation failures, as text.
#[allow(clippy::too_many_arguments)]
pub fn traced_job(
    tracer: &mut Tracer,
    job: u64,
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    profile: Profile,
    sim_threads: usize,
    scratch: &mut AlgScratch,
) -> Result<TracedJob, String> {
    let root = tracer.begin("job", job, None);
    let pool = ParPool::new(sim_threads.max(1));
    let (inst, _) = tracer.time("instances.build", job, Some(root), || {
        registry::build_instance(&spec.generator, &spec.params, seed)
    });
    let inst = inst.map_err(|e| e.to_string())?;
    let (tuple, tuple_time) =
        tracer.time("tuple", job, Some(root), || tuple_for(spec, &inst, &pool));
    let tuple = tuple?;
    let (world, _) = tracer.time("world.build", job, Some(root), || {
        ConcreteWorld::with_pool(&inst, &pool)
    });
    let opts = ValidationOptions::default();
    let mut out = TracedJob {
        algorithm: alg.label(),
        tuple: tuple_time,
        ..TracedJob::default()
    };
    match profile {
        Profile::Compressed => {
            let ((w, rec), alg_time) = simulate::<CompressedRecorder>(
                tracer, job, root, world, &tuple, alg, pool, scratch,
            )?;
            let (vr, validate_time) = tracer.time("validate", job, Some(root), || {
                validate_compressed(&rec.inner, inst.source(), inst.positions(), &opts)
            });
            let vr = vr.map_err(|e| e.to_string())?;
            out.makespan = vr.makespan;
            out.validate = validate_time;
            out.peak_mem_bytes = rec.memory_bytes();
            out.bytes_per_move = rec.inner.bytes_per_move();
            out.finish(&w, &rec, alg_time);
        }
        Profile::Stats => {
            let ((w, rec), alg_time) =
                simulate::<StatsRecorder>(tracer, job, root, world, &tuple, alg, pool, scratch)?;
            out.makespan = rec.makespan();
            out.peak_mem_bytes = rec.memory_bytes();
            out.bytes_per_move = rec.memory_bytes() as f64 / rec.counters.moves.max(1) as f64;
            out.finish(&w, &rec, alg_time);
        }
        Profile::Full => {
            let ((w, rec), alg_time) =
                simulate::<FullRecorder>(tracer, job, root, world, &tuple, alg, pool, scratch)?;
            let schedule = rec.inner.schedule();
            let (vr, validate_time) = tracer.time("validate", job, Some(root), || {
                validate(schedule, inst.source(), inst.positions(), &opts)
            });
            let vr = vr.map_err(|e| e.to_string())?;
            // The engine measures ξ_ℓ on every full-profile job; do the
            // same work so traced and untraced jobs stay comparable.
            tracer.time("xi_ell", job, Some(root), || {
                freezetag_graph::eccentricity(&inst.all_points(), 0, tuple.ell)
            });
            out.makespan = vr.makespan;
            out.validate = validate_time;
            out.peak_mem_bytes = schedule.memory_bytes();
            out.bytes_per_move = schedule.memory_bytes() as f64 / rec.counters.moves.max(1) as f64;
            out.finish(&w, &rec, alg_time);
        }
    }
    out.total = tracer.end(root);
    Ok(out)
}

impl TracedJob {
    fn finish<R: Recorder>(
        &mut self,
        world: &TracedWorld<ConcreteWorld>,
        rec: &TracedRecorder<R>,
        alg: Duration,
    ) {
        self.sensing = world.counters;
        self.record = rec.counters;
        self.alg = alg;
        self.looks = world.inner.look_count();
        self.all_awake = world.inner.all_awake();
    }

    /// The algorithm's own time: its span minus sensing and recording.
    pub fn alg_self(&self) -> Duration {
        self.alg
            .saturating_sub(self.sensing.busy())
            .saturating_sub(self.record.writes.busy())
    }
}

/// Per-layer figures of one traced `central-anytime` job.
#[derive(Debug, Clone)]
pub struct TracedCentral {
    /// Time to build the median and quadtree constructive trees — the
    /// optimizer's starting points and the `anytime_ratio` baselines.
    pub init: Duration,
    /// `anytime_wake_tree` time.
    pub search: Duration,
    /// The exact input-tuple pass the engine runs for the record's `ℓ`/`ρ`.
    pub tuple: Duration,
    /// Whole traced job.
    pub total: Duration,
    /// The optimizer's report.
    pub report: AnytimeReport,
}

/// Runs one `central-anytime` job through the `central` crate's public
/// functions: the instance, the canonical tuple (the engine computes it
/// for every central job), the constructive baselines and the anytime
/// search with its default fixed-iteration budget.
///
/// # Errors
///
/// Registry failures, as text.
pub fn traced_anytime(
    tracer: &mut Tracer,
    job: u64,
    spec: &ScenarioSpec,
    seed: u64,
    sim_threads: usize,
) -> Result<TracedCentral, String> {
    let root = tracer.begin("job", job, None);
    let (inst, _) = tracer.time("instances.build", job, Some(root), || {
        registry::build_instance(&spec.generator, &spec.params, seed)
    });
    let inst = inst.map_err(|e| e.to_string())?;
    let items = anytime_items(&inst);
    let (_, init) = tracer.time("central.init", job, Some(root), || {
        black_box((
            median_wake_tree(inst.source(), &items),
            quadtree_wake_tree(inst.source(), &items),
        ))
    });
    let (report, search) = tracer.time("central.search", job, Some(root), || {
        anytime_wake_tree(
            inst.source(),
            &items,
            &AnytimeConfig::default(),
            seed,
            &ParPool::new(sim_threads.max(1)),
            &CancelToken::never(),
        )
    });
    let (_, tuple) = tracer.time("tuple", job, Some(root), || inst.admissible_tuple());
    let total = tracer.end(root);
    Ok(TracedCentral {
        init,
        search,
        tuple,
        total,
        report,
    })
}

/// The `(robot, position)` list the central algorithms take.
pub fn anytime_items(inst: &Instance) -> Vec<(RobotId, Point)> {
    inst.positions()
        .iter()
        .enumerate()
        .map(|(i, &p)| (RobotId::sleeper(i), p))
        .collect()
}
