//! The [`Engine`] facade: one entry point for every way this workspace
//! executes experiment jobs.
//!
//! * [`Engine::new`] holds the execution configuration (core budget,
//!   intra-run pool width, result-cache capacity) once, instead of
//!   threading `threads`/`ParPool` arguments through every call site;
//! * [`Engine::submit`] runs a whole [`ExperimentPlan`] on a pool of
//!   worker threads and returns a [`JobStream`] — a bounded, in-order,
//!   cancellable iterator of [`JobResult`]s; [`Engine::run`] collects it
//!   into a vector;
//! * [`Engine::single_job`] runs one scenario × algorithm × seed
//!   combination under a given [`Profile`] and returns its record,
//!   through the same code path as a plan's workers; [`Engine::single`]
//!   returns the materialized full-profile run (schedule, phase trace,
//!   positions) for harnesses that need more than a record.
//!
//! Three production concerns live here and nowhere else:
//!
//! **Worker-resident state.** Each worker thread owns a
//! `JobContext` — the algorithms' knowledge store and the stats
//! recorder's buffers — reused across every job the worker executes
//! instead of reallocated per job. Reuse is unobservable in results
//! (pinned by the schedule-identity and thread-matrix suites).
//!
//! **Result cache.** With [`EngineConfig::cache_capacity`] `> 0`, every
//! completed job is remembered under a key derived from the canonical
//! generator name, its parameters (exact `f64` bits), the algorithm
//! label, the profile and the derived seed — everything a result is a
//! deterministic function of, and nothing it isn't (`sim_threads` and
//! worker counts are deliberately excluded; the determinism tests pin
//! that they cannot change a result). A repeated submission is answered
//! from the cache with only the identity fields (job index, scenario
//! display name, repetition) patched, observable through
//! [`Engine::cache_stats`] and the per-stream counters.
//!
//! **Cancellation.** Every stream carries a `CancelToken` shared with the
//! simulators' cooperative checkpoints: [`JobStream::cancel`] (or a
//! [`SubmitOptions::deadline`]) makes in-flight jobs unwind at their next
//! checkpoint and idle workers exit, and the stream ends with a single
//! [`ExpError::Cancelled`]. A worker panic is likewise caught at the job
//! boundary and surfaced as [`ExpError::Internal`], so one bad job cannot
//! take down a resident serving process.

use crate::plan::{AlgSpec, ExperimentPlan, JobSpec, Profile, ScenarioSpec};
use crate::runner::{
    execute_job, inter_job_workers, run_job, single, JobContext, JobResult, SingleRun,
};
use crate::ExpError;
use freezetag_instances::registry;
use freezetag_sim::{CancelToken, Cancelled, ParPool};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Execution configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Total core budget for plan execution, split between inter-job
    /// workers and each job's `sim_threads`-wide intra-job pool by
    /// [`inter_job_workers`].
    pub threads: usize,
    /// Intra-run pool width for the [`Engine::single`] family (plan jobs
    /// use the plan's own [`ExperimentPlan::sim_threads`], which is part
    /// of the plan data). Results are bit-identical for any value.
    pub sim_threads: usize,
    /// Completed jobs remembered by the result cache; `0` (the default)
    /// disables caching. A resident server sets this; one-shot CLI runs
    /// don't need it.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            sim_threads: 1,
            cache_capacity: 0,
        }
    }
}

/// Options for [`Engine::submit_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Wall-clock budget for the whole stream, armed when the submission
    /// starts executing. Past it, the stream cancels itself exactly like
    /// [`JobStream::cancel`].
    pub deadline: Option<Duration>,
    /// First job index to execute; jobs below it are skipped entirely
    /// (they are neither run nor emitted). This is the resume path: a
    /// restarted sweep counts the records already on disk and submits the
    /// rest.
    pub first_job: usize,
}

/// Lifetime cache counters of an [`Engine`]; see [`Engine::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Jobs answered from the result cache.
    pub hits: u64,
    /// Jobs executed because the (enabled) cache had no entry.
    pub misses: u64,
    /// Results currently held.
    pub entries: usize,
}

/// FIFO-evicting memo of completed jobs, keyed by [`cache_key`].
struct ResultCache {
    map: HashMap<String, JobResult>,
    order: VecDeque<String>,
    capacity: usize,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn get(&self, key: &str) -> Option<JobResult> {
        self.map.get(key).cloned()
    }

    fn put(&mut self, key: String, result: JobResult) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, result);
    }
}

/// The cache identity of one job: canonical generator name, exact
/// parameter bits, algorithm label, recorder profile, derived seed.
/// Everything else about a result — thread counts, pool widths, worker
/// scheduling — is excluded because the determinism suites pin that it
/// cannot change any field but `wall_time_s`.
fn cache_key(plan: &ExperimentPlan, spec: &ScenarioSpec, job: &JobSpec) -> String {
    let mut key = match registry::lookup(&spec.generator) {
        Some(g) => g.name.to_string(),
        None => spec.generator.clone(),
    };
    for (name, value) in &spec.params {
        let _ = write!(key, ":{name}={:x}", value.to_bits());
    }
    let _ = write!(
        key,
        "|{}|{}|{:x}",
        job.algorithm.label(),
        plan.profile,
        job.seed
    );
    key
}

/// A cached result re-addressed to the submitting plan's coordinates:
/// only the identity fields differ between a hit and a fresh run (the
/// cached `wall_time_s` — non-deterministic anyway — rides along).
fn patched(mut cached: JobResult, job: &JobSpec, scenario: &str) -> JobResult {
    cached.job = job.index;
    cached.scenario = scenario.to_string();
    cached.seed_index = job.seed_index;
    cached
}

/// Maps a caught worker unwind to the error the stream reports: a
/// cooperative [`Cancelled`] becomes [`ExpError::Cancelled`], anything
/// else [`ExpError::Internal`] with the panic message.
fn unwind_to_error(payload: Box<dyn Any + Send>) -> ExpError {
    if payload.downcast_ref::<Cancelled>().is_some() {
        return ExpError::Cancelled;
    }
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    ExpError::Internal(message)
}

/// Reorder window of a [`JobStream`]: how many completed jobs may be
/// buffered ahead of the in-order emission point before workers stop
/// claiming new jobs. Generous enough that workers rarely stall on one
/// slow job, small enough that memory stays bounded by
/// `O(window + workers)` results instead of `O(jobs)`.
fn streaming_window(workers: usize) -> usize {
    (4 * workers).max(64)
}

struct EngineInner {
    config: EngineConfig,
    cache: Mutex<ResultCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EngineInner {
    fn cache_get(&self, key: &str) -> Option<JobResult> {
        self.cache.lock().expect("result cache poisoned").get(key)
    }

    fn cache_put(&self, key: String, result: JobResult) {
        self.cache
            .lock()
            .expect("result cache poisoned")
            .put(key, result);
    }
}

/// The execution facade; see the [module docs](self). Cheap to clone —
/// clones share the configuration, the result cache and its counters, so
/// a resident server hands one engine to every connection.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine with the given configuration. No threads are spawned
    /// until a plan is submitted; an idle engine is just the cache.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            inner: Arc::new(EngineInner {
                config,
                cache: Mutex::new(ResultCache::new(config.cache_capacity)),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Shorthand for the common CLI shape: a core budget of `threads`,
    /// sequential single-run pools, no cache.
    pub fn with_threads(threads: usize) -> Self {
        Engine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.inner.config
    }

    /// Lifetime cache counters across every stream this engine (and its
    /// clones) answered. All zero while the cache is disabled.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries: self
                .inner
                .cache
                .lock()
                .expect("result cache poisoned")
                .map
                .len(),
        }
    }

    /// Submits a plan for execution and returns the in-order result
    /// stream. Workers start immediately; consuming the iterator paces
    /// them through the bounded reorder window.
    ///
    /// # Errors
    ///
    /// Plan validation errors before anything runs.
    pub fn submit(&self, plan: &ExperimentPlan) -> Result<JobStream, ExpError> {
        self.submit_with(plan, SubmitOptions::default())
    }

    /// [`Engine::submit`] with a deadline and/or a resume offset.
    ///
    /// # Errors
    ///
    /// Plan validation errors before anything runs.
    pub fn submit_with(
        &self,
        plan: &ExperimentPlan,
        opts: SubmitOptions,
    ) -> Result<JobStream, ExpError> {
        plan.validate()?;
        let jobs = plan.jobs();
        let start = opts.first_job.min(jobs.len());
        let remaining = jobs.len() - start;
        let workers = inter_job_workers(self.inner.config.threads, plan.sim_threads, remaining);
        let cancel = match opts.deadline {
            Some(budget) => CancelToken::with_deadline(budget),
            None => CancelToken::new(),
        };
        let shared = Arc::new(StreamShared {
            state: Mutex::new(StreamState {
                next_claim: start,
                next_emit: start,
                buffer: BTreeMap::new(),
                failed: false,
                live: workers,
            }),
            progress: Condvar::new(),
            cancel,
            window: streaming_window(workers),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        });
        let plan = Arc::new(plan.clone());
        let jobs = Arc::new(jobs);
        let jobs_len = jobs.len();
        let handles = (0..workers)
            .map(|_| {
                let plan = Arc::clone(&plan);
                let jobs = Arc::clone(&jobs);
                let shared = Arc::clone(&shared);
                let engine = Arc::clone(&self.inner);
                std::thread::spawn(move || worker_loop(&plan, &jobs, &shared, &engine))
            })
            .collect();
        Ok(JobStream {
            shared,
            workers: handles,
            jobs_len,
            done: false,
        })
    }

    /// Executes the plan's full cross-product and returns the results in
    /// job order — [`Engine::submit`] collected into a vector.
    ///
    /// # Errors
    ///
    /// Plan validation errors before anything runs; otherwise the
    /// lowest-indexed job failure (workers stop claiming once one fails).
    pub fn run(&self, plan: &ExperimentPlan) -> Result<Vec<JobResult>, ExpError> {
        let stream = self.submit(plan)?;
        let mut results = Vec::with_capacity(stream.total_jobs());
        for item in stream {
            results.push(item?);
        }
        Ok(results)
    }

    /// Runs one scenario × algorithm × seed combination to completion
    /// under the full-schedule profile and returns the materialized run —
    /// schedule, phase trace, positions — for harnesses (figures, SVG
    /// rendering) that need more than the record's numbers.
    ///
    /// # Errors
    ///
    /// Registry errors, validation failures, or
    /// [`ExpError::Unsupported`] (centralized baselines have no
    /// schedule, so only distributed algorithms are accepted).
    pub fn single(
        &self,
        spec: &ScenarioSpec,
        alg: AlgSpec,
        seed: u64,
    ) -> Result<SingleRun, ExpError> {
        single(spec, alg, seed, self.single_pool(), &mut self.single_ctx())
    }

    /// Runs one scenario × algorithm × seed combination under `profile`
    /// and returns its record — the same [`JobResult`] a one-job plan
    /// would emit (job and repetition index 0), produced by the same code
    /// path. `stats` keeps only aggregates and is the tractable profile at
    /// 10⁵–10⁶ robots; `compressed` validates at that scale; `full` also
    /// measures ξ_ℓ.
    ///
    /// # Errors
    ///
    /// Registry errors, validation failures, or
    /// [`ExpError::Unsupported`] (adversarial scenarios need the full
    /// profile; `central[optimal]` refuses `n > 10`).
    pub fn single_job(
        &self,
        spec: &ScenarioSpec,
        alg: AlgSpec,
        seed: u64,
        profile: Profile,
    ) -> Result<JobResult, ExpError> {
        let job = JobSpec {
            index: 0,
            scenario: 0,
            algorithm: alg,
            seed_index: 0,
            seed,
        };
        run_job(
            spec,
            &job,
            profile,
            self.single_pool(),
            &mut self.single_ctx(),
        )
    }

    fn single_pool(&self) -> ParPool {
        ParPool::new(self.inner.config.sim_threads.max(1))
    }

    fn single_ctx(&self) -> JobContext {
        JobContext::new(CancelToken::never())
    }
}

struct StreamState {
    /// Next unclaimed job index (claims are strictly in index order).
    next_claim: usize,
    /// Next index to hand to the consumer.
    next_emit: usize,
    /// Completed jobs not yet emitted, keyed by job index.
    buffer: BTreeMap<usize, Result<JobResult, ExpError>>,
    /// Set on the first failure; stops workers claiming further jobs.
    failed: bool,
    /// Workers still running; the consumer stops waiting at zero.
    live: usize,
}

struct StreamShared {
    state: Mutex<StreamState>,
    progress: Condvar,
    cancel: CancelToken,
    window: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn worker_loop(
    plan: &ExperimentPlan,
    jobs: &[JobSpec],
    shared: &StreamShared,
    engine: &EngineInner,
) {
    let mut ctx = JobContext::new(shared.cancel.clone());
    loop {
        let i = {
            let mut g = shared.state.lock().expect("stream state poisoned");
            loop {
                if g.failed || g.next_claim >= jobs.len() || shared.cancel.should_stop(true) {
                    g.live -= 1;
                    shared.progress.notify_all();
                    return;
                }
                // Backpressure: don't run further ahead of the emission
                // point than the reorder window allows.
                if g.next_claim < g.next_emit + shared.window {
                    break;
                }
                g = shared.progress.wait(g).expect("stream state poisoned");
            }
            g.next_claim += 1;
            g.next_claim - 1
        };
        let job = &jobs[i];
        let spec = &plan.scenarios[job.scenario];
        let key = (engine.config.cache_capacity > 0).then(|| cache_key(plan, spec, job));
        let out = match key.as_deref().and_then(|k| engine.cache_get(k)) {
            Some(hit) => {
                engine.hits.fetch_add(1, Ordering::Relaxed);
                shared.hits.fetch_add(1, Ordering::Relaxed);
                Ok(patched(hit, job, &spec.name))
            }
            None => {
                if key.is_some() {
                    engine.misses.fetch_add(1, Ordering::Relaxed);
                    shared.misses.fetch_add(1, Ordering::Relaxed);
                }
                // The job boundary: cooperative cancels and panics both
                // stop here, never the worker thread or the process. The
                // context self-heals after an unwind (scratch resets on
                // next use, a lost recorder is rebuilt).
                let out = catch_unwind(AssertUnwindSafe(|| execute_job(plan, job, &mut ctx)))
                    .unwrap_or_else(|payload| Err(unwind_to_error(payload)));
                if let (Some(k), Ok(r)) = (key, &out) {
                    engine.cache_put(k, r.clone());
                }
                out
            }
        };
        let mut g = shared.state.lock().expect("stream state poisoned");
        if out.is_err() {
            g.failed = true;
        }
        g.buffer.insert(i, out);
        shared.progress.notify_all();
    }
}

/// The in-order result stream of one submitted plan.
///
/// Iterating yields every executed job's [`JobResult`] in job order; the
/// first failure is yielded once as an `Err` and ends the stream (results
/// before it are complete and valid). A cancelled stream — explicit
/// [`JobStream::cancel`] or an expired [`SubmitOptions::deadline`] — ends
/// with a single [`ExpError::Cancelled`], unless every job had already
/// been emitted. Dropping the stream cancels it and joins the workers.
pub struct JobStream {
    shared: Arc<StreamShared>,
    workers: Vec<JoinHandle<()>>,
    jobs_len: usize,
    done: bool,
}

impl JobStream {
    /// Total jobs in the submitted plan (including any skipped by
    /// [`SubmitOptions::first_job`]).
    pub fn total_jobs(&self) -> usize {
        self.jobs_len
    }

    /// Requests cooperative cancellation: in-flight jobs unwind at their
    /// next checkpoint, idle workers exit, and the stream ends with one
    /// [`ExpError::Cancelled`]. Idempotent.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
        self.wake_all();
    }

    /// A clone of the stream's cancellation token, for callers (the serve
    /// scheduler) that need to request cancellation while the stream
    /// itself is being consumed.
    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// Jobs this stream answered from the engine's result cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.shared.hits.load(Ordering::Relaxed)
    }

    /// Jobs this stream executed because the (enabled) cache had no
    /// entry.
    pub fn cache_misses(&self) -> u64 {
        self.shared.misses.load(Ordering::Relaxed)
    }

    fn wake_all(&self) {
        let _g = self.shared.state.lock().expect("stream state poisoned");
        self.shared.progress.notify_all();
    }
}

impl Iterator for JobStream {
    type Item = Result<JobResult, ExpError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = {
            let mut g = self.shared.state.lock().expect("stream state poisoned");
            loop {
                let want = g.next_emit;
                if let Some(r) = g.buffer.remove(&want) {
                    g.next_emit += 1;
                    // Emission moved the window: wake stalled workers.
                    self.shared.progress.notify_all();
                    break Some(r);
                }
                // Every claimed index gets a buffer entry before its
                // worker exits, so an empty slot at next_emit with all
                // claims emitted means nothing below is in flight; stop
                // once no worker will claim again.
                if g.next_emit >= g.next_claim && (g.live == 0 || g.next_claim >= self.jobs_len) {
                    break None;
                }
                g = self.shared.progress.wait(g).expect("stream state poisoned");
            }
        };
        match item {
            Some(Ok(r)) => Some(Ok(r)),
            Some(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            None => {
                self.done = true;
                let emitted_all = {
                    let g = self.shared.state.lock().expect("stream state poisoned");
                    g.next_emit >= self.jobs_len
                };
                if !emitted_all && self.shared.cancel.is_cancelled() {
                    Some(Err(ExpError::Cancelled))
                } else {
                    None
                }
            }
        }
    }
}

impl Drop for JobStream {
    fn drop(&mut self) {
        self.shared.cancel.cancel();
        self.wake_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Profile;
    use freezetag_core::Algorithm;

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

    fn strip_wall(mut r: JobResult) -> JobResult {
        r.wall_time_s = 0.0;
        r
    }

    #[test]
    fn streaming_window_bounds_the_reorder_buffer() {
        assert_eq!(streaming_window(1), 64);
        assert_eq!(streaming_window(16), 64);
        assert_eq!(streaming_window(32), 128);
    }

    #[test]
    fn results_are_identical_across_entry_points_and_thread_counts() {
        // Every way to run a plan — collected or streamed — at any
        // `threads` and `sim_threads`, yields the same records (bar wall
        // time), in job order, under every recording profile.
        for profile in [Profile::Full, Profile::Compressed] {
            let plan = tiny_plan().profile(profile);
            let want: Vec<_> = Engine::with_threads(2)
                .run(&plan)
                .unwrap()
                .into_iter()
                .map(strip_wall)
                .collect();
            assert_eq!(want.len(), 4);
            for threads in [1, 4] {
                let engine = Engine::with_threads(threads);
                let stream = engine.submit(&plan).unwrap();
                assert_eq!(stream.total_jobs(), 4);
                let streamed: Vec<_> = stream.map(|r| strip_wall(r.unwrap())).collect();
                assert_eq!(streamed, want, "{profile} submit, threads={threads}");
                let collected: Vec<_> = engine.run(&plan).unwrap();
                let collected: Vec<_> = collected.into_iter().map(strip_wall).collect();
                assert_eq!(collected, want, "{profile} run, threads={threads}");
            }
            for sim_threads in [2, 4] {
                let wide = plan.clone().sim_threads(sim_threads);
                let results = Engine::with_threads(2).run(&wide).unwrap();
                let results: Vec<_> = results.into_iter().map(strip_wall).collect();
                assert_eq!(results, want, "{profile} sim_threads={sim_threads}");
            }
        }
    }

    #[test]
    fn repeat_submission_is_served_from_the_cache() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            sim_threads: 1,
            cache_capacity: 64,
        });
        let plan = tiny_plan();
        let first = engine.run(&plan).unwrap();
        let after_first = engine.cache_stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 4);
        assert_eq!(after_first.entries, 4);
        let second = engine.run(&plan).unwrap();
        let after_second = engine.cache_stats();
        assert_eq!(after_second.hits, 4);
        assert_eq!(after_second.misses, 4);
        // Cached results are the first run's, identity fields and all —
        // wall_time_s included, since a hit does not re-run anything.
        assert_eq!(first, second);
    }

    #[test]
    fn cache_hits_are_patched_to_the_submitting_plan() {
        // A second plan with the same generator, parameters and derived
        // seeds — but a renamed scenario and reordered algorithms — is
        // answered entirely from the first plan's cache entries, with the
        // identity fields (job index, display name) re-addressed.
        let engine = Engine::new(EngineConfig {
            threads: 1,
            sim_threads: 1,
            cache_capacity: 64,
        });
        let spec = |name: &str| {
            ScenarioSpec::new("disk")
                .named(name)
                .with("n", 10.0)
                .with("radius", 4.0)
        };
        let first = ExperimentPlan::new("twin-a")
            .scenario(spec("first"))
            .algorithm(Algorithm::Grid)
            .algorithm(Algorithm::Wave)
            .seeds(2);
        let second = ExperimentPlan::new("twin-b")
            .scenario(spec("second"))
            .algorithm(Algorithm::Wave)
            .algorithm(Algorithm::Grid)
            .seeds(2);
        let a = engine.run(&first).unwrap();
        assert_eq!(engine.cache_stats().hits, 0);
        let b = engine.run(&second).unwrap();
        assert_eq!(engine.cache_stats().hits, 4, "every job re-addressed");
        // b's Wave block is a's, moved from indices 2,3 to 0,1.
        for (bi, ai) in [(0, 2), (1, 3), (2, 0), (3, 1)] {
            assert_eq!(b[bi].scenario, "second");
            assert_eq!(b[bi].job, bi);
            let readdressed = JobResult {
                job: a[ai].job,
                scenario: a[ai].scenario.clone(),
                ..b[bi].clone()
            };
            assert_eq!(readdressed, a[ai], "b[{bi}] should be cached a[{ai}]");
        }
    }

    #[test]
    fn disabled_cache_counts_nothing() {
        let engine = Engine::with_threads(2);
        engine.run(&tiny_plan()).unwrap();
        engine.run(&tiny_plan()).unwrap();
        assert_eq!(engine.cache_stats(), CacheStats::default());
    }

    #[test]
    fn cache_evicts_in_fifo_order() {
        let mut cache = ResultCache::new(2);
        let r = |job| JobResult {
            job,
            scenario: String::new(),
            generator: String::new(),
            algorithm: String::new(),
            seed: 0,
            seed_index: 0,
            n: 0,
            ell: 1.0,
            rho: 1.0,
            xi_ell: None,
            makespan: 0.0,
            completion_time: 0.0,
            max_energy: 0.0,
            total_energy: 0.0,
            looks: 0,
            all_awake: true,
            peak_mem_bytes: 0.0,
            wall_time_s: 0.0,
        };
        cache.put("a".into(), r(0));
        cache.put("b".into(), r(1));
        cache.put("c".into(), r(2));
        assert!(cache.get("a").is_none(), "oldest entry evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn zero_deadline_cancels_before_any_job() {
        let stream = Engine::with_threads(2)
            .submit_with(
                &tiny_plan(),
                SubmitOptions {
                    deadline: Some(Duration::ZERO),
                    first_job: 0,
                },
            )
            .unwrap();
        let items: Vec<_> = stream.collect();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], Err(ExpError::Cancelled)), "{items:?}");
    }

    #[test]
    fn explicit_cancel_ends_the_stream_with_cancelled() {
        // Jobs big enough that the worker cannot finish the whole plan
        // between submission and the cancel request.
        let plan = ExperimentPlan::new("cancel")
            .scenario(
                ScenarioSpec::new("disk")
                    .with("n", 2000.0)
                    .with("radius", 20.0),
            )
            .algorithm(Algorithm::Wave)
            .seeds(8)
            .profile(Profile::Stats);
        let stream = Engine::with_threads(1).submit(&plan).unwrap();
        stream.cancel();
        let items: Vec<_> = stream.collect();
        assert!(items.len() <= 8);
        let (last, emitted) = items.split_last().expect("stream yields something");
        assert!(matches!(last, Err(ExpError::Cancelled)), "{last:?}");
        assert!(emitted.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn first_job_resumes_mid_plan() {
        let plan = tiny_plan();
        let full = Engine::with_threads(2).run(&plan).unwrap();
        let stream = Engine::with_threads(2)
            .submit_with(
                &plan,
                SubmitOptions {
                    deadline: None,
                    first_job: 2,
                },
            )
            .unwrap();
        let tail: Vec<_> = stream.map(|r| strip_wall(r.unwrap())).collect();
        let want: Vec<_> = full[2..].iter().cloned().map(strip_wall).collect();
        assert_eq!(tail, want);
        // Skipping everything yields an empty, uncancelled stream.
        let none: Vec<_> = Engine::with_threads(2)
            .submit_with(
                &plan,
                SubmitOptions {
                    deadline: None,
                    first_job: 99,
                },
            )
            .unwrap()
            .collect();
        assert!(none.is_empty());
    }

    #[test]
    fn worker_panics_surface_as_internal_errors() {
        assert_eq!(
            unwind_to_error(Box::new("boom")),
            ExpError::Internal("boom".to_string())
        );
        assert_eq!(
            unwind_to_error(Box::new("boom".to_string())),
            ExpError::Internal("boom".to_string())
        );
        assert_eq!(unwind_to_error(Box::new(Cancelled)), ExpError::Cancelled);
        assert!(matches!(
            unwind_to_error(Box::new(17_u32)),
            ExpError::Internal(m) if m.contains("non-string")
        ));
    }

    #[test]
    fn cache_key_separates_jobs_and_ignores_names() {
        let plan = tiny_plan();
        let jobs = plan.jobs();
        let spec = &plan.scenarios[0];
        let keys: Vec<_> = jobs.iter().map(|j| cache_key(&plan, spec, j)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "distinct jobs must key distinctly");
            }
        }
        // The display name is not part of the key; the canonical
        // generator name (not the alias used to spell it) is.
        let renamed = ScenarioSpec {
            name: "other".to_string(),
            ..spec.clone()
        };
        assert_eq!(cache_key(&plan, &renamed, &jobs[0]), keys[0]);
        assert!(keys[0].contains("|AGrid|full|"), "key {:?}", keys[0]);
    }

    #[test]
    fn single_job_matches_the_plan_path_under_every_profile() {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            sim_threads: 2,
            cache_capacity: 0,
        });
        let spec = ScenarioSpec::new("disk")
            .with("n", 30.0)
            .with("radius", 6.0);
        let wave = AlgSpec::from(Algorithm::Wave);
        let full = engine.single(&spec, wave, 5).unwrap();
        let stats = engine.single_job(&spec, wave, 5, Profile::Stats).unwrap();
        let compressed = engine
            .single_job(&spec, wave, 5, Profile::Compressed)
            .unwrap();
        assert!(full.report.all_awake);
        assert_eq!(full.report.makespan.to_bits(), stats.makespan.to_bits());
        assert_eq!(
            full.report.makespan.to_bits(),
            compressed.makespan.to_bits()
        );
        assert_eq!(
            full.report.total_energy.to_bits(),
            stats.total_energy.to_bits()
        );
        // A single job is a one-job plan's record, bit for bit.
        for profile in [Profile::Full, Profile::Stats, Profile::Compressed] {
            let plan = ExperimentPlan::new("one")
                .scenario(spec.clone())
                .algorithm(wave)
                .seeds(1)
                .profile(profile);
            let job = plan.jobs()[0];
            let planned = engine.run(&plan).unwrap().remove(0);
            let single = engine.single_job(&spec, wave, job.seed, profile).unwrap();
            assert_eq!(strip_wall(single), strip_wall(planned), "{profile}");
        }
    }

    // The execution contract of plans and single jobs, end to end through
    // the engine.

    #[test]
    fn run_reports_in_job_order_and_wakes_everyone() {
        let results = Engine::with_threads(2)
            .run(&tiny_plan())
            .expect("plan runs");
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
    fn compressed_profile_matches_full_profile_bitwise() {
        let engine = Engine::with_threads(2);
        let full = engine.run(&tiny_plan()).unwrap();
        let compressed = engine
            .run(&tiny_plan().profile(Profile::Compressed))
            .unwrap();
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
    fn compressed_single_job_reports_codec_figures() {
        use freezetag_core::{a_wave, AWaveConfig};
        use freezetag_sim::{ConcreteWorld, Recorder, Sim};
        let spec = ScenarioSpec::new("disk")
            .with("n", 30.0)
            .with("radius", 6.0);
        let engine = Engine::default();
        let run = engine
            .single_job(&spec, Algorithm::Wave.into(), 5, Profile::Compressed)
            .unwrap();
        assert!(run.all_awake);
        // The record carries the recorder footprint; the codec's own
        // figures come from replaying the job on the same instance, which
        // must reproduce that footprint exactly.
        let inst = registry::build_instance(&spec.generator, &spec.params, 5).unwrap();
        let mut sim = Sim::with_compressed(ConcreteWorld::new(&inst));
        a_wave(&mut sim, &AWaveConfig { ell: run.ell });
        let (_, rec, _) = sim.into_recorder_parts();
        assert_eq!(rec.memory_bytes() as f64, run.peak_mem_bytes);
        assert!(rec.compressed_bytes() > 0);
        assert!((rec.compressed_bytes() as f64) < run.peak_mem_bytes);
        assert!(
            rec.bytes_per_move().is_finite() && rec.bytes_per_move() > 0.0,
            "bytes/move {}",
            rec.bytes_per_move()
        );
        let err = engine
            .single_job(&spec, AlgSpec::CentralOptimal, 5, Profile::Compressed)
            .unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
    }

    #[test]
    fn failing_job_aborts_the_plan_with_its_error() {
        // central[optimal] refuses n > 10; the error must surface instead
        // of the engine running (or hanging on) the remaining jobs, and
        // everything before the first failing job index must still have
        // been emitted, in order.
        let plan = |algs: [AlgSpec; 2], seeds| {
            ExperimentPlan::new("abort")
                .scenario(
                    ScenarioSpec::new("disk")
                        .with("n", 50.0)
                        .with("radius", 8.0),
                )
                .algorithm(algs[0])
                .algorithm(algs[1])
                .seeds(seeds)
        };
        let (grid, optimal) = (AlgSpec::from(Algorithm::Grid), AlgSpec::CentralOptimal);
        let err = Engine::with_threads(2)
            .run(&plan([optimal, grid], 4))
            .unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
        let streamed: Vec<_> = Engine::with_threads(2)
            .submit(&plan([grid, optimal], 2))
            .unwrap()
            .collect();
        assert_eq!(streamed.len(), 3, "the stream ends at its first failure");
        let jobs: Vec<_> = streamed[..2]
            .iter()
            .map(|r| r.as_ref().unwrap().job)
            .collect();
        assert_eq!(jobs, vec![0, 1], "AGrid jobs precede the failure");
        assert!(
            matches!(streamed[2], Err(ExpError::Unsupported(_))),
            "{:?}",
            streamed[2]
        );
    }

    #[test]
    fn strategy_override_runs_and_mismatches_error() {
        use freezetag_central::WakeStrategy;
        let spec = ScenarioSpec::new("disk")
            .with("n", 15.0)
            .with("radius", 5.0);
        let engine = Engine::default();
        let run = engine
            .single(&spec, AlgSpec::separator_with(WakeStrategy::Chain), 3)
            .unwrap();
        assert!(run.report.all_awake);
        let err = engine
            .single(
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
        use freezetag_central::WakeStrategy;
        let plan = ExperimentPlan::new("central")
            .scenario(ScenarioSpec::new("disk").with("n", 6.0).with("radius", 4.0))
            .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
            .algorithm(AlgSpec::Central(WakeStrategy::Greedy))
            .algorithm(AlgSpec::CentralOptimal);
        let results = Engine::with_threads(2).run(&plan).unwrap();
        assert_eq!(results.len(), 3);
        let opt = results[2].makespan;
        assert!(opt > 0.0);
        assert!(results[0].makespan >= opt - 1e-9, "quadtree beats optimal?");
        assert!(results[1].makespan >= opt - 1e-9, "greedy beats optimal?");
    }

    #[test]
    fn central_and_distributed_jobs_report_one_scale_family_tuple() {
        use freezetag_central::WakeStrategy;
        // A scale family declares ℓ: the central baseline must report the
        // tuple its paired distributed run was handed, not the exact ℓ*.
        let spec = ScenarioSpec::new("uniform_1m")
            .with("n", 300.0)
            .with("radius", 10.0);
        let plan = ExperimentPlan::new("paired")
            .scenario(spec.clone())
            .algorithm(Algorithm::Grid)
            .algorithm(AlgSpec::Central(WakeStrategy::Greedy));
        let results = Engine::with_threads(1).run(&plan).unwrap();
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
        use freezetag_central::WakeStrategy;
        // Regression: central jobs leave per-robot energy (and, for the
        // exact optimum, total energy) unmeasured as NaN — aggregation
        // must skip them and the JSON emitters must render null.
        let plan = ExperimentPlan::new("central-agg")
            .scenario(ScenarioSpec::new("disk").with("n", 6.0).with("radius", 4.0))
            .algorithm(AlgSpec::CentralOptimal)
            .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
            .seeds(2);
        let results = Engine::with_threads(2).run(&plan).expect("plan runs");
        let aggregates = crate::agg::aggregate(&results);
        assert_eq!(aggregates.len(), 2);
        assert!(aggregates[0].max_energy.mean.is_nan());
        let json = crate::emit::aggregates_to_json(&plan, &aggregates);
        assert!(
            json.contains("\"max_energy\":{\"mean\":null"),
            "unmeasured energy must emit null: {json}"
        );
        for csv in results.iter().map(crate::emit::job_to_csv_row) {
            assert!(!csv.contains("NaN"), "NaN leaked into CSV: {csv}");
        }
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
        let results = Engine::with_threads(1).run(&plan).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].all_awake, "adversarial robots must all wake");
        assert!(results[0].looks > 0);
        assert_eq!(results[0].xi_ell, None);
    }
}
