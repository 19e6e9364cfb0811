//! The `serve_mix` workload: an in-process `Server::spawn` on
//! `127.0.0.1:0` under a closed loop of two HTTP clients.
//!
//! Each client POSTs a plan — one small concrete scenario × one
//! distributed algorithm × two seeds under the full profile — then streams
//! it to its last record before sending the next. A client's first
//! [`PROBES`] fresh plans cover the whole scenario × algorithm catalogue
//! in a seeded order (the deterministic set the quality ratio and the
//! `Engine::run` comparison use); later fresh plans repeat that order with
//! new plan seeds, so every run sends the same mix. About a quarter of all plans resubmit one of the client's
//! recent fresh plans exactly, so cache hits run beside fresh jobs.

use crate::batch::{distinct_instances, finish_trace};
use crate::layers::Layers;
use crate::report::{
    field, field_f64, median, median_time, peak_rss_mb, same_records, tail_quantile, thm1_bound,
    Report,
};
use crate::trace::{traced_job, Tracer};
use freezetag_core::AlgScratch;
use freezetag_exp::emit::job_to_jsonl_line;
use freezetag_exp::serve::{ServeConfig, Server};
use freezetag_exp::{AlgSpec, Engine, EngineConfig, ExperimentPlan, Profile, ScenarioSpec};
use freezetag_instances::registry;
use freezetag_sim::{ConcreteWorld, ParPool};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// The scenario catalogue (every instance has at most 2·10³ robots).
pub const CATALOGUE: [&str; 9] = [
    "disk:n=500:radius=15",
    "disk:n=1000:radius=21",
    "disk:n=2000:radius=30",
    "clusters:clusters=4:per=100:cradius=3:spread=30",
    "clusters:clusters=8:per=200:cradius=4:spread=40",
    "snake:legs=6:leg=60",
    "snake:legs=10:leg=100",
    "bridge:per=300:cradius=3:gap=30",
    "bridge:per=800:cradius=5:gap=40",
];

/// The algorithm axis of the mix.
pub const ALGS: [&str; 3] = ["separator", "grid", "wave"];

/// Fresh plans per client that enumerate the catalogue × algorithms.
pub const PROBES: usize = CATALOGUE.len() * ALGS.len();

/// Seeded repetitions per plan: one job per engine worker.
const SEEDS_PER_PLAN: usize = 2;

/// A resubmission picks among this many of the client's latest fresh
/// plans (always completed, and well inside the server's cache).
const RESUBMIT_WINDOW: usize = 8;

/// The server's engine: two workers (the machine's two cores), each job
/// sequential, result cache on.
fn serve_config() -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            threads: 2,
            sim_threads: 1,
            cache_capacity: 1024,
        },
        ..ServeConfig::default()
    }
}

/// SplitMix64: the workload's only randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One plan of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixPlan {
    /// Scenario spec (catalogue entry).
    pub scenario: &'static str,
    /// Algorithm name.
    pub alg: &'static str,
    /// Plan seed.
    pub plan_seed: u64,
}

impl MixPlan {
    /// The `POST /plans` body.
    pub fn body(&self) -> String {
        format!(
            "scenarios={}&algs={}&seeds={SEEDS_PER_PLAN}&plan-seed={}&profile=full",
            self.scenario, self.alg, self.plan_seed
        )
    }

    /// The same plan as the server builds it from [`MixPlan::body`].
    pub fn experiment(&self) -> ExperimentPlan {
        ExperimentPlan::new("serve")
            .scenario(ScenarioSpec::parse(self.scenario).expect("catalogue specs parse"))
            .algorithm(AlgSpec::parse(self.alg).expect("mix algorithms parse"))
            .seeds(SEEDS_PER_PLAN)
            .plan_seed(self.plan_seed)
            .profile(Profile::Full)
    }
}

/// What one client saw of one plan.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The plan.
    pub plan: MixPlan,
    /// For resubmissions, the index of the original in the client's list.
    pub original: Option<usize>,
    /// Position among the client's fresh plans (`None` for resubmissions).
    pub fresh_rank: Option<usize>,
    /// `POST /plans` round trip.
    pub submit: Duration,
    /// From the POST to the first streamed record.
    pub first_record: Option<Duration>,
    /// From the POST to the last streamed record.
    pub latency: Duration,
    /// When the plan finished, measured from the run's start.
    pub finished: Duration,
    /// Streamed JSONL records.
    pub lines: Vec<String>,
    /// Why the plan failed, if it did.
    pub error: Option<String>,
}

/// When a client stops sending plans.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this instant, once the probe plans are done.
    At(Instant),
    /// After this many plans.
    Count(usize),
}

/// Sends one HTTP/1.1 request and reads the whole reply (the server
/// closes every connection); also reports when the first byte after the
/// reply head arrived.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, Vec<u8>, Option<Instant>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut head_end = None;
    let mut first_body = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if head_end.is_none() {
            head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        }
        if first_body.is_none() && head_end.is_some_and(|h| buf.len() > h) {
            first_body = Some(Instant::now());
        }
    }
    let head_end =
        head_end.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no reply head"))?;
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, buf[head_end..].to_vec(), first_body))
}

/// Decodes a chunked body.
fn dechunk(mut body: &[u8]) -> Result<String, String> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size")?;
        let size_text = std::str::from_utf8(&body[..line_end]).map_err(|e| e.to_string())?;
        let size = usize::from_str_radix(size_text.trim(), 16).map_err(|e| e.to_string())?;
        body = &body[line_end + 2..];
        if size == 0 {
            break;
        }
        if body.len() < size + 2 {
            return Err("truncated chunk".to_string());
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
    String::from_utf8(out).map_err(|e| e.to_string())
}

/// Submits `plan` and streams it to completion.
fn run_plan_http(addr: SocketAddr, plan: &MixPlan, started: Instant) -> PlanOutcome {
    let t0 = Instant::now();
    let mut out = PlanOutcome {
        plan: plan.clone(),
        original: None,
        fresh_rank: None,
        submit: Duration::ZERO,
        first_record: None,
        latency: Duration::ZERO,
        finished: Duration::ZERO,
        lines: Vec::new(),
        error: None,
    };
    let result = (|| -> Result<(), String> {
        let (status, body, _) =
            http(addr, "POST", "/plans", &plan.body()).map_err(|e| e.to_string())?;
        out.submit = t0.elapsed();
        let body = String::from_utf8_lossy(&body).into_owned();
        if status != 202 {
            return Err(format!("POST /plans answered {status}: {body}"));
        }
        let id = field(&body, "id").ok_or("no plan id")?;
        let total: usize = field(&body, "total")
            .and_then(|t| t.parse().ok())
            .ok_or("no job total")?;
        let (status, body, first) =
            http(addr, "GET", &format!("/plans/{id}/stream"), "").map_err(|e| e.to_string())?;
        out.latency = t0.elapsed();
        out.first_record = first.map(|f| f - t0);
        if status != 200 {
            return Err(format!("GET stream answered {status}"));
        }
        out.lines = dechunk(&body)?.lines().map(str::to_string).collect();
        if out.lines.len() != total {
            return Err(format!(
                "plan streamed {} of {total} records",
                out.lines.len()
            ));
        }
        Ok(())
    })();
    out.finished = started.elapsed();
    out.error = result.err();
    out
}

/// The fresh plans of `client`, in order: the catalogue × algorithm grid
/// in a seeded order, repeated round after round with new plan seeds, so
/// every run sends the same mix. The first round is the probe plans.
pub fn fresh_plans(seed: u64, client: u64) -> impl Iterator<Item = MixPlan> {
    let mut rng = Rng::new(seed, 2 * client + 1);
    let mut order: Vec<usize> = (0..PROBES).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order.into_iter().cycle().map(move |combo| MixPlan {
        scenario: CATALOGUE[combo / ALGS.len()],
        alg: ALGS[combo % ALGS.len()],
        plan_seed: rng.next_u64() >> 33,
    })
}

/// One closed-loop client: the next plan goes out when the previous one
/// has streamed its last record.
pub fn client_loop(
    addr: SocketAddr,
    seed: u64,
    client: u64,
    stop: Stop,
    started: Instant,
) -> Vec<PlanOutcome> {
    let mut plans = fresh_plans(seed, client);
    let mut rng = Rng::new(seed, 2 * client + 2);
    let mut outcomes: Vec<PlanOutcome> = Vec::new();
    let mut fresh: Vec<usize> = Vec::new();
    loop {
        let done = match stop {
            Stop::At(deadline) => fresh.len() >= PROBES && Instant::now() >= deadline,
            Stop::Count(count) => outcomes.len() >= count,
        };
        if done {
            return outcomes;
        }
        let resubmit = !fresh.is_empty() && rng.below(4) == 0;
        let (plan, original) = if resubmit {
            let window = fresh.len().min(RESUBMIT_WINDOW);
            let original = fresh[fresh.len() - 1 - rng.below(window)];
            (outcomes[original].plan.clone(), Some(original))
        } else {
            (plans.next().expect("fresh plans never run out"), None)
        };
        let mut outcome = run_plan_http(addr, &plan, started);
        outcome.original = original;
        if original.is_none() {
            outcome.fresh_rank = Some(fresh.len());
            fresh.push(outcomes.len());
        }
        outcomes.push(outcome);
    }
}

/// Runs both clients against `addr` until `stop`.
fn drive(addr: SocketAddr, seed: u64, stop: Stop, started: Instant) -> Vec<Vec<PlanOutcome>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| scope.spawn(move || client_loop(addr, seed, c, stop, started)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// One set-up: the server plus every distinct instance of the probe
/// plans and its world.
fn setup_once(instances: &[(ScenarioSpec, u64, usize)]) -> Duration {
    let start = Instant::now();
    let server = Server::spawn(serve_config()).expect("bind 127.0.0.1:0");
    let built: Vec<_> = instances
        .iter()
        .map(|(spec, seed, _)| {
            let inst = build(spec, *seed);
            let world = ConcreteWorld::with_pool(&inst, &ParPool::sequential());
            (inst, world)
        })
        .collect();
    let elapsed = start.elapsed();
    black_box((&server, &built));
    elapsed
}

/// The distinct (scenario, seed) instances of both clients' probe plans.
fn probe_instances(seed: u64) -> Vec<(ScenarioSpec, u64, usize)> {
    let plans: Vec<ExperimentPlan> = (0..2)
        .flat_map(|client| fresh_plans(seed, client).take(PROBES))
        .map(|plan| plan.experiment())
        .collect();
    distinct_instances(&plans)
}

fn build(spec: &ScenarioSpec, seed: u64) -> freezetag_instances::Instance {
    registry::build_instance(&spec.generator, &spec.params, seed)
        .expect("catalogue instances are valid")
}

/// Checks every plan's records: completeness, all robots awake, and
/// resubmissions byte-equal (bar wall time) to their originals.
fn check_plans(report: &mut Report, clients: &[Vec<PlanOutcome>]) {
    for (c, outcomes) in clients.iter().enumerate() {
        for (i, o) in outcomes.iter().enumerate() {
            report.attempted += 1;
            if let Some(e) = &o.error {
                report.failed += 1;
                report.info.push(format!("client {c} plan {i} failed: {e}"));
                continue;
            }
            for line in &o.lines {
                report.check(field(line, "all_awake") == Some("true"), || {
                    format!("client {c} plan {i}: robots left asleep in {line}")
                });
            }
            if let Some(orig) = o.original.map(|k| &outcomes[k]) {
                if orig.error.is_none() {
                    report.check(same_records(&o.lines, &orig.lines), || {
                        format!("client {c} plan {i}: resubmission differs from its original")
                    });
                }
            }
        }
    }
}

fn probes(clients: &[Vec<PlanOutcome>]) -> impl Iterator<Item = &PlanOutcome> {
    clients
        .iter()
        .flatten()
        .filter(|o| o.fresh_rank.is_some_and(|r| r < PROBES) && o.error.is_none())
}

/// Runs `plan` through a local engine, returning the record lines and
/// the wall clock from submission to the last record.
fn engine_run(engine: &Engine, plan: &MixPlan) -> (Result<Vec<String>, String>, Duration) {
    let t = Instant::now();
    let out = engine
        .run(&plan.experiment())
        .map(|rs| rs.iter().map(job_to_jsonl_line).collect())
        .map_err(|e| e.to_string());
    (out, t.elapsed())
}

fn local_engine() -> Engine {
    Engine::new(serve_config().engine)
}

/// The timed run.
pub fn timed(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let instances = probe_instances(seed);
    let setup_s = median_time(SETUP_REPS, || setup_once(&instances));
    let server = Server::spawn(serve_config()).expect("bind 127.0.0.1:0");
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let clients = drive(server.addr(), seed, Stop::At(deadline), started);
    drop(server);
    check_plans(&mut report, &clients);
    let ok: Vec<&PlanOutcome> = clients
        .iter()
        .flatten()
        .filter(|o| o.error.is_none())
        .collect();
    let wall = ok
        .iter()
        .map(|o| o.finished)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let robots: f64 = ok
        .iter()
        .flat_map(|o| &o.lines)
        .filter_map(|l| field_f64(l, "n"))
        .sum();
    let job_times: Vec<f64> = ok
        .iter()
        .filter(|o| o.original.is_none())
        .flat_map(|o| &o.lines)
        .filter_map(|l| field_f64(l, "wall_time_s"))
        .collect();
    let latencies: Vec<f64> = ok.iter().map(|o| o.latency.as_secs_f64()).collect();

    // The probe plans: records must equal Engine::run's, and they give the
    // deterministic quality ratios.
    let engine = local_engine();
    let (mut thm1, mut energy, mut count) = (0.0, 0.0, 0usize);
    for o in probes(&clients) {
        let (lines, _) = engine_run(&engine, &o.plan);
        let same = lines.is_ok_and(|lines| same_records(&lines, &o.lines));
        report.check(same, || {
            format!(
                "plan {} streamed records differ from Engine::run",
                o.plan.body()
            )
        });
        for line in &o.lines {
            let get = |k| field_f64(line, k).unwrap_or(f64::NAN);
            let (ell, rho) = (get("ell"), get("rho"));
            thm1 += get("makespan") / thm1_bound(rho, ell);
            energy += get("max_energy") / (ell * ell);
            count += 1;
        }
    }
    report.check(count == 2 * PROBES * SEEDS_PER_PLAN, || {
        format!("only {count} probe records completed")
    });
    report.info.push(format!(
        "{} plans ({} resubmitted) in {wall:.3} s",
        report.attempted,
        clients
            .iter()
            .flatten()
            .filter(|o| o.original.is_some())
            .count()
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("robots_per_s", robots / wall, "robots/s");
    report.metric("job_s_p50", median(&job_times), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("thm1_ratio", thm1 / count.max(1) as f64, "ratio");
    report.note("plan_latency_p50_s", median(&latencies), "s");
    if let Some(p90) = tail_quantile(&latencies, 0.9, 10) {
        report.note("plan_latency_p90_s", p90, "s");
    }
    report.note("error_rate", report.error_rate(), "fraction");
    report.note("energy_ell2_ratio", energy / count.max(1) as f64, "ratio");
    report
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;

/// Plans per client in the traced run (fixed, so counts repeat exactly).
const TRACED_PLANS: usize = 40;

/// The traced run: a fixed number of HTTP plans (serve-layer figures),
/// the fresh ones again through `Engine::run` (engine and serve
/// overheads), then their jobs through the instrumented path.
pub fn traced(seed: u64, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let instances = probe_instances(seed);
    let (mut builds, mut worlds) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let insts: Vec<_> = instances
            .iter()
            .map(|(spec, s, _)| build(spec, *s))
            .collect();
        builds.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for inst in &insts {
            black_box(ConcreteWorld::with_pool(inst, &ParPool::sequential()));
        }
        worlds.push(t.elapsed().as_secs_f64());
    }
    layers.instances_build_s = median(&builds);
    layers.world_build_s = median(&worlds);

    let server = Server::spawn(serve_config()).expect("bind 127.0.0.1:0");
    let started = Instant::now();
    let clients = drive(server.addr(), seed, Stop::Count(TRACED_PLANS), started);
    let health = http(server.addr(), "GET", "/health", "")
        .map(|(_, body, _)| String::from_utf8_lossy(&body).into_owned())
        .unwrap_or_default();
    drop(server);
    check_plans(&mut report, &clients);
    let hits = field_f64(&health, "cache_hits").unwrap_or(0.0);
    let misses = field_f64(&health, "cache_misses").unwrap_or(0.0);
    layers.cache_hit_frac = hits / (hits + misses).max(1.0);
    layers.http_errors = report.failed;
    let all: Vec<&PlanOutcome> = clients.iter().flatten().collect();
    layers.submit_s_p50 = median(
        &all.iter()
            .map(|o| o.submit.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let fresh: Vec<&PlanOutcome> = all
        .iter()
        .copied()
        .filter(|o| o.original.is_none() && o.error.is_none())
        .collect();
    let waits: Vec<f64> = fresh
        .iter()
        .filter_map(|o| {
            let first = o.first_record?.saturating_sub(o.submit).as_secs_f64();
            let job = field_f64(o.lines.first()?, "wall_time_s")?;
            Some((first - job).max(0.0))
        })
        .collect();
    layers.queue_wait_s_p50 = median(&waits);

    // Engine pass: the same fresh plans without HTTP.
    let engine = local_engine();
    let (mut serve_over, mut engine_over) = (Vec::new(), Vec::new());
    let mut engine_records: HashMap<usize, Vec<String>> = HashMap::new();
    for (k, o) in fresh.iter().enumerate() {
        let (lines, took) = engine_run(&engine, &o.plan);
        match lines {
            Ok(lines) => {
                serve_over.push(o.latency.as_secs_f64() - took.as_secs_f64());
                let longest = lines
                    .iter()
                    .filter_map(|l| field_f64(l, "wall_time_s"))
                    .fold(0.0, f64::max);
                engine_over.push(took.as_secs_f64() - longest);
                engine_records.insert(k, lines);
            }
            Err(e) => report
                .problems
                .push(format!("Engine::run of {}: {e}", o.plan.body())),
        }
    }
    layers.serve_overhead_s = median(&serve_over);
    layers.engine_overhead_s = median(&engine_over);

    // Instrumented pass over the fresh plans' jobs.
    let mut tracer = Tracer::default();
    let mut scratch = AlgScratch::new();
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    for (k, o) in fresh.iter().enumerate() {
        let Some(lines) = engine_records.get(&k) else {
            continue;
        };
        let plan = o.plan.experiment();
        for (j, job) in plan.jobs().iter().enumerate() {
            let id = (k * SEEDS_PER_PLAN + j) as u64;
            let line = &lines[j];
            match traced_job(
                &mut tracer,
                id,
                &plan.scenarios[job.scenario],
                job.algorithm,
                job.seed,
                Profile::Full,
                plan.sim_threads,
                &mut scratch,
            ) {
                Ok(t) => {
                    let get = |key| field_f64(line, key).unwrap_or(f64::NAN);
                    report.check(
                        t.looks as f64 == get("looks")
                            && t.makespan.to_bits() == get("makespan").to_bits()
                            && t.peak_mem_bytes as f64 == get("peak_mem_bytes"),
                        || format!("traced job {id} differs from its record {line}"),
                    );
                    report.check(t.sensing.looks == t.looks as u64, || {
                        format!("traced job {id}: wrapper missed looks")
                    });
                    traced_total += t.total.as_secs_f64();
                    untraced_total += get("wall_time_s");
                    layers.add_job(&t);
                }
                Err(e) => report.problems.push(format!("traced job {id}: {e}")),
            }
        }
    }
    layers.trace_overhead_frac = traced_total / untraced_total - 1.0;
    layers.emit(&mut report);
    finish_trace(&mut report, &tracer, trace_path);
    report
}
