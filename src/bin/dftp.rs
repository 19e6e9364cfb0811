//! `dftp` — command-line driver for the freezetag workspace.
//!
//! ```console
//! $ dftp solve --alg separator --scenario disk:n=100:radius=20 --seed 1
//! $ dftp solve --alg central-anytime --scenario disk:n=500:radius=40 --workers 2
//! $ dftp params --scenario disk:n=200:radius=30 --seed 7
//! $ dftp svg --alg separator --scenario lattice:side=12:spacing=2 --out run.svg
//! $ dftp compare --scenario snake:legs=4:leg=60:spacing=2
//! $ dftp generate --scenario clusters:per=25 --seed 3 --out swarm.csv
//! $ dftp sweep --scenarios disk:n=80:radius=15,snake:legs=6 \
//!       --algs separator,grid,wave --seeds 5 --threads 4 --out results.json
//! ```
//!
//! Every command shares the plan grammar of `dftp sweep` and `dftp serve`:
//! `--scenario` is one `freezetag::exp::ScenarioSpec::parse` text, checked
//! against the scenario registry (`freezetag::instances::registry`);
//! `--alg` is one `freezetag::exp::AlgSpec::parse` text; unknown
//! `--options` are usage errors, not silently ignored. Every distributed
//! run goes through `Engine::single` and every centralized baseline
//! through `runner::central_run`, the job paths sweeps use. Everything is deterministic
//! given `--seed` (or, for sweeps, `--plan-seed` — byte-identical output
//! for any `--threads` *and* any `--sim-threads`).

use freezetag::central::AnytimeConfig;
use freezetag::core::{bounds, Algorithm};
use freezetag::exp::plan::{check_option_keys, option_seconds};
use freezetag::exp::{
    agg, central_run, emit, journal, serve, AlgSpec, CentralAnswer, Engine, EngineConfig, ExpError,
    ExperimentPlan, ScenarioSpec, SingleRun, SubmitOptions,
};
use freezetag::instances::registry;
use freezetag::instances::AdmissibleTuple;
use freezetag::sim::svg::{render_run, SvgOptions};
use freezetag::sim::{CancelToken, ParPool};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, opts)) = parse(&args) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    match run(&cmd, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Failure::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed. Only a usage error — the invocation itself is
/// wrong — is followed by the usage text; a runtime error (I/O, a job
/// that failed validation or panicked) prints its message alone.
enum Failure {
    Usage(String),
    Runtime(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<ExpError> for Failure {
    /// Plan, registry and unsupported-combination errors reject what was
    /// asked for; validation failures, panics and cancellations happen
    /// while running it.
    fn from(e: ExpError) -> Self {
        match e {
            ExpError::InvalidPlan(_) | ExpError::Registry(_) | ExpError::Unsupported(_) => {
                Failure::Usage(e.to_string())
            }
            ExpError::Validation { .. } | ExpError::Cancelled | ExpError::Internal(_) => {
                Failure::Runtime(e.to_string())
            }
        }
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage:
  dftp solve    [--alg <ALG>] [--scenario <SPEC>] [--seed <S>]
                [--time-budget <SECS>] [--workers <N>]  (central-anytime only)
  dftp compare  [--scenario <SPEC>] [--seed <S>]
  dftp params   [--scenario <SPEC>] [--seed <S>]
  dftp svg      [--alg <ALG>] [--scenario <SPEC>] [--seed <S>] [--out <FILE>]
  dftp generate [--scenario <SPEC>] [--seed <S>] [--out <FILE>]
  dftp sweep    --scenarios <SPEC[,SPEC...]> [--algs <ALG[,ALG...]>]
                [--seeds <K>] [--plan-seed <S>]
                [--threads <N>] [--sim-threads <N>]
                [--profile <full|stats|compressed>]
                [--format <json|jsonl|csv>] [--flush-every <K>]
                [--out <FILE>] [--resume] [--bench-json <FILE>] [--name <NAME>]
  dftp serve    [--port <P>] [--threads <N>] [--cache-capacity <K>]
                [--queue-depth <D>]

algorithms (ALG):     separator[:STRATEGY] | grid | wave | central:STRATEGY |
                      central-anytime | optimal; STRATEGY = quadtree | greedy |
                      median | chain (default: separator for solve and svg,
                      separator,grid,wave for sweep)
solve central-*:      central:*, central-anytime and optimal build a wake tree
                      on the known positions; for central-anytime --workers
                      sets execution threads only (byte-identical output) and
                      --time-budget returns the best tree found in time
scenario spec (SPEC): GEN[:key=value...]          e.g. disk:n=40:radius=8
                      (default: disk); sweep takes a comma-separated list
sweep seeds:          each job's seed depends on its scenario and repetition,
                      not on the algorithm axis, so --algs wave re-runs
                      exactly the wave rows of a --algs grid,wave sweep
sweep profiles:       full       = complete schedules + validation (default)
                      stats      = constant memory per robot, no validation —
                                   tractable for the large-n scenario families
                                   (uniform_1m, grid_1m, skewed_500k)
                      compressed = delta-encoded schedules + streaming
                                   validation: full-fidelity checking at
                                   stats-profile scale
sweep parallelism:    --threads     = total core budget (inter-job workers)
                      --sim-threads = deterministic cores *within* each job;
                              output is byte-identical for any combination
sweep streaming:      records stream to stdout, or with --out to the file,
                      as jobs finish (bounded memory); --flush-every <K>
                      flushes every K records (default 64)
sweep resume:         --out FILE keeps a FILE.journal sidecar while a
                      jsonl/csv sweep runs; after an interruption,
                      re-running with --resume verifies the plan matches,
                      drops any partial trailing record, and restarts at
                      the first missing job (same bytes as an unbroken run)
serve:                long-lived sweep service on 127.0.0.1 (HTTP/1.1):
                      POST /plans submits a sweep-grammar plan
                      (scenarios=...&algs=...&seeds=...&deadline-s=...),
                      GET /plans/<id>/stream streams JSONL results,
                      GET /plans/<id> and /health report status,
                      POST /plans/<id>/cancel stops a plan; repeated
                      submissions are served from a deterministic cache

generators (GEN key=default ...; unseeded generators ignore --seed):
",
    );
    for g in registry::GENERATORS {
        let mut name = g.name.to_string();
        for a in g.aliases {
            let _ = write!(name, " | {a}");
        }
        let params: Vec<String> = g
            .params
            .iter()
            .map(|p| format!("{}={}", p.key, p.default))
            .collect();
        let _ = writeln!(out, "  {name:<34} {}", params.join(" "));
    }
    out.push_str(
        "\nthe adversarial layouts (theorem2, theorem3) run via solve, compare, svg\n\
         and sweep (distributed algorithms only); params/generate need a concrete\n\
         instance and reject them.",
    );
    out
}

fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let cmd = args.first()?.clone();
    let mut opts = HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?.to_string();
        // A flag followed by another flag (or nothing) is boolean-style:
        // `--resume` stores an empty value its command tests by presence.
        match args.get(i + 1) {
            Some(val) if !val.starts_with("--") => {
                opts.insert(key, val.clone());
                i += 2;
            }
            _ => {
                opts.insert(key, String::new());
                i += 1;
            }
        }
    }
    Some((cmd, opts))
}

fn get_u(opts: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer")),
    }
}

/// `--scenario` in the sweep grammar ([`ScenarioSpec::parse`], `disk`
/// when absent; the registry checks it when the instance is built) and
/// `--seed` (default 1). Any option outside `keys`, `--scenario` and
/// `--seed` is an error.
fn scenario(opts: &HashMap<String, String>, keys: &[&str]) -> Result<(ScenarioSpec, u64), Failure> {
    let mut allowed = keys.to_vec();
    allowed.extend(["scenario", "seed"]);
    check_option_keys(opts, &allowed, "--")?;
    let spec = ScenarioSpec::parse(opts.get("scenario").map_or("disk", String::as_str))?;
    Ok((spec, get_u(opts, "seed", 1)? as u64))
}

/// `--alg` in the sweep grammar ([`AlgSpec::parse`]), `separator` when
/// absent.
fn alg_spec(opts: &HashMap<String, String>) -> Result<AlgSpec, Failure> {
    let text = opts.get("alg").map_or("separator", String::as_str);
    Ok(AlgSpec::parse(text)?)
}

/// The measured run against the bound of its algorithm's theorem.
fn print_report(alg: AlgSpec, run: &SingleRun) {
    let tuple = AdmissibleTuple {
        ell: run.ell,
        rho: run.rho,
        n: run.n,
    };
    let rep = &run.report;
    let xi = run.xi_ell.unwrap_or(f64::NAN);
    let bound = match rep.algorithm {
        Algorithm::Separator => bounds::separator_makespan_bound(tuple.rho, tuple.ell),
        Algorithm::Grid => bounds::grid_makespan_bound(xi, tuple.ell),
        Algorithm::Wave => bounds::wave_makespan_bound(xi, tuple.ell),
    };
    println!("{alg} on n={} (tuple {tuple}):", run.n);
    println!(
        "  makespan    {:>12.2}  (bound {:.1}, ratio {:.2})",
        rep.makespan,
        bound,
        rep.makespan / bound
    );
    println!("  completion  {:>12.2}", rep.completion_time);
    println!("  max energy  {:>12.2}", rep.max_energy);
    println!("  total energy{:>12.2}", rep.total_energy);
    println!("  looks       {:>12}", rep.looks);
    println!("  all awake   {:>12}", rep.all_awake);
}

/// `dftp solve --alg central:*|central-anytime|optimal`: the centralized
/// baselines through [`central_run`], the plan jobs' path, with
/// `--time-budget` and `--workers` reaching `central-anytime`. Prints the
/// tree digest so runs are byte-comparable — the CI determinism leg diffs
/// this output across `--workers 1/2/4`.
fn cmd_solve_central(
    opts: &HashMap<String, String>,
    alg: AlgSpec,
    spec: &ScenarioSpec,
    seed: u64,
) -> Result<(), Failure> {
    let workers = get_u(opts, "workers", 1)?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_string().into());
    }
    let config = AnytimeConfig {
        time_budget: option_seconds(opts, "time-budget", "--")?,
        ..AnytimeConfig::default()
    };
    let pool = ParPool::new(workers);
    let (inst, answer) = central_run(spec, alg, seed, &config, &pool, &CancelToken::never())?;
    let head = format!("{} on n={}:", alg.label(), inst.n());
    match answer {
        CentralAnswer::Tree(tree) => {
            println!(
                "{head} makespan {:.4}, total length {:.4}",
                tree.makespan(),
                tree.total_length()
            );
            println!("  tree digest {:#018x}", tree.digest());
        }
        CentralAnswer::Anytime(report) => {
            println!(
                "{head} makespan {:.4} (initial {:.4}), total length {:.4}",
                report.tree.makespan(),
                report.initial_makespan,
                report.tree.total_length()
            );
            // Time-budgeted runs stop at a wall-clock-dependent round, so
            // the counters below (and possibly the tree) are only
            // reproducible under the default fixed iteration budget.
            println!(
                "  rounds {}, moves {} tried / {} evaluated / {} accepted",
                report.rounds_run,
                report.moves_tried,
                report.moves_evaluated,
                report.moves_accepted
            );
            println!("  tree digest {:#018x}", report.tree.digest());
        }
        CentralAnswer::Optimal(m) => println!("{head} makespan {m:.4}"),
    }
    Ok(())
}

fn cmd_solve(opts: &HashMap<String, String>) -> Result<(), Failure> {
    let (spec, seed) = scenario(opts, &["alg", "time-budget", "workers"])?;
    let alg = alg_spec(opts)?;
    if alg != AlgSpec::CentralAnytime {
        for key in ["time-budget", "workers"] {
            if opts.contains_key(key) {
                return Err(format!(
                    "--{key} only applies to --alg central-anytime, not {}",
                    alg.label()
                )
                .into());
            }
        }
    }
    if let AlgSpec::Distributed { .. } = alg {
        print_report(alg, &Engine::default().single(&spec, alg, seed)?);
        Ok(())
    } else {
        cmd_solve_central(opts, alg, &spec, seed)
    }
}

fn cmd_compare(opts: &HashMap<String, String>) -> Result<(), Failure> {
    let (spec, seed) = scenario(opts, &[])?;
    let engine = Engine::default();
    for alg in [Algorithm::Separator, Algorithm::Grid, Algorithm::Wave] {
        let alg = AlgSpec::from(alg);
        print_report(alg, &engine.single(&spec, alg, seed)?);
    }
    Ok(())
}

fn cmd_params(opts: &HashMap<String, String>) -> Result<(), Failure> {
    let (spec, seed) = scenario(opts, &[])?;
    let inst =
        registry::build_instance(&spec.generator, &spec.params, seed).map_err(ExpError::from)?;
    let p = inst.params(None);
    let tuple = AdmissibleTuple::rounded(p.ell_star, p.rho_star, inst.n())?;
    println!("n     = {}", inst.n());
    println!("ρ*    = {:.4}", p.rho_star);
    println!("ℓ*    = {:.4}", p.ell_star);
    println!("ξ_ℓ*  = {:?}", p.xi_ell);
    println!("tuple = {tuple}");
    Ok(())
}

fn cmd_svg(opts: &HashMap<String, String>) -> Result<(), Failure> {
    let (spec, seed) = scenario(opts, &["alg", "out"])?;
    let alg = alg_spec(opts)?;
    let out = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| "dftp_run.svg".to_string());
    let run = Engine::default().single(&spec, alg, seed)?;
    let svg = render_run(
        run.source,
        &run.positions,
        Some(&run.schedule),
        &[],
        &SvgOptions::default(),
    );
    std::fs::write(&out, svg).map_err(|e| Failure::Runtime(format!("cannot write {out}: {e}")))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), Failure> {
    let (spec, seed) = scenario(opts, &["out"])?;
    let inst =
        registry::build_instance(&spec.generator, &spec.params, seed).map_err(ExpError::from)?;
    let csv = freezetag::instances::io::to_csv(&inst);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, csv)
                .map_err(|e| Failure::Runtime(format!("cannot write {path}: {e}")))?;
            println!("wrote {path} ({} robots + source)", inst.n());
        }
        None => print!("{csv}"),
    }
    Ok(())
}

/// Opens a sweep's `--out` file: a fresh one (plus its journal, for the
/// record-per-line formats), or with `resume` the interrupted file, cut
/// back to its last complete record. Returns the writer, the first job to
/// run, and whether a CSV header already stands.
fn open_sweep_out(
    path: &str,
    plan: &ExperimentPlan,
    format: &str,
    resume: bool,
) -> Result<(Box<dyn Write>, usize, bool), Failure> {
    let out = std::path::Path::new(path);
    let fingerprint = journal::plan_fingerprint(plan, format);
    if !resume {
        if matches!(format, "jsonl" | "csv") {
            journal::write_journal(out, &fingerprint)
                .map_err(|e| Failure::Runtime(format!("cannot write {path}.journal: {e}")))?;
        }
        let file = std::fs::File::create(path)
            .map_err(|e| Failure::Runtime(format!("cannot create {path}: {e}")))?;
        return Ok((Box::new(io::BufWriter::new(file)), 0, false));
    }
    match journal::read_journal(out).map_err(|e| Failure::Runtime(e.to_string()))? {
        None => {
            return Err(Failure::Runtime(format!(
                "--resume found no journal at {path}.journal — either the sweep completed \
                 (nothing to resume) or it never started; rerun without --resume"
            )))
        }
        Some(recorded) if recorded != fingerprint => {
            return Err(Failure::Runtime(format!(
                "--resume plan mismatch: {path}.journal records a different plan/format than \
                 the one given — resuming would interleave records of two different sweeps"
            )))
        }
        Some(_) => {}
    }
    let state = journal::resume_point(out, format == "csv")
        .map_err(|e| Failure::Runtime(format!("cannot prepare {path} for resume: {e}")))?;
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .map_err(|e| Failure::Runtime(format!("cannot open {path}: {e}")))?;
    eprintln!(
        "resuming {path} at job {} of {}",
        state.records,
        plan.job_count()
    );
    Ok((
        Box::new(io::BufWriter::new(file)),
        state.records,
        state.header_present,
    ))
}

fn cmd_sweep(opts: &HashMap<String, String>) -> Result<(), Failure> {
    let mut allowed = ExperimentPlan::OPTION_KEYS.to_vec();
    allowed.extend([
        "threads",
        "format",
        "flush-every",
        "out",
        "bench-json",
        "resume",
    ]);
    check_option_keys(opts, &allowed, "--")?;
    let plan = ExperimentPlan::from_options(opts, "sweep", "--")?;
    let threads = get_u(opts, "threads", 1)?;
    // Reject a bad --format / --flush-every (and an invalid plan) before
    // the sweep runs — and before --out truncates an existing file — not
    // after hours of jobs whose output would then be discarded.
    let format = opts.get("format").map(String::as_str).unwrap_or("json");
    if !matches!(format, "json" | "jsonl" | "csv") {
        return Err(format!("unknown format '{format}' (json|jsonl|csv)").into());
    }
    let flush_every = get_u(opts, "flush-every", 64)?;
    if flush_every == 0 {
        return Err("--flush-every must be at least 1".to_string().into());
    }
    let resume = opts.contains_key("resume");
    let path = opts.get("out");
    if resume && (path.is_none() || !matches!(format, "jsonl" | "csv")) {
        return Err(
            "--resume needs --out with --format jsonl or csv (the record-per-line \
             formats whose completed prefix is resumable)"
                .to_string()
                .into(),
        );
    }
    plan.validate()?;
    let engine = Engine::with_threads(threads);

    // One sink for stdout and --out alike: every record is written the
    // moment its job (and every lower-indexed job) finishes, so a
    // 10⁶-robot sweep never holds more than a bounded window of results.
    // A file sink additionally keeps a FILE.journal sidecar that lets
    // --resume pick up where a crashed sweep stopped.
    let started = Instant::now();
    let dest = path.map_or("stdout", String::as_str);
    let write_err = |e: io::Error| Failure::Runtime(format!("cannot write {dest}: {e}"));
    let (mut out, first_job, header_present) = match path {
        Some(path) => open_sweep_out(path, &plan, format, resume)?,
        None => (
            Box::new(io::BufWriter::new(io::stdout())) as Box<dyn Write>,
            0,
            false,
        ),
    };
    let mut accumulator = agg::StreamingAgg::new();
    {
        let mut records = match format {
            "jsonl" => Some(emit::JobStreamWriter::jsonl(&mut out, flush_every)),
            "csv" if header_present => {
                Some(emit::JobStreamWriter::csv_resumed(&mut out, flush_every))
            }
            "csv" => Some(emit::JobStreamWriter::csv(&mut out, flush_every).map_err(write_err)?),
            // The aggregate document is written once at the end; the
            // sweep still streams through the accumulator.
            _ => None,
        };
        let stream = engine.submit_with(
            &plan,
            SubmitOptions {
                deadline: None,
                first_job,
            },
        )?;
        for item in stream {
            let r = item?;
            accumulator.push(&r);
            if let Some(w) = records.as_mut() {
                w.write(&r).map_err(write_err)?;
            }
        }
        if let Some(w) = records {
            w.finish().map_err(write_err)?;
        }
    }
    let job_count = accumulator.job_count();
    let aggregates = accumulator.finish();
    if format == "json" {
        out.write_all(emit::aggregates_to_json(&plan, &aggregates).as_bytes())
            .map_err(write_err)?;
    }
    out.flush().map_err(write_err)?;
    drop(out);
    if let Some(path) = path {
        // Every record landed: the journal's "incomplete prefix" claim no
        // longer holds.
        journal::clear_journal(std::path::Path::new(path))
            .map_err(|e| Failure::Runtime(format!("cannot remove {path}.journal: {e}")))?;
        let total_wall = started.elapsed().as_secs_f64();
        print!("{}", emit::aggregates_to_markdown(&aggregates));
        let workers = freezetag::exp::inter_job_workers(threads, plan.sim_threads, job_count);
        println!(
            "\n{} jobs on {} worker(s) x {} sim thread(s) in {:.2}s — wrote {path}",
            job_count, workers, plan.sim_threads, total_wall
        );
    }
    if let Some(path) = opts.get("bench-json") {
        let total_wall = started.elapsed().as_secs_f64();
        let doc = emit::bench_results_json(&plan, &aggregates, threads, total_wall);
        std::fs::write(path, doc)
            .map_err(|e| Failure::Runtime(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), Failure> {
    check_option_keys(
        opts,
        &["port", "threads", "cache-capacity", "queue-depth"],
        "--",
    )?;
    let port = get_u(opts, "port", 7333)?;
    let port = u16::try_from(port).map_err(|_| format!("--port {port} out of range"))?;
    let threads = get_u(
        opts,
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    let cache_capacity = get_u(opts, "cache-capacity", 1024)?;
    let queue_depth = get_u(opts, "queue-depth", 16)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".to_string().into());
    }
    let config = serve::ServeConfig {
        addr: std::net::SocketAddr::from(([127, 0, 0, 1], port)),
        engine: EngineConfig {
            threads,
            cache_capacity,
            ..EngineConfig::default()
        },
        queue_depth,
    };
    let server =
        serve::Server::spawn(config).map_err(|e| Failure::Runtime(format!("cannot bind: {e}")))?;
    println!("dftp serve listening on http://{}", server.addr());
    println!(
        "  {threads} worker thread(s), result cache {cache_capacity}, queue depth {queue_depth}"
    );
    // The accept and scheduler threads own all the work; this thread only
    // keeps the process (and the Server guard, whose Drop is the
    // shutdown path) alive.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn run(cmd: &str, opts: &HashMap<String, String>) -> Result<(), Failure> {
    match cmd {
        "solve" => cmd_solve(opts),
        "compare" => cmd_compare(opts),
        "params" => cmd_params(opts),
        "svg" => cmd_svg(opts),
        "generate" => cmd_generate(opts),
        "sweep" => cmd_sweep(opts),
        "serve" => cmd_serve(opts),
        other => Err(format!("unknown command '{other}'").into()),
    }
}
