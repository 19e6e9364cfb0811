//! `dftp` — command-line driver for the freezetag workspace.
//!
//! ```console
//! $ dftp solve --alg separator --gen disk --n 100 --radius 20 --seed 1
//! $ dftp params --gen disk --n 200 --radius 30 --seed 7
//! $ dftp svg --alg separator --gen lattice --side 12 --spacing 2 --out run.svg
//! $ dftp compare --gen snake --legs 4 --leg 60 --spacing 2
//! $ dftp generate --gen clusters --per 25 --seed 3 --out swarm.csv
//! $ dftp sweep --scenarios disk:n=80:radius=15,snake:legs=6 \
//!       --algs separator,grid,wave --seeds 5 --threads 4 --out results.json
//! ```
//!
//! Generators are resolved through the scenario registry
//! (`freezetag::instances::registry`); unknown `--options` are usage
//! errors, not silently ignored. Everything is deterministic given
//! `--seed` (or, for sweeps, `--plan-seed` — byte-identical output for
//! any `--threads` *and* any `--sim-threads`).

use freezetag::core::{bounds, run_algorithm, solve, Algorithm};
use freezetag::exp::{
    agg, emit, journal, serve, AlgSpec, Engine, EngineConfig, ExperimentPlan, ScenarioSpec,
    SubmitOptions,
};
use freezetag::instances::registry::{self, GeneratorInfo, ParamMap};
use freezetag::instances::{AdmissibleTuple, Instance};
use freezetag::sim::svg::{render_run, SvgOptions};
use freezetag::sim::{ConcreteWorld, Sim};
use std::collections::HashMap;
use std::fmt::Write as _;
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
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage:
  dftp solve    --alg <separator|grid|wave> --gen <GEN> [GEN OPTIONS]
                [--strategy <quadtree|greedy|median|chain>]  (separator only)
                [--algorithm <central:STRATEGY|central-anytime|optimal>]
                [--time-budget <SECS>] [--workers <N>]  (central-anytime only)
  dftp compare  --gen <GEN> [GEN OPTIONS]
  dftp params   --gen <GEN> [GEN OPTIONS]
  dftp svg      --alg <ALG> --gen <GEN> [GEN OPTIONS] --out <FILE>
  dftp generate --gen <GEN> [GEN OPTIONS] [--out <FILE>]
  dftp sweep    --scenarios <SPEC[,SPEC...]> [--algs <A[,A...]>]
                [--algorithms <A[,A...]>] [--seeds <K>] [--plan-seed <S>]
                [--threads <N>] [--sim-threads <N>]
                [--profile <full|stats|compressed>]
                [--format <json|jsonl|csv>] [--flush-every <K>]
                [--out <FILE>] [--resume] [--bench-json <FILE>] [--name <NAME>]
  dftp serve    [--port <P>] [--threads <N>] [--cache-capacity <K>]
                [--queue-depth <D>]

sweep scenario spec:  GEN[:key=value...]          e.g. disk:n=40:radius=8
sweep algorithms:     separator[:STRATEGY] | grid | wave |
                      central:STRATEGY | central-anytime | optimal
                      (default: separator,grid,wave)
solve --algorithm:    run a centralized baseline on the generated instance;
                      central-anytime is the parallel anytime optimizer —
                      --workers sets execution threads only (output is
                      byte-identical for any count) and --time-budget caps
                      wall clock, returning the best tree found so far
sweep --algorithms:   keep only the named algorithms of the plan's axis —
                      re-run one algorithm's cells without editing the plan
                      (names are validated; an empty intersection errors)
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
sweep streaming:      with --out, records stream to the file as jobs finish
                      (bounded memory); --flush-every <K> flushes the file
                      every K records (default 64)
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

generators (defaults in parentheses; unseeded generators ignore --seed):
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
            .map(|p| format!("--{} ({})", p.key, p.default))
            .collect();
        let _ = writeln!(out, "  {name:<34} {}", params.join(" "));
    }
    out.push_str(
        "\nthe adversarial layouts (theorem2, theorem3) run via solve and sweep;\n\
         compare/params/svg/generate need a concrete instance and reject them.",
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

/// Rejects any `--key` the command does not understand. `allowed` holds
/// the command's own keys; generator parameters are appended by the
/// caller, so `dftp solve --gen lattice --radius 5` is an error too.
fn check_keys(cmd: &str, opts: &HashMap<String, String>, allowed: &[&str]) -> Result<(), String> {
    for key in opts.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown option '--{key}' for '{cmd}' (accepted: {})",
                allowed
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    Ok(())
}

fn get_u(opts: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer")),
    }
}

/// Resolves `--gen` against the registry and checks all provided keys
/// against `base` (command keys) plus the generator's own parameters.
fn resolve_generator(
    cmd: &str,
    opts: &HashMap<String, String>,
    base: &[&str],
) -> Result<(&'static GeneratorInfo, ParamMap), String> {
    let gen = opts.get("gen").map(String::as_str).unwrap_or("disk");
    let info = registry::lookup(gen).ok_or_else(|| {
        format!(
            "unknown generator '{gen}' (known: {})",
            registry::GENERATORS
                .iter()
                .map(|g| g.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let mut allowed: Vec<&str> = base.to_vec();
    allowed.extend(["gen", "seed"]);
    allowed.extend(info.params.iter().map(|p| p.key));
    check_keys(cmd, opts, &allowed)?;
    let mut params = ParamMap::new();
    for spec in info.params {
        if let Some(raw) = opts.get(spec.key) {
            let value: f64 = raw
                .parse()
                .map_err(|_| format!("--{} expects a number", spec.key))?;
            params.insert(spec.key.to_string(), value);
        }
    }
    Ok((info, params))
}

fn build_instance(
    cmd: &str,
    opts: &HashMap<String, String>,
    base: &[&str],
) -> Result<Instance, String> {
    let (info, params) = resolve_generator(cmd, opts, base)?;
    let seed = get_u(opts, "seed", 1)? as u64;
    registry::build_instance(info.name, &params, seed).map_err(|e| e.to_string())
}

fn parse_alg(opts: &HashMap<String, String>) -> Result<Algorithm, String> {
    match opts.get("alg").map(String::as_str) {
        Some("separator") | None => Ok(Algorithm::Separator),
        Some("grid") => Ok(Algorithm::Grid),
        Some("wave") => Ok(Algorithm::Wave),
        Some(other) => Err(format!("unknown algorithm '{other}'")),
    }
}

fn parse_strategy(
    opts: &HashMap<String, String>,
) -> Result<freezetag::central::WakeStrategy, String> {
    use freezetag::central::WakeStrategy;
    match opts.get("strategy").map(String::as_str) {
        None | Some("quadtree") => Ok(WakeStrategy::Quadtree),
        Some("greedy") => Ok(WakeStrategy::Greedy),
        Some("median") => Ok(WakeStrategy::MedianSplit),
        Some("chain") => Ok(WakeStrategy::Chain),
        Some(other) => Err(format!("unknown strategy '{other}'")),
    }
}

fn print_report(inst: &Instance, alg: Algorithm) -> Result<(), String> {
    let tuple = inst.admissible_tuple();
    let rep = solve(inst, &tuple, alg).map_err(|e| e.to_string())?;
    let params = inst.params(Some(tuple.ell));
    let xi = params.xi_ell.unwrap_or(f64::NAN);
    let bound = match alg {
        Algorithm::Separator => bounds::separator_makespan_bound(tuple.rho, tuple.ell),
        Algorithm::Grid => bounds::grid_makespan_bound(xi, tuple.ell),
        Algorithm::Wave => bounds::wave_makespan_bound(xi, tuple.ell),
    };
    println!("{alg} on n={} (tuple {tuple}):", inst.n());
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
    Ok(())
}

/// `dftp solve --algorithm ...`: the centralized baselines, which build a
/// wake tree directly on the generated instance instead of driving the
/// simulator. Prints the tree digest so runs are byte-comparable — the
/// CI determinism leg diffs this output across `--workers 1/2/4`.
fn cmd_solve_central(
    opts: &HashMap<String, String>,
    spec: AlgSpec,
    info: &'static GeneratorInfo,
    params: ParamMap,
    seed: u64,
) -> Result<(), String> {
    use freezetag::central::{anytime_wake_tree, optimal_makespan, AnytimeConfig};
    use freezetag::sim::{CancelToken, ParPool, RobotId};
    if info.adversarial {
        return Err(format!(
            "{} needs known positions; the adversarial generator '{}' has none",
            spec.label(),
            info.name
        ));
    }
    if spec != AlgSpec::CentralAnytime {
        for key in ["time-budget", "workers"] {
            if opts.contains_key(key) {
                return Err(format!(
                    "--{key} only applies to --algorithm central-anytime, not {}",
                    spec.label()
                ));
            }
        }
    }
    let inst = registry::build_instance(info.name, &params, seed).map_err(|e| e.to_string())?;
    let items: Vec<(RobotId, freezetag::geometry::Point)> = inst
        .positions()
        .iter()
        .enumerate()
        .map(|(i, &p)| (RobotId::sleeper(i), p))
        .collect();
    match spec {
        AlgSpec::Central(strategy) => {
            let tree = strategy.build(inst.source(), &items);
            println!(
                "{} on n={}: makespan {:.4}, total length {:.4}",
                spec.label(),
                inst.n(),
                tree.makespan(),
                tree.total_length()
            );
            println!("  tree digest {:#018x}", tree.digest());
        }
        AlgSpec::CentralAnytime => {
            let workers = get_u(opts, "workers", 1)?;
            if workers == 0 {
                return Err("--workers must be at least 1".to_string());
            }
            let time_budget = match opts.get("time-budget") {
                None => None,
                Some(raw) => {
                    let secs: f64 = raw
                        .parse()
                        .map_err(|_| "--time-budget expects seconds (a number)".to_string())?;
                    if secs <= 0.0 || !secs.is_finite() {
                        return Err(format!("--time-budget must be positive, got {raw}"));
                    }
                    let budget = std::time::Duration::try_from_secs_f64(secs)
                        .map_err(|_| format!("--time-budget {raw} is too large for a duration"))?;
                    Some(budget)
                }
            };
            let config = AnytimeConfig {
                time_budget,
                ..AnytimeConfig::default()
            };
            let report = anytime_wake_tree(
                inst.source(),
                &items,
                &config,
                seed,
                &ParPool::new(workers),
                &CancelToken::never(),
            );
            println!(
                "{} on n={}: makespan {:.4} (initial {:.4}), total length {:.4}",
                spec.label(),
                inst.n(),
                report.tree.makespan(),
                report.initial_makespan,
                report.tree.total_length()
            );
            // Time-budgeted runs stop at a wall-clock-dependent round, so
            // the counters below (and possibly the tree) are only
            // reproducible under the default fixed iteration budget.
            println!(
                "  rounds {}, moves {} tried / {} accepted",
                report.rounds_run, report.moves_tried, report.moves_accepted
            );
            println!("  tree digest {:#018x}", report.tree.digest());
        }
        AlgSpec::CentralOptimal => {
            if inst.n() > 10 {
                return Err(format!(
                    "--algorithm optimal is branch-and-bound; n={} > 10",
                    inst.n()
                ));
            }
            let m = optimal_makespan(inst.source(), inst.positions());
            println!("{} on n={}: makespan {:.4}", spec.label(), inst.n(), m);
        }
        AlgSpec::Distributed { .. } => unreachable!("routed through --alg"),
    }
    Ok(())
}

fn cmd_solve(opts: &HashMap<String, String>) -> Result<(), String> {
    let alg = parse_alg(opts)?;
    let strategy = parse_strategy(opts)?;
    if opts.contains_key("strategy") && alg != Algorithm::Separator {
        return Err(format!(
            "--strategy only applies to --alg separator, not {alg}"
        ));
    }
    let (info, params) = resolve_generator(
        "solve",
        opts,
        &["alg", "strategy", "algorithm", "time-budget", "workers"],
    )?;
    let seed = get_u(opts, "seed", 1)? as u64;
    // --algorithm takes the full sweep-grammar spec and routes the
    // centralized baselines (wake trees on known positions); the
    // simulator-driven distributed algorithms keep their --alg spelling.
    if let Some(text) = opts.get("algorithm") {
        if opts.contains_key("alg") || opts.contains_key("strategy") {
            return Err("--algorithm replaces --alg/--strategy; give only one".to_string());
        }
        let spec = AlgSpec::parse(text).map_err(|e| e.to_string())?;
        if let AlgSpec::Distributed { .. } = spec {
            return Err(format!(
                "'{text}' is a distributed algorithm — use --alg {text} (with --strategy \
                 for a separator override)"
            ));
        }
        return cmd_solve_central(opts, spec, info, params, seed);
    }
    for key in ["time-budget", "workers"] {
        if opts.contains_key(key) {
            return Err(format!(
                "--{key} only applies to --algorithm central-anytime"
            ));
        }
    }
    // Two cases route through Engine::single: a Lemma 2 strategy
    // override (only ASeparator may deviate from the O(R) quadtree; see
    // core::separator docs), and the adversarial layouts, which have no
    // concrete instance for print_report to analyse.
    if info.adversarial || strategy != freezetag::central::WakeStrategy::Quadtree {
        let spec = ScenarioSpec {
            name: info.name.to_string(),
            generator: info.name.to_string(),
            params,
        };
        let algspec = if strategy != freezetag::central::WakeStrategy::Quadtree {
            AlgSpec::separator_with(strategy)
        } else {
            AlgSpec::from(alg)
        };
        let run = Engine::default()
            .single(&spec, algspec, seed)
            .map_err(|e| e.to_string())?;
        println!(
            "{} on n={}: makespan {:.2}, all awake: {}",
            algspec.label(),
            run.n,
            run.report.makespan,
            run.report.all_awake
        );
        return Ok(());
    }
    let inst = registry::build_instance(info.name, &params, seed).map_err(|e| e.to_string())?;
    print_report(&inst, alg)
}

fn cmd_compare(opts: &HashMap<String, String>) -> Result<(), String> {
    let inst = build_instance("compare", opts, &[])?;
    for alg in [Algorithm::Separator, Algorithm::Grid, Algorithm::Wave] {
        print_report(&inst, alg)?;
    }
    Ok(())
}

fn cmd_params(opts: &HashMap<String, String>) -> Result<(), String> {
    let inst = build_instance("params", opts, &[])?;
    let p = inst.params(None);
    let tuple = AdmissibleTuple::rounded(p.ell_star, p.rho_star, inst.n())?;
    println!("n     = {}", inst.n());
    println!("ρ*    = {:.4}", p.rho_star);
    println!("ℓ*    = {:.4}", p.ell_star);
    println!("ξ_ℓ*  = {:?}", p.xi_ell);
    println!("tuple = {tuple}");
    Ok(())
}

fn cmd_svg(opts: &HashMap<String, String>) -> Result<(), String> {
    let inst = build_instance("svg", opts, &["alg", "out"])?;
    let alg = parse_alg(opts)?;
    let out = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| "dftp_run.svg".to_string());
    let tuple = inst.admissible_tuple();
    let mut sim = Sim::new(ConcreteWorld::new(&inst));
    run_algorithm(&mut sim, &tuple, alg);
    let (_, schedule, _) = sim.into_parts();
    let svg = render_run(
        inst.source(),
        inst.positions(),
        Some(&schedule),
        &[],
        &SvgOptions::default(),
    );
    std::fs::write(&out, svg).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let inst = build_instance("generate", opts, &["out"])?;
    let csv = freezetag::instances::io::to_csv(&inst);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, csv).map_err(|e| e.to_string())?;
            println!("wrote {path} ({} robots + source)", inst.n());
        }
        None => print!("{csv}"),
    }
    Ok(())
}

fn cmd_sweep(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut allowed = ExperimentPlan::OPTION_KEYS.to_vec();
    allowed.extend([
        "algorithms",
        "threads",
        "format",
        "flush-every",
        "out",
        "bench-json",
        "resume",
    ]);
    check_keys("sweep", opts, &allowed)?;
    let mut plan = ExperimentPlan::from_options(opts, "sweep", "--").map_err(|e| e.to_string())?;
    // --algorithms filters the plan's algorithm axis (perf work re-runs a
    // single algorithm's cells without editing the plan). Names are
    // validated through the same parser, so a typo fails loudly; a filter
    // that empties the axis is an error, not a silent no-op sweep.
    if let Some(filter_text) = opts.get("algorithms") {
        let keep: Vec<AlgSpec> = filter_text
            .split(',')
            .map(AlgSpec::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for k in &keep {
            if !plan.algorithms.contains(k) {
                return Err(format!(
                    "--algorithms keeps '{}' but the plan's axis is [{}]",
                    k.label(),
                    plan.algorithms
                        .iter()
                        .map(AlgSpec::label)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        plan.algorithms.retain(|a| keep.contains(a));
    }
    let threads = get_u(opts, "threads", 1)?;
    // Reject a bad --format / --flush-every (and an invalid plan) before
    // the sweep runs — and before --out truncates an existing file — not
    // after hours of jobs whose output would then be discarded.
    let format = opts.get("format").map(String::as_str).unwrap_or("json");
    if !matches!(format, "json" | "jsonl" | "csv") {
        return Err(format!("unknown format '{format}' (json|jsonl|csv)"));
    }
    let flush_every = get_u(opts, "flush-every", 64)?;
    if flush_every == 0 {
        return Err("--flush-every must be at least 1".to_string());
    }
    let resume = opts.contains_key("resume");
    if resume && (opts.get("out").is_none() || !matches!(format, "jsonl" | "csv")) {
        return Err(
            "--resume needs --out with --format jsonl or csv (the record-per-line formats \
             whose completed prefix is resumable)"
                .to_string(),
        );
    }
    plan.validate().map_err(|e| e.to_string())?;
    let engine = Engine::with_threads(threads);

    let started = Instant::now();
    let aggregates = match opts.get("out") {
        // Streaming path: every record goes to the file the moment its
        // job (and every lower-indexed job) finishes, so a 10⁶-robot
        // sweep never holds more than a bounded window of results — and
        // a crash mid-sweep leaves all completed records on disk, with a
        // FILE.journal sidecar that lets --resume pick up where it
        // stopped. The bytes written are identical to the buffered
        // path's.
        Some(path) => {
            let out = std::path::Path::new(path);
            let fingerprint = journal::plan_fingerprint(&plan, format);
            let (file, first_job, header_present) = if resume {
                match journal::read_journal(out).map_err(|e| e.to_string())? {
                    None => {
                        return Err(format!(
                            "--resume found no journal at {path}.journal — either the sweep \
                             completed (nothing to resume) or it never started; rerun without \
                             --resume"
                        ))
                    }
                    Some(recorded) if recorded != fingerprint => {
                        return Err(format!(
                            "--resume plan mismatch: {path}.journal records a different \
                             plan/format than the one given — resuming would interleave \
                             records of two different sweeps"
                        ))
                    }
                    Some(_) => {}
                }
                let state = journal::resume_point(out, format == "csv")
                    .map_err(|e| format!("cannot prepare {path} for resume: {e}"))?;
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(out)
                    .map(std::io::BufWriter::new)
                    .map_err(|e| format!("cannot open {path}: {e}"))?;
                eprintln!(
                    "resuming {path} at job {} of {}",
                    state.records,
                    plan.job_count()
                );
                (file, state.records, state.header_present)
            } else {
                if matches!(format, "jsonl" | "csv") {
                    journal::write_journal(out, &fingerprint)
                        .map_err(|e| format!("cannot write {path}.journal: {e}"))?;
                }
                let file = std::fs::File::create(path)
                    .map(std::io::BufWriter::new)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                (file, 0, false)
            };
            let mut sink = match format {
                "jsonl" => Some(emit::JobStreamWriter::jsonl(file, flush_every)),
                "csv" if header_present => {
                    Some(emit::JobStreamWriter::csv_resumed(file, flush_every))
                }
                "csv" => Some(
                    emit::JobStreamWriter::csv(file, flush_every)
                        .map_err(|e| format!("cannot write {path}: {e}"))?,
                ),
                // The aggregate document is written once at the end; the
                // sweep still streams through the accumulator.
                _ => None,
            };
            let mut streaming_agg = agg::StreamingAgg::new();
            let stream = engine
                .submit_with(
                    &plan,
                    SubmitOptions {
                        deadline: None,
                        first_job,
                    },
                )
                .map_err(|e| e.to_string())?;
            for item in stream {
                let r = item.map_err(|e| e.to_string())?;
                streaming_agg.push(&r);
                if let Some(w) = sink.as_mut() {
                    w.write(&r)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                }
            }
            let job_count = streaming_agg.job_count();
            let aggregates = streaming_agg.finish();
            match sink {
                Some(w) => {
                    w.finish()
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    // Every record landed: the journal's "incomplete
                    // prefix" claim no longer holds.
                    journal::clear_journal(out)
                        .map_err(|e| format!("cannot remove {path}.journal: {e}"))?;
                }
                None => {
                    let doc = emit::aggregates_to_json(&plan, &aggregates);
                    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
                }
            }
            let total_wall = started.elapsed().as_secs_f64();
            print!("{}", emit::aggregates_to_markdown(&aggregates));
            let workers = freezetag::exp::inter_job_workers(threads, plan.sim_threads, job_count);
            println!(
                "\n{} jobs on {} worker(s) x {} sim thread(s) in {:.2}s — wrote {path}",
                job_count, workers, plan.sim_threads, total_wall
            );
            aggregates
        }
        None => {
            let results = engine.run(&plan).map_err(|e| e.to_string())?;
            let aggregates = agg::aggregate(&results);
            let payload = match format {
                "json" => emit::aggregates_to_json(&plan, &aggregates),
                "jsonl" => emit::jobs_to_jsonl(&results),
                "csv" => emit::jobs_to_csv(&results),
                other => unreachable!("format '{other}' validated above"),
            };
            print!("{payload}");
            aggregates
        }
    };
    if let Some(path) = opts.get("bench-json") {
        let total_wall = started.elapsed().as_secs_f64();
        let doc = emit::bench_results_json(&plan, &aggregates, threads, total_wall);
        std::fs::write(path, doc).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    check_keys(
        "serve",
        opts,
        &["port", "threads", "cache-capacity", "queue-depth"],
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
        return Err("--queue-depth must be at least 1".to_string());
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
    let server = serve::Server::spawn(config).map_err(|e| format!("cannot bind: {e}"))?;
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

fn run(cmd: &str, opts: &HashMap<String, String>) -> Result<(), String> {
    match cmd {
        "solve" => cmd_solve(opts),
        "compare" => cmd_compare(opts),
        "params" => cmd_params(opts),
        "svg" => cmd_svg(opts),
        "generate" => cmd_generate(opts),
        "sweep" => cmd_sweep(opts),
        "serve" => cmd_serve(opts),
        other => Err(format!("unknown command '{other}'")),
    }
}
