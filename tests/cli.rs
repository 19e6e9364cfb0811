//! Integration tests for the `dftp` command-line driver: the documented
//! subcommands succeed on small deterministic instances, and malformed
//! invocations fail with usage text on stderr.

use std::process::{Command, Output};

fn dftp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dftp"))
        .args(args)
        .output()
        .expect("failed to spawn dftp")
}

/// [`dftp`] with the arguments of one whitespace-separated command line.
fn dftp_line(line: &str) -> Output {
    dftp(&line.split_whitespace().collect::<Vec<_>>())
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn solve_separator_on_disk_succeeds() {
    let out = dftp(&[
        "solve",
        "--alg",
        "separator",
        "--scenario",
        "disk:n=50:radius=10",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("ASeparator"),
        "missing algorithm name: {text}"
    );
    assert!(text.contains("makespan"), "missing makespan line: {text}");
    assert!(text.contains("all awake"), "missing all-awake line: {text}");
    assert!(text.contains("true"), "robots left asleep: {text}");
}

#[test]
fn solve_is_deterministic_for_a_seed() {
    let args = [
        "solve",
        "--alg",
        "grid",
        "--scenario",
        "disk:n=40:radius=8",
        "--seed",
        "7",
    ];
    let a = dftp(&args);
    let b = dftp(&args);
    assert!(a.status.success());
    assert_eq!(stdout(&a), stdout(&b), "same seed must reproduce the run");
}

#[test]
fn params_reports_instance_parameters() {
    let out = dftp(&["params", "--scenario", "lattice:side=5:spacing=1.5"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in ["n     =", "ρ*", "ℓ*", "tuple"] {
        assert!(text.contains(needle), "missing `{needle}` in: {text}");
    }
}

#[test]
fn compare_runs_all_three_algorithms() {
    let out = dftp(&["compare", "--scenario", "snake:legs=2:leg=12:spacing=1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for alg in ["ASeparator", "AGrid", "AWave"] {
        assert!(
            text.contains(alg),
            "missing {alg} in compare output: {text}"
        );
    }
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = dftp(&[]);
    assert!(!out.status.success(), "bare invocation must fail");
    assert!(stderr(&out).contains("usage:"), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = dftp(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown command"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn unknown_algorithm_fails_with_usage() {
    let out = dftp(&["solve", "--alg", "teleport", "--scenario", "disk"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown algorithm"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn malformed_flag_value_fails_with_usage() {
    let out = dftp(&["solve", "--scenario", "disk:n=not-a-number"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("parameter 'n' expects a number"),
        "stderr: {err}"
    );
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn dangling_flag_fails_with_usage() {
    let out = dftp(&["solve", "--scenario"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_option_fails_with_usage() {
    let out = dftp(&["solve", "--scenario", "disk", "--frobnicate", "3"]);
    assert!(!out.status.success(), "unknown options must be rejected");
    let err = stderr(&out);
    assert!(
        err.contains("unknown option '--frobnicate'"),
        "stderr: {err}"
    );
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn option_of_a_different_generator_is_rejected() {
    // radius belongs to disk/ring, not to the lattice generator.
    let out = dftp(&["solve", "--scenario", "lattice:radius=5"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("has no parameter 'radius'"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn retired_generator_flags_are_unknown_options() {
    // `--scenario` is the one scenario flag; `--gen` and the per-parameter
    // flags error instead of being translated.
    for (line, flag) in [
        ("solve --gen disk", "--gen"),
        ("solve --scenario disk --n 5", "--n"),
    ] {
        let out = dftp_line(line);
        assert!(!out.status.success(), "{line} must be rejected");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown option '{flag}'")),
            "stderr: {err}"
        );
        assert!(err.contains("usage:"), "stderr: {err}");
    }
}

#[test]
fn strategy_on_non_separator_algorithm_is_rejected() {
    // Only ASeparator takes a Lemma 2 strategy; the sweep grammar has no
    // `grid:STRATEGY` form, so the override is rejected, never ignored.
    let out = dftp(&["solve", "--alg", "grid:chain", "--scenario", "disk"]);
    assert!(!out.status.success(), "grid:chain must not be ignored");
    let err = stderr(&out);
    assert!(
        err.contains("unknown algorithm spec 'grid:chain'"),
        "stderr: {err}"
    );
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn solve_central_anytime_is_byte_identical_across_workers() {
    let run = |workers: &str| {
        dftp(&[
            "solve",
            "--alg",
            "central-anytime",
            "--scenario",
            "disk:n=80:radius=15",
            "--seed",
            "4",
            "--workers",
            workers,
        ])
    };
    let one = run("1");
    assert!(one.status.success(), "stderr: {}", stderr(&one));
    let text = stdout(&one);
    assert!(text.contains("central[anytime] on n=80"), "{text}");
    assert!(text.contains("tree digest 0x"), "{text}");
    assert!(text.contains("rounds "), "{text}");
    for workers in ["2", "4"] {
        let par = run(workers);
        assert!(par.status.success(), "stderr: {}", stderr(&par));
        assert_eq!(
            text,
            stdout(&par),
            "solve output must be byte-identical at --workers {workers}"
        );
    }
}

/// Value pin of the anytime search at n = 500, where stream 0 starts from
/// the greedy tree. The digest and the tried/accepted counts were
/// recorded before the critical-chain filter; the filter must skip only
/// moves that would have been rejected, so they may never move.
#[test]
fn solve_central_anytime_pins_the_greedy_seeded_search() {
    let out = dftp_line(
        "solve --alg central-anytime --scenario disk:n=500:radius=40 --seed 1 --workers 2",
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "central[anytime] on n=500: makespan 53.0645 (initial 53.0645), total length 2931.6084\n\
         \x20 rounds 3, moves 24000 tried / 543 evaluated / 2 accepted\n\
         \x20 tree digest 0x486e69ad0f047fe2\n"
    );
}

#[test]
fn solve_central_strategy_and_optimal_run_without_the_simulator() {
    let out = dftp(&[
        "solve",
        "--alg",
        "central:greedy",
        "--scenario",
        "disk:n=30:radius=8",
        "--seed",
        "2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("central[greedy] on n=30"), "{text}");
    assert!(text.contains("tree digest 0x"), "{text}");
    let out = dftp(&[
        "solve",
        "--alg",
        "optimal",
        "--scenario",
        "disk:n=6:radius=4",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("central[optimal] on n=6"),
        "{}",
        stdout(&out)
    );
    // Branch and bound is exponential: a large n is an error, not a hang.
    let out = dftp(&["solve", "--alg", "optimal", "--scenario", "disk:n=50"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("n=50 > 10"), "{}", stderr(&out));
}

#[test]
fn solve_central_anytime_rejects_zero_budget_and_zero_workers() {
    let base = [
        "solve",
        "--alg",
        "central-anytime",
        "--scenario",
        "disk:n=20",
    ];
    let mut zero_workers = base.to_vec();
    zero_workers.extend(["--workers", "0"]);
    let out = dftp(&zero_workers);
    assert!(!out.status.success(), "--workers 0 must be rejected");
    assert!(
        stderr(&out).contains("--workers must be at least 1"),
        "stderr: {}",
        stderr(&out)
    );
    let mut zero_budget = base.to_vec();
    zero_budget.extend(["--time-budget", "0"]);
    let out = dftp(&zero_budget);
    assert!(!out.status.success(), "--time-budget 0 must be rejected");
    assert!(
        stderr(&out).contains("--time-budget must be positive"),
        "stderr: {}",
        stderr(&out)
    );
    let mut bad_budget = base.to_vec();
    bad_budget.extend(["--time-budget", "soon"]);
    let out = dftp(&bad_budget);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--time-budget expects seconds"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn solve_rejects_an_oversized_time_budget_cleanly() {
    // Positive and finite, but too large for a Duration: an error with
    // the usage text, not a panic.
    let out = dftp(&[
        "solve",
        "--alg",
        "central-anytime",
        "--scenario",
        "disk:n=20",
        "--time-budget",
        "1e20",
    ]);
    assert!(!out.status.success(), "--time-budget 1e20 must be rejected");
    let err = stderr(&out);
    assert!(
        err.contains("--time-budget 1e20 is too large"),
        "stderr: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must fail cleanly, not panic: {err}"
    );
}

#[test]
fn solve_central_option_combinations_are_validated() {
    // --workers/--time-budget without central-anytime.
    let out = dftp(&[
        "solve",
        "--alg",
        "central:greedy",
        "--scenario",
        "disk",
        "--workers",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--workers only applies to --alg central-anytime"),
        "stderr: {}",
        stderr(&out)
    );
    let out = dftp(&[
        "solve",
        "--alg",
        "grid",
        "--scenario",
        "disk",
        "--time-budget",
        "5",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--time-budget only applies"),
        "stderr: {}",
        stderr(&out)
    );
    // Centralized baselines need concrete positions.
    let out = dftp(&[
        "solve",
        "--alg",
        "central-anytime",
        "--scenario",
        "theorem2:n=40",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("needs known positions"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn solve_central_anytime_accepts_a_time_budget() {
    // A generous budget on a tiny instance: the iteration budget ends the
    // search long before the deadline, so the result is still the
    // deterministic fixed-iteration answer.
    let budgeted = dftp(&[
        "solve",
        "--alg",
        "central-anytime",
        "--scenario",
        "disk:n=40",
        "--seed",
        "6",
        "--time-budget",
        "120",
    ]);
    assert!(budgeted.status.success(), "stderr: {}", stderr(&budgeted));
    let unbudgeted = dftp(&[
        "solve",
        "--alg",
        "central-anytime",
        "--scenario",
        "disk:n=40",
        "--seed",
        "6",
    ]);
    assert_eq!(stdout(&budgeted), stdout(&unbudgeted));
}

#[test]
fn solve_runs_adversarial_layouts_through_the_engine() {
    let out = dftp(&[
        "solve",
        "--alg",
        "separator",
        "--scenario",
        "theorem2:ell=2:rho=8:n=40",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ASeparator on n="), "{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("  all awake") && l.ends_with(" true")),
        "{text}"
    );
}

#[test]
fn retired_solve_algorithm_flags_are_unknown_options() {
    // `--alg` is the one algorithm flag; the old `--strategy` and
    // `--algorithm` spellings error instead of being silently ignored.
    for (flag, value) in [("--algorithm", "central-anytime"), ("--strategy", "greedy")] {
        let out = dftp(&[
            "solve",
            "--alg",
            "separator",
            flag,
            value,
            "--scenario",
            "disk",
        ]);
        assert!(!out.status.success(), "{flag} must be rejected");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown option '{flag}'")),
            "stderr: {err}"
        );
        assert!(err.contains("usage:"), "stderr: {err}");
    }
}

/// The `  makespan` line's value from a `dftp solve`/`compare` report.
fn report_makespan(text: &str) -> String {
    text.lines()
        .find_map(|l| l.strip_prefix("  makespan"))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no makespan line in: {text}"))
        .to_string()
}

#[test]
fn solve_separator_strategy_matches_the_engine_record() {
    use freezetag::central::WakeStrategy;
    use freezetag::exp::{AlgSpec, Engine, ScenarioSpec};
    let out = dftp_line("solve --alg separator:greedy --scenario disk:n=40:radius=8 --seed 3");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ASeparator[greedy] on n=40"), "{text}");
    let spec = ScenarioSpec::new("disk")
        .with("n", 40.0)
        .with("radius", 8.0);
    let run = Engine::default()
        .single(&spec, AlgSpec::separator_with(WakeStrategy::Greedy), 3)
        .expect("engine run");
    assert_eq!(
        report_makespan(&text),
        format!("{:.2}", run.report.makespan)
    );
}

#[test]
fn solve_on_a_shrunk_scale_family_reports_its_sweep_tuple() {
    // A scale family declares ℓ; solve runs the sweep job path, so it
    // reports the tuple (and makespan) of the sweep record for that seed.
    let sweep = dftp_line(
        "sweep --scenarios uniform_1m:n=300:radius=10 --algs grid --seeds 1 --format jsonl",
    );
    assert!(sweep.status.success(), "stderr: {}", stderr(&sweep));
    let record = stdout(&sweep);
    let field = |key: &str| -> String {
        let at = record.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        record[at..]
            .split([',', '}'])
            .next()
            .expect("field value")
            .to_string()
    };
    let solve = dftp_line(&format!(
        "solve --alg grid --scenario uniform_1m:n=300:radius=10 --seed {}",
        field("seed")
    ));
    assert!(solve.status.success(), "stderr: {}", stderr(&solve));
    let text = stdout(&solve);
    let tuple = format!("(ℓ={}, ρ={}, n=300)", field("ell"), field("rho"));
    assert!(text.contains(&tuple), "want tuple {tuple} in: {text}");
    assert_eq!(field("ell"), "4", "the family's declared ℓ");
    let makespan: f64 = field("makespan").parse().expect("makespan");
    assert_eq!(report_makespan(&text), format!("{makespan:.2}"));
}

#[test]
fn compare_and_svg_run_adversarial_layouts() {
    let layout = "--scenario theorem2:ell=2:rho=8:n=20";
    let out = dftp_line(&format!("compare {layout}"));
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for alg in ["ASeparator", "AGrid", "AWave"] {
        assert!(text.contains(&format!("{alg} on n=20")), "{text}");
    }
    assert_eq!(
        text.lines()
            .filter(|l| l.starts_with("  all awake") && l.ends_with(" true"))
            .count(),
        3,
        "{text}"
    );
    let path = std::env::temp_dir().join(format!("dftp_adv_{}.svg", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = dftp_line(&format!("svg --alg grid --out {path_str} {layout}"));
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let svg = std::fs::read_to_string(&path).expect("svg file");
    std::fs::remove_file(&path).ok();
    assert!(
        svg.starts_with("<svg") && svg.contains("<polyline"),
        "{svg}"
    );
    // A centralized baseline has no trajectories to draw: a clean usage
    // error, not a panic.
    let out = dftp(&["svg", "--alg", "central:greedy", "--scenario", "disk"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("needs a distributed algorithm"),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn runtime_errors_print_the_error_without_usage() {
    // The invocation is fine; the output file cannot be created. That is
    // a one-line runtime error, not a usage error.
    let out = dftp_line(
        "sweep --scenarios disk:n=10 --algs grid --seeds 1 --out /nonexistent/dir/x.json",
    );
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.starts_with("error: cannot create"), "stderr: {err}");
    assert!(!err.contains("usage:"), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
}

#[test]
fn sweep_with_optimal_baseline_succeeds() {
    let out = dftp(&[
        "sweep",
        "--scenarios",
        "disk:n=8:radius=5",
        "--algs",
        "optimal,central:quadtree,separator:greedy",
        "--seeds",
        "2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("central[optimal]"), "{text}");
    assert!(
        text.contains("\"max_energy\":{\"mean\":null"),
        "unmeasured central energy must emit null: {text}"
    );
}

#[test]
fn unknown_sweep_option_and_format_are_rejected() {
    let out = dftp(&["sweep", "--scenarios", "disk", "--bogus", "1"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown option '--bogus'"),
        "stderr: {}",
        stderr(&out)
    );
    let out = dftp(&["sweep", "--scenarios", "disk:n=5", "--format", "yaml"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown format 'yaml'"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn sweep_emits_identical_json_for_any_thread_count() {
    let run = |threads: &str| {
        dftp(&[
            "sweep",
            "--scenarios",
            "disk:n=15:radius=5,ring:n=12:radius=6",
            "--algs",
            "grid,wave",
            "--seeds",
            "2",
            "--plan-seed",
            "5",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    let three = run("3");
    assert!(one.status.success(), "stderr: {}", stderr(&one));
    assert!(three.status.success(), "stderr: {}", stderr(&three));
    assert_eq!(
        stdout(&one),
        stdout(&three),
        "aggregated sweep JSON must be byte-identical across thread counts"
    );
    let text = stdout(&one);
    assert!(text.contains("\"groups\""), "missing groups: {text}");
    assert!(text.contains("\"makespan\""), "missing stats: {text}");
    assert!(text.contains("\"p95\""), "missing percentiles: {text}");
}

#[test]
fn sweep_stats_profile_matches_full_and_is_thread_stable() {
    let run = |profile: &str, threads: &str| {
        dftp(&[
            "sweep",
            "--scenarios",
            "disk:n=20:radius=6",
            "--algs",
            "grid,wave",
            "--seeds",
            "2",
            "--plan-seed",
            "9",
            "--profile",
            profile,
            "--threads",
            threads,
        ])
    };
    let stats1 = run("stats", "1");
    let stats4 = run("stats", "4");
    assert!(stats1.status.success(), "stderr: {}", stderr(&stats1));
    assert_eq!(
        stdout(&stats1),
        stdout(&stats4),
        "stats-profile sweep output must be byte-identical across threads"
    );
    let text = stdout(&stats1);
    assert!(text.contains("\"profile\": \"stats\""), "{text}");
    assert!(text.contains("\"peak_mem_bytes\""), "{text}");
    // The shared statistics agree with the full profile: compare after
    // erasing the fields that legitimately differ (profile label and
    // recorder memory).
    let full = stdout(&run("full", "1"));
    let strip = |t: &str| -> String {
        t.lines()
            .map(|l| {
                let l = match l.find("\"peak_mem_bytes\"") {
                    // The stats blob is the record's tail before `}`.
                    Some(i) => &l[..i],
                    None => l,
                };
                l.to_string()
            })
            .filter(|l| !l.contains("\"profile\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&text),
        strip(&full),
        "stats aggregates must match the full profile"
    );
}

#[test]
fn sweep_emits_identical_json_for_any_sim_thread_count() {
    let run = |sim_threads: &str| {
        dftp(&[
            "sweep",
            "--scenarios",
            "uniform_1m:n=5000:radius=30,disk:n=25:radius=6",
            "--algs",
            "grid",
            "--seeds",
            "2",
            "--plan-seed",
            "11",
            "--profile",
            "stats",
            "--sim-threads",
            sim_threads,
        ])
    };
    let one = run("1");
    assert!(one.status.success(), "stderr: {}", stderr(&one));
    for sim_threads in ["2", "4"] {
        let par = run(sim_threads);
        assert!(par.status.success(), "stderr: {}", stderr(&par));
        assert_eq!(
            stdout(&one),
            stdout(&par),
            "sweep output must be byte-identical at --sim-threads {sim_threads}"
        );
    }
    // And the two parallelism axes compose without touching output.
    let both = dftp(&[
        "sweep",
        "--scenarios",
        "uniform_1m:n=5000:radius=30,disk:n=25:radius=6",
        "--algs",
        "grid",
        "--seeds",
        "2",
        "--plan-seed",
        "11",
        "--profile",
        "stats",
        "--threads",
        "2",
        "--sim-threads",
        "2",
    ]);
    assert!(both.status.success(), "stderr: {}", stderr(&both));
    assert_eq!(stdout(&one), stdout(&both), "--threads x --sim-threads");
}

#[test]
fn sweep_rejects_zero_sim_threads_cleanly() {
    let out = dftp(&["sweep", "--scenarios", "disk:n=10", "--sim-threads", "0"]);
    assert!(!out.status.success(), "--sim-threads 0 must be an error");
    let err = stderr(&out);
    assert!(
        err.contains("--sim-threads must be at least 1"),
        "stderr: {err}"
    );
    assert!(err.contains("usage:"), "stderr: {err}");
    assert!(
        !err.contains("panicked"),
        "must fail cleanly, not panic: {err}"
    );
}

#[test]
fn sweep_rejects_unknown_profile_and_adversarial_stats() {
    let out = dftp(&["sweep", "--scenarios", "disk:n=5", "--profile", "lossy"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown profile 'lossy'"),
        "stderr: {}",
        stderr(&out)
    );
    let out = dftp(&[
        "sweep",
        "--scenarios",
        "theorem2:n=20",
        "--algs",
        "separator",
        "--profile",
        "stats",
    ]);
    assert!(
        !out.status.success(),
        "adversarial + stats must be rejected"
    );
    assert!(
        stderr(&out).contains("full profile"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn sweep_jsonl_has_one_record_per_job() {
    let out = dftp(&[
        "sweep",
        "--scenarios",
        "disk:n=10:radius=4",
        "--algs",
        "grid",
        "--seeds",
        "3",
        "--format",
        "jsonl",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 3, "3 jobs expected: {text}");
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"algorithm\":\"AGrid\""), "{line}");
    }
}

#[test]
fn generate_round_trips_through_the_csv_loader() {
    let path = std::env::temp_dir().join(format!("dftp_gen_{}.csv", std::process::id()));
    let out = dftp(&[
        "generate",
        "--scenario",
        "disk:n=12:radius=4",
        "--seed",
        "3",
        "--out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("generated file");
    std::fs::remove_file(&path).ok();
    let inst = freezetag::instances::io::from_csv(&text).expect("parseable CSV");
    assert_eq!(inst.n(), 12);
    assert_eq!(
        inst,
        freezetag::instances::generators::uniform_disk(12, 4.0, 3),
        "generate must write exactly the registry instance"
    );
}

#[test]
fn sweep_single_algorithm_rows_pair_with_the_full_plan() {
    // A one-algorithm sweep must produce exactly the wave cells of the
    // full plan — same derived seeds (they key on scenario × repetition,
    // not on the algorithm), so results pair with a full run's wave rows.
    let sweep_of = |algs| {
        dftp(&[
            "sweep",
            "--scenarios",
            "disk:n=15:radius=5",
            "--algs",
            algs,
            "--seeds",
            "2",
            "--plan-seed",
            "9",
            "--format",
            "jsonl",
        ])
    };
    let full = sweep_of("separator,grid,wave");
    assert!(full.status.success(), "stderr: {}", stderr(&full));
    let wave_only = sweep_of("wave");
    assert!(wave_only.status.success(), "stderr: {}", stderr(&wave_only));
    let full_text = stdout(&full);
    assert_eq!(
        full_text
            .lines()
            .filter(|l| l.contains("\"algorithm\":\"AWave\""))
            .count(),
        2
    );
    let wave_text = stdout(&wave_only);
    assert_eq!(wave_text.lines().count(), 2, "{wave_text}");
    // Every one-algorithm row is an AWave row with a seed present in the
    // full run's wave rows (the paired design needs no filter).
    let seed_of = |line: &str| -> String {
        let at = line.find("\"seed\":").expect("seed field");
        line[at..]
            .split(',')
            .next()
            .expect("seed value")
            .to_string()
    };
    let full_wave_seeds: Vec<String> = full_text
        .lines()
        .filter(|l| l.contains("\"algorithm\":\"AWave\""))
        .map(seed_of)
        .collect();
    for line in wave_text.lines() {
        assert!(line.contains("\"algorithm\":\"AWave\""), "{line}");
        assert!(
            full_wave_seeds.contains(&seed_of(line)),
            "wave-only job ran an unpaired seed: {line}"
        );
    }
}

#[test]
fn scale_families_resolve_on_the_cli() {
    // Shrunk members of the 100k families run end to end through the
    // stats profile (the full-size defaults are CI's scale smoke).
    let out = dftp(&[
        "sweep",
        "--scenarios",
        "wave_100k:n=40:radius=8,separator_100k:n=40:radius=8",
        "--algs",
        "wave",
        "--seeds",
        "1",
        "--profile",
        "stats",
        "--format",
        "jsonl",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 2, "{text}");
    for line in text.lines() {
        assert!(line.contains("\"all_awake\":true"), "{line}");
        assert!(line.contains("\"ell\":4"), "declared ell must flow: {line}");
    }
}

#[test]
fn sweep_streamed_out_file_matches_the_buffered_stdout_bytes() {
    // Stdout and --out are two sinks of one streaming loop; the file must
    // hold exactly the bytes stdout prints — modulo wall_time_s, the one
    // field a machine may change between the two runs.
    let strip_wall = |text: &str| -> String {
        text.lines()
            .map(|l| match l.find(",\"wall_time_s\":") {
                Some(i) => format!("{}}}", &l[..i]),
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let base = [
        "sweep",
        "--scenarios",
        "disk:n=15:radius=5,ring:n=12:radius=6",
        "--algs",
        "grid,wave",
        "--seeds",
        "2",
        "--plan-seed",
        "5",
        "--threads",
        "3",
        "--format",
        "jsonl",
    ];
    let buffered = dftp(&base);
    assert!(buffered.status.success(), "stderr: {}", stderr(&buffered));
    let path = std::env::temp_dir().join(format!("dftp_stream_{}.jsonl", std::process::id()));
    let mut streamed_args = base.to_vec();
    let path_str = path.to_str().expect("utf-8 temp path");
    streamed_args.extend(["--out", path_str, "--flush-every", "2"]);
    let streamed = dftp(&streamed_args);
    assert!(streamed.status.success(), "stderr: {}", stderr(&streamed));
    let file = std::fs::read_to_string(&path).expect("streamed file");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        strip_wall(&file),
        strip_wall(&stdout(&buffered)),
        "streamed --out bytes must match the stdout records"
    );
    // With --out, stdout carries the summary table instead of records.
    let summary = stdout(&streamed);
    assert!(summary.contains("| scenario |"), "{summary}");
    assert!(summary.contains("8 jobs on"), "{summary}");
}

#[test]
fn sweep_streamed_csv_and_json_formats_write_well_formed_files() {
    let path = std::env::temp_dir().join(format!("dftp_stream_{}.out", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let run = |format: &str| {
        dftp(&[
            "sweep",
            "--scenarios",
            "disk:n=10:radius=4",
            "--algs",
            "grid",
            "--seeds",
            "2",
            "--format",
            format,
            "--out",
            path_str,
        ])
    };
    let csv = run("csv");
    assert!(csv.status.success(), "stderr: {}", stderr(&csv));
    let text = std::fs::read_to_string(&path).expect("csv file");
    assert!(text.starts_with("job,scenario"), "{text}");
    assert_eq!(text.lines().count(), 3, "header + 2 rows: {text}");
    let json = run("json");
    assert!(json.status.success(), "stderr: {}", stderr(&json));
    let text = std::fs::read_to_string(&path).expect("json file");
    std::fs::remove_file(&path).ok();
    assert!(text.contains("\"groups\""), "{text}");
    assert!(
        !text.contains("wall_time"),
        "aggregate doc must stay deterministic: {text}"
    );
}

#[test]
fn sweep_rejects_zero_flush_cadence_and_compressed_adversarial() {
    let out = dftp(&["sweep", "--scenarios", "disk:n=5", "--flush-every", "0"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--flush-every must be at least 1"),
        "stderr: {}",
        stderr(&out)
    );
    let out = dftp(&[
        "sweep",
        "--scenarios",
        "theorem2:n=20",
        "--algs",
        "separator",
        "--profile",
        "compressed",
    ]);
    assert!(
        !out.status.success(),
        "adversarial + compressed must be rejected"
    );
    assert!(
        stderr(&out).contains("full profile"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn sweep_compressed_profile_matches_full_aggregates_on_the_cli() {
    let run = |profile: &str| {
        dftp(&[
            "sweep",
            "--scenarios",
            "disk:n=20:radius=6",
            "--algs",
            "grid,wave",
            "--seeds",
            "2",
            "--plan-seed",
            "9",
            "--profile",
            profile,
            "--threads",
            "2",
        ])
    };
    let compressed = run("compressed");
    assert!(
        compressed.status.success(),
        "stderr: {}",
        stderr(&compressed)
    );
    let text = stdout(&compressed);
    assert!(text.contains("\"profile\": \"compressed\""), "{text}");
    // Validated + aggregate-identical: erase the fields that legitimately
    // differ (profile label, recorder memory) and compare with full.
    let full = stdout(&run("full"));
    let strip = |t: &str| -> String {
        t.lines()
            .map(|l| match l.find("\"peak_mem_bytes\"") {
                Some(i) => l[..i].to_string(),
                None => l.to_string(),
            })
            .filter(|l| !l.contains("\"profile\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&text),
        strip(&full),
        "compressed aggregates must match the full profile"
    );
}

#[test]
fn sweep_resume_completes_an_interrupted_out_file_byte_identically() {
    use freezetag::core::Algorithm;
    use freezetag::exp::{journal, ExperimentPlan, ScenarioSpec};
    let strip_wall = |text: &str| -> String {
        text.lines()
            .map(|l| match l.find(",\"wall_time_s\":") {
                Some(i) => format!("{}}}", &l[..i]),
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let dir = std::env::temp_dir().join(format!("dftp_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reference = dir.join("ref.jsonl");
    let partial = dir.join("part.jsonl");
    let args = |out: &str| {
        vec![
            "sweep".to_string(),
            "--scenarios".into(),
            "disk:n=15:radius=5".into(),
            "--algs".into(),
            "grid,wave".into(),
            "--seeds".into(),
            "2".into(),
            "--plan-seed".into(),
            "5".into(),
            "--format".into(),
            "jsonl".into(),
            "--out".into(),
            out.to_string(),
        ]
    };
    let full = dftp(
        &args(reference.to_str().unwrap())
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(full.status.success(), "stderr: {}", stderr(&full));
    assert!(
        !journal::journal_path(&reference).exists(),
        "completed sweep must clear its journal"
    );
    let complete = std::fs::read_to_string(&reference).expect("reference file");
    assert_eq!(complete.lines().count(), 4);

    // Fabricate the on-disk state an interruption leaves: two complete
    // records, a torn third, and the journal still standing.
    let mut torn: String = complete.lines().take(2).map(|l| format!("{l}\n")).collect();
    torn.push_str("{\"job\":2,\"scen");
    std::fs::write(&partial, torn).expect("write partial");
    let plan = ExperimentPlan::new("sweep")
        .scenario(ScenarioSpec::parse("disk:n=15:radius=5").expect("spec"))
        .algorithm(Algorithm::Grid)
        .algorithm(Algorithm::Wave)
        .seeds(2)
        .plan_seed(5);
    journal::write_journal(&partial, &journal::plan_fingerprint(&plan, "jsonl"))
        .expect("write journal");

    let mut resume_args = args(partial.to_str().unwrap());
    resume_args.push("--resume".into());
    let resumed = dftp(&resume_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert!(
        stderr(&resumed).contains("resuming"),
        "stderr: {}",
        stderr(&resumed)
    );
    let text = std::fs::read_to_string(&partial).expect("resumed file");
    assert_eq!(
        strip_wall(&text),
        strip_wall(&complete),
        "resumed file must hold the exact bytes of an unbroken run"
    );
    assert!(
        !journal::journal_path(&partial).exists(),
        "resumed completion must clear the journal"
    );

    // Error paths: --resume without a journal, and against a journal
    // recording a different plan.
    let rerun = dftp(&resume_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(!rerun.status.success());
    assert!(stderr(&rerun).contains("no journal"), "{}", stderr(&rerun));
    journal::write_journal(
        &partial,
        &journal::plan_fingerprint(&plan.clone().seeds(3), "jsonl"),
    )
    .expect("write journal");
    let mismatched = dftp(&resume_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(!mismatched.status.success());
    assert!(
        stderr(&mismatched).contains("mismatch"),
        "{}",
        stderr(&mismatched)
    );
    std::fs::remove_dir_all(&dir).ok();
}
