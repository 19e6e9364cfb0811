//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one benchmark workload and prints its metrics, ending with one
//! JSON result line. Exits 1 when an output check fails, 2 on bad usage.

use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        freezetag_perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("missing value for {}", args[i]));
        };
        let ok = match args[i].as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown option {}", args[i])),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {}", args[i]));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    match freezetag_perfbench::run(&workload, seed, seconds, trace) {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => usage(&message),
    }
}
