//! What one benchmark run prints: metric lines for people, then the single
//! JSON result line (`correct`, `attempted`, `failed`, `metrics`) that
//! scripts read.

use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in the benchmark docs.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label (`s`, `robots/s`, `count`, …).
    pub unit: &'static str,
}

/// The outcome of one run: operation counts, metrics, and every output
/// check that failed.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (jobs or plans) the run started.
    pub attempted: u64,
    /// Operations that errored, panicked or were refused.
    pub failed: u64,
    /// Metrics that go into the JSON result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed as text only: they are not defined (or can be 0)
    /// on every workload, so they are not part of the result line.
    pub notes: Vec<Metric>,
    /// Informational lines (failure messages, trace file path).
    pub info: Vec<String>,
    /// Output-check mismatches; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a text-only metric.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name, value, unit });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every output check passed and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self
                .metrics
                .iter()
                .chain(&self.notes)
                .all(|m| m.value.is_finite())
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The JSON result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the human-readable lines and then the result line last.
    pub fn print(&self) {
        for line in &self.info {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!("metric {:<28} {:>18} {}", m.name, json_num(m.value), m.unit);
        }
        for m in &self.notes {
            println!("note   {:<28} {:>18} {}", m.name, json_num(m.value), m.unit);
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        println!("{}", self.json_line());
    }
}

/// A finite float as JSON; non-finite values become `null` (and make the
/// report incorrect through [`Report::correct`]).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Median (mean of the middle pair for even lengths); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The nearest-rank `q`-quantile, but only when at least `min_beyond`
/// samples lie above it — a tail percentile from fewer samples is noise.
pub fn tail_quantile(values: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    (v.len() >= rank + min_beyond).then(|| v[rank - 1])
}

/// Median of `reps` timings of `f` — the set-up figure of every workload.
pub fn median_time(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| f().as_secs_f64()).collect();
    median(&samples)
}

/// The process's peak resident set (`VmHWM`) in MB, 0 when the platform
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The paper's Theorem 1 shape `ρ + ℓ² ln(ρ/ℓ)` that makespans are
/// divided by in `thm1_ratio`.
pub fn thm1_bound(rho: f64, ell: f64) -> f64 {
    rho + ell * ell * (rho / ell).ln()
}

/// The value of `"key":` in a flat JSON record line (raw text up to the
/// next `,` or `}`), as the engine's JSONL emitter writes them.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A numeric field of a record line (`null` reads as NaN).
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    let raw = field(line, key)?;
    if raw == "null" {
        return Some(f64::NAN);
    }
    raw.parse().ok()
}

/// Mean of `values`; NaN when there are none.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Whether two record lists agree line by line once `wall_time_s` is
/// removed.
pub fn same_records(a: &[String], b: &[String]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| strip_wall_time(x) == strip_wall_time(y))
}

/// A record line without its `wall_time_s` field — the part of a record
/// that is a deterministic function of the job.
pub fn strip_wall_time(line: &str) -> String {
    match line.find(",\"wall_time_s\":") {
        Some(at) => {
            let rest = &line[at + 1..];
            let end = rest.find(['}', ',']).unwrap_or(rest.len());
            format!("{}{}", &line[..at], &rest[end..])
        }
        None => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.9, 10), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.9, 10), Some(90.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn record_fields_and_wall_time_stripping() {
        let line = "{\"job\":0,\"n\":10,\"max_energy\":null,\"wall_time_s\":0.25}";
        assert_eq!(field_f64(line, "n"), Some(10.0));
        assert!(field_f64(line, "max_energy").unwrap().is_nan());
        assert_eq!(
            strip_wall_time(line),
            "{\"job\":0,\"n\":10,\"max_energy\":null}"
        );
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
