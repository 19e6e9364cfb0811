//! Machine-readable result emission: JSON-lines and CSV per-job records
//! (streamed one record at a time by [`JobStreamWriter`]), deterministic
//! aggregated JSON, and the `BENCH_results.json` perf-trajectory format.
//!
//! All JSON is hand-rolled (the workspace is offline — no serde). Numbers
//! use Rust's shortest round-trip formatting, so output is byte-stable
//! across runs, platforms and thread counts; non-finite values emit as
//! `null`.

use crate::agg::{Aggregate, Stats};
use crate::plan::ExperimentPlan;
use crate::runner::JobResult;
use std::fmt::Write as _;
use std::io;

/// Formats a float as a JSON number (`null` when non-finite).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for inclusion in JSON.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn stats_json(s: &Stats) -> String {
    format!(
        "{{\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{}}}",
        num(s.mean),
        num(s.min),
        num(s.max),
        num(s.p50),
        num(s.p95)
    )
}

/// One job as a single JSON-lines record (no trailing newline, wall time
/// included, so not byte-stable across machines — use
/// [`aggregates_to_json`] for that).
pub fn job_to_jsonl_line(r: &JobResult) -> String {
    format!(
        "{{\"job\":{},\"scenario\":\"{}\",\"generator\":\"{}\",\"algorithm\":\"{}\",\
         \"seed\":{},\"seed_index\":{},\"n\":{},\"ell\":{},\"rho\":{},\"xi_ell\":{},\
         \"makespan\":{},\"completion_time\":{},\"max_energy\":{},\"total_energy\":{},\
         \"looks\":{},\"all_awake\":{},\"peak_mem_bytes\":{},\"wall_time_s\":{}}}",
        r.job,
        escape(&r.scenario),
        escape(&r.generator),
        escape(&r.algorithm),
        r.seed,
        r.seed_index,
        r.n,
        num(r.ell),
        num(r.rho),
        r.xi_ell.map_or("null".to_string(), num),
        num(r.makespan),
        num(r.completion_time),
        num(r.max_energy),
        num(r.total_energy),
        r.looks,
        r.all_awake,
        num(r.peak_mem_bytes),
        num(r.wall_time_s)
    )
}

/// The CSV header row a [`JobStreamWriter::csv`] stream starts with (no
/// trailing newline).
pub const CSV_HEADER: &str = "job,scenario,generator,algorithm,seed,seed_index,n,ell,rho,xi_ell,\
     makespan,completion_time,max_energy,total_energy,looks,all_awake,\
     peak_mem_bytes,wall_time_s";

/// One job as a single CSV row (no trailing newline), in [`CSV_HEADER`]
/// column order.
pub fn job_to_csv_row(r: &JobResult) -> String {
    let csv_field = |s: &str| -> String {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    // Unmeasured quantities (NaN) become empty cells, like an absent ξ_ℓ.
    let csv_num = |x: f64| -> String {
        if x.is_finite() {
            x.to_string()
        } else {
            String::new()
        }
    };
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.job,
        csv_field(&r.scenario),
        csv_field(&r.generator),
        csv_field(&r.algorithm),
        r.seed,
        r.seed_index,
        r.n,
        r.ell,
        r.rho,
        r.xi_ell.map_or(String::new(), csv_num),
        csv_num(r.makespan),
        csv_num(r.completion_time),
        csv_num(r.max_energy),
        csv_num(r.total_energy),
        r.looks,
        r.all_awake,
        csv_num(r.peak_mem_bytes),
        r.wall_time_s,
    )
}

/// Incremental per-job record writer for streaming sweeps: each
/// [`JobResult`] is rendered (JSON-lines record or CSV row, chosen at
/// construction) and written the moment it arrives, with an explicit
/// flush every `flush_every` records so a long sweep's partial output is
/// durable at a known cadence. Every line is [`job_to_jsonl_line`] or
/// [`job_to_csv_row`] of its record, so a resumed stream appends exactly
/// the bytes an unbroken one would have written.
pub struct JobStreamWriter<W: io::Write> {
    inner: W,
    csv: bool,
    flush_every: usize,
    unflushed: usize,
}

impl<W: io::Write> JobStreamWriter<W> {
    fn new(inner: W, csv: bool, flush_every: usize) -> Self {
        JobStreamWriter {
            inner,
            csv,
            flush_every: flush_every.max(1),
            unflushed: 0,
        }
    }

    /// A JSON-lines streamer. `flush_every` is clamped to at least 1.
    pub fn jsonl(inner: W, flush_every: usize) -> Self {
        Self::new(inner, false, flush_every)
    }

    /// A CSV streamer; writes the header row immediately.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn csv(mut inner: W, flush_every: usize) -> io::Result<Self> {
        writeln!(inner, "{CSV_HEADER}")?;
        Ok(Self::new(inner, true, flush_every))
    }

    /// A CSV streamer that does *not* write a header row — the resume
    /// path, where the interrupted file's own header already stands.
    pub fn csv_resumed(inner: W, flush_every: usize) -> Self {
        Self::new(inner, true, flush_every)
    }

    /// Writes one record, flushing when the cadence comes due.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write or flush error.
    pub fn write(&mut self, r: &JobResult) -> io::Result<()> {
        let line = if self.csv {
            job_to_csv_row(r)
        } else {
            job_to_jsonl_line(r)
        };
        writeln!(self.inner, "{line}")?;
        self.unflushed += 1;
        if self.unflushed >= self.flush_every {
            self.inner.flush()?;
            self.unflushed = 0;
        }
        Ok(())
    }

    /// Flushes any tail shorter than the cadence and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates the underlying flush error.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

fn aggregate_json(a: &Aggregate, include_wall_time: bool) -> String {
    let mut out = format!(
        "    {{\"scenario\":\"{}\",\"generator\":\"{}\",\"algorithm\":\"{}\",\
         \"n\":{},\"seeds\":{},\"all_awake\":{},\"makespan\":{},\"max_energy\":{},\
         \"total_energy\":{},\"looks\":{},\"peak_mem_bytes\":{}",
        escape(&a.scenario),
        escape(&a.generator),
        escape(&a.algorithm),
        a.n,
        a.seeds,
        a.all_awake,
        stats_json(&a.makespan),
        stats_json(&a.max_energy),
        stats_json(&a.total_energy),
        stats_json(&a.looks),
        stats_json(&a.peak_mem_bytes)
    );
    if include_wall_time {
        let _ = write!(out, ",\"wall_time_s\":{}", num(a.wall_time_s));
    }
    out.push('}');
    out
}

fn groups_json(aggregates: &[Aggregate], include_wall_time: bool) -> String {
    let rows: Vec<String> = aggregates
        .iter()
        .map(|a| aggregate_json(a, include_wall_time))
        .collect();
    rows.join(",\n")
}

/// Renders aggregates as a human-readable markdown table — the one
/// summary-table layout shared by `dftp sweep` and the bench binaries
/// (via `freezetag_bench::render_aggregates`). Unmeasured statistics
/// (NaN) render as `-`.
pub fn aggregates_to_markdown(aggregates: &[Aggregate]) -> String {
    let cell = |x: f64, decimals: usize| -> String {
        if x.is_finite() {
            format!("{x:.decimals$}")
        } else {
            "-".to_string()
        }
    };
    let mut out = String::from(
        "| scenario | algorithm | n | seeds | makespan μ | makespan p95 | max-energy μ | looks μ |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for a in aggregates {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            a.scenario,
            a.algorithm,
            a.n,
            a.seeds,
            cell(a.makespan.mean, 1),
            cell(a.makespan.p95, 1),
            cell(a.max_energy.mean, 1),
            cell(a.looks.mean, 0),
        );
    }
    out
}

/// The deterministic aggregated document: for a fixed plan this is
/// byte-identical for any thread count (wall times are excluded).
pub fn aggregates_to_json(plan: &ExperimentPlan, aggregates: &[Aggregate]) -> String {
    format!(
        "{{\n  \"plan\": \"{}\",\n  \"plan_seed\": {},\n  \"seeds_per_cell\": {},\n  \
         \"profile\": \"{}\",\n  \"jobs\": {},\n  \"groups\": [\n{}\n  ]\n}}\n",
        escape(&plan.name),
        plan.plan_seed,
        plan.seeds,
        plan.profile,
        plan.job_count(),
        groups_json(aggregates, false)
    )
}

/// The `BENCH_results.json` perf-trajectory document: the deterministic
/// aggregates plus wall-clock timing (per group and total), throughput
/// (jobs per second) and the execution context, so successive commits can
/// be compared.
pub fn bench_results_json(
    plan: &ExperimentPlan,
    aggregates: &[Aggregate],
    threads: usize,
    total_wall_time_s: f64,
) -> String {
    let jobs = plan.job_count();
    let jobs_per_s = if total_wall_time_s > 0.0 {
        jobs as f64 / total_wall_time_s
    } else {
        f64::NAN
    };
    format!(
        "{{\n  \"schema\": \"freezetag-bench-results/v2\",\n  \"plan\": \"{}\",\n  \
         \"plan_seed\": {},\n  \"seeds_per_cell\": {},\n  \"profile\": \"{}\",\n  \
         \"jobs\": {},\n  \"threads\": {},\n  \"sim_threads\": {},\n  \
         \"total_wall_time_s\": {},\n  \
         \"jobs_per_s\": {},\n  \"groups\": [\n{}\n  ]\n}}\n",
        escape(&plan.name),
        plan.plan_seed,
        plan.seeds,
        plan.profile,
        jobs,
        threads,
        plan.sim_threads,
        num(total_wall_time_s),
        num(jobs_per_s),
        groups_json(aggregates, true)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScenarioSpec;
    use freezetag_core::Algorithm;

    fn sample() -> (ExperimentPlan, Vec<JobResult>) {
        let plan = ExperimentPlan::new("sample \"quoted\"")
            .scenario(ScenarioSpec::new("disk"))
            .algorithm(Algorithm::Grid)
            .seeds(2);
        let job = |i: usize, makespan: f64| JobResult {
            job: i,
            scenario: "disk".to_string(),
            generator: "uniform_disk".to_string(),
            algorithm: "AGrid".to_string(),
            seed: 9,
            seed_index: i,
            n: 4,
            ell: 1.0,
            rho: 3.0,
            xi_ell: Some(4.5),
            makespan,
            completion_time: makespan,
            max_energy: 2.0,
            total_energy: 8.0,
            looks: 12,
            all_awake: true,
            peak_mem_bytes: 4096.0,
            wall_time_s: 0.25,
        };
        (plan, vec![job(0, 10.0), job(1, 20.0)])
    }

    #[test]
    fn jsonl_has_one_object_per_job_with_wall_time() {
        let (_, results) = sample();
        for line in results.iter().map(job_to_jsonl_line) {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"wall_time_s\":0.25"));
            assert!(line.contains("\"xi_ell\":4.5"));
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (_, results) = sample();
        assert!(CSV_HEADER.starts_with("job,scenario"));
        assert_eq!(CSV_HEADER.split(',').count(), 18);
        let row = job_to_csv_row(&results[0]);
        assert_eq!(row.split(',').count(), 18, "{row}");
        assert!(row.contains(",AGrid,"), "{row}");
    }

    #[test]
    fn aggregate_json_is_wall_time_free_and_escaped() {
        let (plan, results) = sample();
        let aggs = crate::agg::aggregate(&results);
        let text = aggregates_to_json(&plan, &aggs);
        assert!(
            !text.contains("wall_time"),
            "deterministic doc leaked timing"
        );
        assert!(
            text.contains("\\\"quoted\\\""),
            "plan name not escaped: {text}"
        );
        assert!(text.contains("\"mean\":15"), "{text}");
        assert!(text.contains("\"jobs\": 2"));
    }

    #[test]
    fn bench_results_json_carries_timing_schema_and_throughput() {
        let (plan, results) = sample();
        let aggs = crate::agg::aggregate(&results);
        let text = bench_results_json(&plan, &aggs, 4, 0.5);
        assert!(text.contains("freezetag-bench-results/v2"));
        assert!(text.contains("\"threads\": 4"));
        assert!(text.contains("\"sim_threads\": 1"));
        assert!(text.contains("\"wall_time_s\":0.5"));
        assert!(text.contains("\"jobs_per_s\": 4"), "{text}");
        assert!(text.contains("\"profile\": \"full\""), "{text}");
    }

    #[test]
    fn peak_memory_flows_into_every_emitter() {
        let (plan, results) = sample();
        let aggs = crate::agg::aggregate(&results);
        assert!(job_to_jsonl_line(&results[0]).contains("\"peak_mem_bytes\":4096"));
        assert!(CSV_HEADER.contains("peak_mem_bytes"));
        let json = aggregates_to_json(&plan, &aggs);
        assert!(json.contains("\"peak_mem_bytes\":{\"mean\":4096"), "{json}");
    }

    #[test]
    fn markdown_table_renders_rows_and_dashes() {
        let (_, results) = sample();
        let mut aggs = crate::agg::aggregate(&results);
        aggs[0].max_energy.mean = f64::NAN;
        let text = aggregates_to_markdown(&aggs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("| scenario |"));
        assert!(lines[2].contains("| 15.0 |"), "{text}");
        assert!(
            lines[2].contains("| - |"),
            "NaN must render as dash: {text}"
        );
    }

    #[test]
    fn stream_writers_emit_one_record_function_line_per_job() {
        let (_, results) = sample();
        let mut jsonl = JobStreamWriter::jsonl(Vec::new(), 1);
        let mut csv = JobStreamWriter::csv(Vec::new(), 3).unwrap();
        let mut resumed = JobStreamWriter::csv_resumed(Vec::new(), 3);
        for r in &results {
            jsonl.write(r).unwrap();
            csv.write(r).unwrap();
            resumed.write(r).unwrap();
        }
        let jsonl = String::from_utf8(jsonl.finish().unwrap()).unwrap();
        let csv = String::from_utf8(csv.finish().unwrap()).unwrap();
        let resumed = String::from_utf8(resumed.finish().unwrap()).unwrap();
        let lines = |f: fn(&JobResult) -> String| -> String {
            results.iter().map(|r| format!("{}\n", f(r))).collect()
        };
        assert_eq!(jsonl, lines(job_to_jsonl_line));
        assert_eq!(resumed, lines(job_to_csv_row));
        assert_eq!(csv, format!("{CSV_HEADER}\n{resumed}"));
    }

    #[test]
    fn stream_writer_flushes_at_the_requested_cadence() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountingSink(Arc<AtomicUsize>);
        impl io::Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }

        let (_, results) = sample();
        let flushes = Arc::new(AtomicUsize::new(0));
        let mut w = JobStreamWriter::jsonl(CountingSink(flushes.clone()), 2);
        w.write(&results[0]).unwrap();
        assert_eq!(flushes.load(Ordering::Relaxed), 0, "cadence not due yet");
        w.write(&results[1]).unwrap();
        assert_eq!(flushes.load(Ordering::Relaxed), 1, "flush every 2 records");
        w.write(&results[0]).unwrap();
        w.finish().unwrap();
        assert_eq!(
            flushes.load(Ordering::Relaxed),
            2,
            "finish flushes the tail"
        );
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.5), "2.5");
        assert_eq!(num(3.0), "3");
    }
}
