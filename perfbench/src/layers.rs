//! The per-layer figures of a traced run, accumulated over its jobs and
//! emitted under the names the benchmark docs list — every name on every
//! workload, 0 where a workload does not exercise the layer.

use crate::report::Report;
use crate::trace::{TracedCentral, TracedJob};
use std::time::Duration;

/// Sums of every layer's counters and busy times over a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Median set-up `registry::build` time over all distinct instances.
    pub instances_build_s: f64,
    /// Median set-up `ConcreteWorld::with_pool` time over all distinct
    /// instances.
    pub world_build_s: f64,
    tuple_busy: Duration,
    looks: u64,
    batches: u64,
    empty_looks: u64,
    sensing_busy: Duration,
    moves: u64,
    wakes: u64,
    record_busy: Duration,
    recorded_bytes: f64,
    peak_record_bytes: usize,
    validate_busy: Duration,
    validated_moves: u64,
    grid_self: Duration,
    wave_self: Duration,
    separator_self: Duration,
    /// Median per-record engine overhead (record gap minus job time).
    pub engine_overhead_s: f64,
    /// Engine cache hits over cache lookups.
    pub cache_hit_frac: f64,
    /// Median `POST /plans` round trip.
    pub submit_s_p50: f64,
    /// Median time a fresh plan waited before its first job ran.
    pub queue_wait_s_p50: f64,
    /// Non-2xx replies and broken responses.
    pub http_errors: u64,
    /// Median HTTP plan latency minus the same plan's `Engine::run` time.
    pub serve_overhead_s: f64,
    central_init: Duration,
    central_search: Duration,
    moves_tried: u64,
    moves_accepted: u64,
    /// Traced wall clock over untraced wall clock, minus 1.
    pub trace_overhead_frac: f64,
}

impl Layers {
    /// Adds one traced distributed job.
    pub fn add_job(&mut self, job: &TracedJob) {
        self.tuple_busy += job.tuple;
        self.looks += job.sensing.looks;
        self.batches += job.sensing.batch.calls;
        self.empty_looks += job.sensing.empty;
        self.sensing_busy += job.sensing.busy();
        self.moves += job.record.moves;
        self.wakes += job.record.wakes;
        self.record_busy += job.record.writes.busy();
        self.recorded_bytes += job.bytes_per_move * job.record.moves as f64;
        self.peak_record_bytes = self.peak_record_bytes.max(job.peak_mem_bytes);
        if !job.validate.is_zero() {
            self.validate_busy += job.validate;
            self.validated_moves += job.record.moves;
        }
        let own = job.alg_self();
        match job.algorithm.as_str() {
            "AGrid" => self.grid_self += own,
            "AWave" => self.wave_self += own,
            _ => self.separator_self += own,
        }
    }

    /// Adds one traced `central-anytime` job.
    pub fn add_central(&mut self, job: &TracedCentral) {
        self.tuple_busy += job.tuple;
        self.central_init += job.init;
        self.central_search += job.search;
        self.moves_tried += job.report.moves_tried;
        self.moves_accepted += job.report.moves_accepted;
    }

    /// Emits every per-layer metric into `report`.
    pub fn emit(&self, report: &mut Report) {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let secs = Duration::as_secs_f64;
        report.metric("instances.build_s", self.instances_build_s, "s");
        report.metric("world.build_s", self.world_build_s, "s");
        report.metric("instances.tuple_s", secs(&self.tuple_busy), "s");
        report.metric("sensing.looks", self.looks as f64, "count");
        report.metric("sensing.batches", self.batches as f64, "count");
        report.metric("sensing.busy_s", secs(&self.sensing_busy), "s");
        report.metric(
            "sensing.ns_per_look",
            per(self.sensing_busy.as_nanos() as f64, self.looks),
            "ns",
        );
        report.metric(
            "sensing.empty_look_frac",
            per(self.empty_looks as f64, self.looks),
            "fraction",
        );
        report.metric("record.moves", self.moves as f64, "count");
        report.metric("record.wakes", self.wakes as f64, "count");
        report.metric("record.busy_s", secs(&self.record_busy), "s");
        report.metric(
            "record.bytes_per_move",
            per(self.recorded_bytes, self.moves),
            "B",
        );
        report.metric("record.peak_mb", self.peak_record_bytes as f64 / 1e6, "MB");
        report.metric("validate.busy_s", secs(&self.validate_busy), "s");
        report.metric(
            "validate.ns_per_move",
            per(self.validate_busy.as_nanos() as f64, self.validated_moves),
            "ns",
        );
        report.metric("alg.grid.self_s", secs(&self.grid_self), "s");
        report.metric("alg.wave.self_s", secs(&self.wave_self), "s");
        report.metric("alg.separator.self_s", secs(&self.separator_self), "s");
        report.metric("engine.overhead_s", self.engine_overhead_s, "s");
        report.metric("engine.cache_hit_frac", self.cache_hit_frac, "fraction");
        report.metric("serve.submit_s_p50", self.submit_s_p50, "s");
        report.metric("serve.queue_wait_s_p50", self.queue_wait_s_p50, "s");
        report.metric("serve.http_errors", self.http_errors as f64, "count");
        report.metric("serve.overhead_s", self.serve_overhead_s, "s");
        report.metric("central.init_s", secs(&self.central_init), "s");
        report.metric("central.search_s", secs(&self.central_search), "s");
        report.metric("central.moves_tried", self.moves_tried as f64, "count");
        report.metric(
            "central.accept_frac",
            per(self.moves_accepted as f64, self.moves_tried),
            "fraction",
        );
        let search = secs(&self.central_search);
        report.metric(
            "central.moves_per_s",
            if search > 0.0 {
                self.moves_tried as f64 / search
            } else {
                0.0
            },
            "1/s",
        );
        report.metric("trace.overhead_frac", self.trace_overhead_frac, "fraction");
    }
}
