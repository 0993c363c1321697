//! What a workload measured, and how it is printed and stored.

use coverme::report::schema::JsonValue;

/// The end-to-end metrics every workload reports with tracing off, as
/// `(name, unit)`. `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("coverage_pct", "%"),
    ("branches_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, as `(name, unit)`. A layer a
/// workload does not exercise reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fpir.compile_s", "s"),
    ("fpir.source_kb", "KB"),
    ("fpir.sites", "count"),
    ("fpir.lower_calls", "count"),
    ("fpir.lower_s", "s"),
    ("exec.scalar_calls", "count"),
    ("exec.scalar_ns_per_call", "ns"),
    ("exec.lane_calls", "count"),
    ("exec.lane_evals_per_call", "count"),
    ("exec.lane_ns_per_eval", "ns"),
    ("exec.evals_per_s", "1/s"),
    ("exec.busy_share", "ratio"),
    ("exec.timeout_share", "ratio"),
    ("exec.trap_share", "ratio"),
    ("engine.evals", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.lane_share", "ratio"),
    ("engine.aborted_share", "ratio"),
    ("search.rounds", "count"),
    ("search.productive_ratio", "ratio"),
    ("search.evals_per_round", "count"),
    ("search.infeasible_blamed", "count"),
    ("search.self_s", "s"),
    ("sync.epochs", "count"),
    ("sync.barriers_skipped", "count"),
    ("sync.deltas_absorbed", "count"),
    ("campaign.fn_span_s_p50", "s"),
    ("campaign.fn_span_s_p75", "s"),
    ("campaign.fn_busy_s_p50", "s"),
    ("campaign.straggler_tail_s", "s"),
    ("campaign.worker_busy_share", "ratio"),
    ("corpus.open_s", "s"),
    ("corpus.entries", "count"),
    ("corpus.warm_replayed", "count"),
    ("corpus.warm_fn_share", "ratio"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.job_overhead_ms_p50", "ms"),
    ("serve.fresh_fn_ms_p50", "ms"),
    ("serve.repeat_fn_ms_p50", "ms"),
    ("serve.rejected", "count"),
    ("trace.overhead_share", "ratio"),
];

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see [`END_TO_END`] and [`PER_LAYER`]).
    pub name: &'static str,
    /// Value in the metric's unit.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Units of work attempted: campaign function results and serve jobs.
    pub attempted: u64,
    /// Units that failed: skipped or partial functions, serve jobs that
    /// were rejected or errored, and units whose outputs failed a check.
    pub failed: u64,
    /// One line per failed correctness check.
    pub check_failures: Vec<String>,
    /// Per-function rows (campaign workloads).
    pub rows: Vec<JsonValue>,
    /// Workload-specific facts recorded with the result.
    pub details: Vec<(&'static str, JsonValue)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a failed correctness check against one unit of work.
    pub fn check_failed(&mut self, message: String) {
        eprintln!("perfbench: check failed: {message}");
        self.failed += 1;
        self.check_failures.push(message);
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics the result line carries for this mode, in the declared
    /// order: every end-to-end metric untraced, every per-layer metric
    /// traced (0 with no samples where the workload leaves a layer idle).
    ///
    /// # Panics
    ///
    /// Panics if an untraced run missed an end-to-end metric — a bug in
    /// the workload, not a measurement.
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, &'static str, Metric)> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| {
                let metric = match self.find(name) {
                    Some(metric) => metric.clone(),
                    None if traced => Metric {
                        name,
                        value: 0.0,
                        samples: 0,
                    },
                    None => panic!("workload did not measure end-to-end metric {name}"),
                };
                (name, unit, metric)
            })
            .collect()
    }
}

/// A JSON number.
pub fn num(value: f64) -> JsonValue {
    JsonValue::Number(if value.is_finite() { value } else { 0.0 })
}

/// A JSON string.
pub fn text(value: impl Into<String>) -> JsonValue {
    JsonValue::String(value.into())
}

/// A JSON object from `(key, value)` pairs.
pub fn object(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}
