//! What a run measured and checked, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics every workload reports with tracing off: `(name, unit)`.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("engine_s", "s"),
    ("plan_transfer_s", "sim_s"),
    ("plan_cost_usd", "usd"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics every workload reports with tracing on: `(name, unit)`. A layer
/// a workload does not exercise reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("geograph.ingest_s", "s"),
    ("geograph.ingest_edges_per_s", "1/s"),
    ("geograph.shard_ingest_s", "s"),
    ("geograph.ingest_peak_over_final", "ratio"),
    ("geograph.csr_bytes_per_edge", "B"),
    ("geograph.shard_peak_frac_max", "ratio"),
    ("geograph.locate_s", "s"),
    ("geopart.from_masters_s", "s"),
    ("geopart.state_bytes", "B"),
    ("rlcut.session_new_s", "s"),
    ("rlcut.step_s_p50", "s"),
    ("rlcut.step_s_max", "s"),
    ("rlcut.finish_s", "s"),
    ("rlcut.score_s", "s"),
    ("rlcut.migrate_s", "s"),
    ("rlcut.step_other_s", "s"),
    ("rlcut.agents", "count"),
    ("rlcut.migrations", "count"),
    ("rlcut.accept_ratio", "ratio"),
    ("rlcut.agents_per_s", "1/s"),
    ("rlcut.shuffle_bytes", "B"),
    ("rlcut.shuffle_bytes_per_step", "B"),
    ("rlcut.ghost_vertices", "count"),
    ("rlcut.window_delta_apply_ms_p50", "ms"),
    ("rlcut.window_train_ms_p50", "ms"),
    ("rlcut.window_unreported_ms_p50", "ms"),
    ("geodur.wal_bytes_per_window", "B"),
    ("geodur.snapshot_ms_p50", "ms"),
    ("geodur.snapshot_bytes", "B"),
    ("geodur.recover_trainer_s", "s"),
    ("geodur.replayed_windows", "count"),
    ("geoserve.boot_s", "s"),
    ("geoserve.flip_us_p50", "us"),
    ("geoserve.flip_batch_ns_p50", "ns"),
    ("geoserve.pin_retries", "count"),
    ("geoserve.epochs_seen", "count"),
    ("geoserve.table_bytes", "B"),
    ("geoengine.iterations", "count"),
    ("geoengine.wan_bytes", "B"),
    ("geoengine.ms_per_iteration", "ms"),
    ("window_ms_p50", "ms"),
    ("window_ms_tail", "ms"),
    ("recover_s", "s"),
    ("lookups_per_s", "1/s"),
    ("lookup_batch_ns_p50", "ns"),
    ("lookup_batch_ns_tail", "ns"),
    ("geograph.self_s", "s"),
    ("geopart.self_s", "s"),
    ("rlcut.self_s", "s"),
    ("geodur.self_s", "s"),
    ("geoserve.self_s", "s"),
    ("geoengine.self_s", "s"),
    ("bench.input_gen_s", "s"),
    ("bench.timer_overhead_ns", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.spans", "count"),
];

/// The per-layer self-time metric name of `layer`.
pub fn self_metric(layer: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix(".self_s") == Some(layer))
        .expect("every pipeline layer has a self-time metric")
}

fn unit_of(name: &str) -> &'static str {
    E2E_METRICS.iter().chain(LAYER_METRICS).find(|&&(n, _)| n == name).map_or("", |&(_, unit)| unit)
}

/// Everything one run measured, plus its operation and check tallies.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (e.g. which percentile a tail is).
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit_of(name).is_empty(), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Tallies one attempted operation of the workload.
    pub fn op(&mut self, ok: bool) {
        self.tally(1, u64::from(!ok));
    }

    /// Tallies `attempted` operations or checks, `failed` of which failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Tallies one correctness check, naming it on stderr if it fails.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op(ok);
        if !ok {
            eprintln!("  CHECK FAILED: {what}");
        }
    }

    pub fn print_human(&self) {
        for line in &self.notes {
            eprintln!("  {line}");
        }
        for (name, value) in &self.values {
            eprintln!("  {name:<34} {value:>18.6} {}", unit_of(name));
        }
        eprintln!("  attempted {} failed {}", self.attempted, self.failed);
    }

    /// The result line: the metrics of `catalogue`, 0 where not measured.
    pub fn result_json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}
