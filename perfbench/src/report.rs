//! Metric schemas and the output format.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports the gated end-to-end metrics there; a traced run reports the
//! per-layer metrics. Everything else — the ungated end-to-end metrics,
//! the reference times, the tail rule, `ops`, `sim_digest` — is printed
//! on the lines before it.

use crate::measure::Metric;

/// Every end-to-end metric a run prints, with its unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("stream_rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("admitted_per_round", "1/round"),
    ("refused_share", "ratio"),
    ("startup_wait_rounds_p50", "rounds"),
    ("startup_wait_rounds_tail", "rounds"),
];

/// The end-to-end metrics on the result line (the ones `BENCHMARK.json`
/// bounds). The rest are printed but not gated: `refused_share` and the
/// wait percentiles can be 0 on some workload or move in whole log₂
/// buckets between seeds, and `peak_rss_mib` of the small workloads
/// moves with the seed by more than a bound could absorb.
pub const GATED: [&str; 5] = [
    "stream_rounds_per_s",
    "round_ms_p50",
    "round_ms_tail",
    "setup_s",
    "admitted_per_round",
];

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sim.round_ns", "ns"),
    ("sim.new_s", "s"),
    ("sim.self_ns_per_round", "ns"),
    ("sim.arrivals_per_round", "1/round"),
    ("sim.admissions_per_round", "1/round"),
    ("sim.blocks_per_round", "1/round"),
    ("sim.recovery_reads_per_round", "1/round"),
    ("sim.rebuild_reads_per_round", "1/round"),
    ("sim.active_streams", "count"),
    ("sim.pending_end", "count"),
    ("admission.check_ns", "ns"),
    ("admission.admit_ratio", "ratio"),
    ("disk.service_ns_per_block", "ns"),
    ("disk.sweep_ns_per_block", "ns"),
    ("disk.util_mean", "ratio"),
    ("disk.peak_queue", "count"),
    ("layout.locate_ns", "ns"),
    ("layout.recon_reads_ns", "ns"),
    ("layout.build_s", "s"),
    ("parity.reconstruct_ns", "ns"),
    ("parity.encode_ns", "ns"),
    ("parity.bytes_per_s", "B/s"),
    ("parity.reconstructions_per_round", "1/round"),
    ("parity.mismatches", "count"),
    ("bibd.design_s", "s"),
    ("bibd.pgt_s", "s"),
    ("model.solve_s", "s"),
    ("model.capacity_ratio", "ratio"),
    ("workload.arrival_ns", "ns"),
    ("workload.catalog_s", "s"),
    ("cluster.round_ns", "ns"),
    ("cluster.routed_per_round", "1/round"),
    ("cluster.shed_per_round", "1/round"),
    ("cluster.migrations_per_round", "1/round"),
    ("cluster.rebuild_blocks_per_round", "1/round"),
    ("trace.events_per_round", "1/round"),
    ("trace.overhead_share", "ratio"),
];

/// Checks that `metrics` are exactly `schema`, in order, with the units
/// it names and finite values.
///
/// # Errors
///
/// Names the first missing, extra, misnamed or non-finite metric.
pub fn check_schema(metrics: &[Metric], schema: &[(&str, &str)]) -> Result<(), String> {
    if metrics.len() != schema.len() {
        return Err(format!(
            "{} metrics, schema has {}",
            metrics.len(),
            schema.len()
        ));
    }
    for (m, (name, unit)) in metrics.iter().zip(schema) {
        if m.name != *name || m.unit != *unit {
            return Err(format!(
                "got {} [{}], schema says {name} [{unit}]",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
    }
    Ok(())
}

/// Formats a float as JSON (non-finite values become `null`).
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A metrics table, one `name value unit` line each.
#[must_use]
pub fn table(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("  {:<34} {:>16.6} {}\n", m.name, m.value, m.unit))
        .collect()
}
