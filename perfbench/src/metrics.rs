//! The metrics the benchmark reports, and the result line that carries
//! them. The names and units here are the ones `BENCHMARK.json` declares;
//! a self-test keeps the two equal.

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of the untraced closed loop (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    metric("verdict_p50_ms", "ms"),
    metric("verdict_p90_ms", "ms"),
    metric("events_per_s", "1/s"),
    metric("peak_rss_mb", "MiB"),
    metric("setup_s", "s"),
];

/// Metrics of the traced rebuild, per detection (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    metric("gpu-sim.busy_ms", "ms"),
    metric("gpu-sim.ns_per_instruction", "ns"),
    metric("gpu-sim.instructions", "count"),
    metric("gpu-sim.divergence_events", "count"),
    metric("gpu-sim.mem_transactions", "count"),
    metric("tracer.busy_ms", "ms"),
    metric("tracer.ns_per_event", "ns"),
    metric("record.busy_ms", "ms"),
    metric("record.physical_runs", "count"),
    metric("record.logical_runs", "count"),
    metric("record.replication_ratio", "ratio"),
    metric("record.trace_bytes", "bytes"),
    metric("record.failed_attempts", "count"),
    metric("record.allocs", "count"),
    metric("record.alloc_bytes", "bytes"),
    metric("filter.busy_ms", "ms"),
    metric("filter.classes", "count"),
    metric("evidence.merge_trace_ms", "ms"),
    metric("evidence.merge_chunk_ms", "ms"),
    metric("evidence.bytes", "bytes"),
    metric("evidence.allocs", "count"),
    metric("evidence.alloc_bytes", "bytes"),
    metric("analysis.busy_ms", "ms"),
    metric("analysis.share_pct", "%"),
    metric("analysis.leaks", "count"),
    metric("analysis.allocs", "count"),
    metric("analysis.alloc_bytes", "bytes"),
    metric("report.merge_ms", "ms"),
    metric("summary.busy_ms", "ms"),
    metric("summary.bytes", "bytes"),
    metric("summary.allocs", "count"),
    metric("summary.alloc_bytes", "bytes"),
    metric("parallel.evidence_speedup", "ratio"),
    metric("parallel.idle_ms", "ms"),
    metric("trace.total_ms", "ms"),
    metric("trace.detect_p1_ms", "ms"),
    metric("trace.overhead_pct", "%"),
    metric("trace.coverage_pct", "%"),
];

/// What one benchmark run found.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed a check.
    pub failed: u64,
    /// Metric values by name, in declaration order.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `declared`, by name, with its unit.
///
/// # Errors
///
/// When `outcome` lacks a declared metric, holds an undeclared one, or
/// holds a value that is not finite.
pub fn result_line(outcome: &Outcome, declared: &[Metric]) -> Result<String, String> {
    if outcome.values.len() != declared.len() {
        return Err(format!(
            "{} metric values for {} declared metrics",
            outcome.values.len(),
            declared.len()
        ));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for (m, &(name, value)) in declared.iter().zip(&outcome.values) {
        if m.name != name {
            return Err(format!(
                "metric {name} reported where {} is declared",
                m.name
            ));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}
