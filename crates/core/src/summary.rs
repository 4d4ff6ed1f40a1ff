//! The stable machine-readable report API.
//!
//! Two documents, split by a determinism boundary:
//!
//! * [`DetectionSummary`] — everything about a detection that is a pure
//!   function of `(program, inputs, config-minus-parallelism)`: verdict,
//!   input classes, leak report, and the simulator execution counters.
//!   Serializing it yields **byte-identical** JSON for every
//!   `parallelism` setting, which is why the summary deliberately echoes
//!   every config knob *except* `parallelism` and carries no timings.
//! * [`MetricsReport`] — the wall-clock side: phase spans and the
//!   [`PhaseStats`] cost accounting, in milliseconds. Inherently
//!   non-deterministic, so it is kept in a separate document (the CLI
//!   writes it to `--metrics-out`, never to the reproducible stdout).
//!
//! Both documents carry [`SCHEMA_VERSION`] under `"schema_version"`; see
//! `owl-metrics` for the bump policy.

use crate::engine::EngineComparison;
use crate::fault::FaultLog;
use crate::owl::{Detection, OwlConfig, PhaseStats, Verdict};
use crate::report::LeakReport;
use owl_metrics::{FaultCounters, SimCounters, Spans, SCHEMA_VERSION};
use serde::Serialize;
use std::time::Duration;

/// The deterministic, machine-readable summary of one detection.
///
/// `Serialize`-only: leak locations contain `&'static str` call-site file
/// names, which cannot be deserialized into; consumers round-trip through
/// `serde_json::Value` instead.
#[derive(Debug, Clone, Serialize)]
pub struct DetectionSummary {
    /// Report schema version (see `owl-metrics`).
    pub schema_version: u32,
    /// Name of the workload under test.
    pub workload: String,
    /// The verdict, as its stable machine-readable name (`"leak_free"` /
    /// `"no_input_dependence"` / `"leaky"` / `"inconclusive"`).
    pub verdict: String,
    /// Number of input classes after duplicates removing.
    pub classes: usize,
    /// User inputs removed as duplicates.
    pub duplicates_removed: usize,
    /// The detection parameters the result is a function of.
    pub config: ConfigEcho,
    /// Simulator execution counters totalled over every recorded run.
    pub counters: SimCounters,
    /// Per-phase fault counters (all-zero for a fault-free detection —
    /// the summary bytes then match a detector without fault tolerance,
    /// schema bump aside).
    pub faults: FaultCounters,
    /// Every quarantined run, in run order (empty when fault-free).
    pub fault_log: FaultLog,
    /// The merged leak report (produced by the configured engine).
    pub report: LeakReport,
    /// The cross-engine agreement table (`null` unless the detection ran
    /// in comparison mode).
    pub engine_comparison: Option<EngineComparison>,
}

/// The [`OwlConfig`] fields echoed into [`DetectionSummary`].
///
/// `parallelism` is deliberately absent: it does not influence the result
/// (the determinism contract) and including it would break byte-identity
/// across worker counts.
#[derive(Debug, Clone, Serialize)]
pub struct ConfigEcho {
    /// Executions per evidence side.
    pub runs: usize,
    /// KS confidence level.
    pub alpha: f64,
    /// Base seed for drawing random inputs.
    pub seed: u64,
    /// Whether analysis was forced for a single input class.
    pub force_analysis: bool,
    /// The analysis engine (`"ks"` / `"tvla"` / `"mi"`).
    pub engine: String,
    /// Whether every engine ran and the summary carries the cross-engine
    /// agreement table.
    pub compare_engines: bool,
    /// SIMT warp width.
    pub warp_size: u32,
    /// Simulated-ASLR seed, when enabled.
    pub aslr_seed: Option<u64>,
    /// Attempt budget per run (1 = no retries).
    pub retry_max_attempts: u32,
    /// Minimum surviving runs per evidence set (`None` = the automatic
    /// half-of-runs quorum).
    pub min_runs_per_set: Option<usize>,
    /// Instruction budget per kernel launch.
    pub max_instructions: u64,
    /// Memory-event budget per run (`None` = unbounded).
    pub max_mem_events: Option<u64>,
    /// Allocation budget per run (`None` = unbounded).
    pub max_allocations: Option<u64>,
    /// Evidence-footprint budget per detection, in bytes (`None` =
    /// unbounded).
    pub max_evidence_bytes: Option<usize>,
    /// Wall-clock deadline, in whole milliseconds (`None` = unbounded).
    /// The deadline *setting* is deterministic config and belongs here
    /// (unlike measured timings, which are banned from the summary);
    /// whether it fired is visible in the fault counters.
    pub deadline_millis: Option<u64>,
}

impl DetectionSummary {
    /// Builds the summary of a finished detection.
    pub fn new<I>(
        workload: impl Into<String>,
        detection: &Detection<I>,
        config: &OwlConfig,
    ) -> Self {
        DetectionSummary {
            schema_version: SCHEMA_VERSION,
            workload: workload.into(),
            verdict: verdict_name(detection.verdict).to_string(),
            classes: detection.filter.classes.len(),
            duplicates_removed: detection.filter.duplicates_removed,
            config: ConfigEcho {
                runs: config.runs,
                alpha: config.alpha,
                seed: config.seed,
                force_analysis: config.force_analysis,
                engine: config.method.name().to_string(),
                compare_engines: config.compare_engines,
                warp_size: config.warp_size,
                aslr_seed: config.aslr_seed,
                retry_max_attempts: config.max_attempts,
                min_runs_per_set: config.min_runs_per_set,
                max_instructions: config.budget.max_instructions,
                max_mem_events: config.budget.max_mem_events,
                max_allocations: config.budget.max_allocations,
                max_evidence_bytes: config.budget.max_evidence_bytes,
                deadline_millis: config.budget.deadline.map(|d| d.as_millis() as u64),
            },
            counters: detection.counters,
            faults: detection.fault_counters,
            fault_log: detection.faults.clone(),
            report: detection.report.clone(),
            engine_comparison: detection.engine_comparison.clone(),
        }
    }
}

/// The stable machine-readable name of a verdict.
pub fn verdict_name(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::LeakFree => "leak_free",
        Verdict::NoInputDependence => "no_input_dependence",
        Verdict::Leaky => "leaky",
        Verdict::Inconclusive => "inconclusive",
    }
}

/// The non-deterministic, wall-clock side of a detection: phase spans plus
/// the [`PhaseStats`] cost accounting in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsReport {
    /// Report schema version (see `owl-metrics`).
    pub schema_version: u32,
    /// Name of the workload under test.
    pub workload: String,
    /// Worker threads the detection was configured with.
    pub parallelism: usize,
    /// The detector's phase spans, in phase order.
    pub spans: Spans,
    /// The cost accounting, durations in milliseconds.
    pub phase_stats: PhaseStatsMs,
    /// Simulator execution counters (duplicated here so the metrics file
    /// is self-contained).
    pub counters: SimCounters,
    /// Resource-budget utilization: what the detection consumed against
    /// what was configured.
    pub budget: BudgetUtilization,
}

/// Consumption vs. configuration for every governed resource — the
/// operational view of a [`ResourceBudget`](crate::govern::ResourceBudget).
/// Lives in the metrics document: utilization is not part of the verdict
/// and total consumption varies when wall-clock cancellation drops runs.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetUtilization {
    /// The configured per-launch instruction budget.
    pub max_instructions_per_launch: u64,
    /// Instructions consumed over every recorded run.
    pub instructions: u64,
    /// Memory-access events over every recorded run.
    pub mem_events: u64,
    /// The configured per-run memory-event budget (`None` = unbounded).
    pub max_mem_events: Option<u64>,
    /// The configured per-run allocation budget (`None` = unbounded).
    pub max_allocations: Option<u64>,
    /// Peak resident evidence footprint, in bytes.
    pub peak_evidence_bytes: usize,
    /// The configured evidence-footprint budget (`None` = unbounded).
    pub max_evidence_bytes: Option<usize>,
    /// The configured wall-clock deadline, in whole milliseconds.
    pub deadline_millis: Option<u64>,
    /// Runs quarantined because they were cancelled (token or deadline).
    pub cancelled_runs: u64,
    /// Runs (plus at most one evidence-footprint overrun) quarantined or
    /// flagged for budget exhaustion.
    pub budget_exhausted_runs: u64,
}

/// [`PhaseStats`] with durations flattened to milliseconds (the vendored
/// serde has no `Duration` impl, and floats are what dashboards plot).
#[derive(Debug, Clone, Serialize)]
pub struct PhaseStatsMs {
    /// Wall time of the trace-recording phase.
    pub trace_collection_ms: f64,
    /// Mean bytes per recorded trace.
    pub trace_bytes: usize,
    /// Number of traces recorded for evidence.
    pub evidence_traces: usize,
    /// Wall time to record + merge the evidence.
    pub evidence_ms: f64,
    /// Summed per-worker recording time of the evidence phase.
    pub evidence_cpu_ms: f64,
    /// Worker threads actually used by the evidence phase.
    pub evidence_workers: usize,
    /// Wall time of the distribution tests.
    pub test_ms: f64,
    /// Peak resident evidence footprint, in bytes.
    pub peak_evidence_bytes: usize,
    /// Total wall time of the detection.
    pub total_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl From<&PhaseStats> for PhaseStatsMs {
    fn from(s: &PhaseStats) -> Self {
        PhaseStatsMs {
            trace_collection_ms: ms(s.trace_collection_time),
            trace_bytes: s.trace_bytes,
            evidence_traces: s.evidence_traces,
            evidence_ms: ms(s.evidence_time),
            evidence_cpu_ms: ms(s.evidence_cpu_time),
            evidence_workers: s.evidence_workers,
            test_ms: ms(s.test_time),
            peak_evidence_bytes: s.peak_evidence_bytes,
            total_ms: ms(s.total_time),
        }
    }
}

impl MetricsReport {
    /// Builds the metrics report of a finished detection.
    pub fn new<I>(
        workload: impl Into<String>,
        detection: &Detection<I>,
        config: &OwlConfig,
    ) -> Self {
        let f = &detection.fault_counters;
        MetricsReport {
            schema_version: SCHEMA_VERSION,
            workload: workload.into(),
            parallelism: config.parallelism,
            spans: detection.spans.clone(),
            phase_stats: (&detection.stats).into(),
            counters: detection.counters,
            budget: BudgetUtilization {
                max_instructions_per_launch: config.budget.max_instructions,
                instructions: detection.counters.instructions,
                mem_events: detection.counters.mem_accesses,
                max_mem_events: config.budget.max_mem_events,
                max_allocations: config.budget.max_allocations,
                peak_evidence_bytes: detection.stats.peak_evidence_bytes,
                max_evidence_bytes: config.budget.max_evidence_bytes,
                deadline_millis: config.budget.deadline.map(|d| d.as_millis() as u64),
                cancelled_runs: f.trace_collection.cancelled
                    + f.evidence.cancelled
                    + f.analysis.cancelled,
                budget_exhausted_runs: f.trace_collection.budget_exhausted
                    + f.evidence.budget_exhausted
                    + f.analysis.budget_exhausted,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterOutcome;

    fn fake_detection() -> Detection<u64> {
        Detection {
            filter: FilterOutcome {
                classes: Vec::new(),
                duplicates_removed: 3,
            },
            report: LeakReport::default(),
            verdict: Verdict::NoInputDependence,
            stats: PhaseStats {
                trace_collection_time: Duration::from_millis(12),
                trace_bytes: 100,
                evidence_traces: 40,
                evidence_time: Duration::from_millis(80),
                evidence_cpu_time: Duration::from_millis(160),
                evidence_workers: 2,
                test_time: Duration::from_millis(5),
                peak_evidence_bytes: 2048,
                total_time: Duration::from_millis(97),
            },
            counters: SimCounters {
                instructions: 1234,
                ..SimCounters::default()
            },
            spans: {
                let mut s = Spans::new();
                s.record("trace_collection", Duration::from_millis(12));
                s
            },
            faults: FaultLog::new(),
            fault_counters: FaultCounters::default(),
            engine_comparison: None,
        }
    }

    /// Looks up `key` in a JSON object value (the shim `Value` has no
    /// `Index` impl).
    fn get<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.as_map()
            .expect("expected a JSON object")
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}"))
    }

    fn has_key(v: &serde_json::Value, key: &str) -> bool {
        v.as_map()
            .map(|m| m.iter().any(|(k, _)| k.as_str() == Some(key)))
            .unwrap_or(false)
    }

    #[test]
    fn summary_carries_schema_version_and_counters() {
        let d = fake_detection();
        let config = OwlConfig {
            runs: 20,
            aslr_seed: Some(7),
            ..OwlConfig::default()
        };
        let summary = DetectionSummary::new("toy", &d, &config);
        let json = serde_json::to_string_pretty(&summary).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            *get(&value, "schema_version"),
            serde_json::Value::Int(i128::from(SCHEMA_VERSION))
        );
        assert_eq!(get(&value, "verdict").as_str(), Some("no_input_dependence"));
        assert_eq!(
            *get(get(&value, "counters"), "instructions"),
            serde_json::Value::Int(1234)
        );
        let config_echo = get(&value, "config");
        assert_eq!(*get(config_echo, "runs"), serde_json::Value::Int(20));
        assert_eq!(*get(config_echo, "aslr_seed"), serde_json::Value::Int(7));
        assert_eq!(get(config_echo, "engine").as_str(), Some("ks"));
        assert_eq!(
            *get(config_echo, "compare_engines"),
            serde_json::Value::Bool(false)
        );
        // Comparison mode off: the table is explicit null, not absent.
        assert!(has_key(&value, "engine_comparison"));
        assert_eq!(*get(&value, "engine_comparison"), serde_json::Value::Null);
        // The determinism boundary: no parallelism, no timings.
        assert!(!has_key(config_echo, "parallelism"));
        assert!(!json.contains("_ms"));
        assert!(!json.contains("wall_nanos"));
        // The fault-tolerance echo: retry budget, quorum, and all-zero
        // fault counters with an empty quarantine log.
        assert_eq!(
            *get(config_echo, "retry_max_attempts"),
            serde_json::Value::Int(3)
        );
        assert!(has_key(config_echo, "min_runs_per_set"));
        // The governance echo: budgets are config, so they belong in the
        // deterministic summary.
        assert_eq!(
            *get(config_echo, "max_instructions"),
            serde_json::Value::Int(i128::from(owl_gpu::exec::DEFAULT_FUEL))
        );
        assert_eq!(*get(config_echo, "max_mem_events"), serde_json::Value::Null);
        assert_eq!(
            *get(config_echo, "deadline_millis"),
            serde_json::Value::Null
        );
        let faults = get(&value, "faults");
        assert_eq!(
            *get(get(faults, "evidence"), "quarantined"),
            serde_json::Value::Int(0)
        );
        assert_eq!(get(&value, "fault_log").as_seq().map(<[_]>::len), Some(0));
    }

    #[test]
    fn metrics_report_flattens_durations_to_ms() {
        let d = fake_detection();
        let config = OwlConfig {
            parallelism: 2,
            ..OwlConfig::default()
        };
        let metrics = MetricsReport::new("toy", &d, &config);
        let json = serde_json::to_string(&metrics).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(*get(&value, "parallelism"), serde_json::Value::Int(2));
        let stats = get(&value, "phase_stats");
        assert_eq!(*get(stats, "evidence_ms"), serde_json::Value::Float(80.0));
        assert_eq!(
            *get(stats, "evidence_cpu_ms"),
            serde_json::Value::Float(160.0)
        );
        let spans = get(&value, "spans").as_seq().expect("spans is an array");
        assert_eq!(get(&spans[0], "name").as_str(), Some("trace_collection"));
    }

    #[test]
    fn metrics_report_carries_budget_utilization() {
        let d = fake_detection();
        let config = OwlConfig {
            budget: crate::ResourceBudget {
                max_instructions: 50_000,
                max_evidence_bytes: Some(1 << 20),
                deadline: Some(Duration::from_millis(2500)),
                ..crate::ResourceBudget::DEFAULT
            },
            ..OwlConfig::default()
        };
        let metrics = MetricsReport::new("toy", &d, &config);
        let json = serde_json::to_string(&metrics).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let budget = get(&value, "budget");
        assert_eq!(
            *get(budget, "max_instructions_per_launch"),
            serde_json::Value::Int(50_000)
        );
        assert_eq!(*get(budget, "instructions"), serde_json::Value::Int(1234));
        assert_eq!(
            *get(budget, "max_evidence_bytes"),
            serde_json::Value::Int(1 << 20)
        );
        assert_eq!(
            *get(budget, "peak_evidence_bytes"),
            serde_json::Value::Int(2048)
        );
        assert_eq!(
            *get(budget, "deadline_millis"),
            serde_json::Value::Int(2500)
        );
        assert_eq!(*get(budget, "cancelled_runs"), serde_json::Value::Int(0));
        assert_eq!(
            *get(budget, "budget_exhausted_runs"),
            serde_json::Value::Int(0)
        );
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(verdict_name(Verdict::LeakFree), "leak_free");
        assert_eq!(
            verdict_name(Verdict::NoInputDependence),
            "no_input_dependence"
        );
        assert_eq!(verdict_name(Verdict::Leaky), "leaky");
        assert_eq!(verdict_name(Verdict::Inconclusive), "inconclusive");
    }
}
