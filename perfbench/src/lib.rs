//! The detection benchmark: time to verdict of `owl_core::detect()` on
//! fixed workloads, and a traced per-layer rebuild of the same detection.
//!
//! A run sets the workload up, then sends requests in a closed loop — one
//! caller, the next request only after the previous one returned — for
//! the given number of seconds, checking every output. With tracing on it
//! then rebuilds the detection serially from each layer's public
//! functions ([`traced`]) and reports where the time went. See
//! `README.md` beside this crate for the workloads and the metrics.

pub mod alloc;
pub mod measure;
pub mod metrics;
pub mod traced;
pub mod workload;

use measure::{closed_loop, median, peak_rss_mb, quantile, setup, summary_json, tail_quantile};
use metrics::Outcome;
use owl::core::trace::Fnv1a;
use owl::core::{detect, OwlConfig, TracedProgram};
use std::hash::Hasher;
use std::time::{Duration, Instant};
use traced::{traced_detect, TracedRun};
use workload::Prepared;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Traced rebuilds per traced run; per-layer times are their medians.
pub const TRACE_REPS: usize = 5;

/// Runs one workload for `seconds`: the closed loop, and with `trace` the
/// traced rebuild after it.
///
/// # Errors
///
/// A warm-up request that returned an error, an unreadable peak-RSS
/// figure, or a traced rebuild that could not run.
pub fn run<P>(
    prepare: impl Fn(u64) -> Prepared<P>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let setup = setup(prepare, seed, SETUP_REPS)?;
    let p = &setup.prepared;
    let stats = closed_loop(p, &setup.reference, Duration::from_secs_f64(seconds));
    let n = stats.latencies_ms.len();
    let tail = tail_quantile(n);
    let mut lines = vec![
        format!(
            "workload {} seed {seed}: {} requests in {:.2} s, closed loop, 1 caller, parallelism {}",
            p.name, stats.attempted, stats.elapsed_s, p.config.parallelism
        ),
        format!(
            "error_rate = {} ({} failed of {} attempted; warm-up {})",
            stats.failed as f64 / stats.attempted as f64,
            stats.failed,
            stats.attempted,
            if setup.warmup_ok { "ok" } else { "FAILED" }
        ),
        format!(
            "summary digest {:016x} ({} bytes)",
            summary_digest(&setup.reference),
            setup.reference.len()
        ),
    ];
    let mut outcome = Outcome {
        correct: setup.warmup_ok && stats.failed == 0,
        attempted: stats.attempted,
        failed: stats.failed,
        values: Vec::new(),
        lines: Vec::new(),
    };
    if trace {
        traced_metrics(p, &setup.reference, &stats, &mut outcome, &mut lines)?;
    } else {
        lines.push(format!(
            "verdict_p90_ms is the p{:.1} of {n} samples; setup_s is the median of {} set-ups; \
             peak RSS {:.2} MiB after the first set-up, {:.2} MiB after the loop",
            tail * 100.0,
            setup.seconds.len(),
            setup.first_peak_rss_mb,
            peak_rss_mb()?
        ));
        outcome.values = vec![
            ("verdict_p50_ms", median(&stats.latencies_ms)),
            ("verdict_p90_ms", quantile(&stats.latencies_ms, tail)),
            ("events_per_s", stats.events as f64 / stats.elapsed_s),
            ("peak_rss_mb", setup.first_peak_rss_mb),
            ("setup_s", median(&setup.seconds)),
        ];
    }
    outcome.lines = lines;
    Ok(outcome)
}

/// FNV-1a of the summary JSON, the hash the detector keys traces with.
fn summary_digest(json: &str) -> u64 {
    let mut hasher = Fnv1a::default();
    hasher.write(json.as_bytes());
    hasher.finish()
}

/// Runs [`TRACE_REPS`] traced rebuilds, each followed by a
/// `parallelism = 1` `detect()` of the same workload, checks that the
/// rebuild reproduces `detect()`, and fills in the per-layer metrics.
fn traced_metrics<P>(
    p: &Prepared<P>,
    reference: &str,
    stats: &measure::LoopStats,
    outcome: &mut Outcome,
    lines: &mut Vec<String>,
) -> Result<(), String>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let serial = OwlConfig {
        parallelism: 1,
        ..p.config
    };
    let mut runs: Vec<TracedRun<P::Input>> = Vec::with_capacity(TRACE_REPS);
    let mut serial_ms = Vec::with_capacity(TRACE_REPS);
    for _ in 0..TRACE_REPS {
        alloc::set_counting(true);
        let traced = traced_detect(p);
        alloc::set_counting(false);
        let traced = traced?;
        let t = Instant::now();
        let detection = detect(&p.program, &p.inputs, &serial).map_err(|e| e.to_string())?;
        let json = summary_json(p, &detection)?;
        serial_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let matches = traced.detection.report == detection.report
            && traced.detection.counters == detection.counters
            && traced.summary_json == json
            && json == reference;
        outcome.attempted += 1;
        if !matches {
            outcome.failed += 1;
            outcome.correct = false;
        }
        runs.push(traced);
    }
    let med =
        |f: &dyn Fn(&TracedRun<P::Input>) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let tracer_ns =
        |r: &TracedRun<P::Input>| (r.record.busy.as_secs_f64() - r.bare.busy.as_secs_f64()) * 1e9;
    let total_ms = med(&|r| ms(r.total));
    let serial_p1_ms = median(&serial_ms);
    let last = runs.last().expect("TRACE_REPS > 0");
    lines.push(format!(
        "traced rebuild: {TRACE_REPS} reps, report/counters/summary equal detect(): {}; \
         traced total {total_ms:.2} ms vs parallelism-1 detect() {serial_p1_ms:.2} ms",
        outcome.failed == 0
    ));
    lines.push(format!(
        "verdict {:?}, {} leaks, counters {:?}",
        last.detection.verdict,
        last.detection.report.leaks.len(),
        last.detection.counters
    ));
    outcome.values = vec![
        ("gpu-sim.busy_ms", med(&|r| r.bare.ms())),
        (
            "gpu-sim.ns_per_instruction",
            med(&|r| r.bare.busy.as_secs_f64() * 1e9 / r.physical_counters.instructions as f64),
        ),
        (
            "gpu-sim.instructions",
            last.physical_counters.instructions as f64,
        ),
        (
            "gpu-sim.divergence_events",
            last.physical_counters.divergence_events as f64,
        ),
        (
            "gpu-sim.mem_transactions",
            last.physical_counters.mem_transactions as f64,
        ),
        ("tracer.busy_ms", med(&|r| tracer_ns(r) / 1e6)),
        (
            "tracer.ns_per_event",
            med(&|r| {
                let c = &r.physical_counters;
                tracer_ns(r) / (c.instructions + c.mem_accesses) as f64
            }),
        ),
        ("record.busy_ms", med(&|r| r.record.ms())),
        ("record.physical_runs", last.physical_runs as f64),
        ("record.logical_runs", last.logical_runs as f64),
        (
            "record.replication_ratio",
            last.logical_runs as f64 / last.physical_runs as f64,
        ),
        ("record.trace_bytes", last.trace_bytes as f64),
        (
            "record.failed_attempts",
            stats.failed_attempts as f64 / stats.completed.max(1) as f64,
        ),
        ("record.allocs", med(&|r| r.record.allocs.calls as f64)),
        ("record.alloc_bytes", med(&|r| r.record.allocs.bytes as f64)),
        ("filter.busy_ms", med(&|r| r.filter.ms())),
        ("filter.classes", last.detection.filter.classes.len() as f64),
        ("evidence.merge_trace_ms", med(&|r| r.merge_trace.ms())),
        ("evidence.merge_chunk_ms", med(&|r| r.merge_chunk.ms())),
        ("evidence.bytes", last.evidence_bytes as f64),
        (
            "evidence.allocs",
            med(&|r| (r.merge_trace.allocs.calls + r.merge_chunk.allocs.calls) as f64),
        ),
        (
            "evidence.alloc_bytes",
            med(&|r| (r.merge_trace.allocs.bytes + r.merge_chunk.allocs.bytes) as f64),
        ),
        ("analysis.busy_ms", med(&|r| r.analysis.ms())),
        (
            "analysis.share_pct",
            med(&|r| 100.0 * r.analysis.busy.as_secs_f64() / r.total.as_secs_f64()),
        ),
        ("analysis.leaks", last.detection.report.leaks.len() as f64),
        ("analysis.allocs", med(&|r| r.analysis.allocs.calls as f64)),
        (
            "analysis.alloc_bytes",
            med(&|r| r.analysis.allocs.bytes as f64),
        ),
        ("report.merge_ms", med(&|r| r.report_merge.ms())),
        ("summary.busy_ms", med(&|r| r.summary.ms())),
        ("summary.bytes", last.summary_json.len() as f64),
        ("summary.allocs", med(&|r| r.summary.allocs.calls as f64)),
        (
            "summary.alloc_bytes",
            med(&|r| r.summary.allocs.bytes as f64),
        ),
        (
            "parallel.evidence_speedup",
            median(&stats.evidence_speedups),
        ),
        ("parallel.idle_ms", median(&stats.evidence_idle_ms)),
        ("trace.total_ms", total_ms),
        ("trace.detect_p1_ms", serial_p1_ms),
        (
            "trace.overhead_pct",
            100.0 * (total_ms - serial_p1_ms) / serial_p1_ms,
        ),
        (
            "trace.coverage_pct",
            med(&|r| 100.0 * r.attributed().as_secs_f64() / r.total.as_secs_f64()),
        ),
    ];
    Ok(())
}
