//! The untraced measurement: set-up and the closed request loop.
//!
//! One request is what `owl-detect --format json` does minus process
//! start: `detect()`, then the detection summary serialised to JSON.

use crate::workload::Prepared;
use owl::core::{detect, Detection, DetectionSummary, TracedProgram, Verdict};
use std::time::{Duration, Instant};

/// One request: the detection and its summary JSON.
///
/// # Errors
///
/// The detector's error, or a serialisation failure, as text.
pub fn request<P>(p: &Prepared<P>) -> Result<(Detection<P::Input>, String), String>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let detection = detect(&p.program, &p.inputs, &p.config).map_err(|e| e.to_string())?;
    let json = summary_json(p, &detection)?;
    Ok((detection, json))
}

/// The detection summary of `detection`, serialised as `owl-detect` does.
///
/// # Errors
///
/// A serialisation failure, as text.
pub fn summary_json<P: TracedProgram>(
    p: &Prepared<P>,
    detection: &Detection<P::Input>,
) -> Result<String, String> {
    let summary = DetectionSummary::new(p.name, detection, &p.config);
    serde_json::to_string_pretty(&summary).map_err(|e| format!("serialising summary: {e}"))
}

/// Whether a request's output is right: the verdict is `Leaky`, nothing
/// was quarantined or retried, and the summary equals `reference`
/// byte for byte.
pub fn output_ok<I>(detection: &Detection<I>, json: &str, reference: &str) -> bool {
    detection.verdict == Verdict::Leaky
        && detection.faults.is_empty()
        && detection.fault_counters.is_zero()
        && json == reference
}

/// A prepared workload and what setting it up cost.
pub struct Setup<P: TracedProgram> {
    /// The workload as the last set-up built it.
    pub prepared: Prepared<P>,
    /// The warm-up request's summary JSON: the reference every later
    /// request must reproduce.
    pub reference: String,
    /// Whether every warm-up request passed the verdict and fault checks
    /// and all set-ups produced the same summary.
    pub warmup_ok: bool,
    /// Wall time of each set-up, in seconds.
    pub seconds: Vec<f64>,
    /// The process's peak resident memory after the first set-up, in MiB:
    /// what one `owl-detect` process peaks at. Later marks drift upwards
    /// as worker threads inherit each other's allocator arenas.
    pub first_peak_rss_mb: f64,
}

/// Sets the workload up `reps` times — building the program's kernels,
/// generating the inputs from `seed` and running one warm-up request —
/// and keeps the last set-up.
///
/// # Errors
///
/// A warm-up request that returned an error, or an unreadable peak RSS.
pub fn setup<P>(
    prepare: impl Fn(u64) -> Prepared<P>,
    seed: u64,
    reps: usize,
) -> Result<Setup<P>, String>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let mut seconds = Vec::with_capacity(reps);
    let mut last: Option<(Prepared<P>, String)> = None;
    let mut warmup_ok = true;
    let mut first_peak_rss_mb = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let prepared = prepare(seed);
        let (detection, json) = request(&prepared)?;
        seconds.push(t.elapsed().as_secs_f64());
        if first_peak_rss_mb.is_none() {
            first_peak_rss_mb = Some(peak_rss_mb()?);
        }
        let reference = last.as_ref().map_or(json.as_str(), |(_, r)| r.as_str());
        warmup_ok &= output_ok(&detection, &json, reference);
        last = Some((prepared, json));
    }
    let (prepared, reference) = last.expect("at least one set-up ran");
    Ok(Setup {
        prepared,
        reference,
        warmup_ok,
        seconds,
        first_peak_rss_mb: first_peak_rss_mb.expect("at least one set-up ran"),
    })
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Host wall time of every request, in milliseconds, in loop order.
    pub latencies_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose output failed [`output_ok`] or that returned an
    /// error.
    pub failed: u64,
    /// Requests that returned a detection.
    pub completed: u64,
    /// Failed recording attempts (trace collection and evidence) summed
    /// over the completed detections' fault counters.
    pub failed_attempts: u64,
    /// Logical simulated events (warp instructions plus warp memory
    /// accesses) of every completed request.
    pub events: u64,
    /// Wall time of the whole loop, in seconds.
    pub elapsed_s: f64,
    /// Per request: evidence CPU time over evidence wall time.
    pub evidence_speedups: Vec<f64>,
    /// Per request: worker time the evidence phase left idle, in
    /// milliseconds.
    pub evidence_idle_ms: Vec<f64>,
}

/// Sends requests back to back, one caller, for `budget` (at least one
/// request), checking every output against `reference`.
pub fn closed_loop<P>(p: &Prepared<P>, reference: &str, budget: Duration) -> LoopStats
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let mut stats = LoopStats::default();
    let start = Instant::now();
    while stats.attempted == 0 || start.elapsed() < budget {
        let t = Instant::now();
        let outcome = request(p);
        stats.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        stats.attempted += 1;
        match outcome {
            Ok((detection, json)) => {
                if !output_ok(&detection, &json, reference) {
                    stats.failed += 1;
                }
                stats.completed += 1;
                let f = &detection.fault_counters;
                stats.failed_attempts +=
                    f.trace_collection.failed_attempts + f.evidence.failed_attempts;
                let c = &detection.counters;
                stats.events += c.instructions + c.mem_accesses;
                let s = &detection.stats;
                let wall = s.evidence_time.as_secs_f64();
                let cpu = s.evidence_cpu_time.as_secs_f64();
                if wall > 0.0 {
                    stats.evidence_speedups.push(cpu / wall);
                }
                stats
                    .evidence_idle_ms
                    .push((s.evidence_workers as f64 * wall - cpu) * 1e3);
            }
            Err(_) => stats.failed += 1,
        }
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between the closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail quantile reported for `n` samples: 0.9 when at least ten
/// samples lie beyond it, else the highest quantile that keeps ten beyond
/// it, never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
