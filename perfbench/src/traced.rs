//! The traced run: `detect()` rebuilt serially from the public functions
//! of each layer, every call timed from here.
//!
//! The rebuild follows `owl_core::detect` on its fault-free, single-engine
//! path: record one trace per user input, filter them into classes, record
//! the random and per-class fixed evidence in chunks of
//! [`EVIDENCE_CHUNK`] runs (recording a fixed chunk once and replicating it
//! when the host is deterministic and ASLR is off), merge the chunk
//! partials in chunk order, run the leak test per class and merge the
//! class reports. The self-tests check that its report, counters and
//! summary equal `detect()`'s, so a change to `detect()`'s phases shows
//! as a failure, not as misattributed time.
//!
//! Every recording is replayed once more on a fresh device with no hook
//! and the same layout. That bare run is the simulator's share; the rest
//! of the recording is the tracer's. Replays are excluded from the traced
//! total and from the allocation counts.

use crate::alloc::{self, AllocCount};
use crate::measure::summary_json;
use crate::workload::Prepared;
use owl::core::{
    filter_traces, fix_stream, leakage_test, record_run_metered, AnalysisConfig, Detection,
    Evidence, FaultCounters, FaultLog, LeakReport, PhaseStats, ProgramTrace, RunSpec, SimCounters,
    Spans, TracedProgram, Verdict, STREAM_RND, STREAM_USER,
};
use owl::gpu::exec::{Interpreter, LaunchOptions};
use owl::host::Device;
use std::time::{Duration, Instant};

/// Runs per evidence work item, as in `detect()`.
pub const EVIDENCE_CHUNK: usize = 8;

/// Host time and allocations spent in one layer's calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Wall time inside the calls.
    pub busy: Duration,
    /// Allocations the calls made (zero unless counting is on).
    pub allocs: AllocCount,
}

impl Layer {
    /// Runs `f`, adding its wall time and allocations to this layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = alloc::snapshot();
        let t = Instant::now();
        let out = f();
        self.busy += t.elapsed();
        let made = alloc::snapshot().since(before);
        self.allocs.calls += made.calls;
        self.allocs.bytes += made.bytes;
        out
    }

    /// Busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.busy.as_secs_f64() * 1e3
    }
}

/// One traced detection.
#[derive(Debug)]
pub struct TracedRun<I> {
    /// The rebuilt detection.
    pub detection: Detection<I>,
    /// Its summary JSON.
    pub summary_json: String,
    /// Wall time of the rebuild minus the bare replays.
    pub total: Duration,
    /// `record_run_metered` calls.
    pub record: Layer,
    /// Bare replays of the same runs (the simulator alone).
    pub bare: Layer,
    /// `filter_traces`.
    pub filter: Layer,
    /// `Evidence::merge_trace` and `merge_trace_repeated`.
    pub merge_trace: Layer,
    /// `Evidence::merge` of the chunk partials.
    pub merge_chunk: Layer,
    /// `leakage_test`, once per class.
    pub analysis: Layer,
    /// `LeakReport::merge`.
    pub report_merge: Layer,
    /// `DetectionSummary::new` plus serialisation.
    pub summary: Layer,
    /// Counters of the recorded (physical) runs.
    pub physical_counters: SimCounters,
    /// Recordings made.
    pub physical_runs: u64,
    /// Runs the evidence counts, replicated ones included.
    pub logical_runs: u64,
    /// Bytes of every recorded trace.
    pub trace_bytes: u64,
    /// Merged evidence footprint (random plus every class's fixed side).
    pub evidence_bytes: u64,
}

impl<I> TracedRun<I> {
    /// Sum of the layer times the rebuild attributes.
    pub fn attributed(&self) -> Duration {
        self.record.busy
            + self.filter.busy
            + self.merge_trace.busy
            + self.merge_chunk.busy
            + self.analysis.busy
            + self.report_merge.busy
            + self.summary.busy
    }
}

/// Accumulates the recording layers while the rebuild runs.
struct Recorder<'a, P: TracedProgram> {
    program: &'a P,
    record: Layer,
    bare: Layer,
    physical_counters: SimCounters,
    physical_runs: u64,
    trace_bytes: u64,
}

impl<P: TracedProgram> Recorder<'_, P> {
    /// Records one run, then replays it bare.
    fn record(
        &mut self,
        input: &P::Input,
        spec: &RunSpec,
    ) -> Result<(ProgramTrace, SimCounters), String> {
        let program = self.program;
        self.physical_runs += 1;
        let recorded = self
            .record
            .time(|| record_run_metered(program, input, spec))
            .map_err(|e| {
                format!(
                    "recording stream {} run {}: {e}",
                    spec.stream, spec.run_index
                )
            })?;
        let counting = alloc::set_counting(false);
        let bare = self.bare.time(|| bare_run(program, input, spec));
        alloc::set_counting(counting);
        if bare? != recorded.1 {
            return Err(format!(
                "bare replay of stream {} run {} executed different work than its recording",
                spec.stream, spec.run_index
            ));
        }
        self.physical_counters.merge(&recorded.1);
        self.trace_bytes += recorded.0.size_bytes() as u64;
        Ok(recorded)
    }
}

/// `program` run on a fresh, hook-less device with `spec`'s layout and
/// warp width: the simulator and host runtime without the tracer.
fn bare_run<P: TracedProgram>(
    program: &P,
    input: &P::Input,
    spec: &RunSpec,
) -> Result<SimCounters, String> {
    let mut device = match spec.layout_seed() {
        None => Device::new(),
        Some(seed) => Device::with_aslr(seed),
    };
    device.set_launch_options(LaunchOptions {
        warp_size: spec.warp_size,
        interpreter: Interpreter::Lowered,
        ..LaunchOptions::default()
    });
    program
        .run_with_spec(&mut device, input, spec)
        .map_err(|e| format!("bare replay of stream {}: {e}", spec.stream))?;
    Ok(device.total_stats().counters)
}

/// Rebuilds `detect(&p.program, &p.inputs, &p.config)` serially.
///
/// # Errors
///
/// A failed recording, a replay that disagrees with its recording, or a
/// config outside the path the rebuild follows (engine comparison,
/// budgets or a deadline).
pub fn traced_detect<P: TracedProgram>(p: &Prepared<P>) -> Result<TracedRun<P::Input>, String> {
    let config = &p.config;
    if config.compare_engines || config.budget != owl::core::ResourceBudget::DEFAULT {
        return Err("the traced rebuild follows the single-engine, unbudgeted path".into());
    }
    let spec = |stream, run_index: usize| RunSpec {
        warp_size: config.warp_size,
        aslr_seed: config.aslr_seed,
        stream,
        run_index: run_index as u64,
        attempt: 0,
    };
    let t_total = Instant::now();
    let mut rec = Recorder {
        program: &p.program,
        record: Layer::default(),
        bare: Layer::default(),
        physical_counters: SimCounters::default(),
        physical_runs: 0,
        trace_bytes: 0,
    };
    let mut filter_layer = Layer::default();
    let mut merge_trace = Layer::default();
    let mut merge_chunk = Layer::default();
    let mut analysis = Layer::default();
    let mut report_merge = Layer::default();
    let mut summary = Layer::default();
    let mut counters = SimCounters::default();
    let mut logical_runs = 0u64;

    // Phase 1 + 2: one trace per user input, then the duplicate filter.
    let mut traces = Vec::with_capacity(p.inputs.len());
    for (i, input) in p.inputs.iter().enumerate() {
        let (trace, run_counters) = rec.record(input, &spec(STREAM_USER, i))?;
        counters.merge(&run_counters);
        traces.push(trace);
        logical_runs += 1;
    }
    let filter = filter_layer.time(|| filter_traces(&p.inputs, traces));

    let mut report = LeakReport::default();
    let mut evidence_bytes = 0u64;
    let verdict = if filter.single_class() && !config.force_analysis {
        Verdict::LeakFree
    } else {
        // Phase 3: evidence, chunk by chunk, partials merged in chunk order.
        let mut rnd = Evidence::default();
        let mut fixes = vec![Evidence::default(); filter.classes.len()];
        for class in std::iter::once(None).chain((0..filter.classes.len()).map(Some)) {
            let stream = class.map_or(STREAM_RND, fix_stream);
            let replicate =
                class.is_some() && config.aslr_seed.is_none() && p.program.deterministic_host();
            for start in (0..config.runs).step_by(EVIDENCE_CHUNK) {
                let end = (start + EVIDENCE_CHUNK).min(config.runs);
                let mut partial = Evidence::default();
                match class {
                    Some(c) if replicate => {
                        let input = &filter.classes[c].representative;
                        let (trace, run_counters) = rec.record(input, &spec(stream, start))?;
                        let n = end - start;
                        for _ in 0..n {
                            counters.merge(&run_counters);
                        }
                        merge_trace.time(|| partial.merge_trace_repeated(trace, n as u64));
                        logical_runs += n as u64;
                    }
                    _ => {
                        for run in start..end {
                            let random_input;
                            let input = match class {
                                None => {
                                    random_input = p
                                        .program
                                        .random_input(config.seed.wrapping_add(run as u64));
                                    &random_input
                                }
                                Some(c) => &filter.classes[c].representative,
                            };
                            let (trace, run_counters) = rec.record(input, &spec(stream, run))?;
                            counters.merge(&run_counters);
                            merge_trace.time(|| partial.merge_trace(trace));
                            logical_runs += 1;
                        }
                    }
                }
                let target = match class {
                    None => &mut rnd,
                    Some(c) => &mut fixes[c],
                };
                merge_chunk.time(|| target.merge(partial));
            }
        }
        evidence_bytes =
            (rnd.size_bytes() + fixes.iter().map(Evidence::size_bytes).sum::<usize>()) as u64;

        // Distribution tests, one per class, merged in class order.
        let analysis_config = AnalysisConfig {
            alpha: config.alpha,
            method: config.method,
        };
        for fix in &fixes {
            let class_report = analysis.time(|| leakage_test(fix, &rnd, &analysis_config));
            report_merge.time(|| report.merge(&class_report));
        }
        if report.is_clean() {
            Verdict::NoInputDependence
        } else {
            Verdict::Leaky
        }
    };

    let detection = Detection {
        filter,
        report,
        verdict,
        stats: PhaseStats::default(),
        counters,
        spans: Spans::new(),
        faults: FaultLog::new(),
        fault_counters: FaultCounters::default(),
        engine_comparison: None,
    };
    let summary_json = summary.time(|| summary_json(p, &detection))?;
    let total = t_total.elapsed().saturating_sub(rec.bare.busy);
    Ok(TracedRun {
        detection,
        summary_json,
        total,
        record: rec.record,
        bare: rec.bare,
        filter: filter_layer,
        merge_trace,
        merge_chunk,
        analysis,
        report_merge,
        summary,
        physical_counters: rec.physical_counters,
        physical_runs: rec.physical_runs,
        logical_runs,
        trace_bytes: rec.trace_bytes,
        evidence_bytes,
    })
}
