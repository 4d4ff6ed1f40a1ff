//! The Owl detector: the three phases end to end.

use crate::analysis::{leakage_test, AnalysisConfig};
use crate::engine::{Engine, EngineComparison};
use crate::error::{DetectError, DetectPhase, RunContext};
use crate::evidence::Evidence;
use crate::fault::{FaultLog, FaultRecord, RunAttempt};
use crate::filter::{filter_traces, FilterOutcome};
use crate::govern::{CancelToken, ResourceBudget, ResourceKind, RunGovernor};
use crate::parallel::parallel_map;
use crate::program::TracedProgram;
use crate::record::{Recorder, RunSpec};
use crate::report::LeakReport;
use crate::trace::ProgramTrace;
use owl_gpu::exec::Interpreter;
use owl_metrics::{FaultCounters, PhaseFaultCounters, SimCounters, Spans};
use std::time::{Duration, Instant};

/// Recording stream of the phase-1 user-input recordings.
pub const STREAM_USER: u64 = 0;
/// Recording stream of the shared random evidence `E_rnd`.
pub const STREAM_RND: u64 = 1;
/// Recording stream of input class `class`'s fixed evidence `E_fix`.
pub fn fix_stream(class: usize) -> u64 {
    2 + class as u64
}

/// Runs per evidence work item: the recording fan-out granularity. Chunk
/// boundaries depend only on the run count — never on the worker count —
/// so the partial-evidence merge tree, and therefore the merged evidence,
/// is bit-identical for every `parallelism` setting.
const EVIDENCE_CHUNK: usize = 8;

/// Detection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OwlConfig {
    /// Executions per evidence side (the paper uses 100 fixed + 100
    /// random).
    pub runs: usize,
    /// KS confidence level (the paper uses 0.95).
    pub alpha: f64,
    /// Base seed for drawing random inputs (reproducibility).
    pub seed: u64,
    /// Run the leakage analysis even when filtering found a single input
    /// class (the paper would stop and declare the program leak-free).
    pub force_analysis: bool,
    /// The analysis engine deciding per-feature input dependence (the
    /// paper's KS test unless overridden; see [`Engine`]).
    pub method: Engine,
    /// Run *every* engine over the shared evidence and record the
    /// cross-engine agreement table in [`Detection::engine_comparison`].
    /// The primary report and verdict still come from [`OwlConfig::
    /// method`], so exit codes and verdicts are unchanged by this flag.
    pub compare_engines: bool,
    /// SIMT warp width used for every recorded execution (32 = NVIDIA
    /// warps, 64 = AMD-style wavefronts).
    pub warp_size: u32,
    /// When set, every recording runs on a device with simulated ASLR
    /// derived from this seed (a *different* layout per run), exercising
    /// the tracer's address normalisation end to end. Each run's layout is
    /// a pure function of `(aslr_seed, stream, run_index, attempt)`, never
    /// of recording order.
    pub aslr_seed: Option<u64>,
    /// Worker threads for the recording and analysis fan-out. Defaults to
    /// the number of available cores; `1` keeps everything inline on the
    /// calling thread. Results are bit-identical for every value — the
    /// evidence merge tree depends only on the run count.
    pub parallelism: usize,
    /// Recording attempts per run, the first try included (`1` = no
    /// retries). Each attempt re-records the run with the attempt index
    /// folded into its [`RunSpec`], so retries stay pure functions of their
    /// spec and the determinism contract holds. Cancelled and
    /// budget-exhausted runs are not retried. Runs that exhaust the
    /// attempts are quarantined into the detection's [`FaultLog`] instead
    /// of aborting.
    pub max_attempts: u32,
    /// Minimum surviving runs per evidence set (the shared `E_rnd` and each
    /// class's `E_fix`) for the distribution tests to be trusted. Sets that
    /// fall below the quorum make the verdict [`Verdict::Inconclusive`]
    /// rather than silently under-powered. `None` = half the configured
    /// runs (at least 2, never more than `runs`). The effective quorum is
    /// never below 1 (see [`OwlConfig::quorum`]).
    pub min_runs_per_set: Option<usize>,
    /// Resource budgets and deadline for the whole detection. Exhaustion
    /// surfaces as typed faults feeding the quarantine machinery, never as
    /// an abort; see [`ResourceBudget`] for the determinism contract.
    pub budget: ResourceBudget,
}

impl Default for OwlConfig {
    fn default() -> Self {
        OwlConfig {
            runs: 100,
            alpha: 0.95,
            seed: 0x0071_5eed,
            force_analysis: false,
            method: Engine::Ks,
            compare_engines: false,
            warp_size: owl_gpu::grid::WARP_SIZE,
            aslr_seed: None,
            parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            max_attempts: 3,
            min_runs_per_set: None,
            budget: ResourceBudget::DEFAULT,
        }
    }
}

impl OwlConfig {
    /// The effective per-set quorum: [`OwlConfig::min_runs_per_set`], or
    /// half the configured runs (at least 2), capped at `runs` — and never
    /// below 1, so an evidence set with no surviving run is never tested
    /// (every test compares recorded fixed evidence with recorded random
    /// evidence).
    pub fn quorum(&self) -> usize {
        self.min_runs_per_set
            .unwrap_or((self.runs / 2).max(2))
            .min(self.runs)
            .max(1)
    }

    /// Rejects configurations that cannot produce a meaningful detection —
    /// zero runs, a zero quorum or one no run count can satisfy, a
    /// zero-attempt retry budget, zero resource budgets, out-of-range alpha
    /// or warp size.
    ///
    /// `detect` does not call this: the detector's own clamping keeps every
    /// config *safe* (it cannot crash), but a nonsensical config silently
    /// clamped is a user error hidden. Front ends (the CLI, harnesses)
    /// validate up front and render the typed [`ConfigError`] instead.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.runs == 0 {
            return Err(ConfigError::ZeroRuns);
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConfigError::AlphaOutOfRange { alpha: self.alpha });
        }
        if !(1..=64).contains(&self.warp_size) {
            return Err(ConfigError::WarpSizeOutOfRange {
                warp_size: self.warp_size,
            });
        }
        if self.parallelism == 0 {
            return Err(ConfigError::ZeroParallelism);
        }
        if self.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        if let Some(quorum) = self.min_runs_per_set {
            if quorum == 0 {
                return Err(ConfigError::ZeroQuorum);
            }
            if quorum > self.runs {
                return Err(ConfigError::QuorumExceedsRuns {
                    quorum,
                    runs: self.runs,
                });
            }
        }
        if self.budget.max_instructions == 0 {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::Instructions,
            });
        }
        if self.budget.max_mem_events == Some(0) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::MemEvents,
            });
        }
        if self.budget.max_allocations == Some(0) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::Allocations,
            });
        }
        if self.budget.max_evidence_bytes == Some(0) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::EvidenceBytes,
            });
        }
        if self.budget.deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::Deadline,
            });
        }
        Ok(())
    }
}

/// A configuration that cannot produce a meaningful detection, caught by
/// [`OwlConfig::validate`] before any run is recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `runs == 0`: no evidence could be recorded.
    ZeroRuns,
    /// `alpha` outside the open interval `(0, 1)`.
    AlphaOutOfRange {
        /// The rejected confidence level.
        alpha: f64,
    },
    /// `warp_size` outside the simulator's supported `1..=64`.
    WarpSizeOutOfRange {
        /// The rejected warp width.
        warp_size: u32,
    },
    /// `parallelism == 0`: no worker could run.
    ZeroParallelism,
    /// `max_attempts == 0`: every run would quarantine untried.
    ZeroRetryAttempts,
    /// `min_runs_per_set == Some(0)`: an evidence set with no surviving
    /// run would count as tested.
    ZeroQuorum,
    /// `min_runs_per_set > runs`: the quorum can never be met.
    QuorumExceedsRuns {
        /// The configured quorum.
        quorum: usize,
        /// The configured run count.
        runs: usize,
    },
    /// A resource budget of zero: every run (or the whole detection) would
    /// exhaust immediately.
    ZeroBudget {
        /// The zero-budgeted resource.
        resource: ResourceKind,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRuns => {
                write!(f, "runs must be at least 1 (0 records no evidence)")
            }
            ConfigError::AlphaOutOfRange { alpha } => {
                write!(f, "alpha must be strictly between 0 and 1, got {alpha}")
            }
            ConfigError::WarpSizeOutOfRange { warp_size } => {
                write!(f, "warp size must be within 1..=64, got {warp_size}")
            }
            ConfigError::ZeroParallelism => {
                write!(f, "parallelism must be at least 1")
            }
            ConfigError::ZeroRetryAttempts => write!(
                f,
                "retry budget must allow at least 1 attempt (0 quarantines every run untried)"
            ),
            ConfigError::ZeroQuorum => write!(
                f,
                "min runs per set must be at least 1 (0 tests evidence that has no runs)"
            ),
            ConfigError::QuorumExceedsRuns { quorum, runs } => write!(
                f,
                "min runs per set ({quorum}) exceeds the configured runs ({runs}); \
                 the quorum could never be met"
            ),
            ConfigError::ZeroBudget { resource } => write!(
                f,
                "the {resource} budget must be nonzero (0 exhausts immediately)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Cost accounting for one detection, mirroring the columns of the paper's
/// Table IV.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Wall time of the trace-recording phase (filtering inputs).
    pub trace_collection_time: Duration,
    /// Mean bytes per recorded trace.
    pub trace_bytes: usize,
    /// Number of traces in the evidence (fixed + random), quarantined runs
    /// excluded.
    pub evidence_traces: usize,
    /// Wall time to record + merge the evidence.
    pub evidence_time: Duration,
    /// Sum of the per-worker recording time of the evidence phase. The
    /// ratio `evidence_cpu_time / evidence_time` is the observed parallel
    /// speedup (≈ 1 when `parallelism = 1`).
    pub evidence_cpu_time: Duration,
    /// Worker threads actually used by the evidence phase (`parallelism`
    /// clamped to the number of work items).
    pub evidence_workers: usize,
    /// Wall time of the distribution tests.
    pub test_time: Duration,
    /// Peak resident trace size proxy: the largest evidence footprint held
    /// at once, in bytes.
    pub peak_evidence_bytes: usize,
    /// Total wall time of the detection.
    pub total_time: Duration,
}

/// The detector's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All user inputs produced identical traces (§VI: leak-free).
    LeakFree,
    /// Differences existed but none survived the distribution tests: they
    /// are attributed to non-deterministic execution noise.
    NoInputDependence,
    /// Input-dependent leaks were found.
    Leaky,
    /// The detection completed but lost too many runs to quarantine to
    /// certify a clean result: user inputs went unrecorded, an evidence
    /// set fell below the [quorum](OwlConfig::min_runs_per_set), or a
    /// class's distribution test was lost to a panic. Never silently
    /// reported as clean — consult the [`FaultLog`]. (Leaks found on the
    /// surviving evidence still yield [`Verdict::Leaky`]: missing data can
    /// hide a leak, not fabricate one.)
    Inconclusive,
}

/// The complete result of one detection.
#[derive(Debug, Clone)]
pub struct Detection<I> {
    /// The input classes from the duplicates-removing phase.
    pub filter: FilterOutcome<I>,
    /// The merged leak report over all classes.
    pub report: LeakReport,
    /// The verdict.
    pub verdict: Verdict,
    /// Cost accounting.
    pub stats: PhaseStats,
    /// Simulator execution counters totalled over every recorded run
    /// (phase 1 and evidence alike). Deterministic: bit-identical for every
    /// `parallelism` setting, like the report itself.
    pub counters: SimCounters,
    /// Wall-clock spans of the detector phases, in phase order.
    /// Non-deterministic by nature — excluded from any reproducible output.
    pub spans: Spans,
    /// Every run quarantined after exhausting its retries, in run order
    /// (phase-1 inputs, then evidence chunks, then analysis classes).
    /// Empty on a fault-free detection.
    pub faults: FaultLog,
    /// Per-phase fault counters (retries, quarantines, caught panics).
    /// All-zero on a fault-free detection; merged associatively from
    /// per-chunk counters, so bit-identical for every `parallelism`.
    pub fault_counters: FaultCounters,
    /// The cross-engine agreement table, present only when the detection
    /// ran with [`OwlConfig::compare_engines`] and the analysis phase
    /// executed (deterministic like the report itself).
    pub engine_comparison: Option<EngineComparison>,
}

/// Runs the full Owl pipeline on `program` with the given user inputs.
///
/// Phase 1 records one trace per user input; phase 2 groups them into
/// classes (identical traces ⇒ same class); phase 3, for each class
/// representative, merges `runs` fixed-input executions into `E_fix`,
/// merges `runs` random-input executions into a shared `E_rnd`, and runs
/// the leak tests. Reports of all classes are merged, deduplicated by code
/// location.
///
/// Recording and analysis fan out across [`OwlConfig::parallelism`] worker
/// threads. Every recording is a pure function of its
/// `(stream, run_index, attempt)` identity (see [`RunSpec`]), chunk
/// boundaries depend only on the run count, and partial evidences merge in
/// chunk order — so the returned report, verdict, evidence, fault log and
/// fault counters are bit-identical for every `parallelism` value. Each
/// worker owns its simulated device and tracer end to end (they are
/// deliberately not thread-safe); only the finished, plain-data traces
/// cross threads.
///
/// # Fault tolerance
///
/// A failing run does not abort the detection. Each recording gets up to
/// [`OwlConfig::max_attempts`] attempts (each a pure function of its spec);
/// runs that exhaust them are *quarantined* into
/// [`Detection::faults`] and excluded from the evidence. Worker panics are
/// caught at the run boundary and quarantined the same way. The detection
/// completes on the surviving evidence; a clean result is reported as
/// [`Verdict::Inconclusive`] instead of leak-free whenever user inputs
/// were lost, an evidence set fell below the quorum
/// ([`OwlConfig::min_runs_per_set`]), or a class's distribution test was
/// lost — never a silent [`Verdict::LeakFree`].
///
/// # Errors
///
/// Returns [`DetectError::NoInputs`] when `user_inputs` is empty — the one
/// caller error left; program failures are quarantined, not returned.
///
/// # Example
///
/// See the crate-level documentation.
pub fn detect<P>(
    program: &P,
    user_inputs: &[P::Input],
    config: &OwlConfig,
) -> Result<Detection<P::Input>, DetectError>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    detect_with_cancel(program, user_inputs, config, None)
}

/// [`detect`] with a caller-provided [`CancelToken`].
///
/// The effective token combines the caller's with the config's deadline
/// ([`ResourceBudget::deadline`]): either firing cancels the detection
/// cooperatively. Cancellation never aborts — in-flight runs are abandoned
/// at the next basic-block boundary, queued runs fail fast, and everything
/// lost is quarantined like any other fault. The detection returns a
/// *partial* result over the surviving evidence, quorum-evaluated: leaks
/// found stand ([`Verdict::Leaky`]), a clean-looking result degrades to
/// [`Verdict::Inconclusive`] when anything was lost.
///
/// # Errors
///
/// See [`detect`]. A cancelled detection still returns `Ok` — the losses
/// live in [`Detection::faults`] and the verdict.
pub fn detect_with_cancel<P>(
    program: &P,
    user_inputs: &[P::Input],
    config: &OwlConfig,
    cancel: Option<&CancelToken>,
) -> Result<Detection<P::Input>, DetectError>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    if user_inputs.is_empty() {
        return Err(DetectError::NoInputs);
    }
    let t_total = Instant::now();
    let token = effective_token(cancel, config.budget.deadline);
    let pipeline = Pipeline {
        program,
        config,
        recorder: Recorder {
            interpreter: Interpreter::Lowered,
            governor: RunGovernor {
                budget: &config.budget,
                cancel: token.as_ref(),
            },
            max_attempts: config.max_attempts,
        },
        token: token.as_ref(),
        workers: config.parallelism.max(1),
    };
    let mut ledger = Ledger::default();
    let mut spans = Spans::new();
    let mut stats = PhaseStats::default();

    // Phases 1 + 2: one trace per user input, filtered into classes.
    let t = Instant::now();
    let inputs = ledger.absorb(pipeline.inputs(user_inputs));
    let filter = filter_traces(&inputs.kept, inputs.traces);
    stats.trace_bytes = inputs.trace_bytes;
    stats.trace_collection_time = lap(&mut spans, "trace_collection", t);

    // Phase 3, unless filtering already decided: no class left to analyse,
    // or a single class (the paper's leak-free case).
    let analysed = if filter.classes.is_empty() || (filter.single_class() && !config.force_analysis)
    {
        None
    } else {
        let t = Instant::now();
        let evidence = ledger.absorb(pipeline.evidence(&filter));
        stats.evidence_time = lap(&mut spans, "evidence", t);
        let t = Instant::now();
        let analysis = ledger.absorb(pipeline.analyse(&evidence));
        stats.test_time = lap(&mut spans, "analysis", t);
        stats.evidence_traces = evidence.sets.iter().map(|set| set.runs as usize).sum();
        stats.evidence_cpu_time = evidence.cpu_time;
        stats.evidence_workers = evidence.workers;
        stats.peak_evidence_bytes = evidence.peak_bytes();
        Some((evidence, analysis))
    };

    let verdict = verdict(inputs.lost, analysed.as_ref());
    let (report, engine_comparison) = match analysed {
        Some((_, analysis)) => (analysis.report, analysis.comparison),
        None => (LeakReport::default(), None),
    };
    stats.total_time = t_total.elapsed();
    Ok(Detection {
        filter,
        report,
        verdict,
        stats,
        counters: ledger.sim,
        spans,
        faults: ledger.faults,
        fault_counters: ledger.fault_counters,
        engine_comparison,
    })
}

/// The detection's effective cancellation token: the caller's, tightened
/// by the config deadline. A deadline with no caller token gets a fresh
/// token to hang off.
fn effective_token(
    cancel: Option<&CancelToken>,
    deadline: Option<Duration>,
) -> Option<CancelToken> {
    match (cancel, deadline) {
        (Some(t), Some(d)) => Some(t.deadline_in(d)),
        (Some(t), None) => Some(t.clone()),
        (None, Some(d)) => Some(CancelToken::new().deadline_in(d)),
        (None, None) => None,
    }
}

/// Records the wall time since `start` as the span `name` and returns it.
fn lap(spans: &mut Spans, name: &str, start: Instant) -> Duration {
    let wall = start.elapsed();
    spans.record(name, wall);
    wall
}

/// The verdict rule. Leaks found on surviving evidence are real regardless
/// of what was lost; a clean-looking result is only clean when nothing
/// was: no user input, no quorum, no class test and no evidence budget.
fn verdict(inputs_lost: bool, analysed: Option<&(Gathered, Analysed)>) -> Verdict {
    let lost = inputs_lost
        || analysed.is_some_and(|(evidence, analysis)| {
            evidence.below_quorum() || evidence.over_budget || analysis.lost
        });
    match analysed {
        Some((_, analysis)) if !analysis.report.is_clean() => Verdict::Leaky,
        _ if lost => Verdict::Inconclusive,
        Some(_) => Verdict::NoInputDependence,
        None => Verdict::LeakFree,
    }
}

/// One phase's fault accounting: its counters and its quarantine records,
/// in run order.
struct PhaseFaults {
    phase: DetectPhase,
    counters: PhaseFaultCounters,
    records: FaultLog,
}

impl PhaseFaults {
    fn new(phase: DetectPhase) -> Self {
        PhaseFaults {
            phase,
            counters: PhaseFaultCounters::default(),
            records: FaultLog::new(),
        }
    }

    /// Records the quarantine of run `(stream, run_index)` after
    /// `attempts` attempts; the context names the last, losing attempt.
    fn quarantine(
        &mut self,
        class: Option<usize>,
        stream: u64,
        run_index: u64,
        attempts: u32,
        error: DetectError,
    ) {
        self.records.push(FaultRecord {
            context: RunContext {
                phase: self.phase,
                class,
                stream,
                run_index,
                attempt: attempts.saturating_sub(1),
            },
            attempts,
            error,
        });
    }

    /// Folds a run's attempts into the counters and returns its recording,
    /// or quarantines the run when every attempt failed.
    fn settle(
        &mut self,
        attempt: RunAttempt,
        class: Option<usize>,
        stream: u64,
        run_index: u64,
    ) -> Option<(ProgramTrace, SimCounters)> {
        attempt.count_into(&mut self.counters);
        match attempt.result {
            Ok(recorded) => Some(recorded),
            Err(error) => {
                self.quarantine(class, stream, run_index, attempt.attempts, error);
                None
            }
        }
    }

    /// Quarantines a work item lost whole on its first try — a caught
    /// panic or a cancelled class test — under one record, counting each of
    /// its `runs` runs as failed.
    fn lose(
        &mut self,
        class: Option<usize>,
        stream: u64,
        run_index: u64,
        runs: u64,
        error: DetectError,
    ) {
        self.counters.failed_attempts += runs;
        self.counters.quarantined += runs;
        match error {
            DetectError::WorkerPanic { .. } => self.counters.panics += 1,
            DetectError::Cancelled => self.counters.cancelled += runs,
            _ => {}
        }
        self.quarantine(class, stream, run_index, 1, error);
    }

    fn merge(&mut self, other: PhaseFaults) {
        self.counters.merge(&other.counters);
        self.records.extend(other.records);
    }
}

/// A phase's output with the simulator work and the faults it adds to the
/// detection.
struct Phased<T> {
    output: T,
    sim: SimCounters,
    faults: PhaseFaults,
}

/// The detection-wide accounting, merged phase by phase in phase order, so
/// the fault log lists phase-1 inputs, then evidence chunks, then the
/// evidence budget, then analysis classes.
#[derive(Default)]
struct Ledger {
    sim: SimCounters,
    faults: FaultLog,
    fault_counters: FaultCounters,
}

impl Ledger {
    /// Merges a finished phase's accounting and returns its output.
    fn absorb<T>(&mut self, phased: Phased<T>) -> T {
        self.sim.merge(&phased.sim);
        let counters = match phased.faults.phase {
            DetectPhase::TraceCollection => &mut self.fault_counters.trace_collection,
            DetectPhase::Evidence => &mut self.fault_counters.evidence,
            DetectPhase::Analysis => &mut self.fault_counters.analysis,
        };
        counters.merge(&phased.faults.counters);
        self.faults.extend(phased.faults.records);
        phased.output
    }
}

/// Phase 1's output: the user inputs whose recording survived, in input
/// order, with their traces.
struct Inputs<I> {
    kept: Vec<I>,
    traces: Vec<ProgramTrace>,
    /// Mean bytes per kept trace.
    trace_bytes: usize,
    /// Whether any user input was quarantined.
    lost: bool,
}

/// One evidence-phase work item: a contiguous chunk of run indices for one
/// recording stream (the shared `E_rnd` or one class's `E_fix`).
struct EvidenceItem {
    /// `None` = random evidence, `Some(c)` = class `c`'s fixed evidence.
    class: Option<usize>,
    /// The stream the runs belong to.
    stream: u64,
    /// First run index of the chunk.
    start: usize,
    /// One past the last run index of the chunk.
    end: usize,
}

/// The evidence phase's output.
struct Gathered {
    /// `E_rnd` first, then every class's `E_fix` in class order.
    sets: Vec<Evidence>,
    /// Whether each set kept a quorum of runs, aligned with `sets`.
    quorate: Vec<bool>,
    /// Whether the merged evidence overran its byte budget.
    over_budget: bool,
    /// Summed per-chunk recording time.
    cpu_time: Duration,
    /// Worker threads the phase used.
    workers: usize,
}

impl Gathered {
    /// Whether class `c`'s test has a quorum on both sides. Shortfalls skip
    /// the test (never fake it) and make a clean verdict inconclusive.
    fn testable(&self, c: usize) -> bool {
        self.quorate[0] && self.quorate[c + 1]
    }

    fn below_quorum(&self) -> bool {
        self.quorate.contains(&false)
    }

    /// The largest footprint one class test holds: `E_rnd` plus the largest
    /// `E_fix`.
    fn peak_bytes(&self) -> usize {
        self.sets[0].size_bytes()
            + self.sets[1..]
                .iter()
                .map(Evidence::size_bytes)
                .max()
                .unwrap_or(0)
    }
}

/// The analysis phase's output.
struct Analysed {
    /// The configured engine's report, merged over classes.
    report: LeakReport,
    /// The agreement table, under [`OwlConfig::compare_engines`].
    comparison: Option<EngineComparison>,
    /// Whether any class test was lost to a panic or cancellation.
    lost: bool,
}

/// What every phase shares: the program, the config, the recorder every
/// run goes through, and the fan-out.
struct Pipeline<'a, P> {
    program: &'a P,
    config: &'a OwlConfig,
    recorder: Recorder<'a>,
    token: Option<&'a CancelToken>,
    workers: usize,
}

impl<P> Pipeline<'_, P>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    /// Records run `run_index` of `stream` under the retry loop.
    fn record(&self, input: &P::Input, stream: u64, run_index: usize) -> RunAttempt {
        let spec = RunSpec {
            warp_size: self.config.warp_size,
            aslr_seed: self.config.aslr_seed,
            stream,
            run_index: run_index as u64,
            attempt: 0,
        };
        self.recorder.record(self.program, input, &spec)
    }

    /// Phase 1: one trace per user input, fanned out and collected in input
    /// order. Failed inputs are quarantined in input order and left out of
    /// filtering; their loss blocks any clean verdict.
    fn inputs(&self, user_inputs: &[P::Input]) -> Phased<Inputs<P::Input>> {
        let attempts = parallel_map(self.workers, user_inputs.len(), self.token, |i| {
            self.record(&user_inputs[i], STREAM_USER, i)
        });
        let mut sim = SimCounters::default();
        let mut faults = PhaseFaults::new(DetectPhase::TraceCollection);
        let mut kept = Vec::with_capacity(user_inputs.len());
        let mut traces = Vec::with_capacity(user_inputs.len());
        for (i, slot) in attempts.into_iter().enumerate() {
            let recorded = match slot {
                Ok(attempt) => faults.settle(attempt, None, STREAM_USER, i as u64),
                // The retry loop catches panics itself, so a slot-level
                // panic can only come from the recorder's bookkeeping;
                // quarantine it all the same rather than crash.
                Err(panic) => {
                    faults.lose(None, STREAM_USER, i as u64, 1, panic.into());
                    None
                }
            };
            if let Some((trace, run_counters)) = recorded {
                sim.merge(&run_counters);
                kept.push(user_inputs[i].clone());
                traces.push(trace);
            }
        }
        let trace_bytes =
            traces.iter().map(ProgramTrace::size_bytes).sum::<usize>() / traces.len().max(1);
        Phased {
            output: Inputs {
                lost: kept.len() < user_inputs.len(),
                kept,
                traces,
                trace_bytes,
            },
            sim,
            faults,
        }
    }

    /// Phase 3a: the shared random evidence and every class's fixed
    /// evidence. One work item per chunk of [`EVIDENCE_CHUNK`] runs; the
    /// partials merge in chunk order, so the result is bit-identical for
    /// every worker count. Runs that exhaust their retries are quarantined
    /// inside their chunk; the chunk still yields the rest of its runs.
    fn evidence(&self, filter: &FilterOutcome<P::Input>) -> Phased<Gathered> {
        let runs = self.config.runs;
        let items: Vec<EvidenceItem> = std::iter::once(None)
            .chain((0..filter.classes.len()).map(Some))
            .flat_map(|class| {
                (0..runs)
                    .step_by(EVIDENCE_CHUNK)
                    .map(move |start| EvidenceItem {
                        class,
                        stream: class.map_or(STREAM_RND, fix_stream),
                        start,
                        end: (start + EVIDENCE_CHUNK).min(runs),
                    })
            })
            .collect();
        let workers = self.workers.min(items.len()).max(1);
        let chunks = parallel_map(workers, items.len(), self.token, |i| {
            let t = Instant::now();
            let chunk = self.record_chunk(filter, &items[i]);
            (chunk, t.elapsed())
        });
        let mut sim = SimCounters::default();
        let mut faults = PhaseFaults::new(DetectPhase::Evidence);
        let mut sets = vec![Evidence::default(); 1 + filter.classes.len()];
        let mut cpu_time = Duration::ZERO;
        for (item, slot) in items.iter().zip(chunks) {
            match slot {
                Ok((chunk, elapsed)) => {
                    cpu_time += elapsed;
                    sim.merge(&chunk.sim);
                    faults.merge(chunk.faults);
                    sets[item.class.map_or(0, |c| c + 1)].merge(chunk.output);
                }
                // The per-run retry loop catches program panics, so losing
                // a whole chunk is a recorder bug — quarantine every run in
                // it deterministically rather than abort.
                Err(panic) => {
                    let lost = (item.end - item.start) as u64;
                    faults.lose(
                        item.class,
                        item.stream,
                        item.start as u64,
                        lost,
                        panic.into(),
                    );
                }
            }
        }

        // The evidence-footprint budget bounds the *total* merged evidence.
        // It is checked here, after the merge, so the outcome is a pure
        // function of `(program, inputs, config)`. The evidence is kept (it
        // was already paid for and may prove a leak); the overrun is
        // recorded and blocks any clean verdict.
        let bytes = sets.iter().map(Evidence::size_bytes).sum();
        let over_budget = match self.config.budget.check_evidence(bytes) {
            Ok(()) => false,
            Err(error) => {
                faults.counters.budget_exhausted += 1;
                faults.quarantine(None, STREAM_RND, 0, 1, error);
                true
            }
        };
        let quorum = self.config.quorum() as u64;
        Phased {
            output: Gathered {
                quorate: sets.iter().map(|set| set.runs >= quorum).collect(),
                sets,
                over_budget,
                cpu_time,
                workers,
            },
            sim,
            faults,
        }
    }

    /// Records one evidence chunk into a partial [`Evidence`] over its
    /// surviving runs. Chunks never fail; faulty runs inside them are
    /// quarantined per run.
    fn record_chunk(
        &self,
        filter: &FilterOutcome<P::Input>,
        item: &EvidenceItem,
    ) -> Phased<Evidence> {
        let mut chunk = Phased {
            output: Evidence::default(),
            sim: SimCounters::default(),
            faults: PhaseFaults::new(DetectPhase::Evidence),
        };
        // With ASLR off and a host audited pure (`deterministic_host`), a
        // fixed-class run is a pure function of `(program, input)` —
        // `run_index` only feeds the layout seed — so every run of this
        // item produces a bit-identical trace and counters. Record once and
        // replicate exactly instead of re-recording `n` identical runs.
        // Impure hosts (e.g. a per-run nonce) must keep re-recording: their
        // fixed-run noise has to reach the evidence so the differential
        // test can dismiss it.
        let replicable = self.config.aslr_seed.is_none() && self.program.deterministic_host();
        if let Some(c) = item.class.filter(|_| replicable) {
            let probe = self.record(&filter.classes[c].representative, item.stream, item.start);
            if probe.result.is_ok() {
                // The probe records once for the whole chunk, so its retry
                // accounting folds exactly once (not per replica).
                probe.count_into(&mut chunk.faults.counters);
            }
            if let Ok((trace, run_counters)) = probe.result {
                let n = item.end - item.start;
                for _ in 0..n {
                    chunk.sim.merge(&run_counters);
                }
                chunk.output.merge_trace_repeated(trace, n as u64);
                return chunk;
            }
            // A failed probe falls through to the per-run loop: each run
            // then earns its own retries and its own quarantine record,
            // exactly as an impure host would. The probe's attempts are not
            // counted — the per-run loop re-derives the failure.
        }
        for run in item.start..item.end {
            let random_input;
            let input = match item.class {
                None => {
                    random_input = self
                        .program
                        .random_input(self.config.seed.wrapping_add(run as u64));
                    &random_input
                }
                Some(c) => &filter.classes[c].representative,
            };
            let attempt = self.record(input, item.stream, run);
            let run_index = run as u64;
            if let Some((trace, run_counters)) =
                chunk
                    .faults
                    .settle(attempt, item.class, item.stream, run_index)
            {
                chunk.sim.merge(&run_counters);
                chunk.output.merge_trace(trace);
            }
        }
        chunk
    }

    /// Phase 3b: the distribution tests, one per class, fanned out and
    /// merged in class order. Every engine in the list analyses the same
    /// evidence — all of [`Engine::ALL`] under comparison mode, otherwise
    /// just the configured one — and per-engine reports merge engine-wise.
    /// The primary report is the configured engine's.
    fn analyse(&self, evidence: &Gathered) -> Phased<Analysed> {
        let config = self.config;
        let engines: &[Engine] = if config.compare_engines {
            &Engine::ALL
        } else {
            std::slice::from_ref(&config.method)
        };
        // Cancellation is snapshotted once: either the whole analysis runs
        // or none of it does, so a deadline racing the fan-out cannot yield
        // a report built from an unpredictable subset of classes.
        let cancelled = self.token.is_some_and(CancelToken::is_cancelled);
        let (rnd, fixes) = evidence
            .sets
            .split_first()
            .expect("E_rnd is always gathered");
        let class_reports = parallel_map(self.workers, fixes.len(), self.token, |c| {
            (!cancelled && evidence.testable(c)).then(|| {
                engines
                    .iter()
                    .map(|&method| {
                        let analysis = AnalysisConfig {
                            alpha: config.alpha,
                            method,
                        };
                        leakage_test(&fixes[c], rnd, &analysis)
                    })
                    .collect::<Vec<_>>()
            })
        });
        let mut merged: Vec<(Engine, LeakReport)> = engines
            .iter()
            .map(|&engine| (engine, LeakReport::default()))
            .collect();
        let mut faults = PhaseFaults::new(DetectPhase::Analysis);
        for (c, slot) in class_reports.into_iter().enumerate() {
            match slot {
                Ok(Some(per_engine)) => {
                    for ((_, acc), class_report) in merged.iter_mut().zip(&per_engine) {
                        acc.merge(class_report);
                    }
                }
                Ok(None) if cancelled => {
                    faults.lose(Some(c), fix_stream(c), 0, 1, DetectError::Cancelled);
                }
                Ok(None) => {} // below quorum — already covered by `below_quorum`
                Err(panic) => faults.lose(Some(c), fix_stream(c), 0, 1, panic.into()),
            }
        }
        let comparison =
            (config.compare_engines && !cancelled).then(|| EngineComparison::from_reports(&merged));
        let report = merged
            .into_iter()
            .find_map(|(engine, report)| (engine == config.method).then_some(report))
            .unwrap_or_default();
        Phased {
            output: Analysed {
                report,
                comparison,
                lost: !faults.records.is_empty(),
            },
            sim: SimCounters::default(),
            faults,
        }
    }
}
