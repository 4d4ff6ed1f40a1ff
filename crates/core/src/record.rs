//! Phase 1 — trace recording (paper §V).
//!
//! One recorded execution = a fresh device, the Owl tracer attached, the
//! program run once, and the host/device observations zipped into a
//! [`ProgramTrace`]: kernel launches (host side, with call-site identity)
//! paired with their A-DCFGs (device side), plus allocation records.
//!
//! Every recording is identified by a [`RunSpec`]. The detector records
//! through [`Recorder::record`], which adds the interpreter choice,
//! budgets, cancellation and the retry loop; [`record_run_metered`] is one
//! attempt of what the default [`Recorder`] records. A one-shot recording
//! outside the detector is
//! `record_run_metered(program, input, &RunSpec::default())`.

use crate::error::DetectError;
use crate::fault::{is_permanent, panic_message, RunAttempt};
use crate::govern::RunGovernor;
use crate::program::TracedProgram;
use crate::trace::{InvocationKey, KernelInvocation, MallocRecord, ProgramTrace};
use crate::tracer::OwlTracer;
use owl_gpu::exec::{Interpreter, LaunchOptions};
use owl_host::{Device, HostEvent};
use owl_metrics::SimCounters;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Identity of one detector-driven recording: everything needed to set up
/// the device deterministically, independent of which thread records the
/// run or in which order runs execute.
///
/// The detector assigns every recording a `(stream, run_index)` pair —
/// phase-1 user-input recordings, the shared `E_rnd` recordings, and each
/// class's `E_fix` recordings live in distinct streams — and the simulated
/// ASLR layout is a pure mix of `(aslr_seed, stream, run_index)`. Two
/// recordings of equal arguments produce equal traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// SIMT warp width for the recording device.
    pub warp_size: u32,
    /// Base ASLR seed (`None` = ASLR off).
    pub aslr_seed: Option<u64>,
    /// The recording stream this run belongs to.
    pub stream: u64,
    /// The run's index within its stream.
    pub run_index: u64,
    /// The retry attempt this recording belongs to (0 = first try). Folded
    /// into the layout seed so retried runs stay pure functions of their
    /// spec: attempt 0 reproduces the pre-retry layout exactly, and each
    /// retry sees a fresh (but deterministic) layout under ASLR.
    pub attempt: u32,
}

impl Default for RunSpec {
    /// A one-shot identity: the default warp width, ASLR off, stream 0,
    /// run 0, first attempt. Recorded under [`record_run_metered`], it
    /// launches exactly as a fresh [`Device::new`] does.
    fn default() -> Self {
        RunSpec {
            warp_size: owl_gpu::grid::WARP_SIZE,
            aslr_seed: None,
            stream: 0,
            run_index: 0,
            attempt: 0,
        }
    }
}

impl RunSpec {
    /// The per-run ASLR layout seed: a pure function of
    /// `(aslr_seed, stream, run_index, attempt)`, never of recording
    /// order. `attempt == 0` contributes nothing, keeping first-try
    /// layouts identical to the retry-free detector.
    pub fn layout_seed(&self) -> Option<u64> {
        let attempt_salt = u64::from(self.attempt).wrapping_mul(ATTEMPT_SALT);
        self.aslr_seed.map(|base| {
            mix64(
                mix64(base ^ STREAM_SALT.wrapping_mul(self.stream)) ^ self.run_index ^ attempt_salt,
            )
        })
    }

    /// The same run identity at a different retry attempt.
    #[must_use]
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }
}

const STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const ATTEMPT_SALT: u64 = 0xd1b5_4a32_d192_ed03;

/// SplitMix64 finalizer: a bijective avalanche mix.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One attempt of a detector-driven run, metered: a pure function of
/// `(program, input, spec)` recorded on the lowered interpreter with no
/// budget beyond the default fuel and no retry.
///
/// Every recording uses a fresh [`Device`], so traces are independent of
/// prior executions (the paper restarts the target per run), and its
/// layout derives from [`RunSpec::layout_seed`], so any thread may record
/// any run in any order and produce bit-identical traces.
///
/// The counters are kept **out of** [`ProgramTrace`] on purpose: traces are
/// compared and digested by the duplicate filter, and folding counters into
/// them would change trace identity. The counters are deterministic for a
/// given `(program, input, spec)` — they come from the warp-lockstep
/// execution itself — so they inherit the same purity as the trace.
///
/// # Errors
///
/// Returns [`DetectError::Host`] if the program fails, or
/// [`DetectError::TraceMismatch`] if instrumentation lost events.
pub fn record_run_metered<P: TracedProgram>(
    program: &P,
    input: &P::Input,
    spec: &RunSpec,
) -> Result<(ProgramTrace, SimCounters), DetectError> {
    record_once(
        program,
        input,
        spec,
        Interpreter::Lowered,
        RunGovernor::unbounded(),
    )
}

/// How detector runs are recorded: which interpreter simulates them, the
/// budgets and cancellation token they run under, and how failed runs are
/// retried.
///
/// The default — the lowered interpreter, an unbounded governor and one
/// attempt — records exactly what [`record_run_metered`] does. The
/// conformance suites switch `interpreter` to the reference oracle; the
/// detector sets the config's budgets, its cancellation token and its
/// attempt budget.
#[derive(Debug, Clone, Copy)]
pub struct Recorder<'a> {
    /// The simulator interpreter every launch runs on.
    pub interpreter: Interpreter,
    /// Budgets and cancellation: the instruction budget becomes the fuel
    /// of every launch, the token is polled at basic-block boundaries, and
    /// the per-run memory-event and allocation budgets are checked once
    /// the run completes.
    pub governor: RunGovernor<'a>,
    /// Attempts per run, the first try included (`1` = no retries; `0`
    /// counts as 1).
    pub max_attempts: u32,
}

impl Default for Recorder<'static> {
    fn default() -> Self {
        Recorder {
            interpreter: Interpreter::Lowered,
            governor: RunGovernor::unbounded(),
            max_attempts: 1,
        }
    }
}

impl Recorder<'_> {
    /// Records one run under the retry loop: attempt `k` uses
    /// `spec.with_attempt(k)`, cancelled and budget-exhausted runs are not
    /// retried, and panics inside
    /// the program or recorder are caught and converted into
    /// [`DetectError::WorkerPanic`].
    ///
    /// `spec` is the run's base identity; its `attempt` field is
    /// overwritten per attempt. A cancelled detection fails the run before
    /// it touches a device, and a cancelled or budget-exhausted run never
    /// yields a partial trace — which is what keeps surviving evidence
    /// deterministic under wall-clock deadlines.
    pub fn record<P: TracedProgram>(
        &self,
        program: &P,
        input: &P::Input,
        spec: &RunSpec,
    ) -> RunAttempt {
        let max_attempts = self.max_attempts.max(1);
        let mut panics = 0u32;
        let mut attempt = 0u32;
        loop {
            let attempt_spec = spec.with_attempt(attempt);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                record_once(
                    program,
                    input,
                    &attempt_spec,
                    self.interpreter,
                    self.governor,
                )
            }));
            let error = match outcome {
                Ok(Ok(recorded)) => {
                    return RunAttempt {
                        result: Ok(recorded),
                        attempts: attempt + 1,
                        panics,
                    }
                }
                Ok(Err(e)) => e,
                Err(payload) => {
                    panics += 1;
                    DetectError::WorkerPanic {
                        message: panic_message(payload),
                    }
                }
            };
            attempt += 1;
            if attempt >= max_attempts || is_permanent(&error) {
                return RunAttempt {
                    result: Err(error),
                    attempts: attempt,
                    panics,
                };
            }
        }
    }
}

/// One attempt of one run under `governor` on `interpreter`.
fn record_once<P: TracedProgram>(
    program: &P,
    input: &P::Input,
    spec: &RunSpec,
    interpreter: Interpreter,
    governor: RunGovernor<'_>,
) -> Result<(ProgramTrace, SimCounters), DetectError> {
    if governor.is_cancelled() {
        return Err(DetectError::Cancelled);
    }
    if let Some(fault) = program.injected_detect_fault(spec) {
        return Err(fault);
    }
    let mut device = match spec.layout_seed() {
        None => Device::new(),
        Some(seed) => Device::with_aslr(seed),
    };
    device.set_launch_options(LaunchOptions {
        warp_size: spec.warp_size,
        interpreter,
        fuel: governor.budget.max_instructions,
        cancel: governor.cancel.cloned(),
    });
    let trace = record_trace_inner(program, input, &mut device, spec)?;
    let counters = device.total_stats().counters;
    governor
        .budget
        .check_run(counters.mem_accesses, trace.mallocs.len() as u64)?;
    Ok((trace, counters))
}

/// The recording core: runs the program through
/// [`TracedProgram::run_with_spec`], so spec-aware programs (e.g. the
/// fault-injection wrapper) can key behaviour on the run identity.
fn record_trace_inner<P: TracedProgram>(
    program: &P,
    input: &P::Input,
    device: &mut Device,
    spec: &RunSpec,
) -> Result<ProgramTrace, DetectError> {
    let tracer = Rc::new(RefCell::new(OwlTracer::new()));
    device.attach_hook(tracer.clone());
    let run_result = program.run_with_spec(device, input, spec);
    device.detach_hook();
    run_result?;

    let graphs = tracer.borrow_mut().take_graphs();
    let mut graphs = graphs.into_iter();
    let mut invocations = Vec::new();
    let mut mallocs = Vec::new();
    let mut launches = 0usize;
    for event in device.events() {
        match event {
            HostEvent::Launch {
                call_site,
                kernel,
                config,
                ..
            } => {
                launches += 1;
                let adcfg = graphs.next().ok_or(DetectError::TraceMismatch {
                    launches,
                    graphs: launches - 1,
                })?;
                invocations.push(KernelInvocation::new(
                    InvocationKey {
                        call_site: *call_site,
                        kernel: kernel.clone(),
                    },
                    (
                        (config.grid.x, config.grid.y, config.grid.z),
                        (config.block.x, config.block.y, config.block.z),
                    ),
                    adcfg,
                ));
            }
            HostEvent::Malloc {
                call_site, size, ..
            } => mallocs.push(MallocRecord {
                call_site: *call_site,
                size: *size,
            }),
            HostEvent::Free { .. } => {}
        }
    }
    let leftover = graphs.count();
    if leftover > 0 {
        return Err(DetectError::TraceMismatch {
            launches,
            graphs: launches + leftover,
        });
    }
    Ok(ProgramTrace {
        invocations,
        mallocs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::grid::LaunchConfig;
    use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
    use owl_gpu::KernelProgram;
    use owl_host::HostError;

    /// A toy program with a secret-dependent host decision: launches a
    /// second kernel only when the secret is odd.
    struct Toy {
        k1: KernelProgram,
        k2: KernelProgram,
    }

    impl Toy {
        fn new() -> Self {
            let mk = |name: &str| {
                let b = KernelBuilder::new(name);
                let buf = b.param(0);
                let secret = b.param(1);
                let tid = b.special(SpecialReg::GlobalTid);
                // The whole warp indexes with the secret (like a shared
                // AES key): the aggregated histogram stays secret-dependent.
                let _ = tid;
                let addr = b.add(buf, b.mul(b.rem(secret, 32u64), 8u64));
                let v = b.load_global(addr, MemWidth::B8);
                // A secret-dependent branch, uniform across the warp.
                let p = b.setp(CmpOp::GtU, b.and(secret, 1u64), 0u64);
                b.if_then(p, |b| {
                    b.store_global(addr, b.add(v, 1u64), MemWidth::B8);
                });
                b.finish()
            };
            Toy {
                k1: mk("toy_k1"),
                k2: mk("toy_k2"),
            }
        }
    }

    impl TracedProgram for Toy {
        type Input = u64;

        fn name(&self) -> &str {
            "toy"
        }

        fn run(&self, device: &mut Device, input: &u64) -> Result<(), HostError> {
            let buf = device.malloc(8 * 32);
            device.launch(
                &self.k1,
                LaunchConfig::new(1u32, 32u32),
                &[buf.addr(), *input],
            )?;
            if input % 2 == 1 {
                device.launch(
                    &self.k2,
                    LaunchConfig::new(1u32, 32u32),
                    &[buf.addr(), *input],
                )?;
            }
            Ok(())
        }

        fn random_input(&self, seed: u64) -> u64 {
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }
    }

    /// A one-shot recording with the default run identity.
    fn one_shot(toy: &Toy, input: &u64) -> Result<ProgramTrace, DetectError> {
        Ok(record_run_metered(toy, input, &RunSpec::default())?.0)
    }

    #[test]
    fn trace_structure_reflects_host_behaviour() {
        let toy = Toy::new();
        let even = one_shot(&toy, &2).unwrap();
        let odd = one_shot(&toy, &3).unwrap();
        assert_eq!(even.invocations.len(), 1);
        assert_eq!(odd.invocations.len(), 2);
        assert_eq!(even.mallocs.len(), 1);
        assert_eq!(odd.invocations[1].key.kernel, "toy_k2");
    }

    #[test]
    fn equal_inputs_equal_traces() {
        let toy = Toy::new();
        let a = one_shot(&toy, &6).unwrap();
        let b = one_shot(&toy, &6).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_secrets_different_graphs() {
        let toy = Toy::new();
        let a = one_shot(&toy, &2).unwrap();
        let b = one_shot(&toy, &4).unwrap();
        // Same kernel sequence, but the table index differs → different
        // address histograms.
        assert_eq!(a.invocations.len(), b.invocations.len());
        assert_ne!(a.invocations[0].adcfg, b.invocations[0].adcfg);
    }

    #[test]
    fn default_spec_is_a_plain_device() {
        let spec = RunSpec::default();
        assert_eq!(spec.warp_size, owl_gpu::grid::WARP_SIZE);
        assert_eq!((spec.stream, spec.run_index, spec.attempt), (0, 0, 0));
        assert_eq!(spec.layout_seed(), None);
        // The same launch options a fresh `Device::new()` launches with.
        let defaults = LaunchOptions::default();
        assert_eq!(spec.warp_size, defaults.warp_size);
        assert_eq!(
            RunGovernor::unbounded().budget.max_instructions,
            defaults.fuel
        );
        assert_eq!(defaults.interpreter, Interpreter::Lowered);
    }

    #[test]
    fn recording_is_aslr_invariant() {
        let toy = Toy::new();
        let plain = one_shot(&toy, &5).unwrap();
        let spec = RunSpec {
            warp_size: 32,
            aslr_seed: Some(42),
            stream: 0,
            run_index: 0,
            attempt: 0,
        };
        let (aslr, _) = record_run_metered(&toy, &5, &spec).unwrap();
        assert_eq!(plain, aslr);
    }

    #[test]
    fn recorder_is_pure_in_its_spec() {
        let toy = Toy::new();
        let spec = RunSpec {
            warp_size: 32,
            aslr_seed: Some(7),
            stream: 3,
            run_index: 11,
            attempt: 0,
        };
        let record = || Recorder::default().record(&toy, &5, &spec);
        let (a, b) = (record(), record());
        assert_eq!((a.attempts, a.panics), (1, 0));
        assert_eq!(a.result.unwrap(), b.result.unwrap());
    }

    #[test]
    fn metered_recording_is_pure_and_counts_execution() {
        let toy = Toy::new();
        let spec = RunSpec {
            warp_size: 32,
            aslr_seed: Some(9),
            stream: 1,
            run_index: 4,
            attempt: 0,
        };
        let (trace_a, counters_a) = record_run_metered(&toy, &5, &spec).unwrap();
        let (trace_b, counters_b) = record_run_metered(&toy, &5, &spec).unwrap();
        assert_eq!(trace_a, trace_b);
        assert_eq!(counters_a, counters_b);
        assert!(counters_a.instructions > 0);
        assert!(counters_a.mem_accesses > 0);
        // The default recorder sees the same run.
        let recorded = Recorder::default().record(&toy, &5, &spec).result;
        assert_eq!(recorded.unwrap(), (trace_a, counters_a));
    }

    #[test]
    fn oracle_recording_matches_lowered_recording() {
        let toy = Toy::new();
        let spec = RunSpec {
            warp_size: 32,
            aslr_seed: Some(13),
            stream: 2,
            run_index: 7,
            attempt: 0,
        };
        let record = |interpreter, input| {
            Recorder {
                interpreter,
                ..Recorder::default()
            }
            .record(&toy, &input, &spec)
            .result
            .unwrap()
        };
        for input in [2u64, 5] {
            let (fast, fast_counters) = record(Interpreter::Lowered, input);
            let (oracle, oracle_counters) = record(Interpreter::Oracle, input);
            assert_eq!(fast, oracle);
            assert_eq!(fast.digest(), oracle.digest());
            assert_eq!(fast_counters, oracle_counters);
        }
    }

    #[test]
    fn layout_seed_separates_streams_and_runs() {
        let spec = |stream, run_index| RunSpec {
            warp_size: 32,
            aslr_seed: Some(0xABCD),
            stream,
            run_index,
            attempt: 0,
        };
        // Distinct (stream, run) pairs get distinct layouts; equal pairs
        // agree; ASLR off means no layout at all.
        assert_eq!(spec(0, 5).layout_seed(), spec(0, 5).layout_seed());
        assert_ne!(spec(0, 5).layout_seed(), spec(1, 5).layout_seed());
        assert_ne!(spec(0, 5).layout_seed(), spec(0, 6).layout_seed());
        assert_ne!(spec(1, 0).layout_seed(), spec(2, 0).layout_seed());
        assert_eq!(
            RunSpec {
                aslr_seed: None,
                ..spec(0, 0)
            }
            .layout_seed(),
            None
        );
    }

    #[test]
    fn layout_seed_separates_retry_attempts() {
        let base = RunSpec {
            warp_size: 32,
            aslr_seed: Some(0xABCD),
            stream: 1,
            run_index: 5,
            attempt: 0,
        };
        // Attempt 0 is the run's canonical identity (pre-retry layouts are
        // reproduced exactly); each retry sees a distinct deterministic
        // layout.
        assert_eq!(base.layout_seed(), base.with_attempt(0).layout_seed());
        assert_ne!(base.layout_seed(), base.with_attempt(1).layout_seed());
        assert_ne!(
            base.with_attempt(1).layout_seed(),
            base.with_attempt(2).layout_seed()
        );
        assert_eq!(
            base.with_attempt(2).layout_seed(),
            base.with_attempt(2).layout_seed()
        );
    }
}
