//! Synthetic workloads for the scalability and false-positive experiments.
//!
//! [`DummySbox`] is the paper's Fig. 5 dummy program: every thread performs
//! one random (data-driven) access into a fixed 256-entry table, so the set
//! of *distinct* accessed addresses saturates as the thread count grows —
//! the trace-size plateau that demonstrates Owl's warp aggregation.
//!
//! [`NoiseDummy`] is a program whose accesses vary run-to-run independently
//! of the input (a randomised defence, the paper's "non-deterministic
//! factors"): Owl must *not* flag it. Its per-run nonce derives from the
//! run's identity, so its verdict is the same at every parallelism.
//!
//! [`RunawaySpin`] is the resource-governance demo: every run spins an
//! unbounded device loop, so each launch burns the full instruction budget
//! and fails with `FuelExhausted`. Under a small `--max-instructions` the
//! detector quarantines every run quickly and reports
//! `Verdict::Inconclusive`; under the default multi-billion fuel it is
//! effectively a hang reproducer.

use crate::util::{rng, seeded_bytes};
use owl_core::{RunSpec, TracedProgram};
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::KernelProgram;
use owl_host::{Device, HostError};
use rand::Rng;

/// Entries in the S-box-like table.
pub const TABLE_ENTRIES: usize = 256;

fn build_sbox_kernel() -> KernelProgram {
    let b = KernelBuilder::new("dummy_sbox");
    let data = b.param(0);
    let table = b.param(1);
    let out = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let idx = b.load_global(b.add(data, tid), MemWidth::B1);
        let v = b.load_global(b.add(table, b.mul(idx, 4u64)), MemWidth::B4);
        b.store_global(b.add(out, b.mul(tid, 4u64)), v, MemWidth::B4);
    });
    b.finish()
}

fn build_hash_sbox_kernel() -> KernelProgram {
    let b = KernelBuilder::new("dummy_sbox");
    let secret = b.param(0);
    let table = b.param(1);
    let out = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        // Per-thread pseudo-random table index derived from the secret and
        // the thread id, computed in registers (like an AES state byte).
        let mix = b.mul(secret, b.add(b.mul(tid, 2654435761u64), 1u64));
        let idx = b.and(b.shr(mix, 24u64), 0xff_u64);
        let v = b.load_global(b.add(table, b.mul(idx, 4u64)), MemWidth::B4);
        // Bounded output region: the store addresses do not grow with the
        // thread count.
        let slot = b.and(tid, 63u64);
        b.store_global(b.add(out, b.mul(slot, 4u64)), v, MemWidth::B4);
    });
    b.finish()
}

/// The Fig. 5 dummy program: one secret-derived table lookup per thread,
/// with the thread count scaling with the input size.
#[derive(Debug, Clone)]
pub struct DummySbox {
    kernel: KernelProgram,
    elems: usize,
}

impl DummySbox {
    /// A dummy program with `elems` threads.
    pub fn new(elems: usize) -> Self {
        assert!(elems > 0, "at least one element");
        DummySbox {
            kernel: build_hash_sbox_kernel(),
            elems,
        }
    }

    /// Input size (= thread count).
    pub fn elems(&self) -> usize {
        self.elems
    }
}

impl TracedProgram for DummySbox {
    type Input = u64;

    fn name(&self) -> &str {
        "dummy-sbox"
    }

    fn run(&self, device: &mut Device, secret: &u64) -> Result<(), HostError> {
        let table = device.malloc(TABLE_ENTRIES * 4);
        let table_bytes: Vec<u8> = (0..TABLE_ENTRIES as u32)
            .flat_map(|i| (i.wrapping_mul(2654435761)).to_le_bytes())
            .collect();
        device.memcpy_h2d(table, &table_bytes)?;
        let out = device.malloc(64 * 4);
        device.launch(
            &self.kernel,
            LaunchConfig::new((self.elems as u32).div_ceil(256), 256u32),
            &[*secret, table.addr(), out.addr(), self.elems as u64],
        )?;
        Ok(())
    }

    fn random_input(&self, seed: u64) -> u64 {
        u64::from_le_bytes(
            seeded_bytes(seed ^ 0xD0_5B0C, 8)
                .try_into()
                .expect("8 bytes"),
        ) | 1
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// A program whose memory behaviour is random per *run*, not per input:
/// every execution indexes the table with a fresh nonce. The fixed-input
/// and random-input distributions coincide, so Owl's distribution test
/// must attribute the differences to noise.
///
/// The nonce is a pure function of the run's identity (its [`RunSpec`]
/// stream and run index), so the detector's output does not depend on
/// which worker records which run.
#[derive(Debug)]
pub struct NoiseDummy {
    kernel: KernelProgram,
}

/// The nonce of a run outside the detector (plain [`TracedProgram::run`]).
const NOISE_NONCE: u64 = 0x009a_3c01;

impl NoiseDummy {
    /// A fresh noise program.
    pub fn new() -> Self {
        NoiseDummy {
            kernel: build_sbox_kernel(),
        }
    }

    fn run_with_nonce(&self, device: &mut Device, nonce: u64) -> Result<(), HostError> {
        let mut r = rng(nonce);
        let draw: Vec<u8> = (0..32).map(|_| r.gen()).collect();

        let data = device.malloc(32);
        device.memcpy_h2d(data, &draw)?;
        let table = device.malloc(TABLE_ENTRIES * 4);
        let out = device.malloc(32 * 4);
        device.launch(
            &self.kernel,
            LaunchConfig::new(1u32, 32u32),
            &[data.addr(), table.addr(), out.addr(), 32],
        )?;
        Ok(())
    }
}

impl Default for NoiseDummy {
    fn default() -> Self {
        Self::new()
    }
}

impl TracedProgram for NoiseDummy {
    type Input = u64;

    fn name(&self) -> &str {
        "noise-dummy"
    }

    fn run(&self, device: &mut Device, _input: &u64) -> Result<(), HostError> {
        self.run_with_nonce(device, NOISE_NONCE)
    }

    /// Fresh per-run randomness regardless of the input (e.g. a randomised
    /// masking defence), keyed on the stream and run index but not the
    /// attempt, so a retried run replays the same nonce.
    fn run_with_spec(
        &self,
        device: &mut Device,
        _input: &u64,
        spec: &RunSpec,
    ) -> Result<(), HostError> {
        let nonce = NOISE_NONCE
            .wrapping_add(spec.stream << 32)
            .wrapping_add(spec.run_index);
        self.run_with_nonce(device, nonce)
    }

    fn random_input(&self, seed: u64) -> u64 {
        seed
    }

    /// The per-run nonce makes the detector's runs differ under one fixed
    /// input: each must be re-recorded so the noise reaches both evidence
    /// sets and is dismissed as input-independent.
    fn deterministic_host(&self) -> bool {
        false
    }
}

fn build_spin_kernel() -> KernelProgram {
    let b = KernelBuilder::new("runaway_spin");
    let one = b.mov(1u64);
    b.while_loop(
        |b| b.setp(CmpOp::Eq, one, 1u64),
        |b| {
            let _ = b.add(one, 0u64);
        },
    );
    b.finish()
}

/// A program whose kernel never terminates: an unbounded `while (1)` spin.
///
/// Exists to exercise the resource budgets end to end — there is no leak to
/// find; every run exhausts its instruction budget and is quarantined.
#[derive(Debug, Clone)]
pub struct RunawaySpin {
    kernel: KernelProgram,
}

impl RunawaySpin {
    /// A fresh runaway program.
    pub fn new() -> Self {
        RunawaySpin {
            kernel: build_spin_kernel(),
        }
    }
}

impl Default for RunawaySpin {
    fn default() -> Self {
        Self::new()
    }
}

impl TracedProgram for RunawaySpin {
    type Input = u64;

    fn name(&self) -> &str {
        "runaway-spin"
    }

    fn run(&self, device: &mut Device, _input: &u64) -> Result<(), HostError> {
        device.launch(&self.kernel, LaunchConfig::new(1u32, 32u32), &[])?;
        Ok(())
    }

    fn random_input(&self, seed: u64) -> u64 {
        seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_core::{record_run_metered, RunSpec};

    #[test]
    fn dummy_runs_and_scales_threads() {
        for elems in [32usize, 256, 1024] {
            let d = DummySbox::new(elems);
            let input = d.random_input(1);
            let mut dev = Device::new();
            d.run(&mut dev, &input).unwrap();
            // 256-thread CTAs → 8 warps per CTA.
            assert_eq!(
                dev.total_stats().warps,
                (elems as u64).div_ceil(256) * 8,
                "elems {elems}"
            );
        }
    }

    #[test]
    fn trace_size_saturates_with_thread_count() {
        // The Fig. 5 plateau: past the table size, more threads stop adding
        // distinct addresses, so trace size flattens while thread count
        // keeps growing.
        let sizes: Vec<usize> = [64usize, 256, 1024, 4096]
            .into_iter()
            .map(|elems| {
                let d = DummySbox::new(elems);
                let input = d.random_input(7);
                record_run_metered(&d, &input, &RunSpec::default())
                    .unwrap()
                    .0
                    .size_bytes()
            })
            .collect();
        let small_growth = sizes[1] as f64 / sizes[0] as f64;
        let large_growth = sizes[3] as f64 / sizes[2] as f64;
        assert!(small_growth > 1.5, "early growth expected: {sizes:?}");
        assert!(
            large_growth < small_growth / 1.2,
            "growth must slow down: {sizes:?}"
        );
    }

    #[test]
    fn noise_dummy_traces_differ_across_runs_with_same_input() {
        let d = NoiseDummy::new();
        let spec = |stream, run_index, attempt| RunSpec {
            warp_size: 32,
            aslr_seed: None,
            stream,
            run_index,
            attempt,
        };
        let trace = |s: RunSpec| owl_core::record_run_metered(&d, &0, &s).unwrap().0;
        let a = trace(spec(1, 0, 0));
        assert_ne!(a, trace(spec(1, 1, 0)), "per-run nonce must vary the trace");
        assert_ne!(a, trace(spec(2, 0, 0)), "streams must not share nonces");
        assert_eq!(a, trace(spec(1, 0, 0)), "a run is a function of its spec");
        assert_eq!(a, trace(spec(1, 0, 3)), "a retry must replay its run");
    }
}
