//! An emulated CUDA host runtime with Pin-style host-event tracing.
//!
//! In the original Owl system, Intel Pin instruments the *host* side of a
//! CUDA application to observe the two host activities that matter for GPU
//! side channels: memory allocation (`cudaMalloc` and friends) and kernel
//! launches (`cuLaunchKernel` and friends), the latter identified by the
//! call stack at the launch site (paper §V-C). This crate provides the
//! same observables for simulator-hosted applications:
//!
//! * [`Device`] — the host-side handle to a simulated GPU: `malloc`,
//!   `free`, `memcpy`, `memcpy_to_symbol`, and `launch`.
//! * [`CallSite`] — the `#[track_caller]` location of each `launch` call,
//!   standing in for the Pin-captured call stack that disambiguates
//!   kernel invocations from different host code paths.
//! * [`HostEvent`] — the recorded host trace (mallocs, frees, launches).
//! * Address normalisation ([`Device::resolve`]) mapping raw device
//!   addresses to `(allocation, offset)` pairs, which keeps traces stable
//!   under the simulated device ASLR.
//!
//! # Example
//!
//! ```
//! use owl_host::Device;
//! use owl_gpu::build::KernelBuilder;
//! use owl_gpu::grid::LaunchConfig;
//! use owl_gpu::isa::{MemWidth, SpecialReg};
//!
//! let b = KernelBuilder::new("triple");
//! let buf = b.param(0);
//! let tid = b.special(SpecialReg::GlobalTid);
//! let addr = b.add(buf, b.mul(tid, 8u64));
//! let v = b.load_global(addr, MemWidth::B8);
//! b.store_global(addr, b.mul(v, 3u64), MemWidth::B8);
//! let kernel = b.finish();
//!
//! let mut dev = Device::new();
//! let buf = dev.malloc(8 * 32);
//! dev.memcpy_h2d(buf, &42u64.to_le_bytes())?;
//! dev.launch(&kernel, LaunchConfig::new(1u32, 32u32), &[buf.addr()])?;
//! let mut out = [0u8; 8];
//! dev.memcpy_d2h(buf, &mut out)?;
//! assert_eq!(u64::from_le_bytes(out), 126);
//! # Ok::<(), owl_host::HostError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use owl_gpu::exec::{launch_with_options, LaunchOptions, LaunchStats};
use owl_gpu::grid::LaunchConfig;
use owl_gpu::hook::{KernelHook, NullHook};
use owl_gpu::mem::{AccessError, AllocId, DeviceMemory};
use owl_gpu::program::KernelProgram;
use owl_gpu::ExecError;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::panic::Location;
use std::rc::Rc;

/// A device pointer returned by [`Device::malloc`].
///
/// Carries both the raw address (what kernels receive) and the allocation
/// id (the layout-independent identity used in traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DevicePtr {
    alloc: AllocId,
    addr: u64,
}

impl DevicePtr {
    /// The raw device address, as passed to kernels.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The allocation this pointer points into.
    pub fn alloc(&self) -> AllocId {
        self.alloc
    }

    /// A pointer `bytes` further into the same allocation.
    pub fn offset(&self, bytes: u64) -> DevicePtr {
        DevicePtr {
            alloc: self.alloc,
            addr: self.addr + bytes,
        }
    }
}

/// The host-code location of a runtime call — the stand-in for the call
/// stack Pin captures at `cuLaunchKernel`/`cudaMalloc` sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct CallSite {
    /// Source file of the call.
    pub file: &'static str,
    /// Line of the call.
    pub line: u32,
    /// Column of the call.
    pub column: u32,
}

impl CallSite {
    fn here(loc: &'static Location<'static>) -> Self {
        CallSite {
            file: loc.file(),
            line: loc.line(),
            column: loc.column(),
        }
    }
}

impl std::fmt::Display for CallSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// One recorded host event (the Pin-observed trace).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum HostEvent {
    /// A `cudaMalloc`-family call.
    Malloc {
        /// Where in host code the allocation happened.
        call_site: CallSite,
        /// The allocation created.
        alloc: AllocId,
        /// Requested size in bytes.
        size: u64,
    },
    /// A `cudaFree`-family call.
    Free {
        /// The allocation released.
        alloc: AllocId,
    },
    /// A `cuLaunchKernel`-family call.
    Launch {
        /// Where in host code the kernel was launched — the identity the
        /// paper derives from the call stack.
        call_site: CallSite,
        /// The kernel's name.
        kernel: String,
        /// Launch geometry.
        config: LaunchConfig,
        /// Sequence number of this launch within the program run.
        seq: u32,
    },
}

/// Errors surfaced by the host runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// A host↔device copy touched unmapped memory.
    Memcpy(AccessError),
    /// A kernel launch failed.
    Launch(ExecError),
    /// `free` was called with a pointer that is not a live allocation base.
    InvalidFree {
        /// The offending address.
        addr: u64,
    },
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Memcpy(e) => write!(f, "memcpy failed: {e}"),
            HostError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            HostError::InvalidFree { addr } => {
                write!(f, "free of non-allocation address {addr:#x}")
            }
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::Memcpy(e) => Some(e),
            HostError::Launch(e) => Some(e),
            HostError::InvalidFree { .. } => None,
        }
    }
}

impl From<AccessError> for HostError {
    fn from(e: AccessError) -> Self {
        HostError::Memcpy(e)
    }
}

impl From<ExecError> for HostError {
    fn from(e: ExecError) -> Self {
        HostError::Launch(e)
    }
}

/// A shareable device-side instrumentation hook, attached by a tracer and
/// invoked on every launch.
///
/// Threading contract: hooks are deliberately *thread-local* (`Rc`, not
/// `Arc`) — a [`Device`] and everything attached to it belong to exactly
/// one thread for their whole life. Parallel detection (see
/// `owl_core::detect`) is structured around that: each worker owns a
/// fresh device + tracer end to end and only the finished, plain-data
/// traces cross threads ([`HostEvent`] and [`CallSite`] are `Send`/`Sync`;
/// the compile-time assertions below pin this).
pub type SharedHook = Rc<RefCell<dyn KernelHook>>;

// What may cross threads (recorded observations) and what must not (the
// live device and its hooks). Breaking either breaks parallel detection,
// so fail the build rather than a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CallSite>();
    assert_send_sync::<HostEvent>();
    assert_send_sync::<HostError>();
};

/// The host-side handle to one simulated GPU.
///
/// Records the host event trace (always on — recording is how the Pin side
/// of Owl sees the world) and forwards device-side instrumentation to an
/// attached [`SharedHook`], if any.
pub struct Device {
    mem: DeviceMemory,
    events: Vec<HostEvent>,
    hook: Option<SharedHook>,
    launch_seq: u32,
    launch_options: LaunchOptions,
    total_stats: LaunchStats,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("allocations", &self.mem.alloc_count())
            .field("events", &self.events.len())
            .field("hooked", &self.hook.is_some())
            .finish()
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::new()
    }
}

impl Device {
    /// A fresh device with deterministic memory layout and no hook.
    pub fn new() -> Self {
        Device {
            mem: DeviceMemory::new(),
            events: Vec::new(),
            hook: None,
            launch_seq: 0,
            launch_options: LaunchOptions::default(),
            total_stats: LaunchStats::default(),
        }
    }

    /// A fresh device with simulated device ASLR (seeded, deterministic).
    pub fn with_aslr(seed: u64) -> Self {
        let mut d = Self::new();
        d.mem.enable_aslr(seed);
        d
    }

    /// Attaches a device-side instrumentation hook; subsequent launches
    /// report to it. Returns the previously attached hook, if any.
    pub fn attach_hook(&mut self, hook: SharedHook) -> Option<SharedHook> {
        self.hook.replace(hook)
    }

    /// Detaches the device-side hook.
    pub fn detach_hook(&mut self) -> Option<SharedHook> {
        self.hook.take()
    }

    /// Overrides the launch options (e.g. the instruction budget).
    pub fn set_launch_options(&mut self, options: LaunchOptions) {
        self.launch_options = options;
    }

    /// Allocates `size` zeroed bytes of device global memory
    /// (`cudaMalloc`). The call site is recorded in the host trace.
    #[track_caller]
    pub fn malloc(&mut self, size: usize) -> DevicePtr {
        let call_site = CallSite::here(Location::caller());
        let (alloc, addr) = self.mem.alloc(size);
        self.events.push(HostEvent::Malloc {
            call_site,
            alloc,
            size: size as u64,
        });
        DevicePtr { alloc, addr }
    }

    /// Releases an allocation (`cudaFree`).
    ///
    /// # Errors
    ///
    /// Returns [`HostError::InvalidFree`] when `ptr` is not the base of a
    /// live allocation.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), HostError> {
        if !self.mem.free(ptr.addr) {
            return Err(HostError::InvalidFree { addr: ptr.addr });
        }
        self.events.push(HostEvent::Free { alloc: ptr.alloc });
        Ok(())
    }

    /// Copies host bytes to the device (`cudaMemcpyHostToDevice`).
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Memcpy`] on an out-of-bounds copy.
    pub fn memcpy_h2d(&mut self, dst: DevicePtr, bytes: &[u8]) -> Result<(), HostError> {
        Ok(self.mem.write_bytes(dst.addr, bytes)?)
    }

    /// Copies device bytes to the host (`cudaMemcpyDeviceToHost`).
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Memcpy`] on an out-of-bounds copy.
    pub fn memcpy_d2h(&self, src: DevicePtr, out: &mut [u8]) -> Result<(), HostError> {
        Ok(self.mem.read_bytes(src.addr, out)?)
    }

    /// Replaces the constant bank (`cudaMemcpyToSymbol`).
    pub fn memcpy_to_symbol(&mut self, bytes: &[u8]) {
        self.mem.set_constant(bytes);
    }

    /// Binds a 2-D texture object (`cudaBindTexture2D`) and returns its
    /// slot for `tex2d` fetches.
    ///
    /// # Panics
    ///
    /// Panics when `texels.len() != width * height` or either extent is 0.
    pub fn bind_texture(&mut self, width: u32, height: u32, texels: &[u8]) -> u16 {
        self.mem.bind_texture(width, height, texels)
    }

    /// Launches a kernel (`cuLaunchKernel`). The call site identifies the
    /// launch in the host trace; device-side events go to the attached
    /// hook.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Launch`] when the kernel faults or fails
    /// validation.
    #[track_caller]
    pub fn launch(
        &mut self,
        program: &KernelProgram,
        config: LaunchConfig,
        args: &[u64],
    ) -> Result<LaunchStats, HostError> {
        let call_site = CallSite::here(Location::caller());
        self.events.push(HostEvent::Launch {
            call_site,
            kernel: program.name.clone(),
            config,
            seq: self.launch_seq,
        });
        self.launch_seq += 1;
        let stats = match &self.hook {
            Some(hook) => {
                let hook = Rc::clone(hook);
                let mut hook = hook.borrow_mut();
                launch_with_options(
                    &mut self.mem,
                    program,
                    config,
                    args,
                    &mut *hook,
                    self.launch_options.clone(),
                )?
            }
            None => launch_with_options(
                &mut self.mem,
                program,
                config,
                args,
                &mut NullHook,
                self.launch_options.clone(),
            )?,
        };
        self.total_stats.accumulate(&stats);
        Ok(stats)
    }

    /// The recorded host event trace, in program order.
    pub fn events(&self) -> &[HostEvent] {
        &self.events
    }

    /// Clears the recorded host trace (e.g. between runs).
    pub fn clear_events(&mut self) {
        self.events.clear();
        self.launch_seq = 0;
    }

    /// Resolves a raw device address to `(allocation, offset)` — the
    /// normalisation that removes (simulated) ASLR from traces.
    pub fn resolve(&self, addr: u64) -> Option<(AllocId, u64)> {
        self.mem.resolve(addr)
    }

    /// Statistics accumulated over every launch on this device.
    pub fn total_stats(&self) -> LaunchStats {
        self.total_stats
    }

    /// Direct access to device memory, for assertions in tests and for the
    /// baselines that bypass the runtime.
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::hook::RecordingHook;
    use owl_gpu::isa::{MemWidth, SpecialReg};

    fn square_kernel() -> KernelProgram {
        let b = KernelBuilder::new("square");
        let buf = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let addr = b.add(buf, b.mul(tid, 8u64));
        let v = b.load_global(addr, MemWidth::B8);
        b.store_global(addr, b.mul(v, v), MemWidth::B8);
        b.finish()
    }

    #[test]
    fn malloc_launch_roundtrip() {
        let mut dev = Device::new();
        let buf = dev.malloc(8 * 32);
        let init: Vec<u8> = (0..32u64).flat_map(|i| i.to_le_bytes()).collect();
        dev.memcpy_h2d(buf, &init).unwrap();
        dev.launch(
            &square_kernel(),
            LaunchConfig::new(1u32, 32u32),
            &[buf.addr()],
        )
        .unwrap();
        let mut out = vec![0u8; 8 * 32];
        dev.memcpy_d2h(buf, &mut out).unwrap();
        for i in 0..32u64 {
            let v = u64::from_le_bytes(
                out[(i * 8) as usize..(i * 8 + 8) as usize]
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn host_events_record_malloc_and_launch() {
        let mut dev = Device::new();
        let buf = dev.malloc(256);
        dev.launch(
            &square_kernel(),
            LaunchConfig::new(1u32, 32u32),
            &[buf.addr()],
        )
        .unwrap();
        assert_eq!(dev.events().len(), 2);
        match &dev.events()[0] {
            HostEvent::Malloc { size, .. } => assert_eq!(*size, 256),
            other => panic!("expected malloc, got {other:?}"),
        }
        match &dev.events()[1] {
            HostEvent::Launch { kernel, seq, .. } => {
                assert_eq!(kernel, "square");
                assert_eq!(*seq, 0);
            }
            other => panic!("expected launch, got {other:?}"),
        }
    }

    #[test]
    fn distinct_call_sites_distinguish_same_kernel() {
        // The same kernel launched from two host locations gets two
        // distinct call sites — the paper's fix for the cuLaunchKernel
        // wrapper-address ambiguity.
        let mut dev = Device::new();
        let buf = dev.malloc(8 * 32);
        let k = square_kernel();
        dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[buf.addr()])
            .unwrap(); // site A
        dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[buf.addr()])
            .unwrap(); // site B
        let sites: Vec<CallSite> = dev
            .events()
            .iter()
            .filter_map(|e| match e {
                HostEvent::Launch { call_site, .. } => Some(*call_site),
                _ => None,
            })
            .collect();
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
    }

    #[test]
    fn same_call_site_in_a_loop_is_stable() {
        let mut dev = Device::new();
        let buf = dev.malloc(8 * 32);
        let k = square_kernel();
        for _ in 0..3 {
            dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[buf.addr()])
                .unwrap();
        }
        let sites: Vec<CallSite> = dev
            .events()
            .iter()
            .filter_map(|e| match e {
                HostEvent::Launch { call_site, .. } => Some(*call_site),
                _ => None,
            })
            .collect();
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0], sites[1]);
        assert_eq!(sites[1], sites[2]);
    }

    #[test]
    fn attached_hook_sees_device_events() {
        let mut dev = Device::new();
        let hook = Rc::new(RefCell::new(RecordingHook::default()));
        dev.attach_hook(hook.clone());
        let buf = dev.malloc(8 * 32);
        dev.launch(
            &square_kernel(),
            LaunchConfig::new(1u32, 32u32),
            &[buf.addr()],
        )
        .unwrap();
        let rec = hook.borrow();
        assert_eq!(rec.kernels, vec!["square".to_string()]);
        assert!(!rec.accesses.is_empty());
    }

    #[test]
    fn detach_hook_stops_instrumentation() {
        let mut dev = Device::new();
        let hook = Rc::new(RefCell::new(RecordingHook::default()));
        dev.attach_hook(hook.clone());
        dev.detach_hook();
        let buf = dev.malloc(8 * 32);
        dev.launch(
            &square_kernel(),
            LaunchConfig::new(1u32, 32u32),
            &[buf.addr()],
        )
        .unwrap();
        assert!(hook.borrow().kernels.is_empty());
    }

    #[test]
    fn free_and_invalid_free() {
        let mut dev = Device::new();
        let buf = dev.malloc(64);
        dev.free(buf).unwrap();
        assert_eq!(
            dev.free(buf),
            Err(HostError::InvalidFree { addr: buf.addr() })
        );
        assert!(matches!(dev.events().last(), Some(HostEvent::Free { .. })));
    }

    #[test]
    fn resolve_normalises_under_aslr() {
        let mut a = Device::new();
        let mut b = Device::with_aslr(1234);
        let pa = a.malloc(128);
        let pb = b.malloc(128);
        // Raw addresses may differ; (alloc, offset) identities agree.
        assert_eq!(a.resolve(pa.addr() + 32), Some((pa.alloc(), 32)));
        assert_eq!(b.resolve(pb.addr() + 32), Some((pb.alloc(), 32)));
        assert_eq!(pa.alloc(), pb.alloc());
    }

    #[test]
    fn memcpy_bounds_errors_surface() {
        let mut dev = Device::new();
        let buf = dev.malloc(8);
        assert!(dev.memcpy_h2d(buf.offset(4), &[0u8; 8]).is_err());
        let mut out = [0u8; 16];
        assert!(dev.memcpy_d2h(buf, &mut out).is_err());
    }

    #[test]
    fn constant_bank_reaches_kernels() {
        let b = KernelBuilder::new("read_const");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let v = b.load_const(b.mul(tid, 4u64), MemWidth::B4);
        b.store_global(b.add(out, b.mul(tid, 4u64)), v, MemWidth::B4);
        let k = b.finish();

        let mut dev = Device::new();
        let table: Vec<u8> = (0..32u32).flat_map(|i| (i * 7).to_le_bytes()).collect();
        dev.memcpy_to_symbol(&table);
        let buf = dev.malloc(4 * 32);
        dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[buf.addr()])
            .unwrap();
        let mut out = vec![0u8; 4 * 32];
        dev.memcpy_d2h(buf, &mut out).unwrap();
        for i in 0..32u32 {
            let v = u32::from_le_bytes(
                out[(i * 4) as usize..(i * 4 + 4) as usize]
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(v, i * 7);
        }
    }

    #[test]
    fn clear_events_resets_sequence() {
        let mut dev = Device::new();
        let buf = dev.malloc(8 * 32);
        dev.launch(
            &square_kernel(),
            LaunchConfig::new(1u32, 32u32),
            &[buf.addr()],
        )
        .unwrap();
        dev.clear_events();
        assert!(dev.events().is_empty());
        dev.launch(
            &square_kernel(),
            LaunchConfig::new(1u32, 32u32),
            &[buf.addr()],
        )
        .unwrap();
        match dev.events() {
            [HostEvent::Launch { seq, .. }] => assert_eq!(*seq, 0),
            other => panic!("expected one launch, got {other:?}"),
        }
    }

    #[test]
    fn total_stats_accumulate() {
        let mut dev = Device::new();
        let buf = dev.malloc(8 * 32);
        let k = square_kernel();
        dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[buf.addr()])
            .unwrap();
        let after_one = dev.total_stats().counters.instructions;
        dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[buf.addr()])
            .unwrap();
        assert_eq!(dev.total_stats().warps, 2);
        let c = dev.total_stats().counters;
        assert_eq!(c.instructions, after_one * 2);
        assert!(c.mem_accesses > 0);
    }
}
