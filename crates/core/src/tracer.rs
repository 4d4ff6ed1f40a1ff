//! The device-side tracer: Owl's NVBit instrumentation client.
//!
//! [`OwlTracer`] implements [`KernelHook`] and reconstructs one A-DCFG per
//! kernel launch, normalising global addresses to `(allocation, offset)`
//! features on the fly through the device memory each memory callback
//! receives ([`DeviceMemory::resolve`]; the paper converts addresses to
//! offsets during tracing to neutralise layout and ASLR effects, §V-C).

use owl_dcfg::{Adcfg, AdcfgBuilder};
use owl_gpu::hook::{KernelHook, LaunchInfo, MemAccessEvent, MemEventBatch, WarpRef};
use owl_gpu::isa::MemSpace;
use owl_gpu::mem::DeviceMemory;
use owl_gpu::program::BlockId;

/// Packs a warp identity into the `u64` key the A-DCFG builder uses.
fn warp_key(w: WarpRef) -> u64 {
    (u64::from(w.cta) << 32) | u64::from(w.warp)
}

/// Encodes a memory access into the scalar feature the address histograms
/// store.
///
/// Bit layout of a resolved global feature:
///
/// ```text
///  63           62..40                    39..0
/// ┌───┬──────────────────────────┬────────────────────┐
/// │ 0 │ allocation id + 1 (23b)  │ byte offset (40b)  │
/// └───┴──────────────────────────┴────────────────────┘
/// ```
///
/// * Global accesses resolve to `(allocation, offset)`; the feature is
///   `(alloc + 1) << 40 | offset`, which is stable across layout changes.
///   The `+ 1` keeps allocation 0's features disjoint from raw
///   shared/local offsets.
/// * Shared/local/constant addresses are already offsets; the feature is
///   the raw address.
/// * An unresolvable global address (never produced by a correct run) is
///   tagged with the top bit so it cannot alias a normalised feature. An
///   in-bounds offset of 2^40 bytes (1 TiB) or more does not fit the
///   40-bit offset field; rather than silently truncating — which would
///   alias the feature into a *different* allocation's range and corrupt
///   the differential analysis — it saturates to the same tagged form.
pub fn encode_address(space: MemSpace, addr: u64, mem: &DeviceMemory) -> u64 {
    match space {
        MemSpace::Global => match mem.resolve(addr) {
            Some((alloc, offset)) if offset < (1 << 40) => {
                ((u64::from(alloc.0) + 1) << 40) | offset
            }
            // Unresolvable, or offset too large for the encoding.
            _ => addr | (1 << 63),
        },
        // Shared/local/constant addresses and texel indices are already
        // layout-independent offsets.
        MemSpace::Shared | MemSpace::Local | MemSpace::Constant | MemSpace::Texture => addr,
    }
}

/// A [`KernelHook`] that reconstructs one [`Adcfg`] per kernel launch.
///
/// Attach it to a device (via `Rc<RefCell<…>>`), run the program, then
/// [`take_graphs`](OwlTracer::take_graphs) to collect the per-launch
/// graphs in launch order.
#[derive(Debug, Default)]
pub struct OwlTracer {
    current: Option<AdcfgBuilder>,
    finished: Vec<Adcfg>,
}

impl OwlTracer {
    /// Creates a tracer with no graphs recorded yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns the completed per-launch graphs, oldest first.
    pub fn take_graphs(&mut self) -> Vec<Adcfg> {
        std::mem::take(&mut self.finished)
    }

    /// Number of completed kernel launches observed so far.
    pub fn completed(&self) -> usize {
        self.finished.len()
    }
}

impl KernelHook for OwlTracer {
    fn kernel_begin(&mut self, _info: &LaunchInfo) {
        debug_assert!(self.current.is_none(), "nested kernel launches");
        self.current = Some(AdcfgBuilder::new());
    }

    fn kernel_end(&mut self, _info: &LaunchInfo) {
        let builder = self
            .current
            .take()
            .expect("kernel_end without kernel_begin");
        self.finished.push(builder.finish());
    }

    fn bb_entry(&mut self, warp: WarpRef, bb: BlockId) {
        self.current
            .as_mut()
            .expect("bb_entry outside a kernel")
            .enter_block(warp_key(warp), bb.0);
    }

    fn mem_access(&mut self, warp: WarpRef, event: &MemAccessEvent, mem: &DeviceMemory) {
        let features = event
            .lane_addrs
            .iter()
            .map(|&(_, addr)| encode_address(event.space, addr, mem));
        let builder = self.current.as_mut().expect("mem_access outside a kernel");
        builder.record_access(warp_key(warp), event.inst_idx, features);
        // The per-event microarchitectural cost (coalescing / bank
        // conflicts) — computed from the *raw* addresses, since the
        // hardware sees the physical layout.
        builder.record_cost(warp_key(warp), event.inst_idx, event.cost_feature());
    }

    fn mem_batch(&mut self, warp: WarpRef, batch: &MemEventBatch, mem: &DeviceMemory) {
        // Bulk path: every event in a batch belongs to the same warp and
        // basic-block visit, so one block-recorder resolution covers the
        // whole batch; the costs arrive pre-computed in the descriptors.
        let builder = self.current.as_mut().expect("mem_batch outside a kernel");
        let mut rec = builder.block_recorder(warp_key(warp));
        for (desc, lanes) in batch.events() {
            rec.access(
                desc.inst_idx,
                lanes
                    .iter()
                    .map(|&(_, addr)| encode_address(desc.space, addr, mem)),
            );
            rec.cost(desc.inst_idx, desc.cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::grid::LaunchConfig;
    use owl_gpu::isa::{MemWidth, SpecialReg};
    use owl_host::{Device, DevicePtr};
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    fn lookup_kernel() -> owl_gpu::KernelProgram {
        let b = KernelBuilder::new("lookup");
        let table = b.param(0);
        let out = b.param(1);
        let tid = b.special(SpecialReg::GlobalTid);
        let v = b.load_global(b.add(table, b.mul(tid, 4u64)), MemWidth::B4);
        b.store_global(b.add(out, b.mul(tid, 4u64)), v, MemWidth::B4);
        b.finish()
    }

    #[test]
    fn one_graph_per_launch() {
        let mut dev = Device::new();
        let tracer = Rc::new(RefCell::new(OwlTracer::new()));
        dev.attach_hook(tracer.clone());
        let t = dev.malloc(4 * 32);
        let o = dev.malloc(4 * 32);
        let k = lookup_kernel();
        for _ in 0..3 {
            dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[t.addr(), o.addr()])
                .unwrap();
        }
        let graphs = tracer.borrow_mut().take_graphs();
        assert_eq!(graphs.len(), 3);
        assert_eq!(graphs[0], graphs[1], "deterministic kernel, equal graphs");
    }

    #[test]
    fn global_features_are_layout_independent() {
        // The same program under plain layout and under ASLR must produce
        // identical A-DCFGs thanks to offset normalisation.
        let run = |mut dev: Device| {
            let tracer = Rc::new(RefCell::new(OwlTracer::new()));
            dev.attach_hook(tracer.clone());
            let t = dev.malloc(4 * 32);
            let o = dev.malloc(4 * 32);
            dev.launch(
                &lookup_kernel(),
                LaunchConfig::new(1u32, 32u32),
                &[t.addr(), o.addr()],
            )
            .unwrap();
            let mut tr = tracer.borrow_mut();
            tr.take_graphs().remove(0)
        };
        let plain = run(Device::new());
        let aslr1 = run(Device::with_aslr(111));
        let aslr2 = run(Device::with_aslr(999));
        assert_eq!(plain, aslr1);
        assert_eq!(aslr1, aslr2);
    }

    /// Every address feature recorded anywhere in `graph`.
    fn features(graph: &Adcfg) -> BTreeSet<u64> {
        graph
            .nodes
            .values()
            .flat_map(|n| n.mem.values().flatten())
            .flat_map(|h| h.iter().map(|(f, _)| f))
            .collect()
    }

    /// The features a lookup launch over `table` and `out` must record:
    /// `(alloc + 1) << 40 | offset` for each of the 32 lanes' words.
    fn lookup_features(table: DevicePtr, out: DevicePtr) -> BTreeSet<u64> {
        [table, out]
            .iter()
            .flat_map(|p| (0..32u64).map(move |i| ((u64::from(p.alloc().0) + 1) << 40) | (i * 4)))
            .collect()
    }

    #[test]
    fn features_follow_the_live_allocation_across_free_and_malloc() {
        let mut dev = Device::with_aslr(7);
        let tracer = Rc::new(RefCell::new(OwlTracer::new()));
        dev.attach_hook(tracer.clone());
        let k = lookup_kernel();
        let cfg = LaunchConfig::new(1u32, 32u32);
        let t = dev.malloc(4 * 32);
        let o = dev.malloc(4 * 32);
        dev.launch(&k, cfg, &[t.addr(), o.addr()]).unwrap();
        dev.free(t).unwrap();
        let t2 = dev.malloc(4 * 64);
        assert_ne!(t2.alloc(), t.alloc(), "a fresh allocation id");
        dev.launch(&k, cfg, &[t2.addr(), o.addr()]).unwrap();

        let graphs = tracer.borrow_mut().take_graphs();
        assert_eq!(graphs.len(), 2);
        assert_eq!(features(&graphs[0]), lookup_features(t, o));
        assert_eq!(features(&graphs[1]), lookup_features(t2, o));
    }

    #[test]
    fn encode_address_distinguishes_allocations_not_layout() {
        let mut dev = Device::new();
        let a = dev.malloc(64);
        let b = dev.malloc(64);
        let mem = dev.memory();
        let fa = encode_address(MemSpace::Global, a.addr() + 8, mem);
        let fb = encode_address(MemSpace::Global, b.addr() + 8, mem);
        assert_ne!(fa, fb, "different allocations, different features");
        // Same offset within the same allocation → same feature.
        assert_eq!(fa, encode_address(MemSpace::Global, a.addr() + 8, mem));
        // Shared-space addresses pass through.
        assert_eq!(encode_address(MemSpace::Shared, 40, mem), 40);
    }

    #[test]
    fn unresolved_global_address_is_tagged() {
        let dev = Device::new();
        let f = encode_address(MemSpace::Global, 0x1234, dev.memory());
        assert_ne!(f & (1 << 63), 0);
    }
}
