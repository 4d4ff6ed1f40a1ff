//! Property-based tests for the host runtime.

use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{MemWidth, SpecialReg};
use owl_host::Device;
use proptest::prelude::*;

proptest! {
    /// Host↔device copies round-trip byte-for-byte at any offset/length.
    #[test]
    fn memcpy_roundtrips(
        size in 1usize..512,
        data in prop::collection::vec(any::<u8>(), 1..128),
        offset in 0usize..64,
    ) {
        prop_assume!(offset + data.len() <= size);
        let mut dev = Device::new();
        let buf = dev.malloc(size);
        dev.memcpy_h2d(buf.offset(offset as u64), &data).unwrap();
        let mut out = vec![0u8; data.len()];
        dev.memcpy_d2h(buf.offset(offset as u64), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// `Device::resolve` maps every in-bounds byte of a live allocation to
    /// `(allocation, offset)` and never resolves a byte of a freed one,
    /// under any allocation pattern, any set of frees, later allocations
    /// and any ASLR seed.
    #[test]
    fn resolution_is_exact_across_frees(
        sizes in prop::collection::vec(1usize..256, 1..10),
        freed in prop::collection::vec(any::<bool>(), 10),
        later in prop::collection::vec(1usize..256, 0..4),
        aslr in prop::option::of(any::<u64>()),
    ) {
        let mut dev = match aslr {
            Some(seed) => Device::with_aslr(seed),
            None => Device::new(),
        };
        let mut live: Vec<_> = sizes.iter().map(|&s| (dev.malloc(s), s)).collect();
        let mut gone = Vec::new();
        for (i, &free) in freed.iter().enumerate().take(live.len()).rev() {
            if free {
                let (ptr, size) = live.remove(i);
                dev.free(ptr).unwrap();
                gone.push((ptr, size));
            }
        }
        live.extend(later.iter().map(|&s| (dev.malloc(s), s)));
        for (ptr, size) in &live {
            // First, middle, and last bytes resolve to the right allocation.
            for off in [0, (size - 1) / 2, size - 1] {
                let got = dev.resolve(ptr.addr() + off as u64);
                prop_assert_eq!(got, Some((ptr.alloc(), off as u64)));
            }
            // One past the end never resolves into this allocation.
            if let Some((id, _)) = dev.resolve(ptr.addr() + *size as u64) {
                prop_assert_ne!(id, ptr.alloc());
            }
        }
        for (ptr, size) in &gone {
            for off in [0, (size - 1) / 2, size - 1] {
                prop_assert_eq!(dev.resolve(ptr.addr() + off as u64), None);
            }
        }
    }

    /// The host event trace length is exactly mallocs + frees + launches.
    #[test]
    fn event_trace_is_complete(n_mallocs in 1usize..8, n_launches in 0usize..5) {
        let b = KernelBuilder::new("nop");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        b.store_global(b.add(out, tid), 0u64, MemWidth::B1);
        let k = b.finish();

        let mut dev = Device::new();
        let mut bufs = Vec::new();
        for _ in 0..n_mallocs {
            bufs.push(dev.malloc(64));
        }
        for _ in 0..n_launches {
            dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[bufs[0].addr()])
                .unwrap();
        }
        dev.free(bufs.pop().unwrap()).unwrap();
        prop_assert_eq!(dev.events().len(), n_mallocs + n_launches + 1);
    }
}
