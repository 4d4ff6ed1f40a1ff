//! A counting global allocator, std only.
//!
//! Counting is off by default: the closed loop then pays one relaxed load
//! per allocation and nothing else. The traced run switches it on around
//! single-threaded code, so the counts it reads are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and, while counting is on, counts every
/// `alloc`, `alloc_zeroed` and `realloc` call with its requested size.
/// Register it with `#[global_allocator]` in the benchmark binary.
pub struct CountingAlloc;

/// Allocation calls and requested bytes counted so far. The counters are
/// statistics that publish no other data, hence `Relaxed`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCount {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl AllocCount {
    /// The allocations made between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The running totals.
pub fn snapshot() -> AllocCount {
    AllocCount {
        calls: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Switches counting on or off and returns the previous setting.
pub fn set_counting(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
