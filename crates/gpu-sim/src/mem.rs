//! Device memory: global allocations, the constant bank, and the linear
//! banks used for shared and local memory.
//!
//! Global memory is an address space of disjoint allocations created by the
//! host (`cudaMalloc` in the paper's terminology). Each allocation has a
//! base address; the allocator can place bases deterministically or with a
//! seeded pseudo-random gap to model device ASLR — the noise source the
//! paper disables/normalises by converting raw addresses to
//! `(allocation, offset)` pairs.

use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Identifier of a global-memory allocation, in allocation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AllocId(pub u32);

/// A byte-addressed linear memory bank (shared or local memory).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinearMemory {
    bytes: Vec<u8>,
}

/// An out-of-bounds or unmapped memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessError {
    /// The faulting byte address.
    pub addr: u64,
    /// The access width in bytes.
    pub width: u64,
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid memory access of {} bytes at {:#x}",
            self.width, self.addr
        )
    }
}

impl std::error::Error for AccessError {}

fn load_le(bytes: &[u8]) -> u64 {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        v |= u64::from(b) << (8 * i);
    }
    v
}

fn store_le(bytes: &mut [u8], value: u64) {
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = (value >> (8 * i)) as u8;
    }
}

impl LinearMemory {
    /// A zero-initialised bank of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self {
            bytes: vec![0; size],
        }
    }

    /// The bank size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when the bank has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Loads `width` bytes (little-endian, zero-extended).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the range exceeds the bank.
    pub fn load(&self, addr: u64, width: u64) -> Result<u64, AccessError> {
        let end = addr.checked_add(width).ok_or(AccessError { addr, width })?;
        if end as usize > self.bytes.len() || end < addr {
            return Err(AccessError { addr, width });
        }
        Ok(load_le(&self.bytes[addr as usize..end as usize]))
    }

    /// Stores the low `width` bytes of `value` (little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the range exceeds the bank.
    pub fn store(&mut self, addr: u64, width: u64, value: u64) -> Result<(), AccessError> {
        let end = addr.checked_add(width).ok_or(AccessError { addr, width })?;
        if end as usize > self.bytes.len() || end < addr {
            return Err(AccessError { addr, width });
        }
        store_le(&mut self.bytes[addr as usize..end as usize], value);
        Ok(())
    }

    /// Raw read-only view of the backing bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Raw mutable view of the backing bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

/// One global-memory allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Allocation {
    id: AllocId,
    base: u64,
    data: Vec<u8>,
}

/// The device's global memory plus its constant bank.
///
/// # Example
///
/// ```
/// use owl_gpu::mem::DeviceMemory;
///
/// let mut mem = DeviceMemory::new();
/// let (id, base) = mem.alloc(64);
/// mem.store(base + 8, 4, 0xdead_beef)?;
/// assert_eq!(mem.load(base + 8, 4)?, 0xdead_beef);
/// assert_eq!(mem.resolve(base + 8), Some((id, 8)));
/// # Ok::<(), owl_gpu::mem::AccessError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeviceMemory {
    /// Live allocations, sorted by base address. Bases are handed out in
    /// increasing order so `alloc` appends; `free` is the only O(n) call.
    allocs: Vec<Allocation>,
    /// Index of the most recently hit allocation. Per-lane accesses are
    /// heavily clustered within one buffer, so checking this entry first
    /// skips the binary search on almost every load/store. Interior
    /// mutability is sound here: the owning `Device` is `!Send + !Sync`
    /// (asserted in `owl-host`), so no concurrent access exists.
    hot: Cell<usize>,
    next_base: u64,
    next_id: u32,
    /// When set, allocation bases get a pseudo-random gap derived from this
    /// state (device ASLR simulation).
    aslr_state: Option<u64>,
    constant: LinearMemory,
    textures: Vec<Texture>,
}

/// A read-only 2-D texture object (8-bit texels, clamp-to-edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Texture {
    width: u32,
    height: u32,
    texels: Vec<u8>,
}

impl Texture {
    /// Texture width in texels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Texture height in texels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Fetches texel `(x, y)` with clamp-to-edge addressing, returning the
    /// value and the linear texel index actually read (the trace address).
    pub fn fetch(&self, x: i64, y: i64) -> (u8, u64) {
        let cx = x.clamp(0, i64::from(self.width) - 1) as u64;
        let cy = y.clamp(0, i64::from(self.height) - 1) as u64;
        let idx = cy * u64::from(self.width) + cx;
        (self.texels[idx as usize], idx)
    }
}

/// The lowest address handed out for global allocations; mimics a device
/// heap living high in the address space.
const GLOBAL_HEAP_BASE: u64 = 0x7_0000_0000;
/// Alignment of allocation bases (CUDA guarantees 256-byte alignment).
const ALLOC_ALIGN: u64 = 256;

impl DeviceMemory {
    /// A fresh device with deterministic allocation bases and an empty
    /// constant bank.
    pub fn new() -> Self {
        Self {
            allocs: Vec::new(),
            hot: Cell::new(0),
            next_base: GLOBAL_HEAP_BASE,
            next_id: 0,
            aslr_state: None,
            constant: LinearMemory::new(0),
            textures: Vec::new(),
        }
    }

    /// Enables simulated device ASLR: subsequent allocation bases receive a
    /// pseudo-random (seeded, deterministic) gap. Owl's tracer must
    /// normalise addresses to offsets to stay robust against this.
    pub fn enable_aslr(&mut self, seed: u64) {
        // Never zero, so the xorshift below cannot get stuck.
        self.aslr_state = Some(seed | 1);
    }

    fn aslr_gap(&mut self) -> u64 {
        match &mut self.aslr_state {
            None => 0,
            Some(s) => {
                // xorshift64* — deterministic, seedable, good enough to
                // scatter bases.
                let mut x = *s;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *s = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 0x10_0000) * ALLOC_ALIGN
            }
        }
    }

    /// Allocates `size` zeroed bytes of global memory, returning the
    /// allocation id and base address.
    pub fn alloc(&mut self, size: usize) -> (AllocId, u64) {
        let gap = self.aslr_gap();
        let base = self.next_base + gap;
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.next_base = (base + size as u64).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN + ALLOC_ALIGN;
        // Bases grow monotonically, so this is a push; the partition point
        // keeps the sort invariant even if the base policy ever changes.
        let pos = self.allocs.partition_point(|a| a.base < base);
        self.allocs.insert(
            pos,
            Allocation {
                id,
                base,
                data: vec![0; size],
            },
        );
        (id, base)
    }

    /// Frees the allocation with the given base address.
    ///
    /// Returns `true` when an allocation was removed.
    pub fn free(&mut self, base: u64) -> bool {
        match self.allocs.binary_search_by_key(&base, |a| a.base) {
            Ok(i) => {
                self.allocs.remove(i);
                // Indices after `i` shifted; drop the stale hot entry.
                self.hot.set(0);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of live allocations.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    /// Index of the allocation containing `addr`: the hot entry when it
    /// still matches, otherwise a binary search (updating the hot entry).
    fn find_index(&self, addr: u64) -> Option<usize> {
        if let Some(a) = self.allocs.get(self.hot.get()) {
            if addr >= a.base && addr - a.base < a.data.len() as u64 {
                return Some(self.hot.get());
            }
        }
        let idx = self
            .allocs
            .partition_point(|a| a.base <= addr)
            .checked_sub(1)?;
        let a = &self.allocs[idx];
        if addr - a.base < a.data.len() as u64 {
            self.hot.set(idx);
            Some(idx)
        } else {
            None
        }
    }

    fn find(&self, addr: u64) -> Option<&Allocation> {
        self.find_index(addr).map(|i| &self.allocs[i])
    }

    fn find_mut(&mut self, addr: u64) -> Option<&mut Allocation> {
        let i = self.find_index(addr)?;
        Some(&mut self.allocs[i])
    }

    /// Resolves a raw global address to `(allocation id, offset)` — the
    /// normalisation Owl applies to remove layout effects from traces.
    pub fn resolve(&self, addr: u64) -> Option<(AllocId, u64)> {
        self.find(addr).map(|a| (a.id, addr - a.base))
    }

    /// Loads `width` bytes from global memory.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the range is not fully inside one live
    /// allocation.
    pub fn load(&self, addr: u64, width: u64) -> Result<u64, AccessError> {
        let a = self.find(addr).ok_or(AccessError { addr, width })?;
        let off = (addr - a.base) as usize;
        let end = off
            .checked_add(width as usize)
            .ok_or(AccessError { addr, width })?;
        if end > a.data.len() {
            return Err(AccessError { addr, width });
        }
        Ok(load_le(&a.data[off..end]))
    }

    /// Stores the low `width` bytes of `value` to global memory.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the range is not fully inside one live
    /// allocation.
    pub fn store(&mut self, addr: u64, width: u64, value: u64) -> Result<(), AccessError> {
        let a = self.find_mut(addr).ok_or(AccessError { addr, width })?;
        let off = (addr - a.base) as usize;
        let end = off
            .checked_add(width as usize)
            .ok_or(AccessError { addr, width })?;
        if end > a.data.len() {
            return Err(AccessError { addr, width });
        }
        store_le(&mut a.data[off..end], value);
        Ok(())
    }

    /// Copies a host byte slice into global memory at `addr`
    /// (`cudaMemcpyHostToDevice`).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the range is not fully inside one live
    /// allocation.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), AccessError> {
        let width = bytes.len() as u64;
        let a = self.find_mut(addr).ok_or(AccessError { addr, width })?;
        let off = (addr - a.base) as usize;
        let end = off
            .checked_add(bytes.len())
            .ok_or(AccessError { addr, width })?;
        if end > a.data.len() {
            return Err(AccessError { addr, width });
        }
        a.data[off..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Copies global memory at `addr` into a host buffer
    /// (`cudaMemcpyDeviceToHost`).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the range is not fully inside one live
    /// allocation.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) -> Result<(), AccessError> {
        let width = out.len() as u64;
        let a = self.find(addr).ok_or(AccessError { addr, width })?;
        let off = (addr - a.base) as usize;
        let end = off
            .checked_add(out.len())
            .ok_or(AccessError { addr, width })?;
        if end > a.data.len() {
            return Err(AccessError { addr, width });
        }
        out.copy_from_slice(&a.data[off..end]);
        Ok(())
    }

    /// Replaces the constant bank contents (`cudaMemcpyToSymbol`).
    pub fn set_constant(&mut self, bytes: &[u8]) {
        self.constant = LinearMemory::new(bytes.len());
        self.constant.as_bytes_mut().copy_from_slice(bytes);
    }

    /// The read-only constant bank.
    pub fn constant(&self) -> &LinearMemory {
        &self.constant
    }

    /// Binds a 2-D texture object (`cudaBindTexture`-style) and returns
    /// its slot.
    ///
    /// # Panics
    ///
    /// Panics when `texels.len() != width * height` or either extent is 0.
    pub fn bind_texture(&mut self, width: u32, height: u32, texels: &[u8]) -> u16 {
        assert!(width > 0 && height > 0, "degenerate texture");
        assert_eq!(
            texels.len(),
            width as usize * height as usize,
            "texel count mismatch"
        );
        self.textures.push(Texture {
            width,
            height,
            texels: texels.to_vec(),
        });
        (self.textures.len() - 1) as u16
    }

    /// The texture bound at `slot`, if any.
    pub fn texture(&self, slot: u16) -> Option<&Texture> {
        self.textures.get(usize::from(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_memory_roundtrip_widths() {
        let mut m = LinearMemory::new(16);
        for (w, v) in [
            (1u64, 0xAA),
            (2, 0xBBCC),
            (4, 0xDEAD_BEEF),
            (8, u64::MAX - 3),
        ] {
            m.store(0, w, v).unwrap();
            assert_eq!(m.load(0, w).unwrap(), v & (u64::MAX >> (64 - 8 * w)));
        }
    }

    #[test]
    fn linear_memory_little_endian() {
        let mut m = LinearMemory::new(8);
        m.store(0, 4, 0x0403_0201).unwrap();
        assert_eq!(m.as_bytes()[..4], [1, 2, 3, 4]);
        assert_eq!(m.load(1, 2).unwrap(), 0x0302);
    }

    #[test]
    fn linear_memory_bounds_checked() {
        let mut m = LinearMemory::new(4);
        assert!(m.load(1, 4).is_err());
        assert!(m.store(4, 1, 0).is_err());
        assert!(m.load(u64::MAX, 8).is_err());
    }

    #[test]
    fn global_alloc_and_access() {
        let mut mem = DeviceMemory::new();
        let (id0, b0) = mem.alloc(32);
        let (id1, b1) = mem.alloc(32);
        assert_ne!(b0, b1);
        assert_eq!(id0, AllocId(0));
        assert_eq!(id1, AllocId(1));
        mem.store(b1 + 4, 4, 77).unwrap();
        assert_eq!(mem.load(b1 + 4, 4).unwrap(), 77);
        assert_eq!(mem.load(b0 + 4, 4).unwrap(), 0);
    }

    #[test]
    fn resolve_maps_to_offset() {
        let mut mem = DeviceMemory::new();
        let (id, base) = mem.alloc(100);
        assert_eq!(mem.resolve(base + 42), Some((id, 42)));
        assert_eq!(mem.resolve(base + 100), None);
        assert_eq!(mem.resolve(base - 1), None);
    }

    #[test]
    fn cross_allocation_access_faults() {
        let mut mem = DeviceMemory::new();
        let (_, b0) = mem.alloc(8);
        let _ = mem.alloc(8);
        // An 8-byte load starting at the last byte of allocation 0 must not
        // silently read into allocation 1.
        assert!(mem.load(b0 + 7, 8).is_err());
    }

    #[test]
    fn free_unmaps() {
        let mut mem = DeviceMemory::new();
        let (_, base) = mem.alloc(16);
        assert!(mem.free(base));
        assert!(!mem.free(base));
        assert!(mem.load(base, 1).is_err());
    }

    #[test]
    fn aslr_changes_bases_deterministically() {
        let bases = |seed: Option<u64>| {
            let mut mem = DeviceMemory::new();
            if let Some(s) = seed {
                mem.enable_aslr(s);
            }
            (0..4).map(|_| mem.alloc(64).1).collect::<Vec<_>>()
        };
        let plain = bases(None);
        let a = bases(Some(1));
        let b = bases(Some(1));
        let c = bases(Some(2));
        assert_eq!(a, b, "same seed, same layout");
        assert_ne!(a, plain, "ASLR must move allocations");
        assert_ne!(a, c, "different seeds, different layout");
        // Offsets within an allocation stay meaningful regardless of ASLR.
        let mut mem = DeviceMemory::new();
        mem.enable_aslr(99);
        let (id, base) = mem.alloc(64);
        assert_eq!(mem.resolve(base + 10), Some((id, 10)));
    }

    #[test]
    fn write_read_bytes_roundtrip() {
        let mut mem = DeviceMemory::new();
        let (_, base) = mem.alloc(8);
        mem.write_bytes(base + 2, &[9, 8, 7]).unwrap();
        let mut out = [0u8; 3];
        mem.read_bytes(base + 2, &mut out).unwrap();
        assert_eq!(out, [9, 8, 7]);
        assert!(mem.write_bytes(base + 6, &[0; 4]).is_err());
    }

    #[test]
    fn constant_bank_roundtrip() {
        let mut mem = DeviceMemory::new();
        mem.set_constant(&[1, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(mem.constant().load(4, 4).unwrap(), 2);
    }
}
