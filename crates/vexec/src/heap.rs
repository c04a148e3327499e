//! Guest memory: a flat byte arena holding globals and the heap, plus block
//! bookkeeping for allocation-site diagnostics ("Address 0x... is N bytes
//! inside a block of size M alloc'd by thread T" — Fig 9 of the paper).
//!
//! The VM heap is bump-only: guest `free` marks a block freed but addresses
//! are never recycled at this level. Address reuse — the libstdc++ pooled
//! allocator behaviour the paper flags in §4 — is modelled *in guest code*
//! by `cxxmodel`'s pool allocator, which recycles addresses without emitting
//! `Free`/`Alloc` events, exactly like a user-space pool that Helgrind
//! cannot see through.

use crate::event::ThreadId;
use crate::ir::SrcLoc;

/// Lowest guest address; accesses below this are wild.
pub const GUEST_BASE: u64 = 0x1000;
/// Alignment of every allocation.
pub const ALIGN: u64 = 16;

/// A guest allocation record.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    pub addr: u64,
    pub size: u64,
    pub alloc_tid: ThreadId,
    pub alloc_loc: SrcLoc,
    pub freed: bool,
}

/// Errors raised by guest memory operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Access to an address outside any mapped range.
    Wild { addr: u64, size: u64 },
    /// `free` of an address that is not the start of a live block.
    BadFree { addr: u64 },
    /// `free` of an already-freed block.
    DoubleFree { addr: u64 },
    /// Unsupported access size (must be 1, 2, 4 or 8).
    BadSize { size: u8 },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Wild { addr, size } => {
                write!(f, "wild access of {size} bytes at {addr:#x}")
            }
            MemError::BadFree { addr } => write!(f, "free of non-block address {addr:#x}"),
            MemError::DoubleFree { addr } => write!(f, "double free at {addr:#x}"),
            MemError::BadSize { size } => write!(f, "unsupported access size {size}"),
        }
    }
}

/// Guest memory arena.
#[derive(Debug)]
pub struct Heap {
    mem: Vec<u8>,
    next: u64,
    /// Every block ever allocated. The allocator bumps `next`, so this is
    /// sorted by address as well as by allocation order, and lookups
    /// binary-search it.
    blocks: Vec<Block>,
}

impl Heap {
    pub fn new() -> Self {
        Heap { mem: Vec::new(), next: GUEST_BASE, blocks: Vec::new() }
    }

    fn ensure(&mut self, end: u64) {
        let need = (end - GUEST_BASE) as usize;
        if self.mem.len() < need {
            self.mem.resize(need.next_power_of_two().max(4096), 0);
        }
    }

    /// Allocate `size` bytes (zero-initialised). Zero-size requests get one
    /// byte so every allocation has a unique address, like malloc(0).
    pub fn alloc(&mut self, size: u64, tid: ThreadId, loc: SrcLoc) -> u64 {
        let size = size.max(1);
        let addr = self.next;
        let padded = (size + ALIGN - 1) & !(ALIGN - 1);
        self.next += padded;
        self.ensure(self.next);
        // The block is already zeroed: `ensure` zero-fills on growth, every
        // write is bounded below the `next` of its time by `check`, and the
        // bump allocator never hands an address out twice — so no byte of a
        // fresh block can have been written.
        self.blocks.push(Block { addr, size, alloc_tid: tid, alloc_loc: loc, freed: false });
        addr
    }

    /// Release a block. Returns the block record (for the `Free` event's
    /// size) or an error for bad/double frees.
    pub fn free(&mut self, addr: u64) -> Result<Block, MemError> {
        let Ok(i) = self.blocks.binary_search_by_key(&addr, |b| b.addr) else {
            return Err(MemError::BadFree { addr });
        };
        let b = &mut self.blocks[i];
        if b.freed {
            return Err(MemError::DoubleFree { addr });
        }
        b.freed = true;
        Ok(*b)
    }

    #[inline]
    fn check(&self, addr: u64, size: u8) -> Result<usize, MemError> {
        if !matches!(size, 1 | 2 | 4 | 8) {
            return Err(MemError::BadSize { size });
        }
        if addr < GUEST_BASE {
            return Err(MemError::Wild { addr, size: size as u64 });
        }
        let off = (addr - GUEST_BASE) as usize;
        // Checked: a guest pointer near `u64::MAX` must fault, not wrap.
        if addr.checked_add(size as u64).is_none_or(|end| end > self.next) {
            return Err(MemError::Wild { addr, size: size as u64 });
        }
        Ok(off)
    }

    /// Read a little-endian value of `size` bytes. Each size compiles to a
    /// fixed-width load — a dynamic-length slice copy here would put a
    /// `memcpy` call on the hot path of every memory-access slot.
    #[inline]
    pub fn read(&self, addr: u64, size: u8) -> Result<u64, MemError> {
        let off = self.check(addr, size)?;
        let m = &self.mem;
        Ok(match size {
            1 => m[off] as u64,
            2 => u16::from_le_bytes(m[off..off + 2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(m[off..off + 4].try_into().unwrap()) as u64,
            _ => u64::from_le_bytes(m[off..off + 8].try_into().unwrap()),
        })
    }

    /// Write a little-endian value of `size` bytes (value truncated).
    #[inline]
    pub fn write(&mut self, addr: u64, size: u8, value: u64) -> Result<(), MemError> {
        let off = self.check(addr, size)?;
        let b = value.to_le_bytes();
        let m = &mut self.mem;
        match size {
            1 => m[off] = b[0],
            2 => m[off..off + 2].copy_from_slice(&b[..2]),
            4 => m[off..off + 4].copy_from_slice(&b[..4]),
            _ => m[off..off + 8].copy_from_slice(&b[..8]),
        }
        Ok(())
    }

    /// Add `delta` to the `size`-byte value at `addr` (wrapping, truncated
    /// to `size`) and return the old value.
    pub(crate) fn fetch_add(&mut self, addr: u64, size: u8, delta: u64) -> Result<u64, MemError> {
        let old = self.read(addr, size)?;
        self.write(addr, size, old.wrapping_add(delta))?;
        Ok(old)
    }

    /// Check that the `size` bytes at `addr` lie in mapped guest memory,
    /// as a client request's range must.
    pub(crate) fn check_range(&self, addr: u64, size: u64) -> Result<(), MemError> {
        if addr < GUEST_BASE || addr.checked_add(size).is_none_or(|end| end > self.next) {
            return Err(MemError::Wild { addr, size });
        }
        Ok(())
    }

    /// The live or freed block containing `addr`, if any.
    pub fn block_containing(&self, addr: u64) -> Option<&Block> {
        let i = self.blocks.partition_point(|b| b.addr <= addr);
        let b = self.blocks.get(i.checked_sub(1)?)?;
        (addr < b.addr + b.size).then_some(b)
    }

    /// Every block ever allocated, in allocation order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of allocations performed.
    pub fn alloc_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total bytes currently reserved (high-water mark).
    pub fn reserved(&self) -> u64 {
        self.next - GUEST_BASE
    }

    /// `(count, bytes)` of live (never-freed) blocks allocated by `tid` —
    /// what an abruptly killed thread leaks.
    pub fn live_blocks_by(&self, tid: ThreadId) -> (usize, u64) {
        self.blocks
            .iter()
            .filter(|b| !b.freed && b.alloc_tid == tid)
            .fold((0, 0), |(n, bytes), b| (n + 1, bytes + b.size))
    }
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Heap {
        Heap::new()
    }

    const L: SrcLoc = SrcLoc::UNKNOWN;
    const T: ThreadId = ThreadId(0);

    #[test]
    fn alloc_returns_aligned_distinct_addresses() {
        let mut heap = h();
        let a = heap.alloc(24, T, L);
        let b = heap.alloc(8, T, L);
        assert_eq!(a % ALIGN, 0);
        assert_eq!(b % ALIGN, 0);
        assert!(b >= a + 24);
    }

    #[test]
    fn read_write_roundtrip_all_sizes() {
        let mut heap = h();
        let a = heap.alloc(64, T, L);
        for &(size, val) in &[(1u8, 0xABu64), (2, 0xBEEF), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)]
        {
            heap.write(a, size, val).unwrap();
            assert_eq!(heap.read(a, size).unwrap(), val);
        }
    }

    #[test]
    fn write_truncates_to_size() {
        let mut heap = h();
        let a = heap.alloc(16, T, L);
        heap.write(a, 1, 0x1FF).unwrap();
        assert_eq!(heap.read(a, 1).unwrap(), 0xFF);
        // Neighbouring byte untouched.
        assert_eq!(heap.read(a + 1, 1).unwrap(), 0);
    }

    #[test]
    fn fresh_allocations_are_zeroed() {
        let mut heap = h();
        let a = heap.alloc(32, T, L);
        assert_eq!(heap.read(a + 24, 8).unwrap(), 0);
    }

    #[test]
    fn wild_access_rejected() {
        let mut heap = h();
        let a = heap.alloc(8, T, L);
        assert!(matches!(heap.read(a + 4096, 8), Err(MemError::Wild { .. })));
        assert!(matches!(heap.read(0x10, 8), Err(MemError::Wild { .. })));
        assert!(matches!(heap.read(u64::MAX - 3, 8), Err(MemError::Wild { .. })));
        assert!(matches!(heap.write(u64::MAX - 3, 4, 1), Err(MemError::Wild { .. })));
    }

    #[test]
    fn bad_size_rejected() {
        let mut heap = h();
        let a = heap.alloc(8, T, L);
        assert!(matches!(heap.read(a, 3), Err(MemError::BadSize { .. })));
    }

    #[test]
    fn free_and_double_free() {
        let mut heap = h();
        let a = heap.alloc(8, T, L);
        let b = heap.free(a).unwrap();
        assert_eq!(b.size, 8);
        assert!(matches!(heap.free(a), Err(MemError::DoubleFree { .. })));
        assert!(matches!(heap.free(a + 1), Err(MemError::BadFree { .. })));
    }

    #[test]
    fn block_containing_finds_interior_addresses() {
        let mut heap = h();
        let a = heap.alloc(21, T, L);
        let blk = heap.block_containing(a + 8).unwrap();
        assert_eq!(blk.addr, a);
        assert_eq!(blk.size, 21);
        assert!(
            heap.block_containing(a + 21).is_none()
                || heap.block_containing(a + 21).unwrap().addr != a
        );
    }

    #[test]
    fn block_lookups_binary_search_the_allocation_order() {
        let mut heap = h();
        let addrs: Vec<u64> = (1..=9).map(|n| heap.alloc(n * 7, T, L)).collect();
        assert!(heap.block_containing(GUEST_BASE - 1).is_none());
        for (i, &a) in addrs.iter().enumerate() {
            let size = (i as u64 + 1) * 7;
            assert_eq!(heap.block_containing(a).unwrap().addr, a);
            assert_eq!(heap.block_containing(a + size - 1).unwrap().addr, a);
            // The alignment padding after a block belongs to no block.
            assert!(heap.block_containing(a + size).is_none());
        }
        assert!(matches!(heap.free(addrs[4] + 1), Err(MemError::BadFree { .. })));
        assert_eq!(heap.free(addrs[4]).unwrap().size, 35);
        assert!(heap.block_containing(addrs[4]).unwrap().freed);
    }

    #[test]
    fn client_ranges_must_stay_in_mapped_memory() {
        let mut heap = h();
        let a = heap.alloc(32, T, L);
        assert_eq!(heap.check_range(a, 32), Ok(()));
        assert_eq!(heap.check_range(a + 32, 0), Ok(()));
        assert_eq!(heap.check_range(a, 1 << 40), Err(MemError::Wild { addr: a, size: 1 << 40 }));
        assert!(heap.check_range(0, 8).is_err());
        assert!(heap.check_range(a, u64::MAX).is_err());
    }

    #[test]
    fn fetch_add_returns_the_old_value_and_wraps() {
        let mut heap = h();
        let a = heap.alloc(8, T, L);
        heap.write(a, 1, 0xFF).unwrap();
        assert_eq!(heap.fetch_add(a, 1, 2), Ok(0xFF));
        assert_eq!(heap.read(a, 1), Ok(1));
        assert!(heap.fetch_add(a + ALIGN, 8, 1).is_err());
    }

    #[test]
    fn zero_size_alloc_gets_unique_address() {
        let mut heap = h();
        let a = heap.alloc(0, T, L);
        let b = heap.alloc(0, T, L);
        assert_ne!(a, b);
    }
}
