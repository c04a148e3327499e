//! Redundant-access filter cache: elide exact repeat accesses between
//! synchronization points, before `on_event` dispatch.
//!
//! ThreadSanitizer and Helgrind both keep a small per-address cache in
//! front of their instrumentation so that the common case — the same code
//! re-reading the same variable with no intervening synchronization — does
//! not pay full shadow-memory price every time. This module is that cache
//! for the VM's tool chain, with one crucial difference: TSan's filter is
//! *lossy* (it may drop accesses that would have changed which report is
//! printed first), while ours is required to be **report-preserving**:
//! filtered and unfiltered runs must produce byte-identical reports for
//! every engine configuration. That stronger contract dictates the elision
//! rule.
//!
//! ## What may be elided
//!
//! A plain (non-atomic) access is elided only when the slot for its granule
//! holds an entry with the **exact same** `(granule, tid, kind, loc)` and
//! both the acting thread's sync epoch and the global epoch are unchanged.
//! Exact match — not the weaker "kind ≤ cached kind" rule of lossy filters
//! — because the lockset engine records the last access's `(tid, kind,
//! loc)` per granule and renders it in *future* race reports ("This
//! conflicts with a previous write by thread N at file:line"); eliding a
//! read after a cached write (or a repeat at a different source line)
//! would leave that metadata stale and change report bytes long after the
//! elision. Under an exact match, re-processing the event is a state
//! transition no-op for every engine:
//!
//! * **Eraser/lockset**: the state machine's transition for an identical
//!   repeat is idempotent (lockset intersection is idempotent, the
//!   `reported` latch only latches once) and `last = (tid, kind, loc)` is
//!   rewritten with the identical value.
//! * **Happens-before**: thread vector clocks advance only on sync events,
//!   so the repeat carries the same epoch; `last_write`/read-state updates
//!   rewrite identical values, and any conflict it would re-raise has the
//!   same `(kind, loc)` and is deduplicated by the report sink in the
//!   unfiltered run too.
//!
//! ## What invalidates
//!
//! * Any **forwarded access** to a granule overwrites (or, for multi-
//!   granule and atomic accesses, clears) that granule's slot — so a
//!   cross-thread access between two repeats always forces the repeat
//!   through. The slots are shared across threads for exactly this reason.
//! * Any **sync event** (acquire/release, cond, sem, queue, atomic RMW)
//!   bumps the *acting thread's* epoch: its locksets or vector clock
//!   changed, so its cached entries are stale. Other threads' entries
//!   survive — their analysis state is untouched by a foreign sync op.
//! * **Alloc/free/client requests and thread lifecycle** events bump the
//!   *global* epoch: they can reset shadow state for address ranges (or
//!   retire segments) without touching the corresponding slots.
//!
//! The cache requires its granule to be ≥ the engine's shadow granule
//! (both are 8 for every shipped configuration): a slot must be
//! invalidated by *every* access that can touch the shadow state its
//! cached access depends on.

use crate::event::{AccessKind, Event, ThreadId};
use crate::ir::SrcLoc;
use crate::tool::Tool;
use crate::vm::{GuestError, VmView};

/// Number of slots in the direct-mapped cache. Power of two.
pub const FILTER_SLOTS: usize = 512;

/// Default filter granule (bytes). Matches the detectors' shadow granule.
pub const FILTER_GRANULE: u64 = 8;

#[derive(Clone, Copy, Debug)]
struct Slot {
    granule: u64,
    tid: ThreadId,
    kind: AccessKind,
    loc: SrcLoc,
    /// Value of `thread_epochs[tid]` when the entry was stored.
    tepoch: u64,
    /// Value of the global epoch when the entry was stored; 0 = invalid.
    gepoch: u64,
}

const EMPTY_SLOT: Slot = Slot {
    granule: 0,
    tid: ThreadId(u32::MAX),
    kind: AccessKind::Read,
    loc: SrcLoc::UNKNOWN,
    tepoch: 0,
    gepoch: 0,
};

/// Counters the filter keeps about its own effectiveness; surfaced by
/// `raceline check --stats` (stderr only — never part of report stdout).
#[derive(Clone, Copy, Debug, Default)]
pub struct FilterStats {
    /// Events of any kind offered to the filter.
    pub events: u64,
    /// Plain single-granule accesses that were candidates for elision.
    pub candidates: u64,
    /// Candidates elided (cache hits). Never forwarded to the tool chain.
    pub elided: u64,
    /// Sync events that bumped a thread epoch.
    pub thread_epoch_bumps: u64,
    /// Events that bumped the global epoch.
    pub global_epoch_bumps: u64,
}

impl FilterStats {
    /// Fraction of candidate accesses elided.
    pub fn hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.elided as f64 / self.candidates as f64
        }
    }

    /// Fraction of *all* events elided (what the tool chain never saw).
    pub fn elided_fraction(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.elided as f64 / self.events as f64
        }
    }

    /// Events actually forwarded to the wrapped tool.
    pub fn forwarded(&self) -> u64 {
        self.events - self.elided
    }
}

/// The cache proper, independent of any wrapped tool. [`FilterTool`] is the
/// [`Tool`] adapter around it.
#[derive(Clone, Debug)]
pub struct FilterCache {
    slots: Vec<Slot>,
    thread_epochs: Vec<u64>,
    global_epoch: u64,
    granule: u64,
    pub stats: FilterStats,
}

impl Default for FilterCache {
    fn default() -> Self {
        Self::new(FILTER_GRANULE)
    }
}

impl FilterCache {
    /// Create a cache for a given granule (bytes; power of two, ≥ the
    /// engine shadow granule of every detector that will consume the
    /// filtered stream).
    pub fn new(granule: u64) -> Self {
        assert!(granule.is_power_of_two(), "filter granule must be a power of two");
        FilterCache {
            slots: vec![EMPTY_SLOT; FILTER_SLOTS],
            thread_epochs: Vec::new(),
            global_epoch: 1,
            granule,
            stats: FilterStats::default(),
        }
    }

    #[inline]
    fn slot_index(&self, granule: u64) -> usize {
        let g = granule / self.granule;
        (g ^ (g >> 9)) as usize & (FILTER_SLOTS - 1)
    }

    #[inline]
    fn thread_epoch(&mut self, tid: ThreadId) -> u64 {
        let i = tid.index();
        if i >= self.thread_epochs.len() {
            self.thread_epochs.resize(i + 1, 1);
        }
        self.thread_epochs[i]
    }

    fn bump_thread(&mut self, tid: ThreadId) {
        let i = tid.index();
        if i >= self.thread_epochs.len() {
            self.thread_epochs.resize(i + 1, 1);
        }
        self.thread_epochs[i] += 1;
        self.stats.thread_epoch_bumps += 1;
    }

    fn bump_global(&mut self) {
        self.global_epoch += 1;
        self.stats.global_epoch_bumps += 1;
    }

    /// Clear the slots of every granule in `[addr, addr + size)`.
    fn clear_range(&mut self, addr: u64, size: u64) {
        let size = size.max(1);
        let first = addr & !(self.granule - 1);
        let last = (addr + size - 1) & !(self.granule - 1);
        let mut g = first;
        loop {
            let idx = self.slot_index(g);
            if self.slots[idx].gepoch != 0 {
                self.slots[idx] = EMPTY_SLOT;
            }
            if g >= last {
                break;
            }
            g += self.granule;
        }
    }

    /// Offer one event. Returns `true` when the event is redundant and must
    /// NOT be forwarded to the tool chain.
    pub fn filter(&mut self, ev: &Event) -> bool {
        self.stats.events += 1;
        match *ev {
            Event::Access { tid, addr, size, kind, loc } => {
                if kind == AccessKind::AtomicRmw {
                    // An RMW both touches shadow state (it is a write) and
                    // advances the thread's vector clock under the bus-lock
                    // model: never cacheable, and everything the thread
                    // cached is stale.
                    self.clear_range(addr, size as u64);
                    self.bump_thread(tid);
                    return false;
                }
                let size = size.max(1) as u64;
                let first = addr & !(self.granule - 1);
                let last = (addr + size - 1) & !(self.granule - 1);
                if first != last {
                    // Straddling access: forward, and drop every covered
                    // slot so a stale single-granule entry cannot survive
                    // the shadow transitions this access performs.
                    self.clear_range(addr, size);
                    return false;
                }
                self.stats.candidates += 1;
                let tepoch = self.thread_epoch(tid);
                let idx = self.slot_index(first);
                let slot = &self.slots[idx];
                if slot.gepoch == self.global_epoch
                    && slot.tepoch == tepoch
                    && slot.granule == first
                    && slot.tid == tid
                    && slot.kind == kind
                    && slot.loc == loc
                {
                    self.stats.elided += 1;
                    return true;
                }
                self.slots[idx] =
                    Slot { granule: first, tid, kind, loc, tepoch, gepoch: self.global_epoch };
                false
            }
            // Sync operations change only the acting thread's locksets /
            // vector clock; entries cached by other threads stay valid.
            Event::Acquire { tid, .. }
            | Event::Release { tid, .. }
            | Event::CondSignal { tid, .. }
            | Event::CondWake { tid, .. }
            | Event::SemPost { tid, .. }
            | Event::SemAcquired { tid, .. }
            | Event::QueuePut { tid, .. }
            | Event::QueueGot { tid, .. } => {
                self.bump_thread(tid);
                false
            }
            // Heap traffic and client requests can reset shadow state for
            // whole address ranges; thread lifecycle retires segments and
            // seeds clocks. All are rare: drop everything.
            Event::Alloc { .. }
            | Event::Free { .. }
            | Event::Client { .. }
            | Event::ThreadCreate { .. }
            | Event::ThreadJoin { .. }
            | Event::ThreadExit { .. } => {
                self.bump_global();
                false
            }
        }
    }
}

/// [`Tool`] adapter: sits between the VM and `inner`, eliding redundant
/// accesses. `on_guest_fault` and `on_finish` are forwarded verbatim.
pub struct FilterTool<T> {
    inner: T,
    cache: FilterCache,
}

impl<T: Tool> FilterTool<T> {
    pub fn new(inner: T) -> Self {
        FilterTool { inner, cache: FilterCache::default() }
    }

    pub fn stats(&self) -> FilterStats {
        self.cache.stats
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwrap, returning the inner tool and the filter counters.
    pub fn into_parts(self) -> (T, FilterStats) {
        (self.inner, self.cache.stats)
    }
}

impl<T: Tool> Tool for FilterTool<T> {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        if !self.cache.filter(ev) {
            self.inner.on_event(ev, vm);
        }
    }

    fn on_guest_fault(&mut self, err: &GuestError, vm: &VmView<'_>) {
        self.inner.on_guest_fault(err, vm);
    }

    fn on_finish(&mut self, vm: &VmView<'_>) {
        self.inner.on_finish(vm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Symbol;

    fn loc(line: u32) -> SrcLoc {
        SrcLoc { file: Symbol(1), line, func: Symbol(2) }
    }

    fn read(tid: u32, addr: u64, line: u32) -> Event {
        Event::Access { tid: ThreadId(tid), addr, size: 8, kind: AccessKind::Read, loc: loc(line) }
    }

    fn write(tid: u32, addr: u64, line: u32) -> Event {
        Event::Access { tid: ThreadId(tid), addr, size: 8, kind: AccessKind::Write, loc: loc(line) }
    }

    #[test]
    fn exact_repeat_is_elided() {
        let mut f = FilterCache::default();
        assert!(!f.filter(&read(1, 0x1000, 5)));
        assert!(f.filter(&read(1, 0x1000, 5)));
        assert!(f.filter(&read(1, 0x1000, 5)));
        assert_eq!(f.stats.elided, 2);
    }

    #[test]
    fn kind_change_is_not_elided() {
        let mut f = FilterCache::default();
        assert!(!f.filter(&write(1, 0x1000, 5)));
        // Read-after-write would be elidable under a lossy "kind ≤" rule;
        // it must pass here because it rewrites the engines' last-access
        // metadata from (write) to (read).
        assert!(!f.filter(&read(1, 0x1000, 5)));
        // ... and the write repeat is stale now too.
        assert!(!f.filter(&write(1, 0x1000, 5)));
    }

    #[test]
    fn loc_change_is_not_elided() {
        let mut f = FilterCache::default();
        assert!(!f.filter(&read(1, 0x1000, 5)));
        assert!(!f.filter(&read(1, 0x1000, 6)));
    }

    #[test]
    fn cross_thread_access_invalidates() {
        let mut f = FilterCache::default();
        assert!(!f.filter(&read(1, 0x1000, 5)));
        assert!(!f.filter(&read(2, 0x1000, 5)), "different tid: must pass");
        assert!(!f.filter(&read(1, 0x1000, 5)), "slot now belongs to thread 2");
    }

    #[test]
    fn own_sync_invalidates_only_that_thread() {
        let mut f = FilterCache::default();
        assert!(!f.filter(&read(1, 0x1000, 5)));
        assert!(!f.filter(&read(2, 0x2000, 7)));
        // Thread 1 releases a lock: its vector clock / lockset changed.
        assert!(!f.filter(&Event::Release {
            tid: ThreadId(1),
            sync: crate::event::SyncId(0),
            kind: crate::ir::SyncKind::Mutex,
            loc: loc(9),
        }));
        assert!(!f.filter(&read(1, 0x1000, 5)), "own epoch bumped");
        assert!(f.filter(&read(2, 0x2000, 7)), "foreign sync must not evict");
    }

    #[test]
    fn alloc_free_bump_global_epoch() {
        let mut f = FilterCache::default();
        for (i, ev) in [
            Event::Alloc { tid: ThreadId(1), addr: 0x8000, size: 16, loc: loc(1) },
            Event::Free { tid: ThreadId(1), addr: 0x8000, size: 16, loc: loc(2) },
        ]
        .into_iter()
        .enumerate()
        {
            // Distinct loc per round so the prime is always a fresh miss.
            let line = 100 + i as u32;
            assert!(!f.filter(&read(2, 0x2000, line)));
            assert!(f.filter(&read(2, 0x2000, line)), "repeat elided before {ev:?}");
            assert!(!f.filter(&ev));
            assert!(!f.filter(&read(2, 0x2000, line)), "global epoch bumped by {ev:?}");
        }
    }

    #[test]
    fn rmw_clears_slot_and_bumps_actor() {
        let mut f = FilterCache::default();
        assert!(!f.filter(&read(1, 0x1000, 5)));
        assert!(!f.filter(&read(2, 0x2000, 7)));
        assert!(!f.filter(&Event::Access {
            tid: ThreadId(1),
            addr: 0x2000,
            size: 8,
            kind: AccessKind::AtomicRmw,
            loc: loc(8),
        }));
        assert!(!f.filter(&read(1, 0x1000, 5)), "RMW actor's epoch bumped");
        assert!(!f.filter(&read(2, 0x2000, 7)), "RMW target granule cleared");
    }

    #[test]
    fn straddling_access_clears_covered_granules() {
        let mut f = FilterCache::default();
        assert!(!f.filter(&read(1, 0x1000, 5)));
        assert!(!f.filter(&read(1, 0x1008, 6)));
        // 4 bytes at 0x1006 covers granules 0x1000 and 0x1008.
        let straddle = Event::Access {
            tid: ThreadId(2),
            addr: 0x1006,
            size: 4,
            kind: AccessKind::Write,
            loc: loc(7),
        };
        assert!(!f.filter(&straddle));
        assert!(!f.filter(&read(1, 0x1000, 5)));
        assert!(!f.filter(&read(1, 0x1008, 6)));
    }

    #[test]
    fn collisions_only_cause_misses() {
        let mut f = FilterCache::default();
        let a = 0x1000u64;
        // Same slot index as `a` (granule number differs by FILTER_SLOTS,
        // below the 2^9 xor-fold).
        let b = a + (FILTER_SLOTS as u64) * FILTER_GRANULE * FILTER_SLOTS as u64;
        assert!(!f.filter(&read(1, a, 5)));
        assert!(f.filter(&read(1, a, 5)));
        assert!(!f.filter(&read(1, b, 5)));
        assert!(!f.filter(&read(1, a, 5)), "evicted by collision, must re-miss");
    }

    #[test]
    fn stats_rates() {
        let mut f = FilterCache::default();
        f.filter(&read(1, 0x1000, 5));
        f.filter(&read(1, 0x1000, 5));
        assert_eq!(f.stats.events, 2);
        assert_eq!(f.stats.candidates, 2);
        assert_eq!(f.stats.elided, 1);
        assert!((f.stats.hit_rate() - 0.5).abs() < 1e-9);
        assert!((f.stats.elided_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(f.stats.forwarded(), 1);
    }
}
