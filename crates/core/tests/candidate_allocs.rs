//! Race candidates at an already-reported location allocate nothing.
//!
//! The hybrid detector turns off both engines' per-granule latch, so every
//! unordered, unlocked access at a racy location is a candidate of both
//! engines, and the report sink keeps only the first per (kind, location).
//! DJIT latches per granule, but one racy source line over many granules
//! still yields one candidate per granule. The engines hand candidates over
//! as plain facts and the detectors render text only for a new location,
//! so the dropped ones must cost no heap allocation at all.
//!
//! Allocations are counted per thread by a counting global allocator.
//! This file is its own test binary, so no other test shares the
//! allocator, and the per-thread count keeps this file's tests apart.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use helgrind_core::{
    AnyDetector, DetectorConfig, HbEngine, LocksetEngine, ReportCtx, StackFrame, SuppressionSet,
};
use vexec::event::{AccessKind, Event, ThreadId};
use vexec::ir::SrcLoc;
use vexec::util::Symbol;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is a const-initialised
// thread-local `Cell` that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A context with no symbols, stacks or blocks; only new reports use it.
struct NoCtx;

impl ReportCtx for NoCtx {
    fn resolve_sym(&self, _: Symbol) -> &str {
        ""
    }

    fn stack_of(&self, _: ThreadId) -> Vec<StackFrame> {
        Vec::new()
    }

    fn block_note(&self, _: u64) -> Option<String> {
        None
    }
}

const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);
const T2: ThreadId = ThreadId(2);
const BASE: u64 = 0x4000;

fn line(n: u32) -> SrcLoc {
    SrcLoc { file: Symbol(1), line: n, func: Symbol(2) }
}

fn write(tid: ThreadId, addr: u64, loc: SrcLoc) -> Event {
    Event::Access { tid, addr, size: 8, kind: AccessKind::Write, loc }
}

fn spawn_two() -> Vec<Event> {
    [T1, T2]
        .into_iter()
        .map(|child| Event::ThreadCreate { parent: T0, child, loc: line(1) })
        .collect()
}

#[test]
fn hybrid_candidates_at_a_reported_location_allocate_nothing() {
    let cfg = DetectorConfig::hybrid();
    // Two threads that never synchronise write one granule in turn, from
    // one source line and with no lock held.
    let rounds = |n| {
        (0..n)
            .flat_map(|_| [write(T1, BASE, line(10)), write(T2, BASE, line(10))])
            .collect::<Vec<_>>()
    };
    let warm: Vec<Event> = spawn_two().into_iter().chain(rounds(4)).collect();
    let measured = rounds(500);

    let mut d = AnyDetector::by_name("hybrid", cfg, SuppressionSet::new());
    for ev in &warm {
        d.handle_event(ev, &NoCtx);
    }
    assert_eq!(d.sink.location_count(), 1, "the warm-up reports the location");
    let allocs = allocs_during(|| {
        for ev in &measured {
            d.handle_event(ev, &NoCtx);
        }
    });
    assert_eq!(allocs, 0, "{} duplicate candidates allocated {allocs} times", measured.len());
    assert_eq!(d.sink.location_count(), 1);

    // Every measured write was a candidate of both engines, run the way
    // the hybrid detector runs them.
    let mut lockset = LocksetEngine::new(cfg);
    let mut hb = HbEngine::new(cfg);
    lockset.set_report_once(false);
    hb.set_report_once(false);
    for ev in &warm {
        lockset.on_event(ev);
        hb.on_event(ev);
    }
    for ev in &measured {
        assert!(lockset.on_event(ev).is_some(), "lockset candidate at {ev:?}");
        assert!(hb.on_event(ev).is_some(), "hb candidate at {ev:?}");
    }
}

#[test]
fn djit_candidates_from_a_reported_line_allocate_nothing() {
    let cfg = DetectorConfig::djit();
    let granules = 512u64;
    // T1 writes every granule first (first touch materialises the shadow
    // pages); T2's first unordered write from line 20 reports the line.
    let warm: Vec<Event> = spawn_two()
        .into_iter()
        .chain((0..granules).map(|g| write(T1, BASE + 8 * g, line(10))))
        .chain([write(T2, BASE, line(20))])
        .collect();
    // The same line then races on every other granule: one candidate each.
    let measured: Vec<Event> = (1..granules).map(|g| write(T2, BASE + 8 * g, line(20))).collect();

    let mut d = AnyDetector::by_name("djit", cfg, SuppressionSet::new());
    for ev in &warm {
        d.handle_event(ev, &NoCtx);
    }
    assert_eq!(d.sink.location_count(), 1, "the warm-up reports line 20");
    let allocs = allocs_during(|| {
        for ev in &measured {
            d.handle_event(ev, &NoCtx);
        }
    });
    assert_eq!(allocs, 0, "{} duplicate candidates allocated {allocs} times", measured.len());
    assert_eq!(d.sink.location_count(), 1);

    let mut hb = HbEngine::new(cfg);
    for ev in &warm {
        hb.on_event(ev);
    }
    for ev in &measured {
        assert!(hb.on_event(ev).is_some(), "hb candidate at {ev:?}");
    }
}
