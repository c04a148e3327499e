//! The Eraser lockset algorithm (Savage et al.) as implemented in Helgrind,
//! with the Visual Threads thread-segment refinement and the two
//! improvements contributed by the paper:
//!
//! * **HWLC** — the hardware bus lock modelled as a read-write lock held in
//!   read mode by every plain read and in write mode by `LOCK`-prefixed
//!   writes (instead of a plain mutex held only during `LOCK`-prefixed
//!   instructions), plus interception of POSIX rwlocks;
//! * **DR** — honouring `VALGRIND_HG_DESTRUCT` client requests emitted by
//!   the automatic delete-annotation pass: the destroyed object's memory
//!   becomes exclusively owned by the deleting thread's current segment, so
//!   the vptr writes of the destructor chain stop producing warnings while
//!   accesses by *other* threads during destruction are still caught.
//!
//! Per-location state machine (Fig 1 of the paper):
//!
//! ```text
//! VIRGIN --any access--> EXCLUSIVE(segment)
//! EXCLUSIVE --access by hb-ordered segment--> EXCLUSIVE(new segment)
//! EXCLUSIVE --concurrent read--> SHARED-READ(C := locks_held(t))
//! EXCLUSIVE --concurrent write--> SHARED-MODIFIED(C := write_locks_held(t))
//! SHARED-READ --read--> C := C ∩ locks_held(t)          (never warns)
//! SHARED-READ --write--> SHARED-MODIFIED, C := C ∩ write_locks_held(t)
//! SHARED-MODIFIED --access--> intersect; warn once when C = ∅
//! ```

use crate::config::{BusLockModel, DetectorConfig};
use crate::locksets::{LockId, LockSetId, LockSetTable};
use crate::segments::{SegmentGraph, SegmentId};
use crate::shadowmem::PageTable;
use vexec::event::{AccessKind, AcqMode, ClientEv, Event, SyncId, ThreadId};
use vexec::ir::{SrcLoc, SyncKind};

/// Shadow state of one granule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarState {
    Virgin,
    Exclusive { seg: SegmentId },
    SharedRead { ls: LockSetId },
    SharedMod { ls: LockSetId, reported: bool },
}

impl VarState {
    /// Helgrind-style description ("Previous state: shared RO, no locks").
    pub fn describe(&self, table: &LockSetTable) -> String {
        match self {
            VarState::Virgin => "virgin".to_string(),
            VarState::Exclusive { seg } => format!("exclusive (segment {})", seg.0),
            VarState::SharedRead { ls } => {
                format!("shared RO, {}", describe_ls(table, *ls))
            }
            VarState::SharedMod { ls, .. } => {
                format!("shared modified, {}", describe_ls(table, *ls))
            }
        }
    }
}

fn describe_ls(table: &LockSetTable, ls: LockSetId) -> String {
    if table.is_empty(ls) {
        "no locks".to_string()
    } else {
        let names: Vec<String> = table
            .elements(ls)
            .iter()
            .map(|l| match l.to_sync() {
                None => "BUSLOCK".to_string(),
                Some(s) => format!("lock#{}", s.0),
            })
            .collect();
        format!("locks held: {{{}}}", names.join(", "))
    }
}

/// A race found by the lockset engine. Plain facts, no text: a detector
/// renders `prev_state` with [`VarState::describe`] only for a location it
/// is about to report, so candidates it drops as duplicates cost no
/// allocation. Interned lock-sets never change, so the later rendering is
/// the text the state had at the access.
#[derive(Clone, Copy, Debug)]
pub struct RaceInfo {
    pub tid: ThreadId,
    pub addr: u64,
    pub kind: AccessKind,
    pub loc: SrcLoc,
    /// State the granule was in before this access.
    pub prev_state: VarState,
    /// The previous access to this granule (Helgrind 3.x prints "this
    /// conflicts with a previous access" — so do we).
    pub prev_access: Option<(ThreadId, AccessKind, SrcLoc)>,
}

#[derive(Clone, Debug, Default)]
struct ThreadLocks {
    /// Held locks in acquisition order, with mode.
    held: Vec<(LockId, AcqMode)>,
    /// Interned: all locks held in any mode.
    any: LockSetId,
    /// Interned: locks held in write (exclusive) mode.
    write: LockSetId,
    /// `any ∪ {BUS}` — a plain read under the rw-lock bus model.
    any_bus: LockSetId,
    /// `write ∪ {BUS}` — the write half of a `LOCK`-prefixed RMW.
    write_bus: LockSetId,
}

/// Per-granule shadow record: the Eraser state plus the most recent
/// access, kept for conflict reporting.
#[derive(Clone, Copy, Debug)]
struct Shadow {
    state: VarState,
    last: Option<(ThreadId, AccessKind, SrcLoc)>,
}

/// The lockset engine: a pure consumer of the event stream, returning race
/// information instead of reporting directly (so the hybrid detector can
/// reuse it).
#[derive(Debug)]
pub struct LocksetEngine {
    cfg: DetectorConfig,
    pub table: LockSetTable,
    shadow: PageTable<Shadow>,
    threads: Vec<ThreadLocks>,
    /// Reused by `rebuild_locksets` so lock/unlock never allocates once
    /// the thread's lock-sets are interned.
    scratch: Vec<LockId>,
    segments: SegmentGraph,
    /// When false (hybrid mode), the per-granule `reported` latch is not
    /// set, so every empty-lockset access yields a candidate race.
    report_once: bool,
    /// Statistics: number of accesses processed.
    pub accesses: u64,
    /// Granules never tracked because the shadow budget was exhausted.
    shadow_overflow: u64,
}

impl LocksetEngine {
    pub fn new(cfg: DetectorConfig) -> Self {
        assert!(cfg.granule.is_power_of_two(), "granule must be a power of two");
        let mut table = LockSetTable::new();
        table.set_max_sets(cfg.budget.max_locksets);
        LocksetEngine {
            cfg,
            table,
            shadow: PageTable::new(cfg.granule),
            threads: Vec::new(),
            scratch: Vec::new(),
            segments: SegmentGraph::new(cfg.thread_segments),
            report_once: true,
            accesses: 0,
            shadow_overflow: 0,
        }
    }

    /// Hybrid mode: do not latch `reported`; the caller deduplicates.
    pub fn set_report_once(&mut self, v: bool) {
        self.report_once = v;
    }

    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    fn thread_mut(&mut self, tid: ThreadId) -> &mut ThreadLocks {
        let idx = tid.index();
        if self.threads.len() <= idx {
            self.threads.resize_with(idx + 1, ThreadLocks::default);
        }
        &mut self.threads[idx]
    }

    /// The four interned locksets of a thread. `any_bus`/`write_bus` always
    /// contain BUS, so a default-constructed (never-rebuilt) entry is
    /// recognisable by its empty `any_bus` and initialised lazily.
    fn locksets_of(&mut self, tid: ThreadId) -> (LockSetId, LockSetId, LockSetId, LockSetId) {
        let needs_init =
            self.threads.get(tid.index()).is_none_or(|t| t.any_bus == LockSetId::EMPTY);
        if needs_init {
            self.thread_mut(tid);
            self.rebuild_locksets(tid);
        }
        let t = &self.threads[tid.index()];
        (t.any, t.write, t.any_bus, t.write_bus)
    }

    fn rebuild_locksets(&mut self, tid: ThreadId) {
        // Hot path (every lock/unlock): gather held locks into the reused
        // scratch buffer and intern from the borrowed slice, so nothing is
        // allocated once these sets exist in the table.
        self.thread_mut(tid);
        self.scratch.clear();
        self.scratch.extend(self.threads[tid.index()].held.iter().map(|&(l, _)| l));
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let any_id = self.table.intern_sorted_slice(&self.scratch);
        self.scratch.clear();
        self.scratch.extend(
            self.threads[tid.index()]
                .held
                .iter()
                .filter(|&&(_, m)| m == AcqMode::Exclusive)
                .map(|&(l, _)| l),
        );
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let write_id = self.table.intern_sorted_slice(&self.scratch);
        let any_bus = self.table.with(any_id, LockId::BUS);
        let write_bus = self.table.with(write_id, LockId::BUS);
        let t = self.thread_mut(tid);
        t.any = any_id;
        t.write = write_id;
        t.any_bus = any_bus;
        t.write_bus = write_bus;
    }

    /// Recompute the bus-extended variants after `any`/`write` changed.
    fn set_locksets(&mut self, tid: ThreadId, any: LockSetId, write: LockSetId) {
        let any_bus = self.table.with(any, LockId::BUS);
        let write_bus = self.table.with(write, LockId::BUS);
        let t = self.thread_mut(tid);
        t.any = any;
        t.write = write;
        t.any_bus = any_bus;
        t.write_bus = write_bus;
    }

    fn acquire(&mut self, tid: ThreadId, sync: SyncId, mode: AcqMode) {
        let lock = LockId::from_sync(sync);
        let t = self.thread_mut(tid);
        let had_any = t.held.iter().any(|&(l, _)| l == lock);
        let had_excl = t.held.iter().any(|&(l, m)| l == lock && m == AcqMode::Exclusive);
        t.held.push((lock, mode));
        if t.any_bus == LockSetId::EMPTY {
            // First lock op of this thread: initialise all four sets.
            self.rebuild_locksets(tid);
            return;
        }
        // Incremental: the new interned sets differ from the old by at most
        // this one lock, so each is a memoised single-probe `with` instead
        // of re-gathering and re-hashing the whole held list.
        let (any, write) = (t.any, t.write);
        let any = if had_any { any } else { self.table.with(any, lock) };
        let write = if mode == AcqMode::Exclusive && !had_excl {
            self.table.with(write, lock)
        } else {
            write
        };
        self.set_locksets(tid, any, write);
    }

    fn release(&mut self, tid: ThreadId, sync: SyncId) {
        let lock = LockId::from_sync(sync);
        let t = self.thread_mut(tid);
        let Some(pos) = t.held.iter().rposition(|&(l, _)| l == lock) else {
            return;
        };
        let removed_mode = t.held[pos].1;
        t.held.remove(pos);
        if t.any_bus == LockSetId::EMPTY {
            self.rebuild_locksets(tid);
            return;
        }
        // Re-entrant locks: the set only shrinks once the last instance
        // (per mode class) is released.
        let still_any = t.held.iter().any(|&(l, _)| l == lock);
        let still_excl = t.held.iter().any(|&(l, m)| l == lock && m == AcqMode::Exclusive);
        let (any, write) = (t.any, t.write);
        let any = if still_any { any } else { self.table.without(any, lock) };
        let write = if removed_mode == AcqMode::Exclusive && !still_excl {
            self.table.without(write, lock)
        } else {
            write
        };
        self.set_locksets(tid, any, write);
    }

    fn reset_range(&mut self, addr: u64, size: u64) {
        // Page-granular: fully covered pages are unmapped wholesale instead
        // of removing each granule with its own hash lookup.
        self.shadow.reset_range(addr, size);
    }

    fn mark_exclusive_range(&mut self, tid: ThreadId, addr: u64, size: u64) {
        let seg = self.segments.current(tid);
        let g = self.cfg.granule;
        let start = addr & !(g - 1);
        let end = (addr + size.max(1) - 1) & !(g - 1);
        let mut a = start;
        while a <= end {
            // Per-slot (not a page drop): the previous access must survive
            // for conflict reporting. Consecutive granules hit the page
            // table's last-page cache, so this stays cheap.
            let last = self.shadow.get(a).and_then(|s| s.last);
            self.shadow_set(a, Shadow { state: VarState::Exclusive { seg }, last });
            a += g;
        }
    }

    /// Shadow write honouring the budget: once `max_shadow_words` distinct
    /// granules are tracked, *new* granules are dropped (counted in
    /// `shadow_overflow`) while existing ones keep updating. Coverage is
    /// under-approximated; no race is ever fabricated by the cap. The page
    /// table counts live granules, so the cap is as exact as the old map's.
    fn shadow_set(&mut self, g: u64, s: Shadow) {
        if self.shadow.len() >= self.cfg.budget.max_shadow_words && !self.shadow.contains(g) {
            self.shadow_overflow += 1;
            return;
        }
        self.shadow.insert(g, s);
    }

    /// Feed one event; returns race info if this event exposes a race.
    pub fn on_event(&mut self, ev: &Event) -> Option<RaceInfo> {
        match *ev {
            Event::Access { tid, addr, size, kind, loc } => {
                self.on_access(tid, addr, size, kind, loc)
            }
            Event::Acquire { tid, sync, kind, mode, .. } => {
                if kind == SyncKind::RwLock && !self.cfg.track_rwlocks {
                    return None;
                }
                self.acquire(tid, sync, mode);
                None
            }
            Event::Release { tid, sync, kind, .. } => {
                if kind == SyncKind::RwLock && !self.cfg.track_rwlocks {
                    return None;
                }
                self.release(tid, sync);
                None
            }
            Event::ThreadCreate { parent, child, .. } => {
                self.segments.on_create(parent, child);
                None
            }
            Event::ThreadJoin { joiner, joined, .. } => {
                self.segments.on_join(joiner, joined);
                None
            }
            Event::Alloc { addr, size, .. } => {
                // Fresh memory: reset shadow state (Helgrind does this on
                // malloc; the pooled-allocator FPs of §4 arise precisely
                // because a user-space pool skips this).
                self.reset_range(addr, size);
                None
            }
            Event::Client { tid, req, .. } => {
                match req {
                    ClientEv::HgDestruct { addr, size } => {
                        if self.cfg.honor_destruct {
                            self.mark_exclusive_range(tid, addr, size);
                        }
                    }
                    ClientEv::HgCleanMemory { addr, size } => {
                        self.reset_range(addr, size);
                    }
                    ClientEv::Label(_) => {}
                }
                None
            }
            _ => None,
        }
    }

    fn on_access(
        &mut self,
        tid: ThreadId,
        addr: u64,
        size: u8,
        kind: AccessKind,
        loc: SrcLoc,
    ) -> Option<RaceInfo> {
        self.accesses += 1;
        let (any, write, any_bus, write_bus) = self.locksets_of(tid);
        // Choose the effective locksets for this access kind and bus model.
        let (l_read, l_write) = match (kind, self.cfg.bus_lock) {
            // Plain read: holds the bus lock in read mode only under HWLC.
            (AccessKind::Read, BusLockModel::RwLock) => (any_bus, write),
            (AccessKind::Read, BusLockModel::PlainMutex) => (any, write),
            // Plain write: never holds the bus lock.
            (AccessKind::Write, _) => (any, write),
            // LOCK-prefixed RMW: holds the bus lock (exclusively) under
            // both models — the original implementation locked its special
            // mutex exactly for these instructions.
            (AccessKind::AtomicRmw, _) => (any_bus, write_bus),
        };
        let is_write = kind.is_write();
        let effective = if is_write { l_write } else { l_read };
        let cur_seg = self.segments.current(tid);

        let mut race: Option<RaceInfo> = None;
        let g_size = self.cfg.granule;
        let start = addr & !(g_size - 1);
        let end = (addr + size.max(1) as u64 - 1) & !(g_size - 1);
        let mut g = start;
        while g <= end {
            // One page-table lookup per granule: tracked granules are
            // stepped and written back through the same `&mut` slot;
            // untracked ones take the virgin path below (the only one the
            // shadow budget gates — VIRGIN→EXCLUSIVE never races).
            if let Some(slot) = self.shadow.get_mut(g) {
                let prev = *slot;
                let (next, raced) = step_state(
                    &mut self.table,
                    &self.segments,
                    self.report_once,
                    prev.state,
                    cur_seg,
                    is_write,
                    effective,
                );
                *slot = Shadow { state: next, last: Some((tid, kind, loc)) };
                if raced && race.is_none() {
                    race = Some(RaceInfo {
                        tid,
                        addr: if g <= addr { addr } else { g },
                        kind,
                        loc,
                        prev_state: prev.state,
                        prev_access: prev.last,
                    });
                }
            } else if self.shadow.len() >= self.cfg.budget.max_shadow_words {
                self.shadow_overflow += 1;
            } else {
                self.shadow.insert(
                    g,
                    Shadow {
                        state: VarState::Exclusive { seg: cur_seg },
                        last: Some((tid, kind, loc)),
                    },
                );
            }
            g += g_size;
        }
        race
    }

    /// Current shadow state of an address (for tests and diagnostics).
    pub fn state_of(&self, addr: u64) -> VarState {
        self.shadow.peek(addr).map(|s| s.state).unwrap_or(VarState::Virgin)
    }

    /// Most recent access to the granule containing `addr`.
    pub fn last_access_of(&self, addr: u64) -> Option<(ThreadId, AccessKind, SrcLoc)> {
        self.shadow.peek(addr).and_then(|s| s.last)
    }

    /// Number of shadowed granules.
    pub fn shadowed_granules(&self) -> usize {
        self.shadow.len()
    }

    /// High-water mark of live shadow granules (see
    /// [`crate::shadowmem::PageTable::peak_len`]).
    pub fn peak_shadowed_granules(&self) -> usize {
        self.shadow.peak_len()
    }

    /// True if any budget cap degraded this engine's state (dropped shadow
    /// granules or lock-set table overflow).
    pub fn truncated(&self) -> bool {
        self.shadow_overflow > 0 || self.table.overflow_count() > 0
    }

    /// Granules dropped by the shadow budget.
    pub fn shadow_overflow(&self) -> u64 {
        self.shadow_overflow
    }

    /// Access to the segment graph (for diagnostics).
    pub fn segments(&self) -> &SegmentGraph {
        &self.segments
    }
}

/// One state-machine step. A free function (not a method) so the access
/// hot path can hold the shadow slot's `&mut` across the step and write
/// the result back without a second page-table lookup. Returns
/// (next state, race?).
fn step_state(
    table: &mut LockSetTable,
    segments: &SegmentGraph,
    report_once: bool,
    state: VarState,
    cur_seg: SegmentId,
    is_write: bool,
    effective: LockSetId,
) -> (VarState, bool) {
    match state {
        VarState::Virgin => (VarState::Exclusive { seg: cur_seg }, false),
        VarState::Exclusive { seg } => {
            if seg == cur_seg || segments.happens_before(seg, cur_seg) {
                // Same segment, or ownership transfers along the
                // thread-segment graph (Visual Threads rule ii).
                (VarState::Exclusive { seg: cur_seg }, false)
            } else if is_write {
                let empty = table.is_empty(effective);
                (VarState::SharedMod { ls: effective, reported: empty && report_once }, empty)
            } else {
                (VarState::SharedRead { ls: effective }, false)
            }
        }
        VarState::SharedRead { ls } => {
            let nls = table.intersect(ls, effective);
            if is_write {
                let empty = table.is_empty(nls);
                (VarState::SharedMod { ls: nls, reported: empty && report_once }, empty)
            } else {
                (VarState::SharedRead { ls: nls }, false)
            }
        }
        VarState::SharedMod { ls, reported } => {
            let nls = table.intersect(ls, effective);
            let empty = table.is_empty(nls);
            let race = empty && !reported;
            (VarState::SharedMod { ls: nls, reported: reported || (race && report_once) }, race)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::ir::SrcLoc;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const L: SrcLoc = SrcLoc::UNKNOWN;

    fn acc(tid: ThreadId, addr: u64, kind: AccessKind) -> Event {
        Event::Access { tid, addr, size: 8, kind, loc: L }
    }

    fn lock(tid: ThreadId, s: u32) -> Event {
        Event::Acquire {
            tid,
            sync: SyncId(s),
            kind: SyncKind::Mutex,
            mode: AcqMode::Exclusive,
            loc: L,
        }
    }

    fn unlock(tid: ThreadId, s: u32) -> Event {
        Event::Release { tid, sync: SyncId(s), kind: SyncKind::Mutex, loc: L }
    }

    fn create(p: ThreadId, c: ThreadId) -> Event {
        Event::ThreadCreate { parent: p, child: c, loc: L }
    }

    #[test]
    fn virgin_to_exclusive_no_warning() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        assert!(e.on_event(&acc(T0, 0x1000, AccessKind::Write)).is_none());
        assert!(matches!(e.state_of(0x1000), VarState::Exclusive { .. }));
        // Repeated same-thread accesses stay exclusive.
        assert!(e.on_event(&acc(T0, 0x1000, AccessKind::Read)).is_none());
        assert!(matches!(e.state_of(0x1000), VarState::Exclusive { .. }));
    }

    #[test]
    fn unlocked_write_write_race_detected() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        assert!(e.on_event(&acc(T1, 0x1000, AccessKind::Write)).is_none());
        let race = e.on_event(&acc(T2, 0x1000, AccessKind::Write));
        assert!(race.is_some(), "concurrent unlocked writes must race");
        assert_eq!(race.unwrap().tid, T2);
        // Reported once per granule.
        assert!(e.on_event(&acc(T1, 0x1000, AccessKind::Write)).is_none());
    }

    #[test]
    fn common_lock_prevents_warning() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        for &t in &[T1, T2, T1, T2] {
            e.on_event(&lock(t, 0));
            assert!(e.on_event(&acc(t, 0x2000, AccessKind::Write)).is_none());
            e.on_event(&unlock(t, 0));
        }
        match e.state_of(0x2000) {
            VarState::SharedMod { ls, .. } => {
                assert_ne!(ls, LockSetId::EMPTY, "common lock must remain in the set")
            }
            s => panic!("expected shared-modified, got {s:?}"),
        }
    }

    #[test]
    fn lockset_is_intersection_two_locks_then_different_lock_races() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        // T1 writes under {0,1}; T2 writes under {1}: intersection {1} — ok.
        e.on_event(&lock(T1, 0));
        e.on_event(&lock(T1, 1));
        assert!(e.on_event(&acc(T1, 0x3000, AccessKind::Write)).is_none());
        e.on_event(&unlock(T1, 1));
        e.on_event(&unlock(T1, 0));
        e.on_event(&lock(T2, 1));
        assert!(e.on_event(&acc(T2, 0x3000, AccessKind::Write)).is_none());
        e.on_event(&unlock(T2, 1));
        // T1 writes under {0} only: intersection empty — race.
        e.on_event(&lock(T1, 0));
        assert!(e.on_event(&acc(T1, 0x3000, AccessKind::Write)).is_some());
        e.on_event(&unlock(T1, 0));
    }

    #[test]
    fn read_shared_data_never_warns() {
        // Initialise once, then read from many threads with no locks: the
        // SHARED-READ state never reports (Fig 1).
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        assert!(e.on_event(&acc(T0, 0x4000, AccessKind::Write)).is_none());
        assert!(e.on_event(&acc(T1, 0x4000, AccessKind::Read)).is_none());
        assert!(e.on_event(&acc(T2, 0x4000, AccessKind::Read)).is_none());
        assert!(matches!(e.state_of(0x4000), VarState::SharedRead { .. }));
    }

    #[test]
    fn write_after_read_shared_with_no_lock_races() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T0, 0x4100, AccessKind::Write));
        e.on_event(&acc(T1, 0x4100, AccessKind::Read));
        let race = e.on_event(&acc(T2, 0x4100, AccessKind::Write));
        // HWLC: the plain read held the bus lock in read mode.
        assert_eq!(
            race.expect("write after unlocked shared read races").prev_state.describe(&e.table),
            "shared RO, locks held: {BUSLOCK}"
        );
    }

    #[test]
    fn thread_segment_handoff_keeps_exclusive() {
        // Fig 10: parent initialises, spawns worker, worker uses and the
        // parent only touches it again after join — never leaves EXCLUSIVE.
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        assert!(e.on_event(&acc(T0, 0x5000, AccessKind::Write)).is_none());
        e.on_event(&create(T0, T1));
        assert!(e.on_event(&acc(T1, 0x5000, AccessKind::Write)).is_none());
        assert!(matches!(e.state_of(0x5000), VarState::Exclusive { .. }));
        e.on_event(&Event::ThreadJoin { joiner: T0, joined: T1, loc: L });
        assert!(e.on_event(&acc(T0, 0x5000, AccessKind::Write)).is_none());
        assert!(matches!(e.state_of(0x5000), VarState::Exclusive { .. }));
    }

    #[test]
    fn without_thread_segments_handoff_degrades_to_shared() {
        let mut cfg = DetectorConfig::hwlc_dr();
        cfg.thread_segments = false;
        let mut e = LocksetEngine::new(cfg);
        e.on_event(&acc(T0, 0x5100, AccessKind::Write));
        e.on_event(&create(T0, T1));
        // Child write with no locks → shared-modified, empty set → race.
        let race = e.on_event(&acc(T1, 0x5100, AccessKind::Write));
        assert!(race.is_some(), "plain Eraser cannot see the fork hand-off");
    }

    /// The Fig 8/9 scenario: COW string reference counter.
    fn string_refcount_scenario(cfg: DetectorConfig) -> Option<RaceInfo> {
        let mut e = LocksetEngine::new(cfg);
        let rc = 0x6000u64;
        // main constructs the string (writes rc = 1).
        e.on_event(&acc(T0, rc, AccessKind::Write));
        // main spawns a worker which copies the string: read rc (COW
        // check), then LOCK-prefixed increment.
        e.on_event(&create(T0, T1));
        assert!(e.on_event(&acc(T1, rc, AccessKind::Read)).is_none());
        assert!(e.on_event(&acc(T1, rc, AccessKind::AtomicRmw)).is_none());
        // main concurrently copies too (line 22 of Fig 8): read, then
        // LOCK-prefixed increment in M_grab.
        let r1 = e.on_event(&acc(T0, rc, AccessKind::Read));
        let r2 = e.on_event(&acc(T0, rc, AccessKind::AtomicRmw));
        r1.or(r2)
    }

    #[test]
    fn fig8_refcount_false_positive_under_original_bus_lock() {
        let race = string_refcount_scenario(DetectorConfig::original());
        assert!(race.is_some(), "original Helgrind reports the M_grab write (Fig 9)");
        assert_eq!(race.unwrap().kind, AccessKind::AtomicRmw);
    }

    #[test]
    fn fig8_refcount_clean_under_hwlc() {
        assert!(
            string_refcount_scenario(DetectorConfig::hwlc()).is_none(),
            "HWLC removes the bus-lock false positive"
        );
    }

    #[test]
    fn hwlc_still_catches_plain_write_to_refcount() {
        // Mixing a plain write into the atomic protocol is a real race and
        // must survive the HWLC correction.
        let mut e = LocksetEngine::new(DetectorConfig::hwlc());
        let rc = 0x6100u64;
        e.on_event(&acc(T0, rc, AccessKind::Write));
        e.on_event(&create(T0, T1));
        e.on_event(&acc(T1, rc, AccessKind::AtomicRmw));
        let race = e.on_event(&acc(T0, rc, AccessKind::Write));
        assert!(race.is_some(), "plain write must still race under HWLC");
    }

    /// Destructor scenario: a shared object is accessed under a lock by two
    /// threads, then deleted by one of them outside the lock (the compiler-
    /// generated destructor writes the vptr without synchronisation).
    fn destructor_scenario(cfg: DetectorConfig, annotated: bool) -> Option<RaceInfo> {
        let mut e = LocksetEngine::new(cfg);
        let obj = 0x7000u64;
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        // Both workers access the object under lock 0.
        for &t in &[T1, T2] {
            e.on_event(&lock(t, 0));
            assert!(e.on_event(&acc(t, obj, AccessKind::Write)).is_none());
            e.on_event(&unlock(t, 0));
        }
        // T2 deletes: optional annotation, then the vptr write, no lock.
        if annotated {
            e.on_event(&Event::Client {
                tid: T2,
                req: ClientEv::HgDestruct { addr: obj, size: 16 },
                loc: L,
            });
        }
        e.on_event(&acc(T2, obj, AccessKind::Write))
    }

    #[test]
    fn destructor_vptr_write_is_false_positive_without_dr() {
        for cfg in [DetectorConfig::original(), DetectorConfig::hwlc()] {
            let race = destructor_scenario(cfg, true);
            assert!(race.is_some(), "without DR the dtor write warns even when annotated");
        }
        // And unannotated code warns under hwlc_dr too.
        assert!(destructor_scenario(DetectorConfig::hwlc_dr(), false).is_some());
    }

    #[test]
    fn destructor_annotation_suppresses_warning_under_dr() {
        assert!(destructor_scenario(DetectorConfig::hwlc_dr(), true).is_none());
    }

    #[test]
    fn other_thread_access_during_destruction_still_detected() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        let obj = 0x7100u64;
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&Event::Client {
            tid: T2,
            req: ClientEv::HgDestruct { addr: obj, size: 16 },
            loc: L,
        });
        assert!(e.on_event(&acc(T2, obj, AccessKind::Write)).is_none());
        // T1 touches the object mid-destruction: must warn.
        let race = e.on_event(&acc(T1, obj, AccessKind::Write));
        assert!(race.is_some(), "cross-thread access during destruction is a real race");
    }

    #[test]
    fn alloc_resets_shadow_state() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0x8000, AccessKind::Write));
        e.on_event(&acc(T2, 0x8000, AccessKind::Read));
        assert!(matches!(e.state_of(0x8000), VarState::SharedRead { .. }));
        e.on_event(&Event::Alloc { tid: T1, addr: 0x8000, size: 16, loc: L });
        assert_eq!(e.state_of(0x8000), VarState::Virgin);
    }

    #[test]
    fn rwlocks_ignored_when_not_tracked() {
        let mut cfg = DetectorConfig::original();
        cfg.thread_segments = true;
        let mut e = LocksetEngine::new(cfg);
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        let rw = |tid, mode| Event::Acquire {
            tid,
            sync: SyncId(5),
            kind: SyncKind::RwLock,
            mode,
            loc: L,
        };
        // Both writers hold the rwlock exclusively, but original Helgrind
        // does not intercept rwlocks → lockset empty → race.
        e.on_event(&rw(T1, AcqMode::Exclusive));
        e.on_event(&acc(T1, 0x9000, AccessKind::Write));
        e.on_event(&Event::Release { tid: T1, sync: SyncId(5), kind: SyncKind::RwLock, loc: L });
        e.on_event(&rw(T2, AcqMode::Exclusive));
        let race = e.on_event(&acc(T2, 0x9000, AccessKind::Write));
        assert!(race.is_some());
    }

    #[test]
    fn rwlock_write_mode_protects_when_tracked() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        let rw = |tid, mode| Event::Acquire {
            tid,
            sync: SyncId(5),
            kind: SyncKind::RwLock,
            mode,
            loc: L,
        };
        let rel = |tid| Event::Release { tid, sync: SyncId(5), kind: SyncKind::RwLock, loc: L };
        e.on_event(&rw(T1, AcqMode::Exclusive));
        assert!(e.on_event(&acc(T1, 0x9100, AccessKind::Write)).is_none());
        e.on_event(&rel(T1));
        e.on_event(&rw(T2, AcqMode::Exclusive));
        assert!(e.on_event(&acc(T2, 0x9100, AccessKind::Write)).is_none());
        e.on_event(&rel(T2));
        // Readers under shared mode: fine.
        e.on_event(&rw(T1, AcqMode::Shared));
        assert!(e.on_event(&acc(T1, 0x9100, AccessKind::Read)).is_none());
        e.on_event(&rel(T1));
    }

    #[test]
    fn rwlock_read_mode_does_not_license_writes() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        let rw = |tid, mode| Event::Acquire {
            tid,
            sync: SyncId(5),
            kind: SyncKind::RwLock,
            mode,
            loc: L,
        };
        let rel = |tid| Event::Release { tid, sync: SyncId(5), kind: SyncKind::RwLock, loc: L };
        // Writer-then-reader-who-writes: the reader's write holds no lock
        // in write mode, so the lockset intersection must empty out.
        e.on_event(&rw(T1, AcqMode::Exclusive));
        e.on_event(&acc(T1, 0x9200, AccessKind::Write));
        e.on_event(&rel(T1));
        e.on_event(&rw(T2, AcqMode::Shared));
        let race = e.on_event(&acc(T2, 0x9200, AccessKind::Write));
        assert!(race.is_some(), "writing under a read lock is a violation");
        e.on_event(&rel(T2));
    }

    #[test]
    fn delayed_lockset_initialisation_false_negative() {
        // §4.3: unlocked write first, locked write second → no warning in
        // this order (the lockset is initialised at the *second* access,
        // which holds a lock).
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        assert!(e.on_event(&acc(T1, 0xA000, AccessKind::Write)).is_none()); // unlocked
        e.on_event(&lock(T2, 0));
        let race = e.on_event(&acc(T2, 0xA000, AccessKind::Write));
        e.on_event(&unlock(T2, 0));
        assert!(race.is_none(), "the documented false negative of §4.3");

        // Reverse order: the same program with the other schedule warns.
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&lock(T2, 0));
        assert!(e.on_event(&acc(T2, 0xA000, AccessKind::Write)).is_none());
        e.on_event(&unlock(T2, 0));
        let race = e.on_event(&acc(T1, 0xA000, AccessKind::Write));
        assert!(race.is_some(), "other schedule exposes the race");
    }

    #[test]
    fn multi_granule_access_updates_every_granule() {
        let mut e = LocksetEngine::new(DetectorConfig::hwlc_dr());
        // 8-byte access straddling two granules.
        e.on_event(&Event::Access {
            tid: T0,
            addr: 0x1004,
            size: 8,
            kind: AccessKind::Write,
            loc: L,
        });
        assert!(matches!(e.state_of(0x1000), VarState::Exclusive { .. }));
        assert!(matches!(e.state_of(0x1008), VarState::Exclusive { .. }));
        assert_eq!(e.shadowed_granules(), 2);
    }
}
