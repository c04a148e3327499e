//! Happens-before race detection in the DJIT tradition (§2.2 of the paper),
//! with FastTrack-style adaptive epochs for the common single-reader /
//! single-writer case.
//!
//! Unlike the lockset algorithm, this engine only reports *apparent* races:
//! two accesses, at least one a write, unordered by the observed
//! happens-before relation. It therefore reports a subset of the lockset
//! warnings and misses races that a different schedule would expose — the
//! trade-off the paper describes when comparing Eraser and DJIT.
//!
//! Happens-before edges observed:
//! * thread create / join;
//! * mutex release → subsequent acquire (and rwlock, conservatively in both
//!   modes: POSIX rwlock operations do synchronise);
//! * semaphore post → wait (if `cfg.sem_hb`);
//! * bounded-queue put → matching get (if `cfg.queue_hb` — the paper's §5
//!   "higher level synchronization" extension, E12);
//! * condvar signal → wake (if `cfg.condvar_hb`; off by default since the
//!   paper notes this assumption is unsound in general);
//! * `LOCK`-prefixed RMW as atomic acquire/release on its own address (if
//!   `cfg.atomic_sync`), the way modern detectors treat `std::atomic`.

use crate::config::DetectorConfig;
use crate::shadowmem::PageTable;
use crate::vc::{Epoch, SmallVc, VectorClock};
use std::fmt;
use vexec::event::{AccessKind, ClientEv, Event, SyncId, ThreadId};
use vexec::ir::{SrcLoc, SyncKind};
use vexec::util::FxHashMap;

/// Read history of a granule: the adaptive FastTrack lattice
/// (`None → Single → Shared`, demoted back by the next write), plus the
/// reference full-VC representation the equivalence gates run against.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ReadState {
    None,
    /// All relevant reads collapse to one epoch (the common case: a
    /// single thread, or each reader ordered after the previous one).
    Single(Epoch),
    /// Genuinely concurrent readers: promoted to a read-share clock,
    /// inline in the shadow slot (no allocation for tids below
    /// [`crate::vc::SMALL_VC_LANES`]).
    Shared(SmallVc),
    /// `cfg.hb_reference`: every read keeps its component in a full
    /// clock; never constructed by the adaptive path.
    Ref(Box<RefReads>),
}

/// Reference-mode read state. `vc` is the ground truth the verdict is
/// computed from; `last`/`chain` mirror what the adaptive lattice would
/// hold so the reported [`Conflict`] also comes out identical.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RefReads {
    vc: VectorClock,
    /// Most recent read epoch (the adaptive `Single` survivor while
    /// `chain` holds).
    last: Epoch,
    /// True while every read so far satisfied the adaptive collapse
    /// condition (same thread as, or visible to, the next reader) — i.e.
    /// while the adaptive engine would still be in `Single` state.
    chain: bool,
}

#[derive(Clone, Debug)]
struct HbVar {
    /// Epoch of the last write. `Epoch::ZERO` means "never written" —
    /// real epochs have `clock >= 1`, and `ZERO` is visible to every
    /// clock, so the virgin case needs no separate branch on the hot
    /// path (and no `Option` tag in the shadow slot).
    last_write: Epoch,
    reads: ReadState,
    reported: bool,
}

impl Default for HbVar {
    fn default() -> Self {
        HbVar { last_write: Epoch::ZERO, reads: ReadState::None, reported: false }
    }
}

/// Adaptive-representation counters, surfaced by `--stats` (stderr).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Accesses fully served by the O(1) same-epoch fast paths (shadow
    /// state already holds exactly the current epoch; no transition).
    pub epoch_hits: u64,
    /// Single-reader epochs promoted to a read-share clock because a
    /// second thread read concurrently.
    pub promotions: u64,
    /// Read-share states demoted back to a plain write epoch by the next
    /// write.
    pub demotions: u64,
    /// Accesses that did full vector-clock work on the shadow state
    /// (read-share compares/updates; every read in reference mode).
    pub vc_fallbacks: u64,
}

/// What a racing access conflicted with. Plain facts: `Display` renders
/// the report text ("unordered prior write by thread 2 (epoch 5)"), and a
/// detector asks for it only for a location it is about to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Conflict {
    /// The granule's last write, not visible to the accessing thread.
    PriorWrite { tid: u32, clock: u32 },
    /// The one read epoch the adaptive lattice kept, not visible to the
    /// writing thread.
    PriorRead { tid: u32 },
    /// Concurrent reads (a read-share clock) the writing thread does not
    /// all see.
    PriorReads,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Conflict::PriorWrite { tid, clock } => {
                write!(f, "unordered prior write by thread {tid} (epoch {clock})")
            }
            Conflict::PriorRead { tid } => write!(f, "unordered prior read by thread {tid}"),
            Conflict::PriorReads => f.write_str("unordered prior reads"),
        }
    }
}

/// A race found by the happens-before engine.
#[derive(Clone, Copy, Debug)]
pub struct HbRaceInfo {
    pub tid: ThreadId,
    pub addr: u64,
    pub kind: AccessKind,
    pub loc: SrcLoc,
    /// What the access conflicted with.
    pub conflict: Conflict,
}

/// The happens-before engine.
#[derive(Debug)]
pub struct HbEngine {
    cfg: DetectorConfig,
    threads: Vec<VectorClock>,
    locks: FxHashMap<SyncId, VectorClock>,
    sems: FxHashMap<SyncId, VectorClock>,
    condvars: FxHashMap<SyncId, VectorClock>,
    queue_msgs: FxHashMap<(SyncId, u64), VectorClock>,
    atomics: FxHashMap<u64, VectorClock>,
    shadow: PageTable<HbVar>,
    report_once: bool,
    pub accesses: u64,
    /// Granules never tracked because the shadow budget was exhausted.
    shadow_overflow: u64,
    epoch_stats: EpochStats,
}

impl HbEngine {
    pub fn new(cfg: DetectorConfig) -> Self {
        assert!(cfg.granule.is_power_of_two());
        HbEngine {
            cfg,
            threads: Vec::new(),
            locks: FxHashMap::default(),
            sems: FxHashMap::default(),
            condvars: FxHashMap::default(),
            queue_msgs: FxHashMap::default(),
            atomics: FxHashMap::default(),
            shadow: PageTable::new(cfg.granule),
            report_once: true,
            accesses: 0,
            shadow_overflow: 0,
            epoch_stats: EpochStats::default(),
        }
    }

    pub fn set_report_once(&mut self, v: bool) {
        self.report_once = v;
    }

    /// Initialise `tid`'s clock if needed. An associated function over the
    /// raw field so callers can keep borrowing other fields (`locks`,
    /// `shadow`, ...) — the hot paths join clocks through disjoint field
    /// borrows instead of cloning.
    fn ensure_thread(threads: &mut Vec<VectorClock>, tid: ThreadId) {
        let idx = tid.index();
        if threads.len() <= idx {
            threads.resize_with(idx + 1, VectorClock::new);
        }
        if threads[idx].get(idx) == 0 {
            threads[idx].set(idx, 1);
        }
    }

    fn vc_mut(&mut self, tid: ThreadId) -> &mut VectorClock {
        Self::ensure_thread(&mut self.threads, tid);
        &mut self.threads[tid.index()]
    }

    fn epoch(&mut self, tid: ThreadId) -> Epoch {
        let idx = tid.index();
        let vc = self.vc_mut(tid);
        Epoch { tid: tid.0, clock: vc.get(idx) }
    }

    /// Feed one event; returns race info if it exposes an HB violation.
    pub fn on_event(&mut self, ev: &Event) -> Option<HbRaceInfo> {
        match *ev {
            Event::Access { tid, addr, size, kind, loc } => {
                self.on_access(tid, addr, size, kind, loc)
            }
            Event::ThreadCreate { parent, child, .. } => {
                let pvc = self.vc_mut(parent).clone();
                let cvc = self.vc_mut(child);
                cvc.join(&pvc);
                let p = parent.index();
                self.vc_mut(parent).inc(p);
                None
            }
            Event::ThreadJoin { joiner, joined, .. } => {
                let jvc = self.vc_mut(joined).clone();
                self.vc_mut(joiner).join(&jvc);
                None
            }
            Event::Acquire { tid, sync, kind, .. } => {
                if kind == SyncKind::RwLock && !self.cfg.track_rwlocks {
                    return None;
                }
                // Disjoint-field borrows (`locks` read, `threads` written):
                // no clock is cloned on the lock hot path.
                Self::ensure_thread(&mut self.threads, tid);
                if let Some(lvc) = self.locks.get(&sync) {
                    self.threads[tid.index()].join(lvc);
                }
                None
            }
            Event::Release { tid, sync, kind, .. } => {
                if kind == SyncKind::RwLock && !self.cfg.track_rwlocks {
                    return None;
                }
                Self::ensure_thread(&mut self.threads, tid);
                let idx = tid.index();
                self.locks.entry(sync).or_default().join(&self.threads[idx]);
                self.threads[idx].inc(idx);
                None
            }
            Event::SemPost { tid, sync, .. } => {
                if self.cfg.sem_hb {
                    Self::ensure_thread(&mut self.threads, tid);
                    let idx = tid.index();
                    self.sems.entry(sync).or_default().join(&self.threads[idx]);
                    self.threads[idx].inc(idx);
                }
                None
            }
            Event::SemAcquired { tid, sync, .. } => {
                if self.cfg.sem_hb {
                    Self::ensure_thread(&mut self.threads, tid);
                    if let Some(svc) = self.sems.get(&sync) {
                        self.threads[tid.index()].join(svc);
                    }
                }
                None
            }
            Event::QueuePut { tid, sync, token, .. } => {
                if self.cfg.queue_hb {
                    // The message carries a snapshot, so this clone is the
                    // data structure, not an artefact of borrowing.
                    let idx = tid.index();
                    Self::ensure_thread(&mut self.threads, tid);
                    self.queue_msgs.insert((sync, token), self.threads[idx].clone());
                    self.threads[idx].inc(idx);
                }
                None
            }
            Event::QueueGot { tid, sync, token, .. } => {
                if self.cfg.queue_hb {
                    if let Some(mvc) = self.queue_msgs.remove(&(sync, token)) {
                        self.vc_mut(tid).join(&mvc);
                    }
                }
                None
            }
            Event::CondSignal { tid, sync, .. } => {
                if self.cfg.condvar_hb {
                    Self::ensure_thread(&mut self.threads, tid);
                    let idx = tid.index();
                    self.condvars.entry(sync).or_default().join(&self.threads[idx]);
                    self.threads[idx].inc(idx);
                }
                None
            }
            Event::CondWake { tid, sync, .. } => {
                if self.cfg.condvar_hb {
                    Self::ensure_thread(&mut self.threads, tid);
                    if let Some(cvc) = self.condvars.get(&sync) {
                        self.threads[tid.index()].join(cvc);
                    }
                }
                None
            }
            Event::Alloc { addr, size, .. } => {
                self.reset_range(addr, size);
                None
            }
            Event::Client { req: ClientEv::HgCleanMemory { addr, size }, .. } => {
                self.reset_range(addr, size);
                None
            }
            _ => None,
        }
    }

    fn reset_range(&mut self, addr: u64, size: u64) {
        // Shadow state resets page-granularly; the (sparse) atomic clocks
        // only need a walk when any exist at all.
        self.shadow.reset_range(addr, size);
        if !self.atomics.is_empty() {
            let g = self.cfg.granule;
            let start = addr & !(g - 1);
            let end = (addr + size.max(1) - 1) & !(g - 1);
            let mut a = start;
            while a <= end {
                self.atomics.remove(&a);
                a += g;
            }
        }
    }

    fn on_access(
        &mut self,
        tid: ThreadId,
        addr: u64,
        size: u8,
        kind: AccessKind,
        loc: SrcLoc,
    ) -> Option<HbRaceInfo> {
        self.accesses += 1;
        let g_size = self.cfg.granule;
        let start = addr & !(g_size - 1);
        let end = (addr + size.max(1) as u64 - 1) & !(g_size - 1);

        // Atomic RMW: synchronise through the per-granule atomic clock
        // *before* the race check, so paired atomics are ordered.
        if kind == AccessKind::AtomicRmw && self.cfg.atomic_sync {
            Self::ensure_thread(&mut self.threads, tid);
            let mut a = start;
            while a <= end {
                if let Some(avc) = self.atomics.get(&a) {
                    self.threads[tid.index()].join(avc);
                }
                a += g_size;
            }
        }

        // `cur` (also initialising the thread's clock) is taken once; the
        // loop then reads the clock through a shared borrow of `threads`
        // while mutating `shadow` — disjoint fields, so the per-access
        // vector-clock clone the old code paid is gone. Representation
        // counters accumulate in locals for the same reason and flush
        // after the loop.
        let cur = self.epoch(tid);
        let tidx = tid.index();
        let is_write = kind.is_write();
        let reference = self.cfg.hb_reference;
        let mut race = None;
        let (mut hits, mut promotions, mut demotions, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
        let mut a = start;
        while a <= end {
            // Budget degradation: once the shadow map is full, untracked
            // granules stay untracked (coverage shrinks, nothing is
            // fabricated); tracked ones keep updating.
            if self.shadow.len() >= self.cfg.budget.max_shadow_words && !self.shadow.contains(a) {
                self.shadow_overflow += 1;
                a += g_size;
                continue;
            }
            let tvc = &self.threads[tidx];
            let var = self.shadow.get_or_insert_default(a);

            // FastTrack same-epoch write rule: the granule's whole shadow
            // state is already exactly `cur` (this thread wrote in this
            // epoch, nothing read since) — re-writing cannot conflict and
            // moves nothing.
            if is_write && var.last_write == cur && matches!(var.reads, ReadState::None) {
                hits += 1;
                a += g_size;
                continue;
            }

            let mut conflict: Option<Conflict> = None;
            // Write-X conflict: the previous write must be visible.
            // `Epoch::ZERO` (never written) is visible to every clock, so
            // the virgin case needs no separate branch.
            let w = var.last_write;
            if !w.visible_to(tvc) {
                conflict = Some(Conflict::PriorWrite { tid: w.tid, clock: w.clock });
            }
            // Read-write conflict: a write must also see all prior reads.
            if is_write && conflict.is_none() {
                match &var.reads {
                    ReadState::None => {}
                    ReadState::Single(e) => {
                        if !e.visible_to(tvc) {
                            conflict = Some(Conflict::PriorRead { tid: e.tid });
                        }
                    }
                    ReadState::Shared(svc) => {
                        fallbacks += 1;
                        if !svc.leq(tvc) {
                            conflict = Some(Conflict::PriorReads);
                        }
                    }
                    ReadState::Ref(r) => {
                        fallbacks += 1;
                        if !r.vc.leq(tvc) {
                            // While the collapse chain held, the adaptive
                            // lattice would still be `Single(last)` and the
                            // verdicts agree by visibility transitivity;
                            // after a break it would be `Shared`.
                            conflict = Some(if r.chain {
                                Conflict::PriorRead { tid: r.last.tid }
                            } else {
                                Conflict::PriorReads
                            });
                        }
                    }
                }
            }
            if let Some(c) = conflict {
                if !var.reported {
                    if self.report_once {
                        var.reported = true;
                    }
                    if race.is_none() {
                        race = Some(HbRaceInfo { tid, addr: a.max(addr), kind, loc, conflict: c });
                    }
                }
            }
            // Shadow transition.
            if is_write {
                // Demotion: every write collapses the read state back to a
                // plain write epoch (the lattice's downward step).
                if matches!(var.reads, ReadState::Shared(_)) {
                    demotions += 1;
                }
                var.last_write = cur;
                var.reads = ReadState::None;
            } else if reference {
                // Reference mode: the verdict clock keeps every reader's
                // component; `last`/`chain` shadow the adaptive lattice.
                fallbacks += 1;
                let mut r = match std::mem::replace(&mut var.reads, ReadState::None) {
                    ReadState::Ref(r) => r,
                    _ => Box::new(RefReads {
                        vc: VectorClock::new(),
                        last: Epoch::ZERO,
                        chain: true,
                    }),
                };
                if r.chain {
                    r.chain = r.last.tid == cur.tid || r.last.visible_to(tvc);
                }
                r.vc.set(cur.tid as usize, cur.clock);
                r.last = cur;
                var.reads = ReadState::Ref(r);
            } else if matches!(&var.reads, ReadState::Single(e) if *e == cur) {
                // FastTrack same-epoch read rule: the state already holds
                // exactly this epoch; only the O(1) write-visibility check
                // above was needed.
                hits += 1;
            } else {
                var.reads = match std::mem::replace(&mut var.reads, ReadState::None) {
                    ReadState::None => ReadState::Single(cur),
                    ReadState::Single(e) => {
                        if e.tid == cur.tid || e.visible_to(tvc) {
                            ReadState::Single(cur)
                        } else {
                            // Promotion: a second thread read concurrently.
                            promotions += 1;
                            ReadState::Shared(SmallVc::pair(e, cur))
                        }
                    }
                    ReadState::Shared(mut svc) => {
                        fallbacks += 1;
                        svc.set(cur.tid as usize, cur.clock);
                        ReadState::Shared(svc)
                    }
                    // `cfg.hb_reference` is fixed at construction, so the
                    // adaptive path never sees reference state.
                    r @ ReadState::Ref(_) => r,
                };
            }
            a += g_size;
        }
        self.epoch_stats.epoch_hits += hits;
        self.epoch_stats.promotions += promotions;
        self.epoch_stats.demotions += demotions;
        self.epoch_stats.vc_fallbacks += fallbacks;

        // Publish the atomic clock after the access. Disjoint-field
        // borrows (`threads` read, `atomics` written) plus `clone_from`
        // keep the steady state allocation-free: a republish overwrites
        // the existing clock's buffer in place instead of dropping it
        // and cloning a fresh one.
        if kind == AccessKind::AtomicRmw && self.cfg.atomic_sync {
            let tvc = &self.threads[tidx];
            let mut a = start;
            while a <= end {
                self.atomics
                    .entry(a)
                    .and_modify(|avc| avc.clone_from(tvc))
                    .or_insert_with(|| tvc.clone());
                a += g_size;
            }
            self.threads[tidx].inc(tidx);
        }
        race
    }

    /// Number of shadowed granules (stats).
    pub fn shadowed_granules(&self) -> usize {
        self.shadow.len()
    }

    /// High-water mark of live shadow granules (see
    /// [`crate::shadowmem::PageTable::peak_len`]).
    pub fn peak_shadowed_granules(&self) -> usize {
        self.shadow.peak_len()
    }

    /// True if the shadow budget degraded this engine's coverage.
    pub fn truncated(&self) -> bool {
        self.shadow_overflow > 0
    }

    /// Granules dropped by the shadow budget.
    pub fn shadow_overflow(&self) -> u64 {
        self.shadow_overflow
    }

    /// Adaptive-representation counters (`--stats`).
    pub fn epoch_stats(&self) -> EpochStats {
        self.epoch_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            mode: vexec::event::AcqMode::Exclusive,
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
    fn fork_handoff_is_ordered() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        assert!(e.on_event(&acc(T0, 0x1000, AccessKind::Write)).is_none());
        e.on_event(&create(T0, T1));
        assert!(e.on_event(&acc(T1, 0x1000, AccessKind::Write)).is_none());
        e.on_event(&Event::ThreadJoin { joiner: T0, joined: T1, loc: L });
        assert!(e.on_event(&acc(T0, 0x1000, AccessKind::Read)).is_none());
    }

    #[test]
    fn unordered_write_write_is_race() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        assert!(e.on_event(&acc(T1, 0x1000, AccessKind::Write)).is_none());
        let race = e.on_event(&acc(T2, 0x1000, AccessKind::Write));
        let conflict = race.expect("unordered writes race").conflict;
        assert_eq!(conflict, Conflict::PriorWrite { tid: 1, clock: 1 });
        assert_eq!(conflict.to_string(), "unordered prior write by thread 1 (epoch 1)");
    }

    #[test]
    fn mutex_orders_critical_sections() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&lock(T1, 0));
        assert!(e.on_event(&acc(T1, 0x2000, AccessKind::Write)).is_none());
        e.on_event(&unlock(T1, 0));
        e.on_event(&lock(T2, 0));
        assert!(e.on_event(&acc(T2, 0x2000, AccessKind::Write)).is_none());
        e.on_event(&unlock(T2, 0));
    }

    #[test]
    fn djit_misses_race_hidden_by_coincidental_lock_order() {
        // §2.2 / §4.3: DJIT only sees the observed order. If T1's unlocked
        // write is ordered before T2's locked write by a coincidental
        // happens-before chain (here: T1 releases some unrelated lock that
        // T2 later acquires), no race is reported although the locking
        // discipline is broken — the lockset algorithm would flag this.
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0x3000, AccessKind::Write)); // unlocked write
        e.on_event(&lock(T1, 9)); // unrelated lock creates an hb chain
        e.on_event(&unlock(T1, 9));
        e.on_event(&lock(T2, 9));
        e.on_event(&unlock(T2, 9));
        e.on_event(&lock(T2, 0));
        let race = e.on_event(&acc(T2, 0x3000, AccessKind::Write));
        e.on_event(&unlock(T2, 0));
        assert!(race.is_none(), "DJIT is schedule-dependent and misses this");
    }

    #[test]
    fn read_write_race_detected() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        assert!(e.on_event(&acc(T1, 0x4000, AccessKind::Read)).is_none());
        let race = e.on_event(&acc(T2, 0x4000, AccessKind::Write));
        let conflict = race.expect("write after unordered read races").conflict;
        assert_eq!(conflict.to_string(), "unordered prior read by thread 1");
    }

    #[test]
    fn concurrent_reads_are_fine_and_promote_to_shared() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&acc(T0, 0x5000, AccessKind::Write));
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        // Both children inherited the parent write via create.
        assert!(e.on_event(&acc(T1, 0x5000, AccessKind::Read)).is_none());
        assert!(e.on_event(&acc(T2, 0x5000, AccessKind::Read)).is_none());
        // A later unordered write conflicts with both reads.
        let race = e.on_event(&acc(T0, 0x5000, AccessKind::Write));
        let conflict = race.expect("write after concurrent reads races").conflict;
        assert_eq!(conflict.to_string(), "unordered prior reads");
    }

    #[test]
    fn atomic_rmw_pairs_are_ordered_when_atomic_sync() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        assert!(e.on_event(&acc(T1, 0x6000, AccessKind::AtomicRmw)).is_none());
        assert!(e.on_event(&acc(T2, 0x6000, AccessKind::AtomicRmw)).is_none());
        assert!(e.on_event(&acc(T1, 0x6000, AccessKind::AtomicRmw)).is_none());
    }

    #[test]
    fn atomic_rmw_flagged_without_atomic_sync() {
        let mut cfg = DetectorConfig::djit();
        cfg.atomic_sync = false;
        let mut e = HbEngine::new(cfg);
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        assert!(e.on_event(&acc(T1, 0x6000, AccessKind::AtomicRmw)).is_none());
        assert!(e.on_event(&acc(T2, 0x6000, AccessKind::AtomicRmw)).is_some());
    }

    #[test]
    fn queue_handoff_ordered_only_with_queue_hb() {
        let put = Event::QueuePut { tid: T1, sync: SyncId(3), token: 7, loc: L };
        let got = Event::QueueGot { tid: T2, sync: SyncId(3), token: 7, loc: L };
        // Without queue_hb: race.
        let mut e = HbEngine::new(DetectorConfig::hybrid());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0x7000, AccessKind::Write));
        e.on_event(&put);
        e.on_event(&got);
        assert!(e.on_event(&acc(T2, 0x7000, AccessKind::Write)).is_some());
        // With queue_hb: ordered (E12).
        let mut e = HbEngine::new(DetectorConfig::hybrid_queue_hb());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0x7000, AccessKind::Write));
        e.on_event(&put);
        e.on_event(&got);
        assert!(e.on_event(&acc(T2, 0x7000, AccessKind::Write)).is_none());
    }

    #[test]
    fn queue_tokens_pair_individually() {
        // Two messages: consumer of message B is not ordered after the
        // producer's post-B writes, only after pre-B ones.
        let mut e = HbEngine::new(DetectorConfig::hybrid_queue_hb());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&Event::QueuePut { tid: T1, sync: SyncId(3), token: 0, loc: L });
        e.on_event(&acc(T1, 0x7100, AccessKind::Write)); // after put 0
        e.on_event(&Event::QueueGot { tid: T2, sync: SyncId(3), token: 0, loc: L });
        // T2 got message 0 only — T1's later write is unordered.
        assert!(e.on_event(&acc(T2, 0x7100, AccessKind::Write)).is_some());
    }

    #[test]
    fn semaphore_post_wait_orders() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0x8000, AccessKind::Write));
        e.on_event(&Event::SemPost { tid: T1, sync: SyncId(4), loc: L });
        e.on_event(&Event::SemAcquired { tid: T2, sync: SyncId(4), loc: L });
        assert!(e.on_event(&acc(T2, 0x8000, AccessKind::Write)).is_none());
    }

    #[test]
    fn alloc_resets_hb_state() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0x9000, AccessKind::Write));
        e.on_event(&Event::Alloc { tid: T2, addr: 0x9000, size: 8, loc: L });
        assert!(e.on_event(&acc(T2, 0x9000, AccessKind::Write)).is_none());
    }

    #[test]
    fn report_once_latches_per_granule() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0xA000, AccessKind::Write));
        assert!(e.on_event(&acc(T2, 0xA000, AccessKind::Write)).is_some());
        assert!(e.on_event(&acc(T1, 0xA000, AccessKind::Write)).is_none());
    }

    #[test]
    fn epoch_stats_count_hits_promotions_demotions() {
        let mut e = HbEngine::new(DetectorConfig::djit());
        e.on_event(&acc(T0, 0x5000, AccessKind::Write));
        // Same epoch, nothing read since: the O(1) write fast path.
        e.on_event(&acc(T0, 0x5000, AccessKind::Write));
        e.on_event(&create(T0, T1));
        e.on_event(&create(T0, T2));
        e.on_event(&acc(T1, 0x5000, AccessKind::Read));
        // Same epoch re-read: the O(1) read fast path.
        e.on_event(&acc(T1, 0x5000, AccessKind::Read));
        // Concurrent second reader: promotion to a read-share clock.
        e.on_event(&acc(T2, 0x5000, AccessKind::Read));
        // Next write demotes back to an epoch (and races, which is fine).
        e.on_event(&acc(T1, 0x5000, AccessKind::Write));
        let s = e.epoch_stats();
        assert_eq!(s.epoch_hits, 2);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 1);
        assert_eq!(s.vc_fallbacks, 1, "the demoting write compared the read-share clock");
    }

    fn assert_modes_agree(evs: &[Event]) {
        let cfg = DetectorConfig::djit();
        let rcfg = DetectorConfig { hb_reference: true, ..cfg };
        let mut adaptive = HbEngine::new(cfg);
        let mut reference = HbEngine::new(rcfg);
        for ev in evs {
            let a = adaptive.on_event(ev).map(|x| x.conflict);
            let r = reference.on_event(ev).map(|x| x.conflict);
            assert_eq!(a, r, "modes diverge on {ev:?}");
        }
        assert_eq!(adaptive.shadowed_granules(), reference.shadowed_granules());
        assert_eq!(adaptive.peak_shadowed_granules(), reference.peak_shadowed_granules());
    }

    #[test]
    fn reference_mode_matches_adaptive_reports() {
        // Chained readers collapse to a single epoch; the unordered write
        // then names the chain survivor in both modes.
        assert_modes_agree(&[
            create(T0, T1),
            create(T0, T2),
            acc(T1, 0x5000, AccessKind::Read),
            lock(T1, 0),
            unlock(T1, 0),
            lock(T2, 0),
            acc(T2, 0x5000, AccessKind::Read),
            unlock(T2, 0),
            acc(T0, 0x5000, AccessKind::Write),
        ]);
        // Concurrent readers promote; the write then sees "prior reads".
        assert_modes_agree(&[
            acc(T0, 0x6000, AccessKind::Write),
            create(T0, T1),
            create(T0, T2),
            acc(T1, 0x6000, AccessKind::Read),
            acc(T2, 0x6000, AccessKind::Read),
            acc(T0, 0x6000, AccessKind::Write),
        ]);
        // Unordered write-write names the prior write's epoch identically.
        assert_modes_agree(&[
            create(T0, T1),
            create(T0, T2),
            acc(T1, 0x7000, AccessKind::Write),
            acc(T2, 0x7000, AccessKind::Write),
            acc(T2, 0x7000, AccessKind::Read),
        ]);
    }

    #[test]
    fn reference_mode_counts_every_read_as_fallback() {
        let cfg = DetectorConfig { hb_reference: true, ..DetectorConfig::djit() };
        let mut e = HbEngine::new(cfg);
        e.on_event(&create(T0, T1));
        e.on_event(&acc(T1, 0x5000, AccessKind::Read));
        e.on_event(&acc(T1, 0x5000, AccessKind::Read));
        let s = e.epoch_stats();
        assert_eq!(s.vc_fallbacks, 2);
        assert_eq!(s.promotions, 0);
    }
}
