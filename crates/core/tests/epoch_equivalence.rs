//! Property-based equivalence of the adaptive FastTrack epoch lattice
//! against the reference full-vector-clock read state (`hb_reference`).
//!
//! The contract the refactor rests on: for *any* event soup — ordered,
//! racy, or nonsense — the adaptive engine and the reference engine
//! produce the same race verdict for every event, with the same conflict
//! (its text is a one-to-one rendering of the value), and track the same
//! shadow-memory footprint. Anything short of that would leak the
//! representation change into reports.

use helgrind_core::{DetectorConfig, HbEngine};
use proptest::prelude::*;
use vexec::event::{AccessKind, AcqMode, Event, SyncId, ThreadId};
use vexec::ir::{SrcLoc, SyncKind};

const L: SrcLoc = SrcLoc::UNKNOWN;

/// One step of an arbitrary concurrent program. Addresses index a small
/// pool so collisions (the interesting case) are common; mutexes index a
/// pool of two so some accesses are ordered and some are not.
#[derive(Clone, Debug)]
enum Step {
    Access { tid: u32, slot: u8, kind: u8 },
    Acquire { tid: u32, mutex: u8 },
    Release { tid: u32, mutex: u8 },
}

fn step_strategy(threads: u32) -> impl Strategy<Value = Step> {
    // `op` folds the access/acquire/release choice into one tuple draw;
    // 0..10 keeps accesses dominant (6/10) so granule collisions — the
    // interesting case — stay common.
    (1..=threads, 0u8..6, 0u8..10).prop_map(|(tid, slot, op)| match op {
        0..=5 => Step::Access { tid, slot, kind: op % 3 },
        6 | 7 => Step::Acquire { tid, mutex: slot % 2 },
        _ => Step::Release { tid, mutex: slot % 2 },
    })
}

fn events(steps: &[Step], threads: u32) -> Vec<Event> {
    let mut evs = Vec::new();
    for t in 1..=threads {
        evs.push(Event::ThreadCreate { parent: ThreadId(0), child: ThreadId(t), loc: L });
    }
    // Track which thread holds which mutex so the stream stays legal for
    // the engine (acquire when free, release only when held by you);
    // everything else — including every racy access pattern — is fair game.
    let mut holder = [0u32; 2];
    for s in steps {
        match *s {
            Step::Access { tid, slot, kind } => {
                let kind = match kind {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::AtomicRmw,
                };
                let addr = 0x3000 + slot as u64 * 8;
                evs.push(Event::Access { tid: ThreadId(tid), addr, size: 8, kind, loc: L });
            }
            Step::Acquire { tid, mutex } => {
                if holder[mutex as usize] == 0 {
                    holder[mutex as usize] = tid;
                    evs.push(Event::Acquire {
                        tid: ThreadId(tid),
                        sync: SyncId(mutex as u32),
                        kind: SyncKind::Mutex,
                        mode: AcqMode::Exclusive,
                        loc: L,
                    });
                }
            }
            Step::Release { tid, mutex } => {
                if holder[mutex as usize] == tid {
                    holder[mutex as usize] = 0;
                    evs.push(Event::Release {
                        tid: ThreadId(tid),
                        sync: SyncId(mutex as u32),
                        kind: SyncKind::Mutex,
                        loc: L,
                    });
                }
            }
        }
    }
    evs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Adaptive ≡ reference on arbitrary event soups: per-event race
    /// verdicts and conflicts match exactly, as do the shadowed and peak
    /// granule counts.
    #[test]
    fn adaptive_matches_reference_on_event_soups(
        steps in prop::collection::vec(step_strategy(4), 1..120),
        queue_hb in any::<bool>(),
        atomic_sync in any::<bool>(),
    ) {
        let base = DetectorConfig { queue_hb, atomic_sync, ..DetectorConfig::djit() };
        let mut adaptive = HbEngine::new(base);
        let mut reference = HbEngine::new(DetectorConfig { hb_reference: true, ..base });
        for (i, ev) in events(&steps, 4).iter().enumerate() {
            let a = adaptive.on_event(ev);
            let r = reference.on_event(ev);
            prop_assert_eq!(
                a.as_ref().map(|x| (x.tid, x.addr, x.kind, x.conflict)),
                r.as_ref().map(|x| (x.tid, x.addr, x.kind, x.conflict)),
                "event {} diverged: {:?}", i, ev
            );
        }
        prop_assert_eq!(adaptive.shadowed_granules(), reference.shadowed_granules());
        prop_assert_eq!(adaptive.peak_shadowed_granules(), reference.peak_shadowed_granules());
    }

    /// Same property under a tight shadow budget: the overflow cut-off
    /// must trip at the same granule in both representations.
    #[test]
    fn adaptive_matches_reference_under_budget(
        steps in prop::collection::vec(step_strategy(3), 1..80),
        max_granules in 1usize..8,
    ) {
        let mut base = DetectorConfig::djit();
        base.budget.max_shadow_words = max_granules;
        let mut adaptive = HbEngine::new(base);
        let mut reference = HbEngine::new(DetectorConfig { hb_reference: true, ..base });
        for ev in events(&steps, 3) {
            let a = adaptive.on_event(&ev);
            let r = reference.on_event(&ev);
            prop_assert_eq!(
                a.as_ref().map(|x| (x.addr, x.conflict)),
                r.as_ref().map(|x| (x.addr, x.conflict))
            );
        }
        prop_assert_eq!(adaptive.shadow_overflow(), reference.shadow_overflow());
        prop_assert_eq!(adaptive.shadowed_granules(), reference.shadowed_granules());
    }
}
