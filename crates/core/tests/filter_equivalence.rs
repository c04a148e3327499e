//! The redundant-access filter is report-invisible, property-tested.
//!
//! The filter ([`FilterCache`]) may only elide an access that is an *exact
//! repeat* — same granule, thread, kind, and source location — within the
//! same sync epoch. These properties pin that contract to the detector
//! state machines:
//!
//! * **engine-level**: an arbitrary event soup (mixed-thread accesses,
//!   lock/unlock, alloc/free, straddling sizes, three source locations)
//!   produces the *same race sequence* — including the `prev_state` /
//!   `prev_access` metadata that ends up verbatim in rendered reports —
//!   whether the engines consume the raw stream or the filtered one. All
//!   six detector configurations are covered across the two primitive
//!   engines (lockset and happens-before).
//! * **program-level**: an arbitrary small guest program run under an
//!   arbitrary fault plan and a seeded random schedule yields byte-equal
//!   termination + rendered reports with [`FilterTool`] wrapped around
//!   the detector under each of its three engine sets.
//! * **free → realloc**: recycling an address range must invalidate filter
//!   slots, or stale "block alloc'd by" notes would leak into reports.

use helgrind_core::{AnyDetector, DetectorConfig, HbEngine, LocksetEngine, SuppressionSet};
use proptest::prelude::*;
use vexec::event::{AccessKind, AcqMode, Event, SyncId, ThreadId};
use vexec::filter::{FilterCache, FilterTool};
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Expr, SrcLoc, SyncKind};
use vexec::sched::SeededRandom;
use vexec::util::Symbol;
use vexec::vm::{run_flat, VmOptions};
use vexec::FaultPlan;

const THREADS: u32 = 3;
const BASE: u64 = 0x1000;

fn loc(sel: u8) -> SrcLoc {
    SrcLoc { file: Symbol(1), line: 10 * (1 + u32::from(sel % 3)), func: Symbol(2) }
}

/// One step of the event soup. Lowered against a tiny legality model so
/// the stream stays well-formed (no unlock-without-lock, no double free).
#[derive(Clone, Debug)]
enum Op {
    /// `off` ∈ 0..2 shifts the access by 4 bytes so size-8 accesses
    /// straddle two granules.
    Access {
        tid: u32,
        slot: u8,
        off: u8,
        size_sel: u8,
        kind_sel: u8,
        loc_sel: u8,
    },
    Lock {
        tid: u32,
        m: u8,
    },
    Unlock {
        tid: u32,
        m: u8,
    },
    Alloc {
        tid: u32,
        region: u8,
    },
    Free {
        tid: u32,
        region: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` is unweighted; listing the access arm three
    // times biases the soup toward memory traffic, which is what the
    // filter acts on.
    let access = || {
        (1..=THREADS, 0u8..6, 0u8..2, 0u8..3, 0u8..3, 0u8..3).prop_map(
            |(tid, slot, off, size_sel, kind_sel, loc_sel)| Op::Access {
                tid,
                slot,
                off,
                size_sel,
                kind_sel,
                loc_sel,
            },
        )
    };
    prop_oneof![
        access(),
        access(),
        access(),
        (1..=THREADS, 0u8..2).prop_map(|(tid, m)| Op::Lock { tid, m }),
        (1..=THREADS, 0u8..2).prop_map(|(tid, m)| Op::Unlock { tid, m }),
        (1..=THREADS, 0u8..2).prop_map(|(tid, region)| Op::Alloc { tid, region }),
        (1..=THREADS, 0u8..2).prop_map(|(tid, region)| Op::Free { tid, region }),
    ]
}

/// Lower ops to a well-formed event stream: threads created up front,
/// locks only released by their holder, regions alternately alloc'd and
/// freed.
fn lower(ops: &[Op]) -> Vec<Event> {
    let mut evs = Vec::new();
    for t in 1..=THREADS {
        evs.push(Event::ThreadCreate { parent: ThreadId(0), child: ThreadId(t), loc: loc(0) });
    }
    let mut held = [[false; 2]; 1 + THREADS as usize];
    let mut live = [false; 2];
    for op in ops {
        match *op {
            Op::Access { tid, slot, off, size_sel, kind_sel, loc_sel } => {
                let kind = match kind_sel {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::AtomicRmw,
                };
                evs.push(Event::Access {
                    tid: ThreadId(tid),
                    addr: BASE + u64::from(slot) * 8 + u64::from(off) * 4,
                    size: [2u8, 4, 8][size_sel as usize % 3],
                    kind,
                    loc: loc(loc_sel),
                });
            }
            Op::Lock { tid, m } => {
                if !held[tid as usize][m as usize] {
                    held[tid as usize][m as usize] = true;
                    evs.push(Event::Acquire {
                        tid: ThreadId(tid),
                        sync: SyncId(u32::from(m)),
                        kind: SyncKind::Mutex,
                        mode: AcqMode::Exclusive,
                        loc: loc(0),
                    });
                }
            }
            Op::Unlock { tid, m } => {
                if held[tid as usize][m as usize] {
                    held[tid as usize][m as usize] = false;
                    evs.push(Event::Release {
                        tid: ThreadId(tid),
                        sync: SyncId(u32::from(m)),
                        kind: SyncKind::Mutex,
                        loc: loc(0),
                    });
                }
            }
            Op::Alloc { tid, region } => {
                if !live[region as usize] {
                    live[region as usize] = true;
                    evs.push(Event::Alloc {
                        tid: ThreadId(tid),
                        addr: BASE + u64::from(region) * 24,
                        size: 24,
                        loc: loc(0),
                    });
                }
            }
            Op::Free { tid, region } => {
                if live[region as usize] {
                    live[region as usize] = false;
                    evs.push(Event::Free {
                        tid: ThreadId(tid),
                        addr: BASE + u64::from(region) * 24,
                        size: 24,
                        loc: loc(0),
                    });
                }
            }
        }
    }
    evs
}

/// Drop every event the filter elides; everything else passes through.
fn filtered(evs: &[Event]) -> Vec<Event> {
    let mut f = FilterCache::new(8);
    evs.iter().filter(|e| !f.filter(e)).cloned().collect()
}

/// An arbitrary small guest program: `threads` workers each run
/// `iters` iterations of {optional lock, read-modify-write a shared
/// global, a private parse phase, optional alloc/free}, parameterized so
/// the space covers disciplined, racy, and heap-recycling shapes.
fn build_program(threads: u64, iters: u64, locked: bool, reads: u64, heap: bool) -> vexec::Program {
    let mut pb = ProgramBuilder::new();
    let shared = pb.global("g_shared", 8);
    let blocks = pb.global("g_blocks", threads * 16);
    let wloc = pb.loc("prop.cpp", 5, "worker");
    let ploc = pb.loc("prop.cpp", 9, "worker");
    let hloc = pb.loc("prop.cpp", 13, "worker");

    let mut w = ProcBuilder::new(2);
    let m = w.param(0);
    let block = w.param(1);
    w.at(wloc);
    w.begin_repeat(iters);
    if locked {
        w.lock(Expr::Reg(m));
    }
    let v = w.load_new(Expr::Global(shared), 8);
    w.store(Expr::Global(shared), Expr::Reg(v).add(Expr::Const(1)), 8);
    if locked {
        w.unlock(Expr::Reg(m));
    }
    w.at(ploc);
    w.begin_repeat(reads);
    w.load_new(Expr::Reg(block), 8);
    w.load_new(Expr::Reg(block).add(Expr::Const(8)), 8);
    w.end_repeat();
    if heap {
        w.at(hloc);
        let p = w.alloc(Expr::Const(16));
        w.store(Expr::Reg(p), Expr::Const(7), 8);
        w.load_new(Expr::Reg(p), 8);
        w.free(Expr::Reg(p));
    }
    w.at(wloc);
    w.end_repeat();
    w.ret(None);
    let worker = pb.add_proc("worker", w);

    let mut main = ProcBuilder::new(0);
    let mloc = pb.loc("prop.cpp", 20, "main");
    main.at(mloc);
    let mu = main.new_mutex();
    let mut handles = Vec::new();
    for i in 0..threads {
        let h =
            main.spawn(worker, vec![Expr::Reg(mu), Expr::Global(blocks).add(Expr::Const(i * 16))]);
        handles.push(h);
    }
    for h in handles {
        main.join(Expr::Reg(h));
    }
    main.ret(None);
    let entry = pb.add_proc("main", main);
    pb.set_entry(entry);
    pb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine-level: all six configurations see the same race sequence —
    /// including the previous-access metadata that reports render — on the
    /// raw and the filtered stream.
    #[test]
    fn engines_see_identical_races_through_the_filter(
        ops in prop::collection::vec(op_strategy(), 1..160),
    ) {
        let raw = lower(&ops);
        let thin = filtered(&raw);

        for cfg in [
            DetectorConfig::original(),
            DetectorConfig::hwlc(),
            DetectorConfig::hwlc_dr(),
            DetectorConfig::hybrid(),
        ] {
            // The rendered prior state rides along with the raw facts: it
            // is the text a report would print for this race.
            let run = |evs: &[Event]| {
                let mut e = LocksetEngine::new(cfg);
                evs.iter()
                    .filter_map(|ev| {
                        e.on_event(ev).map(|r| format!("{r:?} {}", r.prev_state.describe(&e.table)))
                    })
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(&raw), run(&thin), "lockset {:?} diverged", cfg);
        }
        for cfg in [DetectorConfig::djit(), DetectorConfig::hybrid_queue_hb()] {
            let run = |evs: &[Event]| {
                let mut e = HbEngine::new(cfg);
                evs.iter()
                    .filter_map(|ev| e.on_event(ev))
                    .map(|r| format!("{r:?}"))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(&raw), run(&thin), "hb {:?} diverged", cfg);
        }
    }

    /// Program-level: an arbitrary guest program under an arbitrary fault
    /// plan and seeded schedule renders byte-equal reports with and
    /// without [`FilterTool`], under all three engine sets.
    #[test]
    fn programs_render_identical_reports_through_the_filter(
        threads in 1u64..3,
        iters in 1u64..4,
        locked in any::<bool>(),
        reads in 0u64..6,
        heap in any::<bool>(),
        plan_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        wakeup in 0u32..200,
        lockfail in 0u32..100,
        allocfail in 0u32..60,
        kill in 0u32..20,
    ) {
        let prog = build_program(threads, iters, locked, reads, heap);
        let flat = prog.lower();
        let plan = FaultPlan {
            seed: plan_seed,
            wakeup_permille: wakeup,
            lockfail_permille: lockfail,
            allocfail_permille: allocfail,
            kill_permille: kill,
            max_kills: 1,
        };
        let opts = VmOptions { faults: Some(plan), ..VmOptions::default() };

        for name in ["hwlc-dr", "djit", "hybrid"] {
            let observe = |use_filter: bool| {
                let mut sched = SeededRandom::new(sched_seed);
                let cfg = DetectorConfig::by_name(name).unwrap();
                let det = AnyDetector::by_name(name, cfg, SuppressionSet::new());
                let (term, det) = if use_filter {
                    let mut tool = FilterTool::new(det);
                    let r = run_flat(&flat, &mut tool, &mut sched, opts.clone());
                    (r.termination, tool.into_parts().0)
                } else {
                    let mut det = det;
                    let r = run_flat(&flat, &mut det, &mut sched, opts.clone());
                    (r.termination, det)
                };
                let mut out = format!("{term:?}|{}", det.sink.truncated());
                for rep in det.sink.reports() {
                    out.push_str(&rep.render());
                }
                out
            };
            prop_assert_eq!(observe(true), observe(false), "{}", name);
        }
    }
}

/// Free → realloc of the same range must invalidate the filter slot: a
/// repeat access to a recycled address is *not* a repeat — its block note
/// ("alloc'd by thread …") changed — so it must reach the engines.
#[test]
fn free_then_realloc_invalidates_the_slot() {
    let mut f = FilterCache::new(8);
    let l = loc(0);
    let a =
        Event::Access { tid: ThreadId(1), addr: BASE, size: 8, kind: AccessKind::Write, loc: l };
    assert!(!f.filter(&a), "first access must be forwarded");
    assert!(f.filter(&a), "exact repeat in the same epoch is elided");

    assert!(!f.filter(&Event::Free { tid: ThreadId(1), addr: BASE, size: 8, loc: l }));
    assert!(!f.filter(&a), "access after free must be forwarded");

    assert!(f.filter(&a), "repeat after the re-prime is elided again");
    assert!(!f.filter(&Event::Alloc { tid: ThreadId(2), addr: BASE, size: 8, loc: l }));
    assert!(
        !f.filter(&a),
        "access to the recycled block must be forwarded — its alloc metadata changed"
    );
}
