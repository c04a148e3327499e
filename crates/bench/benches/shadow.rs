//! Shadow-memory and parallel-exploration benchmarks.
//!
//! Three cost centres the page-table refactor targets, isolated from the
//! VM interpreter so a regression is attributable:
//!
//! * `access-*` — the per-access hot path of the lockset engine (shadow
//!   lookup + state step + writeback), on a cache-friendly single granule
//!   and on a 64K-granule sweep where the two-level layout matters;
//! * `lock-roundtrip` — acquire/release, which rebuilds the four interned
//!   locksets (allocation-free since the borrowed-slice intern);
//! * `page-reset` — `Alloc` over a large range, which must unmap whole
//!   pages instead of deleting granules one hash entry at a time.
//!
//! The `explore-T*` group times the same schedule sweep on 1, 4 and 8
//! worker threads; the merged summary is bit-identical across them, so
//! the only thing allowed to change is wall-clock time.
//!
//! Run with: `cargo bench -p race-bench --bench shadow`

use criterion::{criterion_group, criterion_main, Criterion};
use helgrind_core::explore::{explore_schedules, ExploreLimits};
use helgrind_core::{AnyDetector, DetectorConfig, EraserDetector, LocksetEngine};
use sipsim::native::{vm_workload_program, WorkloadSpec};
use std::hint::black_box;
use vexec::event::{AccessKind, AcqMode, Event, SyncId, ThreadId};
use vexec::ir::{SrcLoc, SyncKind};

const LOC: SrcLoc = SrcLoc::UNKNOWN;

fn access(tid: u32, addr: u64, kind: AccessKind) -> Event {
    Event::Access { tid: ThreadId(tid), addr, size: 8, kind, loc: LOC }
}

fn bench_shadow(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow");
    group.sample_size(10);

    // Steady-state shared-modified granule: two threads, one address,
    // alternating writes under a common lock. 10_000 accesses per iter.
    group.bench_function("access-hot-10k", |b| {
        let mut eng = LocksetEngine::new(DetectorConfig::hwlc_dr());
        for t in 0..2 {
            eng.on_event(&Event::Acquire {
                tid: ThreadId(t),
                sync: SyncId(0),
                kind: SyncKind::Mutex,
                mode: AcqMode::Exclusive,
                loc: LOC,
            });
        }
        b.iter(|| {
            for i in 0..10_000u64 {
                let r = eng.on_event(&access((i & 1) as u32, 0x2000, AccessKind::Write));
                black_box(r);
            }
        })
    });

    // 64K distinct granules touched in order: page materialisation plus
    // the last-page cache riding each 1024-slot secondary end to end.
    group.bench_function("access-spread-64k", |b| {
        b.iter(|| {
            let mut eng = LocksetEngine::new(DetectorConfig::hwlc_dr());
            for i in 0..65_536u64 {
                let r = eng.on_event(&access(0, 0x2000 + i * 8, AccessKind::Write));
                black_box(r);
            }
            black_box(eng.shadowed_granules())
        })
    });

    // Lock/unlock pair: rebuilds the interned locksets twice. 10_000
    // round-trips per iter.
    group.bench_function("lock-roundtrip-10k", |b| {
        let mut eng = LocksetEngine::new(DetectorConfig::hwlc_dr());
        b.iter(|| {
            for _ in 0..10_000 {
                eng.on_event(&Event::Acquire {
                    tid: ThreadId(0),
                    sync: SyncId(1),
                    kind: SyncKind::Mutex,
                    mode: AcqMode::Exclusive,
                    loc: LOC,
                });
                eng.on_event(&Event::Release {
                    tid: ThreadId(0),
                    sync: SyncId(1),
                    kind: SyncKind::Mutex,
                    loc: LOC,
                });
            }
            black_box(eng.accesses)
        })
    });

    // Alloc over 512 KiB of populated shadow: full secondaries must be
    // dropped wholesale, not granule by granule.
    group.bench_function("page-reset-512k", |b| {
        let mut eng = LocksetEngine::new(DetectorConfig::hwlc_dr());
        b.iter(|| {
            for i in 0..(512 * 1024 / 64) {
                // Touch one granule per 64 bytes so pages are mapped.
                eng.on_event(&access(0, 0x10000 + i * 64, AccessKind::Write));
            }
            eng.on_event(&Event::Alloc {
                tid: ThreadId(0),
                addr: 0x10000,
                size: 512 * 1024,
                loc: LOC,
            });
            black_box(eng.shadowed_granules())
        })
    });

    group.finish();
}

fn bench_explore(c: &mut Criterion) {
    let prog = vm_workload_program(WorkloadSpec { threads: 4, iterations: 120, parse_reads: 16 });
    let mut group = c.benchmark_group("explore");
    group.sample_size(10);

    for jobs in [1usize, 4, 8] {
        group.bench_function(format!("sweep-24-T{jobs}"), |b| {
            b.iter(|| {
                let limits = ExploreLimits { jobs, ..Default::default() };
                let hwlc_dr =
                    || AnyDetector::Eraser(EraserDetector::new(DetectorConfig::hwlc_dr()));
                let s = explore_schedules(&prog, hwlc_dr, 24, 0xACE, limits, None, &[]);
                black_box((s.runs, s.slots_used))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_shadow, bench_explore);
criterion_main!(benches);
