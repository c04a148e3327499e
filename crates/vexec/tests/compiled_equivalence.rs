//! Compiled-core ≡ reference-core equivalence.
//!
//! The operand-specialized bytecode core must be observationally identical
//! to the tree-walking reference: same event stream, same termination,
//! same slot/op/alloc accounting — under every scheduler, with and without
//! fault injection, across generated guest programs that exercise every
//! opcode family (including the fusable Repeat tails and assign→store
//! pairs, nested slot-fallback arithmetic, and blocking sync).

use proptest::prelude::*;
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::lower::FlatProgram;
use vexec::ir::{Cond, Expr, SyncKind, SyncOp};
use vexec::sched::Scheduler;
use vexec::sched::{RoundRobin, SeededRandom};
use vexec::tool::RecordingTool;
use vexec::vm::{run_flat, InterpStats, RunResult, Vm, VmOptions};
use vexec::FaultPlan;

/// Which core runs a program: `run_flat` compiles it, `Vm::new` builds the
/// tree-walking reference core.
#[derive(Clone, Copy, Debug)]
enum Core {
    Compiled,
    Reference,
}

/// Run `prog` on `core`, recording every event.
fn record(
    core: Core,
    prog: &FlatProgram,
    sched: &mut dyn Scheduler,
    opts: VmOptions,
) -> (Vec<vexec::Event>, RunResult) {
    let mut tool = RecordingTool::new();
    let r = match core {
        Core::Compiled => run_flat(prog, &mut tool, sched, opts),
        Core::Reference => Vm::new(prog, opts).run(&mut tool, sched),
    };
    (tool.events, r)
}

/// Run one program on both cores with identical options (bar the mode) and
/// assert every observable matches.
fn assert_equivalent(prog: &FlatProgram, seed: Option<u64>, faults: Option<FaultPlan>) {
    let run = |core: Core| {
        let opts = VmOptions { faults, ..Default::default() };
        match seed {
            Some(s) => record(core, prog, &mut SeededRandom::new(s), opts),
            None => record(core, prog, &mut RoundRobin::new(), opts),
        }
    };
    let (ev_c, r_c) = run(Core::Compiled);
    let (ev_r, r_r) = run(Core::Reference);
    assert_eq!(ev_c, ev_r, "event streams diverge (seed {seed:?}, faults {faults:?})");
    assert_eq!(
        format!("{:?}", r_c.termination),
        format!("{:?}", r_r.termination),
        "terminations diverge"
    );
    assert_eq!(r_c.stats.slots, r_r.stats.slots, "slot counts diverge");
    assert_eq!(r_c.stats.events, r_r.stats.events, "event counts diverge");
    assert_eq!(r_c.stats.ops, r_r.stats.ops, "op counts diverge");
    assert_eq!(r_c.stats.threads_created, r_r.stats.threads_created);
    assert_eq!(r_c.stats.allocs, r_r.stats.allocs);
    // Fault accounting must consult the injector identically.
    match (&r_c.faults, &r_r.faults) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "fault stats diverge (seed {seed:?}, faults {faults:?})"
        ),
        other => panic!("fault stats presence diverges: {other:?}"),
    }
    // The compiled core actually ran compiled: its class counters add up
    // to the shared op count (fused superinstructions account both halves).
    assert_eq!(r_c.stats.interp.total(), r_c.stats.ops, "compiled class counters mismatch ops");
    assert_eq!(r_r.stats.interp.total(), r_r.stats.ops, "reference class counters mismatch ops");
    // Each op lands in the same class on both cores; only the compiled
    // core's overlays (`fused`, `slot_evals`) may differ.
    let classes = |s: InterpStats| InterpStats { fused: 0, slot_evals: 0, ..s };
    assert_eq!(
        classes(r_c.stats.interp),
        classes(r_r.stats.interp),
        "per-class op counters diverge (seed {seed:?}, faults {faults:?})"
    );
}

/// One generated worker's shape.
#[derive(Clone, Debug)]
struct WorkerSpec {
    repeats: u64,
    yields: bool,
    allocs: u64,
    nested_math: bool,
    use_rwlock: bool,
    queue_msgs: u64,
}

fn worker_strategy() -> impl Strategy<Value = WorkerSpec> {
    (1u64..12, any::<bool>(), 0u64..4, any::<bool>(), any::<bool>(), 0u64..6).prop_map(
        |(repeats, yields, allocs, nested_math, use_rwlock, queue_msgs)| WorkerSpec {
            repeats,
            yields,
            allocs,
            nested_math,
            use_rwlock,
            queue_msgs,
        },
    )
}

/// Build a guest that walks every opcode family the compiler specializes:
/// fusable Repeat tails, assign→store pairs, nested slot arithmetic,
/// reg+const addressing, calls with args, every sync primitive, heap
/// traffic, client requests and asserts.
fn build_guest(workers: &[WorkerSpec]) -> FlatProgram {
    let mut pb = ProgramBuilder::new();
    let counter = pb.global("counter", 8);
    let scratch = pb.global("scratch", 32);
    let m_cell = pb.global("mutex", 8);
    let rw_cell = pb.global("rw", 8);
    let q_cell = pb.global("queue", 8);

    // A small helper proc: bump `counter` by its argument under the mutex.
    let hloc = pb.loc("gen.cpp", 5, "bump");
    let mut h = ProcBuilder::new(1);
    h.at(hloc);
    let amt = h.param(0);
    let m = h.load_new(m_cell, 8);
    h.lock(m);
    let v = h.load_new(counter, 8);
    h.store(counter, Expr::Reg(v).add(Expr::Reg(amt)), 8);
    h.unlock(m);
    h.ret(Some(Expr::Reg(v)));
    let bump = pb.add_proc("bump", h);

    let mut worker_ids = Vec::new();
    for (i, spec) in workers.iter().enumerate() {
        let loc = pb.loc("gen.cpp", 20 + i as u32, "worker");
        let mut w = ProcBuilder::new(0);
        w.at(loc);
        // Repeat loop: lowers to the fusable dec+jump tail.
        w.begin_repeat(spec.repeats);
        let old = w.reg();
        w.call(bump, vec![Expr::Const(1)], Some(old));
        if spec.yields {
            w.yield_();
        }
        w.end_repeat();
        if spec.nested_math {
            // Genuinely nested arithmetic: forces the eval-slot fallback.
            let a = w.let_(3u64);
            let b = w.let_(5u64);
            let e = Expr::Reg(a)
                .add(Expr::Reg(b).mul(Expr::Reg(a)))
                .sub(Expr::Reg(b).add(Expr::Const(2)));
            let r = w.let_(e);
            w.assert_eq(r, 3 + 5 * 3 - (5 + 2), "slot math is exact");
        }
        if spec.use_rwlock {
            let rw = w.load_new(rw_cell, 8);
            w.sync(SyncOp::RwLockRead(Expr::Reg(rw)));
            let _v = w.load_new(counter, 8);
            w.sync(SyncOp::RwUnlock(Expr::Reg(rw)));
            w.sync(SyncOp::RwLockWrite(Expr::Reg(rw)));
            // Assign→store pair on a reg+const address: fuses.
            let t = w.load_new(scratch, 8);
            w.store(scratch, Expr::Reg(t).add(1u64.into()), 8);
            w.sync(SyncOp::RwUnlock(Expr::Reg(rw)));
        }
        for k in 0..spec.allocs {
            let p = w.alloc(24u64);
            w.store(Expr::Reg(p), 7u64 + k, 8);
            w.store(Expr::Reg(p).add(Expr::Const(8)), 9u64, 8);
            let _back = w.load_new(Expr::Reg(p).add(Expr::Const(8)), 8);
            w.hg_destruct(p, 24u64);
            w.free(p);
        }
        for _ in 0..spec.queue_msgs {
            let q = w.load_new(q_cell, 8);
            w.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Const(1) });
        }
        worker_ids.push(pb.add_proc(&format!("worker{i}"), w));
    }

    // Drain the queue: a consumer that pops exactly the expected total.
    let total_msgs: u64 = workers.iter().map(|w| w.queue_msgs).sum();
    let cloc = pb.loc("gen.cpp", 60, "consumer");
    let mut c = ProcBuilder::new(0);
    c.at(cloc);
    let q = c.load_new(q_cell, 8);
    let got = c.reg();
    c.begin_repeat(total_msgs);
    c.sync(SyncOp::QueueGet { queue: Expr::Reg(q), dst: got });
    c.end_repeat();
    let consumer = pb.add_proc("consumer", c);

    let mloc = pb.loc("gen.cpp", 80, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let mx = m.new_mutex();
    m.store(m_cell, mx, 8);
    let rw = m.new_sync(SyncKind::RwLock, 0u64);
    m.store(rw_cell, rw, 8);
    let qh = m.new_sync(SyncKind::Queue, 4u64);
    m.store(q_cell, qh, 8);
    let mut joins = Vec::new();
    for w in &worker_ids {
        joins.push(m.spawn(*w, vec![]));
    }
    joins.push(m.spawn(consumer, vec![]));
    for h in joins {
        m.join(h);
    }
    let expected: u64 = workers.iter().map(|w| w.repeats).sum();
    let v = m.load_new(counter, 8);
    m.assert_eq(v, expected, "all bumps must land");
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish().lower()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Clean runs: both cores agree on everything, across random guests
    /// and random schedules.
    #[test]
    fn cores_agree_on_clean_runs(
        workers in prop::collection::vec(worker_strategy(), 1..4),
        seed in any::<u64>(),
    ) {
        let prog = build_guest(&workers);
        assert_equivalent(&prog, Some(seed), None);
    }

    /// Fault-injected runs: injector consult points line up exactly, so
    /// both cores see the same spurious wakeups, lock failures, alloc
    /// failures and kills — and diverge from the clean run identically.
    #[test]
    fn cores_agree_under_fault_injection(
        workers in prop::collection::vec(worker_strategy(), 1..3),
        seed in any::<u64>(),
        fseed in any::<u64>(),
    ) {
        let prog = build_guest(&workers);
        let plan = FaultPlan {
            seed: fseed,
            wakeup_permille: 120,
            lockfail_permille: 60,
            allocfail_permille: 25,
            kill_permille: 8,
            max_kills: 2,
        };
        assert_equivalent(&prog, Some(seed), Some(plan));
    }
}

#[test]
fn cores_agree_on_round_robin() {
    let workers = [
        WorkerSpec {
            repeats: 6,
            yields: true,
            allocs: 2,
            nested_math: true,
            use_rwlock: true,
            queue_msgs: 3,
        },
        WorkerSpec {
            repeats: 3,
            yields: false,
            allocs: 1,
            nested_math: false,
            use_rwlock: false,
            queue_msgs: 2,
        },
    ];
    let prog = build_guest(&workers);
    assert_equivalent(&prog, None, None);
}

/// Cond-var traffic (two-phase wait, signal, broadcast) — the trickiest
/// blocking path: the VM re-reads the parked CondWait op to reacquire the
/// right mutex, which has a dedicated compiled twin.
#[test]
fn cores_agree_on_condvar_protocols() {
    let mut pb = ProgramBuilder::new();
    let m_cell = pb.global("m", 8);
    let c_cell = pb.global("c", 8);
    let flag = pb.global("flag", 8);

    let wloc = pb.loc("cv.cpp", 5, "waiter");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let m = w.load_new(m_cell, 8);
    let c = w.load_new(c_cell, 8);
    w.lock(m);
    let f = w.reg();
    w.load(f, flag, 8);
    w.begin_while(Cond::Eq(Expr::Reg(f), Expr::Const(0)));
    w.sync(SyncOp::CondWait { cond: Expr::Reg(c), mutex: Expr::Reg(m) });
    w.load(f, flag, 8);
    w.end_while();
    w.unlock(m);
    let waiter = pb.add_proc("waiter", w);

    let mloc = pb.loc("cv.cpp", 30, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let mx = main.new_mutex();
    main.store(m_cell, mx, 8);
    let cv = main.new_sync(SyncKind::CondVar, 0u64);
    main.store(c_cell, cv, 8);
    let h1 = main.spawn(waiter, vec![]);
    let h2 = main.spawn(waiter, vec![]);
    main.yield_();
    main.lock(mx);
    main.store(flag, 1u64, 8);
    main.unlock(mx);
    main.sync(SyncOp::CondSignal(Expr::Reg(cv)));
    main.sync(SyncOp::CondBroadcast(Expr::Reg(cv)));
    main.join(h1);
    main.join(h2);
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish().lower();

    for seed in [0u64, 7, 42, 1234, 0xDEAD] {
        assert_equivalent(&prog, Some(seed), None);
    }
    // Spurious wakeups stress the re-park path.
    for fseed in [1u64, 2, 3] {
        let plan = FaultPlan {
            seed: fseed,
            wakeup_permille: 300,
            lockfail_permille: 80,
            allocfail_permille: 0,
            kill_permille: 0,
            max_kills: 0,
        };
        assert_equivalent(&prog, Some(fseed.wrapping_mul(97)), Some(plan));
    }
}

/// Semaphores and the silent-budget boundary: a spin loop that exhausts
/// the silent-op budget must trip SilentLoop at the identical op count in
/// both cores (including inside fused pairs).
#[test]
fn cores_agree_on_silent_budget_trips() {
    let mut m = ProcBuilder::new(0);
    let r = m.reg();
    m.assign(r, 1u64);
    m.begin_while(Cond::Ne(Expr::Reg(r), Expr::Const(0)));
    m.assign(r, Expr::Reg(r).add(Expr::Const(1)));
    m.end_while();
    let mut pb = ProgramBuilder::new();
    let id = pb.add_proc("main", m);
    pb.set_entry(id);
    let prog = pb.finish().lower();

    for budget in [10u32, 11, 12, 13, 100] {
        let run = |core: Core| {
            let opts = VmOptions { silent_op_budget: budget, ..Default::default() };
            record(core, &prog, &mut RoundRobin::new(), opts)
        };
        let (ev_c, r_c) = run(Core::Compiled);
        let (ev_r, r_r) = run(Core::Reference);
        assert_eq!(ev_c, ev_r);
        assert_eq!(format!("{:?}", r_c.termination), format!("{:?}", r_r.termination));
        assert_eq!(r_c.stats.ops, r_r.stats.ops, "budget {budget}: op counts diverge");
    }

    // Same boundary scan across a fusable Repeat tail (DecJump).
    let mut m = ProcBuilder::new(0);
    m.begin_repeat(1_000_000u64);
    m.end_repeat();
    let mut pb = ProgramBuilder::new();
    let id = pb.add_proc("main", m);
    pb.set_entry(id);
    let prog = pb.finish().lower();
    for budget in [7u32, 8, 9, 10, 11] {
        let run = |core: Core| {
            let opts = VmOptions { silent_op_budget: budget, ..Default::default() };
            record(core, &prog, &mut RoundRobin::new(), opts)
        };
        let (ev_c, r_c) = run(Core::Compiled);
        let (ev_r, r_r) = run(Core::Reference);
        assert_eq!(ev_c, ev_r);
        assert_eq!(format!("{:?}", r_c.termination), format!("{:?}", r_r.termination));
        assert_eq!(r_c.stats.ops, r_r.stats.ops, "budget {budget}: op counts diverge");
        assert_eq!(r_c.stats.slots, r_r.stats.slots, "budget {budget}: slot counts diverge");
    }
}

/// Semaphore blocking parity.
#[test]
fn cores_agree_on_semaphores() {
    let mut pb = ProgramBuilder::new();
    let s_cell = pb.global("s", 8);
    let loc = pb.loc("sem.cpp", 3, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(loc);
    let s = w.load_new(s_cell, 8);
    w.sync(SyncOp::SemWait(Expr::Reg(s)));
    w.yield_();
    w.sync(SyncOp::SemPost(Expr::Reg(s)));
    let worker = pb.add_proc("worker", w);
    let mut m = ProcBuilder::new(0);
    m.at(pb.loc("sem.cpp", 10, "main"));
    let s = m.new_sync(SyncKind::Semaphore, 1u64);
    m.store(s_cell, s, 8);
    let h1 = m.spawn(worker, vec![]);
    let h2 = m.spawn(worker, vec![]);
    let h3 = m.spawn(worker, vec![]);
    m.join(h1);
    m.join(h2);
    m.join(h3);
    let id = pb.add_proc("main", m);
    pb.set_entry(id);
    let prog = pb.finish().lower();
    for seed in [0u64, 5, 77, 4096] {
        assert_equivalent(&prog, Some(seed), None);
    }
}

/// Guest errors carry identical locations and kinds through both cores.
#[test]
fn cores_agree_on_guest_faults() {
    // Out-of-bounds store.
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 9, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    let p = m.alloc(8u64);
    m.store(Expr::Reg(p).add(Expr::Const(8)), 1u64, 8);
    let id = pb.add_proc("main", m);
    pb.set_entry(id);
    assert_equivalent(&pb.finish().lower(), None, None);

    // Double free.
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 20, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    let p = m.alloc(8u64);
    m.free(p);
    m.free(p);
    let id = pb.add_proc("main", m);
    pb.set_entry(id);
    assert_equivalent(&pb.finish().lower(), None, None);

    // Failed guest assert.
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 31, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    let r = m.let_(2u64);
    m.assert_eq(r, 3u64, "two is not three");
    let id = pb.add_proc("main", m);
    pb.set_entry(id);
    assert_equivalent(&pb.finish().lower(), None, None);

    // Unlock of a mutex not held (sync protocol error).
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 40, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    let mx = m.new_mutex();
    m.unlock(mx);
    let id = pb.add_proc("main", m);
    pb.set_entry(id);
    assert_equivalent(&pb.finish().lower(), None, None);
}
