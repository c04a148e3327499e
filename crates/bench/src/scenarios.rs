//! Guest-program builders shared by the `repro` binary and the workspace
//! integration tests. Each corresponds to a figure or section of the
//! paper.

use cxxmodel::pool::PoolAllocator;
use cxxmodel::string::{emit_copy, emit_create, emit_drop, StringSite};
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Expr, Program, SyncKind, SyncOp};

/// Fig 8: the COW string refcount program (`stringtest.cpp`).
pub fn fig8_string_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let cell = pb.global("g_text", 8);
    let site = StringSite::new(&mut pb, "stringtest.cpp", 21);

    let wloc = pb.loc("stringtest.cpp", 10, "workerThread");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let rep = w.load_new(cell, 8);
    let copy = emit_copy(&mut w, rep, site);
    emit_drop(&mut w, copy, site, 40, None);
    let worker = pb.add_proc("workerThread", w);

    let mloc = pb.loc("stringtest.cpp", 16, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let rep = emit_create(&mut m, 16);
    m.store(cell, Expr::Reg(rep), 8);
    let h = m.spawn(worker, vec![]);
    m.yield_(); // sleep(1)
    let l22 = pb.loc("stringtest.cpp", 22, "main");
    m.at(l22);
    let copy = emit_copy(&mut m, rep, site); // <- reported conflict (Fig 8)
    emit_drop(&mut m, copy, site, 40, None);
    m.join(h);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

/// §4.3: the schedule-dependent false negative (unlocked writer A, locked
/// writer B). Returns the program; drive it with `PriorityOrder` schedules
/// `[0,1,2]` (A first → missed) and `[0,2,1]` (B first → reported).
pub fn false_negative_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let data = pb.global("g_shared", 8);
    let m_cell = pb.global("g_mutex", 8);

    let aloc = pb.loc("fn.cpp", 5, "writer_unlocked");
    let mut a = ProcBuilder::new(0);
    a.at(aloc);
    // Some preamble work (parsing, logging, ...) before the racy store, so
    // either order genuinely occurs across schedules.
    a.yield_();
    a.yield_();
    a.yield_();
    a.store(data, 1u64, 8);
    let wa = pb.add_proc("writer_unlocked", a);

    let bloc = pb.loc("fn.cpp", 12, "writer_locked");
    let mut b = ProcBuilder::new(0);
    b.at(bloc);
    let mx = b.load_new(m_cell, 8);
    b.lock(mx);
    b.store(data, 2u64, 8);
    b.unlock(mx);
    let wb = pb.add_proc("writer_locked", b);

    let mloc = pb.loc("fn.cpp", 20, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let mx = m.new_mutex();
    m.store(m_cell, mx, 8);
    let h1 = m.spawn(wa, vec![]);
    let h2 = m.spawn(wb, vec![]);
    m.join(h1);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

/// §4 (libstdc++ note) / E11: pooled-allocator reuse. A block is shared
/// under a lock, released to the pool, recycled and reused — with pooling
/// the detector sees no free/alloc boundary and warns; with
/// `GLIBCPP_FORCE_NEW` semantics it stays silent.
pub fn pool_reuse_program(force_new: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let pool = PoolAllocator::install(&mut pb, force_new);
    let cell = pb.global("g_node", 8);
    let m_cell = pb.global("g_mutex", 8);

    let wloc = pb.loc("container.cpp", 30, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let mx = w.load_new(m_cell, 8);
    w.lock(mx);
    let p = w.load_new(cell, 8);
    let v = w.load_new(Expr::Reg(p), 8);
    w.store(Expr::Reg(p), Expr::Reg(v).add(1u64.into()), 8);
    w.unlock(mx);
    let worker = pb.add_proc("worker", w);

    let mloc = pb.loc("container.cpp", 50, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    pool.emit_init(&mut m);
    let mx = m.new_mutex();
    m.store(m_cell, mx, 8);
    let p = pool.emit_alloc(&mut m, 64);
    m.store(Expr::Reg(p), 1u64, 8);
    m.store(cell, Expr::Reg(p), 8);
    let h1 = m.spawn(worker, vec![]);
    let h2 = m.spawn(worker, vec![]);
    m.join(h1);
    m.join(h2);
    // The container node is released and the storage recycled for an
    // unrelated, single-threaded purpose.
    pool.emit_free(&mut m, p, 64);
    let q = pool.emit_alloc(&mut m, 64);
    let reuse_loc = pb.loc("container.cpp", 61, "main");
    m.at(reuse_loc);
    m.store(Expr::Reg(q), 7u64, 8);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

/// E9: AB-BA lock inversion. `serialized = true` runs the two workers one
/// after the other (no actual deadlock, but the lock-order graph sees the
/// inversion); `false` lets them overlap (deadlocks under round-robin).
pub fn ab_ba_program(serialized: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let ma = pb.global("g_mutex_a", 8);
    let mb = pb.global("g_mutex_b", 8);
    let loc = pb.loc("transfer.cpp", 12, "transfer");
    let mut w = ProcBuilder::new(2);
    w.at(loc);
    let f = w.load_new(Expr::Reg(w.param(0)), 8);
    w.lock(f);
    w.yield_();
    let s = w.load_new(Expr::Reg(w.param(1)), 8);
    w.lock(s);
    w.unlock(s);
    w.unlock(f);
    let worker = pb.add_proc("transfer", w);

    let mloc = pb.loc("transfer.cpp", 30, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let a = m.new_mutex();
    let b = m.new_mutex();
    m.store(ma, a, 8);
    m.store(mb, b, 8);
    if serialized {
        let h1 = m.spawn(worker, vec![Expr::Global(ma), Expr::Global(mb)]);
        m.join(h1);
        let h2 = m.spawn(worker, vec![Expr::Global(mb), Expr::Global(ma)]);
        m.join(h2);
    } else {
        let h1 = m.spawn(worker, vec![Expr::Global(ma), Expr::Global(mb)]);
        let h2 = m.spawn(worker, vec![Expr::Global(mb), Expr::Global(ma)]);
        m.join(h1);
        m.join(h2);
    }
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

/// E10 fork/join workload: parent initialises data, workers process under
/// create/join hand-off — clean *with* thread segments, a warning without.
pub fn fork_join_handoff_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let wloc = pb.loc("handoff.cpp", 8, "stage");
    let mut w = ProcBuilder::new(1);
    w.at(wloc);
    let buf = w.param(0);
    let v = w.load_new(Expr::Reg(buf), 8);
    w.store(Expr::Reg(buf), Expr::Reg(v).add(1u64.into()), 8);
    let stage = pb.add_proc("stage", w);

    let mloc = pb.loc("handoff.cpp", 20, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let buf = m.alloc(16u64);
    m.store(Expr::Reg(buf), 1u64, 8);
    // Three sequential stages, each a fresh thread (Fig 2's TS chain).
    for _ in 0..3 {
        let h = m.spawn(stage, vec![Expr::Reg(buf)]);
        m.join(h);
    }
    let v = m.load_new(Expr::Reg(buf), 8);
    m.assert_eq(v, 4u64, "all stages ran");
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

/// E4/E12 miniature: producer writes a message, hands it to a consumer via
/// a bounded queue, consumer writes it.
pub fn queue_handoff_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let q_cell = pb.global("g_queue", 8);

    let wloc = pb.loc("pool.cpp", 10, "pool_worker");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let q = w.load_new(q_cell, 8);
    let msg = w.reg();
    w.sync(SyncOp::QueueGet { queue: Expr::Reg(q), dst: msg });
    let ploc = pb.loc("pool.cpp", 14, "pool_worker");
    w.at(ploc);
    let v = w.load_new(Expr::Reg(msg), 8);
    w.store(Expr::Reg(msg), Expr::Reg(v).add(1u64.into()), 8);
    let worker = pb.add_proc("pool_worker", w);

    let mloc = pb.loc("pool.cpp", 24, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let q = m.new_sync(SyncKind::Queue, 4u64);
    m.store(q_cell, q, 8);
    let h = m.spawn(worker, vec![]); // worker exists before the message
    let msg = m.alloc(16u64);
    m.store(Expr::Reg(msg), 7u64, 8);
    m.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Reg(msg) });
    m.join(h);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::sched::RoundRobin;
    use vexec::tool::NullTool;
    use vexec::vm::{run_program, Termination};

    #[test]
    fn scenarios_execute() {
        for prog in [
            fig8_string_program(),
            false_negative_program(),
            pool_reuse_program(true),
            pool_reuse_program(false),
            ab_ba_program(true),
            fork_join_handoff_program(),
            queue_handoff_program(),
        ] {
            let r = run_program(&prog, &mut NullTool, &mut RoundRobin::new());
            assert!(r.termination.is_clean(), "{:?}", r.termination);
        }
        // The concurrent AB-BA variant deadlocks by design.
        let r = run_program(&ab_ba_program(false), &mut NullTool, &mut RoundRobin::new());
        assert!(matches!(r.termination, Termination::Deadlock(_)));
    }
}
