//! End-to-end detector tests: guest programs executed on the VM with the
//! Eraser, DJIT and hybrid detectors attached. These reproduce, in
//! miniature, the qualitative warning/no-warning matrix of the paper:
//! Fig 8 (string refcount), the destructor scenario, Fig 10/11 (ownership
//! transfer), and the §4.3 schedule-dependent false negative.

use helgrind_core::{AnyDetector, DetectorConfig, ReportKind, SuppressionSet};
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Cond, Expr, Program, SyncKind, SyncOp};
use vexec::sched::{PriorityOrder, RoundRobin};
use vexec::vm::run_program;
use vexec::ThreadId;

fn run_eraser(prog: &Program, cfg: DetectorConfig) -> AnyDetector {
    let mut det = AnyDetector::new(cfg);
    let r = run_program(prog, &mut det, &mut RoundRobin::new());
    assert!(r.termination.is_clean(), "{:?}", r.termination);
    det
}

/// Fig 8: a COW std::string-style object shared between main and a worker.
/// Layout: [refcount][len][data]; copying = read rc (COW check) + LOCK-
/// prefixed increment; both threads copy concurrently.
fn string_refcount_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let cell = pb.global("text_ptr", 8);

    // copy_string(p): the std::string copy constructor calling M_grab.
    let grab_loc = pb.loc("libstdc++/string.cpp", 22, "std::string::_Rep::_M_grab");
    let check_loc = pb.loc("libstdc++/string.cpp", 18, "std::string::string");
    let mut cp = ProcBuilder::new(1);
    let p = cp.param(0);
    cp.at(check_loc);
    let _rc = cp.load_new(Expr::Reg(p), 8); // COW uniqueness check (plain read)
    cp.at(grab_loc);
    cp.atomic_rmw(None, Expr::Reg(p), 1u64, 8); // LOCK xadd on the refcount
    let copy_string = pb.add_proc("copy_string", cp);

    // worker(arguments): std::string text = *(std::string*)arguments;
    let wloc = pb.loc("stringtest.cpp", 10, "workerThread");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let sp = w.load_new(cell, 8);
    w.call(copy_string, vec![Expr::Reg(sp)], None);
    let worker = pb.add_proc("workerThread", w);

    // main: construct the string, spawn worker, copy concurrently, join.
    let mloc = pb.loc("stringtest.cpp", 16, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let s = m.alloc(24u64);
    m.store(Expr::Reg(s), 1u64, 8); // rc = 1
    m.store(Expr::offset(s, 8), 8u64, 8); // len
    m.store(cell, Expr::Reg(s), 8);
    let h = m.spawn(worker, vec![]);
    m.yield_();
    let mloc22 = pb.loc("stringtest.cpp", 22, "main");
    m.at(mloc22);
    m.call(copy_string, vec![Expr::Reg(s)], None); // <- reported conflict (Fig 8)
    m.join(h);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

#[test]
fn fig8_string_refcount_fp_original_vs_hwlc() {
    let prog = string_refcount_program();
    let original = run_eraser(&prog, DetectorConfig::original());
    assert_eq!(
        original.sink.race_location_count(),
        1,
        "original Helgrind reports the M_grab write:\n{:?}",
        original.sink.reports()
    );
    let rep = &original.sink.reports()[0];
    assert_eq!(rep.func, "std::string::_Rep::_M_grab");
    assert!(rep.block.is_some(), "report carries the allocation block (Fig 9)");

    let hwlc = run_eraser(&prog, DetectorConfig::hwlc());
    assert_eq!(
        hwlc.sink.race_location_count(),
        0,
        "HWLC removes the bus-lock FP: {:?}",
        hwlc.sink.reports()
    );
}

/// The destructor scenario: a session object shared under a lock by two
/// workers; the second worker erases it from the registry and deletes it.
/// The compiler-generated destructor writes the vptr with no lock held.
fn destructor_program(annotated: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let obj_cell = pb.global("session_ptr", 8);
    let m_cell = pb.global("mutex_cell", 8);

    // use_session(): locked virtual call — dispatch reads the vptr, then
    // the method updates a field.
    let uloc = pb.loc("session.cpp", 31, "Session::touch");
    let mut u = ProcBuilder::new(0);
    u.at(uloc);
    let mx = u.load_new(m_cell, 8);
    u.lock(mx);
    let o = u.load_new(obj_cell, 8);
    let _vptr = u.load_new(Expr::Reg(o), 8); // virtual dispatch reads the vptr
    let v = u.load_new(Expr::offset(o, 8), 8);
    u.store(Expr::offset(o, 8), Expr::Reg(v).add(1u64.into()), 8);
    u.unlock(mx);
    let use_session = pb.add_proc("Session::touch", u);

    // destroy_session(): erase under lock, delete outside it.
    let dloc = pb.loc("session.cpp", 58, "Session::~Session");
    let floc = pb.loc("session.cpp", 60, "SessionTable::destroy");
    let mut d = ProcBuilder::new(0);
    d.at(floc);
    let mx = d.load_new(m_cell, 8);
    d.lock(mx);
    let o = d.load_new(obj_cell, 8);
    d.store(obj_cell, 0u64, 8); // unregister
    d.unlock(mx);
    if annotated {
        d.hg_destruct(o, 16u64);
    }
    d.at(dloc);
    d.store(Expr::Reg(o), 0u64, 8); // vptr reset in ~Session
    d.at(floc);
    d.free(o);
    let destroy = pb.add_proc("SessionTable::destroy", d);

    // worker1 touches, worker2 touches then destroys.
    let w1loc = pb.loc("proxy.cpp", 10, "worker1");
    let mut w1 = ProcBuilder::new(0);
    w1.at(w1loc);
    w1.call(use_session, vec![], None);
    let worker1 = pb.add_proc("worker1", w1);

    let w2loc = pb.loc("proxy.cpp", 20, "worker2");
    let mut w2 = ProcBuilder::new(0);
    w2.at(w2loc);
    w2.call(use_session, vec![], None);
    w2.call(destroy, vec![], None);
    let worker2 = pb.add_proc("worker2", w2);

    let mloc = pb.loc("proxy.cpp", 30, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let mx = m.new_mutex();
    m.store(m_cell, mx, 8);
    let o = m.alloc(16u64);
    m.store(Expr::Reg(o), 0xF00Du64, 8); // vptr init
    m.store(obj_cell, Expr::Reg(o), 8);
    let h1 = m.spawn(worker1, vec![]);
    let h2 = m.spawn(worker2, vec![]);
    m.join(h1);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

#[test]
fn destructor_fp_without_dr_clean_with_dr() {
    // Schedule worker1 fully before worker2 so the object reaches a shared
    // state before destruction (round-robin works too, but this is the
    // clean textbook interleaving).
    let prog = destructor_program(true);
    let run = |cfg| {
        let mut det = AnyDetector::new(cfg);
        let mut sched = PriorityOrder::new(vec![ThreadId(1), ThreadId(2), ThreadId(0)]);
        run_program(&prog, &mut det, &mut sched).expect_clean();
        det
    };
    let original = run(DetectorConfig::original());
    assert_eq!(original.sink.race_location_count(), 1, "{:?}", original.sink.reports());
    assert_eq!(original.sink.reports()[0].func, "Session::~Session");

    let hwlc = run(DetectorConfig::hwlc());
    assert_eq!(hwlc.sink.race_location_count(), 1, "HWLC alone does not help destructors");

    let hwlc_dr = run(DetectorConfig::hwlc_dr());
    assert_eq!(
        hwlc_dr.sink.race_location_count(),
        0,
        "DR annotation removes the destructor FP: {:?}",
        hwlc_dr.sink.reports()
    );

    // Unannotated code (source not available, §3.1) still warns under DR.
    let prog_unannotated = destructor_program(false);
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let mut sched = PriorityOrder::new(vec![ThreadId(1), ThreadId(2), ThreadId(0)]);
    run_program(&prog_unannotated, &mut det, &mut sched).expect_clean();
    assert_eq!(det.sink.race_location_count(), 1);
}

/// Fig 10 vs Fig 11: the same message-processing body driven thread-per-
/// request (ownership passes via create/join) or through a thread pool
/// (ownership passes via a queue the lockset algorithm cannot see).
fn handoff_program(thread_pool: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let q_cell = pb.global("queue_cell", 8);

    let ploc = pb.loc("pool.cpp", 44, "process_message");
    let mut pr = ProcBuilder::new(1);
    pr.at(ploc);
    let msg = pr.param(0);
    let v = pr.load_new(Expr::Reg(msg), 8);
    pr.store(Expr::Reg(msg), Expr::Reg(v).add(1u64.into()), 8);
    let process = pb.add_proc("process_message", pr);

    if thread_pool {
        // Pool worker created BEFORE the message exists (Fig 11).
        let wloc = pb.loc("pool.cpp", 10, "pool_worker");
        let mut w = ProcBuilder::new(0);
        w.at(wloc);
        let q = w.load_new(q_cell, 8);
        let m = w.reg();
        w.sync(SyncOp::QueueGet { queue: Expr::Reg(q), dst: m });
        w.call(process, vec![Expr::Reg(m)], None);
        let worker = pb.add_proc("pool_worker", w);

        let mloc = pb.loc("pool.cpp", 20, "main");
        let mut m = ProcBuilder::new(0);
        m.at(mloc);
        let q = m.new_sync(SyncKind::Queue, 4u64);
        m.store(q_cell, q, 8);
        let h = m.spawn(worker, vec![]); // worker first
        let msg = m.alloc(16u64);
        m.store(Expr::Reg(msg), 7u64, 8); // setup data AFTER create
        m.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Reg(msg) });
        m.join(h);
        let main_id = pb.add_proc("main", m);
        pb.set_entry(main_id);
    } else {
        // Thread-per-request (Fig 10): create after setup.
        let wloc = pb.loc("tpr.cpp", 10, "request_worker");
        let mut w = ProcBuilder::new(1);
        w.at(wloc);
        let msg = w.param(0);
        w.call(process, vec![Expr::Reg(msg)], None);
        let worker = pb.add_proc("request_worker", w);

        let mloc = pb.loc("tpr.cpp", 20, "main");
        let mut m = ProcBuilder::new(0);
        m.at(mloc);
        let msg = m.alloc(16u64);
        m.store(Expr::Reg(msg), 7u64, 8); // setup data, then create
        let h = m.spawn(worker, vec![Expr::Reg(msg)]);
        m.join(h);
        let v = m.load_new(Expr::Reg(msg), 8);
        m.assert_eq(v, 8u64, "processed");
        let main_id = pb.add_proc("main", m);
        pb.set_entry(main_id);
    }
    pb.finish()
}

#[test]
fn fig10_thread_per_request_is_clean() {
    let prog = handoff_program(false);
    let det = run_eraser(&prog, DetectorConfig::hwlc_dr());
    assert_eq!(det.sink.race_location_count(), 0, "{:?}", det.sink.reports());
}

#[test]
fn fig11_thread_pool_is_a_lockset_false_positive() {
    let prog = handoff_program(true);
    let det = run_eraser(&prog, DetectorConfig::hwlc_dr());
    assert!(
        det.sink.race_location_count() >= 1,
        "the lockset algorithm cannot see the queue hand-off"
    );
}

#[test]
fn e12_hybrid_with_queue_hb_clears_thread_pool_fp() {
    let prog = handoff_program(true);
    // Hybrid without queue knowledge still reports (both lockset and HB
    // flag the hand-off)...
    let mut plain = AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new());
    run_program(&prog, &mut plain, &mut RoundRobin::new()).expect_clean();
    assert!(plain.sink.race_location_count() >= 1);
    // ...while the §5 extension understands put/get edges.
    let mut qhb = AnyDetector::by_name(
        "hybrid-queue",
        DetectorConfig::hybrid_queue_hb(),
        SuppressionSet::new(),
    );
    run_program(&prog, &mut qhb, &mut RoundRobin::new()).expect_clean();
    assert_eq!(qhb.sink.race_location_count(), 0, "{:?}", qhb.sink.reports());
}

#[test]
fn djit_also_flags_thread_pool_without_queue_hb() {
    let prog = handoff_program(true);
    let mut det = AnyDetector::by_name("djit", DetectorConfig::djit(), SuppressionSet::new());
    run_program(&prog, &mut det, &mut RoundRobin::new()).expect_clean();
    assert!(det.sink.race_location_count() >= 1);
    let mut det =
        AnyDetector::by_name("djit", DetectorConfig::hybrid_queue_hb(), SuppressionSet::new());
    run_program(&prog, &mut det, &mut RoundRobin::new()).expect_clean();
    assert_eq!(det.sink.race_location_count(), 0);
}

/// §4.3: unlocked write in thread A, locked write in thread B. Whether the
/// race is reported depends on the schedule.
fn false_negative_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let data = pb.global("shared", 8);
    let m_cell = pb.global("mutex_cell", 8);

    let aloc = pb.loc("fn.cpp", 5, "writer_unlocked");
    let mut a = ProcBuilder::new(0);
    a.at(aloc);
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

#[test]
fn e6_false_negative_depends_on_schedule() {
    let prog = false_negative_program();
    // Main has top priority so both workers exist before either runs (it
    // blocks at the first join, then the listed worker goes first).
    // Unlocked writer first: lockset initialised at the *locked* write —
    // no warning (the documented false negative).
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let mut s1 = PriorityOrder::new(vec![ThreadId(0), ThreadId(1), ThreadId(2)]);
    run_program(&prog, &mut det, &mut s1).expect_clean();
    assert_eq!(det.sink.race_location_count(), 0, "§4.3 false negative");

    // Locked writer first: the unlocked write empties the lockset — warns.
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let mut s2 = PriorityOrder::new(vec![ThreadId(0), ThreadId(2), ThreadId(1)]);
    run_program(&prog, &mut det, &mut s2).expect_clean();
    assert_eq!(det.sink.race_location_count(), 1, "other schedule exposes it");
    assert_eq!(det.sink.reports()[0].func, "writer_unlocked");
}

/// Fig 7: a getter returns a reference to a lock-protected attribute; the
/// caller uses it outside the lock.
#[test]
fn fig7_returned_reference_defeats_lock() {
    let mut pb = ProgramBuilder::new();
    let map_cell = pb.global("domain_data", 8); // the map contents
    let m_cell = pb.global("mutex_cell", 8);

    // getDomainData(): lock guard, return &m_DomainData — the lock is
    // released on return, so the caller's use is unprotected.
    let gloc = pb.loc("server.cpp", 88, "ServerModulesManagerImpl::getDomainData");
    let mut g = ProcBuilder::new(0);
    g.at(gloc);
    let mx = g.load_new(m_cell, 8);
    g.lock(mx);
    g.unlock(mx); // MutexPtr guard destructs at return
    g.ret(Some(Expr::Global(map_cell)));
    let getter = pb.add_proc("ServerModulesManagerImpl::getDomainData", g);

    let wloc = pb.loc("server.cpp", 120, "handle_request");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let r = w.reg();
    w.call(getter, vec![], Some(r));
    let v = w.load_new(Expr::Reg(r), 8);
    w.store(Expr::Reg(r), Expr::Reg(v).add(1u64.into()), 8); // map insert, unprotected
    let worker = pb.add_proc("handle_request", w);

    let mloc = pb.loc("server.cpp", 10, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let mx = m.new_mutex();
    m.store(m_cell, mx, 8);
    let h1 = m.spawn(worker, vec![]);
    let h2 = m.spawn(worker, vec![]);
    m.join(h1);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let det = run_eraser(&prog, DetectorConfig::hwlc_dr());
    assert!(det.sink.race_location_count() >= 1, "the returned-reference bug is real");
    assert!(det.sink.reports().iter().any(|r| r.func == "handle_request"));
}

#[test]
fn lock_order_cycle_reported_through_detector() {
    let mut pb = ProgramBuilder::new();
    let ma = pb.global("ma", 8);
    let mb = pb.global("mb", 8);
    let loc = pb.loc("dl.cpp", 5, "worker");
    let mut w = ProcBuilder::new(2);
    w.at(loc);
    let f = w.load_new(Expr::Reg(w.param(0)), 8);
    let s = w.load_new(Expr::Reg(w.param(1)), 8);
    w.lock(f);
    w.lock(s);
    w.unlock(s);
    w.unlock(f);
    let worker = pb.add_proc("worker", w);
    let mloc = pb.loc("dl.cpp", 20, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let a = m.new_mutex();
    let b = m.new_mutex();
    m.store(ma, a, 8);
    m.store(mb, b, 8);
    // Sequential execution: no actual deadlock, but inverted order.
    let h1 = m.spawn(worker, vec![Expr::Global(ma), Expr::Global(mb)]);
    m.join(h1);
    let h2 = m.spawn(worker, vec![Expr::Global(mb), Expr::Global(ma)]);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let det = run_eraser(&prog, DetectorConfig::hwlc_dr());
    assert_eq!(det.sink.count_kind(ReportKind::LockOrderCycle), 1);
}

#[test]
fn suppression_file_silences_known_fp() {
    let prog = string_refcount_program();
    let supp = SuppressionSet::parse(
        "{\n   string-refcount\n   Helgrind:Race\n   fun:*_M_grab\n   ...\n}",
    )
    .unwrap();
    let mut det = AnyDetector::by_name("original", DetectorConfig::original(), supp);
    run_program(&prog, &mut det, &mut RoundRobin::new()).expect_clean();
    assert_eq!(det.sink.race_location_count(), 0);
    assert_eq!(det.sink.suppressed, 1);
}

#[test]
fn cond_wait_mutex_reacquire_counts_for_lockset() {
    // Data written under the mutex by a cond-waiting consumer must not
    // warn: the re-acquisition inside cond_wait keeps the lockset correct.
    let mut pb = ProgramBuilder::new();
    let data = pb.global("data", 8);
    let flag = pb.global("flag", 8);
    let cells = pb.global("cells", 16);

    let ploc = pb.loc("cv.cpp", 5, "producer");
    let mut p = ProcBuilder::new(0);
    p.at(ploc);
    let m = p.load_new(Expr::Global(cells), 8);
    let cv = p.load_new(Expr::Global(cells).add(8u64.into()), 8);
    p.lock(m);
    p.store(data, 41u64, 8);
    p.store(flag, 1u64, 8);
    p.sync(SyncOp::CondSignal(Expr::Reg(cv)));
    p.unlock(m);
    let producer = pb.add_proc("producer", p);

    let cloc = pb.loc("cv.cpp", 15, "consumer");
    let mut c = ProcBuilder::new(0);
    c.at(cloc);
    let m = c.load_new(Expr::Global(cells), 8);
    let cv = c.load_new(Expr::Global(cells).add(8u64.into()), 8);
    c.lock(m);
    let f = c.reg();
    c.load(f, flag, 8);
    c.begin_while(Cond::Eq(Expr::Reg(f), Expr::Const(0)));
    c.sync(SyncOp::CondWait { cond: Expr::Reg(cv), mutex: Expr::Reg(m) });
    c.load(f, flag, 8);
    c.end_while();
    let d = c.load_new(data, 8);
    c.store(data, Expr::Reg(d).add(1u64.into()), 8);
    c.unlock(m);
    let consumer = pb.add_proc("consumer", c);

    let mloc = pb.loc("cv.cpp", 30, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let mx = m.new_mutex();
    let cv = m.new_sync(SyncKind::CondVar, 0u64);
    m.store(cells, mx, 8);
    m.store(Expr::Global(cells).add(8u64.into()), cv, 8);
    let hc = m.spawn(consumer, vec![]);
    let hp = m.spawn(producer, vec![]);
    m.join(hc);
    m.join(hp);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    // Force the consumer to park first so cond_wait's release/re-acquire
    // path is actually exercised.
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let mut sched = PriorityOrder::new(vec![ThreadId(1), ThreadId(2), ThreadId(0)]);
    run_program(&prog, &mut det, &mut sched).expect_clean();
    assert_eq!(det.sink.race_location_count(), 0, "{:?}", det.sink.reports());
}

#[test]
fn reports_include_the_conflicting_access() {
    // Helgrind 3.x prints the previous conflicting access; so do we.
    let mut pb = ProgramBuilder::new();
    let g = pb.global("g", 8);
    let loc_a = pb.loc("conf.cpp", 5, "writer_a");
    let mut a = ProcBuilder::new(0);
    a.at(loc_a);
    a.store(g, 1u64, 8);
    let wa = pb.add_proc("writer_a", a);
    let loc_b = pb.loc("conf.cpp", 15, "writer_b");
    let mut b = ProcBuilder::new(0);
    b.at(loc_b);
    b.store(g, 2u64, 8);
    let wb = pb.add_proc("writer_b", b);
    let mut m = ProcBuilder::new(0);
    m.at(pb.loc("conf.cpp", 30, "main"));
    let h1 = m.spawn(wa, vec![]);
    let h2 = m.spawn(wb, vec![]);
    m.join(h1);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let mut sched = PriorityOrder::new(vec![ThreadId(0), ThreadId(1), ThreadId(2)]);
    run_program(&prog, &mut det, &mut sched).expect_clean();
    assert_eq!(det.sink.race_location_count(), 1);
    let rep = &det.sink.reports()[0];
    assert_eq!(rep.func, "writer_b", "the second writer triggers the warning");
    assert!(rep.details.contains("conflicts with a previous write by thread 1"), "{}", rep.details);
    assert!(rep.details.contains("conf.cpp:5"), "{}", rep.details);
}
