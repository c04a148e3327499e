//! Integration tests for VM execution semantics: thread lifecycle, blocking
//! synchronisation, condition variables, queues, deadlock detection and
//! scheduler determinism.

use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Cond, Expr, SyncKind, SyncOp};
use vexec::sched::{PriorityOrder, RoundRobin, Scheduler, SeededRandom};
use vexec::tool::{CountingTool, NullTool, RecordingTool, Tool};
use vexec::vm::{run_program, BlockOn, PreparedProgram, Termination, VmOptions, VmView};
use vexec::{Event, FaultPlan, ThreadId};

/// Two workers each increment a global counter `n` times under a mutex;
/// final value must be exactly 2n under every scheduler.
fn locked_counter_program(n: u64) -> vexec::Program {
    let mut pb = ProgramBuilder::new();
    let counter = pb.global("counter", 8);
    let mutex_cell = pb.global("mutex_cell", 8);

    let wloc = pb.loc("counter.cpp", 5, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let m = w.load_new(mutex_cell, 8);
    w.begin_repeat(n);
    w.lock(m);
    let v = w.load_new(counter, 8);
    w.store(counter, Expr::Reg(v).add(1u64.into()), 8);
    w.unlock(m);
    w.end_repeat();
    let worker = pb.add_proc("worker", w);

    let mloc = pb.loc("counter.cpp", 20, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let m = main.new_mutex();
    main.store(mutex_cell, m, 8);
    let h1 = main.spawn(worker, vec![]);
    let h2 = main.spawn(worker, vec![]);
    main.join(h1);
    main.join(h2);
    let fin = main.load_new(counter, 8);
    main.assert_eq(fin, 2 * n, "counter must equal 2n");
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    pb.finish()
}

#[test]
fn mutex_protects_counter_under_round_robin() {
    let prog = locked_counter_program(50);
    let mut tool = CountingTool::new();
    let r = run_program(&prog, &mut tool, &mut RoundRobin::new());
    assert!(r.termination.is_clean(), "{:?}", r.termination);
    assert_eq!(tool.count("acquire"), 100);
    assert_eq!(tool.count("release"), 100);
    assert!(tool.finished);
}

#[test]
fn mutex_protects_counter_under_random_schedules() {
    let prog = locked_counter_program(25);
    for seed in 0..20 {
        let mut tool = CountingTool::new();
        let r = run_program(&prog, &mut tool, &mut SeededRandom::new(seed));
        assert!(r.termination.is_clean(), "seed {seed}: {:?}", r.termination);
    }
}

#[test]
fn deterministic_event_trace_per_seed() {
    let prog = locked_counter_program(10);
    let mut t1 = RecordingTool::new();
    let mut t2 = RecordingTool::new();
    run_program(&prog, &mut t1, &mut SeededRandom::new(7));
    run_program(&prog, &mut t2, &mut SeededRandom::new(7));
    assert_eq!(t1.events, t2.events, "same seed must give identical traces");
}

#[test]
fn spawn_join_ordering_events() {
    let mut pb = ProgramBuilder::new();
    let g = pb.global("x", 8);
    let wloc = pb.loc("t.cpp", 2, "child");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    w.store(g, 1u64, 8);
    let child = pb.add_proc("child", w);

    let mloc = pb.loc("t.cpp", 9, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let h = main.spawn(child, vec![]);
    main.join(h);
    let v = main.load_new(g, 8);
    main.assert_eq(v, 1u64, "child write visible after join");
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let mut rec = RecordingTool::new();
    let r = run_program(&prog, &mut rec, &mut RoundRobin::new());
    assert!(r.termination.is_clean());

    let kinds: Vec<&str> = rec.events.iter().map(|e| e.kind_name()).collect();
    // create must precede the child's write; join must follow the child's exit.
    let create = kinds.iter().position(|&k| k == "thread-create").unwrap();
    let exit = kinds.iter().position(|&k| k == "thread-exit").unwrap();
    let join = kinds.iter().position(|&k| k == "thread-join").unwrap();
    assert!(create < exit && exit < join);
    assert_eq!(r.stats.threads_created, 2);
}

#[test]
fn ab_ba_lock_order_deadlocks() {
    let mut pb = ProgramBuilder::new();
    let ma = pb.global("mutex_a", 8);
    let mb = pb.global("mutex_b", 8);

    // worker(first, second): lock(first); yield; lock(second); unlock both
    let loc = pb.loc("dl.cpp", 4, "worker");
    let mut w = ProcBuilder::new(2);
    w.at(loc);
    let first = w.param(0);
    let second = w.param(1);
    let f = w.load_new(Expr::Reg(first), 8);
    w.lock(f);
    w.yield_();
    let s = w.load_new(Expr::Reg(second), 8);
    w.lock(s);
    w.unlock(s);
    w.unlock(f);
    let worker = pb.add_proc("worker", w);

    let mloc = pb.loc("dl.cpp", 16, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let a = main.new_mutex();
    let b = main.new_mutex();
    main.store(ma, a, 8);
    main.store(mb, b, 8);
    let h1 = main.spawn(worker, vec![Expr::Global(ma), Expr::Global(mb)]);
    let h2 = main.spawn(worker, vec![Expr::Global(mb), Expr::Global(ma)]);
    main.join(h1);
    main.join(h2);
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();

    // Round-robin interleaves finely enough that both workers grab their
    // first lock before either grabs its second: guaranteed deadlock.
    let mut tool = CountingTool::new();
    let r = run_program(&prog, &mut tool, &mut RoundRobin::new());
    match r.termination {
        Termination::Deadlock(waits) => {
            // Main blocked on join + two workers blocked on each other's mutex.
            assert_eq!(waits.len(), 3);
            let worker_waits: Vec<_> =
                waits.iter().filter(|w| matches!(w.on, BlockOn::Mutex(_))).collect();
            assert_eq!(worker_waits.len(), 2);
            // Each worker's wanted mutex is held by the other worker.
            for w in worker_waits {
                assert_eq!(w.holders.len(), 1);
                assert_ne!(w.holders[0], w.tid);
            }
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn priority_order_serialises_threads_avoiding_deadlock() {
    // Same AB-BA program, but a scheduler that runs worker 1 to completion
    // first cannot deadlock — schedule dependence in action (§4.3).
    let mut pb = ProgramBuilder::new();
    let ma = pb.global("mutex_a", 8);
    let mb = pb.global("mutex_b", 8);
    let loc = pb.loc("dl.cpp", 4, "worker");
    let mut w = ProcBuilder::new(2);
    w.at(loc);
    let f = w.load_new(Expr::Reg(w.param(0)), 8);
    w.lock(f);
    let s = w.load_new(Expr::Reg(w.param(1)), 8);
    w.lock(s);
    w.unlock(s);
    w.unlock(f);
    let worker = pb.add_proc("worker", w);
    let mloc = pb.loc("dl.cpp", 16, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let a = main.new_mutex();
    let b = main.new_mutex();
    main.store(ma, a, 8);
    main.store(mb, b, 8);
    let h1 = main.spawn(worker, vec![Expr::Global(ma), Expr::Global(mb)]);
    let h2 = main.spawn(worker, vec![Expr::Global(mb), Expr::Global(ma)]);
    main.join(h1);
    main.join(h2);
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let mut tool = CountingTool::new();
    let mut sched = PriorityOrder::new(vec![ThreadId(1), ThreadId(2), ThreadId(0)]);
    let r = run_program(&prog, &mut tool, &mut sched);
    assert!(r.termination.is_clean(), "{:?}", r.termination);
}

#[test]
fn condvar_handoff() {
    // Producer sets data then signals; consumer waits until flag is set.
    let mut pb = ProgramBuilder::new();
    let data = pb.global("data", 8);
    let flag = pb.global("flag", 8);
    let cells = pb.global("cells", 16); // [mutex, cond]

    let ploc = pb.loc("cv.cpp", 5, "producer");
    let mut p = ProcBuilder::new(0);
    p.at(ploc);
    let m = p.load_new(Expr::Global(cells), 8);
    let cv = p.load_new(Expr::Global(cells).add(8u64.into()), 8);
    p.store(data, 42u64, 8);
    p.lock(m);
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
    c.assert_eq(d, 42u64, "data visible after condvar handoff");
    c.unlock(m);
    let consumer = pb.add_proc("consumer", c);

    let mloc = pb.loc("cv.cpp", 30, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let m = main.new_mutex();
    let cv = main.new_sync(SyncKind::CondVar, 0u64);
    main.store(cells, m, 8);
    main.store(Expr::Global(cells).add(8u64.into()), cv, 8);
    // Spawn consumer first so it genuinely parks before the signal under
    // the priority scheduler used below.
    let hc = main.spawn(consumer, vec![]);
    let hp = main.spawn(producer, vec![]);
    main.join(hc);
    main.join(hp);
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();

    // Force consumer to park first: run it with top priority.
    let mut rec = RecordingTool::new();
    let mut sched = PriorityOrder::new(vec![ThreadId(1), ThreadId(2), ThreadId(0)]);
    let r = run_program(&prog, &mut rec, &mut sched);
    assert!(r.termination.is_clean(), "{:?}", r.termination);
    let kinds: Vec<&str> = rec.events.iter().map(|e| e.kind_name()).collect();
    assert!(kinds.contains(&"cond-signal"));
    assert!(kinds.contains(&"cond-wake"));
    // The wake must come after the signal.
    let sig = kinds.iter().position(|&k| k == "cond-signal").unwrap();
    let wake = kinds.iter().position(|&k| k == "cond-wake").unwrap();
    assert!(sig < wake);
    // And the wake event must name the signaller.
    match rec.events[wake] {
        Event::CondWake { signaler, .. } => assert_eq!(signaler, ThreadId(2)),
        _ => unreachable!(),
    }

    // Also passes under round-robin and random schedules (consumer may not
    // need to park at all if the producer wins the race; the while-loop
    // handles that).
    for seed in 0..10 {
        let mut t = CountingTool::new();
        let r = run_program(&prog, &mut t, &mut SeededRandom::new(seed));
        assert!(r.termination.is_clean(), "seed {seed}: {:?}", r.termination);
    }
}

#[test]
fn bounded_queue_blocks_producer_and_consumer() {
    // Producer pushes 20 values through a capacity-2 queue; consumer sums.
    let mut pb = ProgramBuilder::new();
    let qcell = pb.global("qcell", 8);
    let total = pb.global("total", 8);

    let ploc = pb.loc("q.cpp", 4, "producer");
    let mut p = ProcBuilder::new(0);
    p.at(ploc);
    let q = p.load_new(qcell, 8);
    let i = p.let_(1u64);
    p.begin_repeat(20u64);
    p.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Reg(i) });
    p.assign(i, Expr::Reg(i).add(1u64.into()));
    p.end_repeat();
    let producer = pb.add_proc("producer", p);

    let cloc = pb.loc("q.cpp", 14, "consumer");
    let mut c = ProcBuilder::new(0);
    c.at(cloc);
    let q = c.load_new(qcell, 8);
    let acc = c.let_(0u64);
    let v = c.reg();
    c.begin_repeat(20u64);
    c.sync(SyncOp::QueueGet { queue: Expr::Reg(q), dst: v });
    c.assign(acc, Expr::Reg(acc).add(Expr::Reg(v)));
    c.end_repeat();
    c.store(total, Expr::Reg(acc), 8);
    let consumer = pb.add_proc("consumer", c);

    let mloc = pb.loc("q.cpp", 25, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let q = main.new_sync(SyncKind::Queue, 2u64);
    main.store(qcell, q, 8);
    let hp = main.spawn(producer, vec![]);
    let hc = main.spawn(consumer, vec![]);
    main.join(hp);
    main.join(hc);
    let t = main.load_new(total, 8);
    main.assert_eq(t, (1..=20u64).sum::<u64>(), "queue must deliver all values");
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();

    for seed in 0..10 {
        let mut tool = CountingTool::new();
        let r = run_program(&prog, &mut tool, &mut SeededRandom::new(seed));
        assert!(r.termination.is_clean(), "seed {seed}: {:?}", r.termination);
        assert_eq!(tool.count("queue-put"), 20);
        assert_eq!(tool.count("queue-got"), 20);
    }
}

#[test]
fn queue_tokens_pair_puts_with_gets() {
    let mut pb = ProgramBuilder::new();
    let qcell = pb.global("qcell", 8);
    let loc = pb.loc("q.cpp", 4, "main");
    let mut main = ProcBuilder::new(0);
    main.at(loc);
    let q = main.new_sync(SyncKind::Queue, 4u64);
    main.store(qcell, q, 8);
    main.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Const(11) });
    main.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Const(22) });
    let d = main.reg();
    main.sync(SyncOp::QueueGet { queue: Expr::Reg(q), dst: d });
    main.assert_eq(Expr::Reg(d), 11u64, "fifo order");
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let mut rec = RecordingTool::new();
    run_program(&prog, &mut rec, &mut RoundRobin::new()).expect_clean();
    let puts: Vec<u64> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            Event::QueuePut { token, .. } => Some(*token),
            _ => None,
        })
        .collect();
    let gots: Vec<u64> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            Event::QueueGot { token, .. } => Some(*token),
            _ => None,
        })
        .collect();
    assert_eq!(puts, vec![0, 1]);
    assert_eq!(gots, vec![0]);
}

#[test]
fn semaphore_limits_concurrency() {
    // Gate of 1: semaphore acts as a lock around an unprotected counter.
    let mut pb = ProgramBuilder::new();
    let scell = pb.global("scell", 8);
    let counter = pb.global("counter", 8);
    let loc = pb.loc("sem.cpp", 4, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(loc);
    let s = w.load_new(scell, 8);
    w.begin_repeat(10u64);
    w.sync(SyncOp::SemWait(Expr::Reg(s)));
    let v = w.load_new(counter, 8);
    w.store(counter, Expr::Reg(v).add(1u64.into()), 8);
    w.sync(SyncOp::SemPost(Expr::Reg(s)));
    w.end_repeat();
    let worker = pb.add_proc("worker", w);
    let mloc = pb.loc("sem.cpp", 15, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let s = main.new_sync(SyncKind::Semaphore, 1u64);
    main.store(scell, s, 8);
    let h1 = main.spawn(worker, vec![]);
    let h2 = main.spawn(worker, vec![]);
    main.join(h1);
    main.join(h2);
    let v = main.load_new(counter, 8);
    main.assert_eq(v, 20u64, "semaphore-gated counter");
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();
    for seed in 0..10 {
        let mut tool = CountingTool::new();
        let r = run_program(&prog, &mut tool, &mut SeededRandom::new(seed));
        assert!(r.termination.is_clean(), "seed {seed}: {:?}", r.termination);
    }
}

#[test]
fn rwlock_blocks_writer_until_readers_leave() {
    let mut pb = ProgramBuilder::new();
    let rwcell = pb.global("rwcell", 8);
    let data = pb.global("data", 8);
    let rloc = pb.loc("rw.cpp", 4, "reader");
    let mut rd = ProcBuilder::new(0);
    rd.at(rloc);
    let rw = rd.load_new(rwcell, 8);
    rd.begin_repeat(5u64);
    rd.sync(SyncOp::RwLockRead(Expr::Reg(rw)));
    let _v = rd.load_new(data, 8);
    rd.sync(SyncOp::RwUnlock(Expr::Reg(rw)));
    rd.end_repeat();
    let reader = pb.add_proc("reader", rd);

    let wloc = pb.loc("rw.cpp", 12, "writer");
    let mut wr = ProcBuilder::new(0);
    wr.at(wloc);
    let rw = wr.load_new(rwcell, 8);
    wr.begin_repeat(5u64);
    wr.sync(SyncOp::RwLockWrite(Expr::Reg(rw)));
    let v = wr.load_new(data, 8);
    wr.store(data, Expr::Reg(v).add(1u64.into()), 8);
    wr.sync(SyncOp::RwUnlock(Expr::Reg(rw)));
    wr.end_repeat();
    let writer = pb.add_proc("writer", wr);

    let mloc = pb.loc("rw.cpp", 22, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let rw = main.new_sync(SyncKind::RwLock, 0u64);
    main.store(rwcell, rw, 8);
    let h1 = main.spawn(reader, vec![]);
    let h2 = main.spawn(reader, vec![]);
    let h3 = main.spawn(writer, vec![]);
    main.join(h1);
    main.join(h2);
    main.join(h3);
    let v = main.load_new(data, 8);
    main.assert_eq(v, 5u64, "writer increments land");
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();
    for seed in 0..10 {
        let mut tool = CountingTool::new();
        let r = run_program(&prog, &mut tool, &mut SeededRandom::new(seed));
        assert!(r.termination.is_clean(), "seed {seed}: {:?}", r.termination);
    }
}

#[test]
fn guest_error_on_unlock_of_unowned_mutex() {
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 3, "main");
    let mut main = ProcBuilder::new(0);
    main.at(loc);
    let m = main.new_mutex();
    main.unlock(m);
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();
    let mut tool = CountingTool::new();
    let r = run_program(&prog, &mut tool, &mut RoundRobin::new());
    assert!(matches!(r.termination, Termination::GuestError(_)));
}

#[test]
fn guest_error_on_use_after_free_free() {
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 3, "main");
    let mut main = ProcBuilder::new(0);
    main.at(loc);
    let p = main.alloc(32u64);
    main.free(p);
    main.free(p); // double free
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();
    let mut tool = CountingTool::new();
    let r = run_program(&prog, &mut tool, &mut RoundRobin::new());
    assert!(matches!(r.termination, Termination::GuestError(_)));
}

#[test]
fn recursion_works_and_overflow_is_caught() {
    // fib via recursion exercises call/ret value plumbing.
    let mut pb = ProgramBuilder::new();
    let fib = pb.declare_proc("fib");
    let loc = pb.loc("fib.cpp", 1, "fib");
    let mut f = ProcBuilder::new(1);
    f.at(loc);
    let n = f.param(0);
    f.begin_if(Cond::Lt(Expr::Reg(n), Expr::Const(2)));
    f.ret(Some(Expr::Reg(n)));
    f.end_if();
    let a = f.reg();
    let b = f.reg();
    f.call(fib, vec![Expr::Reg(n).sub(1u64.into())], Some(a));
    f.call(fib, vec![Expr::Reg(n).sub(2u64.into())], Some(b));
    f.ret(Some(Expr::Reg(a).add(Expr::Reg(b))));
    pb.define_proc(fib, f);

    let mloc = pb.loc("fib.cpp", 10, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let r = main.reg();
    main.call(fib, vec![Expr::Const(10)], Some(r));
    main.assert_eq(Expr::Reg(r), 55u64, "fib(10)");
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();
    let mut tool = CountingTool::new();
    run_program(&prog, &mut tool, &mut RoundRobin::new()).expect_clean();
}

#[test]
fn client_requests_reach_tools() {
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("annot.cpp", 7, "g");
    let mut main = ProcBuilder::new(0);
    main.at(loc);
    let p = main.alloc(24u64);
    main.hg_destruct(p, 24u64);
    main.free(p);
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();
    let mut rec = RecordingTool::new();
    run_program(&prog, &mut rec, &mut RoundRobin::new()).expect_clean();
    let destructs: Vec<_> = rec
        .events
        .iter()
        .filter(|e| matches!(e, Event::Client { req: vexec::ClientEv::HgDestruct { .. }, .. }))
        .collect();
    assert_eq!(destructs.len(), 1);
}

/// Runs the highest-id runnable thread and records the runnable list that
/// every pick sees: `picks[s]` is what the pick after slot `s` saw.
#[derive(Default)]
struct RecordingScheduler {
    picks: Vec<Vec<ThreadId>>,
}

impl Scheduler for RecordingScheduler {
    fn pick(&mut self, runnable: &[ThreadId], slot: u64) -> usize {
        assert_eq!(slot as usize, self.picks.len());
        self.picks.push(runnable.to_vec());
        runnable.len() - 1
    }
}

/// Records every event with the slot that produced it.
#[derive(Default)]
struct SlotEvents(Vec<(u64, Event)>);

impl Tool for SlotEvents {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        self.0.push((vm.slot(), *ev));
    }
}

/// Main makes a sync object of `kind`, spawns three workers that block on
/// it, and releases it. Returns the runnable list the first pick after
/// main's first event of `release` kind saw.
fn runnable_after_release(
    kind: SyncKind,
    worker: impl FnOnce(&mut ProcBuilder, vexec::ir::GlobalId),
    main_release: impl FnOnce(&mut ProcBuilder, vexec::ir::GlobalId),
    release: &str,
) -> Vec<ThreadId> {
    let mut pb = ProgramBuilder::new();
    let cells = pb.global("cells", 16); // [object, condvar]
    let loc = pb.loc("wake.cpp", 4, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(loc);
    worker(&mut w, cells);
    let worker = pb.add_proc("worker", w);

    let loc = pb.loc("wake.cpp", 12, "main");
    let mut main = ProcBuilder::new(0);
    main.at(loc);
    let obj = main.new_sync(kind, 0u64);
    let cv = main.new_sync(SyncKind::CondVar, 0u64);
    main.store(cells, obj, 8);
    main.store(Expr::Global(cells).add(8u64.into()), cv, 8);
    if kind == SyncKind::Mutex {
        main.lock(obj);
    }
    let hs: Vec<_> = (0..3).map(|_| main.spawn(worker, vec![])).collect();
    main_release(&mut main, cells);
    for h in hs {
        main.join(h);
    }
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let mut tool = SlotEvents::default();
    let mut sched = RecordingScheduler::default();
    let r = run_program(&prog, &mut tool, &mut sched);
    assert!(r.termination.is_clean(), "{:?}", r.termination);
    let (slot, _) = tool
        .0
        .iter()
        .find(|(_, ev)| ev.tid() == ThreadId::MAIN && ev.kind_name() == release)
        .expect("main releases the object");
    sched.picks[*slot as usize].clone()
}

/// A mutex release wakes one waiter, the lowest-id one; a semaphore post
/// still wakes every waiter.
#[test]
fn a_release_wakes_the_lowest_id_mutex_waiter_only() {
    let t = |ids: &[u32]| ids.iter().map(|&i| ThreadId(i)).collect::<Vec<_>>();
    let lock_unlock = |w: &mut ProcBuilder, cells| {
        let m = w.load_new(Expr::Global(cells), 8);
        w.lock(m);
        w.unlock(m);
    };

    // Main holds the mutex while the workers block on it, then unlocks.
    let unlock = |main: &mut ProcBuilder, cells| {
        let m = main.load_new(Expr::Global(cells), 8);
        main.unlock(m);
    };
    let seen = runnable_after_release(SyncKind::Mutex, lock_unlock, unlock, "release");
    assert_eq!(seen, t(&[0, 1]), "unlock wakes worker 1 only");

    // Main waits on a condvar instead of unlocking; the wait releases the
    // mutex. A worker that gets the mutex signals main back.
    let signal = |w: &mut ProcBuilder, cells| {
        let m = w.load_new(Expr::Global(cells), 8);
        let cv = w.load_new(Expr::Global(cells).add(8u64.into()), 8);
        w.lock(m);
        w.sync(SyncOp::CondSignal(Expr::Reg(cv)));
        w.unlock(m);
    };
    let wait = |main: &mut ProcBuilder, cells| {
        let m = main.load_new(Expr::Global(cells), 8);
        let cv = main.load_new(Expr::Global(cells).add(8u64.into()), 8);
        main.sync(SyncOp::CondWait { cond: Expr::Reg(cv), mutex: Expr::Reg(m) });
        main.unlock(m);
    };
    let seen = runnable_after_release(SyncKind::Mutex, signal, wait, "release");
    assert_eq!(seen, t(&[1]), "the wait's release wakes worker 1 only");

    // Three workers wait on a semaphore; main's first post wakes them all.
    let sem_wait = |w: &mut ProcBuilder, cells| {
        let s = w.load_new(Expr::Global(cells), 8);
        w.sync(SyncOp::SemWait(Expr::Reg(s)));
    };
    let post = |main: &mut ProcBuilder, cells| {
        let s = main.load_new(Expr::Global(cells), 8);
        for _ in 0..3 {
            main.sync(SyncOp::SemPost(Expr::Reg(s)));
        }
    };
    let seen = runnable_after_release(SyncKind::Semaphore, sem_wait, post, "sem-post");
    assert_eq!(seen, t(&[0, 1, 2, 3]), "a post wakes every waiter");
}

/// A mutex release wakes one waiter. If that waiter is killed before it
/// retries, the kill hands the wakeup on; otherwise the other waiters
/// sleep on a free mutex and the run ends in a deadlock no leaked lock
/// explains. Sweeps seeded kill plans against seeded schedules of three
/// workers contending for one mutex.
#[test]
fn a_killed_waiter_hands_its_wakeup_on() {
    let mut pb = ProgramBuilder::new();
    let cell = pb.global("mutex_cell", 8);
    let data = pb.global("data", 8);
    let loc = pb.loc("handon.cpp", 4, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(loc);
    let m = w.load_new(cell, 8);
    w.lock(m);
    w.store(data, 1u64, 8);
    w.store(data, 2u64, 8);
    w.unlock(m);
    let worker = pb.add_proc("worker", w);
    let loc = pb.loc("handon.cpp", 12, "main");
    let mut main = ProcBuilder::new(0);
    main.at(loc);
    let m = main.new_mutex();
    main.store(cell, m, 8);
    let hs: Vec<_> = (0..3).map(|_| main.spawn(worker, vec![])).collect();
    for h in hs {
        main.join(h);
    }
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    let flat = pb.finish().lower();
    let prepared = PreparedProgram::new(&flat);

    let (mut killed, mut leaked) = (0, 0);
    for plan_seed in 0..64u64 {
        for sched_seed in 0..50u64 {
            let plan = FaultPlan {
                seed: plan_seed,
                kill_permille: 150,
                max_kills: 1,
                ..FaultPlan::disabled()
            };
            let opts = VmOptions { faults: Some(plan), ..VmOptions::default() };
            let r = prepared.run(&mut NullTool, &mut SeededRandom::new(sched_seed), opts);
            let f = r.faults.expect("a plan was attached");
            killed += u32::from(f.kills > 0);
            match r.termination {
                Termination::AllExited => {}
                Termination::Deadlock(_) if f.leaked_locks > 0 => leaked += 1,
                other => panic!(
                    "plan {plan_seed}, schedule {sched_seed}: {other:?} with {} leaked lock(s)",
                    f.leaked_locks
                ),
            }
        }
    }
    assert!(
        killed > 1000 && leaked > 100,
        "the sweep kills workers: {killed} kills, {leaked} leaks"
    );
}
