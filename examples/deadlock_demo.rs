//! Deadlock detection (§2.1, §3.3): the lock-order graph predicts an AB-BA
//! inversion even on a run that happens to finish, and the VM itself
//! reports the wait-for cycle when the dining philosophers actually stall.
//!
//! Run with: `cargo run --example deadlock_demo`

use raceline::prelude::*;

/// worker(first, second): lock both in the given order.
fn ab_ba_program(serialized: bool) -> Program {
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
        // Sequential execution: never actually deadlocks, but the order
        // inversion is still there for the lock-order graph to find.
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

/// Dining philosophers, all grabbing left then right.
fn philosophers(n: u64) -> Program {
    let mut pb = ProgramBuilder::new();
    let forks = pb.global("g_forks", 8 * n);
    let loc = pb.loc("dining.cpp", 8, "philosopher");
    let mut w = ProcBuilder::new(2);
    w.at(loc);
    let left = w.load_new(Expr::Reg(w.param(0)), 8);
    let right = w.load_new(Expr::Reg(w.param(1)), 8);
    w.lock(left);
    w.yield_(); // think with one fork in hand
    w.lock(right);
    w.unlock(right);
    w.unlock(left);
    let phil = pb.add_proc("philosopher", w);

    let mloc = pb.loc("dining.cpp", 25, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    for i in 0..n {
        let f = m.new_mutex();
        m.store(Expr::Global(forks).add(Expr::Const(8 * i)), f, 8);
    }
    let mut joins = Vec::new();
    for i in 0..n {
        let l = Expr::Global(forks).add(Expr::Const(8 * i));
        let r = Expr::Global(forks).add(Expr::Const(8 * ((i + 1) % n)));
        joins.push(m.spawn(phil, vec![l, r]));
    }
    for h in joins {
        m.join(h);
    }
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

fn main() {
    // 1. Prediction: the serialized AB-BA run finishes cleanly, yet the
    //    lock-order graph reports the inversion.
    let program = ab_ba_program(true);
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let r = run_program(&program, &mut det, &mut RoundRobin::new());
    println!("serialized AB-BA run: {:?}", r.termination);
    for rep in det.sink.reports() {
        println!("{}", rep.render());
    }
    assert!(r.termination.is_clean());
    assert_eq!(det.sink.count_kind(ReportKind::LockOrderCycle), 1);

    // 2. Actual deadlock: fine-grained interleaving stalls both workers;
    //    the VM reports who waits for whom.
    let program = ab_ba_program(false);
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let r = run_program(&program, &mut det, &mut RoundRobin::new());
    match &r.termination {
        Termination::Deadlock(waits) => {
            println!("\nconcurrent AB-BA run deadlocked; wait-for graph:");
            for w in waits {
                println!(
                    "  thread {} blocked on {:?}, held by {:?}",
                    w.tid.0,
                    w.on,
                    w.holders.iter().map(|t| t.0).collect::<Vec<_>>()
                );
            }
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }

    // 3. Dining philosophers: classic circular wait.
    let program = philosophers(5);
    let mut tool = NullTool;
    let r = run_program(&program, &mut tool, &mut RoundRobin::new());
    match &r.termination {
        Termination::Deadlock(waits) => {
            println!(
                "\n5 dining philosophers deadlocked: {} threads in the cycle",
                waits.len() - 1
            );
        }
        other => println!("\nphilosophers finished without deadlock: {other:?}"),
    }
}
