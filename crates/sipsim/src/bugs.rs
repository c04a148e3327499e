//! The §4.1 true-positive catalogue: each real bug class the paper found
//! in the server, as a small standalone guest program with a known
//! expected warning (E8). These are the positives that must *survive* the
//! HWLC+DR improvements.

use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Expr, Program};

/// A catalogued bug: the program, the paper section it comes from, and the
/// function name the warning should appear in.
pub struct BugScenario {
    pub name: &'static str,
    pub section: &'static str,
    pub program: Program,
    /// Function expected to appear in at least one race report.
    pub expected_func: &'static str,
    /// Thread priority order that exposes the bug deterministically
    /// (passed to `PriorityOrder`); `None` = any schedule.
    pub schedule: Option<Vec<u32>>,
}

/// Fig 7 / §4.1.2: a getter that locks internally but returns a reference
/// to the protected attribute; callers mutate it unlocked.
pub fn returned_reference() -> BugScenario {
    let mut pb = ProgramBuilder::new();
    let data = pb.global("m_DomainData", 8);
    let m_cell = pb.global("m_pMutex", 8);

    let gloc = pb.loc("ServerModulesManagerImpl.cpp", 88, "getDomainData");
    let mut g = ProcBuilder::new(0);
    g.at(gloc);
    let mx = g.load_new(m_cell, 8);
    g.lock(mx);
    g.unlock(mx);
    g.ret(Some(Expr::Global(data)));
    let getter = pb.add_proc("getDomainData", g);

    let wloc = pb.loc("ServerModulesManagerImpl.cpp", 140, "updateDomain");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let r = w.reg();
    w.call(getter, vec![], Some(r));
    let v = w.load_new(Expr::Reg(r), 8);
    w.store(Expr::Reg(r), Expr::Reg(v).add(1u64.into()), 8);
    let worker = pb.add_proc("updateDomain", w);

    let mloc = pb.loc("main.cpp", 5, "main");
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
    BugScenario {
        name: "returned-reference",
        section: "§4.1.2 / Fig 7",
        program: pb.finish(),
        expected_func: "updateDomain",
        schedule: None,
    }
}

/// §4.1.1: a thread is started before the data structure it uses is fully
/// initialised (the main thread finishes initialisation after the spawn).
pub fn init_order() -> BugScenario {
    let mut pb = ProgramBuilder::new();
    let table = pb.global("g_routing_table", 8);

    let wloc = pb.loc("router.cpp", 30, "routing_worker");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let _v = w.load_new(table, 8); // may read before init completes
    let worker = pb.add_proc("routing_worker", w);

    let mloc = pb.loc("router.cpp", 60, "Router::start");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let h = m.spawn(worker, vec![]);
    m.store(table, 0xCAFE_u64, 8); // initialisation AFTER the spawn
    m.join(h);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    BugScenario {
        name: "init-order",
        section: "§4.1.1",
        program: pb.finish(),
        expected_func: "Router::start",
        // Worker's read must land before main's late write.
        schedule: Some(vec![1, 0]),
    }
}

/// §4.1.1: on shutdown, a data structure is destroyed while a thread still
/// uses it.
pub fn shutdown_order() -> BugScenario {
    let mut pb = ProgramBuilder::new();
    let stats = pb.global("g_stats", 8);
    let stop = pb.global("g_stop", 8);

    let wloc = pb.loc("stats.cpp", 20, "stats_worker");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    w.begin_repeat(3u64);
    let v = w.load_new(stats, 8);
    w.store(stats, Expr::Reg(v).add(1u64.into()), 8);
    w.yield_();
    w.end_repeat();
    w.store(stop, 1u64, 8);
    let worker = pb.add_proc("stats_worker", w);

    let mloc = pb.loc("stats.cpp", 50, "Server::shutdown");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let h = m.spawn(worker, vec![]);
    // Shutdown "destroys" the stats structure without joining first.
    m.store(stats, 0u64, 8);
    m.join(h);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    BugScenario {
        name: "shutdown-order",
        section: "§4.1.1",
        program: pb.finish(),
        expected_func: "Server::shutdown",
        schedule: Some(vec![1, 0]),
    }
}

/// §4.1.3: `localtime` and friends return pointers to static data.
pub fn unsafe_libc() -> BugScenario {
    let mut pb = ProgramBuilder::new();
    let buf = pb.global("static_tm", 8);

    let lloc = pb.loc("libc/time.c", 2201, "localtime");
    let mut l = ProcBuilder::new(1);
    l.at(lloc);
    l.store(buf, Expr::Reg(l.param(0)), 8);
    l.ret(Some(Expr::Global(buf)));
    let localtime = pb.add_proc("localtime", l);

    let wloc = pb.loc("logger.cpp", 77, "log_line");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let r = w.reg();
    w.call(localtime, vec![Expr::Const(1_183_000_000)], Some(r));
    let _tm = w.load_new(Expr::Reg(r), 8);
    let worker = pb.add_proc("log_line", w);

    let mloc = pb.loc("main.cpp", 5, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let h1 = m.spawn(worker, vec![]);
    let h2 = m.spawn(worker, vec![]);
    m.join(h1);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    BugScenario {
        name: "unsafe-libc",
        section: "§4.1.3",
        program: pb.finish(),
        expected_func: "localtime",
        schedule: None,
    }
}

/// §4: "One of the first reported data races was in the application's
/// deadlock detection code" — a watchdog that scans lock-owner bookkeeping
/// without synchronisation.
pub fn racy_deadlock_detector() -> BugScenario {
    let mut pb = ProgramBuilder::new();
    let owner_table = pb.global("g_lock_owner", 8);
    let m_cell = pb.global("g_mutex", 8);

    // Workers record the owner in a side table the watchdog reads — the
    // bookkeeping writes are inside the critical section, but the watchdog
    // reads without the lock.
    let wloc = pb.loc("dlock.cpp", 15, "locked_work");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let mx = w.load_new(m_cell, 8);
    w.begin_repeat(3u64);
    w.lock(mx);
    w.store(owner_table, 1u64, 8);
    w.store(owner_table, 0u64, 8);
    w.unlock(mx);
    w.end_repeat();
    let worker = pb.add_proc("locked_work", w);

    let dloc = pb.loc("dlock.cpp", 40, "deadlock_watchdog");
    let mut d = ProcBuilder::new(0);
    d.at(dloc);
    d.begin_repeat(3u64);
    let _o = d.load_new(owner_table, 8); // unlocked scan
    d.yield_();
    d.end_repeat();
    let watchdog = pb.add_proc("deadlock_watchdog", d);

    let mloc = pb.loc("main.cpp", 5, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let mx = m.new_mutex();
    m.store(m_cell, mx, 8);
    let h1 = m.spawn(worker, vec![]);
    let h2 = m.spawn(watchdog, vec![]);
    m.join(h1);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    BugScenario {
        name: "racy-deadlock-detector",
        section: "§4.1",
        program: pb.finish(),
        // The unlocked scan in the watchdog is where the lockset empties.
        expected_func: "deadlock_watchdog",
        schedule: None,
    }
}

/// All catalogued true-positive scenarios.
pub fn all_bugs() -> Vec<BugScenario> {
    vec![
        returned_reference(),
        init_order(),
        shutdown_order(),
        unsafe_libc(),
        racy_deadlock_detector(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use helgrind_core::{AnyDetector, DetectorConfig};
    use vexec::sched::{PriorityOrder, RoundRobin, Scheduler};
    use vexec::vm::run_program;
    use vexec::ThreadId;

    #[test]
    fn every_bug_detected_under_hwlc_dr() {
        // The whole point of the improvements: real bugs keep being found.
        for bug in all_bugs() {
            let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
            let mut sched: Box<dyn Scheduler> = match &bug.schedule {
                Some(order) => {
                    Box::new(PriorityOrder::new(order.iter().map(|&t| ThreadId(t)).collect()))
                }
                None => Box::new(RoundRobin::new()),
            };
            let r = run_program(&bug.program, &mut det, sched.as_mut());
            assert!(r.termination.is_clean(), "{}: {:?}", bug.name, r.termination);
            assert!(
                det.sink.race_location_count() >= 1,
                "{} ({}) must be detected",
                bug.name,
                bug.section
            );
            assert!(
                det.sink.reports().iter().any(|rep| rep
                    .stack
                    .iter()
                    .any(|f| f.func.contains(bug.expected_func))
                    || rep.func.contains(bug.expected_func)),
                "{}: expected a warning involving {}, got {:#?}",
                bug.name,
                bug.expected_func,
                det.sink.reports()
            );
        }
    }

    #[test]
    fn watchdog_race_is_schedule_independent_for_lockset() {
        // The lockset algorithm finds the watchdog race regardless of
        // whether the scan interleaves with the critical section.
        for seed in 0..5 {
            let bug = racy_deadlock_detector();
            let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
            let mut sched = vexec::sched::SeededRandom::new(seed);
            run_program(&bug.program, &mut det, &mut sched).expect_clean();
            assert!(det.sink.race_location_count() >= 1, "seed {seed}");
        }
    }
}
