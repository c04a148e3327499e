//! Native-execution counterpart of the proxy workload, for the §4.5
//! performance experiment (E7): the paper reports the server running 8–10×
//! slower on the bare Valgrind VM and 20–30× slower with analysis, versus
//! native execution.
//!
//! [`native_workload`] runs the same logical work (locked session updates,
//! atomic refcount traffic, unlocked stats) on real OS threads;
//! [`vm_workload_program`] builds the equivalent guest program, which the
//! benchmark harness executes with `NullTool` (bare VM) and with each
//! detector attached.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Expr, Program};

/// Workload size parameters (shared by the native and VM variants).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub threads: usize,
    pub iterations: u64,
    /// Per-iteration message-parse phase: each worker re-reads the two
    /// fields of its thread-private parse block this many times (header
    /// scan over a buffer that cannot change under its feet — the
    /// canonical redundant-access pattern the filter cache targets).
    pub parse_reads: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec { threads: 4, iterations: 2_000, parse_reads: 16 }
    }
}

/// Run the workload on real OS threads. Returns the final counter value
/// (used to keep the optimiser honest and to cross-check the VM variant).
pub fn native_workload(spec: WorkloadSpec) -> u64 {
    let session = Arc::new(Mutex::new(0u64));
    let refcount = Arc::new(AtomicU64::new(1));
    let handles: Vec<_> = (0..spec.threads)
        .map(|_| {
            let session = Arc::clone(&session);
            let refcount = Arc::clone(&refcount);
            std::thread::spawn(move || {
                // Thread-private parse block (header kind + length).
                let parse_block = [0u64, 0u64];
                for _ in 0..spec.iterations {
                    {
                        let mut s = session.lock().unwrap();
                        *s += 1;
                    }
                    // COW-string-style refcount churn (bus-locked RMW).
                    refcount.fetch_add(1, Ordering::SeqCst);
                    refcount.fetch_sub(1, Ordering::SeqCst);
                    // Parse phase: repeated reads of the private header.
                    for _ in 0..spec.parse_reads {
                        std::hint::black_box(parse_block[0]);
                        std::hint::black_box(parse_block[1]);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let v = *session.lock().unwrap();
    assert_eq!(v, spec.threads as u64 * spec.iterations);
    v
}

/// The equivalent guest program.
pub fn vm_workload_program(spec: WorkloadSpec) -> Program {
    let mut pb = ProgramBuilder::new();
    let session = pb.global("g_session", 8);
    let refcount = pb.global("g_refcount", 8);
    let m_cell = pb.global("g_mutex", 8);
    // One 16-byte thread-private parse block per worker (header kind +
    // length), handed to each worker by address. Only its owner ever
    // touches it, so the repeated header reads below are exactly the
    // redundant accesses a filter cache can elide.
    let stats = pb.global("g_parse", (spec.threads.max(1) as u64) * 16);

    let wloc = pb.loc("workload.cpp", 10, "worker");
    let ploc = pb.loc("workload.cpp", 18, "worker");
    let mut w = ProcBuilder::new(1);
    let block = w.param(0);
    w.at(wloc);
    let mx = w.load_new(m_cell, 8);
    w.begin_repeat(spec.iterations);
    w.lock(mx);
    let v = w.load_new(session, 8);
    w.store(session, Expr::Reg(v).add(1u64.into()), 8);
    w.unlock(mx);
    w.atomic_rmw(None, Expr::Global(refcount), 1u64, 8);
    w.atomic_rmw(None, Expr::Global(refcount), (-1i64) as u64, 8);
    // Parse phase: scan the private header repeatedly between sync ops.
    // Unrolled 4× so the loop-counter bookkeeping doesn't dwarf the access
    // events themselves (the native compiler unrolls the matching loop
    // too) — the remainder pairs are emitted straight-line after the loop.
    w.at(ploc);
    if spec.parse_reads >= 4 {
        w.begin_repeat(spec.parse_reads / 4);
        for _ in 0..4 {
            w.load_new(Expr::Reg(block), 8);
            w.load_new(Expr::Reg(block).add(Expr::Const(8)), 8);
        }
        w.end_repeat();
    }
    for _ in 0..spec.parse_reads % 4 {
        w.load_new(Expr::Reg(block), 8);
        w.load_new(Expr::Reg(block).add(Expr::Const(8)), 8);
    }
    w.at(wloc);
    w.end_repeat();
    let worker = pb.add_proc("worker", w);

    let mloc = pb.loc("workload.cpp", 30, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let mx = m.new_mutex();
    m.store(m_cell, mx, 8);
    m.store(refcount, 1u64, 8);
    let mut joins = Vec::new();
    for i in 0..spec.threads {
        let block = Expr::Global(stats).add(Expr::Const(i as u64 * 16));
        joins.push(m.spawn(worker, vec![block]));
    }
    for h in joins {
        m.join(h);
    }
    // Read the result under the lock: once a location is SHARED-MODIFIED,
    // the Eraser state machine never reverts it, so an unlocked read here
    // would (correctly, per the algorithm) be reported.
    m.lock(mx);
    let fin = m.load_new(session, 8);
    m.unlock(mx);
    m.assert_eq(fin, spec.threads as u64 * spec.iterations, "all increments landed");
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::sched::RoundRobin;
    use vexec::tool::NullTool;
    use vexec::vm::run_program;

    #[test]
    fn native_workload_computes_expected_total() {
        let spec = WorkloadSpec { threads: 3, iterations: 100, parse_reads: 8 };
        assert_eq!(native_workload(spec), 300);
    }

    #[test]
    fn vm_workload_matches_native_semantics() {
        let spec = WorkloadSpec { threads: 3, iterations: 50, parse_reads: 8 };
        let prog = vm_workload_program(spec);
        let mut tool = NullTool;
        let r = run_program(&prog, &mut tool, &mut RoundRobin::new());
        assert!(r.termination.is_clean(), "{:?}", r.termination);
    }

    #[test]
    fn vm_workload_is_race_free_under_detector() {
        use helgrind_core::{AnyDetector, DetectorConfig};
        let spec = WorkloadSpec { threads: 3, iterations: 20, parse_reads: 8 };
        let prog = vm_workload_program(spec);
        let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
        run_program(&prog, &mut det, &mut RoundRobin::new()).expect_clean();
        assert_eq!(det.sink.race_location_count(), 0, "{:?}", det.sink.reports());
    }

    #[test]
    fn vm_workload_parse_phase_is_filterable() {
        use helgrind_core::{AnyDetector, DetectorConfig};
        use vexec::filter::FilterTool;
        let spec = WorkloadSpec { threads: 3, iterations: 20, parse_reads: 8 };
        let prog = vm_workload_program(spec);
        let mut filtered = FilterTool::new(AnyDetector::new(DetectorConfig::hwlc_dr()));
        run_program(&prog, &mut filtered, &mut RoundRobin::new()).expect_clean();
        let (det, stats) = filtered.into_parts();
        assert_eq!(det.sink.race_location_count(), 0, "{:?}", det.sink.reports());
        // The parse phase exists precisely so the filter has something to
        // elide: (parse_reads - 1) of each header-read pair per iteration.
        assert!(
            stats.hit_rate() > 0.4,
            "expected a warm filter on the bench workload, got {:?} (hit rate {:.3})",
            stats,
            stats.hit_rate()
        );
    }
}
