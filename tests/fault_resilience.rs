//! Property-based chaos tests: for *arbitrary* seeded fault plans — not
//! just the bounded ones `FaultPlan::from_seed` derives — the VM and every
//! detector must (a) never panic on the host, whatever the injected faults
//! do to the guest, and (b) stay bit-for-bit deterministic: the same
//! (plan, schedule seed) reproduces the same termination, the same reports
//! and the same fault counts.
//!
//! This is the paper's §3.3 testing argument turned on the tool itself:
//! the SIP proxy was chaos-tested with SIPp load; here the *tracer* is
//! chaos-tested with deterministic fault injection.

use helgrind_core::{AnyDetector, DetectorConfig, SuppressionSet};
use proptest::prelude::*;
use vexec::faults::FaultPlan;
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Cond, Expr, Program, SyncKind, SyncOp};
use vexec::sched::SeededRandom;
use vexec::vm::{run_flat, VmOptions};

/// Producer/consumer over a condvar plus an unlocked counter: exercises
/// every fault channel — condvar waits (spurious wakeups), mutex locks
/// (lock failure + kill-in-critical-section), worker allocation (alloc
/// failure) and a genuine data race the detector should still see.
fn condvar_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let flag = pb.global("g_flag", 8);
    let data = pb.global("g_data", 8);
    let stat = pb.global("g_stat", 8);
    let m_cell = pb.global("g_mutex", 8);
    let cv_cell = pb.global("g_cond", 8);

    let ploc = pb.loc("chaos.cpp", 10, "producer");
    let mut p = ProcBuilder::new(0);
    p.at(ploc);
    let buf = p.alloc(16u64);
    p.store(Expr::Reg(buf), 7u64, 8);
    let m = p.load_new(m_cell, 8);
    let cv = p.load_new(cv_cell, 8);
    p.lock(m);
    p.store(data, Expr::Reg(buf), 8);
    p.store(flag, 1u64, 8);
    p.sync(SyncOp::CondSignal(Expr::Reg(cv)));
    p.unlock(m);
    p.store(stat, 1u64, 8); // unlocked: races with the consumer's bump
    p.free(Expr::Reg(buf));
    let producer = pb.add_proc("producer", p);

    let cloc = pb.loc("chaos.cpp", 30, "consumer");
    let mut c = ProcBuilder::new(0);
    c.at(cloc);
    let m = c.load_new(m_cell, 8);
    let cv = c.load_new(cv_cell, 8);
    c.lock(m);
    let f = c.reg();
    c.load(f, flag, 8);
    c.begin_while(Cond::Eq(Expr::Reg(f), Expr::Const(0)));
    c.sync(SyncOp::CondWait { cond: Expr::Reg(cv), mutex: Expr::Reg(m) });
    c.load(f, flag, 8);
    c.end_while();
    c.unlock(m);
    c.store(stat, 2u64, 8); // second unlocked writer
    let consumer = pb.add_proc("consumer", c);

    let mloc = pb.loc("chaos.cpp", 50, "main");
    let mut mn = ProcBuilder::new(0);
    mn.at(mloc);
    let mx = mn.new_mutex();
    mn.store(m_cell, mx, 8);
    let cv = mn.new_sync(SyncKind::CondVar, 0u64);
    mn.store(cv_cell, cv, 8);
    let h1 = mn.spawn(consumer, vec![]);
    let h2 = mn.spawn(consumer, vec![]);
    let h3 = mn.spawn(producer, vec![]);
    mn.join(h1);
    mn.join(h2);
    mn.join(h3);
    let main_id = pb.add_proc("main", mn);
    pb.set_entry(main_id);
    pb.finish()
}

/// Arbitrary plans, deliberately wider than `FaultPlan::from_seed`'s
/// bounds (e.g. 20% lock-failure rate) — the VM must cope with plans a
/// hostile caller could construct, not just the sweep's own.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u32..=200, 0u32..=200, 0u32..=100, 0u32..=50, 0u32..=3).prop_map(
        |(seed, wakeup, lockfail, allocfail, kill, max_kills)| FaultPlan {
            seed,
            wakeup_permille: wakeup,
            lockfail_permille: lockfail,
            allocfail_permille: allocfail,
            kill_permille: kill,
            max_kills,
        },
    )
}

/// Everything that must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct RunProbe {
    termination: String,
    reports: Vec<(String, String, u32, String, String)>,
    faults: String,
}

fn probe(program: &Program, plan: FaultPlan, sched_seed: u64, mut det: AnyDetector) -> RunProbe {
    let flat = program.lower();
    let mut sched = SeededRandom::new(sched_seed);
    // A small fuel budget keeps pathological plans (high lock-failure
    // livelock) bounded; FuelExhausted is a legal, structured outcome.
    let opts = VmOptions { faults: Some(plan), max_slots: 200_000, ..Default::default() };
    let r = run_flat(&flat, &mut det, &mut sched, opts);
    RunProbe {
        termination: format!("{:?}", r.termination),
        reports: reports(&det),
        faults: format!("{:?}", r.faults),
    }
}

fn reports(det: &AnyDetector) -> Vec<(String, String, u32, String, String)> {
    det.sink
        .reports()
        .iter()
        .map(|r| {
            (r.kind.name().to_string(), r.file.clone(), r.line, r.func.clone(), r.details.clone())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No plan panics the VM or the Eraser detector, and every run is
    /// bit-identical when repeated with the same (plan, schedule seed).
    #[test]
    fn arbitrary_plans_never_panic_and_reproduce(
        plan in plan_strategy(),
        sched_seed in any::<u64>(),
    ) {
        let program = condvar_program();
        let a = probe(&program, plan, sched_seed, AnyDetector::new(DetectorConfig::hwlc_dr()));
        let b = probe(&program, plan, sched_seed, AnyDetector::new(DetectorConfig::hwlc_dr()));
        prop_assert_eq!(a, b);
    }

    /// Same property for the happens-before and hybrid detectors: the
    /// resilience contract is detector-independent.
    #[test]
    fn all_detectors_survive_arbitrary_plans(
        plan in plan_strategy(),
        sched_seed in any::<u64>(),
    ) {
        let program = condvar_program();
        for name in ["djit", "hybrid-queue"] {
            let cfg = DetectorConfig::by_name(name).unwrap();
            let run = || probe(&program, plan, sched_seed,
                AnyDetector::by_name(name, cfg, SuppressionSet::new()));
            prop_assert_eq!(run(), run(), "{}", name);
        }
    }

    /// A disabled plan must not change behaviour at all: faults=None and
    /// faults=Some(disabled) give identical reports and termination.
    #[test]
    fn disabled_plan_is_transparent(sched_seed in any::<u64>()) {
        let program = condvar_program();
        let flat = program.lower();
        let run = |faults: Option<FaultPlan>| {
            let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
            let mut sched = SeededRandom::new(sched_seed);
            let opts = VmOptions { faults, max_slots: 200_000, ..Default::default() };
            let r = run_flat(&flat, &mut det, &mut sched, opts);
            (format!("{:?}", r.termination), reports(&det))
        };
        let off = run(None);
        let noop = run(Some(FaultPlan::disabled()));
        prop_assert_eq!(off, noop);
    }
}
