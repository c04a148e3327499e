//! Golden filter-equivalence gate: the redundant-access filter cache must
//! be invisible in every report a user can read.
//!
//! Every program of the shared matrix (T1–T8 and the shipped examples) is
//! run under all six detector configurations, once through `FilterTool`
//! and once bare, and the complete observable output — termination, the
//! truncation flag, the run counters and the rendered report text — must
//! be byte-identical. A second sweep repeats the whole matrix under an
//! aggressive fault-injection plan and a seeded random scheduler, so the
//! equivalence is exercised off the happy path too (killed threads,
//! failed allocations, spurious wakeups).
//!
//! Only the stderr-side statistics (`--stats`) may differ between the two
//! runs; nothing here looks at those.

mod common;

use vexec::vm::VmOptions;
use vexec::FaultPlan;

/// Every program × 6 engines, clean deterministic schedule.
#[test]
fn t1_t8_filtered_runs_are_byte_identical() {
    common::assert_matrix(common::UNFILTERED, false);
}

/// Every program × 6 engines under fault injection and a randomized
/// schedule: the equivalence must survive killed threads, failed
/// allocations and spurious wakeups, where runs legitimately end in
/// deadlocks or guest errors.
#[test]
fn t1_t8_filtered_runs_are_byte_identical_under_faults() {
    common::assert_matrix(common::UNFILTERED, true);
}

/// T3 under the (fault plan, schedule) pairs of `raceline chaos`'s seeded
/// plans: the filter must not change the run, the reports or the
/// injected-fault counters.
#[test]
fn chaos_plans_are_filter_invariant() {
    let t3 = common::program("T3");
    for (plan_seed, sched_seed) in [(0xC0FFEE, 7), (0xBEEF, 11), (42, 3)] {
        let opts =
            VmOptions { faults: Some(FaultPlan::from_seed(plan_seed)), ..VmOptions::default() };
        for engine in common::ENGINES {
            let observe = |side| {
                let mut sched = common::scheduler(Some(sched_seed));
                let (r, mut det) = common::run(&t3.flat, engine, &opts, sched.as_mut(), side);
                format!("{}faults: {:?}\n", common::render(&r, &mut det), r.faults)
            };
            assert_eq!(
                observe(common::PRODUCTION),
                observe(common::UNFILTERED),
                "{engine}: plan {plan_seed:#x} schedule {sched_seed}"
            );
        }
    }
}
