//! Golden interp-equivalence gate: the compiled operand-specialized
//! bytecode core must be invisible in every report a user can read.
//!
//! Every program of the shared matrix (T1–T8 and the shipped examples) is
//! run under all six detector configurations, once on the compiled
//! bytecode core and once on the tree-walking reference core (`Vm::new`),
//! and the complete observable output — termination, the truncation flag,
//! the rendered report text, and the run counters the trace footer
//! persists — must be byte-identical. A second sweep repeats the matrix
//! under an aggressive fault-injection plan and a seeded random scheduler,
//! so the equivalence is exercised off the happy path too (killed threads,
//! failed allocations, spurious wakeups). A third sweep runs the chaos
//! harness's (case, plan, schedule) triples and the §4.1 bug catalogue on
//! both cores. A fourth runs the soak guest (a bounded request queue,
//! contended mutexes, dialog-teardown client requests, worker kills)
//! phase by phase on both cores. A fifth records traces on both cores.
//!
//! Only the stderr-side statistics (`--stats` interp counters) may differ
//! between the two runs; nothing here looks at those.
//!
//! Both cores share `Vm::run`, the scheduler boundary and the sync-op
//! bodies, so a change there moves both sides alike and every
//! compiled/reference comparison still passes. The first three sweeps
//! therefore also fold their compiled-core output into one FNV-1a-64
//! digest and pin it to a literal: a schedule, report or fault counter
//! that drifts from the recorded behaviour fails here even when the two
//! cores agree.

mod common;

use common::{PRODUCTION, REFERENCE_CORE};
use raceline::helgrind_core::Report;
use raceline::sipsim::{self, PhaseEnd, PhaseStats};
use raceline::vexec::ir::lower::FlatProgram;
use raceline::vexec::sched::{PriorityOrder, RoundRobin, Scheduler, SeededRandom};
use raceline::vexec::{FaultPlan, Termination, ThreadId, VmOptions};
use raceline_trace::format::Fnv1a;

/// FNV-1a-64 over the compiled-core `observe` strings of the clean T1–T8
/// × 6-engine matrix, in case then engine order.
const CLEAN_PIN: u64 = 0x2ca3_66f2_36a1_f715;
/// The same digest for the faulted, seeded-random matrix.
const FAULTED_PIN: u64 = 0x66ad_3e60_56b4_6789;
/// FNV-1a-64 over the little-endian chaos fingerprints, in case then plan
/// order.
const CHAOS_PIN: u64 = 0x1b2a_5577_42ad_fa17;

/// Every program × 6 engines, clean deterministic schedule.
#[test]
fn t1_t8_compiled_and_reference_are_byte_identical() {
    let digest = common::assert_matrix(REFERENCE_CORE, false);
    assert_eq!(digest, CLEAN_PIN, "clean T1-T8 matrix drifted from the pinned schedules");
}

/// Every program × 6 engines under fault injection and a randomized
/// schedule: the equivalence must survive killed threads, failed
/// allocations and spurious wakeups, where runs legitimately end in
/// deadlocks or guest errors. The injector consults its counters at fixed
/// points in the dispatch, so any drift in the compiled core's op
/// sequencing would change which faults fire and show up here immediately.
#[test]
fn t1_t8_compiled_and_reference_are_byte_identical_under_faults() {
    let digest = common::assert_matrix(REFERENCE_CORE, true);
    assert_eq!(digest, FAULTED_PIN, "faulted T1-T8 matrix drifted from the pinned schedules");
}

/// One run on both cores, compared on the observation, the injector's
/// counters and the engines' shadow statistics.
fn assert_cores_agree(
    flat: &FlatProgram,
    engine: &str,
    opts: &VmOptions,
    sched: impl Fn() -> Box<dyn Scheduler>,
    label: &str,
) {
    let observe = |side| {
        let (r, mut det) = common::run(flat, engine, opts, sched().as_mut(), side);
        let counters = format!("{:?}\n{:?}", r.faults, det.engine_stats());
        (common::render(&r, &mut det), counters)
    };
    assert_eq!(observe(PRODUCTION), observe(REFERENCE_CORE), "{label}: cores diverged");
}

/// The chaos harness's (case, plan, schedule) triples and the §4.1 bug
/// catalogue under fault plans, on both cores. The compiled side is what
/// `raceline chaos` runs; its fingerprints are pinned.
#[test]
fn chaos_fingerprints_are_core_invariant() {
    let mut pin = Fnv1a::default();
    for (i, case) in sipsim::testcases().into_iter().enumerate() {
        let built = case.build();
        let flat = built.program.lower();
        for p in 0..4u64 {
            let plan = FaultPlan::from_seed(0xFACE + i as u64 * 13 + p);
            let sched_seed = 0xBEEF ^ (i as u64) << 8 | p;
            let det = common::detector("hwlc-dr", false);
            let chaos = sipsim::run_case_chaos(&built, det, plan, sched_seed, None);
            pin.update(&chaos.fingerprint.to_le_bytes());
            let opts = VmOptions { faults: Some(plan), ..VmOptions::default() };
            let sched = || common::scheduler(Some(sched_seed));
            assert_cores_agree(&flat, "hwlc-dr", &opts, sched, case.name);
        }
    }
    assert_eq!(pin.0, CHAOS_PIN, "chaos fingerprints drifted from the pinned schedules");

    for bug in sipsim::bugs::all_bugs() {
        let flat = bug.program.lower();
        let sched = || -> Box<dyn Scheduler> {
            match &bug.schedule {
                Some(order) => {
                    Box::new(PriorityOrder::new(order.iter().map(|&t| ThreadId(t)).collect()))
                }
                None => Box::new(RoundRobin::new()),
            }
        };
        for p in 0..4u64 {
            let opts = VmOptions {
                faults: Some(FaultPlan::from_seed(0xC0FFEE + p)),
                ..VmOptions::default()
            };
            assert_cores_agree(&flat, "hwlc-dr", &opts, sched, bug.name);
        }
    }
}

/// Soak phases under the production hybrid + filter stack: the T1–T8
/// sweeps never block a producer on a full queue, retry a contended mutex
/// thousands of times, or kill a worker that holds a lock, and the soak
/// guest does all three; its dialog-teardown client requests are also the
/// only ones that reclaim shadow memory. Odd phases are kill-armed. The
/// compiled side is `sipsim::run_phase`; the reference side rebuilds the
/// phase from the soak driver's public pieces. Every `phase` line field the
/// soak log stores, shadow-granule counts included, must agree.
#[test]
fn soak_phases_are_core_invariant() {
    let spec = sipsim::SoakSpec {
        dialogs: 800,
        phases: 4,
        kill_permille: 30,
        max_kills_per_phase: 2,
        ..Default::default()
    };
    let mut kills = 0;
    for phase in 0..spec.phases {
        let out =
            sipsim::run_phase(&spec, phase, Some(common::detector("hybrid", false)), true, None);
        let compiled = (out.stats, out.reports.iter().map(Report::render).collect());
        assert_eq!(compiled, reference_phase(&spec, phase), "soak phase {phase} diverged");
        kills += compiled.0.kills;
    }
    assert!(kills > 0, "no phase killed a worker, so the kill path went untested");
}

/// One soak phase on the reference core, folded the way `run_phase` folds
/// the compiled run into its stats and reports.
fn reference_phase(spec: &sipsim::SoakSpec, phase: u32) -> (PhaseStats, Vec<String>) {
    let flat = sipsim::build_soak_phase(spec, phase).lower();
    let opts =
        VmOptions { faults: Some(sipsim::phase_fault_plan(spec, phase)), ..VmOptions::default() };
    let mut sched = SeededRandom::new(sipsim::phase_sched_seed(spec, phase));
    let (r, mut det) = common::run(&flat, "hybrid", &opts, &mut sched, REFERENCE_CORE);
    let (engines, truncated) = (det.engine_stats(), det.truncated());
    let faults = r.faults.unwrap_or_default();
    let reports: Vec<String> = det.take_reports().iter().map(Report::render).collect();
    let stats = PhaseStats {
        phase,
        dialogs: spec.phase_dialogs(phase),
        events: r.stats.events,
        slots: r.stats.slots,
        kills: faults.kills,
        leaked_locks: faults.leaked_locks,
        leaked_bytes: faults.leaked_bytes,
        warnings: reports.len(),
        peak_granules: engines.iter().map(|e| e.peak_granules).max().unwrap_or(0),
        end_granules: engines.iter().map(|e| e.live_granules).max().unwrap_or(0),
        truncated,
        end: match r.termination {
            Termination::AllExited => PhaseEnd::Clean,
            Termination::Deadlock(waits) => PhaseEnd::Deadlock(waits.len()),
            Termination::GuestError(e) => PhaseEnd::GuestError(e.to_string()),
            Termination::FuelExhausted => PhaseEnd::FuelExhausted,
        },
    };
    (stats, reports)
}

/// Traces recorded through the production filter stack are byte-identical
/// on both cores: the event stream, the per-epoch snapshots and the
/// footer's run counters.
#[test]
fn recorded_traces_are_core_invariant() {
    for p in common::programs() {
        if p.paper_case || p.name.ends_with("/session.mcpp") {
            let compiled = common::record(&p.flat, 64, PRODUCTION);
            let reference = common::record(&p.flat, 64, REFERENCE_CORE);
            assert!(compiled == reference, "{}: traces differ between the cores", p.name);
        }
    }
}
