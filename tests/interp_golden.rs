//! Golden interp-equivalence gate: the compiled operand-specialized
//! bytecode core must be invisible in every report a user can read.
//!
//! Each of the eight evaluation cases T1–T8 is run under all six detector
//! configurations, once on the compiled bytecode core and once on the
//! tree-walking reference interpreter (`--vm-reference`), and the complete
//! observable output — termination, the truncation flag, the rendered
//! report text, and the run counters the trace footer persists — must be
//! byte-identical. A second sweep repeats the matrix under an aggressive
//! fault-injection plan and a seeded random scheduler, so the equivalence
//! is exercised off the happy path too (killed threads, failed
//! allocations, spurious wakeups). A third sweep pins the chaos harness
//! fingerprint — an FNV-1a hash over termination, every report, and the
//! injector counters — across both cores. A fourth runs the soak guest
//! (a bounded request queue, contended mutexes, dialog-teardown client
//! requests, worker kills) phase by phase on both cores.
//!
//! Only the stderr-side statistics (`--stats` interp counters) may differ
//! between the two runs; nothing here looks at those.
//!
//! Both cores share `Vm::run`, the scheduler boundary and the sync-op
//! bodies, so a change there moves both sides alike and every
//! compiled/reference comparison still passes. Each sweep therefore also
//! folds its compiled-core output into one FNV-1a-64 digest and pins it
//! to a literal: a schedule, report or fault counter that drifts from the
//! recorded behaviour fails here even when the two cores agree.

use raceline::helgrind_core::{AnyDetector, ReportSink, SuppressionSet};
use raceline::prelude::*;
use raceline::sipsim;
use raceline::vexec::ir::lower::FlatProgram;
use raceline::vexec::vm::{run_flat, VmMode};
use raceline::vexec::FaultPlan;
use raceline_trace::format::Fnv1a;

/// FNV-1a-64 over the compiled-core `observe` strings of the clean T1–T8
/// × 6-engine matrix, in case then engine order.
const CLEAN_PIN: u64 = 0x2f50_def8_82cf_aa04;
/// The same digest for the faulted, seeded-random matrix.
const FAULTED_PIN: u64 = 0xcf42_0ba1_d59f_513c;
/// FNV-1a-64 over the little-endian chaos fingerprints, in case then plan
/// order.
const CHAOS_PIN: u64 = 0x5d05_86d7_9cea_2da7;

/// Run one detector over `flat` through the production filtered path and
/// fold everything the user observes into a single string. The slot/op
/// counters ride along: they feed the trace footer and the soak log, so
/// the compiled core must reproduce them exactly, not just the reports.
fn observe<T: Tool>(
    flat: &FlatProgram,
    det: T,
    sink_of: impl Fn(&T) -> &ReportSink,
    opts: &VmOptions,
    seed: Option<u64>,
    mode: VmMode,
) -> String {
    let mut sched: Box<dyn Scheduler> = match seed {
        Some(s) => Box::new(SeededRandom::new(s)),
        None => Box::new(RoundRobin::new()),
    };
    let mut tool = FilterTool::new(det);
    let opts = VmOptions { mode, ..opts.clone() };
    let r = run_flat(flat, &mut tool, sched.as_mut(), opts);
    let det = tool.into_parts().0;
    let sink = sink_of(&det);
    let mut out = format!(
        "termination: {:?}\ntruncated: {}\nslots: {} events: {} ops: {} threads: {} allocs: {}\n",
        r.termination,
        sink.truncated(),
        r.stats.slots,
        r.stats.events,
        r.stats.ops,
        r.stats.threads_created,
        r.stats.allocs
    );
    for rep in sink.reports() {
        out.push_str(&rep.render());
        out.push('\n');
    }
    out
}

/// All six engine configurations against one program; panics on the first
/// compiled/reference divergence. Folds each compiled-core output into
/// `pin`.
fn assert_six_engines_equivalent(
    flat: &FlatProgram,
    opts: &VmOptions,
    seed: Option<u64>,
    label: &str,
    pin: &mut Fnv1a,
) {
    let eraser_cfgs =
        [DetectorConfig::original(), DetectorConfig::hwlc(), DetectorConfig::hwlc_dr()];
    for cfg in eraser_cfgs {
        let compiled =
            observe(flat, EraserDetector::new(cfg), |d| &d.sink, opts, seed, VmMode::Compiled);
        let refr =
            observe(flat, EraserDetector::new(cfg), |d| &d.sink, opts, seed, VmMode::Reference);
        assert_eq!(compiled, refr, "{label}: eraser {cfg:?} diverged");
        pin.update(compiled.as_bytes());
    }
    {
        let cfg = DetectorConfig::djit();
        let compiled =
            observe(flat, DjitDetector::new(cfg), |d| &d.sink, opts, seed, VmMode::Compiled);
        let refr =
            observe(flat, DjitDetector::new(cfg), |d| &d.sink, opts, seed, VmMode::Reference);
        assert_eq!(compiled, refr, "{label}: djit diverged");
        pin.update(compiled.as_bytes());
    }
    for cfg in [DetectorConfig::hybrid(), DetectorConfig::hybrid_queue_hb()] {
        let compiled =
            observe(flat, HybridDetector::new(cfg), |d| &d.sink, opts, seed, VmMode::Compiled);
        let refr =
            observe(flat, HybridDetector::new(cfg), |d| &d.sink, opts, seed, VmMode::Reference);
        assert_eq!(compiled, refr, "{label}: hybrid {cfg:?} diverged");
        pin.update(compiled.as_bytes());
    }
}

/// T1–T8 × 6 engines, clean deterministic schedule.
#[test]
fn t1_t8_compiled_and_reference_are_byte_identical() {
    let mut pin = Fnv1a::default();
    for case in sipsim::testcases() {
        let built = case.build();
        let flat = built.program.lower();
        assert_six_engines_equivalent(&flat, &VmOptions::default(), None, case.name, &mut pin);
    }
    assert_eq!(pin.0, CLEAN_PIN, "clean T1-T8 matrix drifted from the pinned schedules");
}

/// T1–T8 × 6 engines under fault injection and a randomized schedule:
/// the equivalence must survive killed threads, failed allocations and
/// spurious wakeups, where runs legitimately end in deadlocks or guest
/// errors. The injector consults its counters at fixed points in the
/// dispatch, so any drift in the compiled core's op sequencing would
/// change which faults fire and show up here immediately.
#[test]
fn t1_t8_compiled_and_reference_are_byte_identical_under_faults() {
    let opts = VmOptions {
        faults: Some(FaultPlan {
            seed: 11,
            wakeup_permille: 120,
            lockfail_permille: 60,
            allocfail_permille: 25,
            kill_permille: 8,
            max_kills: 2,
        }),
        ..VmOptions::default()
    };
    let mut pin = Fnv1a::default();
    for (i, case) in sipsim::testcases().into_iter().enumerate() {
        let built = case.build();
        let flat = built.program.lower();
        let seed = Some(0xC0FFEE + i as u64);
        assert_six_engines_equivalent(&flat, &opts, seed, case.name, &mut pin);
    }
    assert_eq!(pin.0, FAULTED_PIN, "faulted T1-T8 matrix drifted from the pinned schedules");
}

/// Chaos harness fingerprints pin the full outcome (termination, reports,
/// fault counters) per (case, plan, schedule) across both cores — the
/// same invariance the `chaos` CLI gate checks over full sweeps.
#[test]
fn chaos_fingerprints_are_core_invariant() {
    let cfg = DetectorConfig::hwlc_dr();
    let mut pin = Fnv1a::default();
    for (i, case) in sipsim::testcases().into_iter().enumerate() {
        let built = case.build();
        for p in 0..4u64 {
            let plan = FaultPlan::from_seed(0xFACE + i as u64 * 13 + p);
            let sched_seed = 0xBEEF ^ (i as u64) << 8 | p;
            let compiled = sipsim::run_case_chaos_in(
                &built,
                cfg,
                plan,
                sched_seed,
                None,
                true,
                VmMode::Compiled,
            );
            let reference = sipsim::run_case_chaos_in(
                &built,
                cfg,
                plan,
                sched_seed,
                None,
                true,
                VmMode::Reference,
            );
            assert_eq!(
                compiled.fingerprint, reference.fingerprint,
                "{}: chaos fingerprint diverged (plan {p}, seed {sched_seed:#x})",
                case.name
            );
            assert_eq!(compiled.real_hits, reference.real_hits, "{}: real hits", case.name);
            assert_eq!(compiled.locations, reference.locations, "{}: locations", case.name);
            pin.update(&compiled.fingerprint.to_le_bytes());
        }
    }
    assert_eq!(pin.0, CHAOS_PIN, "chaos fingerprints drifted from the pinned schedules");
}

/// Soak phases under the production hybrid + filter stack: the T1–T8
/// sweeps never block a producer on a full queue, retry a contended mutex
/// thousands of times, or kill a worker that holds a lock, and the soak
/// guest does all three. Odd phases are kill-armed.
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
        let run = |mode| {
            let det =
                AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new());
            let out = sipsim::run_phase_in(&spec, phase, Some(det), true, None, mode);
            let reports: Vec<String> = out.reports.iter().map(|r| r.render()).collect();
            (out.stats, reports)
        };
        let compiled = run(VmMode::Compiled);
        assert_eq!(compiled, run(VmMode::Reference), "soak phase {phase} diverged");
        kills += compiled.0.kills;
    }
    assert!(kills > 0, "no phase killed a worker, so the kill path went untested");
}
