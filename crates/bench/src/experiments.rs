//! Experiment runners: one function per table/figure of the paper (see the
//! per-experiment index in DESIGN.md). Each returns a serialisable result
//! the `repro` binary prints and EXPERIMENTS.md records.

use crate::scenarios::*;
use helgrind_core::{AnyDetector, DetectorConfig, ReportKind, SuppressionSet};
use minicpp::pipeline::{run_pipeline, SourceFile};
use serde::Serialize;
use sipsim::bugs::all_bugs;
use sipsim::native::{native_workload, vm_workload_program, WorkloadSpec};
use sipsim::proxy::{build_proxy, Dispatch, ProxyConfig, SiteLabel};
use sipsim::testcases::{reproduce_fig6, Fig6Row};
use std::time::Instant;
use vexec::sched::{PriorityOrder, RoundRobin, Scheduler};
use vexec::tool::NullTool;
use vexec::vm::{run_program, Termination};
use vexec::ThreadId;

fn eraser_locations(
    prog: &vexec::Program,
    cfg: DetectorConfig,
    sched: &mut dyn Scheduler,
) -> (usize, Vec<helgrind_core::Report>) {
    let mut det = AnyDetector::new(cfg);
    let r = run_program(prog, &mut det, sched);
    assert!(r.termination.is_clean(), "{:?}", r.termination);
    (det.sink.race_location_count(), det.sink.take_reports())
}

// ---------------------------------------------------------------------
// E1/E2 — Fig 5 + Fig 6
// ---------------------------------------------------------------------

/// E1/E2: the eight test cases under the three configurations.
pub fn e1_fig6() -> Vec<Fig6Row> {
    reproduce_fig6()
}

// ---------------------------------------------------------------------
// E3 — Fig 8/9
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct Fig8Result {
    pub original_locations: usize,
    pub original_report: Option<String>,
    pub hwlc_locations: usize,
}

pub fn e3_fig8() -> Fig8Result {
    let prog = fig8_string_program();
    let (orig, reports) =
        eraser_locations(&prog, DetectorConfig::original(), &mut RoundRobin::new());
    let (hwlc, _) = eraser_locations(&prog, DetectorConfig::hwlc(), &mut RoundRobin::new());
    Fig8Result {
        original_locations: orig,
        original_report: reports.first().map(|r| r.render()),
        hwlc_locations: hwlc,
    }
}

// ---------------------------------------------------------------------
// E4 — Fig 10/11 (+E12 queue-hb extension)
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct HandoffResult {
    /// Eraser HWLC+DR on a thread-per-request proxy: hand-off FP locations.
    pub tpr_handoff_fps: usize,
    pub tpr_total: usize,
    /// Same sites through a thread pool.
    pub pool_handoff_fps: usize,
    pub pool_total: usize,
    /// Hybrid detector with queue happens-before on the pool build.
    pub pool_queue_hb_handoff_fps: usize,
}

pub fn e4_handoff() -> HandoffResult {
    let small = |dispatch| ProxyConfig {
        bus_sites: 2,
        dtor_sites: 3,
        real_sites: 3,
        touches_per_site: 2,
        sites_per_handler: 4,
        dispatch,
        annotate_deletes: true,
    };
    let tpr = build_proxy(&small(Dispatch::ThreadPerRequest));
    let pool = build_proxy(&small(Dispatch::ThreadPool { workers: 3 }));

    let count_handoff = |reports: &[helgrind_core::Report], built: &sipsim::BuiltProxy| {
        reports
            .iter()
            .filter(|r| built.sites.classify(&r.file, r.line) == Some(SiteLabel::HandoffFp))
            .count()
    };

    let (tpr_total, tpr_reports) =
        eraser_locations(&tpr.program, DetectorConfig::hwlc_dr(), &mut RoundRobin::new());
    let (pool_total, pool_reports) =
        eraser_locations(&pool.program, DetectorConfig::hwlc_dr(), &mut RoundRobin::new());

    let mut qhb = AnyDetector::by_name(
        "hybrid-queue",
        DetectorConfig::hybrid_queue_hb(),
        SuppressionSet::new(),
    );
    run_program(&pool.program, &mut qhb, &mut RoundRobin::new());
    let qhb_reports = qhb.sink.take_reports();

    HandoffResult {
        tpr_handoff_fps: count_handoff(&tpr_reports, &tpr),
        tpr_total,
        pool_handoff_fps: count_handoff(&pool_reports, &pool),
        pool_total,
        pool_queue_hb_handoff_fps: count_handoff(&qhb_reports, &pool),
    }
}

// ---------------------------------------------------------------------
// E5 — Fig 3/4 (instrumentation pipeline)
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct PipelineResult {
    pub deletes_annotated: usize,
    pub annotated_source: String,
    pub plain_warnings: usize,
    pub instrumented_warnings: usize,
}

const PIPELINE_APP: &str = "
class SipObject { int refs; virtual ~SipObject() {} };
class Session : SipObject { int dialogs; ~Session() {} };
mutex g_m;
int g_pending;
void use_session(Session* s) {
    lock(g_m);
    s->refresh();
    s->dialogs = s->dialogs + 1;
    g_pending = g_pending - 1;
    int last = g_pending == 0;
    unlock(g_m);
    if (last == 1) {
        delete s;
    }
}
void worker(Session* s) { use_session(s); }
void main() {
    g_pending = 2;
    Session* s = new Session;
    s->dialogs = 0;
    thread a = spawn worker(s);
    thread b = spawn worker(s);
    join(a);
    join(b);
}
";

pub fn e5_pipeline() -> PipelineResult {
    let instrumented = run_pipeline(&[SourceFile::new("session.cpp", PIPELINE_APP)]).unwrap();
    let plain =
        run_pipeline(&[SourceFile::without_instrumentation("session.cpp", PIPELINE_APP)]).unwrap();
    let (plain_warnings, _) =
        eraser_locations(&plain.program, DetectorConfig::hwlc_dr(), &mut RoundRobin::new());
    let (instrumented_warnings, _) =
        eraser_locations(&instrumented.program, DetectorConfig::hwlc_dr(), &mut RoundRobin::new());
    PipelineResult {
        deletes_annotated: instrumented.deletes_annotated,
        annotated_source: instrumented
            .annotated_sources
            .first()
            .map(|(_, s)| s.clone())
            .unwrap_or_default(),
        plain_warnings,
        instrumented_warnings,
    }
}

// ---------------------------------------------------------------------
// E6 — §4.3 false negative
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct FalseNegativeResult {
    /// Unlocked write observed first: warnings (the documented miss → 0).
    pub unlocked_first: usize,
    /// Locked write observed first: warnings (the race is caught → 1).
    pub locked_first: usize,
    /// Out of `schedules_tried` random schedules, how many caught it.
    pub random_caught: usize,
    pub schedules_tried: usize,
}

pub fn e6_false_negative() -> FalseNegativeResult {
    let prog = false_negative_program();
    let order = |o: [u32; 3]| PriorityOrder::new(o.iter().map(|&t| ThreadId(t)).collect());
    let (unlocked_first, _) =
        eraser_locations(&prog, DetectorConfig::hwlc_dr(), &mut order([0, 1, 2]));
    let (locked_first, _) =
        eraser_locations(&prog, DetectorConfig::hwlc_dr(), &mut order([0, 2, 1]));
    let schedules_tried = 20;
    let mut random_caught = 0;
    for seed in 0..schedules_tried {
        let mut sched = vexec::sched::SeededRandom::new(seed as u64);
        let (n, _) = eraser_locations(&prog, DetectorConfig::hwlc_dr(), &mut sched);
        if n > 0 {
            random_caught += 1;
        }
    }
    FalseNegativeResult { unlocked_first, locked_first, random_caught, schedules_tried }
}

// ---------------------------------------------------------------------
// E7 — §4.5 performance
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct PerfResult {
    pub native_ms: f64,
    pub vm_null_ms: f64,
    pub vm_eraser_ms: f64,
    pub vm_djit_ms: f64,
    pub vm_hybrid_ms: f64,
    /// VM (no tool) / native — the paper reports 8–10× for bare Valgrind.
    pub vm_slowdown: f64,
    /// VM + lockset analysis / native — the paper reports 20–30×.
    pub analysis_slowdown: f64,
    pub events: u64,
}

pub fn e7_performance(spec: WorkloadSpec, repeats: u32) -> PerfResult {
    let prog = vm_workload_program(spec);

    let time_ms = |f: &mut dyn FnMut()| {
        // One warm-up, then the median-ish best of `repeats`.
        f();
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };

    let native_ms = time_ms(&mut || {
        native_workload(spec);
    });
    let mut events = 0;
    let vm_null_ms = time_ms(&mut || {
        let r = run_program(&prog, &mut NullTool, &mut RoundRobin::new());
        events = r.stats.events;
    });
    let vm_eraser_ms = time_ms(&mut || {
        let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
        run_program(&prog, &mut det, &mut RoundRobin::new());
    });
    let vm_djit_ms = time_ms(&mut || {
        let mut det = AnyDetector::by_name("djit", DetectorConfig::djit(), SuppressionSet::new());
        run_program(&prog, &mut det, &mut RoundRobin::new());
    });
    let vm_hybrid_ms = time_ms(&mut || {
        let mut det =
            AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new());
        run_program(&prog, &mut det, &mut RoundRobin::new());
    });

    PerfResult {
        native_ms,
        vm_null_ms,
        vm_eraser_ms,
        vm_djit_ms,
        vm_hybrid_ms,
        vm_slowdown: vm_null_ms / native_ms,
        analysis_slowdown: vm_eraser_ms / native_ms,
        events,
    }
}

// ---------------------------------------------------------------------
// E8 — §4.1 true positives
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct BugResult {
    pub name: String,
    pub section: String,
    pub detected: bool,
    pub locations: usize,
    pub first_report: Option<String>,
}

pub fn e8_true_positives() -> Vec<BugResult> {
    all_bugs()
        .into_iter()
        .map(|bug| {
            let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
            let mut sched: Box<dyn Scheduler> = match &bug.schedule {
                Some(order) => {
                    Box::new(PriorityOrder::new(order.iter().map(|&t| ThreadId(t)).collect()))
                }
                None => Box::new(RoundRobin::new()),
            };
            run_program(&bug.program, &mut det, sched.as_mut());
            let reports = det.sink.take_reports();
            BugResult {
                name: bug.name.to_string(),
                section: bug.section.to_string(),
                detected: !reports.is_empty(),
                locations: reports.len(),
                first_report: reports.first().map(|r| r.render()),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E9 — deadlocks
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct DeadlockResult {
    /// Lock-order cycles predicted on the serialized (non-deadlocking) run.
    pub predicted_cycles: usize,
    pub prediction_report: Option<String>,
    /// Did the concurrent run actually deadlock, and how many threads
    /// were blocked?
    pub actual_deadlock: bool,
    pub blocked_threads: usize,
}

pub fn e9_deadlock() -> DeadlockResult {
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let r = run_program(&ab_ba_program(true), &mut det, &mut RoundRobin::new());
    assert!(r.termination.is_clean());
    let predicted = det.sink.count_kind(ReportKind::LockOrderCycle);
    let report = det
        .sink
        .reports()
        .iter()
        .find(|r| r.kind == ReportKind::LockOrderCycle)
        .map(|r| r.render());

    let r = run_program(&ab_ba_program(false), &mut NullTool, &mut RoundRobin::new());
    let (actual, blocked) = match r.termination {
        Termination::Deadlock(waits) => (true, waits.len()),
        _ => (false, 0),
    };
    DeadlockResult {
        predicted_cycles: predicted,
        prediction_report: report,
        actual_deadlock: actual,
        blocked_threads: blocked,
    }
}

// ---------------------------------------------------------------------
// E10 — ablations: thread segments, detector comparison
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct AblationResult {
    /// Fork-join hand-off with thread segments (Visual Threads): warnings.
    pub fork_join_with_segments: usize,
    /// Same, with plain Eraser ownership (segments disabled).
    pub fork_join_without_segments: usize,
    /// Queue hand-off: lockset vs DJIT vs hybrid (plain) vs hybrid+queue.
    pub queue_lockset: usize,
    pub queue_djit: usize,
    pub queue_hybrid: usize,
    pub queue_hybrid_qhb: usize,
}

pub fn e10_ablation() -> AblationResult {
    let fj = fork_join_handoff_program();
    let (with_seg, _) = eraser_locations(&fj, DetectorConfig::hwlc_dr(), &mut RoundRobin::new());
    let mut no_seg_cfg = DetectorConfig::hwlc_dr();
    no_seg_cfg.thread_segments = false;
    let (without_seg, _) = eraser_locations(&fj, no_seg_cfg, &mut RoundRobin::new());

    let q = queue_handoff_program();
    let (lockset, _) = eraser_locations(&q, DetectorConfig::hwlc_dr(), &mut RoundRobin::new());
    let mut djit = AnyDetector::by_name("djit", DetectorConfig::djit(), SuppressionSet::new());
    run_program(&q, &mut djit, &mut RoundRobin::new());
    let mut hybrid =
        AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new());
    run_program(&q, &mut hybrid, &mut RoundRobin::new());
    let mut hybrid_qhb = AnyDetector::by_name(
        "hybrid-queue",
        DetectorConfig::hybrid_queue_hb(),
        SuppressionSet::new(),
    );
    run_program(&q, &mut hybrid_qhb, &mut RoundRobin::new());

    AblationResult {
        fork_join_with_segments: with_seg,
        fork_join_without_segments: without_seg,
        queue_lockset: lockset,
        queue_djit: djit.sink.race_location_count(),
        queue_hybrid: hybrid.sink.race_location_count(),
        queue_hybrid_qhb: hybrid_qhb.sink.race_location_count(),
    }
}

// ---------------------------------------------------------------------
// E11 — pooled allocator
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct PoolResult {
    pub pooled_warnings: usize,
    pub pooled_report: Option<String>,
    pub force_new_warnings: usize,
}

pub fn e11_pool() -> PoolResult {
    let (pooled, reports) = eraser_locations(
        &pool_reuse_program(false),
        DetectorConfig::hwlc_dr(),
        &mut RoundRobin::new(),
    );
    let (force_new, _) = eraser_locations(
        &pool_reuse_program(true),
        DetectorConfig::hwlc_dr(),
        &mut RoundRobin::new(),
    );
    PoolResult {
        pooled_warnings: pooled,
        pooled_report: reports.first().map(|r| r.render()),
        force_new_warnings: force_new,
    }
}

// ---------------------------------------------------------------------
// E13 — §2.2 on-the-fly vs post-mortem analysis
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct OfflineResult {
    pub events: u64,
    pub trace_bytes: u64,
    pub bytes_per_event: f64,
    pub online_locations: usize,
    pub offline_locations: usize,
    /// Every replayed report, stack and block note included, renders to
    /// the same bytes as its on-the-fly twin.
    pub reports_identical: bool,
    pub record_ms: f64,
    pub analyze_ms: f64,
}

/// Record a full T3 execution as an `.rltrace`, analyse it post mortem, and
/// compare the verdict with on-the-fly analysis — plus the log-volume cost
/// the paper warns about ("offline techniques suffer from their need for
/// large amount of data").
pub fn e13_offline() -> OfflineResult {
    use helgrind_core::replay::analyze_trace_bytes;
    use raceline_trace::writer::TraceWriter;

    let tc = &sipsim::testcases()[2]; // T3
    let built = tc.build();

    // On-the-fly.
    let (online_locations, online) =
        eraser_locations(&built.program, DetectorConfig::original(), &mut RoundRobin::new());

    // Record.
    let t0 = Instant::now();
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(&mut bytes);
    let r = run_program(&built.program, &mut writer, &mut RoundRobin::new());
    assert!(r.termination.is_clean());
    let summary = writer.finish(&r.termination, &r.stats, None).expect("in-memory trace write");
    let record_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Analyse post mortem.
    let t1 = Instant::now();
    let detector = AnyDetector::new(DetectorConfig::original());
    let offline = analyze_trace_bytes(&bytes, detector, 1, 0).expect("well-formed trace");
    let analyze_ms = t1.elapsed().as_secs_f64() * 1e3;

    let rendered = |reports: &[helgrind_core::Report]| -> Vec<String> {
        reports.iter().map(|r| r.render()).collect()
    };
    OfflineResult {
        events: summary.events,
        trace_bytes: summary.bytes,
        bytes_per_event: summary.bytes as f64 / summary.events.max(1) as f64,
        online_locations,
        offline_locations: offline
            .reports
            .iter()
            .filter(|r| matches!(r.kind, ReportKind::RaceRead | ReportKind::RaceWrite))
            .count(),
        reports_identical: rendered(&online) == rendered(&offline.reports),
        record_ms,
        analyze_ms,
    }
}

// ---------------------------------------------------------------------
// E14 — §2.3.2 schedule exploration
// ---------------------------------------------------------------------

#[derive(Debug, Serialize)]
pub struct ExploreResult {
    pub runs: usize,
    pub distinct_locations: usize,
    pub robust_locations: usize,
    pub flaky_locations: usize,
    /// Locations a single round-robin run reports (what one test run sees).
    pub single_run_locations: usize,
}

/// Run the §4.3 false-negative program under many schedules: the explorer
/// finds the flaky warning that a single run can miss.
pub fn e14_explore() -> ExploreResult {
    use helgrind_core::explore::{explore_schedules, ExploreLimits};
    let prog = false_negative_program();
    let hwlc_dr = || AnyDetector::new(DetectorConfig::hwlc_dr());
    let summary =
        explore_schedules(&prog, hwlc_dr, 40, 0x5EED, ExploreLimits::default(), None, &[]);
    let (single, _) = eraser_locations(&prog, DetectorConfig::hwlc_dr(), &mut RoundRobin::new());
    ExploreResult {
        runs: summary.runs,
        distinct_locations: summary.locations.len(),
        robust_locations: summary.robust().count(),
        flaky_locations: summary.flaky().count(),
        single_run_locations: single,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_offline_agrees_with_online() {
        let r = e13_offline();
        assert_eq!(r.online_locations, r.offline_locations);
        assert_eq!(r.online_locations, 252, "T3's Fig 6 Original count");
        assert!(r.reports_identical);
        assert!(r.trace_bytes > 0 && r.bytes_per_event > 0.0);
    }

    #[test]
    fn e14_explorer_finds_the_flaky_race() {
        let r = e14_explore();
        assert_eq!(r.distinct_locations, 1);
        assert_eq!(r.flaky_locations, 1, "the §4.3 race is schedule-dependent");
        assert_eq!(r.robust_locations, 0);
    }

    #[test]
    fn e3_fig8_shape() {
        let r = e3_fig8();
        assert_eq!(r.original_locations, 1);
        assert_eq!(r.hwlc_locations, 0);
        assert!(r.original_report.unwrap().contains("_M_grab"));
    }

    #[test]
    fn e4_handoff_shape() {
        let r = e4_handoff();
        assert_eq!(r.tpr_handoff_fps, 0);
        assert!(r.pool_handoff_fps >= 1);
        assert_eq!(r.pool_queue_hb_handoff_fps, 0);
    }

    #[test]
    fn e5_pipeline_shape() {
        let r = e5_pipeline();
        assert_eq!(r.deletes_annotated, 1);
        assert!(r.annotated_source.contains("ca_deletor_single"));
        assert!(r.plain_warnings > 0);
        assert_eq!(r.instrumented_warnings, 0);
    }

    #[test]
    fn e6_false_negative_shape() {
        let r = e6_false_negative();
        assert_eq!(r.unlocked_first, 0);
        assert_eq!(r.locked_first, 1);
        assert!(r.random_caught > 0, "repeated runs with different schedules help (§2.3.2)");
    }

    #[test]
    fn e8_all_bugs_detected() {
        let results = e8_true_positives();
        assert_eq!(results.len(), 5);
        for b in results {
            assert!(b.detected, "{} must be detected", b.name);
        }
    }

    #[test]
    fn e9_deadlock_shape() {
        let r = e9_deadlock();
        assert_eq!(r.predicted_cycles, 1);
        assert!(r.actual_deadlock);
        assert_eq!(r.blocked_threads, 3); // two workers + joining main
    }

    #[test]
    fn e10_ablation_shape() {
        let r = e10_ablation();
        assert_eq!(r.fork_join_with_segments, 0, "Visual Threads refinement");
        assert!(r.fork_join_without_segments > 0, "plain Eraser FPs");
        assert!(r.queue_lockset > 0);
        assert!(r.queue_djit > 0);
        assert!(r.queue_hybrid > 0);
        assert_eq!(r.queue_hybrid_qhb, 0);
    }

    #[test]
    fn e11_pool_shape() {
        let r = e11_pool();
        assert!(r.pooled_warnings > 0, "invisible recycling causes FPs");
        assert_eq!(r.force_new_warnings, 0, "GLIBCPP_FORCE_NEW removes them");
    }
}
