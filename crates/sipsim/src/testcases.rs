//! The eight test cases of the paper's evaluation (Fig 5/6) and the
//! harness that runs one case under a detector configuration.
//!
//! The paper's application is a proprietary 500 kLOC server; what its
//! evaluation reports per test case is the number of distinct warning
//! locations in three categories (hardware-bus-lock FPs, destructor FPs,
//! and correctly reported races — Fig 5's stacked bars). Each preset below
//! instantiates a synthetic proxy whose *site inventory* matches the
//! paper's per-case magnitudes; which sites actually warn under each
//! configuration is computed by the detectors, not assumed. See DESIGN.md
//! §2 for the substitution argument.

use crate::proxy::{build_proxy, BuiltProxy, Dispatch, ProxyConfig, SiteLabel};
use crate::workload::ScenarioSpec;
use helgrind_core::report::ReportKind;
use helgrind_core::{AnyDetector, DetectorConfig};
use vexec::faults::{FaultPlan, FaultStats};
use vexec::filter::FilterTool;
use vexec::sched::{RoundRobin, SeededRandom};
use vexec::vm::{run_flat, run_program, Termination, VmOptions};

/// One evaluation test case.
#[derive(Clone, Debug)]
pub struct TestCase {
    pub name: &'static str,
    /// The SIPp scenario this case corresponds to (request mix).
    pub scenario: ScenarioSpec,
    /// Site inventory (bus-lock FPs, destructor FPs, real races).
    pub bus_sites: usize,
    pub dtor_sites: usize,
    pub real_sites: usize,
    /// Paper's Fig 6 row: (Original, HWLC, HWLC+DR).
    pub paper_counts: (usize, usize, usize),
}

impl TestCase {
    /// Proxy configuration for this case.
    pub fn proxy_config(&self) -> ProxyConfig {
        ProxyConfig {
            bus_sites: self.bus_sites,
            dtor_sites: self.dtor_sites,
            real_sites: self.real_sites,
            touches_per_site: 2,
            sites_per_handler: 12,
            dispatch: Dispatch::ThreadPerRequest,
            annotate_deletes: true,
        }
    }

    /// Build the guest program (deterministic).
    pub fn build(&self) -> BuiltProxy {
        build_proxy(&self.proxy_config())
    }
}

/// The eight presets. Site inventories are derived from Fig 6:
/// bus = Original − HWLC, dtor = HWLC − (HWLC+DR), real = HWLC+DR.
/// One row of the preset table: (name, registers, calls, cancelled,
/// options, (orig, hwlc, hwlc_dr)).
type PresetRow = (&'static str, usize, usize, usize, usize, (usize, usize, usize));

pub fn testcases() -> Vec<TestCase> {
    let rows: [PresetRow; 8] = [
        ("T1", 40, 30, 0, 10, (483, 448, 120)),
        ("T2", 60, 0, 0, 20, (319, 215, 60)),
        ("T3", 30, 10, 0, 0, (252, 194, 49)),
        ("T4", 40, 40, 10, 10, (576, 490, 149)),
        ("T5", 50, 45, 10, 15, (631, 547, 146)),
        ("T6", 20, 60, 0, 5, (620, 604, 181)),
        ("T7", 30, 20, 5, 10, (327, 269, 115)),
        ("T8", 35, 25, 0, 15, (357, 270, 78)),
    ];
    rows.iter()
        .enumerate()
        .map(|(i, &(name, registers, calls, cancelled_calls, options, paper))| {
            let (orig, hwlc, hwlc_dr) = paper;
            assert!(orig >= hwlc && hwlc >= hwlc_dr);
            TestCase {
                name,
                scenario: ScenarioSpec {
                    registers,
                    calls,
                    cancelled_calls,
                    options,
                    seed: 0x51ED_2007 ^ i as u64,
                    ..Default::default()
                },
                bus_sites: orig - hwlc,
                dtor_sites: hwlc - hwlc_dr,
                real_sites: hwlc_dr,
                paper_counts: paper,
            }
        })
        .collect()
}

/// Result of running one case under one configuration.
#[derive(Clone, Debug, Default)]
pub struct CaseResult {
    /// Distinct race-warning locations (the Fig 6 metric).
    pub locations: usize,
    pub bus_fp: usize,
    pub dtor_fp: usize,
    pub real: usize,
    pub handoff_fp: usize,
    /// Warnings at locations not in the site map (should be zero).
    pub unexpected: usize,
    /// Lock-order cycle warnings (not part of the Fig 6 counts).
    pub lock_order: usize,
}

/// Run a built proxy under a detector configuration and attribute every
/// warning to its ground-truth label.
pub fn run_case(built: &BuiltProxy, cfg: DetectorConfig) -> CaseResult {
    let mut det = AnyDetector::new(cfg);
    let r = run_program(&built.program, &mut det, &mut RoundRobin::new());
    assert!(r.termination.is_clean(), "proxy run failed: {:?}", r.termination);
    let mut out = CaseResult::default();
    for rep in det.sink.reports() {
        if rep.kind == ReportKind::LockOrderCycle {
            out.lock_order += 1;
            continue;
        }
        out.locations += 1;
        match built.sites.classify(&rep.file, rep.line) {
            Some(SiteLabel::BusLockFp) => out.bus_fp += 1,
            Some(SiteLabel::DestructorFp) => out.dtor_fp += 1,
            Some(SiteLabel::RealRace) => out.real += 1,
            Some(SiteLabel::HandoffFp) => out.handoff_fp += 1,
            None => out.unexpected += 1,
        }
    }
    out
}

/// Outcome of one chaos run: a test case executed under an injected
/// [`FaultPlan`] and a seeded schedule, *without* assuming the run stays
/// clean — faults legitimately produce deadlocks (killed thread holding a
/// lock), guest errors and extra warnings. The resilience invariants the
/// chaos harness checks are about the *detector*, not the guest: no host
/// panic, deterministic fingerprint per (plan, schedule), real races still
/// found.
#[derive(Clone, Debug, Default)]
pub struct ChaosRunOutcome {
    pub clean: bool,
    pub deadlocked: bool,
    /// Rendered guest fault, when the run ended with one.
    pub guest_error: Option<String>,
    pub fuel_exhausted: bool,
    /// Distinct warning locations classified as real races.
    pub real_hits: usize,
    /// Distinct race-warning locations of any class.
    pub locations: usize,
    /// True when a detector budget cap degraded the results.
    pub truncated: bool,
    /// What the injector actually did.
    pub fault_stats: Option<FaultStats>,
    /// FNV-1a hash over termination + every report + fault stats; two runs
    /// with the same (case, detector, plan, schedule seed) must agree exactly.
    pub fingerprint: u64,
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Run a built proxy under `det`, behind the redundant-access filter, with
/// fault injection and a seeded-random schedule. Tolerates every
/// termination kind; panics only propagate from genuine detector/VM bugs
/// (which is what the chaos harness exists to catch).
pub fn run_case_chaos(
    built: &BuiltProxy,
    det: AnyDetector,
    plan: FaultPlan,
    sched_seed: u64,
    max_slots: Option<u64>,
) -> ChaosRunOutcome {
    let flat = built.program.lower();
    let mut sched = SeededRandom::new(sched_seed);
    let opts = VmOptions {
        faults: Some(plan),
        max_slots: max_slots.unwrap_or(VmOptions::default().max_slots),
        ..Default::default()
    };
    let mut tool = FilterTool::new(det);
    let r = run_flat(&flat, &mut tool, &mut sched, opts);
    let mut det = tool.into_parts().0;

    let mut out = ChaosRunOutcome {
        clean: r.termination.is_clean(),
        deadlocked: matches!(r.termination, Termination::Deadlock(_)),
        guest_error: det.guest_fault().map(str::to_string),
        fuel_exhausted: matches!(r.termination, Termination::FuelExhausted),
        truncated: det.truncated(),
        fault_stats: r.faults,
        ..Default::default()
    };

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, format!("{:?}", r.termination).as_bytes());
    for rep in det.take_reports() {
        if matches!(
            rep.kind,
            ReportKind::RaceRead
                | ReportKind::RaceWrite
                | ReportKind::HbRaceRead
                | ReportKind::HbRaceWrite
        ) {
            match built.sites.classify(&rep.file, rep.line) {
                Some(SiteLabel::RealRace) => {
                    out.real_hits += 1;
                    out.locations += 1;
                }
                Some(_) => out.locations += 1,
                None => {}
            }
        }
        fnv1a(&mut h, rep.kind.code().as_bytes());
        fnv1a(&mut h, rep.file.as_bytes());
        fnv1a(&mut h, &rep.line.to_le_bytes());
        fnv1a(&mut h, rep.func.as_bytes());
        fnv1a(&mut h, &rep.addr.to_le_bytes());
        fnv1a(&mut h, rep.details.as_bytes());
    }
    if let Some(fs) = &r.faults {
        fnv1a(&mut h, format!("{fs:?}").as_bytes());
    }
    out.fingerprint = h;
    out
}

/// One row of the reproduced Fig 6 table.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    pub name: &'static str,
    pub original: CaseResult,
    pub hwlc: CaseResult,
    pub hwlc_dr: CaseResult,
    pub paper: (usize, usize, usize),
}

impl Fig6Row {
    /// Fraction of the Original warnings removed by HWLC+DR (the paper's
    /// 65–81 % headline).
    pub fn fp_reduction(&self) -> f64 {
        if self.original.locations == 0 {
            return 0.0;
        }
        1.0 - self.hwlc_dr.locations as f64 / self.original.locations as f64
    }
}

/// Reproduce the full Fig 6 table (and Fig 5 series).
pub fn reproduce_fig6() -> Vec<Fig6Row> {
    testcases()
        .into_iter()
        .map(|tc| {
            let built = tc.build();
            Fig6Row {
                name: tc.name,
                original: run_case(&built, DetectorConfig::original()),
                hwlc: run_case(&built, DetectorConfig::hwlc()),
                hwlc_dr: run_case(&built, DetectorConfig::hwlc_dr()),
                paper: tc.paper_counts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use helgrind_core::SuppressionSet;

    #[test]
    fn presets_reconstruct_paper_totals() {
        for tc in testcases() {
            let (orig, hwlc, hwlc_dr) = tc.paper_counts;
            assert_eq!(tc.bus_sites + tc.dtor_sites + tc.real_sites, orig, "{}", tc.name);
            assert_eq!(tc.dtor_sites + tc.real_sites, hwlc, "{}", tc.name);
            assert_eq!(tc.real_sites, hwlc_dr, "{}", tc.name);
            assert!(tc.scenario.request_count() > 0);
        }
    }

    #[test]
    fn t3_reproduces_its_fig6_row_exactly() {
        // The smallest case end-to-end: every site category must be
        // classified and counted exactly as in the paper.
        let tc = &testcases()[2];
        assert_eq!(tc.name, "T3");
        let built = tc.build();
        let original = run_case(&built, DetectorConfig::original());
        let hwlc = run_case(&built, DetectorConfig::hwlc());
        let hwlc_dr = run_case(&built, DetectorConfig::hwlc_dr());
        assert_eq!(original.unexpected, 0, "{original:?}");
        assert_eq!(hwlc.unexpected, 0, "{hwlc:?}");
        assert_eq!(hwlc_dr.unexpected, 0, "{hwlc_dr:?}");
        assert_eq!(original.locations, 252);
        assert_eq!(hwlc.locations, 194);
        assert_eq!(hwlc_dr.locations, 49);
        assert_eq!(original.bus_fp, 58);
        assert_eq!(original.dtor_fp, 145);
        assert_eq!(original.real, 49);
        assert_eq!(hwlc.bus_fp, 0);
        assert_eq!(hwlc_dr.dtor_fp, 0);
        assert_eq!(hwlc_dr.real, 49);
    }

    fn hwlc_dr() -> AnyDetector {
        AnyDetector::by_name("hwlc-dr", DetectorConfig::hwlc_dr(), SuppressionSet::new())
    }

    #[test]
    fn chaos_run_is_deterministic_and_tolerates_faults() {
        let tc = &testcases()[2]; // T3, the smallest case
        let built = tc.build();
        let plan = FaultPlan::from_seed(0xC0FFEE);
        let a = run_case_chaos(&built, hwlc_dr(), plan, 7, None);
        let b = run_case_chaos(&built, hwlc_dr(), plan, 7, None);
        assert_eq!(a.fingerprint, b.fingerprint, "{a:?} vs {b:?}");
        assert_eq!(a.real_hits, b.real_hits);
        // A disabled plan under the same schedule behaves like run_case.
        let calm = run_case_chaos(&built, hwlc_dr(), FaultPlan::disabled(), 7, None);
        assert!(calm.clean, "{calm:?}");
        assert!(calm.real_hits > 0);
        assert_eq!(calm.fault_stats.map(|f| f.total()), Some(0));
    }

    #[test]
    fn reduction_band_matches_paper() {
        // 65–81 % of warnings removed (paper §1). Check on one mid case.
        let tc = &testcases()[1]; // T2
        let built = tc.build();
        let row = Fig6Row {
            name: tc.name,
            original: run_case(&built, DetectorConfig::original()),
            hwlc: run_case(&built, DetectorConfig::hwlc()),
            hwlc_dr: run_case(&built, DetectorConfig::hwlc_dr()),
            paper: tc.paper_counts,
        };
        let red = row.fp_reduction();
        assert!(red > 0.6 && red < 0.85, "reduction {red}");
    }
}
