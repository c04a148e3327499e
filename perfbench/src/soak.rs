//! `soak`: one operation is one `sipsim::run_phase` of the generative SIP
//! load, `hybrid` behind the filter. Even phases are calm, odd phases are
//! kill-armed, so half the operations exercise fault injection.
//!
//! The happens-before and lockset engines take most of a phase, and shadow
//! reclaim at dialog teardown and `vexec::faults` run only here.

use helgrind_core::{AnyDetector, DetectorConfig, Report, SuppressionSet};
use sipsim::{build_soak_phase, phase_fault_plan, phase_sched_seed, run_phase, PhaseEnd, SoakSpec};
use vexec::filter::FilterTool;
use vexec::sched::SeededRandom;
use vexec::vm::{Termination, VmOptions};

use crate::bench::{guarded, Counters, OpResult, Outcome, Work, Workload};
use crate::spans::{Split, Tracer};
use crate::stack;

/// Phases in the spec. More than any run reaches, so the operations of a
/// run are distinct phases and the share of armed phases that a kill
/// deadlocks averages out within the run.
pub const PHASES: u32 = 1 << 12;
pub const PHASE_DIALOGS: u64 = 2_000;

pub fn spec(seed: u64) -> SoakSpec {
    SoakSpec {
        dialogs: u64::from(PHASES) * PHASE_DIALOGS,
        phases: PHASES,
        seed,
        ..SoakSpec::default()
    }
}

/// The warning sites soak plants: every catalogue entry must be one.
pub fn planted(file: &str, line: u32) -> bool {
    (file == "registrar.cpp" && line == 55)
        || (file == "stats.cpp" && (line == 20 || line == 25))
        || (file == "routing.cpp" && (105..=145).contains(&line))
}

/// How a phase ended, as far as the answer key cares.
pub struct PhaseFacts<'a> {
    pub end: PhaseEnd,
    pub armed: bool,
    pub kills: u64,
    pub leaked_locks: u64,
    pub truncated: bool,
    pub reports: &'a [Report],
    pub events: u64,
    pub dialogs: u64,
}

/// The answer key. Every warning is a planted site. A phase that runs to
/// completion finds the active-call counter race at `stats.cpp:20`. A
/// phase may end in deadlock only when it is kill-armed and a killed
/// worker leaked a lock — the one way a kill can wedge the pool.
pub fn check(phase: u32, f: &PhaseFacts<'_>) -> OpResult {
    if let Some(r) = f.reports.iter().find(|r| !planted(&r.file, r.line)) {
        return Err(format!("phase {phase}: warning at unplanted site {}:{}", r.file, r.line));
    }
    if f.truncated {
        return Err(format!("phase {phase}: detector budget truncated the results"));
    }
    match &f.end {
        PhaseEnd::Clean => {
            if !f.reports.iter().any(|r| r.file == "stats.cpp" && r.line == 20) {
                return Err(format!("phase {phase}: clean phase missed stats.cpp:20"));
            }
            Ok(Work { events: f.events, dialogs: f.dialogs })
        }
        PhaseEnd::Deadlock(_) if f.armed && f.kills > 0 && f.leaked_locks > 0 => {
            Ok(Work { events: f.events, dialogs: 0 })
        }
        end => Err(format!(
            "phase {phase} ended {end:?} (armed={}, kills={}, leaked locks={})",
            f.armed, f.kills, f.leaked_locks
        )),
    }
}

pub struct Soak {
    spec: SoakSpec,
}

fn hybrid() -> AnyDetector {
    AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new())
}

impl Workload for Soak {
    const NAME: &'static str = "soak";

    fn setup(seed: u64, out: &mut Outcome, _tr: Option<&mut Tracer>) -> Result<Self, String> {
        let w = Soak { spec: spec(seed) };
        // Warm-up: two calm phases from the far end of the spec, which the
        // timed loop does not reach. Calm, so that how early a kill
        // deadlocks an armed phase does not make set-up time seed-bound.
        for phase in [PHASES - 4, PHASES - 2] {
            let r = guarded(|| w.phase(phase));
            out.record(&r);
        }
        Ok(w)
    }

    fn op(&mut self, i: u64) -> OpResult {
        self.phase((i % u64::from(PHASES)) as u32)
    }

    fn op_traced(
        &mut self,
        i: u64,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> (OpResult, usize, Vec<Split>) {
        let phase = (i % u64::from(PHASES)) as u32;
        let spec = &self.spec;
        let root = tr.begin("op");
        let program = tr.time("sipsim.build_ms", || build_soak_phase(spec, phase));
        let prog = stack::compile(tr, &program);
        let opts =
            VmOptions { faults: Some(phase_fault_plan(spec, phase)), ..VmOptions::default() };
        let sched = || SeededRandom::new(phase_sched_seed(spec, phase));
        let mut tool = FilterTool::new(hybrid());
        let (r, run) = prog.run_spanned(tr, &mut tool, &mut sched(), opts.clone());
        let (mut det, filter) = tool.into_parts();
        let engines = det.engine_stats();
        let truncated = det.truncated();
        let reports = det.take_reports();
        let faults = r.faults.unwrap_or_default();
        let facts = PhaseFacts {
            end: match &r.termination {
                Termination::AllExited => PhaseEnd::Clean,
                Termination::Deadlock(waits) => PhaseEnd::Deadlock(waits.len()),
                Termination::GuestError(e) => PhaseEnd::GuestError(e.to_string()),
                Termination::FuelExhausted => PhaseEnd::FuelExhausted,
            },
            armed: spec.phase_armed(phase),
            kills: faults.kills,
            leaked_locks: faults.leaked_locks,
            truncated,
            reports: &reports,
            events: r.stats.events,
            dialogs: spec.phase_dialogs(phase),
        };
        let result = check(phase, &facts);
        tr.end(root);

        let split = prog.split(tr, run, &opts, sched, stack::engine_layer("hybrid"));
        stack::count_run(c, &r, &filter, &prog.code, &engines, &split);
        c.add("vexec.faults.kills", faults.kills as f64);
        c.add("core.report.locations", reports.len() as f64);
        if let Ok(work) = &result {
            c.add_ratio(
                "sipsim.soak.dialogs_per_s",
                work.dialogs as f64,
                tr.duration_ms(root) / 1e3,
            );
        }
        (result, root, vec![split])
    }
}

impl Soak {
    /// One phase, as `raceline soak` runs it.
    fn phase(&self, phase: u32) -> OpResult {
        let out = run_phase(&self.spec, phase, Some(hybrid()), true, None);
        let facts = PhaseFacts {
            end: out.stats.end.clone(),
            armed: self.spec.phase_armed(phase),
            kills: out.stats.kills,
            leaked_locks: out.stats.leaked_locks,
            truncated: out.stats.truncated,
            reports: &out.reports,
            events: out.stats.events,
            dialogs: out.stats.dialogs,
        };
        check(phase, &facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helgrind_core::ReportKind;

    fn report(file: &str, line: u32) -> Report {
        Report {
            kind: ReportKind::RaceWrite,
            tid: 1,
            file: file.to_string(),
            line,
            func: String::new(),
            addr: 0,
            stack: Vec::new(),
            block: None,
            details: String::new(),
            truncated: false,
        }
    }

    fn facts(end: PhaseEnd, armed: bool, leaked_locks: u64, reports: &[Report]) -> PhaseFacts<'_> {
        PhaseFacts {
            end,
            armed,
            kills: u64::from(armed),
            leaked_locks,
            truncated: false,
            reports,
            events: 10,
            dialogs: 5,
        }
    }

    #[test]
    fn answer_key() {
        let found = [report("stats.cpp", 20), report("routing.cpp", 125)];
        assert!(check(0, &facts(PhaseEnd::Clean, false, 0, &found)).is_ok());
        let missed = [report("registrar.cpp", 55)];
        assert!(check(0, &facts(PhaseEnd::Clean, false, 0, &missed)).is_err());
        let stray = [report("stats.cpp", 20), report("stats.cpp", 21)];
        assert!(check(0, &facts(PhaseEnd::Clean, false, 0, &stray)).is_err());
        // A kill that leaked a lock may wedge an armed phase early; any
        // other deadlock is a failure.
        assert!(check(1, &facts(PhaseEnd::Deadlock(4), true, 1, &missed)).is_ok());
        assert!(check(1, &facts(PhaseEnd::Deadlock(4), true, 0, &missed)).is_err());
        assert!(check(0, &facts(PhaseEnd::Deadlock(4), false, 0, &missed)).is_err());
        assert!(check(1, &facts(PhaseEnd::GuestError("boom".into()), true, 1, &found)).is_err());
    }
}
