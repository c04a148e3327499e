//! `suite`: the paper's evaluation. One operation is one `check` of a
//! (T1..T8 × original/hwlc/hwlc-dr) pair: the run under the filtered
//! Eraser detector, rendering every report, and classifying the reports
//! against the case's ground-truth site map.
//!
//! These are thread-per-request programs with dozens of guest threads and
//! hundreds of warning locations, so lowering and compiling per check and
//! report rendering do real work; the filter elides almost nothing.

use helgrind_core::report::ReportKind;
use helgrind_core::{DetectorConfig, EraserDetector, Report};
use sipsim::{BuiltProxy, TestCase};
use vexec::filter::FilterTool;
use vexec::sched::RoundRobin;
use vexec::vm::{run_program, RunResult, VmOptions};

use crate::bench::{guarded, Counters, OpResult, Outcome, Work, Workload};
use crate::spans::{Split, Tracer};
use crate::stack;

pub const CONFIGS: [&str; 3] = ["original", "hwlc", "hwlc-dr"];
const PAIRS: usize = 8 * CONFIGS.len();

pub struct Suite {
    cases: Vec<(TestCase, BuiltProxy)>,
    seed: u64,
    /// Pair order of the current rotation: (rotation, permutation).
    order: (u64, Vec<usize>),
}

/// Warning locations by ground-truth label (the Fig 6 cell) plus those
/// outside the site map.
struct Classified {
    locations: usize,
    unexpected: usize,
}

fn classify(built: &BuiltProxy, reports: &[Report]) -> Classified {
    let mut out = Classified { locations: 0, unexpected: 0 };
    for rep in reports.iter().filter(|r| r.kind != ReportKind::LockOrderCycle) {
        out.locations += 1;
        if built.sites.classify(&rep.file, rep.line).is_none() {
            out.unexpected += 1;
        }
    }
    out
}

/// The answer key: a clean run, the paper's Fig 6 cell, nothing outside
/// the site map.
fn check(tc: &TestCase, config: usize, r: &RunResult, got: &Classified) -> OpResult {
    if !r.termination.is_clean() {
        return Err(format!("{} {} ended {:?}", tc.name, CONFIGS[config], r.termination));
    }
    let (o, h, d) = tc.paper_counts;
    let want = [o, h, d][config];
    if got.locations != want || got.unexpected != 0 {
        return Err(format!(
            "{} {}: {} location(s) ({} unexpected), Fig 6 says {want}",
            tc.name, CONFIGS[config], got.locations, got.unexpected
        ));
    }
    Ok(Work { events: r.stats.events, dialogs: 0 })
}

fn render_all(reports: &[Report]) -> usize {
    reports.iter().map(|rep| rep.render().len()).sum()
}

impl Suite {
    /// The (case, config) pair of operation `i`: every rotation of 24
    /// operations covers each pair once, in a seeded order.
    fn pair(&mut self, i: u64) -> (usize, usize) {
        let rotation = i / PAIRS as u64;
        if self.order.0 != rotation || self.order.1.is_empty() {
            let mut perm: Vec<usize> = (0..PAIRS).collect();
            crate::stats::shuffle(
                &mut perm,
                self.seed ^ rotation.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            self.order = (rotation, perm);
        }
        let p = self.order.1[(i % PAIRS as u64) as usize];
        (p / CONFIGS.len(), p % CONFIGS.len())
    }
}

fn config(i: usize) -> DetectorConfig {
    DetectorConfig::by_name(CONFIGS[i]).expect("suite configs are presets")
}

impl Workload for Suite {
    const NAME: &'static str = "suite";

    fn setup(seed: u64, out: &mut Outcome, mut tr: Option<&mut Tracer>) -> Result<Self, String> {
        let cases = sipsim::testcases()
            .into_iter()
            .map(|tc| {
                let built = match tr.as_mut() {
                    Some(tr) => tr.time("sipsim.build_ms", || tc.build()),
                    None => tc.build(),
                };
                (tc, built)
            })
            .collect();
        let w = Suite { cases, seed, order: (0, Vec::new()) };
        // Warm-up: one check of every pair, in pair order.
        for p in 0..PAIRS {
            let r = guarded(|| w.check(p / CONFIGS.len(), p % CONFIGS.len()));
            out.record(&r);
        }
        Ok(w)
    }

    fn op(&mut self, i: u64) -> OpResult {
        let (case, cfg) = self.pair(i);
        self.check(case, cfg)
    }

    fn op_traced(
        &mut self,
        i: u64,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> (OpResult, usize, Vec<Split>) {
        let (case, cfg) = self.pair(i);
        let (tc, built) = &self.cases[case];
        let root = tr.begin("op");
        let prog = stack::compile(tr, &built.program);
        let mut tool = FilterTool::new(EraserDetector::new(config(cfg)));
        let (r, run) =
            prog.run_spanned(tr, &mut tool, &mut RoundRobin::new(), VmOptions::default());
        let (mut det, filter) = tool.into_parts();
        let reports = det.sink.take_reports();
        std::hint::black_box(tr.time("core.report.render_ms", || render_all(&reports)));
        let got = tr.time("sipsim.classify_ms", || classify(built, &reports));
        let result = check(tc, cfg, &r, &got);
        tr.end(root);

        let split = prog.split(
            tr,
            run,
            &VmOptions::default(),
            RoundRobin::new,
            stack::engine_layer("hwlc-dr"),
        );
        stack::count_run(c, &r, &filter, &prog.code, &det.engine_stats(), &split);
        c.add("core.report.locations", got.locations as f64);
        (result, root, vec![split])
    }
}

impl Suite {
    /// One check, as `raceline check` runs it.
    fn check(&self, case: usize, cfg: usize) -> OpResult {
        let (tc, built) = &self.cases[case];
        let mut tool = FilterTool::new(EraserDetector::new(config(cfg)));
        let r = run_program(&built.program, &mut tool, &mut RoundRobin::new());
        let reports = tool.into_parts().0.sink.take_reports();
        std::hint::black_box(render_all(&reports));
        check(tc, cfg, &r, &classify(built, &reports))
    }
}
