//! The twin-comparison harness the golden suites share: one engine list,
//! one program list, one fault plan, and [`observe`], which folds
//! everything a user can read from one detector run into a string.
//!
//! Each golden file compares one pair of implementations that must be
//! indistinguishable — filtered/bare (`filter_golden`), adaptive/
//! `hb_reference` read state (`epoch_golden`), compiled/reference VM core
//! (`interp_golden`), inline/replayed trace (`trace_golden`) — by running
//! the pair over every program × engine here. A [`Side`] names how one
//! half runs; [`PRODUCTION`] is what `raceline check` runs, and each
//! golden flips one field of it.

// Each golden file compiles this module on its own and uses part of it.
#![allow(dead_code)]

use helgrind_core::replay::analyze_trace_bytes;
use helgrind_core::{AnyDetector, DetectorConfig, Report, SuppressionSet};
use minicpp::pipeline::{run_pipeline, SourceFile};
use raceline_trace::format::Fnv1a;
use raceline_trace::writer::TraceWriter;
use vexec::filter::FilterTool;
use vexec::ir::lower::FlatProgram;
use vexec::sched::{RoundRobin, Scheduler, SeededRandom};
use vexec::tool::Tool;
use vexec::vm::{run_flat, RunResult, Vm, VmOptions};
use vexec::FaultPlan;

/// The six detector configurations, by CLI name.
pub const ENGINES: [&str; 6] = ["original", "hwlc", "hwlc-dr", "djit", "hybrid", "hybrid-queue"];

/// The shipped example programs in the matrix.
const EXAMPLES: [&str; 4] = ["session", "racy_global", "clean_locked", "ab_ba"];

/// One guest program of the matrix.
pub struct Program {
    pub name: String,
    pub flat: FlatProgram,
    /// One of the paper's T1–T8 cases: the programs the interp golden's
    /// pinned digests cover.
    pub paper_case: bool,
}

/// T1–T8, then `examples/programs/{session,racy_global,clean_locked,
/// ab_ba}.mcpp` compiled the way `raceline check` compiles them (paths
/// relative to the package root, so report file names match the CLI's).
pub fn programs() -> Vec<Program> {
    let cases = sipsim::testcases().into_iter().map(|tc| Program {
        name: tc.name.to_string(),
        flat: tc.build().program.lower(),
        paper_case: true,
    });
    let examples = EXAMPLES.iter().map(|name| {
        let path = format!("examples/programs/{name}.mcpp");
        let text = std::fs::read_to_string(&path).expect("example program");
        let out = run_pipeline(&[SourceFile::new(&path, &text)]).expect("example compiles");
        Program { name: path, flat: out.program.lower(), paper_case: false }
    });
    cases.chain(examples).collect()
}

/// The program named `name` (a T case or an example path).
pub fn program(name: &str) -> Program {
    programs().into_iter().find(|p| p.name == name).expect("program in the matrix")
}

/// The faulted sweeps' options: spurious wakeups, failed locks and
/// allocations, and up to two killed threads, where runs legitimately end
/// in deadlocks or guest errors.
pub fn fault_opts() -> VmOptions {
    VmOptions {
        faults: Some(FaultPlan {
            seed: 11,
            wakeup_permille: 120,
            lockfail_permille: 60,
            allocfail_permille: 25,
            kill_permille: 8,
            max_kills: 2,
        }),
        ..VmOptions::default()
    }
}

/// Round-robin, or seeded random when a seed is given.
pub fn scheduler(seed: Option<u64>) -> Box<dyn Scheduler> {
    match seed {
        Some(s) => Box::new(SeededRandom::new(s)),
        None => Box::new(RoundRobin::new()),
    }
}

/// How one half of a comparison runs a detector.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Run on the tree-walking reference core (`Vm::new`) instead of the
    /// compiled one.
    pub reference_core: bool,
    /// Put the redundant-access filter in front of the detector.
    pub filtered: bool,
    /// Keep HB read state in full vector clocks
    /// (`DetectorConfig::hb_reference`).
    pub hb_reference: bool,
}

/// What `raceline check` runs.
pub const PRODUCTION: Side = Side { reference_core: false, filtered: true, hb_reference: false };
pub const UNFILTERED: Side = Side { filtered: false, ..PRODUCTION };
pub const HB_REFERENCE: Side = Side { hb_reference: true, ..PRODUCTION };
pub const REFERENCE_CORE: Side = Side { reference_core: true, ..PRODUCTION };

/// The named engine, built the way the CLI builds it.
pub fn detector(engine: &str, hb_reference: bool) -> AnyDetector {
    let cfg = DetectorConfig { hb_reference, ..DetectorConfig::by_name(engine).expect("engine") };
    AnyDetector::by_name(engine, cfg, SuppressionSet::new())
}

/// Run `tool` on the core `side` names.
fn run_tool(
    side: Side,
    flat: &FlatProgram,
    tool: &mut dyn Tool,
    sched: &mut dyn Scheduler,
    opts: VmOptions,
) -> RunResult {
    if side.reference_core {
        Vm::new(flat, opts).run(tool, sched)
    } else {
        run_flat(flat, tool, sched, opts)
    }
}

/// Run `engine` over `flat` the way `side` says.
pub fn run(
    flat: &FlatProgram,
    engine: &str,
    opts: &VmOptions,
    sched: &mut dyn Scheduler,
    side: Side,
) -> (RunResult, AnyDetector) {
    let det = detector(engine, side.hb_reference);
    if side.filtered {
        let mut tool = FilterTool::new(det);
        let r = run_tool(side, flat, &mut tool, sched, opts.clone());
        (r, tool.into_parts().0)
    } else {
        let mut det = det;
        let r = run_tool(side, flat, &mut det, sched, opts.clone());
        (r, det)
    }
}

/// Fold what a user can read from a finished run into one string:
/// termination, the truncation flag, the run counters the trace footer and
/// the soak log persist, and every rendered report.
pub fn render(r: &RunResult, det: &mut AnyDetector) -> String {
    let mut out = format!(
        "termination: {:?}\ntruncated: {}\nslots: {} events: {} ops: {} threads: {} allocs: {}\n",
        r.termination,
        det.truncated(),
        r.stats.slots,
        r.stats.events,
        r.stats.ops,
        r.stats.threads_created,
        r.stats.allocs
    );
    for rep in det.take_reports() {
        out.push_str(&rep.render());
        out.push('\n');
    }
    out
}

/// [`run`] then [`render`].
pub fn observe(
    flat: &FlatProgram,
    engine: &str,
    opts: &VmOptions,
    seed: Option<u64>,
    side: Side,
) -> String {
    let (r, mut det) = run(flat, engine, opts, scheduler(seed).as_mut(), side);
    render(&r, &mut det)
}

/// Run every program × engine on [`PRODUCTION`] and on `twin` — under
/// round-robin, or under [`fault_opts`] and a per-program seeded schedule
/// when `faulted` — and fail on the first difference. Returns FNV-1a-64
/// over the production observations of T1–T8, in case then engine order.
pub fn assert_matrix(twin: Side, faulted: bool) -> u64 {
    let mut digest = Fnv1a::default();
    for (i, p) in programs().iter().enumerate() {
        let (opts, seed) = if faulted {
            (fault_opts(), Some(0xC0FFEE + i as u64))
        } else {
            (VmOptions::default(), None)
        };
        for engine in ENGINES {
            let production = observe(&p.flat, engine, &opts, seed, PRODUCTION);
            let other = observe(&p.flat, engine, &opts, seed, twin);
            assert_eq!(production, other, "{}: {engine} diverged from {twin:?}", p.name);
            if p.paper_case {
                digest.update(production.as_bytes());
            }
        }
    }
    digest.0
}

/// Record one round-robin run of `flat` as `.rltrace` bytes, through the
/// filter and on the core `side` names.
pub fn record(flat: &FlatProgram, epoch_events: u64, side: Side) -> Vec<u8> {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// `TraceWriter::finish` consumes the writer without returning the
    /// sink, so share the buffer with the caller through an Arc.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let sink = SharedBuf::default();
    let writer = TraceWriter::new(sink.clone()).with_epoch_events(epoch_events);
    let (sched, opts) = (&mut RoundRobin::new(), VmOptions::default());
    let (r, writer) = if side.filtered {
        let mut tool = FilterTool::new(writer);
        let r = run_tool(side, flat, &mut tool, sched, opts);
        (r, tool.into_parts().0)
    } else {
        let mut writer = writer;
        let r = run_tool(side, flat, &mut writer, sched, opts);
        (r, writer)
    };
    writer
        .finish(&r.termination, &r.stats, r.faults.as_ref())
        .expect("in-memory trace write cannot fail");
    let bytes = sink.0.lock().unwrap().clone();
    bytes
}

/// Replay a recorded trace through `engine` and return what a user reads:
/// every rendered report and the truncation flag.
pub fn replay(bytes: &[u8], engine: &str, hb_reference: bool, jobs: usize) -> (Vec<String>, bool) {
    let outcome = analyze_trace_bytes(bytes, detector(engine, hb_reference), jobs, 0)
        .expect("recorded trace must analyze cleanly");
    (outcome.reports.iter().map(Report::render).collect(), outcome.truncated)
}
