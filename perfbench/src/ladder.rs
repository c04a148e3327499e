//! `ladder`: the paper's §4.5 overhead program, one filtered analysis run
//! per operation, rotating through `hwlc-dr`, `djit` and `hybrid`.
//!
//! The VM dispatch loop and the redundant-access filter do most of the
//! work here: the private parse phase makes the filter elide nearly every
//! candidate access, no reports are produced, and lowering plus compiling
//! the small program costs microseconds.
//!
//! Operations also rotate through program sizes. One fixed size gives
//! latencies in tight clusters, and the median of clustered latencies
//! jumps between clusters when the host changes speed part-way through a
//! run; spread sizes make it move smoothly instead.

use helgrind_core::{AnyDetector, DetectorConfig, SuppressionSet};
use sipsim::native::{native_workload, vm_workload_program, WorkloadSpec};
use vexec::filter::FilterTool;
use vexec::ir::Program;
use vexec::sched::RoundRobin;
use vexec::vm::{run_program, RunResult, VmOptions};

use crate::bench::{guarded, Counters, Layers, OpResult, Outcome, Work, Workload};
use crate::host;
use crate::spans::{Split, Tracer};
use crate::stack;
use crate::stats::{median, ratio};

/// Iteration counts the operations rotate through: 1,000 to 3,000 in
/// steps of 100, 2,000 (280,014 events) on average.
pub const ITERATIONS: [u64; 21] = {
    let mut sizes = [0; 21];
    let mut k = 0;
    while k < sizes.len() {
        sizes[k] = 1_000 + 100 * k as u64;
        k += 1;
    }
    sizes
};

/// The §4.5 program at `iterations`. Two guest threads: no more than the
/// host's two vCPUs, so the native reference of the traced run does not
/// oversubscribe the host.
pub fn spec(iterations: u64) -> WorkloadSpec {
    WorkloadSpec { threads: 2, iterations, parse_reads: 32 }
}

pub const ENGINES: [&str; 3] = ["hwlc-dr", "djit", "hybrid"];

/// Events the guest emits: per worker iteration, lock + load + store +
/// unlock + two atomic RMWs and two loads per parse read; per worker,
/// start/exit plus main's spawn and join; main's own set-up and final
/// locked read.
pub fn expected_events(spec: WorkloadSpec) -> u64 {
    let t = spec.threads as u64;
    t * spec.iterations * (6 + 2 * spec.parse_reads) + 4 * t + 6
}

pub struct Ladder {
    /// One program per size, with its expected event count.
    progs: Vec<(Program, u64)>,
    /// §4.5 reference samples of the traced run: native time (ms), and
    /// bare VM and full analysis over native.
    native_ms: Vec<f64>,
    vm_x: Vec<f64>,
    slowdown_x: Vec<f64>,
}

/// Engine and program size of operation `i`: every 63 operations cover
/// each (engine, size) pair once.
fn kind(i: u64) -> (&'static str, usize) {
    let i = i as usize;
    (ENGINES[i % ENGINES.len()], (i / ENGINES.len()) % ITERATIONS.len())
}

fn detector(engine: &str) -> AnyDetector {
    let cfg = DetectorConfig::by_name(engine).expect("ladder engines are presets");
    AnyDetector::by_name(engine, cfg, SuppressionSet::new())
}

/// The answer key: a clean run, no warnings, the exact event count.
fn check(r: &RunResult, reports: usize, expected_events: u64) -> OpResult {
    if !r.termination.is_clean() {
        return Err(format!("ladder run ended {:?}", r.termination));
    }
    if reports != 0 {
        return Err(format!("ladder produced {reports} warning(s), expected 0"));
    }
    if r.stats.events != expected_events {
        return Err(format!(
            "ladder emitted {} events, expected {expected_events}",
            r.stats.events
        ));
    }
    Ok(Work { events: r.stats.events, dialogs: 0 })
}

impl Workload for Ladder {
    const NAME: &'static str = "ladder";

    fn setup(_seed: u64, out: &mut Outcome, mut tr: Option<&mut Tracer>) -> Result<Self, String> {
        let progs = ITERATIONS
            .iter()
            .map(|&n| {
                let prog = match tr.as_mut() {
                    Some(tr) => tr.time("sipsim.build_ms", || vm_workload_program(spec(n))),
                    None => vm_workload_program(spec(n)),
                };
                (prog, expected_events(spec(n)))
            })
            .collect();
        let mut w =
            Ladder { progs, native_ms: Vec::new(), vm_x: Vec::new(), slowdown_x: Vec::new() };
        for i in 0..ENGINES.len() as u64 {
            let r = guarded(|| w.op(i));
            out.record(&r);
        }
        Ok(w)
    }

    fn op(&mut self, i: u64) -> OpResult {
        let (engine, size) = kind(i);
        let (prog, events) = &self.progs[size];
        let mut tool = FilterTool::new(detector(engine));
        let r = run_program(prog, &mut tool, &mut RoundRobin::new());
        let reports = tool.into_parts().0.take_reports();
        let rendered: usize = reports.iter().map(|rep| rep.render().len()).sum();
        std::hint::black_box(rendered);
        check(&r, reports.len(), *events)
    }

    fn op_traced(
        &mut self,
        i: u64,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> (OpResult, usize, Vec<Split>) {
        let (engine, size) = kind(i);
        let events = self.progs[size].1;
        let root = tr.begin("op");
        let prog = stack::compile(tr, &self.progs[size].0);
        let mut tool = FilterTool::new(detector(engine));
        let (r, run) =
            prog.run_spanned(tr, &mut tool, &mut RoundRobin::new(), VmOptions::default());
        let (mut det, filter) = tool.into_parts();
        let reports = det.take_reports();
        let rendered: usize =
            tr.time("core.report.render_ms", || reports.iter().map(|rep| rep.render().len()).sum());
        std::hint::black_box(rendered);
        let result = check(&r, reports.len(), events);
        tr.end(root);

        let split = prog.split(
            tr,
            run,
            &VmOptions::default(),
            RoundRobin::new,
            stack::engine_layer(engine),
        );
        stack::count_run(c, &r, &filter, &prog.code, &det.engine_stats(), &split);
        c.add("core.report.locations", reports.len() as f64);

        // §4.5 reference: the same logical work on OS threads, free to use
        // every vCPU while the benchmark itself stays pinned.
        let (v, native) = host::on_all_cpus(|| {
            tr.measure("ref.native", || native_workload(spec(ITERATIONS[size])))
        });
        std::hint::black_box(v);
        self.native_ms.push(native);
        self.vm_x.push(ratio(split.refs[0].1, native));
        self.slowdown_x.push(ratio(tr.duration_ms(root), native));
        (result, root, vec![split])
    }

    fn finish_traced(&mut self, layers: &mut Layers) {
        let c = &mut layers.ops_counters;
        c.set("ladder.native_ms", median(&self.native_ms).unwrap_or(0.0));
        c.set("ladder.vm_x", median(&self.vm_x).unwrap_or(0.0));
        c.set("ladder.slowdown_x", median(&self.slowdown_x).unwrap_or(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::tool::NullTool;

    #[test]
    fn event_formula_matches_the_guest() {
        for spec in [
            spec(ITERATIONS[0]),
            WorkloadSpec { threads: 1, iterations: 10, parse_reads: 0 },
            WorkloadSpec { threads: 3, iterations: 7, parse_reads: 5 },
        ] {
            let r = run_program(&vm_workload_program(spec), &mut NullTool, &mut RoundRobin::new());
            assert_eq!(r.stats.events, expected_events(spec), "{spec:?}");
        }
    }
}
