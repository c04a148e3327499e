//! Traced VM runs: the public lower → compile → run calls of one analysis
//! run in separate spans, and the reference tool stacks (bare VM, filter
//! over a null tool) that split the run span into dispatch, filter and
//! engine time.

use helgrind_core::EngineStats;
use vexec::filter::{FilterStats, FilterTool};
use vexec::ir::lower::FlatProgram;
use vexec::ir::Program;
use vexec::sched::Scheduler;
use vexec::tool::{NullTool, Tool};
use vexec::vm::{RunResult, Vm, VmOptions};
use vexec::CompiledProgram;

use crate::bench::Counters;
use crate::spans::{Split, Tracer};

pub const DISPATCH: &str = "vexec.vm.dispatch_ms";
pub const FILTER: &str = "vexec.filter.ms";

/// The per-operation time layer of a detector engine.
pub fn engine_layer(engine: &str) -> &'static str {
    match engine {
        "djit" => "core.djit.ms",
        "hybrid" => "core.hybrid.ms",
        _ => "core.eraser.ms",
    }
}

/// A program lowered and compiled under spans.
pub struct Compiled {
    pub flat: FlatProgram,
    pub code: CompiledProgram,
}

pub fn compile(tr: &mut Tracer, prog: &Program) -> Compiled {
    let flat = tr.time("vexec.ir.lower_ms", || prog.lower());
    let code = tr.time("vexec.ir.compile_ms", || vexec::compile(&flat));
    Compiled { flat, code }
}

impl Compiled {
    /// One run on the compiled core: what `run_program`/`run_flat` do
    /// after lowering and compiling.
    pub fn run(
        &self,
        tool: &mut dyn Tool,
        sched: &mut dyn Scheduler,
        opts: VmOptions,
    ) -> RunResult {
        Vm::with_compiled(&self.flat, &self.code, opts).run(tool, sched)
    }

    /// The real run, in a span named `vexec.vm.run` whose self time the
    /// reference stacks split later. Returns the run and the span id.
    pub fn run_spanned(
        &self,
        tr: &mut Tracer,
        tool: &mut dyn Tool,
        sched: &mut dyn Scheduler,
        opts: VmOptions,
    ) -> (RunResult, usize) {
        let id = tr.begin("vexec.vm.run");
        let r = self.run(tool, sched, opts);
        tr.end(id);
        (r, id)
    }

    /// Reference stacks under the same program, options and schedule:
    /// the bare VM, then the filter over a null tool. Record them after
    /// the operation's root span closes; the returned split divides the
    /// run span `run` into dispatch, filter and `top`.
    pub fn split<S: Scheduler>(
        &self,
        tr: &mut Tracer,
        run: usize,
        opts: &VmOptions,
        sched: impl Fn() -> S,
        top: &'static str,
    ) -> Split {
        let (_, bare) =
            tr.measure("ref.vm.null", || self.run(&mut NullTool, &mut sched(), opts.clone()));
        let (_, filtered) = tr.measure("ref.vm.filter", || {
            self.run(&mut FilterTool::new(NullTool), &mut sched(), opts.clone())
        });
        Split { span: run, refs: vec![(DISPATCH, bare), (FILTER, filtered)], top }
    }
}

/// Counters of one analysis run at the VM/filter/engine boundaries.
/// `split` is the run's [`Compiled::split`]; its bare-VM reference gives
/// the dispatch time per event.
pub fn count_run(
    c: &mut Counters,
    r: &RunResult,
    filter: &FilterStats,
    code: &CompiledProgram,
    engines: &[EngineStats],
    split: &Split,
) {
    c.add_ratio("vexec.vm.ns_per_event", split.refs[0].1 * 1e6, r.stats.events as f64);
    c.add("vexec.vm.events", r.stats.events as f64);
    c.add("vexec.vm.slots", r.stats.slots as f64);
    c.add("vexec.vm.threads_created", f64::from(r.stats.threads_created));
    // Superinstructions each cover two flat ops.
    c.add_ratio(
        "vexec.vm.fused_ratio",
        2.0 * r.stats.interp.fused as f64,
        r.stats.interp.total() as f64,
    );
    c.add_ratio("vexec.filter.hit_ratio", filter.elided as f64, filter.candidates as f64);
    c.add("vexec.ir.instrs", code.stats.instrs as f64);
    if engines.is_empty() {
        return;
    }
    c.add("core.engine.accesses", engines.iter().map(|e| e.accesses as f64).sum());
    c.add(
        "core.shadow.peak_granules",
        engines.iter().map(|e| e.peak_granules).max().unwrap_or(0) as f64,
    );
    c.add(
        "core.shadow.end_granules",
        engines.iter().map(|e| e.live_granules).max().unwrap_or(0) as f64,
    );
    for e in engines {
        if let Some(ep) = e.epoch {
            c.add_ratio("core.hb.epoch_hit_ratio", ep.epoch_hits as f64, e.accesses as f64);
        }
    }
}
