//! Compiled-bytecode vs tree-walking interpreter micro-benchmarks.
//!
//! Isolates the costs the operand-specialized compile pass removes from
//! the VM hot loop:
//!
//! * `interp-run-*` — one full run of the §4.5 overhead workload on each
//!   core with no tool attached: the headline `vm-no-tool` A/B. The
//!   compiled row runs from a [`PreparedProgram`], so the one-time compile
//!   is hoisted out of the measurement exactly as `--explore` hoists it;
//!   the reference row builds its VM with `Vm::new`, the reference core's
//!   constructor.
//! * `interp-filtered-*` — the same A/B with the production filtered
//!   hybrid detector attached, bounding how much of the end-to-end
//!   `check` latency the dispatch loop still owns once shadow-memory
//!   work dominates.
//! * `interp-compile` — the one-time cost of the compile pass itself
//!   (operand specialization, superinstruction fusion, register-frame
//!   layout), which every compiled run amortises.
//!
//! Stdout equivalence between the two cores is pinned by the
//! `interp_golden` gate and the `compiled_equivalence` proptests; this
//! file only measures.
//!
//! Run with: `cargo bench -p race-bench --bench interp`

use criterion::{criterion_group, criterion_main, Criterion};
use helgrind_core::{DetectorConfig, HybridDetector};
use sipsim::native::{vm_workload_program, WorkloadSpec};
use std::hint::black_box;
use vexec::filter::FilterTool;
use vexec::ir::compile::compile;
use vexec::sched::RoundRobin;
use vexec::tool::{NullTool, Tool};
use vexec::vm::{PreparedProgram, Vm, VmOptions};

const SPEC: WorkloadSpec = WorkloadSpec { threads: 4, iterations: 1_000, parse_reads: 16 };

fn bench_interp(c: &mut Criterion) {
    let prog = vm_workload_program(SPEC);
    let flat = prog.lower();
    let mut group = c.benchmark_group("interp");
    group.sample_size(10);

    let prepared = PreparedProgram::new(&flat);
    let run = |reference: bool, tool: &mut dyn Tool| {
        let (sched, opts) = (&mut RoundRobin::new(), VmOptions::default());
        if reference {
            Vm::new(&flat, opts).run(tool, sched)
        } else {
            prepared.run(tool, sched, opts)
        }
    };

    for (name, reference) in [("compiled", false), ("reference", true)] {
        group.bench_function(format!("interp-run-{name}"), |b| {
            b.iter(|| black_box(run(reference, &mut NullTool).stats.ops))
        });
    }

    for (name, reference) in [("compiled", false), ("reference", true)] {
        group.bench_function(format!("interp-filtered-{name}"), |b| {
            b.iter(|| {
                let mut tool = FilterTool::new(HybridDetector::new(DetectorConfig::hybrid()));
                run(reference, &mut tool);
                black_box(tool.inner().sink.location_count())
            })
        });
    }

    group.bench_function("interp-compile", |b| {
        b.iter(|| black_box(compile(black_box(&flat))).stats.instrs)
    });

    group.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
