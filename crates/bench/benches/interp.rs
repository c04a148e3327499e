//! Compiled-bytecode vs tree-walking interpreter micro-benchmarks.
//!
//! Isolates the costs the operand-specialized compile pass removes from
//! the VM hot loop:
//!
//! * `interp-run-*` — one full run of the §4.5 overhead workload on each
//!   core with no tool attached: the headline `vm-no-tool` A/B. Both rows
//!   run from a [`PreparedProgram`], so the one-time compile is hoisted
//!   out of the measurement exactly as `check`/`--explore` hoist it.
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
use vexec::tool::NullTool;
use vexec::vm::{PreparedProgram, VmMode, VmOptions};

const SPEC: WorkloadSpec = WorkloadSpec { threads: 4, iterations: 1_000, parse_reads: 16 };

fn bench_interp(c: &mut Criterion) {
    let prog = vm_workload_program(SPEC);
    let flat = prog.lower();
    let mut group = c.benchmark_group("interp");
    group.sample_size(10);

    for (name, mode) in [("compiled", VmMode::Compiled), ("reference", VmMode::Reference)] {
        let prepared = PreparedProgram::new(&flat, mode);
        group.bench_function(format!("interp-run-{name}"), |b| {
            b.iter(|| {
                let r = prepared.run(&mut NullTool, &mut RoundRobin::new(), VmOptions::default());
                black_box(r.stats.ops)
            })
        });
    }

    for (name, mode) in [("compiled", VmMode::Compiled), ("reference", VmMode::Reference)] {
        let prepared = PreparedProgram::new(&flat, mode);
        group.bench_function(format!("interp-filtered-{name}"), |b| {
            b.iter(|| {
                let mut tool = FilterTool::new(HybridDetector::new(DetectorConfig::hybrid()));
                prepared.run(&mut tool, &mut RoundRobin::new(), VmOptions::default());
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
