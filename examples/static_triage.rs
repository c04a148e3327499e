//! Static/dynamic cross-check triage: the same program analysed both ways.
//!
//! A dynamic detector only reports what the schedule executes — the
//! paper's Fig 7 bug survived production testing precisely because no run
//! took the buggy path. Here a lock-order inversion hides behind a flag
//! that is never set at runtime: the dynamic detector confirms the real
//! data race (confirmed-both) but is blind to the inversion; the static
//! lock-order graph walks both branches and predicts it (static-only).
//!
//! Run with: `cargo run --example static_triage`

use helgrind_core::{AnyDetector, DetectorConfig, Report};
use minicpp::pipeline::{run_pipeline, SourceFile};
use std::collections::BTreeSet;
use vexec::sched::RoundRobin;
use vexec::vm::run_program;

const APP: &str = "
mutex g_a;
mutex g_b;
int g_flag;
int g_counter;
int g_racy;

void worker(int n) {
    g_racy = g_racy + n;
    lock(g_a);
    lock(g_b);
    g_counter = g_counter + 1;
    unlock(g_b);
    unlock(g_a);
}

void cleanup() {
    if (g_flag == 1) {
        lock(g_b);
        lock(g_a);
        g_counter = g_counter + 1;
        unlock(g_a);
        unlock(g_b);
    }
}

void main() {
    g_flag = 0;
    thread a = spawn worker(1);
    thread b = spawn worker(2);
    join(a);
    join(b);
    cleanup();
}
";

fn key(r: &Report) -> (String, String, u32) {
    (r.kind.name().to_string(), r.file.clone(), r.line)
}

fn main() {
    let out = run_pipeline(&[SourceFile::new("triage.cpp", APP)]).expect("compiles");

    // Dynamic side: one concrete schedule under HWLC+DR.
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    let result = run_program(&out.program, &mut det, &mut RoundRobin::new());
    let dynamic = det.sink.take_reports();
    println!("dynamic run: {:?}, {} report(s)", result.termination, dynamic.len());

    // Static side: every path, no schedule.
    let stat = minicpp::analysis::analyze(&out.units);
    println!("static analysis: {} report(s)\n", stat.reports.len());

    let dyn_keys: BTreeSet<_> = dynamic.iter().map(key).collect();
    let stat_keys: BTreeSet<_> = stat.reports.iter().map(key).collect();

    for r in stat.reports.iter().filter(|r| dyn_keys.contains(&key(r))) {
        println!("[confirmed-both] {} at {}:{}", r.kind.name(), r.file, r.line);
        println!("    {}", r.details);
    }
    for r in stat.reports.iter().filter(|r| !dyn_keys.contains(&key(r))) {
        println!("[static-only]    {} at {}:{}", r.kind.name(), r.file, r.line);
        println!("    {}", r.details);
    }
    for r in dynamic.iter().filter(|r| !stat_keys.contains(&key(r))) {
        println!("[dynamic-only]   {} at {}:{}", r.kind.name(), r.file, r.line);
    }

    // The schedule never took the g_flag branch, so the inversion is
    // invisible dynamically — exactly the §2.3.2 coverage gap static
    // analysis closes.
    let confirmed = stat.reports.iter().filter(|r| dyn_keys.contains(&key(r))).count();
    let static_only = stat.reports.len() - confirmed;
    println!("\n{confirmed} confirmed-both, {static_only} static-only");
    assert!(confirmed >= 1, "the real race is seen by both sides");
    assert!(static_only >= 1, "the gated AB-BA is predicted only statically");
}
