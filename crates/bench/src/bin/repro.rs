//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p race-bench --bin repro -- all
//! cargo run --release -p race-bench --bin repro -- fig6
//! cargo run --release -p race-bench --bin repro -- fig6 --json out.json
//! ```
//!
//! Subcommands: fig5 fig6 fig8 fig10 fig4 e6-falseneg e7-perf e8-bugs
//! e9-deadlock e10-ablation e11-alloc e12-queue-hb all

use race_bench::experiments::*;
use serde::Serialize;
use sipsim::native::WorkloadSpec;
use std::io::Write;

fn maybe_json<T: Serialize>(json_path: &Option<String>, name: &str, value: &T) {
    if let Some(path) = json_path {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open json output");
        let line = serde_json::json!({ "experiment": name, "result": value });
        writeln!(file, "{line}").expect("write json output");
    }
}

fn fig6(json: &Option<String>) {
    println!(
        "## E1 / Fig 6 — reported possible-data-race locations (paper values in parentheses)\n"
    );
    println!("{:<5} {:>16} {:>16} {:>16}  {:>8}", "Case", "Original", "HWLC", "HWLC+DR", "FP cut");
    let rows = e1_fig6();
    #[derive(Serialize)]
    struct Row {
        case: &'static str,
        original: usize,
        hwlc: usize,
        hwlc_dr: usize,
        paper: (usize, usize, usize),
        fp_reduction: f64,
        unexpected: usize,
    }
    let mut out = Vec::new();
    for row in &rows {
        let (po, ph, pd) = row.paper;
        println!(
            "{:<5} {:>10} ({:>4}) {:>10} ({:>4}) {:>10} ({:>4})  {:>7.1}%",
            row.name,
            row.original.locations,
            po,
            row.hwlc.locations,
            ph,
            row.hwlc_dr.locations,
            pd,
            row.fp_reduction() * 100.0
        );
        out.push(Row {
            case: row.name,
            original: row.original.locations,
            hwlc: row.hwlc.locations,
            hwlc_dr: row.hwlc_dr.locations,
            paper: row.paper,
            fp_reduction: row.fp_reduction(),
            unexpected: row.original.unexpected + row.hwlc.unexpected + row.hwlc_dr.unexpected,
        });
    }
    maybe_json(json, "fig6", &out);
    println!();
}

fn fig5(json: &Option<String>) {
    println!("## E2 / Fig 5 — warning breakdown by ground truth (Original configuration)\n");
    println!(
        "{:<5} {:>14} {:>16} {:>12} {:>12}",
        "Case", "bus-lock FP", "destructor FP", "real races", "unexpected"
    );
    let rows = e1_fig6();
    #[derive(Serialize)]
    struct Row {
        case: &'static str,
        bus_fp: usize,
        dtor_fp: usize,
        real: usize,
        unexpected: usize,
    }
    let mut out = Vec::new();
    for row in &rows {
        println!(
            "{:<5} {:>14} {:>16} {:>12} {:>12}",
            row.name,
            row.original.bus_fp,
            row.original.dtor_fp,
            row.original.real,
            row.original.unexpected
        );
        out.push(Row {
            case: row.name,
            bus_fp: row.original.bus_fp,
            dtor_fp: row.original.dtor_fp,
            real: row.original.real,
            unexpected: row.original.unexpected,
        });
    }
    maybe_json(json, "fig5", &out);
    println!();
}

fn fig8(json: &Option<String>) {
    println!("## E3 / Fig 8+9 — std::string refcount false positive\n");
    let r = e3_fig8();
    println!("Original bus-lock model: {} warning location(s)", r.original_locations);
    if let Some(rep) = &r.original_report {
        println!("{rep}");
    }
    println!("HWLC bus-lock model:     {} warning location(s)\n", r.hwlc_locations);
    maybe_json(json, "fig8", &r);
}

fn fig10(json: &Option<String>) {
    println!("## E4 / Fig 10+11 — ownership hand-off: thread-per-request vs thread pool\n");
    let r = e4_handoff();
    println!(
        "thread-per-request: {} total locations, {} hand-off FPs",
        r.tpr_total, r.tpr_handoff_fps
    );
    println!(
        "thread pool:        {} total locations, {} hand-off FPs",
        r.pool_total, r.pool_handoff_fps
    );
    println!(
        "thread pool + queue-aware hybrid (E12 / §5): {} hand-off FPs\n",
        r.pool_queue_hb_handoff_fps
    );
    maybe_json(json, "fig10", &r);
}

fn fig4(json: &Option<String>) {
    println!("## E5 / Fig 3+4 — automatic delete-annotation pipeline\n");
    let r = e5_pipeline();
    println!("delete sites annotated: {}", r.deletes_annotated);
    println!("--- annotated source (stage 2 output) ---");
    println!("{}", r.annotated_source);
    println!("plain build warnings:        {}", r.plain_warnings);
    println!("instrumented build warnings: {}\n", r.instrumented_warnings);
    maybe_json(json, "fig4", &r);
}

fn e6(json: &Option<String>) {
    println!("## E6 / §4.3 — schedule-dependent false negative\n");
    let r = e6_false_negative();
    println!("unlocked write observed first: {} warnings (the documented miss)", r.unlocked_first);
    println!("locked write observed first:   {} warnings", r.locked_first);
    println!(
        "random schedules: caught in {}/{} runs (\"repeated tests with different\n  test data could help find such data-races\")\n",
        r.random_caught, r.schedules_tried
    );
    maybe_json(json, "e6-falseneg", &r);
}

fn e7(json: &Option<String>) {
    println!("## E7 / §4.5 — execution overhead (paper: VM 8-10x, VM+analysis 20-30x)\n");
    let spec = WorkloadSpec { threads: 4, iterations: 5_000, parse_reads: 16 };
    let r = e7_performance(spec, 5);
    println!(
        "workload: {} threads x {} iterations, {} events",
        spec.threads, spec.iterations, r.events
    );
    println!("native threads:        {:>9.3} ms   (1.0x)", r.native_ms);
    println!("VM, no tool:           {:>9.3} ms   ({:.1}x)", r.vm_null_ms, r.vm_slowdown);
    println!("VM + Eraser (HWLC+DR): {:>9.3} ms   ({:.1}x)", r.vm_eraser_ms, r.analysis_slowdown);
    println!(
        "VM + DJIT:             {:>9.3} ms   ({:.1}x)",
        r.vm_djit_ms,
        r.vm_djit_ms / r.native_ms
    );
    println!(
        "VM + hybrid:           {:>9.3} ms   ({:.1}x)\n",
        r.vm_hybrid_ms,
        r.vm_hybrid_ms / r.native_ms
    );
    maybe_json(json, "e7-perf", &r);
}

fn e8(json: &Option<String>) {
    println!("## E8 / §4.1 — true positives survive HWLC+DR\n");
    let results = e8_true_positives();
    for b in &results {
        println!(
            "{:<26} {:<16} detected={} ({} location(s))",
            b.name, b.section, b.detected, b.locations
        );
    }
    println!();
    if let Some(first) = results.first().and_then(|b| b.first_report.clone()) {
        println!("example report:\n{first}");
    }
    maybe_json(json, "e8-bugs", &results);
}

fn e9(json: &Option<String>) {
    println!("## E9 / §2.1+§3.3 — deadlock prediction and detection\n");
    let r = e9_deadlock();
    println!("lock-order cycles predicted on a run that did NOT deadlock: {}", r.predicted_cycles);
    if let Some(rep) = &r.prediction_report {
        println!("{rep}");
    }
    println!(
        "concurrent run: actual deadlock = {}, blocked threads = {}\n",
        r.actual_deadlock, r.blocked_threads
    );
    maybe_json(json, "e9-deadlock", &r);
}

fn e10(json: &Option<String>) {
    println!("## E10 — ablations: thread segments and detector families\n");
    let r = e10_ablation();
    println!(
        "fork-join hand-off, thread segments ON  (Visual Threads): {} warnings",
        r.fork_join_with_segments
    );
    println!(
        "fork-join hand-off, thread segments OFF (plain Eraser):   {} warnings",
        r.fork_join_without_segments
    );
    println!();
    println!("queue hand-off under each detector:");
    println!("  lockset (Eraser):        {}", r.queue_lockset);
    println!("  happens-before (DJIT):   {}", r.queue_djit);
    println!("  hybrid:                  {}", r.queue_hybrid);
    println!("  hybrid + queue hb (E12): {}\n", r.queue_hybrid_qhb);
    maybe_json(json, "e10-ablation", &r);
}

fn e11(json: &Option<String>) {
    println!("## E11 / §4 — libstdc++ pooling allocator reuse\n");
    let r = e11_pool();
    println!("pooled allocator:   {} warning(s)", r.pooled_warnings);
    if let Some(rep) = &r.pooled_report {
        println!("{rep}");
    }
    println!("GLIBCPP_FORCE_NEW:  {} warning(s)\n", r.force_new_warnings);
    maybe_json(json, "e11-alloc", &r);
}

fn e12(json: &Option<String>) {
    println!("## E12 / §5 — higher-level synchronisation awareness (future work)\n");
    let r = e10_ablation();
    println!("queue hand-off FP under lockset: {}", r.queue_lockset);
    println!("after teaching the hybrid detector queue put/get edges: {}\n", r.queue_hybrid_qhb);
    maybe_json(json, "e12-queue-hb", &r);
}

fn e13(json: &Option<String>) {
    println!("## E13 / §2.2 — on-the-fly vs post-mortem analysis\n");
    let r = e13_offline();
    println!("T3 execution: {} events", r.events);
    println!(
        "trace log: {} bytes ({:.1} bytes/event) — the offline data cost",
        r.trace_bytes, r.bytes_per_event
    );
    println!("recording took {:.2} ms, post-mortem analysis {:.2} ms", r.record_ms, r.analyze_ms);
    println!(
        "warning locations: online {} == offline {} (reports byte-identical: {})\n",
        r.online_locations, r.offline_locations, r.reports_identical
    );
    maybe_json(json, "e13-offline", &r);
}

fn e14(json: &Option<String>) {
    println!("## E14 / §2.3.2 — schedule exploration (repeated runs)\n");
    let r = e14_explore();
    println!("one round-robin run reports {} location(s)", r.single_run_locations);
    println!(
        "{} seeded runs report {} distinct location(s): {} robust, {} schedule-dependent\n",
        r.runs, r.distinct_locations, r.robust_locations, r.flaky_locations
    );
    maybe_json(json, "e14-explore", &r);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json: Option<String> = None;
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json = Some(it.next().expect("--json needs a path"));
        } else {
            cmds.push(a);
        }
    }
    if cmds.is_empty() {
        eprintln!(
            "usage: repro [--json out.jsonl] <fig5|fig6|fig8|fig10|fig4|e6-falseneg|e7-perf|e8-bugs|e9-deadlock|e10-ablation|e11-alloc|e12-queue-hb|e13-offline|e14-explore|all>"
        );
        std::process::exit(2);
    }
    for cmd in cmds {
        match cmd.as_str() {
            "fig5" => fig5(&json),
            "fig6" => fig6(&json),
            "fig8" => fig8(&json),
            "fig10" => fig10(&json),
            "fig4" => fig4(&json),
            "e6-falseneg" => e6(&json),
            "e7-perf" => e7(&json),
            "e8-bugs" => e8(&json),
            "e9-deadlock" => e9(&json),
            "e10-ablation" => e10(&json),
            "e11-alloc" => e11(&json),
            "e12-queue-hb" => e12(&json),
            "e13-offline" => e13(&json),
            "e14-explore" => e14(&json),
            "all" => {
                fig6(&json);
                fig5(&json);
                fig8(&json);
                fig10(&json);
                fig4(&json);
                e6(&json);
                e7(&json);
                e8(&json);
                e9(&json);
                e10(&json);
                e11(&json);
                e12(&json);
                e13(&json);
                e14(&json);
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }
}
