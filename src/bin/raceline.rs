//! `raceline` — check a mini-C++ program for races and deadlocks, the way
//! the paper's debugging process (Fig 3) runs a server under Helgrind.
//!
//! ```text
//! raceline check app.mcpp [lib.mcpp ...] [options]
//! raceline check app.mcpp [lib.mcpp ...] --explore <n> [options]
//! raceline record app.mcpp [lib.mcpp ...] [--out <trace.rltrace>] [options]
//! raceline record --case <T1..T8> [--out <trace.rltrace>] [options]
//! raceline analyze trace.rltrace [--detector <name>] [--jobs <n>] [options]
//! raceline soak [--dialogs <n>] [--phases <n>] [--seed <s>] [--kill <permille>] [options]
//! raceline trace-diff old.rltrace new.rltrace [--detector <name>] [--json]
//! raceline serve --listen <addr> --spool <dir> [--detector <name>] [--jobs <n>]
//! raceline serve --fold [--detector <name>] <build>=<trace.rltrace>...
//! raceline client --connect <addr> <submit|query|diff|suppress|stats|ping|shutdown> ...
//! raceline lint  app.mcpp [lib.mcpp ...] [--raw <file>] [--json]
//! raceline chaos [--runs <n>] [--seed <s>] [--cases T1,T3] [--jobs <n>] [options]
//!
//! check options:
//!   --detector original|hwlc|hwlc-dr|djit|hybrid|hybrid-queue   (default hwlc-dr)
//!   --schedule rr|random:<seed>|pct:<seed>:<depth>              (default rr;
//!                           single run and record only)
//!   --raw <file>            compile <file> without instrumentation
//!                           (third-party source, §3.1)
//!   --suppressions <file>   load a Valgrind-style suppression file; every
//!                           engine drops a matching report before the
//!                           reports= budget counts it
//!   --gen-suppressions      print a suppression entry for each warning
//!                           (single run only)
//!   --explore <n>           run the detector under <n> random schedules
//!                           and aggregate
//!   --jobs <n>              (with --explore) spread the sweep over <n>
//!                           worker threads; the summary, checkpoint and
//!                           exit code are bit-identical to --jobs 1
//!   --checkpoint <file>     (with --explore) resume from/save a sweep
//!                           checkpoint
//!   --faults <spec>         inject faults, e.g. seed=7,wakeup=20,kill=1
//!                           (keys: seed wakeup lockfail allocfail kill
//!                           max-kills, rates in permille)
//!   --budget <spec>         cap detector state, e.g.
//!                           shadow=10000,locksets=256,reports=64,slots=200000
//!                           (keys: shadow locksets reports slots
//!                           total-slots — the last is the --explore
//!                           watchdog); capped runs degrade and set
//!                           truncated/timed_out flags instead of aborting
//!   --stats                 print per-engine access counts, filter hit
//!                           rate, epoch-representation counters and
//!                           shadow-overflow counters to stderr
//!                           (single run, record and analyze; stdout is
//!                           unchanged)
//!   --static-cross-check    also run the static analysis and label each
//!                           finding confirmed-both / static-only /
//!                           dynamic-only (joined by kind, file, line, an
//!                           HbRace keyed as the Race of the same access;
//!                           an escaping-guarded-ref finding is confirmed
//!                           when a dynamic race lands on one of its
//!                           recorded post-release use sites)
//!   --directed              (with --explore and --static-cross-check)
//!                           spend the first schedules on probes that
//!                           preempt at each static finding's release/use
//!                           window — escape findings first, then static
//!                           races — before falling back to the seeded
//!                           sweep; still bit-identical across --jobs N
//!   --json                  machine-readable output
//!   --emit-annotated        print the annotated source (Fig 4 view)
//!   --emit-ir               print the lowered guest IR (disassembly)
//!
//! Every run puts the redundant-access filter in front of the detector (in
//! front of the trace writer for `record`); it never changes a report. A
//! flag the chosen mode does not read is bad usage.
//!
//! Exit codes: 0 = ran clean, 1 = findings reported, 2 = tool or guest
//! error (unreadable input, compile error, bad usage, guest fault).
//! ```

use helgrind_core::explore::{explore_schedules, DirectedTarget, ExploreCheckpoint, ExploreLimits};
use helgrind_core::replay::{analyze_trace_bytes, warning_fingerprint};
use helgrind_core::ReportKind;
use helgrind_core::{
    commitlog, fold_indexed, AnyDetector, BudgetSpec, DetectorConfig, Report, Suppression,
    SuppressionSet,
};
use minicpp::analysis::escape::EscapeFinding;
use minicpp::analysis::AnalysisResult;
use minicpp::pipeline::{run_pipeline, SourceFile};
use raceline_trace::format::{Fnv1a, TraceTermination};
use raceline_trace::writer::TraceWriter;
use raceline_warehouse::{
    client as wclient, render_diff_json, server as wserver, DiffEntry, Service, ServiceConfig,
    WarehouseLog,
};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use vexec::faults::{parse_u64, FaultPlan, FaultStats};
use vexec::filter::{FilterStats, FilterTool};
use vexec::ir::lower::FlatProgram;
use vexec::sched::{Pct, RoundRobin, Scheduler, SeededRandom};
use vexec::vm::{run_flat, BlockOn, RunStats, Termination, VmOptions};

fn usage() -> ! {
    eprintln!(
        "usage: raceline check <file.mcpp>... [--raw <file.mcpp>]... \
         [--detector original|hwlc|hwlc-dr|djit|hybrid|hybrid-queue] \
         [--schedule rr|random:<seed>|pct:<seed>:<depth>] \
         [--suppressions <file>] [--gen-suppressions] [--faults <spec>] [--budget <spec>] \
         [--static-cross-check] [--stats] [--json] [--emit-annotated] [--emit-ir]\n\
         \x20      raceline check <file.mcpp>... --explore <n> [--raw <file.mcpp>]... \
         [--detector <name>] [--suppressions <file>] [--faults <spec>] [--budget <spec>] \
         [--jobs <n>] [--checkpoint <file>] [--static-cross-check] [--directed] [--json] \
         [--emit-annotated] [--emit-ir]\n\
         \x20      raceline record <file.mcpp>... [--raw <file.mcpp>]... \
         [--out <trace.rltrace>] [--epoch-events <n>] [--schedule ...] [--faults <spec>] \
         [--budget <spec>] [--stats]\n\
         \x20      raceline record --case <T1..T8> [--out <trace.rltrace>] \
         [--epoch-events <n>] [--schedule ...] [--faults <spec>] [--budget <spec>] [--stats]\n\
         \x20      raceline analyze <trace.rltrace> [--detector <name>] [--jobs <n>] \
         [--from-epoch <k>] [--suppressions <file>] [--gen-suppressions] [--budget <spec>] \
         [--repair] [--stats] [--json]\n\
         \x20      raceline soak [--dialogs <n>] [--phases <n>] [--seed <s>] [--workers <n>] \
         [--resize <n>] [--hops <n>] [--churn <permille>] [--options <permille>] \
         [--reinvites <n>] [--kill <permille>] [--max-kills <n>] [--no-reclaim] \
         [--detector <name>] [--budget <spec>] [--jobs <n>] [--checkpoint <file>] \
         [--max-slots <n>] [--mem-report]\n\
         \x20      raceline trace-diff <old.rltrace> <new.rltrace> [--detector <name>] \
         [--detector-a <name>] [--detector-b <name>] [--jobs <n>] [--json]\n\
         \x20      raceline serve --listen <addr> --spool <dir> [--detector <name>] \
         [--jobs <n>]\n\
         \x20      raceline serve --fold [--detector <name>] <build>=<trace.rltrace>...\n\
         \x20      raceline client --connect <addr> submit --build <n> <trace.rltrace>\n\
         \x20      raceline client --connect <addr> query|stats|ping|shutdown\n\
         \x20      raceline client --connect <addr> diff --a <build> --b <build>\n\
         \x20      raceline client --connect <addr> suppress <fingerprint> [--off]\n\
         \x20      raceline lint <file.mcpp>... [--raw <file.mcpp>]... [--json]\n\
         \x20      raceline chaos [--runs <n>] [--seed <s>] [--cases T1,T3,...] \
         [--detector <name>] [--max-slots <n>] [--jobs <n>] [--json]"
    );
    std::process::exit(2);
}

fn parse_detector(s: &str) -> DetectorConfig {
    DetectorConfig::by_name(s).unwrap_or_else(|| {
        eprintln!("unknown detector: {s}");
        usage()
    })
}

fn parse_schedule(s: &str) -> Box<dyn Scheduler> {
    if s == "rr" {
        return Box::new(RoundRobin::new());
    }
    if let Some(seed) = s.strip_prefix("random:") {
        let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
        return Box::new(SeededRandom::new(seed));
    }
    if let Some(rest) = s.strip_prefix("pct:") {
        let mut it = rest.split(':');
        let seed: u64 = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
        let depth: u32 = it.next().and_then(|x| x.parse().ok()).unwrap_or(2);
        return Box::new(Pct::new(seed, depth, 10_000));
    }
    eprintln!("unknown schedule: {s}");
    usage()
}

// Exit-code contract: 0 = ran clean, 1 = findings, 2 = tool/guest error.
const EXIT_FINDINGS: i32 = 1;
const EXIT_ERROR: i32 = 2;

fn read_source(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(EXIT_ERROR);
    })
}

/// The (kind, file, line) key the static/dynamic join uses. A
/// happens-before race keys as the lockset race of the same access, so an
/// HB engine's report confirms the static race at its line.
fn join_key(r: &Report) -> (ReportKind, &str, u32) {
    let kind = match r.kind {
        ReportKind::HbRaceRead => ReportKind::RaceRead,
        ReportKind::HbRaceWrite => ReportKind::RaceWrite,
        kind => kind,
    };
    (kind, &r.file, r.line)
}

fn reports_json(reports: &[Report]) -> Value {
    Value::Array(reports.iter().map(|r| r.to_value()).collect())
}

/// Probe targets for `--directed`, most promising first: each escape
/// finding's release sites (the window the probe preempts into), then the
/// locations of the static race findings themselves.
fn directed_targets(stat: &AnalysisResult) -> Vec<DirectedTarget> {
    let mut targets: Vec<DirectedTarget> = Vec::new();
    for e in &stat.escapes {
        if e.release_sites.is_empty() {
            targets.push(DirectedTarget { file: e.file.clone(), line: e.line });
        }
        for rs in &e.release_sites {
            targets.push(DirectedTarget { file: rs.file.clone(), line: rs.line });
        }
    }
    let mut races: Vec<DirectedTarget> = stat
        .reports
        .iter()
        .filter(|r| matches!(r.kind, ReportKind::RaceRead | ReportKind::RaceWrite))
        .map(|r| DirectedTarget { file: r.file.clone(), line: r.line })
        .collect();
    races.sort();
    races.dedup();
    targets.extend(races);
    // Keep first occurrence (escape release sites outrank race locations).
    let mut seen = BTreeSet::new();
    targets.retain(|t| seen.insert(t.clone()));
    targets
}

/// What decides run *i*'s outcome in an explore sweep, recorded in its
/// checkpoint so a resume refuses another sweep's file: the guest program
/// (a hash of its disassembly, source locations included), the detector
/// and its budget caps, the suppression set (a hash of its rendering), the
/// fault plan, the per-run slot cap and `--directed`. The run count and
/// the total slot budget are left out: run *i* depends on neither, so a
/// larger `--explore N` extends a sweep.
fn explore_spec(
    program: &vexec::ir::Program,
    detector: &str,
    cfg: &DetectorConfig,
    suppressions: &SuppressionSet,
    limits: &ExploreLimits,
    directed: bool,
) -> String {
    let mut h = Fnv1a::default();
    h.update(vexec::ir::disasm::disassemble(&program.lower()).as_bytes());
    let mut supp = Fnv1a::default();
    supp.update(suppressions.render().as_bytes());
    format!(
        "program={:016x} {} suppressions={:016x} faults={:?} slots={:?} directed={directed}",
        h.0,
        detector_spec(detector, cfg),
        supp.0,
        limits.faults,
        limits.max_slots_per_run,
    )
}

/// The engine part of a checkpoint's spec, shared by the explore
/// checkpoint and the soak log: the detector name, its budget caps and
/// the VM's schedule revision, so a file saved under other schedules is
/// refused.
fn detector_spec(detector: &str, cfg: &DetectorConfig) -> String {
    let b = cfg.budget;
    format!(
        "detector={detector} shadow={} locksets={} reports={} schedules={}",
        b.max_shadow_words,
        b.max_locksets,
        b.max_reports,
        vexec::SCHEDULE_REVISION
    )
}

/// An escape finding is dynamically confirmed when some explored schedule
/// reported a warning at one of its post-release use sites.
fn escape_confirmed(
    r: &Report,
    escapes: &[EscapeFinding],
    dyn_lines: &BTreeSet<(String, u32)>,
) -> bool {
    r.kind == ReportKind::EscapingGuardedRef
        && escapes.iter().any(|e| {
            e.file == r.file
                && e.line == r.line
                && e.use_sites.iter().any(|u| dyn_lines.contains(&(u.file.clone(), u.line)))
        })
}

fn escapes_json(escapes: &[EscapeFinding], dyn_lines: &BTreeSet<(String, u32)>) -> Value {
    let site = |s: &minicpp::analysis::escape::SiteRef| {
        Value::Object(vec![
            ("func".to_string(), Value::Str(s.func.clone())),
            ("file".to_string(), Value::Str(s.file.clone())),
            ("line".to_string(), Value::UInt(u64::from(s.line))),
        ])
    };
    Value::Array(
        escapes
            .iter()
            .map(|e| {
                let confirmed =
                    e.use_sites.iter().any(|u| dyn_lines.contains(&(u.file.clone(), u.line)));
                Value::Object(vec![
                    ("kind".to_string(), Value::Str("EscapingGuardedRef".to_string())),
                    ("func".to_string(), Value::Str(e.func.clone())),
                    ("file".to_string(), Value::Str(e.file.clone())),
                    ("line".to_string(), Value::UInt(u64::from(e.line))),
                    (
                        "locks".to_string(),
                        Value::Array(e.locks.iter().map(|l| Value::Str(l.clone())).collect()),
                    ),
                    ("route".to_string(), Value::Str(e.route.clone())),
                    ("source".to_string(), Value::Str(e.source.clone())),
                    (
                        "release_sites".to_string(),
                        Value::Array(e.release_sites.iter().map(site).collect()),
                    ),
                    ("use_sites".to_string(), Value::Array(e.use_sites.iter().map(site).collect())),
                    ("confirmed".to_string(), Value::Bool(confirmed)),
                ])
            })
            .collect(),
    )
}

/// The static cross-check of one run or one sweep: each static finding is
/// confirmed-both or static-only, and each dynamic report that shares no
/// key with a static finding is dynamic-only.
struct CrossCheck<'a> {
    confirmed: Vec<&'a Report>,
    static_only: Vec<&'a Report>,
    dynamic_only: Vec<&'a Report>,
    /// The `static_cross_check` JSON object, the same in both modes.
    json: Value,
}

impl<'a> CrossCheck<'a> {
    /// Join the static findings against `dynamic`. An escaping-guarded-ref
    /// finding has no dynamic twin by kind; it is confirmed when a dynamic
    /// race lands on one of its post-release use sites.
    fn join(stat: &'a AnalysisResult, dynamic: Vec<&'a Report>) -> Self {
        let dyn_keys: BTreeSet<_> = dynamic.iter().map(|r| join_key(r)).collect();
        let dyn_lines: BTreeSet<(String, u32)> =
            dynamic.iter().map(|r| (r.file.clone(), r.line)).collect();
        let is_confirmed = |r: &Report| {
            dyn_keys.contains(&join_key(r)) || escape_confirmed(r, &stat.escapes, &dyn_lines)
        };
        let stat_keys: BTreeSet<_> = stat.reports.iter().map(join_key).collect();
        let (confirmed, static_only): (Vec<&Report>, Vec<&Report>) =
            stat.reports.iter().partition(|r| is_confirmed(r));
        let dynamic_only: Vec<&Report> =
            dynamic.into_iter().filter(|r| !stat_keys.contains(&join_key(r))).collect();
        let to_vals = |rs: &[&Report]| Value::Array(rs.iter().map(|r| r.to_value()).collect());
        let json = Value::Object(vec![
            ("confirmed_both".to_string(), to_vals(&confirmed)),
            ("static_only".to_string(), to_vals(&static_only)),
            ("dynamic_only".to_string(), to_vals(&dynamic_only)),
            ("escapes".to_string(), escapes_json(&stat.escapes, &dyn_lines)),
        ]);
        CrossCheck { confirmed, static_only, dynamic_only, json }
    }

    /// The summary line, then one `[label] ` line per finding, worded by
    /// `describe`.
    fn render(&self, describe: impl Fn(&Report) -> String) -> String {
        let mut text = format!(
            "static cross-check: {} confirmed-both, {} static-only, {} dynamic-only\n",
            self.confirmed.len(),
            self.static_only.len(),
            self.dynamic_only.len()
        );
        for (label, set) in [
            ("confirmed-both", &self.confirmed),
            ("static-only", &self.static_only),
            ("dynamic-only", &self.dynamic_only),
        ] {
            for r in set {
                text.push_str(&format!("[{label}] {}\n", describe(r)));
            }
        }
        text
    }
}

/// The flags each mode of the shared `check`/`record`/`lint` parser reads,
/// as its usage line lists them; any other flag is bad usage.
const CHECK_FLAGS: &str = "--detector --raw --suppressions --faults --budget --static-cross-check \
                           --json --emit-annotated --emit-ir --schedule --gen-suppressions --stats";
const EXPLORE_FLAGS: &str =
    "--detector --raw --suppressions --faults --budget --static-cross-check \
     --json --emit-annotated --emit-ir --explore --jobs --checkpoint --directed";
const RECORD_FLAGS: &str = "--raw --case --out --epoch-events --schedule --faults --budget --stats";
const LINT_FLAGS: &str = "--raw --json";

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next().as_deref() {
        Some("check") => "check",
        Some("lint") => "lint",
        Some("record") => "record",
        Some("analyze") => {
            run_analyze(args.collect());
        }
        Some("trace-diff") => {
            run_trace_diff(args.collect());
        }
        Some("chaos") => {
            run_chaos(args.collect());
        }
        Some("soak") => {
            run_soak(args.collect());
        }
        Some("serve") => {
            run_serve(args.collect());
        }
        Some("client") => {
            run_client(args.collect());
        }
        _ => usage(),
    };

    let mut files: Vec<SourceFile> = Vec::new();
    let mut detector_name = "hwlc-dr".to_string();
    let mut schedule = "rr".to_string();
    let mut suppressions = SuppressionSet::new();
    let mut gen_suppressions = false;
    let mut explore: Option<usize> = None;
    let mut jobs: usize = 1;
    let mut checkpoint_path: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut budget: Option<BudgetSpec> = None;
    let mut emit_annotated = false;
    let mut emit_ir = false;
    let mut json = false;
    let mut cross_check = false;
    let mut directed = false;
    let mut record_out: Option<String> = None;
    let mut record_case: Option<String> = None;
    let mut epoch_events: Option<u64> = None;
    let mut stats = false;

    let args: Vec<String> = args.collect();
    let mut given: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with('-') {
            given.push(a);
        }
        match a.as_str() {
            "--detector" => detector_name = it.next().unwrap_or_else(|| usage()).clone(),
            "--schedule" => schedule = it.next().unwrap_or_else(|| usage()).clone(),
            "--raw" => {
                let path = it.next().unwrap_or_else(|| usage());
                let text = read_source(path);
                files.push(SourceFile::without_instrumentation(path, &text));
            }
            "--suppressions" => {
                let path = it.next().unwrap_or_else(|| usage());
                let text = read_source(path);
                suppressions = SuppressionSet::parse(&text).unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    std::process::exit(EXIT_ERROR);
                });
            }
            "--faults" => {
                let spec = it.next().unwrap_or_else(|| usage());
                faults = Some(FaultPlan::parse(spec).unwrap_or_else(|e| {
                    eprintln!("--faults: {e}");
                    std::process::exit(EXIT_ERROR);
                }));
            }
            "--budget" => {
                let spec = it.next().unwrap_or_else(|| usage());
                budget = Some(BudgetSpec::parse(spec).unwrap_or_else(|e| {
                    eprintln!("--budget: {e}");
                    std::process::exit(EXIT_ERROR);
                }));
            }
            "--checkpoint" => checkpoint_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--case" => record_case = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--out" => record_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--epoch-events" => {
                epoch_events =
                    Some(it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--gen-suppressions" => gen_suppressions = true,
            "--emit-annotated" => emit_annotated = true,
            "--emit-ir" => emit_ir = true,
            "--json" => json = true,
            "--stats" => stats = true,
            "--static-cross-check" => cross_check = true,
            "--directed" => directed = true,
            "--explore" => {
                explore = Some(it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--jobs" => {
                jobs = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            path if !path.starts_with('-') => {
                let text = read_source(path);
                files.push(SourceFile::new(path, &text));
            }
            _ => usage(),
        }
    }
    let (mode, mode_flags) = match cmd {
        "lint" => ("lint", LINT_FLAGS),
        "record" => ("record", RECORD_FLAGS),
        _ if explore.is_some() => ("check --explore", EXPLORE_FLAGS),
        _ => ("check", CHECK_FLAGS),
    };
    if let Some(flag) = given.into_iter().find(|f| !mode_flags.split(' ').any(|m| m == *f)) {
        eprintln!("{flag} does not apply to {mode}");
        usage();
    }
    let opts = VmOptions {
        faults,
        max_slots: budget
            .as_ref()
            .and_then(|b| b.max_slots)
            .unwrap_or(VmOptions::default().max_slots),
        ..Default::default()
    };
    // `record --case NAME` records a built-in sipsim proxy scenario (the
    // T1–T8 Fig 6 cases) instead of compiling sources — the trace corpus
    // the serve gates and benches upload.
    if let Some(case) = &record_case {
        if !files.is_empty() {
            usage();
        }
        let tc = sipsim::testcases().into_iter().find(|t| t.name == *case).unwrap_or_else(|| {
            let names: Vec<&str> = sipsim::testcases().iter().map(|t| t.name).collect();
            eprintln!("unknown case {case}; available: {}", names.join(","));
            std::process::exit(EXIT_ERROR);
        });
        let flat = tc.build().program.lower();
        run_record(
            &flat,
            parse_schedule(&schedule).as_mut(),
            opts,
            record_out,
            epoch_events,
            stats,
        );
    }
    if files.is_empty() {
        usage();
    }

    if cmd == "lint" {
        run_lint(&files, json);
    }

    // Stage 1+2+3 (Fig 3): preprocess, parse + annotate, compile.
    let out = run_pipeline(&files).unwrap_or_else(|e| {
        eprintln!("compile error: {e}");
        std::process::exit(EXIT_ERROR);
    });
    eprintln!(
        "compiled {} unit(s); {} delete site(s) annotated",
        files.len(),
        out.deletes_annotated
    );
    let flat = out.program.lower();
    // Record mode: run the VM once with the trace writer as the tool and
    // leave all detection for `raceline analyze`.
    if cmd == "record" {
        run_record(
            &flat,
            parse_schedule(&schedule).as_mut(),
            opts,
            record_out,
            epoch_events,
            stats,
        );
    }
    if emit_annotated {
        for (name, src) in &out.annotated_sources {
            println!("// ---- {name} (annotated) ----");
            println!("{src}");
        }
    }

    if emit_ir {
        println!("{}", vexec::ir::disasm::disassemble(&flat));
    }

    let mut cfg = parse_detector(&detector_name);
    if let Some(b) = &budget {
        cfg.budget = b.detector;
    }
    let stat = cross_check.then(|| minicpp::analysis::analyze(&out.units));

    // Exploration mode: aggregate warnings across many schedules.
    if let Some(runs) = explore {
        let limits = ExploreLimits {
            max_slots_per_run: budget.as_ref().and_then(|b| b.max_slots),
            total_slot_budget: budget.as_ref().and_then(|b| b.total_slots),
            faults,
            jobs,
        };
        let spec =
            explore_spec(&out.program, &detector_name, &cfg, &suppressions, &limits, directed);
        let resume = checkpoint_path.as_ref().and_then(|p| {
            let bytes = match std::fs::read(p) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
                Err(e) => {
                    eprintln!("{p}: {e}");
                    std::process::exit(EXIT_ERROR);
                }
            };
            match ExploreCheckpoint::load(&bytes) {
                Ok((ck, _)) if ck.spec != spec => {
                    eprintln!(
                        "{p}: checkpoint was recorded by a different sweep\n  \
                         checkpoint: {}\n  requested:  {spec}",
                        ck.spec
                    );
                    std::process::exit(EXIT_ERROR);
                }
                Ok((ck, _)) if ck.next_index > runs => {
                    eprintln!(
                        "{p}: {} runs already done, more than --explore {runs}",
                        ck.next_index
                    );
                    std::process::exit(EXIT_ERROR);
                }
                Ok((ck, cut)) => {
                    if cut {
                        eprintln!(
                            "{p}: repaired truncated checkpoint (no final `end` line; \
                             its runs are redone)"
                        );
                    }
                    eprintln!("resuming from {p}: {}/{} runs done", ck.next_index, ck.runs);
                    Some(ck)
                }
                Err(e) => {
                    eprintln!("{p}: {e}");
                    std::process::exit(EXIT_ERROR);
                }
            }
        });
        let targets = match (&stat, directed) {
            (_, false) => Vec::new(),
            (Some(stat), true) => {
                let targets = directed_targets(stat);
                eprintln!("directed: {} probe target(s) from static findings", targets.len());
                targets
            }
            (None, true) => {
                eprintln!("--directed requires --static-cross-check (it consumes static findings)");
                std::process::exit(EXIT_ERROR);
            }
        };
        let detector = || AnyDetector::by_name(&detector_name, cfg, suppressions.clone());
        let summary = explore_schedules(
            &out.program,
            detector,
            runs,
            0xACE,
            limits,
            resume.as_ref(),
            &targets,
        );
        if let Some(p) = &checkpoint_path {
            let ck = ExploreCheckpoint { spec, ..summary.checkpoint() };
            if let Err(e) = commitlog::replace(p, &ck.render()) {
                eprintln!("cannot write checkpoint {p}: {e}");
                std::process::exit(EXIT_ERROR);
            }
        }
        if !json {
            println!(
                "explored {} schedules: {} clean, {} deadlocked",
                summary.runs, summary.clean_runs, summary.deadlocked_runs
            );
            if summary.timed_out {
                println!(
                    "timed out: {}/{} runs completed ({} fuel-exhausted)",
                    summary.completed_runs, summary.runs, summary.fuel_exhausted_runs
                );
            }
            for hit in &summary.locations {
                println!(
                    "[{:>3}/{:<3}] {}",
                    hit.hits,
                    summary.runs,
                    hit.report.render().trim_end()
                );
            }
        }
        // The union of every explored schedule's locations is the fairest
        // dynamic baseline for the join.
        let cross = stat.as_ref().map(|stat| {
            CrossCheck::join(stat, summary.locations.iter().map(|h| &h.report).collect())
        });
        if json {
            let locs = Value::Array(
                summary
                    .locations
                    .iter()
                    .map(|h| {
                        Value::Object(vec![
                            ("hits".to_string(), Value::UInt(h.hits as u64)),
                            ("first_run".to_string(), Value::UInt(h.first_run as u64)),
                            ("report".to_string(), h.report.to_value()),
                        ])
                    })
                    .collect(),
            );
            let mut obj = vec![
                ("runs".to_string(), Value::UInt(summary.runs as u64)),
                ("completed_runs".to_string(), Value::UInt(summary.completed_runs as u64)),
                ("clean_runs".to_string(), Value::UInt(summary.clean_runs as u64)),
                ("deadlocked_runs".to_string(), Value::UInt(summary.deadlocked_runs as u64)),
                ("timed_out".to_string(), Value::Bool(summary.timed_out)),
                ("directed".to_string(), Value::Bool(directed)),
                ("locations".to_string(), locs),
            ];
            if let Some(c) = cross {
                obj.push(("static_cross_check".to_string(), c.json));
            }
            println!("{}", Value::Object(obj));
        } else if let Some(c) = cross {
            print!("{}", c.render(|r| format!("{} at {}:{}", r.kind.name(), r.file, r.line)));
        }
        std::process::exit(if summary.locations.is_empty() { 0 } else { 1 });
    }

    // Single-run mode: the detector's sink has already dropped every
    // suppressed report.
    let mut tool = FilterTool::new(AnyDetector::by_name(&detector_name, cfg, suppressions));
    let r = run_flat(&flat, &mut tool, parse_schedule(&schedule).as_mut(), opts);
    let (mut det, filter_stats) = tool.into_parts();
    if stats {
        print_engine_stats(&det.engine_stats());
        print_filter_stats(&filter_stats);
        print_interp_stats(&r.stats);
    }
    let truncated = det.truncated();
    let dynamic = det.take_reports();

    // Static cross-check: join the two report streams by (kind, file,
    // line). The static side sees paths no schedule exercised; the
    // dynamic side sees heap/alias behaviour the static side abstracts.
    let cross = stat.as_ref().map(|stat| {
        let c = CrossCheck::join(stat, dynamic.iter().collect());
        let text = c.render(|r| {
            format!("{} at {} ({}:{}) — {}", r.kind.name(), r.func, r.file, r.line, r.details)
        });
        (text, c.json)
    });

    let (end, term_label) = end_of_termination(&r.termination);
    finish_run(&dynamic, truncated, end, term_label, r.faults, cross, gen_suppressions, json);
}

/// How a run (live or replayed) ended, reduced to what the CLI prints.
/// `check` builds this from [`Termination`], `analyze` from the trace
/// footer's [`TraceTermination`]; both then share [`finish_run`], which is
/// what makes the offline text output byte-identical to the inline run.
enum EndKind {
    Clean,
    /// Per blocked thread: (tid, what it blocks on, holder tids).
    Deadlock(Vec<(u32, BlockOn, Vec<u32>)>),
    GuestError(String),
    TimedOut,
}

/// `--stats` output, stderr only: stdout report identity between filtered
/// and unfiltered runs is a hard contract, and engine access counts
/// legitimately differ when the filter elides events.
fn print_engine_stats(stats: &[helgrind_core::EngineStats]) {
    for s in stats {
        eprintln!(
            "stats: engine {} processed {} access(es), shadow overflow {}, \
             live granules {} (peak {})",
            s.name, s.accesses, s.shadow_overflow, s.live_granules, s.peak_granules
        );
        if let Some(e) = s.epoch {
            eprintln!(
                "stats: engine {} epochs: {} hit(s), {} promotion(s), \
                 {} demotion(s), {} vc fallback(s)",
                s.name, e.epoch_hits, e.promotions, e.demotions, e.vc_fallbacks
            );
        }
    }
}

fn print_filter_stats(fs: &FilterStats) {
    eprintln!(
        "stats: filter elided {} of {} candidate access(es) ({:.1}% hit rate, \
         {:.1}% of all {} event(s)); epoch bumps: {} thread, {} global",
        fs.elided,
        fs.candidates,
        fs.hit_rate() * 100.0,
        fs.elided_fraction() * 100.0,
        fs.events,
        fs.thread_epoch_bumps,
        fs.global_epoch_bumps
    );
}

/// `--stats` interpreter counters, stderr only: stdout identity between
/// the compiled and reference cores is a hard contract (the interp golden
/// suite pins it), so per-core telemetry never lands on stdout.
fn print_interp_stats(stats: &RunStats) {
    let i = &stats.interp;
    eprintln!(
        "stats: interp (compiled) {} op(s): {} arith, {} branch, {} mem, {} call, \
         {} sync, {} thread, {} heap, {} misc",
        i.total(),
        i.arith,
        i.branch,
        i.mem,
        i.call,
        i.sync,
        i.thread,
        i.heap,
        i.misc
    );
    let covered = i.fused * 2;
    let pct = if stats.ops > 0 { covered as f64 / stats.ops as f64 * 100.0 } else { 0.0 };
    eprintln!(
        "stats: interp (compiled) {} superinstruction(s) covering {pct:.1}% of ops; \
         {} eval-slot fallback(s)",
        i.fused, i.slot_evals
    );
}

fn end_of_termination(t: &Termination) -> (EndKind, String) {
    let label = format!("{t:?}");
    let end = match t {
        Termination::AllExited => EndKind::Clean,
        Termination::Deadlock(waits) => EndKind::Deadlock(
            waits
                .iter()
                .map(|w| (w.tid.0, w.on, w.holders.iter().map(|t| t.0).collect()))
                .collect(),
        ),
        Termination::GuestError(e) => EndKind::GuestError(e.to_string()),
        Termination::FuelExhausted => EndKind::TimedOut,
    };
    (end, label)
}

/// The trace footer keeps deadlock waits and the rendered guest error but
/// not the full `Termination` value, so the JSON `termination` label for
/// those two cases is a summary rather than the live Debug string; the
/// text output (the byte-identity contract) is unaffected.
fn end_of_trace(t: &TraceTermination) -> (EndKind, String) {
    match t {
        TraceTermination::AllExited => (EndKind::Clean, "AllExited".to_string()),
        TraceTermination::Deadlock(waits) => (
            EndKind::Deadlock(waits.iter().map(|w| (w.tid, w.on, w.holders.clone())).collect()),
            format!("Deadlock({} waiting)", waits.len()),
        ),
        TraceTermination::GuestError(e) => {
            (EndKind::GuestError(e.clone()), format!("GuestError({e})"))
        }
        TraceTermination::FuelExhausted => (EndKind::TimedOut, "FuelExhausted".to_string()),
        // Repaired traces end mid-run: the analyzed prefix is valid, the
        // outcome of the original run is simply not in the file.
        TraceTermination::Unknown => (EndKind::Clean, "Unknown".to_string()),
    }
}

/// Shared tail of `check` and `analyze`: print reports, termination
/// diagnostics, optional cross-check block and JSON object, then exit with
/// the 0/1/2 contract.
#[allow(clippy::too_many_arguments)]
fn finish_run(
    dynamic: &[Report],
    truncated: bool,
    end: EndKind,
    term_label: String,
    faults: Option<FaultStats>,
    cross: Option<(String, Value)>,
    gen_suppressions: bool,
    json: bool,
) -> ! {
    let mut warnings = dynamic.len();

    if !json {
        for (i, r) in dynamic.iter().enumerate() {
            println!("{}", r.render());
            if gen_suppressions {
                println!("{}", Suppression::from_report(&format!("auto-{}", i + 1), r, 3).render());
            }
        }
    }

    let mut guest_error: Option<String> = None;
    let timed_out = matches!(end, EndKind::TimedOut);
    match &end {
        EndKind::Clean => {}
        EndKind::Deadlock(waits) => {
            if !json {
                println!("DEADLOCK: {} thread(s) blocked:", waits.len());
                for (tid, on, holders) in waits {
                    println!("  thread {tid} blocked on {on:?} held by {holders:?}");
                }
            }
            warnings += 1;
        }
        EndKind::GuestError(e) => {
            // The *guest* faulted; the detector kept its state. Report as a
            // diagnostic and exit 2 — this is neither clean nor a finding.
            guest_error = Some(e.clone());
            if !json {
                println!("guest error: {e}");
            }
        }
        EndKind::TimedOut => {
            // Budget cap hit: a partial (but valid) run, not an error.
            if !json {
                println!("timed out: slot budget exhausted before the program finished");
            }
        }
    }

    if !json {
        if let Some((text, _)) = &cross {
            print!("{text}");
        }
    }

    if json {
        let mut obj = vec![
            ("warnings".to_string(), Value::UInt(warnings as u64)),
            ("termination".to_string(), Value::Str(term_label)),
            ("truncated".to_string(), Value::Bool(truncated)),
            ("timed_out".to_string(), Value::Bool(timed_out)),
            ("reports".to_string(), reports_json(dynamic)),
        ];
        if let Some(e) = &guest_error {
            obj.push(("guest_error".to_string(), Value::Str(e.clone())));
        }
        if let Some(fs) = &faults {
            obj.push((
                "injected_faults".to_string(),
                Value::Object(vec![
                    ("total".to_string(), Value::UInt(fs.total())),
                    ("spurious_wakeups".to_string(), Value::UInt(fs.spurious_wakeups)),
                    ("lock_failures".to_string(), Value::UInt(fs.lock_failures)),
                    ("alloc_failures".to_string(), Value::UInt(fs.alloc_failures)),
                    ("kills".to_string(), Value::UInt(fs.kills)),
                ]),
            ));
        }
        if let Some((_, c)) = cross {
            obj.push(("static_cross_check".to_string(), c));
        }
        println!("{}", Value::Object(obj));
    }

    eprintln!("{warnings} warning(s)");
    if guest_error.is_some() {
        eprintln!("guest error: exiting with status {EXIT_ERROR}");
        std::process::exit(EXIT_ERROR);
    }
    std::process::exit(if warnings == 0 { 0 } else { EXIT_FINDINGS });
}

/// Record one program run to an `.rltrace` file — the body of
/// `raceline record`, shared by the compile-from-source and `--case`
/// (built-in sipsim scenario) paths.
fn run_record(
    flat: &FlatProgram,
    sched: &mut dyn Scheduler,
    opts: VmOptions,
    record_out: Option<String>,
    epoch_events: Option<u64>,
    stats: bool,
) -> ! {
    let out_path = record_out.unwrap_or_else(|| "trace.rltrace".to_string());
    let file = std::fs::File::create(&out_path).unwrap_or_else(|e| {
        eprintln!("cannot create {out_path}: {e}");
        std::process::exit(EXIT_ERROR);
    });
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file));
    if let Some(n) = epoch_events {
        writer = writer.with_epoch_events(n);
    }
    // The filter elides exact-repeat accesses before they reach the
    // writer: smaller traces, same reports on replay (elided events
    // are state-transition no-ops).
    let mut tool = FilterTool::new(writer);
    let r = run_flat(flat, &mut tool, sched, opts);
    let (writer, filter_stats) = tool.into_parts();
    let summary = writer.finish(&r.termination, &r.stats, r.faults.as_ref()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(EXIT_ERROR);
    });
    if stats {
        print_filter_stats(&filter_stats);
        print_interp_stats(&r.stats);
    }
    match &r.termination {
        Termination::AllExited => {}
        Termination::Deadlock(waits) => {
            eprintln!("note: run ended in deadlock ({} thread(s) blocked)", waits.len());
        }
        Termination::GuestError(e) => eprintln!("note: run ended with guest error: {e}"),
        Termination::FuelExhausted => {
            eprintln!("note: slot budget exhausted before the program finished");
        }
    }
    eprintln!(
        "recorded {} event(s) in {} epoch(s) to {out_path} ({} bytes)",
        summary.events, summary.epochs, summary.bytes
    );
    std::process::exit(0);
}

fn read_trace(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(EXIT_ERROR);
    })
}

/// `raceline analyze`: feed a recorded trace through any detector
/// configuration — no VM, no re-execution — and print exactly what
/// `raceline check` would have printed inline.
fn run_analyze(args: Vec<String>) -> ! {
    let mut trace_path: Option<String> = None;
    let mut detector_name = "hwlc-dr".to_string();
    let mut jobs: usize = 1;
    let mut from_epoch: u64 = 0;
    let mut suppressions = SuppressionSet::new();
    let mut gen_suppressions = false;
    let mut budget: Option<BudgetSpec> = None;
    let mut json = false;
    let mut stats = false;
    let mut repair = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--detector" => detector_name = it.next().unwrap_or_else(|| usage()).clone(),
            "--jobs" => {
                jobs = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--from-epoch" => {
                from_epoch = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--stats" => stats = true,
            "--repair" => repair = true,
            "--suppressions" => {
                let path = it.next().unwrap_or_else(|| usage());
                let text = read_source(path);
                suppressions = SuppressionSet::parse(&text).unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    std::process::exit(EXIT_ERROR);
                });
            }
            "--budget" => {
                let spec = it.next().unwrap_or_else(|| usage());
                budget = Some(BudgetSpec::parse(spec).unwrap_or_else(|e| {
                    eprintln!("--budget: {e}");
                    std::process::exit(EXIT_ERROR);
                }));
            }
            "--gen-suppressions" => gen_suppressions = true,
            "--json" => json = true,
            path if !path.starts_with('-') => {
                if trace_path.is_some() {
                    usage();
                }
                trace_path = Some(path.to_string());
            }
            _ => usage(),
        }
    }
    let path = trace_path.unwrap_or_else(|| usage());
    let bytes = read_trace(&path);

    let mut cfg = parse_detector(&detector_name);
    if let Some(b) = &budget {
        cfg.budget = b.detector;
    }
    let detector = AnyDetector::by_name(&detector_name, cfg, suppressions);
    let outcome = if repair {
        let (outcome, info) =
            helgrind_core::analyze_trace_repair(&bytes, detector, jobs.max(1), from_epoch)
                .unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    std::process::exit(EXIT_ERROR);
                });
        if info.repaired {
            eprintln!(
                "repaired: dropped {} torn byte(s), analyzing {} intact epoch(s)",
                info.dropped_bytes, outcome.footer.epochs
            );
        }
        outcome
    } else {
        analyze_trace_bytes(&bytes, detector, jobs.max(1), from_epoch).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(EXIT_ERROR);
        })
    };
    eprintln!(
        "analyzed {} event(s) from {} epoch(s) [{detector_name}]",
        outcome.events, outcome.footer.epochs
    );
    if stats {
        // Replay-side counters only: the trace is already filtered (or
        // not) at record time; analyze never re-filters.
        print_engine_stats(&outcome.engine_stats);
    }

    let (end, term_label) = end_of_trace(&outcome.footer.termination);
    let faults = outcome.footer.faults;
    finish_run(
        &outcome.reports,
        outcome.truncated,
        end,
        term_label,
        faults,
        None,
        gen_suppressions,
        json,
    );
}

/// `raceline trace-diff`: analyze two traces (or one trace under two
/// detector configurations) and report warnings by stable fingerprint —
/// which are new, which are fixed. Exit 0 when the sets match, 1 when they
/// differ, 2 on error.
fn run_trace_diff(args: Vec<String>) -> ! {
    let mut paths: Vec<String> = Vec::new();
    let mut detector_a = "hwlc-dr".to_string();
    let mut detector_b: Option<String> = None;
    let mut jobs: usize = 1;
    let mut json = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--detector" => detector_a = it.next().unwrap_or_else(|| usage()).clone(),
            "--detector-a" => detector_a = it.next().unwrap_or_else(|| usage()).clone(),
            "--detector-b" => detector_b = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--jobs" => {
                jobs = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--json" => json = true,
            path if !path.starts_with('-') => paths.push(path.to_string()),
            _ => usage(),
        }
    }
    if paths.len() != 2 {
        usage();
    }
    let detector_b = detector_b.unwrap_or_else(|| detector_a.clone());

    let analyze_one = |path: &str, name: &str| -> BTreeMap<String, Report> {
        let bytes = read_trace(path);
        let det = AnyDetector::by_name(name, parse_detector(name), SuppressionSet::new());
        let outcome = analyze_trace_bytes(&bytes, det, jobs.max(1), 0).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(EXIT_ERROR);
        });
        outcome.reports.into_iter().map(|r| (warning_fingerprint(&r), r)).collect()
    };
    let old = analyze_one(&paths[0], &detector_a);
    let new = analyze_one(&paths[1], &detector_b);

    let fresh: Vec<(&String, &Report)> =
        new.iter().filter(|(k, _)| !old.contains_key(*k)).collect();
    let fixed: Vec<(&String, &Report)> =
        old.iter().filter(|(k, _)| !new.contains_key(*k)).collect();
    let unchanged = new.keys().filter(|k| old.contains_key(*k)).count();

    let describe = |r: &Report| format!("{} at {}:{} ({})", r.kind.name(), r.file, r.line, r.func);
    if json {
        // The warehouse `diff` command renders through the same function,
        // so served regression edges byte-match this output.
        let to_entries = |rs: &[(&String, &Report)]| -> Vec<DiffEntry> {
            rs.iter()
                .map(|(k, r)| DiffEntry {
                    fingerprint: (*k).clone(),
                    kind: r.kind,
                    file: r.file.clone(),
                    line: r.line,
                    func: r.func.clone(),
                })
                .collect()
        };
        // Already newline-terminated — print! keeps the bytes identical
        // to the warehouse `diff` body.
        print!(
            "{}",
            render_diff_json(
                &detector_a,
                &detector_b,
                &to_entries(&fresh),
                &to_entries(&fixed),
                unchanged as u64
            )
        );
    } else {
        println!("trace-diff: {} new, {} fixed, {} unchanged", fresh.len(), fixed.len(), unchanged);
        for (_, r) in &fresh {
            println!("[new] {}", describe(r));
        }
        for (_, r) in &fixed {
            println!("[fixed] {}", describe(r));
        }
    }
    std::process::exit(if fresh.is_empty() && fixed.is_empty() { 0 } else { EXIT_FINDINGS });
}

/// `raceline serve`: the trace-ingest service (DESIGN.md §14). With
/// `--listen`, run the threaded TCP front end over a spool-dir-backed
/// report warehouse until a `shutdown` command arrives. With `--fold`,
/// run the *offline oracle* instead: ingest the given `<build>=<path>`
/// traces sequentially through the identical fold and print the catalogue
/// — the byte-compare baseline for the equivalence gates.
fn run_serve(args: Vec<String>) -> ! {
    let mut listen: Option<String> = None;
    let mut spool: Option<String> = None;
    let mut detector_name = "hwlc-dr".to_string();
    let mut jobs: usize = 1;
    let mut fold = false;
    let mut uploads: Vec<(u64, String)> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--spool" => spool = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--detector" => detector_name = it.next().unwrap_or_else(|| usage()).clone(),
            "--fold" => fold = true,
            "--jobs" => {
                jobs = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            arg if !arg.starts_with('-') => {
                let Some((build, path)) = arg.split_once('=') else { usage() };
                let Ok(build) = build.parse::<u64>() else { usage() };
                uploads.push((build, path.to_string()));
            }
            _ => usage(),
        }
    }
    // Validate the engine name up front on both paths.
    let _ = parse_detector(&detector_name);

    if fold {
        // Sequential offline fold: same analysis, same commutative state,
        // same renderer as the server — only the transport is missing.
        let cfg = parse_detector(&detector_name);
        let mut log = WarehouseLog::new(&detector_name, false);
        for (build, path) in &uploads {
            let bytes = read_trace(path);
            let hash = raceline_warehouse::content_hash(&bytes);
            if log.traces.contains_key(&(*build, hash)) {
                continue;
            }
            let (warnings, events) =
                raceline_warehouse::analyze_for_warehouse(&bytes, &detector_name, cfg)
                    .unwrap_or_else(|e| {
                        eprintln!("{path}: {e}");
                        std::process::exit(EXIT_ERROR);
                    });
            log.fold_ingest(*build, hash, events, &warnings);
        }
        print!("{}", raceline_warehouse::render_catalogue(&log));
        std::process::exit(0);
    }

    let (Some(listen), Some(spool)) = (listen, spool) else { usage() };
    if !uploads.is_empty() {
        usage();
    }
    let service = Service::open(ServiceConfig {
        spool: spool.into(),
        engine: detector_name,
        hb_reference: false,
        jobs,
    })
    .unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(EXIT_ERROR);
    });
    let listener = std::net::TcpListener::bind(&listen).unwrap_or_else(|e| {
        eprintln!("serve: cannot listen on {listen}: {e}");
        std::process::exit(EXIT_ERROR);
    });
    match listener.local_addr() {
        Ok(addr) => {
            // Stdout so harnesses that bind port 0 can parse the real
            // address; flushed before accept starts.
            println!("listening {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(EXIT_ERROR);
        }
    }
    if let Err(e) = wserver::serve(&service, listener) {
        eprintln!("serve: {e}");
        std::process::exit(EXIT_ERROR);
    }
    eprintln!("serve: shutdown complete");
    std::process::exit(0);
}

/// `raceline client`: drive a running `raceline serve` over the wire.
/// Response bodies (`query`, `diff`, `stats`) go to stdout verbatim so CI
/// can `cmp` them; bodiless responses print their JSON header line.
/// Exit 0 on `ok:true`, 2 on transport failure or `ok:false`.
fn run_client(args: Vec<String>) -> ! {
    let mut connect: Option<String> = None;
    let mut verb: Option<String> = None;
    let mut build: u64 = 0;
    let mut diff_a: Option<u64> = None;
    let mut diff_b: Option<u64> = None;
    let mut off = false;
    let mut positional: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--build" => {
                build = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--a" => {
                diff_a = Some(it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--b" => {
                diff_b = Some(it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--off" => off = true,
            arg if !arg.starts_with('-') => {
                if verb.is_none() {
                    verb = Some(arg.to_string());
                } else {
                    positional.push(arg.to_string());
                }
            }
            _ => usage(),
        }
    }
    let addr = connect.unwrap_or_else(|| usage());
    let verb = verb.unwrap_or_else(|| usage());

    let result = match verb.as_str() {
        "submit" => {
            let [path] = positional.as_slice() else { usage() };
            let bytes = read_trace(path);
            wclient::submit(&addr, build, &bytes)
        }
        "query" | "stats" | "ping" | "shutdown" => {
            wclient::request(&addr, &wclient::cmd(&verb), None)
        }
        "diff" => {
            let (Some(a), Some(b)) = (diff_a, diff_b) else { usage() };
            let header = Value::Object(vec![
                ("cmd".to_string(), Value::Str("diff".to_string())),
                ("a".to_string(), Value::UInt(a)),
                ("b".to_string(), Value::UInt(b)),
            ]);
            wclient::request(&addr, &header, None)
        }
        "suppress" => {
            let [fingerprint] = positional.as_slice() else { usage() };
            let header = Value::Object(vec![
                ("cmd".to_string(), Value::Str("suppress".to_string())),
                ("fingerprint".to_string(), Value::Str(fingerprint.clone())),
                ("on".to_string(), Value::Bool(!off)),
            ]);
            wclient::request(&addr, &header, None)
        }
        _ => usage(),
    };

    let resp = result.unwrap_or_else(|e| {
        eprintln!("client: {e}");
        std::process::exit(EXIT_ERROR);
    });
    if !resp.ok() {
        eprintln!("client: server error: {}", resp.error().unwrap_or("unknown"));
        std::process::exit(EXIT_ERROR);
    }
    if resp.body.is_empty() {
        println!("{}", resp.header);
    } else {
        use std::io::Write as _;
        std::io::stdout().write_all(&resp.body).unwrap_or_else(|e| {
            eprintln!("client: {e}");
            std::process::exit(EXIT_ERROR);
        });
    }
    std::process::exit(0);
}

/// `raceline lint`: parse + annotate + static passes, no execution.
fn run_lint(files: &[SourceFile], json: bool) -> ! {
    let result = minicpp::analysis::analyze_files(files).unwrap_or_else(|e| {
        eprintln!("compile error: {e}");
        std::process::exit(EXIT_ERROR);
    });
    let n = result.reports.len();
    if json {
        let obj = Value::Object(vec![
            ("findings".to_string(), Value::UInt(n as u64)),
            ("reports".to_string(), reports_json(&result.reports)),
        ]);
        println!("{obj}");
    } else {
        for r in &result.reports {
            println!("{}", r.render());
        }
    }
    eprintln!("{n} finding(s)");
    std::process::exit(if n == 0 { 0 } else { EXIT_FINDINGS });
}

/// `raceline chaos`: sweep seeded fault plans across the T1–T8 evaluation
/// cases and the §4.1 bug catalogue, asserting the *detector's* resilience
/// invariants — chaos-testing the tracer the way the paper's SIP proxy was
/// tested:
///
/// 1. no host panic, whatever the injected faults do to the guest;
/// 2. identical (seed, plan) ⇒ bit-identical report fingerprint;
/// 3. the true-positive catalogue is still detected under faults.
///
/// Findings in the guest are *expected* here (that is the point); the exit
/// code reflects only the invariants: 0 = all hold, 2 = a resilience bug.
fn run_chaos(args: Vec<String>) -> ! {
    let mut runs: usize = 100;
    let mut seed: u64 = 0xC0FFEE;
    let mut detector_name = "hwlc-dr".to_string();
    let mut case_filter: Option<Vec<String>> = None;
    let mut max_slots: Option<u64> = None;
    let mut jobs: usize = 1;
    let mut json = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--runs" => {
                runs = it.next().and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                let s = it.next().unwrap_or_else(|| usage());
                seed = parse_u64(s).unwrap_or_else(|e| {
                    eprintln!("--seed: {e}");
                    std::process::exit(EXIT_ERROR);
                });
            }
            "--cases" => {
                let s = it.next().unwrap_or_else(|| usage());
                case_filter = Some(s.split(',').map(|c| c.trim().to_string()).collect());
            }
            "--detector" => detector_name = it.next().unwrap_or_else(|| usage()).clone(),
            "--max-slots" => {
                let s = it.next().unwrap_or_else(|| usage());
                max_slots = Some(parse_u64(s).unwrap_or_else(|e| {
                    eprintln!("--max-slots: {e}");
                    std::process::exit(EXIT_ERROR);
                }));
            }
            "--json" => json = true,
            _ => usage(),
        }
    }
    let cfg = parse_detector(&detector_name);
    let detector = || AnyDetector::by_name(&detector_name, cfg, SuppressionSet::new());

    let cases: Vec<sipsim::TestCase> = sipsim::testcases()
        .into_iter()
        .filter(|tc| case_filter.as_ref().is_none_or(|f| f.iter().any(|n| n == tc.name)))
        .collect();
    if cases.is_empty() {
        eprintln!("no test cases match {case_filter:?}");
        std::process::exit(EXIT_ERROR);
    }
    eprintln!(
        "chaos: {} run(s), base seed {seed:#x}, {} case(s): {}",
        runs,
        cases.len(),
        cases.iter().map(|c| c.name).collect::<Vec<_>>().join(",")
    );
    let built: Vec<sipsim::BuiltProxy> = cases.iter().map(|tc| tc.build()).collect();

    // Silence the default "thread panicked" spew: a panic is *recorded* as
    // a resilience failure, not splattered over the report.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut panics: usize = 0;
    let mut mismatches: usize = 0;
    let mut deadlocks: usize = 0;
    let mut guest_errors: usize = 0;
    let mut fuel_exhausted: usize = 0;
    let mut truncated_runs: usize = 0;
    let mut faults_injected: u64 = 0;
    let mut case_real_cover: Vec<bool> = vec![false; cases.len()];

    // Each run index fully determines its own inputs (plan, case, schedule
    // seed), so the sweep fans out over a worker pool and folds back in
    // index order — counters, diagnostics and the exit code are
    // bit-identical to the sequential sweep whatever `jobs` is.
    enum Probe {
        Mismatch,
        Panicked,
    }
    let probe_run = |i: usize| {
        let plan = FaultPlan::from_seed(seed.wrapping_add(i as u64));
        let ci = i % cases.len();
        let sched_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
        let b = &built[ci];
        let run = || sipsim::run_case_chaos(b, detector(), plan, sched_seed, max_slots);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).ok();
        // Determinism probe on a sample of runs: the same (plan, schedule)
        // must reproduce the exact report fingerprint.
        let probe = match &outcome {
            Some(first) if i.is_multiple_of(10) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                    Ok(again) if again.fingerprint == first.fingerprint => None,
                    Ok(_) => Some(Probe::Mismatch),
                    Err(_) => Some(Probe::Panicked),
                }
            }
            _ => None,
        };
        (outcome, probe)
    };
    let _ = fold_indexed(jobs, runs, probe_run, |i, (outcome, probe)| -> ControlFlow<()> {
        let plan_seed = seed.wrapping_add(i as u64);
        let ci = i % cases.len();
        let Some(outcome) = outcome else {
            panics += 1;
            eprintln!("PANIC: case {} plan seed {plan_seed:#x}", cases[ci].name);
            return ControlFlow::Continue(());
        };
        match probe {
            None => {}
            Some(Probe::Mismatch) => {
                mismatches += 1;
                eprintln!("NONDETERMINISM: case {} plan seed {plan_seed:#x}", cases[ci].name);
            }
            Some(Probe::Panicked) => panics += 1,
        }
        if outcome.deadlocked {
            deadlocks += 1;
        }
        if outcome.guest_error.is_some() {
            guest_errors += 1;
        }
        if outcome.fuel_exhausted {
            fuel_exhausted += 1;
        }
        if outcome.truncated {
            truncated_runs += 1;
        }
        faults_injected += outcome.fault_stats.map(|f| f.total()).unwrap_or(0);
        if outcome.real_hits > 0 {
            case_real_cover[ci] = true;
        }
        ControlFlow::Continue(())
    });

    // §4.1 catalogue under faults: each bug must still be detected under
    // at least one plan of the sweep. Bugs are independent of each other,
    // so they fan out across the pool too; within one bug the plans run in
    // order with the sequential early-exit, keeping the panic tally and
    // the missed list identical to --jobs 1.
    let all_bugs = sipsim::bugs::all_bugs();
    let hunt = |bi: usize| {
        let bug = &all_bugs[bi];
        let flat = bug.program.lower();
        let mut attempt_panics: usize = 0;
        let mut found = false;
        for i in 0..runs.clamp(1, 25) {
            let plan = FaultPlan::from_seed(seed.wrapping_add(i as u64));
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut det = detector();
                let mut sched: Box<dyn Scheduler> = match &bug.schedule {
                    Some(order) => Box::new(vexec::sched::PriorityOrder::new(
                        order.iter().map(|&t| vexec::ThreadId(t)).collect(),
                    )),
                    None => Box::new(RoundRobin::new()),
                };
                let opts = VmOptions { faults: Some(plan), ..Default::default() };
                let _ = run_flat(&flat, &mut det, sched.as_mut(), opts);
                det.take_reports().iter().any(|r| r.func == bug.expected_func)
            }));
            match attempt {
                Ok(true) => {
                    found = true;
                    break;
                }
                Ok(false) => {}
                Err(_) => attempt_panics += 1,
            }
        }
        (found, attempt_panics)
    };
    let mut bugs_missed: Vec<&'static str> = Vec::new();
    let _ = fold_indexed(jobs, all_bugs.len(), hunt, |bi, (found, attempt_panics)| {
        panics += attempt_panics;
        if !found {
            bugs_missed.push(all_bugs[bi].name);
        }
        ControlFlow::<()>::Continue(())
    });
    drop(std::panic::take_hook());
    std::panic::set_hook(prev_hook);

    let uncovered: Vec<&str> =
        cases.iter().zip(&case_real_cover).filter(|&(_, &c)| !c).map(|(tc, _)| tc.name).collect();
    let ok = panics == 0 && mismatches == 0 && uncovered.is_empty() && bugs_missed.is_empty();

    if json {
        let obj = Value::Object(vec![
            ("runs".to_string(), Value::UInt(runs as u64)),
            ("panics".to_string(), Value::UInt(panics as u64)),
            ("nondeterministic".to_string(), Value::UInt(mismatches as u64)),
            ("deadlocks".to_string(), Value::UInt(deadlocks as u64)),
            ("guest_errors".to_string(), Value::UInt(guest_errors as u64)),
            ("fuel_exhausted".to_string(), Value::UInt(fuel_exhausted as u64)),
            ("truncated".to_string(), Value::UInt(truncated_runs as u64)),
            ("faults_injected".to_string(), Value::UInt(faults_injected)),
            (
                "uncovered_cases".to_string(),
                Value::Array(uncovered.iter().map(|n| Value::Str(n.to_string())).collect()),
            ),
            (
                "bugs_missed".to_string(),
                Value::Array(bugs_missed.iter().map(|n| Value::Str(n.to_string())).collect()),
            ),
            ("resilient".to_string(), Value::Bool(ok)),
        ]);
        println!("{obj}");
    } else {
        println!(
            "chaos: {runs} run(s): {panics} panic(s), {mismatches} nondeterministic, \
             {deadlocks} deadlock(s), {guest_errors} guest error(s), \
             {fuel_exhausted} fuel-exhausted, {truncated_runs} truncated, \
             {faults_injected} fault(s) injected"
        );
        if !uncovered.is_empty() {
            println!("real races NOT covered in: {}", uncovered.join(","));
        }
        if !bugs_missed.is_empty() {
            println!("catalogue bugs NOT detected under faults: {}", bugs_missed.join(","));
        }
        println!("resilience: {}", if ok { "OK" } else { "FAILED" });
    }
    std::process::exit(if ok { 0 } else { EXIT_ERROR });
}

/// `raceline soak`: phased generative load (the §3.3 long-run scenario at
/// scale) through the VM under a kill schedule, with the warning catalogue
/// checkpointed between phases.
///
/// Every phase is a pure function of `(spec, phase)`: a fresh guest
/// program, schedule, and detector. That makes `--jobs N` byte-identical
/// to sequential, and makes crash/resume exact — the append-only log
/// commits each phase's deduped `warn` lines *before* the `phase` line, so
/// a harness crash mid-append loses only an uncommitted block that the
/// resumed run recomputes bit-identically. Exit contract: 0 = clean run,
/// 1 = catalogue non-empty or a phase deadlocked, 2 = tool/guest error.
fn run_soak(args: Vec<String>) -> ! {
    use sipsim::{run_phase, PhaseEnd, SoakLog, SoakSpec};

    let mut spec = SoakSpec::default();
    let mut detector_name = "hybrid".to_string();
    let mut budget: Option<BudgetSpec> = None;
    let mut jobs: usize = 1;
    let mut checkpoint_path: Option<String> = None;
    let mut max_slots: Option<u64> = None;
    let mut mem_report = false;

    let mut it = args.iter();
    let num = |it: &mut std::slice::Iter<String>| -> u64 {
        it.next().and_then(|x| parse_u64(x).ok()).unwrap_or_else(|| usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dialogs" => spec.dialogs = num(&mut it),
            "--phases" => spec.phases = num(&mut it).max(1) as u32,
            "--seed" => spec.seed = num(&mut it),
            "--workers" => spec.workers = num(&mut it).max(1) as u32,
            "--resize" => spec.resize_workers = num(&mut it) as u32,
            "--hops" => spec.hops = num(&mut it).clamp(1, 4) as u32,
            "--churn" => spec.churn_permille = num(&mut it).min(1000) as u32,
            "--options" => spec.options_permille = num(&mut it).min(1000) as u32,
            "--reinvites" => spec.max_reinvites = num(&mut it) as u32,
            "--kill" => spec.kill_permille = num(&mut it).min(1000) as u32,
            "--max-kills" => spec.max_kills_per_phase = num(&mut it) as u32,
            "--no-reclaim" => spec.reclaim = false,
            "--detector" => detector_name = it.next().unwrap_or_else(|| usage()).clone(),
            "--budget" => {
                let s = it.next().unwrap_or_else(|| usage());
                budget = Some(BudgetSpec::parse(s).unwrap_or_else(|e| {
                    eprintln!("--budget: {e}");
                    std::process::exit(EXIT_ERROR);
                }));
            }
            "--jobs" => jobs = num(&mut it).max(1) as usize,
            "--checkpoint" => checkpoint_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--max-slots" => max_slots = Some(num(&mut it)),
            "--mem-report" => mem_report = true,
            _ => usage(),
        }
    }
    let mut cfg = parse_detector(&detector_name);
    if let Some(b) = &budget {
        cfg.budget = b.detector;
    }
    if let Some(b) = &budget {
        if let Some(slots) = b.max_slots {
            max_slots.get_or_insert(slots);
        }
    }

    // Resume from a checkpoint if one exists; otherwise start fresh (and
    // seed the log file with its header so appends have a base). The log
    // records the detector settings too, so a resume under another engine
    // cannot fold two configurations into one catalogue.
    let settings = format!("{} slots={max_slots:?}", detector_spec(&detector_name, &cfg));
    let mut log = SoakLog::new(&spec, &settings);
    if let Some(path) = &checkpoint_path {
        let (parsed, cut) = commitlog::recover(path, &log.header(), |text| {
            let parsed = SoakLog::parse(text)?;
            if (&parsed.params, &parsed.settings) != (&log.params, &log.settings) {
                return Err(format!(
                    "recorded with different parameters\n  checkpoint: {} {}\n  requested:  {} {}",
                    parsed.params, parsed.settings, log.params, log.settings
                ));
            }
            Ok(parsed)
        })
        .unwrap_or_else(|e| {
            eprintln!("soak: checkpoint {e}");
            std::process::exit(EXIT_ERROR);
        });
        if cut {
            eprintln!(
                "soak: checkpoint repaired (dropped uncommitted tail); resuming at phase {}",
                parsed.next_phase()
            );
        } else if parsed.next_phase() > 0 {
            eprintln!("soak: resuming at phase {}", parsed.next_phase());
        }
        log = parsed;
    }

    // Phases still to run: each phase is independent, so they fan out over
    // the worker pool, and the in-order fold (and the appended log) is
    // identical to a sequential run.
    let first = log.next_phase();
    let run = |i: usize| {
        let det = AnyDetector::by_name(&detector_name, cfg, SuppressionSet::new());
        run_phase(&spec, first + i as u32, Some(det), true, max_slots)
    };
    let _ = fold_indexed(jobs, spec.phases.saturating_sub(first) as usize, run, |_, out| {
        if let Some(path) = &checkpoint_path {
            if let Err(e) = commitlog::append(path, &SoakLog::phase_block(&out)) {
                eprintln!("soak: cannot append to {path}: {e}");
                std::process::exit(EXIT_ERROR);
            }
        }
        let s = &out.stats;
        eprintln!(
            "soak: phase {}/{}: {} dialog(s), {} event(s), {} kill(s), {} warning(s), \
             peak granules {}, {}",
            s.phase + 1,
            spec.phases,
            s.dialogs,
            s.events,
            s.kills,
            s.warnings,
            s.peak_granules,
            match &s.end {
                PhaseEnd::Clean => "clean".to_string(),
                PhaseEnd::Deadlock(n) => format!("DEADLOCK ({n} blocked)"),
                PhaseEnd::GuestError(e) => format!("guest error: {e}"),
                PhaseEnd::FuelExhausted => "slot budget exhausted".to_string(),
            }
        );
        log.fold_phase(&out);
        ControlFlow::<()>::Continue(())
    });

    print!("{}", log.render_summary(mem_report));
    let guest_err = log.phases.iter().any(|p| matches!(p.end, PhaseEnd::GuestError(_)));
    let deadlocked = log.phases.iter().any(|p| matches!(p.end, PhaseEnd::Deadlock(_)));
    if guest_err {
        eprintln!("soak: guest error: exiting with status {EXIT_ERROR}");
        std::process::exit(EXIT_ERROR);
    }
    std::process::exit(if log.catalogue.is_empty() && !deadlocked { 0 } else { EXIT_FINDINGS });
}
