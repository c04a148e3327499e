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
//! front of the trace writer for `record`); it never changes a report.
//! Every subcommand refuses a flag outside its usage line (`check
//! --explore` has a line of its own) as bad usage. Numbers are decimal or
//! `0x` hex.
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
use minicpp::pipeline::{run_pipeline, PipelineOutput, SourceFile};
use raceline_trace::format::{Fnv1a, TraceTermination};
use raceline_trace::writer::TraceWriter;
use raceline_warehouse::{
    client as wclient, render_diff_json, server as wserver, DiffEntry, Service, ServiceConfig,
};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use vexec::faults::{parse_u64, FaultPlan, FaultStats};
use vexec::filter::{FilterStats, FilterTool};
use vexec::sched::{Pct, RoundRobin, Scheduler, SeededRandom};
use vexec::vm::{run_flat, BlockOn, RunStats, Termination, VmOptions};

/// Each mode's usage line, under the mode it describes. A mode accepts
/// exactly the flags its lines list, and a flag whose token does not close
/// its `[...]` (`[--jobs <n>]`, `--listen <addr>`) takes a value.
const USAGE: &[(&str, &str)] = &[
    (
        "check",
        "check <file.mcpp>... [--raw <file.mcpp>]... \
         [--detector original|hwlc|hwlc-dr|djit|hybrid|hybrid-queue] \
         [--schedule rr|random:<seed>|pct:<seed>:<depth>] \
         [--suppressions <file>] [--gen-suppressions] [--faults <spec>] [--budget <spec>] \
         [--static-cross-check] [--stats] [--json] [--emit-annotated] [--emit-ir]",
    ),
    (
        "check --explore",
        "check <file.mcpp>... --explore <n> [--raw <file.mcpp>]... \
         [--detector <name>] [--suppressions <file>] [--faults <spec>] [--budget <spec>] \
         [--jobs <n>] [--checkpoint <file>] [--static-cross-check] [--directed] [--json] \
         [--emit-annotated] [--emit-ir]",
    ),
    (
        "record",
        "record <file.mcpp>... [--raw <file.mcpp>]... \
         [--out <trace.rltrace>] [--epoch-events <n>] [--schedule ...] [--faults <spec>] \
         [--budget <spec>] [--stats]",
    ),
    (
        "record",
        "record --case <T1..T8> [--out <trace.rltrace>] \
         [--epoch-events <n>] [--schedule ...] [--faults <spec>] [--budget <spec>] [--stats]",
    ),
    (
        "analyze",
        "analyze <trace.rltrace> [--detector <name>] [--jobs <n>] \
         [--from-epoch <k>] [--suppressions <file>] [--gen-suppressions] [--budget <spec>] \
         [--repair] [--stats] [--json]",
    ),
    (
        "soak",
        "soak [--dialogs <n>] [--phases <n>] [--seed <s>] [--workers <n>] \
         [--resize <n>] [--hops <n>] [--churn <permille>] [--options <permille>] \
         [--reinvites <n>] [--kill <permille>] [--max-kills <n>] [--no-reclaim] \
         [--detector <name>] [--budget <spec>] [--jobs <n>] [--checkpoint <file>] \
         [--mem-report]",
    ),
    (
        "trace-diff",
        "trace-diff <old.rltrace> <new.rltrace> [--detector <name>] \
         [--detector-a <name>] [--detector-b <name>] [--jobs <n>] [--json]",
    ),
    ("serve", "serve --listen <addr> --spool <dir> [--detector <name>] [--jobs <n>]"),
    ("client", "client --connect <addr> submit --build <n> <trace.rltrace>"),
    ("client", "client --connect <addr> query|stats|ping|shutdown"),
    ("client", "client --connect <addr> diff --a <build> --b <build>"),
    ("client", "client --connect <addr> suppress <fingerprint> [--off]"),
    ("lint", "lint <file.mcpp>... [--raw <file.mcpp>]... [--json]"),
    (
        "chaos",
        "chaos [--runs <n>] [--seed <s>] [--cases T1,T3,...] \
         [--detector <name>] [--max-slots <n>] [--jobs <n>] [--json]",
    ),
];

fn usage() -> ! {
    let lines: Vec<&str> = USAGE.iter().map(|(_, line)| *line).collect();
    fail(format!("usage: raceline {}", lines.join("\n       raceline ")))
}

/// A command line read against its mode's usage lines: each flag with its
/// value (empty for a switch) and each positional (flag `""`), in the
/// order given, so `--raw` units and instrumented ones compile as listed.
struct Cli {
    args: Vec<(&'static str, String)>,
}

impl Cli {
    /// Read `args` against `mode`'s flag list; any other flag is bad usage.
    fn parse(mode: &str, args: &[String]) -> Cli {
        let flags: Vec<(&'static str, bool)> = USAGE
            .iter()
            .filter(|(m, _)| *m == mode)
            .flat_map(|(_, line)| line.split_whitespace())
            .filter_map(|token| {
                let flag = token.strip_prefix('[').unwrap_or(token);
                flag.starts_with("--").then(|| (flag.trim_end_matches(']'), !token.ends_with(']')))
            })
            .collect();
        let mut parsed = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                parsed.push(("", arg.clone()));
                continue;
            }
            let Some(&(flag, takes_value)) = flags.iter().find(|(f, _)| f == arg) else {
                eprintln!("{arg} does not apply to {mode}");
                usage()
            };
            let value = if takes_value {
                it.next().unwrap_or_else(|| usage()).clone()
            } else {
                String::new()
            };
            parsed.push((flag, value));
        }
        Cli { args: parsed }
    }

    /// The value of the last `flag` given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.args.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|(f, _)| *f == flag)
    }

    fn num(&self, flag: &str) -> Option<u64> {
        self.value(flag).map(|v| {
            parse_u64(v).unwrap_or_else(|e| {
                eprintln!("{flag}: {e}");
                usage()
            })
        })
    }

    fn positionals(&self) -> Vec<&str> {
        self.args.iter().filter(|(f, _)| f.is_empty()).map(|(_, v)| v.as_str()).collect()
    }
}

fn parse_detector(s: &str) -> DetectorConfig {
    DetectorConfig::by_name(s).unwrap_or_else(|| {
        eprintln!("unknown detector: {s}");
        usage()
    })
}

/// The engine set-up of every mode that runs a detector: the named
/// engine, `--budget`'s caps and `--suppressions`' set.
struct Engine {
    name: String,
    cfg: DetectorConfig,
    suppressions: SuppressionSet,
    budget: Option<BudgetSpec>,
}

impl Engine {
    fn new(cli: &Cli, name: &str) -> Engine {
        let mut cfg = parse_detector(name);
        let budget = budget(cli);
        if let Some(b) = &budget {
            cfg.budget = b.detector;
        }
        let suppressions = cli.value("--suppressions").map_or_else(SuppressionSet::new, |path| {
            SuppressionSet::parse(&read_source(path))
                .unwrap_or_else(|e| fail(format!("{path}: {e}")))
        });
        Engine { name: name.to_string(), cfg, suppressions, budget }
    }

    fn detector(&self) -> AnyDetector {
        AnyDetector::by_name(&self.name, self.cfg, self.suppressions.clone())
    }

    /// The engine part of a checkpoint's spec, shared by the explore
    /// checkpoint and the soak log: the detector name, its budget caps and
    /// the VM's schedule revision, so a file saved under other schedules is
    /// refused.
    fn spec(&self) -> String {
        let b = self.cfg.budget;
        format!(
            "detector={} shadow={} locksets={} reports={} schedules={}",
            self.name,
            b.max_shadow_words,
            b.max_locksets,
            b.max_reports,
            vexec::SCHEDULE_REVISION
        )
    }

    /// `--budget`'s per-run slot cap.
    fn max_slots(&self) -> Option<u64> {
        self.budget.and_then(|b| b.max_slots)
    }
}

fn budget(cli: &Cli) -> Option<BudgetSpec> {
    cli.value("--budget")
        .map(|spec| BudgetSpec::parse(spec).unwrap_or_else(|e| fail(format!("--budget: {e}"))))
}

fn faults(cli: &Cli) -> Option<FaultPlan> {
    cli.value("--faults")
        .map(|spec| FaultPlan::parse(spec).unwrap_or_else(|e| fail(format!("--faults: {e}"))))
}

/// One run's VM options: `--faults` and a per-run slot cap.
fn vm_options(faults: Option<FaultPlan>, max_slots: Option<u64>) -> VmOptions {
    VmOptions {
        faults,
        max_slots: max_slots.unwrap_or(VmOptions::default().max_slots),
        ..Default::default()
    }
}

fn parse_schedule(s: &str) -> Box<dyn Scheduler> {
    if s == "rr" {
        return Box::new(RoundRobin::new());
    }
    if let Some(seed) = s.strip_prefix("random:") {
        let seed = parse_u64(seed).unwrap_or_else(|_| usage());
        return Box::new(SeededRandom::new(seed));
    }
    if let Some(rest) = s.strip_prefix("pct:") {
        let mut it = rest.split(':');
        let seed = it.next().and_then(|x| parse_u64(x).ok()).unwrap_or_else(|| usage());
        let depth = it.next().map_or(Some(2), |x| parse_u64(x).ok()?.try_into().ok());
        return Box::new(Pct::new(seed, depth.unwrap_or_else(|| usage()), 10_000));
    }
    eprintln!("unknown schedule: {s}");
    usage()
}

// Exit-code contract: 0 = ran clean, 1 = findings, 2 = tool/guest error.
const EXIT_FINDINGS: i32 = 1;
const EXIT_ERROR: i32 = 2;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(EXIT_ERROR);
}

fn read_source(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

/// The positionals as instrumented units and `--raw <file>` as
/// uninstrumented ones, in the order given.
fn sources(cli: &Cli) -> Vec<SourceFile> {
    cli.args
        .iter()
        .filter_map(|(flag, path)| match *flag {
            "" => Some(SourceFile::new(path, &read_source(path))),
            "--raw" => Some(SourceFile::without_instrumentation(path, &read_source(path))),
            _ => None,
        })
        .collect()
}

/// Stages 1+2+3 of Fig 3: preprocess, parse + annotate, compile.
fn compile(files: &[SourceFile]) -> PipelineOutput {
    let out = run_pipeline(files).unwrap_or_else(|e| fail(format!("compile error: {e}")));
    eprintln!(
        "compiled {} unit(s); {} delete site(s) annotated",
        files.len(),
        out.deletes_annotated
    );
    out
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
    engine: &Engine,
    limits: &ExploreLimits,
    directed: bool,
) -> String {
    let mut h = Fnv1a::default();
    h.update(vexec::ir::disasm::disassemble(&program.lower()).as_bytes());
    let mut supp = Fnv1a::default();
    supp.update(engine.suppressions.render().as_bytes());
    format!(
        "program={:016x} {} suppressions={:016x} faults={:?} slots={:?} directed={directed}",
        h.0,
        engine.spec(),
        supp.0,
        limits.faults,
        limits.max_slots_per_run,
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage() };
    let mode = if cmd == "check" && rest.iter().any(|a| a == "--explore") {
        "check --explore"
    } else {
        cmd.as_str()
    };
    let run: fn(&Cli) -> ! = match mode {
        "check" | "check --explore" => run_check,
        "record" => run_record,
        "lint" => run_lint,
        "analyze" => run_analyze,
        "trace-diff" => run_trace_diff,
        "serve" => run_serve,
        "client" => run_client,
        "chaos" => run_chaos,
        "soak" => run_soak,
        _ => usage(),
    };
    run(&Cli::parse(mode, rest))
}

/// `raceline check`: compile, then one run under `--schedule`, or with
/// `--explore <n>` a sweep over `n` schedules.
fn run_check(cli: &Cli) -> ! {
    let files = sources(cli);
    if files.is_empty() {
        usage();
    }
    let engine = Engine::new(cli, cli.value("--detector").unwrap_or("hwlc-dr"));
    let faults = faults(cli);
    let out = compile(&files);
    let flat = out.program.lower();
    if cli.has("--emit-annotated") {
        for (name, src) in &out.annotated_sources {
            println!("// ---- {name} (annotated) ----");
            println!("{src}");
        }
    }
    if cli.has("--emit-ir") {
        println!("{}", vexec::ir::disasm::disassemble(&flat));
    }
    let stat = cli.has("--static-cross-check").then(|| minicpp::analysis::analyze(&out.units));

    // Exploration mode: aggregate warnings across many schedules.
    if let Some(runs) = cli.num("--explore") {
        let runs = runs as usize;
        let (directed, json) = (cli.has("--directed"), cli.has("--json"));
        let limits = ExploreLimits {
            max_slots_per_run: engine.max_slots(),
            total_slot_budget: engine.budget.and_then(|b| b.total_slots),
            faults,
            jobs: cli.num("--jobs").unwrap_or(1) as usize,
        };
        let spec = explore_spec(&out.program, &engine, &limits, directed);
        let checkpoint_path = cli.value("--checkpoint");
        let resume = checkpoint_path.and_then(|p| {
            let bytes = match std::fs::read(p) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
                Err(e) => fail(format!("{p}: {e}")),
            };
            match ExploreCheckpoint::load(&bytes) {
                Ok((ck, _)) if ck.spec != spec => fail(format!(
                    "{p}: checkpoint was recorded by a different sweep\n  \
                     checkpoint: {}\n  requested:  {spec}",
                    ck.spec
                )),
                Ok((ck, _)) if ck.next_index > runs => fail(format!(
                    "{p}: {} runs already done, more than --explore {runs}",
                    ck.next_index
                )),
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
                Err(e) => fail(format!("{p}: {e}")),
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
                fail("--directed requires --static-cross-check (it consumes static findings)")
            }
        };
        let detector = || engine.detector();
        let summary = explore_schedules(
            &out.program,
            detector,
            runs,
            0xACE,
            limits,
            resume.as_ref(),
            &targets,
        );
        if let Some(p) = checkpoint_path {
            let ck = ExploreCheckpoint { spec, ..summary.checkpoint() };
            if let Err(e) = commitlog::replace(p, &ck.render()) {
                fail(format!("cannot write checkpoint {p}: {e}"));
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
    let mut tool = FilterTool::new(engine.detector());
    let mut sched = parse_schedule(cli.value("--schedule").unwrap_or("rr"));
    let r = run_flat(&flat, &mut tool, sched.as_mut(), vm_options(faults, engine.max_slots()));
    let (mut det, filter_stats) = tool.into_parts();
    if cli.has("--stats") {
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
    let (gen_suppressions, json) = (cli.has("--gen-suppressions"), cli.has("--json"));
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
        fail(format!("guest error: exiting with status {EXIT_ERROR}"));
    }
    std::process::exit(if warnings == 0 { 0 } else { EXIT_FINDINGS });
}

/// `raceline record`: run the VM once with the trace writer as the tool
/// and leave all detection to `raceline analyze`. `--case NAME` records a
/// built-in sipsim proxy scenario (the T1–T8 Fig 6 cases) instead of
/// compiling sources — the trace corpus the serve tests and benches
/// upload.
fn run_record(cli: &Cli) -> ! {
    let epoch_events = cli.num("--epoch-events");
    let opts = vm_options(faults(cli), budget(cli).and_then(|b| b.max_slots));
    let files = sources(cli);
    let flat = match cli.value("--case") {
        Some(case) if files.is_empty() => {
            let tc =
                sipsim::testcases().into_iter().find(|t| t.name == case).unwrap_or_else(|| {
                    let names: Vec<&str> = sipsim::testcases().iter().map(|t| t.name).collect();
                    fail(format!("unknown case {case}; available: {}", names.join(",")))
                });
            tc.build().program.lower()
        }
        None if !files.is_empty() => compile(&files).program.lower(),
        _ => usage(),
    };
    let mut sched = parse_schedule(cli.value("--schedule").unwrap_or("rr"));
    let out_path = cli.value("--out").unwrap_or("trace.rltrace");
    let file = std::fs::File::create(out_path)
        .unwrap_or_else(|e| fail(format!("cannot create {out_path}: {e}")));
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file));
    if let Some(n) = epoch_events {
        writer = writer.with_epoch_events(n);
    }
    // The filter elides exact-repeat accesses before they reach the
    // writer: smaller traces, same reports on replay (elided events
    // are state-transition no-ops).
    let mut tool = FilterTool::new(writer);
    let r = run_flat(&flat, &mut tool, sched.as_mut(), opts);
    let (writer, filter_stats) = tool.into_parts();
    let summary = writer
        .finish(&r.termination, &r.stats, r.faults.as_ref())
        .unwrap_or_else(|e| fail(format!("cannot write {out_path}: {e}")));
    if cli.has("--stats") {
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
    std::fs::read(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

/// `raceline analyze`: feed a recorded trace through any detector
/// configuration — no VM, no re-execution — and print exactly what
/// `raceline check` would have printed inline.
fn run_analyze(cli: &Cli) -> ! {
    let [path] = cli.positionals()[..] else { usage() };
    let engine = Engine::new(cli, cli.value("--detector").unwrap_or("hwlc-dr"));
    let jobs = cli.num("--jobs").unwrap_or(1).max(1) as usize;
    let from_epoch = cli.num("--from-epoch").unwrap_or(0);
    let bytes = read_trace(path);
    let detector = engine.detector();
    let outcome = if cli.has("--repair") {
        let (outcome, info) =
            helgrind_core::analyze_trace_repair(&bytes, detector, jobs, from_epoch)
                .unwrap_or_else(|e| fail(format!("{path}: {e}")));
        if info.repaired {
            eprintln!(
                "repaired: dropped {} torn byte(s), analyzing {} intact epoch(s)",
                info.dropped_bytes, outcome.footer.epochs
            );
        }
        outcome
    } else {
        analyze_trace_bytes(&bytes, detector, jobs, from_epoch)
            .unwrap_or_else(|e| fail(format!("{path}: {e}")))
    };
    eprintln!(
        "analyzed {} event(s) from {} epoch(s) [{}]",
        outcome.events, outcome.footer.epochs, engine.name
    );
    if cli.has("--stats") {
        // Replay-side counters only: the trace is already filtered (or
        // not) at record time; analyze never re-filters.
        print_engine_stats(&outcome.engine_stats);
    }

    let (end, term_label) = end_of_trace(&outcome.footer.termination);
    let (gen_suppressions, json) = (cli.has("--gen-suppressions"), cli.has("--json"));
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
fn run_trace_diff(cli: &Cli) -> ! {
    let [old_path, new_path] = cli.positionals()[..] else { usage() };
    let detector_a = cli.value("--detector-a").or(cli.value("--detector")).unwrap_or("hwlc-dr");
    let detector_b = cli.value("--detector-b").unwrap_or(detector_a);
    let jobs = cli.num("--jobs").unwrap_or(1).max(1) as usize;

    let analyze_one = |path: &str, name: &str| -> BTreeMap<String, Report> {
        let bytes = read_trace(path);
        let det = Engine::new(cli, name).detector();
        let outcome = analyze_trace_bytes(&bytes, det, jobs, 0)
            .unwrap_or_else(|e| fail(format!("{path}: {e}")));
        outcome.reports.into_iter().map(|r| (warning_fingerprint(&r), r)).collect()
    };
    let old = analyze_one(old_path, detector_a);
    let new = analyze_one(new_path, detector_b);

    let fresh: Vec<(&String, &Report)> =
        new.iter().filter(|(k, _)| !old.contains_key(*k)).collect();
    let fixed: Vec<(&String, &Report)> =
        old.iter().filter(|(k, _)| !new.contains_key(*k)).collect();
    let unchanged = new.keys().filter(|k| old.contains_key(*k)).count();

    let describe = |r: &Report| format!("{} at {}:{} ({})", r.kind.name(), r.file, r.line, r.func);
    if cli.has("--json") {
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
                detector_a,
                detector_b,
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

/// `raceline serve`: the trace-ingest service (DESIGN.md §14): the
/// threaded TCP front end over a spool-dir-backed report warehouse, run
/// until a `shutdown` command arrives.
fn run_serve(cli: &Cli) -> ! {
    let (Some(listen), Some(spool)) = (cli.value("--listen"), cli.value("--spool")) else {
        usage()
    };
    let [] = cli.positionals()[..] else { usage() };
    // The service builds its own detectors; refuse an unknown engine here.
    let detector_name = cli.value("--detector").unwrap_or("hwlc-dr");
    let _ = parse_detector(detector_name);
    let jobs = cli.num("--jobs").unwrap_or(1) as usize;
    let service = Service::open(ServiceConfig {
        spool: spool.into(),
        engine: detector_name.to_string(),
        hb_reference: false,
        jobs,
    })
    .unwrap_or_else(|e| fail(format!("serve: {e}")));
    let listener = std::net::TcpListener::bind(listen)
        .unwrap_or_else(|e| fail(format!("serve: cannot listen on {listen}: {e}")));
    match listener.local_addr() {
        Ok(addr) => {
            // Stdout so harnesses that bind port 0 can parse the real
            // address; flushed before accept starts.
            println!("listening {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => fail(format!("serve: {e}")),
    }
    if let Err(e) = wserver::serve(&service, listener) {
        fail(format!("serve: {e}"));
    }
    eprintln!("serve: shutdown complete");
    std::process::exit(0);
}

/// `raceline client`: drive a running `raceline serve` over the wire.
/// Response bodies (`query`, `diff`, `stats`) go to stdout verbatim so CI
/// can `cmp` them; bodiless responses print their JSON header line.
/// Exit 0 on `ok:true`, 2 on transport failure or `ok:false`.
fn run_client(cli: &Cli) -> ! {
    let addr = cli.value("--connect").unwrap_or_else(|| usage());
    let result = match cli.positionals()[..] {
        ["submit", path] => {
            wclient::submit(addr, cli.num("--build").unwrap_or(0), &read_trace(path))
        }
        [verb @ ("query" | "stats" | "ping" | "shutdown")] => {
            wclient::request(addr, &wclient::cmd(verb), None)
        }
        ["diff"] => {
            let (Some(a), Some(b)) = (cli.num("--a"), cli.num("--b")) else { usage() };
            let header = Value::Object(vec![
                ("cmd".to_string(), Value::Str("diff".to_string())),
                ("a".to_string(), Value::UInt(a)),
                ("b".to_string(), Value::UInt(b)),
            ]);
            wclient::request(addr, &header, None)
        }
        ["suppress", fingerprint] => {
            let header = Value::Object(vec![
                ("cmd".to_string(), Value::Str("suppress".to_string())),
                ("fingerprint".to_string(), Value::Str(fingerprint.to_string())),
                ("on".to_string(), Value::Bool(!cli.has("--off"))),
            ]);
            wclient::request(addr, &header, None)
        }
        _ => usage(),
    };

    let resp = result.unwrap_or_else(|e| fail(format!("client: {e}")));
    if !resp.ok() {
        fail(format!("client: server error: {}", resp.error().unwrap_or("unknown")));
    }
    if resp.body.is_empty() {
        println!("{}", resp.header);
    } else {
        use std::io::Write as _;
        std::io::stdout().write_all(&resp.body).unwrap_or_else(|e| fail(format!("client: {e}")));
    }
    std::process::exit(0);
}

/// `raceline lint`: parse + annotate + static passes, no execution.
fn run_lint(cli: &Cli) -> ! {
    let files = sources(cli);
    if files.is_empty() {
        usage();
    }
    let result = minicpp::analysis::analyze_files(&files)
        .unwrap_or_else(|e| fail(format!("compile error: {e}")));
    let n = result.reports.len();
    if cli.has("--json") {
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
fn run_chaos(cli: &Cli) -> ! {
    let [] = cli.positionals()[..] else { usage() };
    let runs = cli.num("--runs").unwrap_or(100) as usize;
    let seed = cli.num("--seed").unwrap_or(0xC0FFEE);
    let case_filter: Option<Vec<&str>> =
        cli.value("--cases").map(|s| s.split(',').map(str::trim).collect());
    let engine = Engine::new(cli, cli.value("--detector").unwrap_or("hwlc-dr"));
    let max_slots = cli.num("--max-slots");
    let jobs = cli.num("--jobs").unwrap_or(1) as usize;
    let detector = || engine.detector();

    let cases: Vec<sipsim::TestCase> = sipsim::testcases()
        .into_iter()
        .filter(|tc| case_filter.as_ref().is_none_or(|f| f.contains(&tc.name)))
        .collect();
    if cases.is_empty() {
        fail(format!("no test cases match {case_filter:?}"));
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

    if cli.has("--json") {
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
fn run_soak(cli: &Cli) -> ! {
    use sipsim::{run_phase, PhaseEnd, SoakLog, SoakSpec};

    let [] = cli.positionals()[..] else { usage() };
    let d = SoakSpec::default();
    let num = |flag: &str, default: u32| {
        cli.num(flag).map_or(default, |n| {
            u32::try_from(n).unwrap_or_else(|_| {
                eprintln!("{flag}: {n} is out of range");
                usage()
            })
        })
    };
    let spec = SoakSpec {
        dialogs: cli.num("--dialogs").unwrap_or(d.dialogs),
        phases: num("--phases", d.phases).max(1),
        seed: cli.num("--seed").unwrap_or(d.seed),
        workers: num("--workers", d.workers).max(1),
        resize_workers: num("--resize", d.resize_workers),
        hops: num("--hops", d.hops).clamp(1, 4),
        churn_permille: num("--churn", d.churn_permille).min(1000),
        options_permille: num("--options", d.options_permille).min(1000),
        max_reinvites: num("--reinvites", d.max_reinvites),
        kill_permille: num("--kill", d.kill_permille).min(1000),
        max_kills_per_phase: num("--max-kills", d.max_kills_per_phase),
        reclaim: !cli.has("--no-reclaim"),
    };
    let engine = Engine::new(cli, cli.value("--detector").unwrap_or("hybrid"));
    let max_slots = engine.max_slots();
    let jobs = cli.num("--jobs").unwrap_or(1).max(1) as usize;
    let checkpoint_path = cli.value("--checkpoint");

    // Resume from a checkpoint if one exists; otherwise start fresh (and
    // seed the log file with its header so appends have a base). The log
    // records the detector settings too, so a resume under another engine
    // cannot fold two configurations into one catalogue.
    let settings = format!("{} slots={max_slots:?}", engine.spec());
    let mut log = SoakLog::new(&spec, &settings);
    if let Some(path) = checkpoint_path {
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
        .unwrap_or_else(|e| fail(format!("soak: checkpoint {e}")));
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
    let run =
        |i: usize| run_phase(&spec, first + i as u32, Some(engine.detector()), true, max_slots);
    let _ = fold_indexed(jobs, spec.phases.saturating_sub(first) as usize, run, |_, out| {
        if let Some(path) = checkpoint_path {
            if let Err(e) = commitlog::append(path, &SoakLog::phase_block(&out)) {
                fail(format!("soak: cannot append to {path}: {e}"));
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

    print!("{}", log.render_summary(cli.has("--mem-report")));
    let guest_err = log.phases.iter().any(|p| matches!(p.end, PhaseEnd::GuestError(_)));
    let deadlocked = log.phases.iter().any(|p| matches!(p.end, PhaseEnd::Deadlock(_)));
    if guest_err {
        fail(format!("soak: guest error: exiting with status {EXIT_ERROR}"));
    }
    std::process::exit(if log.catalogue.is_empty() && !deadlocked { 0 } else { EXIT_FINDINGS });
}
