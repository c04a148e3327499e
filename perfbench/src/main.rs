//! `perfbench`: raceline's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ladder|suite|soak|serve|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. The lines
//! before it print every metric with its unit and sample count, the
//! failed ratio, and a stamp of the host and the code measured. `all`
//! runs each workload in a process of its own, one after another, and
//! prints each one's lines in turn. See `perfbench/README.md`.

mod bench;
mod host;
mod ladder;
mod metrics;
mod serve;
mod soak;
mod spans;
mod stack;
mod stats;
mod suite;

use std::process::{Command, ExitCode};

use bench::{Outcome, Workload};

pub const WORKLOADS: [&str; 4] = ["ladder", "suite", "soak", "serve"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set the workload up once and print how long it took: the cold
    /// set-up repetitions of a run, each in a process of its own.
    pub setup_only: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <ladder|suite|soak|serve|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Read a `0|1` flag value.
fn flag01(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, got {value:?}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => args.trace = flag01(&flag, &value)?,
            "--setup-only" => args.setup_only = flag01(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.setup_only && args.workload == "all" {
        return Err("--setup-only takes a single workload".to_string());
    }
    Ok(args)
}

/// This program, to run again in a child process.
pub fn self_command() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    Ok(Command::new(exe))
}

/// Run every workload in a process of its own, so that each one's peak
/// RSS is its own; their output goes straight to stdout.
fn run_all(args: &Args) -> Result<(), String> {
    for name in WORKLOADS {
        let status = self_command()?
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
    }
    Ok(())
}

/// Measure one workload, pinned to one vCPU (set-up processes and every
/// thread inherit the pin): on this host runs of the same code spread
/// less pinned, most of all serve's (perfbench/README.md, "The host").
fn measure(args: &Args) -> Result<Outcome, String> {
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("perfbench: {}: runs unpinned: {e}", args.workload);
    }
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match (args.workload.as_str(), args.setup_only) {
        ("ladder", false) => bench::run::<ladder::Ladder>(seed, seconds, trace),
        ("suite", false) => bench::run::<suite::Suite>(seed, seconds, trace),
        ("soak", false) => bench::run::<soak::Soak>(seed, seconds, trace),
        ("serve", false) => serve::run(seed, seconds, trace),
        ("ladder", true) => bench::setup_only(|out| ladder::Ladder::setup(seed, out, None)),
        ("suite", true) => bench::setup_only(|out| suite::Suite::setup(seed, out, None)),
        ("soak", true) => bench::setup_only(|out| soak::Soak::setup(seed, out, None)),
        ("serve", true) => bench::setup_only(|out| serve::Serve::setup(seed, out, None)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Directory a traced run writes its spans to, one file per workload.
const SPANS_DIR: &str = ".perfbench-spans";

/// Write a traced run's spans as JSON lines to `SPANS_DIR/<workload>.jsonl`.
fn write_spans(workload: &str, out: &Outcome) -> Result<(), String> {
    use std::io::Write;
    let path = std::path::Path::new(SPANS_DIR).join(format!("{workload}.jsonl"));
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(SPANS_DIR).map_err(err)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(err)?);
    for s in &out.spans {
        writeln!(w, "{}", spans::span_json(s)).map_err(err)?;
    }
    w.flush().map_err(err)?;
    println!("spans {} written to {}", out.spans.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.as_str();
    let done = if name == "all" {
        run_all(&args)
    } else {
        measure(&args).and_then(|out| {
            if args.setup_only {
                for f in &out.failures {
                    eprintln!("perfbench: {name}: set-up: failed: {f}");
                }
                println!("{}", bench::setup_line(&out));
                return Ok(());
            }
            if args.trace {
                write_spans(name, &out)?;
            }
            let reported = metrics::report(name, &args, &out)?;
            println!("{}", metrics::result_json(&reported));
            Ok(())
        })
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            ExitCode::from(1)
        }
    }
}
