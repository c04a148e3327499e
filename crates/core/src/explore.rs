//! Schedule exploration: run a program under many seeded interleavings and
//! aggregate the warnings.
//!
//! §2.3.2: "Repeated tests with different test data (resulting in
//! different interleavings) could help find such data-races, if they
//! exist." The explorer automates exactly that for the §4.3
//! schedule-dependent cases: each seed produces a different serialisation,
//! and the union of reported locations (with per-location hit counts)
//! shows which warnings are schedule-robust and which only surface
//! sometimes.

use crate::config::DetectorConfig;
use crate::detector::EraserDetector;
use crate::report::{Report, ReportKind, StackFrame};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vexec::event::{Event, ThreadId};
use vexec::faults::FaultPlan;
use vexec::filter::FilterTool;
use vexec::ir::Program;
use vexec::sched::{Scheduler, SeededRandom};
use vexec::tool::Tool;
use vexec::util::FxHashMap;
use vexec::vm::{GuestError, PreparedProgram, SlotMeter, Termination, VmMode, VmOptions, VmView};

/// One distinct warning location across the exploration.
#[derive(Clone, Debug)]
pub struct LocationHit {
    /// A representative report from the first run that found it.
    pub report: Report,
    /// In how many runs this location was reported.
    pub hits: usize,
    /// 1-based index of the first run that reported this location — the
    /// "schedules until found" metric the directed-exploration gate
    /// compares. `0` when the location was restored from a checkpoint
    /// (found somewhere in the resumed prefix).
    pub first_run: usize,
}

impl LocationHit {
    /// Fraction of runs that reported this location.
    pub fn hit_rate(&self, runs: usize) -> f64 {
        self.hits as f64 / runs.max(1) as f64
    }
}

/// Resource limits for an exploration sweep — the "watchdog" side of the
/// fault-resilience work: a runaway schedule (live-lock under injected
/// faults, pathological interleaving) must not hang the explorer; it ends
/// the sweep early with a *partial* summary flagged [`ExploreSummary::timed_out`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreLimits {
    /// Per-run slot cap (fuel); `None` uses the VM default.
    pub max_slots_per_run: Option<u64>,
    /// Total slot budget across the whole sweep; once consumed, remaining
    /// seeds are skipped and the summary is partial. In parallel sweeps
    /// the running total lives in a shared [`SlotMeter`], so workers stop
    /// claiming new seeds promptly.
    pub total_slot_budget: Option<u64>,
    /// Fault plan injected into every run (same plan, per-run schedules).
    pub faults: Option<FaultPlan>,
    /// Worker threads for the sweep; `0` or `1` runs sequentially. Every
    /// value produces a bit-identical summary and checkpoint — see the
    /// merge protocol notes on [`explore_schedules_with`].
    pub jobs: usize,
    /// Disable the redundant-access filter cache in front of the detector.
    /// The filter is report-preserving, so this only trades speed for
    /// nothing — it exists for the equivalence gates and for debugging.
    pub no_filter: bool,
    /// Run the sweep on the tree-walking reference core instead of the
    /// compiled bytecode (`--vm-reference`). Observationally identical —
    /// exists for the equivalence gates and A/B overhead rows.
    pub vm_reference: bool,
}

/// Aggregated exploration outcome.
#[derive(Debug, Default)]
pub struct ExploreSummary {
    /// Seeds requested.
    pub runs: usize,
    /// Seeds actually executed (equals `runs` unless the watchdog fired);
    /// includes runs restored from a resume checkpoint.
    pub completed_runs: usize,
    pub clean_runs: usize,
    pub deadlocked_runs: usize,
    pub failed_runs: usize,
    /// Runs that hit the per-run slot cap (also counted in `failed_runs`).
    pub fuel_exhausted_runs: usize,
    /// True when any watchdog fired: a run ran out of fuel or the total
    /// slot budget was consumed before every seed ran. The summary is then
    /// a partial (but still deterministic) view.
    pub timed_out: bool,
    /// Base seed the sweep started from (seed of run *i* is `base_seed + i`).
    pub base_seed: u64,
    /// Scheduler slots consumed across all completed runs.
    pub slots_used: u64,
    /// Distinct warning locations, most-frequently-hit first.
    pub locations: Vec<LocationHit>,
}

impl ExploreSummary {
    /// Snapshot this summary as a resumable checkpoint. Reports are
    /// summarized to their top stack frame; hit counts and verdict
    /// counters round-trip exactly.
    pub fn checkpoint(&self) -> ExploreCheckpoint {
        ExploreCheckpoint {
            base_seed: self.base_seed,
            runs: self.runs,
            next_index: self.completed_runs,
            clean_runs: self.clean_runs,
            deadlocked_runs: self.deadlocked_runs,
            failed_runs: self.failed_runs,
            fuel_exhausted_runs: self.fuel_exhausted_runs,
            slots_used: self.slots_used,
            locations: self.locations.clone(),
        }
    }
}

impl ExploreSummary {
    /// Locations found in *every* run (schedule-robust warnings).
    pub fn robust(&self) -> impl Iterator<Item = &LocationHit> {
        let runs = self.runs;
        self.locations.iter().filter(move |l| l.hits == runs)
    }

    /// Locations found in some but not all runs — exactly the §4.3 class
    /// that single-run testing can miss.
    pub fn flaky(&self) -> impl Iterator<Item = &LocationHit> {
        let runs = self.runs;
        self.locations.iter().filter(move |l| l.hits > 0 && l.hits < runs)
    }
}

/// Run `program` under `runs` different seeded-random schedules with a
/// fresh detector per run and aggregate distinct warning locations.
pub fn explore_schedules(
    program: &Program,
    cfg: DetectorConfig,
    runs: usize,
    base_seed: u64,
) -> ExploreSummary {
    explore_schedules_with(program, cfg, runs, base_seed, ExploreLimits::default(), None)
}

/// Everything one seeded run contributes to the summary. Each run is
/// deterministic given `(program, seed, options)`, so an outcome does not
/// depend on which worker produced it or when.
struct RunOutcome {
    slots: u64,
    termination: Termination,
    reports: Vec<Report>,
}

fn run_seed(
    prog: &PreparedProgram<'_>,
    cfg: DetectorConfig,
    base_seed: u64,
    i: usize,
    opts: &VmOptions,
    no_filter: bool,
) -> RunOutcome {
    let mut sched = SeededRandom::new(base_seed.wrapping_add(i as u64));
    let (r, mut det) = if no_filter {
        let mut det = EraserDetector::new(cfg);
        let r = prog.run(&mut det, &mut sched, opts.clone());
        (r, det)
    } else {
        let mut tool = FilterTool::new(EraserDetector::new(cfg));
        let r = prog.run(&mut tool, &mut sched, opts.clone());
        (r, tool.into_parts().0)
    };
    RunOutcome {
        slots: r.stats.slots,
        termination: r.termination,
        reports: det.sink.take_reports(),
    }
}

/// One static finding the directed sweep should try to confirm: the
/// release/use window of an escaping guarded reference (the watch point is
/// the release site), or the location of a static-only race (the watch
/// point is the access itself).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DirectedTarget {
    pub file: String,
    pub line: u32,
}

/// Probe variants tried per target before falling back to seeded runs.
const PROBE_VARIANTS: u64 = 2;

#[derive(Clone, Debug)]
struct DirectedProbe {
    target: DirectedTarget,
    variant: u64,
}

fn build_probes(targets: &[DirectedTarget], runs: usize) -> Vec<DirectedProbe> {
    let mut probes = Vec::new();
    for target in targets {
        for variant in 0..PROBE_VARIANTS {
            probes.push(DirectedProbe { target: target.clone(), variant });
        }
    }
    probes.truncate(runs);
    probes
}

/// Tool wrapper that watches for the target window: whenever a thread
/// releases a lock — or touches memory — at the target source line, it is
/// flagged for deprioritization, so another thread gets to run *inside*
/// the release/use window before the flagged thread reaches its
/// post-release use.
struct WindowWatch<T> {
    inner: T,
    file: String,
    line: u32,
    flag: Rc<Cell<Option<ThreadId>>>,
}

impl<T: Tool> Tool for WindowWatch<T> {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        if let Event::Release { tid, loc, .. } | Event::Access { tid, loc, .. } = *ev {
            if loc.line == self.line && vm.resolve(loc.file) == self.file {
                self.flag.set(Some(tid));
            }
        }
        self.inner.on_event(ev, vm);
    }
    fn on_guest_fault(&mut self, err: &GuestError, vm: &VmView<'_>) {
        self.inner.on_guest_fault(err, vm);
    }
    fn on_finish(&mut self, vm: &VmView<'_>) {
        self.inner.on_finish(vm);
    }
}

/// Coarse strict-priority scheduler with window preemption: threads run in
/// a rotation determined by the probe variant until the [`WindowWatch`]
/// flags one, which is then pushed to the back of the priority order. The
/// net effect is the Fig 7 confirmation order: the flagged thread finishes
/// its critical section, every other thread runs through the window, and
/// only then does the flagged thread reach its post-release use.
struct DirectedSched {
    /// Preferred first guest thread (rotation origin).
    pref: u32,
    /// Deprioritized threads, in flag order.
    depri: Vec<ThreadId>,
    flag: Rc<Cell<Option<ThreadId>>>,
}

impl Scheduler for DirectedSched {
    fn pick(&mut self, runnable: &[ThreadId], _slot: u64) -> usize {
        if let Some(t) = self.flag.take() {
            if !self.depri.contains(&t) {
                self.depri.push(t);
            }
        }
        let rank = |tid: ThreadId| -> (u64, u64) {
            match self.depri.iter().position(|&d| d == tid) {
                Some(pos) => (1, pos as u64),
                None => (0, u64::from(tid.0.wrapping_sub(self.pref))),
            }
        };
        runnable.iter().enumerate().min_by_key(|(_, &tid)| rank(tid)).map(|(i, _)| i).unwrap_or(0)
    }
    fn name(&self) -> &'static str {
        "directed"
    }
}

/// Run one directed probe. Deterministic given `(program, probe, options)`
/// — the probe scheduler and watch share no state with other runs — so
/// probe outcomes merge exactly like seeded ones.
fn run_probe(
    prog: &PreparedProgram<'_>,
    cfg: DetectorConfig,
    probe: &DirectedProbe,
    opts: &VmOptions,
    no_filter: bool,
) -> RunOutcome {
    let flag: Rc<Cell<Option<ThreadId>>> = Rc::new(Cell::new(None));
    let mut sched =
        DirectedSched { pref: 1 + probe.variant as u32, depri: Vec::new(), flag: flag.clone() };
    let (r, mut det) = if no_filter {
        let mut tool = WindowWatch {
            inner: EraserDetector::new(cfg),
            file: probe.target.file.clone(),
            line: probe.target.line,
            flag,
        };
        let r = prog.run(&mut tool, &mut sched, opts.clone());
        (r, tool.inner)
    } else {
        let mut tool = WindowWatch {
            inner: FilterTool::new(EraserDetector::new(cfg)),
            file: probe.target.file.clone(),
            line: probe.target.line,
            flag,
        };
        let r = prog.run(&mut tool, &mut sched, opts.clone());
        (r, tool.inner.into_parts().0)
    };
    RunOutcome {
        slots: r.stats.slots,
        termination: r.termination,
        reports: det.sink.take_reports(),
    }
}

/// Dispatch run index `i`: the probe prefix first, then the seeded sweep
/// (seed `base_seed + (i - probes.len())`, so the seeded tail visits the
/// same seeds an undirected sweep starts with).
fn run_index(
    prog: &PreparedProgram<'_>,
    cfg: DetectorConfig,
    base_seed: u64,
    i: usize,
    opts: &VmOptions,
    no_filter: bool,
    probes: &[DirectedProbe],
) -> RunOutcome {
    match probes.get(i) {
        Some(p) => run_probe(prog, cfg, p, opts, no_filter),
        None => run_seed(prog, cfg, base_seed, i - probes.len(), opts, no_filter),
    }
}

/// Fold one run's outcome into the summary — the single accounting path
/// shared by the sequential loop and the parallel merge.
fn fold_outcome(
    summary: &mut ExploreSummary,
    agg: &mut FxHashMap<(String, u32, String), LocationHit>,
    o: RunOutcome,
    i: usize,
) {
    summary.slots_used += o.slots;
    match o.termination {
        Termination::AllExited => summary.clean_runs += 1,
        Termination::Deadlock(_) => summary.deadlocked_runs += 1,
        Termination::FuelExhausted => {
            summary.failed_runs += 1;
            summary.fuel_exhausted_runs += 1;
            summary.timed_out = true;
        }
        Termination::GuestError(_) => summary.failed_runs += 1,
    }
    for report in o.reports {
        let key = (report.file.clone(), report.line, report.func.clone());
        agg.entry(key).and_modify(|l| l.hits += 1).or_insert(LocationHit {
            report,
            hits: 1,
            first_run: i + 1,
        });
    }
    summary.completed_runs = i + 1;
}

/// [`explore_schedules`] with watchdog limits, optional fault injection,
/// checkpoint/resume and a worker pool.
///
/// When `resume` is given it must come from a sweep over the same program
/// with the same `base_seed` (the checkpoint records it; mismatches are
/// the caller's bug — the explorer trusts the counters as-is). Execution
/// continues from the first seed the checkpoint had not completed, so an
/// interrupted sweep plus its resumed remainder visits exactly the same
/// seeds as an uninterrupted one.
///
/// ## Deterministic parallel merge
///
/// With `limits.jobs > 1` the seeds run on a scoped pool of plain std
/// threads, and the result is still **bit-identical** to the sequential
/// sweep. The protocol:
///
/// 1. Workers claim seed indices in increasing order from a shared
///    atomic counter, so the claimed set is always a contiguous prefix.
/// 2. Before each claim a worker consults the shared [`SlotMeter`]
///    (credited live by every VM, including in-flight runs); once it
///    shows the `total_slot_budget` consumed, no further seed starts.
///    Claimed runs always finish — bounded by their own per-run fuel —
///    because a later run's result may be needed by the merge.
/// 3. Each run is deterministic given its seed, so per-index outcomes are
///    schedule-independent; they are merged by a sequential fold in index
///    order that applies the budget cut-off exactly as the sequential
///    loop would. Any index the fold reaches is guaranteed claimed: were
///    it not, every worker observed `>= budget` spent on *earlier*
///    indices alone, and the fold stops at the same prefix sum.
pub fn explore_schedules_with(
    program: &Program,
    cfg: DetectorConfig,
    runs: usize,
    base_seed: u64,
    limits: ExploreLimits,
    resume: Option<&ExploreCheckpoint>,
) -> ExploreSummary {
    explore_impl(program, cfg, runs, base_seed, limits, resume, &[])
}

/// [`explore_schedules_with`] with a directed prefix: the first run
/// indices execute one probe per `(target, variant)` pair — a strict
/// priority schedule that preempts at the target's release/use window —
/// before the sweep falls back to the usual seeded random walk. Probe
/// runs are deterministic (no seed involved), so the whole sweep keeps
/// the byte-identical `--jobs N` merge guarantee.
pub fn explore_schedules_directed(
    program: &Program,
    cfg: DetectorConfig,
    runs: usize,
    base_seed: u64,
    limits: ExploreLimits,
    resume: Option<&ExploreCheckpoint>,
    targets: &[DirectedTarget],
) -> ExploreSummary {
    let probes = build_probes(targets, runs);
    explore_impl(program, cfg, runs, base_seed, limits, resume, &probes)
}

fn explore_impl(
    program: &Program,
    cfg: DetectorConfig,
    runs: usize,
    base_seed: u64,
    limits: ExploreLimits,
    resume: Option<&ExploreCheckpoint>,
    probes: &[DirectedProbe],
) -> ExploreSummary {
    let mut agg: FxHashMap<(String, u32, String), LocationHit> = FxHashMap::default();
    let mut summary = ExploreSummary { runs, base_seed, ..Default::default() };
    let mut start = 0usize;
    if let Some(ck) = resume {
        start = ck.next_index.min(runs);
        summary.completed_runs = start;
        summary.clean_runs = ck.clean_runs;
        summary.deadlocked_runs = ck.deadlocked_runs;
        summary.failed_runs = ck.failed_runs;
        summary.fuel_exhausted_runs = ck.fuel_exhausted_runs;
        summary.slots_used = ck.slots_used;
        for l in &ck.locations {
            let key = (l.report.file.clone(), l.report.line, l.report.func.clone());
            agg.insert(key, l.clone());
        }
    }
    let flat = program.lower();
    let mode = if limits.vm_reference { VmMode::Reference } else { VmMode::Compiled };
    let prepared = PreparedProgram::new(&flat, mode);
    let opts = VmOptions {
        max_slots: limits.max_slots_per_run.unwrap_or(VmOptions::default().max_slots),
        faults: limits.faults,
        ..Default::default()
    };
    let jobs = limits.jobs.max(1).min(runs.saturating_sub(start).max(1));
    if jobs == 1 {
        for i in start..runs {
            if let Some(budget) = limits.total_slot_budget {
                if summary.slots_used >= budget {
                    summary.timed_out = true;
                    break;
                }
            }
            let o = run_index(&prepared, cfg, base_seed, i, &opts, limits.no_filter, probes);
            fold_outcome(&mut summary, &mut agg, o, i);
        }
    } else {
        let meter = Arc::new(SlotMeter::new(summary.slots_used));
        let mut worker_opts = opts.clone();
        worker_opts.slot_meter = Some(meter.clone());
        let next = AtomicUsize::new(start);
        let mut outcomes: Vec<Option<RunOutcome>> = Vec::new();
        outcomes.resize_with(runs - start, || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    let (prepared, worker_opts, next, meter) =
                        (&prepared, &worker_opts, &next, &meter);
                    s.spawn(move || {
                        let mut local: Vec<(usize, RunOutcome)> = Vec::new();
                        loop {
                            if let Some(budget) = limits.total_slot_budget {
                                if meter.total() >= budget {
                                    break;
                                }
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= runs {
                                break;
                            }
                            local.push((
                                i,
                                run_index(
                                    prepared,
                                    cfg,
                                    base_seed,
                                    i,
                                    worker_opts,
                                    limits.no_filter,
                                    probes,
                                ),
                            ));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (i, o) in h.join().expect("explore worker panicked") {
                    outcomes[i - start] = Some(o);
                }
            }
        });
        for i in start..runs {
            if let Some(budget) = limits.total_slot_budget {
                if summary.slots_used >= budget {
                    summary.timed_out = true;
                    break;
                }
            }
            match outcomes[i - start].take() {
                Some(o) => fold_outcome(&mut summary, &mut agg, o, i),
                // Unreachable while the claim protocol holds (see the merge
                // notes above); degrade to a budget stop rather than panic.
                None => {
                    summary.timed_out = true;
                    break;
                }
            }
        }
    }
    let mut locations: Vec<LocationHit> = agg.into_values().collect();
    locations.sort_by(|a, b| {
        b.hits
            .cmp(&a.hits)
            .then_with(|| a.report.file.cmp(&b.report.file))
            .then_with(|| a.report.line.cmp(&b.report.line))
    });
    summary.locations = locations;
    summary
}

/// Resumable snapshot of a (possibly interrupted) exploration sweep.
///
/// Serialized as a line-oriented text format (`render`/`parse`) rather
/// than JSON: the vendored serde shim emits but does not parse JSON, and
/// a checkpoint that can be written but never read back is useless.
/// Location lines keep a summarized report — top stack frame only, no
/// heap-block note — which is exactly the degradation contract used
/// elsewhere: resumed sweeps stay deterministic in *which* locations they
/// count, at reduced per-report detail.
#[derive(Clone, Debug, Default)]
pub struct ExploreCheckpoint {
    pub base_seed: u64,
    pub runs: usize,
    /// First seed index not yet executed.
    pub next_index: usize,
    pub clean_runs: usize,
    pub deadlocked_runs: usize,
    pub failed_runs: usize,
    pub fuel_exhausted_runs: usize,
    pub slots_used: u64,
    pub locations: Vec<LocationHit>,
}

const CHECKPOINT_MAGIC: &str = "raceline-explore-checkpoint v1";

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

impl ExploreCheckpoint {
    /// Serialize to the line-oriented text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        out.push_str(&format!("base_seed {}\n", self.base_seed));
        out.push_str(&format!("runs {}\n", self.runs));
        out.push_str(&format!("next_index {}\n", self.next_index));
        out.push_str(&format!("clean {}\n", self.clean_runs));
        out.push_str(&format!("deadlocked {}\n", self.deadlocked_runs));
        out.push_str(&format!("failed {}\n", self.failed_runs));
        out.push_str(&format!("fuel_exhausted {}\n", self.fuel_exhausted_runs));
        out.push_str(&format!("slots_used {}\n", self.slots_used));
        for l in &self.locations {
            let r = &l.report;
            out.push_str(&format!(
                "loc {}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                l.hits,
                r.kind.code(),
                r.tid,
                r.addr,
                r.line,
                esc(&r.file),
                esc(&r.func),
                esc(&r.details),
            ));
        }
        out
    }

    /// Parse the format produced by [`Self::render`].
    pub fn parse(text: &str) -> Result<ExploreCheckpoint, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim() == CHECKPOINT_MAGIC => {}
            other => return Err(format!("bad checkpoint header: {other:?}")),
        }
        let mut ck = ExploreCheckpoint::default();
        for (ln, line) in lines.enumerate() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("checkpoint line {}: missing value", ln + 2))?;
            let num = |s: &str| {
                s.parse::<u64>().map_err(|_| format!("checkpoint line {}: bad number", ln + 2))
            };
            match key {
                "base_seed" => ck.base_seed = num(rest)?,
                "runs" => ck.runs = num(rest)? as usize,
                "next_index" => ck.next_index = num(rest)? as usize,
                "clean" => ck.clean_runs = num(rest)? as usize,
                "deadlocked" => ck.deadlocked_runs = num(rest)? as usize,
                "failed" => ck.failed_runs = num(rest)? as usize,
                "fuel_exhausted" => ck.fuel_exhausted_runs = num(rest)? as usize,
                "slots_used" => ck.slots_used = num(rest)?,
                "loc" => {
                    let fields: Vec<&str> = rest.split('\t').collect();
                    if fields.len() != 8 {
                        return Err(format!(
                            "checkpoint line {}: expected 8 loc fields, got {}",
                            ln + 2,
                            fields.len()
                        ));
                    }
                    let kind = ReportKind::from_code(fields[1]).ok_or_else(|| {
                        format!("checkpoint line {}: unknown report kind {:?}", ln + 2, fields[1])
                    })?;
                    let file = unesc(fields[5]);
                    let func = unesc(fields[6]);
                    let line_no = num(fields[4])? as u32;
                    ck.locations.push(LocationHit {
                        hits: num(fields[0])? as usize,
                        first_run: 0,
                        report: Report {
                            kind,
                            tid: num(fields[2])? as u32,
                            file: file.clone(),
                            line: line_no,
                            func: func.clone(),
                            addr: num(fields[3])?,
                            stack: vec![StackFrame { func, file, line: line_no }],
                            block: None,
                            details: unesc(fields[7]),
                            truncated: false,
                        },
                    });
                }
                other => return Err(format!("checkpoint line {}: unknown key {other:?}", ln + 2)),
            }
        }
        Ok(ck)
    }

    /// Like [`Self::parse`], but tolerant of the one corruption an
    /// interrupted write can leave behind: a truncated final record. On a
    /// strict-parse failure, drop the trailing partial line (or, when the
    /// text ends in a newline, the last full line) and retry once. Returns
    /// the checkpoint plus whether a repair was applied; errors on
    /// interior lines still propagate — those are real corruption, not a
    /// torn tail.
    pub fn parse_repair(text: &str) -> Result<(ExploreCheckpoint, bool), String> {
        let first_err = match Self::parse(text) {
            Ok(ck) => return Ok((ck, false)),
            Err(e) => e,
        };
        let Some(trimmed) = trim_torn_tail(text) else {
            return Err(first_err);
        };
        match Self::parse(trimmed) {
            Ok(ck) => Ok((ck, true)),
            Err(_) => Err(first_err),
        }
    }
}

/// The prefix of `text` with the torn tail removed: everything after the
/// last newline when the text does not end in one (an interrupted write
/// mid-line), otherwise the last *complete* line (an interrupted write
/// that happened to stop on a line boundary — the line itself is
/// suspect). `None` when nothing parseable would remain. Shared by every
/// line-oriented checkpoint format's `parse_repair`.
pub fn trim_torn_tail(text: &str) -> Option<&str> {
    match text.rfind('\n') {
        Some(nl) if nl + 1 < text.len() => Some(&text[..nl + 1]),
        Some(nl) => text[..nl].rfind('\n').map(|prev| &text[..prev + 1]),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
    use vexec::ir::Expr;

    /// Program with one schedule-robust race (two unlocked writers) and
    /// one schedule-dependent race (§4.3 unlocked-vs-locked pair).
    fn mixed_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let robust = pb.global("g_robust", 8);
        let flaky = pb.global("g_flaky", 8);
        let m_cell = pb.global("g_mutex", 8);

        let loc_r = pb.loc("mix.cpp", 5, "robust_writer");
        let mut wr = ProcBuilder::new(0);
        wr.at(loc_r);
        wr.store(robust, 1u64, 8);
        let robust_writer = pb.add_proc("robust_writer", wr);

        let loc_u = pb.loc("mix.cpp", 15, "flaky_unlocked");
        let mut wu = ProcBuilder::new(0);
        wu.at(loc_u);
        wu.yield_();
        wu.store(flaky, 1u64, 8);
        let flaky_unlocked = pb.add_proc("flaky_unlocked", wu);

        let loc_l = pb.loc("mix.cpp", 25, "flaky_locked");
        let mut wl = ProcBuilder::new(0);
        wl.at(loc_l);
        let mx = wl.load_new(m_cell, 8);
        wl.lock(mx);
        wl.store(flaky, 2u64, 8);
        wl.unlock(mx);
        let flaky_locked = pb.add_proc("flaky_locked", wl);

        let mloc = pb.loc("mix.cpp", 40, "main");
        let mut m = ProcBuilder::new(0);
        m.at(mloc);
        let mx = m.new_mutex();
        m.store(m_cell, mx, 8);
        let joins = vec![
            m.spawn(robust_writer, vec![]),
            m.spawn(robust_writer, vec![]),
            m.spawn(flaky_unlocked, vec![]),
            m.spawn(flaky_locked, vec![]),
        ];
        for h in joins {
            m.join(h);
        }
        // Keep the robust race from depending on which writer goes first:
        // both writers write without locks, so any order races.
        let _ = Expr::Const(0);
        let main_id = pb.add_proc("main", m);
        pb.set_entry(main_id);
        pb.finish()
    }

    #[test]
    fn explorer_separates_robust_from_flaky_warnings() {
        let prog = mixed_program();
        let summary = explore_schedules(&prog, DetectorConfig::hwlc_dr(), 40, 0xDEED);
        assert_eq!(summary.runs, 40);
        assert_eq!(summary.clean_runs, 40);
        let robust: Vec<_> = summary.robust().collect();
        let flaky: Vec<_> = summary.flaky().collect();
        assert!(
            robust.iter().any(|l| l.report.func == "robust_writer"),
            "two unlocked writers race under every schedule: {summary:?}"
        );
        assert!(
            flaky.iter().any(|l| l.report.func == "flaky_unlocked"),
            "the §4.3 pair must be schedule-dependent: {summary:?}"
        );
        for l in &summary.locations {
            assert!(l.hit_rate(summary.runs) > 0.0 && l.hit_rate(summary.runs) <= 1.0);
        }
    }

    #[test]
    fn watchdog_budget_yields_partial_summary_and_resume_completes_it() {
        let prog = mixed_program();
        let full = explore_schedules(&prog, DetectorConfig::hwlc_dr(), 12, 0xDEED);
        assert!(!full.timed_out);
        assert_eq!(full.completed_runs, 12);

        // A tiny total budget stops the sweep early with timed_out set.
        let limits =
            ExploreLimits { total_slot_budget: Some(full.slots_used / 4), ..Default::default() };
        let partial =
            explore_schedules_with(&prog, DetectorConfig::hwlc_dr(), 12, 0xDEED, limits, None);
        assert!(partial.timed_out);
        assert!(partial.completed_runs < 12, "{partial:?}");

        // Checkpoint round-trips through the text format.
        let ck = partial.checkpoint();
        let reparsed = ExploreCheckpoint::parse(&ck.render()).unwrap();
        assert_eq!(reparsed.next_index, ck.next_index);
        assert_eq!(reparsed.slots_used, ck.slots_used);
        assert_eq!(reparsed.locations.len(), ck.locations.len());

        // Resuming from the checkpoint visits exactly the remaining seeds:
        // same per-location hit counts as the uninterrupted sweep.
        let resumed = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            12,
            0xDEED,
            ExploreLimits::default(),
            Some(&reparsed),
        );
        assert_eq!(resumed.completed_runs, 12);
        assert_eq!(resumed.clean_runs, full.clean_runs);
        let key = |s: &ExploreSummary| {
            s.locations
                .iter()
                .map(|l| (l.report.file.clone(), l.report.line, l.hits))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&resumed), key(&full));
    }

    #[test]
    fn per_run_fuel_cap_marks_timed_out_without_panicking() {
        let prog = mixed_program();
        let limits = ExploreLimits { max_slots_per_run: Some(3), ..Default::default() };
        let s = explore_schedules_with(&prog, DetectorConfig::hwlc_dr(), 4, 1, limits, None);
        assert!(s.timed_out);
        assert_eq!(s.fuel_exhausted_runs, 4);
        assert_eq!(s.completed_runs, 4);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(ExploreCheckpoint::parse("not a checkpoint").is_err());
        let bad = format!("{}\nloc 1\tNope\t0\t0\t0\tf\tg\td\n", "raceline-explore-checkpoint v1");
        assert!(ExploreCheckpoint::parse(&bad).is_err());
    }

    #[test]
    fn checkpoint_escapes_details_round_trip() {
        let mut ck =
            ExploreCheckpoint { base_seed: 9, runs: 3, next_index: 2, ..Default::default() };
        ck.locations.push(LocationHit {
            first_run: 1,
            report: Report {
                kind: ReportKind::RaceWrite,
                tid: 2,
                file: "a b.cpp".into(),
                line: 7,
                func: "op<>".into(),
                addr: 64,
                stack: vec![StackFrame { func: "op<>".into(), file: "a b.cpp".into(), line: 7 }],
                block: None,
                details: "line one\n\tline\\two".into(),
                truncated: false,
            },
            hits: 5,
        });
        let back = ExploreCheckpoint::parse(&ck.render()).unwrap();
        assert_eq!(back.locations[0].hits, 5);
        assert_eq!(back.locations[0].report.details, "line one\n\tline\\two");
        assert_eq!(back.locations[0].report.file, "a b.cpp");
    }

    #[test]
    fn checkpoint_repair_drops_torn_tail() {
        let mut ck =
            ExploreCheckpoint { base_seed: 7, runs: 10, next_index: 6, ..Default::default() };
        ck.clean_runs = 6;
        let full = ck.render();
        // Interrupted write: the final line is cut mid-record, no newline.
        let torn = &full[..full.len() - 3];
        assert!(ExploreCheckpoint::parse(torn).is_err(), "strict parse must reject");
        let (back, repaired) = ExploreCheckpoint::parse_repair(torn).unwrap();
        assert!(repaired);
        assert_eq!(back.base_seed, 7);
        assert_eq!(back.next_index, 6);
    }

    #[test]
    fn checkpoint_repair_is_noop_on_clean_input() {
        let ck = ExploreCheckpoint { base_seed: 3, runs: 4, ..Default::default() };
        let (back, repaired) = ExploreCheckpoint::parse_repair(&ck.render()).unwrap();
        assert!(!repaired);
        assert_eq!(back.base_seed, 3);
    }

    #[test]
    fn checkpoint_repair_rejects_interior_corruption() {
        let ck = ExploreCheckpoint { base_seed: 1, runs: 2, ..Default::default() };
        // Corrupt an interior line, keep the tail intact: not a torn write.
        let bad = ck.render().replace("runs 2", "runs two");
        assert!(ExploreCheckpoint::parse_repair(&bad).is_err());
        assert!(ExploreCheckpoint::parse_repair("garbage, not a checkpoint").is_err());
    }

    /// Full observable state of a summary, for bit-identity assertions.
    fn fingerprint(s: &ExploreSummary) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}\n{}",
            s.runs,
            s.completed_runs,
            s.clean_runs,
            s.deadlocked_runs,
            s.failed_runs,
            s.fuel_exhausted_runs,
            s.timed_out,
            s.base_seed,
            s.slots_used,
            s.checkpoint().render(),
        )
    }

    #[test]
    fn filtered_sweep_is_bit_identical_to_unfiltered() {
        let prog = mixed_program();
        let filtered = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            24,
            0xDEED,
            ExploreLimits::default(),
            None,
        );
        let unfiltered = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            24,
            0xDEED,
            ExploreLimits { no_filter: true, ..Default::default() },
            None,
        );
        assert_eq!(fingerprint(&filtered), fingerprint(&unfiltered));
        for (a, b) in filtered.locations.iter().zip(unfiltered.locations.iter()) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.report.details, b.report.details);
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let prog = mixed_program();
        let seq = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            24,
            0xDEED,
            ExploreLimits { jobs: 1, ..Default::default() },
            None,
        );
        let par = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            24,
            0xDEED,
            ExploreLimits { jobs: 8, ..Default::default() },
            None,
        );
        assert_eq!(fingerprint(&seq), fingerprint(&par));
        // Representative reports (full detail, not just locations) match too.
        for (a, b) in seq.locations.iter().zip(par.locations.iter()) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.report.details, b.report.details);
            assert_eq!(a.report.tid, b.report.tid);
            assert_eq!(a.report.addr, b.report.addr);
        }
    }

    #[test]
    fn parallel_budget_cutoff_matches_sequential() {
        let prog = mixed_program();
        let full = explore_schedules(&prog, DetectorConfig::hwlc_dr(), 12, 0xDEED);
        let limits =
            ExploreLimits { total_slot_budget: Some(full.slots_used / 3), ..Default::default() };
        let seq =
            explore_schedules_with(&prog, DetectorConfig::hwlc_dr(), 12, 0xDEED, limits, None);
        assert!(seq.timed_out);
        let par = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            12,
            0xDEED,
            ExploreLimits { jobs: 8, ..limits },
            None,
        );
        assert_eq!(fingerprint(&seq), fingerprint(&par), "budget cut-off must merge identically");
    }

    #[test]
    fn parallel_resume_is_bit_identical_to_sequential_resume() {
        let prog = mixed_program();
        let full = explore_schedules(&prog, DetectorConfig::hwlc_dr(), 12, 0xDEED);
        let limits =
            ExploreLimits { total_slot_budget: Some(full.slots_used / 4), ..Default::default() };
        let partial =
            explore_schedules_with(&prog, DetectorConfig::hwlc_dr(), 12, 0xDEED, limits, None);
        let ck = partial.checkpoint();
        let seq = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            12,
            0xDEED,
            ExploreLimits::default(),
            Some(&ck),
        );
        let par = explore_schedules_with(
            &prog,
            DetectorConfig::hwlc_dr(),
            12,
            0xDEED,
            ExploreLimits { jobs: 4, ..Default::default() },
            Some(&ck),
        );
        assert_eq!(fingerprint(&seq), fingerprint(&par));
    }

    #[test]
    fn explorer_is_deterministic_per_base_seed() {
        let prog = mixed_program();
        let a = explore_schedules(&prog, DetectorConfig::hwlc_dr(), 10, 7);
        let b = explore_schedules(&prog, DetectorConfig::hwlc_dr(), 10, 7);
        let key = |s: &ExploreSummary| {
            s.locations
                .iter()
                .map(|l| (l.report.file.clone(), l.report.line, l.hits))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }

    /// The Fig 7 shape in IR: a reader loads the guarded slot under the
    /// lock, releases at fig7.cpp:30, and dereferences *after* release at
    /// :31; a disciplined writer mutates the same object under the lock.
    /// The race only reports when the locked write lands between the
    /// reader's release and its post-release use — the window a
    /// [`DirectedTarget`] at fig7.cpp:30 preempts into.
    fn fig7_ir_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let slot = pb.global("g_slot", 8);
        let obj = pb.global("g_obj", 8);
        let m_cell = pb.global("g_m", 8);

        let loc_get = pb.loc("fig7.cpp", 30, "reader");
        let loc_use = pb.loc("fig7.cpp", 31, "reader");
        let mut rd = ProcBuilder::new(0);
        rd.at(loc_get);
        let mx = rd.load_new(m_cell, 8);
        rd.lock(mx);
        let _h = rd.load_new(slot, 8);
        rd.unlock(mx);
        rd.at(loc_use);
        let v = rd.load_new(obj, 8);
        rd.store(obj, Expr::Reg(v).add(Expr::Const(1)), 8);
        let reader = pb.add_proc("reader", rd);

        let loc_w = pb.loc("fig7.cpp", 40, "locked_writer");
        let mut wr = ProcBuilder::new(0);
        wr.at(loc_w);
        let mx = wr.load_new(m_cell, 8);
        wr.lock(mx);
        let v = wr.load_new(obj, 8);
        wr.store(obj, Expr::Reg(v).add(Expr::Const(2)), 8);
        wr.unlock(mx);
        let writer = pb.add_proc("locked_writer", wr);

        let mloc = pb.loc("fig7.cpp", 50, "main");
        let mut m = ProcBuilder::new(0);
        m.at(mloc);
        let mx = m.new_mutex();
        m.store(m_cell, mx, 8);
        m.store(slot, 1u64, 8);
        let a = m.spawn(reader, vec![]);
        let b = m.spawn(writer, vec![]);
        m.join(a);
        m.join(b);
        let main_id = pb.add_proc("main", m);
        pb.set_entry(main_id);
        pb.finish()
    }

    /// The PR's headline acceptance property: a sweep directed at the Fig 7
    /// release site confirms the schedule-dependent race in strictly fewer
    /// schedules than the undirected random sweep from the same base seed.
    #[test]
    fn directed_probe_confirms_before_undirected_sweep() {
        let prog = fig7_ir_program();
        // Pinned to a base seed whose undirected sweep needs several runs
        // to stumble into the confirming order (run 4); the directed probe
        // always confirms on run 1, making "strictly fewer" meaningful.
        let seed = 0x1C;
        let first_hit = |s: &ExploreSummary| {
            s.locations
                .iter()
                .filter(|l| l.report.line == 31)
                .map(|l| l.first_run)
                .min()
                .unwrap_or(usize::MAX)
        };
        let undirected = explore_schedules(&prog, DetectorConfig::hwlc_dr(), 16, seed);
        let u = first_hit(&undirected);
        assert!(u != usize::MAX, "undirected sweep must eventually find the race: {undirected:?}");
        let targets = [DirectedTarget { file: "fig7.cpp".into(), line: 30 }];
        let directed = explore_schedules_directed(
            &prog,
            DetectorConfig::hwlc_dr(),
            16,
            seed,
            ExploreLimits::default(),
            None,
            &targets,
        );
        let d = first_hit(&directed);
        assert_eq!(d, 1, "the first probe preempts straight into the window: {directed:?}");
        assert!(d < u, "directed first hit {d} must beat undirected {u}");
    }

    #[test]
    fn directed_parallel_is_bit_identical_to_sequential() {
        let prog = fig7_ir_program();
        let targets = [
            DirectedTarget { file: "fig7.cpp".into(), line: 30 },
            DirectedTarget { file: "fig7.cpp".into(), line: 40 },
        ];
        let seq = explore_schedules_directed(
            &prog,
            DetectorConfig::hwlc_dr(),
            24,
            0xACE,
            ExploreLimits { jobs: 1, ..Default::default() },
            None,
            &targets,
        );
        let par = explore_schedules_directed(
            &prog,
            DetectorConfig::hwlc_dr(),
            24,
            0xACE,
            ExploreLimits { jobs: 8, ..Default::default() },
            None,
            &targets,
        );
        assert_eq!(fingerprint(&seq), fingerprint(&par));
        for (a, b) in seq.locations.iter().zip(par.locations.iter()) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.first_run, b.first_run);
            assert_eq!(a.report.details, b.report.details);
        }
    }
}
