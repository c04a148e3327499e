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

use crate::commitlog::{committed, esc, unesc};
use crate::detector::AnyDetector;
use crate::pool::fold_indexed;
use crate::report::{Report, ReportKind, StackFrame};
use std::cell::Cell;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::rc::Rc;
use vexec::event::{Event, ThreadId};
use vexec::faults::FaultPlan;
use vexec::filter::FilterTool;
use vexec::ir::Program;
use vexec::sched::{Scheduler, SeededRandom};
use vexec::tool::Tool;
use vexec::util::FxHashMap;
use vexec::vm::{GuestError, PreparedProgram, Termination, VmOptions, VmView};

/// One distinct warning location across the exploration.
#[derive(Clone, Debug)]
pub struct LocationHit {
    /// A representative report from the first run that found it.
    pub report: Report,
    /// In how many runs this location was reported.
    pub hits: usize,
    /// 1-based index of the first run that reported this location — the
    /// "schedules until found" metric the directed-exploration gate
    /// compares.
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
    /// Total slot budget across the whole sweep; once the runs folded so
    /// far have consumed it, remaining seeds are skipped and the summary
    /// is partial. The sweep checks it in run order, so the cut-off is the
    /// same at every `jobs`.
    pub total_slot_budget: Option<u64>,
    /// Fault plan injected into every run (same plan, per-run schedules).
    pub faults: Option<FaultPlan>,
    /// Worker threads for the sweep; `0` or `1` runs sequentially. Every
    /// value produces a bit-identical summary and checkpoint — see the
    /// merge protocol notes on [`explore_schedules`].
    pub jobs: usize,
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
    /// Snapshot this summary as a resumable checkpoint with an empty
    /// [`ExploreCheckpoint::spec`].
    pub fn checkpoint(&self) -> ExploreCheckpoint {
        ExploreCheckpoint {
            spec: String::new(),
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

/// Everything one run contributes to the summary. Each run is
/// deterministic given `(program, index, options)`, so an outcome does not
/// depend on which worker produced it or when.
struct RunOutcome {
    slots: u64,
    termination: Termination,
    reports: Vec<Report>,
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
struct WindowWatch<'a, T> {
    inner: &'a mut T,
    target: &'a DirectedTarget,
    flag: Rc<Cell<Option<ThreadId>>>,
}

impl<T: Tool> Tool for WindowWatch<'_, T> {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        if let Event::Release { tid, loc, .. } | Event::Access { tid, loc, .. } = *ev {
            if loc.line == self.target.line && vm.resolve(loc.file) == self.target.file {
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

/// Run index `i` under a fresh detector behind the redundant-access
/// filter: the probe prefix first, then the seeded sweep (seed
/// `base_seed + (i - probes.len())`, so the seeded tail visits the same
/// seeds an undirected sweep starts with). A probe is deterministic given
/// `(program, probe, options)` — its scheduler and watch share no state
/// with other runs — so probe outcomes merge exactly like seeded ones.
fn run_index(
    prog: &PreparedProgram<'_>,
    detector: &dyn Fn() -> AnyDetector,
    base_seed: u64,
    i: usize,
    opts: &VmOptions,
    probes: &[DirectedProbe],
) -> RunOutcome {
    let mut tool = FilterTool::new(detector());
    let r = match probes.get(i) {
        Some(probe) => {
            let flag = Rc::new(Cell::new(None));
            let pref = 1 + probe.variant as u32;
            let mut sched = DirectedSched { pref, depri: Vec::new(), flag: flag.clone() };
            let mut watch = WindowWatch { inner: &mut tool, target: &probe.target, flag };
            prog.run(&mut watch, &mut sched, opts.clone())
        }
        None => {
            let seed = base_seed.wrapping_add((i - probes.len()) as u64);
            prog.run(&mut tool, &mut SeededRandom::new(seed), opts.clone())
        }
    };
    RunOutcome {
        slots: r.stats.slots,
        termination: r.termination,
        reports: tool.into_parts().0.take_reports(),
    }
}

/// Distinct warnings across the sweep, keyed like the report sink's
/// dedup: [`Report::location_key`], so two kinds at one line stay apart.
type Aggregate = FxHashMap<(ReportKind, String, u32, String), LocationHit>;

/// Fold run `i`'s outcome into the summary.
fn fold_outcome(summary: &mut ExploreSummary, agg: &mut Aggregate, o: RunOutcome, i: usize) {
    summary.slots_used += o.slots;
    match o.termination {
        Termination::AllExited => summary.clean_runs += 1,
        Termination::Deadlock(_) => summary.deadlocked_runs += 1,
        Termination::FuelExhausted => {
            summary.failed_runs += 1;
            summary.fuel_exhausted_runs += 1;
        }
        Termination::GuestError(_) => summary.failed_runs += 1,
    }
    for report in o.reports {
        agg.entry(report.location_key()).and_modify(|l| l.hits += 1).or_insert(LocationHit {
            report,
            hits: 1,
            first_run: i + 1,
        });
    }
    summary.completed_runs = i + 1;
}

/// Run `program` `runs` times, each under a fresh detector from `detector`
/// behind the redundant-access filter, and aggregate the distinct warning
/// locations.
///
/// The first run indices execute one directed probe per `(target,
/// variant)` pair — a strict-priority schedule that preempts at the
/// target's release/use window — and the rest run seeded-random schedules
/// from `base_seed`; with no `targets` every run is seeded. `limits` adds
/// the watchdog, fault injection and the worker pool.
///
/// When `resume` is given it must come from a sweep over the same program
/// with the same `base_seed`, detector and options (callers compare
/// [`ExploreCheckpoint::spec`]; the explorer trusts the counters as-is).
/// Execution continues from the first run the checkpoint had not
/// completed, so an interrupted sweep plus its resumed remainder visits
/// exactly the same schedules as an uninterrupted one.
///
/// ## Deterministic parallel merge
///
/// With `limits.jobs > 1` the runs go to the shared worker pool
/// ([`crate::pool::fold_indexed`]), which folds each outcome into the
/// summary in index order as it arrives; every run is deterministic given
/// its index, so the summary is **bit-identical** to the sequential sweep.
/// The `total_slot_budget` watchdog is that fold's own slot sum: once the
/// runs folded so far have spent it and runs remain, the fold stops the
/// sweep where the sequential loop stops, and the outcomes of runs the
/// workers started past the cut-off (at most the look-ahead) are dropped.
pub fn explore_schedules(
    program: &Program,
    detector: impl Fn() -> AnyDetector + Sync,
    runs: usize,
    base_seed: u64,
    limits: ExploreLimits,
    resume: Option<&ExploreCheckpoint>,
    targets: &[DirectedTarget],
) -> ExploreSummary {
    let probes = build_probes(targets, runs);
    let mut agg = Aggregate::default();
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
            agg.insert(l.report.location_key(), l.clone());
        }
    }
    let flat = program.lower();
    let prepared = PreparedProgram::new(&flat);
    let opts = VmOptions {
        max_slots: limits.max_slots_per_run.unwrap_or(VmOptions::default().max_slots),
        faults: limits.faults,
        ..Default::default()
    };
    let run = |k| run_index(&prepared, &detector, base_seed, start + k, &opts, &probes);
    // The watchdog stops the sweep before index `next` once the budget is
    // spent; a resumed sweep may start spent.
    let budget = limits.total_slot_budget.unwrap_or(u64::MAX);
    let spent = |s: &ExploreSummary, next: usize| next < runs && s.slots_used >= budget;
    let cut = spent(&summary, start)
        || fold_indexed(limits.jobs, runs - start, run, |k, o| {
            fold_outcome(&mut summary, &mut agg, o, start + k);
            if spent(&summary, start + k + 1) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break();
    // The count includes runs restored from `resume`, so a fuel-exhausted
    // run saved before the cut still marks the resumed sweep.
    summary.timed_out = cut || summary.fuel_exhausted_runs > 0;
    let mut locations: Vec<LocationHit> = agg.into_values().collect();
    locations.sort_by(|a, b| {
        let (x, y) = (&a.report, &b.report);
        b.hits.cmp(&a.hits).then_with(|| {
            (&x.file, x.line, x.kind, &x.func).cmp(&(&y.file, y.line, y.kind, &y.func))
        })
    });
    summary.locations = locations;
    summary
}

/// Resumable snapshot of a (possibly interrupted) exploration sweep.
///
/// Serialized as a line-oriented text format (`render`/`parse`) rather
/// than JSON: the vendored serde shim emits but does not parse JSON, and
/// a checkpoint that can be written but never read back is useless. Every
/// field of every [`LocationHit`] round-trips, so a resumed sweep reports
/// exactly what the uninterrupted one would. A save replaces the whole
/// file atomically ([`crate::commitlog::replace`]), so a crash mid-save
/// leaves the previous checkpoint in place, and the file always ends in
/// its `end` line; [`Self::load`] treats one that does not as cut short.
#[derive(Clone, Debug, Default)]
pub struct ExploreCheckpoint {
    /// What decides each run's outcome (guest program, detector, fault
    /// plan, ...), as the caller describes it. The explorer does not read
    /// it; a caller resuming a sweep refuses a checkpoint whose spec
    /// differs from its own.
    pub spec: String,
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

/// Older versions are refused: v2 counted hits per (file, line, function),
/// so two warning kinds at one line shared one count and one report, and
/// v1 kept only each location's top frame.
const CHECKPOINT_MAGIC: &str = "raceline-explore-checkpoint v3";

/// The last line of every saved checkpoint.
const CHECKPOINT_END: &str = "\nend\n";

/// Fields of a `loc` line before its stack frames.
const LOC_FIELDS: usize = 11;

impl ExploreCheckpoint {
    /// Serialize to the line-oriented text format. A location is one
    /// `loc` line: hits, first run, kind, tid, address, truncated flag,
    /// line, file, function, block note (`-` for none, else `+` and the
    /// note), details, then one `line\tfile\tfunction` triple per stack
    /// frame. The last line is `end`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        out.push_str(&format!("spec {}\n", esc(&self.spec)));
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
            let block = match &r.block {
                Some(b) => format!("+{}", esc(b)),
                None => "-".to_string(),
            };
            let _ = write!(
                out,
                "loc {}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{block}\t{}",
                l.hits,
                l.first_run,
                r.kind.code(),
                r.tid,
                r.addr,
                u8::from(r.truncated),
                r.line,
                esc(&r.file),
                esc(&r.func),
                esc(&r.details),
            );
            for f in &r.stack {
                let _ = write!(out, "\t{}\t{}\t{}", f.line, esc(&f.file), esc(&f.func));
            }
            out.push('\n');
        }
        out.push_str(&CHECKPOINT_END[1..]);
        out
    }

    /// Read a checkpoint file. One that does not end in its `end` line was
    /// cut short, and not by a save, which is atomic. Its counters may then
    /// cover runs whose `loc` lines are gone, so a cut file keeps only what
    /// names its sweep (spec and run count) and carries no runs: a resume
    /// redoes them all and still prints exactly the uninterrupted sweep.
    /// The whole lines before the cut must parse. Returns the checkpoint
    /// and whether the file was cut.
    pub fn load(bytes: &[u8]) -> Result<(ExploreCheckpoint, bool), String> {
        let text = |b| std::str::from_utf8(b).map_err(|e| e.to_string());
        if bytes.ends_with(CHECKPOINT_END.as_bytes()) {
            return Ok((Self::parse(text(bytes)?)?, false));
        }
        let ck = Self::parse_body(text(committed(bytes))?)?;
        Ok((ExploreCheckpoint { spec: ck.spec, runs: ck.runs, ..Default::default() }, true))
    }

    /// Parse the format produced by [`Self::render`], `end` line and all.
    pub fn parse(text: &str) -> Result<ExploreCheckpoint, String> {
        let body = text.strip_suffix(CHECKPOINT_END).ok_or("checkpoint has no final `end` line")?;
        Self::parse_body(body)
    }

    /// Parse every line of a checkpoint before its `end` line.
    fn parse_body(text: &str) -> Result<ExploreCheckpoint, String> {
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
                "spec" => ck.spec = unesc(rest),
                "base_seed" => ck.base_seed = num(rest)?,
                "runs" => ck.runs = num(rest)? as usize,
                "next_index" => ck.next_index = num(rest)? as usize,
                "clean" => ck.clean_runs = num(rest)? as usize,
                "deadlocked" => ck.deadlocked_runs = num(rest)? as usize,
                "failed" => ck.failed_runs = num(rest)? as usize,
                "fuel_exhausted" => ck.fuel_exhausted_runs = num(rest)? as usize,
                "slots_used" => ck.slots_used = num(rest)?,
                "loc" => {
                    let f: Vec<&str> = rest.split('\t').collect();
                    if f.len() < LOC_FIELDS || !(f.len() - LOC_FIELDS).is_multiple_of(3) {
                        return Err(format!(
                            "checkpoint line {}: expected {LOC_FIELDS} loc fields plus frame \
                             triples, got {}",
                            ln + 2,
                            f.len()
                        ));
                    }
                    let bad = |what: &str| format!("checkpoint line {}: bad {what}", ln + 2);
                    let kind = ReportKind::from_code(f[2]).ok_or_else(|| bad("report kind"))?;
                    let truncated = match f[5] {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("truncated flag")),
                    };
                    let block = match f[9] {
                        "-" => None,
                        b => Some(unesc(b.strip_prefix('+').ok_or_else(|| bad("block note"))?)),
                    };
                    let mut stack = Vec::new();
                    for frame in f[LOC_FIELDS..].chunks(3) {
                        stack.push(StackFrame {
                            line: num(frame[0])? as u32,
                            file: unesc(frame[1]),
                            func: unesc(frame[2]),
                        });
                    }
                    ck.locations.push(LocationHit {
                        hits: num(f[0])? as usize,
                        first_run: num(f[1])? as usize,
                        report: Report {
                            kind,
                            tid: num(f[3])? as u32,
                            addr: num(f[4])?,
                            line: num(f[6])? as u32,
                            file: unesc(f[7]),
                            func: unesc(f[8]),
                            stack,
                            block,
                            details: unesc(f[10]),
                            truncated,
                        },
                    });
                }
                other => return Err(format!("checkpoint line {}: unknown key {other:?}", ln + 2)),
            }
        }
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::suppress::SuppressionSet;
    use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
    use vexec::ir::Expr;

    fn engine(name: &str) -> impl Fn() -> AnyDetector + Sync + '_ {
        move || {
            let cfg = DetectorConfig::by_name(name).expect("engine");
            AnyDetector::by_name(name, cfg, SuppressionSet::new())
        }
    }

    /// A hwlc-dr sweep over seeded schedules only.
    fn sweep(
        prog: &Program,
        runs: usize,
        seed: u64,
        limits: ExploreLimits,
        resume: Option<&ExploreCheckpoint>,
    ) -> ExploreSummary {
        explore_schedules(prog, engine("hwlc-dr"), runs, seed, limits, resume, &[])
    }

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
        let summary = sweep(&prog, 40, 0xDEED, ExploreLimits::default(), None);
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

    /// Two warning kinds at one line are two locations, each hit at most
    /// once a run: under hybrid, line 6 (`g_a = g_b`) races as a write of
    /// `g_a` in every run and as a read of `g_b` in some.
    #[test]
    fn kinds_at_one_line_are_counted_apart() {
        let mut pb = ProgramBuilder::new();
        let (a, b) = (pb.global("g_a", 8), pb.global("g_b", 8));
        let mut w = ProcBuilder::new(0);
        w.at(pb.loc("copy.cpp", 5, "worker"));
        let v = w.load_new(a, 8);
        w.store(b, Expr::Reg(v).add(1u64.into()), 8);
        w.at(pb.loc("copy.cpp", 6, "worker"));
        let v = w.load_new(b, 8);
        w.store(a, Expr::Reg(v), 8);
        let worker = pb.add_proc("worker", w);
        let mut m = ProcBuilder::new(0);
        m.at(pb.loc("copy.cpp", 10, "main"));
        let joins = [m.spawn(worker, vec![]), m.spawn(worker, vec![])];
        for h in joins {
            m.join(h);
        }
        let main_id = pb.add_proc("main", m);
        pb.set_entry(main_id);
        let prog = pb.finish();

        let s =
            explore_schedules(&prog, engine("hybrid"), 10, 0xACE, Default::default(), None, &[]);
        assert!(s.locations.iter().all(|l| l.hits <= s.runs), "{s:?}");
        let line6 = s.locations.iter().filter(|l| l.report.line == 6);
        let kinds: Vec<ReportKind> = line6.map(|l| l.report.kind).collect();
        assert_eq!(kinds, [ReportKind::RaceWrite, ReportKind::RaceRead], "{s:?}");
    }

    #[test]
    fn watchdog_budget_yields_partial_summary_and_resume_completes_it() {
        let prog = mixed_program();
        let full = sweep(&prog, 12, 0xDEED, ExploreLimits::default(), None);
        assert!(!full.timed_out);
        assert_eq!(full.completed_runs, 12);

        // A tiny total budget stops the sweep early with timed_out set.
        let limits =
            ExploreLimits { total_slot_budget: Some(full.slots_used / 4), ..Default::default() };
        let partial = sweep(&prog, 12, 0xDEED, limits, None);
        assert!(partial.timed_out);
        assert!(partial.completed_runs < 12, "{partial:?}");

        // Checkpoint round-trips through the text format.
        let ck = partial.checkpoint();
        let reparsed = ExploreCheckpoint::parse(&ck.render()).unwrap();
        assert_eq!(reparsed.next_index, ck.next_index);
        assert_eq!(reparsed.slots_used, ck.slots_used);
        assert_eq!(reparsed.locations.len(), ck.locations.len());

        // Resuming from the checkpoint visits exactly the remaining seeds
        // and ends in the uninterrupted sweep's state, reports and all.
        let resumed = sweep(&prog, 12, 0xDEED, ExploreLimits::default(), Some(&reparsed));
        assert_eq!(resumed.completed_runs, 12);
        assert_eq!(fingerprint(&resumed), fingerprint(&full));
    }

    #[test]
    fn per_run_fuel_cap_marks_timed_out_without_panicking() {
        let prog = mixed_program();
        let limits = ExploreLimits { max_slots_per_run: Some(3), ..Default::default() };
        let s = sweep(&prog, 4, 1, limits, None);
        assert!(s.timed_out);
        assert_eq!(s.fuel_exhausted_runs, 4);
        assert_eq!(s.completed_runs, 4);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(ExploreCheckpoint::parse("not a checkpoint").is_err());
        let good =
            format!("{CHECKPOINT_MAGIC}\nloc 1\t0\tRaceWrite\t0\t0\t0\t0\tf\tg\t-\td\nend\n");
        assert!(ExploreCheckpoint::parse(&good).is_ok());
        assert!(ExploreCheckpoint::parse(&good.replace("RaceWrite", "Nope")).is_err());
        let short = good.replace("\t-\td\n", "\t-\n");
        assert!(ExploreCheckpoint::parse(&short).is_err(), "a loc line cut short");
        let unsealed = good.strip_suffix("end\n").unwrap();
        assert!(ExploreCheckpoint::parse(unsealed).is_err(), "no final end line");
        let inner_end = good.replace("\nloc", "\nend\nloc");
        assert!(ExploreCheckpoint::parse(&inner_end).is_err(), "end is the last line only");
        for old in ["v1", "v2"] {
            let file = good.replace("checkpoint v3", &format!("checkpoint {old}"));
            assert!(ExploreCheckpoint::parse(&file).is_err(), "{old} is refused");
        }
    }

    /// A file cut anywhere, mid-line or at a line boundary, loads as a
    /// checkpoint of no runs (or fails, if not even its magic line is
    /// whole): never as counters without the locations they counted.
    #[test]
    fn a_cut_checkpoint_carries_no_runs() {
        let mut ck = ExploreCheckpoint {
            spec: "program=1".into(),
            runs: 6,
            next_index: 6,
            clean_runs: 2,
            slots_used: 900,
            ..Default::default()
        };
        for line in [7, 29] {
            ck.locations.push(LocationHit {
                hits: 4,
                first_run: 1,
                report: Report {
                    kind: ReportKind::RaceWrite,
                    tid: 1,
                    file: "s.cpp".into(),
                    line,
                    func: "w".into(),
                    addr: 64,
                    stack: vec![StackFrame { func: "w".into(), file: "s.cpp".into(), line }],
                    block: None,
                    details: "d".into(),
                    truncated: false,
                },
            });
        }
        let text = ck.render();
        let (whole, cut) = ExploreCheckpoint::load(text.as_bytes()).unwrap();
        assert!(!cut);
        assert_eq!(whole.render(), text);
        for n in 0..text.len() {
            match ExploreCheckpoint::load(&text.as_bytes()[..n]) {
                Ok((back, cut)) => {
                    assert!(cut, "cut at {n}");
                    assert_eq!((back.next_index, back.clean_runs, back.slots_used), (0, 0, 0));
                    assert!(back.locations.is_empty(), "cut at {n}");
                    assert!(back.spec.is_empty() || back.spec == ck.spec, "cut at {n}");
                }
                Err(e) => assert!(n <= CHECKPOINT_MAGIC.len(), "cut at {n}: {e}"),
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_every_location_field() {
        let mut ck = ExploreCheckpoint {
            spec: "program=1\tdetector=hwlc-dr".into(),
            base_seed: 9,
            runs: 3,
            next_index: 2,
            ..Default::default()
        };
        let frame = |func: &str, file: &str, line| StackFrame {
            func: func.into(),
            file: file.into(),
            line,
        };
        ck.locations.push(LocationHit {
            first_run: 2,
            report: Report {
                kind: ReportKind::RaceWrite,
                tid: 2,
                file: "a b.cpp".into(),
                line: 7,
                func: "op<>".into(),
                addr: 64,
                stack: vec![frame("op<>", "a b.cpp", 7), frame("wor\tker", "x\\y.cpp", 29)],
                block: Some("Address 0x40 is 0 bytes inside a block\tof size 8".into()),
                details: "line one\n\tline\\two".into(),
                truncated: true,
            },
            hits: 5,
        });
        let mut plain = ck.locations[0].clone();
        plain.report.block = None;
        plain.report.stack.clear();
        plain.report.truncated = false;
        ck.locations.push(plain);
        let back = ExploreCheckpoint::parse(&ck.render()).unwrap();
        assert_eq!(back.render(), ck.render());
        assert_eq!(back.spec, ck.spec);
        for (a, b) in back.locations.iter().zip(&ck.locations) {
            let (x, y) = (&a.report, &b.report);
            assert_eq!((a.hits, a.first_run), (b.hits, b.first_run));
            assert_eq!((x.kind, x.tid, x.addr, x.truncated), (y.kind, y.tid, y.addr, y.truncated));
            assert_eq!((&x.file, x.line, &x.func), (&y.file, y.line, &y.func));
            assert_eq!((&x.stack, &x.block, &x.details), (&y.stack, &y.block, &y.details));
        }
    }

    #[test]
    fn checkpoint_rejects_interior_corruption() {
        let ck = ExploreCheckpoint { base_seed: 1, runs: 2, ..Default::default() };
        let bad = ck.render().replace("runs 2", "runs two");
        assert!(ExploreCheckpoint::parse(&bad).is_err());
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

    /// Every run uses the engine the factory builds, suppressions and all:
    /// happens-before reports under djit, lockset reports under hwlc-dr.
    #[test]
    fn each_run_uses_the_factorys_detector() {
        let prog = mixed_program();
        let kinds = |name: &str| {
            let s =
                explore_schedules(&prog, engine(name), 8, 0xDEED, Default::default(), None, &[]);
            s.locations.iter().map(|l| l.report.kind).collect::<Vec<_>>()
        };
        let djit = kinds("djit");
        assert!(!djit.is_empty());
        assert!(djit.iter().all(|k| matches!(k, ReportKind::HbRaceRead | ReportKind::HbRaceWrite)));
        let lockset = kinds("hwlc-dr");
        assert!(!lockset.is_empty());
        assert!(lockset.iter().all(|k| matches!(k, ReportKind::RaceRead | ReportKind::RaceWrite)));

        let supp = SuppressionSet::parse("{\n s\n Helgrind:HbRace\n fun:robust_writer\n}").unwrap();
        let quiet = || AnyDetector::by_name("djit", DetectorConfig::djit(), supp.clone());
        let s = explore_schedules(&prog, quiet, 8, 0xDEED, Default::default(), None, &[]);
        assert!(!s.locations.is_empty());
        assert!(s.locations.iter().all(|l| l.report.func != "robust_writer"), "{s:?}");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let prog = mixed_program();
        let seq = sweep(&prog, 24, 0xDEED, ExploreLimits { jobs: 1, ..Default::default() }, None);
        let par = sweep(&prog, 24, 0xDEED, ExploreLimits { jobs: 8, ..Default::default() }, None);
        assert_eq!(fingerprint(&seq), fingerprint(&par));
        // Representative reports (full detail, not just locations) match too.
        for (a, b) in seq.locations.iter().zip(par.locations.iter()) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.report.details, b.report.details);
            assert_eq!(a.report.tid, b.report.tid);
            assert_eq!(a.report.addr, b.report.addr);
        }
    }

    /// The cut-off lands early, in the middle, late and after the last
    /// run. The watchdog starts no run past it at `jobs: 1`, and at most
    /// the pool's look-ahead past it with workers; the summary is the same.
    #[test]
    fn parallel_budget_cutoff_matches_sequential() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let prog = mixed_program();
        let runs = 48;
        let full = sweep(&prog, runs, 0xDEED, ExploreLimits::default(), None);
        let counted = |jobs: usize, total_slot_budget| {
            let started = AtomicUsize::new(0);
            let factory = || {
                started.fetch_add(1, Ordering::SeqCst);
                engine("hwlc-dr")()
            };
            let limits = ExploreLimits { total_slot_budget, jobs, ..Default::default() };
            let s = explore_schedules(&prog, factory, runs, 0xDEED, limits, None, &[]);
            let ahead = if jobs <= 1 { 0 } else { jobs * crate::pool::AHEAD_PER_WORKER };
            let started = started.into_inner();
            let done = s.completed_runs;
            assert!((done..=done + ahead).contains(&started), "jobs {jobs}: {started} for {done}");
            s
        };
        for tenth in 1..=10 {
            let budget = Some(full.slots_used * tenth / 10);
            let seq = counted(1, budget);
            assert_eq!(seq.timed_out, tenth < 10);
            for jobs in [2, 3, 8] {
                let par = counted(jobs, budget);
                assert_eq!(fingerprint(&seq), fingerprint(&par), "budget {tenth}/10, jobs {jobs}");
            }
        }
    }

    #[test]
    fn parallel_resume_is_bit_identical_to_sequential_resume() {
        let prog = mixed_program();
        let full = sweep(&prog, 12, 0xDEED, ExploreLimits::default(), None);
        let limits =
            ExploreLimits { total_slot_budget: Some(full.slots_used / 4), ..Default::default() };
        let partial = sweep(&prog, 12, 0xDEED, limits, None);
        let ck = partial.checkpoint();
        let seq = sweep(&prog, 12, 0xDEED, ExploreLimits::default(), Some(&ck));
        let par =
            sweep(&prog, 12, 0xDEED, ExploreLimits { jobs: 4, ..Default::default() }, Some(&ck));
        assert_eq!(fingerprint(&seq), fingerprint(&par));
    }

    #[test]
    fn explorer_is_deterministic_per_base_seed() {
        let prog = mixed_program();
        let a = sweep(&prog, 10, 7, ExploreLimits::default(), None);
        let b = sweep(&prog, 10, 7, ExploreLimits::default(), None);
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
        let undirected = sweep(&prog, 16, seed, ExploreLimits::default(), None);
        let u = first_hit(&undirected);
        assert!(u != usize::MAX, "undirected sweep must eventually find the race: {undirected:?}");
        let targets = [DirectedTarget { file: "fig7.cpp".into(), line: 30 }];
        let directed = explore_schedules(
            &prog,
            engine("hwlc-dr"),
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
        for name in ["original", "hwlc", "hwlc-dr", "djit", "hybrid", "hybrid-queue"] {
            let directed = |jobs| {
                let limits = ExploreLimits { jobs, ..Default::default() };
                explore_schedules(&prog, engine(name), 24, 0xACE, limits, None, &targets)
            };
            let (seq, par) = (directed(1), directed(8));
            assert_eq!(fingerprint(&seq), fingerprint(&par), "{name}");
            for (a, b) in seq.locations.iter().zip(par.locations.iter()) {
                assert_eq!(a.hits, b.hits);
                assert_eq!(a.first_run, b.first_run);
                assert_eq!(a.report.details, b.report.details);
            }
        }
    }
}
