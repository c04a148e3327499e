//! The detector: one [`AnyDetector`] plugs an engine set into the VM's
//! [`vexec::tool::Tool`] interface and collects [`Report`]s in a
//! [`ReportSink`]. [`AnyDetector::by_name`] picks the engine set:
//!
//! * lockset (`original`, `hwlc`, `hwlc-dr`, the three Fig 6 columns) —
//!   the paper's subject, Helgrind's lockset algorithm, plus the
//!   lock-order deadlock predictor;
//! * hb (`djit`) — the DJIT-style pure happens-before baseline (§2.2);
//! * lockset ∧ hb (`hybrid`, `hybrid-queue`) — in the spirit of
//!   O'Callahan & Choi's hybrid detection [12]: a warning is issued only if
//!   the locking discipline is violated *and* the accesses are unordered.
//!   Higher-level hand-off primitives (message queues) can feed the HB side
//!   via `DetectorConfig::hybrid_queue_hb()`, implementing the paper's §5
//!   proposal and eliminating the Fig 11 thread-pool false positives.
//!
//! Event handling is written once: `handle_event` takes any [`ReportCtx`] —
//! the live VM inline, or a trace-replay context offline — and the [`Tool`]
//! impl simply delegates with the [`VmView`]. One code path means offline
//! analysis reproduces inline reports byte-for-byte.

use crate::config::DetectorConfig;
use crate::eraser::LocksetEngine;
use crate::hb::{EpochStats, HbEngine};
use crate::lockorder::LockOrderGraph;
use crate::report::{resolve_context, Report, ReportCtx, ReportKind, ReportSink};
use crate::suppress::SuppressionSet;
use vexec::event::{AccessKind, Event, ThreadId};
use vexec::ir::SrcLoc;
use vexec::tool::Tool;
use vexec::vm::{GuestError, VmView};

fn race_report_kind(kind: AccessKind) -> ReportKind {
    if kind.is_write() {
        ReportKind::RaceWrite
    } else {
        ReportKind::RaceRead
    }
}

fn hb_report_kind(kind: AccessKind) -> ReportKind {
    if kind.is_write() {
        ReportKind::HbRaceWrite
    } else {
        ReportKind::HbRaceRead
    }
}

/// Store a finding unless the sink has already seen its (kind, location).
/// `details` runs only for a new location, so the many duplicate
/// candidates render no text and allocate nothing.
fn offer(
    sink: &mut ReportSink,
    ctx: &dyn ReportCtx,
    (kind, tid, addr, loc): (ReportKind, ThreadId, u64, SrcLoc),
    details: impl FnOnce() -> String,
) {
    if sink.seen(kind, loc) {
        return;
    }
    let details = details();
    let (stack, block) = resolve_context(ctx, tid, addr);
    let report = Report {
        kind,
        tid: tid.0,
        file: ctx.resolve_sym(loc.file).to_string(),
        line: loc.line,
        func: ctx.resolve_sym(loc.func).to_string(),
        addr,
        stack,
        block,
        details,
        truncated: false,
    };
    sink.add(loc, report);
}

/// Per-engine analysis counters, surfaced by `raceline check --stats` /
/// `analyze --stats` (stderr only — stdout report identity is the
/// filter-equivalence contract and these counters legitimately differ
/// between filtered and unfiltered runs).
#[derive(Clone, Copy, Debug)]
pub struct EngineStats {
    /// Engine label ("lockset" or "hb").
    pub name: &'static str,
    /// Memory accesses the engine processed.
    pub accesses: u64,
    /// Granules dropped on the floor after the shadow budget filled.
    pub shadow_overflow: u64,
    /// Live shadow granules at the moment the stats were taken.
    pub live_granules: usize,
    /// High-water mark of live shadow granules over the engine's lifetime.
    pub peak_granules: usize,
    /// Adaptive epoch-representation counters; `None` for engines that do
    /// not carry happens-before shadow state (the lockset engine).
    pub epoch: Option<EpochStats>,
}

impl EngineStats {
    fn lockset(e: &LocksetEngine) -> Self {
        EngineStats {
            name: "lockset",
            accesses: e.accesses,
            shadow_overflow: e.shadow_overflow(),
            live_granules: e.shadowed_granules(),
            peak_granules: e.peak_shadowed_granules(),
            epoch: None,
        }
    }

    fn hb(e: &HbEngine) -> Self {
        EngineStats {
            name: "hb",
            accesses: e.accesses,
            shadow_overflow: e.shadow_overflow(),
            live_granules: e.shadowed_granules(),
            peak_granules: e.peak_shadowed_granules(),
            epoch: Some(e.epoch_stats()),
        }
    }
}

/// The engines one detector runs over the event stream.
#[allow(clippy::large_enum_variant)] // one detector per run, never collections of them
enum Engines {
    /// Helgrind's lockset algorithm with lock-order deadlock prediction.
    Lockset(LocksetEngine, LockOrderGraph),
    /// DJIT-style happens-before.
    Hb(HbEngine),
    /// Lockset ∧ happens-before: both must flag an access.
    Hybrid(LocksetEngine, HbEngine),
}

/// The race and deadlock detector, whichever engines it runs. Drivers pick
/// the engine set at runtime (`check`, chaos, soak, trace replay, the
/// warehouse, benches); inline it is a [`Tool`], and offline trace replay
/// feeds it through the same `handle_event`, which is what keeps the two
/// paths byte-identical.
pub struct AnyDetector {
    engines: Engines,
    pub sink: ReportSink,
    /// Rendered guest fault, if the run ended with one (diagnostic, not a
    /// warning — the guest crashed, the detector did not).
    guest_fault: Option<String>,
}

impl AnyDetector {
    /// The lockset detector under `cfg`, with no suppressions.
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::by_name("lockset", cfg, SuppressionSet::new())
    }

    /// The detector the CLI names `name`: `djit` runs happens-before,
    /// `hybrid*` runs lockset ∧ happens-before, and everything else runs
    /// lockset. The sink drops reports `supp` matches before the report
    /// cap counts them, so a suppressed location never takes the place of
    /// an unsuppressed one.
    pub fn by_name(name: &str, cfg: DetectorConfig, supp: SuppressionSet) -> Self {
        let engines = match name {
            "djit" => Engines::Hb(HbEngine::new(cfg)),
            "hybrid" | "hybrid-queue" => {
                let mut lockset = LocksetEngine::new(cfg);
                let mut hb = HbEngine::new(cfg);
                // Both engines keep flagging (no per-granule latch); the
                // sink deduplicates by location.
                lockset.set_report_once(false);
                hb.set_report_once(false);
                Engines::Hybrid(lockset, hb)
            }
            _ => Engines::Lockset(LocksetEngine::new(cfg), LockOrderGraph::new()),
        };
        let mut sink = ReportSink::with_suppressions(supp);
        sink.set_max_reports(cfg.budget.max_reports);
        AnyDetector { engines, sink, guest_fault: None }
    }

    /// Analysis counters for `--stats`, one entry per engine.
    pub fn engine_stats(&self) -> Vec<EngineStats> {
        match &self.engines {
            Engines::Lockset(ls, _) => vec![EngineStats::lockset(ls)],
            Engines::Hb(hb) => vec![EngineStats::hb(hb)],
            Engines::Hybrid(ls, hb) => vec![EngineStats::lockset(ls), EngineStats::hb(hb)],
        }
    }

    /// True if any budget cap degraded this run's results.
    pub fn truncated(&self) -> bool {
        let engines = match &self.engines {
            Engines::Lockset(ls, _) => ls.truncated(),
            Engines::Hb(hb) => hb.truncated(),
            Engines::Hybrid(ls, hb) => ls.truncated() || hb.truncated(),
        };
        engines || self.sink.truncated()
    }

    /// The guest fault the run ended with, if any.
    pub fn guest_fault(&self) -> Option<&str> {
        self.guest_fault.as_deref()
    }

    pub fn take_reports(&mut self) -> Vec<Report> {
        self.sink.take_reports()
    }

    /// Feed one event; context-agnostic (inline VM or trace replay).
    pub fn handle_event(&mut self, ev: &Event, ctx: &dyn ReportCtx) {
        let sink = &mut self.sink;
        match &mut self.engines {
            Engines::Lockset(ls, lockorder) => {
                if let Some(race) = ls.on_event(ev) {
                    let finding = (race_report_kind(race.kind), race.tid, race.addr, race.loc);
                    offer(sink, ctx, finding, || {
                        let mut details =
                            format!("Previous state: {}", race.prev_state.describe(&ls.table));
                        if let Some((ptid, pkind, ploc)) = race.prev_access {
                            details.push_str(&format!(
                                "\n   This conflicts with a previous {} by thread {} at {}:{} ({})",
                                if pkind.is_write() { "write" } else { "read" },
                                ptid.0,
                                ctx.resolve_sym(ploc.file),
                                ploc.line,
                                ctx.resolve_sym(ploc.func),
                            ));
                        }
                        details
                    });
                }
                if let Some(cycle) = lockorder.on_event(ev) {
                    let finding = (ReportKind::LockOrderCycle, cycle.tid, 0, cycle.loc);
                    offer(sink, ctx, finding, || cycle.describe());
                }
            }
            Engines::Hb(hb) => {
                if let Some(race) = hb.on_event(ev) {
                    let finding = (hb_report_kind(race.kind), race.tid, race.addr, race.loc);
                    offer(sink, ctx, finding, || race.conflict.to_string());
                }
            }
            Engines::Hybrid(ls, hb) => {
                let ls_race = ls.on_event(ev);
                let hb_race = hb.on_event(ev);
                if let (Some(race), Some(hb_race)) = (ls_race, hb_race) {
                    let finding = (race_report_kind(race.kind), race.tid, race.addr, race.loc);
                    offer(sink, ctx, finding, || {
                        let state = race.prev_state.describe(&ls.table);
                        format!("Previous state: {state}; hb: {}", hb_race.conflict)
                    });
                }
            }
        }
    }

    /// End-of-stream flush (mirrors [`Tool::on_finish`]).
    pub fn handle_finish(&mut self) {
        if self.truncated() {
            self.sink.mark_truncated();
        }
    }
}

impl Tool for AnyDetector {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        self.handle_event(ev, vm);
    }

    fn on_guest_fault(&mut self, err: &GuestError, _vm: &VmView<'_>) {
        self.guest_fault = Some(err.to_string());
    }

    fn on_finish(&mut self, _vm: &VmView<'_>) {
        self.handle_finish();
    }
}

#[cfg(test)]
mod tests {
    // Detector-level behaviour is covered by the crate-level integration
    // tests (tests/detectors.rs) which run real guest programs through the
    // VM; here we only check construction invariants.
    use super::*;

    /// Each CLI name runs its engine set: the three lockset configs run
    /// lockset alone, `djit` runs hb alone, and both hybrids run both.
    #[test]
    fn names_pick_their_engines() {
        let labels = |d: AnyDetector| d.engine_stats().iter().map(|s| s.name).collect::<Vec<_>>();
        for (name, engines) in [
            ("original", &["lockset"][..]),
            ("hwlc", &["lockset"]),
            ("hwlc-dr", &["lockset"]),
            ("djit", &["hb"]),
            ("hybrid", &["lockset", "hb"]),
            ("hybrid-queue", &["lockset", "hb"]),
        ] {
            let cfg = DetectorConfig::by_name(name).expect("a CLI engine name");
            let d = AnyDetector::by_name(name, cfg, SuppressionSet::new());
            assert_eq!(labels(d), engines, "{name}");
        }
        assert_eq!(labels(AnyDetector::new(DetectorConfig::hwlc_dr())), ["lockset"]);
    }

    #[test]
    fn suppressions_attach() {
        let supp = SuppressionSet::parse("{\n s\n H:Race\n fun:ignored_*\n}").unwrap();
        let e = AnyDetector::by_name("hwlc", DetectorConfig::hwlc(), supp);
        assert_eq!(e.sink.location_count(), 0);
    }
}
