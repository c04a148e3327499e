//! Tool wrappers: detectors that plug the engines into the VM's
//! [`vexec::tool::Tool`] interface and collect [`Report`]s in a
//! [`ReportSink`].
//!
//! * [`EraserDetector`] — the paper's subject: Helgrind's lockset algorithm
//!   (configure with [`DetectorConfig::original`], [`DetectorConfig::hwlc`]
//!   or [`DetectorConfig::hwlc_dr`] for the three Fig 6 columns), plus the
//!   lock-order deadlock predictor.
//! * [`DjitDetector`] — the DJIT-style pure happens-before baseline (§2.2).
//! * [`HybridDetector`] — lockset ∧ happens-before, in the spirit of
//!   O'Callahan & Choi's hybrid detection [12]: a warning is issued only if
//!   the locking discipline is violated *and* the accesses are unordered.
//!
//! Each detector exposes its event handling twice: `handle_event` takes
//! any [`ReportCtx`] — the live VM inline, or a trace-replay context
//! offline — and the [`Tool`] impl simply delegates with the [`VmView`].
//! One code path means offline analysis reproduces inline reports
//! byte-for-byte.

use crate::config::DetectorConfig;
use crate::eraser::{LocksetEngine, RaceInfo};
use crate::hb::{EpochStats, HbEngine, HbRaceInfo};
use crate::lockorder::{CycleInfo, LockOrderGraph};
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

fn build_report(
    ctx: &dyn ReportCtx,
    kind: ReportKind,
    tid: ThreadId,
    addr: u64,
    loc: SrcLoc,
    details: String,
) -> Report {
    let (stack, block) = resolve_context(ctx, tid, addr);
    Report {
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
    }
}

/// Every engine's report sink: `supp` drops matching reports before the
/// report cap counts them, so a suppressed location never takes the place
/// of an unsuppressed one.
fn sink(cfg: &DetectorConfig, supp: SuppressionSet) -> ReportSink {
    let mut sink = ReportSink::with_suppressions(supp);
    sink.set_max_reports(cfg.budget.max_reports);
    sink
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

/// The Eraser/Helgrind lockset detector with lock-order deadlock
/// prediction.
pub struct EraserDetector {
    engine: LocksetEngine,
    lockorder: LockOrderGraph,
    pub sink: ReportSink,
    /// Detect lock-order cycles too (on by default, like Helgrind).
    pub detect_lock_order: bool,
    /// Rendered guest fault, if the run ended with one (diagnostic, not a
    /// warning — the guest crashed, the detector did not).
    pub guest_fault: Option<String>,
}

impl EraserDetector {
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::with_suppressions(cfg, SuppressionSet::default())
    }

    pub fn with_suppressions(cfg: DetectorConfig, supp: SuppressionSet) -> Self {
        EraserDetector {
            engine: LocksetEngine::new(cfg),
            lockorder: LockOrderGraph::new(),
            sink: sink(&cfg, supp),
            detect_lock_order: true,
            guest_fault: None,
        }
    }

    pub fn config(&self) -> &DetectorConfig {
        self.engine.config()
    }

    pub fn engine(&self) -> &LocksetEngine {
        &self.engine
    }

    /// Analysis counters for `--stats`.
    pub fn engine_stats(&self) -> Vec<EngineStats> {
        vec![EngineStats {
            name: "lockset",
            accesses: self.engine.accesses,
            shadow_overflow: self.engine.shadow_overflow(),
            live_granules: self.engine.shadowed_granules(),
            peak_granules: self.engine.peak_shadowed_granules(),
            epoch: None,
        }]
    }

    /// True if any budget cap degraded this run's results.
    pub fn truncated(&self) -> bool {
        self.engine.truncated() || self.sink.truncated()
    }

    /// Feed one event; context-agnostic (inline VM or trace replay).
    pub fn handle_event(&mut self, ev: &Event, ctx: &dyn ReportCtx) {
        if let Some(race) = self.engine.on_event(ev) {
            self.report_race(ctx, race);
        }
        if self.detect_lock_order {
            if let Some(cycle) = self.lockorder.on_event(ev) {
                self.report_cycle(ctx, cycle);
            }
        }
    }

    /// End-of-stream flush (mirrors [`Tool::on_finish`]).
    pub fn handle_finish(&mut self) {
        if self.truncated() {
            self.sink.mark_truncated();
        }
    }

    fn report_race(&mut self, ctx: &dyn ReportCtx, race: RaceInfo) {
        let kind = race_report_kind(race.kind);
        if self.sink.seen(kind, race.loc) {
            return;
        }
        let mut details =
            format!("Previous state: {}", race.prev_state.describe(&self.engine.table));
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
        let report = build_report(ctx, kind, race.tid, race.addr, race.loc, details);
        self.sink.add(race.loc, report);
    }

    fn report_cycle(&mut self, ctx: &dyn ReportCtx, cycle: CycleInfo) {
        let kind = ReportKind::LockOrderCycle;
        if self.sink.seen(kind, cycle.loc) {
            return;
        }
        let report = build_report(ctx, kind, cycle.tid, 0, cycle.loc, cycle.describe());
        self.sink.add(cycle.loc, report);
    }
}

impl Tool for EraserDetector {
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

/// The DJIT-style happens-before detector.
pub struct DjitDetector {
    engine: HbEngine,
    pub sink: ReportSink,
    /// Rendered guest fault, if the run ended with one.
    pub guest_fault: Option<String>,
}

impl DjitDetector {
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::with_suppressions(cfg, SuppressionSet::default())
    }

    pub fn with_suppressions(cfg: DetectorConfig, supp: SuppressionSet) -> Self {
        DjitDetector { engine: HbEngine::new(cfg), sink: sink(&cfg, supp), guest_fault: None }
    }

    /// Analysis counters for `--stats`.
    pub fn engine_stats(&self) -> Vec<EngineStats> {
        vec![EngineStats {
            name: "hb",
            accesses: self.engine.accesses,
            shadow_overflow: self.engine.shadow_overflow(),
            live_granules: self.engine.shadowed_granules(),
            peak_granules: self.engine.peak_shadowed_granules(),
            epoch: Some(self.engine.epoch_stats()),
        }]
    }

    /// True if any budget cap degraded this run's results.
    pub fn truncated(&self) -> bool {
        self.engine.truncated() || self.sink.truncated()
    }

    /// Feed one event; context-agnostic (inline VM or trace replay).
    pub fn handle_event(&mut self, ev: &Event, ctx: &dyn ReportCtx) {
        if let Some(race) = self.engine.on_event(ev) {
            self.report_race(ctx, race);
        }
    }

    /// End-of-stream flush (mirrors [`Tool::on_finish`]).
    pub fn handle_finish(&mut self) {
        if self.truncated() {
            self.sink.mark_truncated();
        }
    }

    fn report_race(&mut self, ctx: &dyn ReportCtx, race: HbRaceInfo) {
        let kind = hb_report_kind(race.kind);
        if self.sink.seen(kind, race.loc) {
            return;
        }
        let report =
            build_report(ctx, kind, race.tid, race.addr, race.loc, race.conflict.to_string());
        self.sink.add(race.loc, report);
    }
}

impl Tool for DjitDetector {
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

/// Hybrid detection: a race is reported only when the lockset discipline is
/// violated **and** the happens-before relation does not order the
/// accesses. Higher-level hand-off primitives (message queues) can feed
/// the HB side via `DetectorConfig::hybrid_queue_hb()`, implementing the
/// paper's §5 proposal and eliminating the Fig 11 thread-pool false
/// positives.
pub struct HybridDetector {
    lockset: LocksetEngine,
    hb: HbEngine,
    pub sink: ReportSink,
    /// Rendered guest fault, if the run ended with one.
    pub guest_fault: Option<String>,
}

impl HybridDetector {
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::with_suppressions(cfg, SuppressionSet::default())
    }

    pub fn with_suppressions(cfg: DetectorConfig, supp: SuppressionSet) -> Self {
        let mut lockset = LocksetEngine::new(cfg);
        let mut hb = HbEngine::new(cfg);
        // Both engines keep flagging (no per-granule latch); the sink
        // deduplicates by location. Candidates carry no text, so the many
        // it drops allocate nothing: `handle_event` renders only new ones.
        lockset.set_report_once(false);
        hb.set_report_once(false);
        HybridDetector { lockset, hb, sink: sink(&cfg, supp), guest_fault: None }
    }

    /// Analysis counters for `--stats`.
    pub fn engine_stats(&self) -> Vec<EngineStats> {
        vec![
            EngineStats {
                name: "lockset",
                accesses: self.lockset.accesses,
                shadow_overflow: self.lockset.shadow_overflow(),
                live_granules: self.lockset.shadowed_granules(),
                peak_granules: self.lockset.peak_shadowed_granules(),
                epoch: None,
            },
            EngineStats {
                name: "hb",
                accesses: self.hb.accesses,
                shadow_overflow: self.hb.shadow_overflow(),
                live_granules: self.hb.shadowed_granules(),
                peak_granules: self.hb.peak_shadowed_granules(),
                epoch: Some(self.hb.epoch_stats()),
            },
        ]
    }

    /// True if any budget cap degraded this run's results.
    pub fn truncated(&self) -> bool {
        self.lockset.truncated() || self.hb.truncated() || self.sink.truncated()
    }

    /// Feed one event; context-agnostic (inline VM or trace replay).
    pub fn handle_event(&mut self, ev: &Event, ctx: &dyn ReportCtx) {
        let ls_race = self.lockset.on_event(ev);
        let hb_race = self.hb.on_event(ev);
        if let (Some(ls), Some(hb)) = (ls_race, hb_race) {
            let kind = race_report_kind(ls.kind);
            if self.sink.seen(kind, ls.loc) {
                return;
            }
            let details = format!(
                "Previous state: {}; hb: {}",
                ls.prev_state.describe(&self.lockset.table),
                hb.conflict
            );
            let report = build_report(ctx, kind, ls.tid, ls.addr, ls.loc, details);
            self.sink.add(ls.loc, report);
        }
    }

    /// End-of-stream flush (mirrors [`Tool::on_finish`]).
    pub fn handle_finish(&mut self) {
        if self.truncated() {
            self.sink.mark_truncated();
        }
    }
}

impl Tool for HybridDetector {
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

/// A name-dispatched detector: any of the three engines behind one
/// concrete type, for drivers that pick the engine at runtime (`check`,
/// chaos, soak, trace replay, benches) without monomorphizing every call
/// site. Inline it is a [`Tool`]; offline, trace replay feeds it through
/// the same `handle_event` bodies, which is what keeps the two paths
/// byte-identical. The name → engine mapping matches the CLI's (`djit` →
/// HB, `hybrid*` → hybrid, everything else → lockset); every engine
/// applies `supp` in its sink.
#[allow(clippy::large_enum_variant)] // one detector per phase, never collections of them
pub enum AnyDetector {
    Eraser(EraserDetector),
    Djit(DjitDetector),
    Hybrid(HybridDetector),
}

impl AnyDetector {
    pub fn by_name(name: &str, cfg: DetectorConfig, supp: SuppressionSet) -> Self {
        match name {
            "djit" => AnyDetector::Djit(DjitDetector::with_suppressions(cfg, supp)),
            "hybrid" | "hybrid-queue" => {
                AnyDetector::Hybrid(HybridDetector::with_suppressions(cfg, supp))
            }
            _ => AnyDetector::Eraser(EraserDetector::with_suppressions(cfg, supp)),
        }
    }

    pub fn truncated(&self) -> bool {
        match self {
            AnyDetector::Eraser(d) => d.truncated(),
            AnyDetector::Djit(d) => d.truncated(),
            AnyDetector::Hybrid(d) => d.truncated(),
        }
    }

    pub fn engine_stats(&self) -> Vec<EngineStats> {
        match self {
            AnyDetector::Eraser(d) => d.engine_stats(),
            AnyDetector::Djit(d) => d.engine_stats(),
            AnyDetector::Hybrid(d) => d.engine_stats(),
        }
    }

    pub fn guest_fault(&self) -> Option<&str> {
        match self {
            AnyDetector::Eraser(d) => d.guest_fault.as_deref(),
            AnyDetector::Djit(d) => d.guest_fault.as_deref(),
            AnyDetector::Hybrid(d) => d.guest_fault.as_deref(),
        }
    }

    pub fn take_reports(&mut self) -> Vec<Report> {
        match self {
            AnyDetector::Eraser(d) => d.sink.take_reports(),
            AnyDetector::Djit(d) => d.sink.take_reports(),
            AnyDetector::Hybrid(d) => d.sink.take_reports(),
        }
    }

    pub(crate) fn handle_event(&mut self, ev: &Event, ctx: &dyn ReportCtx) {
        match self {
            AnyDetector::Eraser(d) => d.handle_event(ev, ctx),
            AnyDetector::Djit(d) => d.handle_event(ev, ctx),
            AnyDetector::Hybrid(d) => d.handle_event(ev, ctx),
        }
    }

    pub(crate) fn handle_finish(&mut self) {
        match self {
            AnyDetector::Eraser(d) => d.handle_finish(),
            AnyDetector::Djit(d) => d.handle_finish(),
            AnyDetector::Hybrid(d) => d.handle_finish(),
        }
    }
}

impl Tool for AnyDetector {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        match self {
            AnyDetector::Eraser(d) => d.on_event(ev, vm),
            AnyDetector::Djit(d) => d.on_event(ev, vm),
            AnyDetector::Hybrid(d) => d.on_event(ev, vm),
        }
    }

    fn on_guest_fault(&mut self, err: &GuestError, vm: &VmView<'_>) {
        match self {
            AnyDetector::Eraser(d) => d.on_guest_fault(err, vm),
            AnyDetector::Djit(d) => d.on_guest_fault(err, vm),
            AnyDetector::Hybrid(d) => d.on_guest_fault(err, vm),
        }
    }

    fn on_finish(&mut self, vm: &VmView<'_>) {
        match self {
            AnyDetector::Eraser(d) => d.on_finish(vm),
            AnyDetector::Djit(d) => d.on_finish(vm),
            AnyDetector::Hybrid(d) => d.on_finish(vm),
        }
    }
}

#[cfg(test)]
mod tests {
    // Detector-level behaviour is covered by the crate-level integration
    // tests (tests/detectors.rs) which run real guest programs through the
    // VM; here we only check construction invariants.
    use super::*;

    #[test]
    fn constructors_wire_configs() {
        let e = EraserDetector::new(DetectorConfig::original());
        assert!(!e.config().honor_destruct);
        let e = EraserDetector::new(DetectorConfig::hwlc_dr());
        assert!(e.config().honor_destruct);
        let _ = DjitDetector::new(DetectorConfig::djit());
        let _ = HybridDetector::new(DetectorConfig::hybrid_queue_hb());
    }

    #[test]
    fn suppressions_attach() {
        let supp = SuppressionSet::parse("{\n s\n H:Race\n fun:ignored_*\n}").unwrap();
        let e = EraserDetector::with_suppressions(DetectorConfig::hwlc(), supp);
        assert_eq!(e.sink.location_count(), 0);
    }
}
