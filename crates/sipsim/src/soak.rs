//! The million-session soak harness: generative SIP traffic in phases,
//! under a kill schedule, with bounded-memory detection and a
//! crash-recoverable warning catalogue.
//!
//! The paper's subject is a *long-running* server (§3.3: a 500 kLOC SIP
//! proxy under SIPp load for hours); the T1–T8 cases are short fixed
//! scripts. This module closes that gap. A [`crate::workload::SoakSpec`]
//! describes an unbounded-looking load — heavy-tailed dialog lifetimes,
//! registration churn, mid-call re-INVITEs, multi-proxy forwarding,
//! thread-pool resize under load — and the soak driver executes it in
//! *phases*: each phase is one VM run of a guest program that is a pure
//! function of `(spec, phase)`. Purity buys three properties at once:
//!
//! * **Determinism**: any phase can be regenerated bit-identically in
//!   isolation, so `--jobs N` sharding and crash/resume cannot change the
//!   final answer.
//! * **Crash recovery**: the append-only [`SoakLog`] commits each phase
//!   with a trailing `phase` line *after* its `warn` lines; a harness
//!   crash mid-append leaves an uncommitted tail, which recovery
//!   ([`helgrind_core::commitlog::recover`]) cuts away — the re-run of the
//!   interrupted phase reproduces it exactly.
//! * **Bounded memory**: each phase runs a fresh detector, and *within* a
//!   phase the guest emits `HgCleanMemory` at dialog teardown so the
//!   engines' `reset_range` reclaims dead-dialog shadow state; the peak
//!   live-granule count stays flat in the dialog count (the `--mem-report`
//!   evidence), with [`helgrind_core::DetectorBudget`] as a hard backstop.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workload::{phase_cells, DialogClass, SoakSpec};
use helgrind_core::commitlog::{esc, unesc};
use helgrind_core::{warning_fingerprint, AnyDetector, Report, ReportKind};
use vexec::faults::FaultPlan;
use vexec::filter::FilterTool;
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{ClientOp, Cond, Expr, ProcId, Program, SyncKind, SyncOp};
use vexec::sched::SeededRandom;
use vexec::tool::CountingTool;
use vexec::vm::{run_flat, Termination, VmOptions};

/// Message block layout: `[0]` handler code, `[8]` touches, `[16]`
/// re-INVITEs. 32 bytes so the block spans several shadow granules.
const MSG_SIZE: u64 = 32;
/// Per-call session object size.
const SESSION_SIZE: u64 = 64;

/// Deterministic per-phase fault plan: kill-only, armed in odd phases
/// (see [`SoakSpec::phase_armed`]). The plan is attached even when
/// disarmed so fault counters are always present.
pub fn phase_fault_plan(spec: &SoakSpec, phase: u32) -> FaultPlan {
    let armed = spec.phase_armed(phase);
    FaultPlan {
        seed: spec.seed ^ 0xFA17_0000 ^ (u64::from(phase) << 32),
        wakeup_permille: 0,
        lockfail_permille: 0,
        allocfail_permille: 0,
        kill_permille: if armed { spec.kill_permille } else { 0 },
        max_kills: if armed { spec.max_kills_per_phase } else { 0 },
    }
    .normalized()
}

/// Deterministic per-phase schedule seed.
pub fn phase_sched_seed(spec: &SoakSpec, phase: u32) -> u64 {
    spec.seed ^ 0x5C4E_D00D ^ u64::from(phase).wrapping_mul(0xD129_5CFA_9A7E_11E5)
}

/// Build the guest program for one phase: a thread-pool SIP proxy serving
/// this phase's sampled dialog mix. Site inventory (file:line is the
/// warning identity):
///
/// * `registrar.cpp:55` — unlocked binding-expiry counter (**race**)
/// * `stats.cpp:20` — unlocked active-call counter (**race**)
/// * `stats.cpp:25` — unlocked re-INVITE counter (**race**)
/// * `routing.cpp:{115,125,...}` — unlocked forward counter, one line per
///   forwarding hop (**race**, only for hop depths the mix uses)
/// * everything else (bindings, session state, options, hop tables) is
///   properly locked or thread-confined — the clean bulk of the traffic.
pub fn build_soak_phase(spec: &SoakSpec, phase: u32) -> Program {
    let cells = phase_cells(spec, phase);
    let mut pb = ProgramBuilder::new();

    let qcell = pb.global("g_queue", 8);
    let mtx_registrar = pb.global("g_mtx_registrar", 8);
    let mtx_session = pb.global("g_mtx_session", 8);
    let mtx_routing = pb.global("g_mtx_routing", 8);
    let mtx_stats = pb.global("g_mtx_stats", 8);
    let reg_bindings = pb.global("g_reg_bindings", 8);
    let reg_expiry = pb.global("g_reg_expiry", 8);
    let active_calls = pb.global("g_active_calls", 8);
    let reinvite_stat = pb.global("g_reinvite_stat", 8);
    let options_served = pb.global("g_options_served", 8);
    let forward_stat = pb.global("g_forward_stat", 8);
    let max_hops = spec.hops.clamp(1, 4);
    let hop_tables: Vec<_> =
        (1..=max_hops).map(|h| pb.global(&format!("g_hop_table_{h}"), 8)).collect();

    // ---- forwarding chain: hop_h forwards to hop_{h-1} (multi-proxy
    // topology; each hop is "the next proxy in the route set"). ----
    let mut hop_procs: Vec<ProcId> = Vec::new();
    for h in 1..=max_hops {
        let loc = pb.loc("routing.cpp", 100 + 10 * h, &format!("Proxy{h}::forward"));
        let mut p = ProcBuilder::new(0);
        p.at(loc);
        let m = p.load_new(mtx_routing, 8);
        p.lock(m);
        p.at(pb.loc("routing.cpp", 102 + 10 * h, &format!("Proxy{h}::forward")));
        let t = p.load_new(hop_tables[(h - 1) as usize], 8);
        p.store(hop_tables[(h - 1) as usize], Expr::Reg(t).add(1u64.into()), 8);
        p.unlock(m);
        // The shared forwarded-requests counter is updated *outside* the
        // routing lock — one race site per hop depth.
        p.at(pb.loc("routing.cpp", 105 + 10 * h, &format!("Proxy{h}::forward")));
        let f = p.load_new(forward_stat, 8);
        p.store(forward_stat, Expr::Reg(f).add(1u64.into()), 8);
        if h > 1 {
            p.call(hop_procs[(h - 2) as usize], vec![], None);
        }
        p.ret(None);
        hop_procs.push(pb.add_proc(&format!("forward_hop_{h}"), p));
    }

    // ---- registration churn handler ----
    let handle_register = {
        let loc = pb.loc("registrar.cpp", 30, "Registrar::refreshBinding");
        let mut p = ProcBuilder::new(1);
        p.at(loc);
        let msg = p.param(0);
        let touches = p.load_new(Expr::offset(msg, 8), 8);
        let m = p.load_new(mtx_registrar, 8);
        let i = p.let_(0u64);
        p.begin_while(Cond::Lt(Expr::Reg(i), Expr::Reg(touches)));
        p.lock(m);
        p.at(pb.loc("registrar.cpp", 40, "Registrar::refreshBinding"));
        let b = p.load_new(reg_bindings, 8);
        p.store(reg_bindings, Expr::Reg(b).add(1u64.into()), 8);
        p.unlock(m);
        p.assign(i, Expr::Reg(i).add(1u64.into()));
        p.end_while();
        // Expiry bookkeeping forgot the lock: the churn race.
        p.at(pb.loc("registrar.cpp", 55, "Registrar::refreshBinding"));
        let e = p.load_new(reg_expiry, 8);
        p.store(reg_expiry, Expr::Reg(e).add(1u64.into()), 8);
        emit_msg_teardown(&mut p, spec, msg);
        p.ret(None);
        pb.add_proc("handle_register", p)
    };

    // ---- OPTIONS keep-alive handler (fully locked: the clean class) ----
    let handle_options = {
        let loc = pb.loc("options.cpp", 15, "OptionsHandler::process");
        let mut p = ProcBuilder::new(1);
        p.at(loc);
        let msg = p.param(0);
        let touches = p.load_new(Expr::offset(msg, 8), 8);
        let m = p.load_new(mtx_stats, 8);
        let i = p.let_(0u64);
        p.begin_while(Cond::Lt(Expr::Reg(i), Expr::Reg(touches)));
        p.lock(m);
        p.at(pb.loc("options.cpp", 18, "OptionsHandler::process"));
        let s = p.load_new(options_served, 8);
        p.store(options_served, Expr::Reg(s).add(1u64.into()), 8);
        p.unlock(m);
        p.assign(i, Expr::Reg(i).add(1u64.into()));
        p.end_while();
        emit_msg_teardown(&mut p, spec, msg);
        p.ret(None);
        pb.add_proc("handle_options", p)
    };

    // ---- call handlers, one per forwarding depth the mix uses ----
    let mut call_handlers: Vec<(u32, ProcId)> = Vec::new();
    let used_hops: std::collections::BTreeSet<u32> = cells
        .iter()
        .filter_map(|(c, _)| match c.class {
            DialogClass::Call { hops } => Some(hops.min(max_hops)),
            _ => None,
        })
        .collect();
    for &h in &used_hops {
        let loc = pb.loc("session.cpp", 25, &format!("CallHandler{h}::process"));
        let mut p = ProcBuilder::new(1);
        p.at(loc);
        let msg = p.param(0);
        let touches = p.load_new(Expr::offset(msg, 8), 8);
        let reinvites = p.load_new(Expr::offset(msg, 16), 8);
        let m = p.load_new(mtx_session, 8);
        // Per-dialog session object: thread-confined heap, the clean bulk
        // whose shadow state HgCleanMemory reclaims at teardown.
        p.at(pb.loc("session.cpp", 28, &format!("CallHandler{h}::process")));
        let sess = p.alloc(SESSION_SIZE);
        let i = p.let_(0u64);
        p.begin_while(Cond::Lt(Expr::Reg(i), Expr::Reg(touches)));
        p.lock(m);
        p.at(pb.loc("session.cpp", 30, &format!("CallHandler{h}::process")));
        p.store(Expr::Reg(sess), Expr::Reg(i), 8);
        p.store(Expr::offset(sess, 8), Expr::Reg(touches), 8);
        p.unlock(m);
        p.assign(i, Expr::Reg(i).add(1u64.into()));
        p.end_while();
        // Active-call gauge maintained without the stats lock: the race.
        p.at(pb.loc("stats.cpp", 20, "CallStats::onInvite"));
        let a = p.load_new(active_calls, 8);
        p.store(active_calls, Expr::Reg(a).add(1u64.into()), 8);
        p.call(hop_procs[(h - 1) as usize], vec![], None);
        // Mid-call re-INVITEs: session rewrite under the lock, another
        // unlocked counter beside it.
        let j = p.let_(0u64);
        p.begin_while(Cond::Lt(Expr::Reg(j), Expr::Reg(reinvites)));
        p.lock(m);
        p.at(pb.loc("session.cpp", 60, &format!("CallHandler{h}::process")));
        p.store(Expr::offset(sess, 16), Expr::Reg(j), 8);
        p.unlock(m);
        p.at(pb.loc("stats.cpp", 25, "CallStats::onReinvite"));
        let r = p.load_new(reinvite_stat, 8);
        p.store(reinvite_stat, Expr::Reg(r).add(1u64.into()), 8);
        p.assign(j, Expr::Reg(j).add(1u64.into()));
        p.end_while();
        // Dialog teardown: release the session heap and hand its shadow
        // back to the detector.
        p.at(pb.loc("session.cpp", 70, &format!("CallHandler{h}::process")));
        if spec.reclaim {
            p.client(ClientOp::HgCleanMemory {
                addr: Expr::Reg(sess),
                size: Expr::Const(SESSION_SIZE),
            });
        }
        p.free(sess);
        emit_msg_teardown(&mut p, spec, msg);
        p.ret(None);
        call_handlers.push((h, pb.add_proc(&format!("handle_call_{h}"), p)));
    }

    // ---- dispatcher ----
    let dispatch = {
        let loc = pb.loc("dispatch.cpp", 12, "Dispatcher::route");
        let mut p = ProcBuilder::new(1);
        p.at(loc);
        let msg = p.param(0);
        let code = p.load_new(Expr::Reg(msg), 8);
        p.begin_if(Cond::Eq(Expr::Reg(code), Expr::Const(1)));
        p.call(handle_register, vec![Expr::Reg(msg)], None);
        p.end_if();
        p.begin_if(Cond::Eq(Expr::Reg(code), Expr::Const(2)));
        p.call(handle_options, vec![Expr::Reg(msg)], None);
        p.end_if();
        for (h, proc) in &call_handlers {
            p.begin_if(Cond::Eq(Expr::Reg(code), Expr::Const(10 + u64::from(*h))));
            p.call(*proc, vec![Expr::Reg(msg)], None);
            p.end_if();
        }
        p.ret(None);
        pb.add_proc("dispatch", p)
    };

    // ---- pool worker ----
    let pool_worker = {
        let loc = pb.loc("pool.cpp", 12, "pool_worker");
        let mut p = ProcBuilder::new(0);
        p.at(loc);
        let q = p.load_new(qcell, 8);
        let running = p.let_(1u64);
        let v = p.reg();
        p.begin_while(Cond::Ne(Expr::Reg(running), Expr::Const(0)));
        p.sync(SyncOp::QueueGet { queue: Expr::Reg(q), dst: v });
        p.begin_if(Cond::Eq(Expr::Reg(v), Expr::Const(0)));
        p.assign(running, 0u64);
        p.begin_else();
        p.call(dispatch, vec![Expr::Reg(v)], None);
        p.end_if();
        p.end_while();
        pb.add_proc("pool_worker", p)
    };

    // ---- main: init, spawn pool, enqueue the mix (resizing the pool
    // mid-stream), sentinels, join ----
    let mloc = pb.loc("main.cpp", 20, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    for cell in [mtx_registrar, mtx_session, mtx_routing, mtx_stats] {
        let mx = m.new_mutex();
        m.store(cell, mx, 8);
    }
    let q = m.new_sync(SyncKind::Queue, 16u64);
    m.store(qcell, q, 8);
    let workers = spec.workers.max(1);
    let mut joins = Vec::new();
    for _ in 0..workers {
        joins.push(m.spawn(pool_worker, vec![]));
    }
    let total: u64 = cells.iter().map(|(_, n)| *n).sum();
    let resize_at = if spec.resize_workers > 0 { total / 2 } else { u64::MAX };
    let mut enqueued = 0u64;
    let mut resized = false;
    m.at(pb.loc("main.cpp", 40, "main"));
    let emit_run = |m: &mut ProcBuilder, code: u64, touches: u64, reinvites: u64, count: u64| {
        if count == 0 {
            return;
        }
        m.begin_repeat(count);
        let msg = m.alloc(MSG_SIZE);
        m.store(Expr::Reg(msg), code, 8);
        m.store(Expr::offset(msg, 8), touches, 8);
        m.store(Expr::offset(msg, 16), reinvites, 8);
        m.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Reg(msg) });
        m.end_repeat();
    };
    for (cell, count) in &cells {
        let code = cell.code();
        let (touches, reinvites) = (u64::from(cell.touches), u64::from(cell.reinvites));
        let mut remaining = *count;
        // Thread-pool resize under load: once half the traffic is in
        // flight, grow the pool — splitting the current cell's run if the
        // boundary lands inside it.
        if !resized && enqueued + remaining > resize_at {
            let before = resize_at - enqueued;
            emit_run(&mut m, code, touches, reinvites, before);
            enqueued += before;
            remaining -= before;
            for _ in 0..spec.resize_workers {
                joins.push(m.spawn(pool_worker, vec![]));
            }
            resized = true;
        }
        emit_run(&mut m, code, touches, reinvites, remaining);
        enqueued += remaining;
    }
    if !resized && spec.resize_workers > 0 {
        for _ in 0..spec.resize_workers {
            joins.push(m.spawn(pool_worker, vec![]));
        }
    }
    let pool_size = workers + if spec.resize_workers > 0 { spec.resize_workers } else { 0 };
    for _ in 0..pool_size {
        m.sync(SyncOp::QueuePut { queue: Expr::Reg(q), value: Expr::Const(0) });
    }
    for h in joins {
        m.join(h);
    }
    m.ret(None);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

/// Message-block teardown shared by every handler: reclaim the shadow of
/// the request the pool just finished with, then free it.
fn emit_msg_teardown(p: &mut ProcBuilder, spec: &SoakSpec, msg: vexec::ir::RegId) {
    if spec.reclaim {
        p.client(ClientOp::HgCleanMemory { addr: Expr::Reg(msg), size: Expr::Const(MSG_SIZE) });
    }
    p.free(msg);
}

/// How a phase's VM run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhaseEnd {
    Clean,
    /// Number of threads blocked at the deadlock.
    Deadlock(usize),
    GuestError(String),
    FuelExhausted,
}

impl PhaseEnd {
    fn label(&self) -> String {
        match self {
            PhaseEnd::Clean => "clean".into(),
            PhaseEnd::Deadlock(n) => format!("deadlock:{n}"),
            PhaseEnd::GuestError(e) => format!("guest-error:{}", esc(e)),
            PhaseEnd::FuelExhausted => "fuel-exhausted".into(),
        }
    }

    fn parse(s: &str) -> Result<PhaseEnd, String> {
        if s == "clean" {
            return Ok(PhaseEnd::Clean);
        }
        if s == "fuel-exhausted" {
            return Ok(PhaseEnd::FuelExhausted);
        }
        if let Some(n) = s.strip_prefix("deadlock:") {
            return n
                .parse()
                .map(PhaseEnd::Deadlock)
                .map_err(|_| format!("bad deadlock count in {s:?}"));
        }
        if let Some(e) = s.strip_prefix("guest-error:") {
            return Ok(PhaseEnd::GuestError(unesc(e)));
        }
        Err(format!("unknown phase end {s:?}"))
    }
}

/// Per-phase counters, one `phase` line in the soak log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStats {
    pub phase: u32,
    pub dialogs: u64,
    pub events: u64,
    pub slots: u64,
    pub kills: u64,
    pub leaked_locks: u64,
    pub leaked_bytes: u64,
    /// Reports the detector produced this phase (pre-dedup).
    pub warnings: usize,
    /// High-water mark of live shadow granules (max over engines).
    pub peak_granules: usize,
    /// Live granules when the phase finished.
    pub end_granules: usize,
    /// A detector budget cap degraded this phase.
    pub truncated: bool,
    pub end: PhaseEnd,
}

/// Everything one phase hands back to the driver.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    pub stats: PhaseStats,
    pub reports: Vec<Report>,
}

/// Run one phase: build the guest, attach the phase's fault plan and
/// seeded schedule, execute under `det` (or detection-off when `None`,
/// the bench baseline), and collect the evidence. Pure in
/// `(spec, phase, det config)` — the soak determinism contract.
pub fn run_phase(
    spec: &SoakSpec,
    phase: u32,
    det: Option<AnyDetector>,
    use_filter: bool,
    max_slots: Option<u64>,
) -> PhaseOutcome {
    let program = build_soak_phase(spec, phase);
    let flat = program.lower();
    let opts = VmOptions {
        faults: Some(phase_fault_plan(spec, phase)),
        max_slots: max_slots.unwrap_or(VmOptions::default().max_slots),
        ..Default::default()
    };
    let mut sched = SeededRandom::new(phase_sched_seed(spec, phase));
    let (r, det) = match det {
        Some(det) => {
            if use_filter {
                let mut tool = FilterTool::new(det);
                let r = run_flat(&flat, &mut tool, &mut sched, opts);
                (r, Some(tool.into_parts().0))
            } else {
                let mut det = det;
                let r = run_flat(&flat, &mut det, &mut sched, opts);
                (r, Some(det))
            }
        }
        None => {
            let mut tool = CountingTool::new();
            let r = run_flat(&flat, &mut tool, &mut sched, opts);
            (r, None)
        }
    };
    let end = match &r.termination {
        Termination::AllExited => PhaseEnd::Clean,
        Termination::Deadlock(waits) => PhaseEnd::Deadlock(waits.len()),
        Termination::GuestError(e) => PhaseEnd::GuestError(e.to_string()),
        Termination::FuelExhausted => PhaseEnd::FuelExhausted,
    };
    let faults = r.faults.unwrap_or_default();
    let (reports, peak, end_live, truncated) = match det {
        Some(mut det) => {
            let stats = det.engine_stats();
            let peak = stats.iter().map(|s| s.peak_granules).max().unwrap_or(0);
            let live = stats.iter().map(|s| s.live_granules).max().unwrap_or(0);
            let truncated = det.truncated();
            (det.take_reports(), peak, live, truncated)
        }
        None => (Vec::new(), 0, 0, false),
    };
    PhaseOutcome {
        stats: PhaseStats {
            phase,
            dialogs: spec.phase_dialogs(phase),
            events: r.stats.events,
            slots: r.stats.slots,
            kills: faults.kills,
            leaked_locks: faults.leaked_locks,
            leaked_bytes: faults.leaked_bytes,
            warnings: reports.len(),
            peak_granules: peak,
            end_granules: end_live,
            truncated,
            end,
        },
        reports,
    }
}

/// One fingerprint-deduped warning location in the catalogue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatEntry {
    pub kind: ReportKind,
    pub file: String,
    pub line: u32,
    pub func: String,
    pub hits: u64,
    pub first_phase: u32,
    pub last_phase: u32,
}

const LOG_MAGIC: &str = "raceline-soak-log v1";

/// One `warn` record: hits, kind, line, file, function.
type WarnRecord = (u64, ReportKind, u32, String, String);

/// A phase's warnings deduped by fingerprint, in fingerprint order: the
/// `warn` records its block carries.
fn phase_warnings(outcome: &PhaseOutcome) -> Vec<WarnRecord> {
    let mut agg: BTreeMap<String, (u64, &Report)> = BTreeMap::new();
    for r in &outcome.reports {
        agg.entry(warning_fingerprint(r)).or_insert((0, r)).0 += 1;
    }
    agg.into_values()
        .map(|(hits, r)| (hits, r.kind, r.line, r.file.clone(), r.func.clone()))
        .collect()
}

/// The soak run's durable state: committed phases plus the
/// fingerprint-deduped warning catalogue, serialized as an append-only
/// line log. Layout per phase: the phase's `warn` lines first, then one
/// `phase` line acting as the commit record. This type is the format
/// only; writing, the commit rule and crash recovery are
/// [`helgrind_core::commitlog`]'s.
#[derive(Clone, Debug, Default)]
pub struct SoakLog {
    /// The workload ([`SoakSpec::params_line`]), echoed in the summary.
    pub params: String,
    /// The driver's detector settings, starting `detector=`: the header's
    /// `spec` line records them after `params`, so a resume under another
    /// engine, budget or filter setting is refused rather than folding two
    /// configurations into one catalogue.
    pub settings: String,
    pub phases: Vec<PhaseStats>,
    /// Fingerprint → catalogue entry (BTreeMap: deterministic order).
    pub catalogue: BTreeMap<String, CatEntry>,
}

impl SoakLog {
    pub fn new(spec: &SoakSpec, settings: &str) -> Self {
        SoakLog { params: spec.params_line(), settings: settings.to_string(), ..Default::default() }
    }

    /// First phase index not yet committed.
    pub fn next_phase(&self) -> u32 {
        self.phases.len() as u32
    }

    /// Log header (magic + spec echo), written once at run start.
    pub fn header(&self) -> String {
        format!("{LOG_MAGIC}\nspec {} {}\n", self.params, self.settings)
    }

    /// The appendable block committing `outcome`: per-location `warn`
    /// lines (fingerprint-deduped within the phase) followed by the
    /// `phase` commit line.
    pub fn phase_block(outcome: &PhaseOutcome) -> String {
        let mut out = String::new();
        for (hits, kind, line, file, func) in phase_warnings(outcome) {
            let _ = writeln!(
                out,
                "warn {hits}\t{}\t{line}\t{}\t{}",
                kind.code(),
                esc(&file),
                esc(&func)
            );
        }
        let s = &outcome.stats;
        let _ = writeln!(
            out,
            "phase {}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.phase,
            s.dialogs,
            s.events,
            s.slots,
            s.kills,
            s.leaked_locks,
            s.leaked_bytes,
            s.warnings,
            s.peak_granules,
            s.end_granules,
            u8::from(s.truncated),
            s.end.label(),
        );
        out
    }

    /// Fold a committed phase into the in-memory state. Phases must be
    /// folded in order.
    pub fn fold_phase(&mut self, outcome: &PhaseOutcome) {
        assert_eq!(outcome.stats.phase, self.next_phase(), "phases must be committed in order");
        self.commit(outcome.stats.clone(), phase_warnings(outcome));
    }

    /// Fold one committed block, the same way for a live phase and for a
    /// parsed log: its `warn` records into the catalogue, then its stats.
    fn commit(&mut self, stats: PhaseStats, warns: Vec<WarnRecord>) {
        let phase = stats.phase;
        for (hits, kind, line, file, func) in warns {
            let fp = format!("{}|{file}|{line}|{func}", kind.code());
            self.catalogue
                .entry(fp)
                .and_modify(|e| {
                    e.hits += hits;
                    e.last_phase = phase;
                })
                .or_insert(CatEntry {
                    kind,
                    file,
                    line,
                    func,
                    hits,
                    first_phase: phase,
                    last_phase: phase,
                });
        }
        self.phases.push(stats);
    }

    /// Strict parse of a committed log: the header, then whole blocks.
    /// Trailing `warn` lines with no `phase` line sealing them are an
    /// error; recovery cuts them away first
    /// ([`helgrind_core::commitlog::committed`]).
    pub fn parse(text: &str) -> Result<SoakLog, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim() == LOG_MAGIC => {}
            other => return Err(format!("bad soak log header: {other:?}")),
        }
        let spec = match lines.next() {
            Some(l) => l
                .strip_prefix("spec ")
                .ok_or_else(|| format!("soak log line 2: expected spec line, got {l:?}"))?,
            None => return Err("soak log: missing spec line".into()),
        };
        // A log without settings parses with empty ones, which no driver
        // requests, so a resume refuses it.
        let (params, settings) = match spec.find(" detector=") {
            Some(at) => (&spec[..at], &spec[at + 1..]),
            None => (spec, ""),
        };
        let mut log = SoakLog {
            params: params.to_string(),
            settings: settings.to_string(),
            ..Default::default()
        };
        // Pending `warn` lines of the not-yet-committed phase.
        let mut pending: Vec<WarnRecord> = Vec::new();
        for (ln, line) in lines.enumerate() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("soak log line {}: missing value", ln + 3))?;
            let fields: Vec<&str> = rest.split('\t').collect();
            let num = |s: &str| {
                s.parse::<u64>().map_err(|_| format!("soak log line {}: bad number", ln + 3))
            };
            match key {
                "warn" => {
                    if fields.len() != 5 {
                        return Err(format!(
                            "soak log line {}: expected 5 warn fields, got {}",
                            ln + 3,
                            fields.len()
                        ));
                    }
                    let kind = ReportKind::from_code(fields[1]).ok_or_else(|| {
                        format!("soak log line {}: unknown kind {:?}", ln + 3, fields[1])
                    })?;
                    pending.push((
                        num(fields[0])?,
                        kind,
                        num(fields[2])? as u32,
                        unesc(fields[3]),
                        unesc(fields[4]),
                    ));
                }
                "phase" => {
                    if fields.len() != 12 {
                        return Err(format!(
                            "soak log line {}: expected 12 phase fields, got {}",
                            ln + 3,
                            fields.len()
                        ));
                    }
                    let phase = num(fields[0])? as u32;
                    if phase != log.next_phase() {
                        return Err(format!(
                            "soak log line {}: phase {} out of order (expected {})",
                            ln + 3,
                            phase,
                            log.next_phase()
                        ));
                    }
                    let stats = PhaseStats {
                        phase,
                        dialogs: num(fields[1])?,
                        events: num(fields[2])?,
                        slots: num(fields[3])?,
                        kills: num(fields[4])?,
                        leaked_locks: num(fields[5])?,
                        leaked_bytes: num(fields[6])?,
                        warnings: num(fields[7])? as usize,
                        peak_granules: num(fields[8])? as usize,
                        end_granules: num(fields[9])? as usize,
                        truncated: num(fields[10])? != 0,
                        end: PhaseEnd::parse(fields[11])?,
                    };
                    log.commit(stats, std::mem::take(&mut pending));
                }
                other => {
                    return Err(format!("soak log line {}: unknown key {other:?}", ln + 3));
                }
            }
        }
        if !pending.is_empty() {
            return Err(format!("soak log: {} unsealed warn line(s) at the end", pending.len()));
        }
        Ok(log)
    }

    /// The final human summary — also the byte-comparison artifact for
    /// the crash/resume and `--jobs` determinism gates, so everything in
    /// it must be a pure function of (spec, committed phases).
    pub fn render_summary(&self, mem_report: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "soak summary");
        let _ = writeln!(out, "spec: {}", self.params);
        let clean = self.phases.iter().filter(|p| p.end == PhaseEnd::Clean).count();
        let dead = self.phases.iter().filter(|p| matches!(p.end, PhaseEnd::Deadlock(_))).count();
        let gerr = self.phases.iter().filter(|p| matches!(p.end, PhaseEnd::GuestError(_))).count();
        let fuel = self.phases.iter().filter(|p| p.end == PhaseEnd::FuelExhausted).count();
        let _ = writeln!(
            out,
            "phases: {} committed ({clean} clean, {dead} deadlocked, {gerr} guest-error, \
             {fuel} fuel-exhausted)",
            self.phases.len()
        );
        let dialogs: u64 = self.phases.iter().map(|p| p.dialogs).sum();
        let events: u64 = self.phases.iter().map(|p| p.events).sum();
        let slots: u64 = self.phases.iter().map(|p| p.slots).sum();
        let _ = writeln!(out, "dialogs: {dialogs}  events: {events}  slots: {slots}");
        let kills: u64 = self.phases.iter().map(|p| p.kills).sum();
        let locks: u64 = self.phases.iter().map(|p| p.leaked_locks).sum();
        let bytes: u64 = self.phases.iter().map(|p| p.leaked_bytes).sum();
        let _ = writeln!(out, "kills: {kills}  leaked locks: {locks}  leaked bytes: {bytes}");
        if self.phases.iter().any(|p| p.truncated) {
            let _ = writeln!(out, "note: detector budget degraded one or more phases");
        }
        let _ = writeln!(out, "catalogue: {} warning location(s)", self.catalogue.len());
        for e in self.catalogue.values() {
            let _ = writeln!(
                out,
                "  {:>6}x phases {}-{} {} {}:{} in {}",
                e.hits,
                e.first_phase,
                e.last_phase,
                e.kind.code(),
                e.file,
                e.line,
                e.func
            );
        }
        if mem_report {
            let _ = writeln!(out, "mem-report: live shadow granules per phase");
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "  phase {:>3}: peak {:>8}  end {:>8}{}",
                    p.phase,
                    p.peak_granules,
                    p.end_granules,
                    if p.truncated { "  (truncated)" } else { "" }
                );
            }
            let peaks: Vec<usize> =
                self.phases.iter().filter(|p| p.dialogs > 0).map(|p| p.peak_granules).collect();
            match (peaks.iter().min(), peaks.iter().max()) {
                (Some(&lo), Some(&hi)) if lo > 0 => {
                    let flat = hi <= lo.saturating_mul(2);
                    let _ = writeln!(
                        out,
                        "mem-verdict: {} (peak range {lo}..{hi} across {} phase(s))",
                        if flat { "flat" } else { "growing" },
                        peaks.len()
                    );
                }
                _ => {
                    let _ = writeln!(out, "mem-verdict: n/a (no detection or no traffic)");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::DialogCell;
    use helgrind_core::{DetectorConfig, SuppressionSet};

    fn small_spec() -> SoakSpec {
        SoakSpec {
            dialogs: 240,
            phases: 4,
            seed: 0x50A4_0001,
            workers: 3,
            resize_workers: 1,
            kill_permille: 20,
            ..Default::default()
        }
    }

    const SETTINGS: &str = "detector=hybrid";

    fn det() -> AnyDetector {
        AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::default())
    }

    #[test]
    fn phase_cells_are_deterministic_and_complete() {
        let spec = SoakSpec { dialogs: 10_000, phases: 7, ..Default::default() };
        for phase in 0..spec.phases {
            let a = phase_cells(&spec, phase);
            let b = phase_cells(&spec, phase);
            assert_eq!(a, b);
            let total: u64 = a.iter().map(|(_, n)| *n).sum();
            assert_eq!(total, spec.phase_dialogs(phase));
        }
        let all: u64 = (0..spec.phases).map(|p| spec.phase_dialogs(p)).sum();
        assert_eq!(all, spec.dialogs, "remainder lands in the last phase");
    }

    #[test]
    fn lifetimes_are_heavy_tailed() {
        let spec = SoakSpec { dialogs: 50_000, phases: 1, ..Default::default() };
        let cells = phase_cells(&spec, 0);
        let count_at =
            |t: u32| -> u64 { cells.iter().filter(|(c, _)| c.touches == t).map(|(_, n)| *n).sum() };
        let short = count_at(1);
        let long: u64 = (0..=8).map(|k| 1u32 << k).filter(|&t| t >= 16).map(count_at).sum();
        assert!(short > spec.dialogs / 3, "bucket 1 dominates: {short}");
        assert!(long > 0, "the tail reaches >=16-touch dialogs");
        let max_bucket = cells.iter().map(|(c, _)| c.touches).max().unwrap();
        assert!(max_bucket >= 64, "heavy tail present, got max {max_bucket}");
        assert!(max_bucket <= 256, "bounded Pareto cap");
    }

    #[test]
    fn phase_runs_are_deterministic() {
        let spec = small_spec();
        let a = run_phase(&spec, 1, Some(det()), true, None);
        let b = run_phase(&spec, 1, Some(det()), true, None);
        assert_eq!(a.stats, b.stats);
        assert_eq!(SoakLog::phase_block(&a), SoakLog::phase_block(&b));
        // And filter-invariant, like every other detector path.
        let c = run_phase(&spec, 1, Some(det()), false, None);
        assert_eq!(a.stats.warnings, c.stats.warnings);
        assert_eq!(SoakLog::phase_block(&a), SoakLog::phase_block(&c));
    }

    #[test]
    fn soak_finds_the_planted_races_and_only_them() {
        let spec = SoakSpec { kill_permille: 0, ..small_spec() };
        let mut log = SoakLog::new(&spec, SETTINGS);
        for phase in 0..spec.phases {
            log.fold_phase(&run_phase(&spec, phase, Some(det()), true, None));
        }
        assert!(!log.catalogue.is_empty());
        for e in log.catalogue.values() {
            let planted = (e.file == "registrar.cpp" && e.line == 55)
                || (e.file == "stats.cpp" && (e.line == 20 || e.line == 25))
                || (e.file == "routing.cpp" && (105..=145).contains(&e.line));
            assert!(planted, "unexpected catalogue entry: {e:?}");
        }
        // The big unlocked counters are hit in every phase.
        let active = log
            .catalogue
            .values()
            .find(|e| e.file == "stats.cpp" && e.line == 20)
            .expect("active-call race found");
        assert_eq!(active.first_phase, 0);
        assert_eq!(active.last_phase, spec.phases - 1);
    }

    #[test]
    fn armed_phases_kill_and_leak() {
        let spec = SoakSpec { dialogs: 2_000, phases: 2, kill_permille: 50, ..small_spec() };
        assert!(!spec.phase_armed(0) && spec.phase_armed(1));
        let calm = run_phase(&spec, 0, Some(det()), true, None);
        assert_eq!(calm.stats.kills, 0);
        assert_eq!(calm.stats.end, PhaseEnd::Clean);
        let hostile = run_phase(&spec, 1, Some(det()), true, None);
        assert!(hostile.stats.kills >= 1, "{:?}", hostile.stats);
    }

    #[test]
    fn reclamation_keeps_peak_granules_flat() {
        // Double the traffic: with HgCleanMemory at dialog teardown the
        // peak barely moves; without it the dead-dialog shadow piles up
        // linearly.
        let small = SoakSpec { dialogs: 1_000, phases: 1, resize_workers: 0, ..small_spec() };
        let big = SoakSpec { dialogs: 4_000, ..small };
        let peak_small = run_phase(&small, 0, Some(det()), true, None).stats.peak_granules;
        let peak_big = run_phase(&big, 0, Some(det()), true, None).stats.peak_granules;
        assert!(peak_big < peak_small * 2, "reclaim keeps peak flat: {peak_small} -> {peak_big}");
        let no_reclaim = SoakSpec { reclaim: false, ..big };
        let peak_unbounded = run_phase(&no_reclaim, 0, Some(det()), true, None).stats.peak_granules;
        assert!(
            peak_unbounded > peak_big * 2,
            "without reclaim the shadow grows: {peak_big} vs {peak_unbounded}"
        );
    }

    /// The committed prefix of `text`, as recovery sees it.
    fn committed(text: &str) -> &str {
        std::str::from_utf8(helgrind_core::commitlog::committed(text.as_bytes())).unwrap()
    }

    #[test]
    fn log_roundtrips_and_repairs_torn_tails() {
        let spec = small_spec();
        let mut log = SoakLog::new(&spec, SETTINGS);
        let mut file = log.header();
        let mut blocks = Vec::new();
        for phase in 0..spec.phases {
            let out = run_phase(&spec, phase, Some(det()), true, None);
            blocks.push(SoakLog::phase_block(&out));
            file.push_str(blocks.last().unwrap());
            log.fold_phase(&out);
        }
        assert_eq!(committed(&file), file, "a whole log is all committed");
        let parsed = SoakLog::parse(&file).unwrap();
        assert_eq!((&parsed.params, &parsed.settings), (&log.params, &log.settings));
        // A header without settings (an older log) leaves them empty.
        let bare = SoakLog::parse(&format!("{LOG_MAGIC}\nspec {}\n", log.params)).unwrap();
        assert_eq!((&bare.params, bare.settings.as_str()), (&log.params, ""));
        assert_eq!(parsed.phases, log.phases);
        assert_eq!(parsed.catalogue, log.catalogue);
        assert_eq!(parsed.render_summary(true), log.render_summary(true));

        // Every truncation point mid-final-block commits exactly the
        // first three phases.
        let sealed: usize = file.len() - blocks.last().unwrap().len();
        assert!(blocks.last().unwrap().starts_with("warn "), "the final block has warn lines");
        for cut in sealed + 1..file.len() {
            assert_eq!(committed(&file[..cut]), &file[..sealed], "cut {cut}");
        }
        let r = SoakLog::parse(&file[..sealed]).unwrap();
        assert_eq!(r.phases, log.phases[..3]);

        // Strict parse refuses unsealed warn lines: recovery cuts them.
        let first_warn = blocks.last().unwrap().find('\n').unwrap() + 1;
        assert!(SoakLog::parse(&file[..sealed + first_warn]).is_err());

        // Interior corruption is not a torn tail: flip a committed byte.
        let mut bad = file.clone().into_bytes();
        let mid = file.find("phase 1\t").unwrap();
        bad[mid] = b'#';
        assert!(SoakLog::parse(committed(&String::from_utf8(bad).unwrap())).is_err());
    }

    #[test]
    fn resumed_runs_reproduce_the_uninterrupted_summary() {
        let spec = small_spec();
        // Uninterrupted run.
        let mut full = SoakLog::new(&spec, SETTINGS);
        for phase in 0..spec.phases {
            full.fold_phase(&run_phase(&spec, phase, Some(det()), true, None));
        }
        // Crash after phase 1's commit plus half an appended warn line.
        let mut file = full.header();
        for phase in 0..2 {
            file.push_str(&SoakLog::phase_block(&run_phase(&spec, phase, Some(det()), true, None)));
        }
        file.push_str("warn 3\tR"); // torn mid-line, no newline
        let mut resumed = SoakLog::parse(committed(&file)).unwrap();
        assert_eq!(resumed.next_phase(), 2);
        for phase in resumed.next_phase()..spec.phases {
            resumed.fold_phase(&run_phase(&spec, phase, Some(det()), true, None));
        }
        assert_eq!(resumed.render_summary(true), full.render_summary(true));
    }

    #[test]
    fn dialog_cell_codes_are_stable() {
        assert_eq!(DialogCell { class: DialogClass::Register, touches: 1, reinvites: 0 }.code(), 1);
        assert_eq!(DialogCell { class: DialogClass::Options, touches: 1, reinvites: 0 }.code(), 2);
        assert_eq!(
            DialogCell { class: DialogClass::Call { hops: 3 }, touches: 1, reinvites: 0 }.code(),
            13
        );
    }
}
