//! Trace replay: run any detector over a recorded `.rltrace` byte stream
//! — no VM, no re-execution — and reproduce the inline report exactly.
//!
//! The writer serialises three things the detectors need beyond the raw
//! events: the symbol table (header), per-thread backtraces (stack delta
//! records + the top-frame-overwrite rule), and heap blocks (header
//! snapshot + Alloc/Free events). [`ReplayCtx`] reconstructs all three and
//! implements [`ReportCtx`], so [`AnyDetector::handle_event`] runs the
//! same code inline and offline; byte-identical reports follow by
//! construction.
//!
//! Sharding: epoch payloads are codec-independent, so epochs decode on the
//! shared worker pool ([`fold_indexed`]), and the detector folds each one
//! in stream order as it arrives: one fold for any `--jobs N`, which makes
//! parallel analysis bit-reproducible, holding at most the pool's
//! look-ahead of decoded epochs (one at `--jobs 1`). Each epoch's checks
//! run in stream order too: its snapshot against the records before it,
//! then its decode, then its records one by one. So a corrupt trace
//! reports its first defect in stream order at any `--jobs`, and an epoch
//! that fails to decode dispatches none of its records.
//!
//! Starting mid-trace (`from_epoch > 0`) replays stack/block context from
//! the beginning (cheap — no detector work) and primes the detector's
//! lock state with synthetic `Acquire` events from the target epoch's
//! held-lock snapshot; shadow memory starts virgin, like attaching a
//! detector to a live process.
//!
//! The HB engines' adaptive epoch lattice (§13) is below this layer:
//! `DetectorConfig::hb_reference` selects the read-state representation
//! inside [`crate::HbEngine`], so a replay with the reference read state
//! flows through the same [`AnyDetector`] plumbing and must stay
//! byte-identical to the adaptive default — the epoch golden suite
//! compares sharded replays of both.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use raceline_trace::format::{TraceError, TraceFooter, TraceRecord};
use raceline_trace::reader::{
    decode_epoch, parse_trace_hashed, parse_trace_repair, EpochDesc, ParsedTrace,
};
use vexec::event::{ClientEv, Event, ThreadId};
use vexec::ir::SrcLoc;
use vexec::util::Symbol;

use crate::detector::{AnyDetector, EngineStats};
use crate::pool::fold_indexed;
use crate::report::{format_block_note, Report, ReportCtx, ReportKind, StackFrame};

/// What offline analysis hands back to the caller.
pub struct ReplayOutcome {
    pub reports: Vec<Report>,
    pub truncated: bool,
    /// Events dispatched to the detector (suffix only under `from_epoch`).
    pub events: u64,
    pub footer: TraceFooter,
    /// Per-engine counters from the replay-side detector (`--stats`).
    pub engine_stats: Vec<EngineStats>,
}

/// Reconstructed report context: symbol table, per-thread backtraces,
/// heap blocks. The offline twin of the live `VmView`.
pub struct ReplayCtx {
    symbols: Vec<String>,
    stacks: Vec<Vec<(Symbol, SrcLoc)>>,
    /// addr → (size, alloc_tid, freed); mirrors the VM's bump allocator
    /// (freed blocks stay, marked).
    blocks: BTreeMap<u64, (u64, u32, bool)>,
}

impl ReplayCtx {
    fn new(symbols: Vec<String>, blocks: BTreeMap<u64, (u64, u32, bool)>) -> Self {
        ReplayCtx { symbols, stacks: Vec::new(), blocks }
    }

    fn stack_mut(&mut self, tid: ThreadId) -> &mut Vec<(Symbol, SrcLoc)> {
        let i = tid.index();
        if i >= self.stacks.len() {
            self.stacks.resize_with(i + 1, Vec::new);
        }
        &mut self.stacks[i]
    }

    /// The VM overwrites the top frame's current location as each op
    /// executes; the reader applies the same rule per event so the writer
    /// only needs explicit records on push/pop boundaries.
    fn apply_top_frame(&mut self, ev: &Event) {
        if let Some(loc) = ev.loc() {
            if let Some(top) = self.stack_mut(ev.tid()).last_mut() {
                top.1 = loc;
                if loc.func != Symbol::EMPTY {
                    top.0 = loc.func;
                }
            }
        }
    }

    /// Whether the `size` bytes at `addr` lie inside one replayed block, as
    /// the range of every client request the VM records does.
    fn block_holds(&self, addr: u64, size: u64) -> bool {
        self.blocks.range(..=addr).next_back().is_some_and(|(&base, &(block_size, ..))| {
            let end = base.saturating_add(block_size);
            addr < end && addr.checked_add(size).is_some_and(|e| e <= end)
        })
    }

    fn apply_blocks(&mut self, ev: &Event) {
        match *ev {
            Event::Alloc { tid, addr, size, .. } => {
                self.blocks.insert(addr, (size, tid.0, false));
            }
            Event::Free { tid, addr, size, .. } => {
                self.blocks.entry(addr).and_modify(|b| b.2 = true).or_insert((size, tid.0, true));
            }
            _ => {}
        }
    }
}

impl ReportCtx for ReplayCtx {
    fn resolve_sym(&self, sym: Symbol) -> &str {
        self.symbols.get(sym.0 as usize).map(String::as_str).unwrap_or("")
    }

    fn stack_of(&self, tid: ThreadId) -> Vec<StackFrame> {
        let Some(stack) = self.stacks.get(tid.index()) else {
            return Vec::new();
        };
        stack
            .iter()
            .rev()
            .map(|&(func, loc)| StackFrame {
                func: self.resolve_sym(func).to_string(),
                file: self.resolve_sym(loc.file).to_string(),
                line: loc.line,
            })
            .collect()
    }

    fn block_note(&self, addr: u64) -> Option<String> {
        let (&base, &(size, alloc_tid, freed)) = self.blocks.range(..=addr).next_back()?;
        (addr < base + size).then(|| format_block_note(addr, base, size, alloc_tid, freed))
    }
}

/// Run `detector` over a complete `.rltrace` byte stream.
///
/// `jobs` parallelises epoch *decoding* only; dispatch is a sequential
/// fold in epoch order, so the outcome is byte-identical for any `jobs`.
/// `from_epoch` skips detector dispatch for earlier epochs (context is
/// still replayed) and primes lock state from that epoch's snapshot; a
/// `from_epoch` past the trace's last epoch is an error.
pub fn analyze_trace_bytes(
    bytes: &[u8],
    detector: AnyDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<ReplayOutcome, TraceError> {
    analyze_trace_hashed(bytes, None, detector, jobs, from_epoch)
}

/// [`analyze_trace_bytes`] for a caller that has already hashed the
/// trace: `body_hash` is the FNV-1a of every byte before the trailer, and
/// stands in for the checksum pass (see
/// [`raceline_trace::reader::parse_trace_hashed`]).
pub fn analyze_trace_hashed(
    bytes: &[u8],
    body_hash: Option<u64>,
    detector: AnyDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<ReplayOutcome, TraceError> {
    let parsed = parse_trace_hashed(bytes, body_hash)?;
    analyze_parsed(bytes, parsed, detector, jobs, from_epoch)
}

/// What the tolerant analyze path recovered.
#[derive(Clone, Copy, Debug)]
pub struct RepairInfo {
    /// `false` when the trace was whole and no repair was needed.
    pub repaired: bool,
    /// Torn-tail bytes discarded before analysis.
    pub dropped_bytes: usize,
}

/// `analyze --repair`: like [`analyze_trace_bytes`], but a crash-truncated
/// trace (missing or torn envelope trailer) is recovered via
/// [`parse_trace_repair`] — the torn final epoch is dropped and the intact
/// prefix analyzed. Real corruption (checksum mismatch, interior structure
/// errors in a complete file) still propagates.
pub fn analyze_trace_repair(
    bytes: &[u8],
    detector: AnyDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<(ReplayOutcome, RepairInfo), TraceError> {
    let rt = parse_trace_repair(bytes)?;
    let info = RepairInfo { repaired: rt.repaired, dropped_bytes: rt.dropped_bytes };
    Ok((analyze_parsed(bytes, rt.parsed, detector, jobs, from_epoch)?, info))
}

fn analyze_parsed(
    bytes: &[u8],
    parsed: ParsedTrace,
    detector: AnyDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<ReplayOutcome, TraceError> {
    let ParsedTrace { header, epochs, footer } = parsed;
    if from_epoch > 0 && from_epoch >= epochs.len() as u64 {
        return Err(TraceError::NoSuchEpoch { epoch: from_epoch, epochs: epochs.len() as u64 });
    }
    let nsyms = header.symbols.len() as u32;
    let blocks: BTreeMap<u64, (u64, u32, bool)> =
        header.initial_blocks.iter().map(|b| (b.addr, (b.size, b.alloc_tid, b.freed))).collect();
    let mut fold = Fold {
        ctx: ReplayCtx::new(header.symbols, blocks),
        detector,
        counts: Vec::new(),
        dispatched: 0,
        from_epoch,
    };
    let decode = |i: usize| decode_epoch(bytes, &epochs[i], nsyms);
    let folded = fold_indexed(jobs, epochs.len(), decode, |i, decoded| {
        fold.epoch(&epochs[i], decoded).map_or_else(ControlFlow::Break, ControlFlow::Continue)
    });
    if let ControlFlow::Break(e) = folded {
        return Err(e);
    }
    let Fold { mut detector, counts, dispatched, .. } = fold;
    let total: u64 = counts.iter().sum();
    if total != footer.events {
        return Err(TraceError::Corrupt {
            offset: bytes.len() as u64,
            detail: format!("footer claims {} events, stream decoded {total}", footer.events),
        });
    }
    detector.handle_finish();
    Ok(ReplayOutcome {
        truncated: detector.truncated(),
        engine_stats: detector.engine_stats(),
        reports: detector.take_reports(),
        events: dispatched,
        footer,
    })
}

/// The sequential half of a replay: the report context and the detector,
/// fed every epoch in stream order.
struct Fold {
    ctx: ReplayCtx,
    detector: AnyDetector,
    /// Events per thread so far, for the snapshot and footer checks.
    counts: Vec<u64>,
    /// Events handed to the detector (the suffix only under `from_epoch`).
    dispatched: u64,
    from_epoch: u64,
}

impl Fold {
    /// Fold one epoch: check its snapshot against the stream so far, then
    /// its decode result, then each record as it is dispatched.
    fn epoch(
        &mut self,
        desc: &EpochDesc,
        decoded: Result<Vec<TraceRecord>, TraceError>,
    ) -> Result<(), TraceError> {
        check_snapshot(desc, &self.counts)?;
        let recs = decoded?;
        let (ctx, detector) = (&mut self.ctx, &mut self.detector);
        let epoch = desc.snapshot.index;
        if epoch == self.from_epoch && self.from_epoch > 0 {
            // Prime lock state: the suffix starts with these locks held.
            // Snapshot order is acquisition order, so lock-order edges
            // between them are faithful too.
            for (i, t) in desc.snapshot.threads.iter().enumerate() {
                for h in &t.held {
                    for _ in 0..h.count {
                        let ev = Event::Acquire {
                            tid: ThreadId(i as u32),
                            sync: h.sync,
                            kind: h.kind,
                            mode: h.mode,
                            loc: h.loc,
                        };
                        detector.handle_event(&ev, ctx);
                    }
                }
            }
        }
        for rec in recs {
            match rec {
                TraceRecord::StackPush { tid, func, loc } => {
                    ctx.stack_mut(tid).push((func, loc));
                }
                TraceRecord::StackPop { tid, n } => {
                    let stack = ctx.stack_mut(tid);
                    let keep = stack.len().saturating_sub(n as usize);
                    stack.truncate(keep);
                }
                TraceRecord::Event(ev) => {
                    ctx.apply_top_frame(&ev);
                    ctx.apply_blocks(&ev);
                    // The engines keep shadow state for every granule a
                    // client request names, so a forged range would
                    // exhaust memory rather than fail.
                    if let Event::Client {
                        req:
                            ClientEv::HgDestruct { addr, size } | ClientEv::HgCleanMemory { addr, size },
                        ..
                    } = ev
                    {
                        if !ctx.block_holds(addr, size) {
                            return Err(TraceError::Corrupt {
                                offset: desc.payload_offset as u64,
                                detail: format!(
                                    "epoch {epoch}: client request names {size} byte(s) at \
                                     {addr:#x}, outside every heap block"
                                ),
                            });
                        }
                    }
                    if epoch >= self.from_epoch {
                        detector.handle_event(&ev, ctx);
                        self.dispatched += 1;
                    }
                    let i = ev.tid().index();
                    if i >= self.counts.len() {
                        self.counts.resize(i + 1, 0);
                    }
                    self.counts[i] += 1;
                }
            }
        }
        Ok(())
    }
}

/// Cross-check an epoch's snapshot against the events decoded before it
/// (`counts`, per thread): every thread it lists has emitted exactly its
/// sequence number, and every thread it omits has emitted nothing. The
/// writer snapshots every thread it has seen, so a recorded trace passes;
/// a dropped or forged record is a structured error, not a skew.
fn check_snapshot(desc: &EpochDesc, counts: &[u64]) -> Result<(), TraceError> {
    let epoch = desc.snapshot.index;
    let corrupt =
        |detail: String| TraceError::Corrupt { offset: desc.payload_offset as u64, detail };
    for (i, t) in desc.snapshot.threads.iter().enumerate() {
        let have = counts.get(i).copied().unwrap_or(0);
        if have != t.seq {
            return Err(corrupt(format!(
                "epoch {epoch} snapshot says thread {i} emitted {} events, stream has {have}",
                t.seq
            )));
        }
    }
    for (i, &have) in counts.iter().enumerate().skip(desc.snapshot.threads.len()) {
        if have != 0 {
            return Err(corrupt(format!(
                "epoch {epoch} snapshot omits thread {i} which already emitted {have} events"
            )));
        }
    }
    Ok(())
}

/// Stable identity of a warning across runs and engines, for `trace-diff`:
/// kind + source location. Deliberately excludes the address (heap layout
/// shifts between builds) and the stack (inlining and call paths churn).
pub fn warning_fingerprint(r: &Report) -> String {
    fingerprint(r.kind, &r.file, r.line, &r.func)
}

/// The `kind|file|line|func` bytes of [`warning_fingerprint`], from the
/// parts a log record keeps. Warehouse `suppress` lines, `trace-diff
/// --json` and the soak catalogue persist or print these bytes.
pub fn fingerprint(kind: ReportKind, file: &str, line: u32, func: &str) -> String {
    format!("{}|{file}|{line}|{func}", kind.code())
}
