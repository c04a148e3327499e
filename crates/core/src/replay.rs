//! Trace replay: run any detector over a recorded `.rltrace` byte stream
//! — no VM, no re-execution — and reproduce the inline report exactly.
//!
//! The writer serialises three things the detectors need beyond the raw
//! events: the symbol table (header), per-thread backtraces (stack delta
//! records + the top-frame-overwrite rule), and heap blocks (header
//! snapshot + Alloc/Free events). [`ReplayCtx`] reconstructs all three and
//! implements [`ReportCtx`], so `EraserDetector::handle_event` runs the
//! same code inline and offline; byte-identical reports follow by
//! construction.
//!
//! Sharding: epoch payloads are codec-independent, so decoding fans out
//! over a scoped thread pool (workers claim epoch indices from a shared
//! atomic counter, the PR-3 pattern). Detector dispatch is a *sequential
//! fold in epoch order* over the decoded records — identical for any
//! `--jobs N`, which is what makes parallel analysis bit-reproducible.
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

use raceline_trace::format::{TraceError, TraceFooter, TraceRecord};
use raceline_trace::reader::{decode_epoch, parse_trace, parse_trace_repair, ParsedTrace};
use vexec::event::{ClientEv, Event, ThreadId};
use vexec::ir::SrcLoc;
use vexec::util::Symbol;

use crate::detector::{AnyDetector, EngineStats};
use crate::pool::run_indexed;
use crate::report::{format_block_note, Report, ReportCtx, StackFrame};

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

/// Decode every epoch payload, fanning out over `jobs` worker threads.
/// Results come back in epoch order, so the output (including which error
/// surfaces when several epochs are corrupt) is independent of thread
/// timing.
fn decode_epochs(
    bytes: &[u8],
    parsed: &ParsedTrace,
    jobs: usize,
) -> Result<Vec<Vec<TraceRecord>>, TraceError> {
    let nsyms = parsed.header.symbols.len() as u32;
    run_indexed(jobs, parsed.epochs.len(), |i| decode_epoch(bytes, &parsed.epochs[i], nsyms))
        .into_iter()
        .collect()
}

/// Run `detector` over a complete `.rltrace` byte stream.
///
/// `jobs` parallelises epoch *decoding* only; dispatch is a sequential
/// fold in epoch order, so the outcome is byte-identical for any `jobs`.
/// `from_epoch` skips detector dispatch for earlier epochs (context is
/// still replayed) and primes lock state from that epoch's snapshot.
pub fn analyze_trace_bytes(
    bytes: &[u8],
    detector: AnyDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<ReplayOutcome, TraceError> {
    let parsed = parse_trace(bytes)?;
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
    mut detector: AnyDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<ReplayOutcome, TraceError> {
    let decoded = decode_epochs(bytes, &parsed, jobs)?;

    let blocks: BTreeMap<u64, (u64, u32, bool)> = parsed
        .header
        .initial_blocks
        .iter()
        .map(|b| (b.addr, (b.size, b.alloc_tid, b.freed)))
        .collect();
    let mut ctx = ReplayCtx::new(parsed.header.symbols.clone(), blocks);
    let mut counts: Vec<u64> = Vec::new();
    let mut dispatched: u64 = 0;

    for (desc, recs) in parsed.epochs.iter().zip(&decoded) {
        let epoch = desc.snapshot.index;
        // Cross-check the snapshot's per-thread sequence numbers against
        // the stream decoded so far: cheap end-to-end integrity on top of
        // the file checksum.
        for (i, t) in desc.snapshot.threads.iter().enumerate() {
            let have = counts.get(i).copied().unwrap_or(0);
            if have != t.seq {
                return Err(TraceError::Corrupt {
                    offset: desc.payload_offset as u64,
                    detail: format!(
                        "epoch {epoch} snapshot says thread {i} emitted {} events, stream has {have}",
                        t.seq
                    ),
                });
            }
        }
        if epoch == from_epoch && from_epoch > 0 {
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
                        detector.handle_event(&ev, &ctx);
                    }
                }
            }
        }
        for rec in recs {
            match *rec {
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
                    if epoch >= from_epoch {
                        detector.handle_event(&ev, &ctx);
                        dispatched += 1;
                    }
                    let i = ev.tid().index();
                    if i >= counts.len() {
                        counts.resize(i + 1, 0);
                    }
                    counts[i] += 1;
                }
            }
        }
    }
    let total: u64 = counts.iter().sum();
    if total != parsed.footer.events {
        return Err(TraceError::Corrupt {
            offset: bytes.len() as u64,
            detail: format!(
                "footer claims {} events, stream decoded {total}",
                parsed.footer.events
            ),
        });
    }
    detector.handle_finish();
    Ok(ReplayOutcome {
        truncated: detector.truncated(),
        engine_stats: detector.engine_stats(),
        reports: detector.take_reports(),
        events: dispatched,
        footer: parsed.footer,
    })
}

/// Stable identity of a warning across runs and engines, for `trace-diff`:
/// kind + source location. Deliberately excludes the address (heap layout
/// shifts between builds) and the stack (inlining and call paths churn).
pub fn warning_fingerprint(r: &Report) -> String {
    format!("{}|{}|{}|{}", r.kind.code(), r.file, r.line, r.func)
}
