//! [`TraceWriter`]: a [`Tool`] that serialises the VM's event stream into
//! the `.rltrace` format instead of analysing it.
//!
//! Capture is deliberately cheap — no shadow memory, no vector clocks —
//! just per-thread delta compression of the event stream plus two mirrors
//! the offline reader needs to reproduce inline reports byte-for-byte:
//!
//! * a **stack mirror** per thread, kept in sync with the VM's real
//!   backtrace via explicit `StackPush`/`StackPop` records. The reader
//!   applies the same "current location overwrites the top frame" rule the
//!   VM uses, so for straight-line code within one function no stack
//!   records are emitted at all;
//! * a **held-lock mirror** per thread, snapshotted into each epoch frame
//!   so analysis can start mid-trace with primed lockset state.
//!
//! I/O errors are sticky: the first failure latches, subsequent callbacks
//! become no-ops, and [`TraceWriter::finish`] reports the stored error.

use std::io::Write;

use vexec::event::{Event, ThreadId};
use vexec::faults::FaultStats;
use vexec::ir::SrcLoc;
use vexec::tool::Tool;
use vexec::util::Symbol;
use vexec::vm::{GuestError, RunStats, Termination, VmView};

use crate::format::{
    encode_event, encode_footer_body, encode_header, encode_snapshot, encode_stack_pop,
    encode_stack_push, CodecState, EpochSnapshot, Fnv1a, HeldLock, ThreadSnap, TraceBlock,
    TraceError, TraceFooter, TraceTermination, TraceWait, END_MAGIC, TAG_EPOCH, TAG_FOOTER,
};

/// Default number of events per epoch frame. Small enough that `analyze
/// --jobs N` gets useful parallelism on medium traces, large enough that
/// snapshot overhead stays well under 1% of payload bytes.
pub const DEFAULT_EPOCH_EVENTS: u64 = 4096;

/// What [`TraceWriter::finish`] reports about the written trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceSummary {
    pub bytes: u64,
    pub events: u64,
    pub epochs: u64,
}

#[derive(Clone, Debug, Default)]
struct ThreadMirror {
    /// Events this thread has emitted so far.
    seq: u64,
    /// Reader-visible backtrace, outermost first.
    stack: Vec<(Symbol, SrcLoc)>,
    /// Locks currently held (Acquire/Release bookkeeping).
    held: Vec<HeldLock>,
}

/// Event-stream serialiser; plug into the VM wherever a detector would go.
pub struct TraceWriter<W: Write> {
    out: W,
    hash: Fnv1a,
    bytes_written: u64,
    err: Option<std::io::Error>,
    header_written: bool,
    threads: Vec<ThreadMirror>,
    codec: CodecState,
    epoch_buf: Vec<u8>,
    epoch_events: u64,
    epoch_limit: u64,
    epoch_index: u64,
    pending_snapshot: EpochSnapshot,
    total_events: u64,
}

impl<W: Write> TraceWriter<W> {
    pub fn new(out: W) -> Self {
        TraceWriter {
            out,
            hash: Fnv1a::default(),
            bytes_written: 0,
            err: None,
            header_written: false,
            threads: Vec::new(),
            codec: CodecState::default(),
            epoch_buf: Vec::with_capacity(64 * 1024),
            epoch_events: 0,
            epoch_limit: DEFAULT_EPOCH_EVENTS,
            epoch_index: 0,
            pending_snapshot: EpochSnapshot::default(),
            total_events: 0,
        }
    }

    /// Override the events-per-epoch limit (tests use tiny epochs to
    /// exercise frame boundaries; sharding benefits from smaller epochs
    /// on long traces).
    pub fn with_epoch_events(mut self, limit: u64) -> Self {
        self.epoch_limit = limit.max(1);
        self
    }

    fn emit(&mut self, bytes: &[u8]) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(bytes) {
            self.err = Some(e);
            return;
        }
        self.hash.update(bytes);
        self.bytes_written += bytes.len() as u64;
    }

    fn mirror_mut(&mut self, tid: ThreadId) -> &mut ThreadMirror {
        let i = tid.index();
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, ThreadMirror::default);
        }
        &mut self.threads[i]
    }

    fn capture_snapshot(&self) -> EpochSnapshot {
        EpochSnapshot {
            index: self.epoch_index,
            threads: self
                .threads
                .iter()
                .map(|t| ThreadSnap { seq: t.seq, held: t.held.clone() })
                .collect(),
        }
    }

    /// Write the header (symbol table + pre-existing heap blocks) on the
    /// first callback. Globals are allocated by the VM before any event
    /// fires, so the header snapshot is the only way the reader learns
    /// about them.
    fn ensure_header(&mut self, vm: &VmView<'_>) {
        if self.header_written {
            return;
        }
        self.header_written = true;
        let interner = vm.interner();
        let symbols: Vec<&str> =
            (0..interner.len()).map(|i| interner.resolve(Symbol(i as u32))).collect();
        let blocks: Vec<TraceBlock> = vm
            .heap_blocks()
            .iter()
            .map(|b| TraceBlock {
                addr: b.addr,
                size: b.size,
                alloc_tid: b.alloc_tid.0,
                freed: b.freed,
            })
            .collect();
        let hdr = encode_header(&symbols, &blocks);
        self.emit(&hdr);
        self.pending_snapshot = self.capture_snapshot();
    }

    /// Reconcile the reader-visible stack mirror of `tid` with the VM's
    /// real backtrace, emitting the minimal pop/push delta. When the only
    /// difference is the top frame's location — the overwhelmingly common
    /// case — the reader's top-frame-overwrite rule absorbs it and no
    /// records are needed.
    fn sync_stack(&mut self, tid: ThreadId, vm: &VmView<'_>, ev_loc: Option<SrcLoc>) {
        let n = vm.frame_count(tid);
        let i = tid.index();
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, ThreadMirror::default);
        }

        // Fast path (the overwhelmingly common case: consecutive events in
        // the same call nest): same depth, outer frames unchanged, and the
        // reader's top-frame-overwrite rule reproduces the top frame. No
        // records, no allocation.
        let mirror = &mut self.threads[i].stack;
        if mirror.len() == n && n > 0 {
            let outer_same = (0..n - 1).all(|d| {
                let f = vm.frame_info(tid, d);
                mirror[d] == (f.func, f.loc)
            });
            if outer_same {
                let top = vm.frame_info(tid, n - 1);
                let (mut pf, mut ploc) = mirror[n - 1];
                if let Some(loc) = ev_loc {
                    ploc = loc;
                    if loc.func != Symbol::EMPTY {
                        pf = loc.func;
                    }
                }
                if (pf, ploc) == (top.func, top.loc) {
                    mirror[n - 1] = (top.func, top.loc);
                    return;
                }
            }
        } else if mirror.is_empty() && n == 0 {
            return;
        }

        // Slow path (frame boundary): materialise the true backtrace and
        // emit the minimal pop/push delta against the reader's predicted
        // state.
        let mut truth: Vec<(Symbol, SrcLoc)> = Vec::with_capacity(n);
        for d in 0..n {
            let f = vm.frame_info(tid, d);
            truth.push((f.func, f.loc));
        }
        let mirror = &self.threads[i].stack;
        // What the reader's mirror will look like after it applies the
        // top-frame-overwrite rule for this event, if we emit nothing.
        let mut predicted = mirror.clone();
        if let Some(loc) = ev_loc {
            if let Some(top) = predicted.last_mut() {
                top.1 = loc;
                if loc.func != Symbol::EMPTY {
                    top.0 = loc.func;
                }
            }
        }
        if predicted != truth {
            let mut common = 0;
            while common < mirror.len() && common < truth.len() && mirror[common] == truth[common] {
                common += 1;
            }
            let pops = (mirror.len() - common) as u32;
            if pops > 0 {
                encode_stack_pop(&mut self.epoch_buf, tid, pops);
            }
            for &(func, loc) in &truth[common..] {
                encode_stack_push(&mut self.epoch_buf, &mut self.codec, tid, func, loc);
            }
        }
        self.threads[i].stack = truth;
    }

    fn track_locks(&mut self, ev: &Event) {
        match *ev {
            Event::Acquire { tid, sync, kind, mode, loc } => {
                let m = self.mirror_mut(tid);
                if let Some(h) = m.held.iter_mut().find(|h| h.sync == sync && h.mode == mode) {
                    h.count += 1;
                } else {
                    m.held.push(HeldLock { sync, kind, mode, count: 1, loc });
                }
            }
            Event::Release { tid, sync, .. } => {
                let m = self.mirror_mut(tid);
                if let Some(i) = m.held.iter().rposition(|h| h.sync == sync) {
                    if m.held[i].count > 1 {
                        m.held[i].count -= 1;
                    } else {
                        m.held.remove(i);
                    }
                }
            }
            _ => {}
        }
    }

    fn flush_epoch(&mut self) {
        if self.epoch_buf.is_empty() {
            return;
        }
        let mut frame = Vec::with_capacity(self.epoch_buf.len() + 64);
        frame.push(TAG_EPOCH);
        crate::varint::put_uvarint(&mut frame, self.pending_snapshot.index);
        encode_snapshot(&mut frame, &self.pending_snapshot);
        crate::varint::put_uvarint(&mut frame, self.epoch_buf.len() as u64);
        frame.extend_from_slice(&self.epoch_buf);
        self.emit(&frame);
        self.epoch_index += 1;
        self.epoch_buf.clear();
        self.epoch_events = 0;
        self.codec.reset();
        self.pending_snapshot = self.capture_snapshot();
    }

    /// Seal the trace: flush the final epoch, write the footer (run
    /// outcome, stats, fault counters), the whole-file checksum, and the
    /// end magic. Consumes the writer; returns the sticky I/O error if any
    /// callback failed.
    pub fn finish(
        mut self,
        termination: &Termination,
        stats: &RunStats,
        faults: Option<&FaultStats>,
    ) -> Result<TraceSummary, TraceError> {
        if !self.header_written {
            return Err(TraceError::Corrupt {
                offset: 0,
                detail: "finish() called before any VM callback wrote the header".to_string(),
            });
        }
        self.flush_epoch();
        let footer = TraceFooter {
            events: self.total_events,
            epochs: self.epoch_index,
            slots: stats.slots,
            termination: trace_termination(termination),
            faults: faults.copied(),
        };
        let mut tail = vec![TAG_FOOTER];
        encode_footer_body(&mut tail, &footer);
        self.emit(&tail);
        // The checksum covers every byte before it; it and the end magic
        // are excluded from the hash.
        let checksum = self.hash.0.to_le_bytes();
        if self.err.is_none() {
            if let Err(e) = self.out.write_all(&checksum) {
                self.err = Some(e);
            } else {
                self.bytes_written += checksum.len() as u64;
            }
        }
        if self.err.is_none() {
            if let Err(e) = self.out.write_all(END_MAGIC).and_then(|()| self.out.flush()) {
                self.err = Some(e);
            } else {
                self.bytes_written += END_MAGIC.len() as u64;
            }
        }
        match self.err {
            Some(e) => Err(TraceError::Io(e)),
            None => Ok(TraceSummary {
                bytes: self.bytes_written,
                events: self.total_events,
                epochs: self.epoch_index,
            }),
        }
    }
}

impl<W: Write> Tool for TraceWriter<W> {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        if self.err.is_some() {
            return;
        }
        self.ensure_header(vm);
        let tid = ev.tid();
        self.sync_stack(tid, vm, ev.loc());
        self.track_locks(ev);
        self.mirror_mut(tid).seq += 1;
        encode_event(&mut self.epoch_buf, &mut self.codec, ev);
        self.epoch_events += 1;
        self.total_events += 1;
        if self.epoch_events >= self.epoch_limit {
            self.flush_epoch();
        }
    }

    fn on_guest_fault(&mut self, _err: &GuestError, vm: &VmView<'_>) {
        self.ensure_header(vm);
    }

    fn on_finish(&mut self, vm: &VmView<'_>) {
        self.ensure_header(vm);
    }
}

/// Convert a live [`Termination`] into its trace-footer form (guest errors
/// are stored pre-rendered; that string is all any consumer prints).
pub fn trace_termination(t: &Termination) -> TraceTermination {
    match t {
        Termination::AllExited => TraceTermination::AllExited,
        Termination::Deadlock(waits) => TraceTermination::Deadlock(
            waits
                .iter()
                .map(|w| TraceWait {
                    tid: w.tid.0,
                    on: w.on,
                    holders: w.holders.iter().map(|h| h.0).collect(),
                })
                .collect(),
        ),
        Termination::GuestError(e) => TraceTermination::GuestError(e.to_string()),
        Termination::FuelExhausted => TraceTermination::FuelExhausted,
    }
}
