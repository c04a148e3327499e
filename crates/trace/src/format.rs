//! The `.rltrace` wire format: record tags, codec state, and the
//! encode/decode routines shared by [`crate::writer`] and
//! [`crate::reader`]. The byte-level layout is specified in DESIGN.md §9.
//!
//! Every decode path is bounds-checked and returns a structured
//! [`TraceError`]; no input, however corrupt, may panic the reader. Counts
//! read from the wire are validated against the number of bytes remaining
//! before anything is allocated, so a flipped length byte cannot request an
//! absurd reservation.

use crate::varint::{get_uvarint, put_ivarint, put_uvarint, unzigzag};
use vexec::event::{AccessKind, AcqMode, ClientEv, Event, SyncId, ThreadId};
use vexec::faults::FaultStats;
use vexec::ir::{SrcLoc, SyncKind};
use vexec::util::Symbol;
use vexec::vm::BlockOn;

/// File magic, first 8 bytes of every trace.
pub const MAGIC: &[u8; 8] = b"RLTRACE1";
/// Trailing magic, last 8 bytes; its absence means a torn write.
pub const END_MAGIC: &[u8; 8] = b"RLTREND\0";
/// The trailer after the checksummed body: the `u64` checksum, then
/// [`END_MAGIC`]. The body is every byte before it.
pub const TRAILER_LEN: usize = 8 + END_MAGIC.len();
/// Current format version (little-endian `u32` after the magic).
pub const VERSION: u32 = 1;

/// Frame tag opening each epoch.
pub const TAG_EPOCH: u8 = 0xE5;
/// Frame tag opening the footer.
pub const TAG_FOOTER: u8 = 0xF7;

/// Sanity cap on thread ids — a trace claiming more threads than this is
/// corrupt, not ambitious.
pub const MAX_THREADS: u64 = 1 << 20;

// Record tags (one byte, followed by `uvarint tid` and the fields listed
// in DESIGN.md §9.3).
pub const T_READ: u8 = 0;
pub const T_WRITE: u8 = 1;
pub const T_RMW: u8 = 2;
pub const T_ACQ_EXCL: u8 = 3;
pub const T_ACQ_SHARED: u8 = 4;
pub const T_RELEASE: u8 = 5;
pub const T_CREATE: u8 = 6;
pub const T_JOIN: u8 = 7;
pub const T_EXIT: u8 = 8;
pub const T_ALLOC: u8 = 9;
pub const T_FREE: u8 = 10;
pub const T_COND_SIGNAL: u8 = 11;
pub const T_COND_BROADCAST: u8 = 12;
pub const T_COND_WAKE: u8 = 13;
pub const T_SEM_POST: u8 = 14;
pub const T_SEM_ACQUIRED: u8 = 15;
pub const T_QUEUE_PUT: u8 = 16;
pub const T_QUEUE_GOT: u8 = 17;
pub const T_HG_DESTRUCT: u8 = 18;
pub const T_HG_CLEAN: u8 = 19;
pub const T_LABEL: u8 = 20;
pub const T_STACK_PUSH: u8 = 21;
pub const T_STACK_POP: u8 = 22;

/// Structured decode failure. The `offset` fields are absolute byte
/// positions in the trace file, so a corrupt trace can be inspected with
/// any hex dumper.
#[derive(Debug)]
pub enum TraceError {
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a trace at all.
    BadMagic,
    /// A trace from a different format generation.
    BadVersion {
        found: u32,
        expected: u32,
    },
    /// The file ends mid-structure (torn write, truncated copy).
    Truncated {
        offset: u64,
    },
    /// Structurally invalid content at `offset`.
    Corrupt {
        offset: u64,
        detail: String,
    },
    /// Every byte of the file is covered by an FNV-1a checksum in the
    /// footer; a mismatch means silent corruption somewhere upstream.
    ChecksumMismatch {
        expected: u64,
        found: u64,
    },
    /// An analysis asked to start at an epoch the trace does not have.
    NoSuchEpoch {
        epoch: u64,
        epochs: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a raceline trace (bad magic)"),
            TraceError::BadVersion { found, expected } => {
                write!(f, "unsupported trace version {found} (this build reads v{expected})")
            }
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated at byte {offset}")
            }
            TraceError::Corrupt { offset, detail } => {
                write!(f, "corrupt trace at byte {offset}: {detail}")
            }
            TraceError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "trace checksum mismatch (stored {expected:#018x}, computed {found:#018x})"
                )
            }
            TraceError::NoSuchEpoch { epoch, epochs } => {
                write!(f, "no epoch {epoch}: the trace has {epochs} epoch(s), numbered from 0")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// FNV-1a 64 running hash — cheap, allocation-free, and plenty to catch
/// the single-flipped-byte class of corruption the format defends against.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Bounds-checked read cursor over an in-memory byte slice. `base` is the
/// absolute file offset of `buf[0]`, so errors report file positions even
/// when decoding an epoch payload sliced out of the middle of the file.
pub struct Cursor<'a> {
    pub buf: &'a [u8],
    pub pos: usize,
    pub base: u64,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8], base: u64) -> Self {
        Cursor { buf, pos: 0, base }
    }

    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn truncated(&self) -> TraceError {
        TraceError::Truncated { offset: self.offset() }
    }

    pub fn corrupt(&self, detail: impl Into<String>) -> TraceError {
        TraceError::Corrupt { offset: self.offset(), detail: detail.into() }
    }

    pub fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(b)
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(self.truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u32_le(&mut self) -> Result<u32, TraceError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64_le(&mut self) -> Result<u64, TraceError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a LEB128 varint. Most fields on the wire (thread ids, small
    /// deltas, line numbers) fit one byte, so that case is read inline and
    /// everything else takes the general loop.
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, TraceError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.uvarint_multi(),
        }
    }

    /// The general varint loop and its errors, kept out of line so the
    /// one-byte path stays small enough to inline at every call site.
    #[inline(never)]
    fn uvarint_multi(&mut self) -> Result<u64, TraceError> {
        match get_uvarint(&self.buf[self.pos..]) {
            Some((v, n)) => {
                self.pos += n;
                Ok(v)
            }
            None if self.remaining() < 10 => Err(self.truncated()),
            None => Err(self.corrupt("overlong varint")),
        }
    }

    pub fn ivarint(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.uvarint()?))
    }

    /// Read an element count that precedes `count * min_elem_bytes` bytes;
    /// reject counts the remaining input cannot possibly satisfy before
    /// any allocation happens.
    pub fn count(&mut self, what: &str, min_elem_bytes: usize) -> Result<usize, TraceError> {
        let n = self.uvarint()?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > cap {
            return Err(self.corrupt(format!("{what} count {n} exceeds remaining input")));
        }
        Ok(n as usize)
    }
}

/// Parsed trace header: version, the program's full interned string table,
/// and the heap blocks that existed before the first event (globals,
/// allocated by the VM without emitting `Alloc`).
#[derive(Clone, Debug, Default)]
pub struct TraceHeader {
    pub version: u32,
    pub symbols: Vec<String>,
    pub initial_blocks: Vec<TraceBlock>,
}

/// A heap block as recorded in the header snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceBlock {
    pub addr: u64,
    pub size: u64,
    pub alloc_tid: u32,
    pub freed: bool,
}

/// Per-thread state recorded in an epoch frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadSnap {
    /// Events this thread had emitted before the epoch began. Readers
    /// verify the running per-thread count against this at every frame.
    pub seq: u64,
    /// Locks the thread held entering the epoch, for mid-trace analysis.
    pub held: Vec<HeldLock>,
}

/// One held lock in an epoch snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeldLock {
    pub sync: SyncId,
    pub kind: SyncKind,
    pub mode: AcqMode,
    /// Recursion depth (rwlock read counts).
    pub count: u32,
    /// Where the lock was acquired.
    pub loc: SrcLoc,
}

/// Epoch frame: codec-reset point + sync-state snapshot. Epoch payloads
/// decode independently of each other, which is what makes `analyze
/// --jobs N` shardable.
#[derive(Clone, Debug, Default)]
pub struct EpochSnapshot {
    pub index: u64,
    pub threads: Vec<ThreadSnap>,
}

/// How the recorded run ended, plus its stats — everything `analyze`
/// needs to reproduce the inline report's termination output.
#[derive(Clone, Debug)]
pub struct TraceFooter {
    pub events: u64,
    pub epochs: u64,
    pub slots: u64,
    pub termination: TraceTermination,
    pub faults: Option<FaultStats>,
}

/// Mirror of [`vexec::vm::Termination`] with the guest error pre-rendered
/// (the live error struct holds interner-relative symbols; the rendered
/// string is what every consumer prints).
#[derive(Clone, Debug)]
pub enum TraceTermination {
    AllExited,
    Deadlock(Vec<TraceWait>),
    GuestError(String),
    FuelExhausted,
    /// The trace ends before the run did — a crash-truncated file whose
    /// intact prefix was recovered by `parse_trace_repair`. Synthesized,
    /// never produced by the writer.
    Unknown,
}

/// One blocked thread at deadlock time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceWait {
    pub tid: u32,
    pub on: BlockOn,
    pub holders: Vec<u32>,
}

/// One decoded payload record: a guest event or a stack-delta record that
/// keeps the reader's per-thread backtrace mirror in sync.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRecord {
    Event(Event),
    /// A frame was pushed on `tid`'s stack (`func` resolved with the
    /// procedure-name fallback already applied at push time).
    StackPush {
        tid: ThreadId,
        func: Symbol,
        loc: SrcLoc,
    },
    /// `n` frames were popped from `tid`'s stack.
    StackPop {
        tid: ThreadId,
        n: u32,
    },
}

/// Per-thread delta-codec state. Reset to defaults at every epoch
/// boundary so each epoch payload is self-contained.
#[derive(Clone, Copy, Debug, Default)]
pub struct EncState {
    pub last_addr: u64,
    pub last_file: u32,
    pub last_line: u32,
    pub last_func: u32,
}

/// Growable per-thread codec-state table.
#[derive(Clone, Debug, Default)]
pub struct CodecState {
    pub threads: Vec<EncState>,
}

impl CodecState {
    /// Reset every thread's delta baselines (epoch boundary).
    pub fn reset(&mut self) {
        for t in &mut self.threads {
            *t = EncState::default();
        }
    }

    pub fn thread(&mut self, tid: ThreadId) -> &mut EncState {
        let i = tid.index();
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, EncState::default);
        }
        &mut self.threads[i]
    }
}

fn sync_kind_byte(k: SyncKind) -> u8 {
    match k {
        SyncKind::Mutex => 0,
        SyncKind::RwLock => 1,
        SyncKind::CondVar => 2,
        SyncKind::Semaphore => 3,
        SyncKind::Queue => 4,
    }
}

fn sync_kind_from(b: u8, c: &Cursor<'_>) -> Result<SyncKind, TraceError> {
    Ok(match b {
        0 => SyncKind::Mutex,
        1 => SyncKind::RwLock,
        2 => SyncKind::CondVar,
        3 => SyncKind::Semaphore,
        4 => SyncKind::Queue,
        other => return Err(c.corrupt(format!("bad sync kind {other}"))),
    })
}

fn put_loc(out: &mut Vec<u8>, st: &mut EncState, loc: SrcLoc) {
    put_ivarint(out, i64::from(loc.file.0) - i64::from(st.last_file));
    put_ivarint(out, i64::from(loc.line) - i64::from(st.last_line));
    put_ivarint(out, i64::from(loc.func.0) - i64::from(st.last_func));
    st.last_file = loc.file.0;
    st.last_line = loc.line;
    st.last_func = loc.func.0;
}

fn delta_u32(base: u32, delta: i64, what: &str, c: &Cursor<'_>) -> Result<u32, TraceError> {
    u32::try_from(i64::from(base) + delta)
        .map_err(|_| c.corrupt(format!("{what} delta out of range")))
}

fn get_loc(c: &mut Cursor<'_>, st: &mut EncState, nsyms: u32) -> Result<SrcLoc, TraceError> {
    let file = delta_u32(st.last_file, c.ivarint()?, "file symbol", c)?;
    let line = delta_u32(st.last_line, c.ivarint()?, "line", c)?;
    let func = delta_u32(st.last_func, c.ivarint()?, "func symbol", c)?;
    if file >= nsyms || func >= nsyms {
        return Err(c.corrupt(format!("symbol out of range (table has {nsyms})")));
    }
    st.last_file = file;
    st.last_line = line;
    st.last_func = func;
    Ok(SrcLoc { file: Symbol(file), line, func: Symbol(func) })
}

fn get_sym(c: &mut Cursor<'_>, nsyms: u32, what: &str) -> Result<Symbol, TraceError> {
    let v = c.uvarint()?;
    if v >= u64::from(nsyms) {
        return Err(c.corrupt(format!("{what} symbol {v} out of range (table has {nsyms})")));
    }
    Ok(Symbol(v as u32))
}

fn get_tid(c: &mut Cursor<'_>) -> Result<ThreadId, TraceError> {
    let v = c.uvarint()?;
    if v >= MAX_THREADS {
        return Err(c.corrupt(format!("thread id {v} exceeds cap")));
    }
    Ok(ThreadId(v as u32))
}

fn get_sync(c: &mut Cursor<'_>) -> Result<SyncId, TraceError> {
    let v = c.uvarint()?;
    u32::try_from(v).map(SyncId).map_err(|_| c.corrupt("sync id exceeds u32"))
}

/// Append one event record to `out`, advancing the per-thread codec state.
pub fn encode_event(out: &mut Vec<u8>, state: &mut CodecState, ev: &Event) {
    let tid = ev.tid();
    let put_head = |out: &mut Vec<u8>, tag: u8| {
        out.push(tag);
        put_uvarint(out, u64::from(tid.0));
    };
    match *ev {
        Event::Access { addr, size, kind, loc, .. } => {
            let tag = match kind {
                AccessKind::Read => T_READ,
                AccessKind::Write => T_WRITE,
                AccessKind::AtomicRmw => T_RMW,
            };
            put_head(out, tag);
            let st = state.thread(tid);
            put_ivarint(out, addr.wrapping_sub(st.last_addr) as i64);
            st.last_addr = addr;
            out.push(size);
            put_loc(out, state.thread(tid), loc);
        }
        Event::Acquire { sync, kind, mode, loc, .. } => {
            put_head(out, if mode == AcqMode::Shared { T_ACQ_SHARED } else { T_ACQ_EXCL });
            put_uvarint(out, u64::from(sync.0));
            out.push(sync_kind_byte(kind));
            put_loc(out, state.thread(tid), loc);
        }
        Event::Release { sync, kind, loc, .. } => {
            put_head(out, T_RELEASE);
            put_uvarint(out, u64::from(sync.0));
            out.push(sync_kind_byte(kind));
            put_loc(out, state.thread(tid), loc);
        }
        Event::ThreadCreate { child, loc, .. } => {
            put_head(out, T_CREATE);
            put_uvarint(out, u64::from(child.0));
            put_loc(out, state.thread(tid), loc);
        }
        Event::ThreadJoin { joined, loc, .. } => {
            put_head(out, T_JOIN);
            put_uvarint(out, u64::from(joined.0));
            put_loc(out, state.thread(tid), loc);
        }
        Event::ThreadExit { .. } => put_head(out, T_EXIT),
        Event::Alloc { addr, size, loc, .. } => {
            put_head(out, T_ALLOC);
            put_uvarint(out, addr);
            put_uvarint(out, size);
            put_loc(out, state.thread(tid), loc);
        }
        Event::Free { addr, size, loc, .. } => {
            put_head(out, T_FREE);
            put_uvarint(out, addr);
            put_uvarint(out, size);
            put_loc(out, state.thread(tid), loc);
        }
        Event::CondSignal { sync, broadcast, loc, .. } => {
            put_head(out, if broadcast { T_COND_BROADCAST } else { T_COND_SIGNAL });
            put_uvarint(out, u64::from(sync.0));
            put_loc(out, state.thread(tid), loc);
        }
        Event::CondWake { sync, signaler, loc, .. } => {
            put_head(out, T_COND_WAKE);
            put_uvarint(out, u64::from(sync.0));
            put_uvarint(out, u64::from(signaler.0));
            put_loc(out, state.thread(tid), loc);
        }
        Event::SemPost { sync, loc, .. } => {
            put_head(out, T_SEM_POST);
            put_uvarint(out, u64::from(sync.0));
            put_loc(out, state.thread(tid), loc);
        }
        Event::SemAcquired { sync, loc, .. } => {
            put_head(out, T_SEM_ACQUIRED);
            put_uvarint(out, u64::from(sync.0));
            put_loc(out, state.thread(tid), loc);
        }
        Event::QueuePut { sync, token, loc, .. } => {
            put_head(out, T_QUEUE_PUT);
            put_uvarint(out, u64::from(sync.0));
            put_uvarint(out, token);
            put_loc(out, state.thread(tid), loc);
        }
        Event::QueueGot { sync, token, loc, .. } => {
            put_head(out, T_QUEUE_GOT);
            put_uvarint(out, u64::from(sync.0));
            put_uvarint(out, token);
            put_loc(out, state.thread(tid), loc);
        }
        Event::Client { req, loc, .. } => match req {
            ClientEv::HgDestruct { addr, size } => {
                put_head(out, T_HG_DESTRUCT);
                put_uvarint(out, addr);
                put_uvarint(out, size);
                put_loc(out, state.thread(tid), loc);
            }
            ClientEv::HgCleanMemory { addr, size } => {
                put_head(out, T_HG_CLEAN);
                put_uvarint(out, addr);
                put_uvarint(out, size);
                put_loc(out, state.thread(tid), loc);
            }
            ClientEv::Label(sym) => {
                put_head(out, T_LABEL);
                put_uvarint(out, u64::from(sym.0));
                put_loc(out, state.thread(tid), loc);
            }
        },
    }
}

/// Append a stack-push record (`func` already fallback-resolved).
pub fn encode_stack_push(
    out: &mut Vec<u8>,
    state: &mut CodecState,
    tid: ThreadId,
    func: Symbol,
    loc: SrcLoc,
) {
    out.push(T_STACK_PUSH);
    put_uvarint(out, u64::from(tid.0));
    put_uvarint(out, u64::from(func.0));
    put_loc(out, state.thread(tid), loc);
}

/// Append a stack-pop record.
pub fn encode_stack_pop(out: &mut Vec<u8>, tid: ThreadId, n: u32) {
    out.push(T_STACK_POP);
    put_uvarint(out, u64::from(tid.0));
    put_uvarint(out, u64::from(n));
}

/// Decode one payload record. `nsyms` bounds every symbol reference.
pub fn decode_record(
    c: &mut Cursor<'_>,
    state: &mut CodecState,
    nsyms: u32,
) -> Result<TraceRecord, TraceError> {
    let tag = c.u8()?;
    let tid = get_tid(c)?;
    let rec = match tag {
        T_READ | T_WRITE | T_RMW => {
            let kind = match tag {
                T_READ => AccessKind::Read,
                T_WRITE => AccessKind::Write,
                _ => AccessKind::AtomicRmw,
            };
            let delta = c.ivarint()?;
            let st = state.thread(tid);
            let addr = st.last_addr.wrapping_add(delta as u64);
            st.last_addr = addr;
            let size = c.u8()?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(Event::Access { tid, addr, size, kind, loc })
        }
        T_ACQ_EXCL | T_ACQ_SHARED => {
            let sync = get_sync(c)?;
            let kind = {
                let b = c.u8()?;
                sync_kind_from(b, c)?
            };
            let mode = if tag == T_ACQ_SHARED { AcqMode::Shared } else { AcqMode::Exclusive };
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(Event::Acquire { tid, sync, kind, mode, loc })
        }
        T_RELEASE => {
            let sync = get_sync(c)?;
            let kind = {
                let b = c.u8()?;
                sync_kind_from(b, c)?
            };
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(Event::Release { tid, sync, kind, loc })
        }
        T_CREATE => {
            let child = get_tid(c)?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(Event::ThreadCreate { parent: tid, child, loc })
        }
        T_JOIN => {
            let joined = get_tid(c)?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(Event::ThreadJoin { joiner: tid, joined, loc })
        }
        T_EXIT => TraceRecord::Event(Event::ThreadExit { tid }),
        T_ALLOC | T_FREE => {
            let addr = c.uvarint()?;
            let size = c.uvarint()?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(if tag == T_ALLOC {
                Event::Alloc { tid, addr, size, loc }
            } else {
                Event::Free { tid, addr, size, loc }
            })
        }
        T_COND_SIGNAL | T_COND_BROADCAST => {
            let sync = get_sync(c)?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            let broadcast = tag == T_COND_BROADCAST;
            TraceRecord::Event(Event::CondSignal { tid, sync, broadcast, loc })
        }
        T_COND_WAKE => {
            let sync = get_sync(c)?;
            let signaler = get_tid(c)?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(Event::CondWake { tid, sync, signaler, loc })
        }
        T_SEM_POST | T_SEM_ACQUIRED => {
            let sync = get_sync(c)?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(if tag == T_SEM_POST {
                Event::SemPost { tid, sync, loc }
            } else {
                Event::SemAcquired { tid, sync, loc }
            })
        }
        T_QUEUE_PUT | T_QUEUE_GOT => {
            let sync = get_sync(c)?;
            let token = c.uvarint()?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(if tag == T_QUEUE_PUT {
                Event::QueuePut { tid, sync, token, loc }
            } else {
                Event::QueueGot { tid, sync, token, loc }
            })
        }
        T_HG_DESTRUCT | T_HG_CLEAN => {
            let addr = c.uvarint()?;
            let size = c.uvarint()?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            let req = if tag == T_HG_DESTRUCT {
                ClientEv::HgDestruct { addr, size }
            } else {
                ClientEv::HgCleanMemory { addr, size }
            };
            TraceRecord::Event(Event::Client { tid, req, loc })
        }
        T_LABEL => {
            let sym = get_sym(c, nsyms, "label")?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::Event(Event::Client { tid, req: ClientEv::Label(sym), loc })
        }
        T_STACK_PUSH => {
            let func = get_sym(c, nsyms, "stack frame")?;
            let loc = get_loc(c, state.thread(tid), nsyms)?;
            TraceRecord::StackPush { tid, func, loc }
        }
        T_STACK_POP => {
            let n = c.uvarint()?;
            let n = u32::try_from(n).map_err(|_| c.corrupt("stack pop count exceeds u32"))?;
            TraceRecord::StackPop { tid, n }
        }
        other => return Err(c.corrupt(format!("unknown record tag {other:#04x}"))),
    };
    Ok(rec)
}

/// Encode the header (magic, version, symbol table, initial heap blocks).
pub fn encode_header(symbols: &[&str], blocks: &[TraceBlock]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + symbols.iter().map(|s| s.len() + 2).sum::<usize>());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_uvarint(&mut out, symbols.len() as u64);
    for s in symbols {
        put_uvarint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    put_uvarint(&mut out, blocks.len() as u64);
    for b in blocks {
        put_uvarint(&mut out, b.addr);
        put_uvarint(&mut out, b.size);
        put_uvarint(&mut out, u64::from(b.alloc_tid));
        out.push(u8::from(b.freed));
    }
    out
}

/// Decode the header, leaving the cursor at the first epoch frame.
pub fn decode_header(c: &mut Cursor<'_>) -> Result<TraceHeader, TraceError> {
    let magic = c.bytes(MAGIC.len()).map_err(|_| TraceError::BadMagic)?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = c.u32_le()?;
    if version != VERSION {
        return Err(TraceError::BadVersion { found: version, expected: VERSION });
    }
    let nsyms = c.count("symbol", 1)?;
    let mut symbols = Vec::with_capacity(nsyms);
    for _ in 0..nsyms {
        let len = c.count("symbol byte", 1)?;
        let bytes = c.bytes(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| c.corrupt("symbol is not UTF-8"))?;
        symbols.push(s.to_string());
    }
    let nblocks = c.count("initial block", 4)?;
    let mut initial_blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let addr = c.uvarint()?;
        let size = c.uvarint()?;
        let alloc_tid = c.uvarint()?;
        if alloc_tid >= MAX_THREADS {
            return Err(c.corrupt("initial block alloc tid exceeds cap"));
        }
        let freed = match c.u8()? {
            0 => false,
            1 => true,
            other => return Err(c.corrupt(format!("bad freed flag {other}"))),
        };
        initial_blocks.push(TraceBlock { addr, size, alloc_tid: alloc_tid as u32, freed });
    }
    Ok(TraceHeader { version, symbols, initial_blocks })
}

/// Encode an epoch snapshot (the part between the frame tag/index and the
/// payload length).
pub fn encode_snapshot(out: &mut Vec<u8>, snap: &EpochSnapshot) {
    put_uvarint(out, snap.threads.len() as u64);
    for t in &snap.threads {
        put_uvarint(out, t.seq);
        put_uvarint(out, t.held.len() as u64);
        for h in &t.held {
            put_uvarint(out, u64::from(h.sync.0));
            out.push(sync_kind_byte(h.kind));
            out.push(u8::from(h.mode == AcqMode::Shared));
            put_uvarint(out, u64::from(h.count));
            put_uvarint(out, u64::from(h.loc.file.0));
            put_uvarint(out, u64::from(h.loc.line));
            put_uvarint(out, u64::from(h.loc.func.0));
        }
    }
}

/// Decode an epoch snapshot (cursor positioned just after the epoch
/// index varint).
pub fn decode_snapshot(
    c: &mut Cursor<'_>,
    index: u64,
    nsyms: u32,
) -> Result<EpochSnapshot, TraceError> {
    let nthreads = c.count("thread snapshot", 2)?;
    if nthreads as u64 >= MAX_THREADS {
        return Err(c.corrupt("snapshot thread count exceeds cap"));
    }
    let mut threads = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        let seq = c.uvarint()?;
        let nheld = c.count("held lock", 7)?;
        let mut held = Vec::with_capacity(nheld);
        for _ in 0..nheld {
            let sync = get_sync(c)?;
            let kind = {
                let b = c.u8()?;
                sync_kind_from(b, c)?
            };
            let mode = if c.u8()? != 0 { AcqMode::Shared } else { AcqMode::Exclusive };
            let count = c.uvarint()?;
            let count = u32::try_from(count).map_err(|_| c.corrupt("held count exceeds u32"))?;
            let file = get_sym(c, nsyms, "held lock file")?;
            let line = c.uvarint()?;
            let line = u32::try_from(line).map_err(|_| c.corrupt("held lock line exceeds u32"))?;
            let func = get_sym(c, nsyms, "held lock func")?;
            held.push(HeldLock { sync, kind, mode, count, loc: SrcLoc { file, line, func } });
        }
        threads.push(ThreadSnap { seq, held });
    }
    Ok(EpochSnapshot { index, threads })
}

fn block_on_tag(on: BlockOn) -> (u8, u64) {
    match on {
        BlockOn::Mutex(s) => (0, u64::from(s.0)),
        BlockOn::RwRead(s) => (1, u64::from(s.0)),
        BlockOn::RwWrite(s) => (2, u64::from(s.0)),
        BlockOn::Cond(s) => (3, u64::from(s.0)),
        BlockOn::Sem(s) => (4, u64::from(s.0)),
        BlockOn::QueuePut(s) => (5, u64::from(s.0)),
        BlockOn::QueueGet(s) => (6, u64::from(s.0)),
        BlockOn::Join(t) => (7, u64::from(t.0)),
    }
}

fn block_on_from(tag: u8, id: u64, c: &Cursor<'_>) -> Result<BlockOn, TraceError> {
    let sid = || u32::try_from(id).map(SyncId).map_err(|_| c.corrupt("wait id exceeds u32"));
    Ok(match tag {
        0 => BlockOn::Mutex(sid()?),
        1 => BlockOn::RwRead(sid()?),
        2 => BlockOn::RwWrite(sid()?),
        3 => BlockOn::Cond(sid()?),
        4 => BlockOn::Sem(sid()?),
        5 => BlockOn::QueuePut(sid()?),
        6 => BlockOn::QueueGet(sid()?),
        7 => {
            if id >= MAX_THREADS {
                return Err(c.corrupt("wait target tid exceeds cap"));
            }
            BlockOn::Join(ThreadId(id as u32))
        }
        other => return Err(c.corrupt(format!("bad wait tag {other}"))),
    })
}

/// Encode the footer body (everything after [`TAG_FOOTER`], before the
/// checksum and end magic).
pub fn encode_footer_body(out: &mut Vec<u8>, f: &TraceFooter) {
    put_uvarint(out, f.events);
    put_uvarint(out, f.epochs);
    put_uvarint(out, f.slots);
    match &f.termination {
        TraceTermination::AllExited => out.push(0),
        TraceTermination::Deadlock(waits) => {
            out.push(1);
            put_uvarint(out, waits.len() as u64);
            for w in waits {
                put_uvarint(out, u64::from(w.tid));
                let (tag, id) = block_on_tag(w.on);
                out.push(tag);
                put_uvarint(out, id);
                put_uvarint(out, w.holders.len() as u64);
                for h in &w.holders {
                    put_uvarint(out, u64::from(*h));
                }
            }
        }
        TraceTermination::GuestError(msg) => {
            out.push(2);
            put_uvarint(out, msg.len() as u64);
            out.extend_from_slice(msg.as_bytes());
        }
        TraceTermination::FuelExhausted => out.push(3),
        TraceTermination::Unknown => out.push(4),
    }
    match &f.faults {
        None => out.push(0),
        Some(fs) => {
            out.push(1);
            for v in [
                fs.spurious_wakeups,
                fs.lock_failures,
                fs.alloc_failures,
                fs.kills,
                fs.leaked_locks,
                fs.leaked_bytes,
            ] {
                put_uvarint(out, v);
            }
        }
    }
}

/// Decode the footer body (cursor positioned just after [`TAG_FOOTER`]).
pub fn decode_footer_body(c: &mut Cursor<'_>) -> Result<TraceFooter, TraceError> {
    let events = c.uvarint()?;
    let epochs = c.uvarint()?;
    let slots = c.uvarint()?;
    let termination = match c.u8()? {
        0 => TraceTermination::AllExited,
        1 => {
            let nwaits = c.count("deadlock wait", 4)?;
            let mut waits = Vec::with_capacity(nwaits);
            for _ in 0..nwaits {
                let tid = c.uvarint()?;
                if tid >= MAX_THREADS {
                    return Err(c.corrupt("wait tid exceeds cap"));
                }
                let tag = c.u8()?;
                let id = c.uvarint()?;
                let on = block_on_from(tag, id, c)?;
                let nholders = c.count("wait holder", 1)?;
                let mut holders = Vec::with_capacity(nholders);
                for _ in 0..nholders {
                    let h = c.uvarint()?;
                    if h >= MAX_THREADS {
                        return Err(c.corrupt("holder tid exceeds cap"));
                    }
                    holders.push(h as u32);
                }
                waits.push(TraceWait { tid: tid as u32, on, holders });
            }
            TraceTermination::Deadlock(waits)
        }
        2 => {
            let len = c.count("guest error byte", 1)?;
            let bytes = c.bytes(len)?;
            let s = std::str::from_utf8(bytes).map_err(|_| c.corrupt("guest error not UTF-8"))?;
            TraceTermination::GuestError(s.to_string())
        }
        3 => TraceTermination::FuelExhausted,
        4 => TraceTermination::Unknown,
        other => return Err(c.corrupt(format!("bad termination tag {other}"))),
    };
    let faults = match c.u8()? {
        0 => None,
        1 => {
            let mut vals = [0u64; 6];
            for v in &mut vals {
                *v = c.uvarint()?;
            }
            Some(FaultStats {
                spurious_wakeups: vals[0],
                lock_failures: vals[1],
                alloc_failures: vals[2],
                kills: vals[3],
                leaked_locks: vals[4],
                leaked_bytes: vals[5],
            })
        }
        other => return Err(c.corrupt(format!("bad fault-stats flag {other}"))),
    };
    Ok(TraceFooter { events, epochs, slots, termination, faults })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `Cursor::uvarint` returned before its one-byte path: the
    /// general decode, with the cursor's error rules around it. Errors are
    /// compared by their rendering, which carries the offset.
    fn general_uvarint(buf: &[u8], pos: usize, base: u64) -> Result<(u64, usize), String> {
        let remaining = buf.len() - pos;
        match get_uvarint(&buf[pos..]) {
            Some((v, n)) => Ok((v, pos + n)),
            None if remaining < 10 => {
                Err(TraceError::Truncated { offset: base + pos as u64 }.to_string())
            }
            None => Err(TraceError::Corrupt {
                offset: base + pos as u64,
                detail: "overlong varint".into(),
            }
            .to_string()),
        }
    }

    fn cursor_uvarint(buf: &[u8], pos: usize, base: u64) -> Result<(u64, usize), String> {
        let mut c = Cursor { buf, pos, base };
        c.uvarint().map(|v| (v, c.pos)).map_err(|e| e.to_string())
    }

    #[test]
    fn uvarint_fast_path_matches_the_general_decode() {
        let base = 1000;
        // Every 1- and 2-byte input, read from the start of the buffer and
        // behind a one-byte prefix, so offsets are checked off zero too.
        for hi in 0..=255u8 {
            for buf in [vec![hi], vec![0x7f, hi]] {
                let pos = buf.len() - 1;
                assert_eq!(cursor_uvarint(&buf, pos, base), general_uvarint(&buf, pos, base));
            }
            for lo in 0..=255u8 {
                for buf in [vec![hi, lo], vec![0x7f, hi, lo]] {
                    let pos = buf.len() - 2;
                    assert_eq!(
                        cursor_uvarint(&buf, pos, base),
                        general_uvarint(&buf, pos, base),
                        "{buf:02x?}"
                    );
                }
            }
        }
        // At the end of the buffer: the same truncation offset.
        for buf in [&[][..], &[0x01], &[0x81, 0x01]] {
            let end = buf.len();
            let got = cursor_uvarint(buf, end, base);
            assert_eq!(got, general_uvarint(buf, end, base));
            assert_eq!(got, Err(TraceError::Truncated { offset: base + end as u64 }.to_string()));
        }
        // An 11-byte run of continuation bytes is overlong, not truncated.
        let overlong = [0xff; 11];
        let got = cursor_uvarint(&overlong, 0, base);
        assert_eq!(got, general_uvarint(&overlong, 0, base));
        assert!(got.is_err_and(|e| e.contains("overlong varint")));
    }
}
