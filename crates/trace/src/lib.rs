//! # raceline-trace
//!
//! Binary event-trace record/replay for the raceline VM: the `.rltrace`
//! format, a [`TraceWriter`] that plugs into the VM's `Tool` interface,
//! and readers for offline, shardable analysis.
//!
//! The paper runs its detector *inline* and pays the full detection
//! slowdown on every execution. This crate decouples the two phases:
//!
//! 1. **Record** — run the program once with a [`TraceWriter`] as the
//!    tool. Capture does no detection work; it delta-encodes the event
//!    stream (typically a handful of bytes per event) and periodically
//!    emits **epoch frames** snapshotting per-thread sync state.
//! 2. **Analyze** — feed the recorded trace through any detector
//!    configuration in `helgrind-core`, as many times as you like,
//!    without re-executing the VM. Reports are byte-identical to the
//!    inline run. Epoch frames reset the delta codec, so epochs decode
//!    independently and analysis shards across threads; they also carry
//!    enough state to start analysis mid-trace.
//!
//! Wire format details live in DESIGN.md §9; the codec itself is split
//! across [`varint`] (LEB128 + zigzag primitives), [`format`] (record
//! tags, frame layout, encode/decode), [`writer`], and [`reader`].
//!
//! Robustness contract: no input, however corrupted, truncated, or
//! version-skewed, may panic a reader — every failure is a structured
//! [`TraceError`]. A whole-file FNV-1a checksum in the footer makes any
//! single-byte corruption detectable.

pub mod format;
pub mod reader;
pub mod varint;
pub mod writer;

pub use format::{
    EpochSnapshot, HeldLock, ThreadSnap, TraceBlock, TraceError, TraceFooter, TraceHeader,
    TraceRecord, TraceTermination, TraceWait, MAGIC, VERSION,
};
pub use reader::{decode_epoch, parse_trace, EpochDesc, ParsedTrace};
pub use writer::{trace_termination, TraceSummary, TraceWriter, DEFAULT_EPOCH_EVENTS};
