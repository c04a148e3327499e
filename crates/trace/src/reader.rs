//! Reading `.rltrace` files: a whole-file structural parse and a
//! per-epoch decode.
//!
//! [`parse_trace`] validates the envelope up front — magic, version, end
//! magic, whole-file checksum — then walks the frame sequence recording
//! each epoch's snapshot and payload extent *without* decoding payloads.
//! That split is what makes sharded analysis possible: epoch payloads are
//! codec-independent, so [`decode_epoch`] calls can run on any thread in
//! any order. The checks that span frames (each snapshot's per-thread
//! sequence numbers against the records decoded before it, the footer's
//! event count against the whole stream) need the records in stream
//! order, so they run in the replay fold (`helgrind_core::replay`).
//!
//! A caller that has already hashed the file passes the hash of its body
//! to [`parse_trace_hashed`], which compares it with the stored checksum
//! instead of hashing every byte a second time.

use crate::format::{
    decode_footer_body, decode_header, decode_record, decode_snapshot, CodecState, Cursor,
    EpochSnapshot, Fnv1a, TraceError, TraceFooter, TraceHeader, TraceRecord, TraceTermination,
    END_MAGIC, MAGIC, TAG_EPOCH, TAG_FOOTER, TRAILER_LEN, VERSION,
};

/// One epoch frame located by [`parse_trace`]: its snapshot plus the byte
/// extent of its (still encoded) payload.
#[derive(Clone, Debug)]
pub struct EpochDesc {
    pub snapshot: EpochSnapshot,
    pub payload_offset: usize,
    pub payload_len: usize,
}

/// Result of a structural parse: header, epoch directory, footer. Payloads
/// are not decoded; pair with [`decode_epoch`].
#[derive(Clone, Debug)]
pub struct ParsedTrace {
    pub header: TraceHeader,
    pub epochs: Vec<EpochDesc>,
    pub footer: TraceFooter,
}

/// Structurally parse a complete trace. Checksum and envelope are
/// verified before anything else, so a single flipped byte anywhere in
/// the file is guaranteed to surface as an error here.
pub fn parse_trace(bytes: &[u8]) -> Result<ParsedTrace, TraceError> {
    parse_trace_hashed(bytes, None)
}

/// [`parse_trace`], given the FNV-1a of the body when the caller already
/// has it. The body is every byte before the [`TRAILER_LEN`]-byte trailer;
/// `Some(hash)` is compared with the stored checksum in place of hashing
/// the body here, and `None` hashes it. The checks and their order are the
/// same either way.
pub fn parse_trace_hashed(bytes: &[u8], body_hash: Option<u64>) -> Result<ParsedTrace, TraceError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 {
        return Err(TraceError::Truncated { offset: bytes.len() as u64 });
    }
    // Infallible: the length check above guarantees bytes 8..12 exist.
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(TraceError::BadVersion { found: version, expected: VERSION });
    }
    // Envelope: ... | checksum u64 LE | END_MAGIC (neither is hashed).
    if bytes.len() < 12 + TRAILER_LEN || &bytes[bytes.len() - END_MAGIC.len()..] != END_MAGIC {
        return Err(TraceError::Truncated { offset: bytes.len() as u64 });
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    // Infallible: the envelope check above guarantees the trailer, and the
    // slice is exactly TRAILER_LEN - END_MAGIC.len() == 8 wide.
    let stored = u64::from_le_bytes(
        bytes[body.len()..bytes.len() - END_MAGIC.len()].try_into().expect("8 bytes"),
    );
    let found = body_hash.unwrap_or_else(|| {
        let mut h = Fnv1a::default();
        h.update(body);
        h.0
    });
    if found != stored {
        return Err(TraceError::ChecksumMismatch { expected: stored, found });
    }
    let mut c = Cursor::new(body, 0);
    let header = decode_header(&mut c)?;
    let nsyms = header.symbols.len() as u32;
    let mut epochs: Vec<EpochDesc> = Vec::new();
    loop {
        let tag = c.u8()?;
        if tag == TAG_EPOCH {
            epochs.push(epoch_frame(&mut c, epochs.len(), nsyms)?);
        } else if tag == TAG_FOOTER {
            let footer = decode_footer_body(&mut c)?;
            if !c.is_empty() {
                return Err(c.corrupt("trailing bytes after footer"));
            }
            if footer.epochs != epochs.len() as u64 {
                return Err(c.corrupt(format!(
                    "footer claims {} epochs, file has {}",
                    footer.epochs,
                    epochs.len()
                )));
            }
            return Ok(ParsedTrace { header, epochs, footer });
        } else {
            return Err(c.corrupt(format!("unknown frame tag {tag:#04x}")));
        }
    }
}

/// Read one epoch frame after its tag: the index, which must be
/// `expected`, the snapshot and the payload's extent. The payload is
/// skipped, not decoded.
fn epoch_frame(c: &mut Cursor<'_>, expected: usize, nsyms: u32) -> Result<EpochDesc, TraceError> {
    let index = c.uvarint()?;
    if index != expected as u64 {
        return Err(c.corrupt(format!("epoch index {index} out of order (expected {expected})")));
    }
    let snapshot = decode_snapshot(c, index, nsyms)?;
    let payload_len = c.count("payload byte", 1)?;
    let payload_offset = c.pos;
    c.bytes(payload_len)?;
    Ok(EpochDesc { snapshot, payload_offset, payload_len })
}

/// A crash-truncated trace recovered by [`parse_trace_repair`].
#[derive(Clone, Debug)]
pub struct RepairedTrace {
    pub parsed: ParsedTrace,
    /// `false` when the file was whole and no repair was needed.
    pub repaired: bool,
    /// Bytes of torn tail discarded (0 when `repaired` is false).
    pub dropped_bytes: usize,
}

/// Tolerant parse for crash-truncated traces: when the envelope trailer is
/// missing (the writer died before its final flush), re-walk the frame
/// sequence keeping every epoch that is *completely* present, drop the
/// torn tail, and synthesize a footer for the intact prefix — the offline
/// twin of the soak log's torn-tail rule.
///
/// Only [`TraceError::Truncated`] triggers repair. A file whose trailer
/// *is* present but whose body fails its checksum or structure is corrupt,
/// not torn, and that error propagates unchanged — repair must never paper
/// over real corruption.
pub fn parse_trace_repair(bytes: &[u8]) -> Result<RepairedTrace, TraceError> {
    match parse_trace(bytes) {
        Ok(parsed) => return Ok(RepairedTrace { parsed, repaired: false, dropped_bytes: 0 }),
        Err(TraceError::Truncated { .. }) => {}
        Err(e) => return Err(e),
    }
    // No trailer: everything after the version word is unverified body.
    // The header must decode fully — without the symbol table nothing in
    // the file can be interpreted.
    let mut c = Cursor::new(bytes, 0);
    let header = decode_header(&mut c)?;
    let nsyms = header.symbols.len() as u32;
    let after_header = c.pos;
    let mut epochs: Vec<EpochDesc> = Vec::new();
    let mut end_of_good = after_header;
    while let Ok(tag) = c.u8() {
        if tag != TAG_EPOCH {
            // A footer tag here would mean the trailer was torn off a
            // complete body; its epoch count can no longer be trusted
            // against a checksum, so treat it like any other torn tail.
            break;
        }
        match epoch_frame(&mut c, epochs.len(), nsyms) {
            Ok(desc) => {
                end_of_good = c.pos;
                epochs.push(desc);
            }
            Err(_) => break,
        }
    }
    // An epoch frame can be structurally whole while its payload tail is
    // garbage (the torn write landed inside the declared extent). Verify
    // the final epochs actually decode, dropping any that do not; the
    // decode that keeps the last epoch also counts its events.
    let mut in_last = 0u64;
    while let Some(desc) = epochs.last() {
        match decode_epoch(bytes, desc, nsyms) {
            Ok(recs) => {
                in_last = recs.iter().filter(|r| matches!(r, TraceRecord::Event(_))).count() as u64;
                break;
            }
            Err(_) => {
                end_of_good = epochs[..epochs.len() - 1]
                    .last()
                    .map_or(after_header, |d| d.payload_offset + d.payload_len);
                epochs.pop();
            }
        }
    }
    // The synthesized footer's event count must match the decoded stream
    // (analyze cross-checks it): events before the last epoch are the sum
    // of its snapshot's per-thread sequence numbers, plus the last epoch's
    // own. The sum saturates: the snapshot is unverified input, and a
    // miscounted footer fails analysis where an overflow would panic.
    let events = epochs.last().map_or(0, |desc| {
        desc.snapshot.threads.iter().fold(in_last, |n, t| n.saturating_add(t.seq))
    });
    let footer = TraceFooter {
        events,
        epochs: epochs.len() as u64,
        slots: 0,
        termination: TraceTermination::Unknown,
        faults: None,
    };
    Ok(RepairedTrace {
        parsed: ParsedTrace { header, epochs, footer },
        repaired: true,
        dropped_bytes: bytes.len() - end_of_good,
    })
}

/// Decode one epoch's payload into records. Self-contained: the delta
/// codec resets at every epoch boundary, so this needs nothing but the
/// raw bytes and the symbol-table size.
pub fn decode_epoch(
    bytes: &[u8],
    desc: &EpochDesc,
    nsyms: u32,
) -> Result<Vec<TraceRecord>, TraceError> {
    let payload = &bytes[desc.payload_offset..desc.payload_offset + desc.payload_len];
    let mut c = Cursor::new(payload, desc.payload_offset as u64);
    let mut state = CodecState::default();
    let mut recs = Vec::new();
    while !c.is_empty() {
        recs.push(decode_record(&mut c, &mut state, nsyms)?);
    }
    Ok(recs)
}
