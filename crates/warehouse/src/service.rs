//! The analysis service: batch scheduling of trace analysis over a worker
//! gate, the spool directory, and crash recovery. This layer owns the
//! equivalence contract: for any upload order, duplication, worker count,
//! or crash/restart schedule, the rendered catalogue byte-matches a
//! sequential offline fold over the same set of traces.
//!
//! How the pieces compose:
//! - **Dedup + reservation** (under one lock): a submit whose `(build,
//!   content-hash)` is already committed is answered from the index
//!   without re-analysis; one whose key is in flight waits for that
//!   ingest to settle first.
//! - **Analyze outside the lock**: the expensive replay runs from memory
//!   under a counting gate (`--jobs`), many traces in flight at once.
//!   Analysis is deterministic per trace, so concurrency cannot change
//!   results. An upload that fails analysis never reaches disk.
//! - **Spool, append, then fold, under the lock**: the upload is appended
//!   as one record to the spool file `uploads.spool`, then its block to the
//!   newline-committed log; a failed log append cuts the record back. Only
//!   a committed block is folded into the warehouse state, a commutative
//!   fold keyed by content identity. A crash between the two appends
//!   leaves a spooled upload the log lacks, which `Service::open`
//!   re-ingests.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};

use helgrind_core::commitlog::{self, Record, RecordFile};
use helgrind_core::replay::{analyze_trace_hashed, warning_fingerprint};
use helgrind_core::{AnyDetector, DetectorConfig, SuppressionSet};
use raceline_trace::format::{Fnv1a, TRAILER_LEN};

use crate::render::{
    diff_builds, render_catalogue, render_diff_json, render_stats, SessionCounters,
};
use crate::wlog::{TraceWarnings, WarehouseLog};
use crate::{LOG_FILE, SPOOL_FILE};

/// How a `raceline serve` process is configured. The engine name and
/// `hb_reference` flag are the provenance stamped into the warehouse log;
/// a log recorded under a different configuration is rejected at open.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Spool directory: holds `warehouse.log` and `uploads.spool`, which
    /// keeps each committed upload's bytes as one record.
    pub spool: PathBuf,
    /// Detector preset name (`hwlc-dr`, `djit`, ...), resolved via
    /// [`DetectorConfig::by_name`].
    pub engine: String,
    /// Run HB read state as the reference vector clock (§13 oracle mode).
    /// `raceline serve` always opens with `false`; the field stays because
    /// the benchmark harness builds this struct.
    pub hb_reference: bool,
    /// Concurrent analysis slots (`--jobs`). Values < 1 clamp to 1.
    pub jobs: usize,
}

impl ServiceConfig {
    fn detector_config(&self) -> Result<DetectorConfig, String> {
        let mut cfg = DetectorConfig::by_name(&self.engine)
            .ok_or_else(|| format!("unknown detector: {}", self.engine))?;
        cfg.hb_reference = self.hb_reference;
        Ok(cfg)
    }
}

/// FNV-1a-64 over the raw upload bytes: the content half of the
/// `(build, hash)` dedup identity.
pub fn content_hash(bytes: &[u8]) -> u64 {
    upload_hashes(bytes).content
}

/// What one FNV-1a pass over an upload yields.
#[derive(Clone, Copy)]
struct UploadHashes {
    /// Over every byte: [`content_hash`].
    content: u64,
    /// Over the trace body, every byte before the trailer: what the trace's
    /// stored checksum must equal, so replay need not hash it again.
    body: u64,
}

/// Hash an upload once. FNV-1a runs byte by byte, so the body's hash is
/// the running value where the trailer starts, on the way to the content
/// hash. An upload shorter than the trailer has an empty body; replay
/// refuses it before it reads a checksum.
fn upload_hashes(bytes: &[u8]) -> UploadHashes {
    let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(TRAILER_LEN));
    let mut h = Fnv1a::default();
    h.update(body);
    let body = h.0;
    h.update(trailer);
    UploadHashes { content: h.0, body }
}

/// Analyze one trace the exact way `raceline analyze` would (same
/// detector construction, same replay) and reduce the reports to
/// fingerprint-sorted warehouse warnings. The sort plus dedup makes the
/// committed block deterministic even if two distinct reports ever
/// resolved to the same fingerprint.
pub fn analyze_for_warehouse(
    bytes: &[u8],
    engine: &str,
    cfg: DetectorConfig,
) -> Result<(TraceWarnings, u64), String> {
    analyze_hashed(bytes, None, engine, cfg)
}

/// [`analyze_for_warehouse`], with the body hash of an upload that
/// [`upload_hashes`] has already hashed.
fn analyze_hashed(
    bytes: &[u8],
    body_hash: Option<u64>,
    engine: &str,
    cfg: DetectorConfig,
) -> Result<(TraceWarnings, u64), String> {
    let detector = AnyDetector::by_name(engine, cfg, SuppressionSet::new());
    let outcome =
        analyze_trace_hashed(bytes, body_hash, detector, 1, 0).map_err(|e| e.to_string())?;
    let mut by_fp = std::collections::BTreeMap::new();
    for r in &outcome.reports {
        by_fp.insert(warning_fingerprint(r), (r.kind, r.file.clone(), r.line, r.func.clone()));
    }
    Ok((by_fp.into_values().collect(), outcome.footer.events))
}

/// The head of an upload's spool record, `upload <build> <hash>`; the
/// record file adds the body's length.
fn upload_head(build: u64, hash: u64) -> String {
    format!("upload {build} {hash:016x}")
}

fn parse_upload_head(head: &str) -> Option<(u64, u64)> {
    let mut fields = head.strip_prefix("upload ")?.split(' ');
    let build = fields.next()?.parse().ok()?;
    let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
    fields.next().is_none().then_some((build, hash))
}

/// What a submit resolved to.
#[derive(Clone, Copy, Debug)]
pub struct SubmitOutcome {
    pub build: u64,
    pub hash: u64,
    /// The `(build, hash)` pair was already committed, or was committed by
    /// the submit in flight this one waited for; the upload was answered
    /// from the index without re-analysis.
    pub duplicate: bool,
    pub events: u64,
    pub warnings: u64,
}

struct Inner {
    log: WarehouseLog,
    /// The upload spool; its appends are ordered with the log's by this
    /// lock.
    spool: RecordFile,
    /// `(build, hash)` pairs being ingested: reserved, not yet committed
    /// or refused.
    pending: BTreeSet<(u64, u64)>,
    session: SessionCounters,
}

/// Counting gate bounding concurrent analyses at `--jobs`.
struct Gate {
    slots: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn acquire(&self) {
        let mut s = lock_ok(&self.slots);
        while *s == 0 {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        *s -= 1;
    }

    fn release(&self) {
        *lock_ok(&self.slots) += 1;
        self.cv.notify_one();
    }
}

/// Lock that shrugs off poisoning: a panicking peer must degrade one
/// request, never wedge the whole server.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The report warehouse service. Shared across connection handler threads
/// by reference (`&Service` is `Sync`).
pub struct Service {
    config: ServiceConfig,
    detector_cfg: DetectorConfig,
    inner: Mutex<Inner>,
    /// Signalled whenever a key leaves `pending`.
    settled: Condvar,
    gate: Gate,
}

/// A key held in `pending` by one ingest; dropping it, on success,
/// failure or unwinding alike, releases the key and wakes the submits
/// waiting on it.
struct Reservation<'a> {
    service: &'a Service,
    key: (u64, u64),
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        lock_ok(&self.service.inner).pending.remove(&self.key);
        self.service.settled.notify_all();
    }
}

impl Service {
    /// Open (or create) the warehouse under `config.spool`, recovering
    /// from any prior crash: cut the log to its committed prefix
    /// ([`commitlog::recover`]) and the spool to its whole records
    /// ([`RecordFile::recover`]), then re-ingest any spooled upload the
    /// log has not committed. After `open` returns, the in-memory state is
    /// exactly the fold of the committed log plus the recovered spool.
    /// Files of the retired one-file-per-upload layout are left alone.
    pub fn open(config: ServiceConfig) -> Result<Service, String> {
        let detector_cfg = config.detector_config()?;
        std::fs::create_dir_all(&config.spool)
            .map_err(|e| format!("cannot create spool dir {}: {e}", config.spool.display()))?;

        let header = WarehouseLog::new(&config.engine, config.hb_reference).header();
        let (log, _) = commitlog::recover(config.spool.join(LOG_FILE), &header, |text| {
            WarehouseLog::parse(text, Some((&config.engine, config.hb_reference)))
        })?;

        let (spool, records) = RecordFile::recover(config.spool.join(SPOOL_FILE))?;

        let jobs = config.jobs.max(1);
        let service = Service {
            detector_cfg,
            inner: Mutex::new(Inner {
                log,
                spool,
                pending: BTreeSet::new(),
                session: SessionCounters::default(),
            }),
            settled: Condvar::new(),
            gate: Gate { slots: Mutex::new(jobs), cv: Condvar::new() },
            config,
        };
        service.recover_spool(&records)?;
        Ok(service)
    }

    /// Re-ingest, in spool order, the whole records the log has not
    /// committed: a crash landed between an upload's record and its log
    /// block. Committed records are passed over unread. A record that no
    /// longer hashes to its head, or no longer analyzes, is skipped and
    /// kept: it was never acknowledged, and nothing here deletes.
    fn recover_spool(&self, records: &[Record]) -> Result<(), String> {
        for record in records {
            let Some((build, hash)) = parse_upload_head(&record.head) else {
                continue;
            };
            let inner = lock_ok(&self.inner);
            if inner.log.traces.contains_key(&(build, hash)) {
                continue;
            }
            let bytes = inner.spool.read(record).map_err(|e| e.to_string())?;
            drop(inner);
            let hashes = upload_hashes(&bytes);
            if hashes.content != hash {
                continue;
            }
            if let Ok((warnings, events)) = self.analyze(&bytes, hashes) {
                self.commit(build, hash, None, events, &warnings)?;
            }
        }
        Ok(())
    }

    /// Ingest one uploaded trace. Never panics on corrupt input: analysis
    /// failures come back as `Err`, and nothing of the upload is written.
    /// A submit of a `(build, hash)` another submit is ingesting waits
    /// until that one commits (then it is a duplicate) or fails (then it
    /// ingests the upload itself).
    pub fn submit(&self, build: u64, bytes: &[u8]) -> Result<SubmitOutcome, String> {
        let hashes = upload_hashes(bytes);
        let hash = hashes.content;
        let key = (build, hash);
        let _reservation = {
            let mut inner = lock_ok(&self.inner);
            inner.session.uploads += 1;
            loop {
                if let Some(meta) = inner.log.traces.get(&key).copied() {
                    inner.session.dedup_hits += 1;
                    return Ok(SubmitOutcome {
                        build,
                        hash,
                        duplicate: true,
                        events: meta.events,
                        warnings: meta.warnings,
                    });
                }
                if !inner.pending.contains(&key) {
                    break;
                }
                inner = self.settled.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
            inner.pending.insert(key);
            Reservation { service: self, key }
        };

        self.gate.acquire();
        let analyzed = self.analyze(bytes, hashes);
        self.gate.release();
        let (warnings, events) = analyzed?;

        self.commit(build, hash, Some(bytes), events, &warnings)?;
        Ok(SubmitOutcome { build, hash, duplicate: false, events, warnings: warnings.len() as u64 })
    }

    /// Analyze an upload under the service's engine, checking its trace
    /// checksum against the body hash taken with its content hash.
    fn analyze(&self, bytes: &[u8], hashes: UploadHashes) -> Result<(TraceWarnings, u64), String> {
        analyze_hashed(bytes, Some(hashes.body), &self.config.engine, self.detector_cfg)
    }

    /// Spool the `upload` (`None` when its record is already spooled),
    /// append its block to the log, then fold it into memory, atomically
    /// with respect to other connections (one lock covers all three, so
    /// concurrent records and blocks never interleave). A failed append
    /// folds nothing and cuts the record back: memory never holds what the
    /// log does not, and the spool holds no upload the log refused.
    fn commit(
        &self,
        build: u64,
        hash: u64,
        upload: Option<&[u8]>,
        events: u64,
        warnings: &TraceWarnings,
    ) -> Result<(), String> {
        let mut inner = lock_ok(&self.inner);
        let block = WarehouseLog::ingest_block(build, hash, events, warnings);
        match upload {
            Some(bytes) => {
                inner.spool.append(&upload_head(build, hash), bytes, || self.append(&block))
            }
            None => self.append(&block),
        }
        .map_err(|e| e.to_string())?;
        inner.log.fold_ingest(build, hash, events, warnings);
        Ok(())
    }

    /// Append to the log; errors name its path.
    fn append(&self, block: &str) -> std::io::Result<()> {
        let path = self.config.spool.join(LOG_FILE);
        commitlog::append(&path, block)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// The catalogue text — the byte-compared equivalence artifact.
    pub fn query(&self) -> String {
        render_catalogue(&lock_ok(&self.inner).log)
    }

    /// Regression edges between two builds, in the `trace-diff --json`
    /// schema (same renderer, hence byte-identical).
    pub fn diff(&self, build_a: u64, build_b: u64) -> String {
        let inner = lock_ok(&self.inner);
        let (new, fixed, unchanged) = diff_builds(&inner.log, build_a, build_b);
        render_diff_json(&inner.log.engine, &inner.log.engine, &new, &fixed, unchanged)
    }

    /// Flip a fingerprint's suppression state. Returns whether the state
    /// changed; the flip is durable (self-committing log line), appended
    /// before it is folded, like an ingest.
    pub fn suppress(&self, fingerprint: &str, on: bool) -> Result<bool, String> {
        let mut inner = lock_ok(&self.inner);
        if inner.log.suppressed.contains(fingerprint) == on {
            return Ok(false);
        }
        self.append(&WarehouseLog::suppress_line(fingerprint, on)).map_err(|e| e.to_string())?;
        Ok(inner.log.fold_suppress(fingerprint, on))
    }

    /// Durable totals plus session counters, as JSON.
    pub fn stats(&self) -> String {
        let inner = lock_ok(&self.inner);
        render_stats(&inner.log, inner.session)
    }

    /// Engine provenance, for response stamping.
    pub fn engine(&self) -> &str {
        &self.config.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_head_round_trip() {
        assert_eq!(upload_head(7, 0xdead_beef), "upload 7 00000000deadbeef");
        assert_eq!(parse_upload_head(&upload_head(7, 0xdead_beef)), Some((7, 0xdead_beef)));
        assert_eq!(parse_upload_head("upload 3 xyz"), None);
        assert_eq!(parse_upload_head("upload 3 00ff 9"), None);
        assert_eq!(parse_upload_head("trace 3 00ff"), None);
    }

    #[test]
    fn content_hash_matches_fnv() {
        let mut h = Fnv1a::default();
        h.update(b"abc");
        assert_eq!(content_hash(b"abc"), h.0);
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
    }

    /// The one pass yields the content hash of every byte and, on the way,
    /// the hash of every byte before the trailer, whatever the length.
    #[test]
    fn one_pass_yields_content_and_body_hashes() {
        let fnv = |b: &[u8]| {
            let mut h = Fnv1a::default();
            h.update(b);
            h.0
        };
        let bytes: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37)).collect();
        for len in 0..=bytes.len() {
            let upload = &bytes[..len];
            let hashes = upload_hashes(upload);
            assert_eq!(hashes.content, fnv(upload), "len {len}");
            assert_eq!(hashes.body, fnv(&upload[..len.saturating_sub(TRAILER_LEN)]), "len {len}");
        }
    }
}
