//! The analysis service: batch scheduling of trace analysis over a worker
//! gate, the spool directory, and crash recovery. This layer owns the
//! equivalence contract: for any upload order, duplication, worker count,
//! or crash/restart schedule, the rendered catalogue byte-matches a
//! sequential offline fold over the same set of traces.
//!
//! How the pieces compose:
//! - **Dedup + reservation** (under one lock): a submit whose `(build,
//!   content-hash)` is already committed or in flight is answered from the
//!   index without re-analysis.
//! - **Spool before analyze**: the upload is durably renamed into the
//!   spool dir *before* analysis starts, so a crash at any later point is
//!   recovered by re-analyzing the spool on restart.
//! - **Analyze outside the lock**: the expensive replay runs under a
//!   counting gate (`--jobs`), many traces in flight at once. Analysis is
//!   deterministic per trace, so concurrency cannot change results.
//! - **Append, then fold, under the lock**: the log append is
//!   newline-committed, and only a committed block is folded into the
//!   warehouse state, a commutative fold keyed by content identity.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};

use helgrind_core::commitlog;
use helgrind_core::replay::{analyze_trace_bytes, warning_fingerprint};
use helgrind_core::{AnyDetector, DetectorConfig, SuppressionSet};
use raceline_trace::format::Fnv1a;

use crate::render::{
    diff_builds, render_catalogue, render_diff_json, render_stats, SessionCounters,
};
use crate::wlog::{TraceWarnings, WarehouseLog};
use crate::LOG_FILE;

/// How a `raceline serve` process is configured. The engine name and
/// `hb_reference` flag are the provenance stamped into the warehouse log;
/// a log recorded under a different configuration is rejected at open.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Spool directory: holds `warehouse.log` plus one
    /// `b<build>-<hash>.rltrace` file per committed or in-flight upload.
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
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
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
    let detector = AnyDetector::by_name(engine, cfg, SuppressionSet::new());
    let outcome = analyze_trace_bytes(bytes, detector, 1, 0).map_err(|e| e.to_string())?;
    let mut by_fp = std::collections::BTreeMap::new();
    for r in &outcome.reports {
        by_fp.insert(warning_fingerprint(r), (r.kind, r.file.clone(), r.line, r.func.clone()));
    }
    Ok((by_fp.into_values().collect(), outcome.footer.events))
}

/// Spool file name for an upload. Lexicographic directory order equals
/// `(build, hash)` order only within equal-width builds, so recovery sorts
/// on the parsed key, not the name.
fn spool_name(build: u64, hash: u64) -> String {
    format!("b{build}-{hash:016x}.rltrace")
}

fn parse_spool_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix('b')?.strip_suffix(".rltrace")?;
    let (build, hash) = rest.split_once('-')?;
    Some((build.parse().ok()?, u64::from_str_radix(hash, 16).ok()?))
}

/// What a submit resolved to.
#[derive(Clone, Copy, Debug)]
pub struct SubmitOutcome {
    pub build: u64,
    pub hash: u64,
    /// The `(build, hash)` pair was already committed or in flight; the
    /// upload was answered from the index without re-analysis.
    pub duplicate: bool,
    pub events: u64,
    pub warnings: u64,
}

struct Inner {
    log: WarehouseLog,
    /// `(build, hash)` pairs spooled but not yet committed to the log.
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
    gate: Gate,
}

impl Service {
    /// Open (or create) the warehouse under `config.spool`, recovering
    /// from any prior crash: cut the log to its committed prefix
    /// ([`commitlog::recover`]), then re-ingest any spooled trace the log
    /// has not committed. After `open` returns, the in-memory state is
    /// exactly the fold of the committed log plus the recovered spool.
    pub fn open(config: ServiceConfig) -> Result<Service, String> {
        let detector_cfg = config.detector_config()?;
        std::fs::create_dir_all(&config.spool)
            .map_err(|e| format!("cannot create spool dir {}: {e}", config.spool.display()))?;

        let header = WarehouseLog::new(&config.engine, config.hb_reference).header();
        let (log, _) = commitlog::recover(config.spool.join(LOG_FILE), &header, |text| {
            WarehouseLog::parse(text, Some((&config.engine, config.hb_reference)))
        })?;

        let jobs = config.jobs.max(1);
        let service = Service {
            detector_cfg,
            inner: Mutex::new(Inner {
                log,
                pending: BTreeSet::new(),
                session: SessionCounters::default(),
            }),
            gate: Gate { slots: Mutex::new(jobs), cv: Condvar::new() },
            config,
        };
        service.recover_spool()?;
        Ok(service)
    }

    /// Re-ingest spooled traces the log has not committed (key-sorted so
    /// recovery is deterministic) and sweep temp droppings. A spool file
    /// that no longer analyzes (e.g. a crash landed between spooling a
    /// corrupt upload and rejecting it) is removed, matching the submit
    /// path's rejection.
    fn recover_spool(&self) -> Result<(), String> {
        let dir = std::fs::read_dir(&self.config.spool)
            .map_err(|e| format!("{}: {e}", self.config.spool.display()))?;
        let mut found: BTreeSet<(u64, u64)> = BTreeSet::new();
        for entry in dir {
            let entry = entry.map_err(|e| format!("{}: {e}", self.config.spool.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if let Some(key) = parse_spool_name(&name) {
                found.insert(key);
            }
        }
        for (build, hash) in found {
            let committed = lock_ok(&self.inner).log.traces.contains_key(&(build, hash));
            if committed {
                continue;
            }
            let path = self.config.spool.join(spool_name(build, hash));
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => return Err(format!("{}: {e}", path.display())),
            };
            if content_hash(&bytes) != hash {
                // A spool file that does not match its name cannot be
                // trusted; drop it rather than commit a lie.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            match analyze_for_warehouse(&bytes, &self.config.engine, self.detector_cfg) {
                Ok((warnings, events)) => {
                    self.commit(build, hash, events, &warnings)?;
                }
                Err(_) => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(())
    }

    /// Ingest one uploaded trace. Never panics on corrupt input: analysis
    /// failures come back as `Err` (and the spooled copy is removed).
    pub fn submit(&self, build: u64, bytes: &[u8]) -> Result<SubmitOutcome, String> {
        let hash = content_hash(bytes);
        {
            let mut inner = lock_ok(&self.inner);
            inner.session.uploads += 1;
            if let Some(meta) = inner.log.traces.get(&(build, hash)).copied() {
                inner.session.dedup_hits += 1;
                return Ok(SubmitOutcome {
                    build,
                    hash,
                    duplicate: true,
                    events: meta.events,
                    warnings: meta.warnings,
                });
            }
            if inner.pending.contains(&(build, hash)) {
                // A concurrent submit of identical content is already in
                // flight; its commit will be byte-identical, so this one
                // is a pure duplicate.
                inner.session.dedup_hits += 1;
                return Ok(SubmitOutcome { build, hash, duplicate: true, events: 0, warnings: 0 });
            }
            inner.pending.insert((build, hash));
        }

        let result = self.ingest_reserved(build, hash, bytes);
        if result.is_err() {
            let _ = std::fs::remove_file(self.config.spool.join(spool_name(build, hash)));
        }
        lock_ok(&self.inner).pending.remove(&(build, hash));
        result
    }

    fn ingest_reserved(
        &self,
        build: u64,
        hash: u64,
        bytes: &[u8],
    ) -> Result<SubmitOutcome, String> {
        // Durable first: tmp + rename so the spool never holds a torn
        // trace, then analysis, then the committed log block.
        let final_path = self.config.spool.join(spool_name(build, hash));
        let tmp_path = self.config.spool.join(format!(".b{build}-{hash:016x}.tmp"));
        std::fs::write(&tmp_path, bytes).map_err(|e| format!("{}: {e}", tmp_path.display()))?;
        std::fs::rename(&tmp_path, &final_path)
            .map_err(|e| format!("{}: {e}", final_path.display()))?;

        self.gate.acquire();
        let analyzed = analyze_for_warehouse(bytes, &self.config.engine, self.detector_cfg);
        self.gate.release();
        let (warnings, events) = analyzed?;

        self.commit(build, hash, events, &warnings)?;
        Ok(SubmitOutcome { build, hash, duplicate: false, events, warnings: warnings.len() as u64 })
    }

    /// Append the block to the log, then fold it into memory, atomically
    /// with respect to other connections (one lock covers both, so
    /// concurrent blocks never interleave in the log). A failed append
    /// folds nothing: memory never holds what the log does not.
    fn commit(
        &self,
        build: u64,
        hash: u64,
        events: u64,
        warnings: &TraceWarnings,
    ) -> Result<(), String> {
        let mut inner = lock_ok(&self.inner);
        self.append(&WarehouseLog::ingest_block(build, hash, events, warnings))?;
        inner.log.fold_ingest(build, hash, events, warnings);
        Ok(())
    }

    fn append(&self, block: &str) -> Result<(), String> {
        let path = self.config.spool.join(LOG_FILE);
        commitlog::append(&path, block).map_err(|e| format!("{}: {e}", path.display()))
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
        self.append(&WarehouseLog::suppress_line(fingerprint, on))?;
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
    fn spool_name_round_trip() {
        assert_eq!(parse_spool_name(&spool_name(7, 0xdead_beef)), Some((7, 0xdead_beef)));
        assert_eq!(parse_spool_name("warehouse.log"), None);
        assert_eq!(parse_spool_name("b3-xyz.rltrace"), None);
        assert_eq!(parse_spool_name(".b3-0.tmp"), None);
    }

    #[test]
    fn content_hash_matches_fnv() {
        let mut h = Fnv1a::default();
        h.update(b"abc");
        assert_eq!(content_hash(b"abc"), h.0);
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
    }
}
