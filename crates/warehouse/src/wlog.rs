//! The warehouse's durable state: an append-only, newline-committed line
//! log in the same idiom as the soak log (§12). Layout per ingested trace:
//! the trace's `warn` lines first, then one `trace` line acting as the
//! commit record. `suppress` lines are single-line and therefore
//! self-committing. This module is the format only; writing, the commit
//! rule and crash recovery are [`helgrind_core::commitlog`]'s.

use std::collections::{BTreeMap, BTreeSet};

use helgrind_core::commitlog::{esc, unesc};
use helgrind_core::replay::fingerprint;
use helgrind_core::ReportKind;

pub const LOG_MAGIC: &str = "raceline-warehouse-log v1";

/// One fingerprint-deduped warning location in the warehouse catalogue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarehouseEntry {
    pub kind: ReportKind,
    pub file: String,
    pub line: u32,
    pub func: String,
    /// Distinct ingested traces that reported this location.
    pub hits: u64,
    /// Every build id that reported it. First-seen = min, last-seen = max;
    /// a set (not a min/max pair) so per-build warning counts and
    /// build-to-build diffs fall out of the same fold.
    pub builds: BTreeSet<u64>,
}

impl WarehouseEntry {
    pub fn first_build(&self) -> u64 {
        self.builds.first().copied().unwrap_or(0)
    }

    pub fn last_build(&self) -> u64 {
        self.builds.last().copied().unwrap_or(0)
    }
}

/// Per-trace accounting, keyed by `(build, content hash)` — the exact
/// dedup identity for uploads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    pub events: u64,
    pub warnings: u64,
}

/// What one build contributed, kept current by
/// [`WarehouseLog::fold_ingest`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildCounts {
    /// Distinct traces uploaded for the build.
    pub traces: u64,
    /// Catalogue entries that list the build.
    pub warnings: u64,
}

/// The durable warehouse state, a pure fold over the log's committed
/// blocks. Every container is a BTree keyed by value (fingerprint,
/// `(build, hash)`), and every fold step is commutative — which is what
/// makes the rendered catalogue a function of the *set* of ingested
/// traces, independent of upload order and worker interleaving.
#[derive(Clone, Debug, Default)]
pub struct WarehouseLog {
    /// Engine-config provenance: detector preset name.
    pub engine: String,
    /// Engine-config provenance: HB read-state representation toggle.
    pub hb_reference: bool,
    /// Fingerprint → catalogue entry.
    pub entries: BTreeMap<String, WarehouseEntry>,
    /// `(build, FNV-1a-64 of the trace bytes)` → per-trace accounting.
    pub traces: BTreeMap<(u64, u64), TraceMeta>,
    /// Build id → its trace and warning counts, for every build that
    /// uploaded a trace: what the catalogue's build lines print, without
    /// a scan of every entry's build set per query.
    pub builds: BTreeMap<u64, BuildCounts>,
    /// Fingerprints currently marked suppressed (triage state, not the
    /// Valgrind-style pattern suppressions applied at analysis time).
    pub suppressed: BTreeSet<String>,
}

/// The warnings of one analyzed trace, ready to commit: `(kind, file,
/// line, func)` per distinct fingerprint (the report sink already dedups
/// within a trace by kind + location).
pub type TraceWarnings = Vec<(ReportKind, String, u32, String)>;

impl WarehouseLog {
    pub fn new(engine: &str, hb_reference: bool) -> Self {
        WarehouseLog { engine: engine.to_string(), hb_reference, ..Self::default() }
    }

    /// The log header: magic + engine-config provenance. Written once at
    /// creation; [`Self::parse`] rejects a log whose provenance does not
    /// match what the serving process was configured with — mixing engine
    /// configs in one warehouse would break fingerprint comparability.
    pub fn header(&self) -> String {
        format!(
            "{LOG_MAGIC}\nengine {}\t{}\n",
            esc(&self.engine),
            if self.hb_reference { 1 } else { 0 }
        )
    }

    /// Render one ingest block: the trace's `warn` lines, then the `trace`
    /// commit line. Appending this is the only way trace state enters the
    /// log.
    pub fn ingest_block(build: u64, hash: u64, events: u64, warnings: &TraceWarnings) -> String {
        let mut s = String::new();
        for (kind, file, line, func) in warnings {
            s.push_str(&format!("warn {}\t{line}\t{}\t{}\n", kind.code(), esc(file), esc(func)));
        }
        s.push_str(&format!("trace {build}\t{hash:016x}\t{events}\t{}\n", warnings.len()));
        s
    }

    /// Render one suppression flip (self-committing single line).
    pub fn suppress_line(fingerprint: &str, on: bool) -> String {
        format!("suppress {}\t{}\n", u8::from(on), esc(fingerprint))
    }

    /// Fold one committed ingest into the in-memory state. Commutative:
    /// entry hits count distinct traces, builds are a set, traces are keyed
    /// by content identity. A warning counts for a build when its entry
    /// first lists that build.
    pub fn fold_ingest(&mut self, build: u64, hash: u64, events: u64, warnings: &TraceWarnings) {
        for (kind, file, line, func) in warnings {
            let fp = fingerprint(*kind, file, *line, func);
            let e = self.entries.entry(fp).or_insert_with(|| WarehouseEntry {
                kind: *kind,
                file: file.clone(),
                line: *line,
                func: func.clone(),
                hits: 0,
                builds: BTreeSet::new(),
            });
            e.hits += 1;
            if e.builds.insert(build) {
                self.builds.entry(build).or_default().warnings += 1;
            }
        }
        let meta = TraceMeta { events, warnings: warnings.len() as u64 };
        if self.traces.insert((build, hash), meta).is_none() {
            self.builds.entry(build).or_default().traces += 1;
        }
    }

    /// Fold one suppression flip.
    pub fn fold_suppress(&mut self, fingerprint: &str, on: bool) -> bool {
        if on {
            self.suppressed.insert(fingerprint.to_string())
        } else {
            self.suppressed.remove(fingerprint)
        }
    }

    /// Strict parse of a committed log. `expect_engine` pins the
    /// provenance the serving process was configured with. A record with
    /// the wrong number of fields, or trailing `warn` lines no `trace`
    /// line seals, is an error.
    pub fn parse(text: &str, expect_engine: Option<(&str, bool)>) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l == LOG_MAGIC => {}
            Some((_, l)) => return Err(format!("bad magic: {l:?}")),
            None => return Err("empty log".to_string()),
        }
        let engine_line = lines.next().ok_or("missing engine line")?.1;
        let rest = engine_line.strip_prefix("engine ").ok_or("missing engine line")?;
        let f = fields(rest, 2, 2, "engine")?;
        let engine = unesc(f[0]);
        let hb_reference = match f[1] {
            "0" => false,
            "1" => true,
            other => return Err(format!("engine line: bad hb flag {other:?}")),
        };
        if let Some((want_engine, want_hbref)) = expect_engine {
            if engine != want_engine || hb_reference != want_hbref {
                return Err(format!(
                    "engine mismatch: log has {engine}/hb_reference={hb_reference}, \
                     server configured {want_engine}/hb_reference={want_hbref}"
                ));
            }
        }
        let mut log = WarehouseLog::new(&engine, hb_reference);
        // `warn` lines accumulate here until their `trace` commit line.
        let mut pending: TraceWarnings = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let bad = |what: &str| format!("line {lineno}: bad {what}");
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "warn" => {
                    let f = fields(rest, 4, lineno, "warn")?;
                    let kind = ReportKind::from_code(f[0]).ok_or_else(|| bad("warn kind"))?;
                    let ln: u32 = f[1].parse().map_err(|_| bad("warn line number"))?;
                    pending.push((kind, unesc(f[2]), ln, unesc(f[3])));
                }
                "trace" => {
                    let f = fields(rest, 4, lineno, "trace")?;
                    let build: u64 = f[0].parse().map_err(|_| bad("trace build"))?;
                    let hash = u64::from_str_radix(f[1], 16).map_err(|_| bad("trace hash"))?;
                    let events: u64 = f[2].parse().map_err(|_| bad("trace events"))?;
                    let warnings: u64 = f[3].parse().map_err(|_| bad("trace warnings"))?;
                    if warnings != pending.len() as u64 {
                        return Err(format!(
                            "line {lineno}: trace commits {warnings} warning(s), block has {}",
                            pending.len()
                        ));
                    }
                    log.fold_ingest(build, hash, events, &pending);
                    pending.clear();
                }
                "suppress" => {
                    let f = fields(rest, 2, lineno, "suppress")?;
                    let on = match f[0] {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("line {lineno}: bad suppress flag {other:?}")),
                    };
                    log.fold_suppress(&unesc(f[1]), on);
                }
                _ => return Err(format!("line {lineno}: unrecognized record {line:?}")),
            }
        }
        if !pending.is_empty() {
            return Err(format!("{} uncommitted warn line(s) at end of log", pending.len()));
        }
        Ok(log)
    }
}

/// The tab-separated fields of one record, refusing any other count.
fn fields<'a>(rest: &'a str, n: usize, lineno: usize, what: &str) -> Result<Vec<&'a str>, String> {
    let f: Vec<&str> = rest.split('\t').collect();
    if f.len() != n {
        return Err(format!("line {lineno}: expected {n} {what} fields, got {}", f.len()));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (WarehouseLog, String) {
        let mut log = WarehouseLog::new("hwlc-dr", false);
        let mut text = log.header();
        let w1: TraceWarnings = vec![
            (ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string()),
            (ReportKind::LockOrderCycle, "b.cpp".to_string(), 20, "g".to_string()),
        ];
        text.push_str(&WarehouseLog::ingest_block(1, 0xabc, 100, &w1));
        log.fold_ingest(1, 0xabc, 100, &w1);
        let w2: TraceWarnings =
            vec![(ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string())];
        text.push_str(&WarehouseLog::ingest_block(2, 0xdef, 50, &w2));
        log.fold_ingest(2, 0xdef, 50, &w2);
        text.push_str(&WarehouseLog::suppress_line("RaceWrite|a.cpp|10|f", true));
        log.fold_suppress("RaceWrite|a.cpp|10|f", true);
        (log, text)
    }

    #[test]
    fn round_trip() {
        let (log, text) = sample();
        let parsed = WarehouseLog::parse(&text, Some(("hwlc-dr", false))).unwrap();
        assert_eq!(parsed.entries, log.entries);
        assert_eq!(parsed.traces, log.traces);
        assert_eq!(parsed.suppressed, log.suppressed);
        let e = &parsed.entries["RaceWrite|a.cpp|10|f"];
        assert_eq!(e.hits, 2);
        assert_eq!((e.first_build(), e.last_build()), (1, 2));
    }

    #[test]
    fn engine_mismatch_rejected() {
        let (_, text) = sample();
        assert!(WarehouseLog::parse(&text, Some(("djit", false))).is_err());
        assert!(WarehouseLog::parse(&text, Some(("hwlc-dr", true))).is_err());
        assert!(WarehouseLog::parse(&text, None).is_ok());
    }

    /// The committed prefix of `text`, as recovery sees it.
    fn committed(text: &str) -> &str {
        std::str::from_utf8(helgrind_core::commitlog::committed(text.as_bytes())).unwrap()
    }

    #[test]
    fn every_truncation_point_repairs_to_a_committed_prefix() {
        let (_, text) = sample();
        let header_len = WarehouseLog::new("hwlc-dr", false).header().len();
        let suppress_at = text.rfind("suppress ").unwrap();
        for cut in 0..text.len() {
            let kept = committed(&text[..cut]);
            match WarehouseLog::parse(kept, Some(("hwlc-dr", false))) {
                Ok(log) => {
                    // Only whole committed blocks survive: trace count is
                    // exactly the number of intact `trace` lines.
                    let commits = kept.lines().filter(|l| l.starts_with("trace ")).count();
                    assert_eq!(log.traces.len(), commits, "cut at {cut}");
                    assert!(kept.len() <= cut && kept.ends_with('\n'), "cut at {cut}");
                    // A cut inside the final `suppress` line commits
                    // nothing of it, so no cut fingerprint is suppressed.
                    if cut < text.len() {
                        assert!(log.suppressed.is_empty(), "cut at {cut}: {:?}", log.suppressed);
                    }
                    if cut > suppress_at {
                        assert_eq!(kept, &text[..suppress_at], "cut at {cut}");
                    }
                }
                Err(_) => {
                    // Acceptable only while the two-line header is still
                    // incomplete; past it, every cut must recover.
                    assert!(cut < header_len, "unrecoverable cut at {cut}: {:?}", &text[..cut]);
                }
            }
        }
    }

    #[test]
    fn interior_corruption_still_errors() {
        let (_, text) = sample();
        let bad = text.replace("trace 1\t", "trqce 1\t");
        assert!(WarehouseLog::parse(committed(&bad), None).is_err());
        // A record with extra tab fields is corrupt, not a record: say, a
        // torn `suppress` line with the next record glued onto it.
        for extra in [
            "suppress 1\tRaceWrite|a.csuppress 0\tRaceWrite|a.cpp|10|f\n",
            "suppress 1\tRaceWrite|a.cpp|10|f\tx\n",
            "warn RaceWrite\t10\ta.cpp\tf\tx\ntrace 3\t123\t7\t1\n",
            "trace 3\t123\t7\t0\tx\n",
        ] {
            let bad = format!("{text}{extra}");
            assert!(WarehouseLog::parse(committed(&bad), None).is_err(), "{extra:?}");
        }
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut log = WarehouseLog::new("hwlc-dr", false);
        let mut text = log.header();
        let w: TraceWarnings = vec![(
            ReportKind::RaceRead,
            "we\tird\npath\\x.cpp".to_string(),
            7,
            "op\terator<<".to_string(),
        )];
        text.push_str(&WarehouseLog::ingest_block(3, 1, 9, &w));
        log.fold_ingest(3, 1, 9, &w);
        let parsed = WarehouseLog::parse(&text, None).unwrap();
        assert_eq!(parsed.entries, log.entries);
    }
}
