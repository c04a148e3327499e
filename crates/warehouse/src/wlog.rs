//! The warehouse's durable state: an append-only, newline-committed line
//! log, the same crash-safety idiom as the soak log and the explore
//! checkpoint (§12). Layout per ingested trace: the trace's `warn` lines
//! first, then one `trace` line acting as the commit record — a crash
//! anywhere during an append loses only uncommitted lines, never committed
//! state. `suppress` lines are single-line and therefore self-committing.
//!
//! `parse_repair` reuses the shared [`trim_torn_tail`] rule: a torn final
//! line (or a suspect final complete line) is dropped and the parse
//! retried once; interior errors still propagate — those are real
//! corruption, not a crash artifact.

use std::collections::{BTreeMap, BTreeSet};

use helgrind_core::trim_torn_tail;
use helgrind_core::ReportKind;

pub const LOG_MAGIC: &str = "raceline-warehouse-log v1";

/// Escape tabs/newlines/backslashes so arbitrary paths and function names
/// survive the tab-separated line format (same scheme as the soak log).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`esc`].
pub fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

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
    pub fn fingerprint(&self) -> String {
        format!("{}|{}|{}|{}", self.kind.code(), self.file, self.line, self.func)
    }

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
    /// commit line. Appending this (with per-line flushes) is the only way
    /// trace state enters the log.
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
            let fp = format!("{}|{file}|{line}|{func}", kind.code());
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

    /// Strict parse of a complete log. `expect_engine` pins the provenance
    /// the serving process was configured with.
    pub fn parse(text: &str, expect_engine: Option<(&str, bool)>) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l == LOG_MAGIC => {}
            Some((_, l)) => return Err(format!("bad magic: {l:?}")),
            None => return Err("empty log".to_string()),
        }
        let engine_line = lines.next().ok_or("missing engine line")?.1;
        let rest = engine_line.strip_prefix("engine ").ok_or("missing engine line")?;
        let mut f = rest.split('\t');
        let engine = unesc(f.next().ok_or("engine line: missing name")?);
        let hb_reference = match f.next() {
            Some("0") => false,
            Some("1") => true,
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
            if let Some(rest) = line.strip_prefix("warn ") {
                let mut f = rest.split('\t');
                let kind = f
                    .next()
                    .and_then(ReportKind::from_code)
                    .ok_or_else(|| format!("line {lineno}: bad warn kind"))?;
                let ln: u32 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("line {lineno}: bad warn line number"))?;
                let file = unesc(f.next().ok_or_else(|| format!("line {lineno}: short warn"))?);
                let func = unesc(f.next().ok_or_else(|| format!("line {lineno}: short warn"))?);
                pending.push((kind, file, ln, func));
            } else if let Some(rest) = line.strip_prefix("trace ") {
                let mut f = rest.split('\t');
                let build: u64 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("line {lineno}: bad trace build"))?;
                let hash = f
                    .next()
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .ok_or_else(|| format!("line {lineno}: bad trace hash"))?;
                let events: u64 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("line {lineno}: bad trace events"))?;
                let warnings: u64 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("line {lineno}: bad trace warnings"))?;
                if warnings != pending.len() as u64 {
                    return Err(format!(
                        "line {lineno}: trace commits {warnings} warning(s), block has {}",
                        pending.len()
                    ));
                }
                log.fold_ingest(build, hash, events, &pending);
                pending.clear();
            } else if let Some(rest) = line.strip_prefix("suppress ") {
                let mut f = rest.split('\t');
                let on = match f.next() {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(format!("line {lineno}: bad suppress flag {other:?}")),
                };
                let fp = unesc(f.next().ok_or_else(|| format!("line {lineno}: short suppress"))?);
                log.fold_suppress(&fp, on);
            } else {
                return Err(format!("line {lineno}: unrecognized record {line:?}"));
            }
        }
        if !pending.is_empty() {
            return Err(format!("{} uncommitted warn line(s) at end of log", pending.len()));
        }
        Ok(log)
    }

    /// Tolerant parse: the one failure an interrupted append can leave
    /// behind is a truncated tail — drop it via [`trim_torn_tail`] and
    /// retry once, then drop any now-uncommitted `warn` lines (their
    /// `trace` commit line was lost with the tail). Returns the log, the
    /// committed prefix to rewrite the file with, and whether a repair was
    /// applied. Interior errors still propagate.
    pub fn parse_repair(
        text: &str,
        expect_engine: Option<(&str, bool)>,
    ) -> Result<(Self, String, bool), String> {
        let first_err = match Self::parse(text, expect_engine) {
            Ok(log) => return Ok((log, text.to_string(), false)),
            Err(e) => e,
        };
        let Some(trimmed) = trim_torn_tail(text) else {
            return Err(first_err);
        };
        // The trim may have cut a `trace` commit line, stranding the warn
        // lines of its block: peel trailing warn lines until the text ends
        // on a commit boundary (header, `trace`, or `suppress` line).
        let mut keep = trimmed.len();
        loop {
            let head = &trimmed[..keep];
            let last = head.trim_end_matches('\n').rfind('\n').map(|p| p + 1).unwrap_or(0);
            if head[last..].starts_with("warn ") {
                keep = last;
            } else {
                break;
            }
        }
        let committed = &trimmed[..keep];
        match Self::parse(committed, expect_engine) {
            Ok(log) => Ok((log, committed.to_string(), true)),
            Err(_) => Err(first_err),
        }
    }
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

    #[test]
    fn every_truncation_point_repairs_to_a_committed_prefix() {
        let (_, text) = sample();
        for cut in 0..text.len() {
            let torn = &text[..cut];
            match WarehouseLog::parse_repair(torn, Some(("hwlc-dr", false))) {
                Ok((log, committed, _)) => {
                    // The committed prefix must strict-parse to the same state.
                    let re = WarehouseLog::parse(&committed, Some(("hwlc-dr", false))).unwrap();
                    assert_eq!(re.entries, log.entries, "cut at {cut}");
                    assert_eq!(re.traces, log.traces, "cut at {cut}");
                    assert_eq!(re.suppressed, log.suppressed, "cut at {cut}");
                    // Only whole committed blocks survive: trace count is
                    // exactly the number of intact `trace` lines.
                    let commits = committed.lines().filter(|l| l.starts_with("trace ")).count();
                    assert_eq!(log.traces.len(), commits, "cut at {cut}");
                }
                Err(_) => {
                    // Acceptable only while the two-line header is still
                    // incomplete; past it, every cut must repair.
                    let header_len = WarehouseLog::new("hwlc-dr", false).header().len();
                    assert!(cut < header_len, "unrepairable cut at {cut}: {torn:?}");
                }
            }
        }
    }

    #[test]
    fn interior_corruption_still_errors() {
        let (_, text) = sample();
        let bad = text.replace("trace 1\t", "trqce 1\t");
        assert!(WarehouseLog::parse_repair(&bad, None).is_err());
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
