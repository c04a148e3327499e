//! Deterministic renderings of warehouse state: the catalogue text (the
//! `query` body, which the equivalence tests byte-compare with a
//! sequential in-memory fold of the same uploads), the `diff` JSON (shared
//! with `trace-diff --json` so the two are byte-identical by
//! construction), and the `stats` JSON.
//!
//! Everything here is a pure function of [`WarehouseLog`] (plus in-memory
//! session counters for stats), and `WarehouseLog` is a commutative fold —
//! so these bytes are independent of upload order and worker count.

use serde::Value;

use helgrind_core::ReportKind;

use crate::wlog::WarehouseLog;

pub const CATALOGUE_MAGIC: &str = "raceline-warehouse catalogue v1";

/// `"Race (write) at a.cpp:10 (f)"` — the one-line warning summary used by
/// `trace-diff` text and JSON output and the warehouse catalogue.
pub fn describe(kind: ReportKind, file: &str, line: u32, func: &str) -> String {
    format!("{} at {file}:{line} ({func})", kind.name())
}

/// The catalogue: header, totals, one line per fingerprint (BTreeMap
/// iteration = fingerprint order), one line per build.
pub fn render_catalogue(log: &WarehouseLog) -> String {
    let mut s = format!("{CATALOGUE_MAGIC}\n");
    s.push_str(&format!(
        "engine {}{}\n",
        log.engine,
        if log.hb_reference { " (hb-reference)" } else { "" }
    ));
    let events: u64 = log.traces.values().map(|t| t.events).sum();
    s.push_str(&format!(
        "uploads: {} trace(s), {events} event(s), {} build(s)\n",
        log.traces.len(),
        log.builds.len()
    ));
    let suppressed = log.entries.keys().filter(|fp| log.suppressed.contains(*fp)).count();
    s.push_str(&format!("warnings: {} location(s) ({suppressed} suppressed)\n", log.entries.len()));
    for (fp, e) in &log.entries {
        s.push_str(&format!(
            "warn {} at {}:{} ({}): hits={} first={} last={}{}\n",
            e.kind.code(),
            e.file,
            e.line,
            e.func,
            e.hits,
            e.first_build(),
            e.last_build(),
            if log.suppressed.contains(fp) { " [suppressed]" } else { "" }
        ));
    }
    for (b, c) in &log.builds {
        s.push_str(&format!("build {b}: {} trace(s), {} warning(s)\n", c.traces, c.warnings));
    }
    s
}

/// One side of a regression edge: a fingerprinted warning location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    pub fingerprint: String,
    pub kind: ReportKind,
    pub file: String,
    pub line: u32,
    pub func: String,
}

impl DiffEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("fingerprint".to_string(), Value::Str(self.fingerprint.clone())),
            ("kind".to_string(), Value::Str(self.kind.code().to_string())),
            ("file".to_string(), Value::Str(self.file.clone())),
            ("line".to_string(), Value::UInt(self.line as u64)),
            ("func".to_string(), Value::Str(self.func.clone())),
            (
                "summary".to_string(),
                Value::Str(describe(self.kind, &self.file, self.line, &self.func)),
            ),
        ])
    }
}

/// The `trace-diff --json` / warehouse `diff` schema. One renderer for
/// both consumers is what makes the served regression edges byte-identical
/// to the offline tool: same fields, same order, same escaping, same
/// trailing newline. Entries must arrive fingerprint-sorted (both
/// producers iterate BTreeMaps).
pub fn render_diff_json(
    detector_a: &str,
    detector_b: &str,
    new: &[DiffEntry],
    fixed: &[DiffEntry],
    unchanged: u64,
) -> String {
    let to_vals = |es: &[DiffEntry]| Value::Array(es.iter().map(DiffEntry::to_value).collect());
    let mut s = Value::Object(vec![
        ("detector_a".to_string(), Value::Str(detector_a.to_string())),
        ("detector_b".to_string(), Value::Str(detector_b.to_string())),
        ("new".to_string(), to_vals(new)),
        ("fixed".to_string(), to_vals(fixed)),
        ("unchanged".to_string(), Value::UInt(unchanged)),
    ])
    .to_string();
    s.push('\n');
    s
}

/// Regression edges between two builds already in the warehouse: which
/// fingerprints appeared in `b` but not `a` (new), vanished (fixed), or
/// persist (unchanged). Fingerprint-sorted by construction.
pub fn diff_builds(log: &WarehouseLog, a: u64, b: u64) -> (Vec<DiffEntry>, Vec<DiffEntry>, u64) {
    let mut new = Vec::new();
    let mut fixed = Vec::new();
    let mut unchanged = 0;
    for (fp, e) in &log.entries {
        let entry = || DiffEntry {
            fingerprint: fp.clone(),
            kind: e.kind,
            file: e.file.clone(),
            line: e.line,
            func: e.func.clone(),
        };
        match (e.builds.contains(&a), e.builds.contains(&b)) {
            (false, true) => new.push(entry()),
            (true, false) => fixed.push(entry()),
            (true, true) => unchanged += 1,
            (false, false) => {}
        }
    }
    (new, fixed, unchanged)
}

/// Session counters that live outside the durable log (reset on restart).
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionCounters {
    /// Submits accepted this session, including duplicates.
    pub uploads: u64,
    /// Submits answered from the dedup index without re-analysis.
    pub dedup_hits: u64,
}

/// The `stats` response: durable totals plus session counters.
pub fn render_stats(log: &WarehouseLog, session: SessionCounters) -> String {
    let events: u64 = log.traces.values().map(|t| t.events).sum();
    let suppressed = log.entries.keys().filter(|fp| log.suppressed.contains(*fp)).count();
    Value::Object(vec![
        ("engine".to_string(), Value::Str(log.engine.clone())),
        ("hb_reference".to_string(), Value::Bool(log.hb_reference)),
        ("traces".to_string(), Value::UInt(log.traces.len() as u64)),
        ("events".to_string(), Value::UInt(events)),
        ("builds".to_string(), Value::UInt(log.builds.len() as u64)),
        ("warnings".to_string(), Value::UInt(log.entries.len() as u64)),
        ("suppressed".to_string(), Value::UInt(suppressed as u64)),
        ("uploads".to_string(), Value::UInt(session.uploads)),
        ("dedup_hits".to_string(), Value::UInt(session.dedup_hits)),
    ])
    .to_string()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wlog::TraceWarnings;

    fn sample() -> WarehouseLog {
        let mut log = WarehouseLog::new("hwlc-dr", false);
        let w1: TraceWarnings = vec![
            (ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string()),
            (ReportKind::LockOrderCycle, "b.cpp".to_string(), 20, "g".to_string()),
        ];
        let w2: TraceWarnings = vec![
            (ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string()),
            (ReportKind::RaceRead, "c.cpp".to_string(), 30, "h".to_string()),
        ];
        log.fold_ingest(1, 0x1, 100, &w1);
        log.fold_ingest(2, 0x2, 50, &w2);
        log.fold_suppress("LockOrderCycle|b.cpp|20|g", true);
        log
    }

    #[test]
    fn catalogue_is_order_independent() {
        let a = sample();
        let mut b = WarehouseLog::new("hwlc-dr", false);
        // Same ingests, reverse order.
        let w2: TraceWarnings = vec![
            (ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string()),
            (ReportKind::RaceRead, "c.cpp".to_string(), 30, "h".to_string()),
        ];
        let w1: TraceWarnings = vec![
            (ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string()),
            (ReportKind::LockOrderCycle, "b.cpp".to_string(), 20, "g".to_string()),
        ];
        b.fold_ingest(2, 0x2, 50, &w2);
        b.fold_suppress("LockOrderCycle|b.cpp|20|g", true);
        b.fold_ingest(1, 0x1, 100, &w1);
        assert_eq!(render_catalogue(&a), render_catalogue(&b));
    }

    #[test]
    fn build_lines_match_a_scan_per_build() {
        // Builds with several traces, a warning-free trace, and warnings
        // shared across builds: each line must count what a scan of all
        // traces and all entries for that build counts.
        let mut log = WarehouseLog::new("hwlc-dr", false);
        let warning =
            |line: u32| (ReportKind::RaceWrite, "a.cpp".to_string(), line, "f".to_string());
        for build in 1..=6u64 {
            for trace in 0..build % 3 + 1 {
                let warnings: TraceWarnings =
                    (0..(build + trace) % 4).map(|i| warning((build + i) as u32 % 5)).collect();
                log.fold_ingest(build, build * 10 + trace, 7, &warnings);
            }
        }
        let text = render_catalogue(&log);
        let build_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("build ")).collect();
        let expected: Vec<String> = (1..=6u64)
            .map(|b| {
                let traces = log.traces.keys().filter(|&&(tb, _)| tb == b).count();
                let warnings = log.entries.values().filter(|e| e.builds.contains(&b)).count();
                format!("build {b}: {traces} trace(s), {warnings} warning(s)")
            })
            .collect();
        assert_eq!(build_lines, expected);
        assert!(text.contains("uploads: 12 trace(s), 84 event(s), 6 build(s)\n"));
    }

    #[test]
    fn catalogue_shape() {
        let text = render_catalogue(&sample());
        assert!(text.starts_with("raceline-warehouse catalogue v1\nengine hwlc-dr\n"));
        assert!(text.contains("uploads: 2 trace(s), 150 event(s), 2 build(s)\n"));
        assert!(text.contains("warnings: 3 location(s) (1 suppressed)\n"));
        assert!(text.contains("warn RaceWrite at a.cpp:10 (f): hits=2 first=1 last=2\n"));
        assert!(text
            .contains("warn LockOrderCycle at b.cpp:20 (g): hits=1 first=1 last=1 [suppressed]\n"));
        assert!(text.contains("build 1: 1 trace(s), 2 warning(s)\n"));
        assert!(text.contains("build 2: 1 trace(s), 2 warning(s)\n"));
    }

    #[test]
    fn diff_edges() {
        let log = sample();
        let (new, fixed, unchanged) = diff_builds(&log, 1, 2);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].fingerprint, "RaceRead|c.cpp|30|h");
        assert_eq!(fixed.len(), 1);
        assert_eq!(fixed[0].fingerprint, "LockOrderCycle|b.cpp|20|g");
        assert_eq!(unchanged, 1);
        let json = render_diff_json("hwlc-dr", "hwlc-dr", &new, &fixed, unchanged);
        assert!(json.contains("\"detector_a\":\"hwlc-dr\""));
        assert!(json.contains("\"summary\":\"Race (read) at c.cpp:30 (h)\""));
        assert!(json.ends_with('\n'), "newline-terminated for terminals and cmp gates");
        // Round-trips through the wire parser.
        let v = crate::json::parse(json.trim_end()).unwrap();
        assert_eq!(crate::json::get_u64(&v, "unchanged"), Some(1));
    }

    #[test]
    fn stats_shape() {
        let s = render_stats(&sample(), SessionCounters { uploads: 5, dedup_hits: 3 });
        let v = crate::json::parse(s.trim_end()).unwrap();
        assert_eq!(crate::json::get_u64(&v, "traces"), Some(2));
        assert_eq!(crate::json::get_u64(&v, "warnings"), Some(3));
        assert_eq!(crate::json::get_u64(&v, "dedup_hits"), Some(3));
        assert_eq!(crate::json::get_bool(&v, "hb_reference"), Some(false));
    }
}
