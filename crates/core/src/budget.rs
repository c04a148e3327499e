//! Graceful-degradation budgets for the detectors.
//!
//! The paper ran its tracer against a 500 kLOC SIP proxy for hours; at that
//! scale unbounded shadow state is a liability. A [`DetectorBudget`] caps
//! the three growth points of the lockset/HB engines — shadow words, the
//! lock-set intern table, and collected reports — and the engines *degrade*
//! when a cap is hit instead of aborting:
//!
//! * **Shadow words**: new granules stop being tracked (accesses to already
//!   tracked granules keep updating). Under-approximates coverage; never
//!   fabricates a race.
//! * **Lock-sets**: when the intern table is full, operations that would
//!   create a new set fall back to an existing superset (candidate sets
//!   stay too big → over-approximates locking; may miss races, never
//!   fabricates one).
//! * **Reports**: further reports are counted but dropped.
//!
//! Every degradation sets a `truncated` flag that surfaces on
//! [`crate::report::Report`] and in `raceline --json`, so downstream
//! tooling can tell a complete answer from a summarized one.

use serde::{Deserialize, Serialize};
use vexec::faults::parse_u64;

/// Caps on detector state. `usize::MAX` (the default) means unlimited.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DetectorBudget {
    /// Maximum distinct shadow granules tracked per engine.
    pub max_shadow_words: usize,
    /// Maximum distinct lock-sets interned.
    pub max_locksets: usize,
    /// Maximum reports retained by the sink.
    pub max_reports: usize,
}

impl DetectorBudget {
    pub fn unlimited() -> Self {
        DetectorBudget {
            max_shadow_words: usize::MAX,
            max_locksets: usize::MAX,
            max_reports: usize::MAX,
        }
    }

    pub fn is_unlimited(&self) -> bool {
        *self == Self::unlimited()
    }
}

impl Default for DetectorBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A parsed `--budget` spec: detector caps plus an optional VM fuel cap
/// (`slots=`, per run) and an exploration-wide watchdog (`total-slots=`,
/// summed across every run of an `--explore` sweep). The fuel caps belong
/// to [`vexec::VmOptions`] / the explore driver rather than the detector
/// but ride in the same flag for convenience.
///
/// The `total-slots` running total is the explore fold's own sum of each
/// run's slots, taken in run order, so the watchdog cuts the sweep off at
/// the same run at any `--jobs N` without perturbing any run's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetSpec {
    pub detector: DetectorBudget,
    pub max_slots: Option<u64>,
    pub total_slots: Option<u64>,
}

impl BudgetSpec {
    /// Parse a spec like
    /// `shadow=10000,locksets=256,reports=64,slots=50000,total-slots=1000000`.
    /// Omitted keys stay unlimited.
    pub fn parse(spec: &str) -> Result<BudgetSpec, String> {
        let mut out = BudgetSpec {
            detector: DetectorBudget::unlimited(),
            max_slots: None,
            total_slots: None,
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("budget spec entry `{part}` is not key=value"))?;
            let v = parse_u64(value.trim())?;
            match key.trim() {
                "shadow" => out.detector.max_shadow_words = v as usize,
                "locksets" => out.detector.max_locksets = v as usize,
                "reports" => out.detector.max_reports = v as usize,
                "slots" => out.max_slots = Some(v),
                "total-slots" | "total_slots" => out.total_slots = Some(v),
                other => {
                    return Err(format!(
                        "unknown budget key `{other}` \
                         (expected shadow|locksets|reports|slots|total-slots)"
                    ));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_default() {
        assert!(DetectorBudget::default().is_unlimited());
    }

    #[test]
    fn parse_full_spec() {
        let b = BudgetSpec::parse("shadow=10000,locksets=256,reports=64,slots=50000").unwrap();
        assert_eq!(b.detector.max_shadow_words, 10_000);
        assert_eq!(b.detector.max_locksets, 256);
        assert_eq!(b.detector.max_reports, 64);
        assert_eq!(b.max_slots, Some(50_000));
        assert!(!b.detector.is_unlimited());
    }

    #[test]
    fn parse_partial_spec_leaves_rest_unlimited() {
        let b = BudgetSpec::parse("reports=1").unwrap();
        assert_eq!(b.detector.max_reports, 1);
        assert_eq!(b.detector.max_shadow_words, usize::MAX);
        assert_eq!(b.max_slots, None);
        assert_eq!(b.total_slots, None);
    }

    #[test]
    fn parse_total_slots_watchdog() {
        let b = BudgetSpec::parse("total-slots=1000000").unwrap();
        assert_eq!(b.total_slots, Some(1_000_000));
        assert_eq!(BudgetSpec::parse("total_slots=7").unwrap().total_slots, Some(7));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(BudgetSpec::parse("shadow").is_err());
        assert!(BudgetSpec::parse("bogus=1").is_err());
        assert!(BudgetSpec::parse("shadow=xyz").is_err());
    }
}
