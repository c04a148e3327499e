//! # race-bench — the reproduction harness
//!
//! One runner per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index). The `repro` binary prints every table; perfbench
//! (`perfbench/`) times the §4.5 overhead story in its `ladder` workload.

pub mod experiments;
pub mod scenarios;
