//! Golden filter-equivalence gate: the redundant-access filter cache must
//! be invisible in every report a user can read.
//!
//! Every program of the shared matrix (T1–T8 and the shipped examples) is
//! run under all six detector configurations, once through `FilterTool`
//! and once bare, and the complete observable output — termination, the
//! truncation flag, the run counters and the rendered report text — must
//! be byte-identical. A second sweep repeats the whole matrix under an
//! aggressive fault-injection plan and a seeded random scheduler, so the
//! equivalence is exercised off the happy path too (killed threads,
//! failed allocations, spurious wakeups).
//!
//! Only the stderr-side statistics (`--stats`) may differ between the two
//! runs; nothing here looks at those.

mod common;

/// Every program × 6 engines, clean deterministic schedule.
#[test]
fn t1_t8_filtered_runs_are_byte_identical() {
    common::assert_matrix(common::UNFILTERED, false);
}

/// Every program × 6 engines under fault injection and a randomized
/// schedule: the equivalence must survive killed threads, failed
/// allocations and spurious wakeups, where runs legitimately end in
/// deadlocks or guest errors.
#[test]
fn t1_t8_filtered_runs_are_byte_identical_under_faults() {
    common::assert_matrix(common::UNFILTERED, true);
}
