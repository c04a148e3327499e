//! Golden epoch-equivalence gate: the adaptive FastTrack epoch lattice
//! must be invisible in every report a user can read.
//!
//! Every program of the shared matrix (T1–T8 and the shipped examples) is
//! run under all six detector configurations, once with the adaptive epoch
//! read state and once in `hb_reference` mode (full vector clocks, the
//! `RefReads` oracle), and the complete observable output — termination,
//! the truncation flag, the run counters and the rendered report text —
//! must be byte-identical. A second sweep repeats the matrix under an
//! aggressive fault-injection plan and a seeded random scheduler, so the
//! equivalence is exercised off the happy path too (killed threads,
//! failed allocations, spurious wakeups). The Eraser rows have no HB
//! engine; running them pins that `hb_reference` is a no-op there.
//!
//! Only the stderr-side statistics (`--stats` epoch counters) may differ
//! between the two runs; nothing here looks at those.

mod common;

/// Every program × 6 engines, clean deterministic schedule.
#[test]
fn t1_t8_adaptive_and_reference_are_byte_identical() {
    common::assert_matrix(common::HB_REFERENCE, false);
}

/// Every program × 6 engines under fault injection and a randomized
/// schedule: the equivalence must survive killed threads, failed
/// allocations and spurious wakeups, where runs legitimately end in
/// deadlocks or guest errors.
#[test]
fn t1_t8_adaptive_and_reference_are_byte_identical_under_faults() {
    common::assert_matrix(common::HB_REFERENCE, true);
}

/// The offline path honours the same contract with the decode sharded:
/// session.mcpp recorded with 64-event epochs replays to the same reports
/// at `jobs` 8 under either read state.
#[test]
fn sharded_replay_is_identical_under_the_reference_read_state() {
    let session = common::program("examples/programs/session.mcpp");
    let bytes = common::record(&session.flat, 64, common::PRODUCTION);
    for engine in common::ENGINES {
        let adaptive = common::replay(&bytes, engine, false, 8);
        assert_eq!(adaptive, common::replay(&bytes, engine, true, 8), "{engine}");
    }
}
