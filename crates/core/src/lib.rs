//! # helgrind-core — dynamic fault detection over the `vexec` event stream
//!
//! A Rust reproduction of the detection stack from Mühlenfeld & Wotawa,
//! *Fault Detection in Multi-Threaded C++ Server Applications* (ENTCS 174,
//! 2007): the Eraser lockset algorithm as shipped in Valgrind's Helgrind
//! tool, the Visual Threads thread-segment refinement, and the paper's two
//! improvements — the corrected hardware bus-lock model (**HWLC**) and
//! automatic destructor annotation (**DR**) — plus the comparison baselines
//! it discusses (DJIT-style happens-before detection, hybrid detection) and
//! lock-order deadlock prediction.
//!
//! The one detector type, [`AnyDetector`], is a pure consumer of
//! [`vexec::Event`] streams: it implements [`vexec::tool::Tool`] and can be
//! attached to any guest program execution.
//!
//! ## The three configurations of the paper's evaluation (Fig 6)
//!
//! ```
//! use helgrind_core::{AnyDetector, DetectorConfig, SuppressionSet};
//!
//! let original = AnyDetector::new(DetectorConfig::original());
//! let hwlc     = AnyDetector::new(DetectorConfig::hwlc());
//! let hwlc_dr  = AnyDetector::new(DetectorConfig::hwlc_dr());
//! // The baselines run other engines over the same stream, picked by name.
//! let djit     = AnyDetector::by_name("djit", DetectorConfig::djit(), SuppressionSet::new());
//! assert_eq!(djit.engine_stats()[0].name, "hb");
//! # let _ = (original, hwlc, hwlc_dr);
//! ```

pub mod budget;
pub mod commitlog;
pub mod config;
pub mod detector;
pub mod eraser;
pub mod explore;
pub mod hb;
pub mod lockorder;
pub mod locksets;
pub mod pool;
pub mod replay;
pub mod report;
pub mod segments;
pub mod shadowmem;
pub mod suppress;
pub mod vc;

pub use budget::{BudgetSpec, DetectorBudget};
pub use config::{BusLockModel, DetectorConfig};
/// Other names for [`AnyDetector`], kept for the benchmark's callers only.
pub use detector::{AnyDetector as EraserDetector, AnyDetector as ReplayDetector};
pub use detector::{AnyDetector, EngineStats};
pub use eraser::{LocksetEngine, RaceInfo, VarState};
pub use explore::{
    explore_schedules, DirectedTarget, ExploreCheckpoint, ExploreLimits, ExploreSummary,
    LocationHit,
};
pub use hb::{Conflict, EpochStats, HbEngine, HbRaceInfo};
pub use lockorder::{CycleInfo, LockOrderGraph};
pub use locksets::{LockId, LockSetId, LockSetTable};
pub use pool::fold_indexed;
pub use replay::{
    analyze_trace_bytes, analyze_trace_repair, warning_fingerprint, RepairInfo, ReplayCtx,
    ReplayOutcome,
};
pub use report::{format_block_note, Report, ReportCtx, ReportKind, ReportSink, StackFrame};
pub use segments::{SegmentGraph, SegmentId};
pub use shadowmem::PageTable;
pub use suppress::{Suppression, SuppressionSet};
pub use vc::{Epoch, SmallVc, VectorClock, SMALL_VC_LANES};
