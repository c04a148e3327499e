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
//! All detectors are pure consumers of [`vexec::Event`] streams: they
//! implement [`vexec::tool::Tool`] and can be attached to any guest
//! program execution.
//!
//! ## The three configurations of the paper's evaluation (Fig 6)
//!
//! ```
//! use helgrind_core::{DetectorConfig, EraserDetector};
//!
//! let original = EraserDetector::new(DetectorConfig::original());
//! let hwlc     = EraserDetector::new(DetectorConfig::hwlc());
//! let hwlc_dr  = EraserDetector::new(DetectorConfig::hwlc_dr());
//! assert!(hwlc_dr.config().honor_destruct);
//! # let _ = (original, hwlc);
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
/// Another name for [`AnyDetector`], the detector trace replay takes.
pub use detector::AnyDetector as ReplayDetector;
pub use detector::{AnyDetector, DjitDetector, EngineStats, EraserDetector, HybridDetector};
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
