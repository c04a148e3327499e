//! Detector configuration and the three experiment presets from the paper
//! (the columns of Fig 6): Original, HWLC, and HWLC+DR.

use crate::budget::DetectorBudget;
use serde::{Deserialize, Serialize};

/// How the x86 `LOCK` prefix is modelled (§3.1 / §4.2.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BusLockModel {
    /// Original Helgrind: a special mutex locked only for the duration of
    /// each `LOCK`-prefixed instruction. Plain reads do not hold it, so
    /// read-then-locked-write sequences (e.g. COW string reference counts)
    /// produce an empty lockset — the paper's dominant bus-lock false
    /// positives.
    PlainMutex,
    /// The paper's HWLC correction: a read-write lock held in read mode by
    /// *every* plain read and in write mode by `LOCK`-prefixed writes,
    /// matching the i386 guarantee that reads need no `LOCK` prefix.
    RwLock,
}

/// Detector configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Bus-lock model (HWLC improvement toggles this).
    pub bus_lock: BusLockModel,
    /// Honor `VALGRIND_HG_DESTRUCT` client requests (the DR improvement:
    /// automatic delete-annotation, Fig 4). When false, the requests are
    /// ignored — the behaviour of unpatched Helgrind.
    pub honor_destruct: bool,
    /// Thread segments (Visual Threads refinement). On in all of the
    /// paper's configurations.
    pub thread_segments: bool,
    /// Intercept POSIX rwlock operations. The paper adds this alongside
    /// HWLC ("support for the corresponding POSIX API could be added
    /// easily"); unpatched Helgrind ignores rwlocks entirely.
    pub track_rwlocks: bool,
    /// Shadow-memory granule size in bytes (power of two). Helgrind shadows
    /// at word granularity; 8 matches 64-bit words.
    pub granule: u64,
    /// Happens-before edges from bounded-queue put/get pairs — the §5
    /// "higher level synchronization" future-work extension (E12). Only
    /// consulted by the HB/hybrid engines.
    pub queue_hb: bool,
    /// Happens-before edges from condvar signal → wake. Off by default:
    /// §2.2 notes that assuming an order between signal and wait is *not*
    /// sound, and real detectors derive ordering from the associated mutex.
    pub condvar_hb: bool,
    /// Treat `LOCK`-prefixed RMW accesses as synchronisation (acquire +
    /// release on a per-address pseudo-lock) in the HB engines, the way
    /// detectors treat std::atomic. Prevents the HB family from flagging
    /// the refcount pattern.
    pub atomic_sync: bool,
    /// Semaphore post → wait happens-before edges (HB engines).
    pub sem_hb: bool,
    /// Run the HB engines' read shadow state as a reference full vector
    /// clock (`RefReads`) instead of the adaptive FastTrack epoch lattice.
    /// Reports are identical either way — the epoch golden and
    /// equivalence suites and the event-soup proptest pin that — so this
    /// mode exists purely as the tests' equivalence oracle; no command
    /// line selects it.
    pub hb_reference: bool,
    /// State caps with graceful degradation (see [`crate::budget`]).
    /// Unlimited in every preset; narrowed by `raceline --budget`.
    pub budget: DetectorBudget,
}

impl DetectorConfig {
    /// Unpatched Helgrind: plain-mutex bus lock, destructor annotations
    /// ignored, no rwlock interception. Column "Original" of Fig 6.
    pub fn original() -> Self {
        DetectorConfig {
            bus_lock: BusLockModel::PlainMutex,
            honor_destruct: false,
            thread_segments: true,
            track_rwlocks: false,
            granule: 8,
            queue_hb: false,
            condvar_hb: false,
            atomic_sync: true,
            sem_hb: true,
            hb_reference: false,
            budget: DetectorBudget::unlimited(),
        }
    }

    /// Corrected hardware bus lock + rwlock support. Column "HWLC".
    pub fn hwlc() -> Self {
        DetectorConfig { bus_lock: BusLockModel::RwLock, track_rwlocks: true, ..Self::original() }
    }

    /// HWLC plus destructor annotations. Column "HWLC+DR".
    pub fn hwlc_dr() -> Self {
        DetectorConfig { honor_destruct: true, ..Self::hwlc() }
    }

    /// Baseline DJIT-style happens-before configuration (§2.2).
    pub fn djit() -> Self {
        Self::hwlc_dr()
    }

    /// Hybrid lockset ∧ happens-before configuration.
    pub fn hybrid() -> Self {
        Self::hwlc_dr()
    }

    /// Hybrid with queue-hand-off awareness (E12 ablation).
    pub fn hybrid_queue_hb() -> Self {
        DetectorConfig { queue_hb: true, ..Self::hybrid() }
    }

    /// Mask for the granule: `addr & !granule_mask()` is the granule base.
    #[inline]
    pub fn granule_mask(&self) -> u64 {
        self.granule - 1
    }

    /// CLI-name → preset mapping, shared by `raceline` and the warehouse
    /// service layer so an engine name means the same configuration on
    /// every path (the provenance stamp in warehouse logs relies on this).
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "original" => Self::original(),
            "hwlc" => Self::hwlc(),
            "hwlc-dr" => Self::hwlc_dr(),
            "djit" => Self::djit(),
            "hybrid" => Self::hybrid(),
            "hybrid-queue" => Self::hybrid_queue_hb(),
            _ => return None,
        })
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::hwlc_dr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_exactly_as_in_the_paper() {
        let o = DetectorConfig::original();
        let h = DetectorConfig::hwlc();
        let hd = DetectorConfig::hwlc_dr();
        assert_eq!(o.bus_lock, BusLockModel::PlainMutex);
        assert_eq!(h.bus_lock, BusLockModel::RwLock);
        assert_eq!(hd.bus_lock, BusLockModel::RwLock);
        assert!(!o.honor_destruct && !h.honor_destruct && hd.honor_destruct);
        assert!(!o.track_rwlocks && h.track_rwlocks && hd.track_rwlocks);
        // Thread segments are on everywhere (Helgrind had them already).
        assert!(o.thread_segments && h.thread_segments && hd.thread_segments);
    }

    #[test]
    fn granule_must_be_power_of_two_sized_mask() {
        let c = DetectorConfig::default();
        assert_eq!(c.granule, 8);
        assert_eq!(c.granule_mask(), 7);
        assert_eq!(0x1234 & !c.granule_mask(), 0x1230);
    }

    #[test]
    fn queue_hb_only_in_extension_preset() {
        assert!(!DetectorConfig::hybrid().queue_hb);
        assert!(DetectorConfig::hybrid_queue_hb().queue_hb);
    }
}
