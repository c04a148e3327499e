//! Fig 10 vs Fig 11: ownership hand-off. The same message-processing body
//! runs (a) thread-per-request — the thread-segment refinement sees the
//! create/join hand-off and stays silent — and (b) through a thread pool,
//! where the hand-off happens via a queue the lockset algorithm cannot
//! see, producing a false positive. The §5 "higher-level synchronisation"
//! extension (hybrid detection with queue happens-before edges, E12)
//! removes it again.
//!
//! Run with: `cargo run --example threadpool_handoff`

use raceline::prelude::*;
use sipsim::proxy::{build_proxy, Dispatch, ProxyConfig, SiteLabel};

fn proxy(dispatch: Dispatch) -> ProxyConfig {
    ProxyConfig {
        bus_sites: 2,
        dtor_sites: 3,
        real_sites: 3,
        touches_per_site: 2,
        sites_per_handler: 4,
        dispatch,
        annotate_deletes: true,
    }
}

fn main() {
    let tpr = build_proxy(&proxy(Dispatch::ThreadPerRequest));
    let pool = build_proxy(&proxy(Dispatch::ThreadPool { workers: 3 }));

    println!("== Eraser (HWLC+DR) on thread-per-request (Fig 10) ==");
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    run_program(&tpr.program, &mut det, &mut RoundRobin::new());
    let tpr_handoff = det
        .sink
        .reports()
        .iter()
        .filter(|r| tpr.sites.classify(&r.file, r.line) == Some(SiteLabel::HandoffFp))
        .count();
    println!("warning locations: {} (hand-off FPs: {tpr_handoff})", det.sink.race_location_count());
    assert_eq!(tpr_handoff, 0, "create/join hand-off is understood");

    println!("\n== Eraser (HWLC+DR) on thread pool (Fig 11) ==");
    let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
    run_program(&pool.program, &mut det, &mut RoundRobin::new());
    let pool_handoff: Vec<_> = det
        .sink
        .reports()
        .iter()
        .filter(|r| pool.sites.classify(&r.file, r.line) == Some(SiteLabel::HandoffFp))
        .collect();
    println!(
        "warning locations: {} (hand-off FPs: {})",
        det.sink.race_location_count(),
        pool_handoff.len()
    );
    for r in &pool_handoff {
        println!("{}", r.render());
    }
    assert!(!pool_handoff.is_empty(), "queue hand-off is invisible to the lockset algorithm");

    println!("== Hybrid detector with queue happens-before (§5 extension, E12) ==");
    let mut det = AnyDetector::by_name(
        "hybrid-queue",
        DetectorConfig::hybrid_queue_hb(),
        SuppressionSet::new(),
    );
    run_program(&pool.program, &mut det, &mut RoundRobin::new());
    let qhb_handoff = det
        .sink
        .reports()
        .iter()
        .filter(|r| pool.sites.classify(&r.file, r.line) == Some(SiteLabel::HandoffFp))
        .count();
    println!("warning locations: {} (hand-off FPs: {qhb_handoff})", det.sink.race_location_count());
    assert_eq!(qhb_handoff, 0, "queue put/get edges order the hand-off");
    println!("\nsummary: TPR clean, pool adds a hand-off FP, queue-aware hybrid removes it");
}
