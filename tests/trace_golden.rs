//! Golden equivalence: for the paper's T1–T8 evaluation cases, feeding a
//! recorded trace through any detector configuration must reproduce the
//! inline run's reports *byte for byte* — same renders, same order, same
//! truncation flag — and must do so identically for any `--jobs` count.
//! Plus the robustness half of the contract: corrupting or truncating a
//! trace anywhere yields a structured error, never a panic or a wrong
//! answer.

use helgrind_core::replay::{analyze_trace_bytes, analyze_trace_repair, ReplayDetector};
use helgrind_core::{
    DetectorConfig, DjitDetector, EraserDetector, HybridDetector, Report, SuppressionSet,
};
use raceline_trace::reader::{parse_trace, parse_trace_repair};
use raceline_trace::writer::TraceWriter;
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::Expr;
use vexec::sched::RoundRobin;
use vexec::vm::{run_flat, Termination, VmOptions};

const ENGINES: &[&str] = &["original", "hwlc", "hwlc-dr", "djit", "hybrid", "hybrid-queue"];

fn config_of(name: &str) -> DetectorConfig {
    match name {
        "original" => DetectorConfig::original(),
        "hwlc" => DetectorConfig::hwlc(),
        "hwlc-dr" => DetectorConfig::hwlc_dr(),
        "djit" => DetectorConfig::djit(),
        "hybrid" => DetectorConfig::hybrid(),
        "hybrid-queue" => DetectorConfig::hybrid_queue_hb(),
        other => panic!("unknown engine {other}"),
    }
}

/// Inline run: the reference the offline path must match byte for byte.
fn run_inline(
    flat: &vexec::ir::lower::FlatProgram,
    engine: &str,
) -> (Vec<String>, bool, Termination) {
    let cfg = config_of(engine);
    let (reports, truncated, termination): (Vec<Report>, bool, Termination) = match engine {
        "djit" => {
            let mut det = DjitDetector::new(cfg);
            let r = run_flat(flat, &mut det, &mut RoundRobin::new(), VmOptions::default());
            (det.sink.take_reports(), det.truncated(), r.termination)
        }
        "hybrid" | "hybrid-queue" => {
            let mut det = HybridDetector::new(cfg);
            let r = run_flat(flat, &mut det, &mut RoundRobin::new(), VmOptions::default());
            (det.sink.take_reports(), det.truncated(), r.termination)
        }
        _ => {
            let mut det = EraserDetector::with_suppressions(cfg, SuppressionSet::new());
            let r = run_flat(flat, &mut det, &mut RoundRobin::new(), VmOptions::default());
            (det.sink.take_reports(), det.truncated(), r.termination)
        }
    };
    (reports.iter().map(Report::render).collect(), truncated, termination)
}

fn replay_detector(engine: &str) -> ReplayDetector {
    let cfg = config_of(engine);
    match engine {
        "djit" => ReplayDetector::Djit(DjitDetector::new(cfg)),
        "hybrid" | "hybrid-queue" => ReplayDetector::Hybrid(HybridDetector::new(cfg)),
        _ => ReplayDetector::Eraser(EraserDetector::with_suppressions(cfg, SuppressionSet::new())),
    }
}

fn analyze(bytes: &[u8], engine: &str, jobs: usize) -> (Vec<String>, bool) {
    let outcome = analyze_trace_bytes(bytes, replay_detector(engine), jobs, 0)
        .expect("recorded trace must analyze cleanly");
    (outcome.reports.iter().map(Report::render).collect(), outcome.truncated)
}

/// AB-BA, serialized: two workers take the same two mutexes in opposite
/// orders, one after the other. No run deadlocks, but the lock-order graph
/// has a cycle.
fn ab_ba_program() -> vexec::Program {
    let mut pb = ProgramBuilder::new();
    let ma = pb.global("ma", 8);
    let mb = pb.global("mb", 8);
    let loc = pb.loc("dl.cpp", 5, "w");
    let mut w = ProcBuilder::new(2);
    w.at(loc);
    let f = w.load_new(Expr::Reg(w.param(0)), 8);
    let s = w.load_new(Expr::Reg(w.param(1)), 8);
    w.lock(f);
    w.lock(s);
    w.unlock(s);
    w.unlock(f);
    let worker = pb.add_proc("w", w);
    let mut m = ProcBuilder::new(0);
    m.at(pb.loc("dl.cpp", 20, "main"));
    let a = m.new_mutex();
    let b = m.new_mutex();
    m.store(ma, a, 8);
    m.store(mb, b, 8);
    let h1 = m.spawn(worker, vec![Expr::Global(ma), Expr::Global(mb)]);
    m.join(h1);
    let h2 = m.spawn(worker, vec![Expr::Global(mb), Expr::Global(ma)]);
    m.join(h2);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

#[test]
fn record_analyze_matches_inline_for_all_cases_and_engines() {
    let mut inputs: Vec<(&str, vexec::ir::lower::FlatProgram)> =
        sipsim::testcases().iter().map(|tc| (tc.name, tc.build().program.lower())).collect();
    inputs.push(("ab-ba", ab_ba_program().lower()));
    for (name, flat) in &inputs {
        // Small epochs so even the small cases exercise multi-epoch decode
        // and the codec reset at every boundary.
        let bytes = record_bytes(flat, 512);
        for engine in ENGINES {
            let (inline_reports, inline_trunc, _) = run_inline(flat, engine);
            if *name == "ab-ba" {
                // Only the lockset detectors track lock order, and the
                // joins order every access, so that cycle is the one report.
                let cycles =
                    if matches!(*engine, "djit" | "hybrid" | "hybrid-queue") { 0 } else { 1 };
                assert_eq!(inline_reports.len(), cycles, "engine {engine}: {inline_reports:?}");
                assert!(
                    inline_reports.iter().all(|r| r.starts_with("Possible LockOrder ")),
                    "engine {engine}: {inline_reports:?}"
                );
            }
            let (replayed, replay_trunc) = analyze(&bytes, engine, 1);
            assert_eq!(
                replayed, inline_reports,
                "case {name} engine {engine}: offline reports differ from inline"
            );
            assert_eq!(replay_trunc, inline_trunc, "case {name} engine {engine}");
        }
    }
}

#[test]
fn sharded_analysis_is_bit_identical_to_sequential() {
    for tc in sipsim::testcases() {
        let flat = tc.build().program.lower();
        let bytes = record_bytes(&flat, 128);
        assert!(
            parse_trace(&bytes).expect("valid trace").epochs.len() > 1,
            "case {} must span several epochs for this test to bite",
            tc.name
        );
        for engine in ["hwlc-dr", "hybrid"] {
            let seq = analyze(&bytes, engine, 1);
            for jobs in [2, 4, 8] {
                assert_eq!(
                    analyze(&bytes, engine, jobs),
                    seq,
                    "case {} engine {engine} jobs {jobs}",
                    tc.name
                );
            }
        }
    }
}

#[test]
fn every_byte_mutation_is_detected() {
    let tc = &sipsim::testcases()[0];
    let flat = tc.build().program.lower();
    let bytes = record_bytes(&flat, 256);
    parse_trace(&bytes).expect("unmutated trace parses");
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xFF;
        let r = std::panic::catch_unwind(|| {
            analyze_trace_bytes(&mutated, replay_detector("hwlc-dr"), 1, 0).map(|_| ())
        });
        match r {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("flipping byte {i} went undetected"),
            Err(_) => panic!("flipping byte {i} caused a panic"),
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let tc = &sipsim::testcases()[0];
    let flat = tc.build().program.lower();
    let bytes = record_bytes(&flat, 256);
    for len in 0..bytes.len() {
        let r = std::panic::catch_unwind(|| parse_trace(&bytes[..len]).map(|_| ()));
        match r {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("prefix of {len} bytes parsed as a complete trace"),
            Err(_) => panic!("prefix of {len} bytes caused a panic"),
        }
    }
}

// -------------------------------------------------------------------
// `--repair`: crash-truncated traces recover to their intact prefix.
// -------------------------------------------------------------------

#[test]
fn repair_of_a_whole_trace_is_the_identity() {
    let tc = &sipsim::testcases()[0];
    let flat = tc.build().program.lower();
    let bytes = record_bytes(&flat, 256);
    let rt = parse_trace_repair(&bytes).expect("whole trace");
    assert!(!rt.repaired);
    assert_eq!(rt.dropped_bytes, 0);
    let strict = analyze(&bytes, "hwlc-dr", 1);
    let (outcome, info) =
        analyze_trace_repair(&bytes, replay_detector("hwlc-dr"), 1, 0).expect("whole trace");
    assert!(!info.repaired);
    let tolerant: Vec<String> = outcome.reports.iter().map(Report::render).collect();
    assert_eq!((tolerant, outcome.truncated), strict);
}

/// Every truncation point either fails cleanly or recovers an intact
/// prefix whose analysis is a *prefix* of the full run's reports — a
/// crash can lose the tail of the story but never rewrite it.
#[test]
fn every_truncation_repairs_to_an_intact_prefix() {
    let tc = &sipsim::testcases()[0];
    let flat = tc.build().program.lower();
    let bytes = record_bytes(&flat, 256);
    let full_epochs = parse_trace(&bytes).expect("valid trace").epochs.len();
    assert!(full_epochs > 1, "need several epochs for this test to bite");
    let (full_reports, _) = analyze(&bytes, "hwlc-dr", 1);

    let mut prev_kept = 0usize;
    let mut recovered_any = false;
    for len in 0..bytes.len() {
        let r = std::panic::catch_unwind(|| parse_trace_repair(&bytes[..len]));
        let rt = match r {
            Ok(Ok(rt)) => rt,
            Ok(Err(_)) => continue, // torn before anything usable: clean error
            Err(_) => panic!("repairing a {len}-byte prefix panicked"),
        };
        assert!(rt.repaired, "a strict prefix of {len} bytes cannot be a whole trace");
        // A cut inside the trailer keeps every epoch — the body is whole.
        let kept = rt.parsed.epochs.len();
        assert!(kept <= full_epochs, "prefix of {len} bytes grew epochs: {kept} > {full_epochs}");
        assert!(kept >= prev_kept, "kept epochs went backwards at {len}: {prev_kept} -> {kept}");
        assert!(rt.dropped_bytes <= len, "dropped more bytes than the prefix holds at {len}");
        // Analyzing every recoverable prefix is quadratic; do it whenever
        // the recovered epoch count changes and on a fixed stride between.
        if kept > prev_kept || len % 97 == 0 {
            let (outcome, info) =
                analyze_trace_repair(&bytes[..len], replay_detector("hwlc-dr"), 1, 0)
                    .expect("recovered prefix must analyze cleanly");
            assert!(info.repaired);
            let reports: Vec<String> = outcome.reports.iter().map(Report::render).collect();
            assert!(
                full_reports.starts_with(&reports[..]),
                "prefix of {len} bytes ({kept} epochs) produced reports that are not a \
                 prefix of the full run's:\n{reports:#?}\nvs\n{full_reports:#?}"
            );
            recovered_any = true;
        }
        prev_kept = prev_kept.max(kept);
    }
    assert!(recovered_any, "no truncation point recovered any epochs");
    assert!(prev_kept > 0, "repair never kept a single epoch");
}

/// Repair must never paper over real corruption: flipping any byte of a
/// *complete* file either propagates a structured error or — when the
/// flip is indistinguishable from a torn tail (e.g. a payload length
/// byte) — visibly drops epochs. It never passes the trace off as whole.
#[test]
fn repair_declines_interior_corruption() {
    let tc = &sipsim::testcases()[0];
    let flat = tc.build().program.lower();
    let bytes = record_bytes(&flat, 256);
    let full_epochs = parse_trace(&bytes).expect("valid trace").epochs.len();
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xFF;
        let r = std::panic::catch_unwind(|| parse_trace_repair(&mutated));
        match r {
            Ok(Err(_)) => {}
            Ok(Ok(rt)) => {
                // A flip that mimics a torn tail (e.g. a payload length
                // byte, or a footer byte) may recover — but the recovery
                // is always *flagged*, never passed off as a whole trace.
                assert!(rt.repaired, "flipping byte {i} was silently accepted as a whole trace");
                assert!(rt.parsed.epochs.len() <= full_epochs, "flipping byte {i} grew epochs");
            }
            Err(_) => panic!("flipping byte {i} caused a panic in repair"),
        }
    }
}

/// Sharded repair analysis is bit-identical to sequential, same as the
/// strict path: the synthesized footer feeds the same shard planner.
#[test]
fn repaired_sharded_analysis_matches_sequential() {
    let tc = &sipsim::testcases()[0];
    let flat = tc.build().program.lower();
    let bytes = record_bytes(&flat, 128);
    // Tear the trace inside its final epoch's payload.
    let cut = bytes.len() - 9;
    let rt = parse_trace_repair(&bytes[..cut]).expect("recoverable");
    assert!(rt.repaired && !rt.parsed.epochs.is_empty());
    let render = |jobs: usize| {
        let (outcome, _) = analyze_trace_repair(&bytes[..cut], replay_detector("hybrid"), jobs, 0)
            .expect("recovered prefix analyzes");
        outcome.reports.iter().map(Report::render).collect::<Vec<_>>()
    };
    let seq = render(1);
    for jobs in [2, 4, 8] {
        assert_eq!(render(jobs), seq, "jobs {jobs}");
    }
}

/// Record a run into an in-memory buffer and hand the bytes back.
fn record_bytes(flat: &vexec::ir::lower::FlatProgram, epoch_events: u64) -> Vec<u8> {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// `TraceWriter::finish` consumes the writer without returning the
    /// sink, so share the buffer with the test through an Arc.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let sink = SharedBuf::default();
    let mut writer = TraceWriter::new(sink.clone()).with_epoch_events(epoch_events);
    let r = run_flat(flat, &mut writer, &mut RoundRobin::new(), VmOptions::default());
    writer
        .finish(&r.termination, &r.stats, r.faults.as_ref())
        .expect("in-memory trace write cannot fail");
    let bytes = sink.0.lock().unwrap().clone();
    bytes
}
