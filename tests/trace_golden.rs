//! Golden equivalence: for the paper's T1–T8 evaluation cases, feeding a
//! recorded trace through any detector configuration must reproduce the
//! inline run's reports *byte for byte* — same renders, same order, same
//! truncation flag — and must do so identically for any `--jobs` count.
//! Plus the robustness half of the contract: corrupting or truncating a
//! trace anywhere yields a structured error, never a panic or a wrong
//! answer.

mod common;

use common::{PRODUCTION, UNFILTERED};
use helgrind_core::replay::{analyze_trace_bytes, analyze_trace_repair};
use helgrind_core::{AnyDetector, DetectorConfig, Report, SuppressionSet};
use raceline_trace::reader::{parse_trace, parse_trace_repair};
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::lower::FlatProgram;
use vexec::ir::Expr;
use vexec::sched::RoundRobin;
use vexec::vm::VmOptions;

/// Record a round-robin run through the filter, as `raceline record` does.
fn record_bytes(flat: &FlatProgram, epoch_events: u64) -> Vec<u8> {
    common::record(flat, epoch_events, PRODUCTION)
}

fn analyze(bytes: &[u8], engine: &str, jobs: usize) -> (Vec<String>, bool) {
    common::replay(bytes, engine, false, jobs)
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

/// Filtered recordings are what `raceline record` writes; bare ones are
/// what older `--no-filter` recordings hold, and `analyze` still reads
/// them. Both replay to the inline run's reports.
#[test]
fn record_analyze_matches_inline_for_all_cases_and_engines() {
    let mut inputs: Vec<(String, FlatProgram)> =
        common::programs().into_iter().map(|p| (p.name, p.flat)).collect();
    inputs.push(("ab-ba".to_string(), ab_ba_program().lower()));
    for (name, flat) in &inputs {
        // Small epochs so even the small cases exercise multi-epoch decode
        // and the codec reset at every boundary.
        let recordings = [PRODUCTION, UNFILTERED].map(|side| common::record(flat, 512, side));
        for engine in common::ENGINES {
            let opts = VmOptions::default();
            let (_, mut det) = common::run(flat, engine, &opts, &mut RoundRobin::new(), PRODUCTION);
            let inline_trunc = det.truncated();
            let inline_reports: Vec<String> =
                det.take_reports().iter().map(Report::render).collect();
            if name == "ab-ba" {
                // Only the lockset detectors track lock order, and the
                // joins order every access, so that cycle is the one report.
                let cycles =
                    if matches!(engine, "djit" | "hybrid" | "hybrid-queue") { 0 } else { 1 };
                assert_eq!(inline_reports.len(), cycles, "engine {engine}: {inline_reports:?}");
                assert!(
                    inline_reports.iter().all(|r| r.starts_with("Possible LockOrder ")),
                    "engine {engine}: {inline_reports:?}"
                );
            }
            for (bytes, kind) in recordings.iter().zip(["filtered", "bare"]) {
                let (replayed, replay_trunc) = analyze(bytes, engine, 1);
                assert_eq!(
                    replayed, inline_reports,
                    "case {name} engine {engine}: {kind} recording replays other reports"
                );
                assert_eq!(replay_trunc, inline_trunc, "case {name} engine {engine} ({kind})");
            }
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
            for jobs in [2, 3, 4, 8] {
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
            analyze_trace_bytes(&mutated, common::detector("hwlc-dr", false), 1, 0).map(|_| ())
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
    let (outcome, info) = analyze_trace_repair(&bytes, common::detector("hwlc-dr", false), 1, 0)
        .expect("whole trace");
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
                analyze_trace_repair(&bytes[..len], common::detector("hwlc-dr", false), 1, 0)
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
        let (outcome, _) =
            analyze_trace_repair(&bytes[..cut], common::detector("hybrid", false), jobs, 0)
                .expect("recovered prefix analyzes");
        outcome.reports.iter().map(Report::render).collect::<Vec<_>>()
    };
    let seq = render(1);
    for jobs in [2, 3, 4, 8] {
        assert_eq!(render(jobs), seq, "jobs {jobs}");
    }
}

/// Each engine's sink drops exactly the reports a filter over its
/// unsuppressed output drops, when no report cap is set: T3 replayed under
/// every engine with a `Race` and an `HbRace` suppression of the string
/// refcount sites.
#[test]
fn sink_suppressions_drop_what_a_post_filter_drops() {
    let bytes = record_bytes(&common::program("T3").flat, 512);
    for kind in ["Race", "HbRace"] {
        let text = format!("{{\n   s\n   Helgrind:{kind}\n   fun:std::string::*\n   ...\n}}\n");
        let supp = SuppressionSet::parse(&text).unwrap();
        for engine in common::ENGINES {
            let cfg = DetectorConfig::by_name(engine).unwrap();
            let replay = |supp: SuppressionSet| {
                let det = AnyDetector::by_name(engine, cfg, supp);
                analyze_trace_bytes(&bytes, det, 1, 0).expect("trace analyzes").reports
            };
            let all = replay(SuppressionSet::new());
            let kept: Vec<String> =
                all.iter().filter(|r| !supp.matches(r)).map(Report::render).collect();
            let sunk: Vec<String> = replay(supp.clone()).iter().map(Report::render).collect();
            assert_eq!(sunk, kept, "{engine} with a {kind} suppression");
            if kept.len() < all.len() {
                assert!(!sunk.is_empty(), "{engine}: only the string sites are suppressed");
            }
        }
    }
}
