//! Service-level equivalence and crash-recovery tests: the warehouse
//! catalogue must byte-match a sequential offline fold for any upload
//! order, worker count, or crash schedule (DESIGN.md §14). The wire layer
//! is exercised separately through the binary in `tests/serve_cli.rs`;
//! here the [`Service`] is driven in-process.

use std::path::PathBuf;

use helgrind_core::DetectorConfig;
use raceline_trace::format::TRAILER_LEN;
use raceline_trace::reader::parse_trace;
use raceline_trace::writer::TraceWriter;
use raceline_warehouse::{
    analyze_for_warehouse, content_hash, render_catalogue, Service, ServiceConfig, WarehouseLog,
    LOG_FILE,
};
use vexec::sched::RoundRobin;
use vexec::vm::run_program;

const ENGINE: &str = "hwlc-dr";

/// Record the first `n` sipsim regression cases as in-memory traces.
fn record_cases(n: usize) -> Vec<Vec<u8>> {
    sipsim::testcases()
        .into_iter()
        .take(n)
        .map(|tc| {
            let built = tc.build();
            let mut buf = Vec::with_capacity(1 << 20);
            let mut w = TraceWriter::new(&mut buf);
            let r = run_program(&built.program, &mut w, &mut RoundRobin::new());
            w.finish(&r.termination, &r.stats, r.faults.as_ref()).expect("vec sink");
            buf
        })
        .collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("raceline_warehouse_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config(spool: PathBuf, jobs: usize) -> ServiceConfig {
    ServiceConfig { spool, engine: ENGINE.to_string(), hb_reference: false, jobs }
}

/// The oracle: a sequential in-memory fold over the uploads, same
/// analysis, same state, same renderer.
fn offline_fold(uploads: &[(u64, &[u8])]) -> (WarehouseLog, String) {
    let cfg = DetectorConfig::by_name(ENGINE).expect("known engine");
    let mut log = WarehouseLog::new(ENGINE, false);
    for (build, bytes) in uploads {
        let hash = content_hash(bytes);
        if log.traces.contains_key(&(*build, hash)) {
            continue;
        }
        let (warnings, events) = analyze_for_warehouse(bytes, ENGINE, cfg).expect("clean trace");
        log.fold_ingest(*build, hash, events, &warnings);
    }
    let rendered = render_catalogue(&log);
    (log, rendered)
}

#[test]
fn catalogue_is_upload_order_and_worker_count_invariant() {
    let traces = record_cases(4);
    let uploads: Vec<(u64, &[u8])> =
        traces.iter().enumerate().map(|(i, t)| (1 + (i as u64) % 2, t.as_slice())).collect();
    let (_, baseline) = offline_fold(&uploads);

    for (oi, order) in [[0usize, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]].iter().enumerate() {
        for jobs in [1usize, 4] {
            let dir = fresh_dir(&format!("perm{oi}_j{jobs}"));
            let svc = Service::open(config(dir.clone(), jobs)).unwrap();
            for &i in order {
                let (b, t) = uploads[i];
                svc.submit(b, t).unwrap();
            }
            assert_eq!(svc.query(), baseline, "order {order:?} jobs {jobs}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Fully concurrent submission: one producer thread per trace, racing
    // through the same service instance.
    let dir = fresh_dir("concurrent");
    let svc = Service::open(config(dir.clone(), 4)).unwrap();
    std::thread::scope(|s| {
        for &(b, t) in &uploads {
            let svc = &svc;
            s.spawn(move || svc.submit(b, t).unwrap());
        }
    });
    assert_eq!(svc.query(), baseline, "concurrent submission");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_resumes_to_identical_bytes_and_suppression_persists() {
    let traces = record_cases(2);
    let dir = fresh_dir("reopen");
    let uploads: Vec<(u64, &[u8])> = vec![(1, &traces[0]), (2, &traces[1])];
    let (oracle_log, _) = offline_fold(&uploads);
    let fp = oracle_log.entries.keys().next().expect("cases produce warnings").clone();

    let first = {
        let svc = Service::open(config(dir.clone(), 1)).unwrap();
        let a = svc.submit(1, &traces[0]).unwrap();
        assert!(!a.duplicate);
        let dup = svc.submit(1, &traces[0]).unwrap();
        assert!(dup.duplicate, "same build + same bytes is a dedup hit");
        svc.submit(2, &traces[1]).unwrap();
        assert!(svc.suppress(&fp, true).unwrap(), "first suppression changes state");
        assert!(!svc.suppress(&fp, true).unwrap(), "second is a no-op");
        svc.query()
    };
    assert!(first.contains("[suppressed]"), "{first}");

    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    assert_eq!(svc.query(), first, "reopen must resume to the same bytes");
    assert!(svc.suppress(&fp, false).unwrap(), "un-suppress changes state back");
    assert!(!svc.query().contains("[suppressed]"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_ingest_resumes_to_uninterrupted_bytes() {
    let traces = record_cases(3);
    let uploads: Vec<(u64, &[u8])> = vec![(1, &traces[0]), (1, &traces[1]), (2, &traces[2])];

    // Uninterrupted run: the baseline bytes plus the on-disk artifacts a
    // crash schedule gets to mangle.
    let base = fresh_dir("torn_base");
    let svc = Service::open(config(base.clone(), 1)).unwrap();
    for &(b, t) in &uploads {
        svc.submit(b, t).unwrap();
    }
    let baseline = svc.query();
    drop(svc);
    let log_text = std::fs::read_to_string(base.join(LOG_FILE)).unwrap();
    let spool_files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&base)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".rltrace"))
        .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
        .collect();
    assert_eq!(spool_files.len(), 3, "one spool file per distinct upload");

    // A crash between spool write and log commit leaves the trace file on
    // disk and the log torn anywhere inside the interrupted block. Replay
    // the crash at every line boundary and mid-line — recovery must
    // re-ingest from the spool and land on the baseline, exactly.
    let header_len = WarehouseLog::new(ENGINE, false).header().len();
    let mut cuts: Vec<usize> = vec![header_len, log_text.len()];
    for (i, b) in log_text.bytes().enumerate() {
        if b == b'\n' && i + 1 >= header_len {
            cuts.push(i + 1);
            // Mid-line tear inside the following line, when there is one.
            if i + 1 < log_text.len() {
                let line_end =
                    log_text[i + 1..].find('\n').map_or(log_text.len(), |j| i + 1 + j + 1);
                cuts.push(i + 1 + (line_end - i - 1) / 2);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let dir = fresh_dir("torn_cut");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &spool_files {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        std::fs::write(dir.join(LOG_FILE), &log_text[..cut]).unwrap();
        let svc =
            Service::open(config(dir.clone(), 1)).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(svc.query(), baseline, "cut at {cut} of {}", log_text.len());
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Interior corruption is not a torn tail: it must refuse to open
    // rather than silently drop committed history.
    let dir = fresh_dir("interior");
    std::fs::create_dir_all(&dir).unwrap();
    let mut bad = log_text.clone().into_bytes();
    let mid = header_len + (bad.len() - header_len) / 2;
    bad[mid] = 0xFF;
    std::fs::write(dir.join(LOG_FILE), &bad).unwrap();
    assert!(Service::open(config(dir.clone(), 1)).is_err(), "interior corruption must error");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}

/// The log commits before memory does: when the append fails, the
/// upload is refused and nothing of it is served, deduplicated against or
/// left in the spool. The failure is forced by turning the log's path
/// into a directory under the running service.
#[test]
fn a_failed_log_append_commits_nothing() {
    let traces = record_cases(1);
    let dir = fresh_dir("append_fails");
    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    let empty = svc.query();
    std::fs::remove_file(dir.join(LOG_FILE)).unwrap();
    std::fs::create_dir(dir.join(LOG_FILE)).unwrap();

    assert!(svc.submit(1, &traces[0]).is_err(), "an append that fails refuses the upload");
    assert_eq!(svc.query(), empty, "a trace the log does not hold is not served");
    assert!(svc.submit(1, &traces[0]).is_err(), "nor is a re-upload a duplicate of it");
    assert!(svc.suppress("RaceWrite|a.cpp|1|f", true).is_err());
    assert_eq!(svc.query(), empty, "a suppression the log does not hold is not served");
    let spooled = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".rltrace"))
        .count();
    assert_eq!(spooled, 0, "the refused upload leaves no spool copy");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An upload is hashed once: the pass that checks its trace checksum also
/// yields its content hash, which the submit answers with, the spool file
/// is named by and the log commits.
#[test]
fn submit_answers_and_commits_the_content_hash() {
    let traces = record_cases(8);
    let dir = fresh_dir("content_hash");
    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    let mut hashes = Vec::new();
    for trace in &traces {
        let outcome = svc.submit(1, trace).unwrap();
        assert!(!outcome.duplicate);
        assert_eq!(outcome.hash, content_hash(trace));
        let hash = format!("{:016x}", outcome.hash);
        assert!(dir.join(format!("b1-{hash}.rltrace")).is_file(), "spool file of {hash}");
        hashes.push(hash);
    }
    let log = std::fs::read_to_string(dir.join(LOG_FILE)).unwrap();
    let mut logged: Vec<&str> =
        log.lines().filter_map(|line| line.strip_prefix("trace 1\t")?.split('\t').next()).collect();
    logged.sort_unstable();
    hashes.sort_unstable();
    assert_eq!(logged, hashes, "the log commits each upload under its content hash");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_upload_is_rejected_and_leaves_no_residue() {
    let traces = record_cases(1);
    let dir = fresh_dir("corrupt_upload");
    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    svc.submit(1, &traces[0]).unwrap();
    let good = svc.query();
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();

    assert!(svc.submit(2, b"definitely not a trace").is_err());
    let mut torn = traces[0].clone();
    torn.truncate(torn.len() / 2);
    assert!(svc.submit(3, &torn).is_err());
    let mut flipped = traces[0].clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    assert!(svc.submit(4, &flipped).is_err());
    // One payload byte flipped under the old checksum: the body hash taken
    // with the content hash no longer matches the stored checksum.
    let mut flipped = traces[0].clone();
    let desc = &parse_trace(&flipped).unwrap().epochs[0];
    flipped[desc.payload_offset + desc.payload_len / 2] ^= 0x01;
    let err = svc.submit(6, &flipped).unwrap_err();
    assert!(err.contains("checksum mismatch"), "{err}");
    // Shorter than the envelope (magic, version, trailer): refused with the
    // error a full parse gives, before any checksum is read.
    for len in 0..12 + TRAILER_LEN {
        let short = &traces[0][..len];
        let want = parse_trace(short).unwrap_err().to_string();
        assert_eq!(svc.submit(5, short).unwrap_err(), want, "{len}-byte upload");
    }

    assert_eq!(svc.query(), good, "rejected uploads must not change the catalogue");
    assert_eq!(std::fs::read(dir.join(LOG_FILE)).unwrap(), log, "nor commit a log line");
    let residue = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rltrace") || n.ends_with(".tmp"))
        .count();
    assert_eq!(residue, 1, "rejected uploads must not leave spool files behind");

    drop(svc);
    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    assert_eq!(svc.query(), good, "reopen after rejections is unchanged");
    let _ = std::fs::remove_dir_all(&dir);
}
