//! Service-level equivalence and crash-recovery tests: the warehouse
//! catalogue must byte-match a sequential offline fold for any upload
//! order, worker count, or crash schedule (DESIGN.md §14). The wire layer
//! is exercised separately through the binary in `tests/serve_cli.rs`;
//! here the [`Service`] is driven in-process.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use helgrind_core::DetectorConfig;
use raceline_trace::format::{Fnv1a, END_MAGIC, TRAILER_LEN};
use raceline_trace::reader::parse_trace;
use raceline_trace::writer::TraceWriter;
use raceline_warehouse::{
    analyze_for_warehouse, content_hash, render_catalogue, Service, ServiceConfig, SubmitOutcome,
    WarehouseLog, LOG_FILE, SPOOL_FILE,
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

/// One whole record of `uploads.spool`, read by this parser alone: the
/// line `upload <build> <hash:016x> <len>`, the body, then `\n`.
struct SpoolRecord {
    build: u64,
    hash: u64,
    /// Where the body starts and where the record ends, in the file.
    body_at: usize,
    end: usize,
}

/// Parse a spool file that holds whole records only.
fn spool_records(spool: &[u8]) -> Vec<SpoolRecord> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < spool.len() {
        let nl = pos + spool[pos..].iter().position(|&b| b == b'\n').expect("head line");
        let head = std::str::from_utf8(&spool[pos..nl]).expect("ASCII head");
        let fields: Vec<&str> = head.split(' ').collect();
        assert!(fields.len() == 4 && fields[0] == "upload", "record head {head:?}");
        assert_eq!(fields[2].len(), 16, "hash field of {head:?}");
        let len: usize = fields[3].parse().unwrap();
        let (body_at, end) = (nl + 1, nl + 1 + len + 1);
        assert_eq!(spool[end - 1], b'\n', "record closed by a newline");
        records.push(SpoolRecord {
            build: fields[1].parse().unwrap(),
            hash: u64::from_str_radix(fields[2], 16).unwrap(),
            body_at,
            end,
        });
        pos = end;
    }
    records
}

fn read_spool(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(SPOOL_FILE)).unwrap()
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
    let folds: Vec<String> = (0..=uploads.len()).map(|k| offline_fold(&uploads[..k]).1).collect();

    // Uninterrupted run: the baseline bytes plus the on-disk artifacts a
    // crash schedule gets to mangle.
    let base = fresh_dir("torn_base");
    let svc = Service::open(config(base.clone(), 1)).unwrap();
    for &(b, t) in &uploads {
        svc.submit(b, t).unwrap();
    }
    assert_eq!(svc.query(), folds[3]);
    drop(svc);
    let log_text = std::fs::read_to_string(base.join(LOG_FILE)).unwrap();
    let spool = read_spool(&base);
    let records = spool_records(&spool);
    assert_eq!(records.len(), 3, "one whole record per distinct upload");
    for (r, &(build, bytes)) in records.iter().zip(&uploads) {
        assert_eq!((r.build, r.hash), (build, content_hash(bytes)));
        assert_eq!(&spool[r.body_at..r.end - 1], bytes, "the record holds the upload's bytes");
    }

    // The write sequence is each upload's spool record, then its log
    // block. A crash leaves the record torn with the log at the previous
    // block, or the record whole with its block torn anywhere. Every state
    // must reopen to the fold of the uploads whose record is whole.
    let header_len = WarehouseLog::new(ENGINE, false).header().len();
    let (mut block_ends, mut pos) = (vec![header_len], 0);
    for line in log_text.split_inclusive('\n') {
        pos += line.len();
        if line.starts_with("trace ") {
            block_ends.push(pos);
        }
    }
    assert_eq!(block_ends.len(), 4, "one log block per upload");
    let mut states: Vec<(usize, usize, usize)> = Vec::new(); // (spool cut, log cut, uploads whole)
    let mut record_start = 0;
    for (i, r) in records.iter().enumerate() {
        // The record torn: at its start, inside its head line, with no,
        // half or every body byte, the closing newline missing.
        let mid_head = (record_start + r.body_at) / 2;
        for cut in [record_start, mid_head, r.body_at, (r.body_at + r.end) / 2, r.end - 1] {
            states.push((cut, block_ends[i], i));
        }
        // The record is whole: its block torn at every line boundary and
        // mid-line.
        let block = &log_text[block_ends[i]..block_ends[i + 1]];
        let mut line_start = block_ends[i];
        for line in block.split_inclusive('\n') {
            states.push((r.end, line_start, i + 1));
            states.push((r.end, line_start + line.len() / 2, i + 1));
            line_start += line.len();
        }
        record_start = r.end;
    }
    states.push((spool.len(), log_text.len(), 3));

    for (spool_cut, log_cut, whole) in states {
        let at = format!("spool cut at {spool_cut}, log cut at {log_cut}");
        let dir = fresh_dir("torn_cut");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SPOOL_FILE), &spool[..spool_cut]).unwrap();
        std::fs::write(dir.join(LOG_FILE), &log_text[..log_cut]).unwrap();
        let svc = Service::open(config(dir.clone(), 1)).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(svc.query(), folds[whole], "{at}");
        drop(svc);
        let kept = if whole == 0 { 0 } else { records[whole - 1].end };
        let files = (read_spool(&dir), std::fs::read(dir.join(LOG_FILE)).unwrap());
        assert_eq!(files.0, &spool[..kept], "{at}: the torn record is cut off");
        let svc = Service::open(config(dir.clone(), 1)).unwrap();
        assert_eq!(svc.query(), folds[whole], "{at}: second reopen");
        drop(svc);
        let again = (read_spool(&dir), std::fs::read(dir.join(LOG_FILE)).unwrap());
        assert!(again == files, "{at}: a second reopen changes neither file");
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

/// A whole record the log lacks is re-ingested only if it still hashes to
/// its head and still analyzes; one that does not is skipped and kept,
/// and every other upload recovers.
#[test]
fn a_damaged_spool_record_is_skipped_and_kept() {
    let traces = record_cases(3);
    let uploads: Vec<(u64, &[u8])> = vec![(1, &traces[0]), (1, &traces[1]), (2, &traces[2])];
    let base = fresh_dir("flip_base");
    let svc = Service::open(config(base.clone(), 1)).unwrap();
    for &(b, t) in &uploads {
        svc.submit(b, t).unwrap();
    }
    drop(svc);
    let mut spool = read_spool(&base);
    let records = spool_records(&spool);
    let r = &records[1];
    spool[(r.body_at + r.end) / 2] ^= 0x01;
    // A record of junk headed with the junk's own hash: it hashes, but
    // does not analyze.
    let junk: &[u8] = b"not a trace";
    spool.extend_from_slice(
        format!("upload 3 {:016x} {}\n", content_hash(junk), junk.len()).as_bytes(),
    );
    spool.extend_from_slice(junk);
    spool.push(b'\n');
    let _ = std::fs::remove_dir_all(&base);

    // Every upload spooled, none committed: the log holds its header only.
    let dir = fresh_dir("flip");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(SPOOL_FILE), &spool).unwrap();
    std::fs::write(dir.join(LOG_FILE), WarehouseLog::new(ENGINE, false).header()).unwrap();
    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    assert_eq!(svc.query(), offline_fold(&[uploads[0], uploads[2]]).1);
    drop(svc);
    assert_eq!(read_spool(&dir), spool, "skipped records are not deleted");
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    drop(Service::open(config(dir.clone(), 1)).unwrap());
    assert_eq!(std::fs::read(dir.join(LOG_FILE)).unwrap(), log, "a second reopen adds nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spool directory of the retired layout, one `b<build>-<hash>.rltrace`
/// per upload written as a `.tmp` and renamed, opens to what its log
/// committed. Its trace files are neither read nor removed: one the log
/// lacks was never acknowledged to its client.
#[test]
fn a_spool_dir_of_the_old_layout_opens_to_its_log() {
    let traces = record_cases(2);
    let dir = fresh_dir("old_layout");
    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    svc.submit(1, &traces[0]).unwrap();
    let committed = svc.query();
    drop(svc);
    std::fs::remove_file(dir.join(SPOOL_FILE)).unwrap();
    let old = [
        (format!("b1-{:016x}.rltrace", content_hash(&traces[0])), traces[0].clone()),
        (format!("b2-{:016x}.rltrace", content_hash(&traces[1])), traces[1].clone()),
        (format!(".b3-{:016x}.tmp", content_hash(&traces[1])), traces[1][..100].to_vec()),
    ];
    for (name, bytes) in &old {
        std::fs::write(dir.join(name), bytes).unwrap();
    }

    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    assert_eq!(svc.query(), committed, "only what the log committed is served");
    let again = svc.submit(1, &traces[0]).unwrap();
    assert!(again.duplicate, "a committed upload stays a duplicate");
    drop(svc);
    for (name, bytes) in &old {
        assert_eq!(&std::fs::read(dir.join(name)).unwrap(), bytes, "{name} is left as it was");
    }
    assert_eq!(read_spool(&dir), b"", "the new spool starts empty");
    let _ = std::fs::remove_dir_all(&dir);
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
    let spool = read_spool(&dir);
    std::fs::remove_file(dir.join(LOG_FILE)).unwrap();
    std::fs::create_dir(dir.join(LOG_FILE)).unwrap();

    assert!(svc.submit(1, &traces[0]).is_err(), "an append that fails refuses the upload");
    assert_eq!(svc.query(), empty, "a trace the log does not hold is not served");
    assert!(svc.submit(1, &traces[0]).is_err(), "nor is a re-upload a duplicate of it");
    assert!(svc.suppress("RaceWrite|a.cpp|1|f", true).is_err());
    assert_eq!(svc.query(), empty, "a suppression the log does not hold is not served");
    assert_eq!(read_spool(&dir), spool, "the refused upload's record is cut back");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An upload is hashed once: the pass that checks its trace checksum also
/// yields its content hash, which the submit answers with, the spool
/// record is headed with and the log commits.
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
        let spool = read_spool(&dir);
        let record = spool_records(&spool).pop().expect("a record per upload");
        assert_eq!(
            (record.build, record.hash),
            (1, outcome.hash),
            "record of {:016x}",
            outcome.hash
        );
        assert_eq!(&spool[record.body_at..record.end - 1], trace.as_slice());
        hashes.push(format!("{:016x}", outcome.hash));
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort_unstable();
    assert_eq!(names, [SPOOL_FILE, LOG_FILE], "two files, however many uploads");
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
    let spool = read_spool(&dir);

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
    assert_eq!(read_spool(&dir), spool, "nor spool a byte of them");

    drop(svc);
    let svc = Service::open(config(dir.clone(), 1)).unwrap();
    assert_eq!(svc.query(), good, "reopen after rejections is unchanged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submit `upload` from `n` threads at once, released together by a
/// barrier, to a fresh service with 4 analysis slots.
fn submit_at_once(name: &str, upload: &[u8], n: usize) -> Vec<Result<SubmitOutcome, String>> {
    let dir = fresh_dir(name);
    let svc = Service::open(config(dir.clone(), 4)).unwrap();
    let start = Barrier::new(n);
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    svc.submit(1, upload)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    answers
}

/// A submit that finds its upload already in flight waits for that ingest
/// to settle. If it failed, so does every copy; if it committed, exactly
/// one answer is fresh and every duplicate carries the committed counts.
#[test]
fn a_duplicate_in_flight_answers_as_the_upload_settles() {
    let t6 = record_cases(6).pop().unwrap();
    // One byte of the last epoch's payload changed and the checksum sealed
    // again: the upload passes its checksum and fails replay.
    let mut corrupt = t6.clone();
    let last = parse_trace(&corrupt).unwrap().epochs.pop().unwrap();
    corrupt[last.payload_offset] = 0xFF;
    let body = corrupt.len() - TRAILER_LEN;
    let mut h = Fnv1a::default();
    h.update(&corrupt[..body]);
    corrupt[body..body + 8].copy_from_slice(&h.0.to_le_bytes());
    assert_eq!(&corrupt[body + 8..], END_MAGIC);
    let cfg = DetectorConfig::by_name(ENGINE).unwrap();
    let err = analyze_for_warehouse(&corrupt, ENGINE, cfg).unwrap_err();
    assert!(!err.contains("checksum"), "{err}");
    let (warnings, events) = analyze_for_warehouse(&t6, ENGINE, cfg).unwrap();

    for round in 0..4 {
        let answers = submit_at_once("inflight_corrupt", &corrupt, 6);
        assert!(answers.iter().all(Result::is_err), "round {round}: {answers:?}");

        let answers = submit_at_once("inflight_valid", &t6, 6);
        let answers: Vec<SubmitOutcome> = answers.into_iter().map(Result::unwrap).collect();
        assert_eq!(
            answers.iter().filter(|a| !a.duplicate).count(),
            1,
            "round {round}: {answers:?}"
        );
        for a in &answers {
            assert_eq!(
                (a.events, a.warnings),
                (events, warnings.len() as u64),
                "round {round}: {a:?}"
            );
        }
    }
}
