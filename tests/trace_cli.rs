//! Integration tests for the trace subcommands (`record`, `analyze`,
//! `trace-diff`) and the checkpoint torn-write repair, driven through the
//! real executable.

use std::path::PathBuf;
use std::process::Command;

use raceline::vexec::event::{ClientEv, Event, ThreadId};
use raceline::vexec::ir::SrcLoc;
use raceline_trace::format::{
    encode_event, encode_footer_body, encode_header, encode_snapshot, CodecState, Fnv1a, END_MAGIC,
    TAG_EPOCH, TAG_FOOTER,
};
use raceline_trace::varint::put_uvarint;
use raceline_trace::{EpochSnapshot, ThreadSnap, TraceBlock, TraceFooter, TraceTermination};

fn raceline(args: &[&str]) -> (String, String, i32) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_raceline")).args(args).output().expect("run raceline");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

const SAMPLE: &str = "examples/programs/session.mcpp";
const RACY: &str = "examples/programs/racy_global.mcpp";
const CLEAN: &str = "examples/programs/clean_locked.mcpp";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("raceline_trace_cli_{name}"))
}

fn record_sample(src: &str, name: &str, extra: &[&str]) -> PathBuf {
    let path = tmp(name);
    let p = path.to_str().unwrap().to_string();
    let mut args = vec!["record", src, "--out", &p];
    args.extend_from_slice(extra);
    let (_, stderr, code) = raceline(&args);
    assert_eq!(code, 0, "record must succeed\n{stderr}");
    assert!(stderr.contains("recorded "), "{stderr}");
    path
}

#[test]
fn analyze_output_is_byte_identical_to_check() {
    let trace = record_sample(SAMPLE, "golden.rltrace", &["--epoch-events", "8"]);
    for engine in ["original", "hwlc", "hwlc-dr", "djit", "hybrid", "hybrid-queue"] {
        let (check_out, _, check_code) = raceline(&["check", SAMPLE, "--detector", engine]);
        let (analyze_out, _, analyze_code) =
            raceline(&["analyze", trace.to_str().unwrap(), "--detector", engine]);
        assert_eq!(analyze_out, check_out, "stdout must match byte for byte [{engine}]");
        assert_eq!(analyze_code, check_code, "exit codes must match [{engine}]");
    }
}

#[test]
fn analyze_jobs_are_deterministic() {
    let trace = record_sample(SAMPLE, "jobs.rltrace", &["--epoch-events", "4"]);
    let p = trace.to_str().unwrap();
    // A window of 3 epochs divides neither the epoch count nor the other
    // windows; a suffix analysis starts inside the first window of 8.
    for from in ["0", "2"] {
        let baseline = raceline(&["analyze", p, "--from-epoch", from, "--jobs", "1"]);
        for jobs in ["2", "3", "8"] {
            let got = raceline(&["analyze", p, "--from-epoch", from, "--jobs", jobs]);
            assert_eq!(got, baseline, "from epoch {from}, jobs {jobs}");
        }
    }
}

#[test]
fn analyze_rejects_corruption_with_structured_errors() {
    let trace = record_sample(SAMPLE, "corrupt.rltrace", &[]);
    let bytes = std::fs::read(&trace).unwrap();

    // Truncated file.
    let torn = tmp("torn.rltrace");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let (_, stderr, code) = raceline(&["analyze", torn.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("truncated"), "{stderr}");

    // Flipped byte in the middle.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    let flip = tmp("flip.rltrace");
    std::fs::write(&flip, &flipped).unwrap();
    let (_, stderr, code) = raceline(&["analyze", flip.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("checksum mismatch"), "{stderr}");

    // Version bump (with the checksum recomputed over it, so the version
    // check itself is what fires).
    let bad = tmp("version.rltrace");
    std::fs::write(&bad, b"RLTRACE1\xFF\x00\x00\x00rest").unwrap();
    let (_, stderr, code) = raceline(&["analyze", bad.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("version"), "{stderr}");

    // Not a trace at all.
    let junk = tmp("junk.rltrace");
    std::fs::write(&junk, b"hello world").unwrap();
    let (_, stderr, code) = raceline(&["analyze", junk.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");
}

/// A whole, checksummed trace encoded by hand: one heap block at 0x1000
/// (16 bytes), one epoch frame per `(snapshot, payload)` pair, and a
/// footer claiming `events` events. Hand encoding reaches what no VM run
/// records, such as a client request outside guest memory (the VM stops
/// that guest) or a snapshot that disagrees with the stream.
fn hand_trace(epochs: &[(EpochSnapshot, Vec<u8>)], events: u64) -> Vec<u8> {
    let block = TraceBlock { addr: 0x1000, size: 16, alloc_tid: 0, freed: false };
    let mut bytes = encode_header(&[""], &[block]);
    for (index, (snapshot, payload)) in epochs.iter().enumerate() {
        bytes.push(TAG_EPOCH);
        put_uvarint(&mut bytes, index as u64);
        encode_snapshot(&mut bytes, snapshot);
        put_uvarint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(payload);
    }
    bytes.push(TAG_FOOTER);
    let footer = TraceFooter {
        events,
        epochs: epochs.len() as u64,
        slots: events,
        termination: TraceTermination::AllExited,
        faults: None,
    };
    encode_footer_body(&mut bytes, &footer);
    let mut hash = Fnv1a::default();
    hash.update(&bytes);
    bytes.extend_from_slice(&hash.0.to_le_bytes());
    bytes.extend_from_slice(END_MAGIC);
    bytes
}

/// One epoch payload: `events`, encoded from a fresh codec state.
fn payload(events: &[Event]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut codec = CodecState::default();
    for ev in events {
        encode_event(&mut out, &mut codec, ev);
    }
    out
}

/// The snapshot entering an epoch after thread `i` emitted `seqs[i]`
/// events, holding no locks.
fn snapshot(seqs: &[u64]) -> EpochSnapshot {
    EpochSnapshot {
        index: 0,
        threads: seqs.iter().map(|&seq| ThreadSnap { seq, held: Vec::new() }).collect(),
    }
}

/// One epoch of one event: `req` from thread 0.
fn client_request_trace(req: ClientEv) -> Vec<u8> {
    let ev = Event::Client { tid: ThreadId(0), req, loc: SrcLoc::UNKNOWN };
    hand_trace(&[(snapshot(&[]), payload(&[ev]))], 1)
}

#[test]
fn analyze_rejects_a_client_request_outside_the_heap() {
    // Inside the block: a well-formed trace.
    let ok = tmp("client_ok.rltrace");
    std::fs::write(&ok, client_request_trace(ClientEv::HgDestruct { addr: 0x1000, size: 16 }))
        .unwrap();
    let (_, stderr, code) = raceline(&["analyze", ok.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");

    // 2^40 bytes: the lockset engine would build shadow state for each
    // granule of the range and grow without bound. It is a corrupt trace.
    let hostile = client_request_trace(ClientEv::HgDestruct { addr: 0x1000, size: 1 << 40 });
    let path = tmp("client_hostile.rltrace");
    std::fs::write(&path, hostile).unwrap();
    let (_, stderr, code) = raceline(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains(
            "client request names 1099511627776 byte(s) at 0x1000, outside every heap block"
        ),
        "{stderr}"
    );

    // Past the block's end, by one granule.
    let past = tmp("client_past.rltrace");
    std::fs::write(&past, client_request_trace(ClientEv::HgCleanMemory { addr: 0x1008, size: 16 }))
        .unwrap();
    let (_, stderr, code) = raceline(&["analyze", past.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("outside every heap block"), "{stderr}");
}

/// A corrupt trace reports its first defect in stream order, at every
/// `--jobs`: here a client request outside the heap in epoch 0, ahead of
/// an unknown record tag in epoch 1, though a window of two or more
/// epochs decodes epoch 1 before epoch 0 is folded.
#[test]
fn analyze_reports_the_first_defect_in_stream_order_at_every_jobs() {
    let hostile = Event::Client {
        tid: ThreadId(0),
        req: ClientEv::HgDestruct { addr: 0x1000, size: 1 << 40 },
        loc: SrcLoc::UNKNOWN,
    };
    // Tag 0x7f names no record; the byte after it is the thread id.
    let unknown_tag = vec![0x7f, 0x00];
    let bytes =
        hand_trace(&[(snapshot(&[]), payload(&[hostile])), (snapshot(&[1]), unknown_tag)], 2);
    let path = tmp("first_defect.rltrace");
    std::fs::write(&path, bytes).unwrap();
    let p = path.to_str().unwrap();
    let (_, baseline, code) = raceline(&["analyze", p, "--jobs", "1"]);
    assert_eq!(code, 2, "{baseline}");
    assert!(baseline.contains("epoch 0: client request names"), "{baseline}");
    for jobs in ["2", "3", "8"] {
        let (_, stderr, code) = raceline(&["analyze", p, "--jobs", jobs]);
        assert_eq!((code, &stderr), (2, &baseline), "jobs {jobs}");
    }
}

/// Each epoch snapshot lists every thread that has emitted an event: one
/// that leaves such a thread out is corrupt, even though every thread it
/// lists agrees with the stream.
#[test]
fn analyze_rejects_a_snapshot_that_omits_a_thread() {
    let loc = SrcLoc::UNKNOWN;
    let first = payload(&[
        Event::ThreadCreate { parent: ThreadId(0), child: ThreadId(1), loc },
        Event::ThreadExit { tid: ThreadId(1) },
    ]);
    let second = payload(&[Event::ThreadExit { tid: ThreadId(0) }]);
    let trace = |seqs: &[u64]| {
        hand_trace(&[(snapshot(&[]), first.clone()), (snapshot(seqs), second.clone())], 3)
    };

    let whole = tmp("snapshot_whole.rltrace");
    std::fs::write(&whole, trace(&[1, 1])).unwrap();
    let (_, stderr, code) = raceline(&["analyze", whole.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");

    let omits = tmp("snapshot_omits.rltrace");
    std::fs::write(&omits, trace(&[1])).unwrap();
    let (_, stderr, code) = raceline(&["analyze", omits.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("epoch 1 snapshot omits thread 1 which already emitted 1 events"),
        "{stderr}"
    );
}

#[test]
fn trace_diff_reports_new_and_fixed_warnings() {
    let racy = record_sample(RACY, "diff_racy.rltrace", &[]);
    let clean = record_sample(CLEAN, "diff_clean.rltrace", &[]);
    let (racy_p, clean_p) = (racy.to_str().unwrap(), clean.to_str().unwrap());

    // Identical inputs: no differences, exit 0.
    let (stdout, _, code) = raceline(&["trace-diff", racy_p, racy_p]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 new, 0 fixed"), "{stdout}");

    // Racy → other program: the racy global's warning is fixed, exit 1.
    let (stdout, _, code) = raceline(&["trace-diff", racy_p, clean_p]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("1 fixed"), "{stdout}");
    assert!(
        stdout.contains("[fixed] Race (write) at examples/programs/racy_global.mcpp"),
        "{stdout}"
    );

    // Reversed direction: the same warning is new.
    let (stdout, _, code) = raceline(&["trace-diff", clean_p, racy_p]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("[new] Race (write) at examples/programs/racy_global.mcpp"),
        "{stdout}"
    );

    // One trace, two detector configs: DR fixes the destructor FP.
    let sample = record_sample(SAMPLE, "diff_dr.rltrace", &[]);
    let sp = sample.to_str().unwrap();
    let (stdout, _, code) =
        raceline(&["trace-diff", sp, sp, "--detector-a", "original", "--detector-b", "hwlc-dr"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("1 fixed"), "destructor FP disappears under DR\n{stdout}");
}

#[test]
fn trace_diff_json_is_golden_against_text_output() {
    use raceline_warehouse::json;

    let racy = record_sample(RACY, "diff_json_racy.rltrace", &[]);
    let clean = record_sample(CLEAN, "diff_json_clean.rltrace", &[]);
    let (racy_p, clean_p) = (racy.to_str().unwrap(), clean.to_str().unwrap());

    let args = ["trace-diff", racy_p, clean_p, "--detector-a", "hwlc", "--detector-b", "hwlc-dr"];
    let (text, _, text_code) = raceline(&args);
    let mut jargs = args.to_vec();
    jargs.push("--json");
    let (jout, _, json_code) = raceline(&jargs);

    // Same verdict either way.
    assert_eq!(json_code, text_code, "text and json must agree on the exit code");

    let v = json::parse(jout.trim_end()).expect("diff --json must emit valid JSON");
    // Engine-config provenance rides along.
    assert_eq!(json::get_str(&v, "detector_a"), Some("hwlc"), "{jout}");
    assert_eq!(json::get_str(&v, "detector_b"), Some("hwlc-dr"), "{jout}");

    // Golden cross-check: every edge in the JSON appears as the matching
    // text line, every summary/count in the text header matches the JSON.
    let header = text.lines().next().expect("text header line");
    for (key, label) in [("new", "new"), ("fixed", "fixed")] {
        let Some(serde::Value::Array(entries)) = json::get(&v, key) else {
            panic!("missing {key} array\n{jout}");
        };
        assert!(header.contains(&format!("{} {label}", entries.len())), "{header} vs {jout}");
        for e in entries {
            let summary = json::get_str(e, "summary").expect("summary field");
            assert!(text.contains(&format!("[{label}] {summary}")), "{text}\nvs\n{jout}");
            // The structured fields re-assemble into the summary's tail
            // (the summary leads with the human kind name; the `kind`
            // field carries the stable code instead).
            let tail = format!(
                " at {}:{} ({})",
                json::get_str(e, "file").unwrap_or("?"),
                json::get_u64(e, "line").unwrap_or(0),
                json::get_str(e, "func").unwrap_or("?"),
            );
            assert!(summary.ends_with(&tail), "{summary} vs {tail}");
            assert!(!json::get_str(e, "fingerprint").unwrap_or("").is_empty(), "{jout}");
        }
    }
    let unchanged = json::get_u64(&v, "unchanged").expect("unchanged count");
    assert!(header.contains(&format!("{unchanged} unchanged")), "{header} vs {jout}");

    // The racy→clean direction under one engine fixes the racy global.
    let (text2, _, code2) = raceline(&["trace-diff", racy_p, clean_p]);
    let (jout2, _, jcode2) = raceline(&["trace-diff", racy_p, clean_p, "--json"]);
    assert_eq!(code2, 1);
    assert_eq!(jcode2, 1);
    let v2 = json::parse(jout2.trim_end()).unwrap();
    let Some(serde::Value::Array(fixed)) = json::get(&v2, "fixed") else { panic!("{jout2}") };
    assert_eq!(fixed.len(), 1, "{jout2}");
    assert!(
        text2.contains(&format!("[fixed] {}", json::get_str(&fixed[0], "summary").unwrap())),
        "{text2}\nvs\n{jout2}"
    );
}

#[test]
fn analyze_from_epoch_primes_held_locks() {
    // A suffix analysis still runs end to end; with everything before the
    // last epoch skipped, the race body may or may not re-trigger, but the
    // command must succeed and stay deterministic.
    let trace = record_sample(SAMPLE, "suffix.rltrace", &["--epoch-events", "8"]);
    let p = trace.to_str().unwrap();
    let a = raceline(&["analyze", p, "--from-epoch", "3"]);
    let b = raceline(&["analyze", p, "--from-epoch", "3"]);
    assert_eq!(a, b);
    assert!(a.2 == 0 || a.2 == 1, "suffix analysis is clean or findings, not an error");
}

/// `--from-epoch` names an epoch of the trace, the repaired trace's under
/// `--repair`; one past the last is bad input, not an empty analysis.
#[test]
fn analyze_from_epoch_past_the_last_epoch_exits_2() {
    let trace = tmp("t6_epochs.rltrace");
    let p = trace.to_str().unwrap();
    let (_, stderr, code) = raceline(&["record", "--case", "T6", "--out", p]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains(" in 4 epoch(s)"), "{stderr}");
    for from in ["4", "999"] {
        let (stdout, stderr, code) = raceline(&["analyze", p, "--from-epoch", from]);
        assert_eq!(code, 2, "--from-epoch {from}\n{stdout}{stderr}");
        assert!(stderr.contains("the trace has 4 epoch(s)"), "{stderr}");
        assert!(stdout.is_empty() && !stderr.contains("analyzed"), "{stdout}{stderr}");
    }
    for from in ["0", "3"] {
        let (_, stderr, code) = raceline(&["analyze", p, "--from-epoch", from]);
        assert!(code == 0 || code == 1, "--from-epoch {from}\n{stderr}");
    }

    let bytes = std::fs::read(&trace).unwrap();
    let torn = tmp("t6_epochs_torn.rltrace");
    std::fs::write(&torn, &bytes[..bytes.len() * 3 / 4]).unwrap();
    let t = torn.to_str().unwrap();
    let (_, stderr, code) = raceline(&["analyze", t, "--repair", "--from-epoch", "1"]);
    assert!(code == 0 || code == 1, "{stderr}");
    assert!(stderr.contains("analyzing 2 intact epoch(s)"), "{stderr}");
    let (_, stderr, code) = raceline(&["analyze", t, "--repair", "--from-epoch", "2"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("the trace has 2 epoch(s)"), "{stderr}");
}

#[test]
fn record_passes_schedule_and_fault_options_through() {
    let trace = record_sample(
        RACY,
        "faults.rltrace",
        &["--schedule", "random:7", "--faults", "seed=7,wakeup=50"],
    );
    let (stdout, _, code) = raceline(&["analyze", trace.to_str().unwrap(), "--json"]);
    assert!(code == 0 || code == 1, "{stdout}");
    assert!(stdout.contains("\"injected_faults\""), "fault counters survive the footer\n{stdout}");
}

#[test]
fn checkpoint_survives_torn_final_line() {
    let ck = tmp("torn.checkpoint");
    let ck_p = ck.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&ck);
    let (full, stderr, _) = raceline(&["check", SAMPLE, "--explore", "6", "--checkpoint", &ck_p]);
    assert!(std::fs::metadata(&ck).is_ok(), "sweep must write a checkpoint\n{stderr}");

    // Saves are atomic, so only something else can cut the file: cut it
    // mid-way into the last location record. Its counters cover that
    // location, so the resume redoes every run rather than drop it.
    let text = std::fs::read_to_string(&ck).unwrap();
    let last_loc = text.rfind("\nloc ").expect("checkpoint with a location") + 1;
    std::fs::write(&ck, &text[..last_loc + 10]).unwrap();

    let (stdout, stderr, code) =
        raceline(&["check", SAMPLE, "--explore", "6", "--checkpoint", &ck_p]);
    assert_ne!(code, 2, "torn checkpoint must not abort the sweep\n{stderr}");
    assert!(stderr.contains("repaired truncated checkpoint"), "{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert_eq!(stdout, full, "the resumed sweep prints the uninterrupted one");
}

/// Every engine drops a suppressed report in its sink, before the report
/// cap counts it: under `reports=5` a suppression of T3's 46 djit
/// `std::string::string` locations leaves five of the other 61 to print,
/// not an empty report.
#[test]
fn analyze_applies_suppressions_before_the_report_cap() {
    let trace = tmp("t3_capped.rltrace");
    let t = trace.to_str().unwrap().to_string();
    let (_, stderr, code) = raceline(&["record", "--case", "T3", "--out", &t]);
    assert_eq!(code, 0, "{stderr}");
    let supp = tmp("string_ctor.supp");
    std::fs::write(
        &supp,
        "{\n   string-ctor\n   Helgrind:HbRace\n   fun:std::string::string\n   ...\n}\n",
    )
    .unwrap();
    let s = supp.to_str().unwrap();

    let args = ["analyze", &t, "--detector", "djit", "--budget", "reports=5", "--suppressions", s];
    let (stdout, stderr, code) = raceline(&args);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(stderr.contains("5 warning(s)"), "{stderr}");
    assert_eq!(stdout.matches("Possible HbRace").count(), 5, "{stdout}");
    assert!(!stdout.contains("at std::string::string"), "{stdout}");

    let (stdout, stderr, code) =
        raceline(&["analyze", &t, "--detector", "djit", "--suppressions", s]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(stderr.contains("60 warning(s)"), "{stderr}");
}
