//! Integration tests for `raceline serve` / `raceline client`, driven
//! through the real executable over real TCP: the served catalogue must
//! byte-match a sequential in-process fold of the same uploads under
//! concurrent uploads, survive kill -9 and torn-write crashes, reject
//! corrupt uploads without dying, and round-trip suppression state
//! (DESIGN.md §14).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use helgrind_core::DetectorConfig;
use raceline_warehouse::server::MAX_HEADER;
use raceline_warehouse::{
    analyze_for_warehouse, content_hash, json, render_catalogue, WarehouseLog,
};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_raceline")
}

fn raceline(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(bin()).args(args).output().expect("run raceline");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("raceline_serve_cli_{name}_{}", std::process::id()))
}

/// Record the given sipsim regression cases to temp trace files.
fn record_cases(names: &[&str], tag: &str) -> Vec<PathBuf> {
    names
        .iter()
        .map(|case| {
            let path = tmp(&format!("{tag}_{case}.rltrace"));
            let p = path.to_str().unwrap().to_string();
            let (_, stderr, code) = raceline(&["record", "--case", case, "--out", &p]);
            assert_eq!(code, 0, "record {case} must succeed\n{stderr}");
            path
        })
        .collect()
}

/// The offline oracle: fold `(build, trace)` uploads sequentially in
/// memory through the server's analysis, state and renderer — only the
/// transport is missing.
fn offline_fold(uploads: &[(u64, &Path)]) -> String {
    let engine = "hwlc-dr";
    let cfg = DetectorConfig::by_name(engine).expect("known engine");
    let mut log = WarehouseLog::new(engine, false);
    for (build, path) in uploads {
        let bytes = std::fs::read(path).expect("read trace");
        let hash = content_hash(&bytes);
        if log.traces.contains_key(&(*build, hash)) {
            continue;
        }
        let (warnings, events) = analyze_for_warehouse(&bytes, engine, cfg).expect("clean trace");
        log.fold_ingest(*build, hash, events, &warnings);
    }
    render_catalogue(&log)
}

struct Server {
    child: Child,
    addr: String,
}

/// Spawn `raceline serve` with `args` on an ephemeral port and scrape the
/// bound address from its first stdout line.
fn spawn_server(spool: &Path, args: &[&str], envs: &[(&str, &str)]) -> Server {
    let mut cmd = Command::new(bin());
    cmd.args(["serve", "--listen", "127.0.0.1:0", "--spool", spool.to_str().unwrap()])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn server");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line.strip_prefix("listening ").expect("listen banner").trim().to_string();
    Server { child, addr }
}

fn client(addr: &str, args: &[&str]) -> (String, String, i32) {
    let mut full = vec!["client", "--connect", addr];
    full.extend_from_slice(args);
    raceline(&full)
}

fn shutdown(mut server: Server) {
    let (_, _, code) = client(&server.addr, &["shutdown"]);
    assert_eq!(code, 0, "shutdown must be acknowledged");
    let status = server.child.wait().expect("server exit");
    assert_eq!(status.code(), Some(0), "server exits 0 after shutdown");
}

#[test]
fn served_catalogue_matches_offline_fold_under_concurrent_uploads() {
    let cases = ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"];
    let traces = record_cases(&cases, "fold");
    let spool = tmp("fold_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let server = spawn_server(&spool, &["--jobs", "4"], &[]);

    // Eight concurrent clients, builds interleaved across them.
    std::thread::scope(|s| {
        for (i, trace) in traces.iter().enumerate() {
            let addr = &server.addr;
            s.spawn(move || {
                let build = (1 + i % 2).to_string();
                let (stdout, stderr, code) =
                    client(addr, &["submit", "--build", &build, trace.to_str().unwrap()]);
                assert_eq!(code, 0, "submit {i}: {stderr}");
                assert!(stdout.contains("\"ok\":true"), "{stdout}");
                let hash = content_hash(&std::fs::read(trace).unwrap());
                assert!(stdout.contains(&format!("\"hash\":\"{hash:016x}\"")), "{stdout}");
            });
        }
    });

    let (served, _, code) = client(&server.addr, &["query"]);
    assert_eq!(code, 0);

    // The offline oracle folds the same uploads sequentially.
    let uploads: Vec<(u64, &Path)> =
        traces.iter().enumerate().map(|(i, t)| (1 + i as u64 % 2, t.as_path())).collect();
    assert_eq!(served, offline_fold(&uploads), "served catalogue must byte-match the offline fold");

    // Re-submitting an already-ingested trace is a dedup hit, not a new row.
    let (stdout, _, code) =
        client(&server.addr, &["submit", "--build", "1", traces[0].to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"duplicate\":true"), "{stdout}");
    let (served2, _, _) = client(&server.addr, &["query"]);
    assert_eq!(served2, served, "dedup hit leaves the catalogue untouched");

    shutdown(server);
}

#[test]
fn warehouse_diff_matches_trace_diff_json() {
    let traces = record_cases(&["T1", "T3"], "diff");
    let (t1, t3) = (traces[0].to_str().unwrap(), traces[1].to_str().unwrap());
    let spool = tmp("diff_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let server = spawn_server(&spool, &[], &[]);

    // Single-trace builds so the build-level diff sees exactly the same
    // warning sets as the trace-level diff.
    assert_eq!(client(&server.addr, &["submit", "--build", "11", t1]).2, 0);
    assert_eq!(client(&server.addr, &["submit", "--build", "12", t3]).2, 0);

    let (served_diff, _, code) = client(&server.addr, &["diff", "--a", "11", "--b", "12"]);
    assert_eq!(code, 0);
    let (offline_diff, _, code) = raceline(&["trace-diff", t1, t3, "--json"]);
    assert!(code == 0 || code == 1);
    assert_eq!(
        served_diff, offline_diff,
        "served regression edges must byte-match trace-diff --json"
    );

    shutdown(server);
}

#[test]
fn corrupt_upload_never_kills_the_server() {
    let traces = record_cases(&["T2"], "corrupt");
    let good = traces[0].to_str().unwrap();
    let spool = tmp("corrupt_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let server = spawn_server(&spool, &[], &[]);

    assert_eq!(client(&server.addr, &["submit", "--build", "1", good]).2, 0);
    let (before, _, _) = client(&server.addr, &["query"]);

    // Garbage bytes, a torn trace, and a flipped byte: the client exits 2
    // each time and the server keeps serving.
    let junk = tmp("junk.rltrace");
    std::fs::write(&junk, b"definitely not a trace").unwrap();
    let bytes = std::fs::read(&traces[0]).unwrap();
    let torn = tmp("torn.rltrace");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    let flip = tmp("flip.rltrace");
    std::fs::write(&flip, &flipped).unwrap();

    for (bad, error) in [(&junk, "bad magic"), (&torn, "truncated"), (&flip, "checksum mismatch")] {
        let (_, stderr, code) =
            client(&server.addr, &["submit", "--build", "2", bad.to_str().unwrap()]);
        assert_eq!(code, 2, "corrupt upload must fail the client, not the server\n{stderr}");
        assert!(stderr.contains("server error") && stderr.contains(error), "{stderr}");
    }

    // A header that reaches the cap without a newline is answered
    // `ok:false` and the connection closed; the server reads no further.
    let mut conn = TcpStream::connect(&server.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).expect("set read timeout");
    conn.write_all(&vec![b'x'; MAX_HEADER as usize]).expect("send capped header");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read reply until close");
    assert!(reply.starts_with("{\"ok\":false"), "{reply}");
    assert!(reply.contains("header exceeds"), "{reply}");
    // Four times the cap: the server may reset the connection while the
    // client still writes, so only its survival is checked, below.
    let mut conn = TcpStream::connect(&server.addr).expect("connect");
    let _ = conn.write_all(&vec![b'x'; 4 * MAX_HEADER as usize]);
    drop(conn);

    let (after, _, code) = client(&server.addr, &["query"]);
    assert_eq!(code, 0, "server must still answer after corrupt uploads");
    assert_eq!(after, before, "rejected uploads must not change the catalogue");
    shutdown(server);
}

#[test]
fn deeply_nested_request_is_refused_and_the_server_survives() {
    let spool = tmp("nested_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let server = spawn_server(&spool, &[], &[]);
    // 60,000 `[` fit under the header cap; parsed without a depth limit
    // they overflowed the handler thread's stack and aborted the process.
    let mut line = vec![b'['; 60_000];
    line.push(b'\n');
    let mut conn = TcpStream::connect(&server.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).expect("set read timeout");
    conn.write_all(&line).expect("send the nested header");
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).expect("read the reply");
    assert!(reply.starts_with("{\"ok\":false"), "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");
    let (stdout, stderr, code) = client(&server.addr, &["ping"]);
    assert_eq!(code, 0, "the server must still answer\n{stdout}{stderr}");
    shutdown(server);
}

#[test]
fn a_reused_connection_answers_without_delayed_ack_stalls() {
    let spool = tmp("reuse_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let server = spawn_server(&spool, &[], &[]);
    let conn = TcpStream::connect(&server.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).expect("set read timeout");
    let mut writer = conn.try_clone().expect("clone the stream");
    let mut reader = BufReader::new(conn);
    // A frame sent as a header write and a separate `\n` write waits for
    // the peer's delayed ACK on every request after the first: ~44 ms a
    // ping, 2.2 s for these 50.
    let start = std::time::Instant::now();
    for _ in 0..50 {
        writer.write_all(b"{\"cmd\":\"ping\"}\n").expect("send ping");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read pong");
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "50 pings on one connection took {elapsed:?}");
    drop(writer);
    drop(reader);
    shutdown(server);
}

#[test]
fn kill_nine_then_restart_resumes_to_identical_bytes() {
    let traces = record_cases(&["T4", "T5", "T6"], "kill");
    let spool = tmp("kill_spool");
    let _ = std::fs::remove_dir_all(&spool);

    let mut server = spawn_server(&spool, &[], &[]);
    for (i, t) in traces[..2].iter().enumerate() {
        let b = (i as u64 + 1).to_string();
        assert_eq!(client(&server.addr, &["submit", "--build", &b, t.to_str().unwrap()]).2, 0);
    }
    let (before, _, _) = client(&server.addr, &["query"]);
    server.child.kill().expect("SIGKILL server");
    let _ = server.child.wait();

    // Restart on the same spool: same bytes, and still ingesting.
    let server = spawn_server(&spool, &[], &[]);
    let (resumed, _, code) = client(&server.addr, &["query"]);
    assert_eq!(code, 0);
    assert_eq!(resumed, before, "restart must resume to the pre-kill catalogue");

    assert_eq!(client(&server.addr, &["submit", "--build", "3", traces[2].to_str().unwrap()]).2, 0);
    let (served, _, _) = client(&server.addr, &["query"]);
    let uploads: Vec<(u64, &Path)> =
        traces.iter().enumerate().map(|(i, t)| (i as u64 + 1, t.as_path())).collect();
    assert_eq!(served, offline_fold(&uploads), "post-restart ingest still matches the fold");
    shutdown(server);
}

#[test]
fn torn_write_crash_mid_commit_resumes_to_the_fold() {
    let traces = record_cases(&["T7"], "tornwrite");
    let t = traces[0].to_str().unwrap();
    let spool = tmp("tornwrite_spool");
    let _ = std::fs::remove_dir_all(&spool);

    // Line 0-1 are the log header; the crash hook tears the commit block
    // of the first ingest mid-way through its warn lines, after the trace
    // has already been spooled.
    let mut server = spawn_server(&spool, &[], &[("RACELINE_TEST_TORN_WRITE", "10")]);
    let (_, _, code) = client(&server.addr, &["submit", "--build", "1", t]);
    assert_eq!(code, 2, "the upload's connection dies with the server");
    let status = server.child.wait().expect("server exit");
    assert_eq!(status.code(), Some(42), "torn-write hook exits 42");

    // Recovery re-ingests the spooled trace: the catalogue equals the
    // uninterrupted fold, byte for byte.
    let server = spawn_server(&spool, &[], &[]);
    let (resumed, _, code) = client(&server.addr, &["query"]);
    assert_eq!(code, 0);
    let folded = offline_fold(&[(1, &traces[0])]);
    assert_eq!(resumed, folded, "torn-write crash must resume to the fold");
    shutdown(server);
}

/// A crash while a fresh spool's log header is written (the first line
/// the server writes) leaves no log, only its temp file: the log appears
/// whole or not at all, and a restart creates it and serves the fold.
#[test]
fn torn_header_write_on_a_fresh_spool_restarts_to_the_fold() {
    let traces = record_cases(&["T3"], "tornheader");
    let t = traces[0].to_str().unwrap();
    let spool = tmp("tornheader_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let out = Command::new(bin())
        .args(["serve", "--listen", "127.0.0.1:0", "--spool", spool.to_str().unwrap()])
        .env("RACELINE_TEST_TORN_WRITE", "0")
        .output()
        .expect("run server");
    assert_eq!(out.status.code(), Some(42), "torn-write hook exits 42");
    assert!(!spool.join("warehouse.log").exists(), "no half-written log");

    let server = spawn_server(&spool, &[], &[]);
    assert_eq!(client(&server.addr, &["submit", "--build", "1", t]).2, 0);
    let (served, _, code) = client(&server.addr, &["query"]);
    assert_eq!(code, 0);
    let folded = offline_fold(&[(1, &traces[0])]);
    assert_eq!(served, folded, "restart after a torn header resumes to the fold");
    shutdown(server);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn suppression_round_trips_over_the_wire() {
    let traces = record_cases(&["T8"], "suppress");
    let t = traces[0].to_str().unwrap();
    let spool = tmp("suppress_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let server = spawn_server(&spool, &[], &[]);
    assert_eq!(client(&server.addr, &["submit", "--build", "1", t]).2, 0);

    // Harvest a live fingerprint from the diff endpoint (build 0 is empty,
    // so everything in build 1 shows up as `new`).
    let (diff, _, code) = client(&server.addr, &["diff", "--a", "0", "--b", "1"]);
    assert_eq!(code, 0);
    let v = json::parse(diff.trim_end()).expect("diff is valid JSON");
    let Some(serde::Value::Array(new)) = json::get(&v, "new") else { panic!("{diff}") };
    assert!(!new.is_empty(), "T8 must produce warnings\n{diff}");
    let fp = json::get_str(&new[0], "fingerprint").expect("fingerprint field").to_string();

    let (stdout, _, code) = client(&server.addr, &["suppress", &fp]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"changed\":true"), "{stdout}");
    let (catalogue, _, _) = client(&server.addr, &["query"]);
    assert!(catalogue.contains("[suppressed]"), "{catalogue}");
    let (stats, _, _) = client(&server.addr, &["stats"]);
    let sv = json::parse(stats.trim_end()).expect("stats is valid JSON");
    assert_eq!(json::get_u64(&sv, "suppressed"), Some(1), "{stats}");

    // Survives a restart, and --off reverses it.
    shutdown(server);
    let server = spawn_server(&spool, &[], &[]);
    let (catalogue, _, _) = client(&server.addr, &["query"]);
    assert!(catalogue.contains("[suppressed]"), "suppression must persist\n{catalogue}");
    let (stdout, _, code) = client(&server.addr, &["suppress", &fp, "--off"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"changed\":true"), "{stdout}");
    let (catalogue, _, _) = client(&server.addr, &["query"]);
    assert!(!catalogue.contains("[suppressed]"), "{catalogue}");
    shutdown(server);
}
