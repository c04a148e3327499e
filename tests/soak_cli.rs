//! Integration tests for `raceline soak` and the crash-recovery story,
//! driven through the real executable: the exit-code contract, `--jobs`
//! byte-identity, a harness crash injected *mid-checkpoint-write* (via the
//! `RACELINE_TEST_TORN_WRITE` hook) with byte-identical resume, exact
//! resume of explore sweeps from their checkpoints, and the
//! `analyze --repair` recovery of a crash-truncated trace.

use std::path::PathBuf;
use std::process::Command;

fn raceline(args: &[&str]) -> (String, String, i32) {
    raceline_env(args, &[])
}

/// Like [`raceline`] but with extra environment variables — the torn-write
/// crash hook is armed through the environment so the *child* tears, not
/// the test harness.
fn raceline_env(args: &[&str], envs: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_raceline"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run raceline");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("raceline_soak_cli_{name}"))
}

const SAMPLE: &str = "examples/programs/session.mcpp";

/// The standard small soak profile used across these tests: enough traffic
/// to hit every planted site, kills armed, a couple of seconds of work.
const SOAK: &[&str] =
    &["soak", "--dialogs", "2000", "--phases", "4", "--seed", "77", "--kill", "30", "--mem-report"];

#[test]
fn soak_finds_the_planted_races_and_exits_one() {
    let (stdout, stderr, code) = raceline(SOAK);
    assert_eq!(code, 1, "planted races => exit 1\n{stdout}{stderr}");
    // Every planted site and nothing else: the registrar expiry counter,
    // the two call statistics, and one forward counter per proxy hop.
    for site in [
        "registrar.cpp:55",
        "stats.cpp:20",
        "stats.cpp:25",
        "routing.cpp:115",
        "routing.cpp:125",
        "routing.cpp:135",
    ] {
        assert!(stdout.contains(site), "missing planted site {site}\n{stdout}");
    }
    assert!(stdout.contains("catalogue: 12 warning location(s)"), "{stdout}");
    assert!(stdout.contains("mem-verdict: flat"), "reclamation keeps granules flat\n{stdout}");
    assert!(stderr.contains("soak: phase 4/4:"), "per-phase progress on stderr\n{stderr}");
}

#[test]
fn soak_single_thread_profile_is_clean_and_exits_zero() {
    let (stdout, stderr, code) = raceline(&[
        "soak",
        "--dialogs",
        "600",
        "--phases",
        "2",
        "--workers",
        "1",
        "--resize",
        "0",
        "--kill",
        "0",
        "--seed",
        "9",
    ]);
    assert_eq!(code, 0, "one worker, no kills => no races => exit 0\n{stdout}{stderr}");
    assert!(stdout.contains("catalogue: 0 warning location(s)"), "{stdout}");
}

#[test]
fn soak_rejects_bad_usage_with_exit_two() {
    let (_, _, code) = raceline(&["soak", "--dialogs"]);
    assert_eq!(code, 2);
    let (_, _, code) = raceline(&["soak", "--frobnicate"]);
    assert_eq!(code, 2);
}

#[test]
fn soak_jobs_are_byte_identical() {
    let base = raceline(SOAK);
    for jobs in ["2", "8"] {
        let mut args = SOAK.to_vec();
        args.extend_from_slice(&["--jobs", jobs]);
        let (stdout, _, code) = raceline_env(&args, &[]);
        assert_eq!(code, base.2, "jobs {jobs}");
        assert_eq!(stdout, base.0, "summary must be byte-identical under --jobs {jobs}");
    }
}

/// The S3 contract: kill the harness *mid-checkpoint-write*, resume, and
/// get a summary — and a checkpoint log — byte-identical to the same-seed
/// uninterrupted run.
#[test]
fn soak_crash_mid_checkpoint_write_resumes_byte_identical() {
    // Reference: uninterrupted run with a checkpoint.
    let ref_ck = tmp("ref.soaklog");
    let _ = std::fs::remove_file(&ref_ck);
    let mut args = SOAK.to_vec();
    let ref_p = ref_ck.to_str().unwrap().to_string();
    args.extend_from_slice(&["--checkpoint", &ref_p]);
    let (ref_out, _, ref_code) = raceline(&args);
    assert_eq!(ref_code, 1);
    let ref_log = std::fs::read_to_string(&ref_ck).expect("reference log written");
    let lines = ref_log.lines().count();
    assert!(lines > 6, "need a multi-phase log to tear\n{ref_log}");

    // Crash run: same spec, torn write halfway through the line stream.
    let crash_ck = tmp("crash.soaklog");
    let _ = std::fs::remove_file(&crash_ck);
    let crash_p = crash_ck.to_str().unwrap().to_string();
    let mut args = SOAK.to_vec();
    args.extend_from_slice(&["--checkpoint", &crash_p]);
    let torn_at = (lines / 2).to_string();
    let (_, stderr, code) = raceline_env(&args, &[("RACELINE_TEST_TORN_WRITE", &torn_at)]);
    assert_eq!(code, 42, "armed torn write must crash the harness\n{stderr}");
    let torn = std::fs::read_to_string(&crash_ck).expect("partial log on disk");
    assert!(!torn.ends_with('\n'), "the final line must be torn mid-write");
    assert!(ref_log.len() > torn.len(), "crash log is a strict prefix");

    // A crash in the first resume's rewrite of the torn tail (its first
    // written line) leaves the log as the first crash left it: the
    // rewrite is a temp file renamed over the log.
    let (_, stderr, code) = raceline_env(&args, &[("RACELINE_TEST_TORN_WRITE", "0")]);
    assert_eq!(code, 42, "armed torn write must crash the rewrite\n{stderr}");
    assert_eq!(std::fs::read_to_string(&crash_ck).unwrap(), torn, "the log is untouched");

    // Resume: cut the torn tail, finish the remaining phases.
    let (stdout, stderr, code) = raceline(&args);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("checkpoint repaired") || stderr.contains("resuming at phase"),
        "resume must announce itself\n{stderr}"
    );
    assert_eq!(stdout, ref_out, "resumed summary must be byte-identical");
    let resumed = std::fs::read_to_string(&crash_ck).unwrap();
    assert_eq!(resumed, ref_log, "resumed log must be byte-identical");
}

/// A divergent spec must not silently resume into someone else's log.
#[test]
fn soak_refuses_a_checkpoint_from_a_different_spec() {
    let ck = tmp("mismatch.soaklog");
    let _ = std::fs::remove_file(&ck);
    let p = ck.to_str().unwrap().to_string();
    let mut args = SOAK.to_vec();
    args.extend_from_slice(&["--checkpoint", &p]);
    let (_, _, code) = raceline(&args);
    assert_eq!(code, 1);
    let (_, stderr, code) = raceline(&[
        "soak",
        "--dialogs",
        "2000",
        "--phases",
        "4",
        "--seed",
        "78",
        "--checkpoint",
        &p,
    ]);
    assert_eq!(code, 2, "spec mismatch is an error\n{stderr}");
    assert!(stderr.contains("different parameters"), "{stderr}");
}

/// The log records the detector settings beside the workload, so resuming
/// a hybrid run's log under another engine is refused and leaves the file
/// as it was, instead of folding two engines into one catalogue.
#[test]
fn soak_refuses_a_checkpoint_from_another_detector() {
    let ck = tmp("detector.soaklog");
    let _ = std::fs::remove_file(&ck);
    let p = ck.to_str().unwrap().to_string();
    let run = |detector: &str| {
        raceline(&[
            "soak",
            "--dialogs",
            "4000",
            "--phases",
            "4",
            "--seed",
            "0x51",
            "--detector",
            detector,
            "--checkpoint",
            &p,
        ])
    };
    let (_, _, code) = run("hybrid");
    assert_eq!(code, 1);
    // Keep the header and phases 0-1, as a run stopped after phase 1 leaves it.
    let log = std::fs::read_to_string(&ck).expect("log written");
    let mut kept = String::new();
    let mut phases = 0;
    for line in log.split_inclusive('\n') {
        if phases == 2 {
            break;
        }
        kept.push_str(line);
        phases += usize::from(line.starts_with("phase "));
    }
    assert_eq!(phases, 2, "{log}");
    std::fs::write(&ck, &kept).unwrap();
    let (_, stderr, code) = run("original");
    assert_eq!(code, 2, "another detector's log is refused\n{stderr}");
    assert!(stderr.contains("different parameters"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&ck).unwrap(), kept, "the refused log is untouched");
    // The engine that wrote it resumes.
    let (_, stderr, code) = run("hybrid");
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("resuming at phase 2"), "{stderr}");
}

/// Same crash hook against the explore sweep's checkpoint save. A save
/// replaces the file atomically, so a crash in the middle of the second
/// save of a budget-stopped sweep leaves the first checkpoint on disk byte
/// for byte, and resuming from it converges on the uninterrupted sweep.
#[test]
fn explore_checkpoint_crash_mid_write_resumes_identically() {
    let (ref_out, _, ref_code) = raceline(&["check", SAMPLE, "--explore", "6"]);
    assert_eq!(ref_code, 1);

    let ck = tmp("explore.checkpoint");
    let _ = std::fs::remove_file(&ck);
    let p = ck.to_str().unwrap().to_string();
    let args = ["check", SAMPLE, "--explore", "6", "--checkpoint", &p];
    let mut budgeted = args.to_vec();
    budgeted.extend_from_slice(&["--budget", "total-slots=150"]);
    let (stdout, stderr, _) = raceline(&budgeted);
    assert!(stdout.contains("timed out:"), "the budget stops the sweep early\n{stdout}{stderr}");
    let first = std::fs::read(&ck).expect("first checkpoint saved");

    let (_, stderr, code) = raceline_env(&args, &[("RACELINE_TEST_TORN_WRITE", "3")]);
    assert_eq!(code, 42, "torn write must crash the second save\n{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert_eq!(std::fs::read(&ck).unwrap(), first, "the first checkpoint survives whole");

    let (stdout, stderr, code) = raceline(&args);
    assert_eq!(code, ref_code, "{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert!(!stderr.contains("repaired"), "an intact checkpoint needs no repair\n{stderr}");
    assert_eq!(stdout, ref_out, "post-resume summary matches the uninterrupted sweep");
}

/// A resumed sweep reports exactly what the uninterrupted sweep does, in
/// text and in JSON: every stack frame, the heap-block note and each
/// location's `first_run` come back from the checkpoint.
#[test]
fn explore_resume_reproduces_the_uninterrupted_sweep() {
    for json in [false, true] {
        let mut sweep = vec!["check", SAMPLE, "--explore", "6"];
        if json {
            sweep.push("--json");
        }
        let (ref_out, _, ref_code) = raceline(&sweep);
        assert_eq!(ref_code, 1);
        if !json {
            assert!(ref_out.contains("by worker (examples/programs/session.mcpp:29)"), "{ref_out}");
            assert!(ref_out.contains("Address 0x1040 is 0 bytes inside a block of size 8"));
        }

        let ck = tmp(&format!("exact_{json}.checkpoint"));
        let _ = std::fs::remove_file(&ck);
        let p = ck.to_str().unwrap().to_string();
        sweep.extend_from_slice(&["--checkpoint", &p]);
        let mut budgeted = sweep.clone();
        budgeted.extend_from_slice(&["--budget", "total-slots=150"]);
        let (partial, _, _) = raceline(&budgeted);
        assert_ne!(partial, ref_out, "the budget stops the sweep early");

        let (stdout, stderr, code) = raceline(&sweep);
        assert!(stderr.contains("resuming from"), "{stderr}");
        assert_eq!(code, ref_code);
        assert_eq!(stdout, ref_out, "resumed output is the uninterrupted sweep's (json: {json})");
    }
}

/// A checkpoint records what decides each run's outcome; a sweep that
/// differs in any of it refuses to resume (exit 2) and leaves the file
/// alone. The run count is not part of it: a larger `--explore N` extends
/// the sweep.
#[test]
fn explore_refuses_another_sweeps_checkpoint() {
    let ck = tmp("other_sweep.checkpoint");
    let _ = std::fs::remove_file(&ck);
    let p = ck.to_str().unwrap().to_string();
    let (_, _, code) = raceline(&["check", SAMPLE, "--explore", "6", "--checkpoint", &p]);
    assert_eq!(code, 1);
    let saved = std::fs::read(&ck).unwrap();

    for other in [
        &["examples/programs/racy_global.mcpp"][..],
        &[SAMPLE, "--detector", "djit"],
        &[SAMPLE, "--faults", "seed=9,wakeup=25"],
        &[SAMPLE, "--budget", "slots=5000"],
        &[SAMPLE, "--no-filter"],
        &[SAMPLE, "--static-cross-check", "--directed"],
    ] {
        let mut args = vec!["check"];
        args.extend_from_slice(other);
        args.extend_from_slice(&["--explore", "6", "--checkpoint", &p]);
        let (_, stderr, code) = raceline(&args);
        assert_eq!(code, 2, "{other:?}\n{stderr}");
        assert!(stderr.contains("recorded by a different sweep"), "{other:?}\n{stderr}");
        assert_eq!(std::fs::read(&ck).unwrap(), saved, "{other:?} must not touch the file");
    }

    // Fewer runs than the checkpoint already holds cannot be reported.
    let (_, stderr, code) = raceline(&["check", SAMPLE, "--explore", "4", "--checkpoint", &p]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("6 runs already done"), "{stderr}");
    assert_eq!(std::fs::read(&ck).unwrap(), saved);

    let (full, _, _) = raceline(&["check", SAMPLE, "--explore", "8"]);
    let (stdout, stderr, code) = raceline(&["check", SAMPLE, "--explore", "8", "--checkpoint", &p]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert_eq!(stdout, full, "a larger --explore N extends the sweep");

    // The v1 format kept only each location's top frame: refused.
    let v1 = String::from_utf8(saved).unwrap().replacen("checkpoint v2", "checkpoint v1", 1);
    std::fs::write(&ck, &v1).unwrap();
    let (_, stderr, code) = raceline(&["check", SAMPLE, "--explore", "6", "--checkpoint", &p]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad checkpoint header"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&ck).unwrap(), v1);
}

/// `analyze --repair` on a crash-truncated trace: strict mode refuses,
/// repair mode analyzes the intact prefix and says what it dropped.
#[test]
fn analyze_repair_recovers_a_crash_truncated_trace() {
    let trace = tmp("repair.rltrace");
    let trace_p = trace.to_str().unwrap().to_string();
    let (_, stderr, code) = raceline(&["record", SAMPLE, "--out", &trace_p, "--epoch-events", "8"]);
    assert_eq!(code, 0, "{stderr}");
    let bytes = std::fs::read(&trace).unwrap();

    // A whole trace under --repair is the identity.
    let strict = raceline(&["analyze", &trace_p]);
    let (stdout, stderr, code) = raceline(&["analyze", &trace_p, "--repair"]);
    assert_eq!((stdout, code), (strict.0.clone(), strict.2));
    assert!(!stderr.contains("repaired:"), "whole trace needs no repair\n{stderr}");

    // Tear the trace the way a dying recorder would: drop the tail.
    let torn = tmp("repair_torn.rltrace");
    let torn_p = torn.to_str().unwrap().to_string();
    std::fs::write(&torn, &bytes[..bytes.len() * 3 / 4]).unwrap();
    let (_, stderr, code) = raceline(&["analyze", &torn_p]);
    assert_eq!(code, 2, "strict analyze refuses a torn trace\n{stderr}");
    let (stdout, stderr, code) = raceline(&["analyze", &torn_p, "--repair"]);
    assert!(code == 0 || code == 1, "repair analyzes the prefix\n{stderr}");
    assert!(stderr.contains("repaired: dropped"), "{stderr}");
    assert!(stderr.contains("intact epoch"), "{stderr}");
    // Deterministic across --jobs, same as the strict path.
    let sharded = raceline(&["analyze", &torn_p, "--repair", "--jobs", "8"]);
    assert_eq!((sharded.0, sharded.2), (stdout, code));
}
