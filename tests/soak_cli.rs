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

/// `--budget slots=` caps every phase's slots; a phase that runs out of
/// fuel is committed like any other, not an error.
#[test]
fn soak_budget_slots_caps_each_phase() {
    let args = ["soak", "--dialogs", "200", "--phases", "2", "--budget", "slots=50"];
    let (stdout, stderr, code) = raceline(&args);
    assert_eq!(code, 0, "{stdout}{stderr}");
    let phases = "phases: 2 committed (0 clean, 0 deadlocked, 0 guest-error, 2 fuel-exhausted)";
    assert!(stdout.contains(phases), "{stdout}");
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
/// location's `first_run` come back from the checkpoint, and so does a
/// fuel-exhausted run's `timed_out` mark when that run came before the cut.
#[test]
fn explore_resume_reproduces_the_uninterrupted_sweep() {
    // (runs, the whole sweep's --budget, the cut sweep's --budget)
    let sweeps =
        [("6", None, "total-slots=150"), ("20", Some("slots=64"), "slots=64,total-slots=800")];
    for (runs, budget, cut) in sweeps {
        for json in [false, true] {
            let ck = tmp(&format!("exact_{runs}_{json}.checkpoint"));
            let _ = std::fs::remove_file(&ck);
            let p = ck.to_str().unwrap().to_string();
            let sweep = |budget: Option<&str>, checkpoint: bool| {
                let mut args = vec!["check", SAMPLE, "--explore", runs];
                if json {
                    args.push("--json");
                }
                if let Some(b) = budget {
                    args.extend_from_slice(&["--budget", b]);
                }
                if checkpoint {
                    args.extend_from_slice(&["--checkpoint", &p]);
                }
                raceline(&args)
            };
            let (ref_out, _, ref_code) = sweep(budget, false);
            assert_eq!(ref_code, 1);
            match (budget, json) {
                (None, false) => {
                    let frame = "by worker (examples/programs/session.mcpp:29)";
                    assert!(ref_out.contains(frame), "{ref_out}");
                    assert!(ref_out.contains("Address 0x1040 is 0 bytes inside a block of size 8"));
                }
                (Some(_), false) => {
                    let line = "timed out: 20/20 runs completed (1 fuel-exhausted)";
                    assert!(ref_out.contains(line), "{ref_out}");
                }
                (Some(_), true) => assert!(ref_out.contains("\"timed_out\":true"), "{ref_out}"),
                (None, true) => {}
            }

            let (partial, _, _) = sweep(Some(cut), true);
            assert_ne!(partial, ref_out, "the budget stops the sweep early");

            let (stdout, stderr, code) = sweep(budget, true);
            assert!(stderr.contains("resuming from"), "{stderr}");
            assert_eq!(code, ref_code);
            assert_eq!(
                stdout, ref_out,
                "resumed output is the uninterrupted sweep's ({runs} runs, json: {json})"
            );
        }
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
    let supp_file = tmp("other_sweep.supp");
    std::fs::write(&supp_file, "{\n   s\n   Helgrind:Race\n   fun:no_such_function\n}\n").unwrap();
    let supp = supp_file.to_str().unwrap().to_string();

    for other in [
        &["examples/programs/racy_global.mcpp"][..],
        &[SAMPLE, "--detector", "djit"],
        &[SAMPLE, "--faults", "seed=9,wakeup=25"],
        &[SAMPLE, "--budget", "slots=5000"],
        &[SAMPLE, "--suppressions", &supp],
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

    // Older formats are refused: v1 kept only each location's top frame,
    // and v2 merged two warning kinds at one line into one hit count.
    for old in ["v1", "v2"] {
        let text = String::from_utf8(saved.clone()).unwrap();
        let text = text.replacen("checkpoint v3", &format!("checkpoint {old}"), 1);
        std::fs::write(&ck, &text).unwrap();
        let (_, stderr, code) = raceline(&["check", SAMPLE, "--explore", "6", "--checkpoint", &p]);
        assert_eq!(code, 2, "{old}: {stderr}");
        assert!(stderr.contains("bad checkpoint header"), "{old}: {stderr}");
        assert_eq!(std::fs::read_to_string(&ck).unwrap(), text, "{old} must not be touched");
    }
}

/// A soak log and an explore checkpoint both record the VM's schedule
/// revision. A file saved under other schedule semantics (here, one
/// without the revision, as every file saved while a mutex release woke
/// all its waiters) would fold two kinds of schedule into one sweep, so
/// it is refused with exit 2 and left as it was.
#[test]
fn soak_and_explore_refuse_files_from_another_schedule_revision() {
    let token = format!(" schedules={}", raceline::vexec::SCHEDULE_REVISION);
    let log = tmp("revision.soaklog");
    let ck = tmp("revision.checkpoint");
    let (log_p, ck_p) = (log.to_str().unwrap(), ck.to_str().unwrap());
    let soak =
        ["soak", "--dialogs", "2000", "--phases", "2", "--seed", "77", "--checkpoint", log_p];
    let explore = ["check", SAMPLE, "--explore", "4", "--checkpoint", ck_p];
    for (args, file, refusal) in [
        (&soak[..], &log, "different parameters"),
        (&explore[..], &ck, "recorded by a different sweep"),
    ] {
        let _ = std::fs::remove_file(file);
        let (_, stderr, code) = raceline(args);
        assert_eq!(code, 1, "{args:?}\n{stderr}");
        let saved = std::fs::read_to_string(file).expect("file saved");
        assert_eq!(saved.matches(&token).count(), 1, "{saved}");
        let stripped = saved.replacen(&token, "", 1);
        std::fs::write(file, &stripped).unwrap();
        let (_, stderr, code) = raceline(args);
        assert_eq!(code, 2, "{args:?}\n{stderr}");
        assert!(stderr.contains(refusal), "{args:?}\n{stderr}");
        assert_eq!(
            std::fs::read_to_string(file).unwrap(),
            stripped,
            "{args:?} left the file alone"
        );
    }
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
