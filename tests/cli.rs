//! Integration tests for the `raceline` CLI binary, driven through the
//! real executable (CARGO_BIN_EXE) on the shipped sample program.

use std::process::Command;

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

#[test]
fn check_finds_the_real_race_under_hwlc_dr() {
    let (stdout, stderr, code) = raceline(&["check", SAMPLE, "--detector", "hwlc-dr"]);
    assert_eq!(code, 1, "warnings => nonzero exit\n{stdout}{stderr}");
    assert!(stdout.contains("Possible Race (write)"));
    assert!(stdout.contains("session.mcpp:20"), "the unlocked counter line\n{stdout}");
    assert!(stderr.contains("1 delete site(s) annotated"));
    assert!(stderr.contains("1 warning(s)"));
    // No destructor FP: the annotation pass + DR removed it.
    assert!(!stdout.contains("~Session"));
}

#[test]
fn original_config_also_reports_the_destructor_fp() {
    let (stdout, _, code) = raceline(&["check", SAMPLE, "--detector", "original"]);
    assert_eq!(code, 1);
    let n = stdout.matches("Possible Race").count();
    assert_eq!(n, 2, "real race + destructor FP\n{stdout}");
    assert!(stdout.contains("~Session"), "{stdout}");
}

#[test]
fn raw_units_keep_their_destructor_fp() {
    let (stdout, _, code) = raceline(&["check", "--raw", SAMPLE, "--detector", "hwlc-dr"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("~Session"), "uninstrumented source warns\n{stdout}");
}

#[test]
fn gen_suppressions_emits_matching_entries() {
    let (stdout, _, _) =
        raceline(&["check", SAMPLE, "--detector", "hwlc-dr", "--gen-suppressions"]);
    assert!(stdout.contains("Helgrind:Race"), "{stdout}");
    assert!(stdout.contains("fun:use_session"), "{stdout}");

    // Write the generated suppression to a file and re-check: silence.
    // The suppression block is the lines from a bare "{" to a bare "}".
    let lines: Vec<&str> = stdout.lines().collect();
    let start = lines.iter().position(|l| l.trim() == "{").unwrap();
    let end = lines.iter().position(|l| l.trim() == "}").unwrap();
    let block = lines[start..=end].join("\n");
    let supp_path = std::env::temp_dir().join("raceline_gen.supp");
    std::fs::write(&supp_path, block).unwrap();
    let (stdout2, stderr2, code2) = raceline(&[
        "check",
        SAMPLE,
        "--detector",
        "hwlc-dr",
        "--suppressions",
        supp_path.to_str().unwrap(),
    ]);
    assert_eq!(code2, 0, "{stdout2}{stderr2}");
    assert!(stderr2.contains("0 warning(s)"));
}

#[test]
fn explore_mode_aggregates_schedules() {
    let (stdout, _, code) = raceline(&["check", SAMPLE, "--explore", "8"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("explored 8 schedules"), "{stdout}");
    assert!(stdout.contains("8 clean"), "{stdout}");
    assert!(stdout.contains("/8"), "per-location hit counts\n{stdout}");
}

/// `--explore` runs the engine `--detector` names: happens-before reports
/// under djit, lockset-and-HB details under hybrid, lockset reports under
/// hwlc-dr.
#[test]
fn explore_runs_the_named_engine() {
    let sweep = |det: &str| {
        let (stdout, stderr, code) =
            raceline(&["check", SAMPLE, "--explore", "4", "--detector", det]);
        assert_eq!(code, 1, "{det}: {stdout}{stderr}");
        stdout
    };
    let djit = sweep("djit");
    assert!(djit.contains("] Possible HbRace (read)"), "{djit}");
    assert!(!djit.contains("Possible Race"), "{djit}");
    for det in ["hybrid", "hybrid-queue"] {
        let hybrid = sweep(det);
        assert!(hybrid.contains("] Possible Race (write)"), "{hybrid}");
        assert!(hybrid.contains("; hb: "), "{det} reports carry the HB side\n{hybrid}");
    }
    let lockset = sweep("hwlc-dr");
    assert!(lockset.contains("] Possible Race (write)"), "{lockset}");
    assert!(!lockset.contains("; hb: "), "{lockset}");
}

/// The suppression `--gen-suppressions` prints silences the sweep too.
#[test]
fn explore_applies_suppressions() {
    let (stdout, _, _) = raceline(&["check", SAMPLE, "--gen-suppressions"]);
    let start = stdout.find("{\n").expect("a suppression entry");
    let end = stdout[start..].find("\n}").expect("entry end") + start + 2;
    let supp_path = std::env::temp_dir().join("raceline_explore.supp");
    std::fs::write(&supp_path, &stdout[start..end]).unwrap();
    let supp = supp_path.to_str().unwrap();
    for det in ["hwlc-dr", "hybrid", "original"] {
        let (stdout, stderr, code) = raceline(&[
            "check",
            SAMPLE,
            "--explore",
            "4",
            "--detector",
            det,
            "--suppressions",
            supp,
        ]);
        assert_eq!(code, if det == "original" { 1 } else { 0 }, "{det}: {stdout}{stderr}");
        assert!(!stdout.contains("session.mcpp:20"), "{det}: suppressed\n{stdout}");
    }
}

#[test]
fn emit_annotated_prints_fig4_view() {
    let (stdout, _, _) = raceline(&["check", SAMPLE, "--emit-annotated"]);
    assert!(stdout.contains("delete ca_deletor_single(s);"), "{stdout}");
    assert!(stdout.contains("VALGRIND_HG_DESTRUCT"), "{stdout}");
}

#[test]
fn pct_schedule_accepted() {
    let (_, stderr, code) = raceline(&["check", SAMPLE, "--schedule", "pct:7:3"]);
    assert!(code == 0 || code == 1, "{stderr}");
}

#[test]
fn bad_usage_exits_2() {
    let (_, _, code) = raceline(&["check"]);
    assert_eq!(code, 2);
    let (_, _, code) = raceline(&["frobnicate"]);
    assert_eq!(code, 2);
    let (_, _, code) = raceline(&["lint"]);
    assert_eq!(code, 2);
    let (_, _, code) = raceline(&["bench-snapshot"]);
    assert_eq!(code, 2);
    // The oracle switches are test code now: each retired flag is bad
    // usage on every subcommand that used to accept it.
    let retired: &[&[&str]] = &[
        &["check", "--vm-reference", SAMPLE],
        &["record", "--vm-reference", SAMPLE, "--out", "unused.rltrace"],
        &["chaos", "--vm-reference", "--runs", "1"],
        &["soak", "--vm-reference", "--dialogs", "10", "--phases", "1"],
        &["check", "--hb-reference", SAMPLE],
        &["analyze", "--hb-reference", "unused.rltrace"],
        &["chaos", "--hb-reference", "--runs", "1"],
        &["soak", "--hb-reference", "--dialogs", "10", "--phases", "1"],
        &["serve", "--hb-reference", "--fold"],
        &["serve", "--hb-reference"],
        &["serve", "--fold", "1=x.rltrace"],
        // `--budget slots=` is soak's one per-phase slot cap.
        &["soak", "--max-slots", "5"],
        // No subcommand can turn the redundant-access filter off.
        &["check", SAMPLE, "--no-filter"],
        &["record", SAMPLE, "--no-filter", "--out", "unused.rltrace"],
        &["chaos", "--no-filter", "--runs", "1"],
        &["soak", "--no-filter", "--dialogs", "10", "--phases", "1"],
    ];
    // A numeric flag takes a number in its range.
    let not_numbers: &[&[&str]] = &[
        &["analyze", "unused.rltrace", "--jobs", "x"],
        &["soak", "--phases", "x"],
        &["soak", "--phases", "4294967298"],
        &["check", SAMPLE, "--schedule", "pct:7:x"],
    ];
    for args in retired.iter().chain(not_numbers) {
        let (_, stderr, code) = raceline(args);
        assert_eq!(code, 2, "{args:?}\n{stderr}");
        assert!(stderr.contains("usage:"), "{args:?}\n{stderr}");
    }
    // Each mode reads only the flags on its usage line and names the one
    // it refuses.
    let foreign: &[(&str, &[&str])] = &[
        ("lint", &["lint", SAMPLE, "--explore", "3", "--detector", "djit"]),
        ("check --explore", &["check", SAMPLE, "--explore", "2", "--schedule", "random:1"]),
        ("check --explore", &["check", SAMPLE, "--explore", "2", "--stats"]),
        ("check --explore", &["check", SAMPLE, "--explore", "2", "--gen-suppressions"]),
        ("check", &["check", SAMPLE, "--jobs", "2"]),
        ("check", &["check", SAMPLE, "--checkpoint", "unused.checkpoint"]),
        ("check", &["check", SAMPLE, "--static-cross-check", "--directed"]),
        ("record", &["record", SAMPLE, "--detector", "djit", "--out", "unused.rltrace"]),
        ("analyze", &["analyze", "unused.rltrace", "--explore", "2"]),
        ("trace-diff", &["trace-diff", "a.rltrace", "b.rltrace", "--stats"]),
        ("serve", &["serve", "--spool", "unused-spool", "--json"]),
        ("client", &["client", "ping", "--json"]),
        ("chaos", &["chaos", "--runs", "1", "--stats"]),
        ("soak", &["soak", "--phases", "1", "--json"]),
    ];
    for (mode, args) in foreign {
        let (_, stderr, code) = raceline(args);
        assert_eq!(code, 2, "{args:?}\n{stderr}");
        let refusal = format!("does not apply to {mode}");
        assert!(stderr.lines().any(|l| l.ends_with(&refusal)), "{args:?}\n{stderr}");
        assert!(stderr.contains("usage:"), "{args:?}\n{stderr}");
    }
    // Bad usage runs nothing and writes no trace: neither `record
    // --explore` nor a non-number for `--epoch-events`.
    let trace = std::env::temp_dir().join("raceline_record_bad_usage.rltrace");
    let t = trace.to_str().unwrap();
    for bad in [&["--explore", "2"], &["--epoch-events", "x"]] {
        let _ = std::fs::remove_file(&trace);
        let (stdout, stderr, code) =
            raceline(&[&["record", SAMPLE, "--out", t], &bad[..]].concat());
        assert_eq!(code, 2, "{bad:?}: {stdout}{stderr}");
        assert!(stderr.contains("usage:"), "{bad:?}: {stderr}");
        assert!(stdout.is_empty(), "{bad:?}: nothing runs: {stdout}");
        assert!(!trace.exists(), "{bad:?}: bad usage writes no trace");
    }
}

// -------------------------------------------------------------------
// `raceline lint`: the static passes, no execution.
// -------------------------------------------------------------------

#[test]
fn lint_reports_the_seeded_race_and_nothing_else() {
    let (stdout, stderr, code) = raceline(&["lint", SAMPLE]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(stdout.contains("Possible Race (write)"), "{stdout}");
    assert!(stdout.contains("session.mcpp:20"), "{stdout}");
    assert!(stderr.contains("2 finding(s)"), "write + read of g_racy_hits\n{stderr}");
    // The locked field/global updates and the rwlock pair stay silent.
    assert!(!stdout.contains("g_pending"), "{stdout}");
    assert!(!stdout.contains("g_table"), "{stdout}");
}

#[test]
fn lint_flags_racy_global_fixture() {
    let (stdout, _, code) = raceline(&["lint", "examples/programs/racy_global.mcpp"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("Possible Race (write)"), "{stdout}");
    assert!(stdout.contains("racy_global.mcpp:7"), "{stdout}");
}

#[test]
fn lint_predicts_ab_ba_cycle() {
    let (stdout, _, code) = raceline(&["lint", "examples/programs/ab_ba.mcpp"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("Possible LockOrder"), "{stdout}");
    assert!(stdout.contains("lock order cycle"), "{stdout}");
    // Both acquisition sites of the inversion are reported; the data
    // accesses under both locks are not races.
    assert!(stdout.contains("ab_ba.mcpp:10"), "t1's lock(g_b)\n{stdout}");
    assert!(stdout.contains("ab_ba.mcpp:18"), "t2's lock(g_a)\n{stdout}");
    assert!(!stdout.contains("Possible Race"), "{stdout}");
}

#[test]
fn lint_clean_fixture_has_zero_findings() {
    let (stdout, stderr, code) = raceline(&["lint", "examples/programs/clean_locked.mcpp"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stderr.contains("0 finding(s)"), "{stderr}");
}

#[test]
fn lint_flags_unannotated_polymorphic_delete_in_raw_units() {
    let (stdout, _, code) =
        raceline(&["lint", "--raw", "examples/programs/unannotated_delete.mcpp"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("Possible UnannotatedDelete"), "{stdout}");
    assert!(stdout.contains("unannotated_delete.mcpp:8"), "{stdout}");

    // Instrumented, the annotation pass rewrites the delete: silence.
    let (_, stderr, code) = raceline(&["lint", "examples/programs/unannotated_delete.mcpp"]);
    assert_eq!(code, 0, "{stderr}");
}

#[test]
fn lint_json_is_machine_readable() {
    let (stdout, _, code) = raceline(&["lint", SAMPLE, "--json"]);
    assert_eq!(code, 1);
    let line = stdout.lines().next().unwrap();
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    assert!(line.contains("\"findings\":2"), "{stdout}");
    assert!(line.contains("\"kind\":\"RaceWrite\""), "{stdout}");
    assert!(line.contains("\"line\":20"), "{stdout}");
}

// -------------------------------------------------------------------
// `raceline check --static-cross-check` and `--json`.
// -------------------------------------------------------------------

#[test]
fn cross_check_labels_confirmed_and_static_only() {
    let (stdout, _, code) = raceline(&["check", SAMPLE, "--static-cross-check"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("static cross-check:"), "{stdout}");
    // The dynamic write race at line 20 is confirmed by the static side;
    // the static read race at the same line was not in the dynamic run.
    assert!(stdout.contains("[confirmed-both] Race (write)"), "{stdout}");
    assert!(stdout.contains("[static-only]"), "{stdout}");
}

/// An HbRace report confirms the static race of the same access: djit
/// confirms `racy_global.mcpp:7` the way the lockset engines do.
#[test]
fn cross_check_keys_hb_races_as_races() {
    let racy = "examples/programs/racy_global.mcpp";
    for det in ["djit", "hwlc-dr"] {
        let (stdout, _, code) =
            raceline(&["check", racy, "--detector", det, "--static-cross-check"]);
        assert_eq!(code, 1, "{stdout}");
        assert!(
            stdout.contains("static cross-check: 1 confirmed-both, 1 static-only, 0 dynamic-only"),
            "{det}\n{stdout}"
        );
        assert!(stdout.contains("[confirmed-both] Race ("), "{det}\n{stdout}");
        assert!(!stdout.contains("[dynamic-only]"), "{det}\n{stdout}");
    }
}

#[test]
fn explore_mode_honours_cross_check() {
    let (stdout, _, code) = raceline(&["check", SAMPLE, "--explore", "4", "--static-cross-check"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("explored 4 schedules"), "{stdout}");
    assert!(stdout.contains("static cross-check:"), "{stdout}");
    assert!(stdout.contains("[confirmed-both] Race (write)"), "{stdout}");
}

#[test]
fn check_json_reports_warnings_and_termination() {
    let (stdout, _, code) = raceline(&["check", SAMPLE, "--json"]);
    assert_eq!(code, 1);
    let line = stdout.lines().next().unwrap();
    assert!(line.starts_with('{'), "{stdout}");
    assert!(line.contains("\"warnings\":1"), "{stdout}");
    assert!(line.contains("\"termination\":\"AllExited\""), "{stdout}");
    assert!(line.contains("\"kind\":\"RaceWrite\""), "{stdout}");
}

#[test]
fn check_json_with_cross_check_embeds_the_join() {
    let (stdout, _, _) = raceline(&["check", SAMPLE, "--json", "--static-cross-check"]);
    let line = stdout.lines().next().unwrap();
    assert!(line.contains("\"static_cross_check\""), "{stdout}");
    assert!(line.contains("\"confirmed_both\""), "{stdout}");
    assert!(line.contains("\"static_only\""), "{stdout}");
}

// -------------------------------------------------------------------
// Exit-code contract (0 = clean, 1 = findings, 2 = tool/guest error),
// fault injection, budgets and `raceline chaos`.
// -------------------------------------------------------------------

/// A worker that allocates: under `--faults allocfail=1000` the `new`
/// returns null and the field write becomes a wild access (guest error).
const ALLOC_WORKER: &str = "\
class Obj { int x; ~Obj() {} };\n\
void worker() {\n\
    Obj* o = new Obj;\n\
    o->x = 1;\n\
    delete o;\n\
}\n\
void main() {\n\
    thread a = spawn worker();\n\
    join(a);\n\
}\n";

/// `s - 4108` wraps the pointer below address zero to `u64::MAX - 3`, so
/// the 8-byte store's end overflows `u64`.
const WILD_STORE: &str = "\
class S { int f; };\n\
void main() { S* s = new S; s = s - 4108; s->f = 1; }\n";

fn write_fixture(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn unreadable_input_exits_2() {
    let (_, stderr, code) = raceline(&["check", "/nonexistent/raceline-no-such-file.mcpp"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn guest_error_exits_2_with_diagnostic() {
    let path = write_fixture("raceline_allocfail.mcpp", ALLOC_WORKER);
    let (stdout, stderr, code) = raceline(&["check", &path, "--faults", "allocfail=1000,seed=1"]);
    assert_eq!(code, 2, "guest fault is a tool/guest error\n{stdout}{stderr}");
    assert!(stdout.contains("guest error:"), "{stdout}");

    // Same run in JSON: the fault is a field, not a crash.
    let (stdout, _, code) =
        raceline(&["check", &path, "--faults", "allocfail=1000,seed=1", "--json"]);
    assert_eq!(code, 2);
    let line = stdout.lines().next().unwrap();
    assert!(line.contains("\"guest_error\""), "{stdout}");
    assert!(line.contains("\"injected_faults\""), "{stdout}");

    // Without faults the same program is clean: exit 0.
    let (_, _, code) = raceline(&["check", &path]);
    assert_eq!(code, 0);

    // A store through a pointer wrapped to near `u64::MAX` is a guest
    // memory fault, not a host panic.
    let path = write_fixture("raceline_wild_store.mcpp", WILD_STORE);
    let (stdout, stderr, code) = raceline(&["check", &path]);
    assert_eq!(code, 2, "wild store is a guest error\n{stdout}{stderr}");
    assert!(stdout.contains("wild access"), "{stdout}");
}

#[test]
fn slot_budget_reports_timed_out_not_error() {
    let (stdout, _, code) = raceline(&["check", SAMPLE, "--budget", "slots=10", "--json"]);
    assert!(code == 0 || code == 1, "fuel exhaustion is not an error: {stdout}");
    let line = stdout.lines().next().unwrap();
    assert!(line.contains("\"timed_out\":true"), "{stdout}");
    assert!(line.contains("\"termination\":\"FuelExhausted\""), "{stdout}");
}

#[test]
fn report_budget_degrades_with_truncated_flag() {
    // `original` reports 2 race locations on the sample; cap at 1.
    let (stdout, _, code) =
        raceline(&["check", SAMPLE, "--detector", "original", "--budget", "reports=1", "--json"]);
    assert_eq!(code, 1, "{stdout}");
    let line = stdout.lines().next().unwrap();
    assert!(line.contains("\"truncated\":true"), "{stdout}");
    assert!(line.contains("\"warnings\":1"), "capped to one stored report\n{stdout}");
}

#[test]
fn faults_are_deterministic_per_seed_and_plan() {
    let args = [
        "check",
        SAMPLE,
        "--schedule",
        "random:3",
        "--faults",
        "seed=9,wakeup=25,lockfail=25,kill=5",
        "--json",
    ];
    let (a, _, code_a) = raceline(&args);
    let (b, _, code_b) = raceline(&args);
    assert_eq!(code_a, code_b);
    assert_eq!(a, b, "same (seed, plan, schedule) must reproduce bit-identically");
}

#[test]
fn explore_checkpoint_round_trips() {
    let path = std::env::temp_dir().join("raceline_explore.ck");
    let _ = std::fs::remove_file(&path);
    let p = path.to_str().unwrap();
    let (stdout, _, code) = raceline(&["check", SAMPLE, "--explore", "6", "--checkpoint", p]);
    assert_eq!(code, 1, "{stdout}");
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(saved.starts_with("raceline-explore-checkpoint v2"), "{saved}");

    // Resuming a finished sweep re-runs nothing and reports exactly what
    // the sweep reported: the checkpoint keeps every report field.
    let (stdout2, stderr2, code2) =
        raceline(&["check", SAMPLE, "--explore", "6", "--checkpoint", p]);
    assert_eq!(code2, 1);
    assert!(stderr2.contains("resuming from"), "{stderr2}");
    assert!(stdout2.contains("explored 6 schedules: 6 clean"), "{stdout2}");
    assert!(stdout2.contains("[  6/6  ] Possible Race (write)"), "{stdout2}");
    assert!(stdout2.contains("session.mcpp:20"), "{stdout2}");
    assert_eq!(stdout, stdout2, "resumed report must match the sweep");
}

/// The `total-slots` watchdog cuts the sweep at the same run at every
/// `--jobs`, and the checkpoint it saves is byte-identical too.
#[test]
fn budget_cut_explore_is_bit_identical_across_jobs() {
    let run = |jobs: &str| {
        let path = std::env::temp_dir().join(format!("raceline_budget_cut_{jobs}.ck"));
        let _ = std::fs::remove_file(&path);
        let p = path.to_str().unwrap();
        let budget = "total-slots=20000";
        let args = ["check", SAMPLE, "--explore", "1000", "--budget", budget, "--checkpoint", p];
        let (stdout, _, code) = raceline(&[&args[..], &["--jobs", jobs]].concat());
        (stdout, code, std::fs::read(&path).expect("the sweep saves its checkpoint"))
    };
    let (stdout, code, saved) = run("1");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("timed out: 314/1000 runs completed"), "{stdout}");
    for jobs in ["2", "8"] {
        let (out, c, ck) = run(jobs);
        assert_eq!((out.as_str(), c), (stdout.as_str(), code), "jobs {jobs}");
        assert!(ck == saved, "jobs {jobs}: the saved checkpoints differ");
    }
}

#[test]
fn chaos_smoke_run_is_resilient() {
    let (stdout, stderr, code) =
        raceline(&["chaos", "--runs", "6", "--seed", "0xC0FFEE", "--cases", "T3", "--json"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    let line = stdout.lines().next().unwrap();
    assert!(line.contains("\"resilient\":true"), "{stdout}");
    assert!(line.contains("\"panics\":0"), "{stdout}");
    assert!(line.contains("\"nondeterministic\":0"), "{stdout}");
}

/// `--detector` picks the engine chaos runs: DJIT reports happens-before
/// races where the lockset engine reports lockset races, so the sweeps
/// differ.
#[test]
fn chaos_runs_the_named_detector() {
    let sweep = |det: &str| {
        let args = ["chaos", "--runs", "8", "--seed", "0xC0FFEE", "--json", "--detector", det];
        let (stdout, stderr, code) = raceline(&args);
        assert!(code == 0 || code == 2, "{det}: {stdout}{stderr}");
        stdout
    };
    assert_ne!(sweep("djit"), sweep("hwlc-dr"));
}

#[test]
fn stats_flag_reports_to_stderr_only() {
    let (plain_out, plain_err, _) = raceline(&["check", SAMPLE, "--detector", "hybrid"]);
    let (stats_out, stats_err, code) =
        raceline(&["check", SAMPLE, "--detector", "hybrid", "--stats"]);
    assert_eq!(code, 1);
    assert_eq!(plain_out, stats_out, "--stats must not change stdout");
    assert!(!plain_err.contains("stats:"), "{plain_err}");
    assert!(stats_err.contains("stats: engine lockset processed"), "{stats_err}");
    assert!(stats_err.contains("stats: engine hb processed"), "{stats_err}");
    assert!(stats_err.contains("stats: filter elided"), "{stats_err}");
    assert!(stats_err.contains("hit rate"), "{stats_err}");
}

#[test]
fn analyze_stats_reports_replay_engine_counters() {
    let trace = std::env::temp_dir().join("raceline_filter_stats.rltrace");
    let t = trace.to_str().unwrap();
    let (_, stderr, code) = raceline(&["record", SAMPLE, "--out", t, "--stats"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stderr.contains("stats: filter elided"),
        "record --stats prints filter stats\n{stderr}"
    );

    let (a_out, a_err, a_code) = raceline(&["analyze", t, "--detector", "hwlc-dr", "--stats"]);
    assert_eq!(a_code, 1, "{a_out}{a_err}");
    assert!(a_err.contains("stats: engine lockset processed"), "{a_err}");

    // The filtered trace analyzes to the report text the filtered inline
    // run prints.
    let (c_out, _, c_code) = raceline(&["check", SAMPLE, "--detector", "hwlc-dr"]);
    assert_eq!(a_code, c_code);
    assert_eq!(a_out, c_out, "a recorded trace must analyze to the inline report");
    let _ = std::fs::remove_file(trace);
}

// -------------------------------------------------------------------
// Escape analysis fixtures + static-finding-directed exploration.
// -------------------------------------------------------------------

const ESCAPE_SAMPLE: &str = "examples/programs/escaping_ref.mcpp";
const COPY_SAMPLE: &str = "examples/programs/copy_out.mcpp";

#[test]
fn lint_flags_the_escaping_reference_fixture() {
    let (stdout, stderr, code) = raceline(&["lint", ESCAPE_SAMPLE]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(stdout.contains("Possible EscapingGuardedRef"), "{stdout}");
    assert!(stdout.contains("escaping_ref.mcpp:16"), "the returned reference\n{stdout}");
    assert!(stdout.contains("escapes via return value"), "{stdout}");
    assert!(stdout.contains("dereferenced after release at updateDomain"), "{stdout}");
    assert!(stderr.contains("5 finding(s)"), "escape + 2x2 race sides\n{stderr}");
}

#[test]
fn lint_stays_silent_on_the_copy_out_fixture() {
    let (stdout, stderr, code) = raceline(&["lint", COPY_SAMPLE]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stderr.contains("0 finding(s)"), "{stderr}");
    assert!(stdout.trim().is_empty(), "copy-outs of guarded values are safe\n{stdout}");
}

#[test]
fn lint_json_carries_the_new_kind() {
    let (stdout, _, code) = raceline(&["lint", ESCAPE_SAMPLE, "--json"]);
    assert_eq!(code, 1);
    let line = stdout.lines().next().unwrap_or_default();
    assert!(line.contains("\"findings\":5"), "{stdout}");
    assert!(line.contains("\"EscapingGuardedRef\""), "{stdout}");
}

#[test]
fn check_json_cross_check_embeds_escapes_with_confirmed_status() {
    let (stdout, _, _) = raceline(&["check", ESCAPE_SAMPLE, "--json", "--static-cross-check"]);
    let line = stdout.lines().last().unwrap_or_default();
    assert!(line.contains("\"escapes\""), "{stdout}");
    assert!(line.contains("\"route\":\"return value\""), "{stdout}");
    assert!(line.contains("\"confirmed\""), "{stdout}");
}

#[test]
fn directed_flag_requires_the_cross_check() {
    let (_, stderr, code) = raceline(&["check", ESCAPE_SAMPLE, "--explore", "4", "--directed"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--directed requires --static-cross-check"), "{stderr}");
}

#[test]
fn directed_explore_labels_the_escape_confirmed_both() {
    let (stdout, stderr, code) = raceline(&[
        "check",
        ESCAPE_SAMPLE,
        "--explore",
        "16",
        "--static-cross-check",
        "--directed",
    ]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(stderr.contains("probe target(s) from static findings"), "{stderr}");
    assert!(
        stdout.contains(
            "[confirmed-both] EscapingGuardedRef at examples/programs/escaping_ref.mcpp:16"
        ),
        "the Fig 7 class is confirmed-both for the first time\n{stdout}"
    );
    assert!(
        stdout.contains("[confirmed-both] Race (write) at examples/programs/escaping_ref.mcpp:21"),
        "{stdout}"
    );
}

/// Pull the first `"first_run": N` value out of an explore-mode JSON line.
fn first_run_of(stdout: &str) -> u64 {
    let tail = &stdout[stdout.find("\"first_run\":").expect("first_run in JSON") + 12..];
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().expect("first_run value")
}

#[test]
fn directed_explore_confirms_in_strictly_fewer_schedules() {
    let (undirected, _, _) =
        raceline(&["check", ESCAPE_SAMPLE, "--explore", "16", "--static-cross-check", "--json"]);
    let (directed, _, _) = raceline(&[
        "check",
        ESCAPE_SAMPLE,
        "--explore",
        "16",
        "--static-cross-check",
        "--directed",
        "--json",
    ]);
    let (u, d) = (first_run_of(&undirected), first_run_of(&directed));
    assert_eq!(d, 1, "the first probe lands in the release/use window\n{directed}");
    assert!(d < u, "directed ({d}) must beat undirected ({u})\n{undirected}");
    assert!(directed.contains("\"confirmed\":true"), "{directed}");
}

#[test]
fn directed_explore_is_bit_identical_across_jobs() {
    let run = |jobs: &str| {
        raceline(&[
            "check",
            ESCAPE_SAMPLE,
            "--explore",
            "24",
            "--static-cross-check",
            "--directed",
            "--jobs",
            jobs,
        ])
    };
    let (a, _, code_a) = run("1");
    let (b, _, code_b) = run("8");
    assert_eq!(a, b, "directed sweeps must merge deterministically");
    assert_eq!(code_a, code_b);
}
