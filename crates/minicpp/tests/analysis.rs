//! Integration tests for `minicpp::analysis`: golden expectations on the
//! shipped sample programs plus the soundness property that ties the
//! static side to the dynamic one — on loop-free spawn/join programs the
//! must-held lockset computed statically for an access point is a subset
//! of the lockset any real execution actually holds there.

use helgrind_core::explore::{explore_schedules, ExploreLimits};
use helgrind_core::{AnyDetector, DetectorConfig, ReportKind};
use minicpp::analysis::{analyze, analyze_files};
use minicpp::ast::Stmt;
use minicpp::pipeline::{run_pipeline, SourceFile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use vexec::event::Event;
use vexec::sched::RoundRobin;
use vexec::tool::Tool;
use vexec::vm::{run_program, VmView};

fn sample(name: &str) -> String {
    // Integration tests run with CWD = the minicpp crate root.
    std::fs::read_to_string(format!("../../examples/programs/{name}"))
        .unwrap_or_else(|e| panic!("read {name}: {e}"))
}

// -------------------------------------------------------------------
// Golden expectations on the shipped fixtures.
// -------------------------------------------------------------------

#[test]
fn session_sample_yields_exactly_the_unlocked_counter_race() {
    let src = sample("session.mcpp");
    let res = analyze_files(&[SourceFile::new("session.mcpp", &src)]).expect("compiles");
    let kinds: Vec<(String, u32)> =
        res.reports.iter().map(|r| (r.kind.name().to_string(), r.line)).collect();
    assert_eq!(
        kinds,
        vec![("Race (read)".to_string(), 20), ("Race (write)".to_string(), 20)],
        "only the post-unlock g_racy_hits update races:\n{:#?}",
        res.reports
    );
    // Every mutex-guarded access carries its lock in the must-set.
    let held = res.must_locksets.get(&("use_session".to_string(), 16));
    assert_eq!(held, Some(&BTreeSet::from(["g_m".to_string()])), "{:?}", res.must_locksets);
}

#[test]
fn ab_ba_sample_yields_the_cycle_at_both_edges_and_no_race() {
    let src = sample("ab_ba.mcpp");
    let res = analyze_files(&[SourceFile::new("ab_ba.mcpp", &src)]).expect("compiles");
    assert_eq!(res.reports.len(), 2, "{:#?}", res.reports);
    for r in &res.reports {
        assert_eq!(r.kind.name(), "LockOrder");
        assert!(r.details.contains("lock order cycle"), "{}", r.details);
    }
    let lines: BTreeSet<u32> = res.reports.iter().map(|r| r.line).collect();
    assert_eq!(lines, BTreeSet::from([10, 18]));
}

#[test]
fn clean_sample_is_silent() {
    let src = sample("clean_locked.mcpp");
    let res = analyze_files(&[SourceFile::new("clean_locked.mcpp", &src)]).expect("compiles");
    assert!(res.reports.is_empty(), "{:#?}", res.reports);
}

#[test]
fn lints_fire_on_discipline_violations() {
    let src = "
mutex g_m;
int g_n;

void double_lock() {
    lock(g_m);
    lock(g_m);
    unlock(g_m);
    unlock(g_m);
}

void bad_unlock() {
    unlock(g_m);
}

void leaky(int n) {
    lock(g_m);
    if (n == 0) {
        unlock(g_m);
        return;
    }
    g_n = 1;
}

void main() {
    double_lock();
    bad_unlock();
    leaky(1);
    unlock(g_m);
}
";
    let res = analyze_files(&[SourceFile::new("lints.cpp", src)]).expect("compiles");
    let kinds: BTreeSet<&str> = res.reports.iter().map(|r| r.kind.name()).collect();
    assert!(kinds.contains("DoubleLock"), "{kinds:?}");
    assert!(kinds.contains("UnlockWithoutLock"), "{kinds:?}");
    assert!(kinds.contains("LockLeak"), "{kinds:?}");
}

#[test]
fn delete_while_locked_is_flagged() {
    let src = "
mutex g_m;
class Obj { int x; };

void drop_under_lock(Obj* p) {
    lock(g_m);
    delete p;
    unlock(g_m);
}

void main() {
    Obj* p = new Obj;
    drop_under_lock(p);
}
";
    let res = analyze_files(&[SourceFile::new("dwl.cpp", src)]).expect("compiles");
    assert!(res.reports.iter().any(|r| r.kind.name() == "DeleteWhileLocked"), "{:#?}", res.reports);
}

#[test]
fn escaping_ref_sample_flags_the_returned_reference() {
    let src = sample("escaping_ref.mcpp");
    let res = analyze_files(&[SourceFile::new("escaping_ref.mcpp", &src)]).expect("compiles");
    let kinds: Vec<(String, u32)> =
        res.reports.iter().map(|r| (r.kind.name().to_string(), r.line)).collect();
    assert_eq!(
        kinds,
        vec![
            ("EscapingGuardedRef".to_string(), 16),
            ("Race (read)".to_string(), 21),
            ("Race (write)".to_string(), 21),
            ("Race (read)".to_string(), 27),
            ("Race (write)".to_string(), 27),
        ],
        "{:#?}",
        res.reports
    );
    // The structured finding carries the full escape story: guard, route,
    // release window and the post-release use the directed sweep aims at.
    assert_eq!(res.escapes.len(), 1, "{:#?}", res.escapes);
    let e = &res.escapes[0];
    assert_eq!((e.func.as_str(), e.line), ("getDomainData", 16));
    assert_eq!(e.route, "return value");
    assert_eq!(e.locks, BTreeSet::from(["g_registry_m".to_string()]));
    assert_eq!(e.source, "g_domain_slot");
    let rel: Vec<(String, u32)> =
        e.release_sites.iter().map(|s| (s.func.clone(), s.line)).collect();
    assert_eq!(rel, vec![("getDomainData".to_string(), 15)], "{:#?}", e.release_sites);
    let uses: Vec<(String, u32)> = e.use_sites.iter().map(|s| (s.func.clone(), s.line)).collect();
    assert_eq!(uses, vec![("updateDomain".to_string(), 21)], "{:#?}", e.use_sites);
}

#[test]
fn copy_out_sample_is_silent() {
    // The safe twin: the getter copies a value out of the critical section
    // and the copy is never dereferenced — no escape, no race, no lint.
    let src = sample("copy_out.mcpp");
    let res = analyze_files(&[SourceFile::new("copy_out.mcpp", &src)]).expect("compiles");
    assert!(res.reports.is_empty(), "{:#?}", res.reports);
    assert!(res.escapes.is_empty(), "{:#?}", res.escapes);
}

// -------------------------------------------------------------------
// Soundness property: static must-locksets under-approximate what any
// real execution holds. Generated programs are loop-free spawn/join
// shapes whose workers interleave bare global accesses with depth-1
// lock regions, so every run terminates and never deadlocks.
// -------------------------------------------------------------------

const LOCKS: [&str; 3] = ["g_l0", "g_l1", "g_l2"];
const GLOBALS: [&str; 2] = ["g_x", "g_y"];

/// One worker-body element: a bare access, or a single-lock region.
#[derive(Clone, Debug)]
enum Item {
    Access(usize),
    Region { lock: usize, accesses: Vec<usize> },
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        (0..GLOBALS.len()).prop_map(Item::Access),
        ((0..LOCKS.len()), prop::collection::vec(0..GLOBALS.len(), 1..=3))
            .prop_map(|(lock, accesses)| Item::Region { lock, accesses }),
    ]
}

fn workers_strategy() -> impl Strategy<Value = Vec<Vec<Item>>> {
    prop::collection::vec(prop::collection::vec(item_strategy(), 0..=4), 1..=3)
}

fn render_program(workers: &[Vec<Item>]) -> String {
    let mut src = String::new();
    for l in LOCKS {
        src.push_str(&format!("mutex {l};\n"));
    }
    for g in GLOBALS {
        src.push_str(&format!("int {g};\n"));
    }
    for (i, body) in workers.iter().enumerate() {
        src.push_str(&format!("void worker{i}() {{\n"));
        for item in body {
            match item {
                Item::Access(g) => {
                    let g = GLOBALS[*g];
                    src.push_str(&format!("    {g} = {g} + 1;\n"));
                }
                Item::Region { lock, accesses } => {
                    let l = LOCKS[*lock];
                    src.push_str(&format!("    lock({l});\n"));
                    for g in accesses {
                        let g = GLOBALS[*g];
                        src.push_str(&format!("    {g} = {g} + 1;\n"));
                    }
                    src.push_str(&format!("    unlock({l});\n"));
                }
            }
        }
        src.push_str("}\n");
    }
    src.push_str("void main() {\n");
    for i in 0..workers.len() {
        src.push_str(&format!("    thread t{i} = spawn worker{i}();\n"));
    }
    for i in 0..workers.len() {
        src.push_str(&format!("    join(t{i});\n"));
    }
    src.push_str("}\n");
    src
}

/// Map each lock/unlock source line to its lock's name, by walking the AST
/// that was actually compiled.
fn lock_lines(units: &[(minicpp::ast::Unit, String)]) -> BTreeMap<u32, String> {
    fn walk(stmts: &[Stmt], map: &mut BTreeMap<u32, String>) {
        for s in stmts {
            match s {
                Stmt::Lock { mutex, line } | Stmt::Unlock { mutex, line } => {
                    map.insert(*line, mutex.clone());
                }
                Stmt::RdLock { rwlock, line }
                | Stmt::WrLock { rwlock, line }
                | Stmt::RwUnlock { rwlock, line } => {
                    map.insert(*line, rwlock.clone());
                }
                Stmt::If { then_branch, else_branch, .. } => {
                    walk(then_branch, map);
                    walk(else_branch, map);
                }
                Stmt::While { body, .. } => walk(body, map),
                _ => {}
            }
        }
    }
    let mut map = BTreeMap::new();
    for (unit, _) in units {
        for f in &unit.functions {
            walk(&f.body, &mut map);
        }
    }
    map
}

/// Records, for every data access an execution performs, the set of lock
/// names the accessing thread held at that moment.
struct LockObserver {
    lines: BTreeMap<u32, String>,
    held: BTreeMap<u32, BTreeSet<String>>,
    observed: Vec<(String, u32, BTreeSet<String>)>,
}

impl Tool for LockObserver {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        match ev {
            Event::Acquire { tid, loc, .. } => {
                if let Some(name) = self.lines.get(&loc.line) {
                    self.held.entry(tid.0).or_default().insert(name.clone());
                }
            }
            Event::Release { tid, loc, .. } => {
                if let Some(name) = self.lines.get(&loc.line) {
                    self.held.entry(tid.0).or_default().remove(name);
                }
            }
            Event::Access { tid, loc, .. } => {
                let held = self.held.get(&tid.0).cloned().unwrap_or_default();
                self.observed.push((vm.resolve(loc.func).to_string(), loc.line, held));
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn static_must_lockset_is_subset_of_any_dynamic_lockset(
        workers in workers_strategy(),
    ) {
        let src = render_program(&workers);
        let out = run_pipeline(&[SourceFile::new("gen.cpp", &src)])
            .unwrap_or_else(|e| panic!("generated program must compile: {e:?}\n{src}"));

        let mut obs = LockObserver {
            lines: lock_lines(&out.units),
            held: BTreeMap::new(),
            observed: Vec::new(),
        };
        let result = run_program(&out.program, &mut obs, &mut RoundRobin::new());
        prop_assert!(
            matches!(result.termination, vexec::vm::Termination::AllExited),
            "loop-free depth-1 programs always run to completion: {:?}\n{src}",
            result.termination
        );

        let stat = analyze(&out.units);
        for (func, line, held) in &obs.observed {
            let Some(must) = stat.must_locksets.get(&(func.clone(), *line)) else {
                continue;
            };
            prop_assert!(
                must.is_subset(held),
                "static must-set {must:?} at {func}:{line} not within \
                 dynamically held {held:?}\n{src}"
            );
        }
    }
}

// -------------------------------------------------------------------
// Escape soundness property, mirroring the lockset subset one: on the
// modeled escape routes (here: guarded reference returned by a getter),
// every dynamically confirmed race at a post-release dereference of the
// escaped reference is also reported statically — the static side has no
// false negatives the dynamic side can expose.
// -------------------------------------------------------------------

/// A Fig 7 family member: one guarded getter, a locked writer, and 1–3
/// user threads that each either dereference the returned reference after
/// the lock is gone (the bug) or merely copy it into a local (safe).
fn render_escape_program(users: &[bool]) -> (String, Vec<u32>) {
    let mut lines: Vec<String> = vec![
        "class Obj { int hits; virtual ~Obj() {} };".into(),
        "mutex g_m;".into(),
        "int g_slot;".into(),
        "int getter() {".into(),
        "    lock(g_m);".into(),
        "    int h = g_slot;".into(),
        "    unlock(g_m);".into(),
        "    return h;".into(),
        "}".into(),
    ];
    let mut deref_lines: Vec<u32> = Vec::new();
    for (i, &derefs) in users.iter().enumerate() {
        lines.push(format!("void user{i}() {{"));
        lines.push("    Obj* p = getter();".into());
        if derefs {
            lines.push("    p->hits = p->hits + 1;".into());
            deref_lines.push(lines.len() as u32);
        } else {
            lines.push("    int s = p;".into());
        }
        lines.push("}".into());
    }
    lines.push("void writer() {".into());
    lines.push("    lock(g_m);".into());
    lines.push("    Obj* q = g_slot;".into());
    lines.push("    q->hits = q->hits + 2;".into());
    lines.push("    unlock(g_m);".into());
    lines.push("}".into());
    lines.push("void main() {".into());
    lines.push("    Obj* d = new Obj;".into());
    lines.push("    d->hits = 0;".into());
    lines.push("    g_slot = d;".into());
    for i in 0..users.len() {
        lines.push(format!("    thread t{i} = spawn user{i}();"));
    }
    lines.push("    thread w = spawn writer();".into());
    for i in 0..users.len() {
        lines.push(format!("    join(t{i});"));
    }
    lines.push("    join(w);".into());
    lines.push("}".into());
    (lines.join("\n") + "\n", deref_lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dynamically_confirmed_escape_races_are_reported_statically(
        users in prop::collection::vec(any::<bool>(), 1..=3),
        seed in 0u64..(1u64 << 16),
    ) {
        let (src, deref_lines) = render_escape_program(&users);
        let out = run_pipeline(&[SourceFile::new("esc_gen.cpp", &src)])
            .unwrap_or_else(|e| panic!("generated program must compile: {e:?}\n{src}"));
        let stat = analyze(&out.units);
        let use_lines: BTreeSet<u32> =
            stat.escapes.iter().flat_map(|e| e.use_sites.iter().map(|u| u.line)).collect();

        // Static side alone: every post-release dereference of the escaped
        // reference is a recorded use site of some escape finding...
        for l in &deref_lines {
            prop_assert!(
                use_lines.contains(l),
                "deref at line {l} missing from escape use sites {use_lines:?}\n{src}"
            );
        }
        // ...and pure copy-outs never produce an escape finding.
        if deref_lines.is_empty() {
            prop_assert!(stat.escapes.is_empty(), "{:#?}\n{src}", stat.escapes);
        }

        // Dynamic side: any race an explored schedule confirms at one of
        // those dereference sites is covered by a static escape use site —
        // the no-false-negative property the cross-check labels rely on.
        let hwlc_dr = || AnyDetector::new(DetectorConfig::hwlc_dr());
        let limits = ExploreLimits::default();
        let summary = explore_schedules(&out.program, hwlc_dr, 8, seed, limits, None, &[]);
        for hit in &summary.locations {
            if matches!(hit.report.kind, ReportKind::RaceRead | ReportKind::RaceWrite)
                && deref_lines.contains(&hit.report.line)
            {
                prop_assert!(
                    use_lines.contains(&hit.report.line),
                    "dynamic race at line {} not covered statically ({use_lines:?})\n{src}",
                    hit.report.line
                );
            }
        }
    }
}
