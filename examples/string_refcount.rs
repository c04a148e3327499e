//! Fig 8/9: the libstdc++ copy-on-write `std::string` reference-count
//! false positive. A string constructed by `main` is copied concurrently
//! by a worker and by `main` itself; under the original bus-lock model the
//! `_M_grab` increment is reported, under HWLC it is not — while a truly
//! broken variant (a plain, unprefixed store to the refcount) is reported
//! under both.
//!
//! Run with: `cargo run --example string_refcount`

use cxxmodel::string::{emit_copy, emit_create, emit_drop, StringSite};
use raceline::prelude::*;

fn build(broken_plain_write: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let cell = pb.global("g_text", 8);
    let site = StringSite::new(&mut pb, "stringtest.cpp", 21);

    // A hypothetical pre-atomic string implementation: the refcount
    // update is a plain read-modify-write, racy in any interleaving.
    let broken_copy = |w: &mut ProcBuilder, rep: vexec::ir::RegId, loc: vexec::SrcLoc| {
        w.at(loc);
        let rc = w.load_new(Expr::Reg(rep), 8);
        w.store(Expr::Reg(rep), Expr::Reg(rc).add(1u64.into()), 8);
    };
    let broken_loc = pb.loc("stringtest.cpp", 22, "broken_string::copy");

    // void* workerThread(void* arguments) { std::string text = *arg; }
    let wloc = pb.loc("stringtest.cpp", 10, "workerThread");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    let rep = w.load_new(cell, 8);
    if broken_plain_write {
        broken_copy(&mut w, rep, broken_loc);
    } else {
        let copy = emit_copy(&mut w, rep, site);
        emit_drop(&mut w, copy, site, 40, None);
    }
    let worker = pb.add_proc("workerThread", w);

    // int main() { std::string text("contents"); spawn; copy; join; }
    let mloc = pb.loc("stringtest.cpp", 16, "main");
    let mut m = ProcBuilder::new(0);
    m.at(mloc);
    let rep = emit_create(&mut m, 16);
    m.store(cell, Expr::Reg(rep), 8);
    let h = m.spawn(worker, vec![]);
    m.yield_(); // sleep(1)
    let l22 = pb.loc("stringtest.cpp", 22, "main");
    m.at(l22);
    if broken_plain_write {
        broken_copy(&mut m, rep, broken_loc);
    } else {
        let copy = emit_copy(&mut m, rep, site); // <- reported conflict
        emit_drop(&mut m, copy, site, 40, None);
    }
    m.join(h);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    pb.finish()
}

fn run(name: &str, program: &Program, cfg: DetectorConfig) -> usize {
    let mut det = AnyDetector::new(cfg);
    run_program(program, &mut det, &mut RoundRobin::new());
    println!("--- {name} ---");
    if det.sink.reports().is_empty() {
        println!("(no warnings)\n");
    }
    for r in det.sink.reports() {
        println!("{}", r.render());
    }
    det.sink.race_location_count()
}

fn main() {
    let correct = build(false);
    println!("### correct COW string (LOCK-prefixed refcount) ###\n");
    let orig = run("Original bus-lock model (plain mutex)", &correct, DetectorConfig::original());
    let hwlc = run("HWLC (bus lock as read-write lock)", &correct, DetectorConfig::hwlc());
    assert_eq!(orig, 1, "original Helgrind flags _M_grab (Fig 9)");
    assert_eq!(hwlc, 0, "HWLC removes the false positive");

    let broken = build(true);
    println!("### broken string (plain refcount store) ###\n");
    let orig = run("Original", &broken, DetectorConfig::original());
    let hwlc = run("HWLC", &broken, DetectorConfig::hwlc());
    assert!(orig >= 1 && hwlc >= 1, "the real race survives the correction");
    println!("summary: FP removed by HWLC, real race kept under both models");
}
