//! VM robustness: fuel exhaustion, silent-loop detection, stack overflow,
//! wild accesses and misuse all terminate with structured errors instead
//! of hanging or panicking.

use vexec::heap::MemError;
use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
use vexec::ir::{Cond, Expr};
use vexec::sched::RoundRobin;
use vexec::tool::{CountingTool, NullTool};
use vexec::vm::{run_flat, GuestErrorKind, Termination, Vm, VmOptions};

fn run_with_opts(prog: &vexec::Program, opts: VmOptions) -> Termination {
    let flat = prog.lower();
    run_flat(&flat, &mut NullTool, &mut RoundRobin::new(), opts).termination
}

#[test]
fn fuel_exhaustion_is_reported() {
    // An endless loop of observable events.
    let mut pb = ProgramBuilder::new();
    let g = pb.global("g", 8);
    let loc = pb.loc("spin.cpp", 1, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    m.begin_while(Cond::True);
    m.store(g, 1u64, 8);
    m.end_while();
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let t = run_with_opts(&prog, VmOptions { max_slots: 1_000, ..Default::default() });
    assert!(matches!(t, Termination::FuelExhausted), "{t:?}");
}

#[test]
fn silent_spin_loop_is_caught() {
    // An endless loop with no observable events at all.
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("spin.cpp", 1, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    let r = m.reg();
    m.begin_while(Cond::True);
    m.assign(r, Expr::Reg(r).add(1u64.into()));
    m.end_while();
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let t = run_with_opts(&prog, VmOptions { silent_op_budget: 10_000, ..Default::default() });
    match t {
        Termination::GuestError(e) => {
            assert!(matches!(e.kind, GuestErrorKind::SilentLoop), "{e:?}")
        }
        other => panic!("expected silent-loop guest error, got {other:?}"),
    }
}

#[test]
fn runaway_recursion_overflows_cleanly() {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_proc("f");
    let loc = pb.loc("rec.cpp", 1, "f");
    let mut fb = ProcBuilder::new(0);
    fb.at(loc);
    fb.call(f, vec![], None);
    pb.define_proc(f, fb);
    let mut m = ProcBuilder::new(0);
    m.at(pb.loc("rec.cpp", 9, "main"));
    m.call(f, vec![], None);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let t = run_with_opts(&prog, VmOptions { max_frames: 64, ..Default::default() });
    match t {
        Termination::GuestError(e) => {
            assert!(matches!(e.kind, GuestErrorKind::StackOverflow), "{e:?}")
        }
        other => panic!("expected stack overflow, got {other:?}"),
    }
}

#[test]
fn wild_access_is_a_guest_error_with_location() {
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("wild.cpp", 7, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    let r = m.reg();
    m.load(r, 0xDEAD_0000u64, 8);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();

    let mut tool = CountingTool::new();
    let r = vexec::vm::run_program(&prog, &mut tool, &mut RoundRobin::new());
    match r.termination {
        Termination::GuestError(e) => {
            assert!(matches!(e.kind, GuestErrorKind::Mem(_)), "{e:?}");
            assert_eq!(e.loc.line, 7, "error carries the faulting location");
        }
        other => panic!("expected wild access error, got {other:?}"),
    }
}

#[test]
fn client_request_leaving_guest_memory_is_a_guest_error() {
    // The engines keep shadow state per granule of a request's range, so
    // a 2^40-byte request must stop the guest rather than reach a tool.
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("annot.cpp", 9, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    let obj = m.alloc(32u64);
    m.hg_destruct(obj, 32u64);
    m.hg_destruct(obj, 1u64 << 40);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let flat = pb.finish().lower();

    for mode in ["compiled", "reference"] {
        let mut tool = CountingTool::new();
        let (sched, opts) = (&mut RoundRobin::new(), VmOptions::default());
        let r = match mode {
            "compiled" => run_flat(&flat, &mut tool, sched, opts),
            _ => Vm::new(&flat, opts).run(&mut tool, sched),
        };
        match r.termination {
            Termination::GuestError(e) => {
                assert!(
                    matches!(e.kind, GuestErrorKind::Mem(MemError::Wild { size, .. }) if size == 1 << 40),
                    "{mode:?}: {e:?}"
                );
                assert_eq!(e.loc.line, 9, "{mode:?}: error carries the request's location");
            }
            other => panic!("{mode:?}: expected a guest error, got {other:?}"),
        }
        // The alloc and the in-bounds request reached the tool; the wild
        // one did not.
        assert_eq!(r.stats.events, 2, "{mode:?}");
    }
}

#[test]
fn join_of_bad_handle_is_a_guest_error() {
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 3, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    m.join(999u64);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();
    let t = run_with_opts(&prog, VmOptions::default());
    match t {
        Termination::GuestError(e) => {
            assert!(matches!(e.kind, GuestErrorKind::BadJoin { handle: 999 }), "{e:?}")
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn bad_sync_handle_is_a_guest_error() {
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("bad.cpp", 3, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    m.lock(42u64); // no sync object with this handle
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();
    let t = run_with_opts(&prog, VmOptions::default());
    match t {
        Termination::GuestError(e) => {
            assert!(matches!(e.kind, GuestErrorKind::BadSyncHandle { handle: 42 }), "{e:?}")
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn guest_assert_failure_reports_values() {
    let mut pb = ProgramBuilder::new();
    let loc = pb.loc("a.cpp", 5, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    m.assert_eq(1u64, 2u64, "one is not two");
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let prog = pb.finish();
    let t = run_with_opts(&prog, VmOptions::default());
    match t {
        Termination::GuestError(e) => match e.kind {
            GuestErrorKind::AssertFailed { msg, left, right } => {
                assert_eq!(msg, "one is not two");
                assert_eq!((left, right), (1, 2));
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn vm_can_be_driven_directly() {
    // The lower-level Vm::new/run API works as documented.
    let mut pb = ProgramBuilder::new();
    let g = pb.global("g", 8);
    let loc = pb.loc("v.cpp", 1, "main");
    let mut m = ProcBuilder::new(0);
    m.at(loc);
    m.store(g, 5u64, 8);
    let main_id = pb.add_proc("main", m);
    pb.set_entry(main_id);
    let flat = pb.finish().lower();
    let vm = Vm::new(&flat, VmOptions::default());
    let mut tool = CountingTool::new();
    let r = vm.run(&mut tool, &mut RoundRobin::new());
    assert!(r.termination.is_clean());
    assert_eq!(r.stats.events, 2); // store + thread-exit
    assert_eq!(r.stats.slots, 2);
    assert!(r.stats.ops >= 2);
}
