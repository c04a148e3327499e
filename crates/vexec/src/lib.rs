//! # vexec — a deterministic virtual execution engine for multi-threaded guest programs
//!
//! This crate is the workspace's stand-in for Valgrind's binary
//! instrumentation framework (Nethercote & Seward). Where Valgrind JIT-
//! translates x86 binaries and lets a *tool* ("skin") instrument the
//! intermediate code, `vexec` interprets a small structured IR of
//! multi-threaded guest programs and streams every observable action —
//! memory accesses, lock operations, thread lifecycle, heap traffic, and
//! user-space *client requests* — to an attached [`tool::Tool`].
//!
//! Like Valgrind, the engine itself is single-threaded and serialises guest
//! threads under a deterministic, pluggable [`sched::Scheduler`]; different
//! schedulers reproduce different interleavings, which is essential to the
//! schedule-dependence experiments of the paper this workspace reproduces
//! (Mühlenfeld & Wotawa, *Fault Detection in Multi-Threaded C++ Server
//! Applications*, ENTCS 174, 2007).
//!
//! ## Quick tour
//!
//! ```
//! use vexec::ir::builder::{ProgramBuilder, ProcBuilder};
//! use vexec::sched::RoundRobin;
//! use vexec::tool::CountingTool;
//! use vexec::vm::run_program;
//!
//! // A guest program: main spawns a worker that increments a global.
//! let mut pb = ProgramBuilder::new();
//! let counter = pb.global("counter", 8);
//! let loc = pb.loc("demo.cpp", 3, "worker");
//!
//! let mut worker = ProcBuilder::new(0);
//! worker.at(loc);
//! let v = worker.load_new(counter, 8);
//! worker.store(counter, vexec::ir::Expr::Reg(v).add(1u64.into()), 8);
//! let worker_id = pb.add_proc("worker", worker);
//!
//! let mut main = ProcBuilder::new(0);
//! let mloc = pb.loc("demo.cpp", 10, "main");
//! main.at(mloc);
//! let h = main.spawn(worker_id, vec![]);
//! main.join(h);
//! let main_id = pb.add_proc("main", main);
//! pb.set_entry(main_id);
//!
//! let prog = pb.finish();
//! let mut tool = CountingTool::new();
//! let result = run_program(&prog, &mut tool, &mut RoundRobin::new());
//! assert!(result.termination.is_clean());
//! assert_eq!(tool.count("read"), 1);
//! assert_eq!(tool.count("write"), 1);
//! ```

pub mod event;
pub mod faults;
pub mod filter;
pub mod heap;
pub mod ir;
pub mod sched;
pub mod sync;
pub mod tool;
pub mod util;
pub mod vm;

pub use event::{AccessKind, AcqMode, ClientEv, Event, SyncId, ThreadId};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultStats};
pub use filter::{FilterCache, FilterStats, FilterTool};
pub use ir::builder::{ProcBuilder, ProgramBuilder};
pub use ir::compile::{compile, CompileStats, CompiledProgram};
pub use ir::{Cond, Expr, Program, SrcLoc, SyncKind, SyncOp};
pub use sched::{Pct, PriorityOrder, Quantum, RoundRobin, Scheduler, SeededRandom, SplitMix64};
pub use tool::{CountingTool, FanoutTool, NullTool, RecordingTool, Tool};
pub use vm::{
    run_flat, run_program, GuestError, GuestErrorKind, InterpStats, PreparedProgram, RunResult,
    RunStats, SlotMeter, Termination, Vm, VmOptions, VmView,
};
