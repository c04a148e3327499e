//! The virtual machine: serialises guest threads under a [`Scheduler`],
//! interprets the flat bytecode, maintains guest memory and sync objects,
//! and streams [`Event`]s to the attached [`Tool`].
//!
//! Execution model: one *slot* = one scheduler decision. The chosen thread
//! executes opcodes until it (a) emits at least one observable event,
//! (b) blocks, (c) exits, or (d) yields. Silent opcodes (register
//! arithmetic, jumps, calls) are bounded per slot so a buggy guest cannot
//! spin silently forever.
//!
//! The VM is deterministic given `(program, scheduler, options)` — the
//! property the whole experiment suite relies on.

use crate::event::{AccessKind, AcqMode, ClientEv, Event, SyncId, ThreadId};
use crate::faults::{FaultInjector, FaultPlan, FaultStats};
use crate::heap::{Block, Heap, MemError};
use crate::ir::compile::{self, CompiledProgram, Instr};
use crate::ir::lower::{FlatProgram, Op};
use crate::ir::{ClientOp, Cond, Expr, ProcId, RegId, SrcLoc, SyncKind, SyncOp};
use crate::sched::Scheduler;
use crate::sync::{SyncError, SyncObj};
use crate::tool::Tool;
use crate::util::{Interner, Symbol};
use std::cell::Cell;

/// Shared slot meter for multi-worker sweeps. Each VM adds slots to it as
/// they are consumed, so a coordinator fanning seeded runs out over a
/// worker pool sees a live running total (including in-flight runs) and
/// can stop claiming new runs the moment a shared watchdog budget
/// (`total-slots`) is exhausted. Runs already started always finish —
/// bounded by their own `max_slots` — which is what keeps every per-run
/// result, and therefore the merged summary, deterministic.
#[derive(Debug, Default)]
pub struct SlotMeter(std::sync::atomic::AtomicU64);

impl SlotMeter {
    pub fn new(initial: u64) -> Self {
        SlotMeter(std::sync::atomic::AtomicU64::new(initial))
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn total(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// VM tuning knobs.
#[derive(Clone, Debug)]
pub struct VmOptions {
    /// Maximum scheduler slots before the run is aborted.
    pub max_slots: u64,
    /// Maximum silent opcodes per slot (guards against silent spin loops).
    pub silent_op_budget: u32,
    /// Maximum call depth per thread.
    pub max_frames: usize,
    /// Optional fault-injection plan. `Some` builds a [`FaultInjector`]
    /// even when every rate is zero, so the hook cost stays measurable.
    pub faults: Option<FaultPlan>,
    /// Optional shared meter credited with every slot this VM consumes,
    /// live, for sweep-wide watchdogs across worker threads.
    pub slot_meter: Option<std::sync::Arc<SlotMeter>>,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            max_slots: 50_000_000,
            silent_op_budget: 1_000_000,
            max_frames: 256,
            faults: None,
            slot_meter: None,
        }
    }
}

/// A guest-level error that aborts the run.
#[derive(Clone, Debug)]
pub struct GuestError {
    pub tid: ThreadId,
    pub loc: SrcLoc,
    pub kind: GuestErrorKind,
}

#[derive(Clone, Debug)]
pub enum GuestErrorKind {
    Mem(MemError),
    Sync(SyncError),
    AssertFailed {
        msg: String,
        left: u64,
        right: u64,
    },
    BadJoin {
        handle: u64,
    },
    BadSyncHandle {
        handle: u64,
    },
    StackOverflow,
    SilentLoop,
    /// A thread violated the condvar wait protocol (e.g. a signalled waiter
    /// was not parked on a `CondWait` op). Previously a host panic; now a
    /// structured guest fault that tools observe via `on_guest_fault`.
    CondProtocol {
        detail: String,
    },
    /// A thread was scheduled with no active frame.
    MissingFrame,
}

impl std::fmt::Display for GuestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "guest error in thread {}: ", self.tid.0)?;
        match &self.kind {
            GuestErrorKind::Mem(e) => write!(f, "{e}"),
            GuestErrorKind::Sync(e) => write!(f, "{e}"),
            GuestErrorKind::AssertFailed { msg, left, right } => {
                write!(f, "assertion failed: {msg} (left={left}, right={right})")
            }
            GuestErrorKind::BadJoin { handle } => write!(f, "join of invalid handle {handle}"),
            GuestErrorKind::BadSyncHandle { handle } => {
                write!(f, "invalid sync handle {handle}")
            }
            GuestErrorKind::StackOverflow => write!(f, "guest stack overflow"),
            GuestErrorKind::SilentLoop => write!(f, "silent-op budget exhausted (spin loop?)"),
            GuestErrorKind::CondProtocol { detail } => {
                write!(f, "condvar protocol violation: {detail}")
            }
            GuestErrorKind::MissingFrame => write!(f, "thread scheduled with no active frame"),
        }
    }
}

/// Why a thread is parked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockOn {
    Mutex(SyncId),
    RwRead(SyncId),
    RwWrite(SyncId),
    /// Parked on a condvar, waiting for a signal.
    Cond(SyncId),
    Sem(SyncId),
    QueuePut(SyncId),
    QueueGet(SyncId),
    Join(ThreadId),
}

/// Description of one blocked thread at deadlock time.
#[derive(Clone, Debug)]
pub struct WaitInfo {
    pub tid: ThreadId,
    pub on: BlockOn,
    /// Threads that currently hold whatever `tid` is waiting for (empty for
    /// condvars/semaphores/queues, where any thread could unblock it).
    pub holders: Vec<ThreadId>,
    pub loc: SrcLoc,
}

/// How the run ended.
#[derive(Clone, Debug)]
pub enum Termination {
    /// Every thread ran to completion.
    AllExited,
    /// No runnable threads, but blocked ones remain.
    Deadlock(Vec<WaitInfo>),
    /// The guest performed an illegal operation.
    GuestError(GuestError),
    /// `max_slots` exceeded.
    FuelExhausted,
}

impl Termination {
    pub fn is_clean(&self) -> bool {
        matches!(self, Termination::AllExited)
    }
}

/// Per-run interpreter counters, broken down by opcode class. Both
/// interpreter cores maintain the class counters (so A/B comparisons are
/// honest); `fused` and `slot_evals` are only ever non-zero in compiled
/// mode. Surfaced on stderr by `--stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Register arithmetic (`Assign`, including the assign half of fusions).
    pub arith: u64,
    /// Control flow (`Jump`, `BranchIfFalse`, including fused jumps).
    pub branch: u64,
    /// Guest memory traffic (`Load` / `Store` / `AtomicRmw`).
    pub mem: u64,
    /// `Call` / `Ret`.
    pub call: u64,
    /// Sync-object ops (`NewSync` + every `Sync` variant).
    pub sync: u64,
    /// Thread lifecycle (`Spawn` / `Join` / `Yield`).
    pub thread: u64,
    /// Guest heap (`Alloc` / `Free`).
    pub heap: u64,
    /// Client requests and assertions.
    pub misc: u64,
    /// Superinstruction executions (each covers two flat ops).
    pub fused: u64,
    /// Operand evaluations that fell back to an eval-slot sequence.
    pub slot_evals: u64,
}

impl InterpStats {
    /// Total classified op executions (excludes `fused`/`slot_evals`,
    /// which are overlays, not classes).
    pub fn total(&self) -> u64 {
        self.arith
            + self.branch
            + self.mem
            + self.call
            + self.sync
            + self.thread
            + self.heap
            + self.misc
    }
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    pub slots: u64,
    pub events: u64,
    pub ops: u64,
    pub threads_created: u32,
    pub allocs: u64,
    /// Opcode-class breakdown (see [`InterpStats`]).
    pub interp: InterpStats,
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub termination: Termination,
    pub stats: RunStats,
    /// Injected-fault counters; `Some` whenever a plan was attached.
    pub faults: Option<FaultStats>,
}

impl RunResult {
    /// Panic (with the termination) unless the run completed cleanly.
    /// Convenience for tests and examples.
    pub fn expect_clean(&self) -> &Self {
        assert!(
            self.termination.is_clean(),
            "run did not complete cleanly: {:?}",
            self.termination
        );
        self
    }
}

#[derive(Clone, Debug)]
struct Frame {
    proc: ProcId,
    pc: u32,
    /// Register file in reference mode. Empty in compiled mode, where
    /// registers live at `thread.stack[base..]`.
    regs: Vec<u64>,
    /// Offset of this frame's register window into the thread's
    /// contiguous register stack (compiled mode; 0 in reference mode).
    base: u32,
    ret_dst: Option<RegId>,
    cur_loc: SrcLoc,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked(BlockOn),
    Exited,
}

#[derive(Clone, Debug)]
struct Thread {
    frames: Vec<Frame>,
    /// Contiguous register stack in compiled mode: frame `f`'s registers
    /// are `stack[f.base..f.base + nregs]`, grown on `Call`, truncated on
    /// `Ret`. Replaces the per-call `Vec<u64>` allocation. Empty in
    /// reference mode.
    stack: Vec<u64>,
    /// Written only by [`Vm::set_state`] once the thread exists, which
    /// keeps [`Vm`]'s runnable and blocked lists in step with it.
    state: ThreadState,
    /// Set when this thread was signalled out of a `cond_wait` and now must
    /// re-acquire the mutex: `(condvar, mutex, signaler)`.
    cond_resume: Option<(SyncId, SyncId, ThreadId)>,
}

/// One step's outcome inside a slot.
enum Flow {
    /// Keep executing (silent op).
    Silent,
    /// Emitted exactly one event; end the slot. The compiled core hands it
    /// straight to the tool, the reference core queues it on `pending`.
    /// Any wakeups the op caused have already happened, and the thread may
    /// have exited (`ThreadExit`) or parked (a condvar wait's `Release`).
    Emitted(Event),
    /// Pushed several events onto `pending` (a condvar wait's wake and
    /// reacquire); end the slot.
    Queued,
    /// Thread blocked; end the slot.
    Blocked,
    /// Voluntary yield, or a failed lock attempt that retries; end the slot.
    Yielded,
}

/// Read-only view of the VM handed to tools alongside each event.
pub struct VmView<'a> {
    vm: &'a Vm<'a>,
}

/// One stack frame in a tool-visible backtrace (innermost first).
#[derive(Clone, Copy, Debug)]
pub struct FrameInfo {
    pub func: Symbol,
    pub loc: SrcLoc,
}

impl<'a> VmView<'a> {
    pub fn interner(&self) -> &Interner {
        &self.vm.prog.interner
    }

    pub fn resolve(&self, sym: Symbol) -> &str {
        self.vm.prog.interner.resolve(sym)
    }

    /// Backtrace of `tid`, innermost frame first. Frame function names come
    /// from the source location (debug info), falling back to the
    /// procedure name when a frame has not yet executed a located op.
    pub fn stack(&self, tid: ThreadId) -> Vec<FrameInfo> {
        let t = &self.vm.threads[tid.index()];
        t.frames
            .iter()
            .rev()
            .map(|f| FrameInfo {
                func: if f.cur_loc.func != Symbol::EMPTY {
                    f.cur_loc.func
                } else {
                    self.vm.prog.procs[f.proc.0 as usize].name
                },
                loc: f.cur_loc,
            })
            .collect()
    }

    /// Number of live frames on `tid`'s stack.
    pub fn frame_count(&self, tid: ThreadId) -> usize {
        self.vm.threads[tid.index()].frames.len()
    }

    /// Frame `i` of `tid`'s stack in push order (0 = outermost), with the
    /// same function-name fallback as [`VmView::stack`].
    pub fn frame_info(&self, tid: ThreadId, i: usize) -> FrameInfo {
        let f = &self.vm.threads[tid.index()].frames[i];
        FrameInfo {
            func: if f.cur_loc.func != Symbol::EMPTY {
                f.cur_loc.func
            } else {
                self.vm.prog.procs[f.proc.0 as usize].name
            },
            loc: f.cur_loc,
        }
    }

    /// Allocation block containing `addr`, if any.
    pub fn block_info(&self, addr: u64) -> Option<Block> {
        self.vm.heap.block_containing(addr).copied()
    }

    /// Every block ever allocated (bump allocator: freed blocks stay,
    /// marked `freed`), in allocation order.
    pub fn heap_blocks(&self) -> &[Block] {
        self.vm.heap.blocks()
    }

    /// Number of threads ever created.
    pub fn thread_count(&self) -> u32 {
        self.vm.threads.len() as u32
    }

    /// Current slot number.
    pub fn slot(&self) -> u64 {
        self.vm.stats.slots
    }

    pub fn sync_kind(&self, sync: SyncId) -> Option<SyncKind> {
        self.vm.syncs.get(sync.index()).map(|s| s.kind)
    }
}

/// The virtual machine.
pub struct Vm<'p> {
    prog: &'p FlatProgram,
    opts: VmOptions,
    heap: Heap,
    global_addrs: Vec<u64>,
    threads: Vec<Thread>,
    /// Ids of the runnable threads in ascending order: the list the
    /// scheduler picks from.
    runnable: Vec<ThreadId>,
    /// Ids of the blocked threads in ascending order. Every thread in
    /// neither list has exited.
    blocked: Vec<ThreadId>,
    syncs: Vec<SyncObj>,
    pending: Vec<Event>,
    stats: RunStats,
    injector: Option<FaultInjector>,
    /// Compiled bytecode; `Some` switches the dispatch core. Borrowed so
    /// callers can compile once and fan a program out over many runs.
    compiled: Option<&'p CompiledProgram>,
    /// Eval-slot fallback counter; a `Cell` so operand evaluation can bump
    /// it through shared borrows. Folded into `stats.interp` at run end.
    slot_evals: Cell<u64>,
}

impl<'p> Vm<'p> {
    /// Build a VM running the reference core: the tree-walking
    /// interpreter over [`FlatProgram`] ops that the compiled core
    /// replaced. Production runs go through [`run_flat`],
    /// [`PreparedProgram`] or [`Vm::with_compiled`]; this constructor is
    /// kept for the equivalence tests, which run both cores and demand
    /// identical events, terminations, counters and fault interactions.
    pub fn new(prog: &'p FlatProgram, opts: VmOptions) -> Self {
        let mut heap = Heap::new();
        let global_addrs = prog
            .globals
            .iter()
            .map(|g| heap.alloc(g.size, ThreadId::MAIN, SrcLoc::UNKNOWN))
            .collect();
        let entry = prog.entry;
        let injector = opts.faults.map(FaultInjector::new);
        let mut vm = Vm {
            prog,
            opts,
            heap,
            global_addrs,
            threads: Vec::new(),
            runnable: Vec::new(),
            blocked: Vec::new(),
            syncs: Vec::new(),
            pending: Vec::new(),
            stats: RunStats::default(),
            injector,
            compiled: None,
            slot_evals: Cell::new(0),
        };
        let main = Frame {
            proc: entry,
            pc: 0,
            regs: vec![0; prog.procs[entry.0 as usize].nregs as usize],
            base: 0,
            ret_dst: None,
            cur_loc: SrcLoc::UNKNOWN,
        };
        vm.push_thread(main, Vec::new());
        vm
    }

    /// Build a VM running `code` (the compiled form of `prog`) on the
    /// operand-specialized dispatch core. `prog` is still required: tools
    /// resolve symbols through its interner.
    pub fn with_compiled(
        prog: &'p FlatProgram,
        code: &'p CompiledProgram,
        opts: VmOptions,
    ) -> Self {
        let mut vm = Vm::new(prog, opts);
        vm.compiled = Some(code);
        // Convert the main thread's frame to the register-stack layout.
        let t = &mut vm.threads[0];
        t.stack = std::mem::take(&mut t.frames[0].regs);
        t.frames[0].base = 0;
        vm
    }

    /// Run to termination, streaming events to `tool`.
    pub fn run(mut self, tool: &mut dyn Tool, sched: &mut dyn Scheduler) -> RunResult {
        let use_compiled = self.compiled.is_some();
        let mut scratch: Vec<Event> = Vec::new();
        let termination = loop {
            // `set_state` keeps the runnable and blocked lists exact, so
            // the scheduler sees what a scan of every thread would give
            // it. Debug builds, which every equivalence suite runs under,
            // check that scan on every slot.
            #[cfg(debug_assertions)]
            {
                let mut runnable: Vec<ThreadId> = Vec::new();
                let mut blocked: Vec<ThreadId> = Vec::new();
                for (i, t) in self.threads.iter().enumerate() {
                    match t.state {
                        ThreadState::Runnable => runnable.push(ThreadId(i as u32)),
                        ThreadState::Blocked(_) => blocked.push(ThreadId(i as u32)),
                        ThreadState::Exited => {}
                    }
                }
                assert_eq!(
                    (&runnable, &blocked),
                    (&self.runnable, &self.blocked),
                    "stale thread index: a thread state changed outside set_state"
                );
            }
            if self.runnable.is_empty() {
                break if self.blocked.is_empty() {
                    Termination::AllExited
                } else {
                    Termination::Deadlock(self.wait_infos())
                };
            }
            if self.stats.slots >= self.opts.max_slots {
                break Termination::FuelExhausted;
            }
            let idx = sched.pick(&self.runnable, self.stats.slots);
            let tid = self.runnable[idx];
            self.stats.slots += 1;
            if let Some(m) = &self.opts.slot_meter {
                m.add(1);
            }
            if self.injector.is_some() && self.inject_pre_slot(tid) {
                // The scheduled thread died abruptly: the slot is consumed.
                self.drain(tool, &mut scratch);
                continue;
            }
            let slot =
                if use_compiled { self.run_slot_compiled(tid, tool) } else { self.run_slot(tid) };
            if let Err(e) = slot {
                // Deliver any events produced before the fault, then let
                // the tool observe the fault itself before the run ends.
                self.drain(tool, &mut scratch);
                tool.on_guest_fault(&e, &VmView { vm: &self });
                break Termination::GuestError(e);
            }
            // Guarded here rather than inside `drain`: compiled fast-path
            // slots deliver their single event directly and leave the queue
            // empty, so the common case shouldn't pay a call.
            if !self.pending.is_empty() {
                self.drain(tool, &mut scratch);
            }
        };
        tool.on_finish(&VmView { vm: &self });
        self.stats.interp.slot_evals = self.slot_evals.get();
        RunResult {
            termination,
            stats: self.stats,
            faults: self.injector.as_ref().map(|i| i.stats),
        }
    }

    /// Add a runnable thread starting in `frame` with register stack
    /// `stack`. Its id is the largest yet, so appending it keeps the
    /// runnable list sorted.
    fn push_thread(&mut self, frame: Frame, stack: Vec<u64>) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        self.threads.push(Thread {
            frames: vec![frame],
            stack,
            state: ThreadState::Runnable,
            cond_resume: None,
        });
        self.runnable.push(tid);
        self.stats.threads_created += 1;
        tid
    }

    /// Move `tid` to `state`, keeping the runnable and blocked lists exact.
    /// The only writer of `Thread::state` once a thread exists.
    fn set_state(&mut self, tid: ThreadId, state: ThreadState) {
        let old = std::mem::replace(&mut self.threads[tid.index()].state, state);
        if let Some(list) = self.list_of(old) {
            let i = list.binary_search(&tid).expect("a live thread is in its state's list");
            list.remove(i);
        }
        if let Some(list) = self.list_of(state) {
            let i = list.partition_point(|&t| t < tid);
            list.insert(i, tid);
        }
    }

    /// The list holding threads in `state`; exited threads are in none.
    fn list_of(&mut self, state: ThreadState) -> Option<&mut Vec<ThreadId>> {
        match state {
            ThreadState::Runnable => Some(&mut self.runnable),
            ThreadState::Blocked(_) => Some(&mut self.blocked),
            ThreadState::Exited => None,
        }
    }

    /// Consult the fault injector before running `tid`'s slot. Returns true
    /// if the slot was consumed (the scheduled thread was killed). The
    /// injector is consulted where it lives; nothing moves per slot.
    fn inject_pre_slot(&mut self, tid: ThreadId) -> bool {
        let Some(inj) = &self.injector else { return false };
        if inj.plan().wakeup_permille > 0 {
            self.inject_spurious_wakeup();
        }
        let killed =
            tid != ThreadId::MAIN && self.injector.as_mut().is_some_and(FaultInjector::should_kill);
        if killed {
            self.kill_thread(tid);
        }
        killed
    }

    /// Wake one condvar waiter without a signal (POSIX-legal spurious
    /// wakeup). The waiter re-runs its `CondWait` in phase 2 — re-acquiring
    /// the mutex and reporting itself as its own signaler.
    fn inject_spurious_wakeup(&mut self) {
        let waiters: Vec<(ThreadId, SyncId)> = self
            .blocked
            .iter()
            .filter_map(|&tid| match self.threads[tid.index()].state {
                ThreadState::Blocked(BlockOn::Cond(c)) => Some((tid, c)),
                _ => None,
            })
            .collect();
        let Some(inj) = self.injector.as_mut() else { return };
        if waiters.is_empty() || !inj.should_spurious_wakeup() {
            return;
        }
        let (w, cv) = waiters[inj.pick(waiters.len())];
        if let Ok(m) = self.cond_wait_mutex_of(w) {
            self.syncs[cv.index()].cond_unpark(w);
            self.threads[w.index()].cond_resume = Some((cv, m, w));
            self.set_state(w, ThreadState::Runnable);
        }
    }

    /// Abrupt thread death: frames vanish, held locks stay held, heap
    /// blocks stay allocated. Joiners are woken (as if the thread exited),
    /// but anything blocked on a lock it held now deadlocks — exactly the
    /// failure shape a crashed worker leaves behind in a real server.
    fn kill_thread(&mut self, victim: ThreadId) {
        let locks = self.syncs.iter().filter(|s| s.is_held_by(victim)).count() as u64;
        let (_, bytes) = self.heap.live_blocks_by(victim);
        let inj = self.injector.as_mut().expect("a kill comes from the injector");
        inj.stats.leaked_locks += locks;
        inj.stats.leaked_bytes += bytes;
        let t = &mut self.threads[victim.index()];
        t.frames.clear();
        t.stack.clear();
        t.cond_resume = None;
        self.set_state(victim, ThreadState::Exited);
        self.pending.push(Event::ThreadExit { tid: victim });
        self.wake_joiners(victim);
    }

    fn inject_lock_fail(&mut self) -> bool {
        self.injector.as_mut().is_some_and(|i| i.should_fail_lock())
    }

    /// Allocation failure targets worker threads only: a server whose
    /// *startup* allocation fails just never comes up — the interesting
    /// resilience question is a request handler hitting OOM mid-flight.
    fn inject_alloc_fail(&mut self, tid: ThreadId) -> bool {
        tid != ThreadId::MAIN && self.injector.as_mut().is_some_and(|i| i.should_fail_alloc())
    }

    fn drain(&mut self, tool: &mut dyn Tool, scratch: &mut Vec<Event>) {
        if self.pending.is_empty() {
            return;
        }
        scratch.clear();
        std::mem::swap(&mut self.pending, scratch);
        self.stats.events += scratch.len() as u64;
        let view = VmView { vm: self };
        for ev in scratch.iter() {
            tool.on_event(ev, &view);
        }
    }

    fn wait_infos(&self) -> Vec<WaitInfo> {
        self.blocked
            .iter()
            .map(|&tid| {
                let t = &self.threads[tid.index()];
                let ThreadState::Blocked(on) = t.state else {
                    unreachable!("the blocked list holds only blocked threads")
                };
                let holders = match on {
                    BlockOn::Mutex(s) => self.syncs[s.index()].mutex_owner().into_iter().collect(),
                    BlockOn::RwRead(s) | BlockOn::RwWrite(s) => self.syncs[s.index()].rw_holders(),
                    BlockOn::Join(t2) => vec![t2],
                    _ => Vec::new(),
                };
                let loc = t.frames.last().map(|f| f.cur_loc).unwrap_or(SrcLoc::UNKNOWN);
                WaitInfo { tid, on, holders, loc }
            })
            .collect()
    }

    /// Run one scheduling slot for `tid` (reference core).
    fn run_slot(&mut self, tid: ThreadId) -> Result<(), GuestError> {
        let mut silent: u32 = 0;
        loop {
            match self.exec_op(tid)? {
                Flow::Silent => {
                    silent += 1;
                    if silent > self.opts.silent_op_budget {
                        return Err(self.err(tid, GuestErrorKind::SilentLoop));
                    }
                }
                Flow::Emitted(ev) => {
                    self.pending.push(ev);
                    return Ok(());
                }
                Flow::Queued | Flow::Blocked | Flow::Yielded => return Ok(()),
            }
        }
    }

    /// Run one scheduling slot for `tid` on the compiled dispatch core.
    ///
    /// The inner loop executes guest ops against hoisted locals — the pc,
    /// the frame's register window, and per-class counters stay in
    /// registers and are written back once per run, instead of paying a
    /// thread/frame lookup and four counter read-modify-writes per op. The
    /// silent register forms and the memory forms run entirely inside it.
    /// The other single-event forms (mutex, rwlock, semaphore and queue
    /// ops, `Alloc`/`Free`, client requests) evaluate their operands there
    /// and then leave it for their `do_*` body, the one implementation
    /// both cores share: it may block the thread or wake others, and
    /// returns its event. Every event is delivered straight to the tool,
    /// after the op's wakeups, so the tool observes the same post-op state
    /// the reference core's end-of-slot drain shows it. The cold forms
    /// (calls, spawn/join, condvars, `NewSync`, `Yield`, asserts) go to
    /// [`Vm::exec_instr`]. Silent accounting is charged after each flat op
    /// exactly like the reference slot loop, including the corner where
    /// the budget trips between the two halves of a fused `DecJump`.
    fn run_slot_compiled(&mut self, tid: ThreadId, tool: &mut dyn Tool) -> Result<(), GuestError> {
        /// How one pass of the hoisted-borrow inner loop ended.
        enum FastExit<'i> {
            /// An op completed with one event: deliver it, slot over.
            Emitted(Event),
            /// A single-event form with its operands evaluated (`a`, `b`
            /// in operand order): run its shared body.
            Shared(&'i Instr, u64, u64),
            /// The instruction at pc is a cold form; defer to
            /// [`Vm::exec_instr`].
            Fallback,
            /// The silent-op budget tripped.
            Trip,
            /// A guest memory fault (already fully formed).
            Fault(GuestError),
        }
        let comp = self.compiled.expect("compiled core requires a compiled program");
        let mut silent: u32 = 0;
        let budget = self.opts.silent_op_budget;
        let ti = tid.index();
        loop {
            let mut ops_n: u64 = 0;
            let mut arith_n: u64 = 0;
            let mut branch_n: u64 = 0;
            let mut mem_n: u64 = 0;
            let mut fused_n: u64 = 0;
            let exit;
            {
                let globals = &self.global_addrs;
                let slot_evals = &self.slot_evals;
                let t = &mut self.threads[ti];
                let f = t.frames.last_mut().expect("running thread has a frame");
                let code = &comp.procs[f.proc.0 as usize].code;
                let pool = &comp.pool;
                let regs = &mut t.stack[f.base as usize..];
                let mut pc = f.pc;
                exit = loop {
                    let instr = &code[pc as usize];
                    match instr {
                        Instr::Assign { dst, value } => {
                            ops_n += 1;
                            arith_n += 1;
                            let v = compile::eval_operand(value, regs, globals, pool, slot_evals);
                            regs[dst.0 as usize] = v;
                            pc += 1;
                            silent += 1;
                            if silent > budget {
                                break FastExit::Trip;
                            }
                        }
                        Instr::DecJump { reg, target } => {
                            // Dec half.
                            ops_n += 1;
                            arith_n += 1;
                            fused_n += 1;
                            let slot = &mut regs[reg.0 as usize];
                            *slot = slot.wrapping_sub(1);
                            silent += 1;
                            if silent > budget {
                                break FastExit::Trip;
                            }
                            // Jump half.
                            ops_n += 1;
                            branch_n += 1;
                            pc = *target;
                            silent += 1;
                            if silent > budget {
                                break FastExit::Trip;
                            }
                        }
                        Instr::Jump(tgt) => {
                            ops_n += 1;
                            branch_n += 1;
                            pc = *tgt;
                            silent += 1;
                            if silent > budget {
                                break FastExit::Trip;
                            }
                        }
                        Instr::Branch { cmp, target } => {
                            ops_n += 1;
                            branch_n += 1;
                            let taken = compile::eval_cmp(cmp, regs, globals, pool, slot_evals);
                            pc = if taken { pc + 1 } else { *target };
                            silent += 1;
                            if silent > budget {
                                break FastExit::Trip;
                            }
                        }
                        Instr::Load { dst, addr, size, loc } => {
                            ops_n += 1;
                            mem_n += 1;
                            f.cur_loc = *loc;
                            let a = compile::eval_operand(addr, regs, globals, pool, slot_evals);
                            let v = match self.heap.read(a, *size) {
                                Ok(v) => v,
                                Err(e) => {
                                    break FastExit::Fault(GuestError {
                                        tid,
                                        loc: *loc,
                                        kind: GuestErrorKind::Mem(e),
                                    });
                                }
                            };
                            regs[dst.0 as usize] = v;
                            pc += 1;
                            break FastExit::Emitted(Event::Access {
                                tid,
                                addr: a,
                                size: *size,
                                kind: AccessKind::Read,
                                loc: *loc,
                            });
                        }
                        Instr::Store { addr, value, size, loc } => {
                            ops_n += 1;
                            mem_n += 1;
                            f.cur_loc = *loc;
                            let a = compile::eval_operand(addr, regs, globals, pool, slot_evals);
                            let v = compile::eval_operand(value, regs, globals, pool, slot_evals);
                            if let Err(e) = self.heap.write(a, *size, v) {
                                break FastExit::Fault(GuestError {
                                    tid,
                                    loc: *loc,
                                    kind: GuestErrorKind::Mem(e),
                                });
                            }
                            pc += 1;
                            break FastExit::Emitted(Event::Access {
                                tid,
                                addr: a,
                                size: *size,
                                kind: AccessKind::Write,
                                loc: *loc,
                            });
                        }
                        Instr::AssignStore { dst, value, addr, stored, size, loc } => {
                            // Assign half (silent).
                            ops_n += 1;
                            arith_n += 1;
                            fused_n += 1;
                            let v = compile::eval_operand(value, regs, globals, pool, slot_evals);
                            regs[dst.0 as usize] = v;
                            silent += 1;
                            if silent > budget {
                                break FastExit::Trip;
                            }
                            // Store half (emits); a fresh flat op.
                            ops_n += 1;
                            mem_n += 1;
                            f.cur_loc = *loc;
                            let a = compile::eval_operand(addr, regs, globals, pool, slot_evals);
                            let v = compile::eval_operand(stored, regs, globals, pool, slot_evals);
                            if let Err(e) = self.heap.write(a, *size, v) {
                                break FastExit::Fault(GuestError {
                                    tid,
                                    loc: *loc,
                                    kind: GuestErrorKind::Mem(e),
                                });
                            }
                            pc += 1;
                            break FastExit::Emitted(Event::Access {
                                tid,
                                addr: a,
                                size: *size,
                                kind: AccessKind::Write,
                                loc: *loc,
                            });
                        }
                        Instr::AtomicRmw { dst, addr, delta, size, loc } => {
                            ops_n += 1;
                            mem_n += 1;
                            f.cur_loc = *loc;
                            let a = compile::eval_operand(addr, regs, globals, pool, slot_evals);
                            let d = compile::eval_operand(delta, regs, globals, pool, slot_evals);
                            let old = match self.heap.fetch_add(a, *size, d) {
                                Ok(old) => old,
                                Err(e) => {
                                    break FastExit::Fault(GuestError {
                                        tid,
                                        loc: *loc,
                                        kind: GuestErrorKind::Mem(e),
                                    });
                                }
                            };
                            if let Some(dst) = dst {
                                regs[dst.0 as usize] = old;
                            }
                            pc += 1;
                            break FastExit::Emitted(Event::Access {
                                tid,
                                addr: a,
                                size: *size,
                                kind: AccessKind::AtomicRmw,
                                loc: *loc,
                            });
                        }
                        Instr::MutexLock { m, loc }
                        | Instr::MutexUnlock { m, loc }
                        | Instr::RwLockRead { m, loc }
                        | Instr::RwLockWrite { m, loc }
                        | Instr::RwUnlock { m, loc }
                        | Instr::SemWait { sem: m, loc }
                        | Instr::SemPost { sem: m, loc }
                        | Instr::QueueGet { queue: m, loc, .. } => {
                            ops_n += 1;
                            self.stats.interp.sync += 1;
                            f.cur_loc = *loc;
                            let h = compile::eval_operand(m, regs, globals, pool, slot_evals);
                            break FastExit::Shared(instr, h, 0);
                        }
                        Instr::QueuePut { queue, value, loc } => {
                            ops_n += 1;
                            self.stats.interp.sync += 1;
                            f.cur_loc = *loc;
                            let h = compile::eval_operand(queue, regs, globals, pool, slot_evals);
                            let v = compile::eval_operand(value, regs, globals, pool, slot_evals);
                            break FastExit::Shared(instr, h, v);
                        }
                        Instr::Alloc { size: a, loc, .. } | Instr::Free { addr: a, loc } => {
                            ops_n += 1;
                            self.stats.interp.heap += 1;
                            f.cur_loc = *loc;
                            let a = compile::eval_operand(a, regs, globals, pool, slot_evals);
                            break FastExit::Shared(instr, a, 0);
                        }
                        Instr::HgDestruct { addr, size, loc }
                        | Instr::HgCleanMemory { addr, size, loc } => {
                            ops_n += 1;
                            self.stats.interp.misc += 1;
                            f.cur_loc = *loc;
                            let a = compile::eval_operand(addr, regs, globals, pool, slot_evals);
                            let s = compile::eval_operand(size, regs, globals, pool, slot_evals);
                            break FastExit::Shared(instr, a, s);
                        }
                        Instr::Label { loc, .. } => {
                            ops_n += 1;
                            self.stats.interp.misc += 1;
                            f.cur_loc = *loc;
                            break FastExit::Shared(instr, 0, 0);
                        }
                        _ => break FastExit::Fallback,
                    }
                };
                f.pc = pc;
            }
            self.stats.ops += ops_n;
            self.stats.interp.arith += arith_n;
            self.stats.interp.branch += branch_n;
            self.stats.interp.mem += mem_n;
            self.stats.interp.fused += fused_n;
            let flow = match exit {
                FastExit::Emitted(ev) => {
                    self.deliver(tool, &ev);
                    return Ok(());
                }
                FastExit::Shared(instr, a, b) => {
                    let flow = self.exec_shared(tid, instr, a, b)?;
                    if let Flow::Silent = flow {
                        // A failed allocation returns null silently.
                        self.bump_silent(tid, &mut silent)?;
                    }
                    flow
                }
                FastExit::Fallback => self.exec_instr(tid, &mut silent, comp)?,
                FastExit::Trip => return Err(self.err(tid, GuestErrorKind::SilentLoop)),
                FastExit::Fault(e) => return Err(e),
            };
            match flow {
                Flow::Silent => {}
                Flow::Emitted(ev) => {
                    self.deliver(tool, &ev);
                    return Ok(());
                }
                Flow::Queued | Flow::Blocked | Flow::Yielded => return Ok(()),
            }
        }
    }

    /// Hand one event straight to the tool, as the compiled core does.
    /// `pending` is empty here: it is drained after every slot, and no op
    /// before this one in the slot emitted.
    #[inline]
    fn deliver(&mut self, tool: &mut dyn Tool, ev: &Event) {
        debug_assert!(self.pending.is_empty());
        self.stats.events += 1;
        tool.on_event(ev, &VmView { vm: self });
    }

    /// Run a form the hoisted loop handed over with its operands evaluated
    /// (`a`, `b` in operand order) on the body the reference core runs too.
    fn exec_shared(
        &mut self,
        tid: ThreadId,
        instr: &Instr,
        a: u64,
        b: u64,
    ) -> Result<Flow, GuestError> {
        match *instr {
            Instr::MutexLock { loc, .. } => self.do_mutex_lock(tid, a, loc),
            Instr::MutexUnlock { loc, .. } => self.do_mutex_unlock(tid, a, loc),
            Instr::RwLockRead { loc, .. } => self.do_rw_read(tid, a, loc),
            Instr::RwLockWrite { loc, .. } => self.do_rw_write(tid, a, loc),
            Instr::RwUnlock { loc, .. } => self.do_rw_unlock(tid, a, loc),
            Instr::SemWait { loc, .. } => self.do_sem_wait(tid, a, loc),
            Instr::SemPost { loc, .. } => self.do_sem_post(tid, a, loc),
            Instr::QueuePut { loc, .. } => self.do_queue_put(tid, a, b, loc),
            Instr::QueueGet { dst, loc, .. } => self.do_queue_get(tid, a, dst, loc),
            Instr::Alloc { dst, loc, .. } => self.do_alloc(tid, dst, a, loc),
            Instr::Free { loc, .. } => self.do_free(tid, a, loc),
            Instr::HgDestruct { loc, .. } => {
                self.do_client(tid, ClientEv::HgDestruct { addr: a, size: b }, loc)
            }
            Instr::HgCleanMemory { loc, .. } => {
                self.do_client(tid, ClientEv::HgCleanMemory { addr: a, size: b }, loc)
            }
            Instr::Label { sym, loc } => self.do_client(tid, ClientEv::Label(sym), loc),
            _ => unreachable!("{instr:?} has no shared body"),
        }
    }

    /// One silent step: charge the budget *after* the op executed, exactly
    /// like the reference slot loop.
    #[inline]
    fn bump_silent(&self, tid: ThreadId, silent: &mut u32) -> Result<(), GuestError> {
        *silent += 1;
        if *silent > self.opts.silent_op_budget {
            Err(self.err(tid, GuestErrorKind::SilentLoop))
        } else {
            Ok(())
        }
    }

    /// Evaluate a compiled operand against `tid`'s current register window.
    #[inline]
    fn ceval(&self, tid: ThreadId, op: &compile::Operand, comp: &CompiledProgram) -> u64 {
        let t = &self.threads[tid.index()];
        let f = t.frames.last().expect("running thread has a frame");
        compile::eval_operand(
            op,
            &t.stack[f.base as usize..],
            &self.global_addrs,
            &comp.pool,
            &self.slot_evals,
        )
    }

    /// Execute one cold-form compiled instruction of `tid`: the forms the
    /// hoisted loop in [`Vm::run_slot_compiled`] leaves to this function.
    /// Mirrors [`Vm::exec_op`] observable-for-observable: same event order,
    /// same error locations, same fault-injection consult points. Kept out
    /// of line: inlined into the slot loop, its arms cost the hoisted loop
    /// registers, and the bare-VM ladder run slowed by ~15%.
    #[inline(never)]
    fn exec_instr(
        &mut self,
        tid: ThreadId,
        silent: &mut u32,
        comp: &'p CompiledProgram,
    ) -> Result<Flow, GuestError> {
        self.stats.ops += 1;
        let ti = tid.index();
        let (proc, pc) = {
            let f = self.threads[ti].frames.last().expect("running thread has a frame");
            (f.proc, f.pc)
        };
        let instr: &'p Instr = &comp.procs[proc.0 as usize].code[pc as usize];
        match instr {
            Instr::Call { proc: callee, args, dst, loc } => {
                self.stats.interp.call += 1;
                self.set_loc(tid, *loc);
                if self.threads[ti].frames.len() >= self.opts.max_frames {
                    return Err(GuestError { tid, loc: *loc, kind: GuestErrorKind::StackOverflow });
                }
                let nregs = comp.procs[callee.0 as usize].nregs as usize;
                let nargs = args.len();
                let mut argbuf = [0u64; 8];
                let mut argvec = Vec::new();
                if nargs <= argbuf.len() {
                    for (i, a) in args.iter().enumerate() {
                        argbuf[i] = self.ceval(tid, a, comp);
                    }
                } else {
                    argvec.reserve(nargs);
                    for a in args.iter() {
                        argvec.push(self.ceval(tid, a, comp));
                    }
                }
                let vals = if nargs <= argbuf.len() { &argbuf[..nargs] } else { &argvec[..] };
                let t = &mut self.threads[ti];
                // Return resumes after this op.
                t.frames.last_mut().expect("running thread has a frame").pc += 1;
                let base = t.stack.len();
                t.stack.resize(base + nregs, 0);
                t.stack[base..base + nargs].copy_from_slice(vals);
                t.frames.push(Frame {
                    proc: *callee,
                    pc: 0,
                    regs: Vec::new(),
                    base: base as u32,
                    ret_dst: *dst,
                    cur_loc: *loc,
                });
                self.bump_silent(tid, silent)?;
                Ok(Flow::Silent)
            }
            Instr::Ret { value } => {
                self.stats.interp.call += 1;
                let v = match value {
                    Some(op) => self.ceval(tid, op, comp),
                    None => 0,
                };
                let exited = {
                    let t = &mut self.threads[ti];
                    let Some(frame) = t.frames.pop() else {
                        return Err(GuestError {
                            tid,
                            loc: SrcLoc::UNKNOWN,
                            kind: GuestErrorKind::MissingFrame,
                        });
                    };
                    t.stack.truncate(frame.base as usize);
                    if t.frames.is_empty() {
                        true
                    } else {
                        if let Some(dst) = frame.ret_dst {
                            let base =
                                t.frames.last().expect("running thread has a frame").base as usize;
                            t.stack[base + dst.0 as usize] = v;
                        }
                        false
                    }
                };
                if exited {
                    self.set_state(tid, ThreadState::Exited);
                    self.wake_joiners(tid);
                    Ok(Flow::Emitted(Event::ThreadExit { tid }))
                } else {
                    self.bump_silent(tid, silent)?;
                    Ok(Flow::Silent)
                }
            }
            Instr::Spawn { proc: child_proc, args, dst, loc } => {
                self.stats.interp.thread += 1;
                self.set_loc(tid, *loc);
                let nregs = comp.procs[child_proc.0 as usize].nregs as usize;
                let mut child_stack = vec![0u64; nregs];
                for (i, a) in args.iter().enumerate() {
                    child_stack[i] = self.ceval(tid, a, comp);
                }
                let frame = Frame {
                    proc: *child_proc,
                    pc: 0,
                    regs: Vec::new(),
                    base: 0,
                    ret_dst: None,
                    cur_loc: *loc,
                };
                let child = self.push_thread(frame, child_stack);
                self.set_reg(tid, *dst, child.0 as u64);
                self.advance(tid);
                Ok(Flow::Emitted(Event::ThreadCreate { parent: tid, child, loc: *loc }))
            }
            Instr::Join { handle, loc } => {
                self.stats.interp.thread += 1;
                self.set_loc(tid, *loc);
                let h = self.ceval(tid, handle, comp);
                self.do_join(tid, h, *loc)
            }
            Instr::NewSync { dst, kind, init } => {
                self.stats.interp.sync += 1;
                let init_v = self.ceval(tid, init, comp);
                let id = self.syncs.len() as u64;
                self.syncs.push(SyncObj::new(*kind, init_v));
                self.set_reg(tid, *dst, id);
                self.advance(tid);
                self.bump_silent(tid, silent)?;
                Ok(Flow::Silent)
            }
            Instr::CondWait { cond, mutex, loc } => {
                self.stats.interp.sync += 1;
                self.set_loc(tid, *loc);
                let ch = self.ceval(tid, cond, comp);
                let mh = self.ceval(tid, mutex, comp);
                self.do_cond_wait(tid, ch, mh, *loc)
            }
            Instr::CondSignal { cond, broadcast, loc } => {
                self.stats.interp.sync += 1;
                self.set_loc(tid, *loc);
                let ch = self.ceval(tid, cond, comp);
                self.do_cond_signal(tid, ch, *broadcast, *loc)
            }
            Instr::Yield => {
                self.stats.interp.thread += 1;
                self.advance(tid);
                Ok(Flow::Yielded)
            }
            Instr::AssertEq { a, b, msg } => {
                self.stats.interp.misc += 1;
                let va = self.ceval(tid, a, comp);
                let vb = self.ceval(tid, b, comp);
                if va != vb {
                    let loc = self.frame(tid).cur_loc;
                    return Err(GuestError {
                        tid,
                        loc,
                        kind: GuestErrorKind::AssertFailed {
                            msg: msg.to_string(),
                            left: va,
                            right: vb,
                        },
                    });
                }
                self.advance(tid);
                self.bump_silent(tid, silent)?;
                Ok(Flow::Silent)
            }
            _ => unreachable!("{instr:?} runs in the hoisted loop"),
        }
    }

    fn err(&self, tid: ThreadId, kind: GuestErrorKind) -> GuestError {
        let loc =
            self.threads[tid.index()].frames.last().map(|f| f.cur_loc).unwrap_or(SrcLoc::UNKNOWN);
        GuestError { tid, loc, kind }
    }

    fn err_at(&self, tid: ThreadId, loc: SrcLoc, kind: GuestErrorKind) -> GuestError {
        GuestError { tid, loc, kind }
    }

    #[inline]
    fn frame(&self, tid: ThreadId) -> &Frame {
        self.threads[tid.index()].frames.last().expect("running thread has a frame")
    }

    #[inline]
    fn frame_mut(&mut self, tid: ThreadId) -> &mut Frame {
        self.threads[tid.index()].frames.last_mut().expect("running thread has a frame")
    }

    fn eval(&self, tid: ThreadId, e: &Expr) -> u64 {
        e.eval(&self.frame(tid).regs, &self.global_addrs)
    }

    fn eval_cond(&self, tid: ThreadId, c: &Cond) -> bool {
        c.eval(&self.frame(tid).regs, &self.global_addrs)
    }

    /// Write a register of the current frame, in whichever layout the
    /// active interpreter core uses.
    fn set_reg(&mut self, tid: ThreadId, r: RegId, v: u64) {
        let compiled = self.compiled.is_some();
        let t = &mut self.threads[tid.index()];
        let f = t.frames.last_mut().expect("running thread has a frame");
        if compiled {
            t.stack[f.base as usize + r.0 as usize] = v;
        } else {
            f.regs[r.0 as usize] = v;
        }
    }

    fn advance(&mut self, tid: ThreadId) {
        self.frame_mut(tid).pc += 1;
    }

    fn set_loc(&mut self, tid: ThreadId, loc: SrcLoc) {
        self.frame_mut(tid).cur_loc = loc;
    }

    fn sync_obj(
        &mut self,
        tid: ThreadId,
        handle: u64,
        loc: SrcLoc,
    ) -> Result<(SyncId, &mut SyncObj), GuestError> {
        let idx = handle as usize;
        if idx >= self.syncs.len() {
            return Err(self.err_at(tid, loc, GuestErrorKind::BadSyncHandle { handle }));
        }
        Ok((SyncId(handle as u32), &mut self.syncs[idx]))
    }

    /// Execute exactly one opcode of `tid`.
    fn exec_op(&mut self, tid: ThreadId) -> Result<Flow, GuestError> {
        self.stats.ops += 1;
        let prog = self.prog;
        let (proc, pc) = {
            let f = self.frame(tid);
            (f.proc, f.pc)
        };
        let op: &'p Op = &prog.procs[proc.0 as usize].code[pc as usize];
        match op {
            Op::Assign { dst, value } => {
                self.stats.interp.arith += 1;
                let v = self.eval(tid, value);
                self.set_reg(tid, *dst, v);
                self.advance(tid);
                Ok(Flow::Silent)
            }
            Op::Jump(t) => {
                self.stats.interp.branch += 1;
                self.frame_mut(tid).pc = *t;
                Ok(Flow::Silent)
            }
            Op::BranchIfFalse { cond, target } => {
                self.stats.interp.branch += 1;
                if self.eval_cond(tid, cond) {
                    self.advance(tid);
                } else {
                    self.frame_mut(tid).pc = *target;
                }
                Ok(Flow::Silent)
            }
            Op::Load { dst, addr, size, loc } => {
                self.stats.interp.mem += 1;
                self.set_loc(tid, *loc);
                let a = self.eval(tid, addr);
                let v = self
                    .heap
                    .read(a, *size)
                    .map_err(|e| self.err_at(tid, *loc, GuestErrorKind::Mem(e)))?;
                self.set_reg(tid, *dst, v);
                self.advance(tid);
                Ok(Flow::Emitted(Event::Access {
                    tid,
                    addr: a,
                    size: *size,
                    kind: AccessKind::Read,
                    loc: *loc,
                }))
            }
            Op::Store { addr, value, size, loc } => {
                self.stats.interp.mem += 1;
                self.set_loc(tid, *loc);
                let a = self.eval(tid, addr);
                let v = self.eval(tid, value);
                self.heap
                    .write(a, *size, v)
                    .map_err(|e| self.err_at(tid, *loc, GuestErrorKind::Mem(e)))?;
                self.advance(tid);
                Ok(Flow::Emitted(Event::Access {
                    tid,
                    addr: a,
                    size: *size,
                    kind: AccessKind::Write,
                    loc: *loc,
                }))
            }
            Op::AtomicRmw { dst, addr, delta, size, loc } => {
                self.stats.interp.mem += 1;
                self.set_loc(tid, *loc);
                let a = self.eval(tid, addr);
                let d = self.eval(tid, delta);
                let old = self
                    .heap
                    .fetch_add(a, *size, d)
                    .map_err(|e| self.err_at(tid, *loc, GuestErrorKind::Mem(e)))?;
                if let Some(dst) = dst {
                    self.set_reg(tid, *dst, old);
                }
                self.advance(tid);
                Ok(Flow::Emitted(Event::Access {
                    tid,
                    addr: a,
                    size: *size,
                    kind: AccessKind::AtomicRmw,
                    loc: *loc,
                }))
            }
            Op::Call { proc: callee, args, dst, loc } => {
                self.stats.interp.call += 1;
                self.set_loc(tid, *loc);
                if self.threads[tid.index()].frames.len() >= self.opts.max_frames {
                    return Err(self.err_at(tid, *loc, GuestErrorKind::StackOverflow));
                }
                let callee_info = &prog.procs[callee.0 as usize];
                let mut regs = vec![0u64; callee_info.nregs as usize];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.eval(tid, a);
                }
                // Return resumes after this op.
                self.advance(tid);
                self.threads[tid.index()].frames.push(Frame {
                    proc: *callee,
                    pc: 0,
                    regs,
                    base: 0,
                    ret_dst: *dst,
                    cur_loc: *loc,
                });
                Ok(Flow::Silent)
            }
            Op::Ret { value } => {
                self.stats.interp.call += 1;
                let v = value.as_ref().map(|e| self.eval(tid, e)).unwrap_or(0);
                let Some(frame) = self.threads[tid.index()].frames.pop() else {
                    return Err(self.err(tid, GuestErrorKind::MissingFrame));
                };
                if self.threads[tid.index()].frames.is_empty() {
                    self.set_state(tid, ThreadState::Exited);
                    self.wake_joiners(tid);
                    Ok(Flow::Emitted(Event::ThreadExit { tid }))
                } else {
                    if let Some(dst) = frame.ret_dst {
                        self.set_reg(tid, dst, v);
                    }
                    Ok(Flow::Silent)
                }
            }
            Op::Spawn { proc: child_proc, args, dst, loc } => {
                self.stats.interp.thread += 1;
                self.set_loc(tid, *loc);
                let callee_info = &prog.procs[child_proc.0 as usize];
                let mut regs = vec![0u64; callee_info.nregs as usize];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.eval(tid, a);
                }
                let frame =
                    Frame { proc: *child_proc, pc: 0, regs, base: 0, ret_dst: None, cur_loc: *loc };
                let child = self.push_thread(frame, Vec::new());
                self.set_reg(tid, *dst, child.0 as u64);
                self.advance(tid);
                Ok(Flow::Emitted(Event::ThreadCreate { parent: tid, child, loc: *loc }))
            }
            Op::Join { handle, loc } => {
                self.stats.interp.thread += 1;
                self.set_loc(tid, *loc);
                let h = self.eval(tid, handle);
                self.do_join(tid, h, *loc)
            }
            Op::NewSync { dst, kind, init } => {
                self.stats.interp.sync += 1;
                let init_v = self.eval(tid, init);
                let id = self.syncs.len() as u64;
                self.syncs.push(SyncObj::new(*kind, init_v));
                self.set_reg(tid, *dst, id);
                self.advance(tid);
                Ok(Flow::Silent)
            }
            Op::Sync { op, loc } => {
                self.stats.interp.sync += 1;
                self.set_loc(tid, *loc);
                self.exec_sync(tid, op, *loc)
            }
            Op::Alloc { dst, size, loc } => {
                self.stats.interp.heap += 1;
                self.set_loc(tid, *loc);
                let sz = self.eval(tid, size);
                self.do_alloc(tid, *dst, sz, *loc)
            }
            Op::Free { addr, loc } => {
                self.stats.interp.heap += 1;
                self.set_loc(tid, *loc);
                let a = self.eval(tid, addr);
                self.do_free(tid, a, *loc)
            }
            Op::Client { req, loc } => {
                self.stats.interp.misc += 1;
                self.set_loc(tid, *loc);
                let ev = match req {
                    ClientOp::HgDestruct { addr, size } => ClientEv::HgDestruct {
                        addr: self.eval(tid, addr),
                        size: self.eval(tid, size),
                    },
                    ClientOp::HgCleanMemory { addr, size } => ClientEv::HgCleanMemory {
                        addr: self.eval(tid, addr),
                        size: self.eval(tid, size),
                    },
                    ClientOp::Label(sym) => ClientEv::Label(*sym),
                };
                self.do_client(tid, ev, *loc)
            }
            Op::Yield => {
                self.stats.interp.thread += 1;
                self.advance(tid);
                Ok(Flow::Yielded)
            }
            Op::AssertEq { a, b, msg } => {
                self.stats.interp.misc += 1;
                let va = self.eval(tid, a);
                let vb = self.eval(tid, b);
                if va != vb {
                    let loc = self.frame(tid).cur_loc;
                    return Err(self.err_at(
                        tid,
                        loc,
                        GuestErrorKind::AssertFailed { msg: msg.clone(), left: va, right: vb },
                    ));
                }
                self.advance(tid);
                Ok(Flow::Silent)
            }
        }
    }

    fn exec_sync(&mut self, tid: ThreadId, op: &SyncOp, loc: SrcLoc) -> Result<Flow, GuestError> {
        match op {
            SyncOp::MutexLock(m) => {
                let h = self.eval(tid, m);
                self.do_mutex_lock(tid, h, loc)
            }
            SyncOp::MutexUnlock(m) => {
                let h = self.eval(tid, m);
                self.do_mutex_unlock(tid, h, loc)
            }
            SyncOp::RwLockRead(m) => {
                let h = self.eval(tid, m);
                self.do_rw_read(tid, h, loc)
            }
            SyncOp::RwLockWrite(m) => {
                let h = self.eval(tid, m);
                self.do_rw_write(tid, h, loc)
            }
            SyncOp::RwUnlock(m) => {
                let h = self.eval(tid, m);
                self.do_rw_unlock(tid, h, loc)
            }
            SyncOp::CondWait { cond, mutex } => {
                let ch = self.eval(tid, cond);
                let mh = self.eval(tid, mutex);
                self.do_cond_wait(tid, ch, mh, loc)
            }
            SyncOp::CondSignal(c) => {
                let ch = self.eval(tid, c);
                self.do_cond_signal(tid, ch, false, loc)
            }
            SyncOp::CondBroadcast(c) => {
                let ch = self.eval(tid, c);
                self.do_cond_signal(tid, ch, true, loc)
            }
            SyncOp::SemWait(s) => {
                let h = self.eval(tid, s);
                self.do_sem_wait(tid, h, loc)
            }
            SyncOp::SemPost(s) => {
                let h = self.eval(tid, s);
                self.do_sem_post(tid, h, loc)
            }
            SyncOp::QueuePut { queue, value } => {
                let h = self.eval(tid, queue);
                let v = self.eval(tid, value);
                self.do_queue_put(tid, h, v, loc)
            }
            SyncOp::QueueGet { queue, dst } => {
                let h = self.eval(tid, queue);
                self.do_queue_get(tid, h, *dst, loc)
            }
        }
    }

    // ---- op bodies, shared by both interpreter cores ----
    //
    // Operands are evaluated at the call sites (each core reads its own
    // register layout, in the order the reference interpreter always
    // used); everything after evaluation — fault-injection consults, state
    // transitions, wakeups, the event — is common code, so the two cores
    // cannot drift. A body wakes whatever its op unblocks *before* it
    // returns its event, so a tool handed that event directly sees the
    // state the reference core's end-of-slot drain shows it.

    fn do_join(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        let target = ThreadId(h as u32);
        if h >= self.threads.len() as u64 || target == tid {
            return Err(self.err_at(tid, loc, GuestErrorKind::BadJoin { handle: h }));
        }
        if self.threads[target.index()].state == ThreadState::Exited {
            self.advance(tid);
            Ok(Flow::Emitted(Event::ThreadJoin { joiner: tid, joined: target, loc }))
        } else {
            self.set_state(tid, ThreadState::Blocked(BlockOn::Join(target)));
            Ok(Flow::Blocked)
        }
    }

    /// The caller evaluates `sz` before the allocation-failure consult;
    /// evaluating an operand changes no guest state.
    fn do_alloc(
        &mut self,
        tid: ThreadId,
        dst: RegId,
        sz: u64,
        loc: SrcLoc,
    ) -> Result<Flow, GuestError> {
        if self.inject_alloc_fail(tid) {
            // Allocation failure: `new` returns null and no Alloc event
            // reaches the tool; a later dereference is a wild access,
            // exactly as on a real OOM path.
            self.set_reg(tid, dst, 0);
            self.advance(tid);
            return Ok(Flow::Silent);
        }
        let addr = self.heap.alloc(sz, tid, loc);
        self.stats.allocs += 1;
        self.set_reg(tid, dst, addr);
        self.advance(tid);
        Ok(Flow::Emitted(Event::Alloc { tid, addr, size: sz.max(1), loc }))
    }

    fn do_free(&mut self, tid: ThreadId, a: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        let blk = self.heap.free(a).map_err(|e| self.err_at(tid, loc, GuestErrorKind::Mem(e)))?;
        self.advance(tid);
        Ok(Flow::Emitted(Event::Free { tid, addr: a, size: blk.size, loc }))
    }

    /// A client request. A range that leaves mapped guest memory is a
    /// guest error: the engines keep shadow state for every granule a
    /// request names, so a wild size would exhaust the host instead.
    fn do_client(&mut self, tid: ThreadId, req: ClientEv, loc: SrcLoc) -> Result<Flow, GuestError> {
        if let ClientEv::HgDestruct { addr, size } | ClientEv::HgCleanMemory { addr, size } = req {
            self.heap
                .check_range(addr, size)
                .map_err(|e| self.err_at(tid, loc, GuestErrorKind::Mem(e)))?;
        }
        self.advance(tid);
        Ok(Flow::Emitted(Event::Client { tid, req, loc }))
    }

    fn do_mutex_lock(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        if self.inject_lock_fail() {
            // Timed-lock timeout: pc does not advance, the thread retries
            // the acquisition the next time it is scheduled.
            return Ok(Flow::Yielded);
        }
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        match obj.mutex_lock(tid) {
            Ok(true) => {
                self.advance(tid);
                Ok(Flow::Emitted(Event::Acquire {
                    tid,
                    sync: sid,
                    kind: SyncKind::Mutex,
                    mode: AcqMode::Exclusive,
                    loc,
                }))
            }
            Ok(false) => {
                self.set_state(tid, ThreadState::Blocked(BlockOn::Mutex(sid)));
                Ok(Flow::Blocked)
            }
            Err(e) => Err(self.err_at(tid, loc, GuestErrorKind::Sync(e))),
        }
    }

    fn do_mutex_unlock(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        obj.mutex_unlock(tid).map_err(|e| self.err_at(tid, loc, GuestErrorKind::Sync(e)))?;
        self.advance(tid);
        self.wake_blocked_on(|b| matches!(b, BlockOn::Mutex(s) if *s == sid));
        Ok(Flow::Emitted(Event::Release { tid, sync: sid, kind: SyncKind::Mutex, loc }))
    }

    fn do_rw_read(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        if self.inject_lock_fail() {
            return Ok(Flow::Yielded);
        }
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        match obj.rw_lock_read(tid) {
            Ok(true) => {
                self.advance(tid);
                Ok(Flow::Emitted(Event::Acquire {
                    tid,
                    sync: sid,
                    kind: SyncKind::RwLock,
                    mode: AcqMode::Shared,
                    loc,
                }))
            }
            Ok(false) => {
                self.set_state(tid, ThreadState::Blocked(BlockOn::RwRead(sid)));
                Ok(Flow::Blocked)
            }
            Err(e) => Err(self.err_at(tid, loc, GuestErrorKind::Sync(e))),
        }
    }

    fn do_rw_write(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        if self.inject_lock_fail() {
            return Ok(Flow::Yielded);
        }
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        match obj.rw_lock_write(tid) {
            Ok(true) => {
                self.advance(tid);
                Ok(Flow::Emitted(Event::Acquire {
                    tid,
                    sync: sid,
                    kind: SyncKind::RwLock,
                    mode: AcqMode::Exclusive,
                    loc,
                }))
            }
            Ok(false) => {
                self.set_state(tid, ThreadState::Blocked(BlockOn::RwWrite(sid)));
                Ok(Flow::Blocked)
            }
            Err(e) => Err(self.err_at(tid, loc, GuestErrorKind::Sync(e))),
        }
    }

    fn do_rw_unlock(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        obj.rw_unlock(tid).map_err(|e| self.err_at(tid, loc, GuestErrorKind::Sync(e)))?;
        self.advance(tid);
        self.wake_blocked_on(
            |b| matches!(b, BlockOn::RwRead(s) | BlockOn::RwWrite(s) if *s == sid),
        );
        Ok(Flow::Emitted(Event::Release { tid, sync: sid, kind: SyncKind::RwLock, loc }))
    }

    fn do_cond_wait(
        &mut self,
        tid: ThreadId,
        ch: u64,
        mh: u64,
        loc: SrcLoc,
    ) -> Result<Flow, GuestError> {
        if let Some((cv, m, signaler)) = self.threads[tid.index()].cond_resume {
            // Phase 2: woken by a signal; re-acquire the mutex.
            let (msid, mobj) = self.sync_obj(tid, m.0 as u64, loc)?;
            debug_assert_eq!(msid, m);
            match mobj.mutex_lock(tid) {
                Ok(true) => {
                    self.threads[tid.index()].cond_resume = None;
                    self.advance(tid);
                    self.pending.push(Event::CondWake { tid, sync: cv, signaler, loc });
                    self.pending.push(Event::Acquire {
                        tid,
                        sync: m,
                        kind: SyncKind::Mutex,
                        mode: AcqMode::Exclusive,
                        loc,
                    });
                    Ok(Flow::Queued)
                }
                Ok(false) => {
                    self.set_state(tid, ThreadState::Blocked(BlockOn::Mutex(m)));
                    Ok(Flow::Blocked)
                }
                Err(e) => Err(self.err_at(tid, loc, GuestErrorKind::Sync(e))),
            }
        } else {
            // Phase 1: release the mutex and park on the condvar.
            let (msid, mobj) = self.sync_obj(tid, mh, loc)?;
            mobj.mutex_unlock(tid).map_err(|e| self.err_at(tid, loc, GuestErrorKind::Sync(e)))?;
            let (csid, cobj) = self.sync_obj(tid, ch, loc)?;
            cobj.cond_park(tid).map_err(|e| self.err_at(tid, loc, GuestErrorKind::Sync(e)))?;
            self.set_state(tid, ThreadState::Blocked(BlockOn::Cond(csid)));
            self.wake_blocked_on(|b| matches!(b, BlockOn::Mutex(s) if *s == msid));
            Ok(Flow::Emitted(Event::Release { tid, sync: msid, kind: SyncKind::Mutex, loc }))
        }
    }

    fn do_cond_signal(
        &mut self,
        tid: ThreadId,
        ch: u64,
        broadcast: bool,
        loc: SrcLoc,
    ) -> Result<Flow, GuestError> {
        let (csid, cobj) = self.sync_obj(tid, ch, loc)?;
        let woken = cobj
            .cond_take_waiters(broadcast)
            .map_err(|e| self.err_at(tid, loc, GuestErrorKind::Sync(e)))?;
        for w in woken {
            // The waiter re-executes its CondWait in phase 2. It needs the
            // mutex handle, which it stored in its own frame; recover it by
            // re-evaluating its current op.
            let m = self.cond_wait_mutex_of(w)?;
            self.threads[w.index()].cond_resume = Some((csid, m, tid));
            self.set_state(w, ThreadState::Runnable);
        }
        self.advance(tid);
        Ok(Flow::Emitted(Event::CondSignal { tid, sync: csid, broadcast, loc }))
    }

    fn do_sem_wait(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        match obj.sem_try_wait() {
            Ok(true) => {
                self.advance(tid);
                Ok(Flow::Emitted(Event::SemAcquired { tid, sync: sid, loc }))
            }
            Ok(false) => {
                self.set_state(tid, ThreadState::Blocked(BlockOn::Sem(sid)));
                Ok(Flow::Blocked)
            }
            Err(e) => Err(self.err_at(tid, loc, GuestErrorKind::Sync(e))),
        }
    }

    fn do_sem_post(&mut self, tid: ThreadId, h: u64, loc: SrcLoc) -> Result<Flow, GuestError> {
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        obj.sem_post().map_err(|e| self.err_at(tid, loc, GuestErrorKind::Sync(e)))?;
        self.advance(tid);
        self.wake_blocked_on(|b| matches!(b, BlockOn::Sem(s2) if *s2 == sid));
        Ok(Flow::Emitted(Event::SemPost { tid, sync: sid, loc }))
    }

    fn do_queue_put(
        &mut self,
        tid: ThreadId,
        h: u64,
        v: u64,
        loc: SrcLoc,
    ) -> Result<Flow, GuestError> {
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        match obj.queue_try_put(v) {
            Ok(Some(token)) => {
                self.advance(tid);
                self.wake_blocked_on(|b| matches!(b, BlockOn::QueueGet(s2) if *s2 == sid));
                Ok(Flow::Emitted(Event::QueuePut { tid, sync: sid, token, loc }))
            }
            Ok(None) => {
                self.set_state(tid, ThreadState::Blocked(BlockOn::QueuePut(sid)));
                Ok(Flow::Blocked)
            }
            Err(e) => Err(self.err_at(tid, loc, GuestErrorKind::Sync(e))),
        }
    }

    fn do_queue_get(
        &mut self,
        tid: ThreadId,
        h: u64,
        dst: RegId,
        loc: SrcLoc,
    ) -> Result<Flow, GuestError> {
        let (sid, obj) = self.sync_obj(tid, h, loc)?;
        match obj.queue_try_get() {
            Ok(Some((v, token))) => {
                self.set_reg(tid, dst, v);
                self.advance(tid);
                self.wake_blocked_on(|b| matches!(b, BlockOn::QueuePut(s2) if *s2 == sid));
                Ok(Flow::Emitted(Event::QueueGot { tid, sync: sid, token, loc }))
            }
            Ok(None) => {
                self.set_state(tid, ThreadState::Blocked(BlockOn::QueueGet(sid)));
                Ok(Flow::Blocked)
            }
            Err(e) => Err(self.err_at(tid, loc, GuestErrorKind::Sync(e))),
        }
    }

    /// The mutex handle a cond-waiting thread passed to its `CondWait` op.
    /// A waiter parked anywhere else is a protocol violation — reported as
    /// a structured guest fault, never a host panic.
    fn cond_wait_mutex_of(&self, tid: ThreadId) -> Result<SyncId, GuestError> {
        let Some(f) = self.threads[tid.index()].frames.last() else {
            return Err(self.err(
                tid,
                GuestErrorKind::CondProtocol {
                    detail: format!("cond waiter thread {} has no frame", tid.0),
                },
            ));
        };
        if let Some(comp) = self.compiled {
            let instr = &comp.procs[f.proc.0 as usize].code[f.pc as usize];
            return match instr {
                Instr::CondWait { mutex, .. } => {
                    let t = &self.threads[tid.index()];
                    Ok(SyncId(compile::eval_operand(
                        mutex,
                        &t.stack[f.base as usize..],
                        &self.global_addrs,
                        &comp.pool,
                        &self.slot_evals,
                    ) as u32))
                }
                other => Err(self.err_at(
                    tid,
                    f.cur_loc,
                    GuestErrorKind::CondProtocol {
                        detail: format!("cond waiter parked on non-CondWait op {other:?}"),
                    },
                )),
            };
        }
        let op = &self.prog.procs[f.proc.0 as usize].code[f.pc as usize];
        match op {
            Op::Sync { op: SyncOp::CondWait { mutex, .. }, .. } => {
                Ok(SyncId(mutex.eval(&f.regs, &self.global_addrs) as u32))
            }
            other => Err(self.err_at(
                tid,
                f.cur_loc,
                GuestErrorKind::CondProtocol {
                    detail: format!("cond waiter parked on non-CondWait op {other:?}"),
                },
            )),
        }
    }

    /// Make every blocked thread whose wait `pred` accepts runnable.
    fn wake_blocked_on(&mut self, pred: impl Fn(&BlockOn) -> bool) {
        let mut i = 0;
        while let Some(&tid) = self.blocked.get(i) {
            match self.threads[tid.index()].state {
                // Waking removes `tid` from the list: `i` is now the next.
                ThreadState::Blocked(on) if pred(&on) => self.set_state(tid, ThreadState::Runnable),
                _ => i += 1,
            }
        }
    }

    fn wake_joiners(&mut self, exited: ThreadId) {
        self.wake_blocked_on(|b| matches!(b, BlockOn::Join(t) if *t == exited));
    }
}

/// A program prepared for repeated execution: compile once, run many.
/// Sweeps (explore, benches) hoist the compile out of their per-seed
/// loops with this; a single `check` run can just use [`run_flat`].
pub struct PreparedProgram<'p> {
    prog: &'p FlatProgram,
    code: CompiledProgram,
}

impl<'p> PreparedProgram<'p> {
    pub fn new(prog: &'p FlatProgram) -> Self {
        PreparedProgram { prog, code: compile::compile(prog) }
    }

    pub fn program(&self) -> &'p FlatProgram {
        self.prog
    }

    /// Static compile statistics.
    pub fn compile_stats(&self) -> compile::CompileStats {
        self.code.stats
    }

    /// Run one execution on the compiled core.
    pub fn run(
        &self,
        tool: &mut dyn Tool,
        sched: &mut dyn Scheduler,
        opts: VmOptions,
    ) -> RunResult {
        Vm::with_compiled(self.prog, &self.code, opts).run(tool, sched)
    }
}

/// Convenience: compile and run a lowered program. Compiles per call; use
/// [`PreparedProgram`] to amortise the compile over many runs.
pub fn run_flat(
    prog: &FlatProgram,
    tool: &mut dyn Tool,
    sched: &mut dyn Scheduler,
    opts: VmOptions,
) -> RunResult {
    PreparedProgram::new(prog).run(tool, sched, opts)
}

/// Convenience: run a structured [`crate::ir::Program`] with defaults.
pub fn run_program(
    prog: &crate::ir::Program,
    tool: &mut dyn Tool,
    sched: &mut dyn Scheduler,
) -> RunResult {
    let flat = prog.lower();
    run_flat(&flat, tool, sched, VmOptions::default())
}
