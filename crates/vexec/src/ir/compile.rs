//! Operand-specialized linear bytecode for the VM hot loop.
//!
//! The tree-walking interpreter in [`crate::vm`] evaluates heap-boxed
//! [`Expr`] trees on every opcode. This module lowers a [`FlatProgram`]
//! one step further into a [`CompiledProgram`]: every expression is
//! classified into a fixed [`Operand`] form (constant / register / global
//! / register+constant offset), dominant silent-op patterns are fused
//! into superinstructions, and jump targets are remapped into the denser
//! compiled pc space. Genuinely nested arithmetic — the rare case — falls
//! back to a short postfix [`SlotOp`] sequence stored in a shared pool.
//!
//! The compiled form is *observationally identical* to the flat form:
//! event emission, slot boundaries, silent-op accounting, fault-injection
//! consult points and `SrcLoc` attribution are preserved bit-for-bit (see
//! DESIGN.md §15 for the argument). Fusion therefore only ever combines
//! ops that cannot be separated by an observable point:
//!
//! * [`Instr::DecJump`] fuses the `counter -= 1; jump head` tail that the
//!   `Repeat` lowering emits — two silent ops, one dispatch.
//! * [`Instr::AssignStore`] fuses a silent register assignment into an
//!   immediately following `Store` — the "load-add-store counter bump"
//!   shape once the arithmetic has been folded into the store operand.
//! * [`Instr::Branch`] carries its comparison as two inline operands — the
//!   compare-and-branch loop head costs one dispatch and no tree walk.
//! * [`Instr::Call`] evaluates small-arity argument lists from an inline
//!   operand slice straight into the per-thread register stack.
//!
//! Fusion never crosses a branch target (a jump into the middle of a
//! superinstruction would skip its prefix) and never attaches a silent
//! prefix to an op that can block (a blocked op re-executes on wake, which
//! would re-run a non-idempotent prefix). Blocking ops — `Sync`, `Join`,
//! queue traffic — are always compiled 1:1.

use super::lower::{FlatProgram, Op};
use super::{ClientOp, Cond, Expr, ProcId, RegId, SrcLoc, SyncKind, SyncOp};
use crate::util::Symbol;

/// A flattened operand: the fixed addressing forms the dispatch loop can
/// evaluate without walking a tree. `Slots` is the escape hatch for
/// genuinely nested arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Literal (includes whole subtrees folded at compile time).
    Const(u64),
    /// Current frame's register `r`.
    Reg(u16),
    /// Address of global `g` (resolved through the VM's global table).
    Global(u32),
    /// `regs[r] + c` — the common addressing form (wrapping).
    RegAddConst(u16, u64),
    /// `&global[g] + c` — global with a constant byte offset (wrapping).
    GlobalAddConst(u32, u64),
    /// Postfix eval-slot sequence `pool[base..base+len]`.
    Slots { base: u32, len: u16 },
}

/// One step of a postfix eval-slot sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    Const(u64),
    Reg(u16),
    Global(u32),
    Add,
    Sub,
    Mul,
}

/// Comparison kind of a specialized branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpKind {
    True,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// An operand-specialized comparison.
#[derive(Clone, Copy, Debug)]
pub struct CmpSpec {
    pub kind: CmpKind,
    pub a: Operand,
    pub b: Operand,
}

/// Compiled instruction. Mirrors [`Op`] with operands flattened, sync ops
/// split into direct variants, and the superinstructions described in the
/// module docs.
#[derive(Clone, Debug)]
pub enum Instr {
    Assign {
        dst: RegId,
        value: Operand,
    },
    /// Fused `Assign; Store` (silent prefix + emitting store).
    AssignStore {
        dst: RegId,
        value: Operand,
        addr: Operand,
        stored: Operand,
        size: u8,
        loc: SrcLoc,
    },
    /// Fused `r -= 1; jump target` — the Repeat loop tail.
    DecJump {
        reg: RegId,
        target: u32,
    },
    Jump(u32),
    /// `BranchIfFalse`: fall through when the comparison holds, else jump.
    Branch {
        cmp: CmpSpec,
        target: u32,
    },
    Load {
        dst: RegId,
        addr: Operand,
        size: u8,
        loc: SrcLoc,
    },
    Store {
        addr: Operand,
        value: Operand,
        size: u8,
        loc: SrcLoc,
    },
    AtomicRmw {
        dst: Option<RegId>,
        addr: Operand,
        delta: Operand,
        size: u8,
        loc: SrcLoc,
    },
    Call {
        proc: ProcId,
        args: Box<[Operand]>,
        dst: Option<RegId>,
        loc: SrcLoc,
    },
    Ret {
        value: Option<Operand>,
    },
    Spawn {
        proc: ProcId,
        args: Box<[Operand]>,
        dst: RegId,
        loc: SrcLoc,
    },
    Join {
        handle: Operand,
        loc: SrcLoc,
    },
    NewSync {
        dst: RegId,
        kind: SyncKind,
        init: Operand,
    },
    MutexLock {
        m: Operand,
        loc: SrcLoc,
    },
    MutexUnlock {
        m: Operand,
        loc: SrcLoc,
    },
    RwLockRead {
        m: Operand,
        loc: SrcLoc,
    },
    RwLockWrite {
        m: Operand,
        loc: SrcLoc,
    },
    RwUnlock {
        m: Operand,
        loc: SrcLoc,
    },
    CondWait {
        cond: Operand,
        mutex: Operand,
        loc: SrcLoc,
    },
    CondSignal {
        cond: Operand,
        broadcast: bool,
        loc: SrcLoc,
    },
    SemWait {
        sem: Operand,
        loc: SrcLoc,
    },
    SemPost {
        sem: Operand,
        loc: SrcLoc,
    },
    QueuePut {
        queue: Operand,
        value: Operand,
        loc: SrcLoc,
    },
    QueueGet {
        queue: Operand,
        dst: RegId,
        loc: SrcLoc,
    },
    Alloc {
        dst: RegId,
        size: Operand,
        loc: SrcLoc,
    },
    Free {
        addr: Operand,
        loc: SrcLoc,
    },
    HgDestruct {
        addr: Operand,
        size: Operand,
        loc: SrcLoc,
    },
    HgCleanMemory {
        addr: Operand,
        size: Operand,
        loc: SrcLoc,
    },
    Label {
        sym: Symbol,
        loc: SrcLoc,
    },
    Yield,
    AssertEq {
        a: Operand,
        b: Operand,
        msg: Box<str>,
    },
}

/// A compiled procedure.
#[derive(Clone, Debug)]
pub struct CompiledProc {
    pub name: Symbol,
    pub nparams: u16,
    pub nregs: u16,
    pub code: Vec<Instr>,
    /// Flat pc → compiled pc (both pcs of a fused pair map to the fused
    /// instruction). Kept for disassembly and debugging.
    pub pc_map: Vec<u32>,
}

/// Static compile statistics, surfaced by `--stats` and the disassembler.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileStats {
    /// Flat ops in.
    pub flat_ops: usize,
    /// Compiled instructions out.
    pub instrs: usize,
    /// Superinstructions emitted (each covers two flat ops).
    pub fused: usize,
    /// Operands classified into a fixed form.
    pub operands: usize,
    /// Operands that fell back to an eval-slot sequence.
    pub slot_operands: usize,
}

/// An operand-specialized program, executable by the VM's compiled
/// dispatch loop.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    pub procs: Vec<CompiledProc>,
    /// Shared postfix pool backing every [`Operand::Slots`].
    pub pool: Vec<SlotOp>,
    pub stats: CompileStats,
}

/// Evaluate the whole expression at compile time, if it is constant.
fn const_fold(e: &Expr) -> Option<u64> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Reg(_) | Expr::Global(_) => None,
        Expr::Add(a, b) => Some(const_fold(a)?.wrapping_add(const_fold(b)?)),
        Expr::Sub(a, b) => Some(const_fold(a)?.wrapping_sub(const_fold(b)?)),
        Expr::Mul(a, b) => Some(const_fold(a)?.wrapping_mul(const_fold(b)?)),
    }
}

struct Compiler {
    pool: Vec<SlotOp>,
    stats: CompileStats,
}

impl Compiler {
    /// Classify an expression into a fixed operand form, falling back to a
    /// postfix slot sequence for genuinely nested arithmetic.
    fn operand(&mut self, e: &Expr) -> Operand {
        self.stats.operands += 1;
        if let Some(v) = const_fold(e) {
            return Operand::Const(v);
        }
        match e {
            Expr::Reg(r) => Operand::Reg(r.0),
            Expr::Global(g) => Operand::Global(g.0),
            Expr::Add(a, b) => match (&**a, &**b, const_fold(a), const_fold(b)) {
                (Expr::Reg(r), _, _, Some(c)) | (_, Expr::Reg(r), Some(c), _) => {
                    Operand::RegAddConst(r.0, c)
                }
                (Expr::Global(g), _, _, Some(c)) | (_, Expr::Global(g), Some(c), _) => {
                    Operand::GlobalAddConst(g.0, c)
                }
                _ => self.slots(e),
            },
            Expr::Sub(a, b) => match (&**a, const_fold(b)) {
                (Expr::Reg(r), Some(c)) => Operand::RegAddConst(r.0, c.wrapping_neg()),
                (Expr::Global(g), Some(c)) => Operand::GlobalAddConst(g.0, c.wrapping_neg()),
                _ => self.slots(e),
            },
            _ => self.slots(e),
        }
    }

    fn slots(&mut self, e: &Expr) -> Operand {
        self.stats.slot_operands += 1;
        let base = self.pool.len();
        flatten(e, &mut self.pool);
        let len = self.pool.len() - base;
        assert!(len <= u16::MAX as usize, "eval-slot sequence too long");
        Operand::Slots { base: base as u32, len: len as u16 }
    }

    fn cmp(&mut self, c: &Cond) -> CmpSpec {
        let (kind, a, b) = match c {
            Cond::True => (CmpKind::True, &Expr::Const(0), &Expr::Const(0)),
            Cond::Eq(a, b) => (CmpKind::Eq, a, b),
            Cond::Ne(a, b) => (CmpKind::Ne, a, b),
            Cond::Lt(a, b) => (CmpKind::Lt, a, b),
            Cond::Le(a, b) => (CmpKind::Le, a, b),
            Cond::Gt(a, b) => (CmpKind::Gt, a, b),
            Cond::Ge(a, b) => (CmpKind::Ge, a, b),
        };
        CmpSpec { kind, a: self.operand(a), b: self.operand(b) }
    }

    fn args(&mut self, args: &[Expr]) -> Box<[Operand]> {
        args.iter().map(|a| self.operand(a)).collect()
    }

    /// Translate one flat op 1:1 (no fusion).
    fn single(&mut self, op: &Op) -> Instr {
        match op {
            Op::Assign { dst, value } => Instr::Assign { dst: *dst, value: self.operand(value) },
            Op::Load { dst, addr, size, loc } => {
                Instr::Load { dst: *dst, addr: self.operand(addr), size: *size, loc: *loc }
            }
            Op::Store { addr, value, size, loc } => Instr::Store {
                addr: self.operand(addr),
                value: self.operand(value),
                size: *size,
                loc: *loc,
            },
            Op::AtomicRmw { dst, addr, delta, size, loc } => Instr::AtomicRmw {
                dst: *dst,
                addr: self.operand(addr),
                delta: self.operand(delta),
                size: *size,
                loc: *loc,
            },
            Op::Jump(t) => Instr::Jump(*t),
            Op::BranchIfFalse { cond, target } => {
                Instr::Branch { cmp: self.cmp(cond), target: *target }
            }
            Op::Call { proc, args, dst, loc } => {
                Instr::Call { proc: *proc, args: self.args(args), dst: *dst, loc: *loc }
            }
            Op::Ret { value } => Instr::Ret { value: value.as_ref().map(|v| self.operand(v)) },
            Op::Spawn { proc, args, dst, loc } => {
                Instr::Spawn { proc: *proc, args: self.args(args), dst: *dst, loc: *loc }
            }
            Op::Join { handle, loc } => Instr::Join { handle: self.operand(handle), loc: *loc },
            Op::NewSync { dst, kind, init } => {
                Instr::NewSync { dst: *dst, kind: *kind, init: self.operand(init) }
            }
            Op::Sync { op, loc } => self.sync(op, *loc),
            Op::Alloc { dst, size, loc } => {
                Instr::Alloc { dst: *dst, size: self.operand(size), loc: *loc }
            }
            Op::Free { addr, loc } => Instr::Free { addr: self.operand(addr), loc: *loc },
            Op::Client { req, loc } => match req {
                ClientOp::HgDestruct { addr, size } => Instr::HgDestruct {
                    addr: self.operand(addr),
                    size: self.operand(size),
                    loc: *loc,
                },
                ClientOp::HgCleanMemory { addr, size } => Instr::HgCleanMemory {
                    addr: self.operand(addr),
                    size: self.operand(size),
                    loc: *loc,
                },
                ClientOp::Label(sym) => Instr::Label { sym: *sym, loc: *loc },
            },
            Op::Yield => Instr::Yield,
            Op::AssertEq { a, b, msg } => Instr::AssertEq {
                a: self.operand(a),
                b: self.operand(b),
                msg: msg.clone().into_boxed_str(),
            },
        }
    }

    fn sync(&mut self, op: &SyncOp, loc: SrcLoc) -> Instr {
        match op {
            SyncOp::MutexLock(m) => Instr::MutexLock { m: self.operand(m), loc },
            SyncOp::MutexUnlock(m) => Instr::MutexUnlock { m: self.operand(m), loc },
            SyncOp::RwLockRead(m) => Instr::RwLockRead { m: self.operand(m), loc },
            SyncOp::RwLockWrite(m) => Instr::RwLockWrite { m: self.operand(m), loc },
            SyncOp::RwUnlock(m) => Instr::RwUnlock { m: self.operand(m), loc },
            SyncOp::CondWait { cond, mutex } => {
                Instr::CondWait { cond: self.operand(cond), mutex: self.operand(mutex), loc }
            }
            SyncOp::CondSignal(c) => {
                Instr::CondSignal { cond: self.operand(c), broadcast: false, loc }
            }
            SyncOp::CondBroadcast(c) => {
                Instr::CondSignal { cond: self.operand(c), broadcast: true, loc }
            }
            SyncOp::SemWait(s) => Instr::SemWait { sem: self.operand(s), loc },
            SyncOp::SemPost(s) => Instr::SemPost { sem: self.operand(s), loc },
            SyncOp::QueuePut { queue, value } => {
                Instr::QueuePut { queue: self.operand(queue), value: self.operand(value), loc }
            }
            SyncOp::QueueGet { queue, dst } => {
                Instr::QueueGet { queue: self.operand(queue), dst: *dst, loc }
            }
        }
    }
}

fn flatten(e: &Expr, pool: &mut Vec<SlotOp>) {
    if let Some(v) = const_fold(e) {
        pool.push(SlotOp::Const(v));
        return;
    }
    match e {
        Expr::Const(v) => pool.push(SlotOp::Const(*v)),
        Expr::Reg(r) => pool.push(SlotOp::Reg(r.0)),
        Expr::Global(g) => pool.push(SlotOp::Global(g.0)),
        Expr::Add(a, b) => {
            flatten(a, pool);
            flatten(b, pool);
            pool.push(SlotOp::Add);
        }
        Expr::Sub(a, b) => {
            flatten(a, pool);
            flatten(b, pool);
            pool.push(SlotOp::Sub);
        }
        Expr::Mul(a, b) => {
            flatten(a, pool);
            flatten(b, pool);
            pool.push(SlotOp::Mul);
        }
    }
}

/// `Assign { dst, value: dst - 1 }`?
fn is_dec(dst: RegId, value: &Expr) -> bool {
    matches!(value,
        Expr::Sub(a, b) if **a == Expr::Reg(dst) && matches!(**b, Expr::Const(1)))
}

/// Compile a flat program into operand-specialized bytecode.
pub fn compile(prog: &FlatProgram) -> CompiledProgram {
    let mut c = Compiler { pool: Vec::new(), stats: CompileStats::default() };
    let mut procs = Vec::with_capacity(prog.procs.len());
    for p in &prog.procs {
        let n = p.code.len();
        c.stats.flat_ops += n;
        // Pcs that are jump/branch targets: fusion must not swallow them.
        let mut target = vec![false; n + 1];
        for op in &p.code {
            match op {
                Op::Jump(t) => target[*t as usize] = true,
                Op::BranchIfFalse { target: t, .. } => target[*t as usize] = true,
                _ => {}
            }
        }
        let mut code: Vec<Instr> = Vec::with_capacity(n);
        let mut pc_map = vec![0u32; n + 1];
        let mut i = 0usize;
        while i < n {
            let out = code.len() as u32;
            pc_map[i] = out;
            // Try to fuse a silent Assign into its successor. Safe only
            // when the successor is not a branch target and cannot block.
            if let Op::Assign { dst, value } = &p.code[i] {
                if i + 1 < n && !target[i + 1] {
                    match &p.code[i + 1] {
                        Op::Jump(t) if is_dec(*dst, value) => {
                            code.push(Instr::DecJump { reg: *dst, target: *t });
                            pc_map[i + 1] = out;
                            c.stats.fused += 1;
                            i += 2;
                            continue;
                        }
                        Op::Store { addr, value: stored, size, loc } => {
                            code.push(Instr::AssignStore {
                                dst: *dst,
                                value: c.operand(value),
                                addr: c.operand(addr),
                                stored: c.operand(stored),
                                size: *size,
                                loc: *loc,
                            });
                            pc_map[i + 1] = out;
                            c.stats.fused += 1;
                            i += 2;
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            code.push(c.single(&p.code[i]));
            i += 1;
        }
        pc_map[n] = code.len() as u32;
        // Remap jump targets from flat to compiled pc space.
        for instr in &mut code {
            match instr {
                Instr::Jump(t)
                | Instr::DecJump { target: t, .. }
                | Instr::Branch { target: t, .. } => {
                    *t = pc_map[*t as usize];
                }
                _ => {}
            }
        }
        c.stats.instrs += code.len();
        procs.push(CompiledProc { name: p.name, nparams: p.nparams, nregs: p.nregs, code, pc_map });
    }
    CompiledProgram { procs, pool: c.pool, stats: c.stats }
}

/// Evaluate an operand against a frame's registers and the resolved global
/// address table. `slot_evals` counts fallbacks to the eval-slot path (the
/// `--stats` "how often did specialization miss" counter); a [`Cell`] so the
/// hot loop can thread it through shared borrows.
#[inline]
pub fn eval_operand(
    op: &Operand,
    regs: &[u64],
    globals: &[u64],
    pool: &[SlotOp],
    slot_evals: &std::cell::Cell<u64>,
) -> u64 {
    match op {
        Operand::Const(v) => *v,
        Operand::Reg(r) => regs[*r as usize],
        Operand::Global(g) => globals[*g as usize],
        Operand::RegAddConst(r, c) => regs[*r as usize].wrapping_add(*c),
        Operand::GlobalAddConst(g, c) => globals[*g as usize].wrapping_add(*c),
        Operand::Slots { base, len } => {
            slot_evals.set(slot_evals.get() + 1);
            eval_slots(&pool[*base as usize..*base as usize + *len as usize], regs, globals)
        }
    }
}

/// Evaluate a specialized comparison ([`Instr::Branch`] falls through when
/// this returns true, mirroring `BranchIfFalse`).
#[inline]
pub fn eval_cmp(
    cmp: &CmpSpec,
    regs: &[u64],
    globals: &[u64],
    pool: &[SlotOp],
    slot_evals: &std::cell::Cell<u64>,
) -> bool {
    if matches!(cmp.kind, CmpKind::True) {
        return true;
    }
    let a = eval_operand(&cmp.a, regs, globals, pool, slot_evals);
    let b = eval_operand(&cmp.b, regs, globals, pool, slot_evals);
    match cmp.kind {
        CmpKind::True => true,
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
        CmpKind::Lt => a < b,
        CmpKind::Le => a <= b,
        CmpKind::Gt => a > b,
        CmpKind::Ge => a >= b,
    }
}

/// Evaluate a postfix eval-slot sequence. The value stack never exceeds
/// the sequence length, so short sequences run on an inline array.
pub fn eval_slots(code: &[SlotOp], regs: &[u64], globals: &[u64]) -> u64 {
    if code.len() <= 64 {
        let mut stack = [0u64; 64];
        eval_slots_on(code, regs, globals, &mut stack)
    } else {
        let mut stack = vec![0u64; code.len()];
        eval_slots_on(code, regs, globals, &mut stack)
    }
}

fn eval_slots_on(code: &[SlotOp], regs: &[u64], globals: &[u64], stack: &mut [u64]) -> u64 {
    let mut sp = 0usize;
    for op in code {
        match op {
            SlotOp::Const(v) => {
                stack[sp] = *v;
                sp += 1;
            }
            SlotOp::Reg(r) => {
                stack[sp] = regs[*r as usize];
                sp += 1;
            }
            SlotOp::Global(g) => {
                stack[sp] = globals[*g as usize];
                sp += 1;
            }
            SlotOp::Add => {
                sp -= 1;
                stack[sp - 1] = stack[sp - 1].wrapping_add(stack[sp]);
            }
            SlotOp::Sub => {
                sp -= 1;
                stack[sp - 1] = stack[sp - 1].wrapping_sub(stack[sp]);
            }
            SlotOp::Mul => {
                sp -= 1;
                stack[sp - 1] = stack[sp - 1].wrapping_mul(stack[sp]);
            }
        }
    }
    debug_assert_eq!(sp, 1, "malformed eval-slot sequence");
    stack[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::{ProcBuilder, ProgramBuilder};
    use crate::ir::GlobalId;

    fn compile_single(m: ProcBuilder) -> CompiledProgram {
        let mut pb = ProgramBuilder::new();
        let id = pb.add_proc("main", m);
        pb.set_entry(id);
        compile(&pb.finish().lower())
    }

    #[test]
    fn operand_classification_covers_the_lattice() {
        let mut c = Compiler { pool: Vec::new(), stats: CompileStats::default() };
        assert_eq!(c.operand(&Expr::Const(7)), Operand::Const(7));
        assert_eq!(c.operand(&Expr::Reg(RegId(3))), Operand::Reg(3));
        assert_eq!(c.operand(&Expr::Global(GlobalId(2))), Operand::Global(2));
        assert_eq!(c.operand(&Expr::offset(RegId(1), 8)), Operand::RegAddConst(1, 8));
        assert_eq!(c.operand(&Expr::Const(8).add(Expr::Reg(RegId(1)))), Operand::RegAddConst(1, 8));
        assert_eq!(
            c.operand(&Expr::Global(GlobalId(0)).add(Expr::Const(16))),
            Operand::GlobalAddConst(0, 16)
        );
        // Subtraction of a constant folds to a wrapping add.
        assert_eq!(
            c.operand(&Expr::Reg(RegId(2)).sub(Expr::Const(4))),
            Operand::RegAddConst(2, 4u64.wrapping_neg())
        );
        // Whole-constant trees fold.
        assert_eq!(c.operand(&Expr::Const(3).mul(Expr::Const(5))), Operand::Const(15));
        // Nested arithmetic falls back to slots.
        let nested = Expr::Reg(RegId(0)).add(Expr::Reg(RegId(1)).mul(Expr::Const(8)));
        match c.operand(&nested) {
            Operand::Slots { len, .. } => assert!(len >= 4),
            other => panic!("expected slots, got {other:?}"),
        }
        assert_eq!(c.stats.slot_operands, 1);
    }

    #[test]
    fn slot_sequences_evaluate_like_the_tree() {
        let mut c = Compiler { pool: Vec::new(), stats: CompileStats::default() };
        let e = Expr::Reg(RegId(0))
            .add(Expr::Reg(RegId(1)).mul(Expr::Const(8)))
            .sub(Expr::Global(GlobalId(0)));
        let op = c.operand(&e);
        let regs = [100u64, 3];
        let globals = [40u64];
        let Operand::Slots { base, len } = op else { panic!("expected slots") };
        let got = eval_slots(&c.pool[base as usize..base as usize + len as usize], &regs, &globals);
        assert_eq!(got, e.eval(&regs, &globals));
        assert_eq!(got, 100 + 3 * 8 - 40);
    }

    #[test]
    fn repeat_tail_fuses_into_dec_jump() {
        let mut m = ProcBuilder::new(0);
        m.begin_repeat(5u64);
        m.yield_();
        m.end_repeat();
        let cp = compile_single(m);
        // flat: assign counter, branch, yield, dec, jump, ret
        // compiled: assign, branch, yield, decjump, ret
        let code = &cp.procs[0].code;
        assert_eq!(code.len(), 5);
        match &code[3] {
            Instr::DecJump { target, .. } => assert_eq!(*target, 1, "jump remapped to branch pc"),
            other => panic!("expected DecJump, got {other:?}"),
        }
        match &code[1] {
            Instr::Branch { cmp, target } => {
                assert_eq!(cmp.kind, CmpKind::Gt);
                assert_eq!(*target, 4, "exit target remapped past the fused pair");
            }
            other => panic!("expected Branch, got {other:?}"),
        }
        assert_eq!(cp.stats.fused, 1);
    }

    #[test]
    fn assign_store_fuses() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("g", 8);
        let loc = pb.loc("a.cpp", 1, "main");
        let mut m = ProcBuilder::new(0);
        m.at(loc);
        let r = m.reg();
        m.assign(r, 41u64);
        m.store(g, Expr::Reg(r), 8);
        let id = pb.add_proc("main", m);
        pb.set_entry(id);
        let cp = compile(&pb.finish().lower());
        let code = &cp.procs[0].code;
        assert_eq!(code.len(), 2); // AssignStore, Ret
        assert!(matches!(code[0], Instr::AssignStore { .. }));
        assert_eq!(cp.stats.fused, 1);
    }

    #[test]
    fn fusion_never_crosses_a_branch_target() {
        // while r0 < 3 { r0 = r0 + 1 } — the loop tail is Assign;Jump but
        // NOT a dec, so no DecJump; and a jump target lands on the Assign
        // itself in a `loop { assign; store }` shape.
        let mut m = ProcBuilder::new(0);
        let r = m.reg();
        m.begin_while(Cond::Lt(Expr::Reg(r), Expr::Const(3)));
        m.assign(r, Expr::Reg(r).add(Expr::Const(1)));
        m.end_while();
        let cp = compile_single(m);
        // flat: branch, assign, jump, ret — assign+jump is not a dec pair,
        // so everything compiles 1:1.
        assert_eq!(cp.procs[0].code.len(), 4);
        assert_eq!(cp.stats.fused, 0);

        // A store that is itself a branch target must not be swallowed by
        // the preceding assign.
        let mut pb = ProgramBuilder::new();
        let g = pb.global("g", 8);
        let loc = pb.loc("a.cpp", 2, "main");
        let mut m = ProcBuilder::new(0);
        m.at(loc);
        let r = m.reg();
        m.assign(r, 2u64);
        m.begin_while(Cond::Gt(Expr::Reg(r), Expr::Const(0)));
        // Loop body starts with a Store: the while-head branch targets the
        // op *after* the body's end — the branch back targets the head.
        m.store(g, Expr::Reg(r), 8);
        m.assign(r, Expr::Reg(r).sub(Expr::Const(1)));
        m.end_while();
        let id = pb.add_proc("main", m);
        pb.set_entry(id);
        let flat = pb.finish().lower();
        let cp = compile(&flat);
        // flat: assign r=2, branch, store, dec, jump(head=1), ret.
        // assign r=2 is followed by the branch — not fusable. dec+jump
        // fuses. The store at pc 2 is reachable only by fallthrough.
        let code = &cp.procs[0].code;
        assert!(matches!(code[3], Instr::DecJump { .. }), "{code:?}");
    }

    #[test]
    fn pc_map_is_monotone_and_dense() {
        let mut m = ProcBuilder::new(0);
        m.begin_repeat(3u64);
        m.yield_();
        m.end_repeat();
        let cp = compile_single(m);
        let pm = &cp.procs[0].pc_map;
        for w in pm.windows(2) {
            assert!(w[0] <= w[1], "pc_map must be monotone: {pm:?}");
        }
        assert_eq!(*pm.last().unwrap() as usize, cp.procs[0].code.len());
    }
}
