//! Human-readable disassembly of lowered guest programs — the equivalent
//! of inspecting Valgrind's translated intermediate code. Used by the
//! `raceline` CLI's `--emit-ir` and handy when debugging builders.

use super::compile::{CmpKind, CmpSpec, CompiledProc, CompiledProgram, Instr, Operand, SlotOp};
use super::lower::{FlatProc, FlatProgram, Op};
use super::{ClientOp, Cond, Expr, SyncOp};
use crate::util::Interner;

fn expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Const(v) => out.push_str(&format!("{v:#x}")),
        Expr::Reg(r) => out.push_str(&format!("r{}", r.0)),
        Expr::Global(g) => out.push_str(&format!("@g{}", g.0)),
        Expr::Add(a, b) => {
            out.push('(');
            expr(a, out);
            out.push_str(" + ");
            expr(b, out);
            out.push(')');
        }
        Expr::Sub(a, b) => {
            out.push('(');
            expr(a, out);
            out.push_str(" - ");
            expr(b, out);
            out.push(')');
        }
        Expr::Mul(a, b) => {
            out.push('(');
            expr(a, out);
            out.push_str(" * ");
            expr(b, out);
            out.push(')');
        }
    }
}

fn estr(e: &Expr) -> String {
    let mut s = String::new();
    expr(e, &mut s);
    s
}

fn cond(c: &Cond) -> String {
    match c {
        Cond::True => "true".to_string(),
        Cond::Eq(a, b) => format!("{} == {}", estr(a), estr(b)),
        Cond::Ne(a, b) => format!("{} != {}", estr(a), estr(b)),
        Cond::Lt(a, b) => format!("{} < {}", estr(a), estr(b)),
        Cond::Le(a, b) => format!("{} <= {}", estr(a), estr(b)),
        Cond::Gt(a, b) => format!("{} > {}", estr(a), estr(b)),
        Cond::Ge(a, b) => format!("{} >= {}", estr(a), estr(b)),
    }
}

fn sync_op(op: &SyncOp) -> String {
    match op {
        SyncOp::MutexLock(m) => format!("mutex.lock {}", estr(m)),
        SyncOp::MutexUnlock(m) => format!("mutex.unlock {}", estr(m)),
        SyncOp::RwLockRead(m) => format!("rwlock.rdlock {}", estr(m)),
        SyncOp::RwLockWrite(m) => format!("rwlock.wrlock {}", estr(m)),
        SyncOp::RwUnlock(m) => format!("rwlock.unlock {}", estr(m)),
        SyncOp::CondWait { cond, mutex } => {
            format!("cond.wait {}, {}", estr(cond), estr(mutex))
        }
        SyncOp::CondSignal(c) => format!("cond.signal {}", estr(c)),
        SyncOp::CondBroadcast(c) => format!("cond.broadcast {}", estr(c)),
        SyncOp::SemWait(s) => format!("sem.wait {}", estr(s)),
        SyncOp::SemPost(s) => format!("sem.post {}", estr(s)),
        SyncOp::QueuePut { queue, value } => {
            format!("queue.put {}, {}", estr(queue), estr(value))
        }
        SyncOp::QueueGet { queue, dst } => format!("r{} = queue.get {}", dst.0, estr(queue)),
    }
}

fn disasm_op(op: &Op, interner: &Interner) -> String {
    match op {
        Op::Assign { dst, value } => format!("r{} = {}", dst.0, estr(value)),
        Op::Load { dst, addr, size, loc } => {
            format!("r{} = load{}  [{}]    ; {}", dst.0, size, estr(addr), loc.display(interner))
        }
        Op::Store { addr, value, size, loc } => format!(
            "store{} [{}], {}    ; {}",
            size,
            estr(addr),
            estr(value),
            loc.display(interner)
        ),
        Op::AtomicRmw { dst, addr, delta, size, loc } => {
            let d = dst.map(|r| format!("r{} = ", r.0)).unwrap_or_default();
            format!(
                "{d}lock xadd{} [{}], {}    ; {}",
                size,
                estr(addr),
                estr(delta),
                loc.display(interner)
            )
        }
        Op::Jump(t) => format!("jmp {t}"),
        Op::BranchIfFalse { cond: c, target } => {
            format!("br.false ({}) -> {}", cond(c), target)
        }
        Op::Call { proc, args, dst, .. } => {
            let d = dst.map(|r| format!("r{} = ", r.0)).unwrap_or_default();
            let a: Vec<String> = args.iter().map(estr).collect();
            format!("{d}call p{}({})", proc.0, a.join(", "))
        }
        Op::Ret { value } => match value {
            Some(v) => format!("ret {}", estr(v)),
            None => "ret".to_string(),
        },
        Op::Spawn { proc, args, dst, .. } => {
            let a: Vec<String> = args.iter().map(estr).collect();
            format!("r{} = spawn p{}({})", dst.0, proc.0, a.join(", "))
        }
        Op::Join { handle, .. } => format!("join {}", estr(handle)),
        Op::NewSync { dst, kind, init } => {
            format!("r{} = new.{} (init {})", dst.0, kind.name(), estr(init))
        }
        Op::Sync { op, .. } => sync_op(op),
        Op::Alloc { dst, size, .. } => format!("r{} = alloc {}", dst.0, estr(size)),
        Op::Free { addr, .. } => format!("free {}", estr(addr)),
        Op::Client { req, .. } => match req {
            ClientOp::HgDestruct { addr, size } => {
                format!("client HG_DESTRUCT({}, {})", estr(addr), estr(size))
            }
            ClientOp::HgCleanMemory { addr, size } => {
                format!("client HG_CLEAN_MEMORY({}, {})", estr(addr), estr(size))
            }
            ClientOp::Label(sym) => format!("client LABEL({})", interner.resolve(*sym)),
        },
        Op::Yield => "yield".to_string(),
        Op::AssertEq { a, b, msg } => {
            format!("assert {} == {}  ; {:?}", estr(a), estr(b), msg)
        }
    }
}

fn disasm_proc(idx: usize, p: &FlatProc, interner: &Interner) -> String {
    let mut out = format!(
        "proc p{idx} {} (params: {}, regs: {}):\n",
        interner.resolve(p.name),
        p.nparams,
        p.nregs
    );
    for (pc, op) in p.code.iter().enumerate() {
        out.push_str(&format!("  {pc:4}: {}\n", disasm_op(op, interner)));
    }
    out
}

fn operand(op: &Operand, pool: &[SlotOp]) -> String {
    match op {
        Operand::Const(v) => format!("{v:#x}"),
        Operand::Reg(r) => format!("r{r}"),
        Operand::Global(g) => format!("@g{g}"),
        Operand::RegAddConst(r, c) => format!("r{r}+{c:#x}"),
        Operand::GlobalAddConst(g, c) => format!("@g{g}+{c:#x}"),
        Operand::Slots { base, len } => {
            let seq: Vec<String> = pool[*base as usize..(*base + *len as u32) as usize]
                .iter()
                .map(|s| match s {
                    SlotOp::Const(v) => format!("{v:#x}"),
                    SlotOp::Reg(r) => format!("r{r}"),
                    SlotOp::Global(g) => format!("@g{g}"),
                    SlotOp::Add => "+".to_string(),
                    SlotOp::Sub => "-".to_string(),
                    SlotOp::Mul => "*".to_string(),
                })
                .collect();
            format!("slots[{}]", seq.join(" "))
        }
    }
}

fn cmp_spec(c: &CmpSpec, pool: &[SlotOp]) -> String {
    let op = match c.kind {
        CmpKind::True => return "true".to_string(),
        CmpKind::Eq => "==",
        CmpKind::Ne => "!=",
        CmpKind::Lt => "<",
        CmpKind::Le => "<=",
        CmpKind::Gt => ">",
        CmpKind::Ge => ">=",
    };
    format!("{} {op} {}", operand(&c.a, pool), operand(&c.b, pool))
}

fn disasm_instr(instr: &Instr, pool: &[SlotOp], interner: &Interner) -> String {
    let o = |op: &Operand| operand(op, pool);
    match instr {
        Instr::Assign { dst, value } => format!("r{} = {}", dst.0, o(value)),
        Instr::AssignStore { dst, value, addr, stored, size, loc } => format!(
            "r{} = {} ; store{} [{}], {}    ; fused ; {}",
            dst.0,
            o(value),
            size,
            o(addr),
            o(stored),
            loc.display(interner)
        ),
        Instr::DecJump { reg, target } => format!("r{} -= 1 ; jmp {target}    ; fused", reg.0),
        Instr::Jump(t) => format!("jmp {t}"),
        Instr::Branch { cmp, target } => {
            format!("br.false ({}) -> {}", cmp_spec(cmp, pool), target)
        }
        Instr::Load { dst, addr, size, loc } => {
            format!("r{} = load{}  [{}]    ; {}", dst.0, size, o(addr), loc.display(interner))
        }
        Instr::Store { addr, value, size, loc } => {
            format!("store{} [{}], {}    ; {}", size, o(addr), o(value), loc.display(interner))
        }
        Instr::AtomicRmw { dst, addr, delta, size, loc } => {
            let d = dst.map(|r| format!("r{} = ", r.0)).unwrap_or_default();
            format!(
                "{d}lock xadd{} [{}], {}    ; {}",
                size,
                o(addr),
                o(delta),
                loc.display(interner)
            )
        }
        Instr::Call { proc, args, dst, .. } => {
            let d = dst.map(|r| format!("r{} = ", r.0)).unwrap_or_default();
            let a: Vec<String> = args.iter().map(o).collect();
            format!("{d}call p{}({})", proc.0, a.join(", "))
        }
        Instr::Ret { value } => match value {
            Some(v) => format!("ret {}", o(v)),
            None => "ret".to_string(),
        },
        Instr::Spawn { proc, args, dst, .. } => {
            let a: Vec<String> = args.iter().map(o).collect();
            format!("r{} = spawn p{}({})", dst.0, proc.0, a.join(", "))
        }
        Instr::Join { handle, .. } => format!("join {}", o(handle)),
        Instr::NewSync { dst, kind, init } => {
            format!("r{} = new.{} (init {})", dst.0, kind.name(), o(init))
        }
        Instr::MutexLock { m, .. } => format!("mutex.lock {}", o(m)),
        Instr::MutexUnlock { m, .. } => format!("mutex.unlock {}", o(m)),
        Instr::RwLockRead { m, .. } => format!("rwlock.rdlock {}", o(m)),
        Instr::RwLockWrite { m, .. } => format!("rwlock.wrlock {}", o(m)),
        Instr::RwUnlock { m, .. } => format!("rwlock.unlock {}", o(m)),
        Instr::CondWait { cond, mutex, .. } => format!("cond.wait {}, {}", o(cond), o(mutex)),
        Instr::CondSignal { cond, broadcast: false, .. } => format!("cond.signal {}", o(cond)),
        Instr::CondSignal { cond, broadcast: true, .. } => format!("cond.broadcast {}", o(cond)),
        Instr::SemWait { sem, .. } => format!("sem.wait {}", o(sem)),
        Instr::SemPost { sem, .. } => format!("sem.post {}", o(sem)),
        Instr::QueuePut { queue, value, .. } => format!("queue.put {}, {}", o(queue), o(value)),
        Instr::QueueGet { queue, dst, .. } => format!("r{} = queue.get {}", dst.0, o(queue)),
        Instr::Alloc { dst, size, .. } => format!("r{} = alloc {}", dst.0, o(size)),
        Instr::Free { addr, .. } => format!("free {}", o(addr)),
        Instr::HgDestruct { addr, size, .. } => {
            format!("client HG_DESTRUCT({}, {})", o(addr), o(size))
        }
        Instr::HgCleanMemory { addr, size, .. } => {
            format!("client HG_CLEAN_MEMORY({}, {})", o(addr), o(size))
        }
        Instr::Label { sym, .. } => format!("client LABEL({})", interner.resolve(*sym)),
        Instr::Yield => "yield".to_string(),
        Instr::AssertEq { a, b, msg } => {
            format!("assert {} == {}  ; {:?}", o(a), o(b), msg)
        }
    }
}

fn disasm_compiled_proc(
    idx: usize,
    p: &CompiledProc,
    pool: &[SlotOp],
    interner: &Interner,
) -> String {
    let mut out = format!(
        "proc p{idx} {} (params: {}, regs: {}):\n",
        interner.resolve(p.name),
        p.nparams,
        p.nregs
    );
    for (pc, instr) in p.code.iter().enumerate() {
        out.push_str(&format!("  {pc:4}: {}\n", disasm_instr(instr, pool, interner)));
    }
    out
}

/// Disassemble the operand-specialized bytecode of a compiled program
/// (`--emit-bytecode` in the CLI). The flat program supplies the interner
/// and global names; the compiled program supplies the code.
pub fn disassemble_compiled(prog: &FlatProgram, comp: &CompiledProgram) -> String {
    let mut out = String::new();
    for (i, g) in prog.globals.iter().enumerate() {
        out.push_str(&format!(
            "global @g{i} {} ({} bytes)\n",
            prog.interner.resolve(g.name),
            g.size
        ));
    }
    out.push_str(&format!("entry: p{}\n", prog.entry.0));
    let s = &comp.stats;
    out.push_str(&format!(
        "; compile: {} flat ops -> {} instrs, {} fused, {}/{} operands via slots\n\n",
        s.flat_ops, s.instrs, s.fused, s.slot_operands, s.operands
    ));
    for (i, p) in comp.procs.iter().enumerate() {
        out.push_str(&disasm_compiled_proc(i, p, &comp.pool, &prog.interner));
        out.push('\n');
    }
    out
}

/// Disassemble a whole program.
pub fn disassemble(prog: &FlatProgram) -> String {
    let mut out = String::new();
    for (i, g) in prog.globals.iter().enumerate() {
        out.push_str(&format!(
            "global @g{i} {} ({} bytes)\n",
            prog.interner.resolve(g.name),
            g.size
        ));
    }
    out.push_str(&format!("entry: p{}\n\n", prog.entry.0));
    for (i, p) in prog.procs.iter().enumerate() {
        out.push_str(&disasm_proc(i, p, &prog.interner));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::{ProcBuilder, ProgramBuilder};
    use crate::ir::{Cond as ICond, Expr as IExpr, SyncKind, SyncOp as ISyncOp};

    fn demo_program() -> FlatProgram {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("counter", 8);
        let loc = pb.loc("demo.cpp", 3, "worker");
        let mut w = ProcBuilder::new(1);
        w.at(loc);
        let m = w.param(0);
        w.lock(IExpr::Reg(m));
        let v = w.load_new(g, 8);
        w.begin_if(ICond::Lt(IExpr::Reg(v), IExpr::Const(10)));
        w.store(g, IExpr::Reg(v).add(1u64.into()), 8);
        w.end_if();
        w.unlock(IExpr::Reg(m));
        w.atomic_rmw(None, g, 1u64, 8);
        let worker = pb.add_proc("worker", w);
        let mut main = ProcBuilder::new(0);
        main.at(pb.loc("demo.cpp", 10, "main"));
        let mx = main.new_mutex();
        let q = main.new_sync(SyncKind::Queue, 4u64);
        main.sync(ISyncOp::QueuePut { queue: IExpr::Reg(q), value: IExpr::Const(1) });
        let h = main.spawn(worker, vec![IExpr::Reg(mx)]);
        main.join(h);
        let p = main.alloc(32u64);
        main.hg_destruct(p, 32u64);
        main.free(p);
        let main_id = pb.add_proc("main", main);
        pb.set_entry(main_id);
        pb.finish().lower()
    }

    #[test]
    fn disassembly_mentions_every_construct() {
        let text = disassemble(&demo_program());
        for needle in [
            "global @g0 counter (8 bytes)",
            "entry: p1",
            "proc p0 worker",
            "mutex.lock r0",
            "load8",
            "br.false",
            "store8",
            "lock xadd8",
            "new.mutex",
            "new.queue",
            "queue.put",
            "spawn p0",
            "join",
            "alloc",
            "client HG_DESTRUCT",
            "free",
            "demo.cpp:3 (worker)",
            "ret",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn compiled_disassembly_shows_specialized_operands_and_fusion() {
        let prog = demo_program();
        let comp = crate::ir::compile::compile(&prog);
        let text = disassemble_compiled(&prog, &comp);
        for needle in ["; compile:", "mutex.lock r0", "spawn p0", "@g0"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn pc_numbering_is_dense() {
        let prog = demo_program();
        let text = disassemble(&prog);
        // Every op of the worker appears with its pc.
        let worker_ops = prog.procs[0].code.len();
        for pc in 0..worker_ops {
            assert!(text.contains(&format!("{pc:4}: ")), "missing pc {pc}");
        }
    }
}
