//! The lowering pass from the ALang AST to the register bytecode.
//!
//! Lowering does once, ahead of execution, everything the tree-walking
//! interpreter redoes per line execution: variable names resolve to dense
//! slot indices, builtin names resolve to [`KernelId`]s (an unknown function
//! is a lower-time error, like a failed Cython compile), per-line input
//! slot lists are deduplicated and cached, and the `scan`-exempt
//! library-boundary copy charge becomes a precomputed flag on each call
//! instruction. Instructions are emitted in post-order, so the VM charges
//! costs in exactly the sequence the interpreter's tree walk would.

use crate::ast::{Expr, Line, Program};
use crate::builtins::{kernel_id, KernelId};
use crate::bytecode::{Instr, LineMeta, LoweredProgram};
use crate::error::{LangError, Result};
use crate::value::Value;
use std::collections::BTreeMap;

/// Lowers a program with copy elimination disabled on every line.
///
/// # Errors
///
/// Returns [`LangError::UnknownFunction`] if any call site references an
/// unregistered builtin, or an internal limit error for programs exceeding
/// the 16-bit slot space.
pub fn lower(program: &Program) -> Result<LoweredProgram> {
    lower_with(program, &[])
}

/// Lowers a program, baking one copy-elimination flag per line (missing
/// entries default to `false`, as in [`crate::interp::Interpreter::run`]).
///
/// # Errors
///
/// Returns [`LangError::UnknownFunction`] if any call site references an
/// unregistered builtin, or an internal limit error for programs exceeding
/// the 16-bit slot space.
pub fn lower_with(program: &Program, copy_elim: &[bool]) -> Result<LoweredProgram> {
    let mut lo = Lowerer::default();
    // Register every variable up front: inputs first (name order within a
    // line), then the target, line by line. Variables that are read but
    // never defined still get a slot; reading it stays a runtime error,
    // matching the interpreter.
    for line in program.lines() {
        for (name, _) in line.inputs() {
            lo.slot_for(name)?;
        }
        lo.slot_for(&line.target)?;
    }
    lo.n_vars = lo.next_slot;
    lo.max_slots = lo.next_slot;

    for line in program.lines() {
        lo.lower_line(line)?;
    }

    let mut slot_names: Vec<String> = vec![String::new(); usize::from(lo.max_slots)];
    for (name, slot) in &lo.name_to_slot {
        slot_names[usize::from(*slot)] = name.clone();
    }
    for (i, name) in slot_names
        .iter_mut()
        .enumerate()
        .skip(usize::from(lo.n_vars))
    {
        *name = format!("%t{}", i - usize::from(lo.n_vars));
    }
    let flags = (0..program.len())
        .map(|i| copy_elim.get(i).copied().unwrap_or(false))
        .collect();

    Ok(LoweredProgram {
        consts: lo.consts,
        instrs: lo.instrs,
        arg_pool: lo.arg_pool,
        metas: lo.metas,
        slot_names,
        name_to_slot: lo.name_to_slot,
        n_vars: lo.n_vars,
        n_slots: lo.max_slots,
        copy_elim: flags,
    })
}

#[derive(Default)]
struct Lowerer {
    consts: Vec<Value>,
    instrs: Vec<Instr>,
    arg_pool: Vec<u16>,
    metas: Vec<LineMeta>,
    name_to_slot: BTreeMap<String, u16>,
    next_slot: u16,
    n_vars: u16,
    temp_top: u16,
    max_slots: u16,
}

impl Lowerer {
    fn slot_for(&mut self, name: &str) -> Result<u16> {
        if let Some(&slot) = self.name_to_slot.get(name) {
            return Ok(slot);
        }
        let slot = self.next_slot;
        self.next_slot = bump(self.next_slot)?;
        self.name_to_slot.insert(name.to_owned(), slot);
        Ok(slot)
    }

    fn push_temp(&mut self) -> Result<u16> {
        let slot = self
            .n_vars
            .checked_add(self.temp_top)
            .ok_or_else(slot_overflow)?;
        self.temp_top = bump(self.temp_top)?;
        self.max_slots = self.max_slots.max(bump(slot)?);
        Ok(slot)
    }

    fn intern_const(&mut self, v: Value) -> Result<u16> {
        if let Some(i) = self.consts.iter().position(|c| *c == v) {
            return u16::try_from(i).map_err(|_| slot_overflow());
        }
        self.consts.push(v);
        u16::try_from(self.consts.len() - 1).map_err(|_| slot_overflow())
    }

    fn lower_line(&mut self, line: &Line) -> Result<()> {
        self.temp_top = 0;
        let target_slot = self.name_to_slot[&line.target];
        let input_slots: Vec<u16> = line
            .inputs()
            .map(|(name, _)| self.name_to_slot[name])
            .collect();
        let instr_start = self.instrs.len() as u32;
        self.lower_into(&line.expr, target_slot, line.index)?;
        self.metas.push(LineMeta {
            index: line.index,
            target: line.target.clone(),
            target_slot,
            input_slots,
            instr_start,
            instr_end: self.instrs.len() as u32,
        });
        Ok(())
    }

    /// Lowers a root expression so its result lands in `dst` (the target
    /// slot). Operand reads all happen before the root write, so a line may
    /// read the variable it redefines.
    fn lower_into(&mut self, expr: &Expr, dst: u16, line_no: usize) -> Result<()> {
        match expr {
            Expr::Num(n) => {
                let idx = self.intern_const(Value::Num(*n))?;
                self.instrs.push(Instr::Const { dst, idx });
            }
            Expr::Str(s) => {
                let idx = self.intern_const(Value::Str(s.clone()))?;
                self.instrs.push(Instr::Const { dst, idx });
            }
            Expr::Ident(name) => {
                let src = self.name_to_slot[name];
                self.instrs.push(Instr::Copy { dst, src });
            }
            Expr::Unary { op, expr } => {
                let src = self.lower_operand(expr, line_no)?;
                self.instrs.push(Instr::Unary { dst, op: *op, src });
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.lower_operand(lhs, line_no)?;
                let r = self.lower_operand(rhs, line_no)?;
                self.instrs.push(Instr::Binary {
                    dst,
                    op: *op,
                    lhs: l,
                    rhs: r,
                });
            }
            Expr::Call { name, args } => self.lower_call(name, args, dst, line_no)?,
        }
        Ok(())
    }

    /// Lowers a sub-expression, returning the slot holding its result:
    /// identifiers resolve to their variable slot (guarded, no copy);
    /// everything else lands in a stack-disciplined temp slot.
    fn lower_operand(&mut self, expr: &Expr, line_no: usize) -> Result<u16> {
        match expr {
            Expr::Num(n) => {
                let idx = self.intern_const(Value::Num(*n))?;
                let dst = self.push_temp()?;
                self.instrs.push(Instr::Const { dst, idx });
                Ok(dst)
            }
            Expr::Str(s) => {
                let idx = self.intern_const(Value::Str(s.clone()))?;
                let dst = self.push_temp()?;
                self.instrs.push(Instr::Const { dst, idx });
                Ok(dst)
            }
            Expr::Ident(name) => {
                let slot = self.name_to_slot[name];
                self.instrs.push(Instr::Guard { slot });
                Ok(slot)
            }
            Expr::Unary { op, expr } => {
                let saved = self.temp_top;
                let src = self.lower_operand(expr, line_no)?;
                self.temp_top = saved;
                let dst = self.push_temp()?;
                self.instrs.push(Instr::Unary { dst, op: *op, src });
                Ok(dst)
            }
            Expr::Binary { op, lhs, rhs } => {
                let saved = self.temp_top;
                let l = self.lower_operand(lhs, line_no)?;
                let r = self.lower_operand(rhs, line_no)?;
                self.temp_top = saved;
                let dst = self.push_temp()?;
                self.instrs.push(Instr::Binary {
                    dst,
                    op: *op,
                    lhs: l,
                    rhs: r,
                });
                Ok(dst)
            }
            Expr::Call { name, args } => {
                let saved = self.temp_top;
                let pending = self.lower_call_operands(name, args, line_no)?;
                self.temp_top = saved;
                let dst = self.push_temp()?;
                self.emit_call(pending, dst);
                Ok(dst)
            }
        }
    }

    fn lower_call(&mut self, name: &str, args: &[Expr], dst: u16, line_no: usize) -> Result<()> {
        let pending = self.lower_call_operands(name, args, line_no)?;
        self.emit_call(pending, dst);
        Ok(())
    }

    /// Resolves the kernel (before lowering any argument, mirroring the
    /// interpreter's builtin check before argument evaluation) and lowers
    /// the arguments into the argument pool.
    fn lower_call_operands(
        &mut self,
        name: &str,
        args: &[Expr],
        line_no: usize,
    ) -> Result<PendingCall> {
        let kernel = kernel_id(name).ok_or_else(|| LangError::UnknownFunction {
            line: line_no + 1,
            name: name.to_owned(),
        })?;
        let mut slots = Vec::with_capacity(args.len());
        for a in args {
            slots.push(self.lower_operand(a, line_no)?);
        }
        let args_start = self.arg_pool.len() as u32;
        let args_len = u16::try_from(slots.len()).map_err(|_| slot_overflow())?;
        self.arg_pool.extend(slots);
        Ok(PendingCall {
            kernel,
            args_start,
            args_len,
            charge_copy: kernel.charges_copy(),
        })
    }

    fn emit_call(&mut self, pending: PendingCall, dst: u16) {
        self.instrs.push(Instr::Call {
            dst,
            kernel: pending.kernel,
            args_start: pending.args_start,
            args_len: pending.args_len,
            charge_copy: pending.charge_copy,
        });
    }
}

struct PendingCall {
    kernel: KernelId,
    args_start: u32,
    args_len: u16,
    charge_copy: bool,
}

fn bump(v: u16) -> Result<u16> {
    v.checked_add(1).ok_or_else(slot_overflow)
}

fn slot_overflow() -> LangError {
    LangError::runtime("lowering: program exceeds the 16-bit slot space")
}
