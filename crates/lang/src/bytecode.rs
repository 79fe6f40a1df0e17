//! The slot-resolved register bytecode the lowering pass targets.
//!
//! This is the reproduction's honest analog of the paper's Cython tier
//! (§III-C): every variable name is resolved to a dense slot index at lower
//! time, per-line input/output slot lists and copy-elimination flags are
//! precomputed, and builtin calls dispatch through [`KernelId`] function
//! pointers instead of re-matching on name strings. The [`Vm`] executes the
//! flat instruction stream and produces [`LineCost`] records byte-identical
//! to the AST-walking [`crate::interp::Interpreter`], which remains the
//! reference implementation behind the differential-testing harness.

use crate::ast::{BinOp, UnOp};
use crate::builtins::{weights, BuiltinOutput, GroupMemo, KernelCtx, KernelId, Storage};
use crate::cost::LineCost;
use crate::error::{LangError, Result};
use crate::interp::{
    apply_binary, apply_unary, binary_shape, charge_elementwise, charge_temp, unary_shape,
    LineRecord,
};
use crate::memo::KernelMemo;
use crate::par::{ParEngine, ParStatsSnapshot, ParallelPolicy};
use crate::shape::{Demand, Placeholders};
use crate::value::Value;
use std::collections::BTreeMap;

/// One register-style instruction. Operands are slot indices into the VM's
/// register file; `dst` is always written last, so a line may freely read
/// the slot it is about to redefine (`a = a + 1`).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Load constant-pool entry `idx` into `dst`.
    Const {
        /// Destination slot.
        dst: u16,
        /// Constant-pool index.
        idx: u16,
    },
    /// Copy the value of `src` into `dst` (a bare-identifier right-hand
    /// side). Errors if `src` is unbound.
    Copy {
        /// Destination slot.
        dst: u16,
        /// Source slot.
        src: u16,
    },
    /// Assert that a variable slot is bound, raising
    /// [`LangError::UnknownVariable`] otherwise. Emitted at each identifier's
    /// evaluation position so the VM surfaces undefined-variable errors in
    /// exactly the order the tree-walking interpreter would.
    Guard {
        /// The variable slot to check.
        slot: u16,
    },
    /// Apply a unary operator.
    Unary {
        /// Destination slot.
        dst: u16,
        /// The operator.
        op: UnOp,
        /// Operand slot.
        src: u16,
    },
    /// Apply a binary operator.
    Binary {
        /// Destination slot.
        dst: u16,
        /// The operator.
        op: BinOp,
        /// Left operand slot.
        lhs: u16,
        /// Right operand slot.
        rhs: u16,
    },
    /// Invoke a builtin kernel on `args_len` slots starting at `args_start`
    /// in the argument pool.
    Call {
        /// Destination slot.
        dst: u16,
        /// The kernel to dispatch to.
        kernel: KernelId,
        /// Offset into [`LoweredProgram`]'s argument pool.
        args_start: u32,
        /// Number of argument slots.
        args_len: u16,
        /// Whether a bulk result charges library-boundary copy traffic
        /// (precomputed at lower time: every kernel except `scan`).
        charge_copy: bool,
    },
}

/// Per-line execution metadata, precomputed at lower time.
#[derive(Debug, Clone, PartialEq)]
pub struct LineMeta {
    /// The line's index (SESE region id).
    pub index: usize,
    /// The variable the line defines.
    pub target: String,
    /// Slot the line's result is written to.
    pub target_slot: u16,
    /// Deduplicated slots of the variables the line reads, in name order —
    /// the cached analog of walking `line.inputs()` per execution.
    pub input_slots: Vec<u16>,
    /// First instruction of the line (inclusive).
    pub instr_start: u32,
    /// Last instruction of the line (exclusive).
    pub instr_end: u32,
}

/// A program lowered to the register bytecode: flat instruction stream,
/// constant pool, argument pool, and per-line metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredProgram {
    pub(crate) consts: Vec<Value>,
    pub(crate) instrs: Vec<Instr>,
    pub(crate) arg_pool: Vec<u16>,
    pub(crate) metas: Vec<LineMeta>,
    /// Names for every slot; temps get synthetic `%tN` names.
    pub(crate) slot_names: Vec<String>,
    pub(crate) name_to_slot: BTreeMap<String, u16>,
    pub(crate) n_vars: u16,
    pub(crate) n_slots: u16,
    pub(crate) copy_elim: Vec<bool>,
}

impl LoweredProgram {
    /// Number of lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the program has no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Per-line metadata, in execution order.
    #[must_use]
    pub fn metas(&self) -> &[LineMeta] {
        &self.metas
    }

    /// Number of emitted instructions.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// The slot assigned to variable `name`, if it occurs in the program.
    #[must_use]
    pub fn slot_of(&self, name: &str) -> Option<u16> {
        self.name_to_slot.get(name).copied()
    }

    /// The baked per-line copy-elimination flags.
    #[must_use]
    pub fn copy_elim(&self) -> &[bool] {
        &self.copy_elim
    }
}

/// Executes a [`LoweredProgram`] over a register file of [`Value`] slots.
///
/// Mirrors [`crate::interp::Interpreter`]'s observable behavior exactly —
/// same values, same [`LineCost`] records, same errors — while skipping name
/// lookups, per-line input re-walks, and builtin name matching.
#[derive(Debug)]
pub struct Vm<'a> {
    lowered: &'a LoweredProgram,
    storage: &'a Storage,
    par: ParEngine,
    regs: Vec<Option<Value>>,
    argv: Vec<Value>,
    groups: GroupMemo,
    memo: Option<&'a KernelMemo>,
    demand: Option<&'a Demand>,
    placeholders: Placeholders,
}

impl<'a> Vm<'a> {
    /// Creates a VM for `lowered` over the given storage, executing kernels
    /// serially.
    #[must_use]
    pub fn new(lowered: &'a LoweredProgram, storage: &'a Storage) -> Self {
        Self::with_policy(lowered, storage, ParallelPolicy::default())
    }

    /// Creates a VM whose builtin kernels execute under `policy`.
    ///
    /// Values, [`LineCost`] records, and errors are identical for every
    /// valid policy; only wall-clock changes.
    #[must_use]
    pub fn with_policy(
        lowered: &'a LoweredProgram,
        storage: &'a Storage,
        policy: ParallelPolicy,
    ) -> Self {
        Vm {
            lowered,
            storage,
            par: ParEngine::new(policy),
            regs: vec![None; usize::from(lowered.n_slots)],
            argv: Vec::new(),
            groups: GroupMemo::default(),
            memo: None,
            demand: None,
            placeholders: Placeholders::default(),
        }
    }

    /// Lends `memo` to this VM's kernel calls: a memoizing kernel takes its
    /// label-free result from it when another run's same line read the
    /// same buffers. Values, [`LineCost`] records and errors are those of a
    /// VM without one.
    #[must_use]
    pub fn with_memo(mut self, memo: &'a KernelMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Computes only what `demand` marks: every other operator and call is
    /// charged from its operands' shapes and leaves a placeholder, a value
    /// of its result's shape whose elements are zeros. [`LineCost`] records
    /// and errors are those of a VM computing everything; the values of
    /// the lines charged from shapes are not. `demand` must be
    /// [`Demand::of`] this VM's program.
    #[must_use]
    pub fn costs_only(mut self, demand: &'a Demand) -> Self {
        self.demand = Some(demand);
        self
    }

    /// Chunk counters accumulated by kernel calls so far.
    #[must_use]
    pub fn par_stats(&self) -> ParStatsSnapshot {
        self.par.stats()
    }

    /// Attaches a tracer to the kernel engine; engaged kernel calls then
    /// record `kernel.par` spans and publish `kernel.*` counters.
    pub fn set_tracer(&mut self, tracer: isp_obs::Tracer) {
        self.par.set_tracer(tracer);
    }

    /// Current value of a variable, if defined.
    #[must_use]
    pub fn var(&self, name: &str) -> Option<&Value> {
        let slot = self.lowered.slot_of(name)?;
        self.regs[usize::from(slot)].as_ref()
    }

    /// Paper-scale bytes of a variable (0 if undefined).
    #[must_use]
    pub fn var_bytes(&self, name: &str) -> u64 {
        self.var(name).map_or(0, Value::virtual_bytes)
    }

    /// Executes one line using the lowered copy-elimination flag, returning
    /// the measured cost.
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error, annotated with the line index.
    pub fn exec_line(&mut self, index: usize) -> Result<LineCost> {
        let lowered = self.lowered;
        let elim = lowered.copy_elim[index];
        let meta = &lowered.metas[index];
        let mut cost = LineCost::zero();
        // D_in: the volumes of the variables this line reads.
        for &slot in &meta.input_slots {
            cost.bytes_in += self.regs[usize::from(slot)]
                .as_ref()
                .map_or(0, Value::virtual_bytes);
        }
        let range = meta.instr_start as usize..meta.instr_end as usize;
        for (pc, instr) in range.clone().zip(&lowered.instrs[range]) {
            let computes = self.demand.is_none_or(|demand| demand.computes(pc));
            match instr {
                Instr::Const { dst, idx } => {
                    self.regs[usize::from(*dst)] = Some(lowered.consts[usize::from(*idx)].clone());
                }
                Instr::Copy { dst, src } => {
                    let v = self.read(*src, index)?.clone();
                    self.regs[usize::from(*dst)] = Some(v);
                }
                Instr::Guard { slot } => {
                    self.read(*slot, index)?;
                }
                Instr::Unary { dst, op, src } => {
                    let operand = self.read(*src, index)?;
                    let out = if computes {
                        apply_unary(*op, operand)?
                    } else {
                        let shape = unary_shape(*op, operand)?;
                        self.placeholders.value(shape)?
                    };
                    charge_elementwise(&mut cost, &out, weights::ELEM);
                    charge_temp(&mut cost, &out, elim);
                    self.regs[usize::from(*dst)] = Some(out);
                }
                Instr::Binary { dst, op, lhs, rhs } => {
                    let (l, r) = (self.read(*lhs, index)?, self.read(*rhs, index)?);
                    let out = if computes {
                        apply_binary(*op, l, r)?
                    } else {
                        let shape = binary_shape(*op, l, r)?;
                        self.placeholders.value(shape)?
                    };
                    let weight = if op.is_comparison() {
                        weights::ELEM - 1
                    } else {
                        weights::ELEM
                    };
                    charge_elementwise(&mut cost, &out, weight);
                    charge_temp(&mut cost, &out, elim);
                    self.regs[usize::from(*dst)] = Some(out);
                }
                Instr::Call {
                    dst,
                    kernel,
                    args_start,
                    args_len,
                    charge_copy,
                } => {
                    let mut argv = std::mem::take(&mut self.argv);
                    argv.clear();
                    let end = *args_start as usize + usize::from(*args_len);
                    for &slot in &lowered.arg_pool[*args_start as usize..end] {
                        argv.push(self.read(slot, index)?.clone());
                    }
                    let ctx = KernelCtx {
                        storage: self.storage,
                        par: &self.par,
                        groups: Some(&self.groups),
                        memo: self.memo.map(|memo| (memo, index)),
                        columns: self.demand.and_then(|demand| demand.columns(pc)),
                    };
                    let out = if computes {
                        kernel.invoke_in(&argv, &ctx)
                    } else {
                        kernel.charge(&argv, &ctx).and_then(|charge| {
                            let value = self.placeholders.value(charge.shape)?;
                            Ok(BuiltinOutput::new(value, charge.ops))
                        })
                    };
                    self.argv = argv;
                    let out = out?;
                    cost.compute_ops += out.ops;
                    cost.storage_bytes += out.storage_bytes;
                    cost.calls += 1;
                    if *charge_copy && out.value.is_bulk() {
                        // The wrapper materializes its result in a fresh
                        // buffer before handing it back; same charge as the
                        // interpreter's library-boundary rule.
                        cost.add_copy(out.value.virtual_bytes(), elim);
                    }
                    self.regs[usize::from(*dst)] = Some(out.value);
                }
            }
        }
        let out = self.regs[usize::from(meta.target_slot)]
            .as_ref()
            .expect("the line's root instruction writes the target slot");
        cost.bytes_out = out.virtual_bytes();
        Ok(cost)
    }

    /// Runs the whole program with the lowered copy-elimination flags,
    /// returning one record per line.
    ///
    /// # Errors
    ///
    /// Stops at the first failing line.
    pub fn run(&mut self) -> Result<Vec<LineRecord>> {
        let n = self.lowered.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let cost = self.exec_line(i)?;
            let meta = &self.lowered.metas[i];
            out.push(LineRecord {
                index: meta.index,
                target: meta.target.clone(),
                cost,
            });
        }
        Ok(out)
    }

    fn read(&self, slot: u16, line_index: usize) -> Result<&Value> {
        self.regs[usize::from(slot)]
            .as_ref()
            .ok_or_else(|| LangError::UnknownVariable {
                line: line_index + 1,
                name: self.lowered.slot_names[usize::from(slot)].clone(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::lower::{lower, lower_with};
    use crate::parser::parse;
    use crate::table::{Column, Table};
    use std::sync::Arc;

    fn lineitem_storage() -> Storage {
        let mut st = Storage::new();
        let table = Table::with_logical_rows(
            vec![
                (
                    "qty".into(),
                    Column::F64(Arc::new(vec![10.0, 30.0, 5.0, 40.0])),
                ),
                (
                    "price".into(),
                    Column::F64(Arc::new(vec![100.0, 200.0, 50.0, 400.0])),
                ),
            ],
            4_000_000,
        )
        .expect("table");
        st.insert("lineitem", Value::Table(table));
        st
    }

    const Q6: &str = "t = scan('lineitem')\n\
                      q = col(t, 'qty')\n\
                      m = q < 24\n\
                      p = col(t, 'price')\n\
                      s = select(p, m)\n\
                      r = sum(s)\n";

    fn assert_vm_matches_interp(src: &str, st: &Storage, copy_elim: &[bool]) {
        let prog = parse(src).expect("parse");
        let mut interp = Interpreter::new(st);
        let ast_records = interp.run(&prog, copy_elim).expect("ast run");
        let lowered = lower_with(&prog, copy_elim).expect("lower");
        let mut vm = Vm::new(&lowered, st);
        let vm_records = vm.run().expect("vm run");
        assert_eq!(ast_records, vm_records);
        for name in interp.var_names() {
            assert_eq!(interp.var(name), vm.var(name), "variable `{name}` differs");
            assert_eq!(interp.var_bytes(name), vm.var_bytes(name));
        }
    }

    #[test]
    fn q6_pipeline_matches_interpreter_exactly() {
        assert_vm_matches_interp(Q6, &lineitem_storage(), &[]);
    }

    #[test]
    fn copy_elim_flags_are_baked_and_match() {
        let flags = [false, true, true, true, true, false];
        assert_vm_matches_interp(Q6, &lineitem_storage(), &flags);
        let lowered = lower_with(&parse(Q6).expect("parse"), &flags).expect("lower");
        assert_eq!(lowered.copy_elim(), &flags);
    }

    #[test]
    fn scalar_expressions_match() {
        let st = Storage::new();
        assert_vm_matches_interp(
            "a = 2 + 3 * 4\nb = a >= 14\nc = b and (a != 15)\nd = -a / 2\ne = a\n",
            &st,
            &[],
        );
    }

    #[test]
    fn self_reference_reads_old_value() {
        let st = Storage::new();
        assert_vm_matches_interp("a = 1\na = a + 1\na = (a + 1) * a\n", &st, &[]);
        let prog = parse("a = 1\na = a + 1\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        let mut vm = Vm::new(&lowered, &st);
        vm.run().expect("run");
        assert_eq!(vm.var("a").expect("a").as_num().expect("n"), 2.0);
    }

    #[test]
    fn unknown_variable_error_matches_interpreter() {
        let st = Storage::new();
        let prog = parse("a = 1\nb = zzz + 1\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        let mut vm = Vm::new(&lowered, &st);
        let vm_err = vm.run().unwrap_err();
        let mut interp = Interpreter::new(&st);
        let ast_err = interp.run(&prog, &[]).unwrap_err();
        assert_eq!(vm_err, ast_err);
        assert!(matches!(vm_err, LangError::UnknownVariable { line: 2, .. }));
    }

    #[test]
    fn guard_preserves_error_order_for_ident_operands() {
        // The interpreter hits `zzz` (lhs) before evaluating the bad sort
        // call (rhs); the guard instruction keeps that order in the VM.
        let st = Storage::new();
        let prog = parse("x = zzz + sort(3)\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        let vm_err = Vm::new(&lowered, &st).run().unwrap_err();
        let ast_err = Interpreter::new(&st).run(&prog, &[]).unwrap_err();
        assert_eq!(vm_err, ast_err);
        assert!(matches!(vm_err, LangError::UnknownVariable { line: 1, .. }));
    }

    #[test]
    fn unknown_function_is_a_lower_time_error() {
        let prog = parse("a = np_dot(1, 2)\n").expect("parse");
        let e = lower(&prog).unwrap_err();
        assert!(matches!(e, LangError::UnknownFunction { line: 1, .. }));
        // The interpreter reports the same error, just at run time.
        let st = Storage::new();
        let ast_err = Interpreter::new(&st).run(&prog, &[]).unwrap_err();
        assert_eq!(e, ast_err);
    }

    #[test]
    fn kmeans_update_refuses_a_cluster_count_it_cannot_allocate() {
        let mut st = Storage::new();
        let points = crate::matrix::Matrix::new(vec![0.0, 1.0, 10.0, 11.0], 4, 1).expect("pts");
        st.insert("p", Value::Matrix(points));
        st.insert("a", Value::from(vec![0.0, 0.0, 1.0, 1.0]));
        for k in ["1e300", "4e18", "1e10", "(0 / 0)", "-1", "0", "0.5"] {
            let src = format!("p = scan('p')\na = scan('a')\nc = kmeans_update(p, a, {k})\n");
            let prog = parse(&src).expect("parse");
            let lowered = lower(&prog).expect("lower");
            let vm_err = Vm::new(&lowered, &st).run().expect_err(k);
            let ast_err = Interpreter::new(&st).run(&prog, &[]).expect_err(k);
            assert_eq!(vm_err, ast_err, "k = {k}");
            let text = vm_err.to_string();
            assert!(text.contains("k must be a positive whole number"), "{text}");
        }
        assert_vm_matches_interp(
            "p = scan('p')\na = scan('a')\nc = kmeans_update(p, a, 2)\n",
            &st,
            &[],
        );
    }

    #[test]
    fn the_group_index_is_dropped_with_its_vm() {
        let key = Arc::new(vec![1.0, 2.0, 1.0, 3.0]);
        let mut st = Storage::new();
        st.insert(
            "k",
            Value::Array(crate::value::ArrayVal::shared(Arc::clone(&key), 4)),
        );
        let stored = Arc::strong_count(&key);
        let prog = parse("k = scan('k')\ns = group_sum(k, k)\nk = 0\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        let mut vm = Vm::new(&lowered, &st);
        vm.run().expect("run");
        // No register names the buffer any more; the memo still does.
        assert!(vm.groups.borrow().is_some());
        vm.argv.clear();
        assert_eq!(Arc::strong_count(&key), stored + 1);
        drop(vm);
        assert_eq!(Arc::strong_count(&key), stored);
    }

    #[test]
    fn a_failed_call_keeps_the_argument_vector() {
        let mut st = Storage::new();
        st.insert("v", Value::from(vec![1.0, 2.0, 3.0]));
        let prog = parse("a = scan('v')\nb = sort(3)\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        let mut vm = Vm::new(&lowered, &st);
        vm.run().unwrap_err();
        assert!(vm.argv.capacity() > 0);
    }

    #[test]
    fn duplicate_inputs_charge_bytes_in_once() {
        let mut st = Storage::new();
        st.insert("v", Value::from(vec![1.0, 2.0, 3.0]));
        assert_vm_matches_interp("a = scan('v')\nb = a + a\n", &st, &[]);
        let prog = parse("a = scan('v')\nb = a + a\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        assert_eq!(lowered.metas()[1].input_slots.len(), 1, "inputs dedup");
    }

    #[test]
    fn temps_are_stack_disciplined() {
        let prog = parse("x = (1 + 2) * (3 + 4)\ny = ((1 + 2) * 3) + (4 * 5)\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        // Two named variables plus a bounded temp region.
        assert_eq!(lowered.n_vars, 2);
        assert!(lowered.n_slots <= lowered.n_vars + 4);
        let st = Storage::new();
        assert_vm_matches_interp(
            "x = (1 + 2) * (3 + 4)\ny = ((1 + 2) * 3) + (4 * 5)\n",
            &st,
            &[],
        );
    }

    #[test]
    fn string_and_num_constants_are_interned() {
        let prog = parse("a = 1\nb = 1\nc = 'x'\nd = 'x'\n").expect("parse");
        let lowered = lower(&prog).expect("lower");
        assert_eq!(lowered.consts.len(), 2);
    }

    #[test]
    fn lowered_program_reports_shape() {
        let lowered = lower(&parse(Q6).expect("parse")).expect("lower");
        assert_eq!(lowered.len(), 6);
        assert!(!lowered.is_empty());
        assert!(lowered.instr_count() >= 6);
        assert_eq!(lowered.slot_of("t"), Some(0));
        assert!(lowered.slot_of("nope").is_none());
    }
}
