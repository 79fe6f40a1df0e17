//! The ALang interpreter with per-line cost profiling.
//!
//! The interpreter executes one line at a time (the paper's unit of
//! assignment) and reports a [`LineCost`] for each execution: analytic
//! compute operations, stored bytes streamed, the line's input/output data
//! volumes, and library-boundary copy traffic. This per-line record is what
//! the paper gathers with `line_profiler` during the sampling phase
//! (§III-A) and what the execution engine charges to the simulated
//! hardware.
//!
//! Whether a line's copies are *eliminable* is decided by the static pass
//! in [`crate::copyelim`]; the interpreter is told per line and tags copy
//! traffic accordingly.

use crate::ast::{BinOp, Expr, Line, Program, UnOp};
use crate::builtins::{self, weights, GroupMemo, KernelCtx, Storage};
use crate::cost::LineCost;
use crate::error::{LangError, Result};
use crate::par::{ParEngine, ParStatsSnapshot, ParallelPolicy};
use crate::shape::Shape;
use crate::value::{ArrayVal, BoolArrayVal, Value};
use std::collections::BTreeMap;

/// The record produced by executing one line once.
#[derive(Debug, Clone, PartialEq)]
pub struct LineRecord {
    /// The line's index (SESE region id).
    pub index: usize,
    /// The variable defined.
    pub target: String,
    /// Measured cost.
    pub cost: LineCost,
}

/// An interpreter instance holding variable bindings.
#[derive(Debug, Clone)]
pub struct Interpreter<'a> {
    storage: &'a Storage,
    vars: BTreeMap<String, Value>,
    par: ParEngine,
    groups: GroupMemo,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over the given storage with the default
    /// (serial) kernel policy.
    #[must_use]
    pub fn new(storage: &'a Storage) -> Self {
        Self::with_policy(storage, ParallelPolicy::default())
    }

    /// Creates an interpreter whose builtin kernels execute under
    /// `policy` (validate it at the door; see [`ParallelPolicy::validate`]).
    #[must_use]
    pub fn with_policy(storage: &'a Storage, policy: ParallelPolicy) -> Self {
        Interpreter {
            storage,
            vars: BTreeMap::new(),
            par: ParEngine::new(policy),
            groups: GroupMemo::default(),
        }
    }

    /// Chunk counters accumulated by this interpreter's kernels.
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
        self.vars.get(name)
    }

    /// Paper-scale bytes of a variable (0 if undefined).
    #[must_use]
    pub fn var_bytes(&self, name: &str) -> u64 {
        self.vars.get(name).map_or(0, Value::virtual_bytes)
    }

    /// All defined variable names.
    pub fn var_names(&self) -> impl Iterator<Item = &str> {
        self.vars.keys().map(String::as_str)
    }

    /// Executes one line: evaluates the right-hand side, binds the target,
    /// and returns the measured cost.
    ///
    /// `copy_elim` marks whether the code generator may eliminate this
    /// line's boundary copies (see [`crate::copyelim::eliminable_lines`]).
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error, annotated with the line index.
    pub fn exec_line(&mut self, line: &Line, copy_elim: bool) -> Result<LineCost> {
        let mut cost = LineCost::zero();
        // D_in: the volumes of the variables this line reads.
        for (name, _) in line.inputs() {
            cost.bytes_in += self.var_bytes(name);
        }
        let value = self.eval(&line.expr, &mut cost, copy_elim, line.index)?;
        cost.bytes_out = value.virtual_bytes();
        self.vars.insert(line.target.clone(), value);
        Ok(cost)
    }

    /// Runs a whole program, returning one record per line.
    ///
    /// `copy_elim` must have one entry per line (use
    /// [`crate::copyelim::eliminable_lines`]), or be empty to disable
    /// elimination everywhere.
    ///
    /// # Errors
    ///
    /// Stops at the first failing line.
    pub fn run(&mut self, program: &Program, copy_elim: &[bool]) -> Result<Vec<LineRecord>> {
        let mut out = Vec::with_capacity(program.len());
        for line in program.lines() {
            let elim = copy_elim.get(line.index).copied().unwrap_or(false);
            let cost = self.exec_line(line, elim)?;
            out.push(LineRecord {
                index: line.index,
                target: line.target.clone(),
                cost,
            });
        }
        Ok(out)
    }

    fn eval(&self, expr: &Expr, cost: &mut LineCost, elim: bool, line_no: usize) -> Result<Value> {
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Ident(name) => {
                self.vars
                    .get(name)
                    .cloned()
                    .ok_or_else(|| LangError::UnknownVariable {
                        line: line_no + 1,
                        name: name.clone(),
                    })
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, cost, elim, line_no)?;
                let out = apply_unary(*op, &v)?;
                charge_elementwise(cost, &out, weights::ELEM);
                charge_temp(cost, &out, elim);
                Ok(out)
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, cost, elim, line_no)?;
                let r = self.eval(rhs, cost, elim, line_no)?;
                let out = apply_binary(*op, &l, &r)?;
                let weight = if op.is_comparison() {
                    weights::ELEM - 1
                } else {
                    weights::ELEM
                };
                charge_elementwise(cost, &out, weight);
                charge_temp(cost, &out, elim);
                Ok(out)
            }
            Expr::Call { name, args } => {
                // Resolve the name once and dispatch through the kernel's
                // function pointer, like the lowered VM does.
                let Some(kernel) = builtins::kernel_id(name) else {
                    return Err(LangError::UnknownFunction {
                        line: line_no + 1,
                        name: name.clone(),
                    });
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, cost, elim, line_no)?);
                }
                let ctx = KernelCtx {
                    storage: self.storage,
                    par: &self.par,
                    groups: Some(&self.groups),
                    memo: None,
                    columns: None,
                };
                let out = kernel.invoke_in(&argv, &ctx)?;
                cost.compute_ops += out.ops;
                cost.storage_bytes += out.storage_bytes;
                cost.calls += 1;
                if kernel.charges_copy() && out.value.is_bulk() {
                    // The wrapper materializes its result in a fresh buffer
                    // before converting/handing it back (arguments pass by
                    // reference, as in CPython; the temps are what the
                    // copy-elimination optimization removes, §III-C0c).
                    cost.add_copy(out.value.virtual_bytes(), elim);
                }
                Ok(out.value)
            }
        }
    }
}

pub(crate) fn charge_elementwise(cost: &mut LineCost, out: &Value, weight: u64) {
    cost.compute_ops += out.logical_elems() * weight;
}

pub(crate) fn charge_temp(cost: &mut LineCost, out: &Value, elim: bool) {
    if out.is_bulk() {
        cost.add_copy(out.virtual_bytes(), elim);
    }
}

/// The result shape of `op v`, with every error the operator raises.
pub(crate) fn unary_shape(op: UnOp, v: &Value) -> Result<Shape> {
    match (op, v) {
        (UnOp::Neg, Value::Num(_)) => Ok(Shape::Num),
        (UnOp::Neg, Value::Array(a)) => Ok(Shape::array(a)),
        (UnOp::Not, Value::Bool(_)) => Ok(Shape::Bool),
        (UnOp::Not, Value::BoolArray(m)) => Ok(Shape::mask(m)),
        (op, other) => Err(LangError::type_error(format!(
            "cannot apply {op:?} to {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn apply_unary(op: UnOp, v: &Value) -> Result<Value> {
    let logical = unary_shape(op, v)?.logical_len();
    Ok(match v {
        Value::Num(n) => Value::Num(-n),
        Value::Array(a) => Value::Array(ArrayVal::with_logical(
            a.data().iter().map(|x| -x).collect(),
            logical,
        )),
        Value::Bool(b) => Value::Bool(!b),
        Value::BoolArray(m) => Value::BoolArray(BoolArrayVal::with_logical(
            m.data().iter().map(|b| !b).collect(),
            logical,
        )),
        _ => unreachable!("unary_shape admits no other operand"),
    })
}

/// The result shape of `l op r`, with every type and length error the
/// operator raises.
pub(crate) fn binary_shape(op: BinOp, l: &Value, r: &Value) -> Result<Shape> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => numeric_shape(op, l, r),
        Lt | Le | Gt | Ge | Eq | Ne => comparison_shape(op, l, r),
        And | Or => logical_shape(op, l, r),
    }
}

pub(crate) fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => numeric_binary(op, l, r),
        Lt | Le | Gt | Ge | Eq | Ne => comparison_binary(op, l, r),
        And | Or => logical_binary(op, l, r),
    }
}

/// The materialized and logical length of two operands zipped element by
/// element: equal materialized lengths, the longer logical one. `what`
/// names the operation in the length error.
fn zipped(a: (usize, u64), b: (usize, u64), what: impl FnOnce() -> String) -> Result<(usize, u64)> {
    if a.0 != b.0 {
        return Err(LangError::runtime(format!(
            "{} of length {} and {}",
            what(),
            a.0,
            b.0
        )));
    }
    Ok((a.0, a.1.max(b.1)))
}

fn numeric_shape(op: BinOp, l: &Value, r: &Value) -> Result<Shape> {
    match (l, r) {
        (Value::Num(_), Value::Num(_)) => Ok(Shape::Num),
        (Value::Array(a), Value::Num(_)) | (Value::Num(_), Value::Array(a)) => Ok(Shape::array(a)),
        (Value::Array(a), Value::Array(b)) => {
            let sizes = |x: &ArrayVal| (x.len(), x.logical_len());
            let what = || format!("elementwise {} on arrays", op.symbol());
            let (len, logical) = zipped(sizes(a), sizes(b), what)?;
            Ok(Shape::Array { len, logical })
        }
        (l, r) => Err(LangError::type_error(format!(
            "cannot apply {} to {} and {}",
            op.symbol(),
            l.type_name(),
            r.type_name()
        ))),
    }
}

fn comparison_shape(op: BinOp, l: &Value, r: &Value) -> Result<Shape> {
    match (l, r) {
        (Value::Num(_), Value::Num(_)) => Ok(Shape::Bool),
        (Value::Array(a), Value::Num(_)) | (Value::Num(_), Value::Array(a)) => {
            Ok(Shape::BoolArray {
                len: a.len(),
                logical: a.logical_len(),
            })
        }
        (Value::Array(a), Value::Array(b)) => {
            let sizes = |x: &ArrayVal| (x.len(), x.logical_len());
            let what = || format!("comparison {} on arrays", op.symbol());
            let (len, logical) = zipped(sizes(a), sizes(b), what)?;
            Ok(Shape::BoolArray { len, logical })
        }
        (l, r) => Err(LangError::type_error(format!(
            "cannot compare {} and {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

fn logical_shape(op: BinOp, l: &Value, r: &Value) -> Result<Shape> {
    match (l, r) {
        (Value::Bool(_), Value::Bool(_)) => Ok(Shape::Bool),
        (Value::BoolArray(a), Value::BoolArray(b)) => {
            let sizes = |x: &BoolArrayVal| (x.len(), x.logical_len());
            let what = || format!("logical {} on masks", op.symbol());
            let (len, logical) = zipped(sizes(a), sizes(b), what)?;
            Ok(Shape::BoolArray { len, logical })
        }
        (Value::BoolArray(a), Value::Bool(_)) | (Value::Bool(_), Value::BoolArray(a)) => {
            Ok(Shape::mask(a))
        }
        (l, r) => Err(LangError::type_error(format!(
            "cannot apply {} to {} and {}",
            op.symbol(),
            l.type_name(),
            r.type_name()
        ))),
    }
}

// Each of the three families picks its operator once per call and runs
// the element loops monomorphised over it, so a loop body is the bare
// operation and vectorises. The family's shape function has already
// refused every other pairing of operands.

fn numeric_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Add => numeric_by(op, l, r, |a, b| a + b),
        BinOp::Sub => numeric_by(op, l, r, |a, b| a - b),
        BinOp::Mul => numeric_by(op, l, r, |a, b| a * b),
        BinOp::Div => numeric_by(op, l, r, |a, b| a / b),
        _ => unreachable!("numeric_binary called with {op:?}"),
    }
}

fn numeric_by(op: BinOp, l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    let logical = numeric_shape(op, l, r)?.logical_len();
    let array = |data| Value::Array(ArrayVal::with_logical(data, logical));
    Ok(match (l, r) {
        (Value::Num(a), Value::Num(b)) => Value::Num(f(*a, *b)),
        (Value::Array(a), Value::Num(b)) => array(a.data().iter().map(|x| f(*x, *b)).collect()),
        (Value::Num(a), Value::Array(b)) => array(b.data().iter().map(|x| f(*a, *x)).collect()),
        (Value::Array(a), Value::Array(b)) => array(
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| f(*x, *y))
                .collect(),
        ),
        _ => unreachable!("numeric_shape admits no other operands"),
    })
}

fn comparison_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Lt => comparison_by(op, l, r, |a, b| a < b),
        BinOp::Le => comparison_by(op, l, r, |a, b| a <= b),
        BinOp::Gt => comparison_by(op, l, r, |a, b| a > b),
        BinOp::Ge => comparison_by(op, l, r, |a, b| a >= b),
        BinOp::Eq => comparison_by(op, l, r, |a, b| a == b),
        BinOp::Ne => comparison_by(op, l, r, |a, b| a != b),
        _ => unreachable!("comparison_binary called with {op:?}"),
    }
}

fn comparison_by(op: BinOp, l: &Value, r: &Value, f: impl Fn(f64, f64) -> bool) -> Result<Value> {
    let logical = comparison_shape(op, l, r)?.logical_len();
    let mask = |data| Value::BoolArray(BoolArrayVal::with_logical(data, logical));
    Ok(match (l, r) {
        (Value::Num(a), Value::Num(b)) => Value::Bool(f(*a, *b)),
        (Value::Array(a), Value::Num(b)) => mask(mask_by(a.data(), |x| f(x, *b))),
        (Value::Num(a), Value::Array(b)) => mask(mask_by(b.data(), |x| f(*a, x))),
        (Value::Array(a), Value::Array(b)) => mask(pair_mask_by(a.data(), b.data(), f)),
        _ => unreachable!("comparison_shape admits no other operands"),
    })
}

/// `f` of each element, eight at a time: a group's eight bools are built
/// as one array and stored together, which vectorizes where a collected
/// iterator stores one bool at a time.
fn mask_by(xs: &[f64], f: impl Fn(f64) -> bool) -> Vec<bool> {
    let mut out = vec![false; xs.len()];
    let (out_groups, out_rest) = out.as_chunks_mut::<8>();
    let (groups, rest) = xs.as_chunks::<8>();
    for (o, x) in out_groups.iter_mut().zip(groups) {
        *o = x.map(&f);
    }
    for (o, x) in out_rest.iter_mut().zip(rest) {
        *o = f(*x);
    }
    out
}

/// [`mask_by`] over element pairs of two equally long arrays.
fn pair_mask_by(xs: &[f64], ys: &[f64], f: impl Fn(f64, f64) -> bool) -> Vec<bool> {
    let mut out = vec![false; xs.len().min(ys.len())];
    let (out_groups, out_rest) = out.as_chunks_mut::<8>();
    let ((x_groups, x_rest), (y_groups, y_rest)) = (xs.as_chunks::<8>(), ys.as_chunks::<8>());
    for ((o, x), y) in out_groups.iter_mut().zip(x_groups).zip(y_groups) {
        *o = std::array::from_fn(|i| f(x[i], y[i]));
    }
    for ((o, x), y) in out_rest.iter_mut().zip(x_rest).zip(y_rest) {
        *o = f(*x, *y);
    }
    out
}

fn logical_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::And => logical_by(op, l, r, |a, b| a && b),
        BinOp::Or => logical_by(op, l, r, |a, b| a || b),
        _ => unreachable!("logical_binary called with {op:?}"),
    }
}

fn logical_by(op: BinOp, l: &Value, r: &Value, f: impl Fn(bool, bool) -> bool) -> Result<Value> {
    let logical = logical_shape(op, l, r)?.logical_len();
    let mask = |data| Value::BoolArray(BoolArrayVal::with_logical(data, logical));
    Ok(match (l, r) {
        (Value::Bool(a), Value::Bool(b)) => Value::Bool(f(*a, *b)),
        (Value::BoolArray(a), Value::BoolArray(b)) => mask(
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| f(*x, *y))
                .collect(),
        ),
        (Value::BoolArray(a), Value::Bool(b)) => mask(a.data().iter().map(|x| f(*x, *b)).collect()),
        (Value::Bool(a), Value::BoolArray(b)) => mask(b.data().iter().map(|x| f(*a, *x)).collect()),
        _ => unreachable!("logical_shape admits no other operands"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn q6_like_pipeline_computes_correctly() {
        let st = lineitem_storage();
        let prog = parse(
            "t = scan('lineitem')\n\
             q = col(t, 'qty')\n\
             m = q < 24\n\
             p = col(t, 'price')\n\
             s = select(p, m)\n\
             r = sum(s)\n",
        )
        .expect("parse");
        let mut interp = Interpreter::new(&st);
        let records = interp.run(&prog, &[]).expect("run");
        assert_eq!(records.len(), 6);
        // qty < 24 keeps rows 0 and 2: 100 + 50 = 150, extrapolated by the
        // 1e6 scale ratio.
        let r = interp.var("r").expect("r").as_num().expect("num");
        assert!((r - 150.0 * 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn per_line_costs_have_expected_shape() {
        let st = lineitem_storage();
        let prog = parse("t = scan('lineitem')\nq = col(t, 'qty')\nm = q < 24\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        let rec = interp.run(&prog, &[]).expect("run");
        // scan: storage bytes, no copies, no inputs.
        assert_eq!(rec[0].cost.storage_bytes, 4_000_000 * 16);
        assert_eq!(rec[0].cost.copy_bytes, 0);
        assert_eq!(rec[0].cost.bytes_in, 0);
        assert_eq!(rec[0].cost.bytes_out, 4_000_000 * 16);
        // col: reads the table (bytes_in = table), produces an array.
        assert_eq!(rec[1].cost.bytes_in, 4_000_000 * 16);
        assert_eq!(rec[1].cost.bytes_out, 4_000_000 * 8);
        assert!(
            rec[1].cost.copy_bytes > 0,
            "library boundary copies counted"
        );
        // compare: produces a mask of 1 byte per logical row.
        assert_eq!(rec[2].cost.bytes_out, 4_000_000);
        assert!(rec[2].cost.compute_ops >= 3 * 4_000_000);
    }

    #[test]
    fn copy_elim_flag_marks_copies_eliminable() {
        let st = lineitem_storage();
        let prog = parse("t = scan('lineitem')\nq = col(t, 'qty')\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        let rec = interp.run(&prog, &[true, true]).expect("run");
        assert_eq!(rec[1].cost.copy_bytes, rec[1].cost.eliminable_copy_bytes);
        let mut interp2 = Interpreter::new(&st);
        let rec2 = interp2.run(&prog, &[false, false]).expect("run");
        assert_eq!(rec2[1].cost.eliminable_copy_bytes, 0);
    }

    #[test]
    fn scalar_arithmetic_and_logic() {
        let st = Storage::new();
        let prog =
            parse("a = 2 + 3 * 4\nb = a >= 14\nc = b and (a != 15)\nd = -a / 2\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        interp.run(&prog, &[]).expect("run");
        assert_eq!(interp.var("a").expect("a").as_num().expect("n"), 14.0);
        assert!(interp.var("b").expect("b").as_bool().expect("b"));
        assert!(interp.var("c").expect("c").as_bool().expect("b"));
        assert_eq!(interp.var("d").expect("d").as_num().expect("n"), -7.0);
    }

    #[test]
    fn array_scalar_broadcasting() {
        let mut st = Storage::new();
        st.insert("v", Value::from(vec![1.0, 2.0, 3.0]));
        let prog = parse("a = scan('v')\nb = a * 2 + 1\nm = 2 < a\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        interp.run(&prog, &[]).expect("run");
        assert_eq!(
            interp.var("b").expect("b").as_array().expect("arr").data(),
            &[3.0, 5.0, 7.0]
        );
        assert_eq!(
            interp
                .var("m")
                .expect("m")
                .as_bool_array()
                .expect("mask")
                .data(),
            &[false, false, true]
        );
    }

    #[test]
    fn unknown_variable_reports_line() {
        let st = Storage::new();
        let prog = parse("a = 1\nb = zzz + 1\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        let e = interp.run(&prog, &[]).unwrap_err();
        assert!(matches!(e, LangError::UnknownVariable { line: 2, .. }));
    }

    #[test]
    fn unknown_function_reports_line() {
        let st = Storage::new();
        let prog = parse("a = np_dot(1, 2)\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        let e = interp.run(&prog, &[]).unwrap_err();
        assert!(matches!(e, LangError::UnknownFunction { line: 1, .. }));
    }

    #[test]
    fn length_mismatch_is_runtime_error() {
        let mut st = Storage::new();
        st.insert("a", Value::from(vec![1.0, 2.0]));
        st.insert("b", Value::from(vec![1.0, 2.0, 3.0]));
        let prog = parse("x = scan('a')\ny = scan('b')\nz = x + y\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        assert!(interp.run(&prog, &[]).is_err());
    }

    #[test]
    fn type_errors_name_both_types() {
        let mut st = Storage::new();
        st.insert("a", Value::from(vec![1.0]));
        let prog = parse("x = scan('a')\ny = x and 1\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        let msg = format!("{}", interp.run(&prog, &[]).unwrap_err());
        assert!(msg.contains("array") && msg.contains("num"), "{msg}");
    }

    #[test]
    fn redefinition_overwrites_binding() {
        let st = Storage::new();
        let prog = parse("a = 1\na = a + 1\na = a + 1\n").expect("parse");
        let mut interp = Interpreter::new(&st);
        interp.run(&prog, &[]).expect("run");
        assert_eq!(interp.var("a").expect("a").as_num().expect("n"), 3.0);
    }
}
