//! Costs from shapes: what a sampling run must compute.
//!
//! The sampling phase (§III-A) runs a program only to measure each line's
//! [`crate::LineCost`]. Most costs read only the *shape* of what a line
//! reads — a value's type, materialized length and logical size — not its
//! elements: `exp` over an array costs its logical length times a weight
//! whatever the numbers are. A few read values: `select`'s result is as
//! long as its mask has `true`s, `group_sum`'s as its keys have groups, and
//! `decode` fails on bad bytes.
//!
//! Each builtin's row in [`crate::builtins`] declares the arguments its
//! cost, result shape and errors read by value; the operators read none
//! ([`BinOp::BY_VALUE`], [`UnOp::BY_VALUE`]). [`Demand::of`] walks a lowered
//! program backward from those reads and marks the operators and calls a
//! costs-only run ([`crate::Vm::costs_only`]) must compute: those whose
//! result some computed instruction reads by value, and calls whose kernel
//! has no shape function. Every other one is charged through its kernel's
//! shape function — the function the real kernel prices itself with — and
//! its destination holds a placeholder: a value of the result's shape
//! whose elements come from one zero buffer per length.

use crate::ast::{BinOp, UnOp};
use crate::bytecode::{Instr, LoweredProgram};
use crate::error::Result;
use crate::matrix::Matrix;
use crate::value::{ArrayVal, BoolArrayVal, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The type and sizes of a value: all a placeholder keeps, and all a
/// shape-only cost reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// A number.
    Num,
    /// A boolean.
    Bool,
    /// An array of `len` materialized elements standing for `logical`.
    Array { len: usize, logical: u64 },
    /// A mask of `len` materialized entries standing for `logical`.
    BoolArray { len: usize, logical: u64 },
    /// A `rows × cols` block standing for `logical_rows × logical_cols`.
    Matrix {
        rows: usize,
        cols: usize,
        logical_rows: u64,
        logical_cols: u64,
    },
}

impl Shape {
    /// The shape of `a`.
    pub(crate) fn array(a: &ArrayVal) -> Shape {
        Shape::Array {
            len: a.len(),
            logical: a.logical_len(),
        }
    }

    /// The shape of `m`.
    pub(crate) fn mask(m: &BoolArrayVal) -> Shape {
        Shape::BoolArray {
            len: m.len(),
            logical: m.logical_len(),
        }
    }

    /// The logical length of an array or mask shape (1 for a scalar, the
    /// logical cell count for a matrix), as [`Value::logical_elems`].
    pub(crate) fn logical_len(self) -> u64 {
        match self {
            Shape::Num | Shape::Bool => 1,
            Shape::Array { logical, .. } | Shape::BoolArray { logical, .. } => logical,
            Shape::Matrix {
                logical_rows,
                logical_cols,
                ..
            } => logical_rows * logical_cols,
        }
    }

    /// `data` as a matrix of this shape.
    ///
    /// # Errors
    ///
    /// As [`Matrix::shared`], for a shape that is no matrix's.
    pub(crate) fn matrix(self, data: Arc<Vec<f64>>) -> Result<Matrix> {
        let Shape::Matrix {
            rows,
            cols,
            logical_rows,
            logical_cols,
        } = self
        else {
            unreachable!("a matrix kernel charges a matrix shape, not {self:?}");
        };
        Matrix::shared(data, rows, cols, logical_rows, logical_cols)
    }
}

/// A kernel's cost as its arguments' shapes determine it: the result's
/// shape and the operations charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Charge {
    pub(crate) shape: Shape,
    pub(crate) ops: u64,
}

impl Charge {
    pub(crate) fn new(shape: Shape, ops: u64) -> Self {
        Charge { shape, ops }
    }
}

/// A kernel's shape-only charge, given its row's name and the arguments
/// its row admitted: shape errors exactly as the kernel raises them,
/// reading the values of its by-value arguments only. The real kernel
/// calls it for its `ops` and result shape.
pub(crate) type ShapeFn = fn(&'static str, &[Value]) -> Result<Charge>;

/// The zero buffers placeholders share, one per length.
#[derive(Debug, Default)]
pub(crate) struct Placeholders {
    zeros: BTreeMap<usize, Arc<Vec<f64>>>,
    falses: BTreeMap<usize, Arc<Vec<bool>>>,
}

impl Placeholders {
    /// A value of `shape` whose elements are all zero (or `false`).
    ///
    /// # Errors
    ///
    /// As [`Shape::matrix`].
    pub(crate) fn value(&mut self, shape: Shape) -> Result<Value> {
        Ok(match shape {
            Shape::Num => Value::Num(0.0),
            Shape::Bool => Value::Bool(false),
            Shape::Array { len, logical } => Value::Array(ArrayVal::shared(
                Self::zeroed(&mut self.zeros, len),
                logical,
            )),
            Shape::BoolArray { len, logical } => Value::BoolArray(BoolArrayVal::shared(
                Self::zeroed(&mut self.falses, len),
                logical,
            )),
            Shape::Matrix { rows, cols, .. } => {
                Value::Matrix(shape.matrix(Self::zeroed(&mut self.zeros, rows * cols))?)
            }
        })
    }

    fn zeroed<T: Default + Clone>(
        kept: &mut BTreeMap<usize, Arc<Vec<T>>>,
        len: usize,
    ) -> Arc<Vec<T>> {
        Arc::clone(
            kept.entry(len)
                .or_insert_with(|| Arc::new(vec![T::default(); len])),
        )
    }
}

/// The operators and calls of a lowered program a costs-only run must
/// compute; every other one is charged from its operands' shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Demand {
    /// Per instruction: computed (loads, copies and guards always are).
    computes: Vec<bool>,
}

impl Demand {
    /// The backward pass. An instruction reads an operand by value when
    /// its own result is read by value — that result is then computed, from
    /// every operand's value — or when the operand is one its operator or
    /// kernel declares by value. A call is computed when its result is
    /// read by value or its kernel has no shape-only charge; an operator
    /// only when its result is read by value. The run's final values are
    /// read by nothing.
    #[must_use]
    pub fn of(lowered: &LoweredProgram) -> Demand {
        // Whether the value a slot holds at this point is read by value.
        let mut read = vec![false; usize::from(lowered.n_slots)];
        let mut computes = vec![true; lowered.instrs.len()];
        for (pc, instr) in lowered.instrs.iter().enumerate().rev() {
            let (dst, operands): (u16, Vec<(u16, bool)>) = match instr {
                Instr::Const { dst, .. } => (*dst, Vec::new()),
                Instr::Guard { .. } => continue,
                Instr::Copy { dst, src } => (*dst, vec![(*src, false)]),
                Instr::Unary { dst, src, .. } => (*dst, vec![(*src, UnOp::BY_VALUE.contains(&0))]),
                Instr::Binary { dst, lhs, rhs, .. } => (
                    *dst,
                    vec![
                        (*lhs, BinOp::BY_VALUE.contains(&0)),
                        (*rhs, BinOp::BY_VALUE.contains(&1)),
                    ],
                ),
                Instr::Call {
                    dst,
                    kernel,
                    args_start,
                    args_len,
                    ..
                } => {
                    let start = *args_start as usize;
                    let args = &lowered.arg_pool[start..start + usize::from(*args_len)];
                    let by_value = args.iter().enumerate();
                    (
                        *dst,
                        by_value
                            .map(|(i, s)| (*s, kernel.reads_by_value(i)))
                            .collect(),
                    )
                }
            };
            // Walking backward, this write ends the value the later reads
            // saw; the operands, even `dst` itself, hold earlier values.
            let needed = std::mem::take(&mut read[usize::from(dst)]);
            computes[pc] = match instr {
                Instr::Unary { .. } | Instr::Binary { .. } => needed,
                Instr::Call { kernel, .. } => needed || !kernel.charges_from_shapes(),
                _ => true,
            };
            for (slot, by_value) in operands {
                read[usize::from(slot)] |= needed || by_value;
            }
        }
        Demand { computes }
    }

    /// Whether instruction `pc` is computed.
    pub(crate) fn computes(&self, pc: usize) -> bool {
        self.computes[pc]
    }

    /// Per line, whether a costs-only run computes it: some operator or
    /// call on it is computed, or it has none (it only loads or copies).
    #[must_use]
    pub fn computed_lines(&self, lowered: &LoweredProgram) -> Vec<bool> {
        lowered
            .metas
            .iter()
            .map(|meta| {
                let range = meta.instr_start as usize..meta.instr_end as usize;
                let mut charged = lowered.instrs[range.clone()]
                    .iter()
                    .zip(&self.computes[range])
                    .filter(|(instr, _)| {
                        matches!(
                            instr,
                            Instr::Unary { .. } | Instr::Binary { .. } | Instr::Call { .. }
                        )
                    })
                    .peekable();
                charged.peek().is_none() || charged.any(|(_, computes)| *computes)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::Storage;
    use crate::bytecode::Vm;
    use crate::lower::lower;
    use crate::parser::parse;

    fn storage() -> Storage {
        let mut st = Storage::new();
        let v: Vec<f64> = (0..64).map(|i| f64::from(i % 10)).collect();
        st.insert("v", Value::Array(ArrayVal::with_logical(v, 1_000_000)));
        st
    }

    /// The lines a costs-only run computes, by target, and its records
    /// against a run computing everything.
    fn computed(src: &str) -> Vec<(String, bool)> {
        let program = parse(src).expect("parses");
        let lowered = lower(&program).expect("lowers");
        let demand = Demand::of(&lowered);
        let st = storage();
        let all = Vm::new(&lowered, &st).run();
        let costs_only = Vm::new(&lowered, &st).costs_only(&demand).run();
        assert_eq!(costs_only, all, "{src}");
        let targets = program.lines().iter().map(|l| l.target.clone());
        targets.zip(demand.computed_lines(&lowered)).collect()
    }

    fn lines(spec: &[(&str, bool)]) -> Vec<(String, bool)> {
        spec.iter().map(|(t, c)| ((*t).to_owned(), *c)).collect()
    }

    #[test]
    fn a_shape_only_chain_that_feeds_a_mask_is_computed() {
        // `m` and the chain behind it decide how long `s` is; `y` and
        // `total` read only sizes, and `s` is charged from `m`'s values.
        let src = "a = scan('v')\nb = a * 2\nm = (b + 1) > 9\ny = exp(a)\n\
                   s = select(y, m)\ntotal = sum(s)\n";
        assert_eq!(
            computed(src),
            lines(&[
                ("a", true),
                ("b", true),
                ("m", true),
                ("y", false),
                ("s", false),
                ("total", false),
            ])
        );
        // Read by value, `s` computes from every operand: `y` too.
        let src = format!("{src}k = group_sum(s, s)\n");
        let expected = [
            ("a", true),
            ("b", true),
            ("m", true),
            ("y", true),
            ("s", true),
            ("total", false),
            ("k", true),
        ];
        assert_eq!(computed(&src), lines(&expected));
    }

    #[test]
    fn a_reassigned_name_is_read_by_value_only_where_its_definition_is() {
        // The first `a` feeds a mask, the second only a sum.
        let src = "a = scan('v')\nm = a > 4\na = a * 3\nt = sum(a)\nc = count(m)\n\
                   s = select(a, m)\n";
        assert_eq!(
            computed(src),
            lines(&[
                ("a", true),
                ("m", true),
                ("a", false),
                ("t", false),
                ("c", false),
                ("s", false),
            ])
        );
        // A line that reads its own name: `a = a + 1` needs the old value
        // only when something reads the new one by value.
        let src = "a = scan('v')\na = a + 1\nk = group_sum(a, a)\n";
        let expected = [("a", true), ("a", true), ("k", true)];
        assert_eq!(computed(src), lines(&expected));
    }

    #[test]
    fn a_skipped_line_raises_the_errors_its_kernel_would() {
        let src = "a = scan('v')\nw = a * 2\nb = sum(w)\nc = dot(a, b)\n";
        let program = parse(src).expect("parses");
        let lowered = lower(&program).expect("lowers");
        let demand = Demand::of(&lowered);
        let st = storage();
        let all = Vm::new(&lowered, &st).run().unwrap_err();
        let costs_only = Vm::new(&lowered, &st)
            .costs_only(&demand)
            .run()
            .unwrap_err();
        assert_eq!(costs_only, all);
        assert!(all.to_string().contains("expected array"), "{all}");
    }

    #[test]
    fn placeholders_share_one_zero_buffer_per_length() {
        let mut held = Placeholders::default();
        let a = held
            .value(Shape::Array {
                len: 8,
                logical: 80,
            })
            .expect("array");
        let m = held
            .value(Shape::Matrix {
                rows: 2,
                cols: 4,
                logical_rows: 200,
                logical_cols: 4,
            })
            .expect("matrix");
        let (Value::Array(a), Value::Matrix(m)) = (a, m) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a.buffer(), m.buffer()), "one buffer of 8");
        assert!(a.data().iter().all(|x| *x == 0.0));
        assert_eq!((a.logical_len(), m.logical_rows()), (80, 200));
        let other = held
            .value(Shape::Array { len: 9, logical: 9 })
            .expect("array");
        assert!(!Arc::ptr_eq(
            a.buffer(),
            other.as_array().expect("array").buffer()
        ));
        let mask = held
            .value(Shape::BoolArray { len: 8, logical: 8 })
            .expect("mask");
        assert_eq!(mask.as_bool_array().expect("mask").count_true(), 0);
    }
}
