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
//!
//! A table is read column by column: `col(t, 'x')` reads only column `x`
//! of `t` by value, and a computed `filter` gathers only the columns its
//! result is read by value for, leaving zeros in the others. So the pass
//! also states what the run reads of each stored dataset
//! ([`StoredReads`]): the sample input need only hold those columns'
//! values.

use crate::ast::{BinOp, UnOp};
use crate::builtins::KernelCtx;
use crate::bytecode::{Instr, LoweredProgram};
use crate::error::Result;
use crate::matrix::Matrix;
use crate::table::{Column, Table};
use crate::value::{ArrayVal, BoolArrayVal, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The type and sizes of a value: all a placeholder keeps, and all a
/// shape-only cost reads.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// A table of `rows` materialized rows standing for `logical_rows`,
    /// with these columns in name order.
    Table {
        columns: Vec<(String, ColumnShape)>,
        rows: usize,
        logical_rows: u64,
    },
}

/// A table column's type: all a placeholder column keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnShape {
    /// 64-bit floats.
    F64,
    /// Codes into this dictionary.
    Dict(Arc<Vec<String>>),
}

impl ColumnShape {
    /// The type of `column`.
    pub(crate) fn of(column: &Column) -> ColumnShape {
        match column {
            Column::F64(_) => ColumnShape::F64,
            Column::Dict { dict, .. } => ColumnShape::Dict(Arc::clone(dict)),
        }
    }
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

    /// `t`'s columns at `rows` materialized rows standing for
    /// `logical_rows`.
    pub(crate) fn table(t: &Table, rows: usize, logical_rows: u64) -> Shape {
        let columns = t
            .columns()
            .map(|(name, column)| (name.to_owned(), ColumnShape::of(column)))
            .collect();
        Shape::Table {
            columns,
            rows,
            logical_rows,
        }
    }

    /// The logical length of an array or mask shape (1 for a scalar, the
    /// logical cell count for a matrix), as [`Value::logical_elems`].
    pub(crate) fn logical_len(&self) -> u64 {
        match *self {
            Shape::Num | Shape::Bool => 1,
            Shape::Array { logical, .. } | Shape::BoolArray { logical, .. } => logical,
            Shape::Matrix {
                logical_rows,
                logical_cols,
                ..
            } => logical_rows * logical_cols,
            Shape::Table { logical_rows, .. } => logical_rows,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Charge {
    pub(crate) shape: Shape,
    pub(crate) ops: u64,
}

impl Charge {
    pub(crate) fn new(shape: Shape, ops: u64) -> Self {
        Charge { shape, ops }
    }
}

/// A kernel's shape-only charge, given its row's name, the arguments its
/// row admitted and the evaluator's context: shape errors exactly as the
/// kernel raises them, reading the values of its by-value arguments only.
/// The real kernel prices itself with it.
pub(crate) type ShapeFn = for<'a> fn(&'static str, &[Value], &KernelCtx<'a>) -> Result<Charge>;

/// Zero buffers, one per element type and length, made on first use and
/// shared by every value they stand in for: a costs-only run's
/// placeholders, a computed `filter`'s unread columns and a sample
/// input's undrawn columns. Each keeps the type and sizes of the value it
/// replaces, so every size and cost is the one the real value gives.
#[derive(Debug, Default)]
pub struct Placeholders {
    zeros: BTreeMap<usize, Arc<Vec<f64>>>,
    falses: BTreeMap<usize, Arc<Vec<bool>>>,
    codes: BTreeMap<usize, Arc<Vec<u32>>>,
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
            Shape::Table {
                columns,
                rows,
                logical_rows,
            } => {
                let columns = columns
                    .into_iter()
                    .map(|(name, shape)| (name, self.column(shape, rows)))
                    .collect();
                Value::Table(Table::with_logical_rows(columns, logical_rows)?)
            }
        })
    }

    /// A column of `len` zeros (zero codes into its dictionary) of type
    /// `shape`.
    pub fn column(&mut self, shape: ColumnShape, len: usize) -> Column {
        match shape {
            ColumnShape::F64 => Column::F64(Self::zeroed(&mut self.zeros, len)),
            ColumnShape::Dict(dict) => Column::Dict {
                codes: Self::zeroed(&mut self.codes, len),
                dict,
            },
        }
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

/// What a costs-only run reads by value of one value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Read {
    /// Its type and sizes only.
    #[default]
    Shape,
    /// The values of these columns of a table; the other columns' shapes.
    Columns(BTreeSet<String>),
    /// Every value.
    Whole,
}

impl Read {
    /// Whether any value is read.
    fn by_value(&self) -> bool {
        *self != Read::Shape
    }

    /// Whether column `name`'s values are read.
    fn column(&self, name: &str) -> bool {
        match self {
            Read::Shape => false,
            Read::Columns(names) => names.contains(name),
            Read::Whole => true,
        }
    }

    /// Adds `other`'s reads to these.
    fn join(&mut self, other: Read) {
        *self = match (std::mem::take(self), other) {
            (Read::Whole, _) | (_, Read::Whole) => Read::Whole,
            (Read::Shape, read) | (read, Read::Shape) => read,
            (Read::Columns(mut names), Read::Columns(more)) => {
                names.extend(more);
                Read::Columns(names)
            }
        };
    }
}

/// What a costs-only run reads by value of each stored dataset: of a table,
/// the columns its computed lines read by value; of any other value, all
/// of it or nothing. A dataset no storage read names is read by shape only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredReads {
    /// Per dataset a storage read names; `None` when one names its dataset
    /// with a computed value, and every dataset is read whole.
    datasets: Option<BTreeMap<String, Read>>,
}

impl StoredReads {
    /// Every value of every dataset: what a run computing every line reads.
    #[must_use]
    pub fn every() -> Self {
        StoredReads { datasets: None }
    }

    /// Whether column `column` of dataset `dataset` is read by value.
    #[must_use]
    pub fn column(&self, dataset: &str, column: &str) -> bool {
        self.datasets.as_ref().is_none_or(|datasets| {
            datasets
                .get(dataset)
                .is_some_and(|read| read.column(column))
        })
    }
}

/// The operators and calls of a lowered program a costs-only run must
/// compute, the columns its computed `filter`s gather, and what it reads
/// of storage; every other operator and call is charged from its
/// operands' shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Demand {
    /// Per instruction: computed (loads, copies and guards always are).
    computes: Vec<bool>,
    /// Per instruction: for a computed call whose table result is read by
    /// value in some columns only, those columns.
    columns: Vec<Option<BTreeSet<String>>>,
    stored: StoredReads,
}

impl Demand {
    /// The backward pass. An instruction reads an operand by value when
    /// its own result is read by value — that result is then computed, from
    /// every operand's value — or when the operand is one its operator or
    /// kernel declares by value. Two calls pass a read of some columns of
    /// their result on as column reads of their table argument: `col`
    /// reads the one column its constant name argument names, and `filter`
    /// the columns its result is read in. A storage read's result read is
    /// what the run reads of the dataset its constant name argument names.
    /// A call is computed when its result is read by value or its kernel
    /// has no shape-only charge; an operator only when its result is read
    /// by value. The run's final values are read by nothing.
    #[must_use]
    pub fn of(lowered: &LoweredProgram) -> Demand {
        let names = constant_names(lowered);
        // What is read by value of the value a slot holds at this point.
        let mut read = vec![Read::Shape; usize::from(lowered.n_slots)];
        let mut computes = vec![true; lowered.instrs.len()];
        let mut columns = vec![None; lowered.instrs.len()];
        let mut stored: Option<BTreeMap<String, Read>> = Some(BTreeMap::new());
        for (pc, instr) in lowered.instrs.iter().enumerate().rev() {
            let dst = match instr {
                Instr::Guard { .. } => continue,
                Instr::Const { dst, .. }
                | Instr::Copy { dst, .. }
                | Instr::Unary { dst, .. }
                | Instr::Binary { dst, .. }
                | Instr::Call { dst, .. } => usize::from(*dst),
            };
            // Walking backward, this write ends the value the later reads
            // saw; the operands, even `dst` itself, hold earlier values.
            let needed = std::mem::take(&mut read[dst]);
            let by_value = needed.by_value();
            let operands: Vec<(u16, Read)> = match instr {
                Instr::Guard { .. } | Instr::Const { .. } => Vec::new(),
                // A copy is read as its source.
                Instr::Copy { src, .. } => vec![(*src, needed)],
                Instr::Unary { src, .. } => {
                    vec![(*src, whole_if(by_value || UnOp::BY_VALUE.contains(&0)))]
                }
                Instr::Binary { lhs, rhs, .. } => vec![
                    (*lhs, whole_if(by_value || BinOp::BY_VALUE.contains(&0))),
                    (*rhs, whole_if(by_value || BinOp::BY_VALUE.contains(&1))),
                ],
                Instr::Call {
                    kernel,
                    args_start,
                    args_len,
                    ..
                } => {
                    if kernel.reads_storage() {
                        match (names[pc], &mut stored) {
                            (Some(name), Some(datasets)) => datasets
                                .entry(name.to_owned())
                                .or_default()
                                .join(needed.clone()),
                            (None, _) => stored = None,
                            (Some(_), None) => {}
                        }
                    }
                    // What a by-value read of the result reads of the
                    // first argument: for `col` and `filter`, a table.
                    let first = if !by_value {
                        Read::Shape
                    } else if kernel.takes_a_column() {
                        names[pc].map_or(Read::Whole, |name| {
                            Read::Columns(BTreeSet::from([name.to_owned()]))
                        })
                    } else if kernel.keeps_columns() {
                        if let Read::Columns(names) = &needed {
                            columns[pc] = Some(names.clone());
                        }
                        needed
                    } else {
                        Read::Whole
                    };
                    let start = *args_start as usize;
                    let args = &lowered.arg_pool[start..start + usize::from(*args_len)];
                    let reads = args.iter().enumerate().map(|(i, slot)| {
                        let read = if kernel.reads_by_value(i) {
                            Read::Whole
                        } else if i == 0 {
                            first.clone()
                        } else {
                            whole_if(by_value)
                        };
                        (*slot, read)
                    });
                    reads.collect()
                }
            };
            computes[pc] = match instr {
                Instr::Unary { .. } | Instr::Binary { .. } => by_value,
                Instr::Call { kernel, .. } => by_value || !kernel.charges_from_shapes(),
                _ => true,
            };
            for (slot, operand) in operands {
                read[usize::from(slot)].join(operand);
            }
        }
        Demand {
            computes,
            columns,
            stored: StoredReads { datasets: stored },
        }
    }

    /// Whether instruction `pc` is computed.
    pub(crate) fn computes(&self, pc: usize) -> bool {
        self.computes[pc]
    }

    /// The columns computed call `pc` gathers of its table result, when
    /// not all of them.
    pub(crate) fn columns(&self, pc: usize) -> Option<&BTreeSet<String>> {
        self.columns[pc].as_ref()
    }

    /// What the run reads by value of each stored dataset.
    #[must_use]
    pub fn stored(&self) -> &StoredReads {
        &self.stored
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

/// `Whole` when `by_value`, else `Shape`.
fn whole_if(by_value: bool) -> Read {
    if by_value {
        Read::Whole
    } else {
        Read::Shape
    }
}

/// Per instruction, the string constant a call's name argument holds (the
/// column `col` takes, the dataset a storage read reads) when its slot was
/// last written by a constant load or a copy of one.
fn constant_names(lowered: &LoweredProgram) -> Vec<Option<&str>> {
    let mut held: Vec<Option<&str>> = vec![None; usize::from(lowered.n_slots)];
    lowered
        .instrs
        .iter()
        .map(|instr| match instr {
            Instr::Const { dst, idx } => {
                held[usize::from(*dst)] = lowered.consts[usize::from(*idx)].as_str().ok();
                None
            }
            Instr::Copy { dst, src } => {
                held[usize::from(*dst)] = held[usize::from(*src)];
                None
            }
            Instr::Guard { .. } => None,
            Instr::Unary { dst, .. } | Instr::Binary { dst, .. } => {
                held[usize::from(*dst)] = None;
                None
            }
            Instr::Call {
                dst,
                kernel,
                args_start,
                args_len,
                ..
            } => {
                let start = *args_start as usize;
                let args = &lowered.arg_pool[start..start + usize::from(*args_len)];
                let name_arg = if kernel.takes_a_column() {
                    args.get(1)
                } else if kernel.reads_storage() {
                    args.first()
                } else {
                    None
                };
                let name = name_arg.and_then(|slot| held[usize::from(*slot)]);
                held[usize::from(*dst)] = None;
                name
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::Storage;
    use crate::bytecode::Vm;
    use crate::lower::lower;
    use crate::parser::parse;

    /// `v`, and a table `t` whose columns `reads` does not read hold
    /// zeros.
    fn storage(reads: &StoredReads) -> Storage {
        let mut st = Storage::new();
        let v: Vec<f64> = (0..64).map(|i| f64::from(i % 10)).collect();
        st.insert("v", Value::Array(ArrayVal::with_logical(v, 1_000_000)));
        let read = |name: &str| reads.column("t", name);
        let f64s = |name: &str, f: fn(u32) -> f64| {
            let data = (0..64).map(|i| if read(name) { f(i) } else { 0.0 });
            (name.to_owned(), Column::F64(Arc::new(data.collect())))
        };
        let codes = (0..64).map(|i| if read("kind") { i % 3 } else { 0 });
        let kind = Column::Dict {
            codes: Arc::new(codes.collect()),
            dict: Arc::new(vec!["A".into(), "B".into(), "C".into()]),
        };
        let columns = vec![
            f64s("x", |i| f64::from(i % 10)),
            f64s("y", |i| f64::from(i % 7) - 3.0),
            ("kind".to_owned(), kind),
        ];
        let t = Table::with_logical_rows(columns, 640_000).expect("table");
        st.insert("t", Value::Table(t));
        st
    }

    /// The lines a costs-only run computes, by target, and its records
    /// over the storage its demand reads against a run computing
    /// everything over the whole storage.
    fn computed(src: &str) -> Vec<(String, bool)> {
        let program = parse(src).expect("parses");
        let lowered = lower(&program).expect("lowers");
        let demand = Demand::of(&lowered);
        let all = Vm::new(&lowered, &storage(&StoredReads::every())).run();
        let projected = storage(demand.stored());
        let costs_only = Vm::new(&lowered, &projected).costs_only(&demand).run();
        assert_eq!(costs_only, all, "{src}");
        let targets = program.lines().iter().map(|l| l.target.clone());
        targets.zip(demand.computed_lines(&lowered)).collect()
    }

    /// The columns of `t` `src`'s costs-only run reads by value.
    fn columns_read(src: &str) -> Vec<&'static str> {
        let lowered = lower(&parse(src).expect("parses")).expect("lowers");
        let demand = Demand::of(&lowered);
        let stored = demand.stored();
        ["kind", "x", "y"]
            .into_iter()
            .filter(|c| stored.column("t", c))
            .collect()
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
        // Read by value, `s` computes from every operand: `y` too. The
        // grouped sums are charged from `s`'s groups.
        let src = format!("{src}k = group_sum(s, s)\n");
        let expected = [
            ("a", true),
            ("b", true),
            ("m", true),
            ("y", true),
            ("s", true),
            ("total", false),
            ("k", false),
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
        let expected = [("a", true), ("a", true), ("k", false)];
        assert_eq!(computed(src), lines(&expected));
    }

    #[test]
    fn a_skipped_line_raises_the_errors_its_kernel_would() {
        let src = "a = scan('v')\nw = a * 2\nb = sum(w)\nc = dot(a, b)\n";
        let program = parse(src).expect("parses");
        let lowered = lower(&program).expect("lowers");
        let demand = Demand::of(&lowered);
        let st = storage(&StoredReads::every());
        let all = Vm::new(&lowered, &st).run().unwrap_err();
        let costs_only = Vm::new(&lowered, &st)
            .costs_only(&demand)
            .run()
            .unwrap_err();
        assert_eq!(costs_only, all);
        assert!(all.to_string().contains("expected array"), "{all}");
    }

    #[test]
    fn a_table_is_read_by_value_column_by_column() {
        // `x` decides the mask, `kind` the groups; `y` is summed, so read
        // by shape, as is every column of `g`, whose sum reads its sizes.
        let src = "t = scan('t')\nx = col(t, 'x')\nm = x > 4\nf = filter(t, m)\n\
                   k = col(f, 'kind')\ny = col(f, 'y')\ns = group_sum(k, y)\n\
                   g = filter(t, m)\nn = len(g)\n";
        assert_eq!(
            computed(src),
            lines(&[
                ("t", true),
                ("x", true),
                ("m", true),
                ("f", true),
                ("k", true),
                ("y", true),
                ("s", false),
                ("g", false),
                ("n", false),
            ])
        );
        assert_eq!(columns_read(src), ["kind", "x"]);
        // The computed filter gathers `kind` alone.
        let lowered = lower(&parse(src).expect("parses")).expect("lowers");
        let demand = Demand::of(&lowered);
        let gathered: Vec<Vec<&str>> = (0..lowered.instrs.len())
            .filter_map(|pc| demand.columns(pc))
            .map(|names| names.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(gathered, [["kind"]]);
    }

    #[test]
    fn a_column_named_by_no_constant_reads_every_column() {
        // A copy is read as its source, and a column named through a
        // variable is still one column.
        let src = "t = scan('t')\nu = t\nc = 'y'\ny = col(u, c)\nk = group_sum(y, y)\n";
        assert_eq!(columns_read(src), ["y"]);
        // A name no constant holds reads the whole table, through the
        // filter that kept its rows.
        let src = "t = scan('t')\nm = col(t, 'x') > 4\nf = filter(t, m)\n\
                   k = group_sum(col(f, q), col(f, 'y'))\n";
        assert_eq!(columns_read(src), ["kind", "x", "y"]);
        // Nothing read by value: no column.
        assert!(columns_read("t = scan('t')\nn = len(t)\n").is_empty());
        // A dataset named by no constant: every column of every dataset.
        let lowered = lower(&parse("t = scan(q)\n").expect("parses")).expect("lowers");
        assert_eq!(Demand::of(&lowered).stored(), &StoredReads::every());
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
