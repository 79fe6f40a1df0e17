//! Programs drawn from the builtin table: every call's arguments are drawn
//! by the types its row in `alang::builtins::signatures()` admits, so no
//! test restates a builtin's signature.
//!
//! A well-typed draw takes each argument from a source of its type: a
//! mask from a comparison, a CSR matrix from the row yielding one
//! (`to_csr`), a string from the stored table's column names (a storage
//! read's from the names of the datasets it reads), a number from a
//! literal, and every other type from the one stored dataset of that type
//! (`common::datasets`). Any argument may also be an earlier line's value
//! of its type, a nested call or arithmetic, except a number or an array a
//! row reads by value: whether those are valid is in their values, so they
//! are [`KEYS`] and the stored keys, read from storage or from an earlier
//! line that read them. Values whose rows are the stored datasets' stay
//! readable; a line whose rows are not (a selection, a reduction, a
//! restructuring, by its row rule) is never read again, so lengths always
//! match. One draw in [`IGNORE_TYPES`] ignores all of this: each argument
//! is of a random type and reads any name, defined or not, so error parity
//! stays checked.
//!
//! Each well-typed line calls a row drawn with the draw's own rng from
//! those whose arguments have a source in the storage (no matrix builtin
//! over datasets without a matrix), half the time from those of them whose
//! values are never read again, which no argument nests; or, one line in
//! [`MASK_LINES`], binds a comparison, so a mask a later row reads by
//! value can come from a name. A line that ignores the types calls any
//! row.

use alang::builtins::{call, signatures, Arg, ResultType, RowRule, Signature};
use alang::copyelim::StaticType;
use alang::{Storage, Value};
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use std::ops::Range;

/// Assignment targets.
pub const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// The stored arrays hold the keys `0..KEYS`, and a number read by value
/// is `KEYS`: a valid index, group key and cluster assignment for any
/// `kmeans_update`.
pub const KEYS: u32 = 8;

/// One draw in this many ignores the types.
const IGNORE_TYPES: u32 = 8;

/// One well-typed line in this many binds a mask.
const MASK_LINES: u32 = 8;

/// How deep arguments nest below a line's call.
const DEPTH: u32 = 2;

/// How many lines a draw has.
const LINES: Range<usize> = 1..6;

/// What a drawn value is: its type, whether its rows are the stored
/// datasets' rows (always, for a type without rows), and whether it is the
/// stored keys, which a row may read by value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Kind {
    ty: StaticType,
    aligned: bool,
    keys: bool,
}

impl Kind {
    /// A value of type `ty` computed from others.
    fn computed(ty: StaticType, aligned: bool) -> Self {
        let keys = false;
        Kind { ty, aligned, keys }
    }
}

/// Whether values of `ty` have rows that must line up.
fn has_rows(ty: StaticType) -> bool {
    use StaticType::*;
    matches!(ty, Array | BoolArray | Table | Matrix | Csr | Encoded)
}

/// Every type a value can have.
fn value_types() -> impl Iterator<Item = StaticType> {
    StaticType::ALL
        .into_iter()
        .filter(|ty| *ty != StaticType::Unknown)
}

/// Picks one of `items`.
fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Whether a call's output keeps the stored datasets' rows, by its row
/// rule and whether any argument after its first has rows.
fn keeps_rows(rule: RowRule, rest_have_rows: bool) -> bool {
    match rule {
        RowRule::Elementwise | RowRule::FirstOnly | RowRule::ModelThenRows => true,
        RowRule::SelectFirst => !rest_have_rows,
        RowRule::Fence => false,
    }
}

/// A stored dataset a storage-read row reads, and the type it yields.
struct Read {
    row: &'static str,
    dataset: String,
    ty: StaticType,
}

impl Read {
    /// The read as source, `scan('v')`.
    fn text(&self) -> String {
        format!("{}('{}')", self.row, self.dataset)
    }
}

/// The strategy: programs of one to five lines, each a drawn target and
/// expression, over one storage.
pub struct Programs {
    rows: Vec<Signature>,
    /// The rows a well-typed draw can call, in table order.
    typed_rows: Vec<Signature>,
    /// Those of them whose values are never read again.
    line_rows: Vec<Signature>,
    /// Every read a storage-read row can make, in table and storage order.
    reads: Vec<Read>,
    /// The stored table's column names.
    columns: Vec<String>,
    /// Whether some draws ignore the types.
    ignore_types: bool,
}

impl Programs {
    /// Programs over `storage`, one draw in [`IGNORE_TYPES`] ignoring the
    /// types.
    pub fn over(storage: &Storage) -> Self {
        let rows: Vec<Signature> = signatures().collect();
        let mut reads = Vec::new();
        let mut columns = Vec::new();
        for row in rows.iter().filter(|row| row.result == ResultType::Stored) {
            for dataset in storage.names() {
                let Ok(read) = call(row.name, &[Value::Str(dataset.into())], storage) else {
                    continue;
                };
                if let Value::Table(t) = &read.value {
                    columns.extend(t.column_names().map(str::to_owned));
                }
                let (row, dataset) = (row.name, dataset.to_owned());
                let ty = StaticType::of(&read.value);
                reads.push(Read { row, dataset, ty });
            }
        }
        let mut programs = Programs {
            rows,
            typed_rows: Vec::new(),
            line_rows: Vec::new(),
            reads,
            columns,
            ignore_types: true,
        };
        programs.typed_rows = (programs.rows.iter())
            .filter(|row| programs.callable(row))
            .copied()
            .collect();
        programs.line_rows = (programs.typed_rows.iter())
            .filter(|row| !value_types().any(|ty| programs.yields(row, ty)))
            .copied()
            .collect();
        programs
    }

    /// As [`Self::over`], every draw well typed.
    pub fn well_typed(mut self) -> Self {
        self.ignore_types = false;
        self
    }

    /// Whether a well-typed draw has a source of `ty`.
    fn has(&self, ty: StaticType) -> bool {
        match ty {
            StaticType::Num => true,
            StaticType::Str => !self.columns.is_empty(),
            StaticType::BoolArray => self.has(StaticType::Array),
            StaticType::Csr => self.producer(ty).is_some_and(|row| self.callable(row)),
            _ => self.reads.iter().any(|read| read.ty == ty),
        }
    }

    /// The row that yields `ty`: how a draw makes a CSR matrix, which no
    /// dataset stores (`to_csr`).
    fn producer(&self, ty: StaticType) -> Option<&Signature> {
        (self.rows.iter()).find(|row| row.result == ResultType::Fixed(ty))
    }

    /// The reads storage-read row `name` can make.
    fn reads_by(&self, name: &str) -> Vec<&Read> {
        self.reads.iter().filter(|read| read.row == name).collect()
    }

    /// The types a well-typed draw can give `arg`.
    fn admitted(&self, arg: Arg) -> Vec<StaticType> {
        value_types()
            .filter(|ty| arg.admits(*ty) && self.has(*ty))
            .collect()
    }

    /// Whether a well-typed draw can call `row`.
    fn callable(&self, row: &Signature) -> bool {
        match row.result {
            ResultType::Stored => !self.reads_by(row.name).is_empty(),
            _ => row.args.iter().all(|arg| !self.admitted(*arg).is_empty()),
        }
    }

    /// A call of `row` and what it yields: its arguments drawn by type,
    /// a result of its first argument's type of type `want` when given,
    /// or, under `ignore`, each argument of a random type.
    fn call(
        &self,
        rng: &mut TestRng,
        row: &Signature,
        env: &Env,
        depth: u32,
        want: Option<StaticType>,
    ) -> (String, Kind) {
        if row.result == ResultType::Stored {
            let reads = self.reads_by(row.name);
            if env.ignore || reads.is_empty() {
                let text = format!("{}('{}')", row.name, pick(rng, &self.columns));
                return (text, Kind::computed(StaticType::Unknown, true));
            }
            let read = pick(rng, &reads);
            let keys = read.ty == StaticType::Array;
            let kind = Kind {
                ty: read.ty,
                aligned: true,
                keys,
            };
            return (read.text(), kind);
        }
        let mut args = Vec::new();
        let mut types = Vec::new();
        for (i, arg) in row.args.iter().enumerate() {
            let admitted = match want {
                _ if env.ignore => value_types().collect(),
                Some(ty) if i == 0 && row.result == ResultType::FirstArg => vec![ty],
                _ => self.admitted(*arg),
            };
            let ty = *pick(rng, &admitted);
            let by_value = row.by_value.contains(&i);
            args.push(self.arg(rng, ty, by_value, env, depth + 1));
            types.push(ty);
        }
        let ty = match row.result {
            ResultType::Fixed(ty) => ty,
            ResultType::FirstArg => types[0],
            ResultType::Stored => unreachable!("storage reads are drawn above"),
        };
        let rest_have_rows = types[1..].iter().any(|ty| has_rows(*ty));
        let aligned = keeps_rows(row.rows, rest_have_rows) || !has_rows(ty);
        (
            format!("{}({})", row.name, args.join(", ")),
            Kind::computed(ty, aligned),
        )
    }

    /// An argument of type `ty`: [`KEYS`] or the stored keys for a number
    /// or an array the row reads by value, a comparison or an earlier
    /// line's mask for a mask, any aligned value of its type otherwise.
    fn arg(
        &self,
        rng: &mut TestRng,
        ty: StaticType,
        by_value: bool,
        env: &Env,
        depth: u32,
    ) -> String {
        match ty {
            StaticType::Str => format!("'{}'", pick(rng, &self.columns)),
            StaticType::Bool => format!("({} < {})", self.num(rng), self.num(rng)),
            StaticType::BoolArray => {
                let masks = env.vars(|kind| kind.ty == ty);
                if !masks.is_empty() && rng.gen_bool(0.5) {
                    return VARS[*pick(rng, &masks)].to_owned();
                }
                const CMP: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];
                let lhs = self.arg(rng, StaticType::Array, false, env, depth);
                let rhs = if rng.gen_bool(0.5) {
                    self.arg(rng, StaticType::Array, false, env, depth)
                } else {
                    self.num(rng)
                };
                format!("({lhs} {} {rhs})", pick(rng, &CMP))
            }
            StaticType::Csr => {
                let row = self.producer(ty).expect("a row yields CSR");
                self.call(rng, row, env, depth, None).0
            }
            StaticType::Num if by_value => KEYS.to_string(),
            StaticType::Array if by_value => {
                let keys = env.vars(|kind| kind.keys);
                if keys.is_empty() || rng.gen_bool(0.5) {
                    self.leaf(rng, ty)
                } else {
                    VARS[*pick(rng, &keys)].to_owned()
                }
            }
            _ if depth > DEPTH => self.leaf(rng, ty),
            _ => self.value(rng, ty, env, depth),
        }
    }

    /// A number literal.
    fn num(&self, rng: &mut TestRng) -> String {
        let n = rng.gen_range(0u32..12);
        if rng.gen_bool(0.25) {
            format!("{n}.5")
        } else {
            n.to_string()
        }
    }

    /// The stored dataset of type `ty`, or a number; under a draw that
    /// ignores types, a name that may hold anything.
    fn leaf(&self, rng: &mut TestRng, ty: StaticType) -> String {
        if ty == StaticType::Num {
            return self.num(rng);
        }
        let reads: Vec<&Read> = self.reads.iter().filter(|read| read.ty == ty).collect();
        if reads.is_empty() {
            return VARS[rng.gen_range(0..VARS.len())].to_owned();
        }
        pick(rng, &reads).text()
    }

    /// An aligned value of type `ty`: a leaf, an earlier line's value, a
    /// nested call of a row yielding one, or arithmetic.
    fn value(&self, rng: &mut TestRng, ty: StaticType, env: &Env, depth: u32) -> String {
        let vars = env.vars(|kind| kind.ty == ty);
        let calls: Vec<&Signature> = (self.rows.iter())
            .filter(|row| row.result != ResultType::Stored && self.yields(row, ty))
            .filter(|row| env.ignore || self.callable(row))
            .collect();
        let arithmetic = matches!(ty, StaticType::Num | StaticType::Array);
        loop {
            match rng.gen_range(0..4) {
                0 => return self.leaf(rng, ty),
                1 if !vars.is_empty() => return VARS[*pick(rng, &vars)].to_owned(),
                2 if !calls.is_empty() => {
                    let row = *pick(rng, &calls);
                    return self.call(rng, row, env, depth, Some(ty)).0;
                }
                3 if arithmetic => {
                    const ARITH: [&str; 4] = ["+", "-", "*", "/"];
                    let lhs = self.arg(rng, ty, false, env, depth + 1);
                    if rng.gen_bool(0.2) {
                        return format!("-({lhs})");
                    }
                    let rhs_ty = if rng.gen_bool(0.5) {
                        ty
                    } else {
                        StaticType::Num
                    };
                    let rhs = self.arg(rng, rhs_ty, false, env, depth + 1);
                    return format!("({lhs} {} {rhs})", pick(rng, &ARITH));
                }
                _ => {}
            }
        }
    }

    /// Whether a call of `row` can yield an aligned value of type `wanted`.
    fn yields(&self, row: &Signature, wanted: StaticType) -> bool {
        let ty = match row.result {
            ResultType::Fixed(ty) => ty,
            ResultType::FirstArg if row.args[0].admits(wanted) => wanted,
            _ => return false,
        };
        let rest_have_rows = (row.args[1..].iter())
            .any(|arg| value_types().any(|ty| arg.admits(ty) && has_rows(ty)));
        ty == wanted && (keeps_rows(row.rows, rest_have_rows) || !has_rows(ty))
    }
}

/// What a draw knows of the names its earlier lines assigned.
struct Env {
    kinds: [Option<Kind>; VARS.len()],
    ignore: bool,
}

impl Env {
    /// The names holding a value that `fits` whose rows are the stored
    /// datasets'; under a draw that ignores the types, every name.
    fn vars(&self, fits: impl Fn(&Kind) -> bool) -> Vec<usize> {
        let readable = |kind: &Kind| fits(kind) && kind.aligned;
        (0..VARS.len())
            .filter(|v| self.ignore || self.kinds[*v].as_ref().is_some_and(readable))
            .collect()
    }
}

impl Strategy for Programs {
    type Value = Vec<(usize, String)>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let ignore = self.ignore_types && rng.gen_range(0..IGNORE_TYPES) == 0;
        let mut env = Env {
            kinds: [None; VARS.len()],
            ignore,
        };
        let count = rng.gen_range(LINES);
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let (expr, kind) = if ignore {
                let row = *pick(rng, &self.rows);
                self.call(rng, &row, &env, 0, None)
            } else if rng.gen_range(0..MASK_LINES) == 0 {
                let mask = StaticType::BoolArray;
                let expr = self.arg(rng, mask, false, &env, 0);
                (expr, Kind::computed(mask, true))
            } else {
                let rows = if rng.gen_bool(0.5) {
                    &self.line_rows
                } else {
                    &self.typed_rows
                };
                let row = *pick(rng, rows);
                self.call(rng, &row, &env, 0, None)
            };
            let target = rng.gen_range(0..VARS.len());
            env.kinds[target] = (!ignore).then_some(kind);
            lines.push((target, expr));
        }
        lines
    }
}
