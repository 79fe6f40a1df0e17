//! Static type inference and the redundant-memory-copy elimination pass.
//!
//! ActivePy removes Python's library-boundary buffer copies by placing
//! values in mutable shared memory and, "if ActivePy can determine the
//! target type of memory objects", producing results directly in the
//! consumer's layout (§III-C0c). The enabling analysis is a static type
//! pass: a copy is eliminable only where the value's type is known at
//! code-generation time.
//!
//! `scan(...)` results are dynamically typed (they depend on what is in
//! storage), so programs that consume stored data can only be fully
//! optimized *after* the sampling phase has observed the dataset types —
//! exactly the ActivePy pipeline. [`infer_types`] therefore accepts type
//! seeds for datasets, and [`eliminable_lines`] reports which lines' copies
//! the code generator may remove.

use crate::ast::{BinOp, Expr, Program, UnOp};
use crate::builtins::{kernel_id, KernelId, ResultType};
use crate::value::Value;
use std::collections::BTreeMap;

/// The static type lattice (flat, with `Unknown` as bottom). The
/// discriminant is the type's one-byte tag wherever a type is written or
/// hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum StaticType {
    /// Scalar number.
    Num = 0,
    /// Scalar boolean.
    Bool = 1,
    /// String.
    Str = 2,
    /// Numeric array.
    Array = 3,
    /// Boolean mask.
    BoolArray = 4,
    /// Columnar table.
    Table = 5,
    /// Dense matrix.
    Matrix = 6,
    /// CSR matrix.
    Csr = 7,
    /// Forest model.
    Forest = 8,
    /// Wire-format encoded bulk data (not yet decoded).
    Encoded = 10,
    /// Not statically determinable.
    Unknown = 9,
}

impl StaticType {
    /// Every static type.
    pub const ALL: [StaticType; 11] = [
        StaticType::Num,
        StaticType::Bool,
        StaticType::Str,
        StaticType::Array,
        StaticType::BoolArray,
        StaticType::Table,
        StaticType::Matrix,
        StaticType::Csr,
        StaticType::Forest,
        StaticType::Encoded,
        StaticType::Unknown,
    ];

    /// The type's one-byte tag.
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The type whose tag is `code`, or an error naming the unknown tag.
    pub fn from_code(code: u8) -> Result<StaticType, String> {
        let found = Self::ALL.into_iter().find(|t| t.code() == code);
        found.ok_or_else(|| format!("unknown static type tag {code}"))
    }

    /// The type's name in diagnostics: `expected array, got num`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            StaticType::Num => "num",
            StaticType::Bool => "bool",
            StaticType::Str => "str",
            StaticType::Array => "array",
            StaticType::BoolArray => "boolarray",
            StaticType::Table => "table",
            StaticType::Matrix => "matrix",
            StaticType::Csr => "csr",
            StaticType::Forest => "forest",
            StaticType::Encoded => "encoded",
            StaticType::Unknown => "unknown",
        }
    }

    /// The type of a runtime value: what sampling observes a stored
    /// dataset to be.
    #[must_use]
    pub fn of(value: &Value) -> StaticType {
        match value {
            Value::Num(_) => StaticType::Num,
            Value::Bool(_) => StaticType::Bool,
            Value::Str(_) => StaticType::Str,
            Value::Array(_) => StaticType::Array,
            Value::BoolArray(_) => StaticType::BoolArray,
            Value::Table(_) => StaticType::Table,
            Value::Matrix(_) => StaticType::Matrix,
            Value::Csr(_) => StaticType::Csr,
            Value::Forest(_) => StaticType::Forest,
            Value::Encoded(_) => StaticType::Encoded,
        }
    }

    /// Whether values of this type are bulk (their copies cost bandwidth).
    #[must_use]
    pub fn is_bulk(self) -> bool {
        matches!(
            self,
            StaticType::Array
                | StaticType::BoolArray
                | StaticType::Table
                | StaticType::Matrix
                | StaticType::Csr
                | StaticType::Forest
                | StaticType::Encoded
        )
    }
}

/// Dataset-name → type seeds obtained from sampling runs.
pub type DatasetTypes = BTreeMap<String, StaticType>;

/// Infers the static type of every line's target.
///
/// `datasets` supplies the types of `scan` results (learned during
/// sampling); without a seed a `scan` is `Unknown` and unknownness
/// propagates.
#[must_use]
pub fn infer_types(program: &Program, datasets: &DatasetTypes) -> Vec<StaticType> {
    let mut env: BTreeMap<&str, StaticType> = BTreeMap::new();
    let mut out = Vec::with_capacity(program.len());
    for line in program.lines() {
        let ty = infer_expr(&line.expr, &env, datasets);
        env.insert(line.target.as_str(), ty);
        out.push(ty);
    }
    out
}

fn infer_expr(
    expr: &Expr,
    env: &BTreeMap<&str, StaticType>,
    datasets: &DatasetTypes,
) -> StaticType {
    match expr {
        Expr::Num(_) => StaticType::Num,
        Expr::Str(_) => StaticType::Str,
        Expr::Ident(name) => env
            .get(name.as_str())
            .copied()
            .unwrap_or(StaticType::Unknown),
        Expr::Unary { op, expr } => {
            let t = infer_expr(expr, env, datasets);
            match op {
                UnOp::Neg => t,
                UnOp::Not => t,
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lt = infer_expr(lhs, env, datasets);
            let rt = infer_expr(rhs, env, datasets);
            if lt == StaticType::Unknown || rt == StaticType::Unknown {
                return StaticType::Unknown;
            }
            let any_array = lt == StaticType::Array || rt == StaticType::Array;
            let any_mask = lt == StaticType::BoolArray || rt == StaticType::BoolArray;
            if op.is_comparison() {
                if any_array {
                    StaticType::BoolArray
                } else {
                    StaticType::Bool
                }
            } else {
                match op {
                    BinOp::And | BinOp::Or => {
                        if any_mask {
                            StaticType::BoolArray
                        } else {
                            StaticType::Bool
                        }
                    }
                    _ => {
                        if any_array {
                            StaticType::Array
                        } else {
                            StaticType::Num
                        }
                    }
                }
            }
        }
        Expr::Call { name, args } => {
            let arg_types: Vec<StaticType> =
                args.iter().map(|a| infer_expr(a, env, datasets)).collect();
            builtin_return_type(name, args, &arg_types, datasets)
        }
    }
}

fn builtin_return_type(
    name: &str,
    args: &[Expr],
    arg_types: &[StaticType],
    datasets: &DatasetTypes,
) -> StaticType {
    match kernel_id(name).map(KernelId::result_type) {
        Some(ResultType::Fixed(ty)) => ty,
        Some(ResultType::FirstArg) => arg_types.first().copied().unwrap_or(StaticType::Unknown),
        Some(ResultType::Stored) => stored_type(args, datasets),
        None => StaticType::Unknown,
    }
}

/// The seeded type of the dataset a storage read's first argument names:
/// `Unknown` unless it is a string literal with a seed.
fn stored_type(args: &[Expr], datasets: &DatasetTypes) -> StaticType {
    match args.first() {
        Some(Expr::Str(ds)) => datasets.get(ds).copied().unwrap_or(StaticType::Unknown),
        _ => StaticType::Unknown,
    }
}

/// Which lines the code generator may apply copy elimination to: every
/// boundary value on the line (inputs read and the value produced) has a
/// known static type.
#[must_use]
pub fn eliminable_lines(program: &Program, datasets: &DatasetTypes) -> Vec<bool> {
    let types = infer_types(program, datasets);
    let mut env: BTreeMap<&str, StaticType> = BTreeMap::new();
    let mut out = Vec::with_capacity(program.len());
    for (line, ty) in program.lines().iter().zip(&types) {
        let inputs_known = line
            .inputs()
            .all(|(name, _)| env.get(name).is_some_and(|t| *t != StaticType::Unknown));
        let scan_known = !line.accesses_storage() || scan_types_known(&line.expr, datasets);
        out.push(inputs_known && scan_known && *ty != StaticType::Unknown);
        env.insert(line.target.as_str(), *ty);
    }
    out
}

fn scan_types_known(expr: &Expr, datasets: &DatasetTypes) -> bool {
    match expr {
        Expr::Num(_) | Expr::Str(_) | Expr::Ident(_) => true,
        Expr::Call { name, args } => {
            let self_ok = !kernel_id(name).is_some_and(KernelId::reads_storage)
                || stored_type(args, datasets) != StaticType::Unknown;
            self_ok && args.iter().all(|a| scan_types_known(a, datasets))
        }
        Expr::Binary { lhs, rhs, .. } => {
            scan_types_known(lhs, datasets) && scan_types_known(rhs, datasets)
        }
        Expr::Unary { expr, .. } => scan_types_known(expr, datasets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const PROG: &str = "\
t = scan('lineitem')
q = col(t, 'qty')
m = q < 24
f = filter(t, m)
s = sum(col(f, 'price'))
";

    #[test]
    fn every_tag_reads_back_as_its_type() {
        for t in StaticType::ALL {
            assert_eq!(StaticType::from_code(t.code()), Ok(t), "{t:?}");
        }
        // The warm file's numbering (`ISPWARM2`'s dataset types).
        let codes = StaticType::ALL.map(StaticType::code);
        assert_eq!(codes, [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9]);
        assert!(StaticType::from_code(11).is_err());
    }

    fn seeds() -> DatasetTypes {
        let mut d = DatasetTypes::new();
        d.insert("lineitem".into(), StaticType::Table);
        d
    }

    #[test]
    fn inference_with_seeds_resolves_everything() {
        let p = parse(PROG).expect("parse");
        let types = infer_types(&p, &seeds());
        assert_eq!(
            types,
            vec![
                StaticType::Table,
                StaticType::Array,
                StaticType::BoolArray,
                StaticType::Table,
                StaticType::Num,
            ]
        );
    }

    #[test]
    fn inference_without_seeds_propagates_unknown() {
        let p = parse(PROG).expect("parse");
        let types = infer_types(&p, &DatasetTypes::new());
        assert_eq!(types[0], StaticType::Unknown);
        // `col` has a fixed Array return type regardless of its input.
        assert_eq!(types[1], StaticType::Array);
        // But the comparison over it is still known.
        assert_eq!(types[2], StaticType::BoolArray);
    }

    #[test]
    fn eliminable_requires_seeds_for_scan_lines() {
        let p = parse(PROG).expect("parse");
        let without = eliminable_lines(&p, &DatasetTypes::new());
        assert!(!without[0], "scan of unseeded dataset is not eliminable");
        assert!(!without[1], "consumer of unknown-typed t is not eliminable");
        let with = eliminable_lines(&p, &seeds());
        assert_eq!(
            with,
            vec![true; 5],
            "all lines eliminable once types are known"
        );
    }

    #[test]
    fn arithmetic_type_rules() {
        let p = parse("a = 1 + 2\nb = a < 3\nc = b and b\n").expect("parse");
        let types = infer_types(&p, &DatasetTypes::new());
        assert_eq!(
            types,
            vec![StaticType::Num, StaticType::Bool, StaticType::Bool]
        );
    }

    #[test]
    fn array_arithmetic_promotes() {
        let mut seeds = DatasetTypes::new();
        seeds.insert("v".into(), StaticType::Array);
        let p = parse("a = scan('v')\nb = a * 2\nm = b >= 1\n").expect("parse");
        let types = infer_types(&p, &seeds);
        assert_eq!(types[1], StaticType::Array);
        assert_eq!(types[2], StaticType::BoolArray);
    }

    #[test]
    fn unknown_variable_is_unknown_type() {
        let p = parse("a = zzz + 1\n").expect("parse");
        let types = infer_types(&p, &DatasetTypes::new());
        assert_eq!(types[0], StaticType::Unknown);
        assert_eq!(eliminable_lines(&p, &DatasetTypes::new()), vec![false]);
    }

    #[test]
    fn bulk_classification() {
        assert!(StaticType::Table.is_bulk());
        assert!(StaticType::Csr.is_bulk());
        assert!(!StaticType::Num.is_bulk());
        assert!(!StaticType::Str.is_bulk());
    }
}
