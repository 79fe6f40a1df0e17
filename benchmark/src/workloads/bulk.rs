//! A registered program run line by line through the pre-lowered VM over
//! driver-built bulk inputs — the shared core of `bulk_decode` and
//! `bulk_kernels`.

use crate::spans::Spans;
use alang::{
    Interpreter, LoweredProgram, ParStatsSnapshot, ParallelPolicy, Program, Storage, Value, Vm,
};

/// What a line spends its time in. The first 14 are the kinds
/// `lang.builtins.melem_per_s.*` is reported for, in catalogue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    Compare,
    And,
    Select,
    Filter,
    Sum,
    Mean,
    Arith,
    Transcendental,
    GroupBy,
    ToCsr,
    Spmv,
    KmeansStep,
    Matmul,
    Decode,
    /// `scan`, `scan_raw`, `col`: hands out an `Arc`, moves no element.
    Access,
}

pub const KINDS: usize = 15;

/// Span names of serially executed lines, by kind.
pub const SERIAL_SPANS: [&str; KINDS] = [
    "lang.builtins.compare",
    "lang.builtins.and",
    "lang.builtins.select",
    "lang.builtins.filter",
    "lang.builtins.sum",
    "lang.builtins.mean",
    "lang.builtins.arith",
    "lang.builtins.transcendental",
    "lang.builtins.groupby",
    "lang.builtins.to_csr",
    "lang.builtins.spmv",
    "lang.builtins.kmeans_step",
    "lang.builtins.matmul",
    "lang.builtins.decode",
    "lang.builtins.access",
];

/// Span names of the same lines under the `nproc`-thread policy.
pub const PAR_SPANS: [&str; KINDS] = [
    "lang.par.compare",
    "lang.par.and",
    "lang.par.select",
    "lang.par.filter",
    "lang.par.sum",
    "lang.par.mean",
    "lang.par.arith",
    "lang.par.transcendental",
    "lang.par.groupby",
    "lang.par.to_csr",
    "lang.par.spmv",
    "lang.par.kmeans_step",
    "lang.par.matmul",
    "lang.par.decode",
    "lang.par.access",
];

/// Classifies a line by the outermost work its source names.
pub fn classify(source: &str) -> LineKind {
    let rhs = source.split_once('=').map_or(source, |(_, rhs)| rhs);
    let has = |needle: &str| rhs.contains(needle);
    if has("decode(") {
        LineKind::Decode
    } else if has("scan(") || has("scan_raw(") || has("col(") {
        LineKind::Access
    } else if has("group_sum(") {
        LineKind::GroupBy
    } else if has("filter(") {
        LineKind::Filter
    } else if has("select(") {
        LineKind::Select
    } else if has("to_csr(") {
        LineKind::ToCsr
    } else if has("spmv(") {
        LineKind::Spmv
    } else if has("kmeans_") {
        LineKind::KmeansStep
    } else if has("matmul(") {
        LineKind::Matmul
    } else if has("mean(") {
        LineKind::Mean
    } else if has("sum(") || has("count(") || has("frob(") {
        LineKind::Sum
    } else if has("erf(") || has("exp(") || has("log(") || has("sqrt(") {
        LineKind::Transcendental
    } else if has(" and ") || has(" or ") {
        LineKind::And
    } else if has("<") || has(">") {
        LineKind::Compare
    } else {
        LineKind::Arith
    }
}

/// Bit-exact equality: `==` on `f64` would call two NaNs different and
/// `0.0`/`-0.0` the same.
pub fn same_bits(a: &Value, b: &Value) -> bool {
    let bits = |xs: &[f64], ys: &[f64]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.logical_len() == y.logical_len() && bits(x.data(), y.data())
        }
        (Value::Matrix(x), Value::Matrix(y)) => {
            x.rows() == y.rows() && x.cols() == y.cols() && bits(x.data(), y.data())
        }
        _ => a == b,
    }
}

/// One program, lowered once, with the reference results of its last
/// `checked` lines from the AST interpreter — an evaluator that shares no
/// dispatch code with the VM under test.
pub struct BulkProgram {
    pub lowered: LoweredProgram,
    pub storage: Storage,
    pub kinds: Vec<LineKind>,
    /// Materialised f64 elements of the program's input.
    pub elems: u64,
    reference: Vec<(String, Value)>,
}

impl BulkProgram {
    pub fn build(
        name: &str,
        source: &str,
        storage: Storage,
        elems: u64,
        checked: usize,
    ) -> Result<Self, String> {
        let err = |e: alang::LangError| format!("{name}: {e}");
        let program: Program = alang::parser::parse(source).map_err(err)?;
        let lowered = alang::lower::lower(&program).map_err(err)?;
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).map_err(err)?;
        let lines = program.lines();
        let reference = lines[lines.len().saturating_sub(checked)..]
            .iter()
            .map(|line| {
                let value = interp
                    .var(&line.target)
                    .cloned()
                    .ok_or_else(|| format!("{name}: {} is undefined", line.target))?;
                Ok((line.target.clone(), value))
            })
            .collect::<Result<_, String>>()?;
        Ok(BulkProgram {
            lowered,
            kinds: lines.iter().map(|l| classify(&l.source)).collect(),
            storage,
            elems,
            reference,
        })
    }

    /// Runs every line under `policy`, one span per line named from
    /// `names`, and checks the results against the reference.
    pub fn run(
        &self,
        spans: &Spans,
        policy: ParallelPolicy,
        names: &[&'static str; KINDS],
    ) -> (bool, ParStatsSnapshot) {
        let mut vm = Vm::with_policy(&self.lowered, &self.storage, policy);
        for (index, kind) in self.kinds.iter().enumerate() {
            if spans
                .time(names[*kind as usize], || vm.exec_line(index))
                .is_err()
            {
                return (false, vm.par_stats());
            }
        }
        let ok = self
            .reference
            .iter()
            .all(|(var, want)| vm.var(var).is_some_and(|got| same_bits(got, want)));
        (ok, vm.par_stats())
    }

    /// Elements this program feeds to lines of each kind in one run.
    pub fn elems_by_kind(&self) -> [u64; KINDS] {
        let mut out = [0; KINDS];
        for kind in &self.kinds {
            out[*kind as usize] += self.elems;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_bulk_sources_classify_into_named_kinds() {
        let kinds = |name: &str| -> Vec<LineKind> {
            isp_workloads::by_name(name)
                .expect("registered")
                .source()
                .lines()
                .map(classify)
                .collect()
        };
        let q6 = kinds("TPC-H-6");
        assert_eq!(q6[0], LineKind::Access);
        assert_eq!(q6[2], LineKind::Compare);
        assert_eq!(q6[9], LineKind::And);
        assert_eq!(q6[11], LineKind::Arith);
        assert_eq!(q6[12], LineKind::Select);
        assert_eq!(q6[13], LineKind::Sum);
        assert!(kinds("TPC-H-6-gz").contains(&LineKind::Decode));
        assert!(kinds("TPC-H-1").contains(&LineKind::GroupBy));
        assert!(kinds("blackscholes").contains(&LineKind::Transcendental));
        assert!(kinds("blackscholes").contains(&LineKind::Filter));
        assert!(kinds("blackscholes").contains(&LineKind::Mean));
        assert_eq!(
            kinds("SparseMV"),
            [
                LineKind::Access,
                LineKind::ToCsr,
                LineKind::Access,
                LineKind::Spmv,
                LineKind::Sum
            ]
        );
        assert!(kinds("KMeans").contains(&LineKind::KmeansStep));
        assert!(kinds("MatrixMul").contains(&LineKind::Matmul));
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart_and_nans_alike() {
        assert!(same_bits(&Value::Num(f64::NAN), &Value::Num(f64::NAN)));
        assert!(!same_bits(&Value::Num(0.0), &Value::Num(-0.0)));
        assert!(same_bits(
            &Value::from(vec![1.0, 2.0]),
            &Value::from(vec![1.0, 2.0])
        ));
        assert!(!same_bits(
            &Value::from(vec![1.0, 2.0]),
            &Value::from(vec![1.0, 2.5])
        ));
    }
}
