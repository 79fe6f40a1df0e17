//! Sampling computes only what a sampled cost reads: a line whose value no
//! cost reads by value is charged from its arguments' shapes and leaves a
//! placeholder, and a sample input is drawn for its value-read columns
//! alone. Against sample runs that compute every line over whole inputs —
//! one plain `Vm` run per scale — the reports must be equal, and the
//! errors the same text on the same line: for every registered program,
//! whose plans must then fingerprint alike, and for random programs over
//! every stored type, one draw in eight ignoring the types, so skipped
//! lines raise the errors computed ones do.

mod common;

use activepy::sampling::{paper_scales, run_sampling, InputSource};
use activepy::{plan_fingerprint, ActivePy};
use alang::shape::{Demand, StoredReads};
use alang::table::Column;
use alang::value::ArrayVal;
use alang::{LangError, Storage, Value};
use common::contract::{sample_by_lines, sampled, Case, SAMPLING};
use common::programs::{Programs, KEYS};
use common::{datasets, source, Scaled};
use csd_sim::SystemConfig;
use std::collections::BTreeMap;

#[test]
fn every_registered_report_is_the_one_computing_every_line_gives() {
    // The lines charged from shapes alone: 56 of the 137 registered.
    let charged_from_shapes: BTreeMap<&str, &[&str]> = BTreeMap::from([
        (
            "blackscholes",
            &[
                "live", "rt", "sq", "d1", "d2", "nd1", "nd2", "disc", "price", "avg",
            ][..],
        ),
        ("KMeans", &["c1", "spread"]),
        ("LightGBM", &["hits", "pos", "avg"]),
        ("MatrixMul", &["y", "norm"]),
        ("MixedGEMM", &["y", "g", "g2", "g3", "trace"]),
        ("PageRank", &["r1", "r2", "r3", "top"]),
        (
            "TPC-H-1",
            &[
                "sum_qty",
                "sum_base",
                "dprice",
                "sum_disc",
                "charge",
                "sum_charge",
                "avg_disc",
            ],
        ),
        ("TPC-H-6", &["rev", "sel", "total"]),
        (
            "TPC-H-14",
            &["pm", "promo", "isp", "net", "pnet", "a", "b", "ratio"],
        ),
        ("TPC-H-6-gz", &["rev", "sel", "total"]),
        ("LogGrep", &["sel", "z", "e", "g", "score", "s", "hits"]),
        ("SparseMV", &["y", "s"]),
    ]);
    let rt = ActivePy::new();
    let config = SystemConfig::paper_default();
    let mut seen = BTreeMap::new();
    for w in isp_workloads::full_set() {
        let program = w.program().expect("parses");
        let reference = sample_by_lines(&program, &w, &paper_scales(), false).expect("samples");
        let report = run_sampling(&program, &w, &paper_scales()).expect("samples");
        assert_eq!(report, reference, "{}: sampling report", w.name());
        // The report is all a plan reads of sampling.
        let plan = rt.plan(&program, &w, &config).expect("plans");
        let full = w.storage_at(1.0);
        let from_reference = rt
            .plan_from_sampling(&program, reference, full, &config)
            .expect("plans");
        assert_eq!(
            plan_fingerprint(&plan),
            plan_fingerprint(&from_reference),
            "{}: plan",
            w.name()
        );
        let lowered = alang::lower::lower(&program).expect("lowers");
        let computed = Demand::of(&lowered).computed_lines(&lowered);
        let skipped: Vec<&str> = program
            .lines()
            .iter()
            .zip(computed)
            .filter(|(_, computed)| !computed)
            .map(|(line, _)| line.target.as_str())
            .collect();
        assert_eq!(skipped, charged_from_shapes[w.name()], "{}", w.name());
        seen.insert(w.name().to_owned(), program.len());
    }
    assert_eq!(seen.len(), charged_from_shapes.len());
    assert_eq!(seen.values().sum::<usize>(), 137);
    let charged: usize = charged_from_shapes.values().map(|lines| lines.len()).sum();
    assert_eq!(charged, 56);
}

#[test]
fn each_sample_input_is_drawn_for_its_value_read_columns() {
    // Per registered program, per stored table: the columns its sample
    // runs read by value, the only ones its generator draws. The other
    // eight programs store no table.
    let drawn: BTreeMap<&str, Vec<(&str, Vec<&str>)>> = BTreeMap::from([
        (
            "TPC-H-6",
            vec![("lineitem", vec!["discount", "quantity", "shipdate"])],
        ),
        (
            "TPC-H-1",
            vec![("lineitem", vec!["linestatus", "returnflag", "shipdate"])],
        ),
        (
            "TPC-H-14",
            vec![("lineitem", vec!["partkey", "shipdate"]), ("part", vec![])],
        ),
        ("blackscholes", vec![("options", vec!["tte", "vol"])]),
    ]);
    let tiny = paper_scales()[0];
    for w in isp_workloads::full_set() {
        let program = w.program().expect("parses");
        let lowered = alang::lower::lower(&program).expect("lowers");
        let demand = Demand::of(&lowered);
        let stored = demand.stored();
        let full = w.storage_at(tiny);
        let sampled = w.projected_storage_at(tiny, stored);
        let mut tables = Vec::new();
        for name in full.names() {
            let Ok(Value::Table(t)) = full.get(name) else {
                continue;
            };
            let read: Vec<&str> = t
                .column_names()
                .filter(|c| stored.column(name, c))
                .collect();
            // What is read is what the sample holds; the rest is zeros.
            let Ok(Value::Table(s)) = sampled.get(name) else {
                panic!("{}: `{name}` is sampled as a table", w.name());
            };
            for c in t.column_names() {
                let (column, whole) = (s.column(c).expect("kept"), t.column(c).expect("listed"));
                let zeros = match column {
                    Column::F64(v) => v.iter().all(|x| x.to_bits() == 0),
                    Column::Dict { codes, .. } => codes.iter().all(|c| *c == 0),
                };
                if read.contains(&c) {
                    assert_eq!(column, whole, "{}: `{name}.{c}`", w.name());
                } else {
                    assert!(zeros, "{}: `{name}.{c}` is not drawn", w.name());
                }
            }
            tables.push((name.to_owned(), read));
        }
        let expected: Vec<(String, Vec<&str>)> = drawn
            .get(w.name())
            .into_iter()
            .flatten()
            .map(|(name, columns)| ((*name).to_owned(), columns.clone()))
            .collect();
        assert_eq!(tables, expected, "{}", w.name());
    }
}

/// Tails that bind names and read them back through value-reading
/// kernels, so a mask bound to a name, a key column or a choice decides
/// what is computed; the last four filter the stored table `t` and read
/// some of its columns by value, the others by shape.
const TAILS: [&str; 9] = [
    "",
    "a = scan('v')\nb = scan('w')\nm = a > 2\ns = select(b, m)\nt = sum(s)\n",
    "a = scan('v')\nb = scan('w')\nk = group_sum(a, b * 2)\n",
    "a = scan('v')\nb = scan('w')\nc = a * 2\nw = where(a > 1, b, c)\nx = count(a < b)\n",
    "a = scan('v')\nb = scan('w')\ng = gather(b, abs(a))\nh = mean(g)\n",
    "a = scan('v')\nt = scan('t')\nf = filter(t, a > 2)\nx = col(f, 'x')\n\
     s = select(x, col(f, 'y') > 0)\nu = sum(s)\n",
    "d = scan('w') - 1\nt = scan('t')\nm = col(t, 'x') > 3\nf = filter(t, m)\n\
     g = group_sum(col(f, 'k'), col(f, 'y') * select(d, m))\nn = len(g)\n",
    "c = scan('v') * 2\nt = scan('t')\nu = t\nf = filter(u, col(u, 'y') < c)\nk = col(f, 'k')\n\
     g = gather(col(f, 'x'), k)\ne = exp(col(f, 'y'))\n",
    "b = scan('w')\nt = scan('t')\nk = col(t, 'k') > 0\nf = filter(t, k)\n\
     s = select(col(f, 'y'), col(f, 'x') > 4)\ng = group_sum(col(f, 'x'), col(f, 'y') + 1)\n\
     z = sum(s)\nh = filter(f, col(f, 'y') > select(b, k))\n",
];

/// Whether `e` is a shape error: operands whose lengths do not line up.
fn is_shape_error(e: &LangError) -> bool {
    let LangError::Runtime { message } = e else {
        return false;
    };
    ["length", "mismatch", "does not match", "elements, mask has"]
        .iter()
        .any(|words| message.contains(words))
}

/// [`Scaled`] with `w` one row short of the other datasets, so a line
/// reading it with them raises a shape error, whether it is computed or
/// charged from shapes.
struct ShortW<'a>(&'a Scaled);

impl InputSource for ShortW<'_> {
    fn storage_at(&self, scale: f64) -> Storage {
        short_w(self.0.storage_at(scale))
    }

    fn projected_storage_at(&self, scale: f64, reads: &StoredReads) -> Storage {
        short_w(self.0.projected_storage_at(scale, reads))
    }
}

fn short_w(mut st: Storage) -> Storage {
    let Ok(Value::Array(w)) = st.get("w") else {
        unreachable!("`w` is a stored array")
    };
    let short = w.data()[1..].to_vec();
    let w = ArrayVal::with_logical(short, w.logical_len());
    st.insert("w", Value::Array(w));
    st
}

/// Drawn programs and a tail over [`Scaled`] datasets of a drawn number of
/// rows, at least [`KEYS`] so every key is stored, `w` one row short in one
/// case in 16. The cases that stop at a shape error are counted.
#[test]
fn random_programs_sample_alike_with_every_line_computed() {
    let programs = Programs::over(&datasets(KEYS as usize, u64::from(KEYS)));
    let inputs: Vec<Scaled> = (KEYS as usize..24).map(Scaled::new).collect();
    let draws = (programs, 0usize..TAILS.len(), 0..inputs.len(), 0u32..16);
    let mut shape_errors = 0;
    SAMPLING.check(draws, |(lines, tail, n, short)| {
        let case = Case::program_only(source(&lines) + TAILS[tail]);
        let stopped = if short == 0 {
            sampled(&case, &ShortW(&inputs[n]))?
        } else {
            sampled(&case, &inputs[n])?
        };
        shape_errors += u32::from(stopped.as_ref().is_err_and(is_shape_error));
        Ok(case.ran(stopped.is_ok()))
    });
    assert_eq!(shape_errors, 27, "sampling: cases stopped by a shape error");
}
