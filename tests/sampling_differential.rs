//! Sampling computes only what a sampled cost reads: a line whose value no
//! cost reads by value is charged from its arguments' shapes and leaves a
//! placeholder, and a sample input is drawn for its value-read columns
//! alone. Against sample runs that compute every line over whole inputs —
//! one plain `Vm` run per scale — the reports must be equal, and the
//! errors the same text on the same line: for every registered program,
//! whose plans must then fingerprint alike, and for random programs over
//! stored arrays and a stored table whose lengths need not match, so
//! skipped lines raise shape errors.

mod common;

use activepy::sampling::{paper_scales, run_sampling, InputSource};
use activepy::{plan_fingerprint, ActivePy};
use alang::shape::{Demand, StoredReads};
use alang::table::{Column, Table};
use alang::{Storage, Value};
use common::contract::{sample_by_lines, sampled, Case, SAMPLING};
use common::{source, storage_with, GRAMMAR};
use csd_sim::SystemConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Binds every drawn name first, so most drawn lines read defined values.
const PRELUDE: &str = "a = scan('v')\nb = scan('w')\nc = a * 2\nd = b - 1\n";

/// Tails that read the drawn names through value-reading kernels, so a
/// mask, a key column or a choice decides what is computed; the last four
/// filter the stored table `t` and read some of its columns by value, the
/// others by shape.
const TAILS: [&str; 9] = [
    "",
    "m = a > 2\ns = select(b, m)\nt = sum(s)\n",
    "k = group_sum(a, b * 2)\n",
    "w = where(a > 1, b, c)\nx = count(a < b)\n",
    "g = gather(b, abs(a))\nh = mean(g)\n",
    "t = scan('t')\nf = filter(t, a > 2)\nx = col(f, 'x')\ns = select(x, col(f, 'y') > 0)\n\
     u = sum(s)\n",
    "t = scan('t')\nf = filter(t, col(t, 'x') > 3)\ng = group_sum(col(f, 'k'), col(f, 'y') * d)\n\
     n = len(g)\n",
    "t = scan('t')\nu = t\nf = filter(u, col(u, 'y') < c)\nk = col(f, 'k')\n\
     g = gather(col(f, 'x'), k)\ne = exp(col(f, 'y'))\n",
    "t = scan('t')\nf = filter(t, col(t, 'k') > 0)\ns = select(col(f, 'y'), col(f, 'x') > 4)\n\
     g = group_sum(col(f, 'x'), col(f, 'y') + 1)\nz = sum(s)\nh = filter(f, col(f, 'y') > b)\n",
];

/// The drawn programs' input: [`storage_with`]'s arrays and a table `t`
/// of `rows` rows — `x` cycling 0..10, `y` centred on zero and a
/// dictionary column `k` cycling its three codes — whose columns a
/// projected draw does not read hold zeros.
struct WithTable {
    len_v: u32,
    len_w: u32,
    rows: u32,
}

impl InputSource for WithTable {
    fn storage_at(&self, scale: f64) -> Storage {
        self.projected_storage_at(scale, &StoredReads::every())
    }

    fn projected_storage_at(&self, _: f64, reads: &StoredReads) -> Storage {
        let mut st = storage_with(self.len_v, self.len_w);
        let read = |column: &str| reads.column("t", column);
        let f64s = |name: &str, value: fn(u32) -> f64| {
            let data = (0..self.rows).map(|i| if read(name) { value(i) } else { 0.0 });
            (name.to_owned(), Column::F64(Arc::new(data.collect())))
        };
        let codes = (0..self.rows).map(|i| if read("k") { i % 3 } else { 0 });
        let columns = vec![
            f64s("x", |i| f64::from(i % 10)),
            f64s("y", |i| f64::from(i % 13) - 6.0),
            (
                "k".to_owned(),
                Column::Dict {
                    codes: Arc::new(codes.collect()),
                    dict: Arc::new(vec!["lo".into(), "mid".into(), "hi".into()]),
                },
            ),
        ];
        let t = Table::with_logical_rows(columns, 700_000).expect("table");
        st.insert("t", Value::Table(t));
        st
    }
}

#[test]
fn random_programs_sample_alike_with_every_line_computed() {
    let lengths = (1u32..48, 1u32..48, 1u32..48, any::<bool>());
    let draws = (GRAMMAR.lines(1..6), 0usize..TAILS.len(), lengths);
    SAMPLING.check(draws, |(lines, tail, (len_v, len_w, rows, equal))| {
        // Equal lengths half the time; unequal ones make shape errors.
        let (len_w, rows) = if equal { (len_v, len_v) } else { (len_w, rows) };
        let src = format!("{PRELUDE}{}{}", source(&lines), TAILS[tail]);
        sampled(&Case::program_only(src), &WithTable { len_v, len_w, rows })
    });
}
