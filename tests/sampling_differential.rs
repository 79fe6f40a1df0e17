//! Sampling computes only what a sampled cost reads: a line whose value no
//! cost reads by value is charged from its arguments' shapes and leaves a
//! placeholder. Against sample runs that compute every line — one plain
//! `Vm` run per scale — the reports must be equal, and the errors the same
//! text on the same line: for every registered program, whose plans must
//! then fingerprint alike, and for random programs over stored arrays
//! whose lengths need not match, so skipped lines raise shape errors.

mod common;

use activepy::sampling::{observe_dataset_types, paper_scales, run_sampling};
use activepy::sampling::{InputSource, LineSamples, SamplePoint, SamplingReport};
use activepy::{plan_fingerprint, ActivePy, ActivePyError};
use alang::parser::parse;
use alang::shape::Demand;
use alang::{LangError, Program, Vm};
use common::{expr, source, storage_with, VARS};
use csd_sim::SystemConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Where a sample run stopped: the scale, the line and the error.
type Stop = (f64, usize, LangError);

/// The report of sample runs at `scales` that execute line by line, each
/// computing every line or, with `costs_only`, what the demand pass marks;
/// the first error stops them with its scale and line.
fn sample_by_lines(
    program: &Program,
    input: &dyn InputSource,
    scales: &[f64],
    costs_only: bool,
) -> Result<SamplingReport, Stop> {
    let lowered = alang::lower::lower(program).expect("lowers");
    let demand = Demand::of(&lowered);
    let mut lines: Vec<LineSamples> = (0..program.len())
        .map(|line| LineSamples {
            line,
            points: Vec::new(),
        })
        .collect();
    let mut dataset_types = alang::copyelim::DatasetTypes::new();
    for &scale in scales {
        let storage = input.storage_at(scale);
        dataset_types.extend(observe_dataset_types(&storage));
        let mut vm = Vm::new(&lowered, &storage);
        if costs_only {
            vm = vm.costs_only(&demand);
        }
        for (line, samples) in lines.iter_mut().enumerate() {
            let cost = vm.exec_line(line).map_err(|e| (scale, line, e))?;
            samples.points.push(SamplePoint { scale, cost });
        }
    }
    Ok(SamplingReport {
        lines,
        dataset_types,
    })
}

#[test]
fn every_registered_report_is_the_one_computing_every_line_gives() {
    // The lines charged from shapes alone: 49 of the 137 registered.
    let charged_from_shapes: BTreeMap<&str, &[&str]> = BTreeMap::from([
        (
            "blackscholes",
            &["rt", "sq", "d1", "d2", "nd1", "nd2", "disc", "price", "avg"][..],
        ),
        ("KMeans", &["c1", "spread"]),
        ("LightGBM", &["hits", "pos", "avg"]),
        ("MatrixMul", &["y", "norm"]),
        ("MixedGEMM", &["y", "g", "g2", "g3", "trace"]),
        ("PageRank", &["r1", "r2", "r3", "top"]),
        ("TPC-H-1", &["dprice", "charge"]),
        ("TPC-H-6", &["rev", "sel", "total"]),
        (
            "TPC-H-14",
            &["pm", "promo", "net", "pnet", "a", "b", "ratio"],
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
}

/// Binds every drawn name first, so most drawn lines read defined values.
const PRELUDE: &str = "a = scan('v')\nb = scan('w')\nc = a * 2\nd = b - 1\n";

/// Tails that read the drawn names through value-reading kernels, so a
/// mask, a key column or a choice decides what is computed.
const TAILS: [&str; 5] = [
    "",
    "m = a > 2\ns = select(b, m)\nt = sum(s)\n",
    "k = group_sum(a, b * 2)\n",
    "w = where(a > 1, b, c)\nx = count(a < b)\n",
    "g = gather(b, abs(a))\nh = mean(g)\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_programs_sample_alike_with_every_line_computed(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..6),
        tail in 0usize..TAILS.len(),
        len_v in 1u32..48,
        len_w in 1u32..48,
        equal in any::<bool>(),
    ) {
        // Equal lengths half the time; unequal ones make shape errors.
        let len_w = if equal { len_v } else { len_w };
        let src = format!("{PRELUDE}{}{}", source(&lines), TAILS[tail]);
        let program = parse(&src).expect("generated source parses");
        let input = |_: f64| storage_with(len_v, len_w);
        let scales = paper_scales();
        let reference = sample_by_lines(&program, &input, &scales, false);
        let costs_only = sample_by_lines(&program, &input, &scales, true);
        let sampled = run_sampling(&program, &input, &scales);
        match (&reference, &costs_only, sampled) {
            (Ok(reference), Ok(costs_only), Ok(sampled)) => {
                prop_assert_eq!(costs_only, reference, "line by line:\n{}", src);
                prop_assert_eq!(&sampled, reference, "run_sampling:\n{}", src);
            }
            (Err(reference), Err(costs_only), Err(sampled)) => {
                let (scale, line, e) = reference;
                let (at, on, err) = costs_only;
                prop_assert_eq!((scale, line), (at, on), "where:\n{}", src);
                prop_assert_eq!(err.to_string(), e.to_string(), "error:\n{}", src);
                let expected = ActivePyError::from(e.clone()).to_string();
                prop_assert_eq!(sampled.to_string(), expected, "run_sampling:\n{}", src);
            }
            (r, c, s) => {
                return Err(TestCaseError::fail(format!(
                    "diverged for:\n{src}\nreference: {r:?}\ncosts only: {c:?}\nsampled: {s:?}"
                )));
            }
        }
    }
}
