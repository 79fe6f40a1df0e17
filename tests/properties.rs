//! Property-based tests over the core data structures and invariants.

use activepy::assign::{assign_refined, projected_cost};
use activepy::estimate::{LineEstimate, Link};
use activepy::fit::{fit_series, Complexity};
use alang::value::{ArrayVal, BoolArrayVal};
use csd_sim::availability::AvailabilityTrace;
use csd_sim::units::{Bandwidth, Bytes, Duration, SimTime};
use proptest::prelude::*;

proptest! {
    /// invert is the exact inverse of integrate for any piecewise trace.
    #[test]
    fn availability_invert_integrate_round_trip(
        changes in prop::collection::vec((0.0f64..100.0, 0.01f64..1.0), 0..6),
        start in 0.0f64..50.0,
        effective in 0.0f64..200.0,
    ) {
        let mut tr = AvailabilityTrace::full();
        let mut sorted = changes;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for (at, frac) in sorted {
            tr = tr.with_change(SimTime::from_secs(at), frac);
        }
        let wall = tr.invert(SimTime::from_secs(start), effective);
        let back = tr.integrate(SimTime::from_secs(start), wall);
        prop_assert!((back - effective).abs() < 1e-6, "{back} vs {effective}");
    }

    /// Transfer time scales linearly with bytes at fixed bandwidth.
    #[test]
    fn bandwidth_transfer_is_linear(bytes in 1u64..1_000_000_000, gbps in 0.5f64..20.0) {
        let bw = Bandwidth::from_gb_per_sec(gbps);
        let one = bw.transfer_time(Bytes::new(bytes)).as_secs();
        let two = bw.transfer_time(Bytes::new(bytes * 2)).as_secs();
        prop_assert!((two - 2.0 * one).abs() < 1e-9);
    }

    /// Duration subtraction saturates; addition is associative enough.
    #[test]
    fn duration_arithmetic(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let (da, db) = (Duration::from_secs(a), Duration::from_secs(b));
        prop_assert!((da - db).as_secs() >= 0.0);
        let sum = (da + db).as_secs();
        prop_assert!((sum - (a + b)).abs() < 1e-6);
    }

    /// The fitter recovers the generating curve from noiseless samples at
    /// the paper's four scales (expressed as absolute sizes so the log
    /// term varies).
    #[test]
    fn fit_recovers_generating_curve(
        coeff in 0.1f64..1e6,
        which in 0usize..4,
    ) {
        // O(n log n) at sub-unity scales degenerates to O(n); use absolute
        // sizes 2^10..2^13 like a real input-size axis.
        let curves = [Complexity::O1, Complexity::ON, Complexity::ON2, Complexity::ON3];
        let target = curves[which];
        let points: Vec<(f64, f64)> = [1024.0, 2048.0, 4096.0, 8192.0]
            .iter()
            .map(|&n| (n, coeff * target.g(n)))
            .collect();
        let fit = fit_series(&points).expect("fit");
        prop_assert_eq!(fit.complexity, target);
        prop_assert!((fit.coefficient - coeff).abs() / coeff < 1e-6);
    }

    /// The production planner never projects a plan worse than staying
    /// home (`T_csd <= T_host`), under its own executor-faithful cost model
    /// too, here over a straight-line chain program.
    #[test]
    fn assignments_never_project_worse_than_host(
        lines in prop::collection::vec(
            (1e-3f64..2.0, 1e-3f64..4.0, 0u64..8_000_000_000, 0u64..8_000_000_000),
            1..12,
        ),
    ) {
        let estimates: Vec<LineEstimate> = lines
            .iter()
            .enumerate()
            .map(|(i, (h, d, din, dout))| LineEstimate {
                line: i,
                ct_host: *h,
                ct_device: *d,
                d_in: *din,
                d_out: *dout,
                ops: 0,
            })
            .collect();
        let source: String = (0..estimates.len())
            .map(|i| match i {
                0 => "x0 = 1\n".to_owned(),
                _ => format!("x{i} = x{} + 1\n", i - 1),
            })
            .collect();
        let program = alang::parser::parse(&source).expect("a chain parses");
        const BW: f64 = 4e9;
        let a = assign_refined(&program, &estimates, BW);
        prop_assert!(a.t_csd <= a.t_host + 1e-9, "{a:?}");
        let placements = a.placements(estimates.len());
        prop_assert!(projected_cost(&program, &estimates, &placements, Link::new(BW)) <= a.t_host + 1e-9, "{a:?}");
        prop_assert!(a.csd_lines.iter().all(|l| *l < estimates.len()));
    }

    /// Array logical scaling preserves data and the invariant
    /// `logical >= materialized`.
    #[test]
    fn array_logical_invariants(data in prop::collection::vec(-1e9f64..1e9, 1..64), mult in 1u64..1000) {
        let logical = data.len() as u64 * mult;
        let arr = ArrayVal::with_logical(data.clone(), logical);
        prop_assert_eq!(arr.data(), &data[..]);
        prop_assert!(arr.logical_len() >= arr.len() as u64);
        prop_assert!((arr.scale_ratio() - mult as f64).abs() < 1e-9);
    }

    /// Mask selectivity is always in [0, 1] and matches the popcount.
    #[test]
    fn mask_selectivity_bounds(bits in prop::collection::vec(any::<bool>(), 1..256)) {
        let mask = BoolArrayVal::new(bits.clone());
        let sel = mask.selectivity();
        prop_assert!((0.0..=1.0).contains(&sel));
        let expected = bits.iter().filter(|b| **b).count() as f64 / bits.len() as f64;
        prop_assert!((sel - expected).abs() < 1e-12);
    }
}

/// Strategy over ALang expression trees whose `Display` form is valid
/// source (non-negative literals; identifiers that avoid the keywords).
fn arb_expr() -> impl Strategy<Value = alang::ast::Expr> {
    use alang::ast::{BinOp, Expr, UnOp};
    let ident = "[a-z][a-z0-9_]{0,6}".prop_filter("keywords are not identifiers", |s| {
        !matches!(s.as_str(), "and" | "or" | "not")
    });
    let leaf = prop_oneof![
        (0.0..1e6f64).prop_map(Expr::Num),
        "[a-z ]{0,8}".prop_map(Expr::Str),
        ident.clone().prop_map(Expr::Ident),
    ];
    leaf.prop_recursive(3, 24, 3, move |inner| {
        let op = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::And),
            Just(BinOp::Or),
        ];
        prop_oneof![
            (op, inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Binary {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            }),
            (prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)], inner.clone()).prop_map(|(op, e)| {
                Expr::Unary {
                    op,
                    expr: Box::new(e),
                }
            }),
            ("[a-z][a-z0-9_]{0,6}", prop::collection::vec(inner, 0..3)).prop_filter_map(
                "keywords are not function names",
                |(name, args)| {
                    (!matches!(name.as_str(), "and" | "or" | "not"))
                        .then_some(Expr::Call { name, args })
                },
            ),
        ]
    })
}

proptest! {
    /// `Display` output of any expression re-parses to the identical tree:
    /// the printer and the parser agree on the grammar.
    #[test]
    fn parser_display_round_trip(expr in arb_expr()) {
        let source = format!("x = {expr}\n");
        let program = alang::parser::parse(&source)
            .map_err(|e| TestCaseError::fail(format!("{e} in `{source}`")))?;
        prop_assert_eq!(&program.lines()[0].expr, &expr, "source: {}", source);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Filtering a table scales its logical rows by the measured
    /// selectivity and never loses columns.
    #[test]
    fn table_filter_scales_logical_rows(
        keep in prop::collection::vec(any::<bool>(), 8..64),
        mult in 1u64..500,
    ) {
        use alang::table::{Column, Table};
        use std::sync::Arc;
        let n = keep.len();
        let col: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Table::with_logical_rows(
            vec![("x".into(), Column::F64(Arc::new(col)))],
            n as u64 * mult,
        ).expect("table");
        let f = t.filter_reading(&keep, alang::ParEngine::serial_ref(), None).expect("filter");
        let kept = keep.iter().filter(|k| **k).count();
        prop_assert_eq!(f.rows(), kept);
        prop_assert_eq!(f.column_count(), 1);
        let expected_logical = (t.logical_rows() as f64 * kept as f64 / n as f64).round() as u64;
        prop_assert_eq!(f.logical_rows(), expected_logical.max(kept as u64));
    }
}
