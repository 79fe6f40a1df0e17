//! TPC-H Q14: the promotion-effect query (7.1 GB, Table I: 6.9 GB
//! `lineitem` + 0.2 GB `part`).
//!
//! Filters `lineitem` to one ship month (~1 % of rows), joins the
//! survivors to `part` through a dense-key gather, and computes the
//! percentage of revenue attributable to `PROMO` parts. The month filter is
//! the in-storage reduction; the join probe runs on whatever side holds the
//! filtered rows.

use crate::datagen::tpch::{lineitem_projected, part};
use crate::spec::Workload;
use alang::shape::StoredReads;
use std::sync::Arc;

use super::tpch_q6::{ACTUAL_ROWS, PART_ACTUAL_ROWS, SEED};

const SOURCE: &str = "\
l = scan('lineitem')
d = col(l, 'shipdate')
m1 = d >= 9374
m2 = d < 9404
m = m1 and m2
lf = filter(l, m)
p = scan('part')
pt = col(p, 'type')
pm = pt < 1
promo = where(pm, pt * 0 + 1, pt * 0)
pk = col(lf, 'partkey')
isp = gather(promo, pk)
price = col(lf, 'extendedprice')
dc = col(lf, 'discount')
net = price * (1 - dc)
pnet = net * isp
a = sum(pnet)
b = sum(net)
ratio = a * 100 / b
";

/// Builds the TPC-H Q14 workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "TPC-H-14",
        7.1,
        "promotion effect: month filter on lineitem, dense-key join to part, revenue ratio",
        SOURCE,
        Arc::new(|scale, reads: &StoredReads| {
            let mut st = alang::Storage::new();
            let wanted = |column: &str| reads.column("lineitem", column);
            st.insert(
                "lineitem",
                lineitem_projected(6.9, scale, ACTUAL_ROWS, PART_ACTUAL_ROWS, SEED, &wanted),
            );
            let wanted = |column: &str| reads.column("part", column);
            st.insert("part", part(0.2, scale, PART_ACTUAL_ROWS, SEED, &wanted));
            st
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::tpch::{DAY_1995_09_01, DAY_1995_10_01};
    use alang::Interpreter;

    #[test]
    fn query_constants_match_the_month_window() {
        assert!(SOURCE.contains(&format!("{DAY_1995_09_01}")));
        assert!(SOURCE.contains(&format!("{DAY_1995_10_01}")));
    }

    #[test]
    fn promo_ratio_is_a_percentage_near_twenty() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let ratio = interp.var("ratio").expect("ratio").as_num().expect("num");
        // ~20% of parts are PROMO, uncorrelated with revenue.
        assert!(ratio > 5.0 && ratio < 40.0, "promo ratio {ratio}%");
    }

    #[test]
    fn month_filter_is_highly_selective() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let l = interp.var("l").expect("l").as_table().expect("table");
        let lf = interp.var("lf").expect("lf").as_table().expect("table");
        let kept = lf.logical_rows() as f64 / l.logical_rows() as f64;
        assert!(kept < 0.05, "one month of seven years ≈ 1.2%, got {kept}");
    }

    #[test]
    fn join_indicator_is_zero_or_one() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.1);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let isp = interp.var("isp").expect("isp").as_array().expect("arr");
        assert!(isp.data().iter().all(|x| *x == 0.0 || *x == 1.0));
    }
}
