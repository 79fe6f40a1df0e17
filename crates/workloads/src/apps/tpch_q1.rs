//! TPC-H Q1: the pricing-summary-report query (6.9 GB, Table I).
//!
//! Scans nearly all of `lineitem` (the ship-date predicate keeps ~98 % of
//! rows) and aggregates five measures into six (returnflag, linestatus)
//! groups. Little is filtered, but the aggregation collapses gigabytes
//! into a six-row report — the reduction happens in `group_sum`.

use crate::datagen::tpch::lineitem_projected;
use crate::spec::Workload;
use alang::shape::StoredReads;
use std::sync::Arc;

use super::tpch_q6::{ACTUAL_ROWS, PART_ACTUAL_ROWS, SEED};

const SOURCE: &str = "\
t = scan('lineitem')
d = col(t, 'shipdate')
m = d <= 10471
f = filter(t, m)
rf = col(f, 'returnflag')
ls = col(f, 'linestatus')
key = rf * 2 + ls
qty = col(f, 'quantity')
sum_qty = group_sum(key, qty)
price = col(f, 'extendedprice')
sum_base = group_sum(key, price)
dc = col(f, 'discount')
dprice = price * (1 - dc)
sum_disc = group_sum(key, dprice)
tax = col(f, 'tax')
charge = dprice * (1 + tax)
sum_charge = group_sum(key, charge)
avg_disc = group_sum(key, dc)
";

/// Builds the TPC-H Q1 workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "TPC-H-1",
        6.9,
        "pricing summary: five grouped aggregates over nearly all of lineitem",
        SOURCE,
        Arc::new(|scale, reads: &StoredReads| {
            let mut st = alang::Storage::new();
            let wanted = |column: &str| reads.column("lineitem", column);
            st.insert(
                "lineitem",
                lineitem_projected(6.9, scale, ACTUAL_ROWS, PART_ACTUAL_ROWS, SEED, &wanted),
            );
            st
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::table::Column;
    use alang::Interpreter;

    #[test]
    fn six_groups_emerge() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.05);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let g = interp.var("sum_qty").expect("g").as_table().expect("table");
        // 3 returnflags x 2 linestatuses.
        assert_eq!(g.rows(), 6);
        assert_eq!(g.logical_rows(), 6, "groups do not grow with data");
    }

    #[test]
    fn filter_keeps_most_rows() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let t = interp.var("t").expect("t").as_table().expect("table");
        let f = interp.var("f").expect("f").as_table().expect("table");
        let kept = f.logical_rows() as f64 / t.logical_rows() as f64;
        assert!(kept > 0.9, "Q1 keeps ~96-98% of rows, got {kept}");
    }

    #[test]
    fn grouped_sums_are_positive() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.05);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        for name in ["sum_qty", "sum_base", "sum_disc", "sum_charge"] {
            let g = interp.var(name).expect(name).as_table().expect("table");
            match g.column("sum").expect("sum") {
                Column::F64(v) => {
                    assert!(v.iter().all(|x| *x > 0.0), "{name} has nonpositive sums")
                }
                other => panic!("wrong type {other:?}"),
            }
        }
    }
}
