//! TPC-H Q6: the forecasting-revenue-change query (6.9 GB, Table I).
//!
//! A pure scan-filter-aggregate over `lineitem`: one year of ship dates, a
//! quantity cap, and a discount band, summing `extendedprice × discount`.
//! The archetypal ISP query — output is a single number.

use crate::datagen::tpch::lineitem_projected;
use crate::spec::Workload;
use alang::shape::StoredReads;
use std::sync::Arc;

/// Materialized lineitem rows.
pub(crate) const ACTUAL_ROWS: usize = 4096;
/// Materialized part rows (shared with Q14's generator for key ranges).
pub(crate) const PART_ACTUAL_ROWS: usize = 2048;
/// RNG seed shared by the TPC-H workloads.
pub(crate) const SEED: u64 = 0x79C8;

const SOURCE: &str = "\
t = scan('lineitem')
d = col(t, 'shipdate')
m1 = d >= 8766
m2 = d < 9131
q = col(t, 'quantity')
m3 = q < 24
dc = col(t, 'discount')
m4 = dc >= 0.05
m5 = dc <= 0.07
m = m1 and m2 and m3 and m4 and m5
price = col(t, 'extendedprice')
rev = price * dc
sel = select(rev, m)
total = sum(sel)
";

/// Builds the TPC-H Q6 workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "TPC-H-6",
        6.9,
        "scan-filter-aggregate: sum of discounted revenue in a one-year window",
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
    use crate::datagen::tpch::{DAY_1994_01_01, DAY_1995_01_01};
    use alang::Interpreter;

    #[test]
    fn query_constants_match_the_spec_window() {
        assert!(SOURCE.contains(&format!("{DAY_1994_01_01}")));
        assert!(SOURCE.contains(&format!("{DAY_1995_01_01}")));
    }

    #[test]
    fn total_is_positive_and_extrapolated() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let total = interp.var("total").expect("total").as_num().expect("num");
        assert!(total > 0.0, "some rows must satisfy Q6: {total}");
        // The sum extrapolates to ~123M logical rows, so it is enormous.
        assert!(total > 1e6);
    }

    #[test]
    fn selection_is_a_small_fraction() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let sel = interp.var("sel").expect("sel").as_array().expect("arr");
        let t = interp.var("t").expect("t").as_table().expect("table");
        let fraction = sel.logical_len() as f64 / t.logical_rows() as f64;
        assert!(
            fraction < 0.06,
            "Q6 selects ~2% of lineitem, got {fraction}"
        );
    }
}
