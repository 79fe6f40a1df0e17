//! Option-chain generator for the Blackscholes workload.

use super::{logical_rows, rng_for, ColumnDraws};
use alang::table::Table;
use alang::Value;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// Bytes per option row: spot, strike, time-to-expiry, volatility.
pub const OPTION_BYTES_PER_ROW: u64 = 8 * 4;

/// Generates an option chain of `gb × scale` logical gigabytes at
/// `actual` materialized rows. Roughly half the rows are "live" (time to
/// expiry above a trading-floor threshold and sane volatility), which is
/// the data reduction the pricing pipeline's pre-filter exploits.
#[must_use]
pub fn option_chain(gb: f64, scale: f64, actual: usize, seed: u64) -> Value {
    option_chain_projected(gb, scale, actual, seed, &|_| true)
}

/// As [`option_chain`], drawing only the columns `wanted` names; the
/// others hold zeros, one buffer shared by all of them.
#[must_use]
pub fn option_chain_projected(
    gb: f64,
    scale: f64,
    actual: usize,
    seed: u64,
    wanted: &dyn Fn(&str) -> bool,
) -> Value {
    let mut cols = ColumnDraws::new(rng_for(seed, scale), actual, 6, wanted);
    let spot = |r: &mut StdRng| r.gen_range(10.0..200.0);
    let columns = vec![
        cols.f64("spot", 0, spot),
        // The strike is a fraction of the row's spot.
        cols.f64("strike", 0, |r| spot(r) * r.gen_range(0.6..1.4)),
        // Half the chain is at/past expiry or illiquid (tte below the 0.02y
        // floor), half is live out to two years.
        cols.f64("tte", 2, |r| either(r, 0.5, 0.0..0.02, 0.02..2.0)),
        // A long tail of junk vol marks another slice as unpriceable.
        cols.f64("vol", 4, |r| either(r, 0.9, 0.05..0.9, 0.9..3.0)),
    ];
    let logical = logical_rows(gb, OPTION_BYTES_PER_ROW, scale, actual);
    let table = Table::with_logical_rows(columns, logical)
        .expect("option columns are equal-length by construction");
    Value::Table(table)
}

/// A draw from `likely` with probability `p`, else from `unlikely`: one
/// draw decides, one more is the value. The range is chosen, not the
/// draw, so a coin-flip column takes no branch it could mispredict.
fn either(r: &mut StdRng, p: f64, likely: Range<f64>, unlikely: Range<f64>) -> f64 {
    let range = if r.gen_bool(p) { likely } else { unlikely };
    r.gen_range(range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::table::Column;
    use std::sync::Arc;

    /// The row-by-row loop the column-wise draws replaced, kept as their
    /// reference.
    fn option_chain_by_rows(scale: f64, actual: usize, seed: u64) -> Value {
        let mut rng = rng_for(seed, scale);
        let mut cols: [Vec<f64>; 4] = Default::default();
        for _ in 0..actual {
            let s = rng.gen_range(10.0..200.0);
            cols[0].push(s);
            cols[1].push(s * rng.gen_range(0.6..1.4));
            if rng.gen_bool(0.5) {
                cols[2].push(rng.gen_range(0.0..0.02));
            } else {
                cols[2].push(rng.gen_range(0.02..2.0));
            }
            if rng.gen_bool(0.9) {
                cols[3].push(rng.gen_range(0.05..0.9));
            } else {
                cols[3].push(rng.gen_range(0.9..3.0));
            }
        }
        let columns = ["spot", "strike", "tte", "vol"]
            .into_iter()
            .zip(cols)
            .map(|(name, data)| (name.to_owned(), Column::F64(Arc::new(data))))
            .collect();
        let logical = logical_rows(9.1, OPTION_BYTES_PER_ROW, scale, actual);
        Value::Table(Table::with_logical_rows(columns, logical).expect("table"))
    }

    #[test]
    fn the_column_wise_draws_are_the_row_loops_draws() {
        let scales = activepy::sampling::paper_scales();
        for &scale in scales.iter().chain(&[1.0, 0.05]) {
            for (actual, seed) in [(4096, 0xB5), (37, 5)] {
                assert_eq!(
                    option_chain(9.1, scale, actual, seed),
                    option_chain_by_rows(scale, actual, seed),
                    "at {scale}"
                );
            }
        }
    }

    #[test]
    fn volume_matches_gb() {
        let v = option_chain(9.1, 1.0, 4096, 1);
        let t = v.as_table().expect("table");
        let gb = t.virtual_bytes() as f64 / 1e9;
        assert!((gb - 9.1).abs() < 0.01, "got {gb}");
    }

    #[test]
    fn live_fraction_near_half() {
        let v = option_chain(9.1, 1.0, 8192, 2);
        let t = v.as_table().expect("table");
        let (ttes, vols) = match (t.column("tte").expect("t"), t.column("vol").expect("v")) {
            (Column::F64(a), Column::F64(b)) => (a, b),
            _ => panic!("wrong column types"),
        };
        let live = ttes
            .iter()
            .zip(vols.iter())
            .filter(|(t, v)| **t > 0.02 && **v < 0.9)
            .count() as f64
            / 8192.0;
        assert!((live - 0.45).abs() < 0.1, "live fraction {live}");
    }

    #[test]
    fn prices_are_positive_domain() {
        let v = option_chain(9.1, 0.25, 1024, 3);
        let t = v.as_table().expect("table");
        match t.column("spot").expect("s") {
            Column::F64(s) => assert!(s.iter().all(|x| *x > 0.0)),
            other => panic!("wrong type {other:?}"),
        }
    }
}
