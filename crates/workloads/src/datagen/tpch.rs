//! TPC-H `lineitem` and `part` generators (columnar, dictionary-encoded).
//!
//! Only the columns the three evaluated queries touch are generated. Dates
//! are stored as days since 1970-01-01, matching the integer-date columnar
//! layouts real engines use. `l_partkey` indexes the *materialized* part
//! rows so the dense-key join in Q14 probes real data at every scale.

use super::{logical_rows, rng_for, ColumnDraws};
use alang::table::Table;
use alang::Value;
use rand::Rng;

/// Bytes per `lineitem` row: five `f64` measures + shipdate + partkey
/// (`f64`/`i64`-width) and two 4-byte dictionary codes.
pub const LINEITEM_BYTES_PER_ROW: u64 = 8 * 6 + 4 + 4;

/// Bytes per `part` row: a 4-byte `p_type` code and an 8-byte retail price.
pub const PART_BYTES_PER_ROW: u64 = 4 + 8;

/// Day number of 1994-01-01 (Q6's date window start).
pub const DAY_1994_01_01: f64 = 8766.0;
/// Day number of 1995-01-01 (Q6's window end).
pub const DAY_1995_01_01: f64 = 9131.0;
/// Day number of 1995-09-01 (Q14's month).
pub const DAY_1995_09_01: f64 = 9374.0;
/// Day number of 1995-10-01.
pub const DAY_1995_10_01: f64 = 9404.0;

/// Number of `p_type` dictionary entries; code 0 is the `PROMO` family.
pub const PART_TYPES: usize = 5;

/// Generates a `lineitem` table: `gb × scale` logical gigabytes,
/// materialized at `actual` rows, with part keys in `[0, part_actual)`.
#[must_use]
pub fn lineitem(gb: f64, scale: f64, actual: usize, part_actual: usize, seed: u64) -> Value {
    lineitem_projected(gb, scale, actual, part_actual, seed, &|_| true)
}

/// As [`lineitem`], drawing only the columns `wanted` names; the others
/// hold zeros, one buffer per column type.
#[must_use]
pub fn lineitem_projected(
    gb: f64,
    scale: f64,
    actual: usize,
    part_actual: usize,
    seed: u64,
    wanted: &dyn Fn(&str) -> bool,
) -> Value {
    let mut cols = ColumnDraws::new(rng_for(seed, scale), actual, 8, wanted);
    let columns = vec![
        cols.f64("quantity", 0, |r| f64::from(r.gen_range(1..=50))),
        cols.f64("extendedprice", 1, |r| 900.0 + r.gen_range(0.0..104_000.0)),
        cols.f64("discount", 2, |r| f64::from(r.gen_range(0..=10)) / 100.0),
        cols.f64("tax", 3, |r| f64::from(r.gen_range(0..=8)) / 100.0),
        // Ship dates uniform over 1992-01-01..1998-12-01 (TPC-H spec).
        cols.f64("shipdate", 4, |r| f64::from(r.gen_range(8035..10561))),
        cols.f64("partkey", 5, |r| r.gen_range(0..part_actual) as f64),
        cols.dict("returnflag", 6, &["A", "N", "R"], |r| r.gen_range(0..3u32)),
        cols.dict("linestatus", 7, &["O", "F"], |r| r.gen_range(0..2u32)),
    ];
    let logical = logical_rows(gb, LINEITEM_BYTES_PER_ROW, scale, actual);
    let table = Table::with_logical_rows(columns, logical)
        .expect("lineitem columns are equal-length by construction");
    Value::Table(table)
}

/// Generates a `part` table of `gb × scale` logical gigabytes at `actual`
/// materialized rows, drawing only the columns `wanted` names (the others
/// hold zeros). Codes into the five-entry `p_type` dictionary are uniform,
/// so ≈20 % of parts are `PROMO`.
#[must_use]
pub fn part(gb: f64, scale: f64, actual: usize, seed: u64, wanted: &dyn Fn(&str) -> bool) -> Value {
    let rng = rng_for(seed.wrapping_add(0x9e3779b9), scale);
    let mut cols = ColumnDraws::new(rng, actual, 2, wanted);
    let types = [
        "PROMO ANODIZED",
        "STANDARD POLISHED",
        "SMALL PLATED",
        "MEDIUM BRUSHED",
        "ECONOMY BURNISHED",
    ];
    let columns = vec![
        cols.dict("type", 0, &types, |r| r.gen_range(0..PART_TYPES as u32)),
        cols.f64("retailprice", 1, |r| 900.0 + r.gen_range(0.0..1100.0)),
    ];
    let logical = logical_rows(gb, PART_BYTES_PER_ROW, scale, actual);
    let table = Table::with_logical_rows(columns, logical)
        .expect("part columns are equal-length by construction");
    Value::Table(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::table::Column;
    use std::sync::Arc;

    /// The row-by-row loop the column-wise draws replaced, kept as their
    /// reference: every column of a row, in stream order.
    fn lineitem_by_rows(scale: f64, actual: usize, part_actual: usize, seed: u64) -> Value {
        let mut rng = rng_for(seed, scale);
        let mut f64s: [Vec<f64>; 6] = Default::default();
        let (mut returnflag, mut linestatus) = (Vec::new(), Vec::new());
        for _ in 0..actual {
            f64s[0].push(f64::from(rng.gen_range(1..=50)));
            f64s[1].push(900.0 + rng.gen_range(0.0..104_000.0));
            f64s[2].push(f64::from(rng.gen_range(0..=10)) / 100.0);
            f64s[3].push(f64::from(rng.gen_range(0..=8)) / 100.0);
            f64s[4].push(f64::from(rng.gen_range(8035..10561)));
            f64s[5].push(rng.gen_range(0..part_actual) as f64);
            returnflag.push(rng.gen_range(0..3u32));
            linestatus.push(rng.gen_range(0..2u32));
        }
        let names = [
            "quantity",
            "extendedprice",
            "discount",
            "tax",
            "shipdate",
            "partkey",
        ];
        let mut columns: Vec<(String, Column)> = names
            .into_iter()
            .zip(f64s)
            .map(|(name, data)| (name.to_owned(), Column::F64(Arc::new(data))))
            .collect();
        for (name, codes, dict) in [
            ("returnflag", returnflag, vec!["A", "N", "R"]),
            ("linestatus", linestatus, vec!["O", "F"]),
        ] {
            let dict = Arc::new(dict.into_iter().map(str::to_owned).collect());
            let codes = Arc::new(codes);
            columns.push((name.to_owned(), Column::Dict { codes, dict }));
        }
        let logical = logical_rows(6.9, LINEITEM_BYTES_PER_ROW, scale, actual);
        Value::Table(Table::with_logical_rows(columns, logical).expect("table"))
    }

    /// As [`lineitem_by_rows`], for `part`.
    fn part_by_rows(scale: f64, actual: usize, seed: u64) -> Value {
        let mut rng = rng_for(seed.wrapping_add(0x9e3779b9), scale);
        let (mut ptype, mut retail) = (Vec::new(), Vec::new());
        for _ in 0..actual {
            ptype.push(rng.gen_range(0..PART_TYPES as u32));
            retail.push(900.0 + rng.gen_range(0.0..1100.0));
        }
        let Value::Table(drawn) = part(0.2, scale, actual, seed, &|_| true) else {
            unreachable!("a table")
        };
        let Ok(Column::Dict { dict, .. }) = drawn.column("type") else {
            unreachable!("a dictionary column")
        };
        let columns = vec![
            (
                "type".to_owned(),
                Column::Dict {
                    codes: Arc::new(ptype),
                    dict: Arc::clone(dict),
                },
            ),
            ("retailprice".to_owned(), Column::F64(Arc::new(retail))),
        ];
        let logical = logical_rows(0.2, PART_BYTES_PER_ROW, scale, actual);
        Value::Table(Table::with_logical_rows(columns, logical).expect("table"))
    }

    #[test]
    fn the_column_wise_draws_are_the_row_loops_draws() {
        let scales = activepy::sampling::paper_scales();
        for &scale in scales.iter().chain(&[1.0, 0.05]) {
            for (actual, seed) in [(4096, 0x79C8), (37, 5)] {
                assert_eq!(
                    lineitem(6.9, scale, actual, 2048, seed),
                    lineitem_by_rows(scale, actual, 2048, seed),
                    "lineitem at {scale}"
                );
                assert_eq!(
                    part(0.2, scale, actual, seed, &|_| true),
                    part_by_rows(scale, actual, seed),
                    "part at {scale}"
                );
            }
        }
        let Value::Table(p) = part(0.2, 1.0, 8, 1, &|_| true) else {
            unreachable!("a table")
        };
        let Ok(Column::Dict { dict, .. }) = p.column("type") else {
            unreachable!("a dictionary column")
        };
        assert_eq!(dict[0], "PROMO ANODIZED");
        assert_eq!(dict.len(), PART_TYPES);
    }

    #[test]
    fn lineitem_shape_and_volume() {
        let v = lineitem(6.9, 1.0, 4096, 2048, 7);
        let t = v.as_table().expect("table");
        assert_eq!(t.rows(), 4096);
        assert_eq!(t.bytes_per_row(), LINEITEM_BYTES_PER_ROW);
        let gb = t.virtual_bytes() as f64 / 1e9;
        assert!((gb - 6.9).abs() < 0.01, "got {gb} GB");
    }

    #[test]
    fn lineitem_scales_logically_not_physically() {
        let full = lineitem(6.9, 1.0, 4096, 2048, 7);
        let tiny = lineitem(6.9, 1.0 / 1024.0, 4096, 2048, 7);
        let (tf, tt) = (full.as_table().expect("f"), tiny.as_table().expect("t"));
        assert_eq!(tf.rows(), tt.rows());
        assert!(tf.logical_rows() > 1000 * tt.logical_rows());
    }

    #[test]
    fn partkeys_stay_in_part_range() {
        let v = lineitem(6.9, 0.01, 4096, 512, 3);
        let t = v.as_table().expect("table");
        match t.column("partkey").expect("pk") {
            Column::F64(keys) => {
                assert!(keys.iter().all(|k| *k >= 0.0 && *k < 512.0));
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn q6_predicates_have_plausible_selectivity() {
        let v = lineitem(6.9, 1.0, 8192, 2048, 11);
        let t = v.as_table().expect("table");
        let (dates, qtys, discs) = match (
            t.column("shipdate").expect("d"),
            t.column("quantity").expect("q"),
            t.column("discount").expect("disc"),
        ) {
            (Column::F64(d), Column::F64(q), Column::F64(disc)) => (d, q, disc),
            _ => panic!("wrong column types"),
        };
        let hits = dates
            .iter()
            .zip(qtys.iter())
            .zip(discs.iter())
            .filter(|((d, q), disc)| {
                **d >= DAY_1994_01_01
                    && **d < DAY_1995_01_01
                    && **q < 24.0
                    && **disc >= 0.05
                    && **disc <= 0.07
            })
            .count();
        let sel = hits as f64 / 8192.0;
        // TPC-H Q6 selects roughly 2% of lineitem.
        assert!(sel > 0.005 && sel < 0.05, "selectivity {sel}");
    }

    #[test]
    fn part_promo_fraction_near_one_fifth() {
        let v = part(0.2, 1.0, 4096, 5, &|_| true);
        let t = v.as_table().expect("table");
        match t.column("type").expect("type") {
            Column::Dict { codes, dict } => {
                assert!(dict[0].starts_with("PROMO"));
                let promo = codes.iter().filter(|c| **c == 0).count() as f64 / 4096.0;
                assert!((promo - 0.2).abs() < 0.05, "promo fraction {promo}");
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = lineitem(6.9, 0.5, 1024, 512, 99);
        let b = lineitem(6.9, 0.5, 1024, 512, 99);
        assert_eq!(a, b);
    }
}
