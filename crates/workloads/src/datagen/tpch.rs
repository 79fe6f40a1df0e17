//! TPC-H `lineitem` and `part` generators (columnar, dictionary-encoded).
//!
//! Only the columns the three evaluated queries touch are generated. Dates
//! are stored as days since 1970-01-01, matching the integer-date columnar
//! layouts real engines use. `l_partkey` indexes the *materialized* part
//! rows so the dense-key join in Q14 probes real data at every scale.

use super::{logical_rows, rng_for};
use alang::table::{Column, Table};
use alang::Value;
use rand::Rng;
use std::sync::Arc;

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
    let mut rng = rng_for(seed, scale);
    let mut quantity = Vec::with_capacity(actual);
    let mut price = Vec::with_capacity(actual);
    let mut discount = Vec::with_capacity(actual);
    let mut tax = Vec::with_capacity(actual);
    let mut shipdate = Vec::with_capacity(actual);
    let mut partkey = Vec::with_capacity(actual);
    let mut returnflag = Vec::with_capacity(actual);
    let mut linestatus = Vec::with_capacity(actual);
    for _ in 0..actual {
        quantity.push(f64::from(rng.gen_range(1..=50)));
        price.push(900.0 + rng.gen_range(0.0..104_000.0));
        discount.push(f64::from(rng.gen_range(0..=10)) / 100.0);
        tax.push(f64::from(rng.gen_range(0..=8)) / 100.0);
        // Ship dates uniform over 1992-01-01..1998-12-01 (TPC-H spec).
        shipdate.push(f64::from(rng.gen_range(8035..10561)));
        partkey.push(rng.gen_range(0..part_actual) as f64);
        returnflag.push(rng.gen_range(0..3u32));
        linestatus.push(rng.gen_range(0..2u32));
    }
    let logical = logical_rows(gb, LINEITEM_BYTES_PER_ROW, scale, actual);
    let table = Table::with_logical_rows(
        vec![
            ("quantity".into(), Column::F64(Arc::new(quantity))),
            ("extendedprice".into(), Column::F64(Arc::new(price))),
            ("discount".into(), Column::F64(Arc::new(discount))),
            ("tax".into(), Column::F64(Arc::new(tax))),
            ("shipdate".into(), Column::F64(Arc::new(shipdate))),
            ("partkey".into(), Column::F64(Arc::new(partkey))),
            (
                "returnflag".into(),
                Column::Dict {
                    codes: Arc::new(returnflag),
                    dict: Arc::new(vec!["A".into(), "N".into(), "R".into()]),
                },
            ),
            (
                "linestatus".into(),
                Column::Dict {
                    codes: Arc::new(linestatus),
                    dict: Arc::new(vec!["O".into(), "F".into()]),
                },
            ),
        ],
        logical,
    )
    .expect("lineitem columns are equal-length by construction");
    Value::Table(table)
}

/// Generates a `part` table of `gb × scale` logical gigabytes at `actual`
/// materialized rows. Codes into the five-entry `p_type` dictionary are
/// uniform, so ≈20 % of parts are `PROMO`.
#[must_use]
pub fn part(gb: f64, scale: f64, actual: usize, seed: u64) -> Value {
    let mut rng = rng_for(seed.wrapping_add(0x9e3779b9), scale);
    let mut ptype = Vec::with_capacity(actual);
    let mut retail = Vec::with_capacity(actual);
    for _ in 0..actual {
        ptype.push(rng.gen_range(0..PART_TYPES as u32));
        retail.push(900.0 + rng.gen_range(0.0..1100.0));
    }
    let logical = logical_rows(gb, PART_BYTES_PER_ROW, scale, actual);
    let table = Table::with_logical_rows(
        vec![
            (
                "type".into(),
                Column::Dict {
                    codes: Arc::new(ptype),
                    dict: Arc::new(vec![
                        "PROMO ANODIZED".into(),
                        "STANDARD POLISHED".into(),
                        "SMALL PLATED".into(),
                        "MEDIUM BRUSHED".into(),
                        "ECONOMY BURNISHED".into(),
                    ]),
                },
            ),
            ("retailprice".into(), Column::F64(Arc::new(retail))),
        ],
        logical,
    )
    .expect("part columns are equal-length by construction");
    Value::Table(table)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let v = part(0.2, 1.0, 4096, 5);
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
