//! Option-chain generator for the Blackscholes workload.

use super::{logical_rows, rng_for};
use alang::table::{Column, Table};
use alang::Value;
use rand::Rng;
use std::sync::Arc;

/// Bytes per option row: spot, strike, time-to-expiry, volatility.
pub const OPTION_BYTES_PER_ROW: u64 = 8 * 4;

/// Generates an option chain of `gb × scale` logical gigabytes at
/// `actual` materialized rows. Roughly half the rows are "live" (time to
/// expiry above a trading-floor threshold and sane volatility), which is
/// the data reduction the pricing pipeline's pre-filter exploits.
#[must_use]
pub fn option_chain(gb: f64, scale: f64, actual: usize, seed: u64) -> Value {
    let mut rng = rng_for(seed, scale);
    let mut spot = Vec::with_capacity(actual);
    let mut strike = Vec::with_capacity(actual);
    let mut tte = Vec::with_capacity(actual);
    let mut vol = Vec::with_capacity(actual);
    for _ in 0..actual {
        let s = rng.gen_range(10.0..200.0);
        spot.push(s);
        strike.push(s * rng.gen_range(0.6..1.4));
        // Half the chain is at/past expiry or illiquid (tte below the 0.02y
        // floor), half is live out to two years.
        if rng.gen_bool(0.5) {
            tte.push(rng.gen_range(0.0..0.02));
        } else {
            tte.push(rng.gen_range(0.02..2.0));
        }
        // A long tail of junk vol marks another slice as unpriceable.
        if rng.gen_bool(0.9) {
            vol.push(rng.gen_range(0.05..0.9));
        } else {
            vol.push(rng.gen_range(0.9..3.0));
        }
    }
    let logical = logical_rows(gb, OPTION_BYTES_PER_ROW, scale, actual);
    let table = Table::with_logical_rows(
        vec![
            ("spot".into(), Column::F64(Arc::new(spot))),
            ("strike".into(), Column::F64(Arc::new(strike))),
            ("tte".into(), Column::F64(Arc::new(tte))),
            ("vol".into(), Column::F64(Arc::new(vol))),
        ],
        logical,
    )
    .expect("option columns are equal-length by construction");
    Value::Table(table)
}

#[cfg(test)]
mod tests {
    use super::*;

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
