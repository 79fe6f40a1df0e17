//! Blackscholes: European call pricing over a stored option chain
//! (9.1 GB, Table I).
//!
//! The pipeline first screens out expired / junk-volatility options — the
//! classic data-reduction stage a CSD executes next to the flash — then
//! prices the survivors with the Black–Scholes closed form (`N(x)` via
//! `erf`), and reports the mean price.

use crate::datagen::options::option_chain_projected;
use crate::spec::Workload;
use alang::shape::StoredReads;
use std::sync::Arc;

/// Materialized option rows.
const ACTUAL_ROWS: usize = 4096;
/// RNG seed.
const SEED: u64 = 0xB5;

const SOURCE: &str = "\
opt = scan('options')
tte = col(opt, 'tte')
m1 = tte > 0.02
vol = col(opt, 'vol')
m2 = vol < 0.9
m = m1 and m2
live = filter(opt, m)
s = col(live, 'spot')
k = col(live, 'strike')
t = col(live, 'tte')
v = col(live, 'vol')
rt = v * 0 + 0.03
sq = sqrt(t)
d1 = (log(s / k) + (rt + v * v * 0.5) * t) / (v * sq)
d2 = d1 - v * sq
nd1 = erf(d1 / 1.4142135623730951) * 0.5 + 0.5
nd2 = erf(d2 / 1.4142135623730951) * 0.5 + 0.5
disc = exp(0 - rt * t)
price = s * nd1 - k * disc * nd2
avg = mean(price)
";

/// Builds the Blackscholes workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "blackscholes",
        9.1,
        "screen a stored option chain, price survivors with Black-Scholes, report the mean",
        SOURCE,
        Arc::new(|scale, reads: &StoredReads| {
            let mut st = alang::Storage::new();
            let wanted = |column: &str| reads.column("options", column);
            let options = option_chain_projected(9.1, scale, ACTUAL_ROWS, SEED, &wanted);
            st.insert("options", options);
            st
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn prices_are_sane() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let avg = interp.var("avg").expect("avg").as_num().expect("num");
        // Mean call price on spots of 10..200 must be positive and bounded
        // by the largest spot.
        assert!(avg > 0.0 && avg < 200.0, "mean price {avg}");
    }

    #[test]
    fn screening_reduces_volume() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let live = interp.var("live").expect("live").virtual_bytes();
        let raw = interp.var("opt").expect("opt").virtual_bytes();
        let ratio = live as f64 / raw as f64;
        assert!(
            ratio > 0.3 && ratio < 0.6,
            "screen should keep roughly half: {ratio}"
        );
    }
}
