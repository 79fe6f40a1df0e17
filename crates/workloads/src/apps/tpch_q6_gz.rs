//! TPC-H Q6 over gzip-compressed columnar storage: the decode-on-host
//! regime of the wire-format experiment.
//!
//! The same forecasting-revenue-change query as [`crate::apps::tpch_q6`],
//! but the four lineitem columns live on flash as shuffled, gzip-deflated
//! streams. Compression shrinks the raw stream the host would pull
//! (`DS_raw` in Eq. 1) by the achieved ratio, while inflating on the CSD
//! costs real operations on cores ~1.8× slower than the host — so the
//! transfer saving the decode+filter pipeline could bank by offloading is
//! smaller than the compute it would pay, and Algorithm 1 correctly keeps
//! the decode on the host. The flip side of this regime is
//! [`crate::apps::loggrep`].

use crate::spec::Workload;
use alang::value::EncodedVal;
use alang::Value;
use csd_sim::wire::Encoding;

/// Decoded (post-inflate) dataset size in gigabytes: the same 6.9 GB of
/// lineitem columns Table I lists for TPC-H-6, stored compressed.
pub const DECODED_GB: f64 = 6.9;
/// On-storage (encoded) size in gigabytes, as measured from the
/// deterministic generator below (pinned by a test; the compression
/// ratio of the generated columns is a constant of the generator).
pub const GB: f64 = 0.345;
/// Materialized rows per column.
pub(crate) const ACTUAL_ROWS: usize = 4096;

const SOURCE: &str = "\
rd = scan_raw('shipdate_gz')
d = decode(rd)
m1 = d >= 8766
m2 = d < 9131
rq = scan_raw('quantity_gz')
q = decode(rq)
m3 = q < 24
rc = scan_raw('discount_gz')
dc = decode(rc)
m4 = dc >= 0.05
m5 = dc <= 0.07
m = m1 and m2 and m3 and m4 and m5
rp = scan_raw('extendedprice_gz')
price = decode(rp)
rev = price * dc
sel = select(rev, m)
total = sum(sel)
";

/// The wire format every column is stored under: byte-shuffled then
/// gzip-deflated (shuffling groups the eight byte planes of the f64
/// stream, which is what lets DEFLATE find the runs).
#[must_use]
pub fn encoding() -> Encoding {
    Encoding::gzip_shuffled()
}

/// Logical rows per column at `scale` (decoded volume = 4 columns ×
/// 8 bytes × rows).
fn logical_rows(scale: f64) -> u64 {
    (((DECODED_GB * scale * 1e9) / 32.0).round() as u64).max(ACTUAL_ROWS as u64)
}

/// The four materialized columns, in dataset order. Deterministic
/// arithmetic patterns — integer-valued and low-cardinality columns
/// compress hard; `extendedprice` carries two-decimal cents and
/// compresses least.
fn columns() -> [(&'static str, Vec<f64>); 4] {
    let shipdate: Vec<f64> = (0..ACTUAL_ROWS)
        .map(|i| (8400 + (i * 8131) % 1200) as f64)
        .collect();
    let quantity: Vec<f64> = (0..ACTUAL_ROWS)
        .map(|i| (1 + (i * 7919) % 50) as f64)
        .collect();
    let discount: Vec<f64> = (0..ACTUAL_ROWS)
        .map(|i| ((i * 104_729) % 11) as f64 / 100.0)
        .collect();
    let extendedprice: Vec<f64> = (0..ACTUAL_ROWS)
        .map(|i| 900.0 + ((i * 15_485_863) % 100_000) as f64 / 100.0)
        .collect();
    [
        ("shipdate_gz", shipdate),
        ("quantity_gz", quantity),
        ("discount_gz", discount),
        ("extendedprice_gz", extendedprice),
    ]
}

/// Builds the compressed-columnar TPC-H Q6 workload.
#[must_use]
pub fn workload() -> Workload {
    let enc = encoding();
    Workload::new(
        "TPC-H-6-gz",
        GB,
        "Q6 scan-filter-aggregate over gzip+shuffle columnar storage (decode-on-host regime)",
        SOURCE,
        super::stored_once(
            || super::Stored {
                scaled: columns()
                    .into_iter()
                    .map(|(name, data)| {
                        let stream = EncodedVal::from_f64s(encoding(), &data, ACTUAL_ROWS as u64);
                        (name, Value::Encoded(stream))
                    })
                    .collect(),
                fixed: Vec::new(),
            },
            logical_rows,
        ),
    )
    .with_encodings(
        columns()
            .iter()
            .map(|(name, _)| ((*name).to_string(), enc))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn columns_compress_and_declared_size_matches() {
        let w = workload();
        let st = w.storage_at(1.0);
        let encoded: u64 = [
            "shipdate_gz",
            "quantity_gz",
            "discount_gz",
            "extendedprice_gz",
        ]
        .iter()
        .map(|n| st.get(n).expect(n).virtual_bytes())
        .sum();
        let decoded = (logical_rows(1.0) * 32) as f64;
        let ratio = decoded / encoded as f64;
        assert!(
            ratio > 2.0,
            "shuffled gzip must compress the columns well, got {ratio:.2}x"
        );
        let gb = encoded as f64 / 1e9;
        assert!(
            (gb - GB).abs() / GB < 0.05,
            "declared {GB} GB vs generated {gb:.3} GB — re-pin the constant"
        );
    }

    #[test]
    fn query_selects_a_fraction_and_extrapolates() {
        let w = workload();
        let program = w.program().expect("parse");
        let st = w.storage_at(1.0);
        let mut interp = Interpreter::new(&st);
        interp.run(&program, &[]).expect("run");
        let total = interp.var("total").expect("total").as_num().expect("num");
        assert!(total > 1e6, "extrapolated revenue must be large: {total}");
        let sel = interp.var("sel").expect("sel").as_array().expect("arr");
        let fraction = sel.logical_len() as f64 / logical_rows(1.0) as f64;
        assert!(
            fraction > 0.001 && fraction < 0.2,
            "Q6 predicates must select a small fraction, got {fraction}"
        );
    }

    #[test]
    fn every_scale_relabels_the_columns_deflated_once() {
        crate::apps::tests::assert_encoded_once(&workload(), |scale| {
            columns()
                .into_iter()
                .map(|(name, data)| {
                    let old = EncodedVal::from_f64s(encoding(), &data, logical_rows(scale));
                    (name, old)
                })
                .collect()
        });
    }

    #[test]
    fn decoded_columns_match_the_plain_generators() {
        // decode(scan_raw(x)) must reproduce the exact column bytes.
        let w = workload();
        let st = w.storage_at(1.0 / 1024.0);
        for (name, data) in columns() {
            let enc = st.get(name).expect(name).as_encoded().expect("encoded");
            assert_eq!(enc.decode_all().expect("decode"), data, "{name}");
        }
    }
}
