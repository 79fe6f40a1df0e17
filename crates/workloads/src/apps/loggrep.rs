//! LogGrep: log-analytics grep→aggregate over raw wire-format storage —
//! the decode-on-CSD regime of the wire-format experiment.
//!
//! Two metric streams from a big-endian logger sit on flash byte-shuffled
//! and un-compressed (telemetry full of distinct mantissas deflates to
//! ~1×, so the pipeline skips the codec); the latency stream marks
//! dropped samples with a `-1` sentinel that decode masks to zero. The
//! query greps for server errors, intersects with present samples, and
//! computes a smooth score over the selected tail.
//!
//! Decoding here is cheap (byte transpose + byte swap + sentinel mask, no
//! inflate) and buys **no** transfer saving when left on the host: the
//! encoded stream is exactly as large as the decoded one. Offloading the
//! scan→decode→grep prefix drops `DS_raw` in Eq. 1 from the full stream
//! to the selected tail, which dwarfs the modest device-compute penalty —
//! so Algorithm 1 pushes decode onto the CSD. The flip side of this
//! regime is [`crate::apps::tpch_q6_gz`].

use crate::spec::Workload;
use alang::value::EncodedVal;
use alang::Value;
use csd_sim::wire::{ByteOrder, Codec, Encoding};

/// On-storage size in gigabytes. Codec-less wire formats are
/// length-preserving, so encoded and decoded sizes coincide: 2 streams ×
/// 8 bytes × 500M samples.
pub const GB: f64 = 8.0;
/// Materialized samples per stream.
pub(crate) const ACTUAL_ROWS: usize = 4096;
/// The latency sentinel the logger writes for dropped samples.
pub(crate) const MISSING: f64 = -1.0;

const SOURCE: &str = "\
rs = scan_raw('log_status')
code = decode(rs)
m1 = code >= 500
rl = scan_raw('log_latency')
lat = decode(rl)
m2 = lat > 0
m = m1 and m2
sel = select(lat, m)
z = sel / 250.0
e = erf(z)
g = exp(0 - z)
score = e * g
s = sum(score)
hits = count(m)
";

/// Wire format of the status stream: byte-shuffled big-endian doubles.
#[must_use]
pub fn status_encoding() -> Encoding {
    Encoding {
        codec: Codec::None,
        shuffle: true,
        byte_order: ByteOrder::Big,
        fill_value: None,
    }
}

/// Wire format of the latency stream: like the status stream plus the
/// `-1` missing-sample sentinel, masked to zero by decode.
#[must_use]
pub fn latency_encoding() -> Encoding {
    Encoding {
        fill_value: Some(MISSING),
        ..status_encoding()
    }
}

/// Logical samples per stream at `scale`.
fn logical_rows(scale: f64) -> u64 {
    (((GB * scale * 1e9) / 16.0).round() as u64).max(ACTUAL_ROWS as u64)
}

/// The status-code stream: mostly 200s, a thin band of 5xx errors.
fn status_column() -> Vec<f64> {
    (0..ACTUAL_ROWS)
        .map(|i| match (i * 31) % 20 {
            0..=13 => 200.0,
            14 | 15 => 301.0,
            16..=18 => 404.0,
            _ => 500.0 + f64::from(u32::try_from((i * 13) % 4).unwrap_or(0)),
        })
        .collect()
}

/// The latency stream in milliseconds, with ~10% dropped samples.
fn latency_column() -> Vec<f64> {
    (0..ACTUAL_ROWS)
        .map(|i| {
            if (i * 17) % 10 == 0 {
                MISSING
            } else {
                20.0 + ((i * 263) % 400) as f64 * 0.5 + ((i * 7) % 13) as f64 * 0.07
            }
        })
        .collect()
}

/// Builds the LogGrep workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "LogGrep",
        GB,
        "grep 5xx log records and aggregate a smooth latency score (decode-on-CSD regime)",
        SOURCE,
        super::stored_once(
            || {
                let stored = |encoding, data: Vec<f64>| {
                    Value::Encoded(EncodedVal::from_f64s(encoding, &data, ACTUAL_ROWS as u64))
                };
                super::Stored {
                    scaled: vec![
                        ("log_status", stored(status_encoding(), status_column())),
                        ("log_latency", stored(latency_encoding(), latency_column())),
                    ],
                    fixed: Vec::new(),
                }
            },
            logical_rows,
        ),
    )
    .with_encodings(vec![
        ("log_status".to_string(), status_encoding()),
        ("log_latency".to_string(), latency_encoding()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn encoded_size_is_length_preserving_and_declared() {
        let w = workload();
        let st = w.storage_at(1.0);
        let encoded: u64 = ["log_status", "log_latency"]
            .iter()
            .map(|n| st.get(n).expect(n).virtual_bytes())
            .sum();
        let decoded = logical_rows(1.0) * 16;
        assert_eq!(encoded, decoded, "codec-less wire formats preserve size");
        let gb = encoded as f64 / 1e9;
        assert!((gb - GB).abs() / GB < 0.05, "declared {GB} vs {gb:.3}");
    }

    #[test]
    fn sentinels_mask_to_zero_and_grep_selects_errors() {
        let w = workload();
        let program = w.program().expect("parse");
        let st = w.storage_at(1.0);
        let mut interp = Interpreter::new(&st);
        interp.run(&program, &[]).expect("run");
        let lat = interp.var("lat").expect("lat").as_array().expect("arr");
        assert!(
            lat.data().iter().all(|&x| x >= 0.0),
            "decode must mask -1 sentinels to 0"
        );
        assert!(lat.data().contains(&0.0), "some samples must be masked");
        let sel = interp.var("sel").expect("sel").as_array().expect("arr");
        let fraction = sel.logical_len() as f64 / logical_rows(1.0) as f64;
        assert!(
            fraction > 0.01 && fraction < 0.1,
            "5xx ∧ present must be a thin band, got {fraction}"
        );
        let s = interp.var("s").expect("s").as_num().expect("num");
        assert!(s.is_finite() && s > 0.0, "score sum: {s}");
        let hits = interp.var("hits").expect("hits").as_num().expect("num");
        assert!(hits > 0.0);
    }

    #[test]
    fn every_scale_relabels_the_streams_encoded_once() {
        crate::apps::tests::assert_encoded_once(&workload(), |scale| {
            let rows = logical_rows(scale);
            vec![
                (
                    "log_status",
                    EncodedVal::from_f64s(status_encoding(), &status_column(), rows),
                ),
                (
                    "log_latency",
                    EncodedVal::from_f64s(latency_encoding(), &latency_column(), rows),
                ),
            ]
        });
    }

    #[test]
    fn big_endian_shuffled_streams_round_trip() {
        let w = workload();
        let st = w.storage_at(1.0 / 1024.0);
        let enc = st
            .get("log_status")
            .expect("status")
            .as_encoded()
            .expect("encoded");
        assert_eq!(enc.decode_all().expect("decode"), status_column());
        // The latency stream decodes with sentinels masked.
        let enc = st
            .get("log_latency")
            .expect("latency")
            .as_encoded()
            .expect("encoded");
        let masked: Vec<f64> = latency_column()
            .iter()
            .map(|&x| if x == MISSING { 0.0 } else { x })
            .collect();
        assert_eq!(enc.decode_all().expect("decode"), masked);
    }
}
