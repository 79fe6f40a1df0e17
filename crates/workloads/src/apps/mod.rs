//! The nine Table-I applications plus SparseMV (added by the paper's §V
//! discussion and Figure 5).
//!
//! Each module builds one [`crate::spec::Workload`]: an unannotated ALang
//! program — no ISP hints anywhere — and a deterministic, scale-parameterized
//! input generator sized to Table I.

pub mod blackscholes;
pub mod kmeans;
pub mod lightgbm;
pub mod loggrep;
pub mod matrixmul;
pub mod mixedgemm;
pub mod pagerank;
pub mod sparsemv;
pub mod tpch_q1;
pub mod tpch_q14;
pub mod tpch_q6;
pub mod tpch_q6_gz;

use crate::spec::{Generator, Workload};
use alang::value::EncodedVal;
use alang::{Storage, Value};
use std::sync::{Arc, OnceLock};

/// The generator of a workload whose datasets are stored in a wire
/// format. `encode` builds the `(dataset, stream)` pairs on the first
/// call and every call, scale 1.0 included, relabels those same chunks to
/// `logical_rows(scale)` elements: a stored stream's content does not
/// depend on the scale, so it is encoded once.
fn encoded_once(
    encode: fn() -> Vec<(&'static str, EncodedVal)>,
    logical_rows: fn(f64) -> u64,
) -> Generator {
    let stored = OnceLock::new();
    Arc::new(move |scale| {
        let rows = logical_rows(scale);
        let mut st = Storage::new();
        for (name, stream) in stored.get_or_init(encode) {
            st.insert(*name, Value::Encoded(stream.with_logical_len(rows)));
        }
        st
    })
}

/// The nine applications of Table I, in the paper's order.
#[must_use]
pub fn table1() -> Vec<Workload> {
    vec![
        blackscholes::workload(),
        kmeans::workload(),
        lightgbm::workload(),
        matrixmul::workload(),
        mixedgemm::workload(),
        pagerank::workload(),
        tpch_q1::workload(),
        tpch_q6::workload(),
        tpch_q14::workload(),
    ]
}

/// Table I plus SparseMV (the workload set of Figure 5 / §V).
#[must_use]
pub fn with_sparsemv() -> Vec<Workload> {
    let mut v = table1();
    v.push(sparsemv::workload());
    v
}

/// The wire-format workloads: datasets stored encoded (gzip, shuffle,
/// endianness, missing-value sentinels), read through
/// `scan_raw`/`decode`. One per decode-placement regime of Eq. 1.
#[must_use]
pub fn decode_set() -> Vec<Workload> {
    vec![tpch_q6_gz::workload(), loggrep::workload()]
}

/// Every workload: Figure 5's set plus the wire-format families.
#[must_use]
pub fn full_set() -> Vec<Workload> {
    let mut v = with_sparsemv();
    v.extend(decode_set());
    v
}

/// Looks up a workload by (case-insensitive) name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    full_set()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use activepy::sampling::paper_scales;
    use alang::Fingerprinter;

    /// Asserts that `w` encodes its streams once: at every sampling scale
    /// and at 1.0 each dataset is the stream `old(scale)` encodes afresh,
    /// the way the generator used to, by `==`, digest and `virtual_bytes`,
    /// and sits on the Table-I storage's chunk buffers.
    pub(super) fn assert_encoded_once(
        w: &Workload,
        old: impl Fn(f64) -> Vec<(&'static str, EncodedVal)>,
    ) {
        let table1 = w.storage_at(1.0);
        let chunks = |st: &Storage, name: &str| {
            let stream = st.get(name).and_then(Value::as_encoded).expect(name);
            stream.chunks().as_ptr()
        };
        for scale in paper_scales().into_iter().chain([1.0]) {
            let st = w.storage_at(scale);
            let old = old(scale);
            assert_eq!(st.names().count(), old.len());
            for (name, stream) in old {
                let what = format!("{} {name} at {scale}", w.name());
                let (got, want) = (st.get(name).expect(name), Value::Encoded(stream));
                assert_eq!(got, &want, "{what}");
                let digest = Fingerprinter::digest(&want);
                assert_eq!(Fingerprinter::digest(got), digest, "{what}");
                assert_eq!(st.digest(name).expect(name), digest, "{what}");
                assert_eq!(got.virtual_bytes(), want.virtual_bytes(), "{what}");
                assert_eq!(chunks(&st, name), chunks(&table1, name), "{what}");
            }
        }
    }

    #[test]
    fn table1_has_nine_apps_with_paper_sizes() {
        let apps = table1();
        assert_eq!(apps.len(), 9);
        let sizes: Vec<(String, f64)> = apps
            .iter()
            .map(|w| (w.name().to_owned(), w.table1_gb()))
            .collect();
        let expect = [
            ("blackscholes", 9.1),
            ("KMeans", 5.3),
            ("LightGBM", 7.1),
            ("MatrixMul", 6.0),
            ("MixedGEMM", 9.4),
            ("PageRank", 7.7),
            ("TPC-H-1", 6.9),
            ("TPC-H-6", 6.9),
            ("TPC-H-14", 7.1),
        ];
        for ((name, gb), (ename, egb)) in sizes.iter().zip(expect.iter()) {
            assert_eq!(name, ename);
            assert!((gb - egb).abs() < 1e-9, "{name}: {gb} vs {egb}");
        }
    }

    #[test]
    fn all_programs_parse() {
        for w in full_set() {
            let p = w
                .program()
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", w.name()));
            assert!(p.len() >= 3, "{} suspiciously short", w.name());
        }
    }

    #[test]
    fn all_programs_execute_at_tiny_scale() {
        use alang::Interpreter;
        for w in full_set() {
            let program = w.program().expect("parse");
            let storage = w.storage_at(1.0 / 1024.0);
            let mut interp = Interpreter::new(&storage);
            interp
                .run(&program, &[])
                .unwrap_or_else(|e| panic!("{} fails to run: {e}", w.name()));
        }
    }

    #[test]
    fn declared_sizes_match_generated_volumes() {
        for w in full_set() {
            let storage = w.storage_at(1.0);
            let gb = storage.total_virtual_bytes() as f64 / 1e9;
            assert!(
                (gb - w.table1_gb()).abs() / w.table1_gb() < 0.05,
                "{}: generated {gb} GB vs declared {} GB",
                w.name(),
                w.table1_gb()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("pagerank").is_some());
        assert!(by_name("TPC-H-6").is_some());
        assert!(by_name("tpc-h-6-gz").is_some());
        assert!(by_name("LogGrep").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn decode_set_declares_encodings_and_plain_workloads_do_not() {
        for w in decode_set() {
            assert!(
                !w.encodings().is_empty(),
                "{} must declare its wire formats",
                w.name()
            );
            assert_ne!(
                activepy::sampling::InputSource::wire_fingerprint(&w),
                0,
                "{} needs a nonzero wire fingerprint",
                w.name()
            );
        }
        for w in with_sparsemv() {
            assert_eq!(activepy::sampling::InputSource::wire_fingerprint(&w), 0);
        }
        // The two regimes must never share a plan-cache key.
        let fps: Vec<u64> = decode_set()
            .iter()
            .map(activepy::sampling::InputSource::wire_fingerprint)
            .collect();
        assert_ne!(fps[0], fps[1]);
    }
}
