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
use alang::shape::StoredReads;
use alang::{Storage, Value};
use std::sync::{Arc, OnceLock};

/// What a workload stores once: the datasets whose logical rows scale and
/// the model parameters whose size does not.
struct Stored {
    /// Encoded streams and matrices, relabelled to each scale's rows.
    scaled: Vec<(&'static str, Value)>,
    /// Shared as they are at every scale.
    fixed: Vec<(&'static str, Value)>,
}

/// The generator of a workload none of whose sampled costs reads a scaled
/// dataset's values. `store` builds the datasets on the first call, at
/// their Table-I draw, and every call, scale 1.0 included, relabels those
/// same buffers to `logical_rows(scale)` rows: a wire-format stream does
/// not depend on the scale, and a matmul or k-means pass costs the same on
/// any draw of its shape. A dataset whose values a sampled cost reads (a
/// filter's selectivity, a tree path, a CSR density) is drawn per scale
/// instead, so each sample carries its own draw noise, which is what
/// reproduces §V's data-dependent volume error.
fn stored_once(store: fn() -> Stored, logical_rows: fn(f64) -> u64) -> Generator {
    let stored = OnceLock::new();
    Arc::new(move |scale, _: &StoredReads| {
        let Stored { scaled, fixed } = stored.get_or_init(store);
        let rows = logical_rows(scale);
        let mut st = Storage::new();
        for (name, value) in scaled {
            let relabelled = match value {
                Value::Encoded(stream) => Value::Encoded(stream.with_logical_len(rows)),
                Value::Matrix(m) => Value::Matrix(
                    m.with_logical_rows(rows)
                        .expect("logical rows never fall below the materialized rows"),
                ),
                _ => unreachable!("{name}: only streams and matrices are stored scaled"),
            };
            st.insert(*name, relabelled);
        }
        for (name, value) in fixed {
            st.insert(*name, value.clone());
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
    use alang::value::EncodedVal;
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
    fn every_scale_relabels_the_matrices_drawn_once() {
        use crate::datagen::logical_rows;
        use activepy::sampling::{run_sampling, InputSource};
        let scales = paper_scales();
        let matrix =
            |st: &Storage, name: &str| st.get(name).and_then(Value::as_matrix).expect(name).clone();
        let report = |w: &Workload, source: &dyn InputSource| {
            run_sampling(&w.program().expect("parse"), source, &scales).expect("samples")
        };
        let drawn_once = [
            matrixmul::workload(),
            mixedgemm::workload(),
            kmeans::workload(),
        ];
        let drawn_per_scale: [fn(f64) -> Storage; 3] = [
            matrixmul::drawn_per_scale,
            mixedgemm::drawn_per_scale,
            kmeans::drawn_per_scale,
        ];
        for (w, old) in drawn_once.into_iter().zip(drawn_per_scale) {
            // Sampling cannot tell the one draw from a draw per scale.
            assert_eq!(report(&w, &w), report(&w, &old), "{}", w.name());
            let table1 = w.storage_at(1.0);
            for scale in paper_scales().into_iter().chain([1.0]) {
                let (st, old) = (w.storage_at(scale), old(scale));
                assert_eq!(st.names().count(), old.names().count());
                for name in old.names() {
                    let what = format!("{} {name} at {scale}", w.name());
                    let (got, want) = (matrix(&st, name), matrix(&old, name));
                    assert_eq!(got.rows(), want.rows(), "{what}");
                    assert_eq!(got.cols(), want.cols(), "{what}");
                    assert_eq!(got.logical_rows(), want.logical_rows(), "{what}");
                    assert_eq!(got.logical_cols(), want.logical_cols(), "{what}");
                    let stored = matrix(&table1, name);
                    assert_eq!(got.data().as_ptr(), stored.data().as_ptr(), "{what}");
                    if scale == 1.0 {
                        assert_eq!(got, want, "{what}: the Table-I draw");
                    }
                }
            }
        }
        // LightGBM's sampled costs read its features' values (tree paths,
        // the positive-score selection): one draw would move them.
        let w = lightgbm::workload();
        let once = |scale| {
            let mut st = w.storage_at(1.0);
            let features = matrix(&st, "features");
            let bytes_per_row = features.cols() as u64 * 8;
            let rows = logical_rows(w.table1_gb(), bytes_per_row, scale, features.rows());
            st.insert(
                "features",
                Value::Matrix(features.with_logical_rows(rows).expect("rows")),
            );
            st
        };
        assert_ne!(report(&w, &w), report(&w, &once));
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
