//! SparseMV: CSR conversion plus sparse matrix-vector product (§V and
//! Figure 5; 6.4 GB, not listed in Table I).
//!
//! Shares the CSR-volume misprediction mechanism with
//! [`crate::apps::pagerank`]: the sampled prefixes of the dense-stored
//! sparse matrix look denser than the whole, so ActivePy over-estimates the
//! conversion's output (conservatively — it never makes the plan worse).

use crate::datagen::graph::{adjacency, dense_vector};
use crate::spec::Workload;
use alang::shape::StoredReads;
use std::sync::Arc;

/// Dataset size in gigabytes (the paper does not list SparseMV in Table I;
/// we size it like its sibling graph workload).
const GB: f64 = 6.4;
/// Materialized block edge length.
const ACTUAL_N: usize = 384;
/// Mean non-zeros per row at full scale.
const AVG_DEGREE: f64 = 24.0;
/// RNG seed.
const SEED: u64 = 0x57F;

const SOURCE: &str = "\
m = scan('sparse_matrix')
a = to_csr(m)
x = scan('xvec')
y = spmv(a, x)
s = sum(y)
";

/// Builds the SparseMV workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "SparseMV",
        GB,
        "CSR conversion of a dense-stored sparse matrix followed by SpMV and a reduction",
        SOURCE,
        Arc::new(|scale, _: &StoredReads| {
            let mut st = alang::Storage::new();
            st.insert(
                "sparse_matrix",
                adjacency(GB, scale, ACTUAL_N, AVG_DEGREE, SEED),
            );
            st.insert("xvec", dense_vector(GB, scale, ACTUAL_N, SEED));
            st
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn spmv_matches_dense_multiply() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let m = interp.var("m").expect("m").as_matrix().expect("matrix");
        let x = interp.var("x").expect("x").as_array().expect("arr");
        let y = interp.var("y").expect("y").as_array().expect("arr");
        // Check one row against the dense dot product.
        let want: f64 = (0..m.cols()).map(|j| m.get(0, j) * x.data()[j]).sum();
        assert!((y.data()[0] - want).abs() < 1e-9);
    }

    #[test]
    fn reduction_is_finite_and_positive() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let s = interp.var("s").expect("s").as_num().expect("num");
        assert!(s.is_finite() && s > 0.0, "sum {s}");
    }
}
