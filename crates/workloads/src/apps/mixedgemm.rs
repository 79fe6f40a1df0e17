//! MixedGEMM: a mixed pipeline of streaming projection and dense
//! compute (9.4 GB, Table I).
//!
//! Stage one projects a stored `n × 64` matrix to `n × 8` (streaming,
//! data-reducing — the CSD's sweet spot). Stage two builds the `8 × 8`
//! Gram matrix of the projection and squares it with a dense GEMM
//! (compute-dense — the host's sweet spot). A good framework splits this
//! program across the boundary; a naive all-or-nothing offload loses on
//! one of the halves.

use super::{stored_once, Stored};
use crate::datagen::linalg::{feature_matrix, weight_matrix};
use crate::datagen::logical_rows;
use crate::spec::Workload;

/// Table-I size in gigabytes.
const GB: f64 = 9.4;
/// Input columns.
const IN_COLS: usize = 64;
/// Projected columns.
const OUT_COLS: usize = 8;
/// Materialized rows.
const ACTUAL_ROWS: usize = 2048;
/// RNG seed.
const SEED: u64 = 0x93E;

const SOURCE: &str = "\
x = scan('mixed_features')
w1 = scan('mixed_proj')
y = matmul(x, w1)
g = gram(y)
g2 = matmul(g, g)
g3 = matmul(g2, g)
trace = frob(g3)
";

/// Builds the MixedGEMM workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "MixedGEMM",
        GB,
        "streaming projection (n x 64 -> n x 8) feeding dense Gram-matrix powers",
        SOURCE,
        stored_once(
            || Stored {
                scaled: vec![(
                    "mixed_features",
                    feature_matrix(GB, 1.0, IN_COLS, ACTUAL_ROWS, SEED),
                )],
                fixed: vec![("mixed_proj", weight_matrix(IN_COLS, OUT_COLS, SEED))],
            },
            |scale| logical_rows(GB, IN_COLS as u64 * 8, scale, ACTUAL_ROWS),
        ),
    )
}

/// The generator [`workload`] replaced, kept as the reference: every
/// scale drawn afresh.
#[cfg(test)]
pub(super) fn drawn_per_scale(scale: f64) -> alang::Storage {
    let mut st = alang::Storage::new();
    st.insert(
        "mixed_features",
        feature_matrix(GB, scale, IN_COLS, ACTUAL_ROWS, SEED),
    );
    st.insert("mixed_proj", weight_matrix(IN_COLS, OUT_COLS, SEED));
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn gram_powers_have_right_shape() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let g3 = interp.var("g3").expect("g3").as_matrix().expect("matrix");
        assert_eq!((g3.rows(), g3.cols()), (OUT_COLS, OUT_COLS));
        let trace = interp.var("trace").expect("trace").as_num().expect("num");
        assert!(trace.is_finite() && trace >= 0.0);
    }

    #[test]
    fn gram_matrix_is_symmetric() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let g = interp.var("g").expect("g").as_matrix().expect("matrix");
        for i in 0..OUT_COLS {
            for j in 0..OUT_COLS {
                assert!(
                    (g.get(i, j) - g.get(j, i)).abs() < 1e-6,
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }
}
