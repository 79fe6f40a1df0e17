//! MatrixMul: a tall-skinny projection matmul over stored features
//! (6.0 GB, Table I).
//!
//! A stored `n × 64` feature matrix is projected through a fixed `64 × 4`
//! weight block — 16× data reduction at one multiply-add per input byte —
//! then summarized by its Frobenius norm. The projection is the offload
//! candidate; the norm is trivial either way.

use super::{stored_once, Stored};
use crate::datagen::linalg::{feature_matrix, weight_matrix};
use crate::datagen::logical_rows;
use crate::spec::Workload;

/// Table-I size in gigabytes.
const GB: f64 = 6.0;
/// Input feature columns.
const IN_COLS: usize = 64;
/// Projected columns.
const OUT_COLS: usize = 4;
/// Materialized feature rows.
const ACTUAL_ROWS: usize = 2048;
/// RNG seed.
const SEED: u64 = 0x3A7;

const SOURCE: &str = "\
a = scan('features64')
w = scan('proj_weights')
y = matmul(a, w)
norm = frob(y)
";

/// Builds the MatrixMul workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "MatrixMul",
        GB,
        "tall-skinny feature projection (n x 64 times 64 x 4) with a norm summary",
        SOURCE,
        stored_once(
            || Stored {
                scaled: vec![(
                    "features64",
                    feature_matrix(GB, 1.0, IN_COLS, ACTUAL_ROWS, SEED),
                )],
                fixed: vec![("proj_weights", weight_matrix(IN_COLS, OUT_COLS, SEED))],
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
        "features64",
        feature_matrix(GB, scale, IN_COLS, ACTUAL_ROWS, SEED),
    );
    st.insert("proj_weights", weight_matrix(IN_COLS, OUT_COLS, SEED));
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn projection_shapes_compose() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let y = interp.var("y").expect("y").as_matrix().expect("matrix");
        assert_eq!(y.rows(), ACTUAL_ROWS);
        assert_eq!(y.cols(), OUT_COLS);
        let norm = interp.var("norm").expect("norm").as_num().expect("num");
        assert!(norm > 0.0 && norm.is_finite());
    }

    #[test]
    fn projection_reduces_sixteenfold() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let a = interp.var("a").expect("a").virtual_bytes();
        let y = interp.var("y").expect("y").virtual_bytes();
        let ratio = a as f64 / y as f64;
        assert!((ratio - 16.0).abs() < 0.1, "reduction {ratio}");
    }
}
