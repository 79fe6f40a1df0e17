//! Dense linear-algebra generators: feature matrices and weight blocks.

use super::{draws, logical_rows, rng_for};
use alang::matrix::Matrix;
use alang::Value;

/// Generates an `n × cols` feature matrix of `gb × scale` logical
/// gigabytes, materialized at `actual_rows` rows.
#[must_use]
pub fn feature_matrix(gb: f64, scale: f64, cols: usize, actual_rows: usize, seed: u64) -> Value {
    let data = draws(rng_for(seed, scale), actual_rows * cols, -1.0..1.0);
    let logical = logical_rows(gb, cols as u64 * 8, scale, actual_rows);
    Value::Matrix(
        Matrix::with_logical(data, actual_rows, cols, logical, cols as u64)
            .expect("shape is consistent by construction"),
    )
}

/// Generates a small unscaled `rows × cols` weight matrix (a model
/// parameter, not a dataset — its size does not scale).
#[must_use]
pub fn weight_matrix(rows: usize, cols: usize, seed: u64) -> Value {
    let data = draws(rng_for(seed, 1.0), rows * cols, -0.5..0.5);
    Value::Matrix(Matrix::new(data, rows, cols).expect("shape is consistent"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_volume_matches_gb() {
        let v = feature_matrix(6.0, 1.0, 64, 2048, 1);
        let m = v.as_matrix().expect("matrix");
        assert_eq!(m.cols(), 64);
        assert_eq!(m.rows(), 2048);
        let gb = m.virtual_bytes() as f64 / 1e9;
        assert!((gb - 6.0).abs() < 0.01, "got {gb}");
    }

    #[test]
    fn weight_matrix_is_unscaled() {
        let v = weight_matrix(64, 4, 2);
        let m = v.as_matrix().expect("matrix");
        assert_eq!(m.logical_rows(), 64);
        assert_eq!(m.logical_cols(), 4);
    }

    #[test]
    fn values_are_bounded() {
        let v = feature_matrix(1.0, 0.01, 8, 256, 3);
        let m = v.as_matrix().expect("matrix");
        assert!(m.data().iter().all(|x| (-1.0..1.0).contains(x)));
    }
}
