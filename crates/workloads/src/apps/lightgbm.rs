//! LightGBM: gradient-boosted-forest inference over stored features
//! (7.1 GB, Table I).
//!
//! A fixed ten-tree forest scores every stored feature row; the pipeline
//! then counts and averages the positive scores. Scoring reduces 256-byte
//! feature rows to 8-byte scores, so the whole chain is a strong in-storage
//! candidate despite its branchy per-row compute.

use crate::datagen::forestgen::random_forest;
use crate::datagen::linalg::feature_matrix;
use crate::spec::Workload;
use alang::shape::StoredReads;
use std::sync::Arc;

/// Feature columns per row.
const FEATURES: usize = 32;
/// Trees in the forest.
const TREES: usize = 10;
/// Internal levels per tree.
const DEPTH: u32 = 4;
/// Materialized feature rows.
const ACTUAL_ROWS: usize = 2048;
/// RNG seed.
const SEED: u64 = 0x16B;

const SOURCE: &str = "\
x = scan('features')
model = scan('gbm_model')
score = forest_score(model, x)
m = score > 0
hits = count(m)
pos = select(score, m)
avg = mean(pos)
";

/// Builds the LightGBM workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "LightGBM",
        7.1,
        "boosted-forest inference over stored features; count and average positive scores",
        SOURCE,
        Arc::new(|scale, _: &StoredReads| {
            let mut st = alang::Storage::new();
            st.insert(
                "features",
                feature_matrix(7.1, scale, FEATURES, ACTUAL_ROWS, SEED),
            );
            st.insert(
                "gbm_model",
                random_forest(TREES, DEPTH, FEATURES as u32, SEED),
            );
            st
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn scores_and_counts_are_consistent() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let score = interp.var("score").expect("score").as_array().expect("arr");
        assert_eq!(score.len(), ACTUAL_ROWS);
        let hits = interp.var("hits").expect("hits").as_num().expect("num");
        // Counts extrapolate to logical scale.
        assert!(hits <= score.logical_len() as f64);
        let avg = interp.var("avg").expect("avg").as_num().expect("num");
        assert!(avg > 0.0, "mean of positive scores must be positive: {avg}");
    }

    #[test]
    fn scoring_reduces_volume_thirtytwofold() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let x = interp.var("x").expect("x").virtual_bytes();
        let s = interp.var("score").expect("score").virtual_bytes();
        let ratio = x as f64 / s as f64;
        assert!((ratio - FEATURES as f64).abs() < 1.0, "reduction {ratio}");
    }
}
