//! KMeans: one expectation-maximization refinement pass over stored points
//! (5.3 GB, Table I).
//!
//! The workload assigns every stored point to its nearest centroid and
//! recomputes the centroids — a single streaming pass whose output (the
//! centroid matrix) is tiny compared to the input, the shape that profits
//! from in-storage execution.

use super::{stored_once, Stored};
use crate::datagen::logical_rows;
use crate::datagen::points::{clustered_points, initial_centroids};
use crate::spec::Workload;

/// Table-I size in gigabytes.
const GB: f64 = 5.3;
/// Point dimensionality.
const DIMS: usize = 8;
/// Cluster count.
const K: usize = 8;
/// Materialized point rows.
const ACTUAL_ROWS: usize = 4096;
/// RNG seed.
const SEED: u64 = 0x4B;

const SOURCE: &str = "\
pts = scan('points')
c0 = scan('centroids')
a1 = kmeans_assign(pts, c0)
c1 = kmeans_update(pts, a1, 8)
spread = frob(c1)
";

/// Builds the KMeans workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "KMeans",
        GB,
        "one k-means EM pass (assign + centroid update) over stored points",
        SOURCE,
        stored_once(
            || Stored {
                scaled: vec![(
                    "points",
                    clustered_points(GB, 1.0, DIMS, K, ACTUAL_ROWS, SEED),
                )],
                fixed: vec![("centroids", initial_centroids(DIMS, K, SEED))],
            },
            |scale| logical_rows(GB, DIMS as u64 * 8, scale, ACTUAL_ROWS),
        ),
    )
}

/// The generator [`workload`] replaced, kept as the reference: every
/// scale drawn afresh.
#[cfg(test)]
pub(super) fn drawn_per_scale(scale: f64) -> alang::Storage {
    let mut st = alang::Storage::new();
    st.insert(
        "points",
        clustered_points(GB, scale, DIMS, K, ACTUAL_ROWS, SEED),
    );
    st.insert("centroids", initial_centroids(DIMS, K, SEED));
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn updated_centroids_stay_near_lattice() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let c1 = interp.var("c1").expect("c1").as_matrix().expect("matrix");
        assert_eq!(c1.rows(), K);
        assert_eq!(c1.cols(), DIMS);
        // Centres live on a 0..12 lattice; updated centroids must stay in a
        // generous envelope of it.
        assert!(c1.data().iter().all(|x| (-3.0..16.0).contains(x)));
    }

    #[test]
    fn assignment_output_is_small_relative_to_points() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let pts = interp.var("pts").expect("pts").virtual_bytes();
        let c1 = interp.var("c1").expect("c1").virtual_bytes();
        assert!(c1 * 1000 < pts, "centroids must be tiny: {c1} vs {pts}");
    }
}
