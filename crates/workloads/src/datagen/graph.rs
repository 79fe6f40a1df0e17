//! Web-graph adjacency generator with a hub-heavy head.
//!
//! The paper's one systematic misprediction is the CSR conversion in
//! PageRank and SparseMV: "the sparsity is challenging to estimate with the
//! limited number of samples", and ActivePy *over-estimates* the CSR volume
//! by up to 2.41× (§V). The cause is real: web graphs are scale-free, and a
//! prefix sample of nodes is dominated by hubs, so the sampled edge density
//! overstates the full graph's.
//!
//! This generator models that directly: the logical adjacency matrix at
//! scale `s` covers the first `√s·N` nodes, whose edge density follows
//! `density(s) = d_full · s^(−β)`. With β ≈ 0.15 and the paper's four
//! sampling scales (geometric mean 2⁻⁸·⁵), a linear extrapolation of CSR
//! bytes over-estimates by `2^(8.5·β) ≈ 2.4×` — the paper's figure.

use super::{draws, rng_for};
use alang::matrix::Matrix;
use alang::Value;
use rand::Rng;

/// Density skew exponent of the hub-heavy head.
pub const DENSITY_BETA: f64 = 0.15;

/// Generates the adjacency matrix of a scale-free-ish graph: `gb × scale`
/// logical gigabytes of dense-stored adjacency, materialized as an
/// `actual_n × actual_n` block whose density matches the logical prefix.
///
/// `avg_degree` is the full graph's mean out-degree.
#[must_use]
pub fn adjacency(gb: f64, scale: f64, actual_n: usize, avg_degree: f64, seed: u64) -> Value {
    let full_n = (gb * 1e9 / 8.0).sqrt();
    let logical_n = ((full_n * scale.sqrt()).round() as u64).max(actual_n as u64);
    let full_density = avg_degree / full_n;
    let density = (full_density * scale.powf(-DENSITY_BETA)).min(0.5);
    let mut rng = rng_for(seed, scale);
    let mut data = vec![0.0; actual_n * actual_n];
    // Expected nnz in the block; place that many edges at random positions.
    // A small floor keeps degenerate blocks usable without distorting the
    // density-vs-scale relationship the misprediction experiment relies on.
    let nnz = ((actual_n * actual_n) as f64 * density).round().max(16.0) as usize;
    for _ in 0..nnz {
        let r = rng.gen_range(0..actual_n);
        let c = rng.gen_range(0..actual_n);
        data[r * actual_n + c] = 1.0;
    }
    Value::Matrix(
        Matrix::with_logical(data, actual_n, actual_n, logical_n, logical_n)
            .expect("shape is consistent by construction"),
    )
}

/// A uniform initial rank vector sized to the graph's logical node count.
#[must_use]
pub fn initial_ranks(gb: f64, scale: f64, actual_n: usize) -> Value {
    let full_n = (gb * 1e9 / 8.0).sqrt();
    let logical_n = ((full_n * scale.sqrt()).round() as u64).max(actual_n as u64);
    let r = 1.0 / actual_n as f64;
    Value::Array(alang::value::ArrayVal::with_logical(
        vec![r; actual_n],
        logical_n,
    ))
}

/// A dense input vector for SparseMV, sized like the rank vector.
#[must_use]
pub fn dense_vector(gb: f64, scale: f64, actual_n: usize, seed: u64) -> Value {
    let full_n = (gb * 1e9 / 8.0).sqrt();
    let logical_n = ((full_n * scale.sqrt()).round() as u64).max(actual_n as u64);
    let data = draws(rng_for(seed, scale), actual_n, 0.0..1.0);
    Value::Array(alang::value::ArrayVal::with_logical(data, logical_n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_volume_matches_gb() {
        let v = adjacency(7.7, 1.0, 256, 16.0, 1);
        let m = v.as_matrix().expect("matrix");
        let gb = m.virtual_bytes() as f64 / 1e9;
        assert!((gb - 7.7).abs() / 7.7 < 0.01, "got {gb}");
    }

    #[test]
    fn sampled_density_exceeds_full_density() {
        let full = adjacency(7.7, 1.0, 512, 16.0, 1);
        let tiny = adjacency(7.7, 1.0 / 1024.0, 512, 16.0, 1);
        let df = full.as_matrix().expect("f").density();
        let dt = tiny.as_matrix().expect("t").density();
        assert!(
            dt > df * 1.5,
            "hub-heavy prefix must look denser: tiny {dt} vs full {df}"
        );
    }

    #[test]
    fn csr_extrapolation_overestimates_near_paper_factor() {
        // Reproduce the fitting pipeline's behaviour analytically: CSR bytes
        // at scale s go as s^(1-beta); a linear fit over the paper's scales
        // lands 2^ (8.5*beta) ≈ 2.4x above the true full-scale volume.
        let scales = [2f64.powi(-10), 2f64.powi(-9), 2f64.powi(-8), 2f64.powi(-7)];
        let nnz_at = |s: f64| {
            let v = adjacency(7.7, s, 512, 16.0, 9);
            let m = v.as_matrix().expect("m");
            m.to_csr().logical_nnz() as f64
        };
        let mean_log_ratio: f64 =
            scales.iter().map(|s| (nnz_at(*s) / s).ln()).sum::<f64>() / scales.len() as f64;
        let predicted_full = mean_log_ratio.exp();
        let true_full = nnz_at(1.0);
        let factor = predicted_full / true_full;
        assert!(
            factor > 1.5 && factor < 3.5,
            "over-estimation factor {factor} should sit near the paper's 2.41x"
        );
    }

    #[test]
    fn rank_vector_sums_to_one() {
        let v = initial_ranks(7.7, 1.0, 256);
        let a = v.as_array().expect("arr");
        let total: f64 = a.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(a.logical_len() > a.len() as u64);
    }

    #[test]
    fn vector_lengths_match_graph_block() {
        let g = adjacency(6.4, 0.01, 384, 16.0, 2);
        let x = dense_vector(6.4, 0.01, 384, 2);
        assert_eq!(
            g.as_matrix().expect("g").cols(),
            x.as_array().expect("x").len()
        );
    }
}
