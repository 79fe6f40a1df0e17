//! PageRank: CSR conversion of a dense-stored web graph plus three damped
//! rank iterations (7.7 GB, Table I).
//!
//! The dominant data movement is the dense adjacency scan; converting it to
//! CSR next to the flash shrinks it by orders of magnitude, after which the
//! rank iterations are cheap anywhere. The CSR conversion is also the one
//! operation whose output volume ActivePy systematically over-estimates
//! (§V) — the hub-heavy sample prefixes look denser than the full graph
//! (see [`crate::datagen::graph`]).

use crate::datagen::graph::{adjacency, initial_ranks};
use crate::spec::Workload;
use alang::shape::StoredReads;
use std::sync::Arc;

/// Materialized adjacency block edge length.
const ACTUAL_N: usize = 384;
/// Full-graph mean out-degree.
const AVG_DEGREE: f64 = 16.0;
/// RNG seed.
const SEED: u64 = 0x46;

const SOURCE: &str = "\
g = scan('web_graph')
adj = to_csr(g)
r0 = scan('ranks')
r1 = pagerank_step(adj, r0, 0.85)
r2 = pagerank_step(adj, r1, 0.85)
r3 = pagerank_step(adj, r2, 0.85)
top = maxv(r3)
";

/// Builds the PageRank workload.
#[must_use]
pub fn workload() -> Workload {
    Workload::new(
        "PageRank",
        7.7,
        "CSR conversion of a dense-stored web graph, then three damped rank steps",
        SOURCE,
        Arc::new(|scale, _: &StoredReads| {
            let mut st = alang::Storage::new();
            st.insert(
                "web_graph",
                adjacency(7.7, scale, ACTUAL_N, AVG_DEGREE, SEED),
            );
            st.insert("ranks", initial_ranks(7.7, scale, ACTUAL_N));
            st
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Interpreter;

    #[test]
    fn rank_mass_is_conserved() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.01);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let r3 = interp.var("r3").expect("r3").as_array().expect("arr");
        let total: f64 = r3.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "mass {total}");
        let top = interp.var("top").expect("top").as_num().expect("num");
        assert!(top > 0.0 && top <= 1.0);
    }

    #[test]
    fn csr_shrinks_the_graph_dramatically() {
        let w = workload();
        let program = w.program().expect("parse");
        let storage = w.storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        interp.run(&program, &[]).expect("run");
        let dense = interp.var("g").expect("g").virtual_bytes();
        let csr = interp.var("adj").expect("adj").virtual_bytes();
        assert!(
            csr * 100 < dense,
            "CSR {csr} should be far smaller than dense {dense}"
        );
    }
}
