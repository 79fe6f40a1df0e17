//! The fig. 5 grid is a published output: its rows feed
//! `BENCH_repro.json` and the paper-facing tables, so the observability
//! layer must leave them byte-for-byte alone.
//!
//! 1. The untraced grid serializes byte-identically to the committed
//!    golden (`tests/golden/fig5_rows.json`; regenerate with
//!    `REGEN_FIG5_GOLDEN=1 cargo test --test fig5_golden` after an
//!    intentional model change).
//! 2. The traced serial grid (`fig5::run_traced`, what `repro --trace`
//!    runs) produces exactly the same rows as the untraced parallel
//!    grid — tracing is observation-only at the benchmark level too.

use activepy::PlanCache;
use alang::ParallelPolicy;
use csd_sim::SystemConfig;
use isp_bench::experiments::fig5;
use isp_obs::Tracer;

fn rendered(rows: &[fig5::Row]) -> String {
    serde_json::to_string(rows).expect("rows serialize")
}

#[test]
fn untraced_rows_match_the_committed_golden() {
    let rows = fig5::run(
        &SystemConfig::paper_default(),
        &PlanCache::new(),
        ParallelPolicy::default(),
    );
    let out = rendered(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig5_rows.json");
    if std::env::var_os("REGEN_FIG5_GOLDEN").is_some() {
        std::fs::write(path, &out).expect("golden is writable");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        out, golden,
        "fig5 rows drifted from tests/golden/fig5_rows.json; \
         regenerate with REGEN_FIG5_GOLDEN=1 if intentional"
    );
}

#[test]
fn traced_grid_rows_equal_the_untraced_grid() {
    let config = SystemConfig::paper_default();
    let untraced = fig5::run(&config, &PlanCache::new(), ParallelPolicy::default());
    let (tracer, sink) = Tracer::to_memory();
    let traced = fig5::run_traced(&config, &PlanCache::new(), &tracer, None);
    assert_eq!(
        rendered(&traced),
        rendered(&untraced),
        "enabling the tracer moved a fig5 row"
    );
    assert!(!sink.events().is_empty(), "the traced grid journaled spans");
}
