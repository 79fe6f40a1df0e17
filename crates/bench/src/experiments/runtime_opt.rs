//! §V, "ActivePy's optimizations in its language runtime": the three-tier
//! ladder between plain interpretation and C.
//!
//! Paper results (host-only, no ISP): the unoptimized Python baseline is
//! 41 % slower than the C baseline; Cython-style compilation shrinks the
//! gap to 20 %; eliminating the redundant memory copies makes the Python
//! program match C, modulo ≈1 % compilation overhead.

use crate::mean;
use alang::compile::compile_secs_for;
use alang::ExecTier;
use csd_sim::SystemConfig;
use isp_baselines::run_host_only;
use serde::Serialize;

/// One workload's ladder.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// C baseline, seconds.
    pub native_secs: f64,
    /// Interpreted / C slowdown.
    pub interpreted_ratio: f64,
    /// Cython-compiled / C slowdown.
    pub compiled_ratio: f64,
    /// Copy-eliminated / C slowdown.
    pub copy_elim_ratio: f64,
    /// Compilation overhead as a fraction of the native run.
    pub compile_overhead_ratio: f64,
}

/// Runs the ladder over the nine Table-I workloads.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run(config: &SystemConfig) -> Vec<Row> {
    crate::sweep::run_grid(isp_workloads::table1(), |w| {
        let native = run_host_only(&w, config, ExecTier::Native)
            .expect("native")
            .total_secs;
        let interp = run_host_only(&w, config, ExecTier::Interpreted)
            .expect("interpreted")
            .total_secs;
        let compiled = run_host_only(&w, config, ExecTier::Compiled)
            .expect("compiled")
            .total_secs;
        let elim = run_host_only(&w, config, ExecTier::CompiledCopyElim)
            .expect("copy-elim")
            .total_secs;
        let lines = w.program().expect("parse").len();
        Row {
            name: w.name().to_owned(),
            native_secs: native,
            interpreted_ratio: interp / native,
            compiled_ratio: compiled / native,
            copy_elim_ratio: elim / native,
            compile_overhead_ratio: compile_secs_for(lines) / native,
        }
    })
}

/// Prints the ladder.
pub fn print(rows: &[Row]) {
    println!("== Runtime optimizations: slowdown vs the C baseline (host only) ==");
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "workload", "C-base", "python/C", "cython/C", "copyelim/C", "compile%"
    );
    for r in rows {
        println!(
            "{:<14} {:>7.2}s {:>9.3} {:>9.3} {:>10.3} {:>9.2}%",
            r.name,
            r.native_secs,
            r.interpreted_ratio,
            r.compiled_ratio,
            r.copy_elim_ratio,
            r.compile_overhead_ratio * 100.0
        );
    }
    let i: Vec<f64> = rows.iter().map(|r| r.interpreted_ratio).collect();
    let c: Vec<f64> = rows.iter().map(|r| r.compiled_ratio).collect();
    let e: Vec<f64> = rows.iter().map(|r| r.copy_elim_ratio).collect();
    println!(
        "mean: python {:.2} (paper 1.41), cython {:.2} (paper 1.20), copy-elim {:.2} (paper ~1.01)",
        mean(&i),
        mean(&c),
        mean(&e)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_means_land_near_the_paper() {
        let rows = run(&SystemConfig::paper_default());
        let i = mean(&rows.iter().map(|r| r.interpreted_ratio).collect::<Vec<_>>());
        let c = mean(&rows.iter().map(|r| r.compiled_ratio).collect::<Vec<_>>());
        let e = mean(&rows.iter().map(|r| r.copy_elim_ratio).collect::<Vec<_>>());
        assert!(
            (i - 1.41).abs() < 0.15,
            "interpreted mean {i} vs paper 1.41"
        );
        assert!((c - 1.20).abs() < 0.08, "compiled mean {c} vs paper 1.20");
        assert!(e < 1.02, "copy-elim mean {e} vs paper ~1.01");
        for r in &rows {
            assert!(
                r.copy_elim_ratio <= r.compiled_ratio && r.compiled_ratio < r.interpreted_ratio,
                "{}: ladder inverted",
                r.name
            );
            assert!(
                r.compile_overhead_ratio < 0.05,
                "{}: compile overhead {}",
                r.name,
                r.compile_overhead_ratio
            );
        }
    }
}
