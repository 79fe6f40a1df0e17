//! Figure 4: ActivePy (no programmer hints) versus the optimal
//! programmer-directed C-based ISP configuration, both normalized to the
//! no-CSD C baseline, with the CSD fully dedicated to the application.
//!
//! Paper result: 1.34× (ActivePy) vs 1.33× (programmer-directed) on
//! average — ActivePy "successfully identified *exactly* the same set of
//! code regions", with ≈1 % sampling/code-generation overhead.

use crate::geomean;
use activepy::runtime::ActivePy;
use activepy::PlanCache;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::{best_static_plan, run_c_baseline, run_plan};
use serde::Serialize;
use std::collections::BTreeSet;

/// One workload's comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// No-CSD C baseline, seconds.
    pub baseline_secs: f64,
    /// Programmer-directed ISP, seconds.
    pub pd_secs: f64,
    /// ActivePy end-to-end (including sampling + codegen), seconds.
    pub activepy_secs: f64,
    /// Programmer-directed speedup.
    pub pd_speedup: f64,
    /// ActivePy speedup.
    pub activepy_speedup: f64,
    /// Lines the programmer-directed search offloaded.
    pub pd_lines: Vec<usize>,
    /// Lines ActivePy offloaded.
    pub activepy_lines: Vec<usize>,
    /// Sampling + code-generation overhead, seconds.
    pub overhead_secs: f64,
}

impl Row {
    /// Whether ActivePy's region choice covers the programmer-directed
    /// one (identical, or a superset differing only in cheap lines).
    #[must_use]
    pub fn regions_agree(&self) -> bool {
        let pd: BTreeSet<_> = self.pd_lines.iter().collect();
        let ap: BTreeSet<_> = self.activepy_lines.iter().collect();
        pd.is_subset(&ap) || ap.is_subset(&pd)
    }
}

/// Runs the comparison over the nine Table-I workloads, planning through
/// `cache`; the workload grid fans out over [`crate::sweep::run_grid`].
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run(config: &SystemConfig, cache: &PlanCache) -> Vec<Row> {
    crate::sweep::run_grid(isp_workloads::table1(), |w| {
        let baseline = run_c_baseline(&w, config)
            .expect("baseline runs")
            .total_secs;
        let static_plan = best_static_plan(&w, config).expect("plan search succeeds");
        let pd = run_plan(&w, config, &static_plan, ContentionScenario::none())
            .expect("plan re-runs")
            .total_secs;
        let program = w.program().expect("registered workloads parse");
        let rt = ActivePy::new();
        let plan = cache
            .plan_for(&rt, w.name(), &program, &w, config)
            .expect("planning succeeds");
        let ap = rt
            .execute_plan(&plan, config, ContentionScenario::none())
            .expect("ActivePy pipeline runs")
            .report
            .total_secs;
        Row {
            name: w.name().to_owned(),
            baseline_secs: baseline,
            pd_secs: pd,
            activepy_secs: ap,
            pd_speedup: baseline / pd,
            activepy_speedup: baseline / ap,
            pd_lines: static_plan.csd_lines(),
            activepy_lines: plan.assignment.csd_lines.iter().copied().collect(),
            overhead_secs: plan.sampling_secs + plan.compile_secs,
        }
    })
}

/// Prints the comparison in the figure's layout.
pub fn print(rows: &[Row]) {
    println!("== Fig 4: ActivePy vs programmer-directed ISP (100% CSD) ==");
    println!(
        "{:<14} {:>8} {:>8} {:>7} {:>8} {:>7} {:>9} {:>8}",
        "workload", "C-base", "PD-isp", "PDx", "ActivePy", "APx", "overhead", "regions"
    );
    for r in rows {
        println!(
            "{:<14} {:>7.2}s {:>7.2}s {:>6.2}x {:>7.2}s {:>6.2}x {:>8.3}s {:>8}",
            r.name,
            r.baseline_secs,
            r.pd_secs,
            r.pd_speedup,
            r.activepy_secs,
            r.activepy_speedup,
            r.overhead_secs,
            if r.regions_agree() { "match" } else { "DIFFER" },
        );
    }
    let pd: Vec<f64> = rows.iter().map(|r| r.pd_speedup).collect();
    let ap: Vec<f64> = rows.iter().map(|r| r.activepy_speedup).collect();
    println!(
        "geomean speedup: programmer-directed {:.2}x (paper 1.33x), ActivePy {:.2}x (paper 1.34x)",
        geomean(&pd),
        geomean(&ap)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activepy_matches_programmer_directed() {
        let rows = run(&SystemConfig::paper_default(), &PlanCache::new());
        assert_eq!(rows.len(), 9);
        for r in &rows {
            // Both configurations beat or match the baseline.
            assert!(r.pd_speedup > 0.99, "{}: PD {}", r.name, r.pd_speedup);
            assert!(
                r.activepy_speedup > 0.95,
                "{}: AP {}",
                r.name,
                r.activepy_speedup
            );
            // ActivePy lands within 10% of the hand-optimized plan.
            let ratio = r.activepy_speedup / r.pd_speedup;
            assert!(
                ratio > 0.9,
                "{}: ActivePy {}x far from PD {}x",
                r.name,
                r.activepy_speedup,
                r.pd_speedup
            );
            assert!(r.regions_agree(), "{}: regions differ", r.name);
            // Overhead stays a small fraction of the run (paper: ~1%).
            assert!(
                r.overhead_secs < 0.08 * r.activepy_secs,
                "{}: overhead {} too large",
                r.name,
                r.overhead_secs
            );
        }
        let pd = geomean(&rows.iter().map(|r| r.pd_speedup).collect::<Vec<_>>());
        let ap = geomean(&rows.iter().map(|r| r.activepy_speedup).collect::<Vec<_>>());
        assert!(
            pd > 1.2 && pd < 1.6,
            "PD geomean {pd} out of the paper's band"
        );
        assert!(
            ap > 1.15 && ap < 1.6,
            "AP geomean {ap} out of the paper's band"
        );
        assert!(
            (ap / pd - 1.0).abs() < 0.1,
            "AP {ap} vs PD {pd}: not 'almost the same'"
        );
    }
}
