//! Flexibility experiments: the system dynamics §II-B3 lists beyond CSE
//! contention.
//!
//! 1. **Interconnect sweep** — the `BW_D2H` term of Eq. 1 varies across
//!    deployments (PCIe generations, shared hubs, NVMe-oF fabrics).
//!    ActivePy re-derives its assignment for each platform from the same
//!    unannotated source: narrower pipes pull more lines onto the CSD and
//!    enlarge the ISP profit; a plan baked for one platform is wrong on
//!    another.
//! 2. **Garbage collection** — "resource contention coming from the
//!    storage management workloads": a duty-cycled GC schedule steals
//!    internal bandwidth from everyone; the monitor decides whether the
//!    degraded device is still worth it.

use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::PlanCache;
use csd_sim::flash::GcSchedule;
use csd_sim::units::{Bandwidth, Duration};
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::run_c_baseline;
use serde::Serialize;

/// One platform point of the interconnect sweep.
#[derive(Debug, Clone, Serialize)]
pub struct BwRow {
    /// Platform label.
    pub platform: String,
    /// Effective device-to-host bandwidth, GB/s.
    pub bw_d2h_gbps: f64,
    /// Lines ActivePy offloaded on this platform.
    pub offloaded_lines: usize,
    /// Speedup over the same platform's no-CSD baseline.
    pub speedup: f64,
}

/// Sweeps the external bandwidth on MixedGEMM (the workload with both
/// streaming and compute stages, where the split point actually moves).
/// The platform grid fans out over [`crate::sweep::run_grid`]; each
/// platform is a distinct plan key in `cache` — the point of the
/// experiment is that the assignment changes.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run_bw_sweep(cache: &PlanCache) -> Vec<BwRow> {
    let w = isp_workloads::by_name("MixedGEMM").expect("registered");
    let program = w.program().expect("parse");
    let mut platforms: Vec<(String, SystemConfig)> =
        vec![("nvme-of 25GbE".into(), SystemConfig::nvmeof_default())];
    for gbps in [1.0, 2.0, 4.0, 8.5] {
        platforms.push((
            format!("pcie {gbps} GB/s"),
            SystemConfig::paper_default()
                .with_nvme_bandwidth(Bandwidth::from_gb_per_sec(gbps))
                .with_pcie_bandwidth(Bandwidth::from_gb_per_sec(gbps)),
        ));
    }
    crate::sweep::run_grid(platforms, |(platform, config)| {
        let baseline = run_c_baseline(&w, &config).expect("baseline").total_secs;
        let rt = ActivePy::new();
        let plan = cache
            .plan_for(&rt, w.name(), &program, &w, &config)
            .expect("planning succeeds");
        let outcome = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("pipeline");
        BwRow {
            platform,
            bw_d2h_gbps: config.d2h_bandwidth().as_bytes_per_sec() / 1e9,
            offloaded_lines: plan.assignment.csd_lines.len(),
            speedup: baseline / outcome.report.total_secs,
        }
    })
}

/// One GC scenario row.
#[derive(Debug, Clone, Serialize)]
pub struct GcRow {
    /// Fraction of time the flash spends in a GC window.
    pub gc_duty: f64,
    /// Quiet (no-GC) baseline, seconds.
    pub quiet_baseline_secs: f64,
    /// ActivePy with migration under GC, seconds.
    pub with_migration_secs: f64,
    /// ActivePy without migration under GC, seconds.
    pub without_migration_secs: f64,
    /// Whether a migration fired.
    pub migrated: bool,
}

/// Runs TPC-H-6 under increasingly aggressive garbage collection. The
/// with- and without-migration variants differ only in execution policy,
/// so each GC duty level plans once (through `cache`) and both variants
/// replay that plan.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run_gc(cache: &PlanCache) -> Vec<GcRow> {
    let w = isp_workloads::by_name("TPC-H-6").expect("registered");
    let program = w.program().expect("parse");
    let quiet = run_c_baseline(&w, &SystemConfig::paper_default())
        .expect("baseline")
        .total_secs;
    crate::sweep::run_grid(vec![0.0, 0.3, 0.6, 0.9], |duty| {
        let config = if duty == 0.0 {
            SystemConfig::paper_default()
        } else {
            SystemConfig::paper_default().with_gc(GcSchedule::new(
                Duration::from_secs(0.2),
                Duration::from_secs(0.2 * duty),
                0.15,
            ))
        };
        let rt = ActivePy::new();
        let plan = cache
            .plan_for(&rt, w.name(), &program, &w, &config)
            .expect("planning succeeds");
        let with_mig = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("with migration");
        let without = ActivePy::with_options(ActivePyOptions::default().without_migration())
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("without migration");
        GcRow {
            gc_duty: duty,
            quiet_baseline_secs: quiet,
            with_migration_secs: with_mig.report.total_secs,
            without_migration_secs: without.report.total_secs,
            migrated: with_mig.report.migration().is_some(),
        }
    })
}

/// Prints both flexibility tables.
pub fn print(bw: &[BwRow], gc: &[GcRow]) {
    println!("== Flexibility 1: the same source on different interconnects (MixedGEMM) ==");
    println!(
        "{:<16} {:>8} {:>10} {:>8}",
        "platform", "BW_D2H", "offloaded", "speedup"
    );
    for r in bw {
        println!(
            "{:<16} {:>6.1}GB {:>10} {:>7.2}x",
            r.platform, r.bw_d2h_gbps, r.offloaded_lines, r.speedup
        );
    }
    println!("(narrower pipes -> more offload and larger ISP profit; no source changes)");
    println!();
    println!("== Flexibility 2: garbage collection stealing internal bandwidth (TPC-H-6) ==");
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>9}",
        "GC duty", "quiet-base", "w/mig", "w/o-mig", "migrated"
    );
    for r in gc {
        println!(
            "{:>6.0}% {:>11.2}s {:>9.2}s {:>9.2}s {:>9}",
            r.gc_duty * 100.0,
            r.quiet_baseline_secs,
            r.with_migration_secs,
            r.without_migration_secs,
            if r.migrated { "yes" } else { "no" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrower_links_offload_at_least_as_much() {
        let rows = run_bw_sweep(&PlanCache::new());
        // Sort by bandwidth and check monotone non-increasing offload.
        let mut sorted = rows.clone();
        sorted.sort_by(|a, b| a.bw_d2h_gbps.partial_cmp(&b.bw_d2h_gbps).expect("finite"));
        for w in sorted.windows(2) {
            assert!(
                w[0].offloaded_lines >= w[1].offloaded_lines,
                "narrower link must offload at least as much: {w:?}"
            );
        }
        // At 1 GB/s the ISP win is much larger than at 8 GB/s.
        let narrow = sorted.first().expect("rows");
        let wide = sorted.last().expect("rows");
        assert!(
            narrow.speedup > wide.speedup,
            "ISP profit grows as the pipe narrows: {narrow:?} vs {wide:?}"
        );
    }

    #[test]
    fn gc_degrades_gracefully_with_migration_available() {
        let rows = run_gc(&PlanCache::new());
        // More GC, more time — monotone within tolerance.
        for w in rows.windows(2) {
            assert!(
                w[1].with_migration_secs >= w[0].with_migration_secs * 0.98,
                "GC must not speed things up: {w:?}"
            );
        }
        // Migration never makes things worse than riding it out.
        for r in &rows {
            assert!(
                r.with_migration_secs <= r.without_migration_secs * 1.05,
                "{r:?}"
            );
        }
    }
}
