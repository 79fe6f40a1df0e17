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

/// How much faster a run under more GC may be, as a fraction: rounding,
/// not a trend.
const GC_SLACK: f64 = 0.02;

/// How much slower migrating may be than riding GC out, as a fraction.
const MIGRATION_SLACK: f64 = 0.05;

/// The experiment's section of `BENCH_repro.json`.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// The interconnect sweep.
    pub bw: Vec<BwRow>,
    /// The garbage-collection sweep.
    pub gc: Vec<GcRow>,
}

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
pub fn print(Report { bw, gc }: &Report) {
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

/// §II-B3's claims. Interconnects: a wider `BW_D2H` never offloads more
/// lines, and the narrowest link's speedup exceeds the widest's. GC: time
/// with migration never falls as the duty rises, beyond `GC_SLACK`, and
/// migrating is never worse than riding GC out, beyond `MIGRATION_SLACK`.
///
/// # Errors
///
/// Names the first platform or GC duty that fails.
pub fn check(Report { bw, gc }: &Report) -> Result<(), String> {
    let mut by_bw: Vec<&BwRow> = bw.iter().collect();
    by_bw.sort_by(|a, b| a.bw_d2h_gbps.total_cmp(&b.bw_d2h_gbps));
    for w in by_bw.windows(2) {
        if w[1].offloaded_lines > w[0].offloaded_lines {
            return Err(format!(
                "{} offloads {} lines, more than the narrower {}'s {}",
                w[1].platform, w[1].offloaded_lines, w[0].platform, w[0].offloaded_lines
            ));
        }
    }
    let (Some(narrow), Some(wide)) = (by_bw.first(), by_bw.last()) else {
        return Err("no platform rows".to_owned());
    };
    if narrow.speedup <= wide.speedup {
        return Err(format!(
            "{} speeds up {:.4}x, no more than the wider {}'s {:.4}x",
            narrow.platform, narrow.speedup, wide.platform, wide.speedup
        ));
    }
    for w in gc.windows(2) {
        if w[1].with_migration_secs < w[0].with_migration_secs * (1.0 - GC_SLACK) {
            return Err(format!(
                "GC duty {:.0} %: {:.4}s, faster than {:.4}s at {:.0} %",
                w[1].gc_duty * 100.0,
                w[1].with_migration_secs,
                w[0].with_migration_secs,
                w[0].gc_duty * 100.0
            ));
        }
    }
    match gc
        .iter()
        .find(|r| r.with_migration_secs > r.without_migration_secs * (1.0 + MIGRATION_SLACK))
    {
        Some(r) => Err(format!(
            "GC duty {:.0} %: migrating takes {:.4}s against {:.4}s riding it out",
            r.gc_duty * 100.0,
            r.with_migration_secs,
            r.without_migration_secs
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fails_naming;

    #[test]
    fn both_sweeps_keep_the_papers_dynamics() {
        let cache = PlanCache::new();
        let report = Report {
            bw: run_bw_sweep(&cache),
            gc: run_gc(&cache),
        };
        assert_eq!(check(&report), Ok(()));
    }

    fn bw(gbps: f64, offloaded_lines: usize, speedup: f64) -> BwRow {
        BwRow {
            platform: format!("{gbps} GB/s"),
            bw_d2h_gbps: gbps,
            offloaded_lines,
            speedup,
        }
    }

    fn gc(gc_duty: f64, with_migration_secs: f64, without_migration_secs: f64) -> GcRow {
        GcRow {
            gc_duty,
            quiet_baseline_secs: 2.0,
            with_migration_secs,
            without_migration_secs,
            migrated: with_migration_secs < without_migration_secs,
        }
    }

    /// Today's sweeps, rounded, with the platforms out of order as
    /// `run_bw_sweep` returns them.
    fn passing() -> Report {
        Report {
            bw: vec![bw(3.0, 7, 1.48), bw(1.0, 7, 3.66), bw(8.5, 0, 0.98)],
            gc: vec![
                gc(0.0, 1.37, 1.37),
                gc(0.6, 2.14, 2.49),
                gc(0.9, 3.68, 4.30),
            ],
        }
    }

    fn edited(edit: impl FnOnce(&mut Report)) -> Result<(), String> {
        let mut report = passing();
        edit(&mut report);
        check(&report)
    }

    #[test]
    fn check_fails_a_report_outside_each_claim() {
        assert_eq!(check(&passing()), Ok(()));
        fails_naming(
            edited(|r| r.bw[2].offloaded_lines = 8),
            "8.5 GB/s offloads 8 lines, more than the narrower 3 GB/s's 7",
        );
        fails_naming(
            edited(|r| r.bw[1].speedup = 0.9),
            "1 GB/s speeds up 0.9000x, no more than the wider 8.5 GB/s's 0.9800x",
        );
        fails_naming(edited(|r| r.bw.clear()), "no platform rows");
        // 2 % faster under more GC is rounding, 3 % is not.
        assert_eq!(edited(|r| r.gc[1] = gc(0.6, 1.35, 1.37)), Ok(()));
        fails_naming(
            edited(|r| r.gc[1] = gc(0.6, 1.32, 1.37)),
            "GC duty 60 %: 1.3200s, faster than 1.3700s at 0 %",
        );
        // Migrating 4.8 % slower passes, 6.2 % does not.
        assert_eq!(edited(|r| r.gc[2] = gc(0.9, 4.40, 4.20)), Ok(()));
        fails_naming(
            edited(|r| r.gc[2] = gc(0.9, 4.46, 4.20)),
            "GC duty 90 %: migrating takes 4.4600s against 4.2000s",
        );
    }
}
