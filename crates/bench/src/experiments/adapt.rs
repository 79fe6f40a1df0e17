//! Adaptation sweep: every workload under a phase-shifting availability
//! trace — competing tenants arrive mid-run and later *leave* — comparing
//! three execution policies against an oracle:
//!
//! * **static** — the cold sampling-only plan with migration disabled:
//!   whatever Algorithm 1 chose up front, executed to the end.
//! * **monitored** — the same cold plan with the monitor enabled: work
//!   migrates host-ward when the burst degrades throughput and is
//!   reclaimed by the CSD once availability recovers. This run also
//!   records its measured per-line costs into the plan cache's profile
//!   store.
//! * **re-planned** — the plan refitted from the monitored run's profile
//!   ([`PlanCache::plan_for`] blends measured costs into the fitted
//!   curves and re-runs Algorithm 1), executed with the monitor under
//!   the *same* trace. This is the policy the tentpole argues for.
//!
//! The **oracle** is the cheapest of every policy the harness can
//! execute under the trace (the three above plus an all-host fallback),
//! so `regret = cell − oracle ≥ 0` by construction. Placement affects
//! simulated cost only — every cell must report a byte-identical
//! `values_fingerprint`, and the sweep counts any divergence.

use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{Assignment, MigrationReason, OffloadPlan, PlanCache};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use serde::Serialize;

/// Residual CSE availability while the competing tenants run.
pub const BURST_FRACTION: f64 = 0.05;

/// The burst arrives when the uncontended reference run has completed
/// this fraction of its CSD-resident work…
pub const DROP_AT_CSD_PROGRESS: f64 = 0.2;

/// …and the tenants leave at this CSD-progress time of the reference
/// run. The window must be long relative to the monitor's detection
/// latency (one region chunk, stretched by the burst itself): a static
/// plan crawls through most of it, while monitored runs migrate
/// host-ward early, slow down, and at the recovery instant still hold
/// CSD-profitable work to reclaim.
pub const RECOVER_AT_CSD_PROGRESS: f64 = 0.9;

/// One workload under the phase-shifting trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Uncontended reference run of the cold plan, seconds.
    pub clean_secs: f64,
    /// Absolute sim time the availability burst begins.
    pub drop_at_secs: f64,
    /// Absolute sim time availability recovers to 1.0.
    pub recover_at_secs: f64,
    /// Cold plan, migration disabled, under the trace.
    pub static_secs: f64,
    /// Cold plan with the monitor (and profile recording), under the trace.
    pub monitored_secs: f64,
    /// Refitted plan with the monitor, under the trace — the re-planning
    /// policy's cell.
    pub replanned_secs: f64,
    /// All-host fallback under the trace.
    pub all_host_secs: f64,
    /// Cheapest candidate — the oracle's pick.
    pub oracle_secs: f64,
    /// Which candidate the oracle picked.
    pub oracle_choice: String,
    /// `static_secs − oracle_secs`.
    pub static_regret: f64,
    /// `replanned_secs − oracle_secs`.
    pub replanned_regret: f64,
    /// Plan-cache refits this workload triggered (expected: 1).
    pub refits: u64,
    /// Host-ward degradation migrations across the monitored cells.
    pub degraded_migrations: u64,
    /// Device-ward reclaim migrations across the monitored cells.
    pub reclaim_migrations: u64,
    /// Whether every cell produced the reference's `values_fingerprint`.
    pub values_match: bool,
}

/// The full sweep plus the aggregates the smoke gate asserts on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// One row per workload.
    pub rows: Vec<Row>,
    /// Σ static regret, seconds.
    pub static_regret_total: f64,
    /// Σ re-planned regret, seconds.
    pub replanned_regret_total: f64,
    /// Σ reclaim migrations — at least one workload must return work to
    /// the CSD.
    pub reclaim_migrations: u64,
    /// Cells whose `values_fingerprint` diverged from the reference.
    /// Must be 0.
    pub divergences: usize,
}

/// Counts migrations with `reason` across an outcome's migration log.
fn count_migrations(outcome: &activepy::ActivePyOutcome, reason: MigrationReason) -> u64 {
    outcome
        .report
        .migrations
        .iter()
        .filter(|m| m.reason == reason)
        .count() as u64
}

/// Runs one workload through every policy under its phase-shifting trace.
///
/// The cache is private to the workload: profile feedback is the object
/// under test, and leaking refits into another experiment's cache would
/// silently change its plans.
fn run_workload(w: &isp_workloads::Workload, config: &SystemConfig) -> Row {
    let program = w.program().expect("registered workloads parse");
    let cache = PlanCache::new();
    let static_rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
    let cold = cache
        .plan_for(&static_rt, w.name(), &program, w, config)
        .expect("planning succeeds");

    // Uncontended reference: fixes the trace's absolute times and the
    // fingerprint every cell must reproduce.
    let clean = static_rt
        .execute_plan(&cold, config, ContentionScenario::none())
        .expect("clean reference");
    let reference_fp = clean.report.values_fingerprint;
    let drop_at = clean
        .report
        .time_at_csd_progress(DROP_AT_CSD_PROGRESS)
        .unwrap_or(clean.report.total_secs * DROP_AT_CSD_PROGRESS);
    let recover_at = clean
        .report
        .time_at_csd_progress(RECOVER_AT_CSD_PROGRESS)
        .unwrap_or(clean.report.total_secs * RECOVER_AT_CSD_PROGRESS);
    let scenario = ContentionScenario::at_time(SimTime::from_secs(drop_at), BURST_FRACTION)
        .with_recovery_at(SimTime::from_secs(recover_at));

    // Static policy: the cold plan rides out the burst where it stands.
    let static_run = static_rt
        .execute_plan(&cold, config, scenario)
        .expect("static run");

    // Monitored cold run, recording its measured per-line costs.
    let monitored_rt =
        ActivePy::with_options(ActivePyOptions::default().with_profile(cache.recorder_for(
            &static_rt,
            w.name(),
            w,
            config,
        )));
    let monitored = monitored_rt
        .execute_plan(&cold, config, scenario)
        .expect("monitored run");

    // Re-planned policy: the recorded profile is newer than the cached
    // plan's generation, so this lookup refits before executing.
    let replan_rt = ActivePy::new();
    let warm = cache
        .plan_for(&replan_rt, w.name(), &program, w, config)
        .expect("refit succeeds");
    let replanned = replan_rt
        .execute_plan(&warm, config, scenario)
        .expect("re-planned run");

    // All-host fallback candidate: the cold plan's pipeline with an
    // empty device assignment, under the same trace.
    let mut host_plan: OffloadPlan = (*cold).clone();
    host_plan.assignment = Assignment::all_host(&host_plan.estimates);
    let all_host = static_rt
        .execute_plan(&host_plan, config, scenario)
        .expect("all-host run");

    let candidates = [
        ("static", static_run.report.total_secs),
        ("monitored", monitored.report.total_secs),
        ("replanned", replanned.report.total_secs),
        ("all_host", all_host.report.total_secs),
    ];
    let (oracle_choice, oracle_secs) = candidates
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty candidate set");

    let values_match = [&static_run, &monitored, &replanned, &all_host]
        .iter()
        .all(|o| o.report.values_fingerprint == reference_fp);

    Row {
        name: w.name().to_owned(),
        clean_secs: clean.report.total_secs,
        drop_at_secs: drop_at,
        recover_at_secs: recover_at,
        static_secs: static_run.report.total_secs,
        monitored_secs: monitored.report.total_secs,
        replanned_secs: replanned.report.total_secs,
        all_host_secs: all_host.report.total_secs,
        oracle_secs,
        oracle_choice: oracle_choice.to_owned(),
        static_regret: static_run.report.total_secs - oracle_secs,
        replanned_regret: replanned.report.total_secs - oracle_secs,
        refits: cache.stats().refits,
        degraded_migrations: count_migrations(&monitored, MigrationReason::Degraded)
            + count_migrations(&replanned, MigrationReason::Degraded),
        reclaim_migrations: count_migrations(&monitored, MigrationReason::Reclaim)
            + count_migrations(&replanned, MigrationReason::Reclaim),
        values_match,
    }
}

/// Builds the [`Report`] aggregates from finished rows.
fn aggregate(rows: Vec<Row>) -> Report {
    let static_regret_total = rows.iter().map(|r| r.static_regret).sum();
    let replanned_regret_total = rows.iter().map(|r| r.replanned_regret).sum();
    let reclaim_migrations = rows.iter().map(|r| r.reclaim_migrations).sum();
    let divergences = rows.iter().filter(|r| !r.values_match).count();
    Report {
        rows,
        static_regret_total,
        replanned_regret_total,
        reclaim_migrations,
        divergences,
    }
}

/// Runs the full adaptation sweep over every registered workload.
///
/// # Panics
///
/// Panics if a registered workload fails to plan or run.
#[must_use]
pub fn run(config: &SystemConfig) -> Report {
    let rows = crate::sweep::run_grid(isp_workloads::full_set(), |w| run_workload(&w, config));
    aggregate(rows)
}

/// Checks the sweep's headline claims; `Err` describes the violation.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check(report: &Report) -> Result<(), String> {
    if report.divergences != 0 {
        return Err(format!(
            "{} cells diverged from the reference fingerprint",
            report.divergences
        ));
    }
    if report.replanned_regret_total >= report.static_regret_total {
        return Err(format!(
            "re-planning must strictly reduce total regret: replanned {:.3}s vs static {:.3}s",
            report.replanned_regret_total, report.static_regret_total
        ));
    }
    if report.reclaim_migrations == 0 {
        return Err("no workload reclaimed work back to the CSD".to_owned());
    }
    for r in &report.rows {
        if r.static_regret < -1e-9 || r.replanned_regret < -1e-9 {
            return Err(format!("negative regret in {}: {r:?}", r.name));
        }
    }
    Ok(())
}

/// Prints the sweep as a table plus the aggregate line.
pub fn print(report: &Report) {
    println!("== Adaptation sweep: phase-shifting availability (burst to {BURST_FRACTION}) ==");
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>7} {:>7} {:>5} {:>5} {:>6}",
        "workload",
        "static",
        "monitor",
        "replan",
        "host",
        "oracle",
        "choice",
        "regretS",
        "regretR",
        "degr",
        "recl",
        "match"
    );
    for r in &report.rows {
        println!(
            "{:<14} {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s {:>10} {:>6.2}s {:>6.2}s {:>5} {:>5} {:>6}",
            r.name,
            r.static_secs,
            r.monitored_secs,
            r.replanned_secs,
            r.all_host_secs,
            r.oracle_secs,
            r.oracle_choice,
            r.static_regret,
            r.replanned_regret,
            r.degraded_migrations,
            r.reclaim_migrations,
            if r.values_match { "ok" } else { "WRONG" },
        );
    }
    println!(
        "total regret: static {:.2}s, re-planned {:.2}s | {} reclaim migrations | {} divergences",
        report.static_regret_total,
        report.replanned_regret_total,
        report.reclaim_migrations,
        report.divergences
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reduces_regret_and_never_changes_values() {
        let config = SystemConfig::paper_default();
        let report = run(&config);
        assert_eq!(report.rows.len(), isp_workloads::full_set().len());
        check(&report).expect("adaptation invariants hold");
        // Every workload triggered exactly one refit in its private cache.
        for r in &report.rows {
            assert_eq!(r.refits, 1, "unexpected refit count: {r:?}");
        }
        // The burst actually pushed work host-ward somewhere.
        assert!(
            report.rows.iter().any(|r| r.degraded_migrations > 0),
            "no workload migrated under the burst"
        );
    }
}
