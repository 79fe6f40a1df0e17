//! Figure 5: all workloads under 50 % and 10 % CSE availability, the
//! contention arriving "right after each application's ISP tasks make 50 %
//! of their progress", with and without dynamic task migration.
//!
//! Paper results at 10 % availability: ActivePy with migration outperforms
//! ActivePy without migration by 2.82×; relative to the no-CSD baseline it
//! suffers only ≈8 % average slowdown, while the migration-less
//! configuration loses 67 % on average (up to 88 %).
//!
//! The grid is evaluated per workload: the C baseline, the offload plan,
//! and the uncontended reference run (which fixes the stress onset time)
//! are computed once and shared by every contended cell — four
//! [`ActivePy::execute_plan`] calls per workload instead of four full
//! plan-and-run pipelines.

use crate::geomean;
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::PlanCache;
use alang::ParallelPolicy;
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::run_c_baseline;
use isp_obs::{SpanKind, Tracer};
use serde::Serialize;

/// The figure's availability levels as exact integer percentages, in
/// presentation order.
pub const AVAILABILITY_PCTS: [u32; 2] = [50, 10];

/// One workload under one availability level.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Percent of the CSD available after the stress begins.
    pub availability_pct: u32,
    /// No-CSD baseline, seconds.
    pub baseline_secs: f64,
    /// ActivePy with migration, seconds.
    pub with_migration_secs: f64,
    /// ActivePy without migration, seconds.
    pub without_migration_secs: f64,
    /// Whether a migration actually occurred.
    pub migrated: bool,
    /// Whether the plan put any line on the CSD at all. The wire-format
    /// decode-on-host regime (e.g. TPC-H-6-gz) legitimately plans
    /// all-host, and an all-host plan has nothing to migrate.
    pub offloaded: bool,
    /// Speedup over baseline with migration.
    pub with_speedup: f64,
    /// Speedup over baseline without migration.
    pub without_speedup: f64,
}

/// Aggregates for one availability level.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Availability level, percent.
    pub availability_pct: u32,
    /// Geomean speedup with migration.
    pub with_geomean: f64,
    /// Geomean speedup without migration.
    pub without_geomean: f64,
    /// Migration-vs-no-migration advantage.
    pub migration_advantage: f64,
    /// Mean performance loss (1 − speedup) without migration.
    pub mean_loss_without: f64,
    /// Worst performance loss without migration.
    pub max_loss_without: f64,
}

fn scenario_at(t_half: f64, availability_pct: u32) -> ContentionScenario {
    ContentionScenario::at_time(
        SimTime::from_secs(t_half),
        f64::from(availability_pct) / 100.0,
    )
}

/// Runs every availability level for one workload, hoisting the baseline,
/// the offload plan, and the uncontended reference run out of the
/// per-level loop. Returns one row per entry of [`AVAILABILITY_PCTS`], in
/// that order. `tracer` is threaded through planning and every plan
/// execution, all wrapped in a `fig5.workload` span.
fn run_workload(
    w: &isp_workloads::Workload,
    config: &SystemConfig,
    cache: &PlanCache,
    policy: ParallelPolicy,
    tracer: &Tracer,
) -> Vec<Row> {
    let workload_span = tracer.begin_with(
        "fig5.workload",
        SpanKind::Phase,
        None,
        vec![("workload".into(), w.name().into())],
    );
    let program = w.program().expect("registered workloads parse");
    let baseline = run_c_baseline(w, config).expect("baseline runs").total_secs;
    let rt = ActivePy::with_options(
        ActivePyOptions::default()
            .with_parallelism(policy)
            .with_tracer(tracer.clone()),
    );
    let plan = cache
        .plan_for(&rt, w.name(), &program, w, config)
        .expect("planning succeeds");
    let reference = rt
        .execute_plan(&plan, config, ContentionScenario::none())
        .expect("reference run");
    let t_half = reference.report.time_at_csd_progress(0.5);
    let offloaded = !plan.assignment.csd_lines.is_empty();
    let no_mig = ActivePy::with_options(
        ActivePyOptions::default()
            .without_migration()
            .with_parallelism(policy)
            .with_tracer(tracer.clone()),
    );
    // Observation-only calibration: join the plan's Eq. 1 terms against
    // each cell's measured costs and publish into the journal (counters,
    // error histograms, and the per-line `audit.line` instants the
    // summarizer's worst-5 table reads back). Disabled tracers skip the
    // join entirely, so the untraced grid stays calibration-free.
    let publish_audit = |report: &activepy::RunReport| {
        if tracer.is_enabled() {
            activepy::calibrate(w.name(), &plan, report, None).publish_to(tracer);
        }
    };
    publish_audit(&reference.report);
    let rows: Vec<Row> = AVAILABILITY_PCTS
        .iter()
        .map(|&pct| {
            let scenario = scenario_at(t_half, pct);
            let with_mig = rt
                .execute_plan(&plan, config, scenario)
                .expect("migrating run");
            let without_mig = no_mig
                .execute_plan(&plan, config, scenario)
                .expect("static run");
            publish_audit(&with_mig.report);
            publish_audit(&without_mig.report);
            Row {
                name: w.name().to_owned(),
                availability_pct: pct,
                baseline_secs: baseline,
                with_migration_secs: with_mig.report.total_secs,
                without_migration_secs: without_mig.report.total_secs,
                migrated: with_mig.report.migration().is_some(),
                offloaded,
                with_speedup: baseline / with_mig.report.total_secs,
                without_speedup: baseline / without_mig.report.total_secs,
            }
        })
        .collect();
    tracer.end(workload_span, None);
    rows
}

/// Runs the full Figure 5 grid (every registered workload × {50 %, 10 %})
/// against `cache`, executing every plan under the data-parallel kernel
/// `policy`. The policy is execution-only (it does not split the plan-
/// cache key, and values/LineCost records are policy-independent), so the
/// rows are byte-identical under every policy.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run(config: &SystemConfig, cache: &PlanCache, policy: ParallelPolicy) -> Vec<Row> {
    availability_major(crate::sweep::run_grid(isp_workloads::full_set(), |w| {
        run_workload(&w, config, cache, policy, &Tracer::disabled())
    }))
}

/// The traced Figure 5 grid: identical cells to [`run`], but evaluated
/// **serially** with `tracer` threaded through every pipeline phase. The
/// parallel sweep would interleave spans from different workloads through
/// the tracer's shared parent stack and make the journal
/// schedule-dependent, so the traced grid trades wall-clock for a
/// deterministic journal. `workload_filter` (exact name) narrows the grid
/// to one workload.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run_traced(
    config: &SystemConfig,
    cache: &PlanCache,
    tracer: &Tracer,
    workload_filter: Option<&str>,
) -> Vec<Row> {
    let policy = ParallelPolicy::default();
    availability_major(
        isp_workloads::full_set()
            .into_iter()
            .filter(|w| workload_filter.is_none_or(|f| w.name() == f))
            .map(|w| run_workload(&w, config, cache, policy, tracer))
            .collect(),
    )
}

/// Flattens workload-major results into the figure's availability-major
/// presentation order.
fn availability_major(per_workload: Vec<Vec<Row>>) -> Vec<Row> {
    (0..AVAILABILITY_PCTS.len())
        .flat_map(|level| per_workload.iter().map(move |rows| rows[level].clone()))
        .collect()
}

/// Summarizes one availability level's rows.
///
/// # Panics
///
/// Panics if `rows` contains no entry at `availability_pct`.
#[must_use]
pub fn summarize(rows: &[Row], availability_pct: u32) -> Summary {
    let level: Vec<&Row> = rows
        .iter()
        .filter(|r| r.availability_pct == availability_pct)
        .collect();
    assert!(
        !level.is_empty(),
        "no rows at availability {availability_pct}%"
    );
    let with: Vec<f64> = level.iter().map(|r| r.with_speedup).collect();
    let without: Vec<f64> = level.iter().map(|r| r.without_speedup).collect();
    let losses: Vec<f64> = without.iter().map(|s| 1.0 - s.min(1.0)).collect();
    Summary {
        availability_pct,
        with_geomean: geomean(&with),
        without_geomean: geomean(&without),
        migration_advantage: geomean(&with) / geomean(&without),
        mean_loss_without: crate::mean(&losses),
        max_loss_without: losses.iter().copied().fold(0.0, f64::max),
    }
}

/// Prints the grid in the figure's layout.
pub fn print(rows: &[Row]) {
    println!("== Fig 5: contention at 50% of ISP progress, +/- migration ==");
    for pct in AVAILABILITY_PCTS {
        println!("-- {pct}% CSD available --");
        println!(
            "{:<14} {:>8} {:>10} {:>7} {:>10} {:>7} {:>9}",
            "workload", "C-base", "w/mig", "x", "w/o-mig", "x", "migrated"
        );
        for r in rows.iter().filter(|r| r.availability_pct == pct) {
            println!(
                "{:<14} {:>7.2}s {:>9.2}s {:>6.2}x {:>9.2}s {:>6.2}x {:>9}",
                r.name,
                r.baseline_secs,
                r.with_migration_secs,
                r.with_speedup,
                r.without_migration_secs,
                r.without_speedup,
                if r.migrated { "yes" } else { "no" },
            );
        }
        let s = summarize(rows, pct);
        println!(
            "geomean: w/mig {:.2}x, w/o {:.2}x, advantage {:.2}x; loss w/o mig: mean {:.0}%, max {:.0}%",
            s.with_geomean,
            s.without_geomean,
            s.migration_advantage,
            s.mean_loss_without * 100.0,
            s.max_loss_without * 100.0
        );
    }
    println!(
        "(paper @10%: advantage 2.82x, ~8% avg slowdown with migration, 67% avg / 88% max loss without)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_percent_availability_matches_the_paper() {
        let config = SystemConfig::paper_default();
        let rows = run(&config, &PlanCache::new(), ParallelPolicy::default());
        let s = summarize(&rows, 10);
        // With migration: a modest slowdown vs baseline (paper ~8%).
        assert!(
            s.with_geomean > 0.8 && s.with_geomean <= 1.05,
            "with-migration geomean {} should sit near 0.92",
            s.with_geomean
        );
        // Without: severe losses (paper avg 67%, max 88%).
        assert!(
            s.mean_loss_without > 0.5,
            "mean loss without migration {} too mild",
            s.mean_loss_without
        );
        assert!(s.max_loss_without > 0.7, "max loss {}", s.max_loss_without);
        // Migration advantage in the paper's 2.82x neighbourhood.
        assert!(
            s.migration_advantage > 2.0,
            "advantage {} too small",
            s.migration_advantage
        );
        // Every offloaded workload migrated under 10% availability; only
        // plans with CSD lines have anything to move. The decode-on-host
        // wire-format regime is the one legitimate all-host plan.
        let at_ten: Vec<&Row> = rows.iter().filter(|r| r.availability_pct == 10).collect();
        assert!(
            at_ten.iter().filter(|r| r.offloaded).all(|r| r.migrated),
            "{at_ten:?}"
        );
        let offloaded = at_ten.iter().filter(|r| r.offloaded).count();
        assert!(
            offloaded >= at_ten.len() - 1,
            "at most one all-host regime expected, {offloaded}/{} offloaded",
            at_ten.len()
        );

        // 50%: the trade-offs are balanced — migration must not lose on
        // average and losses stay moderate.
        let fifty = summarize(&rows, 50);
        assert!(
            fifty.with_geomean >= fifty.without_geomean,
            "migration must not lose on average: {} vs {}",
            fifty.with_geomean,
            fifty.without_geomean
        );
        assert!(
            fifty.with_geomean > 0.9,
            "with-migration geomean {}",
            fifty.with_geomean
        );
    }

    #[test]
    fn hoisted_phases_run_once_per_workload() {
        let config = SystemConfig::paper_default();
        let cache = PlanCache::new();
        // The traced grid runs serially, so every evaluation is this
        // thread's: per workload one C baseline and one uncontended
        // reference, then a run with and one without migration per level.
        let before = activepy::exec::evaluations_on_this_thread();
        let rows = run_traced(&config, &cache, &Tracer::disabled(), None);
        let evaluations = activepy::exec::evaluations_on_this_thread() - before;
        let n = isp_workloads::full_set().len();
        assert_eq!(rows.len(), n * AVAILABILITY_PCTS.len());
        assert_eq!(
            evaluations as usize,
            n * (1 + 1 + 2 * AVAILABILITY_PCTS.len()),
            "the C baseline and the reference must run exactly once per workload"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.misses as usize, n,
            "each workload must be planned exactly once"
        );
        assert_eq!(stats.hits, 0, "one plan_for call per workload");
        assert_eq!(cache.len(), n);
        // Rows come out availability-major in AVAILABILITY_PCTS order.
        let workloads = isp_workloads::full_set();
        for (level, &pct) in AVAILABILITY_PCTS.iter().enumerate() {
            for (j, w) in workloads.iter().enumerate() {
                let row = &rows[level * n + j];
                assert_eq!(row.availability_pct, pct);
                assert_eq!(row.name, w.name());
            }
        }
    }
}
