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

use super::Band;
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

/// With migration over without, at 10 %.
const TENTH_ADVANTAGE: Band = Band {
    what: "migration advantage at 10 %",
    paper: "2.82×",
    lo: 2.0,
    hi: f64::INFINITY,
};

/// Geomean speedup with migration at 10 %.
const TENTH_WITH_GEOMEAN: Band = Band {
    what: "with-migration geomean at 10 %",
    paper: "≈ 0.92× (8 % average slowdown)",
    lo: 0.80,
    hi: 1.05,
};

/// Mean loss against the baseline without migration at 10 %.
const TENTH_MEAN_LOSS: Band = Band {
    what: "mean loss without migration at 10 %",
    paper: "67 %",
    lo: 0.50,
    hi: 0.85,
};

/// Worst loss against the baseline without migration at 10 %.
const TENTH_MAX_LOSS: Band = Band {
    what: "max loss without migration at 10 %",
    paper: "88 %",
    lo: 0.70,
    hi: 1.0,
};

/// Geomean speedup with migration at 50 %.
const HALF_WITH_GEOMEAN: Band = Band {
    what: "with-migration geomean at 50 %",
    paper: "balances the trade-offs",
    lo: 0.9,
    hi: f64::INFINITY,
};

/// Plans allowed to put no line on the CSD: the decode-on-host regime of
/// the wire formats (TPC-H-6-gz), which has nothing to migrate.
const MAX_ALL_HOST: usize = 1;

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

/// The figure's section of `BENCH_repro.json`.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// The grid, availability-major.
    pub rows: Vec<Row>,
    /// One summary per entry of [`AVAILABILITY_PCTS`], in that order.
    pub summaries: Vec<Summary>,
}

impl Report {
    /// Summarizes `rows` at every level of [`AVAILABILITY_PCTS`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` lack a level.
    #[must_use]
    pub fn new(rows: Vec<Row>) -> Self {
        let summaries = AVAILABILITY_PCTS
            .iter()
            .map(|&pct| summarize(&rows, pct))
            .collect();
        Self { rows, summaries }
    }
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

/// Fig. 5's claims. At 10 %: the summary inside the four `TENTH_*`
/// bands, every offloaded workload migrating and at most
/// `MAX_ALL_HOST` plan all-host. At 50 %: with migration no worse than
/// without, inside `HALF_WITH_GEOMEAN`.
///
/// # Errors
///
/// Names the first claim that fails.
pub fn check(report: &Report) -> Result<(), String> {
    let level = |pct: u32| {
        report
            .summaries
            .iter()
            .find(|s| s.availability_pct == pct)
            .ok_or_else(|| format!("no summary at {pct} %"))
    };
    let ten = level(10)?;
    TENTH_ADVANTAGE.check(ten.migration_advantage)?;
    TENTH_WITH_GEOMEAN.check(ten.with_geomean)?;
    TENTH_MEAN_LOSS.check(ten.mean_loss_without)?;
    TENTH_MAX_LOSS.check(ten.max_loss_without)?;
    let at_ten: Vec<&Row> = report
        .rows
        .iter()
        .filter(|r| r.availability_pct == 10)
        .collect();
    if let Some(r) = at_ten.iter().find(|r| r.offloaded && !r.migrated) {
        return Err(format!("{}: offloaded but not migrated at 10 %", r.name));
    }
    let all_host = at_ten.iter().filter(|r| !r.offloaded).count();
    if all_host > MAX_ALL_HOST {
        return Err(format!(
            "{all_host} all-host plans at 10 %, at most {MAX_ALL_HOST}"
        ));
    }
    let fifty = level(50)?;
    if fifty.with_geomean < fifty.without_geomean {
        return Err(format!(
            "with-migration geomean at 50 % {:.4} below without {:.4}",
            fifty.with_geomean, fifty.without_geomean
        ));
    }
    HALF_WITH_GEOMEAN.check(fifty.with_geomean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fails_naming;

    #[test]
    fn ten_percent_availability_matches_the_paper() {
        let config = SystemConfig::paper_default();
        let rows = run(&config, &PlanCache::new(), ParallelPolicy::default());
        assert_eq!(check(&Report::new(rows)), Ok(()));
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

    fn row(name: &str, availability_pct: u32, offloaded: bool) -> Row {
        Row {
            name: name.to_owned(),
            availability_pct,
            baseline_secs: 1.0,
            with_migration_secs: 1.0,
            without_migration_secs: 1.0,
            migrated: offloaded,
            offloaded,
            with_speedup: 1.0,
            without_speedup: 1.0,
        }
    }

    fn summary(availability_pct: u32, with: f64, without: f64, losses: [f64; 2]) -> Summary {
        Summary {
            availability_pct,
            with_geomean: with,
            without_geomean: without,
            migration_advantage: with / without,
            mean_loss_without: losses[0],
            max_loss_without: losses[1],
        }
    }

    /// Today's summaries, rounded: two offloaded workloads and one
    /// all-host plan at each level.
    fn passing() -> Report {
        let rows = AVAILABILITY_PCTS
            .iter()
            .flat_map(|&pct| {
                [
                    row("A", pct, true),
                    row("B", pct, true),
                    row("G", pct, false),
                ]
            })
            .collect();
        Report {
            rows,
            summaries: vec![
                summary(50, 1.07, 0.90, [0.11, 0.30]),
                summary(10, 0.96, 0.28, [0.69, 0.80]),
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
        let ten = |s: Summary| move |r: &mut Report| r.summaries[1] = s;
        let advantage = "migration advantage at 10 %";
        fails_naming(edited(ten(summary(10, 0.96, 0.5, [0.69, 0.8]))), advantage);
        let with = "with-migration geomean at 10 %";
        fails_naming(edited(ten(summary(10, 0.75, 0.28, [0.69, 0.8]))), with);
        fails_naming(edited(ten(summary(10, 1.1, 0.28, [0.69, 0.8]))), with);
        let mean = "mean loss without migration at 10 %";
        fails_naming(edited(ten(summary(10, 0.96, 0.28, [0.45, 0.8]))), mean);
        fails_naming(edited(ten(summary(10, 0.96, 0.28, [0.9, 0.95]))), mean);
        let max = "max loss without migration at 10 %";
        fails_naming(edited(ten(summary(10, 0.96, 0.28, [0.69, 0.65]))), max);
        // Rows 3..6 are the 10 % level.
        fails_naming(
            edited(|r| r.rows[3].migrated = false),
            "A: offloaded but not migrated at 10 %",
        );
        fails_naming(
            edited(|r| r.rows[4].offloaded = false),
            "2 all-host plans at 10 %",
        );
        let half = |s: Summary| move |r: &mut Report| r.summaries[0] = s;
        fails_naming(
            edited(half(summary(50, 0.95, 0.97, [0.11, 0.30]))),
            "with-migration geomean at 50 % 0.9500 below without 0.9700",
        );
        fails_naming(
            edited(half(summary(50, 0.85, 0.80, [0.11, 0.30]))),
            "with-migration geomean at 50 % 0.8500 outside",
        );
        fails_naming(edited(|r| r.summaries.truncate(1)), "no summary at 10 %");
    }
}
