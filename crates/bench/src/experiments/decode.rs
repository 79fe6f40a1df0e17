//! Decode-placement experiment: where Eq. 1 puts the wire-format decode.
//!
//! Each wire-format workload (the [`isp_workloads::decode_set`])
//! is executed three ways under the same uncontended scenario: the plan
//! Algorithm 1 chose, the same pipeline forced all-host, and forced
//! all-CSD. Decode placement is the whole story of the contrast:
//!
//! * `TPC-H-6-gz` stores ~20×-compressed columns, so the raw stream the
//!   host would pull (`DS_raw` in Eq. 1) is tiny while inflating costs
//!   real operations on the slower CSE cores — decode-on-host wins.
//! * `LogGrep` stores length-preserving shuffled/big-endian streams, so
//!   decode is cheap but offloading the decode→grep prefix collapses
//!   `DS_raw` from the full stream to the selected tail — decode-on-CSD
//!   wins.
//!
//! Every row checks three facts: the measured winner between the forced
//! placements has the sign Eq. 1 predicts (via the executor-faithful
//! [`activepy::assign::projected_cost`] model over the plan's own
//! estimates), the planner picked that winner, and all three runs produce
//! one byte-identical `values_fingerprint`.

use activepy::estimate::Link;
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{Assignment, OffloadPlan, PlanCache};
use csd_sim::engine::EngineKind;
use csd_sim::{ContentionScenario, SystemConfig};
use serde::Serialize;

/// Relative tolerance when asserting the planner's run is no slower than
/// the best forced placement (simulation microseconds of queue noise).
const PLAN_TOLERANCE: f64 = 1e-6;

/// One wire-format workload under the three placements.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlacementRow {
    /// Workload name.
    pub name: String,
    /// Program length in lines.
    pub lines: usize,
    /// Lines Algorithm 1 put on the CSD.
    pub planned_csd_lines: usize,
    /// Whether the planner offloaded the decode pipeline (its regime).
    pub decode_on_csd: bool,
    /// Simulated seconds of the plan Algorithm 1 chose.
    pub planned_secs: f64,
    /// Simulated seconds with every line forced onto the host.
    pub all_host_secs: f64,
    /// Simulated seconds with every line forced onto the CSD.
    pub all_csd_secs: f64,
    /// Eq. 1 net profit of full-pipeline offload, in projected seconds:
    /// `projected_cost(all-host) − projected_cost(all-CSD)` under the
    /// plan's own estimates. Positive ⇒ the model says offload decode.
    pub eq1_profit_secs: f64,
    /// Whether the *measured* winner between the forced placements has
    /// the sign [`Self::eq1_profit_secs`] predicts.
    pub eq1_agrees: bool,
    /// Whether the planner's run is no slower than the best forced
    /// placement.
    pub planner_matches_winner: bool,
    /// Whether all three runs produced one `values_fingerprint`.
    pub values_match: bool,
}

/// The full decode experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// One row per wire-format workload.
    pub placements: Vec<PlacementRow>,
}

/// Forces every line of `plan` onto one engine, re-projecting the
/// assignment's bookkeeping costs so the report stays honest.
fn forced(plan: &OffloadPlan, engine: EngineKind, link: Link) -> OffloadPlan {
    let mut p = plan.clone();
    let n = p.program.len();
    let placements = vec![engine; n];
    let cost = activepy::assign::projected_cost(&p.program, &p.estimates, &placements, link);
    let t_host: f64 = p.estimates.iter().map(|e| e.ct_host).sum();
    p.assignment = Assignment {
        csd_lines: match engine {
            EngineKind::Host => std::collections::BTreeSet::new(),
            EngineKind::Cse => (0..n).collect(),
        },
        t_host,
        t_csd: cost,
    };
    p
}

/// Runs one wire-format workload under the three placements.
fn run_placement(
    w: &isp_workloads::Workload,
    config: &SystemConfig,
    cache: &PlanCache,
) -> PlacementRow {
    let program = w.program().expect("registered workloads parse");
    let rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
    let plan = cache
        .plan_for(&rt, w.name(), &program, w, config)
        .expect("planning succeeds");
    let link = Link::d2h(config);

    let planned = rt
        .execute_plan(&plan, config, ContentionScenario::none())
        .expect("planned run");
    let host_plan = forced(&plan, EngineKind::Host, link);
    let all_host = rt
        .execute_plan(&host_plan, config, ContentionScenario::none())
        .expect("all-host run");
    let csd_plan = forced(&plan, EngineKind::Cse, link);
    let all_csd = rt
        .execute_plan(&csd_plan, config, ContentionScenario::none())
        .expect("all-CSD run");

    let eq1_profit_secs = host_plan.assignment.t_csd - csd_plan.assignment.t_csd;
    let host_secs = all_host.report.total_secs;
    let csd_secs = all_csd.report.total_secs;
    let planned_secs = planned.report.total_secs;
    let eq1_agrees = (eq1_profit_secs > 0.0) == (csd_secs < host_secs);
    let winner_secs = host_secs.min(csd_secs);
    let planner_matches_winner = planned_secs <= winner_secs * (1.0 + PLAN_TOLERANCE);
    let fp = planned.report.values_fingerprint;
    let values_match =
        all_host.report.values_fingerprint == fp && all_csd.report.values_fingerprint == fp;

    PlacementRow {
        name: w.name().to_owned(),
        lines: program.len(),
        planned_csd_lines: plan.assignment.csd_lines.len(),
        decode_on_csd: !plan.assignment.csd_lines.is_empty(),
        planned_secs,
        all_host_secs: host_secs,
        all_csd_secs: csd_secs,
        eq1_profit_secs,
        eq1_agrees,
        planner_matches_winner,
        values_match,
    }
}

/// Runs the decode experiment, planning through `cache`.
///
/// # Panics
///
/// Panics if a wire-format workload fails to plan or run.
#[must_use]
pub fn run(config: &SystemConfig, cache: &PlanCache) -> Report {
    let placements = crate::sweep::run_grid(isp_workloads::decode_set(), |w| {
        run_placement(&w, config, cache)
    });
    Report { placements }
}

/// The smoke gate: both decode-placement regimes present and correct,
/// every run byte-identical.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check(report: &Report) -> std::result::Result<(), String> {
    for row in &report.placements {
        if !row.values_match {
            return Err(format!("{}: placement changed the answer", row.name));
        }
        if !row.eq1_agrees {
            return Err(format!(
                "{}: Eq. 1 profit {:+.4}s disagrees with measured winner \
                 (host {:.4}s vs CSD {:.4}s)",
                row.name, row.eq1_profit_secs, row.all_host_secs, row.all_csd_secs
            ));
        }
        if !row.planner_matches_winner {
            return Err(format!(
                "{}: planner {:.4}s slower than best forced placement \
                 (host {:.4}s, CSD {:.4}s)",
                row.name, row.planned_secs, row.all_host_secs, row.all_csd_secs
            ));
        }
    }
    if !report.placements.iter().any(|r| r.decode_on_csd) {
        return Err("no workload in the decode-on-CSD regime".to_owned());
    }
    if !report.placements.iter().any(|r| !r.decode_on_csd) {
        return Err("no workload in the decode-on-host regime".to_owned());
    }
    Ok(())
}

/// Prints the report as an aligned table.
pub fn print(report: &Report) {
    println!("Decode placement (Eq. 1 decides where the wire format is decoded):");
    println!(
        "  {:<12} {:>5} {:>9} {:>11} {:>11} {:>11} {:>11}  regime",
        "workload", "lines", "csd-lines", "planned(s)", "all-host(s)", "all-csd(s)", "Eq1-S(s)"
    );
    for r in &report.placements {
        println!(
            "  {:<12} {:>5} {:>9} {:>11.4} {:>11.4} {:>11.4} {:>+11.4}  decode-on-{}{}",
            r.name,
            r.lines,
            r.planned_csd_lines,
            r.planned_secs,
            r.all_host_secs,
            r.all_csd_secs,
            r.eq1_profit_secs,
            if r.decode_on_csd { "CSD" } else { "host" },
            if r.eq1_agrees && r.planner_matches_winner && r.values_match {
                ""
            } else {
                "  [CHECK FAILED]"
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_regimes_present_and_placement_invariants_hold() {
        let report = run(&SystemConfig::paper_default(), &PlanCache::new());
        assert_eq!(report.placements.len(), 2);
        for r in &report.placements {
            assert!(r.values_match, "{r:?}");
            assert!(r.eq1_agrees, "{r:?}");
            assert!(r.planner_matches_winner, "{r:?}");
        }
        let gz = report
            .placements
            .iter()
            .find(|r| r.name == "TPC-H-6-gz")
            .expect("gz row");
        assert!(!gz.decode_on_csd, "compressed columns decode on the host");
        assert!(gz.eq1_profit_secs < 0.0, "{gz:?}");
        let lg = report
            .placements
            .iter()
            .find(|r| r.name == "LogGrep")
            .expect("loggrep row");
        assert!(lg.decode_on_csd, "raw streams decode on the CSD");
        assert!(lg.eq1_profit_secs > 0.0, "{lg:?}");
    }
}
