//! Cross-crate integration: the full ActivePy pipeline against the
//! baselines, over real workloads.

use activepy::runtime::ActivePy;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::{best_static_plan, run_c_baseline, run_plan};

#[test]
fn activepy_tracks_the_programmer_directed_optimum() {
    let config = SystemConfig::paper_default();
    for name in ["TPC-H-6", "PageRank", "LightGBM"] {
        let w = isp_workloads::by_name(name).expect("registered");
        let baseline = run_c_baseline(&w, &config).expect("baseline").total_secs;
        let plan = best_static_plan(&w, &config).expect("plan");
        let pd = run_plan(&w, &config, &plan, ContentionScenario::none())
            .expect("pd")
            .total_secs;
        let program = w.program().expect("parse");
        let outcome = ActivePy::new()
            .run(&program, &w, &config, ContentionScenario::none())
            .expect("pipeline");
        let ap = outcome.report.total_secs;
        assert!(
            ap < baseline,
            "{name}: ActivePy {ap} must beat the baseline {baseline}"
        );
        assert!(
            ap < pd * 1.12,
            "{name}: ActivePy {ap} strays from the hand-optimized {pd}"
        );
    }
}

#[test]
fn every_workload_survives_the_full_pipeline() {
    let config = SystemConfig::paper_default();
    for w in isp_workloads::with_sparsemv() {
        let program = w.program().expect("parse");
        let rt = ActivePy::new();
        let plan = rt
            .plan(&program, &w, &config)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let outcome = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(outcome.report.total_secs > 0.0);
        assert_eq!(plan.estimates.len(), program.len());
        assert_eq!(plan.predictions.len(), program.len());
        assert!(
            !plan.assignment.csd_lines.is_empty(),
            "{}: the evaluated applications all benefit from the CSD",
            w.name()
        );
        assert!(
            outcome.report.migration().is_none(),
            "{}: quiet CSD, no migration",
            w.name()
        );
    }
}

#[test]
fn pipeline_overheads_stay_small() {
    let config = SystemConfig::paper_default();
    for w in isp_workloads::table1() {
        let program = w.program().expect("parse");
        let rt = ActivePy::new();
        let plan = rt.plan(&program, &w, &config).expect("plan");
        let outcome = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("pipeline");
        let overhead = plan.sampling_secs + plan.compile_secs;
        assert!(
            overhead < 0.08 * outcome.report.total_secs,
            "{}: overhead {overhead}s on a {}s run",
            w.name(),
            outcome.report.total_secs
        );
    }
}

#[test]
fn calibration_constant_is_sane() {
    let config = SystemConfig::paper_default();
    let w = isp_workloads::by_name("TPC-H-6").expect("registered");
    let program = w.program().expect("parse");
    let plan = ActivePy::new()
        .plan(&program, &w, &config)
        .expect("pipeline");
    // The CSE is slower than the host, but within a small factor.
    assert!(
        plan.calibration.cse_slowdown > 1.0 && plan.calibration.cse_slowdown < 4.0,
        "C = {}",
        plan.calibration.cse_slowdown
    );
}
