//! The whole stack — generators, sampling, simulation — is deterministic:
//! identical runs produce identical reports, which is what makes every
//! experiment in the paper reproducible bit-for-bit here.

mod common;

use activepy::exec::ExecOptions;
use activepy::runtime::ActivePy;
use activepy::PlanCache;
use alang::{ParallelPolicy, Storage};
use common::contract::Case;
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, EngineKind, SystemConfig};
use isp_obs::Tracer;

#[test]
fn identical_runs_produce_identical_outcomes() {
    let config = SystemConfig::paper_default();
    let w = isp_workloads::by_name("TPC-H-14").expect("registered");
    let program = w.program().expect("parse");
    let run = || {
        let rt = ActivePy::new();
        let plan = rt.plan(&program, &w, &config).expect("plan");
        let outcome = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("run");
        (plan, outcome)
    };
    let (plan_a, a) = run();
    let (plan_b, b) = run();
    assert_eq!(a, b);
    common::assert_same_planning(&plan_a, &plan_b);
}

#[test]
fn contended_runs_are_deterministic_too() {
    let config = SystemConfig::paper_default();
    let w = isp_workloads::by_name("KMeans").expect("registered");
    let program = w.program().expect("parse");
    let scenario = ContentionScenario::at_time(SimTime::from_secs(0.8), 0.1);
    let a = ActivePy::new()
        .run(&program, &w, &config, scenario)
        .expect("first");
    let b = ActivePy::new()
        .run(&program, &w, &config, scenario)
        .expect("second");
    assert_eq!(a.report.total_secs, b.report.total_secs);
    assert_eq!(a.report.migration(), b.report.migration());
}

#[test]
fn cached_plans_execute_like_the_one_call_pipeline_clean_and_contended() {
    let config = SystemConfig::paper_default();
    let cache = PlanCache::new();
    let rt = ActivePy::new();
    for w in isp_workloads::full_set() {
        let program = w.program().expect("parse");
        let plan = cache
            .plan_for(&rt, w.name(), &program, &w, &config)
            .expect("plan");
        let reference = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("reference run");
        let t_half = reference.report.time_at_csd_progress(0.5);
        let drop = ContentionScenario::at_time(SimTime::from_secs(t_half), 0.1);
        for scenario in [ContentionScenario::none(), drop] {
            let planned = rt
                .execute_plan(&plan, &config, scenario)
                .expect("planned run");
            let one_call = rt
                .run(&program, &w, &config, scenario)
                .expect("one-call run");
            assert_eq!(
                planned.report,
                one_call.report,
                "{} under {scenario}: plan caching and hoisting must not change the report",
                w.name()
            );
        }
    }
}

#[test]
fn threaded_fig5_rows_match_the_default_policy_byte_for_byte() {
    let config = SystemConfig::paper_default();
    let policy = ParallelPolicy::with_threads(8);
    let threaded = isp_bench::experiments::fig5::run(&config, &PlanCache::new(), policy);
    let default =
        isp_bench::experiments::fig5::run(&config, &PlanCache::new(), ParallelPolicy::default());
    assert_eq!(
        serde_json::to_string(&threaded).expect("rows serialize"),
        serde_json::to_string(&default).expect("rows serialize"),
        "the kernel parallel policy must not change a single output byte"
    );
}

/// TPC-H-6, TPC-H-1 and blackscholes over 16 384-row tables, past
/// `par::MIN_PARALLEL_LEN` (their 4 096-row Table-I inputs never chunk),
/// through `exec::execute` — the path `execute_plan` shares — at the
/// default policy and at eight threads: the same report, the kernels on
/// the chunked path, and every chunked call run at eight threads.
#[test]
fn threaded_table_programs_chunk_and_match_the_default_policy() {
    use isp_workloads::datagen::{options::option_chain, tpch::lineitem};
    let mut st = Storage::new();
    st.insert("lineitem", lineitem(6.9, 1.0, 16_384, 2048, 0x79C8));
    st.insert("options", option_chain(9.1, 1.0, 16_384, 0xB5));
    for name in ["TPC-H-6", "TPC-H-1", "blackscholes"] {
        let w = isp_workloads::by_name(name).expect("registered");
        let placements = vec![EngineKind::Cse; w.program().expect("parse").len()];
        let case = Case::new(w.source(), st.clone(), placements);
        let run = |policy: ParallelPolicy| {
            let (tracer, sink) = Tracer::to_memory();
            let opts = ExecOptions::activepy().with_parallelism(policy);
            (case.run(&opts.with_tracer(tracer)).expect(name), sink)
        };
        let (default, _) = run(ParallelPolicy::default());
        let (threaded, sink) = run(ParallelPolicy::with_threads(8));
        assert_eq!(threaded, default, "{name}");
        let par = threaded.metrics.par;
        assert!(par.par_calls > 0, "{name}: {par:?}");
        common::assert_kernels_ran_at(&sink, 8, name);
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_a_serial_map() {
    let config = SystemConfig::paper_default();
    let f = |w: isp_workloads::Workload| {
        let program = w.program().expect("parse");
        let outcome = ActivePy::new()
            .run(&program, &w, &config, ContentionScenario::none())
            .expect("run");
        serde_json::to_string(&outcome.report).expect("report serializes")
    };
    let serial: Vec<String> = isp_workloads::table1().into_iter().map(f).collect();
    let parallel = isp_bench::sweep::run_grid_with_threads(isp_workloads::table1(), 4, f);
    assert_eq!(parallel, serial);
}

#[test]
fn generators_are_scale_keyed_but_stable() {
    let w = isp_workloads::by_name("blackscholes").expect("registered");
    let a = w.storage_at(0.25);
    let b = w.storage_at(0.25);
    assert_eq!(
        a.get("options").expect("a").virtual_bytes(),
        b.get("options").expect("b").virtual_bytes()
    );
    let ta = a.get("options").expect("a");
    let tb = b.get("options").expect("b");
    assert_eq!(ta, tb, "same scale, same seed, same data");
}
