//! Audit-layer invariants: calibration is observation-only, and the
//! Prometheus exposition it feeds is byte-deterministic.
//!
//! 1. **Observation-only (property-tested)** — for random programs ×
//!    random placements × fleet sizes N ∈ {1, 4} × pinned fault plans:
//!    running with a live tracer (the audit substrate) leaves `values_fingerprint`, the injected-fault ledger,
//!    every per-shard metrics snapshot, and every migration decision
//!    byte-identical to the unaudited run.
//! 2. **Full-pipeline audit is observation-only** — the planned path
//!    (plan → execute → `calibrate` → `publish_to`) reproduces the
//!    unaudited fingerprint and run report for a real workload, and the
//!    Prometheus rendering of the audited registry is byte-deterministic
//!    and structurally valid.
//! 3. **Golden exposition** — the Prometheus text rendered from the
//!    committed fig5 TPC-H-6 journal's metrics footer is byte-identical
//!    to `tests/golden/fig5_tpch6_metrics.prom`; regenerate with
//!    `REGEN_TRACE_GOLDEN=1 cargo test --test audit_determinism`.
//! 4. **Run options** — `execute_plan` runs under exactly
//!    `ActivePy::run_options`, and every configured option reaches the run.

mod common;

use activepy::exec::{evaluate, execute, simulate, ExecOptions, MigrationReason};
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{execute_sharded_raw, PlanCache, ProfileRecorder, ProfileStore};
use alang::parser::parse;
use alang::shard::{ShardMap, ShardStrategy};
use alang::ParallelPolicy;
use common::{expr, fault_params, placements, source, storage, VARS};
use csd_sim::fault::FaultPlan;
use csd_sim::units::Duration;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_obs::export::prometheus;
use isp_obs::{footer_snapshot, parse_journal, AttrValue, TraceEvent, Tracer};
use proptest::prelude::*;
use std::sync::Arc;

const FLEET_SIZES: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Enabling the audit substrate (a live tracer) perturbs nothing the
    /// run computes: fingerprints, fault accounting, per-shard metrics,
    /// and migration decisions all match the unaudited run, at every
    /// fleet size, faulted or clean.
    #[test]
    fn audit_is_observation_only_across_fleets_and_faults(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..6),
        on_csd in prop::collection::vec(any::<bool>(), 6..7),
        params in fault_params(0.2),
    ) {
        let src = source(&lines);
        let program = parse(&src).expect("generated source parses");
        let placements = placements(&on_csd, lines.len());
        let st = storage();
        let config = SystemConfig::paper_default();

        let plain_opts = ExecOptions::activepy();
        let (tracer, _sink) = Tracer::to_memory();
        let audited_opts = plain_opts.clone().with_tracer(tracer.clone());

        // Unsharded single device, clean.
        let mut system = config.build();
        let plain = execute(&program, &st, &placements, &mut system, &plain_opts, None, &[]);
        let mut system = config.build();
        let audited =
            execute(&program, &st, &placements, &mut system, &audited_opts, None, &[]);
        match (&plain, &audited) {
            (Ok(p), Ok(a)) => {
                prop_assert_eq!(
                    a.values_fingerprint, p.values_fingerprint,
                    "tracing moved the unsharded fingerprint for:\n{}", src
                );
                prop_assert_eq!(a.metrics, p.metrics);
                prop_assert_eq!(
                    format!("{:?}", a.migration()),
                    format!("{:?}", p.migration())
                );
            }
            (Err(_), Err(_)) => {}
            _ => {
                return Err(TestCaseError::fail(format!(
                    "tracing changed unsharded success for:\n{src}"
                )));
            }
        }

        // Fleets with per-shard fault plans.
        for &n in &FLEET_SIZES {
            let map = ShardMap::auto(&st, n, ShardStrategy::Range);
            let faults: Vec<FaultPlan> =
                (0..n).map(|s| params.plan_for_shard(s)).collect();
            let plain = execute_sharded_raw(
                &program, &st, &map, &placements, &config, &plain_opts, &faults,
            );
            let audited = execute_sharded_raw(
                &program, &st, &map, &placements, &config, &audited_opts, &faults,
            );
            match (plain, audited) {
                (Ok(p), Ok(a)) => {
                    prop_assert_eq!(
                        a.values_fingerprint, p.values_fingerprint,
                        "tracing moved the N={} fingerprint for:\n{}", n, src
                    );
                    prop_assert_eq!(
                        format!("{:?}", a.injected()),
                        format!("{:?}", p.injected()),
                        "tracing moved the injected-fault ledger for:\n{}", src
                    );
                    prop_assert_eq!(a.shards.len(), p.shards.len());
                    for (sa, sp) in a.shards.iter().zip(&p.shards) {
                        prop_assert_eq!(
                            sa.report.values_fingerprint,
                            sp.report.values_fingerprint
                        );
                        prop_assert_eq!(sa.report.metrics, sp.report.metrics);
                        prop_assert_eq!(
                            format!("{:?}", &sa.report.migration()),
                            format!("{:?}", &sp.report.migration()),
                            "tracing moved a shard migration for:\n{}", src
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "tracing changed success at N={n} for:\n{src}"
                    )));
                }
            }
        }

        // The audited registry renders to identical Prometheus bytes
        // every time, and the exposition is structurally valid.
        if let Some(snap) = tracer.metrics_snapshot() {
            let once = prometheus::render(&snap);
            let twice = prometheus::render(&snap);
            prop_assert_eq!(&once, &twice, "Prometheus rendering is not a pure function");
            prometheus::validate(&once).map_err(TestCaseError::fail)?;
        }
    }
}

/// The planned path: plan once, execute unaudited for the reference
/// fingerprint, then re-execute with the full audit harness (live
/// tracer + profile recorder + `calibrate` + `publish_to` + metrics
/// fold + Prometheus render). Nothing the run computes may move.
#[test]
fn planned_audit_pass_is_observation_only() {
    let w = isp_workloads::by_name("TPC-H-6").expect("registered workload");
    let program = w.program().expect("workload parses");
    let config = SystemConfig::paper_default();
    let cache = PlanCache::new();
    let rt = ActivePy::new();
    let plan = cache
        .plan_for(&rt, w.name(), &program, &w, &config)
        .expect("planning succeeds");

    let reference = rt
        .execute_plan(&plan, &config, ContentionScenario::none())
        .expect("reference run");

    let (tracer, sink) = Tracer::to_memory();
    let key = PlanCache::key_for(&rt, w.name(), &w, &config);
    let audited_rt = ActivePy::with_options(
        ActivePyOptions::default()
            .with_tracer(tracer.clone())
            .with_profile(ProfileRecorder::to_store(
                Arc::new(ProfileStore::new()),
                key,
            )),
    );
    let audited = audited_rt
        .execute_plan(&plan, &config, ContentionScenario::none())
        .expect("audited run");
    let calibration = activepy::calibrate(w.name(), &plan, &audited.report, None);
    calibration.publish_to(&tracer);

    // Observation-only: fingerprint, line costs, metrics, migration.
    assert_eq!(
        audited.report.values_fingerprint,
        reference.report.values_fingerprint
    );
    assert_eq!(audited.report.metrics, reference.report.metrics);
    assert_eq!(
        format!("{:?}", audited.report.migration()),
        format!("{:?}", reference.report.migration())
    );

    // The calibration joined every executed line and published the count.
    assert!(!calibration.lines.is_empty());
    let registry = tracer.metrics_snapshot().expect("live tracer");
    assert_eq!(
        registry.counter("audit.lines"),
        Some(calibration.lines.len() as u64)
    );

    // The published registry renders deterministically, validates, and
    // carries the audit families.
    let text = prometheus::render(&registry);
    assert_eq!(text, prometheus::render(&registry));
    prometheus::validate(&text).expect("valid exposition");
    assert!(
        text.contains("isp_audit_lines"),
        "missing audit counter:\n{text}"
    );
    assert!(
        text.contains("isp_audit_time_err_ppm_bucket"),
        "missing audit histogram:\n{text}"
    );

    // The journal footer round-trips the same registry, so `trace
    // --prom` on a written journal reproduces the live exposition.
    let journal = parse_journal(&isp_obs::export::jsonl(
        &sink.events(),
        tracer.metrics_snapshot().as_ref(),
        true,
    ))
    .expect("journal parses");
    let from_footer = footer_snapshot(&journal).expect("journal has a metrics footer");
    assert_eq!(prometheus::render(&from_footer), text);
}

/// An ActivePy execution runs under exactly the options its runtime builds
/// for the scenario: `execute_plan` equals `evaluate` then `simulate` on a
/// system charged with the plan's pipeline overheads, report field for
/// field, with faults, a preemption, a parallel policy, a profile recorder
/// and a tracer all configured, and each of them reaching the run.
#[test]
fn an_activepy_execution_runs_under_exactly_its_options() {
    // MatrixMul's kernels chunk on its registered input (a 2048 x 64
    // matmul, a 2048 x 4 norm), so the chunk counters show the run's
    // engine.
    let w = isp_workloads::by_name("MatrixMul").expect("registered workload");
    let program = w.program().expect("workload parses");
    let config = SystemConfig::paper_default();
    let cache = PlanCache::new();
    let plan = cache
        .plan_for(&ActivePy::new(), w.name(), &program, &w, &config)
        .expect("planning succeeds");
    let policy = ParallelPolicy::with_threads(2);
    let faults = FaultPlan::none()
        .with_seed(7)
        .with_flash_read_error_prob(0.2);
    let store = Arc::new(ProfileStore::new());
    let key = PlanCache::key_for(&ActivePy::new(), w.name(), &w, &config);
    let recorder = ProfileRecorder::to_store(Arc::clone(&store), key.clone());
    let (tracer, sink) = Tracer::to_memory();
    let rt = ActivePy::with_options(
        ActivePyOptions::default()
            .with_faults(faults)
            .with_preemption_at(plan.sampling_secs + plan.compile_secs + 0.5)
            .with_parallelism(policy)
            .with_profile(recorder)
            .with_tracer(tracer),
    );
    let scenario = ContentionScenario::after_progress(0.5, 0.1);

    let report = rt
        .execute_plan(&plan, &config, scenario)
        .expect("planned run")
        .report;

    let opts = rt.run_options(scenario);
    let evaluation =
        evaluate(&plan.program, &plan.lowered, &plan.full_storage, &opts).expect("evaluate");
    let mut system = config.build();
    system.advance(Duration::from_secs(plan.sampling_secs + plan.compile_secs));
    let expected = simulate(
        &plan.program,
        &evaluation,
        &plan.assignment.placements(plan.program.len()),
        &mut system,
        &opts,
        Some(&plan.estimates),
        None,
    )
    .expect("simulate");
    assert_eq!(report, expected);

    // Every configured option reached the run: the kernels chunked, and
    // each chunked call ran at the policy's two threads.
    assert!(report.metrics.par.par_calls > 0, "{:?}", report.metrics.par);
    let par_spans: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) if s.name == "kernel.par" => Some(s.attrs),
            _ => None,
        })
        .collect();
    assert!(!par_spans.is_empty(), "no kernel.par span was traced");
    for attrs in &par_spans {
        assert!(
            attrs.contains(&("threads".to_string(), AttrValue::U64(2))),
            "{attrs:?}"
        );
    }
    assert!(report.metrics.faults.flash_read_errors > 0, "{report:?}");
    assert!(
        report
            .migrations
            .iter()
            .any(|m| m.reason == MigrationReason::Preempted),
        "{:?}",
        report.migrations
    );
    // Both the planned run and the hand-built `simulate` recorded.
    assert_eq!(store.profile(&key).version, 2);
}

/// The committed Prometheus golden: rendering the metrics footer of the
/// committed fig5 TPC-H-6 journal must reproduce
/// `tests/golden/fig5_tpch6_metrics.prom` byte for byte.
#[test]
fn prometheus_export_matches_the_committed_golden() {
    let journal_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig5_tpch6_trace.jsonl"
    );
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig5_tpch6_metrics.prom"
    );
    let journal_text = std::fs::read_to_string(journal_path).expect("trace golden exists");
    let journal = parse_journal(&journal_text).expect("trace golden parses");
    let snap = footer_snapshot(&journal).expect("trace golden has a metrics footer");
    let rendered = prometheus::render(&snap);
    prometheus::validate(&rendered).expect("valid exposition");
    if std::env::var_os("REGEN_TRACE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("golden is writable");
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("Prometheus golden exists");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from tests/golden/fig5_tpch6_metrics.prom; \
         regenerate with REGEN_TRACE_GOLDEN=1 if intentional"
    );
}
