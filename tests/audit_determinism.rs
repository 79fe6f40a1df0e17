//! Audit-layer invariants: calibration is observation-only, and the
//! Prometheus exposition it feeds is byte-deterministic.
//!
//! 1. **Observation-only (property-tested)** — for random programs ×
//!    random placements × fleet sizes N ∈ {1, 4} × pinned fault plans:
//!    running with a live tracer (the audit substrate) leaves `values_fingerprint`, the injected-fault ledger,
//!    every per-shard metrics snapshot, and every migration decision
//!    byte-identical to the unaudited run: the whole report, field for
//!    field, and every fleet gives the unsharded run's answer.
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

use activepy::exec::{evaluate, simulate, MigrationReason};
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{PlanCache, ProfileRecorder, ProfileStore};
use alang::ParallelPolicy;
use common::contract::{traced, Case, AUDIT};
use common::fault_params;
use csd_sim::fault::FaultPlan;
use csd_sim::units::Duration;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_obs::export::prometheus;
use isp_obs::{footer_snapshot, parse_journal, Tracer};
use std::sync::Arc;

const FLEET_SIZES: [usize; 2] = [1, 4];

/// Enabling the audit substrate (a live tracer) perturbs nothing the run
/// computes: fingerprints, fault accounting, per-shard metrics, and
/// migration decisions all match the unaudited run, at every fleet size,
/// faulted or clean.
#[test]
fn audit_is_observation_only_across_fleets_and_faults() {
    AUDIT.check((Case::placed(), fault_params(0.2)), |(case, faults)| {
        Ok(case.ran(traced(&case, &FLEET_SIZES, &faults)?))
    });
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

    // Observation-only: the whole report, field for field.
    assert_eq!(audited.report, reference.report);

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
    common::assert_kernels_ran_at(&sink, 2, w.name());
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
