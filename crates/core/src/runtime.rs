//! The ActivePy runtime facade: the full pipeline of Figure 3.
//!
//! Given an unannotated program and its raw input, [`ActivePy::run`]
//! executes the whole workflow the paper describes: sample → fit → estimate
//! → assign (Algorithm 1) → generate code (with copy elimination) →
//! distribute → execute with monitoring and dynamic task migration. The
//! sampling and code-generation overheads are charged to the simulated
//! clock, so end-to-end latencies include them (the paper reports ≈0.1 s /
//! ≈1 %).

use std::time::Instant;

use crate::assign::{assign_refined_traced, projected_cost, Assignment};
use crate::audit::capture_terms;
use crate::error::{ActivePyError, Result};
use crate::estimate::{estimate_lines, Calibration, Link, Prices};
use crate::exec::{evaluate, simulate, ExecOptions, RunReport};
use crate::fit::{blend_predictions, predict_lines};
use crate::plan::{OffloadPlan, PlanTimings};
use crate::profile::WorkloadProfile;
use crate::resume::plan_fingerprint;
use crate::sampling::{paper_scales, run_sampling_traced, InputSource, SamplingReport};
use alang::compile::compile_secs_for;
use alang::copyelim::eliminable_lines;
use alang::{ExecTier, Program, Storage};
use csd_sim::contention::ContentionScenario;
use csd_sim::units::Duration;
use csd_sim::SystemConfig;
use isp_obs::{SpanKind, WalRecord};

/// Configuration of the ActivePy runtime: the options every plan
/// execution runs under, less the tier and scenario
/// [`ActivePy::run_options`] sets per run. Planning reads only `params`
/// and `tracer`, and the plan-cache key hashes only `params`.
pub type ActivePyOptions = ExecOptions;

/// What one execution of a plan produced. The planning facts — the
/// assignment, estimates, predictions, sampling report, calibration and
/// the simulated pipeline overheads — live on the [`OffloadPlan`] that was
/// executed, and only there.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivePyOutcome {
    /// The execution report (end-to-end latency, per-line outcomes,
    /// migrations).
    pub report: RunReport,
}

/// The ActivePy runtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActivePy {
    options: ActivePyOptions,
}

impl ActivePy {
    /// A runtime with the paper's default configuration.
    #[must_use]
    pub fn new() -> Self {
        ActivePy {
            options: ActivePyOptions::default(),
        }
    }

    /// A runtime with custom options.
    #[must_use]
    pub fn with_options(options: ActivePyOptions) -> Self {
        ActivePy { options }
    }

    /// The active options.
    #[must_use]
    pub fn options(&self) -> &ActivePyOptions {
        &self.options
    }

    /// Runs the complete pipeline on `program` with inputs from `input`,
    /// on a platform described by `config`, under `scenario` contention.
    ///
    /// Equivalent to [`ActivePy::plan`] followed by
    /// [`ActivePy::execute_plan`]; callers that run the same (program,
    /// workload, platform) under several scenarios should plan once —
    /// ideally through a [`crate::plan::PlanCache`] — and execute the plan
    /// per scenario.
    ///
    /// # Errors
    ///
    /// Propagates sampling, fitting, and execution failures.
    pub fn run(
        &self,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
        scenario: ContentionScenario,
    ) -> Result<ActivePyOutcome> {
        let plan = self.plan(program, input, config)?;
        self.execute_plan(&plan, config, scenario)
    }

    /// Runs the planning half of the pipeline: sampling at the paper's
    /// down-scales, curve fitting, calibration, copy-elimination analysis,
    /// Eq.1 estimation, Algorithm 1, and full-scale input
    /// materialization. The result depends on the contention scenario and
    /// monitoring policy in no way, so one plan serves every execution
    /// variant of the same (program, workload, platform).
    ///
    /// # Errors
    ///
    /// Propagates sampling and fitting failures.
    pub fn plan(
        &self,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
    ) -> Result<OffloadPlan> {
        let tracer = &self.options.tracer;

        // Materialize the full-scale input the plan will execute on, ahead
        // of sampling: it outlives the plan when its source keeps it, while
        // sampling's inputs — as large, materialized — come and go, and an
        // allocator packs the long-lived block best when it does not land
        // in the gap a short-lived one has just left.
        let phase = Instant::now();
        let full_storage = input.storage_at(1.0);
        let materialize_nanos = phase_nanos(phase);

        // 1. Sampling phase on the paper's down-scaled inputs.
        let phase = Instant::now();
        let scales = paper_scales();
        let span = tracer.begin_with(
            "phase.sampling",
            SpanKind::Phase,
            None,
            tracer.attrs(|| vec![("scales".into(), scales.len().into())]),
        );
        let sampling = run_sampling_traced(program, input, &scales, tracer)?;
        tracer.end_with(
            span,
            None,
            tracer.attrs(|| {
                let prices = Prices::new(config, &Calibration::from_counters(config));
                vec![(
                    "sampling_secs".into(),
                    self.sampling_secs(&sampling, &prices).into(),
                )]
            }),
        );
        let sampling_nanos = phase_nanos(phase);

        let mut plan = self.plan_from_sampling(program, sampling, full_storage, config)?;
        plan.timings.sampling_nanos = sampling_nanos;
        plan.timings.materialize_nanos = materialize_nanos;
        Ok(plan)
    }

    /// Runs planning phases 2–5 (curve fitting, calibration,
    /// copy-elimination analysis, Eq.1 estimation, Algorithm 1, and code
    /// generation) from an already-collected [`SamplingReport`] of
    /// `program` and its full-scale input.
    ///
    /// This is the warm-start entry point: it runs no sampling, so a
    /// process restarted with a persisted sampling report re-plans after
    /// drawing only the input the plan executes on. [`ActivePy::plan`] is
    /// exactly materialization + sampling + this method, so the two paths
    /// produce identical plans (timings aside) from the same report.
    ///
    /// # Errors
    ///
    /// A report whose lines are not exactly `0..program.len()` (another
    /// program's) is refused; fitting and lowering failures propagate.
    pub fn plan_from_sampling(
        &self,
        program: &Program,
        sampling: SamplingReport,
        full_storage: Storage,
        config: &SystemConfig,
    ) -> Result<OffloadPlan> {
        if sampling.lines.len() != program.len()
            || sampling.lines.iter().enumerate().any(|(i, l)| l.line != i)
        {
            return Err(ActivePyError::sampling(format!(
                "the sampling report does not cover lines 0..{} of this program",
                program.len()
            )));
        }
        let mut timings = PlanTimings::default();
        let tracer = &self.options.tracer;

        // 2. Fit the five candidate curves and extrapolate to full scale.
        let phase = Instant::now();
        let span = tracer.begin("phase.fit", SpanKind::Phase, None);
        let predictions = predict_lines(&sampling.lines)?;
        tracer.end_with(
            span,
            None,
            tracer.attrs(|| vec![("lines".into(), predictions.len().into())]),
        );
        timings.fit_nanos = phase_nanos(phase);

        // 3. Calibrate the CSE slowdown from a probe on both engines, decide
        //    copy elimination from the dataset types sampling observed (the
        //    generated code's optimization), and estimate per-line
        //    host/device times for that code — the profit evaluation.
        let phase = Instant::now();
        let span = tracer.begin("phase.profit", SpanKind::Phase, None);
        let calibration = Calibration::from_counters(config);
        let prices = Prices::new(config, &calibration);
        let sampling_secs = self.sampling_secs(&sampling, &prices);
        let copy_elim = eliminable_lines(program, &sampling.dataset_types);
        let estimates = estimate_lines(
            &predictions,
            ExecTier::CompiledCopyElim,
            &self.options.params,
            config,
            &calibration,
            &copy_elim,
        );
        tracer.end_with(
            span,
            None,
            tracer.attrs(|| {
                vec![(
                    "copy_elim_lines".into(),
                    copy_elim.iter().filter(|e| **e).count().into(),
                )]
            }),
        );

        // 4. Algorithm 1 with flip refinement.
        let span = tracer.begin("phase.assign", SpanKind::Phase, None);
        let assignment = assign_refined_traced(program, &estimates, prices.link, tracer);
        tracer.end_with(
            span,
            None,
            tracer.attrs(|| vec![("csd_lines".into(), assignment.csd_lines.len().into())]),
        );

        // 5. Code generation. Lower once while planning: every execution
        //    variant of this plan (per scenario, with or without migration)
        //    reuses the bytecode.
        let span = tracer.begin("phase.compile", SpanKind::Phase, None);
        let lowered = alang::lower::lower_with(program, &copy_elim)?;
        let compile_secs = codegen_secs(program, &assignment);
        tracer.end_with(
            span,
            None,
            tracer.attrs(|| vec![("compile_secs".into(), compile_secs.into())]),
        );
        timings.assign_nanos = phase_nanos(phase);

        let eq1 = capture_terms(&estimates, &assignment, prices.link.bytes_per_sec(), 1);
        Ok(OffloadPlan {
            program: program.clone(),
            lowered,
            sampling,
            predictions,
            calibration,
            copy_elim,
            estimates,
            assignment,
            sampling_secs,
            compile_secs,
            full_storage,
            timings,
            eq1,
        })
    }

    /// Refits a prepared plan from measured observations: blends the
    /// profile's per-line means into the sampled predictions
    /// (observation-count-weighted, [`crate::fit::blend_predictions`]),
    /// re-estimates, and re-runs Algorithm 1 under the blended model.
    ///
    /// Everything sampling produced — the measurements, the calibration,
    /// the lowering, the materialized input — is reused from `prior`, so
    /// a warm re-plan skips the two expensive planning phases entirely.
    /// The prior assignment is always evaluated as a candidate under the
    /// blended cost model, so the refitted plan's modelled sim-time
    /// ([`crate::assign::projected_cost`]) never exceeds the cold plan's
    /// under the same model.
    ///
    /// # Errors
    ///
    /// None currently; the `Result` mirrors [`ActivePy::plan`] so callers
    /// treat both planning paths uniformly.
    pub fn replan(
        &self,
        prior: &OffloadPlan,
        config: &SystemConfig,
        profile: &WorkloadProfile,
    ) -> Result<OffloadPlan> {
        let tracer = &self.options.tracer;
        let span = tracer.begin_with(
            "phase.refit",
            SpanKind::Phase,
            None,
            tracer.attrs(|| vec![("observed_runs".into(), (profile.version as usize).into())]),
        );
        let predictions = blend_predictions(&prior.predictions, profile);
        let estimates = estimate_lines(
            &predictions,
            ExecTier::CompiledCopyElim,
            &self.options.params,
            config,
            &prior.calibration,
            &prior.copy_elim,
        );
        let link = Link::d2h(config);
        let mut assignment = assign_refined_traced(&prior.program, &estimates, link, tracer);
        let prior_placements = prior.assignment.placements(prior.program.len());
        let prior_cost = projected_cost(&prior.program, &estimates, &prior_placements, link);
        if prior_cost < assignment.t_csd {
            assignment = Assignment {
                csd_lines: prior.assignment.csd_lines.clone(),
                t_host: assignment.t_host,
                t_csd: prior_cost,
            };
        }
        let compile_secs = codegen_secs(&prior.program, &assignment);
        tracer.end_with(
            span,
            None,
            tracer.attrs(|| vec![("csd_lines".into(), assignment.csd_lines.len().into())]),
        );
        let eq1 = capture_terms(&estimates, &assignment, link.bytes_per_sec(), 1);
        Ok(OffloadPlan {
            program: prior.program.clone(),
            lowered: prior.lowered.clone(),
            sampling: prior.sampling.clone(),
            predictions,
            calibration: prior.calibration,
            copy_elim: prior.copy_elim.clone(),
            estimates,
            assignment,
            sampling_secs: prior.sampling_secs,
            compile_secs,
            full_storage: prior.full_storage.clone(),
            timings: prior.timings,
            eq1,
        })
    }

    /// Executes a prepared plan under `scenario` contention on a fresh
    /// system built from `config`, applying this runtime's execution
    /// options (monitoring policy, preemption, overhead charging).
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn execute_plan(
        &self,
        plan: &OffloadPlan,
        config: &SystemConfig,
        scenario: ContentionScenario,
    ) -> Result<ActivePyOutcome> {
        let mut system = config.build();
        // Sampling and code generation are charged to the clock ahead of the run.
        system.advance(Duration::from_secs(plan.sampling_secs + plan.compile_secs));
        let tracer = &self.options.tracer;
        tracer.instant(
            "exec.pipeline_overheads",
            SpanKind::Phase,
            Some(system.now().as_secs()),
            tracer.attrs(|| {
                vec![
                    ("sampling_secs".into(), plan.sampling_secs.into()),
                    ("compile_secs".into(), plan.compile_secs.into()),
                ]
            }),
        );
        let opts = self.run_options(scenario);
        // Journal the plan identity before executing: a resume against a
        // different plan (changed program, drifted fit) is detected at
        // the very first record rather than at some divergent boundary.
        // Fingerprinting walks every hashed part of the plan, so only for
        // a journal that will keep the record.
        if opts.journal.is_enabled() {
            opts.journal.on_record(WalRecord::PlanCommit {
                lane: 0,
                plan_fp: plan_fingerprint(plan),
                shard_fp: 0,
            })?;
        }
        let placements = plan.assignment.placements(plan.program.len());
        // The plan carries the lowering (baked with `plan.copy_elim`);
        // don't re-lower per scenario.
        let evaluation = evaluate(&plan.program, &plan.lowered, &plan.full_storage, &opts)?;
        let report = simulate(
            &plan.program,
            &evaluation,
            &placements,
            &mut system,
            &opts,
            Some(&plan.estimates),
            None,
        )?;

        Ok(ActivePyOutcome { report })
    }

    /// The execution options a plan runs under: ActivePy's generated
    /// copy-eliminated code, this runtime's policies and observer handles,
    /// and `scenario` contention.
    #[must_use]
    pub fn run_options(&self, scenario: ContentionScenario) -> ExecOptions {
        ExecOptions {
            tier: ExecTier::CompiledCopyElim,
            scenario,
            ..self.options.clone()
        }
    }

    /// Simulated wall-clock cost of the sampling runs: the sample programs
    /// execute interpreted on the host, so they cost one host line.
    fn sampling_secs(&self, sampling: &SamplingReport, prices: &Prices) -> f64 {
        let cost = sampling.total_cost();
        let ops = cost.effective_ops(ExecTier::Interpreted, &self.options.params);
        prices.host_line(ops, cost.storage_bytes)
    }
}

/// Simulated code-generation time: the whole program is compiled for the
/// host, and the CSD partition once more when anything offloads.
fn codegen_secs(program: &Program, assignment: &Assignment) -> f64 {
    let csd_line_count = assignment.csd_lines.len();
    compile_secs_for(program.len())
        + if csd_line_count > 0 {
            compile_secs_for(csd_line_count)
        } else {
            0.0
        }
}

/// Host wall-clock elapsed since `start`, saturating into `u64` nanos.
fn phase_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_all_host;
    use crate::sampling::test_input as input;
    use alang::parser::parse;
    use alang::ParallelPolicy;

    const SRC: &str = "\
a = scan('v')
m = a < 50
b = select(a, m)
s = sum(b)
";

    /// Plans `SRC` on the paper's platform and executes the plan once,
    /// uncontended.
    fn planned_run() -> (OffloadPlan, ActivePyOutcome) {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let plan = rt.plan(&program, &input(), &config).expect("plan");
        let outcome = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("pipeline");
        (plan, outcome)
    }

    #[test]
    fn pipeline_runs_end_to_end_and_offloads_the_scan() {
        let (plan, outcome) = planned_run();
        assert!(
            plan.assignment.csd_lines.contains(&0),
            "the scan line should offload: {:?}",
            plan.assignment
        );
        assert!(outcome.report.total_secs > 0.0);
        assert!(plan.sampling_secs > 0.0);
        assert!(plan.compile_secs > 0.0);
        assert_eq!(plan.estimates.len(), 4);
        assert_eq!(plan.predictions.len(), 4);
    }

    #[test]
    fn activepy_beats_the_host_only_baseline() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let outcome = ActivePy::new()
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("pipeline");
        let storage = input().storage_at(1.0);
        let mut host_sys = config.build();
        let host = execute_all_host(
            &program,
            &storage,
            &mut host_sys,
            alang::ExecTier::Native,
            &[],
        )
        .expect("host baseline");
        assert!(
            outcome.report.total_secs < host.total_secs,
            "ActivePy {} must beat host {}",
            outcome.report.total_secs,
            host.total_secs
        );
    }

    #[test]
    fn pipeline_overheads_are_small() {
        let (plan, outcome) = planned_run();
        let overhead = plan.sampling_secs + plan.compile_secs;
        assert!(
            overhead < 0.10 * outcome.report.total_secs,
            "overhead {overhead}s too large vs total {}s",
            outcome.report.total_secs
        );
    }

    #[test]
    fn without_migration_option_disables_monitor() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
        let outcome = rt
            .run(
                &program,
                &input(),
                &config,
                ContentionScenario::after_progress(0.5, 0.1),
            )
            .expect("pipeline");
        assert!(outcome.report.migration().is_none());
    }

    #[test]
    fn parallel_plan_execution_matches_serial() {
        // The policy is execution-only: the plan (sampling, fitting,
        // assignment) and the report are unchanged. `v` holds 16 384
        // elements at every scale, enough for its kernels to chunk.
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let input = |scale: f64| {
            let data: Vec<f64> = (0..16_384).map(|i| (i % 100) as f64).collect();
            let logical = ((scale * 1e9).round() as u64).max(16_384);
            let mut st = alang::Storage::new();
            let v = alang::value::ArrayVal::with_logical(data, logical);
            st.insert("v", alang::Value::Array(v));
            st
        };
        let serial_rt = ActivePy::new();
        let serial_plan = serial_rt.plan(&program, &input, &config).expect("plan");
        let serial = serial_rt
            .execute_plan(&serial_plan, &config, ContentionScenario::none())
            .expect("serial");
        let policy = ParallelPolicy::with_threads(8);
        let par_rt = ActivePy::with_options(ActivePyOptions::default().with_parallelism(policy));
        let par_plan = par_rt.plan(&program, &input, &config).expect("plan");
        let par = par_rt
            .execute_plan(&par_plan, &config, ContentionScenario::none())
            .expect("parallel");
        assert_eq!(par_plan.assignment, serial_plan.assignment);
        // The chunk grid is the data's: both runs chunk, alike.
        assert_eq!(par.report, serial.report);
        assert!(par.report.metrics.par.par_calls > 0, "{:?}", par.report);
    }

    #[test]
    fn volume_predictions_are_close_to_measured() {
        let (plan, outcome) = planned_run();
        // Compare predicted vs measured output volume per line (the
        // paper's headline accuracy result: geomean error ≈ 9 %).
        for (pred, line) in plan.predictions.iter().zip(&outcome.report.lines) {
            let predicted = pred.cost.bytes_out as f64;
            let measured = line.cost.bytes_out as f64;
            if measured > 1e6 {
                let err = (predicted - measured).abs() / measured;
                assert!(
                    err < 0.25,
                    "line {} volume error {err}: predicted {predicted}, measured {measured}",
                    pred.line
                );
            }
        }
    }
}
