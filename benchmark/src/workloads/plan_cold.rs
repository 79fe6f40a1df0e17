//! `plan_cold`: the paper's contribution and its overhead — sampling runs
//! on generated down-scaled inputs, full-scale materialisation, curve
//! fitting, Eq. 1 estimation, Algorithm 1 and lowering, with no plan
//! cache. `workloads::datagen` and `core::sampling` do most of the work;
//! the executor does none.

use crate::catalogue::Values;
use crate::driver::{Ctx, Round, Trace, Workload, OP_SPAN, ROUND_SPAN};
use crate::rng::Rng;
use crate::source::{TimedSource, DATAGEN_SPAN};
use crate::stats::median_secs;
use activepy::assign::assign_refined;
use activepy::audit::capture_terms;
use activepy::estimate::{estimate_lines, Calibration};
use activepy::fit::predict_lines;
use activepy::plan::PlanTimings;
use activepy::runtime::ActivePy;
use activepy::sampling::{paper_scales, run_sampling, InputSource};
use activepy::{plan_fingerprint, OffloadPlan, PlanCache, WorkloadProfile};
use alang::copyelim::eliminable_lines;
use alang::{ExecTier, Interpreter, Program, Storage, Vm};
use csd_sim::{ContentionScenario, SystemConfig};
use isp_workloads::Workload as App;

pub struct PlanCold {
    config: SystemConfig,
    rt: ActivePy,
    apps: Vec<App>,
    /// Seed-drawn program order inside a round.
    order: Vec<usize>,
    /// `plan_fingerprint` of each program's one-call plan, from set-up.
    fingerprints: Vec<u64>,
    /// Source lines of all 12 programs together.
    lines_per_round: usize,
}

impl PlanCold {
    /// `ActivePy::plan` replaced by its public decomposition, one span per
    /// layer call, mirroring `ActivePy::plan_from_sampling`. The caller
    /// checks that it fingerprints like the one-call path.
    fn plan_decomposed(&self, ctx: &Ctx, app: &App) -> Result<(OffloadPlan, usize), String> {
        let spans = &ctx.spans;
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", app.name());
        let program: Program = spans
            .time("lang.parser.parse", || app.program())
            .map_err(|e| err(&e))?;
        let source = TimedSource { inner: app, spans };
        let sampling = spans
            .time("core.sampling.run", || {
                run_sampling(&program, &source, &paper_scales())
            })
            .map_err(|e| err(&e))?;
        let full_storage = source.storage_at(1.0);
        let predictions = spans
            .time("core.fit.predict", || predict_lines(&sampling.lines))
            .map_err(|e| err(&e))?;
        let params = self.rt.options().params;
        let (calibration, copy_elim, estimates) = spans.time("core.estimate.lines", || {
            let calibration = Calibration::from_counters(&self.config);
            let copy_elim = eliminable_lines(&program, &sampling.dataset_types);
            let estimates = estimate_lines(
                &predictions,
                ExecTier::CompiledCopyElim,
                &params,
                &self.config,
                &calibration,
                &copy_elim,
            );
            (calibration, copy_elim, estimates)
        });
        let bw = self.config.d2h_bandwidth().as_bytes_per_sec();
        let assignment = spans.time("core.assign.refined", || {
            assign_refined(&program, &estimates, bw)
        });
        let lowered = spans
            .time("lang.lower.lower", || {
                alang::lower::lower_with(&program, &copy_elim)
            })
            .map_err(|e| err(&e))?;
        let instrs = lowered.instr_count();
        let eq1 = capture_terms(&estimates, &assignment, bw, 1);
        // The sim overheads stay zero: the private formula is not part of
        // the decomposition and the fingerprint does not cover them.
        Ok((
            OffloadPlan {
                program,
                lowered,
                sampling,
                predictions,
                calibration,
                copy_elim,
                estimates,
                assignment,
                sampling_secs: 0.0,
                compile_secs: 0.0,
                full_storage,
                timings: PlanTimings::default(),
                eq1,
            },
            instrs,
        ))
    }
}

impl Workload for PlanCold {
    const NAME: &'static str = "plan_cold";
    const DOMINANT_LAYERS: &'static [&'static str] = &["workloads.datagen", "core.sampling"];

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let apps = isp_workloads::full_set();
        let mut fingerprints = Vec::new();
        let mut lines_per_round = 0;
        for app in &apps {
            let program = app.program().map_err(|e| format!("{}: {e}", app.name()))?;
            lines_per_round += program.len();
            let plan = rt
                .plan(&program, app, &config)
                .map_err(|e| format!("{}: {e}", app.name()))?;
            fingerprints.push(plan_fingerprint(&plan));
        }
        Ok(PlanCold {
            order: Rng::new(ctx.seed, 1).permutation(apps.len()),
            config,
            rt,
            apps,
            fingerprints,
            lines_per_round,
        })
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        let mut round = Round::default();
        let traced = ctx.spans.is_on();
        // Summed in registration order below, like the panel's, so the
        // seed-drawn round order cannot move the last bit.
        let mut overhead_secs = vec![0.0; self.apps.len()];
        let mut instrs = 0usize;
        for &i in &self.order {
            let app = &self.apps[i];
            let _op = ctx.spans.enter(OP_SPAN);
            let plan = if traced {
                self.plan_decomposed(ctx, app).map(|(plan, n)| {
                    instrs += n;
                    plan
                })
            } else {
                app.program()
                    .map_err(|e| e.to_string())
                    .and_then(|program| {
                        self.rt
                            .plan(&program, app, &self.config)
                            .map_err(|e| e.to_string())
                    })
            };
            round.op(plan
                .as_ref()
                .is_ok_and(|p| plan_fingerprint(p) == self.fingerprints[i]));
            if let Ok(plan) = &plan {
                overhead_secs[i] = plan.sampling_secs + plan.compile_secs;
            }
        }
        if traced {
            round.exact.insert("lang.lower.instrs", instrs as f64);
        } else {
            round
                .exact
                .insert("sim_pipeline_overhead_s", overhead_secs.iter().sum());
        }
        round
    }

    fn layers(&mut self, ctx: &Ctx, trace: &Trace, out: &mut Values) {
        let plans = (trace.rounds * self.apps.len() as u64) as f64;
        let lines = (trace.rounds as usize * self.lines_per_round) as f64;
        let per_plan = |name: &str, scale: f64| trace.totals(name).total_secs() * scale / plans;
        out.insert(
            "lang.parser.lines_per_s",
            lines / trace.totals("lang.parser.parse").total_secs(),
        );
        out.insert(
            "lang.lower.lines_per_s",
            lines / trace.totals("lang.lower.lower").total_secs(),
        );
        let datagen = trace.totals(DATAGEN_SPAN);
        out.insert("workloads.datagen.ms_per_plan", per_plan(DATAGEN_SPAN, 1e3));
        out.insert(
            "workloads.datagen.calls_per_plan",
            datagen.count as f64 / plans,
        );
        let sampling_self = trace.totals("core.sampling.run").self_ns as f64 / 1e9;
        out.insert(
            "core.sampling.self_ms_per_plan",
            sampling_self * 1e3 / plans,
        );
        out.insert(
            "core.sampling.share",
            sampling_self / trace.totals(ROUND_SPAN).total_secs() * 100.0,
        );
        out.insert("core.fit.us_per_plan", per_plan("core.fit.predict", 1e6));
        out.insert(
            "core.fit.lines_per_s",
            lines / trace.totals("core.fit.predict").total_secs(),
        );
        out.insert(
            "core.estimate.us_per_plan",
            per_plan("core.estimate.lines", 1e6),
        );
        out.insert(
            "core.assign.us_per_plan",
            per_plan("core.assign.refined", 1e6),
        );
        self.probe_plan_cache(ctx, out);
        probe_dispatch(out);
    }
}

impl PlanCold {
    /// `core::plan` off the cold path: a cache hit, a warm-state load from
    /// disk, and a profile-guided re-plan.
    fn probe_plan_cache(&self, ctx: &Ctx, out: &mut Values) {
        let cache = PlanCache::new();
        let programs: Vec<Program> = self
            .apps
            .iter()
            .map(|app| app.program().expect("parsed in set-up"))
            .collect();
        let plan_all = |cache: &PlanCache| {
            for (app, program) in self.apps.iter().zip(&programs) {
                std::hint::black_box(
                    cache
                        .plan_for(&self.rt, app.name(), program, app, &self.config)
                        .expect("planned in set-up"),
                );
            }
        };
        plan_all(&cache);
        const HIT_LOOPS: usize = 200;
        let hits = (HIT_LOOPS * self.apps.len()) as f64;
        out.insert(
            "core.plan.cache_hit_ns",
            median_secs(5, || (0..HIT_LOOPS).for_each(|_| plan_all(&cache))) * 1e9 / hits,
        );

        let warm = ctx.out_dir.join(format!("warm.{}.bin", std::process::id()));
        if cache.save_warm(&warm).is_ok() {
            out.insert(
                "core.plan.warm_load_ms",
                median_secs(5, || {
                    std::hint::black_box(PlanCache::new().load_warm(&warm)).ok();
                }) * 1e3,
            );
        }
        std::fs::remove_file(&warm).ok();

        let replans: Vec<f64> = self
            .apps
            .iter()
            .zip(&programs)
            .map(|(app, program)| {
                let plan = cache
                    .plan_for(&self.rt, app.name(), program, app, &self.config)
                    .expect("cached");
                let run = self
                    .rt
                    .execute_plan(&plan, &self.config, ContentionScenario::none())
                    .expect("executed by the panel");
                let costs: Vec<alang::LineCost> = run.report.lines.iter().map(|l| l.cost).collect();
                let mut profile = WorkloadProfile::default();
                profile.record_run(&costs);
                median_secs(9, || {
                    std::hint::black_box(self.rt.replan(&plan, &self.config, &profile)).ok();
                })
            })
            .collect();
        out.insert(
            "core.plan.replan_us",
            replans.iter().sum::<f64>() / replans.len() as f64 * 1e6,
        );
    }
}

/// Per-line dispatch cost of the two evaluators on a 24-line scalar chain:
/// no bulk value, so the time is decode, operand reads and cost charging.
fn probe_dispatch(out: &mut Values) {
    const LINES: usize = 24;
    const RUNS: usize = 2000;
    let mut source = String::from("v0 = 1\n");
    for i in 1..LINES {
        source.push_str(&format!("v{i} = (v{} * 3 + {i}) / 2\n", i - 1));
    }
    let program = alang::parser::parse(&source).expect("the probe program parses");
    let lowered = alang::lower::lower(&program).expect("the probe program lowers");
    let storage = Storage::new();
    let per_line = |secs: f64| secs * 1e9 / (RUNS * LINES) as f64;
    out.insert(
        "lang.bytecode.ns_per_line",
        per_line(median_secs(5, || {
            for _ in 0..RUNS {
                std::hint::black_box(Vm::new(&lowered, &storage).run()).ok();
            }
        })),
    );
    out.insert(
        "lang.interp.ns_per_line",
        per_line(median_secs(5, || {
            for _ in 0..RUNS {
                std::hint::black_box(Interpreter::new(&storage).run(&program, &[])).ok();
            }
        })),
    );
}
