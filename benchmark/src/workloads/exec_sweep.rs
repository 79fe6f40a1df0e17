//! `exec_sweep`: every way the repo executes a prepared plan, on the
//! registered 4096-row inputs. `core::exec`, `csd_sim` and the monitor do
//! nearly all the work; planning and datagen happen once, in set-up.

use crate::catalogue::Values;
use crate::driver::{Ctx, Round, Trace, Workload, OP_SPAN};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{self, median_secs};
use activepy::exec::MigrationReason;
use activepy::runtime::ActivePy;
use activepy::{execute_sharded_plan, OffloadPlan, PlanCache, RunReport, ShardedPlan};
use alang::shard::{ShardMap, ShardStrategy};
use alang::Vm;
use csd_sim::dma::Direction;
use csd_sim::units::{Bytes, Ops};
use csd_sim::{ContentionScenario, EngineKind, SystemConfig};
use isp_baselines::{run_c_baseline, run_plan};
use isp_workloads::Workload as App;
use std::sync::Arc;

/// The workloads `fleet4` shards: the rowwise-prefix set of the shard sweep.
const FLEET_APPS: [&str; 4] = ["blackscholes", "TPC-H-6", "MatrixMul", "LightGBM"];
const FLEET_SHARDS: usize = 4;
/// The paper's Fig. 4 geomean speedup, the only reference the model has.
const PAPER_FIG4_SPEEDUP: f64 = 1.34;

/// One registered program, planned once.
pub struct Planned {
    pub app: App,
    pub plan: Arc<OffloadPlan>,
    /// C-baseline seconds (sim), for the nine Table-I programs.
    pub c_base_secs: Option<f64>,
    /// The one answer every execution of this plan must reproduce.
    pub fingerprint: u64,
    static_plan: isp_baselines::OffloadPlan,
    fleet: Option<Arc<ShardedPlan>>,
}

/// The 12 plans of `isp_workloads::full_set()` behind one `PlanCache`,
/// shared by `exec_sweep`, `durable_exec` and the sim panel.
pub struct PlanSet {
    pub config: SystemConfig,
    pub rt: ActivePy,
    pub planned: Vec<Planned>,
    /// Seed-drawn program order inside a round.
    pub order: Vec<usize>,
    /// CSE availability drops to a tenth once the ISP task has made a
    /// seed-drawn 30–70 % of its progress (Fig. 5's cell).
    pub drop: ContentionScenario,
}

/// A hand-placed offload of the middle third of the program — one of the
/// contiguous ranges the programmer-directed search simulates.
fn mid_range_plan(lines: usize) -> isp_baselines::OffloadPlan {
    let (from, to) = (lines / 3, (2 * lines / 3).max(lines / 3));
    isp_baselines::OffloadPlan {
        placements: (0..lines)
            .map(|k| {
                if (from..=to).contains(&k) {
                    EngineKind::Cse
                } else {
                    EngineKind::Host
                }
            })
            .collect(),
        range: Some((from, to)),
        optimized_secs: 0.0,
    }
}

impl PlanSet {
    pub fn build(seed: u64, spans: &Spans) -> Result<Self, String> {
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let table1: Vec<String> = isp_workloads::table1()
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        let mut planned = Vec::new();
        for app in isp_workloads::full_set() {
            let program = app.program().map_err(|e| format!("{}: {e}", app.name()))?;
            let plan = cache
                .plan_for(&rt, app.name(), &program, &app, &config)
                .map_err(|e| format!("{}: {e}", app.name()))?;
            let c_base_secs = if table1.iter().any(|n| n == app.name()) {
                let report = spans
                    .time("baselines.c_baseline", || run_c_baseline(&app, &config))
                    .map_err(|e| format!("{}: {e}", app.name()))?;
                Some(report.total_secs)
            } else {
                None
            };
            let fleet = if FLEET_APPS.contains(&app.name()) {
                let map = ShardMap::auto(&plan.full_storage, FLEET_SHARDS, ShardStrategy::Range);
                Some(
                    cache
                        .sharded_plan_for(&rt, app.name(), &program, &app, &config, &map)
                        .map_err(|e| format!("{}: {e}", app.name()))?,
                )
            } else {
                None
            };
            let fingerprint = rt
                .execute_plan(&plan, &config, ContentionScenario::none())
                .map_err(|e| format!("{}: {e}", app.name()))?
                .report
                .values_fingerprint;
            planned.push(Planned {
                static_plan: mid_range_plan(program.len()),
                app,
                plan,
                c_base_secs,
                fingerprint,
                fleet,
            });
        }
        let order = Rng::new(seed, 1).permutation(planned.len());
        let progress = 0.3 + 0.4 * Rng::new(seed, 2).unit();
        Ok(PlanSet {
            config,
            rt,
            planned,
            order,
            drop: ContentionScenario::after_progress(progress, 0.1),
        })
    }

    pub fn clean(&self, p: &Planned) -> Result<RunReport, String> {
        self.rt
            .execute_plan(&p.plan, &self.config, ContentionScenario::none())
            .map(|o| o.report)
            .map_err(|e| e.to_string())
    }

    pub fn dropped(&self, p: &Planned) -> Result<RunReport, String> {
        self.rt
            .execute_plan(&p.plan, &self.config, self.drop)
            .map(|o| o.report)
            .map_err(|e| e.to_string())
    }
}

/// Folds per-plan sim seconds into the geomean speedup over the C
/// baseline (Table-I programs only).
pub fn sim_speedup(planned: &[Planned], secs: &[f64]) -> f64 {
    let ratios: Vec<f64> = planned
        .iter()
        .zip(secs)
        .filter_map(|(p, s)| p.c_base_secs.map(|base| base / s))
        .collect();
    stats::geomean(&ratios)
}

/// Mean over programs of the clean calibration error, in ppm, rounded the
/// way `repro --audit` prints it.
pub fn eq1_err_ppm(per_program_ppm: &[u64]) -> f64 {
    (per_program_ppm.iter().sum::<u64>() / per_program_ppm.len().max(1) as u64) as f64
}

pub fn ppm(report: &activepy::CalibrationReport) -> u64 {
    (report.mean_abs_rel_err() * 1e6).round() as u64
}

pub struct ExecSweep {
    set: PlanSet,
}

/// Each cell's span and the metric its mean duration is reported as.
const CELLS: [(&str, &str); 4] = [
    (
        "core.exec.activepy_clean",
        "core.exec.ms_per_cell.activepy_clean",
    ),
    (
        "core.exec.activepy_drop",
        "core.exec.ms_per_cell.activepy_drop",
    ),
    ("core.exec.static_c", "core.exec.ms_per_cell.static_c"),
    ("core.exec.fleet4", "core.exec.ms_per_cell.fleet4"),
];

impl Workload for ExecSweep {
    const NAME: &'static str = "exec_sweep";
    const DOMINANT_LAYERS: &'static [&'static str] = &["core.exec"];

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        Ok(ExecSweep {
            set: PlanSet::build(ctx.seed, &ctx.spans)?,
        })
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        let set = &self.set;
        let spans = &ctx.spans;
        let mut round = Round::default();
        let n = set.planned.len();
        let (mut clean_secs, mut drop_secs) = (vec![0.0; n], vec![0.0; n]);
        let mut err_ppm = vec![0u64; n];
        let (mut migrations, mut reclaims, mut sim_lines) = (0u64, 0u64, 0u64);
        let (mut audited, mut flips) = (0u64, 0u64);
        let mut tally = |report: &RunReport| {
            migrations += report.migrations.len() as u64;
            reclaims += report
                .migrations
                .iter()
                .filter(|m| m.reason == MigrationReason::Reclaim)
                .count() as u64;
            sim_lines += report.lines.len() as u64;
        };
        for &i in &set.order {
            let p = &set.planned[i];
            let _op = spans.enter(OP_SPAN);

            let clean = spans.time(CELLS[0].0, || set.clean(p));
            round.op(clean
                .as_ref()
                .is_ok_and(|r| r.values_fingerprint == p.fingerprint));
            if let Ok(report) = &clean {
                tally(report);
                clean_secs[i] = report.total_secs;
                let audit = spans.time("core.audit.calibrate", || {
                    activepy::calibrate(p.app.name(), &p.plan, report, None)
                });
                err_ppm[i] = ppm(&audit);
                audited += audit.lines.len() as u64;
                flips += audit.flips.len() as u64;
            }

            let dropped = spans.time(CELLS[1].0, || set.dropped(p));
            round.op(dropped
                .as_ref()
                .is_ok_and(|r| r.values_fingerprint == p.fingerprint));
            if let Ok(report) = &dropped {
                tally(report);
                drop_secs[i] = report.total_secs;
            }

            let fixed = spans.time(CELLS[2].0, || {
                run_plan(
                    &p.app,
                    &set.config,
                    &p.static_plan,
                    ContentionScenario::constant(0.5),
                )
            });
            round.op(fixed
                .as_ref()
                .is_ok_and(|r| r.values_fingerprint == p.fingerprint));
            if let Ok(report) = &fixed {
                tally(report);
            }

            if let Some(fleet) = &p.fleet {
                let report = spans.time(CELLS[3].0, || {
                    execute_sharded_plan(
                        &set.rt,
                        fleet,
                        &set.config,
                        ContentionScenario::none(),
                        &[],
                    )
                });
                round.op(report
                    .as_ref()
                    .is_ok_and(|r| r.values_fingerprint == p.fingerprint));
                if let Ok(report) = &report {
                    for shard in &report.shards {
                        tally(&shard.report);
                    }
                    tally(&report.tail);
                }
            }
        }
        let speedup_clean = sim_speedup(&set.planned, &clean_secs);
        round.exact = Values::from([
            ("sim_speedup_clean", speedup_clean),
            ("sim_speedup_drop", sim_speedup(&set.planned, &drop_secs)),
            ("eq1_err_ppm", eq1_err_ppm(&err_ppm)),
            ("core.exec.migrations", migrations as f64),
            ("core.exec.reclaims", reclaims as f64),
            ("core.exec.sim_lines", sim_lines as f64),
            ("core.audit.lines_audited", audited as f64),
            ("core.audit.flips", flips as f64),
            (
                "paper.fig4_gap_pct",
                (speedup_clean - PAPER_FIG4_SPEEDUP).abs() / PAPER_FIG4_SPEEDUP * 100.0,
            ),
        ]);
        round
    }

    fn layers(&mut self, _ctx: &Ctx, trace: &Trace, out: &mut Values) {
        let set = &self.set;
        let mut cell_secs = 0.0;
        for (span, metric) in CELLS {
            let t = trace.totals(span);
            cell_secs += t.total_secs();
            out.insert(metric, t.total_secs() * 1e3 / t.count.max(1) as f64);
        }
        out.insert(
            "core.exec.sim_lines_per_s",
            trace.exact["core.exec.sim_lines"] * trace.rounds as f64 / cell_secs,
        );
        let audit = trace.totals("core.audit.calibrate");
        out.insert(
            "core.audit.calibrate_us",
            audit.total_secs() * 1e6 / audit.count.max(1) as f64,
        );
        let base = trace
            .setup
            .get("baselines.c_baseline")
            .copied()
            .unwrap_or_default();
        out.insert(
            "baselines.c_baseline_ms",
            base.total_secs() * 1e3 / base.count.max(1) as f64,
        );

        // What the executor adds on top of evaluating the program: the
        // clean cell against the bare VM on the same lowered program and
        // the same storage, per plan, medians of repeated runs.
        let ratios: Vec<f64> = set
            .planned
            .iter()
            .map(|p| {
                let cell = median_secs(9, || {
                    std::hint::black_box(set.clean(p)).ok();
                });
                let bare = median_secs(9, || {
                    std::hint::black_box(Vm::new(&p.plan.lowered, &p.plan.full_storage).run()).ok();
                });
                cell / bare
            })
            .collect();
        out.insert("core.exec.vm_ratio", stats::geomean(&ratios));

        out.insert(
            "csd-sim.system.build_us",
            median_secs(101, || {
                std::hint::black_box(set.config.build());
            }) * 1e6,
        );
        // A fixed loop over the three calls the executor makes per line.
        const CALLS: u64 = 30_000;
        let secs = median_secs(9, || {
            let mut system = set.config.build();
            for _ in 0..CALLS / 3 {
                std::hint::black_box(system.compute(EngineKind::Cse, Ops::new(1_000_000)));
                std::hint::black_box(system.storage_read(EngineKind::Cse, Bytes::new(1 << 20)));
                std::hint::black_box(system.transfer(Direction::DeviceToHost, Bytes::new(1 << 20)));
            }
        });
        out.insert("csd-sim.system.calls_per_s", CALLS as f64 / secs);
    }
}
