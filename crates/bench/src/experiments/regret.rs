//! Planner regret: Algorithm 1's placement against the fastest placement a
//! search over `simulate` finds, per registered workload, clean, at 10 %
//! CSD availability and under a phase-shifting trace, without migration;
//! one evaluation of the cached plan serves every candidate. §V says
//! ActivePy finds "exactly the same set of code regions" as an exhaustive
//! search: this grades that claim. Under the trace Alg. 1's plan also runs
//! once with the §III-D monitor, which the same search grades.

use activepy::exec::{evaluate, simulate, ExecOptions};
use activepy::runtime::ActivePy;
use activepy::{MigrationReason, PlanCache};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, EngineKind, SystemConfig};
use isp_baselines::{contiguous_placements, fastest_placement};
use serde::Serialize;

/// Programs up to this many lines are searched over all 2ⁿ placements.
const EXHAUSTIVE_LINES: usize = 12;

/// Most clean regret [`check`] accepts, ppm.
const CLEAN_REGRET_BAND_PPM: i64 = 100;

/// Residual CSE availability while the phase trace's competing tenants run.
const BURST_FRACTION: f64 = 0.05;

/// The burst arrives when the clean Alg. 1 run has completed this fraction
/// of its CSD-resident work…
const DROP_AT_CSD_PROGRESS: f64 = 0.2;

/// …and the tenants leave at this CSD-progress time of the clean run. The
/// window must be long relative to the monitor's detection latency (one
/// region chunk, stretched by the burst itself): a static plan crawls
/// through most of it, while the monitored run migrates host-ward early,
/// slows down, and at the recovery instant still holds CSD-profitable work
/// to reclaim.
const RECOVER_AT_CSD_PROGRESS: f64 = 0.9;

/// One availability cell of a workload.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Alg. 1's placement, simulated end-to-end seconds.
    pub alg1_secs: f64,
    /// The fastest candidate's seconds.
    pub best_secs: f64,
    /// `(alg1_secs / best_secs − 1) · 10⁶`, rounded.
    pub regret_ppm: i64,
    /// Lines the fastest candidate offloads.
    pub best_lines: Vec<usize>,
}

/// One workload's regret, clean, contended and under the phase trace.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Lines Alg. 1 offloads.
    pub alg1_lines: Vec<usize>,
    /// Placements simulated per cell.
    pub candidates: usize,
    /// 100 % CSD availability.
    pub clean: Cell,
    /// 10 % CSD availability.
    pub contended: Cell,
    /// Availability drops to `BURST_FRACTION` at `DROP_AT_CSD_PROGRESS` of
    /// the clean Alg. 1 run's CSD work and recovers at
    /// `RECOVER_AT_CSD_PROGRESS`.
    pub phase: Cell,
    /// Alg. 1's placement with the monitor under the phase trace, seconds.
    pub monitored_secs: f64,
    /// The monitored run's host-ward [`MigrationReason::Degraded`] migrations.
    pub degraded_migrations: u64,
    /// The monitored run's device-ward [`MigrationReason::Reclaim`] migrations.
    pub reclaim_migrations: u64,
    /// Whether the monitored run's `values_fingerprint` is the clean run's.
    pub values_match: bool,
}

/// Every placement of a program of at most [`EXHAUSTIVE_LINES`] lines;
/// above that, the empty plan, every contiguous range, Alg. 1's plan
/// `alg1` and `alg1` with each line toggled.
fn candidates(alg1: &[EngineKind]) -> Vec<Vec<EngineKind>> {
    let n = alg1.len();
    if n <= EXHAUSTIVE_LINES {
        let engine = |bit| [EngineKind::Host, EngineKind::Cse][bit & 1];
        return (0..1usize << n)
            .map(|bits| (0..n).map(|k| engine(bits >> k)).collect())
            .collect();
    }
    let mut out = contiguous_placements(n);
    out.push(alg1.to_vec());
    for k in 0..n {
        let mut toggled = alg1.to_vec();
        toggled[k] = alg1[k].other();
        out.push(toggled);
    }
    out
}

/// Runs the search over the twelve registered workloads, each from its
/// plan in `cache`.
///
/// # Panics
///
/// Panics if a registered workload fails to plan, evaluate or simulate.
#[must_use]
pub fn run(config: &SystemConfig, cache: &PlanCache) -> Vec<Row> {
    crate::sweep::run_grid(isp_workloads::full_set(), |w| {
        let program = w.program().expect("registered workloads parse");
        let plan = cache
            .plan_for(&ActivePy::new(), w.name(), &program, &w, config)
            .expect("planning succeeds");
        let clean = ExecOptions::activepy().without_migration();
        let evaluation = evaluate(&plan.program, &plan.lowered, &plan.full_storage, &clean)
            .expect("plan evaluates");
        let alg1 = plan.assignment.placements(plan.program.len());
        let candidates = candidates(&alg1);
        let simulate_alg1 = |opts: &ExecOptions, estimates| {
            let (program, mut system) = (&plan.program, config.build());
            simulate(
                program,
                &evaluation,
                &alg1,
                &mut system,
                opts,
                estimates,
                None,
            )
            .expect("Alg. 1's placement simulates")
        };
        let cell = |opts: &ExecOptions, alg1_secs: f64| {
            let (best, best_secs) =
                fastest_placement(&plan.program, &evaluation, &candidates, config, opts)
                    .expect("placements simulate");
            Cell {
                alg1_secs,
                best_secs,
                regret_ppm: ((alg1_secs / best_secs - 1.0) * 1e6).round() as i64,
                best_lines: (0..alg1.len())
                    .filter(|&k| candidates[best][k] == EngineKind::Cse)
                    .collect(),
            }
        };
        let reference = simulate_alg1(&clean, None);
        let at = |fraction| SimTime::from_secs(reference.time_at_csd_progress(fraction));
        let trace = ContentionScenario::at_time(at(DROP_AT_CSD_PROGRESS), BURST_FRACTION)
            .with_recovery_at(at(RECOVER_AT_CSD_PROGRESS));
        let contended = clean
            .clone()
            .with_scenario(ContentionScenario::constant(0.1));
        let phase = clean.clone().with_scenario(trace);
        let monitored = simulate_alg1(
            &ExecOptions::activepy().with_scenario(trace),
            Some(&plan.estimates),
        );
        let migrations = |reason| {
            let moves = monitored.migrations.iter();
            moves.filter(|m| m.reason == reason).count() as u64
        };
        Row {
            name: w.name().to_owned(),
            alg1_lines: plan.assignment.csd_lines.iter().copied().collect(),
            candidates: candidates.len(),
            clean: cell(&clean, reference.total_secs),
            contended: cell(&contended, simulate_alg1(&contended, None).total_secs),
            phase: cell(&phase, simulate_alg1(&phase, None).total_secs),
            monitored_secs: monitored.total_secs,
            degraded_migrations: migrations(MigrationReason::Degraded),
            reclaim_migrations: migrations(MigrationReason::Reclaim),
            values_match: monitored.values_fingerprint == reference.values_fingerprint,
        }
    })
}

/// Every regret is non-negative (the search covers Alg. 1's own plan),
/// every clean regret is at most `CLEAN_REGRET_BAND_PPM` (100 ppm), and
/// under the phase trace the monitored runs keep the clean answer, take
/// less time in sum than Alg. 1's static plan, and migrate both ways.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        let cells = [
            ("clean", &r.clean),
            ("contended", &r.contended),
            ("phase", &r.phase),
        ];
        for (label, cell) in cells {
            if cell.regret_ppm < 0 {
                let ppm = cell.regret_ppm;
                return Err(format!("{}: {label} regret {ppm}ppm < 0", r.name));
            }
        }
        if r.clean.regret_ppm > CLEAN_REGRET_BAND_PPM {
            return Err(format!(
                "{}: clean regret {}ppm beyond the {CLEAN_REGRET_BAND_PPM}ppm band",
                r.name, r.clean.regret_ppm
            ));
        }
        if !r.values_match {
            return Err(format!("{}: the monitored run changed the answer", r.name));
        }
    }
    let (monitored, alg1) = phase_totals(rows);
    if monitored >= alg1 {
        return Err(format!(
            "phase: Σ monitored {monitored:.3}s ≥ Σ static {alg1:.3}s"
        ));
    }
    if rows.iter().all(|r| r.reclaim_migrations == 0) {
        return Err("phase: no monitored run reclaimed work to the CSD".to_owned());
    }
    if rows.iter().all(|r| r.degraded_migrations == 0) {
        return Err("phase: no monitored run migrated off the CSD".to_owned());
    }
    Ok(())
}

/// Σ monitored seconds and Σ Alg. 1's static seconds under the phase trace.
fn phase_totals(rows: &[Row]) -> (f64, f64) {
    let monitored = rows.iter().map(|r| r.monitored_secs).sum();
    (monitored, rows.iter().map(|r| r.phase.alg1_secs).sum())
}

/// Prints one row per workload: Alg. 1's and the best seconds and the
/// regret, clean, contended then under the phase trace, the monitored
/// run's seconds and migrations, and the clean winner's lines.
pub fn print(rows: &[Row]) {
    println!("== Planner regret: Alg. 1 vs search over simulate, clean | 10% CSD | phase trace ==");
    let cell = |c: &Cell| {
        let (alg1, best, regret) = (c.alg1_secs, c.best_secs, c.regret_ppm);
        format!("{alg1:>7.4}s {best:>7.4}s {regret:>7}ppm")
    };
    for r in rows {
        let (clean, contended, phase) = (cell(&r.clean), cell(&r.contended), cell(&r.phase));
        let (name, n, best) = (&r.name, r.candidates, &r.clean.best_lines);
        let (degr, recl) = (r.degraded_migrations, r.reclaim_migrations);
        let moves = format!("monitor {:>7.4}s {degr}d {recl}r", r.monitored_secs);
        println!("{name:<12} {n:>4} cands {clean} | {contended} | {phase} {moves}  best {best:?}");
    }
    let worst = rows.iter().map(|r| r.clean.regret_ppm).max().unwrap_or(0);
    println!("worst clean regret {worst}ppm (band {CLEAN_REGRET_BAND_PPM}ppm)");
    let (monitored, alg1) = phase_totals(rows);
    let degraded: u64 = rows.iter().map(|r| r.degraded_migrations).sum();
    let reclaims: u64 = rows.iter().map(|r| r.reclaim_migrations).sum();
    let divergences = rows.iter().filter(|r| !r.values_match).count();
    println!(
        "phase trace (to {BURST_FRACTION} from {DROP_AT_CSD_PROGRESS} to \
         {RECOVER_AT_CSD_PROGRESS} CSD progress): Σ static {alg1:.2}s, Σ monitored \
         {monitored:.2}s | {degraded} degraded, {reclaims} reclaim migrations | \
         {divergences} divergences"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(clean_ppm: i64, contended_ppm: i64) -> Row {
        let cell = |regret_ppm| Cell {
            alg1_secs: 1.0,
            best_secs: 1.0,
            regret_ppm,
            best_lines: vec![],
        };
        Row {
            name: "stub".to_owned(),
            alg1_lines: vec![],
            candidates: 1,
            clean: cell(clean_ppm),
            contended: cell(contended_ppm),
            phase: cell(0),
            monitored_secs: 0.5,
            degraded_migrations: 1,
            reclaim_migrations: 1,
            values_match: true,
        }
    }

    #[test]
    fn check_bounds_clean_regret_and_refuses_a_negative_one() {
        assert_eq!(check(&[row(0, 0), row(100, 900_000)]), Ok(()));
        let err = |rows: &[Row]| check(rows).unwrap_err();
        let band = "stub: clean regret 101ppm beyond the 100ppm band";
        assert_eq!(err(&[row(0, 0), row(101, 0)]), band);
        assert_eq!(err(&[row(0, -1)]), "stub: contended regret -1ppm < 0");
        assert_eq!(err(&[row(-1, 0)]), "stub: clean regret -1ppm < 0");
        let phase = |edit: fn(&mut Row)| {
            let mut stub = row(0, 0);
            edit(&mut stub);
            err(&[stub])
        };
        let negative = "stub: phase regret -1ppm < 0";
        assert_eq!(phase(|r| r.phase.regret_ppm = -1), negative);
        let diverged = "stub: the monitored run changed the answer";
        assert_eq!(phase(|r| r.values_match = false), diverged);
        let slower = "phase: Σ monitored 1.000s ≥ Σ static 1.000s";
        assert_eq!(phase(|r| r.monitored_secs = 1.0), slower);
        let no_reclaim = "phase: no monitored run reclaimed work to the CSD";
        assert_eq!(phase(|r| r.reclaim_migrations = 0), no_reclaim);
        let no_degraded = "phase: no monitored run migrated off the CSD";
        assert_eq!(phase(|r| r.degraded_migrations = 0), no_degraded);
    }

    #[test]
    fn short_programs_search_every_placement_and_long_ones_ranges_and_toggles() {
        let every: std::collections::HashSet<_> =
            candidates(&[EngineKind::Host; 3]).into_iter().collect();
        assert_eq!(every.len(), 8);
        let n = EXHAUSTIVE_LINES + 2;
        let mut alg1 = vec![EngineKind::Host; n];
        alg1[1] = EngineKind::Cse;
        let bounded = candidates(&alg1);
        assert_eq!(bounded.len(), n * (n + 1) / 2 + 1 + 1 + n);
        assert!(bounded.contains(&alg1), "Alg. 1's own plan is a candidate");
    }
}
