//! Planner regret: Algorithm 1's placement against the fastest placement a
//! search over `simulate` finds, per registered workload, clean and at 10 %
//! CSD availability, without migration; one evaluation of the cached plan
//! serves every candidate. §V says ActivePy finds "exactly the same set of
//! code regions" as an exhaustive search: this grades that claim.

use activepy::exec::{evaluate, ExecOptions};
use activepy::runtime::ActivePy;
use activepy::PlanCache;
use csd_sim::{ContentionScenario, EngineKind, SystemConfig};
use isp_baselines::{contiguous_placements, fastest_placement};
use serde::Serialize;

/// Programs up to this many lines are searched over all 2ⁿ placements.
const EXHAUSTIVE_LINES: usize = 12;

/// Most clean regret [`check`] accepts, ppm.
const CLEAN_REGRET_BAND_PPM: i64 = 100;

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

/// One workload's regret, clean and contended.
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
        let cell = |opts: &ExecOptions| {
            let fastest = |set: &[Vec<EngineKind>]| {
                fastest_placement(&plan.program, &evaluation, set, config, opts)
                    .expect("placements simulate")
            };
            let (_, alg1_secs) = fastest(std::slice::from_ref(&alg1));
            let (best, best_secs) = fastest(&candidates);
            Cell {
                alg1_secs,
                best_secs,
                regret_ppm: ((alg1_secs / best_secs - 1.0) * 1e6).round() as i64,
                best_lines: (0..alg1.len())
                    .filter(|&k| candidates[best][k] == EngineKind::Cse)
                    .collect(),
            }
        };
        Row {
            name: w.name().to_owned(),
            alg1_lines: plan.assignment.csd_lines.iter().copied().collect(),
            candidates: candidates.len(),
            clean: cell(&clean),
            contended: cell(&clean.with_scenario(ContentionScenario::constant(0.1))),
        }
    })
}

/// Every regret is non-negative (the search covers Alg. 1's own plan) and
/// every clean regret is at most `CLEAN_REGRET_BAND_PPM` (100 ppm).
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        for (label, cell) in [("clean", &r.clean), ("contended", &r.contended)] {
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
    }
    Ok(())
}

/// Prints one row per workload: Alg. 1's and the best seconds and the
/// regret, clean then contended, and the clean winner's lines.
pub fn print(rows: &[Row]) {
    println!("== Planner regret: Alg. 1 vs search over simulate, clean | 10% CSD ==");
    let cell = |c: &Cell| {
        let (alg1, best, regret) = (c.alg1_secs, c.best_secs, c.regret_ppm);
        format!("{alg1:>7.4}s {best:>7.4}s {regret:>7}ppm")
    };
    for r in rows {
        let (clean, contended) = (cell(&r.clean), cell(&r.contended));
        let (name, n, best) = (&r.name, r.candidates, &r.clean.best_lines);
        println!("{name:<12} {n:>4} cands {clean} | {contended}  best {best:?}");
    }
    let worst = rows.iter().map(|r| r.clean.regret_ppm).max().unwrap_or(0);
    println!("worst clean regret {worst}ppm (band {CLEAN_REGRET_BAND_PPM}ppm)");
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
