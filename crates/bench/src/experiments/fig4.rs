//! Figure 4: ActivePy (no programmer hints) versus the optimal
//! programmer-directed C-based ISP configuration, both normalized to the
//! no-CSD C baseline, with the CSD fully dedicated to the application.
//!
//! Paper result: 1.34× (ActivePy) vs 1.33× (programmer-directed) on
//! average — ActivePy "successfully identified *exactly* the same set of
//! code regions", with ≈1 % sampling/code-generation overhead.

use super::Band;
use crate::geomean;
use activepy::runtime::ActivePy;
use activepy::PlanCache;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::{best_static_plan, run_c_baseline, run_plan};
use serde::Serialize;
use std::collections::BTreeSet;

/// Sampling + code-generation overhead over the ActivePy run.
const OVERHEAD: Band = Band {
    what: "overhead share of the ActivePy run",
    paper: "≈ 1 % (≈ 0.1 s)",
    lo: 0.0,
    hi: 0.08,
};

/// The programmer-directed speedup on each workload: the hand-tuned plan
/// never loses to the no-CSD baseline.
const PD_SPEEDUP: Band = Band {
    what: "programmer-directed speedup",
    paper: "no workload slower than the C baseline",
    lo: 0.99,
    hi: f64::INFINITY,
};

/// ActivePy's speedup on each workload: never more than 5 % behind the
/// no-CSD baseline.
const ACTIVEPY_SPEEDUP: Band = Band {
    what: "ActivePy speedup",
    paper: "no workload more than 5 % slower than the C baseline",
    lo: 0.95,
    hi: f64::INFINITY,
};

/// Geomean speedup of the programmer-directed plans.
const PD_GEOMEAN: Band = Band {
    what: "programmer-directed geomean",
    paper: "1.33×",
    lo: 1.23,
    hi: 1.43,
};

/// Geomean speedup of ActivePy.
const ACTIVEPY_GEOMEAN: Band = Band {
    what: "ActivePy geomean",
    paper: "1.34×",
    lo: 1.24,
    hi: 1.44,
};

/// How far `activepy_secs − overhead_secs` may sit from `pd_secs`, in
/// seconds: ActivePy's whole gap to the hand-tuned plan is its overhead.
const IDENTITY_SECS: f64 = 1e-4;

/// One workload's comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// No-CSD C baseline, seconds.
    pub baseline_secs: f64,
    /// Programmer-directed ISP, seconds.
    pub pd_secs: f64,
    /// ActivePy end-to-end (including sampling + codegen), seconds.
    pub activepy_secs: f64,
    /// Programmer-directed speedup.
    pub pd_speedup: f64,
    /// ActivePy speedup.
    pub activepy_speedup: f64,
    /// Lines the programmer-directed search offloaded.
    pub pd_lines: Vec<usize>,
    /// Lines ActivePy offloaded.
    pub activepy_lines: Vec<usize>,
    /// Sampling + code-generation overhead, seconds.
    pub overhead_secs: f64,
}

/// How ActivePy's offloaded lines relate to the programmer-directed ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regions {
    /// The same set.
    Identical,
    /// ActivePy offloads every programmer-directed line and more.
    Superset,
    /// The programmer-directed set contains ActivePy's.
    Subset,
    /// Neither set contains the other.
    Differ,
}

impl Regions {
    /// The label `print` shows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Identical => "match",
            Self::Superset => "superset",
            Self::Subset => "subset",
            Self::Differ => "DIFFER",
        }
    }
}

impl Row {
    /// How the two offloaded sets relate.
    #[must_use]
    pub fn regions(&self) -> Regions {
        let pd: BTreeSet<_> = self.pd_lines.iter().collect();
        let ap: BTreeSet<_> = self.activepy_lines.iter().collect();
        if pd == ap {
            Regions::Identical
        } else if pd.is_subset(&ap) {
            Regions::Superset
        } else if ap.is_subset(&pd) {
            Regions::Subset
        } else {
            Regions::Differ
        }
    }

    /// Whether one region choice contains the other. That any extra lines
    /// cost nothing is [`check`]'s identity, not this.
    #[must_use]
    pub fn regions_agree(&self) -> bool {
        self.regions() != Regions::Differ
    }
}

/// Runs the comparison over the nine Table-I workloads, planning through
/// `cache`; the workload grid fans out over [`crate::sweep::run_grid`].
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run(config: &SystemConfig, cache: &PlanCache) -> Vec<Row> {
    crate::sweep::run_grid(isp_workloads::table1(), |w| {
        let baseline = run_c_baseline(&w, config)
            .expect("baseline runs")
            .total_secs;
        let static_plan = best_static_plan(&w, config).expect("plan search succeeds");
        let pd = run_plan(&w, config, &static_plan, ContentionScenario::none())
            .expect("plan re-runs")
            .total_secs;
        let program = w.program().expect("registered workloads parse");
        let rt = ActivePy::new();
        let plan = cache
            .plan_for(&rt, w.name(), &program, &w, config)
            .expect("planning succeeds");
        let ap = rt
            .execute_plan(&plan, config, ContentionScenario::none())
            .expect("ActivePy pipeline runs")
            .report
            .total_secs;
        Row {
            name: w.name().to_owned(),
            baseline_secs: baseline,
            pd_secs: pd,
            activepy_secs: ap,
            pd_speedup: baseline / pd,
            activepy_speedup: baseline / ap,
            pd_lines: static_plan.csd_lines(),
            activepy_lines: plan.assignment.csd_lines.iter().copied().collect(),
            overhead_secs: plan.sampling_secs + plan.compile_secs,
        }
    })
}

/// Prints the comparison in the figure's layout.
pub fn print(rows: &[Row]) {
    println!("== Fig 4: ActivePy vs programmer-directed ISP (100% CSD) ==");
    println!(
        "{:<14} {:>8} {:>8} {:>7} {:>8} {:>7} {:>9} {:>8}",
        "workload", "C-base", "PD-isp", "PDx", "ActivePy", "APx", "overhead", "regions"
    );
    for r in rows {
        println!(
            "{:<14} {:>7.2}s {:>7.2}s {:>6.2}x {:>7.2}s {:>6.2}x {:>8.3}s {:>8}",
            r.name,
            r.baseline_secs,
            r.pd_secs,
            r.pd_speedup,
            r.activepy_secs,
            r.activepy_speedup,
            r.overhead_secs,
            r.regions().label(),
        );
    }
    let pd: Vec<f64> = rows.iter().map(|r| r.pd_speedup).collect();
    let ap: Vec<f64> = rows.iter().map(|r| r.activepy_speedup).collect();
    println!(
        "geomean speedup: programmer-directed {:.2}x (paper 1.33x), ActivePy {:.2}x (paper 1.34x)",
        geomean(&pd),
        geomean(&ap)
    );
}

/// Fig. 4's claims: on every row the region choices nest, ActivePy's
/// time less its overhead is the programmer-directed time within
/// `IDENTITY_SECS`, the overhead sits inside `OVERHEAD` and the speedups
/// inside `PD_SPEEDUP` and `ACTIVEPY_SPEEDUP`; both geomeans sit inside their bands around
/// the paper's.
///
/// # Errors
///
/// Names the first workload or geomean that fails.
pub fn check(rows: &[Row]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("no rows".to_owned());
    }
    for r in rows {
        let named = |e: String| format!("{}: {e}", r.name);
        if !r.regions_agree() {
            return Err(named(format!(
                "regions {:?} and programmer-directed {:?} do not nest",
                r.activepy_lines, r.pd_lines
            )));
        }
        let gap = r.activepy_secs - r.overhead_secs - r.pd_secs;
        if gap.abs() > IDENTITY_SECS {
            return Err(named(format!(
                "ActivePy less overhead is {gap:+.6}s off programmer-directed \
                 (tolerance {IDENTITY_SECS}s)"
            )));
        }
        OVERHEAD
            .check(r.overhead_secs / r.activepy_secs)
            .map_err(named)?;
        PD_SPEEDUP.check(r.pd_speedup).map_err(named)?;
        ACTIVEPY_SPEEDUP.check(r.activepy_speedup).map_err(named)?;
    }
    PD_GEOMEAN.check(geomean(
        &rows.iter().map(|r| r.pd_speedup).collect::<Vec<_>>(),
    ))?;
    ACTIVEPY_GEOMEAN.check(geomean(
        &rows.iter().map(|r| r.activepy_speedup).collect::<Vec<_>>(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fails_naming;

    #[test]
    fn activepy_matches_programmer_directed() {
        let rows = run(&SystemConfig::paper_default(), &PlanCache::new());
        assert_eq!(rows.len(), 9);
        assert_eq!(check(&rows), Ok(()));
        let supersets: Vec<&str> = rows
            .iter()
            .filter(|r| r.regions() == Regions::Superset)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(supersets, ["KMeans", "MixedGEMM", "TPC-H-14"]);
        let identical = rows.iter().filter(|r| r.regions() == Regions::Identical);
        assert_eq!(identical.count(), 6);
    }

    /// A paper-shaped row: 2 s baseline, 1.5 s hand-tuned, ActivePy 4 %
    /// behind on 0.06 s of overhead, offloading one line more.
    fn row(name: &str) -> Row {
        Row {
            name: name.to_owned(),
            baseline_secs: 2.0,
            pd_secs: 1.5,
            activepy_secs: 1.56,
            pd_speedup: 2.0 / 1.5,
            activepy_speedup: 2.0 / 1.56,
            pd_lines: vec![0, 1],
            activepy_lines: vec![0, 1, 2],
            overhead_secs: 0.06,
        }
    }

    fn edited(edit: impl FnOnce(&mut Row)) -> Result<(), String> {
        let mut r = row("B");
        edit(&mut r);
        check(&[row("A"), r])
    }

    #[test]
    fn check_fails_a_row_outside_each_claim() {
        assert_eq!(check(&[row("A"), row("B")]), Ok(()));
        assert_eq!(row("A").regions(), Regions::Superset);
        fails_naming(
            edited(|r| r.activepy_lines = vec![0, 2]),
            "B: regions [0, 2] and programmer-directed [0, 1] do not nest",
        );
        fails_naming(
            edited(|r| r.activepy_secs += 2e-4),
            "B: ActivePy less overhead is +0.000200s off",
        );
        fails_naming(
            edited(|r| {
                r.overhead_secs = 0.15;
                r.activepy_secs = 1.65;
            }),
            "B: overhead share of the ActivePy run",
        );
        fails_naming(
            edited(|r| r.pd_speedup = 0.98),
            "B: programmer-directed speedup 0.9800",
        );
        fails_naming(
            edited(|r| r.activepy_speedup = 0.9),
            "B: ActivePy speedup 0.9000",
        );
        let geomeans = |pd: f64, ap: f64| {
            check(&[Row {
                pd_speedup: pd,
                activepy_speedup: ap,
                ..row("A")
            }])
        };
        assert_eq!(geomeans(1.33, 1.34), Ok(()));
        fails_naming(geomeans(1.2, 1.34), "programmer-directed geomean 1.2000");
        fails_naming(geomeans(1.45, 1.34), "programmer-directed geomean 1.4500");
        fails_naming(geomeans(1.33, 1.2), "ActivePy geomean 1.2000");
        fails_naming(geomeans(1.33, 1.45), "ActivePy geomean 1.4500");
    }
}
