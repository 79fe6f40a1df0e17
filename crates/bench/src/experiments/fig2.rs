//! Figure 2: a static, C-based ISP platform (Summarizer-style) optimized
//! for 100 % CSE availability, re-run as the available CSE time shrinks.
//!
//! Paper result: the three TPC-H workloads are ≈1.25× faster than the
//! no-CSD baseline at 100 % availability, but the same fixed offload
//! *loses* to the baseline once less than ≈60 % of the CSE is available.

use super::Band;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::{best_static_plan, run_c_baseline, run_plan};
use serde::Serialize;

/// Availability levels swept (fraction of CSE time available).
pub const AVAILABILITIES: [f64; 10] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];

/// The static plan's win with the whole CSE available.
const FULL_SPEEDUP: Band = Band {
    what: "speedup at 100 %",
    paper: "≈ 1.25×",
    lo: 1.1,
    hi: 2.0,
};

/// The same plan with a tenth of the CSE left.
const TENTH_SPEEDUP: Band = Band {
    what: "speedup at 10 %",
    paper: "a loss below 60 % availability",
    lo: 0.0,
    hi: 0.6,
};

/// The availability below which the static plan loses.
const CROSSOVER: Band = Band {
    what: "crossover availability",
    paper: "≈ 0.60",
    lo: 0.30,
    hi: 0.75,
};

/// Slack on "never faster with less of the CSE", for rounding.
const MONOTONE_SLACK: f64 = 1e-9;

/// One workload's sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Baseline (no-CSD, C) latency in simulated seconds.
    pub baseline_secs: f64,
    /// Speedup over the baseline at each availability level, in
    /// [`AVAILABILITIES`] order.
    pub speedups: Vec<f64>,
}

impl Row {
    /// The availability below which the static plan loses to the baseline
    /// (linear interpolation between sweep points), if it loses at all.
    #[must_use]
    pub fn crossover(&self) -> Option<f64> {
        for i in 1..AVAILABILITIES.len() {
            let (s0, s1) = (self.speedups[i - 1], self.speedups[i]);
            if s0 >= 1.0 && s1 < 1.0 {
                let (a0, a1) = (AVAILABILITIES[i - 1], AVAILABILITIES[i]);
                let t = (s0 - 1.0) / (s0 - s1);
                return Some(a0 + t * (a1 - a0));
            }
        }
        None
    }
}

/// Runs the sweep for the paper's three TPC-H workloads.
///
/// # Panics
///
/// Panics if a registered workload fails to run (a bug, not an input
/// condition).
#[must_use]
pub fn run(config: &SystemConfig) -> Vec<Row> {
    let names = vec!["TPC-H-1", "TPC-H-6", "TPC-H-14"];
    crate::sweep::run_grid(names, |name| {
        let w = isp_workloads::by_name(name).expect("TPC-H workloads are registered");
        let baseline = run_c_baseline(&w, config)
            .expect("baseline runs")
            .total_secs;
        let plan = best_static_plan(&w, config).expect("plan search succeeds");
        let speedups = AVAILABILITIES
            .iter()
            .map(|&avail| {
                let scenario = if avail >= 1.0 {
                    ContentionScenario::none()
                } else {
                    ContentionScenario::constant(avail)
                };
                let t = run_plan(&w, config, &plan, scenario)
                    .expect("plan re-runs")
                    .total_secs;
                baseline / t
            })
            .collect();
        Row {
            name: name.to_owned(),
            baseline_secs: baseline,
            speedups,
        }
    })
}

/// Prints the sweep in the figure's layout.
pub fn print(rows: &[Row]) {
    println!("== Fig 2: static C-ISP speedup vs available CSE time ==");
    print!("{:<10}", "workload");
    for a in AVAILABILITIES {
        print!(" {:>6.0}%", a * 100.0);
    }
    println!("  crossover");
    for r in rows {
        print!("{:<10}", r.name);
        for s in &r.speedups {
            print!(" {s:>6.2}x");
        }
        match r.crossover() {
            Some(c) => println!("  ~{:.0}%", c * 100.0),
            None => println!("  none"),
        }
    }
    println!("(paper: ~1.25x at 100%, and the optimized workloads lose below ~60% availability)");
}

/// Fig. 2's claims on every row: a win at 100 % inside `FULL_SPEEDUP`,
/// no speedup as availability falls, a loss at 10 % inside
/// `TENTH_SPEEDUP`, and a crossover inside `CROSSOVER`.
///
/// # Errors
///
/// Names the first workload and claim that fails.
pub fn check(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        let named = |e: String| format!("{}: {e}", r.name);
        let (first, last) = match r.speedups.as_slice() {
            [first, .., last] => (*first, *last),
            _ => return Err(named(format!("{} sweep points", r.speedups.len()))),
        };
        FULL_SPEEDUP.check(first).map_err(named)?;
        for (i, w) in r.speedups.windows(2).enumerate() {
            if w[1] > w[0] + MONOTONE_SLACK {
                return Err(named(format!(
                    "speedup rises from {:.4} at {:.0} % to {:.4} at {:.0} %",
                    w[0],
                    AVAILABILITIES[i] * 100.0,
                    w[1],
                    AVAILABILITIES[i + 1] * 100.0
                )));
            }
        }
        TENTH_SPEEDUP.check(last).map_err(named)?;
        let crossover = r
            .crossover()
            .ok_or_else(|| named("never loses".to_owned()))?;
        CROSSOVER.check(crossover).map_err(named)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fails_naming;

    #[test]
    fn shape_matches_the_paper() {
        let rows = run(&SystemConfig::paper_default());
        assert_eq!(rows.len(), 3);
        assert_eq!(check(&rows), Ok(()));
    }

    /// TPC-H-1's sweep, rounded: 1.35× at 100 %, crossing at ≈ 60 %.
    fn row() -> Row {
        Row {
            name: "Q".to_owned(),
            baseline_secs: 1.0,
            speedups: vec![1.35, 1.28, 1.19, 1.10, 1.01, 0.88, 0.75, 0.60, 0.43, 0.23],
        }
    }

    fn edited(edit: impl FnOnce(&mut Vec<f64>)) -> Result<(), String> {
        let mut r = row();
        edit(&mut r.speedups);
        check(&[r])
    }

    #[test]
    fn check_fails_a_row_outside_each_claim() {
        assert_eq!(check(&[row()]), Ok(()));
        fails_naming(edited(|s| s[0] = 1.05), "Q: speedup at 100 %");
        fails_naming(edited(|s| s[0] = 2.1), "Q: speedup at 100 %");
        fails_naming(
            edited(|s| s[3] = 1.2),
            "Q: speedup rises from 1.1900 at 80 % to 1.2000 at 70 %",
        );
        fails_naming(
            edited(|s| s[6..].copy_from_slice(&[0.75, 0.74, 0.72, 0.7])),
            "Q: speedup at 10 % 0.7000",
        );
        // Losing only below 25 %: a crossover far under the paper's.
        fails_naming(
            edited(|s| s[4..8].copy_from_slice(&[1.08, 1.06, 1.04, 1.02])),
            "Q: crossover availability",
        );
        // Losing from 80 % on: far over it.
        fails_naming(
            edited(|s| s[1..5].copy_from_slice(&[1.05, 0.98, 0.96, 0.95])),
            "Q: crossover availability",
        );
        fails_naming(edited(|s| s.truncate(1)), "Q: 1 sweep points");
    }
}
