//! # isp-bench — the experiment harness
//!
//! One module per experiment under [`experiments`]: a `run` returning
//! structured results, a `print` producing the paper-style rows and a
//! `check` holding the claims the rows must keep, each paper figure as a
//! [`experiments::Band`] written once. [`EXPERIMENTS`] is the
//! one list of them — name, what it reproduces, how to run it — and
//! [`run_all`] is the one loop over it; the `repro` binary is that loop
//! plus argv. Every experiment advances a simulated clock and never reads
//! the host's, so what the loop prints and returns is a function of the
//! tree. Host time is measured by the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`), nowhere here.

#![warn(missing_docs)]

pub mod experiments;
pub mod sweep;

use activepy::PlanCache;
use alang::ParallelPolicy;
use csd_sim::SystemConfig;
use experiments as ex;
use serde::Serialize;
use serde_json::Value;

/// One entry of [`EXPERIMENTS`].
pub struct Experiment {
    /// The experiment's key in `BENCH_repro.json`.
    pub name: &'static str,
    /// What of the paper (or beyond it) the experiment reproduces.
    pub reproduces: &'static str,
    /// Runs the experiment, prints its tables, and returns its report
    /// section with the verdict of its `check`.
    pub run: fn(&SystemConfig, &PlanCache) -> Outcome,
}

/// What one experiment hands back to [`run_all`].
pub struct Outcome {
    /// The experiment's section of `BENCH_repro.json`.
    pub section: Value,
    /// The verdict of the experiment's own `check`: `Err` describes the
    /// first claim outside its band.
    pub check: Result<(), String>,
}

/// Prints `report`, checks it, and serializes it.
fn outcome<R: Serialize>(
    report: &R,
    print: impl FnOnce(&R),
    check: impl FnOnce(&R) -> Result<(), String>,
) -> Outcome {
    print(report);
    Outcome {
        section: serde_json::to_value(report).expect("reports serialize"),
        check: check(report),
    }
}

#[derive(Serialize)]
struct FaultsSection {
    seed: u64,
    rows: Vec<ex::faults::Row>,
    fault_migrations: u64,
    wrong_answers: usize,
}

/// Every experiment of the evaluation, in the order `repro` runs them.
/// They share one [`PlanCache`], so the order fixes which lookups hit.
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "table1",
        reproduces: "Table I — applications and input sizes",
        run: |_, _| {
            outcome(
                &ex::table1::run(),
                |r| ex::table1::print(r),
                |r| ex::table1::check(r),
            )
        },
    },
    Experiment {
        name: "fig2",
        reproduces: "Figure 2 — static C-ISP vs CSE availability",
        run: |config, _| {
            outcome(
                &ex::fig2::run(config),
                |r| ex::fig2::print(r),
                |r| ex::fig2::check(r),
            )
        },
    },
    Experiment {
        name: "fig4",
        reproduces: "Figure 4 — ActivePy vs programmer-directed ISP",
        run: |config, cache| {
            outcome(
                &ex::fig4::run(config, cache),
                |r| ex::fig4::print(r),
                |r| ex::fig4::check(r),
            )
        },
    },
    Experiment {
        name: "fig5",
        reproduces: "Figure 5 — contention at 50 % progress, ± migration",
        run: |config, cache| {
            let rows = ex::fig5::run(config, cache, ParallelPolicy::default());
            outcome(
                &ex::fig5::Report::new(rows),
                |r| ex::fig5::print(&r.rows),
                ex::fig5::check,
            )
        },
    },
    Experiment {
        name: "runtime_opt",
        reproduces: "§V text — the 41 %/20 %/≈0 % language-runtime ladder",
        run: |config, _| {
            outcome(
                &ex::runtime_opt::run(config),
                |r| ex::runtime_opt::print(r),
                |r| ex::runtime_opt::check(r),
            )
        },
    },
    Experiment {
        name: "regret",
        reproduces: "planner regret — Algorithm 1 against search over every placement",
        run: |config, cache| {
            outcome(
                &ex::regret::run(config, cache),
                |r| ex::regret::print(r),
                |r| ex::regret::check(r),
            )
        },
    },
    Experiment {
        name: "flexibility",
        reproduces: "§II-B3 dynamics — interconnect sweep and garbage collection",
        run: |_, cache| {
            let report = ex::flexibility::Report {
                bw: ex::flexibility::run_bw_sweep(cache),
                gc: ex::flexibility::run_gc(cache),
            };
            outcome(&report, ex::flexibility::print, ex::flexibility::check)
        },
    },
    Experiment {
        name: "faults",
        reproduces: "fault sweep — seeded device faults never change an answer",
        run: |config, cache| {
            let rows = ex::faults::run(config, cache);
            let section = FaultsSection {
                seed: ex::faults::FAULT_SEED,
                fault_migrations: rows.iter().map(|r| r.fault_migrations).sum(),
                wrong_answers: rows.iter().filter(|r| !r.values_match).count(),
                rows,
            };
            outcome(
                &section,
                |s| ex::faults::print(&s.rows),
                |s| match s.wrong_answers {
                    0 => Ok(()),
                    n => Err(format!("{n} faulted runs changed the answer")),
                },
            )
        },
    },
    Experiment {
        name: "decode",
        reproduces: "decode placement — Eq. 1 decides where a wire format is decoded",
        run: |config, cache| {
            outcome(
                &ex::decode::run(config, cache),
                ex::decode::print,
                ex::decode::check,
            )
        },
    },
    Experiment {
        name: "shards",
        reproduces: "shard scaling — the scatter-gather fleet at N in {1, 2, 4, 8}",
        run: |_, cache| {
            outcome(
                &ex::shards::run(cache),
                ex::shards::print,
                ex::shards::check,
            )
        },
    },
    Experiment {
        name: "recovery",
        reproduces: "recovery — journal resume and sampling-free warm start",
        run: |_, _| {
            outcome(
                &ex::recovery::run(),
                ex::recovery::print,
                ex::recovery::check,
            )
        },
    },
    Experiment {
        name: "audit",
        reproduces: "planner audit — Eq. 1 predicted vs measured; §V's volume accuracy",
        run: |config, cache| {
            outcome(
                &ex::audit::run(config, cache),
                ex::audit::print,
                ex::audit::check,
            )
        },
    },
];

/// Runs `experiments` in order against one `cache`, each printing its
/// tables. Returns every experiment's report section keyed by name and
/// one `name: cause` line per failed `check`; a failure never stops the
/// loop, so every table is printed and every section returned.
pub fn run_all(
    experiments: &[Experiment],
    config: &SystemConfig,
    cache: &PlanCache,
) -> (Vec<(String, Value)>, Vec<String>) {
    let mut sections = Vec::with_capacity(experiments.len());
    let mut failures = Vec::new();
    for e in experiments {
        let Outcome { section, check } = (e.run)(config, cache);
        println!();
        if let Err(cause) = check {
            failures.push(format!("{}: {cause}", e.name));
        }
        sections.push((e.name.to_owned(), section));
    }
    (sections, failures)
}

/// Geometric mean of a slice of positive ratios.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty slice");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_is_reported_and_does_not_stop_the_loop() {
        let passes: fn(&SystemConfig, &PlanCache) -> Outcome =
            |_, _| outcome(&1u64, |_| println!("stub table"), |_| Ok(()));
        // A Table-I row 2 % over the paper's size, judged by the real check.
        let fails: fn(&SystemConfig, &PlanCache) -> Outcome = |_, _| {
            let row = ex::table1::Row {
                name: "W".to_owned(),
                paper_gb: 10.0,
                generated_gb: 10.2,
                sese_regions: 4,
                description: String::new(),
            };
            outcome(
                &vec![row],
                |_| println!("stub table"),
                |r| ex::table1::check(r),
            )
        };
        let experiments =
            [("first", passes), ("second", fails), ("third", passes)].map(|(name, run)| {
                Experiment {
                    name,
                    reproduces: "stub",
                    run,
                }
            });
        let (sections, failures) = run_all(
            &experiments,
            &SystemConfig::paper_default(),
            &PlanCache::new(),
        );
        let names: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["first", "second", "third"], "the loop ran on");
        let section = serde_json::to_string(&sections[1].1).expect("renders");
        assert!(section.contains("\"generated_gb\":10.2"), "{section}");
        // `repro` exits 1 exactly when this list is non-empty.
        assert_eq!(
            failures,
            ["second: W: generated / Table I volume 1.0200 outside [0.99, 1.01] (paper Table I's GB)"]
        );
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let g = geomean(&[2.0, 0.5, 4.0, 0.25]);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_is_arithmetic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_geomean_panics() {
        let _ = geomean(&[]);
    }
}
