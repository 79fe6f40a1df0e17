//! §V, "ActivePy's capability in identifying and composing CSD code":
//! accuracy of the data-volume predictions that drive Eq. 1.
//!
//! Paper results: data-volume changes are predicted with a geometric-mean
//! error of ≈9 % (discounting outliers); the one systematic outlier is the
//! CSR conversion in PageRank and SparseMV, over-estimated by up to 2.41×
//! — and always *over*-estimated, so ActivePy at worst schedules
//! conservatively ("makes no harm to performance").

use crate::geomean;
use activepy::runtime::ActivePy;
use activepy::PlanCache;
use alang::Interpreter;
use csd_sim::SystemConfig;
use serde::Serialize;

/// Volume prediction for one line of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct LineRow {
    /// Workload name.
    pub workload: String,
    /// Line index.
    pub line: usize,
    /// The line's source text.
    pub source: String,
    /// Predicted output volume at full scale, bytes.
    pub predicted_out: u64,
    /// Measured output volume at full scale, bytes.
    pub measured_out: u64,
    /// `predicted / measured`.
    pub ratio: f64,
    /// Whether this line performs a CSR conversion (the paper's outlier).
    pub is_csr: bool,
}

/// The experiment's aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// All per-line predictions with meaningful volumes.
    pub lines: Vec<LineRow>,
    /// Geometric-mean relative error over non-CSR lines (all lines; exact
    /// deterministic volumes pull this toward zero).
    pub geomean_error: f64,
    /// Geometric-mean relative error over the *data-dependent* non-CSR
    /// lines (selectivity-driven volumes — the quantities that are actually
    /// hard to predict and the paper's headline ≈9 % refers to).
    pub geomean_error_data_dependent: f64,
    /// The worst CSR over-estimation factor observed.
    pub max_csr_overestimate: f64,
    /// Whether every CSR prediction over-estimated (the conservative
    /// direction).
    pub csr_always_over: bool,
}

/// Minimum measured volume for a line to participate in the error stats
/// (tiny scalars drown in rounding).
const MIN_VOLUME_BYTES: u64 = 1_000_000;

/// Runs the prediction-accuracy experiment over all ten workloads: the
/// sampling report, the fitted predictions, and the materialized
/// full-scale input all come from the workload's
/// [`activepy::OffloadPlan`] in `cache`.
///
/// # Panics
///
/// Panics if a registered workload fails to sample or run.
#[must_use]
pub fn run(config: &SystemConfig, cache: &PlanCache) -> Report {
    let per_workload: Vec<Vec<LineRow>> =
        crate::sweep::run_grid(isp_workloads::with_sparsemv(), |w| {
            let program = w.program().expect("registered workloads parse");
            let rt = ActivePy::new();
            let plan = cache
                .plan_for(&rt, w.name(), &program, &w, config)
                .expect("planning succeeds");
            let mut interp = Interpreter::new(&plan.full_storage);
            let measured = interp.run(&program, &[]).expect("full-scale run");
            plan.predictions
                .iter()
                .zip(&measured)
                .filter_map(|(pred, meas)| {
                    let measured_out = meas.cost.bytes_out;
                    if measured_out < MIN_VOLUME_BYTES {
                        return None;
                    }
                    let predicted_out = pred.cost.bytes_out;
                    let src = program.lines()[pred.line].source.clone();
                    Some(LineRow {
                        workload: w.name().to_owned(),
                        line: pred.line,
                        is_csr: src.contains("to_csr"),
                        source: src,
                        predicted_out,
                        measured_out,
                        ratio: predicted_out as f64 / measured_out as f64,
                    })
                })
                .collect()
        });
    let lines: Vec<LineRow> = per_workload.into_iter().flatten().collect();
    let non_csr_errors: Vec<f64> = lines
        .iter()
        .filter(|l| !l.is_csr)
        .map(|l| (l.ratio - 1.0).abs().max(1e-4))
        .collect();
    // Selectivity-driven lines: anything downstream of a data-dependent
    // reduction (the prediction genuinely extrapolates sample statistics).
    let dep_errors: Vec<f64> = lines
        .iter()
        .filter(|l| !l.is_csr && (l.ratio - 1.0).abs() > 1e-3)
        .map(|l| (l.ratio - 1.0).abs())
        .collect();
    let csr: Vec<&LineRow> = lines.iter().filter(|l| l.is_csr).collect();
    Report {
        geomean_error: geomean(&non_csr_errors),
        geomean_error_data_dependent: if dep_errors.is_empty() {
            0.0
        } else {
            geomean(&dep_errors)
        },
        max_csr_overestimate: csr.iter().map(|l| l.ratio).fold(0.0, f64::max),
        csr_always_over: !csr.is_empty() && csr.iter().all(|l| l.ratio > 1.0),
        lines,
    }
}

/// Prints the accuracy report.
pub fn print(report: &Report) {
    println!("== Volume-prediction accuracy (Eq. 1 inputs) ==");
    println!(
        "{:<14} {:>4} {:>12} {:>12} {:>7}  line",
        "workload", "ln", "predicted", "measured", "ratio"
    );
    for l in &report.lines {
        println!(
            "{:<14} {:>4} {:>12} {:>12} {:>7.3}  {}{}",
            l.workload,
            l.line,
            l.predicted_out,
            l.measured_out,
            l.ratio,
            l.source.chars().take(40).collect::<String>(),
            if l.is_csr { "  <-- CSR" } else { "" },
        );
    }
    println!(
        "geomean volume error: all non-CSR lines {:.2}%, data-dependent lines {:.1}% (paper ~9%)",
        report.geomean_error * 100.0,
        report.geomean_error_data_dependent * 100.0
    );
    println!(
        "CSR conversions over-estimated by up to {:.2}x (paper: up to 2.41x), always over: {}",
        report.max_csr_overestimate, report.csr_always_over
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_matches_the_paper() {
        let report = run(&SystemConfig::paper_default(), &PlanCache::new());
        assert!(!report.lines.is_empty());
        // Geomean error in the single-digit-percent band (paper: 9%).
        assert!(
            report.geomean_error < 0.2,
            "geomean error {} too large",
            report.geomean_error
        );
        assert!(
            report.geomean_error_data_dependent > 0.001
                && report.geomean_error_data_dependent < 0.2,
            "data-dependent error {} outside the plausible band",
            report.geomean_error_data_dependent
        );
        // The CSR outlier exists, over-estimates near the paper's 2.41x,
        // and always errs in the conservative direction.
        assert!(
            report.max_csr_overestimate > 1.5 && report.max_csr_overestimate < 3.5,
            "CSR over-estimate {} not near 2.41x",
            report.max_csr_overestimate
        );
        assert!(
            report.csr_always_over,
            "CSR predictions must be conservative"
        );
    }
}
