//! Planner-audit calibration sweep: every workload's Eq. 1 predictions
//! joined against measured costs, clean and contended.
//!
//! For each registered workload the sweep plans once and executes three
//! cells:
//!
//! * **clean / unaudited** — the reference run; fixes the
//!   `values_fingerprint` every other cell must reproduce.
//! * **clean / audited** — the same plan re-executed with a live tracer,
//!   a profile recorder, and a full [`activepy::calibrate`] +
//!   `publish_to` pass. Audit is observation-only, so any fingerprint
//!   divergence here is a bug the sweep counts and the smoke gate fails
//!   on.
//! * **contended** — the plan under a 10 % availability burst from t=0
//!   with migration disabled, so the measured device costs balloon while
//!   the placement stays where Algorithm 1 put it. Calibrating this cell
//!   (joined against the recorded profile) is where the counterfactual
//!   "would Algorithm 1 have flipped this line?" question produces
//!   actual flips.
//!
//! The smoke gate ([`check`]) asserts: zero fingerprint
//! divergences, every line audited, clean-cell mean error inside the
//! pinned band, and at least one explained counterfactual flip across
//! the grid.

use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::PlanCache;
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use serde::Serialize;

/// Residual CSE availability in the contended cell.
pub const BURST_FRACTION: f64 = 0.10;

/// Pinned per-workload band on the clean cell's mean absolute relative
/// time error, parts per million. Uncontended predictions come from the
/// same cost model the simulator executes, so the residual is fitting
/// error — and the sampling-scale extrapolation residual is genuinely
/// large for super-linear workloads (MixedGEMM's O(n³) tiles sit near
/// 56 %), which is exactly what the observatory exists to expose.
pub const CLEAN_ERR_BAND_PPM: u64 = 700_000;

/// Pinned band on the grid-wide mean clean error (measured ≈ 21 %).
pub const MEAN_CLEAN_ERR_BAND_PPM: u64 = 350_000;

/// One workload's calibration cells.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Lines joined in each calibration (every executed line).
    pub lines_audited: usize,
    /// Whether the plan put any line on the CSD.
    pub offloaded: bool,
    /// Clean cell: mean absolute relative time error, ppm.
    pub clean_err_ppm: u64,
    /// Clean cell: counterfactual flips. Nonzero where the fitting
    /// residual alone already moves a line across Eq. 1's break-even —
    /// the super-linear workloads.
    pub clean_flips: usize,
    /// Contended cell: mean absolute relative time error, ppm.
    pub contended_err_ppm: u64,
    /// Contended cell: counterfactual flips.
    pub contended_flips: usize,
    /// Profile version the contended calibration joined against.
    pub profile_version: u64,
    /// First contended flip's explanation (empty when none flipped).
    pub flip_explanation: String,
    /// Whether every cell reproduced the reference fingerprint.
    pub values_match: bool,
}

/// The full sweep plus the aggregates the smoke gate asserts on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// One row per workload.
    pub rows: Vec<Row>,
    /// Σ lines audited across all cells.
    pub lines_audited: u64,
    /// Σ counterfactual flips in the contended cells.
    pub counterfactual_flips: u64,
    /// Cells whose `values_fingerprint` diverged with audit enabled.
    /// Must be 0.
    pub fingerprint_divergences: usize,
    /// Mean clean-cell error across workloads, ppm.
    pub mean_clean_err_ppm: u64,
    /// One explained flip, for the report reader.
    pub flip_example: String,
}

/// Runs one workload's three cells (see module docs).
fn run_workload(w: &isp_workloads::Workload, config: &SystemConfig) -> Row {
    let program = w.program().expect("registered workloads parse");
    // Private cache: the profile recording below bumps the store's
    // version, and leaking a refit into a shared cache would change
    // another experiment's plans.
    let cache = PlanCache::new();
    let rt = ActivePy::new();
    let plan = cache
        .plan_for(&rt, w.name(), &program, w, config)
        .expect("planning succeeds");

    // Clean, unaudited: the reference fingerprint.
    let reference = rt
        .execute_plan(&plan, config, ContentionScenario::none())
        .expect("reference run");
    let reference_fp = reference.report.values_fingerprint;

    // Clean, audited: live tracer + profile recorder + calibration pass.
    let (tracer, _sink) = isp_obs::Tracer::to_memory();
    let audited_rt = ActivePy::with_options(
        ActivePyOptions::default()
            .with_tracer(tracer.clone())
            .with_profile(cache.recorder_for(&rt, w.name(), w, config)),
    );
    let audited = audited_rt
        .execute_plan(&plan, config, ContentionScenario::none())
        .expect("audited run");
    let clean = activepy::calibrate(w.name(), &plan, &audited.report, None);
    clean.publish_to(&tracer);

    // Contended, migration disabled: measured device costs balloon while
    // the placement stays put — the flip-producing cell.
    let key = PlanCache::key_for(&rt, w.name(), w, config);
    let profile = cache.profiles().profile(&key);
    let static_rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
    let scenario = ContentionScenario::at_time(SimTime::from_secs(0.0), BURST_FRACTION);
    let contended_run = static_rt
        .execute_plan(&plan, config, scenario)
        .expect("contended run");
    let contended = activepy::calibrate(w.name(), &plan, &contended_run.report, Some(&profile));

    let ppm = |r: &activepy::CalibrationReport| (r.mean_abs_rel_err() * 1e6).round() as u64;
    let values_match = audited.report.values_fingerprint == reference_fp
        && contended_run.report.values_fingerprint == reference_fp;
    Row {
        name: w.name().to_owned(),
        lines_audited: clean.lines.len(),
        offloaded: !plan.assignment.csd_lines.is_empty(),
        clean_err_ppm: ppm(&clean),
        clean_flips: clean.flips.len(),
        contended_err_ppm: ppm(&contended),
        contended_flips: contended.flips.len(),
        profile_version: contended.profile_version,
        flip_explanation: contended
            .flips
            .first()
            .map(|f| f.explanation.clone())
            .unwrap_or_default(),
        values_match,
    }
}

/// Builds the [`Report`] aggregates from finished rows.
fn aggregate(rows: Vec<Row>) -> Report {
    let lines_audited = rows.iter().map(|r| 2 * r.lines_audited as u64).sum();
    let counterfactual_flips = rows.iter().map(|r| r.contended_flips as u64).sum();
    let fingerprint_divergences = rows.iter().filter(|r| !r.values_match).count();
    let mean_clean_err_ppm = if rows.is_empty() {
        0
    } else {
        rows.iter().map(|r| r.clean_err_ppm).sum::<u64>() / rows.len() as u64
    };
    let flip_example = rows
        .iter()
        .find(|r| !r.flip_explanation.is_empty())
        .map(|r| r.flip_explanation.clone())
        .unwrap_or_default();
    Report {
        rows,
        lines_audited,
        counterfactual_flips,
        fingerprint_divergences,
        mean_clean_err_ppm,
        flip_example,
    }
}

/// Runs the calibration sweep over every registered workload.
///
/// # Panics
///
/// Panics if a registered workload fails to plan or run.
#[must_use]
pub fn run(config: &SystemConfig) -> Report {
    let rows = crate::sweep::run_grid(isp_workloads::full_set(), |w| run_workload(&w, config));
    aggregate(rows)
}

/// Checks the sweep's audit invariants; `Err` describes the violation.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check(report: &Report) -> Result<(), String> {
    if report.fingerprint_divergences != 0 {
        return Err(format!(
            "{} cells diverged from the reference fingerprint with audit enabled",
            report.fingerprint_divergences
        ));
    }
    for r in &report.rows {
        if r.lines_audited == 0 {
            return Err(format!("{}: no lines audited", r.name));
        }
        if r.clean_err_ppm > CLEAN_ERR_BAND_PPM {
            return Err(format!(
                "{}: clean-cell error {}ppm beyond the pinned {}ppm band",
                r.name, r.clean_err_ppm, CLEAN_ERR_BAND_PPM
            ));
        }
        if r.offloaded && r.contended_flips == 0 {
            return Err(format!(
                "{}: 10% availability must flip at least one offloaded line",
                r.name
            ));
        }
        if r.clean_flips > r.contended_flips {
            return Err(format!(
                "{}: more flips clean ({}) than contended ({})",
                r.name, r.clean_flips, r.contended_flips
            ));
        }
    }
    if report.mean_clean_err_ppm > MEAN_CLEAN_ERR_BAND_PPM {
        return Err(format!(
            "grid mean clean error {}ppm beyond the pinned {}ppm band",
            report.mean_clean_err_ppm, MEAN_CLEAN_ERR_BAND_PPM
        ));
    }
    if report.counterfactual_flips == 0 {
        return Err("no workload flipped under the contended cell".to_owned());
    }
    if report.counterfactual_flips > 0 && report.flip_example.is_empty() {
        return Err("flips detected but none carries an explanation".to_owned());
    }
    Ok(())
}

/// Prints the sweep as a table plus the aggregate line.
pub fn print(report: &Report) {
    println!(
        "== Planner audit: Eq. 1 predicted vs measured (contended cell at \
         {BURST_FRACTION} availability) =="
    );
    println!(
        "{:<14} {:>5} {:>5} {:>10} {:>6} {:>10} {:>6} {:>5} {:>6}",
        "workload", "lines", "csd", "cleanErr", "flips", "contErr", "flips", "prof", "match"
    );
    for r in &report.rows {
        println!(
            "{:<14} {:>5} {:>5} {:>7}ppm {:>6} {:>7}ppm {:>6} {:>5} {:>6}",
            r.name,
            r.lines_audited,
            if r.offloaded { "yes" } else { "no" },
            r.clean_err_ppm,
            r.clean_flips,
            r.contended_err_ppm,
            r.contended_flips,
            r.profile_version,
            if r.values_match { "ok" } else { "WRONG" },
        );
    }
    println!(
        "audited {} line-cells | {} counterfactual flips | {} divergences | \
         mean clean error {}ppm",
        report.lines_audited,
        report.counterfactual_flips,
        report.fingerprint_divergences,
        report.mean_clean_err_ppm
    );
    if !report.flip_example.is_empty() {
        println!("example flip: {}", report.flip_example);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focused_sweep_calibrates_and_flips() {
        let config = SystemConfig::paper_default();
        let w = isp_workloads::by_name("TPC-H-6").expect("registered");
        let report = aggregate(vec![run_workload(&w, &config)]);
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert!(r.values_match, "{r:?}");
        assert!(r.lines_audited > 0);
        assert_eq!(r.clean_flips, 0, "{r:?}");
        assert!(r.clean_err_ppm <= CLEAN_ERR_BAND_PPM, "{r:?}");
        assert!(r.contended_flips > 0, "{r:?}");
        assert_eq!(r.profile_version, 1, "{r:?}");
        assert!(report.flip_example.contains("measured costs favor host"));
    }
}
