//! Planner-audit calibration sweep: every workload's Eq. 1 predictions
//! joined against measured costs, clean and contended — the one place the
//! cost model is graded.
//!
//! For each registered workload the sweep looks its plan up in the shared
//! [`PlanCache`] and runs it in three cells: **clean**, the reference
//! `values_fingerprint`; **clean, audited**, with a live tracer, a profile
//! recorder and an [`activepy::calibrate`] + `publish_to` pass (audit is
//! observation-only, so a moved fingerprint is a counted divergence); and
//! **contended**, a 10 % availability burst from t=0 with migration
//! disabled, where measured device costs balloon while the placement stays
//! put, so "would Algorithm 1 have flipped this line?" produces flips.
//!
//! Over Table I plus SparseMV the clean join is also §V's [`Volume`]
//! table: the paper predicts data volumes within ≈ 9 % (geomean) and
//! over-estimates the CSR conversion of PageRank and SparseMV by up to
//! 2.41×, never under, so ActivePy at worst schedules conservatively.
//!
//! The smoke gate ([`check`]) asserts: zero fingerprint divergences,
//! every line audited, clean-cell mean error inside the pinned band, at
//! least one explained counterfactual flip across the grid, and the
//! paper's volume claims.

use std::sync::Arc;

use super::Band;
use crate::geomean;
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{PlanCache, ProfileRecorder, ProfileStore};
use alang::copyelim::{infer_types, StaticType};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_workloads::Workload;
use serde::Serialize;

/// Residual CSE availability in the contended cell.
pub const BURST_FRACTION: f64 = 0.10;

/// Pinned per-workload band on the clean cell's mean absolute relative
/// time error, parts per million. The error is not fitting: every CSD line
/// pays 64 status updates (12.8 µs) Eq. 1 never charges, so a line priced
/// at 1.2 µs or less measures about 12.8 µs, and the mean is unweighted
/// over lines. MixedGEMM, which has no O(n³) line, sits near 56 % because
/// 4 of its 7 lines are that short.
pub const CLEAN_ERR_BAND_PPM: u64 = 700_000;

/// Pinned band on the grid-wide mean clean error (measured ≈ 21 %).
pub const MEAN_CLEAN_ERR_BAND_PPM: u64 = 350_000;

/// Minimum measured output volume for a clean line to join the
/// [`Volume`] table (tiny scalars drown in rounding).
pub const MIN_VOLUME_BYTES: u64 = 1_000_000;

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
    /// Clean cell: counterfactual flips. Nonzero where a line's `S` is so
    /// near zero that the 12.8 µs of status updates Eq. 1 never charges
    /// moves it across the break-even.
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

/// Volume prediction for one line of one workload, read off the clean
/// cell's [`activepy::LineAudit`].
#[derive(Debug, Clone, PartialEq, Serialize)]
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
    /// Whether this line produces a CSR matrix, by its inferred static
    /// type (the paper's outlier).
    pub is_csr: bool,
}

/// §V's data-volume accuracy over Table I plus SparseMV.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Volume {
    /// Every clean line measured at [`MIN_VOLUME_BYTES`] or more.
    pub lines: Vec<LineRow>,
    /// Geomean relative error over every non-CSR line, each floored at 10⁻⁴.
    pub geomean_error: f64,
    /// Geomean relative error over the data-dependent (off by > 10⁻³)
    /// non-CSR lines — the paper's ≈ 9 %.
    pub geomean_error_data_dependent: f64,
    /// The worst CSR over-estimation factor.
    pub max_csr_overestimate: f64,
    /// Whether every CSR line over-estimated (the conservative side).
    pub csr_always_over: bool,
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
    /// §V's volume-accuracy table.
    pub volume: Volume,
}

/// Runs one workload's three cells (see module docs) from its plan in
/// `cache`; returns its row and its clean lines for the [`Volume`] table.
fn run_workload(w: &Workload, config: &SystemConfig, cache: &PlanCache) -> (Row, Vec<LineRow>) {
    let program = w.program().expect("registered workloads parse");
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
    let store = Arc::new(ProfileStore::new());
    let key = (w.name().to_owned(), 0);
    let audited_rt = ActivePy::with_options(
        ActivePyOptions::default()
            .with_tracer(tracer.clone())
            .with_profile(ProfileRecorder::to_store(Arc::clone(&store), key.clone())),
    );
    let audited = audited_rt
        .execute_plan(&plan, config, ContentionScenario::none())
        .expect("audited run");
    let clean = activepy::calibrate(w.name(), &plan, &audited.report, None);
    clean.publish_to(&tracer);

    // Contended, migration disabled: measured device costs balloon while
    // the placement stays put — the flip-producing cell.
    let profile = store.profile(&key);
    let static_rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
    let scenario = ContentionScenario::at_time(SimTime::from_secs(0.0), BURST_FRACTION);
    let contended_run = static_rt
        .execute_plan(&plan, config, scenario)
        .expect("contended run");
    let contended = activepy::calibrate(w.name(), &plan, &contended_run.report, Some(&profile));

    let ppm = |r: &activepy::CalibrationReport| (r.mean_abs_rel_err() * 1e6).round() as u64;
    let values_match = audited.report.values_fingerprint == reference_fp
        && contended_run.report.values_fingerprint == reference_fp;
    let row = Row {
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
    };
    let types = infer_types(&plan.program, &plan.sampling.dataset_types);
    let volume = clean
        .lines
        .iter()
        .filter(|l| l.measured_d_out >= MIN_VOLUME_BYTES)
        .map(|l| {
            let source = plan.program.lines()[l.line].source.clone();
            LineRow {
                workload: w.name().to_owned(),
                line: l.line,
                is_csr: types[l.line] == StaticType::Csr,
                source,
                predicted_out: l.predicted_d_out,
                measured_out: l.measured_d_out,
                ratio: l.predicted_d_out as f64 / l.measured_d_out as f64,
            }
        })
        .collect();
    (row, volume)
}

/// The [`Volume`] aggregates over `lines` (0 where a mean has no line).
fn volume(lines: Vec<LineRow>) -> Volume {
    let geomean_or_0 = |v: Vec<f64>| if v.is_empty() { 0.0 } else { geomean(&v) };
    let errors = || {
        lines
            .iter()
            .filter(|l| !l.is_csr)
            .map(|l| (l.ratio - 1.0).abs())
    };
    let csr: Vec<f64> = lines.iter().filter(|l| l.is_csr).map(|l| l.ratio).collect();
    Volume {
        geomean_error: geomean_or_0(errors().map(|e| e.max(1e-4)).collect()),
        geomean_error_data_dependent: geomean_or_0(errors().filter(|&e| e > 1e-3).collect()),
        max_csr_overestimate: csr.iter().copied().fold(0.0, f64::max),
        csr_always_over: !csr.is_empty() && csr.iter().all(|&r| r > 1.0),
        lines,
    }
}

/// Builds the [`Report`] aggregates from finished rows and volume lines.
fn aggregate(rows: Vec<Row>, lines: Vec<LineRow>) -> Report {
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
        volume: volume(lines),
    }
}

/// Runs the calibration sweep over every registered workload, each from
/// its plan in `cache`; the [`Volume`] table reads §V's set, Table I plus
/// SparseMV.
///
/// # Panics
///
/// Panics if a registered workload fails to plan or run.
#[must_use]
pub fn run(config: &SystemConfig, cache: &PlanCache) -> Report {
    let grid = crate::sweep::run_grid(isp_workloads::full_set(), |w| {
        run_workload(&w, config, cache)
    });
    let (rows, lines): (Vec<Row>, Vec<Vec<LineRow>>) = grid.into_iter().unzip();
    // `full_set` is §V's set followed by the wire-format workloads.
    let volume_set = isp_workloads::with_sparsemv().len();
    aggregate(rows, lines.into_iter().take(volume_set).flatten().collect())
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
    check_volume(&report.volume)
}

/// Geomean volume error over every non-CSR line.
const VOLUME_ERROR: Band = Band {
    what: "volume geomean error",
    paper: "≈ 9 %",
    lo: 0.0,
    hi: 0.199,
};

/// Geomean volume error over the data-dependent lines; the floor asks
/// only that some line is off by more than 10⁻³ (Known deviation 4).
const DATA_DEPENDENT_ERROR: Band = Band {
    what: "data-dependent volume error",
    paper: "≈ 9 %",
    lo: 0.0011,
    hi: 0.199,
};

/// The worst CSR over-estimation factor.
const CSR_OVERESTIMATE: Band = Band {
    what: "CSR over-estimate",
    paper: "up to 2.41×, always over",
    lo: 1.51,
    hi: 3.49,
};

/// §V's volume claims: errors in the paper's single-digit-percent band,
/// the CSR conversion over-estimated near its 2.41× and never under.
fn check_volume(v: &Volume) -> Result<(), String> {
    VOLUME_ERROR.check(v.geomean_error)?;
    DATA_DEPENDENT_ERROR.check(v.geomean_error_data_dependent)?;
    CSR_OVERESTIMATE.check(v.max_csr_overestimate)?;
    match v.lines.iter().find(|l| l.is_csr && l.ratio <= 1.0) {
        Some(l) => Err(format!(
            "{} line {}: CSR volume predicted at {:.3}x the measurement, not over",
            l.workload, l.line, l.ratio
        )),
        None => Ok(()),
    }
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
    let v = &report.volume;
    println!();
    println!("== Volume-prediction accuracy (Eq. 1 inputs, clean cells) ==");
    println!(
        "{:<14} {:>4} {:>12} {:>12} {:>7}  line",
        "workload", "ln", "predicted", "measured", "ratio"
    );
    for l in &v.lines {
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
        v.geomean_error * 100.0,
        v.geomean_error_data_dependent * 100.0
    );
    println!(
        "CSR conversions over-estimated by up to {:.2}x (paper: up to 2.41x), always over: {}",
        v.max_csr_overestimate, v.csr_always_over
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fails_naming;

    #[test]
    fn focused_sweep_calibrates_and_flips() {
        let config = SystemConfig::paper_default();
        let w = isp_workloads::by_name("TPC-H-6").expect("registered");
        let (row, lines) = run_workload(&w, &config, &PlanCache::new());
        let report = aggregate(vec![row], lines);
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

    #[test]
    fn pagerank_over_estimates_its_csr_conversion() {
        let config = SystemConfig::paper_default();
        let w = isp_workloads::by_name("PageRank").expect("registered");
        let (_, lines) = run_workload(&w, &config, &PlanCache::new());
        let csr = lines
            .iter()
            .find(|l| l.is_csr)
            .expect("PageRank's to_csr line moves more than a megabyte");
        assert!(csr.source.contains("to_csr"), "{csr:?}");
        assert!(csr.ratio > 1.0, "over, never under: {csr:?}");
    }

    /// A report that passes [`check`]: one offloaded workload that flips
    /// when contended, one non-CSR line 5 % over and one CSR line 2× over.
    fn passing() -> Report {
        let row = Row {
            name: "W".to_owned(),
            lines_audited: 2,
            offloaded: true,
            clean_err_ppm: 1_000,
            clean_flips: 0,
            contended_err_ppm: 500_000,
            contended_flips: 1,
            profile_version: 1,
            flip_explanation: "line 0: measured costs favor host".to_owned(),
            values_match: true,
        };
        aggregate(vec![row], vec![line(0, 1.05, false), line(1, 2.0, true)])
    }

    fn line(line: usize, ratio: f64, is_csr: bool) -> LineRow {
        let measured_out = 1_000_000;
        let predicted_out = (measured_out as f64 * ratio) as u64;
        LineRow {
            workload: "W".to_owned(),
            line,
            source: String::new(),
            predicted_out,
            measured_out,
            ratio: predicted_out as f64 / measured_out as f64,
            is_csr,
        }
    }

    #[test]
    fn check_passes_the_paper_shaped_stub() {
        let report = passing();
        assert!((report.volume.geomean_error - 0.05).abs() < 1e-9);
        assert!((report.volume.max_csr_overestimate - 2.0).abs() < 1e-9);
        assert!(report.volume.csr_always_over);
        assert_eq!(check(&report), Ok(()));
    }

    #[test]
    fn check_fails_a_volume_geomean_error_of_a_fifth() {
        let mut report = passing();
        report.volume.geomean_error = 0.2;
        fails_naming(check(&report), "volume geomean error");
    }

    #[test]
    fn check_fails_a_data_dependent_error_outside_its_band() {
        for err in [0.001, 0.2] {
            let mut report = passing();
            report.volume.geomean_error_data_dependent = err;
            fails_naming(check(&report), "data-dependent volume error");
        }
    }

    #[test]
    fn check_fails_a_csr_over_estimate_far_from_the_papers() {
        for over in [1.5, 3.5, 0.0] {
            let mut report = passing();
            report.volume.max_csr_overestimate = over;
            fails_naming(check(&report), "CSR over-estimate");
        }
    }

    #[test]
    fn check_fails_a_csr_line_that_is_not_over_estimated() {
        let mut report = passing();
        report.volume.lines.push(line(2, 1.0, true));
        fails_naming(check(&report), "W line 2: CSR volume predicted at 1.000x");
    }
}
