//! The planner-audit observatory: Eq. 1 predicted-vs-measured calibration.
//!
//! Algorithm 1 places lines using Eq. 1 *predictions*; the monitors of
//! §III-D correct the plan when reality diverges. This module makes the
//! divergence itself first-class: at plan time every per-line Eq. 1 term
//! is captured as an [`Eq1Term`] into [`crate::plan::OffloadPlan::eq1`],
//! the one place the terms live; after execution, [`calibrate`] joins the
//! plan's terms against a report's measured [`alang::LineCost`]s and
//! per-line wall-clock into a [`CalibrationReport`]: per-line time and
//! output-volume error, and the counterfactual question no end-to-end run
//! answers — **would Algorithm 1 have flipped this line
//! under the measured costs?** ([`CounterfactualFlip`]).
//!
//! The whole layer is observation-only, like the tracer and the profile
//! recorder: capture happens on data the planner already produced,
//! calibration reads a finished report, and publishing goes through a
//! [`Tracer`] — none of it can perturb the simulated clock, the
//! `values_fingerprint`, migration decisions, or recovery accounting.
//!
//! ## Counterfactual-flip semantics
//!
//! The measured estimates replace predictions with observations *where
//! observations exist*: the engine a line actually ran on gets its
//! measured duration (wall minus input staging, which Eq. 1 charges
//! separately through the `D_in` term); the engine it did not run on
//! keeps its predicted cost; `D_in`/`D_out` become the measured byte
//! counts. Algorithm 1 then re-runs verbatim
//! ([`crate::assign::assign_refined`]) and the symmetric difference
//! against the planned `P_csd` is the flip set. Scaling *both* engines by
//! the observed ratio would cancel contention out of the comparison and
//! never flip anything; replacing only the observed side is exactly the
//! information a re-planner would actually have.

use std::collections::BTreeMap;

use crate::assign::{assign_refined, Assignment};
use crate::estimate::{LineEstimate, Link};
use crate::exec::{LineOutcome, RunReport};
use crate::plan::OffloadPlan;
use crate::profile::WorkloadProfile;
use csd_sim::EngineKind;
use isp_obs::{SpanKind, Tracer};
use serde::Serialize;

/// One line's Eq. 1 terms exactly as Algorithm 1 consumed them.
///
/// Captured at plan time into [`OffloadPlan::eq1`], and kept only there.
/// For wire-format scan lines, `on_csd` *is* the decode placement: decode
/// runs wherever the scan line runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Eq1Term {
    /// The line index.
    pub line: usize,
    /// Predicted input volume `D_in`, bytes.
    pub d_in: u64,
    /// Predicted output volume `D_out`, bytes.
    pub d_out: u64,
    /// Predicted host execution time `CT_host`, seconds.
    pub ct_host: f64,
    /// Predicted device execution time `CT_device`, seconds.
    pub ct_device: f64,
    /// The D2H bandwidth the assignment charged transfers against — the
    /// shared-link `min(link, budget/N)` term for fleet plans.
    pub bw_d2h: f64,
    /// Fleet width the bandwidth term assumed (1 for unsharded plans).
    pub shards: usize,
    /// Eq. 1 net profit `S` of running this line on the CSD in
    /// isolation.
    pub profit: f64,
    /// Algorithm 1's decision: whether the line joined `P_csd`.
    pub on_csd: bool,
}

/// Captures per-line [`Eq1Term`]s from estimates and an assignment.
///
/// `shards` documents the fleet width `bw_d2h` was derived for; pass 1
/// for single-device plans.
#[must_use]
pub fn capture_terms(
    estimates: &[LineEstimate],
    assignment: &Assignment,
    bw_d2h: f64,
    shards: usize,
) -> Vec<Eq1Term> {
    let link = Link::new(bw_d2h);
    estimates
        .iter()
        .map(|e| Eq1Term {
            line: e.line,
            d_in: e.d_in,
            d_out: e.d_out,
            ct_host: e.ct_host,
            ct_device: e.ct_device,
            bw_d2h,
            shards,
            profit: link.net_profit(e),
            on_csd: assignment.csd_lines.contains(&e.line),
        })
        .collect()
}

/// The per-line join of an [`Eq1Term`] against the measured outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LineAudit {
    /// The line index.
    pub line: usize,
    /// The predicted execution time on the engine that actually ran the
    /// line, seconds.
    pub predicted_secs: f64,
    /// The measured execution time on that engine, seconds: per-line wall
    /// minus input staging (Eq. 1 charges staging through `D_in`).
    pub measured_secs: f64,
    /// `|measured − predicted| / max(measured, predicted)`, in `[0, 1]` —
    /// the bounded relative error the histograms and the CI band use.
    pub abs_rel_err: f64,
    /// Predicted output volume, bytes.
    pub predicted_d_out: u64,
    /// Measured output volume, bytes.
    pub measured_d_out: u64,
    /// Whether Algorithm 1 re-run on the measured costs places this line
    /// on the other engine.
    pub flipped: bool,
}

/// One counterfactual placement flip, explained by its Eq. 1 profits.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterfactualFlip {
    /// The line index.
    pub line: usize,
    /// Where the plan put the line, where the measured costs favor it, and
    /// the Eq. 1 net profit `S` under the predicted and the measured terms.
    pub explanation: String,
}

/// The complete predicted-vs-measured calibration of one executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// The workload the plan belongs to.
    pub workload: String,
    /// Per-line audits, ascending line index.
    pub lines: Vec<LineAudit>,
    /// Counterfactual flips, ascending line index (empty when Algorithm 1
    /// stands by its plan under the measured costs).
    pub flips: Vec<CounterfactualFlip>,
    /// The profile version joined against (0 when none was supplied).
    pub profile_version: u64,
}

impl CalibrationReport {
    /// Mean of the bounded per-line relative time errors (0 when no line
    /// did measurable work).
    #[must_use]
    pub fn mean_abs_rel_err(&self) -> f64 {
        if self.lines.is_empty() {
            return 0.0;
        }
        self.lines.iter().map(|l| l.abs_rel_err).sum::<f64>() / self.lines.len() as f64
    }

    /// Publishes the calibration into `tracer`'s unified registry: the
    /// `audit.lines` / `audit.flips` counters, the `audit.time_err_ppm`
    /// and `audit.volume_err_ppm` histograms, and one `audit.line`
    /// instant per audited line (the summarizer's worst-5 table reads
    /// these back from the journal). No-op when the tracer is disabled.
    pub fn publish_to(&self, tracer: &Tracer) {
        if !tracer.is_enabled() {
            return;
        }
        tracer.counter_add("audit.lines", self.lines.len() as u64);
        tracer.counter_add("audit.flips", self.flips.len() as u64);
        for l in &self.lines {
            let time_ppm = ppm(l.abs_rel_err);
            tracer.observe("audit.time_err_ppm", time_ppm);
            tracer.observe(
                "audit.volume_err_ppm",
                ppm(rel_err(l.predicted_d_out as f64, l.measured_d_out as f64)),
            );
            tracer.instant(
                "audit.line",
                SpanKind::Monitor,
                None,
                tracer.attrs(|| {
                    vec![
                        ("workload".into(), self.workload.as_str().into()),
                        ("line".into(), l.line.into()),
                        ("predicted_secs".into(), l.predicted_secs.into()),
                        ("measured_secs".into(), l.measured_secs.into()),
                        ("err_ppm".into(), (time_ppm as usize).into()),
                        ("flipped".into(), l.flipped.into()),
                    ]
                }),
            );
        }
    }
}

/// `|a − b| / max(a, b)`, bounded to `[0, 1]`; 0 when both sides are
/// negligible.
fn rel_err(predicted: f64, measured: f64) -> f64 {
    let denom = predicted.max(measured);
    if denom <= 1e-12 {
        0.0
    } else {
        (measured - predicted).abs() / denom
    }
}

/// A `[0, 1]` relative error as integral parts per million.
fn ppm(rel: f64) -> u64 {
    (rel * 1e6).round() as u64
}

/// Measured Eq. 1 execution time of one line outcome: wall-clock minus
/// the input-staging transfer (charged separately through `D_in`),
/// clamped at zero.
fn measured_ct(outcome: &LineOutcome, link: Link) -> f64 {
    (outcome.end_secs - outcome.start_secs - link.transfer(outcome.staged_bytes)).max(0.0)
}

/// Joins a plan's captured [`Eq1Term`]s (`plan.eq1`, the terms of the
/// assignment the plan executes) against a finished run's measured
/// outcomes into a [`CalibrationReport`], stamped with the version of the
/// workload's [`WorkloadProfile`] when one is given. Lines the run never
/// reached are skipped.
#[must_use]
pub fn calibrate(
    workload: &str,
    plan: &OffloadPlan,
    report: &RunReport,
    profile: Option<&WorkloadProfile>,
) -> CalibrationReport {
    let terms = &plan.eq1;
    let profile_version = profile.map_or(0, |p| p.version);
    // Every term carries the one bandwidth the assignment charged; without
    // terms there is no line to audit.
    let Some(link) = terms.first().map(|t| Link::new(t.bw_d2h)) else {
        return CalibrationReport {
            workload: workload.to_string(),
            lines: Vec::new(),
            flips: Vec::new(),
            profile_version,
        };
    };
    // The outcomes keyed by line; a line the run never reached has none.
    let mut by_line: BTreeMap<usize, &LineOutcome> = BTreeMap::new();
    for l in &report.lines {
        by_line.insert(l.line, l);
    }

    // The counterfactual estimates: observations where we have them,
    // predictions elsewhere (see the module docs for why only the
    // observed engine is replaced).
    let mut measured_est = plan.estimates.clone();
    for est in &mut measured_est {
        let Some(outcome) = by_line.get(&est.line) else {
            continue;
        };
        let m = measured_ct(outcome, link);
        match outcome.engine {
            EngineKind::Cse => est.ct_device = m,
            EngineKind::Host => est.ct_host = m,
        }
        est.d_in = outcome.cost.bytes_in;
        est.d_out = outcome.cost.bytes_out;
    }
    let counterfactual = assign_refined(&plan.program, &measured_est, link.bytes_per_sec());

    let mut lines = Vec::with_capacity(terms.len());
    let mut flips = Vec::new();
    for t in terms {
        let Some(outcome) = by_line.get(&t.line) else {
            continue;
        };
        let ran_csd = outcome.engine == EngineKind::Cse;
        let predicted_secs = if ran_csd { t.ct_device } else { t.ct_host };
        let measured_secs = measured_ct(outcome, link);
        let abs_rel = rel_err(predicted_secs, measured_secs);
        let flipped = counterfactual.csd_lines.contains(&t.line) != t.on_csd;
        lines.push(LineAudit {
            line: t.line,
            predicted_secs,
            measured_secs,
            abs_rel_err: abs_rel,
            predicted_d_out: t.d_out,
            measured_d_out: outcome.cost.bytes_out,
            flipped,
        });
        if flipped {
            let m = &measured_est[t.line.min(measured_est.len().saturating_sub(1))];
            let measured_profit = link.net_profit(m);
            let target = plan
                .program
                .lines()
                .get(t.line)
                .map_or_else(|| "?".to_string(), |l| l.target.clone());
            flips.push(CounterfactualFlip {
                line: t.line,
                explanation: format!(
                    "line {} (`{}`): planned {}, measured costs favor {} \
                     (predicted S {:+.4}s, measured S {:+.4}s)",
                    t.line,
                    target,
                    if t.on_csd { "CSD" } else { "host" },
                    if t.on_csd { "host" } else { "CSD" },
                    t.profit,
                    measured_profit,
                ),
            });
        }
    }

    CalibrationReport {
        workload: workload.to_string(),
        lines,
        flips,
        profile_version,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanCache;
    use crate::runtime::ActivePy;
    use crate::sampling::test_input as input;
    use alang::parser::parse;
    use csd_sim::{ContentionScenario, SystemConfig};

    const SRC: &str = "a = scan('v')\nm = a < 50\nb = select(a, m)\ns = sum(b)\n";

    fn plan_and_run(
        scenario: ContentionScenario,
    ) -> (
        std::sync::Arc<OffloadPlan>,
        RunReport,
        ActivePy,
        SystemConfig,
    ) {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let plan = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let outcome = rt.execute_plan(&plan, &config, scenario).expect("execute");
        (plan, outcome.report, rt, config)
    }

    #[test]
    fn plans_capture_one_term_per_line_with_consistent_profit_sign() {
        let (plan, _, _, _) = plan_and_run(ContentionScenario::none());
        assert_eq!(plan.eq1.len(), 4);
        for t in &plan.eq1 {
            assert_eq!(t.shards, 1);
            assert!(t.bw_d2h > 0.0);
            let e = LineEstimate {
                line: t.line,
                ct_host: t.ct_host,
                ct_device: t.ct_device,
                d_in: t.d_in,
                d_out: t.d_out,
                ops: 0,
            };
            assert!((t.profit - Link::new(t.bw_d2h).net_profit(&e)).abs() < 1e-12);
        }
        // Algorithm 1 offloads the scan; its *isolated* Eq. 1 profit is
        // negative (the full 8 GB D_out is charged as crossing until the
        // filter joins — the lookahead hump), which is exactly why the
        // term captures the raw ingredients rather than only the sign.
        assert!(plan.eq1[0].on_csd);
        assert!(plan.eq1[0].d_out > 1_000_000_000);
    }

    #[test]
    fn uncontended_calibration_is_tight_and_flip_free() {
        let (plan, report, _, _) = plan_and_run(ContentionScenario::none());
        let audit = calibrate("w", &plan, &report, None);
        assert_eq!(audit.lines.len(), 4);
        assert!(
            audit.mean_abs_rel_err() < 0.35,
            "uncontended predictions should be close: {}",
            audit.mean_abs_rel_err()
        );
        assert!(
            audit.flips.is_empty(),
            "no contention, no reason to flip: {:?}",
            audit.flips
        );
    }

    #[test]
    fn contended_run_flips_the_offloaded_lines() {
        // Drop the CSE to 10 % availability from the start: measured
        // device time balloons ~10x and Algorithm 1, shown those costs,
        // must pull work back to the host.
        let (plan, report, _, _) = plan_and_run(ContentionScenario::at_time(
            csd_sim::units::SimTime::from_secs(0.0),
            0.1,
        ));
        let audit = calibrate("w", &plan, &report, None);
        assert!(
            !audit.flips.is_empty(),
            "10% availability must flip at least one planned-CSD line"
        );
        let flip = &audit.flips[0];
        assert!(
            flip.explanation
                .contains("planned CSD, measured costs favor host"),
            "the flip pulls work back to the host: {flip:?}"
        );
        let profit = |label: &str| -> f64 {
            let at = flip.explanation.find(label).expect(label) + label.len();
            let rest = &flip.explanation[at..];
            rest[..rest.find('s').expect("seconds")].parse().expect("S")
        };
        assert!(
            profit("measured S ") < profit("predicted S "),
            "measured profit must have collapsed: {flip:?}"
        );
        // The flip is also flagged on the per-line join.
        assert!(audit.lines.iter().any(|l| l.line == flip.line && l.flipped));
    }

    #[test]
    fn profile_join_records_the_profile_version() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let plan = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let store = std::sync::Arc::new(crate::profile::ProfileStore::new());
        let key = PlanCache::key_for(&rt, "w", &input(), &config);
        let recorder =
            crate::profile::ProfileRecorder::to_store(std::sync::Arc::clone(&store), key.clone());
        let rt_rec = ActivePy::with_options(
            crate::runtime::ActivePyOptions::default().with_profile(recorder),
        );
        let outcome = rt_rec
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("execute");
        let profile = store.profile(&key);
        assert_eq!(profile.version, 1);
        let audit = calibrate("w", &plan, &outcome.report, Some(&profile));
        assert_eq!(audit.profile_version, 1);
    }

    #[test]
    fn calibration_is_observation_only() {
        // Publishing an audit to a live tracer must not perturb anything:
        // run twice, audit one of them, reports stay identical.
        let (plan, report, rt, config) = plan_and_run(ContentionScenario::none());
        let audit = calibrate("w", &plan, &report, None);
        let (tracer, _sink) = Tracer::to_memory();
        audit.publish_to(&tracer);
        audit.publish_to(&Tracer::disabled());
        let again = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("re-execute");
        assert_eq!(report, again.report);
        let reg = tracer.metrics_snapshot().expect("enabled");
        assert_eq!(reg.counter("audit.lines"), Some(4));
        assert_eq!(reg.counter("audit.flips"), Some(0));
        assert_eq!(
            reg.histogram("audit.time_err_ppm").map(|h| h.count),
            Some(4)
        );
    }
}
