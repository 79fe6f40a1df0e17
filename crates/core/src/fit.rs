//! Complexity-curve fitting and extrapolation (§III-A).
//!
//! "Since our sampling mechanism grows F exponentially, ActivePy can
//! extrapolate the execution time and change to the raw data size for each
//! line once four sample runs are complete. ActivePy predicts the execution
//! time and data-size changes by selecting the closest fit from one of five
//! curves — O(1), O(n), O(n log n), O(n²), and O(n³)."
//!
//! Each scalar series (compute ops, storage bytes, input/output volumes,
//! copy traffic) is fit independently: for every candidate curve `g`, the
//! least-squares coefficient is `c = Σ yᵢ·g(nᵢ) / Σ g(nᵢ)²`, the candidate
//! with the smallest normalized residual wins, and the prediction at full
//! scale is `c · g(n_full)`.

use crate::error::{ActivePyError, Result};
use crate::sampling::LineSamples;
use alang::LineCost;
use serde::Serialize;
use std::fmt;

/// The five candidate complexity classes. The discriminant is the class's
/// one-byte tag wherever a fitted curve is hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[repr(u8)]
pub enum Complexity {
    /// Constant.
    O1 = 0,
    /// Linear.
    ON = 1,
    /// Linearithmic.
    ONLogN = 2,
    /// Quadratic.
    ON2 = 3,
    /// Cubic.
    ON3 = 4,
}

impl Complexity {
    /// All candidates, in the paper's order.
    pub const ALL: [Complexity; 5] = [
        Complexity::O1,
        Complexity::ON,
        Complexity::ONLogN,
        Complexity::ON2,
        Complexity::ON3,
    ];

    /// The class's one-byte tag.
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Evaluates the curve's basis function at input size `n`.
    #[must_use]
    pub fn g(self, n: f64) -> f64 {
        match self {
            Complexity::O1 => 1.0,
            Complexity::ON => n,
            Complexity::ONLogN => n * n.max(2.0).log2(),
            Complexity::ON2 => n * n,
            Complexity::ON3 => n * n * n,
        }
    }
}

impl fmt::Display for Complexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Complexity::O1 => write!(f, "O(1)"),
            Complexity::ON => write!(f, "O(n)"),
            Complexity::ONLogN => write!(f, "O(n log n)"),
            Complexity::ON2 => write!(f, "O(n^2)"),
            Complexity::ON3 => write!(f, "O(n^3)"),
        }
    }
}

/// A fitted curve for one scalar series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FittedCurve {
    /// The winning complexity class.
    pub complexity: Complexity,
    /// Least-squares coefficient.
    pub coefficient: f64,
    /// Normalized root-mean-square residual of the winning fit.
    pub residual: f64,
}

impl FittedCurve {
    /// Predicts the series value at input size `n`.
    #[must_use]
    pub fn predict(&self, n: f64) -> f64 {
        (self.coefficient * self.complexity.g(n)).max(0.0)
    }
}

/// `ln g(n)` of every class at each sample size met so far: the sizes are
/// the same few for every series of a sampling report.
#[derive(Debug, Default)]
struct LogBasis {
    sizes: Vec<(u64, [f64; 5])>,
}

impl LogBasis {
    /// `ln g(n)` of each class, in [`Complexity::ALL`]'s order.
    fn at(&mut self, n: f64) -> [f64; 5] {
        let bits = n.to_bits();
        if let Some((_, logs)) = self.sizes.iter().find(|(b, _)| *b == bits) {
            return *logs;
        }
        let logs = Complexity::ALL.map(|c| c.g(n).ln());
        self.sizes.push((bits, logs));
        logs
    }
}

/// Fits the best of the five curves to `(n, y)` points.
///
/// Fitting runs in log space — `ln y ≈ ln c + ln g(n)` — which is
/// scale-invariant across the paper's exponentially-spaced sample sizes
/// and robust to multiplicative measurement noise. Zero-valued series fit
/// a zero-coefficient constant.
///
/// # Errors
///
/// Returns an error if fewer than two points are supplied.
pub fn fit_series(points: &[(f64, f64)]) -> Result<FittedCurve> {
    fit_logs(points, &mut LogBasis::default())
}

/// [`fit_series`] taking each `ln g(n)` from `basis`: every logarithm is
/// taken once per point or size, and the exponential once, for the winner.
fn fit_logs(points: &[(f64, f64)], basis: &mut LogBasis) -> Result<FittedCurve> {
    if points.len() < 2 {
        return Err(ActivePyError::Fit {
            message: format!("need at least 2 points, got {}", points.len()),
        });
    }
    let positive: Vec<(f64, [f64; 5])> = points
        .iter()
        .filter(|(n, y)| *y > 0.0 && *n > 0.0)
        .map(|(n, y)| (y.ln(), basis.at(*n)))
        .collect();
    if positive.len() < 2 {
        // An (almost) everywhere-zero series: predict zero.
        return Ok(FittedCurve {
            complexity: Complexity::O1,
            coefficient: 0.0,
            residual: 0.0,
        });
    }
    let count = positive.len() as f64;
    // (class, ln c, residual) of the best fit so far.
    let mut best: Option<(Complexity, f64, f64)> = None;
    for (k, complexity) in Complexity::ALL.into_iter().enumerate() {
        // ln c = mean(ln y − ln g(n)); residual = RMS in log space.
        let logs = || positive.iter().map(|(ln_y, ln_g)| ln_y - ln_g[k]);
        let ln_c = logs().sum::<f64>() / count;
        let mse = logs().map(|l| (l - ln_c) * (l - ln_c)).sum::<f64>() / count;
        let residual = mse.sqrt();
        if best.is_none_or(|(_, _, r)| residual < r - 1e-12) {
            best = Some((complexity, ln_c, residual));
        }
    }
    let (complexity, ln_c, residual) = best.expect("five candidates");
    Ok(FittedCurve {
        complexity,
        coefficient: ln_c.exp(),
        residual,
    })
}

/// The full-scale prediction for one line, with the curves that produced
/// it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinePrediction {
    /// The line index.
    pub line: usize,
    /// Predicted full-scale cost.
    pub cost: LineCost,
    /// The curve fitted to compute operations.
    pub compute_curve: FittedCurve,
    /// The curve fitted to output volume (the paper's headline accuracy
    /// metric: "ActivePy's mechanism usually makes very accurate
    /// predictions on data volume changes").
    pub out_curve: FittedCurve,
}

/// Extrapolates every sampled line to full scale (`n = 1.0` in scale
/// units; callers may use any consistent size unit for `n`).
///
/// # Errors
///
/// Propagates fitting failures (fewer than two sample points).
pub fn predict_lines(samples: &[LineSamples]) -> Result<Vec<LinePrediction>> {
    let basis = &mut LogBasis::default();
    samples
        .iter()
        .map(|ls| {
            let series = |f: &dyn Fn(&LineCost) -> u64| -> Vec<(f64, f64)> {
                ls.points
                    .iter()
                    .map(|p| (p.scale, f(&p.cost) as f64))
                    .collect()
            };
            let compute = fit_logs(&series(&|c| c.compute_ops), basis)?;
            let storage = fit_logs(&series(&|c| c.storage_bytes), basis)?;
            let bytes_in = fit_logs(&series(&|c| c.bytes_in), basis)?;
            let bytes_out = fit_logs(&series(&|c| c.bytes_out), basis)?;
            let copies = fit_logs(&series(&|c| c.copy_bytes), basis)?;
            let elim = fit_logs(&series(&|c| c.eliminable_copy_bytes), basis)?;
            let calls = ls.points.last().map_or(0, |p| p.cost.calls);
            let cost = LineCost {
                compute_ops: compute.predict(1.0).round() as u64,
                storage_bytes: storage.predict(1.0).round() as u64,
                bytes_in: bytes_in.predict(1.0).round() as u64,
                bytes_out: bytes_out.predict(1.0).round() as u64,
                copy_bytes: copies.predict(1.0).round() as u64,
                eliminable_copy_bytes: elim.predict(1.0).round() as u64,
                calls,
            };
            Ok(LinePrediction {
                line: ls.line,
                cost,
                compute_curve: compute,
                out_curve: bytes_out,
            })
        })
        .collect()
}

/// The pseudo-count the sampling fit is worth when blending against
/// measured observations: the paper's four exponentially-spaced sample
/// runs. One full-scale observation moves the blend to 1/5 measured;
/// after four observed runs the profile and the fit carry equal weight,
/// and the blend converges to the measured mean as runs accumulate.
pub const BLEND_PRIOR_RUNS: f64 = 4.0;

/// Blends measured full-scale observations into sampled predictions.
///
/// For every line with at least one recorded observation, each cost field
/// becomes `(1 − w)·predicted + w·measured_mean` with
/// `w = count / (count + BLEND_PRIOR_RUNS)` — a deterministic
/// observation-count-weighted average that never overshoots either input.
/// Lines without observations (and the fitted curves themselves, which
/// still describe how costs scale) pass through unchanged. `calls` is
/// taken from the observation when present: it is an exact integer, not
/// an extrapolation.
#[must_use]
pub fn blend_predictions(
    predictions: &[LinePrediction],
    profile: &crate::profile::WorkloadProfile,
) -> Vec<LinePrediction> {
    predictions
        .iter()
        .map(|p| {
            let Some(obs) = profile.observation(p.line) else {
                return p.clone();
            };
            let w = obs.count as f64 / (obs.count as f64 + BLEND_PRIOR_RUNS);
            let measured = obs.mean_cost();
            let mix = |pred: u64, meas: u64| -> u64 {
                ((1.0 - w) * pred as f64 + w * meas as f64).round() as u64
            };
            let cost = LineCost {
                compute_ops: mix(p.cost.compute_ops, measured.compute_ops),
                storage_bytes: mix(p.cost.storage_bytes, measured.storage_bytes),
                bytes_in: mix(p.cost.bytes_in, measured.bytes_in),
                bytes_out: mix(p.cost.bytes_out, measured.bytes_out),
                copy_bytes: mix(p.cost.copy_bytes, measured.copy_bytes),
                eliminable_copy_bytes: mix(
                    p.cost.eliminable_copy_bytes,
                    measured.eliminable_copy_bytes,
                ),
                calls: measured.calls,
            };
            LinePrediction { cost, ..p.clone() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplePoint;

    fn pts(f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
        [1.0 / 1024.0, 1.0 / 512.0, 1.0 / 256.0, 1.0 / 128.0]
            .iter()
            .map(|&n| (n, f(n)))
            .collect()
    }

    #[test]
    fn recovers_linear() {
        let fit = fit_series(&pts(|n| 7.0 * n)).expect("fit");
        assert_eq!(fit.complexity, Complexity::ON);
        assert!((fit.coefficient - 7.0).abs() < 1e-9);
        assert!((fit.predict(1.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_constant() {
        let fit = fit_series(&pts(|_| 42.0)).expect("fit");
        assert_eq!(fit.complexity, Complexity::O1);
        assert!((fit.predict(1.0) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_quadratic_and_cubic() {
        let q = fit_series(&pts(|n| 3.0 * n * n)).expect("fit");
        assert_eq!(q.complexity, Complexity::ON2);
        let c = fit_series(&pts(|n| 2.0 * n * n * n)).expect("fit");
        assert_eq!(c.complexity, Complexity::ON3);
    }

    #[test]
    fn recovers_nlogn_against_neighbors() {
        // Use absolute sizes (not sub-unity scales) so the log term varies.
        let points: Vec<(f64, f64)> = [1024.0, 2048.0, 4096.0, 8192.0]
            .iter()
            .map(|&n: &f64| (n, 5.0 * n * n.log2()))
            .collect();
        let fit = fit_series(&points).expect("fit");
        assert_eq!(fit.complexity, Complexity::ONLogN);
    }

    #[test]
    fn noisy_linear_still_linear() {
        let noisy: Vec<(f64, f64)> = pts(|n| 7.0 * n)
            .into_iter()
            .enumerate()
            .map(|(i, (n, y))| (n, y * (1.0 + 0.03 * if i % 2 == 0 { 1.0 } else { -1.0 })))
            .collect();
        let fit = fit_series(&noisy).expect("fit");
        assert_eq!(fit.complexity, Complexity::ON);
        assert!(fit.residual < 0.05, "log-space residual ~0.03 for 3% noise");
    }

    #[test]
    fn too_few_points_rejected() {
        assert!(fit_series(&[(1.0, 1.0)]).is_err());
        assert!(fit_series(&[]).is_err());
    }

    #[test]
    fn zero_series_predicts_zero() {
        let fit = fit_series(&pts(|_| 0.0)).expect("fit");
        assert_eq!(fit.predict(1.0), 0.0);
    }

    #[test]
    fn predict_lines_extrapolates_all_fields() {
        // A perfectly linear line cost across scales.
        let samples = vec![LineSamples {
            line: 0,
            points: [0.001, 0.002, 0.004, 0.008]
                .iter()
                .map(|&scale| SamplePoint {
                    scale,
                    cost: LineCost {
                        compute_ops: (1e9 * scale) as u64,
                        storage_bytes: (8e8 * scale) as u64,
                        bytes_in: (4e8 * scale) as u64,
                        bytes_out: (1e8 * scale) as u64,
                        copy_bytes: (2e8 * scale) as u64,
                        eliminable_copy_bytes: (2e8 * scale) as u64,
                        calls: 2,
                    },
                })
                .collect(),
        }];
        let preds = predict_lines(&samples).expect("predict");
        let c = &preds[0].cost;
        assert!((c.compute_ops as f64 - 1e9).abs() / 1e9 < 0.01);
        assert!((c.bytes_out as f64 - 1e8).abs() / 1e8 < 0.01);
        assert_eq!(c.calls, 2);
        assert_eq!(preds[0].compute_curve.complexity, Complexity::ON);
    }

    /// The fit as first written, every logarithm and exponential taken per
    /// candidate: the winner's class, coefficient bits and residual bits.
    fn fit_reference(points: &[(f64, f64)]) -> (Complexity, u64, u64) {
        let positive = || points.iter().filter(|(n, y)| *y > 0.0 && *n > 0.0);
        if positive().count() < 2 {
            return (Complexity::O1, 0, 0);
        }
        let mut best: Option<(Complexity, f64, f64)> = None;
        for complexity in Complexity::ALL {
            let logs: Vec<f64> = positive()
                .map(|(n, y)| y.ln() - complexity.g(*n).ln())
                .collect();
            let ln_c = logs.iter().sum::<f64>() / logs.len() as f64;
            let mse = logs.iter().map(|l| (l - ln_c) * (l - ln_c)).sum::<f64>() / logs.len() as f64;
            let candidate = (complexity, ln_c.exp(), mse.sqrt());
            if best.is_none_or(|b| candidate.2 < b.2 - 1e-12) {
                best = Some(candidate);
            }
        }
        let (complexity, coefficient, residual) = best.expect("five candidates");
        (complexity, coefficient.to_bits(), residual.to_bits())
    }

    fn bits(curve: &FittedCurve) -> (Complexity, u64, u64) {
        (
            curve.complexity,
            curve.coefficient.to_bits(),
            curve.residual.to_bits(),
        )
    }

    #[test]
    fn every_registered_reports_curves_are_the_reference_fits_to_the_bit() {
        use crate::sampling::{paper_scales, run_sampling};
        let fields: [fn(&LineCost) -> u64; 6] = [
            |c| c.compute_ops,
            |c| c.storage_bytes,
            |c| c.bytes_in,
            |c| c.bytes_out,
            |c| c.copy_bytes,
            |c| c.eliminable_copy_bytes,
        ];
        let mut fits = 0;
        for w in isp_workloads::full_set() {
            let program = w.program().expect("parses");
            let source = |scale: f64| w.storage_at(scale);
            let report = run_sampling(&program, &source, &paper_scales()).expect("samples");
            let predictions = predict_lines(&report.lines).expect("fits");
            for (ls, prediction) in report.lines.iter().zip(&predictions) {
                let series = |f: fn(&LineCost) -> u64| -> Vec<(f64, f64)> {
                    ls.points
                        .iter()
                        .map(|p| (p.scale, f(&p.cost) as f64))
                        .collect()
                };
                for field in fields {
                    let points = series(field);
                    let reference = fit_reference(&points);
                    assert_eq!(
                        bits(&fit_series(&points).expect("fits")),
                        reference,
                        "{}",
                        w.name()
                    );
                    fits += usize::from(reference.1 != 0);
                }
                let compute = fit_reference(&series(fields[0]));
                let out = fit_reference(&series(fields[3]));
                assert_eq!(bits(&prediction.compute_curve), compute, "{}", w.name());
                assert_eq!(bits(&prediction.out_curve), out, "{}", w.name());
            }
        }
        assert!(fits > 300, "{fits} series fit a non-zero curve");
    }

    #[test]
    fn a_class_tag_is_its_discriminant_in_the_papers_order() {
        let tags: Vec<u8> = Complexity::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(tags, [0, 1, 2, 3, 4]);
    }

    fn line_prediction(line: usize, compute_ops: u64) -> LinePrediction {
        let curve = FittedCurve {
            complexity: Complexity::ON,
            coefficient: compute_ops as f64,
            residual: 0.0,
        };
        LinePrediction {
            line,
            cost: LineCost {
                compute_ops,
                bytes_out: 1_000,
                calls: 1,
                ..LineCost::zero()
            },
            compute_curve: curve,
            out_curve: curve,
        }
    }

    #[test]
    fn blend_is_observation_count_weighted() {
        let mut profile = crate::profile::WorkloadProfile::default();
        // Four observed runs at 2_000 ops vs a 1_000-op prediction:
        // w = 4 / (4 + 4) = 0.5 → blended 1_500.
        let measured = LineCost {
            compute_ops: 2_000,
            bytes_out: 1_000,
            calls: 1,
            ..LineCost::zero()
        };
        for _ in 0..4 {
            profile.record_run(&[measured]);
        }
        let blended = blend_predictions(&[line_prediction(0, 1_000)], &profile);
        assert_eq!(blended[0].cost.compute_ops, 1_500);
        assert_eq!(blended[0].cost.bytes_out, 1_000, "agreeing fields fixed");
        // Many more runs: converges toward the measured mean.
        for _ in 0..96 {
            profile.record_run(&[measured]);
        }
        let converged = blend_predictions(&[line_prediction(0, 1_000)], &profile);
        assert!(converged[0].cost.compute_ops > 1_950);
    }

    #[test]
    fn blend_passes_unobserved_lines_through() {
        let profile = crate::profile::WorkloadProfile::default();
        let preds = vec![line_prediction(0, 1_000), line_prediction(1, 3_000)];
        assert_eq!(blend_predictions(&preds, &profile), preds);
    }

    #[test]
    fn blend_is_deterministic_across_recording_orders() {
        let runs = [500u64, 1_500, 2_500];
        let mut forward = crate::profile::WorkloadProfile::default();
        let mut reverse = crate::profile::WorkloadProfile::default();
        for ops in runs {
            forward.record_run(&[LineCost {
                compute_ops: ops,
                ..LineCost::zero()
            }]);
        }
        for ops in runs.iter().rev() {
            reverse.record_run(&[LineCost {
                compute_ops: *ops,
                ..LineCost::zero()
            }]);
        }
        let preds = vec![line_prediction(0, 1_000)];
        assert_eq!(
            blend_predictions(&preds, &forward),
            blend_predictions(&preds, &reverse)
        );
    }
}
