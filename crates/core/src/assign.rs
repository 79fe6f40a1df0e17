//! Algorithm 1: CSD code assignment (§III-B).
//!
//! The greedy pass walks the program line by line, projecting the total
//! execution time if the line joined the CSD partition. The transfer-cost
//! sign depends on adjacency: when the *previous* line already runs on the
//! CSD, pulling this line over *removes* a device-to-host crossing for its
//! input (`− D_in/BW`), whereas an isolated line *adds* one (`+ D_in/BW`);
//! the output crossing (`+ D_out/BW`) is always charged. A line is adopted
//! only when the projected time strictly improves.

use crate::estimate::LineEstimate;
use alang::Program;
use csd_sim::engine::EngineKind;
use isp_obs::{SpanKind, Tracer};
use serde::Serialize;
use std::collections::BTreeSet;

/// The outcome of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Assignment {
    /// Indices of lines assigned to the CSD (`P_csd`).
    pub csd_lines: BTreeSet<usize>,
    /// Projected all-host execution time (`T_host`), seconds.
    pub t_host: f64,
    /// Projected execution time of the chosen split (`T_csd`), seconds.
    pub t_csd: f64,
}

impl Assignment {
    /// An all-host assignment for `estimates`.
    #[must_use]
    pub fn all_host(estimates: &[LineEstimate]) -> Self {
        let t_host = estimates.iter().map(|e| e.ct_host).sum();
        Assignment {
            csd_lines: BTreeSet::new(),
            t_host,
            t_csd: t_host,
        }
    }

    /// Per-line engine placement implied by this assignment.
    #[must_use]
    pub fn placements(&self, line_count: usize) -> Vec<EngineKind> {
        (0..line_count)
            .map(|i| {
                if self.csd_lines.contains(&i) {
                    EngineKind::Cse
                } else {
                    EngineKind::Host
                }
            })
            .collect()
    }

    /// The contiguous CSD regions `[start, end]` (inclusive) in line order
    /// — each becomes one generated CSD function.
    #[must_use]
    pub fn csd_regions(&self) -> Vec<(usize, usize)> {
        let mut regions = Vec::new();
        let mut iter = self.csd_lines.iter().copied();
        let Some(mut start) = iter.next() else {
            return regions;
        };
        let mut prev = start;
        for i in iter {
            if i == prev + 1 {
                prev = i;
            } else {
                regions.push((start, prev));
                start = i;
                prev = i;
            }
        }
        regions.push((start, prev));
        regions
    }
}

/// How far ahead [`assign`] tentatively extends a candidate CSD region
/// while the projected time is still above the incumbent.
const LOOKAHEAD_LINES: usize = 8;

/// Algorithm 1's per-line time delta of adding line `est` to `P_csd`.
fn delta(est: &LineEstimate, prev_on_csd: bool, bw_d2h: f64) -> f64 {
    let d_in = est.d_in as f64 / bw_d2h;
    let d_out = est.d_out as f64 / bw_d2h;
    if prev_on_csd {
        -est.ct_host + est.ct_device - d_in + d_out
    } else {
        -est.ct_host + est.ct_device + d_in + d_out
    }
}

/// Runs Algorithm 1's greedy loop exactly as printed in the paper: a line
/// joins `P_csd` only when the projected time strictly improves.
///
/// Because a storage-scan line's full output is charged as crossing the
/// interconnect until its consumer also joins, the verbatim greedy cannot
/// cross the scan→filter "hump"; prefer [`assign`], which implements the
/// prose of §III-B ("records the assignment that yields the shortest
/// execution time") with bounded lookahead. The verbatim variant is kept
/// for the design-ablation experiments.
///
/// # Panics
///
/// Panics if `bw_d2h` is not strictly positive.
#[must_use]
pub fn assign_greedy(estimates: &[LineEstimate], bw_d2h: f64) -> Assignment {
    assert!(bw_d2h > 0.0, "BW_D2H must be positive");
    let t_host: f64 = estimates.iter().map(|e| e.ct_host).sum();
    let mut t_csd = t_host;
    let mut csd_lines = BTreeSet::new();
    for (i, est) in estimates.iter().enumerate() {
        let prev_on_csd = i == 0 || csd_lines.contains(&(i - 1));
        let projected = t_csd + delta(est, prev_on_csd, bw_d2h);
        if projected < t_csd && t_csd <= t_host {
            csd_lines.insert(i);
            t_csd = projected;
        }
    }
    Assignment {
        csd_lines,
        t_host,
        t_csd,
    }
}

/// Runs Algorithm 1 over per-line estimates.
///
/// `bw_d2h` is the effective device-to-host bandwidth in bytes per second
/// (`BW_D2H` in Eq. 1). In addition to the printed greedy step, the pass
/// implements the paper's prose — ActivePy "records the assignment that
/// yields the shortest execution time" — by tentatively extending a
/// candidate region a bounded number of lines when a line is not
/// profitable alone, and adopting the prefix that minimizes the projected
/// time. This is what lets a storage scan (whose bulky output would
/// otherwise be charged as crossing the interconnect) be adopted together
/// with the filter that consumes it.
///
/// # Panics
///
/// Panics if `bw_d2h` is not strictly positive.
#[must_use]
pub fn assign(estimates: &[LineEstimate], bw_d2h: f64) -> Assignment {
    assert!(bw_d2h > 0.0, "BW_D2H must be positive");
    let t_host: f64 = estimates.iter().map(|e| e.ct_host).sum();
    let mut t_csd = t_host;
    let mut csd_lines: BTreeSet<usize> = BTreeSet::new();
    let mut i = 0;
    while i < estimates.len() {
        let prev_on_csd = i == 0 || csd_lines.contains(&(i - 1));
        let projected = t_csd + delta(&estimates[i], prev_on_csd, bw_d2h);
        if projected < t_csd {
            csd_lines.insert(i);
            t_csd = projected;
            i += 1;
            continue;
        }
        // Not profitable alone: tentatively grow a region starting here and
        // keep the best prefix, if any prefix beats the incumbent.
        let mut tentative = projected;
        let mut best_t = t_csd;
        let mut best_len = 0usize;
        if tentative < best_t {
            best_t = tentative;
            best_len = 1;
        }
        let mut j = i + 1;
        while j < estimates.len() && j - i < LOOKAHEAD_LINES {
            tentative += delta(&estimates[j], true, bw_d2h);
            if tentative < best_t {
                best_t = tentative;
                best_len = j - i + 1;
            }
            j += 1;
        }
        if best_len > 0 {
            for k in i..i + best_len {
                csd_lines.insert(k);
            }
            t_csd = best_t;
            i += best_len;
        } else {
            i += 1;
        }
    }
    Assignment {
        csd_lines,
        t_host,
        t_csd,
    }
}

/// Projects the end-to-end cost of `placements` under the execution
/// engine's actual staging rules: variables live where they were last
/// used, each cross-engine read ships the producing line's output volume
/// once, and a device-resident final result returns to the host.
///
/// This is the executor-faithful cost model the refinement pass of
/// [`assign_refined`] minimizes (cheaper than a full simulation, exact up
/// to contention and queue microseconds).
///
/// # Panics
///
/// Panics if lengths disagree or `bw_d2h` is not positive.
#[must_use]
pub fn projected_cost(
    program: &Program,
    estimates: &[LineEstimate],
    placements: &[EngineKind],
    bw_d2h: f64,
) -> f64 {
    assert!(bw_d2h > 0.0, "BW_D2H must be positive");
    assert_eq!(
        program.len(),
        estimates.len(),
        "estimates must cover the program"
    );
    assert_eq!(
        program.len(),
        placements.len(),
        "placements must cover the program"
    );
    // Per defining line: where its value currently lives. A value starts
    // where its line runs and follows its readers across the interconnect.
    let mut location = placements.to_vec();
    let mut total = 0.0;
    for (line, (est, place)) in program.lines().iter().zip(estimates.iter().zip(placements)) {
        for def in line.inputs().filter_map(|(_, def)| def) {
            if location[def] != *place {
                total += estimates[def].d_out as f64 / bw_d2h;
                location[def] = *place;
            }
        }
        total += match place {
            EngineKind::Host => est.ct_host,
            EngineKind::Cse => est.ct_device,
        };
    }
    if let Some(last) = estimates.last() {
        if location.last() == Some(&EngineKind::Cse) {
            total += last.d_out as f64 / bw_d2h;
        }
    }
    total
}

/// Maximum refinement sweeps before giving up on convergence.
const REFINE_SWEEPS: usize = 12;

/// ActivePy's full assignment pass: Algorithm 1 with lookahead
/// ([`assign`]) to seed the partition, followed by single-line flip
/// refinement under the executor-faithful [`projected_cost`] model until a
/// fixpoint.
///
/// The refinement embodies the paper's stated behaviour — ActivePy
/// "records the assignment that yields the shortest execution time" and in
/// §V "successfully identified *exactly* the same set of code regions … as
/// the optimal programmer-directed configuration". The greedy formula's
/// previous-line adjacency approximation can strand single lines on the
/// wrong side of the interconnect in programs whose data flow skips lines;
/// flip refinement repairs exactly those cases.
///
/// # Panics
///
/// Panics if lengths disagree or `bw_d2h` is not positive.
#[must_use]
pub fn assign_refined(program: &Program, estimates: &[LineEstimate], bw_d2h: f64) -> Assignment {
    assign_refined_traced(program, estimates, bw_d2h, &Tracer::disabled())
}

/// As [`assign_refined`], recording one `assign.candidate` instant per
/// refinement round (seed, all-host) into `tracer` with the round's sweep
/// and flip counts. The tracer is observation-only: the returned
/// assignment is identical with it enabled, disabled, or absent.
///
/// # Panics
///
/// As [`assign_refined`].
#[must_use]
pub fn assign_refined_traced(
    program: &Program,
    estimates: &[LineEstimate],
    bw_d2h: f64,
    tracer: &Tracer,
) -> Assignment {
    let seed = assign(estimates, bw_d2h);
    let t_host = seed.t_host;
    // Refine from both the lookahead seed and the all-host plan: each can
    // be a local minimum under single-line flips (the lookahead can strand
    // a bulky producer on the wrong side; all-host cannot cross the
    // scan→filter hump one line at a time), so take the better fixpoint.
    let candidates = [
        ("seed", seed.placements(program.len())),
        ("all_host", vec![EngineKind::Host; program.len()]),
    ];
    let mut best_cost = f64::INFINITY;
    let mut best_placements = candidates[1].1.clone();
    for (label, start) in candidates {
        let refined = refine_flips(program, estimates, start, bw_d2h);
        tracer.instant(
            "assign.candidate",
            SpanKind::Phase,
            None,
            tracer.attrs(|| {
                vec![
                    ("candidate".into(), label.into()),
                    ("sweeps".into(), refined.sweeps.into()),
                    ("flips".into(), refined.flips.into()),
                    ("cost_secs".into(), refined.cost.into()),
                ]
            }),
        );
        if refined.cost < best_cost {
            best_cost = refined.cost;
            best_placements = refined.placements;
        }
    }
    let csd_lines: BTreeSet<usize> = best_placements
        .iter()
        .enumerate()
        .filter(|(_, p)| **p == EngineKind::Cse)
        .map(|(i, _)| i)
        .collect();
    Assignment {
        csd_lines,
        t_host,
        t_csd: best_cost.min(t_host),
    }
}

/// The fixpoint [`refine_flips`] reached, with round statistics for the
/// `assign.candidate` trace instants.
struct RefineOutcome {
    placements: Vec<EngineKind>,
    cost: f64,
    /// Sweeps actually performed (including the final no-improvement one).
    sweeps: usize,
    /// Single-line flips adopted across all sweeps.
    flips: usize,
}

/// Single-line flip refinement to a fixpoint under [`projected_cost`].
fn refine_flips(
    program: &Program,
    estimates: &[LineEstimate],
    mut placements: Vec<EngineKind>,
    bw_d2h: f64,
) -> RefineOutcome {
    let mut best = projected_cost(program, estimates, &placements, bw_d2h);
    let mut sweeps = 0usize;
    let mut flips = 0usize;
    for _ in 0..REFINE_SWEEPS {
        sweeps += 1;
        let mut improved = false;
        for i in 0..placements.len() {
            let flipped = placements[i].other();
            let old = std::mem::replace(&mut placements[i], flipped);
            let cost = projected_cost(program, estimates, &placements, bw_d2h);
            if cost + 1e-12 < best {
                best = cost;
                improved = true;
                flips += 1;
            } else {
                placements[i] = old;
            }
        }
        if !improved {
            break;
        }
    }
    RefineOutcome {
        placements,
        cost: best,
        sweeps,
        flips,
    }
}

/// Computes the *optimal* assignment under the same adjacency-approximate
/// cost model by dynamic programming over (line, placement) states. Used
/// by the design-ablation experiments as the upper bound for Algorithm 1.
///
/// # Panics
///
/// Panics if `bw_d2h` is not strictly positive.
#[must_use]
pub fn assign_optimal(estimates: &[LineEstimate], bw_d2h: f64) -> Assignment {
    assert!(bw_d2h > 0.0, "BW_D2H must be positive");
    let t_host: f64 = estimates.iter().map(|e| e.ct_host).sum();
    let n = estimates.len();
    if n == 0 {
        return Assignment {
            csd_lines: BTreeSet::new(),
            t_host,
            t_csd: t_host,
        };
    }
    // dp[placement] = (cost, choices); placement of the previous line.
    // Crossing cost: a line whose input was produced on the other side
    // pays d_in/BW; a CSD line whose successor is on the host pays its
    // d_out through the successor's d_in, and the final line pays d_out
    // explicitly if it ends on the CSD.
    let cross = |bytes: u64| bytes as f64 / bw_d2h;
    let mut dp: Vec<(f64, Vec<bool>)> = vec![
        (estimates[0].ct_host, vec![false]),
        (
            estimates[0].ct_device + cross(estimates[0].d_in),
            vec![true],
        ),
    ];
    for est in &estimates[1..] {
        let mut next: Vec<(f64, Vec<bool>)> = Vec::with_capacity(2);
        for on_csd in [false, true] {
            let mut best: Option<(f64, Vec<bool>)> = None;
            for (prev_cost, prev_choice) in &dp {
                let prev_on_csd = *prev_choice.last().expect("non-empty");
                let exec = if on_csd { est.ct_device } else { est.ct_host };
                let boundary = if prev_on_csd != on_csd {
                    cross(est.d_in)
                } else {
                    0.0
                };
                let total = prev_cost + exec + boundary;
                if best.as_ref().is_none_or(|(b, _)| total < *b) {
                    let mut choice = prev_choice.clone();
                    choice.push(on_csd);
                    best = Some((total, choice));
                }
            }
            next.push(best.expect("dp is non-empty"));
        }
        dp = next;
    }
    // Terminal: a CSD-resident final value must return to the host.
    let last = estimates.last().expect("non-empty");
    dp[1].0 += cross(last.d_out);
    let (t_csd, choices) = dp
        .into_iter()
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"))
        .expect("two states");
    let csd_lines: BTreeSet<usize> = choices
        .iter()
        .enumerate()
        .filter(|(_, on)| **on)
        .map(|(i, _)| i)
        .collect();
    Assignment {
        csd_lines,
        t_host,
        t_csd: t_csd.min(t_host),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(line: usize, ct_host: f64, ct_device: f64, d_in: u64, d_out: u64) -> LineEstimate {
        LineEstimate {
            line,
            ct_host,
            ct_device,
            d_in,
            d_out,
            ops: 0,
        }
    }

    const BW: f64 = 4e9;

    #[test]
    fn pure_reduction_pipeline_is_offloaded() {
        // scan (8 GB in storage, cheap on device), filter (big in, small
        // out), reduce (small). Classic ISP win.
        let estimates = vec![
            est(0, 2.0, 0.9, 0, 8_000_000_000),
            est(1, 0.2, 0.7, 8_000_000_000, 80_000_000),
            est(2, 0.05, 0.2, 80_000_000, 8),
        ];
        let a = assign(&estimates, BW);
        assert!(a.csd_lines.contains(&0), "scan should offload: {a:?}");
        assert!(a.csd_lines.contains(&1), "filter should offload: {a:?}");
        assert!(a.t_csd < a.t_host);
    }

    #[test]
    fn compute_heavy_lines_stay_on_host() {
        let estimates = vec![
            est(0, 1.0, 5.0, 1_000_000, 1_000_000),
            est(1, 2.0, 10.0, 1_000_000, 1_000_000),
        ];
        let a = assign(&estimates, BW);
        assert!(a.csd_lines.is_empty(), "{a:?}");
        assert_eq!(a.t_csd, a.t_host);
    }

    #[test]
    fn adjacency_flips_the_d_in_sign() {
        // Line 0 offloads. Line 1 alone would not be worth it if its input
        // had to cross the link, but because line 0 is already on the CSD
        // the input crossing is *saved*.
        let estimates = vec![
            est(0, 2.0, 0.5, 0, 4_000_000_000), // saves 1.5s, emits 1s of transfer
            est(1, 0.1, 0.3, 4_000_000_000, 8), // device is 0.2s slower, but saves 1s input
        ];
        let a = assign(&estimates, BW);
        assert!(a.csd_lines.contains(&0));
        assert!(
            a.csd_lines.contains(&1),
            "adjacent line should ride along: {a:?}"
        );
        // Sanity: the same line *without* an offloaded predecessor stays.
        let alone = [est(1, 0.1, 0.3, 4_000_000_000, 8)];
        // (index 0 counts as "previous on csd" per the algorithm's `i == 0`
        // clause, so shift it to index 1 with a host line before it.)
        let shifted = vec![est(0, 1.0, 9.0, 0, 0), alone[0]];
        let a2 = assign(&shifted, BW);
        assert!(a2.csd_lines.is_empty(), "{a2:?}");
    }

    #[test]
    fn regions_group_contiguous_lines() {
        let estimates = vec![
            est(0, 2.0, 0.5, 0, 1_000),
            est(1, 2.0, 0.5, 1_000, 1_000),
            est(2, 1.0, 50.0, 1_000, 1_000), // stays on host
            est(3, 2.0, 0.5, 0, 1_000),
        ];
        let a = assign(&estimates, BW);
        assert_eq!(a.csd_regions(), vec![(0, 1), (3, 3)]);
        let placements = a.placements(4);
        assert_eq!(placements[2], EngineKind::Host);
        assert_eq!(placements[3], EngineKind::Cse);
    }

    #[test]
    fn empty_program_yields_empty_assignment() {
        let a = assign(&[], BW);
        assert!(a.csd_lines.is_empty());
        assert_eq!(a.t_host, 0.0);
        assert!(a.csd_regions().is_empty());
    }

    #[test]
    fn all_host_constructor() {
        let estimates = vec![est(0, 1.0, 2.0, 0, 0), est(1, 2.0, 3.0, 0, 0)];
        let a = Assignment::all_host(&estimates);
        assert!(a.csd_lines.is_empty());
        assert!((a.t_host - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "BW_D2H")]
    fn zero_bandwidth_panics() {
        let _ = assign(&[], 0.0);
    }

    #[test]
    fn verbatim_greedy_cannot_cross_the_scan_hump() {
        // The same pipeline the lookahead variant offloads: the strict
        // greedy rejects the scan (its bulky output is charged) and then
        // everything downstream.
        let estimates = vec![
            est(0, 2.0, 0.9, 0, 8_000_000_000),
            est(1, 0.2, 0.7, 8_000_000_000, 80_000_000),
            est(2, 0.05, 0.2, 80_000_000, 8),
        ];
        let greedy = assign_greedy(&estimates, BW);
        assert!(greedy.csd_lines.is_empty(), "{greedy:?}");
        let lookahead = assign(&estimates, BW);
        assert!(lookahead.t_csd < greedy.t_csd);
    }

    #[test]
    fn optimal_dp_matches_or_beats_lookahead() {
        let estimates = vec![
            est(0, 2.0, 0.9, 0, 8_000_000_000),
            est(1, 0.2, 0.7, 8_000_000_000, 80_000_000),
            est(2, 1.0, 5.0, 80_000_000, 80_000_000),
            est(3, 0.3, 0.4, 80_000_000, 1_000),
            est(4, 0.05, 0.2, 1_000, 8),
        ];
        let la = assign(&estimates, BW);
        let opt = assign_optimal(&estimates, BW);
        assert!(
            opt.t_csd <= la.t_csd + 1e-9,
            "DP {} must not lose to lookahead {}",
            opt.t_csd,
            la.t_csd
        );
        // On this instance the hump-crossing set {0, 1} is optimal.
        assert!(
            opt.csd_lines.contains(&0) && opt.csd_lines.contains(&1),
            "{opt:?}"
        );
        assert!(
            !opt.csd_lines.contains(&2),
            "compute-heavy line stays home: {opt:?}"
        );
    }

    #[test]
    fn optimal_dp_on_empty_and_all_host_cases() {
        let opt = assign_optimal(&[], BW);
        assert!(opt.csd_lines.is_empty());
        let estimates = vec![est(0, 1.0, 9.0, 0, 0), est(1, 1.0, 9.0, 0, 0)];
        let opt = assign_optimal(&estimates, BW);
        assert!(opt.csd_lines.is_empty());
        assert!((opt.t_csd - opt.t_host).abs() < 1e-12);
    }
}
