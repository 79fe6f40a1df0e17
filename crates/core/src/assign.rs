//! Algorithm 1: CSD code assignment (§III-B).
//!
//! A lookahead walk seeds the partition line by line, projecting the total
//! execution time if the line joined the CSD partition. The transfer-cost
//! sign depends on adjacency: when the *previous* line already runs on the
//! CSD, pulling this line over *removes* a device-to-host crossing for its
//! input (`− D_in/BW`), whereas an isolated line *adds* one (`+ D_in/BW`);
//! the output crossing (`+ D_out/BW`) is always charged. Single-line flips
//! under the executor-faithful [`projected_cost`] then refine the seed
//! ([`assign_refined`]). The `regret` experiment grades the result against
//! search over every placement.

use crate::estimate::{LineEstimate, Link};
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
        let mut placements = vec![EngineKind::Host; line_count];
        for &i in self.csd_lines.range(..line_count) {
            placements[i] = EngineKind::Cse;
        }
        placements
    }

    /// The contiguous CSD regions `[start, end]` (inclusive) in line order
    /// — each becomes one generated CSD function.
    #[must_use]
    pub fn csd_regions(&self) -> Vec<(usize, usize)> {
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for &i in &self.csd_lines {
            match regions.last_mut() {
                Some((_, end)) if *end + 1 == i => *end = i,
                _ => regions.push((i, i)),
            }
        }
        regions
    }
}

/// How far ahead [`assign`] tentatively extends a candidate CSD region
/// while the projected time is still above the incumbent.
const LOOKAHEAD_LINES: usize = 8;

/// Algorithm 1's per-line time delta of adding line `est` to `P_csd`.
fn delta(est: &LineEstimate, prev_on_csd: bool, link: Link) -> f64 {
    let d_in = link.transfer(est.d_in);
    let d_in = if prev_on_csd { -d_in } else { d_in };
    -est.ct_host + est.ct_device + d_in + link.transfer(est.d_out)
}

/// Algorithm 1's lookahead walk, the seed [`assign_refined`] refines,
/// pricing transfers on `link`. Beside the printed greedy step it follows
/// the paper's prose — ActivePy "records the assignment that yields the
/// shortest execution time" — by growing a region from a line that is not
/// profitable alone and adopting its best prefix: that is how a storage
/// scan, whose bulky output would otherwise be charged as crossing the
/// interconnect, joins the filter consuming it.
fn assign(estimates: &[LineEstimate], link: Link) -> Assignment {
    let mut a = Assignment::all_host(estimates);
    let mut i = 0;
    while i < estimates.len() {
        let prev_on_csd = i == 0 || a.csd_lines.contains(&(i - 1));
        let mut tentative = a.t_csd + delta(&estimates[i], prev_on_csd, link);
        let (mut best_t, mut best_len) = (a.t_csd, 0);
        if tentative < a.t_csd {
            (best_t, best_len) = (tentative, 1);
        } else {
            // Not profitable alone: tentatively grow a region starting here
            // and keep the best prefix, if any prefix beats the incumbent.
            let window = &estimates[i + 1..estimates.len().min(i + LOOKAHEAD_LINES)];
            for (len, est) in (2..).zip(window) {
                tentative += delta(est, true, link);
                if tentative < best_t {
                    (best_t, best_len) = (tentative, len);
                }
            }
        }
        a.csd_lines.extend(i..i + best_len);
        a.t_csd = best_t;
        i += best_len.max(1);
    }
    a
}

/// Projects the end-to-end cost of `placements` under the execution
/// engine's actual staging rules: variables live where they were last
/// used, each cross-engine read ships the producing line's output volume
/// once, and a device-resident final result returns to the host.
///
/// This is the executor-faithful cost model the refinement pass of
/// [`assign_refined`] minimizes (cheaper than a full simulation, exact up
/// to contention and queue microseconds), pricing transfers on `link`.
///
/// # Panics
///
/// Panics if lengths disagree.
#[must_use]
pub fn projected_cost(
    program: &Program,
    estimates: &[LineEstimate],
    placements: &[EngineKind],
    link: Link,
) -> f64 {
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
                total += link.transfer(estimates[def].d_out);
                location[def] = *place;
            }
        }
        total += match place {
            EngineKind::Host => est.ct_host,
            EngineKind::Cse => est.ct_device,
        };
    }
    if let (Some(last), Some(EngineKind::Cse)) = (estimates.last(), location.last()) {
        total += link.transfer(last.d_out);
    }
    total
}

/// Maximum refinement sweeps before giving up on convergence.
const REFINE_SWEEPS: usize = 12;

/// ActivePy's full assignment pass: Algorithm 1's lookahead walk seeds
/// the partition, then single-line flips under the executor-faithful
/// [`projected_cost`] refine it to a fixpoint. The greedy formula's
/// previous-line adjacency can strand lines on the wrong side of the
/// interconnect where data flow skips lines; the flips repair exactly
/// those, so that, as §V says, ActivePy finds "*exactly* the same set of
/// code regions" as the optimal programmer-directed configuration.
/// Transfers are priced on a [`Link`] of `bw_d2h` bytes per second.
///
/// # Panics
///
/// Panics if lengths disagree or `bw_d2h` is not positive.
#[must_use]
pub fn assign_refined(program: &Program, estimates: &[LineEstimate], bw_d2h: f64) -> Assignment {
    assign_refined_traced(program, estimates, Link::new(bw_d2h), &Tracer::disabled())
}

/// As [`assign_refined`] on `link`, recording one `assign.candidate`
/// instant per refinement round (seed, all-host) into `tracer` with the
/// round's sweep and flip counts. The tracer is observation-only: the returned
/// assignment is identical with it enabled, disabled, or absent.
///
/// # Panics
///
/// Panics if lengths disagree.
#[must_use]
pub fn assign_refined_traced(
    program: &Program,
    estimates: &[LineEstimate],
    link: Link,
    tracer: &Tracer,
) -> Assignment {
    let seed = assign(estimates, link);
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
        let refined = refine_flips(program, estimates, start, link);
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
    Assignment {
        csd_lines: (0..best_placements.len())
            .filter(|&i| best_placements[i] == EngineKind::Cse)
            .collect(),
        t_host: seed.t_host,
        t_csd: best_cost.min(seed.t_host),
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
    link: Link,
) -> RefineOutcome {
    let mut best = projected_cost(program, estimates, &placements, link);
    let mut sweeps = 0usize;
    let mut flips = 0usize;
    for _ in 0..REFINE_SWEEPS {
        sweeps += 1;
        let mut improved = false;
        for i in 0..placements.len() {
            let flipped = placements[i].other();
            let old = std::mem::replace(&mut placements[i], flipped);
            let cost = projected_cost(program, estimates, &placements, link);
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn link() -> Link {
        Link::new(4e9)
    }

    #[test]
    fn pure_reduction_pipeline_is_offloaded() {
        // scan (8 GB in storage, cheap on device), filter (big in, small
        // out), reduce (small). Classic ISP win.
        let estimates = vec![
            est(0, 2.0, 0.9, 0, 8_000_000_000),
            est(1, 0.2, 0.7, 8_000_000_000, 80_000_000),
            est(2, 0.05, 0.2, 80_000_000, 8),
        ];
        let a = assign(&estimates, link());
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
        let a = assign(&estimates, link());
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
        let a = assign(&estimates, link());
        assert_eq!(a.csd_regions(), [(0, 1)], "line 1 rides along: {a:?}");
        // The same line after a host line (line 0 counts as "previous on
        // CSD" by the `i == 0` clause) stays home.
        let shifted = [est(0, 1.0, 9.0, 0, 0), est(1, 0.1, 0.3, 4_000_000_000, 8)];
        let a2 = assign(&shifted, link());
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
        let a = assign(&estimates, link());
        assert_eq!(a.csd_regions(), vec![(0, 1), (3, 3)]);
        let (host, cse) = (EngineKind::Host, EngineKind::Cse);
        assert_eq!(a.placements(4), [cse, cse, host, cse]);
    }

    #[test]
    fn empty_program_yields_empty_assignment() {
        let a = assign(&[], link());
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
        let _ = assign(&[], Link::new(0.0));
    }

    proptest! {
        /// The lookahead seed never projects a plan worse than staying
        /// home, and names only lines of the program.
        #[test]
        fn the_seed_never_projects_worse_than_host(
            lines in prop::collection::vec(
                (1e-3f64..2.0, 1e-3f64..4.0, 0u64..8_000_000_000, 0u64..8_000_000_000),
                1..12,
            ),
        ) {
            let estimates: Vec<LineEstimate> = lines
                .iter()
                .enumerate()
                .map(|(i, (h, d, din, dout))| est(i, *h, *d, *din, *dout))
                .collect();
            let a = assign(&estimates, link());
            prop_assert!(a.t_csd <= a.t_host + 1e-9, "{a:?}");
            prop_assert!(a.csd_lines.iter().all(|l| *l < estimates.len()));
        }
    }
}
