//! Scatter-gather offload planning and execution across a CSD fleet.
//!
//! The paper plans for one device; this module extends the pipeline to a
//! [`Fleet`] of N independent CSDs holding range-sharded rows
//! ([`ShardMap`]). Planning reuses the single-device sampling and fitting
//! products wholesale: a [`ShardedPlan`] derives per-shard estimates by
//! *exact integer slicing* of the base plan's full-scale estimates, then
//! re-runs Algorithm 1 per shard against the shared-link bandwidth
//! `min(BW_link, BW_budget / N)` — the fleet-aware Eq. 1.
//!
//! Execution is scatter → gather → combine → tail:
//!
//! 1. **Scatter**: every shard executes the program's rowwise prefix
//!    (lines before the [`alang::shard::analyze`] fence) on its own
//!    device, charged only for its row slice via [`ShardSlice`]. Shards
//!    are independent failure domains: each runs under its own
//!    [`crate::monitor::Monitor`], so a GC burst or hard fault migrates
//!    *that shard* to the host while the rest keep running on-device.
//! 2. **Gather**: the carriers (sharded values live across the fence)
//!    stream to the host concurrently; [`Fleet::gather_secs`] charges the
//!    max of the per-link and aggregate-budget bottlenecks.
//! 3. **Combine**: shard slices are reduced on the host in **ascending
//!    shard index** — the same ordered-reduction discipline that keeps
//!    [`alang::par`] bit-identical — so fleet answers never depend on
//!    arrival order.
//! 4. **Tail**: the fence and everything after it run host-side over the
//!    combined carriers.
//!
//! Values are computed once, on the full data, and every phase is a
//! simulated schedule over that one [`crate::exec::Evaluation`] (the
//! repo's placement-affects-costs-only discipline), so a fleet's
//! `values_fingerprint` cannot depend on the shard count — the bench sweep
//! and the proptest differential pin it against a separately executed
//! unsharded run.

use crate::assign::{assign_refined, Assignment};
use crate::error::{ActivePyError, Result};
use crate::estimate::{LineEstimate, Link};
use crate::exec::{evaluate, simulate, ExecOptions, RunReport};
use crate::plan::OffloadPlan;
use crate::runtime::ActivePy;
use alang::shard::{analyze, ShardAnalysis, ShardMap};
use alang::{LoweredProgram, Program, Storage};
use csd_sim::contention::ContentionScenario;
use csd_sim::fault::{FaultCounters, FaultPlan};
use csd_sim::units::{Bandwidth, Duration, Ops};
use csd_sim::{EngineKind, Fleet, SystemConfig};
use isp_obs::SpanKind;
use serde::Serialize;
use std::ops::Range;
use std::sync::Arc;

/// Host-side combine cost: one operation per gathered 8-byte element.
/// The combine is a concatenation-or-merge pass over the carrier slices,
/// not a recompute — it is deliberately cheap, and charged sequentially
/// in ascending shard index.
const COMBINE_OPS_PER_BYTE: f64 = 0.125;

/// A single-device [`OffloadPlan`] extended with a per-line × per-shard
/// placement: the sharded data model, the scatter/gather fence, per-shard
/// estimates sliced from the base plan (sampling is never redone per
/// shard), and per-shard Algorithm-1 assignments against the shared-link
/// bandwidth. The Eq. 1 terms the audit reads are kept once, on the base
/// plan ([`OffloadPlan::eq1`]).
#[derive(Debug, Clone)]
pub struct ShardedPlan {
    /// The single-device plan everything derives from.
    pub base: Arc<OffloadPlan>,
    /// Row partition and the set of sharded storage names.
    pub map: ShardMap,
    /// Fence position, per-line shardedness, and gather carriers.
    pub analysis: ShardAnalysis,
    /// Per shard: the base estimates with extensive quantities sliced to
    /// the shard's rows (replicated lines keep their full cost).
    pub shard_estimates: Vec<Vec<LineEstimate>>,
    /// Per shard: Algorithm 1 re-run on the sliced estimates, restricted
    /// to the rowwise prefix (the tail always runs host-side).
    pub shard_assignments: Vec<Assignment>,
}

impl ShardedPlan {
    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.map.count()
    }

    /// Per-line placements for shard `s`: the shard's own assignment on
    /// the rowwise prefix, host for the fence and everything after it.
    #[must_use]
    pub fn shard_placements(&self, s: usize) -> Vec<EngineKind> {
        let len = self.base.program.len();
        let mut placements = self.shard_assignments[s].placements(len);
        for p in placements.iter_mut().skip(self.analysis.fence) {
            *p = EngineKind::Host;
        }
        placements
    }
}

/// Derives the fleet plan for `map` from a cached single-device plan:
/// fence analysis, per-shard estimate slicing, and per-shard assignment
/// against the fleet's shared-link bandwidth. No sampling, fitting, or
/// code generation is repeated — the base plan's products are reused.
#[must_use]
pub fn derive_sharded_plan(
    base: &Arc<OffloadPlan>,
    map: ShardMap,
    config: &SystemConfig,
    budget: Bandwidth,
) -> ShardedPlan {
    let analysis = analyze(&base.program, &map);
    let n = map.count();
    let link = Link::d2h(config).shared(budget, n);
    let shard_estimates: Vec<Vec<LineEstimate>> = (0..n)
        .map(|s| {
            let fraction = map.fraction(s);
            base.estimates
                .iter()
                .map(|e| {
                    if analysis.line_sharded.get(e.line).copied().unwrap_or(false) {
                        LineEstimate {
                            line: e.line,
                            ct_host: e.ct_host * fraction,
                            ct_device: e.ct_device * fraction,
                            d_in: map.slice_u64(e.d_in, s),
                            d_out: map.slice_u64(e.d_out, s),
                            ops: map.slice_u64(e.ops, s),
                        }
                    } else {
                        *e
                    }
                })
                .collect()
        })
        .collect();
    let shard_assignments: Vec<Assignment> = shard_estimates
        .iter()
        .map(|est| {
            let mut a = assign_refined(&base.program, est, link.bytes_per_sec());
            // The fence and everything after it run host-side over the
            // gathered carriers; only the rowwise prefix may offload.
            a.csd_lines.retain(|line| *line < analysis.fence);
            a
        })
        .collect();
    ShardedPlan {
        base: Arc::clone(base),
        map,
        analysis,
        shard_estimates,
        shard_assignments,
    }
}

/// One shard's view of an execution, for fleet scatter/gather runs.
///
/// The repo's central repro discipline is that placement affects *costs
/// only*: every value is computed on the full data, so answers are
/// byte-identical no matter where lines run. A `ShardSlice` extends the
/// same discipline to fleets: a shard run is simulated over the whole
/// program's [`crate::exec::Evaluation`] (values — and therefore `values_fingerprint`
/// — are the same on every shard), but is *charged* only for its own
/// work:
///
/// * lines outside `charged` are simulated free — no storage, compute,
///   staging, or allocation charges (they belong to a different phase of
///   the fleet plan, e.g. the host-side combine);
/// * charged lines whose output is row-partitioned (`sharded[line]`)
///   charge the shard's exact slice of every extensive quantity,
///   [`ShardMap::slice_u64`], so slices across shards sum to the
///   unsharded total with no remainder;
/// * charged replicated lines (model weights, centroid seeds) charge in
///   full on every shard — replicated work really is redone per device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlice {
    /// The fleet's partition.
    pub map: ShardMap,
    /// This shard's index in `map`.
    pub shard: usize,
    /// The lines this run is charged for.
    pub charged: Range<usize>,
    /// Per line: whether its output is row-partitioned (sharded lines
    /// charge a slice, replicated lines charge in full).
    pub sharded: Vec<bool>,
}

impl ShardSlice {
    /// The charge for a quantity produced *by* `line`: zero outside the
    /// charge range, a slice for sharded lines, full for replicated ones.
    #[must_use]
    pub fn scale_line(&self, line: usize, total: u64) -> u64 {
        self.scale_def(line, line, total)
    }

    /// The charge for moving the value line `def` defined on behalf of
    /// `at_line`: zero when `at_line` is not charged, this shard's
    /// [`ShardMap::slice_u64`] when the *defining* line is row-partitioned
    /// (each shard ships only its rows), full otherwise.
    #[must_use]
    pub fn scale_def(&self, def: usize, at_line: usize, total: u64) -> u64 {
        if !self.charged.contains(&at_line) {
            0
        } else if self.sharded.get(def).copied().unwrap_or(false) {
            self.map.slice_u64(total, self.shard)
        } else {
            total
        }
    }
}

/// One shard's slice of the scatter phase; its shard index is its index
/// in [`FleetReport::shards`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardRunReport {
    /// The shard's execution report (its own device clock).
    pub report: RunReport,
    /// Bytes this shard contributed to the gather phase.
    pub gather_bytes: u64,
}

/// The result of one scatter-gather fleet execution. The end-to-end
/// latency, the scatter barrier, the gathered bytes and the injected
/// faults are read from the shard and tail reports, not stored beside them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// The concurrent carrier gather, charged by [`Fleet::gather_secs`].
    pub gather_secs: f64,
    /// The ordered host-side combine (ascending shard index).
    pub combine_secs: f64,
    /// The host-side fence-and-after phase.
    pub tail_secs: f64,
    /// Index of the first host-side line (`program.len()` when the whole
    /// program was rowwise).
    pub fence: usize,
    /// Per-shard scatter reports, ascending shard index.
    pub shards: Vec<ShardRunReport>,
    /// The tail run's report (the host clock spanning lead-in → scatter →
    /// gather → combine → tail).
    pub tail: RunReport,
    /// The one answer fingerprint — every shard run and the tail carry
    /// the same evaluation's — equal to the unsharded run's.
    pub values_fingerprint: u64,
}

impl FleetReport {
    /// End-to-end latency: lead-in + scatter + gather + combine + tail,
    /// the tail's clock at its end.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.tail.total_secs
    }

    /// The scatter phase: the max over the shards' device clocks, in
    /// ascending shard index (devices run concurrently).
    #[must_use]
    pub fn scatter_secs(&self) -> f64 {
        scatter_secs(&self.shards)
    }

    /// Total bytes gathered across all shards.
    #[must_use]
    pub fn gathered_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.gather_bytes).sum()
    }

    /// Every device's injected-fault counters, summed: each device serves
    /// exactly one shard run, whose report holds its counters.
    #[must_use]
    pub fn injected(&self) -> FaultCounters {
        self.shards.iter().map(|s| s.report.metrics.faults).sum()
    }

    /// Shards that completed their scatter phase on-device (no
    /// migration).
    #[must_use]
    pub fn shards_on_device(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.report.migration().is_none())
            .count()
    }

    /// Sum of the per-shard (and tail) transient-fault counts absorbed by
    /// the recovery layer — compared against [`FleetReport::injected`] by
    /// the chaos differential.
    #[must_use]
    pub fn recovered_transients(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.report.metrics.recovery.transient_faults)
            .sum::<u64>()
            + self.tail.metrics.recovery.transient_faults
    }
}

/// The scatter barrier over `shards`: the max of their device clocks.
fn scatter_secs(shards: &[ShardRunReport]) -> f64 {
    shards
        .iter()
        .map(|s| s.report.total_secs)
        .fold(0.0f64, f64::max)
}

/// Everything a fleet execution needs that is independent of the shard
/// loop: the program and its lowering, its full (unsliced) storage, the
/// row partition and the program's fence analysis under it.
#[derive(Debug, Clone, Copy)]
pub struct FleetRun<'a> {
    /// The program to execute.
    pub program: &'a Program,
    /// The *full* input: the one evaluation runs on it, so answers cannot
    /// depend on the partition.
    pub storage: &'a Storage,
    /// The row partition.
    pub map: &'a ShardMap,
    /// [`analyze`] of `program` under `map`: worked out once per plan
    /// ([`ShardedPlan::analysis`]), not per run.
    pub analysis: &'a ShardAnalysis,
    /// The program's lowering, baked with the code generator's per-line
    /// copy-elimination flags; every shard run and the tail share it.
    pub lowered: &'a LoweredProgram,
    /// Simulated seconds that precede the scatter (pipeline overheads);
    /// charged once on the host clock.
    pub lead_in_secs: f64,
}

/// Executes one scatter-gather fleet run.
///
/// `shard_placements[s]` are the per-line placements for shard `s` (the
/// fence and after are forced host regardless); `shard_estimates`, when
/// given, feed each shard's monitor. `shard_faults[s]` installs a
/// deterministic fault plan on device `s` only — missing entries inject
/// nothing.
///
/// # Errors
///
/// Propagates evaluation and per-shard execution failures and rejects
/// placement vectors of the wrong shape.
pub fn execute_sharded(
    run: &FleetRun<'_>,
    shard_placements: &[Vec<EngineKind>],
    shard_estimates: Option<&[Vec<LineEstimate>]>,
    fleet: &mut Fleet,
    config: &SystemConfig,
    opts: &ExecOptions,
    shard_faults: &[FaultPlan],
) -> Result<FleetReport> {
    let n = fleet.len();
    if run.map.count() != n || shard_placements.len() != n {
        return Err(ActivePyError::exec(format!(
            "fleet of {n} devices needs {n} shard placements and a matching map, got {} and {}",
            shard_placements.len(),
            run.map.count()
        )));
    }
    let analysis = run.analysis;
    let len = run.program.len();
    // One evaluation feeds every phase: the N shard runs and the tail
    // differ in what they are charged for, never in what they compute.
    let evaluation = evaluate(run.program, run.lowered, run.storage, opts)?;
    let tracer = &opts.tracer;
    let fleet_span = tracer.begin_with(
        "fleet.execute",
        SpanKind::Phase,
        Some(0.0),
        tracer.attrs(|| {
            vec![
                ("shards".into(), n.into()),
                ("fence".into(), analysis.fence.into()),
            ]
        }),
    );

    // Scatter: ascending shard index. Each shard runs under its own
    // monitor, which alone decides whether that shard migrates.
    let mut shards: Vec<ShardRunReport> = Vec::with_capacity(n);
    for s in 0..n {
        let mut placements = shard_placements[s].clone();
        if placements.len() != len {
            return Err(ActivePyError::exec(format!(
                "shard {s}: {} placements for {len} lines",
                placements.len()
            )));
        }
        for p in placements.iter_mut().skip(analysis.fence) {
            *p = EngineKind::Host;
        }
        let slice = ShardSlice {
            map: run.map.clone(),
            shard: s,
            charged: 0..analysis.fence,
            sharded: analysis.line_sharded.clone(),
        };
        let mut shard_opts = opts.clone();
        shard_opts.faults = shard_faults.get(s).cloned().unwrap_or_else(FaultPlan::none);
        let estimates = shard_estimates.map(|est| est[s].as_slice());
        let shard_span = tracer.begin_with(
            "fleet.shard",
            SpanKind::Device,
            Some(0.0),
            tracer.attrs(|| vec![("shard".into(), s.into())]),
        );
        let report = simulate(
            run.program,
            &evaluation,
            &placements,
            fleet.device_mut(s),
            &shard_opts,
            estimates,
            Some(&slice),
        )?;
        tracer.end(shard_span, Some(report.total_secs));
        let gather_bytes: u64 = analysis
            .carriers
            .iter()
            .map(|&def| report.lines[def].cost.bytes_out)
            .sum();
        shards.push(ShardRunReport {
            report,
            gather_bytes,
        });
    }
    let scatter_secs = scatter_secs(&shards);

    // Gather: carriers stream from every shard concurrently, bounded by
    // per-device links and the shared host budget. A migrated shard's
    // slice may already sit host-side; the gather conservatively charges
    // it anyway (the budget term dominates at scale either way).
    let per_shard_bytes: Vec<u64> = shards.iter().map(|s| s.gather_bytes).collect();
    let gather_secs = fleet.gather_secs(&per_shard_bytes);
    let gathered_bytes: u64 = per_shard_bytes.iter().sum();
    tracer.instant(
        "fleet.gather",
        SpanKind::Device,
        Some(scatter_secs),
        tracer.attrs(|| {
            vec![
                ("bytes".into(), gathered_bytes.into()),
                ("secs".into(), gather_secs.into()),
            ]
        }),
    );

    // The host clock: lead-in, then the scatter barrier, then the gather,
    // then the ordered combine, then the tail lines.
    let mut host = config.build();
    host.advance(Duration::from_secs(
        run.lead_in_secs + scatter_secs + gather_secs,
    ));
    let combine_t0 = host.now().as_secs();
    for (s, bytes) in per_shard_bytes.iter().enumerate() {
        // Ascending shard index, unconditionally: the combine's ordering
        // rule is part of the answer-determinism contract, so even an
        // empty slice holds its place in the sequence.
        let ops = (*bytes as f64 * COMBINE_OPS_PER_BYTE) as u64;
        if ops > 0 {
            host.compute(EngineKind::Host, Ops::new(ops));
        }
        tracer.instant(
            "fleet.combine",
            SpanKind::Device,
            Some(host.now().as_secs()),
            tracer.attrs(|| {
                vec![
                    ("shard".into(), s.into()),
                    ("bytes".into(), (*bytes).into()),
                ]
            }),
        );
    }
    let combine_secs = host.now().as_secs() - combine_t0;

    // Tail: the fence and after, host-side, over the combined carriers.
    // The prefix is simulated free; charges start at the fence.
    let tail_slice = ShardSlice {
        map: ShardMap::range(run.map.rows_total(), 1),
        shard: 0,
        charged: analysis.fence..len,
        sharded: analysis.line_sharded.clone(),
    };
    let mut tail_opts = opts.clone();
    tail_opts.faults = FaultPlan::none();
    let tail_t0 = host.now().as_secs();
    let tail = simulate(
        run.program,
        &evaluation,
        &vec![EngineKind::Host; len],
        &mut host,
        &tail_opts,
        None,
        Some(&tail_slice),
    )?;
    tracer.end_with(
        fleet_span,
        Some(tail.total_secs),
        tracer.attrs(|| vec![("gathered_bytes".into(), gathered_bytes.into())]),
    );
    Ok(FleetReport {
        gather_secs,
        combine_secs,
        tail_secs: tail.total_secs - tail_t0,
        fence: analysis.fence,
        shards,
        values_fingerprint: tail.values_fingerprint,
        tail,
    })
}

/// Executes `program` across a fresh default-budget fleet of one device per
/// shard of `map`, with the same base `placements` on every shard — the
/// proptest differential's entry point (no planning pipeline involved).
///
/// # Errors
///
/// As [`execute_sharded`].
pub fn execute_sharded_raw(
    program: &Program,
    storage: &Storage,
    map: &ShardMap,
    placements: &[EngineKind],
    config: &SystemConfig,
    opts: &ExecOptions,
    shard_faults: &[FaultPlan],
) -> Result<FleetReport> {
    let n = map.count();
    let mut fleet = Fleet::new(config, n);
    let lowered = alang::lower::lower(program)?;
    let run = FleetRun {
        program,
        storage,
        map,
        analysis: &analyze(program, map),
        lowered: &lowered,
        lead_in_secs: 0.0,
    };
    let shard_placements: Vec<Vec<EngineKind>> = (0..n).map(|_| placements.to_vec()).collect();
    execute_sharded(
        &run,
        &shard_placements,
        None,
        &mut fleet,
        config,
        opts,
        shard_faults,
    )
}

/// Executes a [`ShardedPlan`] under `runtime`'s execution options on a
/// fresh default-budget fleet: the fleet counterpart of
/// [`ActivePy::execute_plan`], charging the base plan's pipeline
/// overheads once on the host clock.
///
/// # Errors
///
/// As [`execute_sharded`].
pub fn execute_sharded_plan(
    runtime: &ActivePy,
    plan: &ShardedPlan,
    config: &SystemConfig,
    scenario: ContentionScenario,
    shard_faults: &[FaultPlan],
) -> Result<FleetReport> {
    let n = plan.count();
    let mut fleet = Fleet::new(config, n);
    // Faults come per device from `shard_faults`, and the executor skips
    // profile recording for shard runs, so neither handle needs overriding.
    let opts = runtime.run_options(scenario);
    // Journal the fleet's plan identity — base plan fingerprint plus the
    // shard map's — so a resume against a re-planned fleet or a different
    // shard count fails at the first record.
    if opts.journal.is_enabled() {
        opts.journal.on_record(isp_obs::WalRecord::PlanCommit {
            lane: 0,
            plan_fp: crate::resume::plan_fingerprint(&plan.base),
            shard_fp: plan.map.fingerprint(),
        })?;
    }
    let lead_in_secs = plan.base.sampling_secs + plan.base.compile_secs;
    let run = FleetRun {
        program: &plan.base.program,
        storage: &plan.base.full_storage,
        map: &plan.map,
        analysis: &plan.analysis,
        lowered: &plan.base.lowered,
        lead_in_secs,
    };
    let shard_placements: Vec<Vec<EngineKind>> = (0..n).map(|s| plan.shard_placements(s)).collect();
    execute_sharded(
        &run,
        &shard_placements,
        Some(&plan.shard_estimates),
        &mut fleet,
        config,
        &opts,
        shard_faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_all_host;
    use crate::plan::PlanCache;
    use crate::sampling::test_input as input;
    use crate::sampling::InputSource;
    use alang::parser::parse;
    use alang::shard::ShardStrategy;
    use alang::ExecTier;
    use csd_sim::units::SimTime;

    const SRC: &str = "a = scan('v')\nm = a < 50\nb = select(a, m)\ns = sum(b)\n";

    fn sharded_plan(n: usize) -> (ShardedPlan, SystemConfig, ActivePy) {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let base = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let map = ShardMap::auto(&base.full_storage, n, ShardStrategy::Range);
        let budget = config
            .d2h_bandwidth()
            .scale(csd_sim::fleet::DEFAULT_BUDGET_LINKS);
        let plan = derive_sharded_plan(&base, map, &config, budget);
        (plan, config, rt)
    }

    #[test]
    fn a_shard_slice_charges_what_its_map_slices() {
        let map = ShardMap::range(1_000_000_000, 4);
        let slice_of = |map: &ShardMap, shard| ShardSlice {
            map: map.clone(),
            shard,
            charged: 0..1,
            sharded: vec![true],
        };
        let total = 100_000_000_000;
        let slices: Vec<u64> = (0..4)
            .map(|s| slice_of(&map, s).scale_line(0, total))
            .collect();
        assert_eq!(slices, [25_000_000_000; 4]);
        let whole = ShardMap::range(map.rows_total(), 1);
        assert_eq!(slice_of(&whole, 0).scale_line(0, u64::MAX), u64::MAX);
        assert_eq!(
            slice_of(&whole, 0).scale_line(1, u64::MAX),
            0,
            "not charged"
        );
    }

    #[test]
    fn fingerprint_is_identical_across_shard_counts_and_vs_unsharded() {
        let program = parse(SRC).expect("parse");
        let storage = input().storage_at(1.0);
        let config = SystemConfig::paper_default();
        let mut host_sys = config.build();
        let unsharded = execute_all_host(&program, &storage, &mut host_sys, ExecTier::Native, &[])
            .expect("host baseline");
        let mut prints = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let (plan, config, rt) = sharded_plan(n);
            let report = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &[])
                .expect("fleet run");
            prints.push((n, report.values_fingerprint));
            assert_eq!(report.shards.len(), n);
            assert_eq!(report.fence, 3, "sum is the fence in {SRC:?}");
        }
        for (n, p) in &prints {
            assert_eq!(
                *p, unsharded.values_fingerprint,
                "N={n} diverged from the unsharded answer"
            );
        }
    }

    #[test]
    fn a_fleet_charges_values_whatever_the_last_line_is_called() {
        // Scan on the host, lines 1-2 on each device, the sum and one more
        // line in the tail. Each shard stages its quarter of the 8 GB `a`
        // and the gather pulls the 4 GB `b`; reusing either name for the
        // last target changes no value any line reads.
        let storage = input().storage_at(1.0);
        let config = SystemConfig::paper_default();
        let map = ShardMap::auto(&storage, 4, ShardStrategy::Range);
        let placements = [
            EngineKind::Host,
            EngineKind::Cse,
            EngineKind::Cse,
            EngineKind::Host,
            EngineKind::Host,
        ];
        let run = |last: &str| {
            let program = parse(&format!("{SRC}{last} = s + 1\n")).expect("parse");
            let opts = ExecOptions::activepy();
            let report =
                execute_sharded_raw(&program, &storage, &map, &placements, &config, &opts, &[])
                    .expect("fleet run");
            let h2d: Vec<u64> = report.shards.iter().map(|s| s.report.h2d_bytes).collect();
            (
                report.gathered_bytes(),
                h2d,
                report.scatter_secs(),
                report.total_secs(),
            )
        };
        let reference = run("t");
        assert_eq!(reference.0, 4_000_000_000);
        assert_eq!(reference.1, [2_000_020_480; 4]);
        assert_eq!(
            run("b"),
            reference,
            "when the carrier `b` was looked up by name it resolved to the tail's \
             `b = s + 1`: 0 B gathered, 1.2993 s instead of 1.5666 s"
        );
        assert_eq!(
            run("a"),
            reference,
            "when the staged `a` was looked up by name it resolved to the unsharded \
             `a = s + 1`: every shard staged all 8 000 020 480 B, scatter 2.7646 s \
             instead of 1.2646 s"
        );
    }

    #[test]
    fn a_fleet_evaluates_its_program_once() {
        let (plan, config, rt) = sharded_plan(4);
        let before = crate::exec::evaluations_on_this_thread();
        let report = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &[])
            .expect("fleet run");
        assert_eq!(crate::exec::evaluations_on_this_thread() - before, 1);
        // Four shard runs and the tail were simulated over it.
        assert_eq!(report.shards.len(), 4);
        for shard in &report.shards {
            assert_eq!(shard.report.values_fingerprint, report.values_fingerprint);
        }
        assert_eq!(report.tail.values_fingerprint, report.values_fingerprint);
    }

    #[test]
    fn sharding_the_prefix_scales_the_scatter_phase() {
        let (plan1, config1, rt1) = sharded_plan(1);
        let one = execute_sharded_plan(&rt1, &plan1, &config1, ContentionScenario::none(), &[])
            .expect("N=1");
        let (plan4, config4, rt4) = sharded_plan(4);
        let four = execute_sharded_plan(&rt4, &plan4, &config4, ContentionScenario::none(), &[])
            .expect("N=4");
        assert!(
            four.scatter_secs() < one.scatter_secs() / 2.0,
            "4 devices should at least halve the scatter: {} vs {}",
            four.scatter_secs(),
            one.scatter_secs()
        );
        assert!(
            four.total_secs() < one.total_secs(),
            "N=4 {} must beat N=1 {}",
            four.total_secs(),
            one.total_secs()
        );
    }

    #[test]
    fn one_faulted_shard_migrates_alone_with_the_correct_answer() {
        let (plan, config, rt) = sharded_plan(4);
        let healthy = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &[])
            .expect("healthy");
        // Crash shard 2's CSE immediately; its scatter work falls back to
        // the host from the checkpoint while shards 0, 1, 3 stay on-device.
        let mut faults = vec![FaultPlan::none(); 4];
        faults[2] = FaultPlan::none().with_crash_at(SimTime::from_secs(0.0));
        let chaos = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &faults)
            .expect("chaos");
        assert_eq!(chaos.values_fingerprint, healthy.values_fingerprint);
        assert!(
            chaos.shards[2].report.migration().is_some(),
            "the crashed shard must migrate: {:?}",
            chaos.shards[2].report.migration()
        );
        for s in [0usize, 1, 3] {
            assert!(
                chaos.shards[s].report.migration().is_none(),
                "shard {s} must stay on-device"
            );
        }
        assert_eq!(chaos.injected().cse_crashes, 1);
        assert!(chaos.total_secs() >= healthy.total_secs());
    }

    #[test]
    fn per_shard_fault_accounting_sums_to_the_injected_counters() {
        let (plan, config, rt) = sharded_plan(4);
        let faults: Vec<FaultPlan> = (0..4)
            .map(|s| {
                FaultPlan::none()
                    .with_seed(100 + s as u64)
                    .with_flash_read_error_prob(0.05)
            })
            .collect();
        let report = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &faults)
            .expect("faulted fleet");
        assert_eq!(
            report.recovered_transients(),
            report.injected().transient_total(),
            "recovery accounting must match the injectors: {report:?}"
        );
    }

    #[test]
    fn a_fleet_report_derives_what_its_devices_and_phases_hold() {
        let (plan, config, rt) = sharded_plan(4);
        let mut fleet = Fleet::new(&config, 4);
        let faults: Vec<FaultPlan> = (0..4)
            .map(|s| {
                FaultPlan::none()
                    .with_seed(200 + s as u64)
                    .with_flash_read_error_prob(0.05)
            })
            .collect();
        let run = FleetRun {
            program: &plan.base.program,
            storage: &plan.base.full_storage,
            map: &plan.map,
            analysis: &plan.analysis,
            lowered: &plan.base.lowered,
            lead_in_secs: 0.5,
        };
        let placements: Vec<Vec<EngineKind>> = (0..4).map(|s| plan.shard_placements(s)).collect();
        let opts = rt.run_options(ContentionScenario::none());
        let report = execute_sharded(&run, &placements, None, &mut fleet, &config, &opts, &faults)
            .expect("faulted fleet");
        // Each device served one shard run, so the devices' own counters
        // are the shard reports' counters.
        let devices: FaultCounters = (0..4).map(|s| fleet.device_mut(s).fault_counters()).sum();
        assert!(devices.transient_total() > 0, "{devices:?}");
        assert_eq!(report.injected(), devices);
        // The host clock runs lead-in → scatter → gather → combine → tail.
        let phases = 0.5
            + report.scatter_secs()
            + report.gather_secs
            + report.combine_secs
            + report.tail_secs;
        assert!((report.total_secs() - phases).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn derive_restricts_offload_to_the_rowwise_prefix() {
        let (plan, _, _) = sharded_plan(4);
        assert_eq!(plan.analysis.fence, 3);
        for s in 0..4 {
            let placements = plan.shard_placements(s);
            assert_eq!(placements[3], EngineKind::Host, "the fence line is host");
            assert!(
                plan.shard_assignments[s].csd_lines.iter().all(|l| *l < 3),
                "shard {s} offloads past the fence"
            );
        }
    }
}
