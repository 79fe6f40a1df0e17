//! Shard-scaling sweep: the scatter-gather fleet executor over N ∈
//! {1, 2, 4, 8} CSDs, per workload.
//!
//! Every (workload, N) cell derives its [`activepy::ShardedPlan`] from
//! the *same* cached single-device plan — sampling, fitting, and the
//! full-scale input are produced once per workload and sliced by the
//! [`ShardMap`], never regenerated per shard count (the cache's misses
//! prove it). Speedups are simulated end-to-end latency vs the N=1
//! fleet row, so the sweep is fully deterministic: the floors in
//! [`check`] hold on any host.
//!
//! Two invariants ride along with the scaling numbers:
//!
//! - **Zero fingerprint divergence** — every fleet run's
//!   `values_fingerprint` equals the unsharded single-device run's, for
//!   every workload and every N.
//! - **Per-shard failure isolation** — the chaos cell crashes exactly one
//!   shard's CSE at t=0; that shard alone migrates to the host, the rest
//!   finish on-device, and the answer is unchanged.

use activepy::runtime::ActivePy;
use activepy::{execute_sharded_plan, PlanCache};
use alang::shard::{ShardMap, ShardStrategy};
use csd_sim::fault::FaultPlan;
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use serde::Serialize;

/// Fleet sizes the sweep visits, in presentation order.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Workloads in the sweep. The first four carry long rowwise prefixes
/// (the fence sits at or near the final reduction), so their scatter
/// phase dominates and scales with N. TPC-H-1 fences mid-program at its
/// `group_sum` and scales only its scan-filter prefix; PageRank's graph
/// has fewer logical rows than [`alang::shard::SHARD_MIN_ROWS`], so the
/// auto map replicates everything and the fleet buys nothing — and
/// LogGrep's encoded streams replicate rather than shard (wire-format
/// chunks carry no rowwise split), the three known contrasts the floors
/// exclude.
pub const WORKLOADS: [&str; 7] = [
    "blackscholes",
    "TPC-H-6",
    "MatrixMul",
    "LightGBM",
    "TPC-H-1",
    "PageRank",
    "LogGrep",
];

/// The subset of [`WORKLOADS`] whose rowwise prefix dominates; [`check`]
/// holds these to the N=8 speedup floor.
pub const SCALABLE: [&str; 4] = ["blackscholes", "TPC-H-6", "MatrixMul", "LightGBM"];

/// The deterministic speedup floor at N=8 for every [`SCALABLE`]
/// workload.
pub const N8_SPEEDUP_FLOOR: f64 = 2.0;

/// The chaos cell: this workload, this fleet size, this shard crashed.
pub const CHAOS_WORKLOAD: &str = "blackscholes";
/// Fleet size of the chaos cell.
pub const CHAOS_SHARDS: usize = 4;
/// The shard whose CSE crashes at t=0.
pub const CHAOS_SHARD: usize = 2;

/// One (workload, N) cell.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Fleet size.
    pub shards: usize,
    /// Index of the first host-side line (the scatter/gather fence).
    pub fence: usize,
    /// Program length, for reading the fence position.
    pub lines: usize,
    /// End-to-end simulated latency.
    pub total_secs: f64,
    /// Scatter phase (max over the concurrent shard devices).
    pub scatter_secs: f64,
    /// Concurrent carrier gather under the shared host-link budget.
    pub gather_secs: f64,
    /// Ordered host-side combine.
    pub combine_secs: f64,
    /// Host-side fence-and-after phase.
    pub tail_secs: f64,
    /// Bytes gathered across all shards.
    pub gathered_bytes: u64,
    /// Shards that finished their scatter on-device.
    pub shards_on_device: usize,
    /// Speedup vs this workload's N=1 fleet row.
    pub speedup: f64,
    /// Whether the fingerprint matched the unsharded single-device run.
    pub fingerprint_ok: bool,
}

/// The chaos cell's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct Chaos {
    /// Workload name.
    pub name: String,
    /// Fleet size.
    pub shards: usize,
    /// The shard whose CSE crashed at t=0.
    pub faulted_shard: usize,
    /// Whether the crashed shard (and only it) migrated to the host.
    pub faulted_migrated: bool,
    /// Whether every other shard finished on-device.
    pub healthy_on_device: bool,
    /// Whether the answer matched the fault-free fleet run.
    pub fingerprint_ok: bool,
    /// CSE crashes the injectors actually delivered (must be 1).
    pub injected_crashes: u64,
    /// End-to-end latency of the chaotic run.
    pub total_secs: f64,
    /// End-to-end latency of the fault-free twin.
    pub healthy_secs: f64,
}

/// The sweep's full result.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Every (workload, N) cell, workload-major in [`SHARD_COUNTS`]
    /// order.
    pub rows: Vec<Row>,
    /// The one-shard-crash isolation cell.
    pub chaos: Chaos,
    /// Full-scale input generations: the sweep's plan-cache misses, a cold
    /// miss being exactly one `storage_at(1.0)` (a warm-started one, none)
    /// — at most one per workload when the hoist holds, 0 when earlier
    /// experiments already planned every base.
    pub full_datagens: u64,
    /// Cells whose fingerprint diverged from the unsharded run (must be
    /// zero).
    pub fingerprint_divergences: usize,
}

/// Runs the sweep against `cache`, so a full repro run samples each
/// workload once across figures *and* fleet sizes.
///
/// # Panics
///
/// Panics if a registered workload fails to plan or run.
#[must_use]
pub fn run(cache: &PlanCache) -> Report {
    run_configured(&WORKLOADS, &SHARD_COUNTS, cache)
}

/// The sweep core: `workloads` × `counts` cells plus the chaos cell,
/// against `cache`.
fn run_configured(workloads: &[&str], counts: &[usize], cache: &PlanCache) -> Report {
    let misses_before = cache.stats().misses;
    let config = SystemConfig::paper_default();
    let rt = ActivePy::new();
    let mut rows = Vec::new();
    let mut divergences = 0usize;
    for name in workloads {
        let w = isp_workloads::by_name(name).expect("registered workload");
        let program = w.program().expect("registered workloads parse");
        // Hoisted per workload: one sampling pass, one full-scale input.
        // Every fleet size below derives from this plan and slices the
        // same dataset through its ShardMap.
        let base = cache
            .plan_for(&rt, w.name(), &program, &w, &config)
            .expect("planning succeeds");
        let unsharded = rt
            .execute_plan(&base, &config, ContentionScenario::none())
            .expect("unsharded reference");
        let mut one_secs = None;
        for &n in counts {
            let map = ShardMap::auto(&base.full_storage, n, ShardStrategy::Range);
            let plan = cache
                .sharded_plan_for(&rt, w.name(), &program, &w, &config, &map)
                .expect("sharded planning succeeds");
            let report = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &[])
                .expect("fleet run succeeds");
            let fingerprint_ok = report.values_fingerprint == unsharded.report.values_fingerprint;
            if !fingerprint_ok {
                divergences += 1;
            }
            let total_secs = report.total_secs();
            let base_secs = *one_secs.get_or_insert(total_secs);
            rows.push(Row {
                name: w.name().to_owned(),
                shards: n,
                fence: report.fence,
                lines: program.len(),
                total_secs,
                scatter_secs: report.scatter_secs(),
                gather_secs: report.gather_secs,
                combine_secs: report.combine_secs,
                tail_secs: report.tail_secs,
                gathered_bytes: report.gathered_bytes(),
                shards_on_device: report.shards_on_device(),
                speedup: base_secs / total_secs,
                fingerprint_ok,
            });
        }
    }
    let chaos = run_chaos(&rt, cache, &config);
    Report {
        rows,
        chaos,
        full_datagens: cache.stats().misses - misses_before,
        fingerprint_divergences: divergences,
    }
}

/// The failure-isolation cell: crash [`CHAOS_SHARD`]'s CSE at t=0 in a
/// [`CHAOS_SHARDS`]-device fleet and compare against the fault-free twin.
fn run_chaos(rt: &ActivePy, cache: &PlanCache, config: &SystemConfig) -> Chaos {
    let w = isp_workloads::by_name(CHAOS_WORKLOAD).expect("registered workload");
    let program = w.program().expect("registered workloads parse");
    let base = cache
        .plan_for(rt, w.name(), &program, &w, config)
        .expect("planning succeeds");
    let map = ShardMap::auto(&base.full_storage, CHAOS_SHARDS, ShardStrategy::Range);
    let plan = cache
        .sharded_plan_for(rt, w.name(), &program, &w, config, &map)
        .expect("sharded planning succeeds");
    let healthy = execute_sharded_plan(rt, &plan, config, ContentionScenario::none(), &[])
        .expect("healthy fleet run");
    let mut faults = vec![FaultPlan::none(); CHAOS_SHARDS];
    faults[CHAOS_SHARD] = FaultPlan::none().with_crash_at(SimTime::from_secs(0.0));
    let chaotic = execute_sharded_plan(rt, &plan, config, ContentionScenario::none(), &faults)
        .expect("chaotic fleet run completes");
    Chaos {
        name: w.name().to_owned(),
        shards: CHAOS_SHARDS,
        faulted_shard: CHAOS_SHARD,
        faulted_migrated: chaotic.shards[CHAOS_SHARD].report.migration().is_some(),
        healthy_on_device: chaotic
            .shards
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != CHAOS_SHARD)
            .all(|(_, s)| s.report.migration().is_none()),
        fingerprint_ok: chaotic.values_fingerprint == healthy.values_fingerprint,
        injected_crashes: chaotic.injected().cse_crashes,
        total_secs: chaotic.total_secs(),
        healthy_secs: healthy.total_secs(),
    }
}

/// The sweep's deterministic acceptance floors. Simulated time is exact,
/// so these hold on any host.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check(report: &Report) -> Result<(), String> {
    if report.fingerprint_divergences != 0 {
        return Err(format!(
            "{} cells diverged from the unsharded fingerprint",
            report.fingerprint_divergences
        ));
    }
    if let Some(bad) = report.rows.iter().find(|r| !r.fingerprint_ok) {
        return Err(format!("{} N={} changed the answer", bad.name, bad.shards));
    }
    for row in &report.rows {
        if SCALABLE.contains(&row.name.as_str())
            && row.shards == 8
            && row.speedup < N8_SPEEDUP_FLOOR
        {
            return Err(format!(
                "{} N=8 speedup {:.2}x under the {N8_SPEEDUP_FLOOR:.1}x floor",
                row.name, row.speedup
            ));
        }
        if row.speedup < 0.95 && SCALABLE.contains(&row.name.as_str()) {
            return Err(format!(
                "{} N={} regressed below N=1: {:.2}x",
                row.name, row.shards, row.speedup
            ));
        }
    }
    let c = &report.chaos;
    if !c.fingerprint_ok {
        return Err(format!(
            "chaos cell ({} N={}, shard {} crashed) changed the answer",
            c.name, c.shards, c.faulted_shard
        ));
    }
    if !c.faulted_migrated || c.injected_crashes != 1 {
        return Err(format!(
            "the crashed shard must migrate exactly once: migrated={}, crashes={}",
            c.faulted_migrated, c.injected_crashes
        ));
    }
    if !c.healthy_on_device {
        return Err("a healthy shard left its device during the chaos cell".to_owned());
    }
    Ok(())
}

/// Prints the sweep in a per-workload table plus the chaos line.
pub fn print(report: &Report) {
    println!("== Shard scaling: scatter-gather fleet, N in {SHARD_COUNTS:?} ==");
    println!(
        "{:<14} {:>2} {:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>6} {:>4}",
        "workload", "N", "fence", "total", "scatter", "gather", "combine", "tail", "x", "fp", "dev"
    );
    for r in &report.rows {
        println!(
            "{:<14} {:>2} {:>3}/{:<2} {:>8.3}s {:>8.3}s {:>7.3}s {:>7.3}s {:>7.3}s {:>6.2}x {:>6} {:>4}",
            r.name,
            r.shards,
            r.fence,
            r.lines,
            r.total_secs,
            r.scatter_secs,
            r.gather_secs,
            r.combine_secs,
            r.tail_secs,
            r.speedup,
            if r.fingerprint_ok { "ok" } else { "DIV" },
            r.shards_on_device,
        );
    }
    let at_eight: Vec<f64> = report
        .rows
        .iter()
        .filter(|r| r.shards == 8 && SCALABLE.contains(&r.name.as_str()))
        .map(|r| r.speedup)
        .collect();
    println!(
        "geomean speedup at N=8 over the scalable set: {:.2}x (floor {:.1}x each)",
        crate::geomean(&at_eight),
        N8_SPEEDUP_FLOOR
    );
    let c = &report.chaos;
    println!(
        "chaos: {} N={}, shard {} CSE crash at t=0 -> migrated={}, others on-device={}, \
         answer ok={}, {:.3}s vs healthy {:.3}s",
        c.name,
        c.shards,
        c.faulted_shard,
        c.faulted_migrated,
        c.healthy_on_device,
        c.fingerprint_ok,
        c.total_secs,
        c.healthy_secs
    );
    println!(
        "(full-scale datagens this sweep: {} — at most one per workload, reused \
         across every N; 0 when earlier figures already planned the bases)",
        report.full_datagens
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced sweep: two workloads (one scalable, one fence-limited)
    /// at N ∈ {1, 2}, plus the chaos cell — cheap enough for the unit
    /// suite while exercising every code path of the full sweep.
    #[test]
    fn smoke_sweep_holds_invariants_with_one_datagen_per_workload() {
        let cache = PlanCache::new();
        let report = run_configured(&["blackscholes", "PageRank", "LogGrep"], &[1, 2], &cache);
        assert_eq!(report.rows.len(), 6);
        assert_eq!(report.fingerprint_divergences, 0);
        assert!(report.rows.iter().all(|r| r.fingerprint_ok));
        // Satellite invariant: the full dataset is generated once per
        // workload and sliced by the ShardMap for every fleet size —
        // including the chaos cell, which reuses blackscholes' plan.
        assert_eq!(
            report.full_datagens, 3,
            "one full-scale datagen per workload across all N"
        );
        let bs2 = report
            .rows
            .iter()
            .find(|r| r.name == "blackscholes" && r.shards == 2)
            .expect("blackscholes N=2 row");
        assert!(
            bs2.speedup > 1.2,
            "two devices must beat one on a scatter-dominated workload: {:.2}x",
            bs2.speedup
        );
        assert!(
            bs2.fence >= bs2.lines - 1,
            "blackscholes fences at its tail"
        );
        // PageRank's graph sits under SHARD_MIN_ROWS: the auto map
        // replicates everything, no line is sharded (fence = len), and a
        // bigger fleet buys nothing.
        let pr2 = report
            .rows
            .iter()
            .find(|r| r.name == "PageRank" && r.shards == 2)
            .expect("PageRank N=2 row");
        assert_eq!(pr2.fence, pr2.lines, "nothing shardable, so no fence");
        assert!(
            (pr2.speedup - 1.0).abs() < 0.05,
            "a fully replicated workload cannot scale: {:.2}x",
            pr2.speedup
        );
        // LogGrep's encoded streams replicate the same way: the sharded
        // run stays byte-identical but the fleet buys nothing.
        let lg2 = report
            .rows
            .iter()
            .find(|r| r.name == "LogGrep" && r.shards == 2)
            .expect("LogGrep N=2 row");
        assert!(lg2.fingerprint_ok, "{lg2:?}");
        assert_eq!(lg2.fence, lg2.lines, "encoded datasets never shard");
        assert!(
            (lg2.speedup - 1.0).abs() < 0.05,
            "replicated wire-format workload cannot scale: {:.2}x",
            lg2.speedup
        );
        // The chaos cell: exactly one shard crashed, it alone migrated,
        // and the answer is byte-identical.
        let c = &report.chaos;
        assert!(c.faulted_migrated, "{c:?}");
        assert!(c.healthy_on_device, "{c:?}");
        assert!(c.fingerprint_ok, "{c:?}");
        assert_eq!(c.injected_crashes, 1, "{c:?}");
        assert!(c.total_secs >= c.healthy_secs, "{c:?}");
    }

    /// A base plan made from the bare `Workload` — as every other
    /// experiment makes it — is the one the sweep looks up: LogGrep's
    /// encoded datasets put a wire fingerprint in its key, so a sweep that
    /// wrapped the workload in another input source would miss and plan
    /// it again.
    #[test]
    fn a_base_planned_elsewhere_is_not_planned_again() {
        let cache = PlanCache::new();
        let config = SystemConfig::paper_default();
        // LogGrep for its one cell, blackscholes for the chaos cell.
        for name in ["LogGrep", CHAOS_WORKLOAD] {
            let w = isp_workloads::by_name(name).expect("registered workload");
            let program = w.program().expect("registered workloads parse");
            cache
                .plan_for(&ActivePy::new(), name, &program, &w, &config)
                .expect("planning succeeds");
        }
        let report = run_configured(&["LogGrep"], &[1], &cache);
        assert_eq!(report.full_datagens, 0, "{:?}", cache.stats());
        assert_eq!(cache.stats().misses, 2, "the sweep added a miss");
        assert_eq!(report.fingerprint_divergences, 0);
    }
}
