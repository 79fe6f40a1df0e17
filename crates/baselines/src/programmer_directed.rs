//! The programmer-directed ISP baseline (§V).
//!
//! "To create an optimal programmer-directed code for each C application,
//! we exhaustively tried to offload all reasonable combinations of
//! single-entry-single-exit code regions … when the CSD entirely dedicated
//! itself to the running program. We select the combination that delivers
//! the shortest end-to-end latency."
//!
//! Because data flows forward through these pipelines, the reasonable
//! combinations are the contiguous line ranges (plus the empty plan); the
//! search evaluates the program once, simulates every combination over
//! that evaluation at native tier under full CSD availability, and keeps
//! the fastest ([`fastest_placement`], the loop the planner-regret search
//! shares). The returned [`OffloadPlan`] can then be re-run
//! under any contention scenario — that re-run *is* the Summarizer-style
//! static framework of Figures 2 and 5.

use crate::error::{BaselineError, Result};
use activepy::exec::{evaluate, simulate, Evaluation, ExecOptions, RunReport};
use alang::Program;
use csd_sim::contention::ContentionScenario;
use csd_sim::{EngineKind, SystemConfig};
use isp_workloads::Workload;
use serde::Serialize;

/// A fixed, compiler-baked offload decision.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OffloadPlan {
    /// Per-line engine placement.
    pub placements: Vec<EngineKind>,
    /// The offloaded contiguous range, if any (inclusive).
    pub range: Option<(usize, usize)>,
    /// End-to-end latency measured during the search (100 % CSD
    /// availability, native code).
    pub optimized_secs: f64,
}

impl OffloadPlan {
    /// Line indices offloaded by this plan.
    #[must_use]
    pub fn csd_lines(&self) -> Vec<usize> {
        self.placements
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == EngineKind::Cse)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Exhaustively searches contiguous offload ranges for the plan with the
/// shortest end-to-end latency at 100 % CSD availability, in C (native)
/// code — the paper's optimal programmer-directed configuration.
///
/// # Errors
///
/// Propagates parse/execution failures from candidate runs.
pub fn best_static_plan(workload: &Workload, config: &SystemConfig) -> Result<OffloadPlan> {
    let program = workload.program()?;
    let storage = workload.storage_at(1.0);
    let n = program.len();
    if n == 0 {
        return Err(BaselineError::search("cannot plan an empty program"));
    }
    // Placement moves cost, never values: one lowering and one evaluation
    // serve all n(n+1)/2 + 1 candidates.
    let opts = ExecOptions::native_static();
    let evaluation = evaluate(&program, workload.lowered()?, &storage, &opts)?;
    let mut candidates = contiguous_placements(n);
    let (best, optimized_secs) =
        fastest_placement(&program, &evaluation, &candidates, config, &opts)?;
    let placements = candidates.swap_remove(best);
    let offloaded = |k: &usize| placements[*k] == EngineKind::Cse;
    let range = (0..n).find(offloaded).zip((0..n).rfind(offloaded));
    Ok(OffloadPlan {
        placements,
        range,
        optimized_secs,
    })
}

/// The empty plan, then every contiguous range `[i, j]` of an `n`-line
/// program in `(i, j)` order: the single-entry-single-exit regions a
/// programmer offloads as one function.
#[must_use]
pub fn contiguous_placements(n: usize) -> Vec<Vec<EngineKind>> {
    let mut candidates = vec![vec![EngineKind::Host; n]];
    for i in 0..n {
        for j in i..n {
            let mut placements = vec![EngineKind::Host; n];
            placements[i..=j].fill(EngineKind::Cse);
            candidates.push(placements);
        }
    }
    candidates
}

/// The search loop every placement search shares: simulates each of
/// `candidates` over one `evaluation` of `program`, on a fresh `config`
/// system under `opts`, and returns the fastest one's index and end-to-end
/// seconds. Ties keep the earlier candidate.
///
/// # Errors
///
/// Propagates a failed simulation; an empty `candidates` is a search error.
pub fn fastest_placement(
    program: &Program,
    evaluation: &Evaluation,
    candidates: &[Vec<EngineKind>],
    config: &SystemConfig,
    opts: &ExecOptions,
) -> Result<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, placements) in candidates.iter().enumerate() {
        let mut system = config.build();
        let secs = simulate(
            program,
            evaluation,
            placements,
            &mut system,
            opts,
            None,
            None,
        )?
        .total_secs;
        if best.is_none_or(|(_, fastest)| secs < fastest) {
            best = Some((i, secs));
        }
    }
    best.ok_or_else(|| BaselineError::search("no candidate plan produced a report"))
}

/// Re-runs a fixed plan under `scenario` with no migration capability —
/// the behaviour of a conventional compiled ISP framework when the world
/// changes after the code was written.
///
/// # Errors
///
/// Propagates parse/execution failures.
pub fn run_plan(
    workload: &Workload,
    config: &SystemConfig,
    plan: &OffloadPlan,
    scenario: ContentionScenario,
) -> Result<RunReport> {
    let program = workload.program()?;
    if plan.placements.len() != program.len() {
        return Err(BaselineError::search(format!(
            "plan has {} placements for a {}-line program",
            plan.placements.len(),
            program.len()
        )));
    }
    // The workload's kept lowering: one per workload, not one per re-run.
    let opts = ExecOptions::native_static().with_scenario(scenario);
    let evaluation = evaluate(
        &program,
        workload.lowered()?,
        &workload.storage_at(1.0),
        &opts,
    )?;
    let mut system = config.build();
    let report = simulate(
        &program,
        &evaluation,
        &plan.placements,
        &mut system,
        &opts,
        None,
        None,
    )?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_only::run_c_baseline;

    #[test]
    fn search_beats_or_matches_host_only() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let plan = best_static_plan(&q6, &config).expect("plan");
        let host = run_c_baseline(&q6, &config).expect("host");
        assert!(
            plan.optimized_secs <= host.total_secs + 1e-9,
            "search must never lose to the empty plan: {} vs {}",
            plan.optimized_secs,
            host.total_secs
        );
        assert!(
            plan.range.is_some(),
            "Q6 is the archetypal ISP query; something should offload"
        );
    }

    #[test]
    fn the_search_evaluates_its_program_once() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        assert!(q6.program().expect("program").len() > 1, "many candidates");
        // The only way to a `RunReport` without evaluating is `simulate`
        // over an existing evaluation, which takes no lowering: one
        // evaluation means one lowering too.
        let before = activepy::exec::evaluations_on_this_thread();
        best_static_plan(&q6, &config).expect("plan");
        assert_eq!(activepy::exec::evaluations_on_this_thread() - before, 1);
    }

    #[test]
    fn plan_rerun_reproduces_search_latency() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let plan = best_static_plan(&q6, &config).expect("plan");
        let rep = run_plan(&q6, &config, &plan, ContentionScenario::none()).expect("rerun");
        assert!(
            (rep.total_secs - plan.optimized_secs).abs() / plan.optimized_secs < 1e-9,
            "deterministic simulator must reproduce the search result"
        );
    }

    #[test]
    fn contention_degrades_a_fixed_plan() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let plan = best_static_plan(&q6, &config).expect("plan");
        let full = run_plan(&q6, &config, &plan, ContentionScenario::none()).expect("full");
        let starved =
            run_plan(&q6, &config, &plan, ContentionScenario::constant(0.1)).expect("starved");
        assert!(
            starved.total_secs > full.total_secs * 1.3,
            "10% availability must hurt a static plan: {} vs {}",
            starved.total_secs,
            full.total_secs
        );
    }

    #[test]
    fn plan_length_mismatch_is_rejected() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let bad = OffloadPlan {
            placements: vec![EngineKind::Host; 2],
            range: None,
            optimized_secs: 0.0,
        };
        assert!(run_plan(&q6, &config, &bad, ContentionScenario::none()).is_err());
    }
}
