//! The execution engine: runs a partitioned program against the simulated
//! platform.
//!
//! The engine walks the program line by line (the ActivePy task unit),
//! charging the simulator for compute, storage streaming, interconnect
//! transfers, queue-pair invocations, and status updates. When a monitor is
//! installed, every CSD status update is inspected and, on degradation, the
//! remaining CSD work is re-estimated and migrated back to the host at the
//! current line boundary (§III-D): live state moves through the shared
//! address space, host code is regenerated, and execution resumes at the
//! breakpoint.

use crate::error::{ActivePyError, Result};
use crate::estimate::LineEstimate;
use crate::metrics::MetricsSnapshot;
use crate::monitor::{Monitor, MonitorConfig, Observation};
use crate::recovery::{Recovery, RecoveryPolicy};
use crate::resume::{backend_code, reason_code, ExecJournal};
use alang::compile::CompiledProgram;
use alang::{
    CostParams, ExecBackend, ExecTier, Fingerprinter, Interpreter, LineCost, LoweredProgram,
    ParStatsSnapshot, ParallelPolicy, Program, Storage, Vm,
};
use csd_sim::availability::AvailabilityTrace;
use csd_sim::contention::{ContentionScenario, Trigger};
use csd_sim::fault::{DeviceFault, FaultPlan};
use csd_sim::nvme::CommandKind;
use csd_sim::units::{Bytes, Ops};
use csd_sim::{Direction, EngineKind, System};
use isp_obs::{Attrs, SpanKind, StateSnap, Tracer, WalRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options controlling one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// The code tier both partitions run at.
    pub tier: ExecTier,
    /// Cost-model constants.
    pub params: CostParams,
    /// CSE contention applied during the run.
    pub scenario: ContentionScenario,
    /// Monitoring/migration policy; `None` disables migration (the static
    /// frameworks of Figures 2 and 5).
    pub monitor: Option<MonitorConfig>,
    /// Whether to charge queue-pair invocation and status-update overheads
    /// (on for ISP runs; irrelevant for all-host runs).
    pub offload_overheads: bool,
    /// Simulated time at which the CSD must preempt the ISP task for a
    /// high-priority request (§III-D, case 1): a `Break` command lands in
    /// the call queue, the status-update code sees it at the next chunk
    /// boundary, and the task migrates unconditionally.
    pub preempt_at: Option<f64>,
    /// The per-line evaluation engine: the lowered register-bytecode VM
    /// (default) or the tree-walking reference interpreter. Both produce
    /// byte-identical reports; they differ only in repro wall-clock.
    pub backend: ExecBackend,
    /// How the run responds to injected device faults (retry budget,
    /// sim-time backoff, host fallback).
    pub recovery: RecoveryPolicy,
    /// The deterministic fault plan injected into the simulator for this
    /// run; [`FaultPlan::none`] (the default) injects nothing.
    pub faults: FaultPlan,
    /// How builtin kernels execute on the repro host: chunked across a
    /// worker pool (`threads > 1`) or serially (the default). Execution-only
    /// — values, [`LineCost`] records, and `values_fingerprint` are
    /// identical for every valid policy, so plans cached under one policy
    /// replay under any other.
    pub parallel: ParallelPolicy,
    /// Trace recording handle. Disabled by default; when enabled, the run
    /// records dual-clock spans for regions, chunks, host lines, monitor
    /// windows, migration decisions, faults, and recovery backoffs.
    /// Observation-only: a live tracer never perturbs the simulated clock,
    /// `values_fingerprint`, or any [`RunReport`] field.
    pub tracer: Tracer,
    /// Measured-cost recording handle. Disabled by default; when enabled,
    /// the run appends its per-line measured [`LineCost`]s to the attached
    /// [`crate::profile::ProfileStore`] after the report is assembled.
    /// Observation-only, like the tracer: recording never perturbs the
    /// simulated clock, `values_fingerprint`, or any [`RunReport`] field.
    pub profile: crate::profile::ProfileRecorder,
    /// Crash-consistent journal handle. Disabled by default; when enabled,
    /// the run appends one checksummed WAL record per execution boundary
    /// (run start/end, host line, region chunk, migration, reclaim) — or,
    /// when resuming, verifies each boundary against the recovered log.
    /// Like the tracer, a live journal never perturbs the simulated
    /// clock, `values_fingerprint`, or any [`RunReport`] field.
    pub journal: crate::resume::ExecJournal,
}

impl ExecOptions {
    /// ActivePy's own execution: generated copy-eliminated code, default
    /// monitoring, no contention.
    #[must_use]
    pub fn activepy() -> Self {
        ExecOptions {
            tier: ExecTier::CompiledCopyElim,
            params: CostParams::paper_default(),
            scenario: ContentionScenario::none(),
            monitor: Some(MonitorConfig::default()),
            offload_overheads: true,
            preempt_at: None,
            backend: ExecBackend::default(),
            recovery: RecoveryPolicy::default(),
            faults: FaultPlan::none(),
            parallel: ParallelPolicy::default(),
            tracer: Tracer::disabled(),
            profile: crate::profile::ProfileRecorder::disabled(),
            journal: crate::resume::ExecJournal::disabled(),
        }
    }

    /// A hand-written C framework: native code, no monitoring.
    #[must_use]
    pub fn native_static() -> Self {
        ExecOptions {
            tier: ExecTier::Native,
            params: CostParams::paper_default(),
            scenario: ContentionScenario::none(),
            monitor: None,
            offload_overheads: true,
            preempt_at: None,
            backend: ExecBackend::default(),
            recovery: RecoveryPolicy::default(),
            faults: FaultPlan::none(),
            parallel: ParallelPolicy::default(),
            tracer: Tracer::disabled(),
            profile: crate::profile::ProfileRecorder::disabled(),
            journal: crate::resume::ExecJournal::disabled(),
        }
    }

    /// Replaces the contention scenario.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ContentionScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Disables task migration.
    #[must_use]
    pub fn without_migration(mut self) -> Self {
        self.monitor = None;
        self
    }

    /// Schedules a high-priority preemption at `at_secs`.
    #[must_use]
    pub fn with_preemption_at(mut self, at_secs: f64) -> Self {
        self.preempt_at = Some(at_secs);
        self
    }

    /// Selects the per-line evaluation backend.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Installs a deterministic fault plan for the run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the data-parallel kernel policy. Validated at the door like
    /// every other policy; see [`ParallelPolicy::validate`].
    #[must_use]
    pub fn with_parallelism(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches a trace recording handle to the run.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a measured-cost recording handle to the run.
    #[must_use]
    pub fn with_profile(mut self, profile: crate::profile::ProfileRecorder) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches a crash-consistent journal handle to the run.
    #[must_use]
    pub fn with_journal(mut self, journal: crate::resume::ExecJournal) -> Self {
        self.journal = journal;
        self
    }
}

/// One shard's view of an execution, for fleet scatter/gather runs.
///
/// The repo's central repro discipline is that placement affects *costs
/// only*: the evaluator always computes every value on the full data, so
/// answers are byte-identical no matter where lines run. A `ShardSlice`
/// extends the same discipline to fleets: a shard run evaluates the whole
/// program (values — and therefore `values_fingerprint` — are identical
/// on every shard), but is *charged* only for its own work:
///
/// * lines outside `[charge_start, charge_end)` are evaluated free — no
///   storage, compute, staging, or allocation charges (they belong to a
///   different phase of the fleet plan, e.g. the host-side combine);
/// * charged lines whose output is row-partitioned (`sharded[line]`)
///   charge the shard's exact slice of every extensive quantity, using
///   the same integer partition arithmetic as chunk streaming, so slices
///   across shards sum to the unsharded total with no remainder;
/// * charged replicated lines (model weights, centroid seeds) charge in
///   full on every shard — replicated work really is redone per device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlice {
    /// This shard's index.
    pub index: usize,
    /// Total shards in the fleet.
    pub count: usize,
    /// Row-bound numerator: first row owned.
    pub lo: u64,
    /// Row-bound numerator: one past the last row owned.
    pub hi: u64,
    /// The partition denominator (total logical rows).
    pub rows: u64,
    /// First line this run is charged for.
    pub charge_start: usize,
    /// One past the last line this run is charged for.
    pub charge_end: usize,
    /// Per line: whether its output is row-partitioned (sharded lines
    /// charge a slice, replicated lines charge in full).
    pub sharded: Vec<bool>,
}

impl ShardSlice {
    /// This shard's exact slice of an extensive total; slices across all
    /// shards of one [`alang::shard::ShardMap`] sum to `total`.
    #[must_use]
    pub fn slice(&self, total: u64) -> u64 {
        if self.rows == 0 {
            return total;
        }
        total * self.hi / self.rows - total * self.lo / self.rows
    }

    /// Whether `line` is charged by this run at all.
    #[must_use]
    pub fn charges(&self, line: usize) -> bool {
        line >= self.charge_start && line < self.charge_end
    }

    /// The charge for a quantity produced *by* `line`: zero outside the
    /// charge range, a slice for sharded lines, full for replicated ones.
    #[must_use]
    pub fn scale_line(&self, line: usize, total: u64) -> u64 {
        if !self.charges(line) {
            0
        } else if self.sharded.get(line).copied().unwrap_or(false) {
            self.slice(total)
        } else {
            total
        }
    }

    /// The charge for moving a value defined at `def_line` on behalf of
    /// `at_line`: sliced when the *defining* line is row-partitioned
    /// (each shard ships only its rows), full otherwise.
    #[must_use]
    pub fn scale_def(&self, def_line: Option<usize>, at_line: usize, total: u64) -> u64 {
        if !self.charges(at_line) {
            return 0;
        }
        match def_line {
            Some(d) if self.sharded.get(d).copied().unwrap_or(false) => self.slice(total),
            _ => total,
        }
    }
}

/// What happened on one line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineOutcome {
    /// Line index.
    pub line: usize,
    /// Engine that executed it.
    pub engine: EngineKind,
    /// Start time, seconds.
    pub start_secs: f64,
    /// End time, seconds.
    pub end_secs: f64,
    /// Measured cost.
    pub cost: LineCost,
    /// Bytes moved across the interconnect to stage this line's inputs.
    pub staged_bytes: u64,
}

/// Why a migration was initiated (§III-D distinguishes throughput
/// degradation from preemption; device faults extend the same mechanism
/// to hardware adversity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationReason {
    /// The monitor observed degraded throughput and the re-estimate said
    /// finishing on the host is cheaper.
    Degraded,
    /// The device signalled a high-priority request through the command
    /// pages; the task must vacate immediately.
    Preempted,
    /// A hard device fault (CSE crash, or a transient fault that exhausted
    /// its retry budget): the remaining work falls back to the host from
    /// the last completed chunk-boundary checkpoint.
    DeviceFault,
    /// The reverse direction: lines that had migrated to the host after a
    /// degradation are speculatively re-assigned to the CSD once measured
    /// availability clears again (profile-guided re-planning's bidirectional
    /// migration). Hysteresis-guarded to avoid ping-ponging.
    Reclaim,
}

impl MigrationReason {
    /// Stable lowercase label — the `reason` attribute on
    /// `migration.decision` trace events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MigrationReason::Degraded => "degraded",
            MigrationReason::Preempted => "preempted",
            MigrationReason::DeviceFault => "device_fault",
            MigrationReason::Reclaim => "reclaim",
        }
    }
}

/// Alias emphasizing the causal reading of [`MigrationReason`] in fault
/// reports and the bench sweep.
pub type MigrationCause = MigrationReason;

/// A migration that occurred during the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// The CSD line at whose end execution broke.
    pub after_line: usize,
    /// Live state moved device-to-host, bytes.
    pub state_bytes: u64,
    /// Wall-clock time of the decision, seconds.
    pub at_secs: f64,
    /// Code-regeneration overhead paid, seconds.
    pub regen_secs: f64,
    /// What triggered the break.
    pub reason: MigrationReason,
}

/// The result of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// End-to-end latency in seconds.
    pub total_secs: f64,
    /// Per-line outcomes.
    pub lines: Vec<LineOutcome>,
    /// The migration, if one occurred.
    pub migration: Option<MigrationEvent>,
    /// Lines that actually executed on the CSD.
    pub csd_lines_executed: usize,
    /// Total bytes shipped device-to-host.
    pub d2h_bytes: u64,
    /// Total bytes shipped host-to-device.
    pub h2d_bytes: u64,
    /// Peak bytes of program state resident in device DRAM (BAR-mapped
    /// shared-address-space allocations).
    pub peak_device_bytes: u64,
    /// FNV-1a hash over every program variable's final value, in
    /// first-assignment order — the cheap "did we compute the same
    /// answer?" check the fault sweep and the chaos differential compare
    /// across faulted and fault-free runs.
    pub values_fingerprint: u64,
    /// The kernel-execution policy the run was configured with.
    pub parallel: ParallelPolicy,
    /// The unified metrics block: fault, recovery, and kernel counter
    /// families in one deterministic snapshot (plan-cache counters are
    /// zero here; [`crate::plan::PlanCache`] fills them in for cached
    /// runs).
    pub metrics: MetricsSnapshot,
    /// Every migration the run performed, in decision order — including
    /// [`MigrationReason::Reclaim`] flips back to the CSD. The legacy
    /// `migration` field above stays the last *host-ward* event so callers
    /// that predate bidirectional migration read what they always read.
    /// Appended after `metrics` so the serialized prefix the golden
    /// journals predate is unchanged.
    pub migrations: Vec<MigrationEvent>,
    /// The per-line Eq. 1 terms of the assignment that executed —
    /// empty for raw `execute` calls, filled by
    /// [`crate::runtime::ActivePy::execute_plan`] and the fleet plan
    /// executor so the audit layer can join predictions against this
    /// report without the plan in hand. Appended after `migrations` to
    /// keep the serialized prefix stable.
    pub eq1: Vec<crate::audit::Eq1Term>,
}

impl RunReport {
    /// Sum of measured line costs.
    #[must_use]
    pub fn total_cost(&self) -> LineCost {
        self.lines.iter().map(|l| l.cost).sum()
    }

    /// Total wall-clock seconds spent executing CSD lines.
    #[must_use]
    pub fn csd_busy_secs(&self) -> f64 {
        self.lines
            .iter()
            .filter(|l| l.engine == EngineKind::Cse)
            .map(|l| l.end_secs - l.start_secs)
            .sum()
    }

    /// The absolute simulated time at which the ISP task had completed
    /// `fraction` of its CSD work in this run — how the Figure 5 stress
    /// point ("right after 50 % of their progress") is computed from an
    /// uncontended reference run. Returns `None` when nothing ran on the
    /// CSD.
    #[must_use]
    pub fn time_at_csd_progress(&self, fraction: f64) -> Option<f64> {
        let total = self.csd_busy_secs();
        if total <= 0.0 {
            return None;
        }
        let target = total * fraction.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for l in &self.lines {
            if l.engine != EngineKind::Cse {
                continue;
            }
            let span = l.end_secs - l.start_secs;
            if acc + span >= target {
                return Some(l.start_secs + (target - acc));
            }
            acc += span;
        }
        self.lines.last().map(|l| l.end_secs)
    }
}

/// Executes `program` with the given per-line `placements` on `system`.
///
/// `estimates` (from the sampling/fitting pipeline) are required for
/// migration decisions; without them the monitor is ignored. `copy_elim`
/// follows [`alang::copyelim::eliminable_lines`] (empty disables
/// elimination).
///
/// # Errors
///
/// Returns an error if `placements` does not match the program length, or
/// if any line fails to evaluate.
pub fn execute(
    program: &Program,
    storage: &Storage,
    placements: &[EngineKind],
    system: &mut System,
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
    copy_elim: &[bool],
) -> Result<RunReport> {
    match opts.backend {
        ExecBackend::Vm => {
            let lowered = alang::lower::lower_with(program, copy_elim)?;
            execute_lowered(
                program, &lowered, storage, placements, system, opts, estimates, None,
            )
        }
        ExecBackend::AstWalk => {
            let eval = Evaluator::Ast(Interpreter::with_policy(storage, opts.parallel));
            execute_impl(
                program, placements, system, opts, estimates, copy_elim, eval, None,
            )
        }
    }
}

/// As [`execute`] on an already-lowered program with its baked
/// copy-elimination flags, so runs that share a plan — one per contention
/// scenario, or a fleet's N + 1 — share one lowering.
///
/// When `shard` is given the run is charged as one shard of a fleet:
/// values are still computed in full (so `values_fingerprint` matches the
/// unsharded run), but extensive costs are restricted to the shard's
/// charge range and row slice.
///
/// # Errors
///
/// As [`execute`]; additionally rejects a lowering whose line count does
/// not match `program`.
#[allow(clippy::too_many_arguments)]
pub fn execute_lowered(
    program: &Program,
    lowered: &LoweredProgram,
    storage: &Storage,
    placements: &[EngineKind],
    system: &mut System,
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
    shard: Option<&ShardSlice>,
) -> Result<RunReport> {
    if lowered.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "lowered program has {} lines, source has {}",
            lowered.len(),
            program.len()
        )));
    }
    let eval = match opts.backend {
        ExecBackend::Vm => Evaluator::Vm(Vm::with_policy(lowered, storage, opts.parallel)),
        ExecBackend::AstWalk => Evaluator::Ast(Interpreter::with_policy(storage, opts.parallel)),
    };
    let copy_elim = lowered.copy_elim();
    execute_impl(
        program, placements, system, opts, estimates, copy_elim, eval, shard,
    )
}

/// The per-line evaluation engine behind [`execute`]. Engine bookkeeping
/// (variable locations, the shared address space, migration) stays
/// name-keyed either way; only line evaluation and variable-size queries
/// dispatch here.
enum Evaluator<'a> {
    Ast(Interpreter<'a>),
    Vm(Vm<'a>),
}

impl Evaluator<'_> {
    fn exec_line(&mut self, line: &alang::ast::Line, elim: bool) -> alang::error::Result<LineCost> {
        match self {
            Evaluator::Ast(interp) => interp.exec_line(line, elim),
            Evaluator::Vm(vm) => vm.exec_line_with(line.index, elim),
        }
    }

    fn var_bytes(&self, name: &str) -> u64 {
        match self {
            Evaluator::Ast(interp) => interp.var_bytes(name),
            Evaluator::Vm(vm) => vm.var_bytes(name),
        }
    }

    /// A variable's current value (`None` until its first assignment has
    /// run); both backends hold the same [`alang::Value`].
    fn var(&self, name: &str) -> Option<&alang::Value> {
        match self {
            Evaluator::Ast(interp) => interp.var(name),
            Evaluator::Vm(vm) => vm.var(name),
        }
    }

    /// Chunk/steal counters accumulated by the run's kernel calls.
    fn par_stats(&self) -> ParStatsSnapshot {
        match self {
            Evaluator::Ast(interp) => interp.par_stats(),
            Evaluator::Vm(vm) => vm.par_stats(),
        }
    }

    /// Hands the run's tracer to the kernel engine so `kernel.par` spans
    /// land in the same journal as the execution spans.
    fn set_tracer(&mut self, tracer: Tracer) {
        match self {
            Evaluator::Ast(interp) => interp.set_tracer(tracer),
            Evaluator::Vm(vm) => vm.set_tracer(tracer),
        }
    }
}

/// The answer-integrity check compared between faulted and fault-free
/// runs, backends, thread counts and fleet sizes: every assigned variable
/// in first-assignment order through one [`Fingerprinter`]. Bit patterns,
/// not renderings: `-0.0` and NaN payloads count as differences.
fn values_fingerprint(program: &Program, eval: &Evaluator<'_>) -> u64 {
    let mut fp = Fingerprinter::default();
    for target in program.targets() {
        fp.var(target, eval.var(target));
    }
    fp.finish()
}

/// A hard fault leaving the recovery layer: either a crash, or a transient
/// fault that exhausted its retry budget — both escalate to the permanent
/// [`ActivePyError::DeviceFault`] so callers never retry them again.
fn escalate(fault: DeviceFault) -> ActivePyError {
    ActivePyError::device_fault(fault.to_string())
}

/// The shard's charged view of a measured [`LineCost`]: every extensive
/// field scaled by [`ShardSlice::scale_line`] (zero outside the charge
/// range, an exact slice for sharded lines, full for replicated ones).
fn shard_scaled_cost(sh: &ShardSlice, line: usize, cost: LineCost) -> LineCost {
    LineCost {
        compute_ops: sh.scale_line(line, cost.compute_ops),
        storage_bytes: sh.scale_line(line, cost.storage_bytes),
        bytes_in: sh.scale_line(line, cost.bytes_in),
        bytes_out: sh.scale_line(line, cost.bytes_out),
        copy_bytes: sh.scale_line(line, cost.copy_bytes),
        eliminable_copy_bytes: sh.scale_line(line, cost.eliminable_copy_bytes),
        calls: cost.calls,
    }
}

/// Assembles the deterministic boundary snapshot the journal records: sim
/// clock, recovery accounting, injected-fault counters, the fault
/// injector's stream position, and (inside regions) the monitor's
/// degradation evidence. Everything here is simulated-clock state, so an
/// uninterrupted run and its replay produce bit-identical snapshots.
fn wal_snap(system: &System, recov: &Recovery, monitor: Option<&Monitor>) -> StateSnap {
    let counters = system.fault_counters();
    let (crashed, rng_state) = match system.faults() {
        Some(f) => (f.crashed(), f.rng_state()),
        None => (false, 0),
    };
    StateSnap {
        clock_bits: system.now().as_secs().to_bits(),
        transient_faults: recov.stats.transient_faults,
        retries: recov.stats.retries,
        recovered_ops: recov.stats.recovered_ops,
        hard_faults: recov.stats.hard_faults,
        fault_migrations: recov.stats.fault_migrations,
        backoff_bits: recov.stats.backoff_secs.to_bits(),
        flash_read_errors: counters.flash_read_errors,
        nvme_command_errors: counters.nvme_command_errors,
        dma_transfer_errors: counters.dma_transfer_errors,
        cse_crashes: counters.cse_crashes,
        crashed,
        rng_state,
        monitor: monitor.map(|m| m.wal_snapshot()),
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_impl(
    program: &Program,
    placements: &[EngineKind],
    system: &mut System,
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
    copy_elim: &[bool],
    mut eval: Evaluator<'_>,
    shard: Option<&ShardSlice>,
) -> Result<RunReport> {
    if placements.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "{} placements for {} lines",
            placements.len(),
            program.len()
        )));
    }
    // Options are validated up front: a bad policy is a configuration
    // error at the door, not a silent clamp mid-run.
    if let Some(cfg) = opts.monitor {
        cfg.validate()?;
    }
    opts.recovery.validate()?;
    opts.faults.validate().map_err(ActivePyError::config)?;
    opts.parallel.validate().map_err(ActivePyError::config)?;
    if !opts.faults.is_none() {
        system.install_faults(opts.faults.clone());
    }
    let mut recov = Recovery::with_tracer(opts.recovery, opts.tracer.clone());
    eval.set_tracer(opts.tracer.clone());
    // The plan's original placement is the reclaim target set: only lines
    // the planner offloaded — then migrated host-ward mid-run — are ever
    // speculatively re-assigned to the CSD.
    let original: Vec<EngineKind> = placements.to_vec();
    let mut placements = placements.to_vec();
    let mut var_loc: BTreeMap<String, EngineKind> = BTreeMap::new();
    let mut vars = VarSpace::default();
    let mut lines_out = Vec::with_capacity(program.len());
    let mut migration: Option<MigrationEvent> = None;
    let mut migrations: Vec<MigrationEvent> = Vec::new();
    let mut csd_executed = 0usize;
    let csd_total = placements.iter().filter(|p| **p == EngineKind::Cse).count();
    let mut contention_applied = false;
    let exec_span = opts.tracer.begin_with(
        "phase.execute",
        SpanKind::Phase,
        Some(system.now().as_secs()),
        vec![
            ("lines".into(), program.len().into()),
            ("csd_lines".into(), csd_total.into()),
        ],
    );
    opts.journal.on_record(WalRecord::RunStart {
        lane: 0,
        program_len: program.len() as u32,
        backend: backend_code(opts.backend),
    })?;

    // Distribute the CSD binary into device memory before execution
    // starts. A must-complete transfer: DMA faults only delay it.
    if csd_total > 0 && opts.offload_overheads {
        let region_lines = csd_total;
        let binary = Bytes::new(16 * 1024 + region_lines as u64 * 2048);
        recov.run_to_completion(system, |s| s.try_transfer(Direction::HostToDevice, binary));
    }

    // Absolute-time contention is installed into the availability traces up
    // front, so it throttles resources even in the middle of a line.
    if let Trigger::AtTime(at) = opts.scenario.trigger() {
        if !opts.scenario.is_none() {
            install_contention(system, opts, at);
            contention_applied = true;
        }
    }

    let mut i = 0usize;
    while i < program.len() {
        // Progress-based contention triggers on ISP-task progress.
        let progress = if csd_total == 0 {
            0.0
        } else {
            csd_executed as f64 / csd_total as f64
        };
        if !contention_applied && opts.scenario.active_at_progress(progress) {
            let now = system.now();
            install_contention(system, opts, now);
            contention_applied = true;
        }

        // Bidirectional migration (§III-D in reverse): when measured CSE
        // availability has cleared after a degradation migration, the
        // remaining originally-offloaded lines are speculatively
        // re-assigned to the CSD at this line boundary. The decision reads
        // only simulated-clock quantities (availability traces, modelled
        // estimates), so it is identical across evaluation backends and —
        // like every placement decision — cannot affect computed values.
        if let Some(event) = try_reclaim(
            program,
            i,
            &original,
            &mut placements,
            system,
            opts,
            estimates,
            migrations.last(),
        ) {
            migrations.push(event);
            opts.journal.on_record(WalRecord::Reclaim {
                lane: 0,
                line: i as u32,
                in_region: false,
                snap: wal_snap(system, &recov, None),
            })?;
            // Re-enter the loop at the same line: it is now CSD-resident
            // and executes through the region path.
            continue;
        }

        if placements[i] == EngineKind::Host {
            let line = &program.lines()[i];
            let start = system.now().as_secs();
            let line_span = opts.tracer.begin_with(
                "exec.host_line",
                SpanKind::Device,
                Some(start),
                vec![("line".into(), i.into())],
            );
            let staged = stage_inputs(
                program,
                line,
                EngineKind::Host,
                system,
                &eval,
                &mut var_loc,
                &mut vars,
                true,
                &mut recov,
                shard,
            )?;
            let elim = copy_elim.get(i).copied().unwrap_or(false);
            let mut cost = eval.exec_line(line, elim)?;
            if let Some(sh) = shard {
                cost = shard_scaled_cost(sh, i, cost);
            }
            if cost.storage_bytes > 0 {
                system.storage_read(EngineKind::Host, Bytes::new(cost.storage_bytes));
            }
            let ops = cost.effective_ops(opts.tier, &opts.params);
            if ops > 0 {
                system.compute(EngineKind::Host, Ops::new(ops));
            }
            var_loc.insert(line.target.clone(), EngineKind::Host);
            let bind_bytes = match shard {
                Some(sh) => sh.scale_line(i, eval.var_bytes(&line.target)),
                None => eval.var_bytes(&line.target),
            };
            vars.bind(system, &line.target, EngineKind::Host, bind_bytes)?;
            opts.tracer.end(line_span, Some(system.now().as_secs()));
            lines_out.push(LineOutcome {
                line: i,
                engine: EngineKind::Host,
                start_secs: start,
                end_secs: system.now().as_secs(),
                cost,
                staged_bytes: staged,
            });
            vars.release_dead(system, program, i)?;
            opts.journal.on_record(WalRecord::HostLine {
                lane: 0,
                line: i as u32,
                snap: wal_snap(system, &recov, None),
            })?;
            i += 1;
            continue;
        }

        // A contiguous CSD region [i, end]: executed as a chunk-pipelined
        // stream (real CSD frameworks process per flash page / per chunk;
        // the paper's Python lines sit inside chunked loops, with status
        // updates "once every tens of machine instructions").
        let mut end = i;
        while end + 1 < program.len() && placements[end + 1] == EngineKind::Cse {
            end += 1;
        }
        let region_span = opts.tracer.begin_with(
            "exec.region",
            SpanKind::Device,
            Some(system.now().as_secs()),
            vec![
                ("start_line".into(), i.into()),
                ("end_line".into(), end.into()),
            ],
        );
        let region = match RegionRun::prepare(
            program,
            i,
            end,
            system,
            &mut eval,
            &mut var_loc,
            &mut vars,
            opts,
            copy_elim,
            &mut recov,
            shard,
        ) {
            Ok(region) => region,
            Err(ActivePyError::DeviceFault { .. }) if opts.recovery.fallback_to_host => {
                // The invocation itself hard-faulted, before any region
                // state was computed or moved: fall back by re-placing the
                // remaining CSD lines on the host and re-entering the loop
                // at the same line. No live state to drain (checkpoint is
                // the previous line boundary), only host code to regenerate.
                let later = placements[i..]
                    .iter()
                    .filter(|p| **p == EngineKind::Cse)
                    .count();
                let regen_secs = CompiledProgram::compile_secs_for(later);
                let decided_at = system.now().as_secs();
                opts.tracer.instant(
                    "migration.decision",
                    SpanKind::Migration,
                    Some(decided_at),
                    vec![
                        (
                            "reason".into(),
                            MigrationReason::DeviceFault.as_str().into(),
                        ),
                        ("after_line".into(), i.saturating_sub(1).into()),
                        ("state_bytes".into(), 0u64.into()),
                        ("regen_secs".into(), regen_secs.into()),
                    ],
                );
                opts.tracer.counter_add("exec.migrations", 1);
                let event = MigrationEvent {
                    after_line: i.saturating_sub(1),
                    state_bytes: 0,
                    at_secs: decided_at,
                    regen_secs,
                    reason: MigrationReason::DeviceFault,
                };
                migration = Some(event);
                migrations.push(event);
                system.advance(csd_sim::units::Duration::from_secs(regen_secs));
                recov.stats.fault_migrations += 1;
                opts.journal.on_record(WalRecord::Migration {
                    lane: 0,
                    line: i.saturating_sub(1) as u32,
                    chunk: 0,
                    reason: reason_code(MigrationReason::DeviceFault),
                    state_bytes: 0,
                    snap: wal_snap(system, &recov, None),
                })?;
                opts.tracer.end_with(
                    region_span,
                    Some(system.now().as_secs()),
                    vec![("aborted".into(), true.into())],
                );
                for p in placements.iter_mut().skip(i) {
                    if *p == EngineKind::Cse {
                        *p = EngineKind::Host;
                    }
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let outcome = region.execute(
            system,
            &mut var_loc,
            &mut vars,
            &mut placements,
            opts,
            estimates,
            &mut contention_applied,
            csd_executed,
            csd_total,
            &mut recov,
        )?;
        opts.tracer.end(region_span, Some(system.now().as_secs()));
        lines_out.extend(outcome.lines);
        csd_executed += end - i + 1;
        if let Some(event) = outcome.migration {
            migration = Some(event);
            migrations.push(event);
        }
        if let Some(event) = outcome.reclaim {
            migrations.push(event);
        }
        vars.release_dead(system, program, end)?;
        i = end + 1;
    }

    // The program's result must end up in host memory (must-complete).
    // In a fleet shard run, gathering results is the fleet's combine
    // phase, charged against the shared host link budget instead.
    if let Some(last) = program.lines().last() {
        if var_loc.get(&last.target) == Some(&EngineKind::Cse) {
            let full = eval.var_bytes(&last.target);
            let bytes = match shard {
                Some(sh) => sh.scale_line(last.index, full),
                None => full,
            };
            // A free line in a shard run drains nothing; the unsharded
            // path keeps issuing the (possibly empty) transfer so its
            // timing is byte-identical to the pre-fleet engine.
            if shard.is_none() || bytes > 0 {
                recov.run_to_completion(system, |s| {
                    s.try_transfer(Direction::DeviceToHost, Bytes::new(bytes))
                });
            }
        }
    }

    let metrics = MetricsSnapshot {
        plan_cache_hits: 0,
        plan_cache_misses: 0,
        faults: system.fault_counters(),
        recovery: recov.stats,
        par: eval.par_stats(),
        plan_cache_refits: 0,
        audit: crate::metrics::AuditStats::default(),
    };
    metrics.publish_to(&opts.tracer);
    opts.tracer.end_with(
        exec_span,
        Some(system.now().as_secs()),
        vec![("migrated".into(), migration.is_some().into())],
    );
    // Feed the run's measured per-line costs to the profile store. Shard
    // runs are skipped: their costs are slice-scaled and would bias the
    // unsharded profile the planner refits against.
    if opts.profile.is_enabled() && shard.is_none() {
        let mut costs = vec![LineCost::default(); program.len()];
        for l in &lines_out {
            if let Some(slot) = costs.get_mut(l.line) {
                *slot = l.cost;
            }
        }
        opts.profile.record(&costs);
    }
    let fingerprint = values_fingerprint(program, &eval);
    let total_secs = system.now().as_secs();
    opts.journal.on_record(WalRecord::RunEnd {
        lane: 0,
        fingerprint,
        total_secs_bits: total_secs.to_bits(),
    })?;
    Ok(RunReport {
        total_secs,
        lines: lines_out,
        migration,
        csd_lines_executed: csd_executed,
        d2h_bytes: system.dma().d2h_bytes().as_u64(),
        h2d_bytes: system.dma().h2d_bytes().as_u64(),
        peak_device_bytes: vars.peak_device,
        values_fingerprint: fingerprint,
        parallel: opts.parallel,
        metrics,
        migrations,
        eq1: Vec::new(),
    })
}

/// Shared-address-space bookkeeping: every materialized program value is a
/// real allocation in [`csd_sim::memory::SharedAddressSpace`], placed near
/// its consumer and migrated when it crosses the interconnect. Region-
/// internal intermediates are chunk-pipelined and never fully materialize,
/// so only escaping values are bound.
#[derive(Debug, Default)]
struct VarSpace {
    objects: BTreeMap<String, csd_sim::memory::ObjectId>,
    peak_device: u64,
}

impl VarSpace {
    /// (Re)binds `name` to a fresh allocation of `bytes` near `engine`.
    fn bind(
        &mut self,
        system: &mut System,
        name: &str,
        engine: EngineKind,
        bytes: u64,
    ) -> Result<()> {
        if let Some(old) = self.objects.remove(name) {
            system
                .memory_mut()
                .dealloc(old)
                .map_err(|e| ActivePyError::exec(format!("dealloc `{name}`: {e}")))?;
        }
        if bytes == 0 {
            return Ok(());
        }
        let id = system
            .memory_mut()
            .alloc_near(engine, csd_sim::units::Bytes::new(bytes))
            .map_err(|e| ActivePyError::exec(format!("allocating {bytes} B for `{name}`: {e}")))?;
        self.objects.insert(name.to_owned(), id);
        self.update_peak(system);
        Ok(())
    }

    /// Moves `name`'s allocation next to `engine`, if it is materialized.
    fn move_to(&mut self, system: &mut System, name: &str, engine: EngineKind) -> Result<()> {
        if let Some(id) = self.objects.get(name) {
            system
                .memory_mut()
                .migrate(*id, csd_sim::memory::Region::local_to(engine))
                .map_err(|e| ActivePyError::exec(format!("migrating `{name}`: {e}")))?;
            self.update_peak(system);
        }
        Ok(())
    }

    /// Frees every bound value that has no consumer after line `at` and is
    /// not the program result.
    fn release_dead(&mut self, system: &mut System, program: &Program, at: usize) -> Result<()> {
        let result_var = program.result_target();
        let mut outcome = Ok(());
        self.objects.retain(|name, id| {
            let live = Some(name.as_str()) == result_var
                || program.consumers_of(name, at).next().is_some();
            if live || outcome.is_err() {
                return true;
            }
            outcome = system
                .memory_mut()
                .dealloc(*id)
                .map_err(|e| ActivePyError::exec(format!("dealloc `{name}`: {e}")));
            outcome.is_err() // a binding whose free failed stays bound
        });
        outcome
    }

    fn update_peak(&mut self, system: &System) {
        let used = system
            .memory()
            .used(csd_sim::memory::Region::DeviceDram)
            .as_u64();
        self.peak_device = self.peak_device.max(used);
    }
}

/// Moves any of `line`'s inputs that live on the other engine next to it,
/// returning the bytes shipped (the shared-address-space placement policy:
/// data lives near whoever reads it next).
/// `move_allocation` distinguishes the two staging modes: a host line
/// materializes its inputs in host DRAM (the allocation moves), while a
/// chunk-pipelined CSD region *streams* its inputs — the transfer is
/// charged but the device never holds more than chunk buffers, so the
/// allocation stays put.
#[allow(clippy::too_many_arguments)]
fn stage_inputs(
    program: &Program,
    line: &alang::ast::Line,
    engine: EngineKind,
    system: &mut System,
    eval: &Evaluator<'_>,
    var_loc: &mut BTreeMap<String, EngineKind>,
    vars: &mut VarSpace,
    move_allocation: bool,
    recov: &mut Recovery,
    shard: Option<&ShardSlice>,
) -> Result<u64> {
    let mut staged = 0u64;
    for name in line.inputs() {
        let bytes = match shard {
            // A shard ships only its own rows of a partitioned value; a
            // line outside the charge range ships nothing at all.
            Some(sh) => sh.scale_def(program.def_site(name), line.index, eval.var_bytes(name)),
            None => eval.var_bytes(name),
        };
        if bytes == 0 {
            continue;
        }
        if let Some(loc) = var_loc.get(name) {
            if *loc != engine {
                let dir = match engine {
                    EngineKind::Cse => Direction::HostToDevice,
                    EngineKind::Host => Direction::DeviceToHost,
                };
                // Staging must complete; DMA faults only delay it.
                recov.run_to_completion(system, |s| s.try_transfer(dir, Bytes::new(bytes)));
                staged += bytes;
                var_loc.insert(name.clone(), engine);
                if move_allocation {
                    vars.move_to(system, name, engine)?;
                }
            }
        }
    }
    Ok(staged)
}

/// How many chunks a CSD region's stream is processed in. Real CSD
/// frameworks stream per flash page; the paper's status updates land
/// "typically once every tens of machine instructions", so detection and
/// break granularity is far finer than one of our bulk lines.
const REGION_CHUNKS: u64 = 64;

/// Splits `total` into [`REGION_CHUNKS`] near-equal slices; returns slice `c`.
fn chunk_slice(total: u64, c: u64) -> u64 {
    total * (c + 1) / REGION_CHUNKS - total * c / REGION_CHUNKS
}

/// What a region run produced.
struct RegionOutcome {
    lines: Vec<LineOutcome>,
    migration: Option<MigrationEvent>,
    /// A device-ward reclaim performed *inside* the region's post-migration
    /// host completion, when availability recovered mid-stream. Always
    /// chronologically after `migration`.
    reclaim: Option<MigrationEvent>,
}

/// A contiguous run of CSD lines prepared for chunk-pipelined execution.
struct RegionRun {
    start: usize,
    end: usize,
    targets: Vec<String>,
    costs: Vec<LineCost>,
    ops: Vec<u64>,
    staged: Vec<u64>,
    /// Per line: bytes of its output that escape the region (consumed by a
    /// later line or as the program result) — the only live state a
    /// streaming region carries at a chunk boundary.
    escaping_out: Vec<u64>,
    /// Region-external inputs currently resident in device memory.
    external_input_bytes: u64,
}

impl RegionRun {
    /// Stages inputs, invokes the CSD function through the queue pair, and
    /// computes the region's values and measured costs.
    #[allow(clippy::too_many_arguments)]
    fn prepare(
        program: &Program,
        start: usize,
        end: usize,
        system: &mut System,
        eval: &mut Evaluator<'_>,
        var_loc: &mut BTreeMap<String, EngineKind>,
        vars: &mut VarSpace,
        opts: &ExecOptions,
        copy_elim: &[bool],
        recov: &mut Recovery,
        shard: Option<&ShardSlice>,
    ) -> Result<RegionRun> {
        if opts.offload_overheads {
            // The invocation command can be hit by injected NVMe errors (or
            // observe the crash). Rolled — and hard-failed — *before* any
            // region state is evaluated or relocated, so an aborted prepare
            // needs no unwinding: the caller just re-places the lines.
            recov
                .run_bounded(system, |s| s.try_nvme_command())
                .map_err(escalate)?;
            let now = system.now();
            system
                .queue_mut()
                .submit(now, CommandKind::InvokeFunction { entry_line: start })
                .map_err(|e| ActivePyError::exec(format!("queue submit failed: {e}")))?;
            system
                .queue_mut()
                .fetch()
                .map_err(|e| ActivePyError::exec(format!("queue fetch failed: {e}")))?;
            system.charge_invocation();
        }
        let mut targets = Vec::with_capacity(end - start + 1);
        let mut costs = Vec::with_capacity(end - start + 1);
        let mut ops = Vec::with_capacity(end - start + 1);
        let mut staged = Vec::with_capacity(end - start + 1);
        let mut external_input_bytes = 0u64;
        for line in &program.lines()[start..=end] {
            // External inputs cross to device memory before the stream
            // starts; intra-region values are consumed chunk-by-chunk.
            let external: u64 = line
                .inputs()
                .iter()
                .filter(|v| {
                    program.def_site(v).is_none_or(|d| d < start)
                        && var_loc.get(*v) == Some(&EngineKind::Host)
                })
                .map(|v| match shard {
                    Some(sh) => sh.scale_def(program.def_site(v), line.index, eval.var_bytes(v)),
                    None => eval.var_bytes(v),
                })
                .sum();
            let s = stage_inputs(
                program,
                line,
                EngineKind::Cse,
                system,
                eval,
                var_loc,
                vars,
                false,
                recov,
                shard,
            )?;
            external_input_bytes += external;
            staged.push(s);
            let elim = copy_elim.get(line.index).copied().unwrap_or(false);
            let mut cost = eval.exec_line(line, elim)?;
            if let Some(sh) = shard {
                cost = shard_scaled_cost(sh, line.index, cost);
            }
            ops.push(cost.effective_ops(opts.tier, &opts.params));
            costs.push(cost);
            targets.push(line.target.clone());
            var_loc.insert(line.target.clone(), EngineKind::Cse);
        }
        let escaping_out: Vec<u64> = (start..=end)
            .map(|k| {
                let line = &program.lines()[k];
                let consumed_later = program.consumers_of(&line.target, end).next().is_some();
                let is_result = k == program.len() - 1;
                if consumed_later || is_result {
                    costs[k - start].bytes_out
                } else {
                    0
                }
            })
            .collect();
        // Only escaping values materialize in device DRAM; the chunk
        // pipeline consumes everything else in place.
        for (k, bytes) in escaping_out.iter().enumerate() {
            if *bytes > 0 {
                vars.bind(system, &targets[k], EngineKind::Cse, *bytes)?;
            }
        }
        Ok(RegionRun {
            start,
            end,
            targets,
            costs,
            ops,
            staged,
            escaping_out,
            external_input_bytes,
        })
    }

    /// Streams the region through the simulator in [`REGION_CHUNKS`]
    /// chunks, monitoring throughput after each and migrating the remaining
    /// stream to the host when the re-estimate says so (§III-D).
    #[allow(clippy::too_many_arguments)]
    fn execute(
        self,
        system: &mut System,
        var_loc: &mut BTreeMap<String, EngineKind>,
        vars: &mut VarSpace,
        placements: &mut [EngineKind],
        opts: &ExecOptions,
        estimates: Option<&[LineEstimate]>,
        contention_applied: &mut bool,
        csd_executed: usize,
        csd_total: usize,
        recov: &mut Recovery,
    ) -> Result<RegionOutcome> {
        let len = self.end - self.start + 1;
        let region_t0 = system.now().as_secs();
        let mut durations = vec![0.0f64; len];
        let mut done_storage = vec![0u64; len];
        let mut done_ops = vec![0u64; len];
        // The expected instruction throughput is "the total amount of
        // estimated instructions divided by estimated execution time on
        // CSD" (§III-D) — an end-to-end progress rate that includes data
        // stalls, so starvation of the data path registers as degraded IPC.
        let expected_rate = estimates
            .and_then(|est| {
                let region: Vec<&LineEstimate> = est
                    .iter()
                    .filter(|e| e.line >= self.start && e.line <= self.end)
                    .collect();
                let ops: u64 = region.iter().map(|e| e.ops).sum();
                let secs: f64 = region.iter().map(|e| e.ct_device).sum();
                (secs > 0.0 && ops > 0).then(|| ops as f64 / secs)
            })
            .unwrap_or_else(|| {
                system
                    .engine(EngineKind::Cse)
                    .nominal_rate()
                    .as_ops_per_sec()
            });
        let mut monitor = opts.monitor.map(|cfg| {
            Monitor::new(
                cfg,
                expected_rate,
                *system.engine(EngineKind::Cse).counters(),
            )
        });
        let mut migration: Option<MigrationEvent> = None;
        let mut reclaim: Option<MigrationEvent> = None;
        let mut break_submitted = false;

        'chunks: for c in 0..REGION_CHUNKS {
            // Progress-triggered contention can fire mid-region.
            if !*contention_applied && csd_total > 0 {
                let progress = (csd_executed as f64
                    + (c as f64 / REGION_CHUNKS as f64) * len as f64)
                    / csd_total as f64;
                if opts.scenario.active_at_progress(progress) {
                    let now = system.now();
                    install_contention(system, opts, now);
                    *contention_applied = true;
                }
            }
            let chunk_t0 = system.now().as_secs();
            let chunk_span = opts.tracer.begin_with(
                "exec.chunk",
                SpanKind::Device,
                Some(chunk_t0),
                vec![("chunk".into(), c.into())],
            );
            let mut chunk_ops = 0u64;
            // A hard fault mid-chunk ends the device stream; the completed
            // work stays counted so the host replays only the remainder.
            let mut fault: Option<DeviceFault> = None;
            'lines: for k in 0..len {
                let t0 = system.now().as_secs();
                let rb = chunk_slice(self.costs[k].storage_bytes, c);
                if rb > 0 {
                    match recov.run_bounded(system, |s| {
                        s.try_storage_read(EngineKind::Cse, Bytes::new(rb))
                    }) {
                        Ok(_) => done_storage[k] += rb,
                        Err(f) => {
                            durations[k] += system.now().as_secs() - t0;
                            fault = Some(f);
                            break 'lines;
                        }
                    }
                }
                let co = chunk_slice(self.ops[k], c);
                if co > 0 {
                    match recov
                        .run_bounded(system, |s| s.try_compute(EngineKind::Cse, Ops::new(co)))
                    {
                        Ok(_) => {
                            done_ops[k] += co;
                            chunk_ops += co;
                        }
                        Err(f) => {
                            durations[k] += system.now().as_secs() - t0;
                            fault = Some(f);
                            break 'lines;
                        }
                    }
                }
                if opts.offload_overheads {
                    system.charge_status_update();
                }
                durations[k] += system.now().as_secs() - t0;
            }
            let chunk_wall = system.now().as_secs() - chunk_t0;
            opts.tracer.end(chunk_span, Some(system.now().as_secs()));
            if opts.tracer.is_enabled() {
                // Simulated chunk latency, in whole nanoseconds so the
                // histogram stays integral and deterministic.
                opts.tracer
                    .observe("exec.chunk_sim_ns", (chunk_wall * 1e9) as u64);
            }
            // Chunk boundary (or mid-chunk hard fault): the status-update
            // code first checks the command pages for a high-priority
            // request (§III-D case 1), then the host-side monitor checks
            // throughput (case 2); a hard device fault (case 3, this PR)
            // bypasses both and breaks unconditionally.
            let (reason, done_fraction) = if let Some(f) = fault {
                if !opts.recovery.fallback_to_host {
                    return Err(escalate(f));
                }
                recov.stats.fault_migrations += 1;
                // The checkpoint is the last *completed* chunk boundary;
                // the failed chunk's partial work is replayed on the host
                // via the exact done_storage/done_ops remainders.
                (
                    Some(MigrationReason::DeviceFault),
                    c as f64 / REGION_CHUNKS as f64,
                )
            } else {
                let done_fraction = (c + 1) as f64 / REGION_CHUNKS as f64;
                if done_fraction >= 1.0 {
                    opts.journal.on_record(WalRecord::Chunk {
                        lane: 0,
                        region_start: self.start as u32,
                        region_end: (self.end + 1) as u32,
                        chunk: c as u32,
                        snap: wal_snap(system, recov, monitor.as_ref()),
                    })?;
                    break;
                }
                if let Some(t) = opts.preempt_at {
                    if !break_submitted && system.now().as_secs() >= t {
                        let now = system.now();
                        // Host posts the Break; losing the slot on a full ring
                        // only delays preemption to the next boundary.
                        let _ = system.queue_mut().submit(now, CommandKind::Break);
                        break_submitted = true;
                    }
                }
                let reason = if system.queue().has_pending_break() {
                    while system.queue_mut().fetch().is_ok() {}
                    Some(MigrationReason::Preempted)
                } else if let (Some(mon), Some(est)) = (monitor.as_mut(), estimates) {
                    let obs = mon.observe_window(chunk_ops as f64, chunk_wall);
                    if opts.tracer.is_enabled() {
                        let (label, ratio) = match obs {
                            Observation::Warmup => ("warmup", None),
                            Observation::Healthy => ("healthy", None),
                            Observation::Degraded { ratio } => ("degraded", Some(ratio)),
                        };
                        let mut attrs: Attrs = vec![
                            ("observation".into(), label.into()),
                            ("ops".into(), chunk_ops.into()),
                            ("window_secs".into(), chunk_wall.into()),
                        ];
                        if let Some(r) = ratio {
                            attrs.push(("ratio".into(), r.into()));
                        }
                        opts.tracer.instant(
                            "monitor.window",
                            SpanKind::Monitor,
                            Some(system.now().as_secs()),
                            attrs,
                        );
                    }
                    match obs {
                        Observation::Degraded { .. } => {
                            let later_csd: Vec<&LineEstimate> = est
                                .iter()
                                .filter(|e| {
                                    e.line > self.end && placements[e.line] == EngineKind::Cse
                                })
                                .collect();
                            let region_est: Vec<&LineEstimate> = est
                                .iter()
                                .filter(|e| e.line >= self.start && e.line <= self.end)
                                .collect();
                            let remaining_device = (1.0 - done_fraction)
                                * region_est.iter().map(|e| e.ct_device).sum::<f64>()
                                + later_csd.iter().map(|e| e.ct_device).sum::<f64>();
                            let reestimated = mon.reestimate_remaining(remaining_device);
                            let state_est = (self
                                .escaping_out
                                .iter()
                                .map(|b| (*b as f64 * done_fraction) as u64)
                                .sum::<u64>())
                                + self.external_input_bytes;
                            let bw = system.d2h_bandwidth().as_bytes_per_sec();
                            let regen = CompiledProgram::compile_secs_for(len + later_csd.len());
                            let remaining_host = (1.0 - done_fraction)
                                * region_est.iter().map(|e| e.ct_host).sum::<f64>()
                                + later_csd.iter().map(|e| e.ct_host).sum::<f64>();
                            let migrate_cost = state_est as f64 / bw + regen + remaining_host;
                            (reestimated > migrate_cost).then_some(MigrationReason::Degraded)
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                (reason, done_fraction)
            };
            let Some(reason) = reason else {
                opts.journal.on_record(WalRecord::Chunk {
                    lane: 0,
                    region_start: self.start as u32,
                    region_end: (self.end + 1) as u32,
                    chunk: c as u32,
                    snap: wal_snap(system, recov, monitor.as_ref()),
                })?;
                continue;
            };
            // Any migration consumes the monitor's accumulated evidence:
            // after a preemption or device-fault fallback the task is no
            // longer on the CSD either, so a stale decreasing-IPC streak
            // must not instantly re-trigger (or poison a later reclaim
            // decision) once work returns to the device.
            if let Some(mon) = monitor.as_mut() {
                mon.acknowledge_migration();
            }
            let state_bytes = (self
                .escaping_out
                .iter()
                .map(|b| (*b as f64 * done_fraction) as u64)
                .sum::<u64>())
                + self.external_input_bytes;
            let later_count = placements[self.end + 1..]
                .iter()
                .filter(|p| **p == EngineKind::Cse)
                .count();
            let regen_secs = CompiledProgram::compile_secs_for(len + later_count);
            // Break at this chunk boundary: move the live state, regenerate
            // host code, and resume the remaining stream on the host. The
            // state drain is controller-side DMA, which survives a CSE
            // crash — a must-complete transfer.
            let decided_at = system.now().as_secs();
            recov.run_to_completion(system, |s| {
                s.try_transfer(Direction::DeviceToHost, Bytes::new(state_bytes))
            });
            system.advance(csd_sim::units::Duration::from_secs(regen_secs));
            let decided_at_secs = decided_at;
            for k in 0..len {
                let t0 = system.now().as_secs();
                let rem_b = self.costs[k].storage_bytes.saturating_sub(done_storage[k]);
                let rem_o = self.ops[k].saturating_sub(done_ops[k]);
                if opts.scenario.recover_at().is_some() && (rem_b > 0 || rem_o > 0) {
                    // Availability can recover while the host works off
                    // the remainder: under a phase-shifting scenario the
                    // remainder is worked off in chunk slices and the
                    // Degraded migration is reconsidered at every boundary
                    // — the in-region mirror of [`try_reclaim`]. Slicing
                    // partitions the exact remaining bytes/ops, so a trace
                    // that never recovers would time out identically.
                    for c in 0..REGION_CHUNKS {
                        if reclaim.is_none() {
                            if let Some(event) = self.try_reclaim_remaining(
                                k,
                                reason,
                                system,
                                opts,
                                estimates,
                                &done_ops,
                                state_bytes,
                                decided_at_secs,
                            ) {
                                // The live state returns to device memory
                                // and the remaining stream resumes on
                                // regenerated device code.
                                recov.run_to_completion(system, |s| {
                                    s.try_transfer(Direction::HostToDevice, Bytes::new(state_bytes))
                                });
                                system
                                    .advance(csd_sim::units::Duration::from_secs(event.regen_secs));
                                reclaim = Some(event);
                            }
                        }
                        let engine = if reclaim.is_some() {
                            EngineKind::Cse
                        } else {
                            EngineKind::Host
                        };
                        let sb = chunk_slice(rem_b, c);
                        if sb > 0 {
                            system.storage_read(engine, Bytes::new(sb));
                            done_storage[k] += sb;
                        }
                        let so = chunk_slice(rem_o, c);
                        if so > 0 {
                            system.compute(engine, Ops::new(so));
                            done_ops[k] += so;
                        }
                    }
                } else {
                    if rem_b > 0 {
                        system.storage_read(EngineKind::Host, Bytes::new(rem_b));
                    }
                    if rem_o > 0 {
                        system.compute(EngineKind::Host, Ops::new(rem_o));
                    }
                }
                durations[k] += system.now().as_secs() - t0;
                // The merged region outputs live wherever the stream
                // finished.
                let engine = if reclaim.is_some() {
                    EngineKind::Cse
                } else {
                    EngineKind::Host
                };
                var_loc.insert(self.targets[k].clone(), engine);
                vars.move_to(system, &self.targets[k], engine)?;
            }
            // A reclaimed stream leaves the rest of the plan in place; the
            // device is healthy again.
            if reclaim.is_none() {
                for p in placements.iter_mut().skip(self.end + 1) {
                    if *p == EngineKind::Cse {
                        *p = EngineKind::Host;
                    }
                }
            }
            let after_line =
                self.start + ((done_fraction * len as f64).floor() as usize).min(len - 1);
            opts.tracer.instant(
                "migration.decision",
                SpanKind::Migration,
                Some(decided_at),
                vec![
                    ("reason".into(), reason.as_str().into()),
                    ("after_line".into(), after_line.into()),
                    ("state_bytes".into(), state_bytes.into()),
                    ("regen_secs".into(), regen_secs.into()),
                ],
            );
            opts.tracer.counter_add("exec.migrations", 1);
            migration = Some(MigrationEvent {
                after_line,
                state_bytes,
                at_secs: decided_at,
                regen_secs,
                reason,
            });
            opts.journal.on_record(WalRecord::Migration {
                lane: 0,
                line: after_line as u32,
                chunk: c as u32,
                reason: reason_code(reason),
                state_bytes,
                snap: wal_snap(system, recov, monitor.as_ref()),
            })?;
            if let Some(event) = &reclaim {
                opts.journal.on_record(WalRecord::Reclaim {
                    lane: 0,
                    line: event.after_line as u32,
                    in_region: true,
                    snap: wal_snap(system, recov, monitor.as_ref()),
                })?;
            }
            break 'chunks;
        }

        // Synthesize sequential per-line intervals from the accumulated
        // durations (chunks interleave lines; total time is exact, the
        // per-line split is proportional).
        let mut cursor = region_t0;
        let lines = (0..len)
            .map(|k| {
                let start_secs = cursor;
                cursor += durations[k];
                LineOutcome {
                    line: self.start + k,
                    engine: EngineKind::Cse,
                    start_secs,
                    end_secs: cursor,
                    cost: self.costs[k],
                    staged_bytes: self.staged[k],
                }
            })
            .collect();
        Ok(RegionOutcome {
            lines,
            migration,
            reclaim,
        })
    }

    /// In-region mirror of [`try_reclaim`]: after a mid-region
    /// [`MigrationReason::Degraded`] break moved the stream host-ward,
    /// decides at host line boundary `k` whether the remaining (unfinished)
    /// slice of the region should return to the CSD.
    ///
    /// Hysteresis and profit mirror the line-boundary rule: the migration
    /// must be at least `decreasing_streak` monitor windows old, the CSE's
    /// effective availability must have been healthy at window-spaced
    /// probes, and finishing on the device — including moving the live
    /// state back and regenerating device code — must beat finishing on
    /// the host under the blended estimates, scaled by each line's undone
    /// fraction. Every input is simulated-clock state: the decision is
    /// backend-invariant and cannot affect computed values.
    #[allow(clippy::too_many_arguments)]
    fn try_reclaim_remaining(
        &self,
        k: usize,
        reason: MigrationReason,
        system: &System,
        opts: &ExecOptions,
        estimates: Option<&[LineEstimate]>,
        done_ops: &[u64],
        state_bytes: u64,
        migrated_at: f64,
    ) -> Option<MigrationEvent> {
        // Preempted tasks must stay off the device and fault fallbacks
        // carry no evidence the device works; only degradations reverse.
        if reason != MigrationReason::Degraded {
            return None;
        }
        let cfg = opts.monitor?;
        let est = estimates?;
        let len = self.end - self.start + 1;
        let undone = |j: usize| -> f64 {
            if self.ops[j] == 0 {
                0.0
            } else {
                1.0 - done_ops[j] as f64 / self.ops[j] as f64
            }
        };
        let mut device_secs = 0.0;
        let mut host_secs = 0.0;
        for j in k..len {
            let line = self.start + j;
            if let Some(e) = est.iter().find(|e| e.line == line) {
                device_secs += e.ct_device * undone(j);
                host_secs += e.ct_host * undone(j);
            }
        }
        let window = device_secs / REGION_CHUNKS as f64;
        if window <= 0.0 {
            return None;
        }
        let now = system.now();
        if now.as_secs() - f64::from(cfg.decreasing_streak) * window <= migrated_at {
            return None;
        }
        let cse = system.engine(EngineKind::Cse);
        for j in 0..cfg.decreasing_streak {
            let probe = csd_sim::units::SimTime::from_secs(now.as_secs() - f64::from(j) * window);
            if cse.effective_fraction_at(probe) < cfg.degradation_threshold {
                return None;
            }
        }
        let fraction = cse.effective_fraction_at(now);
        let bw = system.d2h_bandwidth().as_bytes_per_sec();
        let regen_secs = CompiledProgram::compile_secs_for(len - k);
        if device_secs / fraction + state_bytes as f64 / bw + regen_secs >= host_secs {
            return None;
        }
        let decided_at = now.as_secs();
        let after_line = (self.start + k).saturating_sub(1);
        opts.tracer.instant(
            "migration.decision",
            SpanKind::Migration,
            Some(decided_at),
            vec![
                ("reason".into(), MigrationReason::Reclaim.as_str().into()),
                ("after_line".into(), after_line.into()),
                ("state_bytes".into(), state_bytes.into()),
                ("regen_secs".into(), regen_secs.into()),
            ],
        );
        opts.tracer.counter_add("exec.migrations", 1);
        Some(MigrationEvent {
            after_line,
            state_bytes,
            at_secs: decided_at,
            regen_secs,
            reason: MigrationReason::Reclaim,
        })
    }
}

/// Decides whether the remaining originally-offloaded, host-resident lines
/// should migrate *back* to the CSD at the line boundary `i`, and performs
/// the flip when profitable.
///
/// The decision is hysteresis-guarded against ping-ponging: it only
/// considers lines a *degradation* pushed host-ward (the last migration
/// must be [`MigrationReason::Degraded`]; a reclaim arms only after a
/// fresh degradation), requires the degradation to be at least
/// `decreasing_streak` monitor windows old, and probes the CSE's effective
/// availability at `decreasing_streak` window-spaced instants — the mirror
/// image of the evidence the monitor needed to leave. Every quantity read
/// is simulated-clock state, so the decision is identical across
/// evaluation backends; like all placement decisions it cannot affect
/// computed values, only charged costs.
#[allow(clippy::too_many_arguments)]
fn try_reclaim(
    program: &Program,
    i: usize,
    original: &[EngineKind],
    placements: &mut [EngineKind],
    system: &mut System,
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
    last: Option<&MigrationEvent>,
) -> Option<MigrationEvent> {
    let cfg = opts.monitor?;
    let est = estimates?;
    let last = last?;
    // Preempted tasks must stay off the device and fault fallbacks carry
    // no evidence the device works; only degradations are reversible.
    if last.reason != MigrationReason::Degraded {
        return None;
    }
    if original[i] != EngineKind::Cse || placements[i] != EngineKind::Host {
        return None;
    }
    let is_candidate =
        |line: usize| original[line] == EngineKind::Cse && placements[line] == EngineKind::Host;
    let device_secs: f64 = est
        .iter()
        .filter(|e| e.line >= i && is_candidate(e.line))
        .map(|e| e.ct_device)
        .sum();
    let host_secs: f64 = est
        .iter()
        .filter(|e| e.line >= i && is_candidate(e.line))
        .map(|e| e.ct_host)
        .sum();
    // One monitor window of the reclaimed stream: the candidates would be
    // chunk-pipelined in REGION_CHUNKS status-update windows.
    let window = device_secs / REGION_CHUNKS as f64;
    if window <= 0.0 {
        return None;
    }
    let now = system.now();
    if now.as_secs() - f64::from(cfg.decreasing_streak) * window <= last.at_secs {
        return None;
    }
    let cse = system.engine(EngineKind::Cse);
    for j in 0..cfg.decreasing_streak {
        let probe = csd_sim::units::SimTime::from_secs(now.as_secs() - f64::from(j) * window);
        if cse.effective_fraction_at(probe) < cfg.degradation_threshold {
            return None;
        }
    }
    // Speculative profit check at the currently observed availability:
    // finishing on the device (plus re-staging line `i`'s inputs and
    // regenerating device code) must beat finishing on the host.
    let fraction = cse.effective_fraction_at(now);
    let bw = system.d2h_bandwidth().as_bytes_per_sec();
    let staging_bytes: u64 = est.iter().filter(|e| e.line == i).map(|e| e.d_in).sum();
    let candidates: Vec<usize> = (i..program.len()).filter(|&k| is_candidate(k)).collect();
    let regen_secs = CompiledProgram::compile_secs_for(candidates.len());
    if device_secs / fraction + staging_bytes as f64 / bw + regen_secs >= host_secs {
        return None;
    }
    for &k in &candidates {
        placements[k] = EngineKind::Cse;
    }
    let decided_at = now.as_secs();
    // Only code regeneration is charged here: input staging is charged by
    // the region's normal prepare path once the reclaimed region runs.
    system.advance(csd_sim::units::Duration::from_secs(regen_secs));
    opts.tracer.instant(
        "migration.decision",
        SpanKind::Migration,
        Some(decided_at),
        vec![
            ("reason".into(), MigrationReason::Reclaim.as_str().into()),
            ("after_line".into(), i.saturating_sub(1).into()),
            ("state_bytes".into(), 0u64.into()),
            ("regen_secs".into(), regen_secs.into()),
        ],
    );
    opts.tracer.counter_add("exec.migrations", 1);
    Some(MigrationEvent {
        after_line: i.saturating_sub(1),
        state_bytes: 0,
        at_secs: decided_at,
        regen_secs,
        reason: MigrationReason::Reclaim,
    })
}

/// Installs the scenario's degradation on the CSE (and, for competing ISP
/// tenants, the internal flash data path) from time `at` onward. A
/// scenario with a recovery time later than `at` also installs the
/// recovery edge, so phase-shifting traces (drop, then recover) degrade
/// and restore every affected resource consistently.
fn install_contention(system: &mut System, opts: &ExecOptions, at: csd_sim::units::SimTime) {
    system
        .engine_mut(EngineKind::Cse)
        .degrade_from(at, opts.scenario.fraction());
    let recover = opts.scenario.recover_at().filter(|rec| *rec > at);
    if let Some(rec) = recover {
        system.engine_mut(EngineKind::Cse).degrade_from(rec, 1.0);
    }
    if opts.scenario.affects_storage() {
        let mut trace = AvailabilityTrace::full().with_change(at, opts.scenario.fraction());
        if let Some(rec) = recover {
            trace = trace.with_change(rec, 1.0);
        }
        system.flash_mut().set_contention(trace);
    }
}

/// Convenience: runs the whole program on the host (the no-CSD baseline)
/// using the default (VM) backend.
///
/// # Errors
///
/// Propagates execution failures.
pub fn execute_all_host(
    program: &Program,
    storage: &Storage,
    system: &mut System,
    tier: ExecTier,
    params: &CostParams,
    copy_elim: &[bool],
) -> Result<RunReport> {
    execute_all_host_with(
        program,
        storage,
        system,
        tier,
        params,
        copy_elim,
        ExecBackend::default(),
    )
}

/// As [`execute_all_host`], on an explicit evaluation backend.
///
/// # Errors
///
/// Propagates execution failures.
#[allow(clippy::too_many_arguments)]
pub fn execute_all_host_with(
    program: &Program,
    storage: &Storage,
    system: &mut System,
    tier: ExecTier,
    params: &CostParams,
    copy_elim: &[bool],
    backend: ExecBackend,
) -> Result<RunReport> {
    let placements = vec![EngineKind::Host; program.len()];
    let opts = ExecOptions {
        tier,
        params: *params,
        scenario: ContentionScenario::none(),
        monitor: None,
        offload_overheads: false,
        preempt_at: None,
        backend,
        recovery: RecoveryPolicy::default(),
        faults: FaultPlan::none(),
        tracer: Tracer::disabled(),
        parallel: ParallelPolicy::default(),
        profile: crate::profile::ProfileRecorder::disabled(),
        journal: ExecJournal::disabled(),
    };
    execute(
        program,
        storage,
        &placements,
        system,
        &opts,
        None,
        copy_elim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryStats;
    use alang::parser::parse;
    use alang::value::ArrayVal;
    use alang::Value;
    use csd_sim::SystemConfig;

    /// 4 GB logical array, materialized small.
    fn storage() -> Storage {
        let mut st = Storage::new();
        let data: Vec<f64> = (0..4096).map(|i| (i % 100) as f64).collect();
        st.insert("v", Value::Array(ArrayVal::with_logical(data, 500_000_000)));
        st
    }

    const SRC: &str = "a = scan('v')\nm = a < 50\nb = select(a, m)\ns = sum(b)\n";

    fn placements(csd: &[usize], len: usize) -> Vec<EngineKind> {
        (0..len)
            .map(|i| {
                if csd.contains(&i) {
                    EngineKind::Cse
                } else {
                    EngineKind::Host
                }
            })
            .collect()
    }

    #[test]
    fn all_host_run_produces_report() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute_all_host(
            &program,
            &st,
            &mut sys,
            ExecTier::Native,
            &CostParams::paper_default(),
            &[],
        )
        .expect("run");
        assert_eq!(rep.lines.len(), 4);
        assert!(rep.total_secs > 0.0);
        assert_eq!(rep.csd_lines_executed, 0);
        assert!(rep.migration.is_none());
        // Host scan of 4 GB at the 4 GB/s external path ≈ 1 s floor.
        assert!(rep.total_secs > 0.9, "got {}", rep.total_secs);
    }

    #[test]
    fn offloading_the_reduction_pipeline_wins() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut host_sys = SystemConfig::paper_default().build();
        let host = execute_all_host(
            &program,
            &st,
            &mut host_sys,
            ExecTier::Native,
            &CostParams::paper_default(),
            &[],
        )
        .expect("host");
        let mut isp_sys = SystemConfig::paper_default().build();
        let opts = ExecOptions::native_static();
        let isp = execute(
            &program,
            &st,
            &placements(&[0, 1, 2, 3], 4),
            &mut isp_sys,
            &opts,
            None,
            &[],
        )
        .expect("isp");
        assert!(
            isp.total_secs < host.total_secs,
            "ISP {} should beat host {}",
            isp.total_secs,
            host.total_secs
        );
        assert_eq!(isp.csd_lines_executed, 4);
    }

    #[test]
    fn placements_length_mismatch_rejected() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let e = execute(
            &program,
            &st,
            &placements(&[], 2),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .unwrap_err();
        assert!(matches!(e, ActivePyError::Exec { .. }));
    }

    #[test]
    fn cross_engine_variables_are_staged() {
        // Line 0,1 on CSD; line 2,3 on host: `a` and `m` must cross back.
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &placements(&[0, 1], 4),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .expect("run");
        let staged: u64 = rep.lines.iter().map(|l| l.staged_bytes).sum();
        assert!(staged > 0, "host lines must pull a and m over: {rep:?}");
        assert!(rep.d2h_bytes >= staged);
    }

    #[test]
    fn constant_contention_slows_static_isp() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let all = placements(&[0, 1, 2, 3], 4);
        let mut full_sys = SystemConfig::paper_default().build();
        let full = execute(
            &program,
            &st,
            &all,
            &mut full_sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .expect("full");
        let mut starved_sys = SystemConfig::paper_default().build();
        let starved = execute(
            &program,
            &st,
            &all,
            &mut starved_sys,
            &ExecOptions::native_static().with_scenario(ContentionScenario::constant(0.1)),
            None,
            &[],
        )
        .expect("starved");
        assert!(
            starved.total_secs > full.total_secs * 1.5,
            "10% CSE must hurt: {} vs {}",
            starved.total_secs,
            full.total_secs
        );
    }

    #[test]
    fn migration_fires_under_progress_contention() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let all = placements(&[0, 1, 2, 3], 4);
        // Build estimates that roughly match reality so the decision logic
        // has something to work with.
        let estimates: Vec<LineEstimate> = (0..4)
            .map(|line| LineEstimate {
                line,
                ct_host: 0.5,
                ct_device: 0.3,
                d_in: 1_000_000,
                d_out: 1_000_000,
                ops: 1_000_000_000,
            })
            .collect();
        let opts =
            ExecOptions::activepy().with_scenario(ContentionScenario::after_progress(0.5, 0.01));
        let mut sys = SystemConfig::paper_default().build();
        let rep =
            execute(&program, &st, &all, &mut sys, &opts, Some(&estimates), &[]).expect("run");
        let mig = rep.migration.expect("should migrate under 1% availability");
        assert!(
            mig.after_line >= 1,
            "contention starts at 50% progress, so the break lands mid-stream: {mig:?}"
        );
        assert!(mig.regen_secs > 0.0, "host code regeneration is charged");
        // And the run with migration beats the one without.
        let mut sys2 = SystemConfig::paper_default().build();
        let no_mig = execute(
            &program,
            &st,
            &all,
            &mut sys2,
            &opts.clone().without_migration(),
            Some(&estimates),
            &[],
        )
        .expect("no-mig run");
        assert!(
            rep.total_secs < no_mig.total_secs,
            "migration {} must beat starvation {}",
            rep.total_secs,
            no_mig.total_secs
        );
    }

    #[test]
    fn split_placements_form_two_regions_with_two_invocations() {
        // CSD, host, CSD, host: two separate CSD regions, each invoked
        // through the queue pair.
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &placements(&[0, 2], 4),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .expect("run");
        assert_eq!(rep.csd_lines_executed, 2);
        assert_eq!(
            sys.queue().submitted_total(),
            2,
            "one invocation per region"
        );
        // The host lines in between pull their inputs across.
        let staged: u64 = rep.lines.iter().map(|l| l.staged_bytes).sum();
        assert!(staged > 0);
    }

    #[test]
    fn device_memory_is_accounted_and_bounded() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        // Lines 0-2 on CSD, line 3 (sum) on host: `b` (the selected array)
        // escapes the region, so it must materialize in device DRAM.
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &placements(&[0, 1, 2], 4),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .expect("run");
        // b has ~250M logical elements x 8 B = ~2 GB.
        assert!(
            rep.peak_device_bytes > 1_000_000_000,
            "escaping output must occupy device DRAM: {}",
            rep.peak_device_bytes
        );
        assert!(rep.peak_device_bytes < 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn device_dram_overflow_is_an_error_not_a_lie() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        // A CSD with 1 GB of DRAM cannot hold the ~2 GB escaping array.
        let mut config = SystemConfig::paper_default();
        config.device_dram = csd_sim::units::Bytes::from_gib(1);
        let mut sys = config.build();
        let e = execute(
            &program,
            &st,
            &placements(&[0, 1, 2], 4),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .unwrap_err();
        let msg = format!("{e}");
        assert!(msg.contains("out of memory"), "got: {msg}");
    }

    #[test]
    fn high_priority_preemption_forces_migration() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let all = placements(&[0, 1, 2, 3], 4);
        // Uncontended reference to find a mid-run time.
        let mut ref_sys = SystemConfig::paper_default().build();
        let reference = execute(
            &program,
            &st,
            &all,
            &mut ref_sys,
            &ExecOptions::activepy(),
            None,
            &[],
        )
        .expect("reference");
        let t_mid = reference.total_secs * 0.4;
        // No contention at all: the monitor would never migrate, but the
        // Break command must.
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &all,
            &mut sys,
            &ExecOptions::activepy().with_preemption_at(t_mid),
            None,
            &[],
        )
        .expect("preempted run");
        let mig = rep
            .migration
            .expect("the Break command must force a migration");
        assert_eq!(mig.reason, MigrationReason::Preempted);
        assert!(
            mig.at_secs >= t_mid,
            "break happens at the next status update after {t_mid}: {mig:?}"
        );
        // The run completes correctly, just slower than the quiet one.
        assert!(rep.total_secs >= reference.total_secs * 0.99);
    }

    #[test]
    fn preemption_after_completion_is_harmless() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let all = placements(&[0, 1, 2, 3], 4);
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &all,
            &mut sys,
            &ExecOptions::activepy().with_preemption_at(1e9),
            None,
            &[],
        )
        .expect("run");
        assert!(rep.migration.is_none());
    }

    /// Runs the same configuration on both backends and asserts
    /// byte-identical reports (`RunReport` derives `PartialEq`, and the
    /// simulator is deterministic, so any engine divergence shows up).
    fn assert_backend_parity(opts: &ExecOptions, csd: &[usize], copy_elim: &[bool]) {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(csd, 4);
        let estimates: Vec<LineEstimate> = (0..4)
            .map(|line| LineEstimate {
                line,
                ct_host: 0.5,
                ct_device: 0.3,
                d_in: 1_000_000,
                d_out: 1_000_000,
                ops: 1_000_000_000,
            })
            .collect();
        let mut vm_sys = SystemConfig::paper_default().build();
        let vm = execute(
            &program,
            &st,
            &pl,
            &mut vm_sys,
            &opts.clone().with_backend(ExecBackend::Vm),
            Some(&estimates),
            copy_elim,
        )
        .expect("vm run");
        let mut ast_sys = SystemConfig::paper_default().build();
        let ast = execute(
            &program,
            &st,
            &pl,
            &mut ast_sys,
            &opts.clone().with_backend(ExecBackend::AstWalk),
            Some(&estimates),
            copy_elim,
        )
        .expect("ast run");
        assert_eq!(vm, ast);
    }

    #[test]
    fn backends_agree_on_host_only_runs() {
        assert_backend_parity(&ExecOptions::native_static(), &[], &[]);
    }

    #[test]
    fn backends_agree_on_full_offload_with_copy_elim() {
        assert_backend_parity(
            &ExecOptions::activepy(),
            &[0, 1, 2, 3],
            &[false, true, true, true],
        );
    }

    #[test]
    fn backends_agree_on_split_placements_under_contention() {
        assert_backend_parity(
            &ExecOptions::activepy().with_scenario(ContentionScenario::after_progress(0.5, 0.01)),
            &[0, 2],
            &[],
        );
    }

    #[test]
    fn fingerprint_follows_names_and_bits_not_placement_or_backend() {
        let run = |src: &str, st: &Storage, csd: &[usize], backend| {
            let mut opts = ExecOptions::activepy();
            opts.backend = backend;
            let mut sys = SystemConfig::paper_default().build();
            let pl = placements(csd, 4);
            execute(
                &parse(src).expect("parse"),
                st,
                &pl,
                &mut sys,
                &opts,
                None,
                &[],
            )
            .expect("run")
            .values_fingerprint
        };
        let st = storage();
        let reference = run(SRC, &st, &[], ExecBackend::Vm);
        assert_eq!(reference, run(SRC, &st, &[0, 1, 2], ExecBackend::AstWalk));
        // Renaming an intermediate leaves every value alone and still counts.
        let renamed = SRC.replace("b =", "c =").replace("sum(b)", "sum(c)");
        assert_ne!(reference, run(&renamed, &st, &[], ExecBackend::Vm));
        // -0.0 < 50 like the 0.0 it replaces, so `m` and `s` stay equal:
        // only the bit pattern of one element of `a` and `b` differs.
        let mut data: Vec<f64> = (0..4096).map(|i| (i % 100) as f64).collect();
        data[0] = -0.0;
        let mut signed = Storage::new();
        signed.insert("v", Value::Array(ArrayVal::with_logical(data, 500_000_000)));
        assert_ne!(reference, run(SRC, &signed, &[], ExecBackend::Vm));
    }

    #[test]
    fn execute_lowered_matches_execute() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1], 4);
        let flags = [false, true, true, true];
        let lowered = alang::lower::lower_with(&program, &flags).expect("lower");
        let opts = ExecOptions::native_static();
        let mut sys_a = SystemConfig::paper_default().build();
        let via_lowered =
            execute_lowered(&program, &lowered, &st, &pl, &mut sys_a, &opts, None, None)
                .expect("run");
        let mut sys_b = SystemConfig::paper_default().build();
        let direct = execute(&program, &st, &pl, &mut sys_b, &opts, None, &flags).expect("run");
        assert_eq!(via_lowered, direct);
    }

    #[test]
    fn lowered_line_count_mismatch_rejected() {
        let program = parse(SRC).expect("parse");
        let short = parse("a = 1\n").expect("parse");
        let lowered = alang::lower::lower(&short).expect("lower");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let e = execute_lowered(
            &program,
            &lowered,
            &st,
            &placements(&[], 4),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(e, ActivePyError::Exec { .. }));
    }

    #[test]
    fn fault_free_runs_report_zero_recovery_activity() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &placements(&[0, 1, 2, 3], 4),
            &mut sys,
            &ExecOptions::activepy(),
            None,
            &[],
        )
        .expect("run");
        assert_eq!(rep.metrics.recovery, RecoveryStats::default());
        assert_ne!(rep.values_fingerprint, 0);
    }

    /// Runs SRC fully offloaded, fault-free and with `faults`, and returns
    /// (fault-free report, faulted report).
    fn run_with_faults(opts: &ExecOptions, faults: FaultPlan) -> (RunReport, RunReport) {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1, 2, 3], 4);
        let mut clean_sys = SystemConfig::paper_default().build();
        let clean = execute(&program, &st, &pl, &mut clean_sys, opts, None, &[]).expect("clean");
        let mut faulted_sys = SystemConfig::paper_default().build();
        let faulted = execute(
            &program,
            &st,
            &pl,
            &mut faulted_sys,
            &opts.clone().with_faults(faults),
            None,
            &[],
        )
        .expect("faulted");
        (clean, faulted)
    }

    #[test]
    fn transient_faults_are_retried_and_preserve_the_answer() {
        let faults = FaultPlan::none()
            .with_seed(11)
            .with_flash_read_error_prob(0.05)
            .with_nvme_error_prob(0.05)
            .with_dma_error_prob(0.05);
        let (clean, faulted) = run_with_faults(&ExecOptions::activepy(), faults);
        assert!(
            faulted.metrics.recovery.transient_faults > 0,
            "5% per-op error over a 64-chunk stream must fire: {:?}",
            faulted.metrics.recovery
        );
        assert!(faulted.metrics.recovery.recovered_ops > 0);
        assert_eq!(faulted.values_fingerprint, clean.values_fingerprint);
        assert!(
            faulted.total_secs > clean.total_secs,
            "detection latency and backoff are charged to sim time"
        );
    }

    #[test]
    fn cse_crash_migrates_to_host_with_identical_answer() {
        let opts = ExecOptions::activepy();
        // Crash mid-way through the CSD stream (reference run finds when).
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1, 2, 3], 4);
        let mut ref_sys = SystemConfig::paper_default().build();
        let reference = execute(&program, &st, &pl, &mut ref_sys, &opts, None, &[]).expect("ref");
        let t_half = reference.time_at_csd_progress(0.5).expect("csd ran");
        let faults = FaultPlan::none()
            .with_seed(3)
            .with_crash_at(csd_sim::units::SimTime::from_secs(t_half));
        let (clean, faulted) = run_with_faults(&opts, faults);
        let mig = faulted.migration.expect("crash must force a migration");
        assert_eq!(mig.reason, MigrationCause::DeviceFault);
        assert!(faulted.metrics.recovery.hard_faults >= 1);
        assert!(faulted.metrics.recovery.fault_migrations >= 1);
        assert_eq!(faulted.values_fingerprint, clean.values_fingerprint);
        assert!(faulted.total_secs > clean.total_secs);
    }

    #[test]
    fn disabling_fallback_turns_a_crash_into_a_device_fault_error() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1, 2, 3], 4);
        let opts = ExecOptions::activepy()
            .with_recovery(RecoveryPolicy::default().without_fallback())
            .with_faults(
                FaultPlan::none()
                    .with_seed(3)
                    .with_crash_at(csd_sim::units::SimTime::ZERO),
            );
        let mut sys = SystemConfig::paper_default().build();
        let e = execute(&program, &st, &pl, &mut sys, &opts, None, &[]).unwrap_err();
        assert!(matches!(e, ActivePyError::DeviceFault { .. }), "got {e}");
    }

    #[test]
    fn invalid_policies_are_config_errors_at_the_door() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[], 4);
        let mut bad_recovery = ExecOptions::activepy();
        bad_recovery.recovery.backoff_multiplier = 0.0;
        let mut bad_faults = ExecOptions::activepy();
        bad_faults.faults.flash_read_error_prob = 2.0;
        let mut bad_parallel = ExecOptions::activepy();
        bad_parallel.parallel.threads = 0;
        for opts in [bad_recovery, bad_faults, bad_parallel] {
            let mut sys = SystemConfig::paper_default().build();
            let e = execute(&program, &st, &pl, &mut sys, &opts, None, &[]).unwrap_err();
            assert!(matches!(e, ActivePyError::Config { .. }), "got {e}");
        }
    }

    #[test]
    fn parallel_policy_is_execution_only() {
        // Same program, serial vs 8-thread kernels: per-line outcomes,
        // fingerprint, and sim-time must not move. Only the recorded policy
        // (and its counters) differ, so compare fields, not whole reports.
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1, 2, 3], 4);
        let mut serial_sys = SystemConfig::paper_default().build();
        let serial = execute(
            &program,
            &st,
            &pl,
            &mut serial_sys,
            &ExecOptions::activepy(),
            None,
            &[],
        )
        .expect("serial");
        for backend in [ExecBackend::Vm, ExecBackend::AstWalk] {
            let policy = ParallelPolicy::new(8, 64).expect("valid policy");
            let mut par_sys = SystemConfig::paper_default().build();
            let par = execute(
                &program,
                &st,
                &pl,
                &mut par_sys,
                &ExecOptions::activepy()
                    .with_backend(backend)
                    .with_parallelism(policy),
                None,
                &[],
            )
            .expect("parallel");
            assert_eq!(par.lines, serial.lines, "{backend:?}");
            assert_eq!(par.values_fingerprint, serial.values_fingerprint);
            assert_eq!(par.total_secs, serial.total_secs);
            assert_eq!(par.parallel, policy, "the report records its policy");
            assert!(
                par.metrics.par.par_calls > 0,
                "a 64-element threshold engages chunking: {:?}",
                par.metrics.par
            );
        }
        assert_eq!(serial.parallel, ParallelPolicy::default());
        assert_eq!(serial.metrics.par.par_calls, 0);
    }

    #[test]
    fn backends_agree_under_injected_faults() {
        let faults = FaultPlan::none()
            .with_seed(29)
            .with_flash_read_error_prob(0.1)
            .with_nvme_error_prob(0.1)
            .with_dma_error_prob(0.1)
            .with_gc_burst(
                csd_sim::units::SimTime::from_secs(0.05),
                csd_sim::units::Duration::from_secs(0.1),
                0.05,
            );
        assert_backend_parity(
            &ExecOptions::activepy().with_faults(faults),
            &[0, 1, 2, 3],
            &[],
        );
    }

    #[test]
    fn final_result_returns_to_host() {
        let program = parse("a = scan('v')\ns = sum(a)\n").expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &placements(&[0, 1], 2),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .expect("run");
        // The scalar result crossing back is tiny but the path is charged.
        assert!(rep.d2h_bytes >= 8);
    }

    #[test]
    fn every_migration_reason_acknowledges_the_monitor() {
        // The exec engine acknowledges unconditionally at its single
        // migration site; this regression pins the contract per variant: an
        // acknowledged monitor never carries a decrease streak across the
        // move, no matter why the move happened.
        use csd_sim::counters::PerfCounters;
        for reason in [
            MigrationReason::Degraded,
            MigrationReason::Preempted,
            MigrationReason::DeviceFault,
            MigrationReason::Reclaim,
        ] {
            let cfg = MonitorConfig::default();
            let mk = || Monitor::new(cfg, 1000.0, PerfCounters::new());
            // Rates decrease >0.1% per window but keep the smoothed ratio
            // above the threshold, so only the streak condition is in play.
            let rates = [1000.0, 997.0, 994.0, 991.0];
            let mut acked = mk();
            let mut stale = mk();
            for r in &rates[..3] {
                acked.observe_window(*r, 1.0);
                stale.observe_window(*r, 1.0);
            }
            // A migration for `reason` consumes the evidence...
            acked.acknowledge_migration();
            assert!(
                matches!(acked.observe_window(rates[3], 1.0), Observation::Healthy),
                "{}: acknowledged monitor must not re-trigger on a stale streak",
                reason.as_str()
            );
            // ...while an unacknowledged streak (the old behavior for
            // non-Degraded reasons) fires immediately.
            assert!(
                matches!(
                    stale.observe_window(rates[3], 1.0),
                    Observation::Degraded { .. }
                ),
                "{}: control monitor must hit the streak",
                reason.as_str()
            );
        }
    }

    /// Phase-shifting scenario harness for the reclaim tests: CSD region
    /// [0,1], host line 2, CSD line 3. Contention drops mid-region-0 and
    /// recovers shortly after, so the degradation migrates line 3 host-ward
    /// and the recovery hands it back.
    fn run_phase_shift(backend: ExecBackend) -> RunReport {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let place = placements(&[0, 1, 3], 4);
        // Reference run (no estimates, so no migration is possible) to
        // calibrate the estimates to the simulator's real timings: the
        // monitor then reads a healthy ~1.0 throughput ratio until the
        // burst hits.
        let mut ref_sys = SystemConfig::paper_default().build();
        let reference = execute(
            &program,
            &st,
            &place,
            &mut ref_sys,
            &ExecOptions::activepy().with_backend(backend),
            None,
            &[],
        )
        .expect("reference");
        let params = CostParams::paper_default();
        let estimates: Vec<LineEstimate> = reference
            .lines
            .iter()
            .map(|l| {
                let dur = (l.end_secs - l.start_secs).max(0.02);
                // Line 3 is the reclaim candidate: clearly device-
                // profitable, so abandoning it host-ward is a real loss.
                let (ct_device, ct_host) = if l.line == 3 {
                    (dur, 4.0 * dur)
                } else {
                    (dur, 1.2 * dur)
                };
                LineEstimate {
                    line: l.line,
                    ct_host,
                    ct_device,
                    d_in: 1_000_000,
                    d_out: 1_000_000,
                    ops: l.cost.effective_ops(ExecTier::CompiledCopyElim, &params),
                }
            })
            .collect();
        // A 0.5 s burst at 5% availability starting 30% into region [0,1]:
        // long enough for the monitor's smoothed rate to collapse and the
        // re-estimate to favor the host, over well before line 3 is due.
        let region_start = reference.lines[0].start_secs;
        let region_end = reference.lines[1].end_secs;
        let drop_at = region_start + 0.3 * (region_end - region_start);
        let scenario =
            ContentionScenario::at_time(csd_sim::units::SimTime::from_secs(drop_at), 0.05)
                .with_recovery_at(csd_sim::units::SimTime::from_secs(drop_at + 0.5));
        let opts = ExecOptions::activepy()
            .with_backend(backend)
            .with_scenario(scenario);
        let mut sys = SystemConfig::paper_default().build();
        execute(
            &program,
            &st,
            &place,
            &mut sys,
            &opts,
            Some(&estimates),
            &[],
        )
        .expect("run")
    }

    #[test]
    fn reclaim_returns_work_to_the_csd_after_recovery() {
        let rep = run_phase_shift(ExecBackend::default());
        let reasons: Vec<MigrationReason> = rep.migrations.iter().map(|m| m.reason).collect();
        assert!(
            reasons.contains(&MigrationReason::Degraded),
            "the burst must first push work host-ward: {reasons:?}"
        );
        assert!(
            reasons.contains(&MigrationReason::Reclaim),
            "recovered availability must pull line 3 back: {reasons:?}"
        );
        // The reclaimed line really ran on the CSD.
        let line3 = rep.lines.iter().find(|l| l.line == 3).expect("line 3");
        assert_eq!(line3.engine, EngineKind::Cse, "line 3 must run reclaimed");
        // The legacy field still reads the last *host-ward* migration.
        assert_eq!(
            rep.migration.expect("legacy migration").reason,
            MigrationReason::Degraded
        );
        // Reclaim charges regeneration on the simulated clock.
        let reclaim = rep
            .migrations
            .iter()
            .find(|m| m.reason == MigrationReason::Reclaim)
            .expect("reclaim event");
        assert!(reclaim.regen_secs > 0.0);
        assert_eq!(reclaim.state_bytes, 0, "inputs stage via the region path");
    }

    #[test]
    fn reclaim_schedule_is_value_and_backend_invariant() {
        // Placement flips — in either direction — may never change computed
        // values, and the reclaim decision reads only simulated-clock
        // state, so both backends take the identical migration schedule.
        let vm = run_phase_shift(ExecBackend::Vm);
        let interp = run_phase_shift(ExecBackend::AstWalk);
        assert_eq!(vm.migrations, interp.migrations);
        assert_eq!(vm.values_fingerprint, interp.values_fingerprint);
        assert!((vm.total_secs - interp.total_secs).abs() < 1e-12);
        // And the fingerprint matches an undisturbed static run.
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let static_run = execute(
            &program,
            &st,
            &placements(&[0, 1, 3], 4),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .expect("static");
        assert_eq!(vm.values_fingerprint, static_run.values_fingerprint);
    }

    /// Phase-shifting harness for the *in-region* reclaim path: every line
    /// is placed on the CSD, so the whole program is one merged region and
    /// the Degraded break is handled inside the region executor. Estimates
    /// make the remainder strongly device-favorable, so once availability
    /// recovers mid-completion the host-side remainder migrates back.
    fn run_in_region_phase_shift(backend: ExecBackend) -> RunReport {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let place = placements(&[0, 1, 2, 3], 4);
        let mut ref_sys = SystemConfig::paper_default().build();
        let reference = execute(
            &program,
            &st,
            &place,
            &mut ref_sys,
            &ExecOptions::activepy().with_backend(backend),
            None,
            &[],
        )
        .expect("reference");
        let params = CostParams::paper_default();
        let estimates: Vec<LineEstimate> = reference
            .lines
            .iter()
            .map(|l| {
                let dur = (l.end_secs - l.start_secs).max(0.02);
                LineEstimate {
                    line: l.line,
                    // Uniformly device-profitable, so finishing host-side
                    // is a loss the reclaim check can always recognize.
                    ct_host: 4.0 * dur,
                    ct_device: dur,
                    d_in: 1_000_000,
                    d_out: 1_000_000,
                    ops: l.cost.effective_ops(ExecTier::CompiledCopyElim, &params),
                }
            })
            .collect();
        // Burst 30% into the region, recovering 1.4 s later: the monitor
        // breaks host-ward mid-region (after ~3 burst-stretched chunk
        // windows) and the recovery lands while the host is still working
        // off the (4x slower for it) remainder.
        let drop_at = 0.3 * reference.total_secs;
        let scenario =
            ContentionScenario::at_time(csd_sim::units::SimTime::from_secs(drop_at), 0.05)
                .with_recovery_at(csd_sim::units::SimTime::from_secs(drop_at + 1.4));
        let opts = ExecOptions::activepy()
            .with_backend(backend)
            .with_scenario(scenario);
        let mut sys = SystemConfig::paper_default().build();
        execute(
            &program,
            &st,
            &place,
            &mut sys,
            &opts,
            Some(&estimates),
            &[],
        )
        .expect("run")
    }

    #[test]
    fn in_region_reclaim_resumes_the_merged_region_on_the_csd() {
        let rep = run_in_region_phase_shift(ExecBackend::default());
        let reasons: Vec<MigrationReason> = rep.migrations.iter().map(|m| m.reason).collect();
        assert_eq!(
            reasons,
            vec![MigrationReason::Degraded, MigrationReason::Reclaim],
            "burst breaks host-ward, recovery pulls the remainder back"
        );
        let degraded = &rep.migrations[0];
        let reclaim = &rep.migrations[1];
        assert!(
            reclaim.at_secs > degraded.at_secs,
            "reclaim happens strictly after the host-ward break"
        );
        assert_eq!(
            reclaim.state_bytes, degraded.state_bytes,
            "the drained region state is what returns to the device"
        );
        assert!(
            reclaim.regen_secs > 0.0,
            "device code regeneration is charged"
        );
    }

    #[test]
    fn in_region_reclaim_is_value_and_backend_invariant() {
        let vm = run_in_region_phase_shift(ExecBackend::Vm);
        let interp = run_in_region_phase_shift(ExecBackend::AstWalk);
        assert_eq!(vm.migrations, interp.migrations);
        assert_eq!(vm.values_fingerprint, interp.values_fingerprint);
        assert!((vm.total_secs - interp.total_secs).abs() < 1e-12);
        // The round trip never touches computed values.
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut sys = SystemConfig::paper_default().build();
        let static_run = execute(
            &program,
            &st,
            &placements(&[0, 1, 2, 3], 4),
            &mut sys,
            &ExecOptions::native_static(),
            None,
            &[],
        )
        .expect("static");
        assert_eq!(vm.values_fingerprint, static_run.values_fingerprint);
    }
}
