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
//!
//! One private `Run` owns everything an execution mutates; host lines and
//! CSD regions are its methods, and every transition they make is published
//! through the single `Run::boundary` (DESIGN.md §5.8).

#![deny(clippy::too_many_lines)]

use crate::error::{ActivePyError, Result};
use crate::estimate::LineEstimate;
use crate::metrics::MetricsSnapshot;
use crate::monitor::{Monitor, MonitorConfig, Observation};
use crate::recovery::{Recovery, RecoveryPolicy};
use crate::resume::reason_code;
use crate::shard::ShardSlice;
use alang::compile::{binary_bytes_for, compile_secs_for};
use alang::par::ParStatsSnapshot;
use alang::{
    CostParams, ExecTier, Fingerprinter, LineCost, LoweredProgram, ParallelPolicy, Program,
    Storage, Vm,
};
use csd_sim::availability::AvailabilityTrace;
use csd_sim::contention::{ContentionScenario, Trigger};
use csd_sim::fault::{DeviceFault, FaultPlan};
use csd_sim::nvme::CommandKind;
use csd_sim::units::{Bytes, Duration, Ops, SimTime};
use csd_sim::{Direction, EngineKind, System};
use isp_obs::{Attrs, SpanHandle, SpanKind, StateSnap, Tracer, WalRecord};
use serde::Serialize;

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
    /// Simulated time at which the CSD must preempt the ISP task for a
    /// high-priority request (§III-D, case 1): a `Break` command lands in
    /// the call queue, the status-update code sees it at the next chunk
    /// boundary, and the task migrates unconditionally.
    pub preempt_at: Option<f64>,
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
            preempt_at: None,
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
            monitor: None,
            ..ExecOptions::activepy()
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

    /// Checks every policy. [`evaluate`] and [`simulate`] call this before
    /// doing anything: a bad policy is a configuration error at the door,
    /// not a silent clamp mid-run.
    ///
    /// # Errors
    ///
    /// Returns the first invalid policy as a configuration error.
    pub fn validate(&self) -> Result<()> {
        if let Some(cfg) = self.monitor {
            cfg.validate()?;
        }
        // A NaN preemption time compares false against every clock value
        // and would never fire; a NaN or negative cost constant rounds
        // every line's effective ops to zero.
        for (name, value) in [
            ("preempt_at", self.preempt_at.unwrap_or(0.0)),
            ("params.copy_ops_per_byte", self.params.copy_ops_per_byte),
            ("params.dispatch_overhead", self.params.dispatch_overhead),
            ("params.scan_ops_per_byte", self.params.scan_ops_per_byte),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ActivePyError::config(format!(
                    "{name} must be finite and non-negative, got {value}"
                )));
            }
        }
        self.recovery.validate()?;
        self.faults.validate().map_err(ActivePyError::config)?;
        self.parallel.validate().map_err(ActivePyError::config)
    }
}

/// What happened on one line.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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

/// A migration that occurred during the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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

/// Executes `program` with the given per-line `placements` on `system`:
/// lower, [`evaluate`], then [`simulate`]. Runs that share a plan — one per
/// contention scenario — share its lowering, and runs that are schedules
/// of *one* execution (a fleet's N + 1, the candidates of a placement
/// search) share the evaluation too, by calling those two directly.
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
    let lowered = alang::lower::lower_with(program, copy_elim)?;
    let evaluation = evaluate(program, &lowered, storage, opts)?;
    simulate(
        program,
        &evaluation,
        placements,
        system,
        opts,
        estimates,
        None,
    )
}

/// What `program` computes over `storage` — a function of those two alone
/// (placement, contention, faults and sharding affect only simulated
/// cost), so one `Evaluation` serves every schedule simulated over it: a
/// fleet's N shard runs and its tail, or every candidate of a placement
/// search. Built by [`evaluate`], consumed by [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Per line, in program order: its cost on the full data, before any
    /// shard scaling. `bytes_out` is the volume of the value the line
    /// produced — the target's `virtual_bytes` once the line has run —
    /// which is the size of that value wherever a later line reads it.
    lines: Vec<LineCost>,
    /// Every assigned variable's name and the digest of its final value,
    /// in first-assignment order, through one [`Fingerprinter`]. Bit
    /// patterns, not renderings: `-0.0` and NaN payloads count.
    values_fingerprint: u64,
    /// The policy the kernels ran under, and what they counted.
    parallel: ParallelPolicy,
    par: ParStatsSnapshot,
}

thread_local! {
    /// How many times [`evaluate`] has run on this thread.
    static EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times [`evaluate`] has run on the calling thread — what the
/// "one evaluation per logical execution" tests count, here and in the
/// crates whose searches sit on top of this one (where a `cfg(test)` of
/// this crate is off).
#[doc(hidden)]
#[must_use]
pub fn evaluations_on_this_thread() -> u64 {
    EVALUATIONS.with(std::cell::Cell::get)
}

/// Runs `lowered` over `storage`, line by line in program order, under
/// `opts.parallel`, with `kernel.par` spans going to `opts.tracer`. This
/// is the only place the executor constructs a [`Vm`].
///
/// # Errors
///
/// Rejects a lowering whose line count does not match `program` and
/// invalid options (before anything runs); returns the first failing
/// line's evaluation error, annotated with its line.
pub fn evaluate(
    program: &Program,
    lowered: &LoweredProgram,
    storage: &Storage,
    opts: &ExecOptions,
) -> Result<Evaluation> {
    if lowered.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "lowered program has {} lines, source has {}",
            lowered.len(),
            program.len()
        )));
    }
    opts.validate()?;
    EVALUATIONS.with(|n| n.set(n.get() + 1));
    let mut vm = Vm::with_policy(lowered, storage, opts.parallel);
    vm.set_tracer(opts.tracer.clone());
    let lines = (0..program.len())
        .map(|line| vm.exec_line(line))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut fp = Fingerprinter::default();
    for target in program.targets() {
        match program.scanned_dataset(target) {
            // The variable is the stored value: take the digest the
            // storage keeps with it instead of re-reading the dataset.
            Some(dataset) => fp.var_digest(target, Some(storage.digest(dataset)?)),
            None => fp.var(target, vm.var(target)),
        }
    }
    Ok(Evaluation {
        lines,
        values_fingerprint: fp.finish(),
        parallel: opts.parallel,
        par: vm.par_stats(),
    })
}

/// Simulates one schedule of an already evaluated program: `placements`
/// on `system` under `opts` — everything [`execute`] does after evaluating.
///
/// When `shard` is given the run is charged as one shard of a fleet:
/// values were still computed in full (so `values_fingerprint` matches the
/// unsharded run), but extensive costs are restricted to the shard's
/// charge range and row slice.
///
/// # Errors
///
/// As [`execute`], less the evaluation errors; additionally rejects an
/// `evaluation` of a program with a different line count and `estimates`
/// that are not one per line, in line order.
pub fn simulate(
    program: &Program,
    evaluation: &Evaluation,
    placements: &[EngineKind],
    system: &mut System,
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
    shard: Option<&ShardSlice>,
) -> Result<RunReport> {
    if placements.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "{} placements for {} lines",
            placements.len(),
            program.len()
        )));
    }
    if evaluation.lines.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "evaluation covers {} lines, program has {}",
            evaluation.lines.len(),
            program.len()
        )));
    }
    // Every producer emits one estimate per line in line order; checked
    // here once, estimates are indexed by line from then on.
    if let Some(est) = estimates {
        if est.len() != program.len() || est.iter().enumerate().any(|(i, e)| e.line != i) {
            return Err(ActivePyError::exec(format!(
                "{} estimates for {} lines, or out of line order",
                est.len(),
                program.len()
            )));
        }
    }
    opts.validate()?;
    if !opts.faults.is_none() {
        system.install_faults(opts.faults.clone());
    }
    let mut run = Run {
        program,
        opts,
        estimates,
        shard,
        system,
        evaluation,
        recov: Recovery::with_tracer(opts.recovery, opts.tracer.clone()),
        values: vec![ValueSlot::default(); program.len()],
        peak_device: 0,
        original: placements,
        placements: placements.to_vec(),
        monitor: None,
        migration: None,
        migrations: Vec::new(),
        lines_out: Vec::with_capacity(program.len()),
        csd_executed: 0,
        csd_total: csd_lines(placements),
        contention_applied: false,
        spans: Vec::new(),
    };
    let report = run.drive();
    if report.is_err() {
        run.close_spans_after_error();
    }
    report
}

/// A hard fault leaving the recovery layer: either a crash, or a transient
/// fault that exhausted its retry budget — both escalate to the permanent
/// [`ActivePyError::DeviceFault`] so callers never retry them again.
fn escalate(fault: DeviceFault) -> ActivePyError {
    ActivePyError::device_fault(fault.to_string())
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

/// How many of `placements` are on the CSD.
fn csd_lines(placements: &[EngineKind]) -> usize {
    placements.iter().filter(|p| **p == EngineKind::Cse).count()
}

/// Totals over a subset of the per-line estimates.
#[derive(Default)]
struct EstimateSums {
    device_secs: f64,
    host_secs: f64,
    ops: u64,
    lines: usize,
}

/// Sums the estimates whose line `keep` selects, in line order.
fn estimate_sums(est: &[LineEstimate], keep: impl Fn(usize) -> bool) -> EstimateSums {
    let mut sums = EstimateSums::default();
    for e in est.iter().filter(|e| keep(e.line)) {
        sums.device_secs += e.ct_device;
        sums.host_secs += e.ct_host;
        sums.ops += e.ops;
        sums.lines += 1;
    }
    sums
}

/// One transition of the execution state machine. Every observer of a run
/// — the journal, the tracer, the report's migration list — learns about
/// a transition in [`Run::boundary`] and nowhere else.
enum Boundary {
    /// Validation passed; execution is about to start.
    RunStart,
    /// The host line with this index completed.
    HostLine(usize),
    /// Chunk `chunk` of the CSD region `[start, end]` completed on-device.
    Chunk {
        start: usize,
        end: usize,
        chunk: u64,
    },
    /// A host-ward migration, broken at this chunk of its region (0 when
    /// the region's invocation itself faulted).
    Migration(MigrationEvent, u64),
    /// A device-ward reclaim: `true` when taken inside a region's host
    /// completion, `false` at a line boundary.
    Reclaim(MigrationEvent, bool),
    /// The run finished with this answer at this simulated time.
    RunEnd { fingerprint: u64, total_secs: f64 },
}

/// What one chunk of a region stream did.
struct ChunkStep {
    /// Device operations completed in the chunk (the monitor's window).
    ops: u64,
    /// Simulated seconds the chunk took.
    wall: f64,
    /// A hard fault mid-chunk ends the device stream; the completed work
    /// stays counted so the host replays only the remainder.
    fault: Option<DeviceFault>,
}

/// One line of a [`Region`]: what it costs and how far its stream has got.
struct RegionLine {
    cost: LineCost,
    /// Effective operations at the run's tier.
    ops: u64,
    /// Bytes staged across the interconnect for its inputs.
    staged: u64,
    /// Bytes of its output that escape the region (read by a later line,
    /// or the program result) — the only live state a streaming region
    /// carries at a chunk boundary.
    escaping_out: u64,
    /// Simulated seconds spent on it so far.
    duration: f64,
    done_storage: u64,
    done_ops: u64,
}

/// A contiguous run of CSD lines prepared for chunk-pipelined execution,
/// plus the progress its stream has made.
struct Region {
    start: usize,
    end: usize,
    /// Lines `start..=end`, in order.
    lines: Vec<RegionLine>,
    /// Region-external inputs currently resident in device memory.
    external_input_bytes: u64,
    /// Totals over the region's estimates (zero without estimates).
    est: EstimateSums,
    /// Simulated time the stream started.
    t0: f64,
    /// Whether the host already posted the preemption `Break`.
    break_submitted: bool,
}

impl Region {
    fn len(&self) -> usize {
        self.lines.len()
    }

    /// The live state a break at `done_fraction` must move: the escaping
    /// outputs produced so far plus the external inputs staged on-device.
    fn state_bytes(&self, done_fraction: f64) -> u64 {
        self.lines
            .iter()
            .map(|l| (l.escaping_out as f64 * done_fraction) as u64)
            .sum::<u64>()
            + self.external_input_bytes
    }
}

/// Where the value a line defined is, once the line has been simulated. A
/// value is the line that defines it: names were resolved to reaching
/// definitions when the [`Program`] was built, so nothing here is keyed
/// by name.
#[derive(Clone, Copy, Default)]
struct ValueSlot {
    /// The engine whose memory holds it (`None` before its line has run).
    location: Option<EngineKind>,
    /// Its allocation in [`csd_sim::memory::SharedAddressSpace`], when it
    /// is materialized: placed near its consumer and migrated when it
    /// crosses the interconnect. Region-internal intermediates are
    /// chunk-pipelined and never fully materialize, so only escaping
    /// values have one.
    allocation: Option<csd_sim::memory::ObjectId>,
}

/// One execution in flight: the program, its options, the simulated
/// platform, what the program evaluated to, and everything the line/region
/// state machine mutates as it goes.
struct Run<'a> {
    program: &'a Program,
    opts: &'a ExecOptions,
    estimates: Option<&'a [LineEstimate]>,
    shard: Option<&'a ShardSlice>,
    system: &'a mut System,
    evaluation: &'a Evaluation,
    recov: Recovery,
    /// Per defining line. The machine visits lines strictly in program
    /// order and a reaching definition is an earlier line, so every value
    /// a line reads has been placed by the time it is read.
    values: Vec<ValueSlot>,
    /// Peak bytes of program state resident in device DRAM.
    peak_device: u64,
    /// The plan's placement is the reclaim target set: only lines the
    /// planner offloaded — then migrated host-ward mid-run — are ever
    /// speculatively re-assigned to the CSD.
    original: &'a [EngineKind],
    placements: Vec<EngineKind>,
    /// The monitor of the region in flight (`None` between regions), so
    /// boundary snapshots taken inside a region carry its evidence.
    monitor: Option<Monitor>,
    /// The last *host-ward* migration.
    migration: Option<MigrationEvent>,
    migrations: Vec<MigrationEvent>,
    lines_out: Vec<LineOutcome>,
    csd_executed: usize,
    csd_total: usize,
    contention_applied: bool,
    /// Spans begun and not yet ended, outermost first.
    spans: Vec<SpanHandle>,
}

impl Run<'_> {
    fn now(&self) -> f64 {
        self.system.now().as_secs()
    }

    /// Opens a span at the current simulated time; `attrs` is only built
    /// for a live tracer.
    fn open(&mut self, name: &str, kind: SpanKind, attrs: impl FnOnce() -> Attrs) {
        let tracer = &self.opts.tracer;
        let handle = tracer.begin_with(name, kind, Some(self.now()), tracer.attrs(attrs));
        self.spans.push(handle);
    }

    /// Ends the innermost open span at the current simulated time.
    fn close(&mut self, attrs: impl FnOnce() -> Attrs) {
        if let Some(handle) = self.spans.pop() {
            let tracer = &self.opts.tracer;
            tracer.end_with(handle, Some(self.now()), tracer.attrs(attrs));
        }
    }

    /// An error is leaving the run with spans still open. A span is only
    /// delivered by its `end`, and an unended one also stays on the shared
    /// tracer's parent stack, mis-parenting whatever that tracer records
    /// next — so close them all, innermost first, marked as failed.
    fn close_spans_after_error(&mut self) {
        while !self.spans.is_empty() {
            self.close(|| vec![("error".into(), true.into())]);
        }
    }

    /// The one place a state transition is published: the migration list
    /// and `migration.decision` instant for the two migration kinds, then
    /// — when a journal is attached — the boundary's WAL record with the
    /// deterministic state snapshot taken here.
    fn boundary(&mut self, b: Boundary) -> Result<()> {
        if let Boundary::Migration(event, _) | Boundary::Reclaim(event, _) = &b {
            let tracer = &self.opts.tracer;
            tracer.instant(
                "migration.decision",
                SpanKind::Migration,
                Some(event.at_secs),
                tracer.attrs(|| {
                    vec![
                        ("reason".into(), event.reason.as_str().into()),
                        ("after_line".into(), event.after_line.into()),
                        ("state_bytes".into(), event.state_bytes.into()),
                        ("regen_secs".into(), event.regen_secs.into()),
                    ]
                }),
            );
            tracer.counter_add("exec.migrations", 1);
            self.migrations.push(*event);
            if event.reason != MigrationReason::Reclaim {
                self.migration = Some(*event);
            }
        }
        if !self.opts.journal.is_enabled() {
            return Ok(());
        }
        // Records are built on lane 0; the handle stamps its own lane.
        let lane = 0;
        let record = match b {
            Boundary::RunStart => WalRecord::RunStart {
                lane,
                program_len: self.program.len() as u32,
                // The evaluator discriminant from when it was switchable;
                // the byte stays in the format and is always 0 (the VM).
                backend: 0,
            },
            Boundary::HostLine(line) => WalRecord::HostLine {
                lane,
                line: line as u32,
                snap: self.snapshot(),
            },
            Boundary::Chunk { start, end, chunk } => WalRecord::Chunk {
                lane,
                region_start: start as u32,
                region_end: (end + 1) as u32,
                chunk: chunk as u32,
                snap: self.snapshot(),
            },
            Boundary::Migration(event, chunk) => WalRecord::Migration {
                lane,
                line: event.after_line as u32,
                chunk: chunk as u32,
                reason: reason_code(event.reason),
                state_bytes: event.state_bytes,
                snap: self.snapshot(),
            },
            Boundary::Reclaim(event, in_region) => WalRecord::Reclaim {
                lane,
                // An in-region reclaim journals the line it resumed after;
                // a line-boundary one the line it re-enters at, which is
                // never line 0 (a degradation needs an earlier region).
                line: (event.after_line + usize::from(!in_region)) as u32,
                in_region,
                snap: self.snapshot(),
            },
            Boundary::RunEnd {
                fingerprint,
                total_secs,
            } => WalRecord::RunEnd {
                lane,
                fingerprint,
                total_secs_bits: total_secs.to_bits(),
            },
        };
        self.opts.journal.on_record(record)
    }

    /// The deterministic boundary snapshot the journal records: sim clock,
    /// recovery accounting, injected-fault counters, the fault injector's
    /// stream position, and (inside regions) the monitor's degradation
    /// evidence. Everything here is simulated-clock state, so an
    /// uninterrupted run and its replay produce bit-identical snapshots.
    fn snapshot(&self) -> StateSnap {
        let counters = self.system.fault_counters();
        let (crashed, rng_state) = match self.system.faults() {
            Some(f) => (f.crashed(), f.rng_state()),
            None => (false, 0),
        };
        let stats = &self.recov.stats;
        StateSnap {
            clock_bits: self.now().to_bits(),
            transient_faults: stats.transient_faults,
            retries: stats.retries,
            recovered_ops: stats.recovered_ops,
            hard_faults: stats.hard_faults,
            fault_migrations: stats.fault_migrations,
            backoff_bits: stats.backoff_secs.to_bits(),
            flash_read_errors: counters.flash_read_errors,
            nvme_command_errors: counters.nvme_command_errors,
            dma_transfer_errors: counters.dma_transfer_errors,
            cse_crashes: counters.cse_crashes,
            crashed,
            rng_state,
            monitor: self.monitor.as_ref().map(Monitor::wal_snapshot),
        }
    }

    /// The whole run: distribute the binary, walk the program as host
    /// lines and CSD regions, return the result to the host, report.
    fn drive(&mut self) -> Result<RunReport> {
        let program = self.program;
        let csd_total = self.csd_total;
        self.open("phase.execute", SpanKind::Phase, || {
            vec![
                ("lines".into(), program.len().into()),
                ("csd_lines".into(), csd_total.into()),
            ]
        });
        self.boundary(Boundary::RunStart)?;

        // Distribute the CSD binary into device memory before execution
        // starts. A must-complete transfer: DMA faults only delay it.
        if self.csd_total > 0 {
            let binary = Bytes::new(binary_bytes_for(self.csd_total));
            self.recov.run_to_completion(self.system, |s| {
                s.try_transfer(Direction::HostToDevice, binary)
            });
        }

        // Absolute-time contention is installed into the availability traces up
        // front, so it throttles resources even in the middle of a line.
        if let Trigger::AtTime(at) = self.opts.scenario.trigger() {
            if !self.opts.scenario.is_none() {
                install_contention(self.system, self.opts, at);
                self.contention_applied = true;
            }
        }

        let mut i = 0usize;
        while i < program.len() {
            self.contend_on_progress(0.0);
            if self.try_reclaim(i)? {
                // Re-enter the loop at the same line: it is now CSD-resident
                // and executes through the region path.
                continue;
            }
            i = if self.placements[i] == EngineKind::Host {
                self.host_line(i)?;
                i + 1
            } else {
                self.region(i)?
            };
        }

        // The program's result must end up in host memory (must-complete).
        // In a fleet shard run, gathering results is the fleet's combine
        // phase, charged against the shared host link budget instead.
        let on_device = |v: &ValueSlot| v.location == Some(EngineKind::Cse);
        if self.values.last().is_some_and(on_device) {
            let bytes = self.line_cost(program.len() - 1).bytes_out;
            // A free line in a shard run drains nothing; the unsharded
            // path keeps issuing the (possibly empty) transfer so its
            // timing is byte-identical to the pre-fleet engine.
            if self.shard.is_none() || bytes > 0 {
                self.recov.run_to_completion(self.system, |s| {
                    s.try_transfer(Direction::DeviceToHost, Bytes::new(bytes))
                });
            }
        }
        self.finish()
    }

    /// Assembles the report and tells every observer the run is over.
    fn finish(&mut self) -> Result<RunReport> {
        // Plan-cache and audit families stay zero here; their owners fill
        // them in for cached and audited runs.
        let metrics = MetricsSnapshot {
            faults: self.system.fault_counters(),
            recovery: self.recov.stats,
            par: self.evaluation.par,
            ..MetricsSnapshot::default()
        };
        metrics.publish_to(&self.opts.tracer);
        let migrated = self.migration.is_some();
        self.close(|| vec![("migrated".into(), migrated.into())]);
        // Feed the run's measured per-line costs to the profile store. Shard
        // runs are skipped: their costs are slice-scaled and would bias the
        // unsharded profile the planner refits against.
        if self.opts.profile.is_enabled() && self.shard.is_none() {
            let mut costs = vec![LineCost::default(); self.program.len()];
            for l in &self.lines_out {
                if let Some(slot) = costs.get_mut(l.line) {
                    *slot = l.cost;
                }
            }
            self.opts.profile.record(&costs);
        }
        // The answer-integrity check compared between faulted and
        // fault-free runs, thread counts and fleet sizes.
        let fingerprint = self.evaluation.values_fingerprint;
        let total_secs = self.now();
        self.boundary(Boundary::RunEnd {
            fingerprint,
            total_secs,
        })?;
        Ok(RunReport {
            total_secs,
            lines: std::mem::take(&mut self.lines_out),
            migration: self.migration,
            csd_lines_executed: self.csd_executed,
            d2h_bytes: self.system.dma().d2h_bytes().as_u64(),
            h2d_bytes: self.system.dma().h2d_bytes().as_u64(),
            peak_device_bytes: self.peak_device,
            values_fingerprint: fingerprint,
            parallel: self.evaluation.parallel,
            metrics,
            migrations: std::mem::take(&mut self.migrations),
            eq1: Vec::new(),
        })
    }

    /// Progress-based contention triggers on ISP-task progress: the CSD
    /// lines already executed plus `region_lines_done` of the region in
    /// flight, over the planned CSD lines.
    fn contend_on_progress(&mut self, region_lines_done: f64) {
        if self.contention_applied {
            return;
        }
        let progress = if self.csd_total == 0 {
            0.0
        } else {
            (self.csd_executed as f64 + region_lines_done) / self.csd_total as f64
        };
        if self.opts.scenario.active_at_progress(progress) {
            let now = self.system.now();
            install_contention(self.system, self.opts, now);
            self.contention_applied = true;
        }
    }

    /// The charge for moving the value line `def` defined on behalf of
    /// `at_line`. A shard ships only its own rows of a partitioned value; a
    /// line outside the charge range ships nothing at all.
    fn input_bytes(&self, def: usize, at_line: usize) -> u64 {
        let full = self.evaluation.lines[def].bytes_out;
        match self.shard {
            Some(sh) => sh.scale_def(def, at_line, full),
            None => full,
        }
    }

    /// Line `i`'s measured cost (on the full data, whatever the placement)
    /// as this run is charged for it: every extensive field scaled by
    /// [`ShardSlice::scale_line`] in a shard run.
    fn line_cost(&self, i: usize) -> LineCost {
        let cost = self.evaluation.lines[i];
        match self.shard {
            Some(sh) => LineCost {
                compute_ops: sh.scale_line(i, cost.compute_ops),
                storage_bytes: sh.scale_line(i, cost.storage_bytes),
                bytes_in: sh.scale_line(i, cost.bytes_in),
                bytes_out: sh.scale_line(i, cost.bytes_out),
                copy_bytes: sh.scale_line(i, cost.copy_bytes),
                eliminable_copy_bytes: sh.scale_line(i, cost.eliminable_copy_bytes),
                calls: cost.calls,
            },
            None => cost,
        }
    }

    /// Moves any of `line`'s inputs that live on the other engine next to
    /// it, returning the bytes shipped (the shared-address-space placement
    /// policy: data lives near whoever reads it next).
    /// `move_allocation` distinguishes the two staging modes: a host line
    /// materializes its inputs in host DRAM (the allocation moves), while a
    /// chunk-pipelined CSD region *streams* its inputs — the transfer is
    /// charged but the device never holds more than chunk buffers, so the
    /// allocation stays put.
    fn stage_inputs(
        &mut self,
        line: &alang::ast::Line,
        engine: EngineKind,
        move_allocation: bool,
    ) -> Result<u64> {
        let mut staged = 0u64;
        for def in line.inputs().filter_map(|(_, def)| def) {
            let bytes = self.input_bytes(def, line.index);
            if bytes == 0 || self.values[def].location.is_none_or(|loc| loc == engine) {
                continue;
            }
            let dir = match engine {
                EngineKind::Cse => Direction::HostToDevice,
                EngineKind::Host => Direction::DeviceToHost,
            };
            // Staging must complete; DMA faults only delay it.
            self.recov
                .run_to_completion(self.system, |s| s.try_transfer(dir, Bytes::new(bytes)));
            staged += bytes;
            self.values[def].location = Some(engine);
            if move_allocation {
                self.move_to(def, engine)?;
            }
        }
        Ok(staged)
    }

    /// Charges `engine` for reading `bytes` of storage and computing `ops`
    /// (the fault-free path: host work, and device work after a reclaim).
    fn charge(&mut self, engine: EngineKind, bytes: u64, ops: u64) {
        if bytes > 0 {
            self.system.storage_read(engine, Bytes::new(bytes));
        }
        if ops > 0 {
            self.system.compute(engine, Ops::new(ops));
        }
    }

    /// Executes host line `i`.
    fn host_line(&mut self, i: usize) -> Result<()> {
        let line = &self.program.lines()[i];
        let start = self.now();
        self.open("exec.host_line", SpanKind::Device, || {
            vec![("line".into(), i.into())]
        });
        let staged = self.stage_inputs(line, EngineKind::Host, true)?;
        let cost = self.line_cost(i);
        let ops = cost.effective_ops(self.opts.tier, &self.opts.params);
        self.charge(EngineKind::Host, cost.storage_bytes, ops);
        self.bind(i, EngineKind::Host, cost.bytes_out)?;
        self.close(Vec::new);
        self.lines_out.push(LineOutcome {
            line: i,
            engine: EngineKind::Host,
            start_secs: start,
            end_secs: self.now(),
            cost,
            staged_bytes: staged,
        });
        self.release_dead(i)?;
        self.boundary(Boundary::HostLine(i))
    }

    /// Executes the contiguous CSD region starting at `start` as a
    /// chunk-pipelined stream (real CSD frameworks process per flash page /
    /// per chunk; the paper's Python lines sit inside chunked loops, with
    /// status updates "once every tens of machine instructions"), checking
    /// for a break at every chunk boundary (§III-D). Returns the next line
    /// to execute.
    fn region(&mut self, start: usize) -> Result<usize> {
        let mut end = start;
        while end + 1 < self.program.len() && self.placements[end + 1] == EngineKind::Cse {
            end += 1;
        }
        self.open("exec.region", SpanKind::Device, || {
            vec![
                ("start_line".into(), start.into()),
                ("end_line".into(), end.into()),
            ]
        });
        let mut r = match self.prepare(start, end) {
            Ok(r) => r,
            Err(ActivePyError::DeviceFault { .. }) if self.opts.recovery.fallback_to_host => {
                self.abort_region(start)?;
                return Ok(start);
            }
            Err(e) => return Err(e),
        };
        for c in 0..REGION_CHUNKS {
            let step = self.chunk(&mut r, c);
            let Some((reason, done_fraction)) = self.break_reason(&mut r, c, &step)? else {
                self.boundary(Boundary::Chunk {
                    start,
                    end,
                    chunk: c,
                })?;
                continue;
            };
            self.migrate(&mut r, c, reason, done_fraction)?;
            break;
        }
        self.monitor = None;
        self.close(Vec::new);
        // Synthesize sequential per-line intervals from the accumulated
        // durations (chunks interleave lines; total time is exact, the
        // per-line split is proportional).
        let mut cursor = r.t0;
        for (k, l) in r.lines.iter().enumerate() {
            let start_secs = cursor;
            cursor += l.duration;
            self.lines_out.push(LineOutcome {
                line: start + k,
                engine: EngineKind::Cse,
                start_secs,
                end_secs: cursor,
                cost: l.cost,
                staged_bytes: l.staged,
            });
        }
        self.csd_executed += r.len();
        self.release_dead(end)?;
        Ok(end + 1)
    }

    /// Stages inputs, invokes the CSD function through the queue pair,
    /// computes the region's values and measured costs, and arms the
    /// region's monitor.
    fn prepare(&mut self, start: usize, end: usize) -> Result<Region> {
        let program = self.program;
        // The invocation command can be hit by injected NVMe errors (or
        // observe the crash). Rolled — and hard-failed — *before* any
        // region state is evaluated or relocated, so an aborted prepare
        // needs no unwinding: the caller just re-places the lines.
        self.recov
            .run_bounded(self.system, |s| s.try_nvme_command())
            .map_err(escalate)?;
        let now = self.system.now();
        self.system
            .queue_mut()
            .submit(now, CommandKind::InvokeFunction { entry_line: start })
            .map_err(|e| ActivePyError::exec(format!("queue submit failed: {e}")))?;
        self.system
            .queue_mut()
            .fetch()
            .map_err(|e| ActivePyError::exec(format!("queue fetch failed: {e}")))?;
        self.system.charge_invocation();
        let mut lines = Vec::with_capacity(end - start + 1);
        let mut external_input_bytes = 0u64;
        for line in &program.lines()[start..=end] {
            // External inputs cross to device memory before the stream
            // starts; intra-region values are consumed chunk-by-chunk.
            external_input_bytes += line
                .inputs()
                .filter_map(|(_, def)| def)
                .filter(|&d| d < start && self.values[d].location == Some(EngineKind::Host))
                .map(|d| self.input_bytes(d, line.index))
                .sum::<u64>();
            let staged = self.stage_inputs(line, EngineKind::Cse, false)?;
            let cost = self.line_cost(line.index);
            // Only escaping values materialize in device DRAM; the chunk
            // pipeline consumes everything else in place.
            let escapes =
                program.last_read(line.index) > Some(end) || line.index == program.len() - 1;
            let escaping_out = if escapes { cost.bytes_out } else { 0 };
            self.bind(line.index, EngineKind::Cse, escaping_out)?;
            lines.push(RegionLine {
                cost,
                ops: cost.effective_ops(self.opts.tier, &self.opts.params),
                staged,
                escaping_out,
                duration: 0.0,
                done_storage: 0,
                done_ops: 0,
            });
        }
        let est = estimate_sums(self.estimates.unwrap_or(&[]), |line| {
            line >= start && line <= end
        });
        // The expected instruction throughput is "the total amount of
        // estimated instructions divided by estimated execution time on
        // CSD" (§III-D) — an end-to-end progress rate that includes data
        // stalls, so starvation of the data path registers as degraded IPC.
        let cse = self.system.engine(EngineKind::Cse);
        let expected_rate = if est.device_secs > 0.0 && est.ops > 0 {
            est.ops as f64 / est.device_secs
        } else {
            cse.nominal_rate().as_ops_per_sec()
        };
        self.monitor = self
            .opts
            .monitor
            .map(|cfg| Monitor::new(cfg, expected_rate));
        Ok(Region {
            start,
            end,
            lines,
            external_input_bytes,
            est,
            t0: self.now(),
            break_submitted: false,
        })
    }

    /// The region's invocation itself hard-faulted, before any region
    /// state was computed or moved: fall back by re-placing the remaining
    /// CSD lines on the host, to be re-entered at the same line. No live
    /// state to drain (the checkpoint is the previous line boundary), only
    /// host code to regenerate.
    fn abort_region(&mut self, start: usize) -> Result<()> {
        let later = csd_lines(&self.placements[start..]);
        let event = MigrationEvent {
            after_line: start.saturating_sub(1),
            state_bytes: 0,
            at_secs: self.now(),
            regen_secs: compile_secs_for(later),
            reason: MigrationReason::DeviceFault,
        };
        self.system.advance(Duration::from_secs(event.regen_secs));
        self.recov.stats.fault_migrations += 1;
        self.boundary(Boundary::Migration(event, 0))?;
        self.close(|| vec![("aborted".into(), true.into())]);
        self.fall_back_to_host(start);
        Ok(())
    }

    /// Re-places every CSD line from `from_line` on onto the host.
    fn fall_back_to_host(&mut self, from_line: usize) {
        for p in self.placements.iter_mut().skip(from_line) {
            if *p == EngineKind::Cse {
                *p = EngineKind::Host;
            }
        }
    }

    /// Streams chunk `c` of every region line through the simulator.
    fn chunk(&mut self, r: &mut Region, c: u64) -> ChunkStep {
        // Progress-triggered contention can fire mid-region.
        self.contend_on_progress((c as f64 / REGION_CHUNKS as f64) * r.len() as f64);
        let chunk_t0 = self.now();
        self.open("exec.chunk", SpanKind::Device, || {
            vec![("chunk".into(), c.into())]
        });
        let mut chunk_ops = 0u64;
        let mut fault: Option<DeviceFault> = None;
        for l in &mut r.lines {
            let t0 = self.now();
            let streamed = self.stream_line(l, c);
            l.duration += self.now() - t0;
            match streamed {
                Ok(ops) => chunk_ops += ops,
                Err(f) => {
                    fault = Some(f);
                    break;
                }
            }
        }
        let wall = self.now() - chunk_t0;
        self.close(Vec::new);
        if self.opts.tracer.is_enabled() {
            // Simulated chunk latency, in whole nanoseconds so the
            // histogram stays integral and deterministic.
            self.opts
                .tracer
                .observe("exec.chunk_sim_ns", (wall * 1e9) as u64);
        }
        ChunkStep {
            ops: chunk_ops,
            wall,
            fault,
        }
    }

    /// Streams chunk `c` of region line `l` — flash read, CSE compute,
    /// status update — through the bounded-retry layer, returning the
    /// operations computed. A hard fault stops the line where it struck;
    /// what completed before it stays counted in the region's progress.
    fn stream_line(&mut self, l: &mut RegionLine, c: u64) -> std::result::Result<u64, DeviceFault> {
        let bytes = chunk_slice(l.cost.storage_bytes, c);
        if bytes > 0 {
            self.recov.run_bounded(self.system, |s| {
                s.try_storage_read(EngineKind::Cse, Bytes::new(bytes))
            })?;
            l.done_storage += bytes;
        }
        let ops = chunk_slice(l.ops, c);
        if ops > 0 {
            self.recov.run_bounded(self.system, |s| {
                s.try_compute(EngineKind::Cse, Ops::new(ops))
            })?;
            l.done_ops += ops;
        }
        self.system.charge_status_update();
        Ok(ops)
    }

    /// The check at a chunk boundary (or mid-chunk hard fault): a hard
    /// device fault breaks unconditionally; otherwise the status-update
    /// code first checks the command pages for a high-priority request
    /// (§III-D case 1), then the host-side monitor checks throughput
    /// (case 2). Returns why to break and how much of the stream is done,
    /// or `None` to keep streaming.
    fn break_reason(
        &mut self,
        r: &mut Region,
        c: u64,
        step: &ChunkStep,
    ) -> Result<Option<(MigrationReason, f64)>> {
        if let Some(f) = step.fault {
            if !self.opts.recovery.fallback_to_host {
                return Err(escalate(f));
            }
            self.recov.stats.fault_migrations += 1;
            // The checkpoint is the last *completed* chunk boundary;
            // the failed chunk's partial work is replayed on the host
            // via the exact done_storage/done_ops remainders.
            let done = c as f64 / REGION_CHUNKS as f64;
            return Ok(Some((MigrationReason::DeviceFault, done)));
        }
        let done_fraction = (c + 1) as f64 / REGION_CHUNKS as f64;
        if done_fraction >= 1.0 {
            return Ok(None);
        }
        if let Some(t) = self.opts.preempt_at {
            if !r.break_submitted && self.now() >= t {
                let now = self.system.now();
                // Host posts the Break; losing the slot on a full ring
                // only delays preemption to the next boundary.
                let _ = self.system.queue_mut().submit(now, CommandKind::Break);
                r.break_submitted = true;
            }
        }
        let reason = if self.system.queue().has_pending_break() {
            while self.system.queue_mut().fetch().is_ok() {}
            Some(MigrationReason::Preempted)
        } else if self.observe_window(step) && self.migration_pays(r, done_fraction) {
            Some(MigrationReason::Degraded)
        } else {
            None
        };
        Ok(reason.map(|reason| (reason, done_fraction)))
    }

    /// Feeds the chunk to the region's monitor (when the run has one and
    /// the estimates to judge by) and journals the window; returns whether
    /// the monitor now reads the device as degraded.
    fn observe_window(&mut self, step: &ChunkStep) -> bool {
        let (Some(mon), Some(_)) = (self.monitor.as_mut(), self.estimates) else {
            return false;
        };
        let obs = mon.observe_window(step.ops as f64, step.wall);
        let tracer = &self.opts.tracer;
        tracer.instant(
            "monitor.window",
            SpanKind::Monitor,
            Some(self.system.now().as_secs()),
            tracer.attrs(|| {
                let (label, ratio) = match obs {
                    Observation::Warmup => ("warmup", None),
                    Observation::Healthy => ("healthy", None),
                    Observation::Degraded { ratio } => ("degraded", Some(ratio)),
                };
                let mut attrs: Attrs = vec![
                    ("observation".into(), label.into()),
                    ("ops".into(), step.ops.into()),
                    ("window_secs".into(), step.wall.into()),
                ];
                if let Some(r) = ratio {
                    attrs.push(("ratio".into(), r.into()));
                }
                attrs
            }),
        );
        matches!(obs, Observation::Degraded { .. })
    }

    /// The §III-D re-estimate: finishing the region (and the CSD lines
    /// after it) on the degraded device against moving the live state,
    /// regenerating host code and finishing on the host.
    fn migration_pays(&self, r: &Region, done_fraction: f64) -> bool {
        let (Some(mon), Some(est)) = (self.monitor.as_ref(), self.estimates) else {
            return false;
        };
        let later = estimate_sums(est, |line| {
            line > r.end && self.placements[line] == EngineKind::Cse
        });
        let remaining_device = (1.0 - done_fraction) * r.est.device_secs + later.device_secs;
        let reestimated = mon.reestimate_remaining(remaining_device);
        let bw = self.system.d2h_bandwidth().as_bytes_per_sec();
        let regen = compile_secs_for(r.len() + later.lines);
        let remaining_host = (1.0 - done_fraction) * r.est.host_secs + later.host_secs;
        let migrate_cost = r.state_bytes(done_fraction) as f64 / bw + regen + remaining_host;
        reestimated > migrate_cost
    }

    /// Breaks at chunk `c`: moves the live state, regenerates host code,
    /// and finishes the remaining stream on the host.
    fn migrate(
        &mut self,
        r: &mut Region,
        c: u64,
        reason: MigrationReason,
        done_fraction: f64,
    ) -> Result<()> {
        // Any migration consumes the monitor's accumulated evidence:
        // after a preemption or device-fault fallback the task is no
        // longer on the CSD either, so a stale decreasing-IPC streak
        // must not instantly re-trigger (or poison a later reclaim
        // decision) once work returns to the device.
        if let Some(mon) = self.monitor.as_mut() {
            mon.acknowledge_migration();
        }
        let len = r.len();
        let later_count = csd_lines(&self.placements[r.end + 1..]);
        let event = MigrationEvent {
            after_line: r.start + ((done_fraction * len as f64).floor() as usize).min(len - 1),
            state_bytes: r.state_bytes(done_fraction),
            at_secs: self.now(),
            regen_secs: compile_secs_for(len + later_count),
            reason,
        };
        // The state drain is controller-side DMA, which survives a CSE
        // crash — a must-complete transfer.
        self.recov.run_to_completion(self.system, |s| {
            s.try_transfer(Direction::DeviceToHost, Bytes::new(event.state_bytes))
        });
        self.system.advance(Duration::from_secs(event.regen_secs));
        let reclaim = self.complete_on_host(r, &event)?;
        // A reclaimed stream leaves the rest of the plan in place; the
        // device is healthy again.
        if reclaim.is_none() {
            self.fall_back_to_host(r.end + 1);
        }
        self.boundary(Boundary::Migration(event, c))?;
        if let Some(reclaim) = reclaim {
            self.boundary(Boundary::Reclaim(reclaim, true))?;
        }
        Ok(())
    }

    /// Works the unfinished remainder of a broken region off on the host.
    /// Returns the reclaim that took the remainder back to the CSD, if
    /// availability recovered while the host was at it.
    fn complete_on_host(
        &mut self,
        r: &mut Region,
        migration: &MigrationEvent,
    ) -> Result<Option<MigrationEvent>> {
        let mut reclaim: Option<MigrationEvent> = None;
        for k in 0..r.len() {
            let t0 = self.now();
            let l = &r.lines[k];
            let rem_b = l.cost.storage_bytes.saturating_sub(l.done_storage);
            let rem_o = l.ops.saturating_sub(l.done_ops);
            if self.opts.scenario.recover_at().is_some() && (rem_b > 0 || rem_o > 0) {
                // Availability can recover while the host works off the
                // remainder: under a phase-shifting scenario the remainder
                // is worked off in chunk slices and the Degraded migration
                // is reconsidered at every boundary — the in-region mirror
                // of [`Run::try_reclaim`]. Slicing partitions the exact
                // remaining bytes/ops, so a trace that never recovers
                // would time out identically.
                for c in 0..REGION_CHUNKS {
                    if reclaim.is_none() {
                        reclaim = self.reclaim_remaining(r, k, migration);
                        if let Some(event) = &reclaim {
                            // The live state returns to device memory and
                            // the remaining stream resumes on regenerated
                            // device code.
                            self.recov.run_to_completion(self.system, |s| {
                                let state = Bytes::new(event.state_bytes);
                                s.try_transfer(Direction::HostToDevice, state)
                            });
                            self.system.advance(Duration::from_secs(event.regen_secs));
                        }
                    }
                    let engine = reclaim.map_or(EngineKind::Host, |_| EngineKind::Cse);
                    let (bytes, ops) = (chunk_slice(rem_b, c), chunk_slice(rem_o, c));
                    self.charge(engine, bytes, ops);
                    r.lines[k].done_storage += bytes;
                    r.lines[k].done_ops += ops;
                }
            } else {
                self.charge(EngineKind::Host, rem_b, rem_o);
            }
            r.lines[k].duration += self.now() - t0;
            // The merged region outputs live wherever the stream finished.
            let engine = reclaim.map_or(EngineKind::Host, |_| EngineKind::Cse);
            self.values[r.start + k].location = Some(engine);
            self.move_to(r.start + k, engine)?;
        }
        Ok(reclaim)
    }

    /// The one reclaim rule, behind both reclaim paths. Work a degradation
    /// pushed host-ward at `since` returns to the CSD when the move is old
    /// enough, the device has looked healthy for long enough, and
    /// finishing there pays: hysteresis is `decreasing_streak` monitor
    /// windows (one window = `device_secs` chunk-pipelined in
    /// [`REGION_CHUNKS`] status updates), the CSE's effective availability
    /// is probed at that many window-spaced instants — the mirror image of
    /// the evidence the monitor needed to leave — and `device_secs` at the
    /// currently observed availability, plus moving `move_bytes` and
    /// regenerating `regen_lines` of device code, must beat `host_secs`.
    /// Every input is simulated-clock state, so the decision cannot affect
    /// computed values, only charged costs. Returns the regeneration time
    /// to charge when the reclaim pays.
    fn reclaim_pays(
        &self,
        since: f64,
        device_secs: f64,
        host_secs: f64,
        move_bytes: u64,
        regen_lines: usize,
    ) -> Option<f64> {
        let cfg = self.opts.monitor?;
        let window = device_secs / REGION_CHUNKS as f64;
        if window <= 0.0 {
            return None;
        }
        let now = self.now();
        if now - f64::from(cfg.decreasing_streak) * window <= since {
            return None;
        }
        let cse = self.system.engine(EngineKind::Cse);
        for j in 0..cfg.decreasing_streak {
            let probe = SimTime::from_secs(now - f64::from(j) * window);
            if cse.effective_fraction_at(probe) < cfg.degradation_threshold {
                return None;
            }
        }
        let fraction = cse.effective_fraction_at(self.system.now());
        let bw = self.system.d2h_bandwidth().as_bytes_per_sec();
        let regen_secs = compile_secs_for(regen_lines);
        if device_secs / fraction + move_bytes as f64 / bw + regen_secs >= host_secs {
            return None;
        }
        Some(regen_secs)
    }

    /// In-region reclaim: after a mid-region break moved the stream
    /// host-ward, decides at host line boundary `k` whether the remaining
    /// (unfinished) slice of the region should return to the CSD. The
    /// estimates are scaled by each line's undone fraction, and the live
    /// state the migration drained is what would move back.
    fn reclaim_remaining(
        &self,
        r: &Region,
        k: usize,
        migration: &MigrationEvent,
    ) -> Option<MigrationEvent> {
        // Preempted tasks must stay off the device and fault fallbacks
        // carry no evidence the device works; only degradations reverse.
        if migration.reason != MigrationReason::Degraded {
            return None;
        }
        let est = self.estimates?;
        let mut device_secs = 0.0;
        let mut host_secs = 0.0;
        for (l, e) in r.lines.iter().zip(&est[r.start..]).skip(k) {
            let undone = if l.ops == 0 {
                0.0
            } else {
                1.0 - l.done_ops as f64 / l.ops as f64
            };
            device_secs += e.ct_device * undone;
            host_secs += e.ct_host * undone;
        }
        let regen_secs = self.reclaim_pays(
            migration.at_secs,
            device_secs,
            host_secs,
            migration.state_bytes,
            r.len() - k,
        )?;
        Some(MigrationEvent {
            after_line: (r.start + k).saturating_sub(1),
            state_bytes: migration.state_bytes,
            at_secs: self.now(),
            regen_secs,
            reason: MigrationReason::Reclaim,
        })
    }

    /// Bidirectional migration (§III-D in reverse) at the line boundary
    /// `i`: when measured CSE availability has cleared after a degradation
    /// migration, the remaining originally-offloaded, host-resident lines
    /// are speculatively re-assigned to the CSD. Guarded against
    /// ping-ponging: only lines a *degradation* pushed host-ward are
    /// considered (a reclaim arms only after a fresh degradation), under
    /// the [`Run::reclaim_pays`] rule. Returns whether the flip happened.
    fn try_reclaim(&mut self, i: usize) -> Result<bool> {
        let (Some(est), Some(last)) = (self.estimates, self.migrations.last().copied()) else {
            return Ok(false);
        };
        // Preempted tasks must stay off the device and fault fallbacks carry
        // no evidence the device works; only degradations are reversible.
        if last.reason != MigrationReason::Degraded {
            return Ok(false);
        }
        let (original, placements) = (self.original, &self.placements);
        let is_candidate =
            |line: usize| original[line] == EngineKind::Cse && placements[line] == EngineKind::Host;
        if !is_candidate(i) {
            return Ok(false);
        }
        let sums = estimate_sums(est, |line| line >= i && is_candidate(line));
        // Re-staging line `i`'s inputs is part of the price; the staging
        // itself is charged by the region's normal prepare path once the
        // reclaimed region runs, so only code regeneration is charged here.
        let staging_bytes = est[i].d_in;
        let candidates: Vec<usize> = (i..self.program.len())
            .filter(|&k| is_candidate(k))
            .collect();
        let Some(regen_secs) = self.reclaim_pays(
            last.at_secs,
            sums.device_secs,
            sums.host_secs,
            staging_bytes,
            candidates.len(),
        ) else {
            return Ok(false);
        };
        for &k in &candidates {
            self.placements[k] = EngineKind::Cse;
        }
        let event = MigrationEvent {
            after_line: i.saturating_sub(1),
            state_bytes: 0,
            at_secs: self.now(),
            regen_secs,
            reason: MigrationReason::Reclaim,
        };
        self.system.advance(Duration::from_secs(regen_secs));
        self.boundary(Boundary::Reclaim(event, false))?;
        Ok(true)
    }

    /// Places the value line `def` just produced in `engine`'s memory,
    /// materialized as an allocation of `bytes` there (none for 0 bytes).
    fn bind(&mut self, def: usize, engine: EngineKind, bytes: u64) -> Result<()> {
        self.values[def].location = Some(engine);
        if bytes == 0 {
            return Ok(());
        }
        let id = self
            .system
            .memory_mut()
            .alloc_near(engine, Bytes::new(bytes))
            .map_err(|e| {
                ActivePyError::exec(format!("allocating {bytes} B for line {def}'s value: {e}"))
            })?;
        self.values[def].allocation = Some(id);
        self.update_peak();
        Ok(())
    }

    /// Moves the allocation of line `def`'s value next to `engine`, if it
    /// is materialized.
    fn move_to(&mut self, def: usize, engine: EngineKind) -> Result<()> {
        if let Some(id) = self.values[def].allocation {
            self.system
                .memory_mut()
                .migrate(id, csd_sim::memory::Region::local_to(engine))
                .map_err(|e| ActivePyError::exec(format!("migrating line {def}'s value: {e}")))?;
            self.update_peak();
        }
        Ok(())
    }

    /// Frees every materialized value no line after `at` reads, the
    /// program result (the last line's value) excepted.
    fn release_dead(&mut self, at: usize) -> Result<()> {
        let result = self.program.len() - 1;
        for def in 0..=at {
            if def == result || self.program.last_read(def) > Some(at) {
                continue;
            }
            if let Some(id) = self.values[def].allocation {
                self.system
                    .memory_mut()
                    .dealloc(id)
                    .map_err(|e| ActivePyError::exec(format!("freeing line {def}'s value: {e}")))?;
                self.values[def].allocation = None;
            }
        }
        Ok(())
    }

    fn update_peak(&mut self) {
        let used = self
            .system
            .memory()
            .used(csd_sim::memory::Region::DeviceDram)
            .as_u64();
        self.peak_device = self.peak_device.max(used);
    }
}

/// Installs the scenario's degradation on the CSE (and, for competing ISP
/// tenants, the internal flash data path) from time `at` onward. A
/// scenario with a recovery time later than `at` also installs the
/// recovery edge, so phase-shifting traces (drop, then recover) degrade
/// and restore every affected resource consistently.
fn install_contention(system: &mut System, opts: &ExecOptions, at: SimTime) {
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

/// Convenience: runs the whole program on the host (the no-CSD baseline).
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
    let placements = vec![EngineKind::Host; program.len()];
    let opts = ExecOptions {
        tier,
        params: *params,
        monitor: None,
        ..ExecOptions::activepy()
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
    fn a_preempted_region_drains_what_it_read_whatever_the_result_is_called() {
        // Lines 1-2 on the CSD, preempted 40 % into the region: the break
        // drains the 4 GB `a` the region staged plus what it has produced
        // of `b`. Spelling the last target `a` changes no value any line
        // reads, so it may change nothing the simulator charges.
        let run = |last: &str| {
            let program = parse(&SRC.replace("s =", &format!("{last} ="))).expect("parse");
            let st = storage();
            let pl = placements(&[1, 2], 4);
            let opts = ExecOptions::activepy();
            let mut ref_sys = SystemConfig::paper_default().build();
            let reference =
                execute(&program, &st, &pl, &mut ref_sys, &opts, None, &[]).expect("reference");
            let (t0, t1) = (reference.lines[1].start_secs, reference.lines[2].end_secs);
            let preempted = opts.with_preemption_at(t0 + 0.4 * (t1 - t0));
            let mut sys = SystemConfig::paper_default().build();
            let rep = execute(&program, &st, &pl, &mut sys, &preempted, None, &[]).expect("run");
            let mig = rep.migration.expect("the Break command forces a migration");
            assert_eq!(mig.reason, MigrationReason::Preempted);
            (mig.state_bytes, rep.total_secs)
        };
        let (state_bytes, total_secs) = run("s");
        assert_eq!(state_bytes, 4_813_293_458);
        assert_eq!(
            run("a"),
            (state_bytes, total_secs),
            "when the staged `a` was looked up by name, the later `a = sum(b)` made it \
             region-internal: 813 293 458 B drained, 2.6387 s instead of 3.6387 s"
        );
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

    #[test]
    fn fingerprint_follows_names_and_bits_not_placement() {
        let run = |src: &str, st: &Storage, csd: &[usize]| {
            let opts = ExecOptions::activepy();
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
        let reference = run(SRC, &st, &[]);
        assert_eq!(reference, run(SRC, &st, &[0, 1, 2]));
        // Renaming an intermediate leaves every value alone and still counts.
        let renamed = SRC.replace("b =", "c =").replace("sum(b)", "sum(c)");
        assert_ne!(reference, run(&renamed, &st, &[]));
        // -0.0 < 50 like the 0.0 it replaces, so `m` and `s` stay equal:
        // only the bit pattern of one element of `a` and `b` differs.
        let mut data: Vec<f64> = (0..4096).map(|i| (i % 100) as f64).collect();
        data[0] = -0.0;
        let mut signed = Storage::new();
        signed.insert("v", Value::Array(ArrayVal::with_logical(data, 500_000_000)));
        assert_ne!(reference, run(SRC, &signed, &[]));
    }

    #[test]
    fn a_kept_lowering_runs_like_execute() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1], 4);
        let flags = [false, true, true, true];
        let lowered = alang::lower::lower_with(&program, &flags).expect("lower");
        let opts = ExecOptions::native_static();
        let mut sys_a = SystemConfig::paper_default().build();
        let evaluation = evaluate(&program, &lowered, &st, &opts).expect("evaluate");
        let via_lowered =
            simulate(&program, &evaluation, &pl, &mut sys_a, &opts, None, None).expect("run");
        let mut sys_b = SystemConfig::paper_default().build();
        let direct = execute(&program, &st, &pl, &mut sys_b, &opts, None, &flags).expect("run");
        assert_eq!(via_lowered, direct);
    }

    #[test]
    fn one_evaluation_serves_every_schedule() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let lowered = alang::lower::lower(&program).expect("lower");
        let faults = FaultPlan::none()
            .with_seed(11)
            .with_flash_read_error_prob(0.05)
            .with_nvme_error_prob(0.05)
            .with_dma_error_prob(0.05);
        let schedules = [
            (placements(&[0, 1], 4), ExecOptions::native_static()),
            (placements(&[0, 1, 2, 3], 4), ExecOptions::activepy()),
            (
                placements(&[0, 1, 2, 3], 4),
                ExecOptions::activepy().with_faults(faults),
            ),
        ];
        let evaluation =
            evaluate(&program, &lowered, &st, &ExecOptions::activepy()).expect("evaluate");
        for (pl, opts) in &schedules {
            let mut fresh_sys = SystemConfig::paper_default().build();
            let own = evaluate(&program, &lowered, &st, opts).expect("evaluate");
            let fresh =
                simulate(&program, &own, pl, &mut fresh_sys, opts, None, None).expect("fresh run");
            let mut sys = SystemConfig::paper_default().build();
            let shared =
                simulate(&program, &evaluation, pl, &mut sys, opts, None, None).expect("simulate");
            assert_eq!(shared, fresh, "placements {pl:?}");
            assert_eq!(
                shared.metrics.recovery.transient_faults > 0,
                !opts.faults.is_none(),
                "faults fire exactly where they were planned"
            );
        }
    }

    #[test]
    fn an_evaluation_of_another_program_is_rejected() {
        let program = parse(SRC).expect("parse");
        let short = parse("a = 1\n").expect("parse");
        let lowered = alang::lower::lower(&short).expect("lower");
        let opts = ExecOptions::native_static();
        let evaluation = evaluate(&short, &lowered, &storage(), &opts).expect("evaluate");
        let mut sys = SystemConfig::paper_default().build();
        let e = simulate(
            &program,
            &evaluation,
            &placements(&[], 4),
            &mut sys,
            &opts,
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(e, ActivePyError::Exec { .. }), "got {e}");
    }

    #[test]
    fn a_reassigned_name_is_sized_as_of_the_line_being_simulated() {
        // `a` is a 4 GB array, then its ~2 GB selection, then a scalar; each
        // crossing must move what `a` held at that point. Staged bytes per
        // line, D2H, H2D and peak device bytes are the values the executor
        // produced when it read sizes off the live evaluator mid-run.
        let src = "a = scan('v')\nm = a < 50\na = select(a, m)\ns = sum(a)\na = s + 1\nr = a * 2\n";
        let program = parse(src).expect("parse");
        let st = storage();
        /// CSD lines; per-line staged bytes; D2H, H2D and peak device bytes.
        struct Recorded(&'static [usize], [u64; 6], [u64; 3]);
        let recorded = [
            Recorded(
                &[0, 1, 3, 5],
                [0, 0, 4_500_000_000, 2_001_953_128, 8, 8],
                [4_500_000_016, 2_001_977_712, 4_500_000_000],
            ),
            Recorded(
                &[2, 4],
                [0, 0, 4_500_000_000, 2_001_953_128, 8, 8],
                [2_001_953_136, 4_500_020_488, 2_001_953_128],
            ),
            Recorded(&[0, 1, 2, 3, 4, 5], [0; 6], [8, 28_672, 8]),
        ];
        for Recorded(csd, staged, moved) in recorded {
            let mut sys = SystemConfig::paper_default().build();
            let rep = execute(
                &program,
                &st,
                &placements(csd, 6),
                &mut sys,
                &ExecOptions::native_static(),
                None,
                &[],
            )
            .expect("run");
            let got: Vec<u64> = rep.lines.iter().map(|l| l.staged_bytes).collect();
            assert_eq!(got, staged, "staged bytes, CSD lines {csd:?}");
            assert_eq!(
                [rep.d2h_bytes, rep.h2d_bytes, rep.peak_device_bytes],
                moved,
                "CSD lines {csd:?}"
            );
        }
    }

    #[test]
    fn a_failing_line_errors_before_anything_is_simulated_or_traced() {
        let program = parse("a = scan('v')\nb = a + zzz\nc = sum(b)\n").expect("parse");
        let st = storage();
        let pl = placements(&[0], 3);
        let (tracer, sink) = Tracer::to_memory();
        let opts = ExecOptions::activepy().with_tracer(tracer);
        let mut sys = SystemConfig::paper_default().build();
        let e = execute(&program, &st, &pl, &mut sys, &opts, None, &[]).unwrap_err();
        assert_eq!(
            e,
            ActivePyError::Lang(alang::LangError::UnknownVariable {
                line: 2,
                name: "zzz".into()
            })
        );
        assert_eq!(sys.now(), SimTime::ZERO, "no simulated time was charged");
        assert!(sink.is_empty(), "nothing was opened: {:?}", sink.events());
        // The next run recorded through the same tracer starts at the root.
        let healthy = parse(SRC).expect("parse");
        let mut sys = SystemConfig::paper_default().build();
        execute(
            &healthy,
            &st,
            &placements(&[0, 1], 4),
            &mut sys,
            &opts,
            None,
            &[],
        )
        .expect("healthy run");
        let phase = sink
            .events()
            .into_iter()
            .find_map(|e| match e {
                isp_obs::TraceEvent::Span(s) if s.name == "phase.execute" => Some(s),
                _ => None,
            })
            .expect("phase.execute");
        assert_eq!(phase.parent, 0, "stale parent stack: {phase:?}");
    }

    #[test]
    fn lowered_line_count_mismatch_rejected() {
        let program = parse(SRC).expect("parse");
        let short = parse("a = 1\n").expect("parse");
        let lowered = alang::lower::lower(&short).expect("lower");
        let e = evaluate(
            &program,
            &lowered,
            &storage(),
            &ExecOptions::native_static(),
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
        assert_eq!(mig.reason, MigrationReason::DeviceFault);
        assert!(faulted.metrics.recovery.hard_faults >= 1);
        assert!(faulted.metrics.recovery.fault_migrations >= 1);
        assert_eq!(faulted.values_fingerprint, clean.values_fingerprint);
        assert!(faulted.total_secs > clean.total_secs);
    }

    /// The CSE is dead from time zero and the run may not fall back.
    fn crash_without_fallback() -> ExecOptions {
        ExecOptions::activepy()
            .with_recovery(RecoveryPolicy::default().without_fallback())
            .with_faults(
                FaultPlan::none()
                    .with_seed(3)
                    .with_crash_at(csd_sim::units::SimTime::ZERO),
            )
    }

    #[test]
    fn disabling_fallback_turns_a_crash_into_a_device_fault_error() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1, 2, 3], 4);
        let opts = crash_without_fallback();
        let mut sys = SystemConfig::paper_default().build();
        let e = execute(&program, &st, &pl, &mut sys, &opts, None, &[]).unwrap_err();
        assert!(matches!(e, ActivePyError::DeviceFault { .. }), "got {e}");
    }

    #[test]
    fn an_error_closes_its_spans_and_leaves_the_tracer_clean() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1, 2, 3], 4);
        let (tracer, sink) = Tracer::to_memory();
        let crashing = crash_without_fallback().with_tracer(tracer.clone());
        let mut sys = SystemConfig::paper_default().build();
        let e = execute(&program, &st, &pl, &mut sys, &crashing, None, &[]).unwrap_err();
        assert!(matches!(e, ActivePyError::DeviceFault { .. }), "got {e}");
        let spans = |name: &str| -> Vec<isp_obs::Span> {
            sink.events()
                .into_iter()
                .filter_map(|e| match e {
                    isp_obs::TraceEvent::Span(s) if s.name == name => Some(s),
                    _ => None,
                })
                .collect()
        };
        // Both spans the error crossed reached the sink, innermost first,
        // marked as failed.
        let failed = ("error".to_string(), isp_obs::AttrValue::Bool(true));
        let phase = spans("phase.execute").pop().expect("phase.execute closed");
        let region = spans("exec.region").pop().expect("exec.region closed");
        assert!(phase.attrs.contains(&failed), "{:?}", phase.attrs);
        assert!(region.attrs.contains(&failed), "{:?}", region.attrs);
        assert_eq!(region.parent, phase.id);
        assert!(region.seq < phase.seq);
        // The next run recorded through the same tracer starts at the root
        // instead of under a span id that never reached the journal.
        let healthy = ExecOptions::activepy().with_tracer(tracer);
        let mut sys = SystemConfig::paper_default().build();
        execute(&program, &st, &pl, &mut sys, &healthy, None, &[]).expect("healthy run");
        let next = spans("phase.execute").pop().expect("second phase.execute");
        assert_ne!(next.id, phase.id);
        assert_eq!(next.parent, 0, "stale parent stack: {next:?}");
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
        let bad_preempt = ExecOptions::activepy().with_preemption_at(f64::NAN);
        let mut bad_params = ExecOptions::activepy();
        bad_params.params.scan_ops_per_byte = -0.5;
        for opts in [
            bad_recovery,
            bad_faults,
            bad_parallel,
            bad_preempt,
            bad_params,
        ] {
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
        let policy = ParallelPolicy::new(8, 64).expect("valid policy");
        let mut par_sys = SystemConfig::paper_default().build();
        let par = execute(
            &program,
            &st,
            &pl,
            &mut par_sys,
            &ExecOptions::activepy().with_parallelism(policy),
            None,
            &[],
        )
        .expect("parallel");
        assert_eq!(par.lines, serial.lines);
        assert_eq!(par.values_fingerprint, serial.values_fingerprint);
        assert_eq!(par.total_secs, serial.total_secs);
        assert_eq!(par.parallel, policy, "the report records its policy");
        assert!(
            par.metrics.par.par_calls > 0,
            "a 64-element threshold engages chunking: {:?}",
            par.metrics.par
        );
        assert_eq!(serial.parallel, ParallelPolicy::default());
        assert_eq!(serial.metrics.par.par_calls, 0);
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
        for reason in [
            MigrationReason::Degraded,
            MigrationReason::Preempted,
            MigrationReason::DeviceFault,
            MigrationReason::Reclaim,
        ] {
            let cfg = MonitorConfig::default();
            let mk = || Monitor::new(cfg, 1000.0);
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
    fn run_phase_shift() -> RunReport {
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
            &ExecOptions::activepy(),
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
        let opts = ExecOptions::activepy().with_scenario(scenario);
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
        let rep = run_phase_shift();
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
    fn reclaim_schedule_is_value_invariant() {
        // Placement flips — in either direction — may never change computed
        // values: the fingerprint matches an undisturbed static run.
        let reclaimed = run_phase_shift();
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
        assert_eq!(reclaimed.values_fingerprint, static_run.values_fingerprint);
    }

    /// Phase-shifting harness for the *in-region* reclaim path: every line
    /// is placed on the CSD, so the whole program is one merged region and
    /// the Degraded break is handled inside the region executor. Estimates
    /// make the remainder strongly device-favorable, so once availability
    /// recovers mid-completion the host-side remainder migrates back.
    /// `observed` carries the observer handles (tracer, journal) of the
    /// phase-shifted run; the calibrating reference run goes unobserved.
    fn run_in_region_phase_shift(observed: ExecOptions) -> RunReport {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let place = placements(&[0, 1, 2, 3], 4);
        let mut ref_sys = SystemConfig::paper_default().build();
        let reference = execute(
            &program,
            &st,
            &place,
            &mut ref_sys,
            &ExecOptions::activepy(),
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
        let opts = observed.with_scenario(scenario);
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
        let (tracer, sink) = Tracer::to_memory();
        let wal = std::env::temp_dir().join(format!(
            "activepy_in_region_reclaim_{}.wal",
            std::process::id()
        ));
        let journal = crate::resume::ExecJournal::record_to(&wal).expect("create journal");
        let rep = run_in_region_phase_shift(
            ExecOptions::activepy()
                .with_tracer(tracer)
                .with_journal(journal),
        );
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
        // Every observer sees the two decisions in decision order: the
        // trace journal and the WAL agree with `report.migrations`.
        let traced: Vec<String> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                isp_obs::TraceEvent::Instant(i) if i.name == "migration.decision" => i
                    .attrs
                    .iter()
                    .find(|(k, _)| k == "reason")
                    .map(|(_, v)| format!("{v:?}")),
                _ => None,
            })
            .collect();
        assert_eq!(
            traced,
            [r#"Str("degraded")"#, r#"Str("reclaim")"#],
            "trace journal order"
        );
        let journaled: Vec<&str> = isp_obs::wal::read_wal(&wal)
            .expect("read journal")
            .records
            .iter()
            .map(WalRecord::kind)
            .filter(|k| matches!(*k, "migration" | "reclaim"))
            .collect();
        assert_eq!(journaled, ["migration", "reclaim"], "WAL order");
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn in_region_reclaim_is_value_invariant() {
        let reclaimed = run_in_region_phase_shift(ExecOptions::activepy());
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
        assert_eq!(reclaimed.values_fingerprint, static_run.values_fingerprint);
    }
}
