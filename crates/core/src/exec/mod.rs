//! The execution engine: runs a partitioned program against the simulated
//! platform.
//!
//! The engine walks the program line by line (the ActivePy task unit),
//! charging the simulator for compute, storage streaming, interconnect
//! transfers, CSD call latencies, and status updates. When a monitor is
//! installed, every CSD status update is inspected and, on degradation, the
//! remaining CSD work is re-estimated and migrated back to the host at the
//! current line boundary (§III-D): live state crosses the interconnect,
//! host code is regenerated, and execution resumes at the breakpoint.
//!
//! The engine splits on one seam. [`evaluate`] runs the program once, for
//! its values, per-line costs and `values_fingerprint`; [`simulate`]
//! charges one schedule of that evaluation to the simulated clock. One
//! private `Run`, defined here, owns everything a simulation mutates: host
//! lines, CSD regions and the chunk loop are its methods in `simulate`, the
//! §III-D break, migration and reclaim are its methods in `migrate`, and
//! every transition they make is published through the single
//! `Run::boundary` (DESIGN.md §5.8).

#![deny(clippy::too_many_lines)]

mod evaluate;
mod migrate;
mod options;
mod outcome;
mod simulate;

pub use evaluate::{evaluate, evaluations_on_this_thread, Evaluation};
pub use options::ExecOptions;
pub use outcome::{LineOutcome, MigrationEvent, MigrationReason, RunReport};
pub use simulate::simulate;

use crate::error::Result;
use crate::estimate::LineEstimate;
use crate::monitor::Monitor;
use crate::recovery::Recovery;
use crate::shard::ShardSlice;
use alang::{ExecTier, LineCost, Program, Storage};
use csd_sim::{EngineKind, System};
use isp_obs::SpanHandle;

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
    copy_elim: &[bool],
) -> Result<RunReport> {
    let placements = vec![EngineKind::Host; program.len()];
    let opts = ExecOptions {
        tier,
        monitor: false,
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
    /// A device-ward reclaim, taken inside a migrated region's host
    /// completion.
    Reclaim(MigrationEvent),
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
    faulted: bool,
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
    /// Per defining line, the engine whose memory holds the value it
    /// defined (`None` before the line has run). A value is the line that
    /// defines it: names were resolved to reaching definitions when the
    /// [`Program`] was built, so nothing here is keyed by name. The machine
    /// visits lines strictly in program order and a reaching definition is
    /// an earlier line, so every value a line reads has been placed by the
    /// time it is read.
    values: Vec<Option<EngineKind>>,
    placements: Vec<EngineKind>,
    /// The monitor of the region in flight (`None` between regions), so
    /// boundary snapshots taken inside a region carry its evidence.
    monitor: Option<Monitor>,
    migrations: Vec<MigrationEvent>,
    lines_out: Vec<LineOutcome>,
    csd_executed: usize,
    csd_total: usize,
    contention_applied: bool,
    /// Spans begun and not yet ended, outermost first.
    spans: Vec<SpanHandle>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ActivePyError;
    use alang::parser::parse;
    use alang::value::ArrayVal;
    use alang::Value;
    use csd_sim::fault::FaultPlan;
    use csd_sim::SystemConfig;

    /// 4 GB logical array, materialized small.
    pub(super) fn storage() -> Storage {
        let mut st = Storage::new();
        let data: Vec<f64> = (0..4096).map(|i| (i % 100) as f64).collect();
        st.insert("v", Value::Array(ArrayVal::with_logical(data, 500_000_000)));
        st
    }

    pub(super) const SRC: &str = "a = scan('v')\nm = a < 50\nb = select(a, m)\ns = sum(b)\n";

    /// How many of `rep`'s lines ran on the CSD.
    pub(super) fn csd_line_count(rep: &RunReport) -> usize {
        rep.lines
            .iter()
            .filter(|l| l.engine == EngineKind::Cse)
            .count()
    }

    pub(super) fn placements(csd: &[usize], len: usize) -> Vec<EngineKind> {
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
        let rep = execute_all_host(&program, &st, &mut sys, ExecTier::Native, &[]).expect("run");
        assert_eq!(rep.lines.len(), 4);
        assert!(rep.total_secs > 0.0);
        assert_eq!(csd_line_count(&rep), 0);
        assert!(rep.migration().is_none());
        // Host scan of 4 GB at the 4 GB/s external path ≈ 1 s floor.
        assert!(rep.total_secs > 0.9, "got {}", rep.total_secs);
    }

    #[test]
    fn offloading_the_reduction_pipeline_wins() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let mut host_sys = SystemConfig::paper_default().build();
        let host =
            execute_all_host(&program, &st, &mut host_sys, ExecTier::Native, &[]).expect("host");
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
        assert_eq!(csd_line_count(&isp), 4);
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

    /// Runs SRC fully offloaded, fault-free and with `faults`, and returns
    /// (fault-free report, faulted report).
    pub(super) fn run_with_faults(opts: &ExecOptions, faults: FaultPlan) -> (RunReport, RunReport) {
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
}
