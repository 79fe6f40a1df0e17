//! What one schedule costs: [`simulate`] charges an evaluated program's
//! placements to the simulated clock, host line by host line and CSD region
//! by CSD region, each region streamed in [`REGION_CHUNKS`] chunks with a
//! break check at every chunk boundary.

use super::outcome::last_host_ward;
use super::{
    chunk_slice, csd_lines, estimate_sums, Boundary, ChunkStep, Evaluation, ExecOptions,
    LineOutcome, Region, RegionLine, Run, RunReport, REGION_CHUNKS,
};
use crate::error::{ActivePyError, Result};
use crate::estimate::LineEstimate;
use crate::metrics::MetricsSnapshot;
use crate::monitor::Monitor;
use crate::recovery::Recovery;
use crate::shard::ShardSlice;
use alang::compile::binary_bytes_for;
use alang::{LineCost, Program};
use csd_sim::availability::AvailabilityTrace;
use csd_sim::contention::Trigger;
use csd_sim::fault::DeviceFault;
use csd_sim::units::{Bytes, Ops, SimTime};
use csd_sim::{Direction, EngineKind, System};
use isp_obs::{Attrs, SpanKind, StateSnap, WalRecord};

/// Simulates one schedule of an already evaluated program: `placements`
/// on `system` under `opts` — everything [`execute`](super::execute) does
/// after evaluating.
///
/// When `shard` is given the run is charged as one shard of a fleet:
/// values were still computed in full (so `values_fingerprint` matches the
/// unsharded run), but extensive costs are restricted to the shard's
/// charge range and row slice.
///
/// # Errors
///
/// As [`execute`](super::execute), less the evaluation errors; additionally
/// rejects an `evaluation` of a program with a different line count and
/// `estimates` that are not one per line, in line order.
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
        recov: Recovery::with_tracer(opts.tracer.clone()),
        values: vec![None; program.len()],
        placements: placements.to_vec(),
        monitor: None,
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

impl Run<'_> {
    pub(super) fn now(&self) -> f64 {
        self.system.now().as_secs()
    }

    /// Opens a span at the current simulated time; `attrs` is only built,
    /// and the span stack only kept, for a live tracer.
    fn open(&mut self, name: &str, kind: SpanKind, attrs: impl FnOnce() -> Attrs) {
        let tracer = &self.opts.tracer;
        if !tracer.is_enabled() {
            return;
        }
        let handle = tracer.begin_with(name, kind, Some(self.now()), tracer.attrs(attrs));
        self.spans.push(handle);
    }

    /// Ends the innermost open span at the current simulated time.
    pub(super) fn close(&mut self, attrs: impl FnOnce() -> Attrs) {
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
    pub(super) fn boundary(&mut self, b: Boundary) -> Result<()> {
        if let Boundary::Migration(event, _) | Boundary::Reclaim(event) = &b {
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
        }
        if !self.opts.journal.is_enabled() {
            return Ok(());
        }
        // One stream per journal: every record is on lane 0.
        let lane = 0;
        let record = match b {
            Boundary::RunStart => WalRecord::RunStart {
                lane,
                program_len: self.program.len() as u32,
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
                reason: event.reason.code(),
                state_bytes: event.state_bytes,
                snap: self.snapshot(),
            },
            Boundary::Reclaim(event) => WalRecord::Reclaim {
                lane,
                line: event.after_line as u32,
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
        if self.values.last() == Some(&Some(EngineKind::Cse)) {
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
        let metrics = MetricsSnapshot {
            faults: self.system.fault_counters(),
            recovery: self.recov.stats,
            par: self.evaluation.par,
        };
        metrics.publish_to(&self.opts.tracer);
        let migrated = last_host_ward(&self.migrations).is_some();
        self.close(|| vec![("migrated".into(), migrated.into())]);
        // Feed the run's measured per-line costs to the profile store. Shard
        // runs are skipped: their costs are slice-scaled and would bias the
        // unsharded profile a refit blends in.
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
            d2h_bytes: self.system.d2h_bytes().as_u64(),
            h2d_bytes: self.system.h2d_bytes().as_u64(),
            values_fingerprint: fingerprint,
            metrics,
            migrations: std::mem::take(&mut self.migrations),
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
    /// it, returning the bytes shipped (data lives near whoever reads it
    /// next).
    fn stage_inputs(&mut self, line: &alang::ast::Line, engine: EngineKind) -> u64 {
        let mut staged = 0u64;
        for def in line.inputs().filter_map(|(_, def)| def) {
            let bytes = self.input_bytes(def, line.index);
            if bytes == 0 || self.values[def].is_none_or(|loc| loc == engine) {
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
            self.values[def] = Some(engine);
        }
        staged
    }

    /// Charges `engine` for reading `bytes` of storage and computing `ops`
    /// (the fault-free path: host work, and device work after a reclaim).
    pub(super) fn charge(&mut self, engine: EngineKind, bytes: u64, ops: u64) {
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
        let staged = self.stage_inputs(line, EngineKind::Host);
        let cost = self.line_cost(i);
        let ops = cost.effective_ops(self.opts.tier, &self.opts.params);
        self.charge(EngineKind::Host, cost.storage_bytes, ops);
        self.bind(i, EngineKind::Host);
        self.close(Vec::new);
        self.lines_out.push(LineOutcome {
            line: i,
            engine: EngineKind::Host,
            start_secs: start,
            end_secs: self.now(),
            cost,
            staged_bytes: staged,
        });
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
        let Ok(mut r) = self.prepare(start, end) else {
            self.abort_region(start)?;
            return Ok(start);
        };
        for c in 0..REGION_CHUNKS {
            let step = self.chunk(&mut r, c);
            let Some((reason, done_fraction)) = self.break_reason(&r, c, &step) else {
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
        Ok(end + 1)
    }

    /// Invokes the CSD function, stages inputs, sizes the region's lines,
    /// and arms the region's monitor.
    fn prepare(&mut self, start: usize, end: usize) -> std::result::Result<Region, DeviceFault> {
        let program = self.program;
        // The invocation command can be hit by injected NVMe errors (or
        // observe the crash). Rolled — and hard-failed — *before* any
        // region state is evaluated or relocated, so an aborted prepare
        // needs no unwinding: the caller just re-places the lines.
        self.recov
            .run_bounded(self.system, |s| s.try_nvme_command())?;
        self.system.charge_invocation();
        let mut lines = Vec::with_capacity(end - start + 1);
        let mut external_input_bytes = 0u64;
        for line in &program.lines()[start..=end] {
            // External inputs cross to device memory before the stream
            // starts; intra-region values are consumed chunk-by-chunk.
            external_input_bytes += line
                .inputs()
                .filter_map(|(_, def)| def)
                .filter(|&d| d < start && self.values[d] == Some(EngineKind::Host))
                .map(|d| self.input_bytes(d, line.index))
                .sum::<u64>();
            let staged = self.stage_inputs(line, EngineKind::Cse);
            let cost = self.line_cost(line.index);
            // Only escaping values are live state at a chunk boundary; the
            // chunk pipeline consumes everything else in place.
            let escapes =
                program.last_read(line.index) > Some(end) || line.index == program.len() - 1;
            let escaping_out = if escapes { cost.bytes_out } else { 0 };
            self.bind(line.index, EngineKind::Cse);
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
        self.monitor = self.opts.monitor.then(|| Monitor::new(expected_rate));
        Ok(Region {
            start,
            end,
            lines,
            external_input_bytes,
            est,
            t0: self.now(),
        })
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
        let mut faulted = false;
        for l in &mut r.lines {
            let t0 = self.now();
            let streamed = self.stream_line(l, c);
            l.duration += self.now() - t0;
            match streamed {
                Ok(ops) => chunk_ops += ops,
                Err(_) => {
                    faulted = true;
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
            faulted,
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

    /// Places the value line `def` just produced in `engine`'s memory.
    fn bind(&mut self, def: usize, engine: EngineKind) {
        self.values[def] = Some(engine);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::*;
    use crate::exec::*;
    use crate::recovery::RecoveryStats;
    use crate::resume::ExecJournal;
    use alang::parser::parse;
    use csd_sim::contention::ContentionScenario;
    use csd_sim::fault::FaultPlan;
    use csd_sim::SystemConfig;
    use isp_obs::Tracer;

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
    fn split_placements_form_two_regions_with_two_invocations() {
        // CSD, host, CSD, host: two separate CSD regions, each invoked once.
        let program = parse(SRC).expect("parse");
        let st = storage();
        let (tracer, sink) = Tracer::to_memory();
        let mut sys = SystemConfig::paper_default().build();
        let rep = execute(
            &program,
            &st,
            &placements(&[0, 2], 4),
            &mut sys,
            &ExecOptions::native_static().with_tracer(tracer),
            None,
            &[],
        )
        .expect("run");
        assert_eq!(csd_line_count(&rep), 2);
        let regions = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, isp_obs::TraceEvent::Span(s) if s.name == "exec.region"))
            .count();
        assert_eq!(regions, 2, "one invocation per region");
        // The host lines in between pull their inputs across.
        let staged: u64 = rep.lines.iter().map(|l| l.staged_bytes).sum();
        assert!(staged > 0);
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
        // line, D2H and H2D are the values the executor produced when it
        // read sizes off the live evaluator mid-run.
        let src = "a = scan('v')\nm = a < 50\na = select(a, m)\ns = sum(a)\na = s + 1\nr = a * 2\n";
        let program = parse(src).expect("parse");
        let st = storage();
        /// CSD lines; per-line staged bytes; D2H and H2D bytes.
        struct Recorded(&'static [usize], [u64; 6], [u64; 2]);
        let recorded = [
            Recorded(
                &[0, 1, 3, 5],
                [0, 0, 4_500_000_000, 2_001_953_128, 8, 8],
                [4_500_000_016, 2_001_977_712],
            ),
            Recorded(
                &[2, 4],
                [0, 0, 4_500_000_000, 2_001_953_128, 8, 8],
                [2_001_953_136, 4_500_020_488],
            ),
            Recorded(&[0, 1, 2, 3, 4, 5], [0; 6], [8, 28_672]),
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
            assert_eq!([rep.d2h_bytes, rep.h2d_bytes], moved, "CSD lines {csd:?}");
        }
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
    fn an_error_closes_its_spans_and_leaves_the_tracer_clean() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[0, 1, 2, 3], 4);
        let run = |opts: &ExecOptions| {
            let mut sys = SystemConfig::paper_default().build();
            execute(&program, &st, &pl, &mut sys, opts, None, &[])
        };
        // The mid-run error: a resume whose fault stream is not the one the
        // journal recorded diverges at the region's first chunk boundary.
        let faults = FaultPlan::none().with_flash_read_error_prob(0.3);
        let wal = std::env::temp_dir().join(format!("activepy_spans_{}.wal", std::process::id()));
        let journal = ExecJournal::record_to(&wal).expect("journal");
        let recorded = ExecOptions::activepy().with_faults(faults.clone().with_seed(1));
        run(&recorded.with_journal(journal)).expect("recorded run");
        let (journal, _) = ExecJournal::resume_from(&wal).expect("resume");
        let (tracer, sink) = Tracer::to_memory();
        let diverging = ExecOptions::activepy()
            .with_faults(faults.with_seed(2))
            .with_journal(journal)
            .with_tracer(tracer.clone());
        let e = run(&diverging).unwrap_err();
        std::fs::remove_file(&wal).ok();
        assert!(e.to_string().contains("journal divergence"), "got {e}");
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
        run(&ExecOptions::activepy().with_tracer(tracer)).expect("healthy run");
        let next = spans("phase.execute").pop().expect("second phase.execute");
        assert_ne!(next.id, phase.id);
        assert_eq!(next.parent, 0, "stale parent stack: {next:?}");
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
}
