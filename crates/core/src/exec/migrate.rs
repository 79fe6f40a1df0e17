//! §III-D: when a CSD region breaks — a device fault, a high-priority
//! preemption or a degraded monitor — and how the work moves: the state
//! drain, host completion, and the reclaim that hands the region's
//! remainder back to the CSD if it recovers while the host works it off.

use super::{
    chunk_slice, csd_lines, estimate_sums, Boundary, ChunkStep, MigrationEvent, MigrationReason,
    Region, Run, REGION_CHUNKS,
};
use crate::error::Result;
use crate::monitor::{Observation, DECREASING_STREAK, DEGRADATION_THRESHOLD};
use alang::compile::compile_secs_for;
use csd_sim::units::{Bytes, Duration, SimTime};
use csd_sim::{Direction, EngineKind};
use isp_obs::{Attrs, SpanKind};

impl Run<'_> {
    /// The region's invocation itself hard-faulted, before any region
    /// state was computed or moved: fall back by re-placing the remaining
    /// CSD lines on the host, to be re-entered at the same line. No live
    /// state to drain (the checkpoint is the previous line boundary), only
    /// host code to regenerate.
    pub(super) fn abort_region(&mut self, start: usize) -> Result<()> {
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

    /// The check at a chunk boundary (or mid-chunk hard fault): a hard
    /// device fault breaks unconditionally; otherwise the status-update
    /// code first checks for a high-priority request (§III-D case 1), which
    /// breaks at the first boundary at or after `opts.preempt_at`, then the
    /// host-side monitor checks throughput (case 2). Returns why to break
    /// and how much of the stream is done, or `None` to keep streaming.
    pub(super) fn break_reason(
        &mut self,
        r: &Region,
        c: u64,
        step: &ChunkStep,
    ) -> Option<(MigrationReason, f64)> {
        if step.faulted {
            self.recov.stats.fault_migrations += 1;
            // The checkpoint is the last *completed* chunk boundary;
            // the failed chunk's partial work is replayed on the host
            // via the exact done_storage/done_ops remainders.
            let done = c as f64 / REGION_CHUNKS as f64;
            return Some((MigrationReason::DeviceFault, done));
        }
        let done_fraction = (c + 1) as f64 / REGION_CHUNKS as f64;
        if done_fraction >= 1.0 {
            return None;
        }
        // A preemption ends the region, so it is never seen twice.
        let reason = if self.opts.preempt_at.is_some_and(|t| self.now() >= t) {
            Some(MigrationReason::Preempted)
        } else if self.observe_window(step) && self.migration_pays(r, done_fraction) {
            Some(MigrationReason::Degraded)
        } else {
            None
        };
        reason.map(|reason| (reason, done_fraction))
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
        let link = crate::estimate::Link::d2h(self.system.config());
        let regen = compile_secs_for(r.len() + later.lines);
        let remaining_host = (1.0 - done_fraction) * r.est.host_secs + later.host_secs;
        let migrate_cost = link.transfer(r.state_bytes(done_fraction)) + regen + remaining_host;
        reestimated > migrate_cost
    }

    /// Breaks at chunk `c`: moves the live state, regenerates host code,
    /// and finishes the remaining stream on the host.
    pub(super) fn migrate(
        &mut self,
        r: &mut Region,
        c: u64,
        reason: MigrationReason,
        done_fraction: f64,
    ) -> Result<()> {
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
        let reclaim = self.complete_on_host(r, &event);
        // A reclaimed stream leaves the rest of the plan in place; the
        // device is healthy again.
        if reclaim.is_none() {
            self.fall_back_to_host(r.end + 1);
        }
        self.boundary(Boundary::Migration(event, c))?;
        if let Some(reclaim) = reclaim {
            self.boundary(Boundary::Reclaim(reclaim))?;
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
    ) -> Option<MigrationEvent> {
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
                // is reconsidered at every boundary. Slicing partitions the exact
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
            self.values[r.start + k] = Some(engine);
        }
        reclaim
    }

    /// In-region reclaim: after a mid-region break moved the stream
    /// host-ward, decides at host line boundary `k` whether the remaining
    /// (unfinished) slice of the region returns to the CSD, scaling each
    /// line's estimates by its undone fraction. The work returns when the
    /// move is old enough, the device has looked healthy for long enough,
    /// and finishing there pays: hysteresis is [`DECREASING_STREAK`]
    /// monitor windows (one window = the remaining device time
    /// chunk-pipelined in [`REGION_CHUNKS`] status updates), the CSE's
    /// effective availability is probed at that many window-spaced
    /// instants — the mirror image of the evidence the monitor needed to
    /// leave — and the device time at the currently observed
    /// availability, plus moving the live state the migration drained
    /// back and regenerating the slice's device code, must beat the host
    /// time. Every input is simulated-clock state, so the decision cannot
    /// affect computed values, only charged costs.
    fn reclaim_remaining(
        &self,
        r: &Region,
        k: usize,
        migration: &MigrationEvent,
    ) -> Option<MigrationEvent> {
        // Preempted tasks must stay off the device and fault fallbacks
        // carry no evidence the device works; only degradations reverse.
        if migration.reason != MigrationReason::Degraded || !self.opts.monitor {
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
        let window = device_secs / REGION_CHUNKS as f64;
        if window <= 0.0 {
            return None;
        }
        let now = self.now();
        if now - f64::from(DECREASING_STREAK) * window <= migration.at_secs {
            return None;
        }
        let cse = self.system.engine(EngineKind::Cse);
        for j in 0..DECREASING_STREAK {
            let probe = SimTime::from_secs(now - f64::from(j) * window);
            if cse.effective_fraction_at(probe) < DEGRADATION_THRESHOLD {
                return None;
            }
        }
        let fraction = cse.effective_fraction_at(self.system.now());
        let link = crate::estimate::Link::d2h(self.system.config());
        let regen_secs = compile_secs_for(r.len() - k);
        if device_secs / fraction + link.transfer(migration.state_bytes) + regen_secs >= host_secs {
            return None;
        }
        Some(MigrationEvent {
            after_line: (r.start + k).saturating_sub(1),
            state_bytes: migration.state_bytes,
            at_secs: self.now(),
            regen_secs,
            reason: MigrationReason::Reclaim,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::tests::*;
    use crate::exec::*;
    use alang::parser::parse;
    use alang::CostParams;
    use csd_sim::contention::ContentionScenario;
    use csd_sim::fault::FaultPlan;
    use csd_sim::SystemConfig;
    use isp_obs::{Tracer, WalRecord};

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
        let mig = rep
            .migration()
            .expect("should migrate under 1% availability");
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
        // preemption request must.
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
            .migration()
            .expect("the preemption request must force a migration");
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
            let mig = rep
                .migration()
                .expect("the preemption request forces a migration");
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
        assert!(rep.migration().is_none());
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
        let t_half = reference.time_at_csd_progress(0.5);
        let faults = FaultPlan::none()
            .with_seed(3)
            .with_crash_at(csd_sim::units::SimTime::from_secs(t_half));
        let (clean, faulted) = run_with_faults(&opts, faults);
        let mig = faulted.migration().expect("crash must force a migration");
        assert_eq!(mig.reason, MigrationReason::DeviceFault);
        assert!(faulted.metrics.recovery.hard_faults >= 1);
        assert!(faulted.metrics.recovery.fault_migrations >= 1);
        assert_eq!(faulted.values_fingerprint, clean.values_fingerprint);
        assert!(faulted.total_secs > clean.total_secs);
    }

    #[test]
    fn a_crash_before_the_region_aborts_it_to_the_host() {
        // The CSE is dead from time zero: the region's invocation faults
        // before any state moves, and every line runs on the host.
        let faults = FaultPlan::none()
            .with_seed(3)
            .with_crash_at(csd_sim::units::SimTime::ZERO);
        let (clean, faulted) = run_with_faults(&ExecOptions::activepy(), faults);
        let mig = faulted
            .migration()
            .expect("the aborted invocation migrates");
        assert_eq!(
            (mig.reason, mig.state_bytes),
            (MigrationReason::DeviceFault, 0)
        );
        assert_eq!(csd_line_count(&faulted), 0);
        assert_eq!(faulted.values_fingerprint, clean.values_fingerprint);
    }

    /// Phase-shifting scenario across two regions: CSD region [0,1], host
    /// line 2, CSD line 3. Contention drops mid-region-0 and recovers
    /// shortly after, so the degradation migrates line 3 host-ward with
    /// the rest of the plan.
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
                // Line 3 is clearly device-profitable, so abandoning it
                // host-ward is a real loss.
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
    fn a_degraded_two_region_migration_keeps_the_fingerprint() {
        // A placement flip may never change computed values: the
        // fingerprint matches an undisturbed static run.
        let migrated = run_phase_shift();
        assert_eq!(
            migrated.migration().map(|m| m.reason),
            Some(MigrationReason::Degraded),
            "the burst pushes the plan host-ward: {:?}",
            migrated.migrations
        );
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
        assert_eq!(migrated.values_fingerprint, static_run.values_fingerprint);
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
