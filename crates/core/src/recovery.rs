//! Retry, backoff and host fallback for injected device faults.
//!
//! The recovery layer sits between the execution engine and the
//! simulator's fallible `try_*` operations: transient faults are retried
//! with bounded exponential backoff *charged to sim time*, and a hard
//! fault (or retry exhaustion) escalates to the caller, which performs a
//! checkpointed migration of the remaining work to the host (§III-D
//! applied to device adversity rather than IPC degradation).

use csd_sim::fault::DeviceFault;
use csd_sim::units::Duration;
use csd_sim::System;
use isp_obs::{SpanKind, Tracer};
use serde::Serialize;

/// Stable short name of a fault variant, used as the `kind` attribute of
/// `fault.injected` trace instants (matches the `fault.*_errors` counter
/// family published from [`csd_sim::fault::FaultCounters`]).
pub(crate) fn fault_kind_str(fault: &DeviceFault) -> &'static str {
    match fault {
        DeviceFault::FlashRead { .. } => "flash_read",
        DeviceFault::NvmeCommand { .. } => "nvme_command",
        DeviceFault::DmaTransfer { .. } => "dma_transfer",
        DeviceFault::CseCrash { .. } => "cse_crash",
    }
}

/// Retries allowed per operation before a transient fault is treated as
/// hard; a hard fault migrates the remaining CSD work to the host.
pub const MAX_RETRIES: u32 = 3;

/// Backoff charged to sim time before the first retry, seconds.
pub const BACKOFF_SECS: f64 = 2e-4;

/// Multiplier applied to the backoff on each further retry.
pub const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Exponent cap for the backoff growth, so a long retry chain cannot
/// produce astronomically large sim-time charges.
pub const MAX_BACKOFF_EXPONENT: u32 = 16;

/// The sim-time backoff before retry number `attempt` (1-based):
/// `BACKOFF_SECS * BACKOFF_MULTIPLIER^(attempt - 1)`, growth capped at
/// [`MAX_BACKOFF_EXPONENT`].
#[must_use]
pub fn backoff_for(attempt: u32) -> f64 {
    let exp = attempt.saturating_sub(1).min(MAX_BACKOFF_EXPONENT);
    BACKOFF_SECS * BACKOFF_MULTIPLIER.powi(i32::try_from(exp).expect("exp <= 16"))
}

/// Counters a run's recovery layer accumulates; reported as
/// `RunReport.metrics.recovery`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct RecoveryStats {
    /// Transient faults absorbed (each injected transient fault counts
    /// exactly once, whether or not its retry succeeded).
    pub transient_faults: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Operations that ultimately succeeded after at least one retry.
    pub recovered_ops: u64,
    /// Hard faults: crashes plus transient-retry exhaustions.
    pub hard_faults: u64,
    /// Migrations caused by device faults.
    pub fault_migrations: u64,
    /// Total sim-time seconds spent backing off between retries.
    pub backoff_secs: f64,
}

/// The per-run retry engine: owns the stats and the trace handle that
/// records fault/recovery events as they surface.
pub(crate) struct Recovery {
    pub(crate) stats: RecoveryStats,
    tracer: Tracer,
}

impl Recovery {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_tracer(Tracer::disabled())
    }

    pub(crate) fn with_tracer(tracer: Tracer) -> Self {
        Recovery {
            stats: RecoveryStats::default(),
            tracer,
        }
    }

    /// Records an injected fault surfacing to the runtime as a trace
    /// instant on the simulated clock.
    fn trace_fault(&self, system: &System, fault: &DeviceFault) {
        self.tracer.instant(
            "fault.injected",
            SpanKind::Fault,
            Some(system.now().as_secs()),
            self.tracer.attrs(|| {
                vec![
                    ("kind".to_string(), fault_kind_str(fault).into()),
                    ("transient".to_string(), fault.is_transient().into()),
                ]
            }),
        );
    }

    /// Runs `op`, retrying transient faults up to [`MAX_RETRIES`] times with
    /// backoff charged to sim time. A hard fault, or a transient fault
    /// that exhausts its retries, is returned to the caller, which
    /// migrates the remaining work to the host.
    pub(crate) fn run_bounded<T>(
        &mut self,
        system: &mut System,
        op: impl FnMut(&mut System) -> std::result::Result<T, DeviceFault>,
    ) -> std::result::Result<T, DeviceFault> {
        self.retry(system, MAX_RETRIES, op)
    }

    /// Runs a must-complete operation (host staging, migration-state
    /// drain, final-result transfer): the same loop with no retry limit.
    /// Termination is guaranteed because fault probabilities are capped
    /// strictly below 1 ([`FaultPlan::MAX_ERROR_PROB`]) and none of the
    /// must-complete operations has a permanent failure mode (DMA
    /// survives the CSE crash).
    ///
    /// # Panics
    ///
    /// Panics on a non-transient fault: no must-complete operation can
    /// raise one, so one is a fault model this loop was not built for.
    ///
    /// [`FaultPlan::MAX_ERROR_PROB`]: csd_sim::fault::FaultPlan::MAX_ERROR_PROB
    pub(crate) fn run_to_completion<T>(
        &mut self,
        system: &mut System,
        op: impl FnMut(&mut System) -> std::result::Result<T, DeviceFault>,
    ) -> T {
        self.retry(system, u32::MAX, op).unwrap_or_else(|fault| {
            panic!("must-complete operations only face transient faults, got {fault}")
        })
    }

    /// The one retry loop: transient faults are retried `max_retries`
    /// times, each after its backoff; anything else, or the fault after
    /// the last retry, is hard.
    fn retry<T>(
        &mut self,
        system: &mut System,
        max_retries: u32,
        mut op: impl FnMut(&mut System) -> std::result::Result<T, DeviceFault>,
    ) -> std::result::Result<T, DeviceFault> {
        let mut attempt = 0u32;
        loop {
            match op(system) {
                Ok(v) => {
                    if attempt > 0 {
                        self.stats.recovered_ops += 1;
                    }
                    return Ok(v);
                }
                Err(fault) => {
                    self.trace_fault(system, &fault);
                    let transient = fault.is_transient();
                    if transient {
                        self.stats.transient_faults += 1;
                    }
                    if transient && attempt < max_retries {
                        attempt += 1;
                        self.stats.retries += 1;
                        self.back_off(system, attempt);
                    } else {
                        self.stats.hard_faults += 1;
                        return Err(fault);
                    }
                }
            }
        }
    }

    fn back_off(&mut self, system: &mut System, attempt: u32) {
        let backoff = backoff_for(attempt);
        self.stats.backoff_secs += backoff;
        let span = self.tracer.begin_with(
            "recovery.backoff",
            SpanKind::Recovery,
            Some(system.now().as_secs()),
            self.tracer.attrs(|| {
                vec![
                    ("attempt".to_string(), attempt.into()),
                    ("backoff_secs".to_string(), backoff.into()),
                ]
            }),
        );
        system.advance(Duration::from_secs(backoff));
        self.tracer.end(span, Some(system.now().as_secs()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_sim::fault::FaultPlan;
    use csd_sim::units::SimTime;

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        for attempt in 1..=20u32 {
            let pinned = 2e-4 * f64::from(1u32 << (attempt - 1).min(16));
            assert_eq!(
                backoff_for(attempt).to_bits(),
                pinned.to_bits(),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn run_bounded_retries_transient_then_succeeds() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new();
        let mut failures_left = 2;
        let before = system.now();
        let out = recov.run_bounded(&mut system, |s| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(DeviceFault::FlashRead { at: s.now() })
            } else {
                Ok(7)
            }
        });
        assert_eq!(out, Ok(7));
        assert_eq!(recov.stats.transient_faults, 2);
        assert_eq!(recov.stats.retries, 2);
        assert_eq!(recov.stats.recovered_ops, 1);
        assert_eq!(recov.stats.hard_faults, 0);
        // Backoff was charged to sim time: 2e-4 + 4e-4.
        let elapsed = system.now().duration_since(before).as_secs();
        assert!((elapsed - 6e-4).abs() < 1e-12, "elapsed {elapsed}");
        assert!((recov.stats.backoff_secs - 6e-4).abs() < 1e-12);
    }

    #[test]
    fn run_bounded_exhausts_retries_into_a_hard_fault() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new();
        let out: std::result::Result<(), _> = recov.run_bounded(&mut system, |s| {
            Err(DeviceFault::NvmeCommand { at: s.now() })
        });
        assert!(out.is_err());
        // MAX_RETRIES = 3: initial attempt + 3 retries = 4 transient faults.
        assert_eq!(recov.stats.transient_faults, 4);
        assert_eq!(recov.stats.retries, 3);
        assert_eq!(recov.stats.hard_faults, 1);
        assert_eq!(recov.stats.recovered_ops, 0);
    }

    #[test]
    fn run_bounded_passes_crashes_through_without_retry() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new();
        let out: std::result::Result<(), _> =
            recov.run_bounded(&mut system, |s| Err(DeviceFault::CseCrash { at: s.now() }));
        assert_eq!(out, Err(DeviceFault::CseCrash { at: SimTime::ZERO }));
        assert_eq!(recov.stats.retries, 0);
        assert_eq!(recov.stats.transient_faults, 0);
        assert_eq!(recov.stats.hard_faults, 1);
    }

    #[test]
    fn run_to_completion_outlasts_any_bounded_retry_budget() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new();
        let mut failures_left = 25; // far beyond MAX_RETRIES
        let out = recov.run_to_completion(&mut system, |s| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(DeviceFault::DmaTransfer { at: s.now() })
            } else {
                Ok("done")
            }
        });
        assert_eq!(out, "done");
        assert_eq!(recov.stats.transient_faults, 25);
        assert_eq!(recov.stats.hard_faults, 0);
        assert_eq!(recov.stats.recovered_ops, 1);
    }

    #[test]
    #[should_panic(expected = "must-complete operations only face transient faults")]
    fn a_crash_on_a_must_complete_operation_is_loud() {
        let mut system = System::paper_default();
        Recovery::new().run_to_completion(&mut system, |s| {
            Err::<(), _>(DeviceFault::CseCrash { at: s.now() })
        });
    }

    #[test]
    fn run_to_completion_terminates_against_real_injection() {
        let mut system = System::paper_default();
        system.install_faults(
            FaultPlan::none()
                .with_seed(5)
                .with_dma_error_prob(FaultPlan::MAX_ERROR_PROB),
        );
        let mut recov = Recovery::new();
        for _ in 0..20 {
            recov.run_to_completion(&mut system, |s| {
                s.try_transfer(
                    csd_sim::Direction::DeviceToHost,
                    csd_sim::units::Bytes::from_mib(1),
                )
            });
        }
        assert!(recov.stats.transient_faults > 0, "p=0.9 over 20 transfers");
    }
}
