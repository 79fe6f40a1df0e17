//! Deterministic fault injection.
//!
//! The paper's runtime claim (§III-D) is a robustness claim: when the CSD
//! under-delivers, ActivePy migrates the remaining work to the host
//! instead of stalling. This module supplies the adversity. A
//! [`FaultPlan`] schedules three fault classes against simulated time:
//!
//! 1. **GC bursts** — availability collapses to a residual fraction for a
//!    bounded sim-time window ([`GcBurst`]), composed multiplicatively
//!    with whatever contention is already installed.
//! 2. **Transient errors** — flash reads, NVMe command submissions, and
//!    DMA transfers fail with a per-operation probability drawn from a
//!    fixed-seed PRNG (the vendored `rand` stand-in).
//! 3. **A hard CSE crash** — at a chosen sim time the engine complex goes
//!    away permanently; every subsequent CSE-side operation fails with
//!    [`DeviceFault::CseCrash`].
//!
//! Everything is deterministic: the same seed and the same plan produce
//! the same fault trace against the same operation sequence, which is
//! what the chaos differential tests rely on. The injector stores the
//! PRNG as its raw `u64` state so [`FaultInjector`] stays plain data
//! (`PartialEq`/`Serialize`-able, like the rest of the [`System`]).
//!
//! [`System`]: crate::system::System

use crate::availability::AvailabilityTrace;
use crate::units::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::fmt;

/// One garbage-collection burst: availability collapses to
/// [`GcBurst::residual_fraction`] for the window
/// `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GcBurst {
    /// When the burst begins.
    pub start: SimTime,
    /// How long the burst lasts (a zero duration is a harmless no-op).
    pub duration: Duration,
    /// Fraction of nominal throughput, in `(0, 1]`, that survives the
    /// burst.
    pub residual_fraction: f64,
}

/// A seeded, sim-time-scheduled fault schedule.
///
/// Probabilities are capped at [`FaultPlan::MAX_ERROR_PROB`] so that
/// retry-until-success loops (used for must-complete transfers) are
/// guaranteed to terminate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed for the per-operation failure draws.
    pub seed: u64,
    /// Scheduled GC bursts (may overlap; overlaps compose
    /// multiplicatively).
    pub gc_bursts: Vec<GcBurst>,
    /// Per-operation probability that a CSE-side flash read fails.
    pub flash_read_error_prob: f64,
    /// Per-operation probability that an NVMe command submission fails.
    pub nvme_error_prob: f64,
    /// Per-operation probability that a DMA transfer fails.
    pub dma_error_prob: f64,
    /// Sim time of the hard CSE crash, if any. From this instant every
    /// CSE-side operation fails permanently.
    pub crash_at: Option<SimTime>,
}

/// Sim time charged to detect and report each injected fault, seconds.
pub const DETECT_LATENCY_SECS: f64 = 50e-6;

impl FaultPlan {
    /// Upper bound on every per-operation error probability. Strictly
    /// below 1 so that an operation retried forever eventually succeeds.
    pub const MAX_ERROR_PROB: f64 = 0.9;

    /// A plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            gc_bursts: Vec::new(),
            flash_read_error_prob: 0.0,
            nvme_error_prob: 0.0,
            dma_error_prob: 0.0,
            crash_at: None,
        }
    }

    /// Whether this plan injects nothing at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.gc_bursts.is_empty()
            && self.flash_read_error_prob == 0.0
            && self.nvme_error_prob == 0.0
            && self.dma_error_prob == 0.0
            && self.crash_at.is_none()
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a GC burst collapsing availability to `residual_fraction`
    /// over `[start, start + duration)`.
    #[must_use]
    pub fn with_gc_burst(
        mut self,
        start: SimTime,
        duration: Duration,
        residual_fraction: f64,
    ) -> Self {
        self.gc_bursts.push(GcBurst {
            start,
            duration,
            residual_fraction,
        });
        self
    }

    /// Sets the per-read flash error probability.
    #[must_use]
    pub fn with_flash_read_error_prob(mut self, p: f64) -> Self {
        self.flash_read_error_prob = p;
        self
    }

    /// Sets the per-command NVMe error probability.
    #[must_use]
    pub fn with_nvme_error_prob(mut self, p: f64) -> Self {
        self.nvme_error_prob = p;
        self
    }

    /// Sets the per-transfer DMA error probability.
    #[must_use]
    pub fn with_dma_error_prob(mut self, p: f64) -> Self {
        self.dma_error_prob = p;
        self
    }

    /// Schedules the hard CSE crash.
    #[must_use]
    pub fn with_crash_at(mut self, at: SimTime) -> Self {
        self.crash_at = Some(at);
        self
    }

    /// Checks the plan is well-formed; returns a human-readable reason
    /// when it is not.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: a probability
    /// outside `[0, MAX_ERROR_PROB]` or a malformed burst window.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("flash_read_error_prob", self.flash_read_error_prob),
            ("nvme_error_prob", self.nvme_error_prob),
            ("dma_error_prob", self.dma_error_prob),
        ] {
            if !(p.is_finite() && (0.0..=Self::MAX_ERROR_PROB).contains(&p)) {
                return Err(format!(
                    "{name} must be in [0, {}], got {p}",
                    Self::MAX_ERROR_PROB
                ));
            }
        }
        for b in &self.gc_bursts {
            if !b.start.as_secs().is_finite() || b.start.as_secs() < 0.0 {
                return Err(format!(
                    "gc burst start must be non-negative, got {}",
                    b.start
                ));
            }
            if !b.duration.as_secs().is_finite() || b.duration.as_secs() < 0.0 {
                return Err(format!(
                    "gc burst duration must be non-negative, got {}",
                    b.duration
                ));
            }
            if !(b.residual_fraction.is_finite()
                && b.residual_fraction > 0.0
                && b.residual_fraction <= 1.0)
            {
                return Err(format!(
                    "gc burst residual fraction must be in (0, 1], got {}",
                    b.residual_fraction
                ));
            }
        }
        Ok(())
    }

    /// The availability trace carved out by the scheduled GC bursts
    /// (full everywhere else). Overlapping bursts compose
    /// multiplicatively; zero-length bursts contribute nothing.
    #[must_use]
    pub fn burst_trace(&self) -> AvailabilityTrace {
        let mut trace = AvailabilityTrace::full();
        for b in &self.gc_bursts {
            if b.duration.is_zero() {
                continue;
            }
            let single = AvailabilityTrace::full()
                .with_change(b.start, b.residual_fraction)
                .with_change(b.start + b.duration, 1.0);
            trace = trace.product(&single);
        }
        trace
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// One injected device fault, stamped with the sim time it fired.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum DeviceFault {
    /// A transient flash read error on the device-internal path.
    FlashRead {
        /// When the fault fired.
        at: SimTime,
    },
    /// A transient NVMe command error (submission aborted).
    NvmeCommand {
        /// When the fault fired.
        at: SimTime,
    },
    /// A transient DMA transfer error.
    DmaTransfer {
        /// When the fault fired.
        at: SimTime,
    },
    /// The hard CSE crash: the engine complex is gone for the rest of
    /// the run.
    CseCrash {
        /// When the crash was (first) observed.
        at: SimTime,
    },
}

impl DeviceFault {
    /// Whether a retry can possibly succeed. Only the crash is
    /// permanent.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        !matches!(self, DeviceFault::CseCrash { .. })
    }
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::FlashRead { at } => write!(f, "transient flash read error at {at}"),
            DeviceFault::NvmeCommand { at } => write!(f, "transient NVMe command error at {at}"),
            DeviceFault::DmaTransfer { at } => write!(f, "transient DMA transfer error at {at}"),
            DeviceFault::CseCrash { at } => write!(f, "hard CSE crash at {at}"),
        }
    }
}

impl std::error::Error for DeviceFault {}

/// Running totals of injected faults, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct FaultCounters {
    /// Transient flash read errors injected.
    pub flash_read_errors: u64,
    /// Transient NVMe command errors injected.
    pub nvme_command_errors: u64,
    /// Transient DMA transfer errors injected.
    pub dma_transfer_errors: u64,
    /// Hard crashes observed (0 or 1: the transition is counted once).
    pub cse_crashes: u64,
}

impl FaultCounters {
    /// Total transient faults injected across all classes.
    #[must_use]
    pub fn transient_total(&self) -> u64 {
        self.flash_read_errors + self.nvme_command_errors + self.dma_transfer_errors
    }
}

impl std::iter::Sum for FaultCounters {
    /// Class by class, e.g. over the devices of a fleet.
    fn sum<I: Iterator<Item = FaultCounters>>(iter: I) -> Self {
        iter.fold(FaultCounters::default(), |a, c| FaultCounters {
            flash_read_errors: a.flash_read_errors + c.flash_read_errors,
            nvme_command_errors: a.nvme_command_errors + c.nvme_command_errors,
            dma_transfer_errors: a.dma_transfer_errors + c.dma_transfer_errors,
            cse_crashes: a.cse_crashes + c.cse_crashes,
        })
    }
}

/// Executes a [`FaultPlan`] against a stream of operations: each
/// `roll_*` call consults the plan (and one PRNG draw, when the class
/// has a non-zero probability) and reports whether the operation fails.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng_state: u64,
    counters: FaultCounters,
    crashed: bool,
}

impl FaultInjector {
    /// Builds an injector at the start of the plan's PRNG stream.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let rng_state = StdRng::seed_from_u64(plan.seed).state();
        FaultInjector {
            plan,
            rng_state,
            counters: FaultCounters::default(),
            crashed: false,
        }
    }

    /// Injection totals so far.
    #[must_use]
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Whether the hard crash has been observed.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The raw PRNG state — the injector's position in its fault
    /// stream. Two injectors with equal plans and equal states produce
    /// identical future draws, which is what the execution WAL's replay
    /// verification checks at every journaled boundary.
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng_state
    }

    /// One Bernoulli draw; skipped entirely (no PRNG state change) when
    /// `p == 0`, so enabling one fault class does not perturb another's
    /// stream alignment relative to a plan without it.
    fn draw(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let mut rng = StdRng::from_state(self.rng_state);
        let hit = rng.gen_bool(p);
        self.rng_state = rng.state();
        hit
    }

    /// Observes (and latches) the hard crash if `now` has reached it.
    fn check_crash(&mut self, now: SimTime) -> bool {
        if !self.crashed {
            if let Some(at) = self.plan.crash_at {
                if now >= at {
                    self.crashed = true;
                    self.counters.cse_crashes += 1;
                }
            }
        }
        self.crashed
    }

    /// Rolls a CSE-side flash read at sim time `now`.
    pub fn roll_flash_read(&mut self, now: SimTime) -> Option<DeviceFault> {
        if self.check_crash(now) {
            return Some(DeviceFault::CseCrash { at: now });
        }
        if self.draw(self.plan.flash_read_error_prob) {
            self.counters.flash_read_errors += 1;
            return Some(DeviceFault::FlashRead { at: now });
        }
        None
    }

    /// Rolls an NVMe command submission at sim time `now`.
    pub fn roll_nvme(&mut self, now: SimTime) -> Option<DeviceFault> {
        if self.check_crash(now) {
            return Some(DeviceFault::CseCrash { at: now });
        }
        if self.draw(self.plan.nvme_error_prob) {
            self.counters.nvme_command_errors += 1;
            return Some(DeviceFault::NvmeCommand { at: now });
        }
        None
    }

    /// Rolls a CSE compute slice at sim time `now`. Compute has no
    /// transient failure mode of its own; it only observes the crash.
    pub fn roll_compute(&mut self, now: SimTime) -> Option<DeviceFault> {
        if self.check_crash(now) {
            return Some(DeviceFault::CseCrash { at: now });
        }
        None
    }

    /// Rolls a DMA transfer at sim time `now`.
    ///
    /// DMA is controller-side and survives a CSE crash by design — the
    /// migration path must still be able to drain checkpoint state out
    /// of device DRAM after the engine complex dies — so this never
    /// returns [`DeviceFault::CseCrash`].
    pub fn roll_dma(&mut self, now: SimTime) -> Option<DeviceFault> {
        if self.draw(self.plan.dma_error_prob) {
            self.counters.dma_transfer_errors += 1;
            return Some(DeviceFault::DmaTransfer { at: now });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan() -> FaultPlan {
        FaultPlan::none()
            .with_seed(42)
            .with_flash_read_error_prob(0.3)
            .with_nvme_error_prob(0.2)
            .with_dma_error_prob(0.1)
    }

    #[test]
    fn none_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for i in 0..100 {
            let t = SimTime::from_secs(f64::from(i));
            assert_eq!(inj.roll_flash_read(t), None);
            assert_eq!(inj.roll_nvme(t), None);
            assert_eq!(inj.roll_dma(t), None);
            assert_eq!(inj.roll_compute(t), None);
        }
        assert_eq!(inj.counters(), FaultCounters::default());
        assert!(FaultPlan::none().is_none());
        assert!(!lossy_plan().is_none());
    }

    #[test]
    fn same_seed_same_fault_trace() {
        let mut a = FaultInjector::new(lossy_plan());
        let mut b = FaultInjector::new(lossy_plan());
        for i in 0..500 {
            let t = SimTime::from_secs(f64::from(i) * 1e-3);
            assert_eq!(a.roll_flash_read(t), b.roll_flash_read(t));
            assert_eq!(a.roll_nvme(t), b.roll_nvme(t));
            assert_eq!(a.roll_dma(t), b.roll_dma(t));
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().transient_total() > 0, "p=0.3 over 500 rolls");
    }

    #[test]
    fn crash_is_permanent_and_counted_once() {
        let plan = FaultPlan::none().with_crash_at(SimTime::from_secs(1.0));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.roll_compute(SimTime::from_secs(0.5)), None);
        assert!(!inj.crashed());
        let f = inj.roll_flash_read(SimTime::from_secs(1.0));
        assert_eq!(
            f,
            Some(DeviceFault::CseCrash {
                at: SimTime::from_secs(1.0)
            })
        );
        assert!(!f.unwrap().is_transient());
        // Every later CSE-side roll keeps failing; the counter stays at 1.
        for i in 0..10 {
            let t = SimTime::from_secs(2.0 + f64::from(i));
            assert!(matches!(
                inj.roll_nvme(t),
                Some(DeviceFault::CseCrash { .. })
            ));
        }
        assert_eq!(inj.counters().cse_crashes, 1);
        // DMA survives the crash (controller-side).
        assert_eq!(inj.roll_dma(SimTime::from_secs(5.0)), None);
    }

    #[test]
    fn only_the_crash_is_permanent() {
        // The one branch the recovery layer takes: retry a transient
        // fault, migrate off a permanent one.
        let at = SimTime::from_secs(1.0);
        for f in [
            DeviceFault::FlashRead { at },
            DeviceFault::NvmeCommand { at },
            DeviceFault::DmaTransfer { at },
        ] {
            assert!(f.is_transient(), "{f}");
        }
        assert!(!DeviceFault::CseCrash { at }.is_transient());
    }

    #[test]
    fn zero_probability_classes_do_not_consume_draws() {
        // Flash-only plan and flash+nvme plan must agree on the flash
        // stream: nvme rolls with p=0 take no draw.
        let flash_only = FaultPlan::none()
            .with_seed(7)
            .with_flash_read_error_prob(0.4);
        let both = flash_only.clone().with_nvme_error_prob(0.0);
        let mut a = FaultInjector::new(flash_only);
        let mut b = FaultInjector::new(both);
        for i in 0..300 {
            let t = SimTime::from_secs(f64::from(i));
            assert_eq!(a.roll_flash_read(t), b.roll_flash_read(t));
            assert_eq!(b.roll_nvme(t), None);
        }
    }

    #[test]
    fn burst_trace_carves_windows() {
        let plan = FaultPlan::none()
            .with_gc_burst(SimTime::from_secs(1.0), Duration::from_secs(2.0), 0.1)
            .with_gc_burst(SimTime::from_secs(2.0), Duration::from_secs(2.0), 0.5);
        let tr = plan.burst_trace();
        assert!((tr.fraction_at(SimTime::from_secs(0.5)) - 1.0).abs() < 1e-12);
        assert!((tr.fraction_at(SimTime::from_secs(1.5)) - 0.1).abs() < 1e-12);
        // Overlap composes multiplicatively.
        assert!((tr.fraction_at(SimTime::from_secs(2.5)) - 0.05).abs() < 1e-12);
        assert!((tr.fraction_at(SimTime::from_secs(3.5)) - 0.5).abs() < 1e-12);
        assert!((tr.fraction_at(SimTime::from_secs(4.5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_burst_is_a_no_op() {
        let plan = FaultPlan::none().with_gc_burst(SimTime::from_secs(1.0), Duration::ZERO, 0.2);
        assert_eq!(plan.burst_trace(), AvailabilityTrace::full());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(lossy_plan().validate().is_ok());
        let too_high = FaultPlan::none().with_flash_read_error_prob(0.95);
        assert!(too_high.validate().is_err());
        let negative = FaultPlan::none().with_dma_error_prob(-0.1);
        assert!(negative.validate().is_err());
        let bad_burst =
            FaultPlan::none().with_gc_burst(SimTime::ZERO, Duration::from_secs(1.0), 0.0);
        assert!(bad_burst.validate().is_err());
    }

    #[test]
    fn display_names_the_fault_class() {
        let t = SimTime::from_secs(1.0);
        assert!(format!("{}", DeviceFault::FlashRead { at: t }).contains("flash read"));
        assert!(format!("{}", DeviceFault::CseCrash { at: t }).contains("crash"));
    }
}
