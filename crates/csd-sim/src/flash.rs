//! The NAND flash array and its background garbage collection.
//!
//! The paper's prototype CSD reaches an effective 9 GB/s when the SoC reads
//! the internal NAND array — richer than the 5 GB/s external NVMe link
//! (§IV-A). This asymmetry is the whole point of in-storage processing:
//! tasks running next to the flash receive data faster than the host can.
//!
//! Garbage collection (§II-B3, "resource contention coming from the storage
//! management workloads") is modelled as periodic windows during which a
//! fraction of the internal bandwidth is consumed by the flash translation
//! layer.

use crate::availability::AvailabilityTrace;
use crate::units::{Bandwidth, Bytes, Duration, SimTime};
use serde::Serialize;

/// Periodic garbage-collection schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GcSchedule {
    /// Interval between GC window starts.
    pub period: Duration,
    /// Length of each GC window.
    pub window: Duration,
    /// Fraction of internal bandwidth *left to the ISP task* during a GC
    /// window, in `(0, 1]`.
    pub residual_fraction: f64,
}

impl GcSchedule {
    /// Validates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero, the window is longer than the period,
    /// or the residual fraction is outside `(0, 1]`.
    #[must_use]
    pub fn new(period: Duration, window: Duration, residual_fraction: f64) -> Self {
        assert!(!period.is_zero(), "GC period must be positive");
        assert!(
            window.as_secs() <= period.as_secs(),
            "GC window must fit within its period"
        );
        assert!(
            residual_fraction > 0.0 && residual_fraction <= 1.0,
            "residual fraction must be in (0, 1]"
        );
        GcSchedule {
            period,
            window,
            residual_fraction,
        }
    }

    /// Long-run average fraction of bandwidth available to the ISP task.
    #[must_use]
    pub fn mean_availability(&self) -> f64 {
        let duty = self.window.as_secs() / self.period.as_secs();
        (1.0 - duty) + duty * self.residual_fraction
    }
}

/// Number of whole GC periods the trace materializes ahead of a request;
/// beyond the horizon the mean availability is used.
const GC_HORIZON_PERIODS: u32 = 64;

/// The CSD's internal NAND flash array.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlashArray {
    internal_bandwidth: Bandwidth,
    gc: Option<GcSchedule>,
    contention: AvailabilityTrace,
    fault: AvailabilityTrace,
}

impl FlashArray {
    /// Creates a flash array with the given internal read bandwidth and no
    /// garbage collection.
    #[must_use]
    pub fn new(internal_bandwidth: Bandwidth) -> Self {
        FlashArray {
            internal_bandwidth,
            gc: None,
            contention: AvailabilityTrace::full(),
            fault: AvailabilityTrace::full(),
        }
    }

    /// Installs a garbage-collection schedule.
    pub fn set_gc(&mut self, gc: GcSchedule) {
        self.gc = Some(gc);
    }

    /// Installs a tenant-contention trace: competing ISP workloads sharing
    /// the internal data path steal this fraction of bandwidth (composes
    /// multiplicatively with garbage collection).
    pub fn set_contention(&mut self, trace: AvailabilityTrace) {
        self.contention = trace;
    }

    /// Installs an injected-fault availability trace (GC bursts from a
    /// fault plan). Unlike tenant contention, injected GC bursts are
    /// device-internal — the flash itself stalls — so they throttle the
    /// external controller port too.
    pub fn install_fault_trace(&mut self, trace: AvailabilityTrace) {
        self.fault = trace;
    }

    /// Builds the combined availability trace: garbage collection (if
    /// scheduled) multiplied by tenant contention and any injected
    /// fault bursts.
    fn effective_trace(&self, around: SimTime, span_hint: Duration) -> AvailabilityTrace {
        let tr = self.gc_trace(around, span_hint).product(&self.contention);
        if self.fault.is_full() {
            tr
        } else {
            tr.product(&self.fault)
        }
    }

    /// The availability trace the external controller port sees: garbage
    /// collection plus injected fault bursts (tenant contention stays on
    /// the CSE-side fabric).
    fn external_trace(&self, around: SimTime, span_hint: Duration) -> AvailabilityTrace {
        let tr = self.gc_trace(around, span_hint);
        if self.fault.is_full() {
            tr
        } else {
            tr.product(&self.fault)
        }
    }

    /// Builds the availability trace the GC schedule implies, anchored so
    /// that a window opens at every period boundary starting from t = 0.
    fn gc_trace(&self, around: SimTime, span_hint: Duration) -> AvailabilityTrace {
        match &self.gc {
            None => AvailabilityTrace::full(),
            Some(gc) => {
                let mut tr = AvailabilityTrace::full();
                let first_period = (around.as_secs() / gc.period.as_secs()).floor() as u32;
                let horizon = GC_HORIZON_PERIODS
                    .max((span_hint.as_secs() / gc.period.as_secs()).ceil() as u32 + 2);
                for k in first_period..first_period + horizon {
                    let start = SimTime::from_secs(f64::from(k) * gc.period.as_secs());
                    tr = tr
                        .with_change(start, gc.residual_fraction)
                        .with_change(start + gc.window, 1.0);
                }
                // Beyond the horizon, fall back to the long-run mean.
                let tail =
                    SimTime::from_secs(f64::from(first_period + horizon) * gc.period.as_secs());
                tr.with_change(tail, gc.mean_availability())
            }
        }
    }

    /// Time for an engine co-located with the flash (the CSE) to read
    /// `bytes` starting at `start`. Subject to both garbage collection and
    /// tenant contention (competing ISP tasks share the CSE-side fabric
    /// port).
    #[must_use]
    pub fn read(&self, start: SimTime, bytes: Bytes) -> Duration {
        let effective_secs = self.internal_bandwidth.transfer_time(bytes).as_secs();
        let hint = Duration::from_secs(effective_secs * 4.0 + 1.0);
        self.effective_trace(start, hint)
            .invert(start, effective_secs)
    }

    /// Time for the *host-facing controller port* to stream `bytes`
    /// starting at `start`. Garbage collection applies (the flash itself is
    /// busy) but tenant contention does not: competing ISP tasks contend on
    /// the CSE-side fabric, while external NVMe I/O keeps its own
    /// controller share.
    #[must_use]
    pub fn read_external(&self, start: SimTime, bytes: Bytes) -> Duration {
        let effective_secs = self.internal_bandwidth.transfer_time(bytes).as_secs();
        let hint = Duration::from_secs(effective_secs * 4.0 + 1.0);
        self.external_trace(start, hint)
            .invert(start, effective_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> FlashArray {
        FlashArray::new(Bandwidth::from_gb_per_sec(9.0))
    }

    #[test]
    fn read_time_without_gc_is_bytes_over_bw() {
        let fl = array();
        let t = fl.read(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gc_mean_availability() {
        let gc = GcSchedule::new(Duration::from_secs(1.0), Duration::from_secs(0.25), 0.2);
        // 75% of the time full, 25% at 0.2 => 0.75 + 0.05 = 0.8.
        assert!((gc.mean_availability() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn gc_slows_reads() {
        let mut fl = array();
        let base = fl.read(SimTime::ZERO, Bytes::from_gb_f64(18.0));
        fl.set_gc(GcSchedule::new(
            Duration::from_secs(1.0),
            Duration::from_secs(0.5),
            0.5,
        ));
        let slowed = fl.read(SimTime::ZERO, Bytes::from_gb_f64(18.0));
        assert!(slowed > base, "GC must slow reads: {slowed} vs {base}");
        // Long-run mean availability is 0.75, so expect ~base/0.75.
        let ratio = slowed.as_secs() / base.as_secs();
        assert!((ratio - 1.0 / 0.75).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn gc_window_longer_than_period_rejected() {
        let _ = GcSchedule::new(Duration::from_secs(1.0), Duration::from_secs(2.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_gc_period_rejected() {
        let _ = GcSchedule::new(Duration::ZERO, Duration::ZERO, 0.5);
    }

    #[test]
    fn tenant_contention_slows_reads_and_composes_with_gc() {
        let mut fl = array();
        fl.set_contention(AvailabilityTrace::constant(0.5));
        let t = fl.read(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!(
            (t.as_secs() - 2.0).abs() < 1e-9,
            "50% contention doubles: {t}"
        );
        fl.set_gc(GcSchedule::new(
            Duration::from_secs(1.0),
            Duration::from_secs(1.0),
            0.5,
        ));
        // GC residual 0.5 everywhere x contention 0.5 = 0.25 effective.
        let t = fl.read(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!((t.as_secs() - 4.0).abs() < 0.1, "composed: {t}");
    }

    #[test]
    fn external_port_sees_gc_but_not_tenant_contention() {
        let mut fl = array();
        fl.set_contention(AvailabilityTrace::constant(0.1));
        let internal = fl.read(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        let external = fl.read_external(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!(
            (internal.as_secs() - 10.0).abs() < 1e-6,
            "internal contended: {internal}"
        );
        assert!(
            (external.as_secs() - 1.0).abs() < 1e-6,
            "external clean: {external}"
        );
        fl.set_gc(GcSchedule::new(
            Duration::from_secs(1.0),
            Duration::from_secs(1.0),
            0.5,
        ));
        let external = fl.read_external(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!(
            (external.as_secs() - 2.0).abs() < 0.1,
            "GC applies externally: {external}"
        );
    }

    #[test]
    fn fault_burst_throttles_both_ports() {
        let mut fl = array();
        fl.set_contention(AvailabilityTrace::constant(0.5));
        fl.install_fault_trace(
            AvailabilityTrace::full()
                .with_change(SimTime::ZERO, 0.5)
                .with_change(SimTime::from_secs(1e9), 1.0),
        );
        // Internal: contention 0.5 x burst 0.5 = 0.25 effective.
        let internal = fl.read(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!((internal.as_secs() - 4.0).abs() < 1e-6, "got {internal}");
        // External: burst applies (device-internal GC), contention does not.
        let external = fl.read_external(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!((external.as_secs() - 2.0).abs() < 1e-6, "got {external}");
    }

    #[test]
    fn zero_length_gc_window_is_a_no_op() {
        let mut fl = array();
        fl.set_gc(GcSchedule::new(
            Duration::from_secs(1.0),
            Duration::ZERO,
            0.5,
        ));
        // window == 0: every with_change(start, residual) is immediately
        // overridden by with_change(start + 0, 1.0), so reads run at full
        // bandwidth.
        let t = fl.read(SimTime::ZERO, Bytes::from_gb_f64(9.0));
        assert!((t.as_secs() - 1.0).abs() < 1e-9, "got {t}");
        assert!((fl.gc.unwrap().mean_availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn read_starting_exactly_on_a_gc_boundary() {
        let mut fl = array();
        fl.set_gc(GcSchedule::new(
            Duration::from_secs(10.0),
            Duration::from_secs(5.0),
            0.1,
        ));
        // Start exactly when a window opens: the whole read is degraded.
        let t = fl.read(SimTime::from_secs(10.0), Bytes::from_gb_f64(0.9));
        assert!((t.as_secs() - 1.0).abs() < 1e-9, "got {t}");
        // Start exactly when the window closes: the read is clean.
        let t = fl.read(SimTime::from_secs(15.0), Bytes::from_gb_f64(0.9));
        assert!((t.as_secs() - 0.1).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn read_starting_inside_gc_window_is_slower() {
        let mut fl = array();
        fl.set_gc(GcSchedule::new(
            Duration::from_secs(10.0),
            Duration::from_secs(5.0),
            0.1,
        ));
        // Small read fully inside the first GC window.
        let t = fl.read(SimTime::from_secs(1.0), Bytes::from_gb_f64(0.9));
        assert!(
            (t.as_secs() - 1.0).abs() < 1e-9,
            "0.1s of work at 10% = 1s, got {t}"
        );
    }
}
