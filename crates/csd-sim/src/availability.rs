//! Piecewise-constant availability traces.
//!
//! The paper's key system dynamic (§II-B3, Figures 2 and 5) is that the
//! computational storage engine (CSE) is not always fully available to the
//! in-storage-processing (ISP) task: other applications, or the device's own
//! storage-management workloads (garbage collection), steal cycles. An
//! [`AvailabilityTrace`] describes the fraction of a resource's nominal
//! throughput that the ISP task receives as a piecewise-constant function of
//! simulated time.
//!
//! The trace supports exact closed-form integration, so the engine model can
//! answer "starting at time `t`, when have `n` operations retired?" without
//! time-stepping.

use crate::units::{Duration, SimTime};
use serde::Serialize;

/// One constant-availability segment, from [`Segment::start`] until the next
/// segment's start (the last segment extends to infinity).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Segment {
    /// Time at which this availability level begins.
    pub start: SimTime,
    /// Fraction of nominal throughput in `(0, 1]` delivered from `start`.
    pub fraction: f64,
}

/// A piecewise-constant availability function of time.
///
/// ```
/// use csd_sim::availability::AvailabilityTrace;
/// use csd_sim::units::SimTime;
///
/// let tr = AvailabilityTrace::full()
///     .with_change(SimTime::from_secs(10.0), 0.5);
/// assert_eq!(tr.fraction_at(SimTime::from_secs(5.0)), 1.0);
/// assert_eq!(tr.fraction_at(SimTime::from_secs(12.0)), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AvailabilityTrace {
    segments: Vec<Segment>,
}

impl AvailabilityTrace {
    /// Minimum representable availability. Requests for lower fractions are
    /// clamped so that work always eventually completes (a fully-starved
    /// resource would deadlock the simulation).
    pub const MIN_FRACTION: f64 = 1e-6;

    /// A trace that delivers full throughput forever.
    #[must_use]
    pub fn full() -> Self {
        AvailabilityTrace {
            segments: vec![Segment {
                start: SimTime::ZERO,
                fraction: 1.0,
            }],
        }
    }

    /// Whether this is the trivial full-throughput trace (one segment at
    /// fraction 1.0) — lets hot paths skip composing it in.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.segments.len() == 1 && self.segments[0].fraction == 1.0
    }

    /// A trace with a single constant fraction forever.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not finite or not positive.
    #[must_use]
    pub fn constant(fraction: f64) -> Self {
        AvailabilityTrace {
            segments: vec![Segment {
                start: SimTime::ZERO,
                fraction: clamp_fraction(fraction),
            }],
        }
    }

    /// Returns a copy of this trace with the availability changed to
    /// `fraction` from time `at` onward (later changes already present after
    /// `at` are removed).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not finite or not positive.
    #[must_use]
    pub fn with_change(mut self, at: SimTime, fraction: f64) -> Self {
        let fraction = clamp_fraction(fraction);
        self.segments.retain(|s| s.start < at);
        self.segments.push(Segment {
            start: at,
            fraction,
        });
        self
    }

    /// The availability fraction in effect at time `t`.
    #[must_use]
    pub fn fraction_at(&self, t: SimTime) -> f64 {
        let mut current = self.segments[0].fraction;
        for seg in &self.segments {
            if seg.start <= t {
                current = seg.fraction;
            } else {
                break;
            }
        }
        current
    }

    /// Integrates availability over `[start, start + duration]`, returning
    /// "effective seconds" of full-rate service received.
    #[must_use]
    pub fn integrate(&self, start: SimTime, duration: Duration) -> f64 {
        if duration.is_zero() {
            return 0.0;
        }
        let end = start + duration;
        let mut acc = 0.0;
        let mut t = start;
        while t < end {
            let frac = self.fraction_at(t);
            let seg_end = self.next_change_after(t).map_or(end, |c| c.min(end));
            acc += frac * seg_end.duration_since(t).as_secs();
            t = seg_end;
        }
        acc
    }

    /// Computes the wall-clock duration needed, starting at `start`, to
    /// accumulate `effective_secs` of full-rate service.
    ///
    /// This is the inverse of [`AvailabilityTrace::integrate`] and is exact
    /// for piecewise-constant traces.
    ///
    /// # Panics
    ///
    /// Panics if `effective_secs` is negative or not finite.
    #[must_use]
    pub fn invert(&self, start: SimTime, effective_secs: f64) -> Duration {
        assert!(
            effective_secs.is_finite() && effective_secs >= 0.0,
            "effective seconds must be non-negative"
        );
        if effective_secs == 0.0 {
            return Duration::ZERO;
        }
        let mut remaining = effective_secs;
        let mut t = start;
        loop {
            let frac = self.fraction_at(t);
            match self.next_change_after(t) {
                Some(change) => {
                    let span = change.duration_since(t).as_secs();
                    let capacity = frac * span;
                    if capacity >= remaining {
                        return (t + Duration::from_secs(remaining / frac)).duration_since(start);
                    }
                    remaining -= capacity;
                    t = change;
                }
                None => {
                    return (t + Duration::from_secs(remaining / frac)).duration_since(start);
                }
            }
        }
    }

    /// The first availability change strictly after time `t`, if any.
    #[must_use]
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        self.segments.iter().map(|s| s.start).find(|&s| s > t)
    }

    /// The pointwise product of two traces — two independent throughput
    /// thieves (e.g. garbage collection and a competing tenant) compose
    /// multiplicatively.
    #[must_use]
    pub fn product(&self, other: &AvailabilityTrace) -> AvailabilityTrace {
        let mut boundaries: Vec<SimTime> = self
            .segments
            .iter()
            .chain(other.segments.iter())
            .map(|s| s.start)
            .collect();
        boundaries.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        boundaries.dedup();
        let segments = boundaries
            .into_iter()
            .map(|start| Segment {
                start,
                fraction: (self.fraction_at(start) * other.fraction_at(start))
                    .max(Self::MIN_FRACTION),
            })
            .collect();
        AvailabilityTrace { segments }
    }
}

impl Default for AvailabilityTrace {
    fn default() -> Self {
        AvailabilityTrace::full()
    }
}

fn clamp_fraction(fraction: f64) -> f64 {
    assert!(
        fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
        "availability fraction must be in (0, 1], got {fraction}"
    );
    fraction.max(AvailabilityTrace::MIN_FRACTION)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_trace_is_identity() {
        let tr = AvailabilityTrace::full();
        assert_eq!(tr.fraction_at(SimTime::from_secs(1e6)), 1.0);
        let d = Duration::from_secs(7.0);
        assert!((tr.integrate(SimTime::ZERO, d) - 7.0).abs() < 1e-12);
        assert!((tr.invert(SimTime::ZERO, 7.0).as_secs() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn constant_half_doubles_time() {
        let tr = AvailabilityTrace::constant(0.5);
        let need = 3.0;
        let wall = tr.invert(SimTime::ZERO, need);
        assert!((wall.as_secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn change_mid_run_splits_correctly() {
        // Full speed for 2s, then 10% afterward.
        let tr = AvailabilityTrace::full().with_change(SimTime::from_secs(2.0), 0.1);
        // 5 effective seconds: 2 at full rate + 3 more at 0.1 => 2 + 30 = 32 wall.
        let wall = tr.invert(SimTime::ZERO, 5.0);
        assert!(
            (wall.as_secs() - 32.0).abs() < 1e-9,
            "got {}",
            wall.as_secs()
        );
        // And integration round-trips.
        let eff = tr.integrate(SimTime::ZERO, wall);
        assert!((eff - 5.0).abs() < 1e-9);
    }

    #[test]
    fn invert_starting_inside_degraded_segment() {
        let tr = AvailabilityTrace::full().with_change(SimTime::from_secs(1.0), 0.25);
        let wall = tr.invert(SimTime::from_secs(2.0), 1.0);
        assert!((wall.as_secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn with_change_overrides_later_segments() {
        let tr = AvailabilityTrace::full()
            .with_change(SimTime::from_secs(5.0), 0.5)
            .with_change(SimTime::from_secs(3.0), 0.2);
        assert_eq!(tr.fraction_at(SimTime::from_secs(4.0)), 0.2);
        // The 5.0s change was dropped because 3.0 < 5.0 rewrites the tail.
        assert_eq!(tr.fraction_at(SimTime::from_secs(10.0)), 0.2);
    }

    #[test]
    fn next_change_after_finds_boundaries() {
        let tr = AvailabilityTrace::full().with_change(SimTime::from_secs(4.0), 0.5);
        assert_eq!(
            tr.next_change_after(SimTime::ZERO),
            Some(SimTime::from_secs(4.0))
        );
        assert_eq!(tr.next_change_after(SimTime::from_secs(4.0)), None);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_zero_fraction() {
        let _ = AvailabilityTrace::constant(0.0);
    }

    #[test]
    fn product_composes_multiplicatively() {
        let a = AvailabilityTrace::full().with_change(SimTime::from_secs(2.0), 0.5);
        let b = AvailabilityTrace::constant(0.8).with_change(SimTime::from_secs(3.0), 0.25);
        let p = a.product(&b);
        assert!((p.fraction_at(SimTime::from_secs(1.0)) - 0.8).abs() < 1e-12);
        assert!((p.fraction_at(SimTime::from_secs(2.5)) - 0.4).abs() < 1e-12);
        assert!((p.fraction_at(SimTime::from_secs(5.0)) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn is_full_only_for_the_trivial_trace() {
        assert!(AvailabilityTrace::full().is_full());
        assert!(!AvailabilityTrace::constant(0.5).is_full());
        assert!(!AvailabilityTrace::full()
            .with_change(SimTime::from_secs(1.0), 0.5)
            .is_full());
        assert!(AvailabilityTrace::full()
            .product(&AvailabilityTrace::full())
            .is_full());
    }

    #[test]
    fn overlapping_with_change_at_identical_times_last_wins() {
        // Two changes at exactly the same instant: the retain(start < at)
        // in with_change drops the earlier one, so the last call wins and
        // no duplicate segment survives.
        let tr = AvailabilityTrace::full()
            .with_change(SimTime::from_secs(2.0), 0.5)
            .with_change(SimTime::from_secs(2.0), 0.25);
        assert_eq!(tr.segments.len(), 2);
        assert_eq!(tr.fraction_at(SimTime::from_secs(2.0)), 0.25);
        assert_eq!(tr.fraction_at(SimTime::from_secs(3.0)), 0.25);
    }

    #[test]
    fn queries_landing_exactly_on_a_boundary() {
        let tr = AvailabilityTrace::full().with_change(SimTime::from_secs(2.0), 0.5);
        // The boundary instant belongs to the new segment.
        assert_eq!(tr.fraction_at(SimTime::from_secs(2.0)), 0.5);
        // Integration starting exactly at the boundary sees only the new
        // fraction...
        let eff = tr.integrate(SimTime::from_secs(2.0), Duration::from_secs(4.0));
        assert!((eff - 2.0).abs() < 1e-12);
        // ...and inversion from the boundary is its exact inverse.
        let wall = tr.invert(SimTime::from_secs(2.0), 2.0);
        assert!((wall.as_secs() - 4.0).abs() < 1e-12);
        // Integration *ending* exactly on the boundary never touches the
        // degraded segment.
        let eff = tr.integrate(SimTime::ZERO, Duration::from_secs(2.0));
        assert!((eff - 2.0).abs() < 1e-12);
    }

    #[test]
    fn product_across_the_min_fraction_floor_clamps() {
        let tiny = AvailabilityTrace::constant(1e-4);
        let p = tiny.product(&tiny); // raw 1e-8 < MIN_FRACTION
        assert_eq!(
            p.fraction_at(SimTime::ZERO),
            AvailabilityTrace::MIN_FRACTION
        );
        // The floor keeps the trace invertible: work still completes.
        let wall = p.invert(SimTime::ZERO, 1e-6);
        assert!(wall.as_secs().is_finite());
        assert!((wall.as_secs() - 1.0).abs() < 1e-9, "1e-6 eff / 1e-6 frac");
    }

    #[test]
    fn constant_below_the_floor_clamps() {
        let tr = AvailabilityTrace::constant(1e-9);
        assert_eq!(
            tr.fraction_at(SimTime::ZERO),
            AvailabilityTrace::MIN_FRACTION
        );
    }

    #[test]
    fn integrate_invert_round_trip_multi_segment() {
        let tr = AvailabilityTrace::full()
            .with_change(SimTime::from_secs(1.0), 0.3)
            .with_change(SimTime::from_secs(2.5), 0.9)
            .with_change(SimTime::from_secs(7.0), 0.05);
        for eff in [0.1, 0.9, 1.4, 3.0, 10.0] {
            let wall = tr.invert(SimTime::from_secs(0.5), eff);
            let back = tr.integrate(SimTime::from_secs(0.5), wall);
            assert!((back - eff).abs() < 1e-9, "eff={eff} back={back}");
        }
    }
}
