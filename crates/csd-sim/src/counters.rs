//! Performance counters.
//!
//! ActivePy consults device performance counters twice: once during
//! calibration ("querying the CSD's performance counters, e.g. retired
//! instructions per cycle", §III-A) and continuously during runtime
//! monitoring ("ActivePy detects the second case by checking the throughput
//! of the CSD code", §III-D). [`PerfCounters`] accumulates retired
//! operations and wall-clock busy time so both uses can compute the
//! achieved throughput.

use crate::units::{Duration, Ops};
use serde::Serialize;

/// Accumulated performance counters for one compute engine.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PerfCounters {
    retired: Ops,
    busy: Duration,
}

impl PerfCounters {
    /// Fresh counters with nothing retired.
    #[must_use]
    pub fn new() -> Self {
        PerfCounters::default()
    }

    /// Records `ops` retired over `wall` of wall-clock time.
    pub fn record(&mut self, ops: Ops, wall: Duration) {
        self.retired += ops;
        self.busy += wall;
    }

    /// Achieved throughput in operations per second of wall-clock time, or
    /// `None` if nothing has executed yet.
    ///
    /// On a contended engine this falls below the nominal rate in proportion
    /// to the availability the task actually received — exactly the signal
    /// the paper's monitor keys on.
    #[must_use]
    pub fn achieved_rate(&self) -> Option<f64> {
        if self.busy.is_zero() {
            None
        } else {
            Some(self.retired.as_f64() / self.busy.as_secs())
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&mut self) {
        *self = PerfCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_counters_have_no_rate() {
        assert_eq!(PerfCounters::new().achieved_rate(), None);
    }

    #[test]
    fn achieved_rate_is_ops_over_wall() {
        let mut c = PerfCounters::new();
        c.record(Ops::new(1_000_000), Duration::from_secs(0.5));
        assert!((c.achieved_rate().expect("rate") - 2e6).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = PerfCounters::new();
        c.record(Ops::new(5), Duration::from_secs(1.0));
        c.reset();
        assert_eq!(c, PerfCounters::default());
    }
}
