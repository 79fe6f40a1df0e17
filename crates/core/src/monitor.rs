//! Runtime monitoring of CSD code (§III-D).
//!
//! ActivePy patches status-update code at the end of every line of CSD
//! code; the host watches the reported throughput and re-estimates the
//! remaining work when either (1) the instruction throughput is
//! *decreasing*, or (2) it sits significantly below the estimated
//! throughput. The [`Monitor`] implements exactly those two triggers over
//! the throughput windows the executor measures.

use serde::Serialize;

/// Measured/expected throughput ratio below which the monitor flags
/// degradation (condition 2).
pub const DEGRADATION_THRESHOLD: f64 = 0.85;

/// Number of consecutive throughput decreases that flags degradation
/// (condition 1). It is also the hysteresis, in monitor windows, of the
/// one decision that reads the device as healthy again: a reclaim.
pub const DECREASING_STREAK: u32 = 3;

/// Exponential-moving-average factor applied to throughput windows:
/// one window moves the smoothed rate, and so the re-estimate, by 35 % of
/// its change, so a transient dip (a single garbage-collection window)
/// does not read as a permanent availability collapse.
pub const SMOOTHING: f64 = 0.35;

/// What the monitor concluded after a status update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Observation {
    /// Not enough data yet.
    Warmup,
    /// Throughput within expectations.
    Healthy,
    /// Throughput degraded; the runtime should re-estimate the remaining
    /// CSD work and consider migration.
    Degraded {
        /// Measured throughput as a fraction of the expected throughput.
        ratio: f64,
    },
}

/// Tracks CSE throughput across status updates.
#[derive(Debug, Clone, PartialEq)]
pub struct Monitor {
    expected_rate: f64,
    last_rate: Option<f64>,
    last_raw: Option<f64>,
    decreases: u32,
}

impl Monitor {
    /// Creates a monitor expecting `expected_rate` operations per second
    /// (the engine's nominal throughput as estimated at assignment time).
    #[must_use]
    pub fn new(expected_rate: f64) -> Self {
        Monitor {
            expected_rate,
            last_rate: None,
            last_raw: None,
            decreases: 0,
        }
    }

    /// Feeds one directly-measured throughput window: `ops` retired over
    /// `wall_secs` of wall-clock time *including data stalls*. This is the
    /// paper's actual signal — the expected figure is "the total amount of
    /// estimated instructions divided by estimated execution time on CSD"
    /// (§III-D), so a GC-starved data path registers as degraded IPC even
    /// while the cores' pure-compute rate is nominal. Each window is one
    /// status update's, not a cumulative average, which would dilute a
    /// sudden availability drop behind the history of healthy lines.
    pub fn observe_window(&mut self, ops: f64, wall_secs: f64) -> Observation {
        if wall_secs <= 0.0 || ops <= 0.0 {
            return Observation::Warmup;
        }
        let raw = ops / wall_secs;
        let decreasing = match self.last_raw {
            Some(prev) if raw < prev * 0.999 => {
                self.decreases += 1;
                self.decreases >= DECREASING_STREAK
            }
            Some(_) => {
                self.decreases = 0;
                false
            }
            None => false,
        };
        self.last_raw = Some(raw);
        let smoothed = match self.last_rate {
            Some(prev) => SMOOTHING * raw + (1.0 - SMOOTHING) * prev,
            None => raw,
        };
        self.last_rate = Some(smoothed);
        let ratio = smoothed / self.expected_rate;
        if ratio < DEGRADATION_THRESHOLD || decreasing {
            Observation::Degraded { ratio }
        } else {
            Observation::Healthy
        }
    }

    /// A compact deterministic snapshot of the monitor's accumulated
    /// evidence — the raw-rate reference and the decrease streak — for
    /// the execution WAL. `(last_raw.to_bits(), decreases)`; the raw
    /// reference defaults to a zero bit-pattern before the first window.
    #[must_use]
    pub fn wal_snapshot(&self) -> (u64, u32) {
        (self.last_raw.unwrap_or(0.0).to_bits(), self.decreases)
    }

    /// Re-estimates the wall-clock seconds the remaining `est_device_secs`
    /// of nominal device work will really take, given the measured
    /// throughput ("ActivePy will use the measured IPC to re-estimate the
    /// time required for the remaining tasks on CSD").
    #[must_use]
    pub fn reestimate_remaining(&self, est_device_secs: f64) -> f64 {
        match self.last_rate {
            Some(rate) if rate > 0.0 => est_device_secs * (self.expected_rate / rate),
            _ => est_device_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_at_expected_rate() {
        let mut m = Monitor::new(1e9);
        assert_eq!(m.observe_window(1e9, 1.0), Observation::Healthy);
        assert_eq!(m.last_rate, Some(1e9));
    }

    #[test]
    fn warmup_before_any_work() {
        let mut m = Monitor::new(1e9);
        assert_eq!(m.observe_window(0.0, 0.0), Observation::Warmup);
    }

    #[test]
    fn degraded_below_threshold() {
        let mut m = Monitor::new(1e9);
        // 10% of expected throughput.
        match m.observe_window(1e9, 10.0) {
            Observation::Degraded { ratio } => assert!((ratio - 0.1).abs() < 1e-9),
            other => panic!("expected degradation, got {other:?}"),
        }
    }

    #[test]
    fn decreasing_streak_triggers_even_above_threshold() {
        let mut m = Monitor::new(1e9);
        // Rates: 1.0, 0.99, 0.98, 0.97 of expected — the smoothed ratio
        // stays far above the 0.85 threshold, but the rate keeps falling.
        assert_eq!(m.observe_window(1e9, 1.0), Observation::Healthy);
        assert_eq!(m.observe_window(0.99e9, 1.0), Observation::Healthy);
        assert_eq!(m.observe_window(0.98e9, 1.0), Observation::Healthy);
        assert!(matches!(
            m.observe_window(0.97e9, 1.0),
            Observation::Degraded { .. }
        ));
    }

    #[test]
    fn the_health_bar_is_the_threshold_constant() {
        // A first window is its own smoothed rate: exactly at the bar is
        // healthy, just below it is degraded.
        assert_eq!(
            Monitor::new(1e9).observe_window(0.85e9, 1.0),
            Observation::Healthy
        );
        assert!(matches!(
            Monitor::new(1e9).observe_window(0.849e9, 1.0),
            Observation::Degraded { .. }
        ));
    }

    #[test]
    fn reestimate_scales_by_slowdown() {
        let mut m = Monitor::new(1e9);
        m.observe_window(1e8, 1.0); // measured 1e8 = 10x slower
        assert!((m.reestimate_remaining(2.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reestimate_without_measurement_is_identity() {
        let m = Monitor::new(1e9);
        assert_eq!(m.reestimate_remaining(3.0), 3.0);
    }

    #[test]
    fn observe_window_detects_data_stalls() {
        // Expected progress rate 1e9 ops/s end-to-end; a data-starved
        // window retires the same ops over 4x the wall time.
        let mut m = Monitor::new(1e9);
        assert_eq!(m.observe_window(1e8, 0.1), Observation::Healthy);
        match m.observe_window(1e8, 0.4) {
            // EMA with the default 0.35 factor: 0.35*0.25 + 0.65*1.0.
            Observation::Degraded { ratio } => assert!((ratio - 0.7375).abs() < 1e-9),
            other => panic!("expected degradation, got {other:?}"),
        }
    }

    #[test]
    fn observe_window_ignores_empty_windows() {
        let mut m = Monitor::new(1e9);
        assert_eq!(m.observe_window(0.0, 1.0), Observation::Warmup);
        assert_eq!(m.observe_window(1.0, 0.0), Observation::Warmup);
    }
}
