//! Contention scenarios used by the paper's experiments.
//!
//! Figure 2 sweeps a *constant* CSE availability from 100 % down to 10 %
//! ("we change the available CSE time"), so only the compute engine is
//! throttled. Figure 5 stresses the CSD "by executing similar workloads
//! right after each application's ISP tasks make 50 % of their progress" —
//! competing ISP tenants contend for *both* the CSE and the internal flash
//! data path, beginning mid-run. A [`ContentionScenario`] describes either
//! shape; the execution engine installs it on the affected resources.

use crate::units::SimTime;
use serde::Serialize;
use std::fmt;

/// When the contention kicks in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Trigger {
    /// Contention is present from the very start of the run.
    AtStart,
    /// Contention begins once the offloaded task reaches this fraction of
    /// its progress (line-count based; coarse).
    AtProgress(f64),
    /// Contention begins at an absolute simulated time — the precise way to
    /// express "after 50 % of the ISP work", computed from an uncontended
    /// reference run. Installed into the availability traces up front, it
    /// takes effect even mid-line.
    AtTime(SimTime),
}

/// A CSD-contention scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ContentionScenario {
    trigger: Trigger,
    fraction: f64,
    affects_storage: bool,
    /// Absolute simulated time at which the competing tenants *leave* and
    /// availability returns to 1.0. `None` (every legacy constructor) means
    /// the contention persists to the end of the run, which is what the
    /// paper's Figures 2 and 5 model.
    recover_at: Option<SimTime>,
}

impl ContentionScenario {
    /// No contention: the CSD is fully dedicated to the ISP task (the
    /// Figure 4 condition).
    #[must_use]
    pub fn none() -> Self {
        ContentionScenario {
            trigger: Trigger::AtStart,
            fraction: 1.0,
            affects_storage: false,
            recover_at: None,
        }
    }

    /// Constant CSE availability `fraction` for the whole run (Figure 2:
    /// compute time only, the data path is untouched).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn constant(fraction: f64) -> Self {
        check_fraction(fraction);
        ContentionScenario {
            trigger: Trigger::AtStart,
            fraction,
            affects_storage: false,
            recover_at: None,
        }
    }

    /// Availability drops to `fraction` once the ISP task reaches
    /// `progress` of its offloaded lines. Competing tenants are full ISP
    /// workloads, so the flash data path degrades too (Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `progress` is outside `[0, 1]` or `fraction` outside
    /// `(0, 1]`.
    #[must_use]
    pub fn after_progress(progress: f64, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&progress),
            "progress must be in [0, 1]"
        );
        check_fraction(fraction);
        ContentionScenario {
            trigger: Trigger::AtProgress(progress),
            fraction,
            affects_storage: true,
            recover_at: None,
        }
    }

    /// Availability drops to `fraction` at the absolute simulated time
    /// `at`. Like [`ContentionScenario::after_progress`], the stress is a
    /// competing ISP tenant, so storage bandwidth degrades too.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn at_time(at: SimTime, fraction: f64) -> Self {
        check_fraction(fraction);
        ContentionScenario {
            trigger: Trigger::AtTime(at),
            fraction,
            affects_storage: true,
            recover_at: None,
        }
    }

    /// Schedules the competing tenants to leave at the absolute simulated
    /// time `at`: every throttled resource returns to full availability
    /// from then on. Phase-shifting traces (drop, then recover) are how the
    /// regret experiment's phase cell exercises the reclaim.
    #[must_use]
    pub fn with_recovery_at(mut self, at: SimTime) -> Self {
        self.recover_at = Some(at);
        self
    }

    /// The absolute simulated time at which availability recovers to 1.0,
    /// if the scenario recovers at all.
    #[must_use]
    pub fn recover_at(&self) -> Option<SimTime> {
        self.recover_at
    }

    /// The availability fraction once triggered.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// The trigger condition.
    #[must_use]
    pub fn trigger(&self) -> Trigger {
        self.trigger
    }

    /// Whether the competing tenants also steal internal flash bandwidth.
    #[must_use]
    pub fn affects_storage(&self) -> bool {
        self.affects_storage
    }

    /// Whether this scenario changes anything at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        (self.fraction - 1.0).abs() < f64::EPSILON
    }

    /// Whether the scenario is active at the given task progress
    /// (`0.0..=1.0`). Time-triggered scenarios are installed up front and
    /// never activate through the progress path.
    #[must_use]
    pub fn active_at_progress(&self, progress: f64) -> bool {
        if self.is_none() {
            return false;
        }
        match self.trigger {
            Trigger::AtStart => true,
            Trigger::AtProgress(p) => progress >= p,
            Trigger::AtTime(_) => false,
        }
    }
}

fn check_fraction(fraction: f64) {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "availability fraction must be in (0, 1], got {fraction}"
    );
}

impl Default for ContentionScenario {
    fn default() -> Self {
        ContentionScenario::none()
    }
}

impl fmt::Display for ContentionScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "no contention");
        }
        let scope = if self.affects_storage {
            "CSE+flash"
        } else {
            "CSE"
        };
        match self.trigger {
            Trigger::AtStart => write!(f, "{}% {scope} from start", self.fraction * 100.0),
            Trigger::AtProgress(p) => {
                write!(
                    f,
                    "{}% {scope} after {}% progress",
                    self.fraction * 100.0,
                    p * 100.0
                )
            }
            Trigger::AtTime(t) => {
                write!(f, "{}% {scope} from t={t}", self.fraction * 100.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_activates() {
        let s = ContentionScenario::none();
        assert!(s.is_none());
        assert!(!s.active_at_progress(0.0));
        assert!(!s.active_at_progress(1.0));
        assert!(!s.affects_storage());
    }

    #[test]
    fn constant_is_active_immediately_and_compute_only() {
        let s = ContentionScenario::constant(0.4);
        assert!(s.active_at_progress(0.0));
        assert!(!s.affects_storage(), "Figure 2 throttles CSE time only");
    }

    #[test]
    fn progress_trigger_fires_at_threshold_and_hits_storage() {
        let s = ContentionScenario::after_progress(0.5, 0.1);
        assert!(!s.active_at_progress(0.49));
        assert!(s.active_at_progress(0.5));
        assert!(
            s.affects_storage(),
            "Figure 5 tenants are full ISP workloads"
        );
    }

    #[test]
    fn time_trigger_never_activates_via_progress() {
        let s = ContentionScenario::at_time(SimTime::from_secs(2.0), 0.5);
        assert!(!s.active_at_progress(1.0));
        assert!(matches!(s.trigger(), Trigger::AtTime(_)));
        assert!(s.affects_storage());
    }

    #[test]
    fn recovery_time_is_carried_and_defaults_to_none() {
        assert_eq!(ContentionScenario::none().recover_at(), None);
        assert_eq!(
            ContentionScenario::at_time(SimTime::from_secs(1.0), 0.5).recover_at(),
            None
        );
        let s = ContentionScenario::at_time(SimTime::from_secs(1.0), 0.5)
            .with_recovery_at(SimTime::from_secs(3.0));
        assert_eq!(s.recover_at(), Some(SimTime::from_secs(3.0)));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_rejected() {
        let _ = ContentionScenario::constant(0.0);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(format!("{}", ContentionScenario::none()), "no contention");
        assert!(format!("{}", ContentionScenario::constant(0.5)).contains("50"));
        assert!(format!("{}", ContentionScenario::after_progress(0.5, 0.1)).contains("flash"));
        assert!(format!(
            "{}",
            ContentionScenario::at_time(SimTime::from_secs(1.0), 0.5)
        )
        .contains("t="));
    }
}
