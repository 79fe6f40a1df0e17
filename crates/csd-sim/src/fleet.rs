//! A fleet of computational storage devices behind one host.
//!
//! The paper's prototype is a single CSD; "A Moveable Beast" and the
//! computational-storage surveys argue the interesting planning problem
//! appears when data spans *N* devices. [`Fleet`] models that minimal
//! scale-out platform: N independent [`System`]s — each with its own
//! clock, flash, DMA byte counts, contention traces, and
//! [`crate::fault::FaultInjector`] — attached to one host whose PCIe root
//! complex has a finite aggregate budget. Per-device surfaces are fully
//! isolated (a GC burst or crash on shard 3 is invisible to shard 5); the
//! only shared resource is the host-side link budget, which caps how fast
//! the gather phase can pull shard results in concurrently.
//!
//! The timing rule for a concurrent gather of `b_s` bytes from each
//! shard is the classic max of per-link and aggregate bottlenecks:
//!
//! ```text
//! gather_secs = max( max_s b_s / BW_link , Σ_s b_s / BW_budget )
//! ```
//!
//! and the effective per-shard bandwidth seen by a planner that assumes
//! all N shards stream at once is `min(BW_link, BW_budget / N)` — the
//! shared-link term of the shard-aware Eq. 1, which the planner computes
//! from the same two figures.

use crate::config::SystemConfig;
use crate::system::System;
use crate::units::Bandwidth;

/// How many per-device links the host root complex can sustain at full
/// rate concurrently (a PCIe x16 root port over x4 device links).
pub const DEFAULT_BUDGET_LINKS: f64 = 4.0;

/// N independent CSDs sharing one host PCIe budget.
#[derive(Debug)]
pub struct Fleet {
    devices: Vec<System>,
    link: Bandwidth,
    budget: Bandwidth,
}

impl Fleet {
    /// Builds a fleet of `n` identical devices from `config`, with the
    /// default host budget of [`DEFAULT_BUDGET_LINKS`] device links.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(config: &SystemConfig, n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one device");
        let link = config.d2h_bandwidth();
        Fleet {
            devices: (0..n).map(|_| config.build()).collect(),
            link,
            budget: link.scale(DEFAULT_BUDGET_LINKS),
        }
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Mutable access to device `s` (how the executor runs one shard).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn device_mut(&mut self, s: usize) -> &mut System {
        &mut self.devices[s]
    }

    /// Seconds a concurrent gather of `per_shard_bytes[s]` from every
    /// shard takes: per-device links run in parallel, capped by the
    /// shared budget.
    #[must_use]
    pub fn gather_secs(&self, per_shard_bytes: &[u64]) -> f64 {
        let link = self.link.as_bytes_per_sec();
        let budget = self.budget.as_bytes_per_sec();
        let slowest = per_shard_bytes
            .iter()
            .map(|b| *b as f64 / link)
            .fold(0.0f64, f64::max);
        let aggregate = per_shard_bytes.iter().map(|b| *b as f64).sum::<f64>() / budget;
        slowest.max(aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use crate::units::SimTime;

    #[test]
    fn gather_is_max_of_link_and_budget_bottlenecks() {
        let cfg = SystemConfig::paper_default();
        let fleet = Fleet::new(&cfg, 8);
        let link = cfg.d2h_bandwidth().as_bytes_per_sec();
        let budget = DEFAULT_BUDGET_LINKS * link;
        // One busy shard: link-bound.
        let one = vec![1_000_000_000u64, 0, 0, 0, 0, 0, 0, 0];
        assert!((fleet.gather_secs(&one) - 1e9 / link).abs() < 1e-9);
        // All shards equally busy: aggregate-bound (8 links vs 4-link budget).
        let all = vec![1_000_000_000u64; 8];
        assert!((fleet.gather_secs(&all) - 8e9 / budget).abs() < 1e-9);
        // Empty gather is free.
        assert_eq!(fleet.gather_secs(&[0; 8]), 0.0);
    }

    #[test]
    fn devices_are_independent_surfaces() {
        let cfg = SystemConfig::paper_default();
        let mut fleet = Fleet::new(&cfg, 2);
        fleet
            .device_mut(0)
            .install_faults(FaultPlan::none().with_crash_at(SimTime::from_secs(0.0)));
        // Crash device 0 by computing past the crash point.
        let _ = fleet
            .device_mut(0)
            .try_compute(crate::EngineKind::Cse, crate::units::Ops::new(1_000));
        let crashed = |s: usize| {
            fleet.devices[s]
                .faults()
                .is_some_and(FaultInjector::crashed)
        };
        assert!(crashed(0));
        assert!(!crashed(1), "shard 1 must be unaffected");
        let crashes = |s: usize| fleet.devices[s].fault_counters().cse_crashes;
        assert_eq!((crashes(0), crashes(1)), (1, 0));
    }
}
