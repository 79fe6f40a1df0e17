//! The unified per-run metrics snapshot.
//!
//! [`MetricsSnapshot`] folds the three counter families a run fills — the
//! fault injector's [`FaultCounters`], the recovery layer's
//! [`RecoveryStats`] and the kernel engine's [`ParStatsSnapshot`] — into
//! one struct with a stable serialized field order (declaration order
//! below), so a run report carries a single metrics block. Every field is
//! deterministic for a fixed seed and policy.

use crate::recovery::RecoveryStats;
use alang::ParStatsSnapshot;
use csd_sim::fault::FaultCounters;
use isp_obs::Tracer;
use serde::Serialize;

/// One deterministic snapshot of every counter family a run fills.
///
/// Serialized field order is the declaration order and is part of the
/// repro's byte-stability contract (golden journals diff this block).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Injection totals from the simulator's fault injector.
    pub faults: FaultCounters,
    /// What the recovery layer absorbed.
    pub recovery: RecoveryStats,
    /// Deterministic kernel-engine counters (chunk grid only).
    pub par: ParStatsSnapshot,
}

impl MetricsSnapshot {
    /// The snapshot's publishable counter families as `(name, value)`
    /// rows, in the unified registry namespaces and stable declaration
    /// order — the one fold both consumers share (tracer publication
    /// here, the timeline footer in [`crate::report`]), so a new family is
    /// added in exactly one place.
    ///
    /// `plan_cache.*` and `kernel.*` stream live at their sources and
    /// `audit.*` is published by
    /// [`crate::audit::CalibrationReport::publish_to`], so all three are
    /// deliberately absent.
    #[must_use]
    pub fn counter_families(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("fault.flash_read_errors", self.faults.flash_read_errors),
            ("fault.nvme_command_errors", self.faults.nvme_command_errors),
            ("fault.dma_transfer_errors", self.faults.dma_transfer_errors),
            ("fault.cse_crashes", self.faults.cse_crashes),
            ("recovery.transient_faults", self.recovery.transient_faults),
            ("recovery.retries", self.recovery.retries),
            ("recovery.recovered_ops", self.recovery.recovered_ops),
            ("recovery.hard_faults", self.recovery.hard_faults),
            ("recovery.fault_migrations", self.recovery.fault_migrations),
            // Simulated seconds, scaled to whole microseconds so the
            // counter stays integral and deterministic.
            (
                "recovery.backoff_us",
                (self.recovery.backoff_secs * 1e6).round() as u64,
            ),
        ]
    }

    /// Publishes the fault and recovery counters into `tracer`'s registry
    /// under the unified `fault.*` / `recovery.*` namespaces — one walk
    /// over [`MetricsSnapshot::counter_families`].
    /// The other two families stream live at their source —
    /// `plan_cache.*` from [`crate::plan::PlanCache::plan_for`] and
    /// `kernel.*` from the engine's chunked path — so they are not
    /// re-published here.
    pub fn publish_to(&self, tracer: &Tracer) {
        if !tracer.is_enabled() {
            return;
        }
        for (name, value) in self.counter_families() {
            tracer.counter_add(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_snapshot_is_all_zero() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.faults, FaultCounters::default());
        assert_eq!(snap.recovery, RecoveryStats::default());
        assert_eq!(snap.par, ParStatsSnapshot::default());
    }

    #[test]
    fn serialized_field_order_is_stable() {
        // The golden-journal contract: field order is declaration order.
        let json = serde_json::to_string(&MetricsSnapshot::default()).expect("serialize");
        let keys: Vec<usize> = ["faults", "recovery", "par"]
            .iter()
            .map(|k| json.find(&format!("\"{k}\"")).expect("key present"))
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "order drifted: {json}"
        );
    }

    #[test]
    fn publish_lands_in_the_unified_namespace() {
        let (tracer, _sink) = Tracer::to_memory();
        let snap = MetricsSnapshot {
            recovery: RecoveryStats {
                transient_faults: 3,
                retries: 2,
                recovered_ops: 1,
                hard_faults: 0,
                fault_migrations: 0,
                backoff_secs: 6e-4,
            },
            ..MetricsSnapshot::default()
        };
        snap.publish_to(&tracer);
        let reg = tracer.metrics_snapshot().expect("enabled");
        assert_eq!(reg.counter("recovery.transient_faults"), Some(3));
        assert_eq!(reg.counter("recovery.backoff_us"), Some(600));
        assert_eq!(reg.counter("fault.cse_crashes"), Some(0));
        assert_eq!(reg.counter("audit.lines"), None);
        // Disabled tracers swallow everything for free.
        MetricsSnapshot::default().publish_to(&Tracer::disabled());
    }

    #[test]
    fn counter_families_cover_every_published_name_once() {
        let families = MetricsSnapshot::default().counter_families();
        let mut names: Vec<&str> = families.iter().map(|(n, _)| *n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate family name");
        for prefix in ["fault.", "recovery."] {
            assert!(
                families.iter().any(|(n, _)| n.starts_with(prefix)),
                "missing family prefix {prefix}"
            );
        }
    }
}
