//! The unified per-run metrics snapshot.
//!
//! Four counter structs used to travel separately: the plan cache's
//! hit/miss pair, the fault injector's [`FaultCounters`], the recovery
//! layer's [`RecoveryStats`], and the kernel engine's
//! [`ParStatsSnapshot`]. [`MetricsSnapshot`] folds them into one struct
//! with a stable serialized field order (declaration order below), so a
//! run report carries a single metrics block instead of scattered
//! accessors.
//!
//! Every field is deterministic for a fixed seed and policy. The kernel
//! engine's scheduling-dependent `stolen_chunks` is deliberately excluded:
//! it stays reachable through [`alang::ParEngine::nondet`], keeping
//! snapshot equality meaningful across repeated same-seed runs.

use crate::recovery::RecoveryStats;
use alang::ParStatsSnapshot;
use csd_sim::fault::FaultCounters;
use isp_obs::Tracer;
use serde::Serialize;

/// Deterministic audit-layer accumulators: how many lines a calibration
/// pass joined, how many counterfactual placement flips it found, and
/// the mean absolute relative time error (integral parts per million so
/// snapshot equality stays exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct AuditStats {
    /// Lines joined by [`crate::audit::calibrate`] (0 for unaudited runs).
    pub lines_audited: u64,
    /// Counterfactual Algorithm-1 flips detected.
    pub counterfactual_flips: u64,
    /// Mean absolute relative time error, parts per million.
    pub mean_abs_err_ppm: u64,
}

/// One deterministic snapshot of every counter family a run touches.
///
/// Serialized field order is the declaration order and is part of the
/// repro's byte-stability contract (golden journals diff this block).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Plan-cache lookups satisfied from the cache (0 for uncached runs).
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that had to build a plan (0 for uncached runs).
    pub plan_cache_misses: u64,
    /// Injection totals from the simulator's fault injector.
    pub faults: FaultCounters,
    /// What the recovery layer absorbed.
    pub recovery: RecoveryStats,
    /// Deterministic kernel-engine counters (chunk grid only).
    pub par: ParStatsSnapshot,
    /// Cached plans refitted from a newer measured profile (0 for
    /// uncached runs). Appended after `par` so the serialized prefix the
    /// golden journals predate is unchanged.
    pub plan_cache_refits: u64,
    /// Calibration-audit accumulators (all zero for unaudited runs).
    /// Appended after `plan_cache_refits`, same stable-prefix contract.
    pub audit: AuditStats,
}

impl MetricsSnapshot {
    /// Folds a calibration report's aggregates into the snapshot.
    #[must_use]
    pub fn with_audit(mut self, report: &crate::audit::CalibrationReport) -> Self {
        self.audit.lines_audited = report.lines.len() as u64;
        self.audit.counterfactual_flips = report.flips.len() as u64;
        self.audit.mean_abs_err_ppm = (report.mean_abs_rel_err() * 1e6).round() as u64;
        self
    }

    /// The snapshot's publishable counter families as `(name, value)`
    /// rows, in the unified registry namespaces and stable declaration
    /// order — the one fold every consumer shares (tracer publication
    /// here, the timeline footer in [`crate::report`], exporter gauges in
    /// the bench layer), so a new family is added in exactly one place.
    ///
    /// `plan_cache.*` and `kernel.*` stream live at their sources and are
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
            ("audit.lines_audited", self.audit.lines_audited),
            (
                "audit.counterfactual_flips",
                self.audit.counterfactual_flips,
            ),
            ("audit.mean_abs_err_ppm", self.audit.mean_abs_err_ppm),
        ]
    }

    /// Publishes the fault, recovery, and audit counters into `tracer`'s
    /// registry under the unified `fault.*` / `recovery.*` / `audit.*`
    /// namespaces — one walk over [`MetricsSnapshot::counter_families`].
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
        assert_eq!(snap.plan_cache_hits, 0);
        assert_eq!(snap.faults, FaultCounters::default());
        assert_eq!(snap.recovery, RecoveryStats::default());
        assert_eq!(snap.par, ParStatsSnapshot::default());
    }

    #[test]
    fn serialized_field_order_is_stable() {
        // The golden-journal contract: field order is declaration order.
        let json = serde_json::to_string(&MetricsSnapshot::default()).expect("serialize");
        let keys: Vec<usize> = [
            "plan_cache_hits",
            "plan_cache_misses",
            "faults",
            "recovery",
            "par",
            "plan_cache_refits",
            "audit",
        ]
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
        assert_eq!(reg.counter("audit.lines_audited"), Some(0));
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
        for prefix in ["fault.", "recovery.", "audit."] {
            assert!(
                families.iter().any(|(n, _)| n.starts_with(prefix)),
                "missing family prefix {prefix}"
            );
        }
    }
}
