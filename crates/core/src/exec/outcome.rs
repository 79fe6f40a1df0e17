//! What one execution reports.

use crate::metrics::MetricsSnapshot;
use alang::LineCost;
use csd_sim::EngineKind;
use serde::Serialize;

/// What happened on one line.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LineOutcome {
    /// Line index.
    pub line: usize,
    /// Engine that executed it.
    pub engine: EngineKind,
    /// Start time, seconds.
    pub start_secs: f64,
    /// End time, seconds.
    pub end_secs: f64,
    /// Measured cost.
    pub cost: LineCost,
    /// Bytes moved across the interconnect to stage this line's inputs.
    pub staged_bytes: u64,
}

/// Why a migration was initiated (§III-D distinguishes throughput
/// degradation from preemption; device faults extend the same mechanism
/// to hardware adversity). The discriminant is the reason's one-byte tag
/// in a WAL `Migration` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[repr(u8)]
pub enum MigrationReason {
    /// The monitor observed degraded throughput and the re-estimate said
    /// finishing on the host is cheaper.
    Degraded = 0,
    /// The device signalled a high-priority request through the command
    /// pages; the task must vacate immediately.
    Preempted = 1,
    /// A hard device fault (CSE crash, or a transient fault that exhausted
    /// its retry budget): the remaining work falls back to the host from
    /// the last completed chunk-boundary checkpoint.
    DeviceFault = 2,
    /// The reverse direction: the unfinished remainder of a region a
    /// degradation broke returns to the CSD once measured availability
    /// clears again while the host works it off. Hysteresis-guarded to
    /// avoid ping-ponging.
    Reclaim = 3,
}

impl MigrationReason {
    /// The reason's one-byte WAL tag.
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Stable lowercase label — the `reason` attribute on
    /// `migration.decision` trace events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MigrationReason::Degraded => "degraded",
            MigrationReason::Preempted => "preempted",
            MigrationReason::DeviceFault => "device_fault",
            MigrationReason::Reclaim => "reclaim",
        }
    }
}

/// A migration that occurred during the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MigrationEvent {
    /// The CSD line at whose end execution broke.
    pub after_line: usize,
    /// Live state moved device-to-host, bytes.
    pub state_bytes: u64,
    /// Wall-clock time of the decision, seconds.
    pub at_secs: f64,
    /// Code-regeneration overhead paid, seconds.
    pub regen_secs: f64,
    /// What triggered the break.
    pub reason: MigrationReason,
}

/// The result of one execution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunReport {
    /// End-to-end latency in seconds.
    pub total_secs: f64,
    /// Per-line outcomes.
    pub lines: Vec<LineOutcome>,
    /// Total bytes shipped device-to-host.
    pub d2h_bytes: u64,
    /// Total bytes shipped host-to-device.
    pub h2d_bytes: u64,
    /// FNV-1a hash over every program variable's final value, in
    /// first-assignment order — the cheap "did we compute the same
    /// answer?" check the fault sweep and the chaos differential compare
    /// across faulted and fault-free runs.
    pub values_fingerprint: u64,
    /// The unified metrics block: fault, recovery, and kernel counter
    /// families in one deterministic snapshot (plan-cache counters are
    /// zero here; [`crate::plan::PlanCache`] fills them in for cached
    /// runs).
    pub metrics: MetricsSnapshot,
    /// Every migration the run performed, in decision order — including
    /// [`MigrationReason::Reclaim`] returns to the CSD.
    pub migrations: Vec<MigrationEvent>,
}

/// The last *host-ward* migration of `migrations` — the last entry that is
/// not a [`MigrationReason::Reclaim`] — if one occurred.
pub(super) fn last_host_ward(migrations: &[MigrationEvent]) -> Option<MigrationEvent> {
    migrations
        .iter()
        .rev()
        .find(|m| m.reason != MigrationReason::Reclaim)
        .copied()
}

impl RunReport {
    /// The run's last host-ward migration, if one occurred.
    #[must_use]
    pub fn migration(&self) -> Option<MigrationEvent> {
        last_host_ward(&self.migrations)
    }

    /// Total wall-clock seconds spent executing CSD lines.
    #[must_use]
    pub fn csd_busy_secs(&self) -> f64 {
        self.lines
            .iter()
            .filter(|l| l.engine == EngineKind::Cse)
            .map(|l| l.end_secs - l.start_secs)
            .sum()
    }

    /// The absolute simulated time at which the ISP task had completed
    /// `fraction` of its CSD work in this run — how the Figure 5 stress
    /// point ("right after 50 % of their progress") is computed from an
    /// uncontended reference run. When nothing ran on the CSD it is that
    /// fraction of `total_secs`.
    #[must_use]
    pub fn time_at_csd_progress(&self, fraction: f64) -> f64 {
        let fraction = fraction.clamp(0.0, 1.0);
        let total = self.csd_busy_secs();
        if total <= 0.0 {
            return self.total_secs * fraction;
        }
        let target = total * fraction;
        let mut acc = 0.0;
        for l in &self.lines {
            if l.engine != EngineKind::Cse {
                continue;
            }
            let span = l.end_secs - l.start_secs;
            if acc + span >= target {
                return l.start_secs + (target - acc);
            }
            acc += span;
        }
        self.lines.last().map_or(self.total_secs, |l| l.end_secs)
    }
}
