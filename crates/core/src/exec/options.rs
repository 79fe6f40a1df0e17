//! What one execution is configured with, checked at the door.

use crate::error::{ActivePyError, Result};
use alang::{CostParams, ExecTier, ParallelPolicy};
use csd_sim::contention::ContentionScenario;
use csd_sim::fault::FaultPlan;
use isp_obs::Tracer;

/// Options controlling one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// The code tier both partitions run at.
    pub tier: ExecTier,
    /// Cost-model constants.
    pub params: CostParams,
    /// CSE contention applied during the run.
    pub scenario: ContentionScenario,
    /// Whether the §III-D monitor watches CSD regions and migrates work;
    /// `false` disables migration (the static frameworks of Figures 2 and
    /// 5). Its triggers are the constants in [`crate::monitor`].
    pub monitor: bool,
    /// Simulated time at which the CSD must preempt the ISP task for a
    /// high-priority request (§III-D, case 1): the status-update code sees
    /// the request at the first chunk boundary at or after this time, and
    /// the task migrates unconditionally.
    pub preempt_at: Option<f64>,
    /// The deterministic fault plan injected into the simulator for this
    /// run; [`FaultPlan::none`] (the default) injects nothing.
    pub faults: FaultPlan,
    /// How builtin kernels execute on the repro host: chunked across a
    /// worker pool (`threads > 1`) or serially (the default). Execution-only
    /// — values, [`LineCost`](alang::LineCost) records, and
    /// `values_fingerprint` are identical for every valid policy, so plans
    /// cached under one policy replay under any other.
    pub parallel: ParallelPolicy,
    /// Trace recording handle. Disabled by default; when enabled, the run
    /// records dual-clock spans for regions, chunks, host lines, monitor
    /// windows, migration decisions, faults, and recovery backoffs.
    /// Observation-only: a live tracer never perturbs the simulated clock,
    /// `values_fingerprint`, or any [`RunReport`](super::RunReport) field.
    pub tracer: Tracer,
    /// Measured-cost recording handle. Disabled by default; when enabled,
    /// the run appends its per-line measured [`LineCost`](alang::LineCost)s
    /// to the attached [`crate::profile::ProfileStore`] after the report is
    /// assembled. Observation-only, like the tracer: recording never
    /// perturbs the simulated clock, `values_fingerprint`, or any
    /// [`RunReport`](super::RunReport) field.
    pub profile: crate::profile::ProfileRecorder,
    /// Crash-consistent journal handle. Disabled by default; when enabled,
    /// the run appends one checksummed WAL record per execution boundary
    /// (run start/end, host line, region chunk, migration, reclaim) — or,
    /// when resuming, verifies each boundary against the recovered log.
    /// Like the tracer, a live journal never perturbs the simulated
    /// clock, `values_fingerprint`, or any [`RunReport`](super::RunReport)
    /// field.
    pub journal: crate::resume::ExecJournal,
}

/// ActivePy's own execution, [`ExecOptions::activepy`].
impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::activepy()
    }
}

impl ExecOptions {
    /// ActivePy's own execution: generated copy-eliminated code, default
    /// monitoring, no contention.
    #[must_use]
    pub fn activepy() -> Self {
        ExecOptions {
            tier: ExecTier::CompiledCopyElim,
            params: CostParams::paper_default(),
            scenario: ContentionScenario::none(),
            monitor: true,
            preempt_at: None,
            faults: FaultPlan::none(),
            parallel: ParallelPolicy::default(),
            tracer: Tracer::disabled(),
            profile: crate::profile::ProfileRecorder::disabled(),
            journal: crate::resume::ExecJournal::disabled(),
        }
    }

    /// A hand-written C framework: native code, no monitoring.
    #[must_use]
    pub fn native_static() -> Self {
        ExecOptions {
            tier: ExecTier::Native,
            monitor: false,
            ..ExecOptions::activepy()
        }
    }

    /// Replaces the contention scenario.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ContentionScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Disables task migration.
    #[must_use]
    pub fn without_migration(mut self) -> Self {
        self.monitor = false;
        self
    }

    /// Schedules a high-priority preemption at `at_secs`.
    #[must_use]
    pub fn with_preemption_at(mut self, at_secs: f64) -> Self {
        self.preempt_at = Some(at_secs);
        self
    }

    /// Installs a deterministic fault plan for the run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the data-parallel kernel policy. Validated at the door like
    /// every other policy; see [`ParallelPolicy::validate`].
    #[must_use]
    pub fn with_parallelism(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches a trace recording handle to the run.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a measured-cost recording handle to the run.
    #[must_use]
    pub fn with_profile(mut self, profile: crate::profile::ProfileRecorder) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches a crash-consistent journal handle to the run.
    #[must_use]
    pub fn with_journal(mut self, journal: crate::resume::ExecJournal) -> Self {
        self.journal = journal;
        self
    }

    /// Checks every policy. [`evaluate`](super::evaluate) and
    /// [`simulate`](super::simulate) call this before doing anything: a bad
    /// policy is a configuration error at the door, not a silent clamp
    /// mid-run.
    ///
    /// # Errors
    ///
    /// Returns the first invalid policy as a configuration error.
    pub fn validate(&self) -> Result<()> {
        // A NaN preemption time compares false against every clock value
        // and would never fire; a NaN or negative cost constant rounds
        // every line's effective ops to zero.
        for (name, value) in [
            ("preempt_at", self.preempt_at.unwrap_or(0.0)),
            ("params.copy_ops_per_byte", self.params.copy_ops_per_byte),
            ("params.dispatch_overhead", self.params.dispatch_overhead),
            ("params.scan_ops_per_byte", self.params.scan_ops_per_byte),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ActivePyError::config(format!(
                    "{name} must be finite and non-negative, got {value}"
                )));
            }
        }
        self.faults.validate().map_err(ActivePyError::config)?;
        self.parallel.validate().map_err(ActivePyError::config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::*;
    use crate::exec::*;
    use alang::parser::parse;
    use csd_sim::SystemConfig;

    #[test]
    fn invalid_policies_are_config_errors_at_the_door() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let pl = placements(&[], 4);
        let mut bad_faults = ExecOptions::activepy();
        bad_faults.faults.flash_read_error_prob = 2.0;
        let mut bad_parallel = ExecOptions::activepy();
        bad_parallel.parallel.threads = 0;
        let bad_preempt = ExecOptions::activepy().with_preemption_at(f64::NAN);
        let mut bad_params = ExecOptions::activepy();
        bad_params.params.scan_ops_per_byte = -0.5;
        for opts in [bad_faults, bad_parallel, bad_preempt, bad_params] {
            let mut sys = SystemConfig::paper_default().build();
            let e = execute(&program, &st, &pl, &mut sys, &opts, None, &[]).unwrap_err();
            assert!(matches!(e, ActivePyError::Config { .. }), "got {e}");
        }
    }
}
