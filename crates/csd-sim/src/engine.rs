//! Compute engines: the host CPU and the computational storage engine (CSE).
//!
//! Both engines are modelled as aggregate operation servers: `cores ×
//! per-core rate × parallel efficiency`, throttled by an
//! [`AvailabilityTrace`]. This captures the paper's two essential facts
//! (§II-B1): the CSE is *slower* than the host CPU, and its availability to
//! the ISP task can change at run time.

use crate::availability::AvailabilityTrace;
use crate::units::{Duration, OpRate, Ops, SimTime};
use serde::Serialize;
use std::fmt;

/// Which compute engine a task (or a line of code) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum EngineKind {
    /// The host computer's CPU.
    Host,
    /// The computational storage engine inside the CSD.
    Cse,
}

impl EngineKind {
    /// The opposite engine (migration target).
    #[must_use]
    pub fn other(self) -> EngineKind {
        match self {
            EngineKind::Host => EngineKind::Cse,
            EngineKind::Cse => EngineKind::Host,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Host => write!(f, "host"),
            EngineKind::Cse => write!(f, "cse"),
        }
    }
}

/// Static description of a compute engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EngineSpec {
    /// Which engine this is.
    pub kind: EngineKind,
    /// Clock frequency in hertz.
    pub freq_hz: f64,
    /// Sustained instructions (abstract ops) per cycle per core.
    pub ipc: f64,
    /// Number of cores.
    pub cores: u32,
    /// Fraction of ideal linear speedup the core count achieves on the
    /// data-parallel kernels the workloads use.
    pub parallel_efficiency: f64,
}

impl EngineSpec {
    /// Aggregate nominal throughput of the engine.
    ///
    /// # Panics
    ///
    /// Panics if the spec describes a non-positive rate.
    #[must_use]
    pub fn nominal_rate(&self) -> OpRate {
        OpRate::from_ops_per_sec(
            self.freq_hz * self.ipc * f64::from(self.cores) * self.parallel_efficiency,
        )
    }
}

/// A compute engine instance: spec + availability.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ComputeEngine {
    spec: EngineSpec,
    availability: AvailabilityTrace,
    fault: AvailabilityTrace,
}

impl ComputeEngine {
    /// Creates an engine with full availability.
    #[must_use]
    pub fn new(spec: EngineSpec) -> Self {
        ComputeEngine {
            spec,
            availability: AvailabilityTrace::full(),
            fault: AvailabilityTrace::full(),
        }
    }

    /// The engine's aggregate nominal throughput.
    #[must_use]
    pub fn nominal_rate(&self) -> OpRate {
        self.spec.nominal_rate()
    }

    /// Degrades availability to `fraction` from time `at` onward.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn degrade_from(&mut self, at: SimTime, fraction: f64) {
        self.availability = self.availability.clone().with_change(at, fraction);
    }

    /// Installs an injected-fault availability trace (e.g. GC bursts from
    /// a fault plan). Kept separate from the contention trace because
    /// contention scenarios replace that trace wholesale mid-run; the two
    /// compose multiplicatively at query time.
    pub fn install_fault_trace(&mut self, trace: AvailabilityTrace) {
        self.fault = trace;
    }

    /// The fraction of the engine available to the ISP task at `t`:
    /// contention and injected-fault traces composed multiplicatively,
    /// exactly as [`ComputeEngine::execute`] charges them. This is
    /// what a reclaim decision probes when asking "has the device
    /// recovered?".
    #[must_use]
    pub fn effective_fraction_at(&self, t: SimTime) -> f64 {
        self.availability.fraction_at(t) * self.fault.fraction_at(t)
    }

    /// Wall-clock time to retire `ops` when starting at `start`, under the
    /// current availability trace.
    #[must_use]
    pub fn execute(&self, start: SimTime, ops: Ops) -> Duration {
        let effective_secs = self.nominal_rate().execute_time(ops).as_secs();
        if self.fault.is_full() {
            self.availability.invert(start, effective_secs)
        } else {
            self.availability
                .product(&self.fault)
                .invert(start, effective_secs)
        }
    }
}

/// Default host CPU matching the paper's testbed: an octa-core AMD Ryzen 7
/// 3700X at 3.6 GHz (§IV-A). The parallel efficiency is deliberately low:
/// the Table-I workloads are streaming kernels, and eight desktop cores
/// contending for DRAM bandwidth fall well short of linear scaling.
#[must_use]
pub fn default_host_spec() -> EngineSpec {
    EngineSpec {
        kind: EngineKind::Host,
        freq_hz: 3.6e9,
        ipc: 2.0,
        cores: 8,
        parallel_efficiency: 0.5,
    }
}

/// Default CSE matching the paper's prototype: an SoC with 8 ARM Cortex-A72
/// cores (§IV-A). The aggregate rate makes the CSE just under 2× slower
/// than the host, consistent with the paper's observation that "the
/// computation on the CSE is slower than the host CPU" while the rich
/// internal fabric keeps its cores fed — the gain comes mainly from reduced
/// data volume, but modest offload profits exist across the workload suite
/// (Figure 4's 1.33× average).
#[must_use]
pub fn default_cse_spec() -> EngineSpec {
    EngineSpec {
        kind: EngineKind::Cse,
        freq_hz: 1.6e9,
        ipc: 1.5,
        cores: 8,
        parallel_efficiency: 0.85,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_rate_multiplies_out() {
        let spec = EngineSpec {
            kind: EngineKind::Host,
            freq_hz: 1e9,
            ipc: 2.0,
            cores: 4,
            parallel_efficiency: 0.5,
        };
        assert!((spec.nominal_rate().as_ops_per_sec() - 4e9).abs() < 1.0);
    }

    #[test]
    fn cse_is_slower_than_host() {
        let host = default_host_spec().nominal_rate().as_ops_per_sec();
        let cse = default_cse_spec().nominal_rate().as_ops_per_sec();
        assert!(cse < host, "cse {cse} must be slower than host {host}");
        let ratio = host / cse;
        assert!(
            ratio > 1.2 && ratio < 6.0,
            "slowdown ratio {ratio} out of plausible range"
        );
    }

    #[test]
    fn degraded_engine_takes_proportionally_longer() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        let base = eng.execute(SimTime::ZERO, Ops::new(1_000_000_000));
        eng.degrade_from(SimTime::ZERO, 0.1);
        let slow = eng.execute(SimTime::ZERO, Ops::new(1_000_000_000));
        assert!((slow.as_secs() / base.as_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn degradation_mid_run_only_affects_tail() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        let rate = eng.nominal_rate().as_ops_per_sec();
        // Work that would take exactly 2s at full rate.
        let ops = Ops::new((rate * 2.0) as u64);
        eng.degrade_from(SimTime::from_secs(1.0), 0.5);
        let wall = eng.execute(SimTime::ZERO, ops);
        // 1s at full + 1s of effective work at 50% = 1 + 2 = 3s.
        assert!(
            (wall.as_secs() - 3.0).abs() < 1e-6,
            "got {}",
            wall.as_secs()
        );
    }

    #[test]
    fn achieved_ipc_reflects_contention() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        eng.degrade_from(SimTime::ZERO, 0.25);
        let ops = Ops::new(1_000_000_000);
        let wall = eng.execute(SimTime::ZERO, ops);
        let nominal = eng.nominal_rate().as_ops_per_sec();
        let measured = ops.as_f64() / wall.as_secs();
        assert!((measured / nominal - 0.25).abs() < 1e-6);
    }

    #[test]
    fn fault_trace_composes_with_contention() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        let base = eng.execute(SimTime::ZERO, Ops::new(1_000_000_000));
        eng.degrade_from(SimTime::ZERO, 0.5);
        eng.install_fault_trace(AvailabilityTrace::constant(0.5));
        let slow = eng.execute(SimTime::ZERO, Ops::new(1_000_000_000));
        assert!((slow.as_secs() / base.as_secs() - 4.0).abs() < 1e-6);
        // Removing the fault trace restores pure contention timing.
        eng.install_fault_trace(AvailabilityTrace::full());
        let contended = eng.execute(SimTime::ZERO, Ops::new(1_000_000_000));
        assert!((contended.as_secs() / base.as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn engine_kind_other_flips() {
        assert_eq!(EngineKind::Host.other(), EngineKind::Cse);
        assert_eq!(EngineKind::Cse.other(), EngineKind::Host);
    }
}
