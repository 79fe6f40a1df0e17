//! The assembled system: one clock, two engines, flash, links, the CSD
//! call latencies, and DMA.
//!
//! [`System`] is the facade the execution layers drive. Every operation
//! advances the simulated clock and records traffic/counters, so a run's
//! end-to-end latency is simply `sys.now()` when it finishes.

use crate::config::SystemConfig;
use crate::dma::{Direction, DmaEngine};
use crate::engine::{ComputeEngine, EngineKind};
use crate::fault::{DeviceFault, FaultCounters, FaultInjector, FaultPlan};
use crate::flash::FlashArray;
use crate::link::Path;
use crate::units::{Bandwidth, Bytes, Duration, Ops, SimTime};
use serde::Serialize;

/// A complete simulated platform instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct System {
    config: SystemConfig,
    clock: SimTime,
    host: ComputeEngine,
    cse: ComputeEngine,
    flash: FlashArray,
    d2h_path: Path,
    dma: DmaEngine,
    faults: Option<FaultInjector>,
}

impl System {
    /// Builds every part from `config` at time zero; what
    /// [`SystemConfig::build`] calls.
    #[must_use]
    pub(crate) fn from_config(config: SystemConfig) -> Self {
        let mut flash = FlashArray::new(config.flash_capacity, config.flash_internal_bandwidth);
        if let Some(gc) = config.gc {
            flash.set_gc(gc);
        }
        System {
            clock: SimTime::ZERO,
            host: ComputeEngine::new(config.host),
            cse: ComputeEngine::new(config.cse),
            flash,
            d2h_path: config.d2h_path(),
            dma: DmaEngine::new(config.dma_setup),
            faults: None,
            config,
        }
    }

    /// Convenience constructor for the paper's platform.
    #[must_use]
    pub fn paper_default() -> Self {
        SystemConfig::paper_default().build()
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advances the clock by `d` without attributing work to any resource
    /// (e.g. fixed software overheads such as compilation).
    pub fn advance(&mut self, d: Duration) {
        self.clock += d;
    }

    /// The compute engine of the given kind.
    #[must_use]
    pub fn engine(&self, kind: EngineKind) -> &ComputeEngine {
        match kind {
            EngineKind::Host => &self.host,
            EngineKind::Cse => &self.cse,
        }
    }

    /// Mutable access to a compute engine (e.g. to install contention).
    #[must_use]
    pub fn engine_mut(&mut self, kind: EngineKind) -> &mut ComputeEngine {
        match kind {
            EngineKind::Host => &mut self.host,
            EngineKind::Cse => &mut self.cse,
        }
    }

    /// Mutable access to the flash array.
    #[must_use]
    pub fn flash_mut(&mut self) -> &mut FlashArray {
        &mut self.flash
    }

    /// The DMA engine.
    #[must_use]
    pub fn dma(&self) -> &DmaEngine {
        &self.dma
    }

    /// The device-to-host path (for inspection).
    #[must_use]
    pub fn d2h_path(&self) -> &Path {
        &self.d2h_path
    }

    /// Effective `BW_D2H` for Eq. 1 estimates.
    #[must_use]
    pub fn d2h_bandwidth(&self) -> Bandwidth {
        self.config.d2h_bandwidth()
    }

    /// Executes `ops` on `engine`, advancing the clock; returns the
    /// wall-clock duration.
    pub fn compute(&mut self, engine: EngineKind, ops: Ops) -> Duration {
        let start = self.clock;
        let wall = self.engine_mut(engine).execute(start, ops);
        self.clock += wall;
        wall
    }

    /// Streams `bytes` of stored data to `engine`, advancing the clock.
    ///
    /// The CSE reads over the rich internal interconnect; the host streams
    /// through flash → NVMe → PCIe, pipelined, so the slowest stage
    /// dominates.
    pub fn storage_read(&mut self, engine: EngineKind, bytes: Bytes) -> Duration {
        let start = self.clock;
        let wall = match engine {
            EngineKind::Cse => self.flash.read(start, bytes),
            EngineKind::Host => {
                let flash_time = self.flash.read_external(start, bytes);
                let link_time = self.d2h_path.transfer(start, bytes);
                flash_time.max(link_time)
            }
        };
        self.clock += wall;
        wall
    }

    /// Moves `bytes` between host DRAM and device DRAM over the
    /// interconnect via DMA, advancing the clock.
    pub fn transfer(&mut self, dir: Direction, bytes: Bytes) -> Duration {
        let start = self.clock;
        let wall = self.dma.transfer(&mut self.d2h_path, start, dir, bytes);
        self.clock += wall;
        wall
    }

    /// Installs a fault plan: builds the injector and hangs the plan's GC
    /// burst trace on both the CSE and the flash array.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn install_faults(&mut self, plan: FaultPlan) {
        if let Err(msg) = plan.validate() {
            panic!("invalid fault plan: {msg}");
        }
        let bursts = plan.burst_trace();
        self.cse.install_fault_trace(bursts.clone());
        self.flash.install_fault_trace(bursts);
        self.faults = Some(FaultInjector::new(plan));
    }

    /// The installed fault injector, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Injection totals (all zero when no plan is installed).
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map_or_else(FaultCounters::default, FaultInjector::counters)
    }

    /// Charges the fault-detection latency for `fault` to the clock and
    /// returns it, so callers can propagate the error.
    fn charge_fault(&mut self, fault: DeviceFault) -> DeviceFault {
        if let Some(inj) = &self.faults {
            self.clock += inj.plan().detect_latency;
        }
        fault
    }

    /// Fallible [`System::storage_read`]: CSE-side reads roll the
    /// injected flash error probability (and observe the hard crash)
    /// before any data moves. Host-side reads use the external
    /// controller port, which has no injected failure mode — GC bursts
    /// slow it, but it does not error.
    ///
    /// # Errors
    ///
    /// Returns the injected [`DeviceFault`] with the detection latency
    /// already charged to the clock; no bytes are read.
    pub fn try_storage_read(
        &mut self,
        engine: EngineKind,
        bytes: Bytes,
    ) -> Result<Duration, DeviceFault> {
        if engine == EngineKind::Cse {
            if let Some(inj) = &mut self.faults {
                if let Some(fault) = inj.roll_flash_read(self.clock) {
                    return Err(self.charge_fault(fault));
                }
            }
        }
        Ok(self.storage_read(engine, bytes))
    }

    /// Fallible [`System::compute`]: CSE-side compute observes the hard
    /// crash (it has no transient failure mode of its own).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceFault::CseCrash`] with the detection latency
    /// charged; no operations retire.
    pub fn try_compute(&mut self, engine: EngineKind, ops: Ops) -> Result<Duration, DeviceFault> {
        if engine == EngineKind::Cse {
            if let Some(inj) = &mut self.faults {
                if let Some(fault) = inj.roll_compute(self.clock) {
                    return Err(self.charge_fault(fault));
                }
            }
        }
        Ok(self.compute(engine, ops))
    }

    /// Fallible [`System::transfer`]: rolls the injected DMA error
    /// probability. DMA is controller-side and survives a CSE crash, so
    /// the only possible fault here is the transient
    /// [`DeviceFault::DmaTransfer`].
    ///
    /// # Errors
    ///
    /// Returns the injected fault with the detection latency charged;
    /// no payload moves.
    pub fn try_transfer(&mut self, dir: Direction, bytes: Bytes) -> Result<Duration, DeviceFault> {
        if let Some(inj) = &mut self.faults {
            if let Some(fault) = inj.roll_dma(self.clock) {
                return Err(self.charge_fault(fault));
            }
        }
        Ok(self.transfer(dir, bytes))
    }

    /// Rolls the injected NVMe command error (and the hard crash) for
    /// one command attempt. Charges nothing on success, so the fault-free
    /// path is byte-identical to the infallible one.
    ///
    /// # Errors
    ///
    /// Returns the injected fault with the detection latency charged.
    pub fn try_nvme_command(&mut self) -> Result<(), DeviceFault> {
        if let Some(inj) = &mut self.faults {
            if let Some(fault) = inj.roll_nvme(self.clock) {
                return Err(self.charge_fault(fault));
            }
        }
        Ok(())
    }

    /// Charges one CSD function-invocation overhead (submit + fetch +
    /// complete) to the clock.
    pub fn charge_invocation(&mut self) -> Duration {
        let q = &self.config.queue_latencies;
        let d = q.submit + q.fetch + q.complete;
        self.clock += d;
        d
    }

    /// Charges one end-of-line status update to the clock.
    pub fn charge_status_update(&mut self) -> Duration {
        let d = self.config.queue_latencies.status_update;
        self.clock += d;
        d
    }

    /// Resets the clock and all counters for a fresh run on the same
    /// platform.
    pub fn reset(&mut self) {
        self.clock = SimTime::ZERO;
        self.host.reset_counters();
        self.cse.reset_counters();
        self.flash.reset_counters();
        self.d2h_path.reset_counters();
        self.dma.reset_counters();
        // The injector rewinds to the start of its PRNG stream so a
        // fresh run replays the identical fault trace (burst traces on
        // the engines are static and stay installed).
        if let Some(inj) = &mut self.faults {
            inj.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_advances_clock() {
        let mut sys = System::paper_default();
        let rate = sys.engine(EngineKind::Host).nominal_rate().as_ops_per_sec();
        let wall = sys.compute(EngineKind::Host, Ops::new(rate as u64));
        assert!((wall.as_secs() - 1.0).abs() < 1e-6);
        assert!((sys.now().as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cse_storage_read_uses_internal_bandwidth() {
        let mut sys = System::paper_default();
        let wall = sys.storage_read(EngineKind::Cse, Bytes::from_gb_f64(9.0));
        assert!(
            (wall.as_secs() - 1.0).abs() < 1e-6,
            "internal 9 GB/s, got {wall}"
        );
    }

    #[test]
    fn host_storage_read_is_link_bound() {
        let mut sys = System::paper_default();
        let wall = sys.storage_read(EngineKind::Host, Bytes::from_gb_f64(4.0));
        // PCIe budget 4 GB/s is the bottleneck => ~1s.
        assert!((wall.as_secs() - 1.0).abs() < 1e-3, "got {wall}");
    }

    #[test]
    fn internal_read_beats_external_read() {
        let mut a = System::paper_default();
        let mut b = System::paper_default();
        let cse = a.storage_read(EngineKind::Cse, Bytes::from_gb_f64(8.0));
        let host = b.storage_read(EngineKind::Host, Bytes::from_gb_f64(8.0));
        assert!(cse < host, "ISP premise: {cse} must beat {host}");
    }

    #[test]
    fn transfer_charges_dma_and_clock() {
        let mut sys = System::paper_default();
        let wall = sys.transfer(Direction::DeviceToHost, Bytes::from_gb_f64(4.0));
        assert!(wall.as_secs() > 0.99 && wall.as_secs() < 1.01, "got {wall}");
        assert_eq!(sys.dma().d2h_bytes(), Bytes::from_gb_f64(4.0));
    }

    #[test]
    fn invocation_and_status_overheads_are_small() {
        let mut sys = System::paper_default();
        let inv = sys.charge_invocation();
        let st = sys.charge_status_update();
        assert!(inv.as_secs() < 1e-4);
        assert!(st.as_secs() < 1e-6);
        assert!((sys.now().as_secs() - (inv.as_secs() + st.as_secs())).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut sys = System::paper_default();
        sys.compute(EngineKind::Cse, Ops::new(1_000_000));
        sys.transfer(Direction::HostToDevice, Bytes::from_mib(1));
        sys.reset();
        assert_eq!(sys.now(), SimTime::ZERO);
        assert_eq!(sys.engine(EngineKind::Cse).counters().achieved_rate(), None);
        assert_eq!(sys.dma().h2d_bytes(), Bytes::ZERO);
    }

    #[test]
    fn try_ops_without_faults_match_infallible_ops() {
        let mut a = System::paper_default();
        let mut b = System::paper_default();
        let d1 = a.storage_read(EngineKind::Cse, Bytes::from_mib(64));
        let d2 = a.compute(EngineKind::Cse, Ops::new(1_000_000));
        let d3 = a.transfer(Direction::DeviceToHost, Bytes::from_mib(8));
        assert_eq!(
            b.try_storage_read(EngineKind::Cse, Bytes::from_mib(64)),
            Ok(d1)
        );
        assert_eq!(b.try_compute(EngineKind::Cse, Ops::new(1_000_000)), Ok(d2));
        assert_eq!(
            b.try_transfer(Direction::DeviceToHost, Bytes::from_mib(8)),
            Ok(d3)
        );
        assert_eq!(b.try_nvme_command(), Ok(()));
        assert_eq!(a.now(), b.now());
        assert_eq!(b.fault_counters(), crate::fault::FaultCounters::default());
    }

    #[test]
    fn injected_faults_charge_detection_latency_and_count() {
        let mut sys = System::paper_default();
        sys.install_faults(
            crate::fault::FaultPlan::none()
                .with_seed(3)
                .with_dma_error_prob(0.5),
        );
        let mut faults = 0;
        let mut t_before;
        for _ in 0..50 {
            t_before = sys.now();
            if sys
                .try_transfer(Direction::DeviceToHost, Bytes::from_mib(1))
                .is_err()
            {
                faults += 1;
                let charged = sys.now().duration_since(t_before);
                assert!((charged.as_secs() - 50e-6).abs() < 1e-12);
            }
        }
        assert!(faults > 0, "p=0.5 over 50 transfers");
        assert_eq!(sys.fault_counters().dma_transfer_errors, faults);
    }

    #[test]
    fn crash_fails_cse_side_but_not_dma() {
        let mut sys = System::paper_default();
        sys.install_faults(
            crate::fault::FaultPlan::none().with_crash_at(crate::units::SimTime::ZERO),
        );
        assert!(sys
            .try_storage_read(EngineKind::Cse, Bytes::from_mib(1))
            .is_err());
        assert!(sys.faults().is_some_and(FaultInjector::crashed));
        assert!(sys.try_compute(EngineKind::Cse, Ops::new(100)).is_err());
        assert!(sys.try_nvme_command().is_err());
        // Host-side and DMA paths keep working so migration can drain.
        assert!(sys
            .try_storage_read(EngineKind::Host, Bytes::from_mib(1))
            .is_ok());
        assert!(sys.try_compute(EngineKind::Host, Ops::new(100)).is_ok());
        assert!(sys
            .try_transfer(Direction::DeviceToHost, Bytes::from_mib(1))
            .is_ok());
        assert_eq!(sys.fault_counters().cse_crashes, 1);
    }

    #[test]
    fn reset_rearms_the_injector_for_identical_replay() {
        let mut sys = System::paper_default();
        sys.install_faults(
            crate::fault::FaultPlan::none()
                .with_seed(9)
                .with_flash_read_error_prob(0.4),
        );
        let run = |sys: &mut System| -> Vec<bool> {
            (0..100)
                .map(|_| {
                    sys.try_storage_read(EngineKind::Cse, Bytes::from_mib(1))
                        .is_err()
                })
                .collect()
        };
        let first = run(&mut sys);
        sys.reset();
        let second = run(&mut sys);
        assert_eq!(first, second);
        assert!(first.iter().any(|&f| f), "p=0.4 over 100 reads");
    }

    #[test]
    fn installed_burst_trace_slows_cse_and_flash() {
        let mut sys = System::paper_default();
        let base_read = sys
            .clone()
            .storage_read(EngineKind::Cse, Bytes::from_gb_f64(1.0));
        sys.install_faults(crate::fault::FaultPlan::none().with_gc_burst(
            SimTime::ZERO,
            Duration::from_secs(1e6),
            0.5,
        ));
        let slowed = sys.storage_read(EngineKind::Cse, Bytes::from_gb_f64(1.0));
        assert!(
            (slowed.as_secs() / base_read.as_secs() - 2.0).abs() < 1e-6,
            "burst halves flash bandwidth: {slowed} vs {base_read}"
        );
    }

    #[test]
    fn contention_on_cse_slows_compute() {
        let mut sys = System::paper_default();
        let ops = Ops::new(sys.engine(EngineKind::Cse).nominal_rate().as_ops_per_sec() as u64);
        let mut degraded = sys.clone();
        degraded
            .engine_mut(EngineKind::Cse)
            .degrade_from(SimTime::ZERO, 0.1);
        let base = sys.compute(EngineKind::Cse, ops);
        let slow = degraded.compute(EngineKind::Cse, ops);
        assert!((slow.as_secs() / base.as_secs() - 10.0).abs() < 1e-3);
    }
}
