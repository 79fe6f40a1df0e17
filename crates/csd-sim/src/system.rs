//! The assembled system: one clock, two engines, flash, the device-to-host
//! links, the CSD call latencies, and DMA.
//!
//! [`System`] is the facade the execution layers drive. Every operation
//! advances the simulated clock, and DMA counts the bytes it moves each way,
//! so a run's end-to-end latency is simply `sys.now()` when it finishes.

use crate::config::SystemConfig;
use crate::dma::Direction;
use crate::engine::{ComputeEngine, EngineKind};
use crate::fault::{DeviceFault, FaultCounters, FaultInjector, FaultPlan, DETECT_LATENCY_SECS};
use crate::flash::FlashArray;
use crate::units::{Bytes, Duration, Ops, SimTime};
use serde::Serialize;

/// A complete simulated platform instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct System {
    config: SystemConfig,
    clock: SimTime,
    host: ComputeEngine,
    cse: ComputeEngine,
    flash: FlashArray,
    h2d_bytes: Bytes,
    d2h_bytes: Bytes,
    faults: Option<FaultInjector>,
}

impl System {
    /// Builds every part from `config` at time zero; what
    /// [`SystemConfig::build`] calls.
    #[must_use]
    pub(crate) fn from_config(config: SystemConfig) -> Self {
        let mut flash = FlashArray::new(config.flash_internal_bandwidth);
        if let Some(gc) = config.gc {
            flash.set_gc(gc);
        }
        System {
            clock: SimTime::ZERO,
            host: ComputeEngine::new(config.host),
            cse: ComputeEngine::new(config.cse),
            flash,
            h2d_bytes: Bytes::ZERO,
            d2h_bytes: Bytes::ZERO,
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

    /// Total bytes DMA has moved host-to-device.
    #[must_use]
    pub fn h2d_bytes(&self) -> Bytes {
        self.h2d_bytes
    }

    /// Total bytes DMA has moved device-to-host.
    #[must_use]
    pub fn d2h_bytes(&self) -> Bytes {
        self.d2h_bytes
    }

    /// Executes `ops` on `engine`, advancing the clock; returns the
    /// wall-clock duration.
    pub fn compute(&mut self, engine: EngineKind, ops: Ops) -> Duration {
        let start = self.clock;
        let wall = self.engine(engine).execute(start, ops);
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
                let link_time = self.config.d2h_time(start, bytes);
                flash_time.max(link_time)
            }
        };
        self.clock += wall;
        wall
    }

    /// Moves `bytes` between host DRAM and device DRAM over the
    /// interconnect via DMA, advancing the clock: one descriptor's setup,
    /// then the device-to-host links.
    pub fn transfer(&mut self, dir: Direction, bytes: Bytes) -> Duration {
        match dir {
            Direction::HostToDevice => self.h2d_bytes += bytes,
            Direction::DeviceToHost => self.d2h_bytes += bytes,
        }
        let setup = self.config.dma_setup;
        let wall = setup + self.config.d2h_time(self.clock + setup, bytes);
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
        if self.faults.is_some() {
            self.clock += Duration::from_secs(DETECT_LATENCY_SECS);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

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
        // 1 us setup + 6 us of link latency + 1 s of payload at 4 GB/s.
        assert!((wall.as_secs() - (1.0 + 7e-6)).abs() < 1e-9, "got {wall}");
        assert_eq!(sys.now(), SimTime::ZERO + wall);
    }

    #[test]
    fn dma_counts_bytes_by_direction() {
        let mut sys = System::paper_default();
        sys.transfer(Direction::HostToDevice, Bytes::from_mib(1));
        sys.transfer(Direction::DeviceToHost, Bytes::from_mib(2));
        sys.transfer(Direction::DeviceToHost, Bytes::from_mib(3));
        assert_eq!(sys.h2d_bytes(), Bytes::from_mib(1));
        assert_eq!(sys.d2h_bytes(), Bytes::from_mib(5));
    }

    /// The bits of every charge the D2H path and DMA make, on the paper's
    /// platform, on NVMe-oF, and with both links at one rate (a tie), from
    /// an odd start time.
    #[test]
    fn d2h_and_dma_charges_are_pinned_to_the_bit() {
        let tie = SystemConfig::paper_default()
            .with_nvme_bandwidth(Bandwidth::from_gb_per_sec(3.0))
            .with_pcie_bandwidth(Bandwidth::from_gb_per_sec(3.0));
        let charges = |config: &SystemConfig| {
            let mut sys = config.build();
            sys.advance(Duration::from_secs(0.123_456_789));
            let read = sys.storage_read(EngineKind::Host, Bytes::from_mib(64));
            let d2h = sys.transfer(Direction::DeviceToHost, Bytes::from_mib(8));
            let h2d = sys.transfer(Direction::HostToDevice, Bytes::ZERO);
            [
                read.as_secs(),
                d2h.as_secs(),
                h2d.as_secs(),
                sys.now().as_secs(),
            ]
            .map(f64::to_bits)
        };
        let got = [
            charges(&SystemConfig::paper_default()),
            charges(&SystemConfig::nvmeof_default()),
            charges(&tie),
        ];
        // Read, D2H, H2D, clock.
        let pinned: [[u64; 4]; 3] = [
            [
                0x3f91_2f9e_8f5d_e7a3,
                0x3f61_3cba_00d3_75b0,
                0x3edd_5c31_593e_5fb6,
                0x3fc2_3890_0dee_6ef8,
            ],
            [
                0x3f96_f3db_c650_c8b3,
                0x3f67_4887_f00f_ded6,
                0x3f08_1e03_f705_857a,
                0x3fc3_0a8e_1466_7a99,
            ],
            [
                0x3f96_e9a2_876a_d9d3,
                0x3f66_f6bd_f8e0_67f0,
                0x3edd_5c31_593e_5fb6,
                0x3fc3_06b8_9cd0_4107,
            ],
        ];
        assert_eq!(got, pinned);
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
