//! System configuration and builder.
//!
//! [`SystemConfig::paper_default`] reproduces the testbed of §IV-A: an
//! octa-core 3.6 GHz host, a CSD with 8 ARM Cortex-A72 cores and 2 TB of
//! flash (its capacity is not modelled), 9 GB/s internal NAND bandwidth, a 5 GB/s NVMe host link, and a
//! PCIe 3.0 hub giving storage traffic 4 GB/s. All parameters can be
//! overridden through the builder-style `with_*` methods.

use crate::engine::{default_cse_spec, default_host_spec, EngineSpec};
use crate::flash::GcSchedule;
use crate::system::System;
use crate::units::{Bandwidth, Bytes, Duration, SimTime};
use serde::Serialize;

/// The latencies of the NVMe-style call path (§III-C0b): the host posts a
/// request to a submission queue mapped into device memory, the CSE
/// fetches it when free, and completion flows back; status updates are
/// patched in at the end of every line of CSD code and double as the
/// channel through which the host signals a high-priority break. A CSD
/// call is modelled as these latencies alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueueLatencies {
    /// Host-side submission (build entry + doorbell write over PCIe).
    pub submit: Duration,
    /// Device-side fetch of a submission entry.
    pub fetch: Duration,
    /// Device-side posting of a completion + host observing it by polling.
    pub complete: Duration,
    /// Cost of one in-band status update appended at the end of a line of
    /// CSD code ("takes very little overhead", §III-C0b).
    pub status_update: Duration,
}

impl Default for QueueLatencies {
    fn default() -> Self {
        QueueLatencies {
            submit: Duration::from_micros(2.0),
            fetch: Duration::from_micros(1.0),
            complete: Duration::from_micros(2.0),
            status_update: Duration::from_nanos(200.0),
        }
    }
}

/// Complete static description of the simulated platform. Flash capacity
/// is not a field: nothing the simulator charges depends on it. The
/// plan-cache key hashes this struct's `Debug` text, so adding or removing
/// a field re-keys every persisted warm file.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SystemConfig {
    /// Host CPU description.
    pub host: EngineSpec,
    /// CSE description.
    pub cse: EngineSpec,
    /// Internal NAND bandwidth seen by the CSE.
    pub flash_internal_bandwidth: Bandwidth,
    /// Optional background garbage collection.
    pub gc: Option<GcSchedule>,
    /// NVMe link bandwidth between CSD and host.
    pub nvme_bandwidth: Bandwidth,
    /// NVMe per-message latency.
    pub nvme_latency: Duration,
    /// PCIe hub bandwidth budget for storage traffic.
    pub pcie_bandwidth: Bandwidth,
    /// PCIe per-message latency.
    pub pcie_latency: Duration,
    /// What one CSD call and one status update cost.
    pub queue_latencies: QueueLatencies,
    /// Per-descriptor DMA setup cost.
    pub dma_setup: Duration,
}

impl SystemConfig {
    /// The paper's experimental platform (§IV-A).
    #[must_use]
    pub fn paper_default() -> Self {
        SystemConfig {
            host: default_host_spec(),
            cse: default_cse_spec(),
            flash_internal_bandwidth: Bandwidth::from_gb_per_sec(9.0),
            gc: None,
            nvme_bandwidth: Bandwidth::from_gb_per_sec(5.0),
            nvme_latency: Duration::from_micros(5.0),
            pcie_bandwidth: Bandwidth::from_gb_per_sec(4.0),
            pcie_latency: Duration::from_micros(1.0),
            queue_latencies: QueueLatencies::default(),
            dma_setup: Duration::from_micros(1.0),
        }
    }

    /// An NVMe-over-Fabrics attachment (§III-C0a): the CSD sits across a
    /// 25 GbE RDMA fabric instead of a local PCIe slot, so the effective
    /// device-to-host budget drops to ≈3 GB/s and per-message latency
    /// rises an order of magnitude. The CSD maps its internal memory into
    /// the host's address space over the same RDMA infrastructure NVMe-oF
    /// already uses, so the programming model is unchanged — only the
    /// Eq. 1 trade-offs shift (and ActivePy's assignments shift with
    /// them).
    #[must_use]
    pub fn nvmeof_default() -> Self {
        SystemConfig {
            nvme_latency: Duration::from_micros(30.0),
            pcie_bandwidth: Bandwidth::from_gb_per_sec(3.0),
            pcie_latency: Duration::from_micros(15.0),
            ..SystemConfig::paper_default()
        }
    }

    /// Installs a garbage-collection schedule.
    #[must_use]
    pub fn with_gc(mut self, gc: GcSchedule) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Replaces the NVMe link bandwidth.
    #[must_use]
    pub fn with_nvme_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.nvme_bandwidth = bw;
        self
    }

    /// Replaces the PCIe budget.
    #[must_use]
    pub fn with_pcie_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.pcie_bandwidth = bw;
        self
    }

    /// Time to move `bytes` from the device to the host starting at
    /// `start`, across NVMe then PCIe: the strictly slower link is the
    /// bottleneck (NVMe on a tie) and carries the payload; the other
    /// link's latency is paid first. Zero bytes still pay both latencies.
    #[must_use]
    pub fn d2h_time(&self, start: SimTime, bytes: Bytes) -> Duration {
        let (first, bandwidth, latency) = if self.pcie_bandwidth < self.nvme_bandwidth {
            (self.nvme_latency, self.pcie_bandwidth, self.pcie_latency)
        } else {
            (self.pcie_latency, self.nvme_bandwidth, self.nvme_latency)
        };
        let at = start + first + latency;
        // Through the clock, not plain seconds: the fig5 goldens pin the rounding.
        let payload = (at + bandwidth.transfer_time(bytes)).duration_since(at);
        first + (latency + payload)
    }

    /// The effective device-to-host bandwidth (`BW_D2H` in Eq. 1): the
    /// bottleneck of the NVMe link and the PCIe budget.
    #[must_use]
    pub fn d2h_bandwidth(&self) -> Bandwidth {
        self.nvme_bandwidth.min(self.pcie_bandwidth)
    }

    /// Builds a runnable [`System`].
    #[must_use]
    pub fn build(&self) -> System {
        System::from_config(self.clone())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv() {
        let c = SystemConfig::paper_default();
        assert!((c.flash_internal_bandwidth.as_bytes_per_sec() - 9e9).abs() < 1.0);
        assert!((c.nvme_bandwidth.as_bytes_per_sec() - 5e9).abs() < 1.0);
        assert_eq!(c.cse.cores, 8);
        assert_eq!(c.host.cores, 8);
        assert!((c.host.freq_hz - 3.6e9).abs() < 1.0);
    }

    #[test]
    fn d2h_bandwidth_is_bottleneck() {
        let c = SystemConfig::paper_default();
        assert!((c.d2h_bandwidth().as_bytes_per_sec() - 4e9).abs() < 1.0);
        // Internal bandwidth is richer than external: the ISP premise.
        assert!(
            c.flash_internal_bandwidth.as_bytes_per_sec() > c.d2h_bandwidth().as_bytes_per_sec()
        );
    }

    #[test]
    fn d2h_time_is_the_bottleneck_payload_plus_both_latencies() {
        let c = SystemConfig::paper_default();
        let gb = |g: f64| Bandwidth::from_gb_per_sec(g);
        // PCIe's 4 GB/s is the bottleneck; the latencies sum to 6 us.
        let t = c.d2h_time(SimTime::ZERO, Bytes::from_gb_f64(4.0));
        assert!((t.as_secs() - (1.0 + 6e-6)).abs() < 1e-9, "got {t}");
        let t = c
            .clone()
            .with_nvme_bandwidth(gb(2.0))
            .d2h_time(SimTime::ZERO, Bytes::from_gb_f64(4.0));
        assert!((t.as_secs() - (2.0 + 6e-6)).abs() < 1e-9, "got {t}");
        // Zero bytes still pay both latencies.
        let t = c.d2h_time(SimTime::from_secs(3.0), Bytes::ZERO);
        assert!((t.as_secs() - 6e-6).abs() < 1e-15, "got {t}");
        // On a tie NVMe carries the payload, after PCIe's latency; at this
        // size the other order rounds to a different result.
        let tie = c.with_nvme_bandwidth(gb(3.0)).with_pcie_bandwidth(gb(3.0));
        let (start, bytes) = (SimTime::from_secs(0.123_456_789), Bytes::new(348_951));
        let at = start + tie.pcie_latency + tie.nvme_latency;
        let payload = (at + gb(3.0).transfer_time(bytes)).duration_since(at);
        let expected = tie.pcie_latency + (tie.nvme_latency + payload);
        assert_eq!(tie.d2h_time(start, bytes), expected);
    }

    #[test]
    fn builder_overrides_apply() {
        let c = SystemConfig::paper_default()
            .with_nvme_bandwidth(Bandwidth::from_gb_per_sec(2.0))
            .with_pcie_bandwidth(Bandwidth::from_gb_per_sec(8.0));
        assert!((c.d2h_bandwidth().as_bytes_per_sec() - 2e9).abs() < 1.0);
    }

    #[test]
    fn nvmeof_narrows_the_external_path() {
        let local = SystemConfig::paper_default();
        let fabric = SystemConfig::nvmeof_default();
        assert!(
            fabric.d2h_bandwidth().as_bytes_per_sec() < local.d2h_bandwidth().as_bytes_per_sec()
        );
        assert!(fabric.nvme_latency > local.nvme_latency);
        // The internal side is untouched: the ISP premise strengthens.
        assert_eq!(
            fabric.flash_internal_bandwidth,
            local.flash_internal_bandwidth
        );
    }

    #[test]
    fn build_produces_consistent_system() {
        let sys = SystemConfig::paper_default().build();
        assert_eq!(sys.config(), &SystemConfig::paper_default());
        assert_eq!(sys.now(), crate::units::SimTime::ZERO);
    }
}
