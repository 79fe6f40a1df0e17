//! DMA engine for bulk host↔device transfers.
//!
//! ActivePy distributes generated CSD binaries and migration state by
//! writing directly into BAR-mapped device memory (§III-C0d), which the
//! hardware realizes as DMA bursts over the device-to-host path. The engine
//! adds a fixed per-descriptor setup cost on top of the link transfer time.

use crate::link::Path;
use crate::units::{Bytes, Duration, SimTime};
use serde::Serialize;

/// Direction of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Direction {
    /// Host memory to device memory.
    HostToDevice,
    /// Device memory to host memory.
    DeviceToHost,
}

/// A DMA engine bound to an interconnect path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DmaEngine {
    setup: Duration,
    h2d_bytes: Bytes,
    d2h_bytes: Bytes,
}

impl DmaEngine {
    /// Creates a DMA engine with per-descriptor `setup` cost.
    #[must_use]
    pub fn new(setup: Duration) -> Self {
        DmaEngine {
            setup,
            h2d_bytes: Bytes::ZERO,
            d2h_bytes: Bytes::ZERO,
        }
    }

    /// Per-descriptor setup cost.
    #[must_use]
    pub fn setup(&self) -> Duration {
        self.setup
    }

    /// Performs a transfer of `bytes` in `dir` over `path` starting at
    /// `start`; returns the wall-clock duration including setup.
    pub fn transfer(
        &mut self,
        path: &mut Path,
        start: SimTime,
        dir: Direction,
        bytes: Bytes,
    ) -> Duration {
        match dir {
            Direction::HostToDevice => self.h2d_bytes += bytes,
            Direction::DeviceToHost => self.d2h_bytes += bytes,
        }
        self.setup + path.transfer(start + self.setup, bytes)
    }

    /// Total bytes moved host-to-device.
    #[must_use]
    pub fn h2d_bytes(&self) -> Bytes {
        self.h2d_bytes
    }

    /// Total bytes moved device-to-host.
    #[must_use]
    pub fn d2h_bytes(&self) -> Bytes {
        self.d2h_bytes
    }

    /// Resets traffic counters.
    pub fn reset_counters(&mut self) {
        self.h2d_bytes = Bytes::ZERO;
        self.d2h_bytes = Bytes::ZERO;
    }
}

impl Default for DmaEngine {
    fn default() -> Self {
        DmaEngine::new(Duration::from_micros(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::units::Bandwidth;

    fn path() -> Path {
        Path::new(vec![Link::new(
            "nvme",
            Bandwidth::from_gb_per_sec(5.0),
            Duration::from_micros(5.0),
        )])
    }

    #[test]
    fn transfer_includes_setup_and_link_time() {
        let mut dma = DmaEngine::new(Duration::from_micros(1.0));
        let mut p = path();
        let t = dma.transfer(
            &mut p,
            SimTime::ZERO,
            Direction::DeviceToHost,
            Bytes::from_gb_f64(5.0),
        );
        // 1us setup + 5us link latency + 1s payload.
        assert!((t.as_secs() - (1.0 + 6e-6)).abs() < 1e-9);
        assert_eq!(dma.d2h_bytes(), Bytes::from_gb_f64(5.0));
    }

    #[test]
    fn directional_accounting() {
        let mut dma = DmaEngine::default();
        let mut p = path();
        dma.transfer(
            &mut p,
            SimTime::ZERO,
            Direction::HostToDevice,
            Bytes::from_mib(1),
        );
        dma.transfer(
            &mut p,
            SimTime::ZERO,
            Direction::DeviceToHost,
            Bytes::from_mib(2),
        );
        assert_eq!(dma.h2d_bytes(), Bytes::from_mib(1));
        assert_eq!(dma.d2h_bytes(), Bytes::from_mib(2));
        dma.reset_counters();
        assert_eq!(dma.h2d_bytes(), Bytes::ZERO);
        assert_eq!(dma.d2h_bytes(), Bytes::ZERO);
    }
}
