//! The direction of a DMA transfer.
//!
//! ActivePy distributes generated CSD binaries and migration state by
//! writing directly into BAR-mapped device memory (§III-C0d), which the
//! hardware realizes as DMA bursts over the device-to-host links.
//! [`crate::System::transfer`] charges one descriptor's setup plus the links'
//! time and counts the bytes each way.

use serde::Serialize;

/// Direction of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Direction {
    /// Host memory to device memory.
    HostToDevice,
    /// Device memory to host memory.
    DeviceToHost,
}
