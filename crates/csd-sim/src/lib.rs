//! # csd-sim — a computational storage device and its host, in discrete events
//!
//! This crate is the hardware substrate for the ActivePy (DAC 2023)
//! reproduction. The paper evaluates on a physical prototype — an SoC with
//! 8 ARM Cortex-A72 cores inside a 2 TB NVMe drive, reading its NAND at
//! 9 GB/s internally while the host can only pull 4–5 GB/s across
//! NVMe/PCIe. Lacking that hardware, everything here is a deterministic
//! timing model calibrated to the paper's published figures.
//!
//! The model is intentionally *analytic*: compute engines are aggregate
//! operation servers throttled by piecewise-constant
//! [`availability::AvailabilityTrace`]s, the device-to-host path is the
//! config's NVMe and PCIe bandwidths and latencies, flash is bandwidth +
//! garbage-collection windows, and a CSD call is its microsecond queue
//! latencies. Every quantity in the
//! paper's net-profit equation (Eq. 1) — `CT_host`, `CT_device`,
//! `D_in`/`D_out`, `BW_D2H` — has a faithful counterpart.
//!
//! ## Quick start
//!
//! ```
//! use csd_sim::{System, EngineKind};
//! use csd_sim::units::{Bytes, Ops};
//!
//! let mut sys = System::paper_default();
//! // Stream 1 GB of stored data into the CSE and crunch it.
//! sys.storage_read(EngineKind::Cse, Bytes::from_gb_f64(1.0));
//! sys.compute(EngineKind::Cse, Ops::new(100_000_000));
//! println!("finished at t = {}", sys.now());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod availability;
pub mod config;
pub mod contention;
pub mod dma;
pub mod engine;
pub mod fault;
pub mod flash;
pub mod fleet;
pub mod system;
pub mod units;
pub mod wire;

pub use config::SystemConfig;
pub use contention::ContentionScenario;
pub use dma::Direction;
pub use engine::EngineKind;
pub use fault::{DeviceFault, FaultCounters, FaultInjector, FaultPlan, GcBurst};
pub use fleet::Fleet;
pub use system::System;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<System>();
        assert_sync::<System>();
    }
}
