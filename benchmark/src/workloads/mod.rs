//! The five workloads. Names are fixed: later issues cite them.

pub mod bulk;
pub mod bulk_decode;
pub mod bulk_kernels;
pub mod durable_exec;
pub mod exec_sweep;
pub mod plan_cold;
