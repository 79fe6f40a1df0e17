//! # activepy-repro — ActivePy (DAC 2023), rebuilt in Rust
//!
//! A full reproduction of *Rethinking Programming Frameworks for
//! In-Storage Processing* (Liu, Hsu, Tseng — DAC 2023): a runtime that
//! takes an **unannotated** interpreted-language program and transparently
//! decides, line by line, what to execute inside a computational storage
//! device — sampling scaled inputs, fitting complexity curves, evaluating
//! the net-profit equation, generating copy-eliminated code, and migrating
//! work back to the host when the device degrades.
//!
//! The workspace:
//!
//! * [`csd_sim`] — the hardware substrate: CSE, flash (9 GB/s internal),
//!   NVMe/PCIe links (5/4 GB/s), CSD call latencies, DMA, contention.
//! * [`alang`] — the Python/Cython stand-in: line-oriented language,
//!   interpreter with per-line profiling, compiler, copy elimination.
//! * [`activepy`] — the paper's contribution: sampling, fitting, Eq. 1,
//!   Algorithm 1, codegen, execution, monitoring, migration.
//! * [`isp_workloads`] — Table I's nine applications plus SparseMV.
//! * [`isp_baselines`] — the C baseline, the programmer-directed ISP
//!   search, and the static framework under dynamics.
//!
//! ## Quickstart
//!
//! ```
//! use activepy::runtime::ActivePy;
//! use csd_sim::{ContentionScenario, SystemConfig};
//!
//! // Pick a Table-I workload, plan it once, and execute the plan.
//! let q6 = isp_workloads::by_name("TPC-H-6").expect("registered");
//! let program = q6.program()?;
//! let config = SystemConfig::paper_default();
//! let rt = ActivePy::new();
//! let plan = rt.plan(&program, &q6, &config)?;
//! let outcome = rt.execute_plan(&plan, &config, ContentionScenario::none())?;
//! println!(
//!     "offloaded {} of {} lines, end-to-end {:.2}s",
//!     plan.assignment.csd_lines.len(),
//!     program.len(),
//!     outcome.report.total_secs,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every table and figure of the paper.

pub use activepy;
pub use alang;
pub use csd_sim;
pub use isp_baselines;
pub use isp_workloads;
