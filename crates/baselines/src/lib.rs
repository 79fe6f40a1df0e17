//! # isp-baselines — the comparison points of the ActivePy evaluation
//!
//! Three baselines appear throughout the paper's §V:
//!
//! * **The C baseline** ([`host_only::run_c_baseline`]): the whole
//!   application hand-written in C, running entirely on the host — the
//!   denominator of every reported speedup. The other language tiers
//!   (plain Python, Cython, copy-eliminated) share the same entry point
//!   via [`host_only::run_host_only`].
//! * **Programmer-directed ISP**
//!   ([`programmer_directed::best_static_plan`]): an exhaustive search over
//!   single-entry-single-exit offload combinations at 100 % CSD
//!   availability — the best a human could do with a conventional C
//!   framework.
//! * **The static framework under dynamics**
//!   ([`programmer_directed::run_plan`]): the same baked-in plan re-run
//!   under contention with no ability to migrate — the Summarizer-style
//!   configuration Figures 2 and 5 stress.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod host_only;
pub mod programmer_directed;

pub use error::BaselineError;
pub use host_only::{run_c_baseline, run_host_only};
pub use programmer_directed::{
    best_static_plan, contiguous_placements, fastest_placement, run_plan, OffloadPlan,
};
