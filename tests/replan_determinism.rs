//! Re-planning determinism: profile-guided refits and phase-shifting
//! availability traces may steer *where* lines run — host-ward under a
//! burst, device-ward on reclaim, or to a different assignment after a
//! refit — but never *what* they compute. Random programs run under
//! random burst/recovery traces through the full feedback loop (cold
//! plan → monitored run recording into a `ProfileStore` →
//! `ActivePy::replan` → re-planned run) and every cell must report the
//! uncontended reference's `values_fingerprint`. The refitted plan must
//! also honor the warm-never-worse contract: under the blended cost model
//! its modelled sim-time never exceeds the cold assignment's.

mod common;

use common::contract::{replanned, Case, REPLAN};
use common::programs::Programs;
use common::{datasets, source, Scaled};

/// Materialized rows of every stored dataset, at every sampling scale.
const ROWS: usize = 16;

#[test]
fn replanning_never_changes_values_and_warm_is_never_worse() {
    let trace = (0.05f64..0.6, 0.1f64..0.9, 0.02f64..0.3);
    let programs = Programs::over(&datasets(ROWS, ROWS as u64)).well_typed();
    let input = Scaled::new(ROWS);
    REPLAN.check((programs, trace), |(lines, (drop, recover, burst))| {
        let case = Case::program_only(source(&lines));
        Ok(case.ran(replanned(&case, &input, drop, recover, burst)?))
    });
}
