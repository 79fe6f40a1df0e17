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
use common::{source, Grammar};

/// The shared grammar's leaves under arithmetic only: comparison masks
/// feeding back into arithmetic or `sqrt`/`abs` error out in sampling,
/// which would skip the case — the planning loop, not the type checker, is
/// under test here. Its calls are safe on every value the grammar can
/// produce (`sort` panics on NaNs, `len` rejects scalars; both stay out),
/// and its reductions only ever wrap expressions kept array-shaped.
const ARITHMETIC: Grammar = Grammar {
    ops: &["+", "-", "*", "/"],
    calls: &["sqrt", "abs"],
    reduces: &["sum", "mean"],
};

/// The prelude defines every identifier the grammar can reference
/// (use-before-definition is a sampling error, not an interesting case)
/// and guarantees real device-resident inputs in every plan.
const PRELUDE: &str = "a = scan('v')\nb = scan('w')\nc = (a * 2) - 1\nd = mean(b)\n";

#[test]
fn replanning_never_changes_values_and_warm_is_never_worse() {
    let trace = (0.05f64..0.6, 0.1f64..0.9, 0.02f64..0.3);
    REPLAN.check(
        (ARITHMETIC.lines(1..5), trace),
        |(lines, (drop, recover, burst))| {
            let case = Case::program_only(format!("{PRELUDE}{}", source(&lines)));
            replanned(&case, drop, recover, burst)
        },
    );
}
