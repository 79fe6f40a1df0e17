//! Shard differential: random programs × random placements × every fleet
//! size × three cells — clean, pinned per-shard fault plans, and a
//! contention burst at half progress with each shard's monitor on. The
//! invariants the scatter-gather fleet must hold, for every draw:
//!
//! 1. **One answer** — every fleet size N ∈ {1, 2, 4, 8}, in every cell,
//!    produces the same `values_fingerprint` as the unsharded
//!    single-device run.
//! 2. **Consistent failure** — a program that errors unsharded (reads of
//!    undefined names) errors at every fleet size too, with its error text.
//! 3. **Accounting sums** — the transient faults each shard's recovery
//!    layer absorbed equal the transient errors its device's injector
//!    actually delivered, so their sums across the fleet agree too.
//! 4. **Crashes latch per device** — each device counts at most one CSE
//!    crash, shard isolation keeps a crash from spreading, and every
//!    hard-faulted shard still contributes the right slice.
//! 5. **Spelling is free** — the program respelled single-assignment
//!    simulates to the same fleet report in every field but the
//!    fingerprints: what a shard stages, what the gather pulls and where
//!    the fence falls follow the values read, not the names reused.

mod common;

use activepy::exec::ExecOptions;
use alang::shard::{ShardMap, ShardStrategy};
use common::contract::{fleet, reassigning_programs_respell_for_free, Case, FLEET};
use common::fault_params;
use csd_sim::ContentionScenario;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Invariant 5 where it bites, at N = 4.
#[test]
fn respelling_a_reassigning_program_moves_no_fleet_under_any_placement() {
    let opts = ExecOptions::activepy();
    reassigning_programs_respell_for_free(FLEET.name, |case| case.fleet(4, &opts, None));
}

/// Invariants 1–5 at every fleet size, in every cell. The monitor is on
/// in each; only the contended cell sees a burst, from half of each
/// region's progress on.
#[test]
fn every_fleet_size_reproduces_the_unsharded_answer() {
    let clean = ExecOptions::activepy();
    let contended = clean
        .clone()
        .with_scenario(ContentionScenario::after_progress(0.5, 0.1));
    FLEET.check((Case::placed(), fault_params(0.2)), |(case, faults)| {
        let faulted = Some(&faults);
        let cells = [
            ("clean", &clean, None),
            ("faulted", &clean, faulted),
            ("contended", &contended, None),
        ];
        for n in SHARD_COUNTS {
            let map = ShardMap::auto(&case.storage, n, ShardStrategy::Range);
            prop_assert_eq!(map.count(), n);
            for (cell, opts, faults) in cells {
                fleet(&case, n, cell, opts, faults)?;
            }
        }
        Ok(case.ran(case.reference().is_ok()))
    });
}
