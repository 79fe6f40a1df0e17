//! Chaos differential: random programs × random placements × random
//! deterministic fault plans. The invariants the recovering runtime must
//! hold, for every draw:
//!
//! 1. **No unhandled faults** — with host fallback on (the default), a
//!    faulted run succeeds exactly when its fault-free twin does, and
//!    otherwise fails with the same error text.
//! 2. **No wrong answers** — the values fingerprint of the faulted run is
//!    byte-identical to the fault-free one.
//! 3. **Every hard fault is absorbed** — a crash or retry exhaustion
//!    always surfaces as a `MigrationReason::DeviceFault` host fallback,
//!    never as an error or a silent divergence.
//! 4. **Accounting agrees** — the transient faults the recovery layer
//!    reports equal the transient errors the injector actually injected.
//! 5. **Spelling is free** — the program respelled single-assignment (each
//!    read renamed to the definition it sees) simulates to the same report
//!    in every field but the fingerprint, clean and faulted: a value costs
//!    what the line that made it produced, whatever its name goes on to hold.

mod common;

use activepy::exec::ExecOptions;
use common::contract::{faulted, reassigning_programs_respell_for_free, Case, CHAOS};
use common::fault_params;
use csd_sim::fault::FaultPlan;

/// Invariant 5 where it bites, clean and under transient faults.
#[test]
fn respelling_a_reassigning_program_moves_nothing_under_any_placement() {
    let faults = FaultPlan::none()
        .with_seed(7)
        .with_flash_read_error_prob(0.1)
        .with_nvme_error_prob(0.1)
        .with_dma_error_prob(0.1);
    for opts in [
        ExecOptions::activepy(),
        ExecOptions::activepy().with_faults(faults),
    ] {
        reassigning_programs_respell_for_free(CHAOS.name, |case| case.run(&opts));
    }
}

/// Invariants 1–5 on random programs, placements and fault plans.
#[test]
fn faulted_runs_recover_to_the_fault_free_answer() {
    CHAOS.check((Case::placed(), fault_params(0.3)), |(case, faults)| {
        Ok(case.ran(faulted(&case, &faults)?))
    });
}
