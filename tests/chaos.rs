//! Chaos differential: random programs × random placements × random
//! deterministic fault plans. The invariants the recovering runtime must
//! hold, for every draw:
//!
//! 1. **No unhandled faults** — with host fallback on (the default), a
//!    faulted run succeeds exactly when its fault-free twin does.
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

use activepy::exec::{execute, ExecOptions, MigrationReason, RunReport};
use activepy::ActivePyError;
use alang::parser::parse;
use common::{
    all_placements, expr, fault_plan, masked_run, placements, single_assignment, source, storage,
    REASSIGNING, VARS,
};
use csd_sim::fault::FaultPlan;
use csd_sim::{EngineKind, FaultCounters, SystemConfig};
use proptest::prelude::*;

/// One execution on a fresh system; returns the report (or error) plus
/// what the injector actually injected.
fn run_once(
    src: &str,
    placements: &[EngineKind],
    faults: &FaultPlan,
) -> (Result<RunReport, ActivePyError>, FaultCounters) {
    let program = parse(src).expect("generated source parses");
    let st = storage();
    let mut system = SystemConfig::paper_default().build();
    let opts = ExecOptions::activepy().with_faults(faults.clone());
    let res = execute(&program, &st, placements, &mut system, &opts, None, &[]);
    (res, system.fault_counters())
}

/// Invariant 5 where it bites: few drawn programs both run to completion
/// and read a name they reassign, so the same assertion over programs that
/// do, under every placement, clean and under transient faults.
#[test]
fn respelling_a_reassigning_program_moves_nothing_under_any_placement() {
    let faults = FaultPlan::none()
        .with_seed(7)
        .with_flash_read_error_prob(0.1)
        .with_nvme_error_prob(0.1)
        .with_dma_error_prob(0.1);
    for src in REASSIGNING {
        let program = parse(src).expect("parse");
        let respelled = single_assignment(&program);
        for placements in all_placements(program.len()) {
            for plan in [&FaultPlan::none(), &faults] {
                let (named, _) = run_once(src, &placements, plan);
                let (single, _) = run_once(&respelled, &placements, plan);
                assert!(named.is_ok(), "{named:?} for:\n{src}");
                assert_eq!(
                    masked_run(&named),
                    masked_run(&single),
                    "respelling moved the simulation under {placements:?} for:\n{src}as:\n{respelled}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn faulted_runs_recover_to_the_fault_free_answer(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..6),
        on_csd in prop::collection::vec(any::<bool>(), 6..7),
        faults in fault_plan(),
    ) {
        let src = source(&lines);
        let placements = placements(&on_csd, lines.len());
        let clean_plan = FaultPlan::none();

        let (clean, _) = run_once(&src, &placements, &clean_plan);
        let (faulted, injected) = run_once(&src, &placements, &faults);
        // Invariant 5: names carry no cost.
        let respelled = single_assignment(&parse(&src).expect("generated source parses"));
        for (plan, named) in [(&clean_plan, &clean), (&faults, &faulted)] {
            let (single, _) = run_once(&respelled, &placements, plan);
            prop_assert_eq!(
                masked_run(named), masked_run(&single),
                "respelling moved the simulation for:\n{}as:\n{}", src, respelled
            );
        }
        match (clean, faulted) {
            (Ok(clean), Ok(faulted)) => {
                // Invariant 2: byte-identical answers.
                prop_assert_eq!(
                    clean.values_fingerprint, faulted.values_fingerprint,
                    "faults changed the answer for:\n{}", src
                );
                // Invariant 3: hard faults always resolve into a
                // device-fault migration, never an unhandled error.
                if faulted.metrics.recovery.hard_faults > 0 {
                    let mig = faulted.migration().expect("hard fault must migrate");
                    prop_assert_eq!(mig.reason, MigrationReason::DeviceFault);
                    prop_assert!(faulted.metrics.recovery.fault_migrations >= 1);
                }
                // Invariant 4: recovery accounting matches injection.
                prop_assert_eq!(
                    faulted.metrics.recovery.transient_faults,
                    injected.transient_total(),
                    "recovery layer missed injected faults for:\n{}", src
                );
                // A crash latches: once observed, nothing further runs
                // on the CSE, so at most one crash is ever counted.
                prop_assert!(injected.cse_crashes <= 1);
            }
            (Err(_), Err(_)) => {
                // Invalid programs (reads of undefined names) fail
                // with or without faults; nothing further to check.
            }
            (clean, faulted) => {
                // Invariant 1 violated.
                return Err(TestCaseError::fail(format!(
                    "fault injection changed success for:\n{src}\n\
                     clean: {clean:?}\nfaulted: {faulted:?}"
                )));
            }
        }
    }
}
