//! Differential testing of the two ALang engines: random programs and
//! random copy-elimination flags must behave identically on the
//! tree-walking reference interpreter and the lowered register-bytecode VM
//! — same [`alang::Value`]s, same `LineCost` stream (including copy-elim
//! tagging), same errors at the same lines. Line evaluation is the only
//! place the engines differ, and the runtime only ever runs the VM, so
//! this is where their equivalence is proved — for random programs and
//! for every registered workload program.

mod common;

use activepy::sampling::{paper_scales, run_sampling};
use alang::copyelim::eliminable_lines;
use alang::ParallelPolicy;
use common::contract::{engines, Case, VM};
use common::programs::Programs;
use common::{source, storage};
use proptest::prelude::*;

/// Ends every drawn program: `group_sum` twice on one key buffer, so a
/// program that runs to completion misses, then hits, each engine's
/// group-index memo.
const GROUPED: &str = "k = scan('v')\ng = group_sum(k, k)\nh = group_sum(k, k * 2)\n";

#[test]
fn random_programs_agree_across_engines() {
    let flags = prop::collection::vec(any::<bool>(), 0..8);
    let programs = Programs::over(&storage());
    VM.check((programs, flags), |(lines, flags)| {
        let case = Case::new(source(&lines) + GROUPED, storage(), Vec::new());
        let (run, _) = engines(VM.name, &case, &flags, ParallelPolicy::default())?;
        Ok(case.ran(run.is_ok()))
    });
}

/// Every program in the workload registry — and with them every builtin
/// a workload calls — at the smallest sampling scale, with the copy-
/// elimination flags its plan bakes in and with none: identical `LineCost`
/// streams, identical final values and sizes for every variable.
#[test]
fn every_workload_program_agrees_across_engines() {
    let scales = paper_scales();
    let smallest = scales.iter().copied().fold(f64::INFINITY, f64::min);
    for w in isp_workloads::full_set() {
        let case = Case::new(w.source(), w.storage_at(smallest), Vec::new());
        // The plan's flags: what sampling observed, through the same pass.
        let sampling = run_sampling(&case.program, &w, &scales).expect("sampling runs");
        let plan_flags = eliminable_lines(&case.program, &sampling.dataset_types);
        for flags in [plan_flags.as_slice(), &[]] {
            let run = engines(w.name(), &case, flags, ParallelPolicy::default());
            let (run, _) = run.unwrap_or_else(|e| panic!("{e}"));
            assert!(run.is_ok(), "{}: {run:?}", w.name());
        }
    }
}
