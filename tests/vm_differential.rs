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
use alang::interp::Interpreter;
use alang::parser::parse;
use alang::Vm;
use common::{expr, source, storage, VARS};
use proptest::prelude::*;

/// Ends every drawn program: `group_sum` twice on one key buffer, so a
/// program that runs to completion misses, then hits, each engine's
/// group-index memo.
const GROUPED: &str = "k = scan('v')\ng = group_sum(k, k)\nh = group_sum(k, k * 2)\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_programs_agree_across_engines(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..6),
        flags in prop::collection::vec(any::<bool>(), 0..8),
    ) {
        let src = source(&lines) + GROUPED;
        let program = parse(&src).expect("generated source parses");
        let st = storage();
        let mut interp = Interpreter::new(&st);
        let ast = interp.run(&program, &flags);
        // Every generated call targets a registered builtin, so lowering
        // cannot fail (unknown functions are a lower-time error).
        let lowered = alang::lower::lower_with(&program, &flags).expect("lowers");
        let mut vm = Vm::new(&lowered, &st);
        let vm_res = vm.run();
        match (ast, vm_res) {
            (Ok(a), Ok(v)) => {
                // Identical LineCost streams, including copy-elim tagging.
                prop_assert_eq!(a, v, "records diverged for:\n{}", src);
                for name in interp.var_names() {
                    // Debug-compare so identical NaNs (0/0, sqrt of a
                    // negative) don't read as inequality.
                    prop_assert_eq!(
                        format!("{:?}", interp.var(name)),
                        format!("{:?}", vm.var(name)),
                        "variable `{}` diverged for:\n{}", name, src
                    );
                    prop_assert_eq!(interp.var_bytes(name), vm.var_bytes(name));
                }
            }
            (Err(a), Err(v)) => {
                prop_assert_eq!(a, v, "errors diverged for:\n{}", src);
            }
            (a, v) => {
                return Err(TestCaseError::fail(format!(
                    "engines diverged for:\n{src}\nast: {a:?}\nvm:  {v:?}"
                )));
            }
        }
    }
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
        let program = w.program().expect("registered workloads parse");
        let st = w.storage_at(smallest);
        // The plan's flags: what sampling observed, through the same pass.
        let sampling = run_sampling(&program, &w, &scales).expect("sampling runs");
        let plan_flags = eliminable_lines(&program, &sampling.dataset_types);
        for flags in [plan_flags.as_slice(), &[]] {
            let mut interp = Interpreter::new(&st);
            let ast = interp.run(&program, flags).expect("interpreter runs");
            let lowered = alang::lower::lower_with(&program, flags).expect("lowers");
            let mut vm = Vm::new(&lowered, &st);
            let records = vm.run().expect("vm runs");
            assert_eq!(ast, records, "{}: LineCost streams diverged", w.name());
            for name in interp.var_names() {
                // Debug-compare so identical NaNs don't read as inequality.
                assert_eq!(
                    format!("{:?}", interp.var(name)),
                    format!("{:?}", vm.var(name)),
                    "{}: variable `{name}` diverged",
                    w.name()
                );
                assert_eq!(interp.var_bytes(name), vm.var_bytes(name), "{}", w.name());
            }
        }
    }
}
