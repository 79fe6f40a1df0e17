//! The builtin table's result types against the kernels themselves.
//!
//! Copy elimination trusts `alang::copyelim::infer_types`, which reads each
//! builtin's result type from the kernel table. This runs every registered
//! program at the smallest sampling scale, line by line through the VM, and
//! demands that the inferred type of every line is exactly the type of the
//! value the line produced — so a wrong result-type rule on any builtin a
//! registered program calls fails here.

use activepy::sampling::observe_dataset_types;
use alang::copyelim::{infer_types, StaticType};
use alang::Vm;

#[test]
fn inferred_types_are_the_types_every_registered_line_produces() {
    let workloads = isp_workloads::full_set();
    assert_eq!(workloads.len(), 12);
    let mut checked = 0;
    for w in &workloads {
        let program = w.program().expect("registered workloads parse");
        let storage = w.storage_at(1.0 / 1024.0);
        let types = infer_types(&program, &observe_dataset_types(&storage));
        let lowered = alang::lower::lower(&program).expect("lowers");
        let mut vm = Vm::new(&lowered, &storage);
        for (line, inferred) in program.lines().iter().zip(&types) {
            vm.exec_line(line.index).expect("line runs");
            let value = vm.var(&line.target).expect("line defines its target");
            assert_eq!(
                *inferred,
                StaticType::of(value),
                "{} line {}: `{}`",
                w.name(),
                line.index,
                line.source
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 137, "every line of the twelve programs");
}
