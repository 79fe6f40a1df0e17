//! The builtin table's types against the kernels themselves.
//!
//! Copy elimination trusts `alang::copyelim::infer_types`, which reads each
//! builtin's result type from the kernel table. This runs every registered
//! program at the smallest sampling scale, line by line through the VM, and
//! demands that the inferred type of every line is exactly the type of the
//! value the line produced — so a wrong result-type rule on any builtin a
//! registered program calls fails here. Every call those lines make must
//! also pass its row's argument check on the types inferred for its
//! arguments.

use activepy::sampling::observe_dataset_types;
use alang::ast::Expr;
use alang::builtins::{call, Storage};
use alang::copyelim::{infer_types, StaticType};
use alang::forest::{Forest, Tree, TreeNode};
use alang::matrix::Matrix;
use alang::table::{Column, Table};
use alang::value::{ArrayVal, BoolArrayVal, EncodedVal};
use alang::{LangError, Value, Vm};
use csd_sim::wire::Encoding;
use std::sync::Arc;

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

/// Every call in `expr`, outermost first.
fn calls<'e>(expr: &'e Expr, out: &mut Vec<(&'e str, &'e [Expr])>) {
    match expr {
        Expr::Call { name, args } => {
            out.push((name, args));
            args.iter().for_each(|a| calls(a, out));
        }
        Expr::Binary { lhs, rhs, .. } => {
            calls(lhs, out);
            calls(rhs, out);
        }
        Expr::Unary { expr, .. } => calls(expr, out),
        Expr::Num(_) | Expr::Str(_) | Expr::Ident(_) => {}
    }
}

/// A value of type `ty`: all a row's argument check reads of it.
fn value_of(ty: StaticType) -> Value {
    let square = || Matrix::new(vec![1.0, 0.0, 2.0, 3.0], 2, 2).expect("matrix");
    match ty {
        StaticType::Num => Value::Num(1.0),
        StaticType::Bool => Value::Bool(true),
        StaticType::Str => Value::Str("v".into()),
        StaticType::Array => Value::Array(ArrayVal::new(vec![0.0, 1.0])),
        StaticType::BoolArray => Value::BoolArray(BoolArrayVal::new(vec![true, false])),
        StaticType::Table => Value::Table(
            Table::new(vec![("v".into(), Column::F64(Arc::new(vec![1.0, 2.0])))]).expect("table"),
        ),
        StaticType::Matrix => Value::Matrix(square()),
        StaticType::Csr => Value::Csr(square().to_csr()),
        StaticType::Forest => Value::Forest(
            Forest::new(vec![Tree::new(vec![TreeNode::leaf(1.0)]).expect("tree")], 1)
                .expect("forest"),
        ),
        StaticType::Encoded => Value::Encoded(EncodedVal::from_f64s(
            Encoding::gzip_shuffled(),
            &[1.0, 2.0],
            2,
        )),
        StaticType::Unknown => panic!("every argument of a registered call is typed"),
    }
}

#[test]
fn every_registered_call_passes_its_row_on_its_inferred_argument_types() {
    let mut checked = 0;
    for w in &isp_workloads::full_set() {
        let program = w.program().expect("registered workloads parse");
        let datasets = observe_dataset_types(&w.storage_at(1.0 / 1024.0));
        let lines = program.lines();
        for line in lines {
            let mut found = Vec::new();
            calls(&line.expr, &mut found);
            for (name, args) in found {
                // Each argument typed as a line of its own after the lines
                // before the call.
                let mut source: String = lines[..line.index]
                    .iter()
                    .map(|l| format!("{} = {}\n", l.target, l.expr))
                    .collect();
                for (i, arg) in args.iter().enumerate() {
                    source.push_str(&format!("arg_{i}_ = {arg}\n"));
                }
                let typed = alang::parser::parse(&source).expect("parses");
                let types = infer_types(&typed, &datasets);
                let values: Vec<Value> = types[line.index..].iter().map(|t| value_of(*t)).collect();
                let context = format!(
                    "{} line {}: `{name}` on {:?}",
                    w.name(),
                    line.index,
                    &types[line.index..]
                );
                match call(name, &values, &Storage::new()) {
                    Err(LangError::Arity { .. }) => panic!("{context}: arity"),
                    Err(LangError::Type { message }) => assert!(
                        !message.starts_with("expected ") && !message.contains(" expects "),
                        "{context}: {message}"
                    ),
                    _ => {}
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 100, "every call on the 137 lines");
}
