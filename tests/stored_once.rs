//! The stored dataset is made once and hashed once.
//!
//! A run's `values_fingerprint` takes, per variable, the digest of the
//! variable's final value. For a variable whose final assignment is a bare
//! `scan('…')` / `scan_raw('…')` the executor takes the digest the
//! [`Storage`] keeps beside the dataset instead of re-reading the dataset.
//! These tests pin that shortcut against the plain path — every variable
//! hashed from the value the `Vm` holds — and pin what a [`Workload`]
//! generates across the calls that share it, and that sampling a stored
//! dataset's buffers once reports what sampling copies of them reports.

use activepy::exec::{execute, ExecOptions};
use activepy::runtime::ActivePy;
use activepy::sampling::{paper_scales, run_sampling};
use activepy::{plan_fingerprint, PlanCache};
use alang::builtins::Storage;
use alang::forest::Forest;
use alang::lower::lower;
use alang::matrix::{Csr, Matrix};
use alang::parser::parse;
use alang::shape::StoredReads;
use alang::table::{Column, Table};
use alang::value::{ArrayVal, BoolArrayVal, EncodedVal};
use alang::{Fingerprinter, Program, Value, Vm};
use csd_sim::wire::Encoding;
use csd_sim::{ContentionScenario, EngineKind, SystemConfig};
use isp_baselines::{run_c_baseline, run_plan};
use isp_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The fingerprint the executor reports for `program` over `storage`.
fn executed(program: &Program, storage: &Storage) -> u64 {
    let placements = vec![EngineKind::Host; program.len()];
    let mut system = SystemConfig::paper_default().build();
    let opts = ExecOptions::native_static();
    execute(program, storage, &placements, &mut system, &opts, None, &[])
        .expect("program runs")
        .values_fingerprint
}

/// The plain path: run the `Vm`, then hash every target from the value the
/// `Vm` ends up holding. Asks the storage for nothing.
fn hashed_value_by_value(program: &Program, storage: &Storage) -> u64 {
    let lowered = lower(program).expect("lowers");
    let mut vm = Vm::new(&lowered, storage);
    vm.run().expect("program runs");
    let mut fp = Fingerprinter::default();
    for target in program.targets() {
        fp.var(target, vm.var(target));
    }
    fp.finish()
}

/// The same datasets under fresh entries: nothing remembered.
fn rebuilt(storage: &Storage) -> Storage {
    let mut fresh = Storage::new();
    for name in storage.names() {
        fresh.insert(name, storage.get(name).expect("listed").clone());
    }
    fresh
}

fn array(data: Vec<f64>) -> Value {
    let logical = data.len() as u64;
    Value::Array(ArrayVal::with_logical(data, logical))
}

#[test]
fn every_registered_program_fingerprints_alike_fresh_remembered_and_rebuilt() {
    for w in isp_workloads::full_set() {
        let program = w.program().expect("parses");
        let storage = w.storage_at(1.0);
        let scanned = program
            .targets()
            .filter(|t| program.scanned_dataset(t).is_some())
            .count();
        assert!(scanned > 0, "{}: no variable is a stored dataset", w.name());

        let plain = hashed_value_by_value(&program, &storage);
        let fresh = executed(&program, &storage);
        let remembered = executed(&program, &storage);
        let over_rebuilt = executed(&program, &rebuilt(&storage));
        assert_eq!(fresh, plain, "{}: first run", w.name());
        assert_eq!(remembered, plain, "{}: digests remembered", w.name());
        assert_eq!(over_rebuilt, plain, "{}: rebuilt storage", w.name());
        for name in storage.names() {
            assert_eq!(
                storage.digest(name).expect("listed"),
                Fingerprinter::digest(storage.get(name).expect("listed")),
                "{}: remembered digest of `{name}`",
                w.name()
            );
        }
    }
}

#[test]
fn reinserting_a_dataset_forgets_its_digest_and_a_clone_keeps_the_old_one() {
    // Nothing but `a` can tell the two inputs apart.
    let program = parse("a = scan('x')\nn = len(a)\n").expect("parses");
    let data: Vec<f64> = (0..4096).map(|i| f64::from(i) * 0.25).collect();
    let mut flipped = data.clone();
    flipped[1234] = f64::from_bits(flipped[1234].to_bits() ^ 1);

    let mut storage = Storage::new();
    storage.insert("x", array(data));
    let old = executed(&program, &storage);
    assert_eq!(executed(&program, &storage), old);
    let before = storage.clone();
    let old_digest = before.digest("x").expect("present");

    storage.insert("x", array(flipped));
    let new = executed(&program, &storage);
    assert_ne!(new, old, "one mantissa bit of one element must show");
    assert_eq!(new, hashed_value_by_value(&program, &storage));
    assert_ne!(storage.digest("x").expect("present"), old_digest);

    assert_eq!(executed(&program, &before), old);
    assert_eq!(before.digest("x").expect("present"), old_digest);
}

#[test]
fn only_a_final_bare_scan_takes_the_stored_digest() {
    let data: Vec<f64> = (0..300).map(|i| f64::from(i % 17) - 3.5).collect();
    let mut storage = Storage::new();
    storage.insert("x", array(data.clone()));
    storage.insert(
        "e",
        Value::Encoded(EncodedVal::from_f64s(Encoding::gzip_shuffled(), &data, 300)),
    );
    // (source, the variables that are a stored dataset when it ends)
    let cases: [(&str, &[&str]); 8] = [
        ("a = scan('x')\na = a + 1\n", &[]),
        ("a = scan('x') + 1\na = scan('x')\n", &["a"]),
        ("b = sum(scan('x'))\n", &[]),
        ("r = scan_raw('e')\nd = decode(r)\ns = sum(d)\n", &["r"]),
        ("a = scan('x')\nb = scan('x')\nc = a + b\n", &["a", "b"]),
        ("a = scan(\"x\")\nb = a\n", &["a"]),
        ("n = 'x'\na = scan(n)\n", &[]),
        ("a = -scan('x')\n", &[]),
    ];
    for (src, stored) in cases {
        let program = parse(src).expect("parses");
        let found: Vec<&str> = program
            .targets()
            .filter(|t| program.scanned_dataset(t).is_some())
            .collect();
        assert_eq!(found, stored, "{src}");
        let plain = hashed_value_by_value(&program, &storage);
        // Twice: before and after the storage has remembered anything.
        assert_eq!(executed(&program, &rebuilt(&storage)), plain, "{src}");
        assert_eq!(executed(&program, &storage), plain, "{src}");
        assert_eq!(executed(&program, &storage), plain, "{src}");
    }
    // One dataset under two names is two variables, not one.
    let both = parse("a = scan('x')\nb = scan('x')\n").expect("parses");
    let one = parse("a = scan('x')\n").expect("parses");
    assert_ne!(executed(&both, &storage), executed(&one, &storage));
}

/// `inner` behind a generator that counts its Table-I-scale calls.
fn counting(inner: &Workload) -> (Workload, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let generator = {
        let (inner, calls) = (inner.clone(), Arc::clone(&calls));
        Arc::new(move |scale: f64, reads: &StoredReads| {
            if scale == 1.0 {
                calls.fetch_add(1, Ordering::Relaxed);
            }
            // A workload of its own per call, so nothing of `inner`'s is
            // kept between calls either.
            isp_workloads::by_name(inner.name())
                .expect("registered")
                .projected_storage_at(scale, reads)
        })
    };
    let counted = Workload::new(
        inner.name(),
        inner.table1_gb(),
        inner.description(),
        inner.source(),
        generator,
    )
    .with_encodings(inner.encodings().to_vec());
    (counted, calls)
}

#[test]
fn planning_executing_and_both_baselines_generate_the_table1_input_once() {
    let config = SystemConfig::paper_default();
    for name in ["TPC-H-6", "MatrixMul", "TPC-H-6-gz"] {
        let registered = isp_workloads::by_name(name).expect("registered");
        let (w, calls) = counting(&registered);
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let program = w.program().expect("parses");
        let plan = cache
            .plan_for(&rt, w.name(), &program, &w, &config)
            .expect("plans");
        let clean = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("clean run")
            .report;
        let dropped = rt
            .execute_plan(
                &plan,
                &config,
                ContentionScenario::after_progress(0.45, 0.1),
            )
            .expect("contended run")
            .report;
        let fixed = isp_baselines::OffloadPlan {
            placements: plan.assignment.placements(program.len()),
            range: None,
            optimized_secs: 0.0,
        };
        let static_c =
            run_plan(&w, &config, &fixed, ContentionScenario::constant(0.5)).expect("static run");
        let c_base = run_c_baseline(&w, &config).expect("C baseline");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "{name}");
        for report in [&dropped, &static_c, &c_base] {
            assert_eq!(
                report.values_fingerprint, clean.values_fingerprint,
                "{name}"
            );
        }
        // And the one input is the one a generator call makes.
        let fresh = registered.storage_at(1.0);
        assert_eq!(
            executed(&program, &fresh),
            clean.values_fingerprint,
            "{name}"
        );
    }
}

/// `v` with every buffer copied: equal to `v`, sharing no buffer with it.
fn deep_copy(v: &Value) -> Value {
    match v {
        Value::Num(_) | Value::Bool(_) | Value::Str(_) => v.clone(),
        Value::Array(a) => Value::Array(ArrayVal::with_logical(a.data().to_vec(), a.logical_len())),
        Value::BoolArray(a) => Value::BoolArray(BoolArrayVal::with_logical(
            a.data().to_vec(),
            a.logical_len(),
        )),
        Value::Table(t) => {
            let columns = t
                .column_names()
                .map(|name| {
                    let column = match t.column(name).expect("listed") {
                        Column::F64(c) => Column::F64(Arc::new(c.to_vec())),
                        Column::Dict { codes, dict } => Column::Dict {
                            codes: Arc::new(codes.to_vec()),
                            dict: Arc::new(dict.to_vec()),
                        },
                    };
                    (name.to_owned(), column)
                })
                .collect();
            Value::Table(Table::with_logical_rows(columns, t.logical_rows()).expect("table"))
        }
        Value::Matrix(m) => Value::Matrix(
            Matrix::with_logical(
                m.data().to_vec(),
                m.rows(),
                m.cols(),
                m.logical_rows(),
                m.logical_cols(),
            )
            .expect("matrix"),
        ),
        Value::Csr(c) => Value::Csr(
            Csr::from_parts(
                c.row_ptr().to_vec(),
                c.col_idx().to_vec(),
                c.values().to_vec(),
                c.cols(),
                c.logical_rows(),
                c.logical_cols(),
                c.logical_nnz(),
            )
            .expect("csr"),
        ),
        Value::Forest(f) => {
            Value::Forest(Forest::new(f.trees().to_vec(), f.feature_count()).expect("forest"))
        }
        Value::Encoded(e) => Value::Encoded(EncodedVal::from_parts(
            *e.encoding(),
            e.chunks().to_vec(),
            e.actual_len(),
            e.logical_len(),
            e.encoded_logical_bytes(),
        )),
    }
}

/// Every dataset of `storage` deep-copied into a storage of its own.
fn deep_copied(storage: &Storage) -> Storage {
    let mut copy = Storage::new();
    for name in storage.names() {
        let value = storage.get(name).expect("listed");
        let copied = deep_copy(value);
        assert_eq!(&copied, value, "{name}: a deep copy is equal");
        copy.insert(name, copied);
    }
    copy
}

#[test]
fn sampling_a_stored_buffer_once_reports_what_sampling_copies_of_it_reports() {
    // Five workloads relabel one stored draw per scale, so their sample
    // runs read the same buffers and share each memoized kernel's result.
    // Copied per scale, no buffer is shared and every kernel computes: the
    // report, and the plan made from it, must not tell the two apart, nor
    // tell either from sample runs with no memo at all.
    let config = SystemConfig::paper_default();
    let rt = ActivePy::new();
    for w in isp_workloads::full_set() {
        let program = w.program().expect("parses");
        let copies = |scale: f64| deep_copied(&w.storage_at(scale));
        let shared = run_sampling(&program, &w, &paper_scales()).expect("samples");
        let copied = run_sampling(&program, &copies, &paper_scales()).expect("samples");
        assert_eq!(shared, copied, "{}: sampling report", w.name());
        // And each point is what a `Vm` lent no memo measures at its scale.
        let lowered = lower(&program).expect("lowers");
        for (i, scale) in paper_scales().into_iter().enumerate() {
            let storage = w.storage_at(scale);
            for rec in Vm::new(&lowered, &storage).run().expect("runs") {
                assert_eq!(
                    shared.lines[rec.index].points[i].cost,
                    rec.cost,
                    "{}: line {} at scale {scale}",
                    w.name(),
                    rec.index
                );
            }
        }
        let plan = rt.plan(&program, &w, &config).expect("plans");
        let over_copies = rt.plan(&program, &copies, &config).expect("plans");
        assert_eq!(
            plan_fingerprint(&plan),
            plan_fingerprint(&over_copies),
            "{}: plan",
            w.name()
        );
    }
}
