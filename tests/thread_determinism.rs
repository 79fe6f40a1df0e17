//! Thread-count determinism: the data-parallel kernel engine must be
//! invisible in every output. Random programs run at 1, 2, and 8 worker
//! threads on both ALang engines and must produce byte-identical
//! values, identical `LineCost` streams, and identical values
//! fingerprints — the chunk grid depends only on data shape and reduction
//! partials combine in chunk-index order, so the schedule can never leak
//! into a result. A pinned fault plan on top must not change that.

mod common;

use activepy::exec::{execute, ExecOptions};
use alang::builtins::Storage;
use alang::interp::Interpreter;
use alang::parser::parse;
use alang::{ParallelPolicy, Vm};
use common::{expr, source, storage_with, VARS};
use csd_sim::fault::FaultPlan;
use csd_sim::units::{Duration, SimTime};
use csd_sim::{EngineKind, SystemConfig};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// The shared grammar's storage with physical arrays large enough to
/// split into many chunks (the element budget is 4096 a chunk), so
/// parallel execution genuinely happens instead of falling back to the
/// serial fast path: `v` is 24 chunks, and a result a twelfth as long
/// still reaches the 8 192-element engagement threshold.
fn storage() -> Storage {
    storage_with(98_304, 67_175)
}

fn policy(threads: usize) -> ParallelPolicy {
    ParallelPolicy::with_threads(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn results_are_identical_at_every_thread_count(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..6),
        flags in prop::collection::vec(any::<bool>(), 0..8),
    ) {
        let src = source(&lines);
        let program = parse(&src).expect("generated source parses");
        let lowered = alang::lower::lower_with(&program, &flags).expect("lowers");
        let st = storage();

        // (records, per-var debug+bytes) per thread count, both engines; all
        // cells must be equal.
        let mut reference: Option<(String, String)> = None;
        for threads in THREADS {
            let mut interp = Interpreter::with_policy(&st, policy(threads));
            let ast = interp.run(&program, &flags);
            let mut vm = Vm::with_policy(&lowered, &st, policy(threads));
            let vm_res = vm.run();
            let cell = match (ast, vm_res) {
                (Ok(a), Ok(v)) => {
                    prop_assert_eq!(&a, &v, "engines diverged at {} threads for:\n{}", threads, src);
                    let vars: String = interp
                        .var_names()
                        .map(|name| {
                            // Debug-format so identical NaNs compare equal.
                            format!(
                                "{name}={:?}|{:?};{:?}|{:?}\n",
                                interp.var(name),
                                interp.var_bytes(name),
                                vm.var(name),
                                vm.var_bytes(name)
                            )
                        })
                        .collect();
                    (format!("{a:?}"), vars)
                }
                (Err(a), Err(v)) => {
                    prop_assert_eq!(&a, &v, "errors diverged at {} threads for:\n{}", threads, src);
                    (format!("err:{a:?}"), String::new())
                }
                (a, v) => {
                    return Err(TestCaseError::fail(format!(
                        "engines diverged at {threads} threads for:\n{src}\nast: {a:?}\nvm:  {v:?}"
                    )));
                }
            };
            match &reference {
                None => reference = Some(cell),
                Some(first) => {
                    prop_assert_eq!(
                        first, &cell,
                        "thread count {} changed the outcome for:\n{}", threads, src
                    );
                }
            }
        }
    }
}

/// A fixed mixed-placement program whose kernels all chunk under the test
/// policy, replayed fault-free and under a pinned fault plan at every
/// thread count: one `values_fingerprint`, one `LineCost` stream,
/// regardless of schedule or injected faults.
#[test]
fn pinned_faults_and_parallel_kernels_replay_bit_exactly() {
    let src = "a = scan('v')\n\
               b = sqrt(abs(a))\n\
               c = dot(b, b)\n\
               d = (a * 2.5) - 3\n\
               a = sum(d) / (c + 1)\n\
               b = mean(b) + a\n";
    let program = parse(src).expect("fixed source parses");
    let placements = [
        EngineKind::Cse,
        EngineKind::Cse,
        EngineKind::Host,
        EngineKind::Cse,
        EngineKind::Host,
        EngineKind::Cse,
    ];
    let pinned = FaultPlan::none()
        .with_seed(7)
        .with_flash_read_error_prob(0.15)
        .with_nvme_error_prob(0.1)
        .with_dma_error_prob(0.1)
        .with_gc_burst(SimTime::from_secs(0.01), Duration::from_secs(0.02), 0.5);

    // Fingerprints must agree across *everything*; LineCost streams only
    // within a fault plan (injected retries legitimately shift the
    // simulated per-line timings), where the thread count still must not
    // move them.
    let mut fingerprints = Vec::new();
    for faults in [FaultPlan::none(), pinned] {
        let mut cells = Vec::new();
        for threads in THREADS {
            let st = storage();
            let mut system = SystemConfig::paper_default().build();
            let opts = ExecOptions::activepy()
                .with_faults(faults.clone())
                .with_parallelism(policy(threads));
            let report = execute(&program, &st, &placements, &mut system, &opts, None, &[])
                .expect("fixed program runs");
            // The kernels chunk: the input is past the engagement
            // threshold, and the grid is the same at every thread count.
            assert!(
                report.metrics.par.par_calls > 0,
                "chunked execution must engage at {threads} threads"
            );
            // Whole reports differ across cells (chunk counters are
            // recorded); the *answer* may not.
            fingerprints.push(report.values_fingerprint);
            cells.push((format!("{:?}", report.lines), format!("{threads} threads")));
        }
        let (first_lines, first_tag) = cells[0].clone();
        for (lines, tag) in &cells[1..] {
            assert_eq!(
                *lines, first_lines,
                "LineCost diverged: {first_tag} vs {tag}"
            );
        }
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "fault injection or threading changed the answer: {fingerprints:?}"
    );
}
