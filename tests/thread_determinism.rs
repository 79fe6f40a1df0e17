//! Thread-count determinism: the data-parallel kernel engine must be
//! invisible in every output. Random programs run at 1, 2, and 8 worker
//! threads on both ALang engines and must produce byte-identical
//! values, identical `LineCost` streams, and identical values
//! fingerprints — the chunk grid depends only on data shape and reduction
//! partials combine in chunk-index order, so the schedule can never leak
//! into a result. A pinned fault plan on top must not change that.

mod common;

use activepy::exec::ExecOptions;
use alang::par::MIN_PARALLEL_LEN;
use alang::{ParallelPolicy, Storage};
use common::contract::{threads, Case, THREADS};
use common::programs::Programs;
use common::{datasets, datasets_without_matrix, source};
use csd_sim::fault::FaultPlan;
use csd_sim::units::{Duration, SimTime};
use csd_sim::EngineKind;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Rows of the long datasets: twice `MIN_PARALLEL_LEN`, so an element-wise
/// kernel over them splits into 4 chunks (the element budget is 4096 a
/// chunk), run by 4 workers at 8 threads and 2 at 2, a reduction combines
/// 4 partials, and a result half as long still reaches the engagement
/// threshold.
const LONG: usize = 2 * MIN_PARALLEL_LEN;

/// Rows of the square datasets, the fewest whose `SQUARE × SQUARE` matrix
/// (8 281 entries) reaches `MIN_PARALLEL_LEN`, so the matrix builtins over
/// it (`matmul`, `gram`, `kmeans_assign`, `spmv`, ...) chunk.
const SQUARE: usize = 91;

/// The stored datasets at [`LONG`] rows. They hold no matrix: a square one
/// that long would not fit, so a draw over them calls no matrix builtin.
fn long_storage() -> Storage {
    datasets_without_matrix(LONG, (LONG as u64) << 14)
}

/// 18 of the 44 cases run over [`long_storage`], the others over the
/// [`SQUARE`]-row datasets, whose matrix builtins the long draws cannot
/// call. Every chunked-execution counter is equal at each thread count;
/// 25 cases ran some kernel on the chunked path, the others every kernel
/// serially (a square case calling no matrix builtin, say).
#[test]
fn results_are_identical_at_every_thread_count() {
    let (square, long) = (datasets(SQUARE, (SQUARE as u64) << 14), long_storage());
    let programs = prop_oneof![
        Programs::over(&square).prop_map(|lines| (lines, false)),
        Programs::over(&long).prop_map(|lines| (lines, true)),
    ];
    let flags = prop::collection::vec(any::<bool>(), 0..8);
    let (mut long_cases, mut chunked) = (0, 0);
    THREADS.check((programs, flags), |((lines, is_long), flags)| {
        long_cases += u32::from(is_long);
        let stored = if is_long { &long } else { &square };
        let case = Case::new(source(&lines), stored.clone(), Vec::new());
        let (completed, stats) = threads(&case, &flags, &THREAD_COUNTS)?;
        chunked += u32::from(stats.par_calls > 0);
        Ok(case.ran(completed))
    });
    assert_eq!(
        (long_cases, chunked),
        (18, 25),
        "threads: cases over the long datasets, cases whose kernels chunked"
    );
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
    let placements = vec![
        EngineKind::Cse,
        EngineKind::Cse,
        EngineKind::Host,
        EngineKind::Cse,
        EngineKind::Host,
        EngineKind::Cse,
    ];
    let case = Case::new(src, long_storage(), placements);
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
        for threads in THREAD_COUNTS {
            let opts = ExecOptions::activepy()
                .with_faults(faults.clone())
                .with_parallelism(ParallelPolicy::with_threads(threads));
            let report = case.run(&opts).expect("fixed program runs");
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
