//! Deterministic data-parallel kernel engine.
//!
//! The paper's CSD executes offloaded kernels on 8× ARM Cortex-A72 cores;
//! this module is the executable counterpart of the aggregate
//! `cores × ipc × freq × parallel_efficiency` service rate modelled in
//! `csd-sim`. The design rule that makes parallelism safe to reproduce:
//!
//! 1. **The chunk grid depends only on data shape.** Work is cut into
//!    fixed-budget chunks ([`CHUNK_ELEMS`] input elements each) — never
//!    into `threads` pieces — so the same input yields the same chunks at
//!    1, 2, 4, or 8 threads.
//! 2. **Workers grab chunks via an atomic cursor.** Which thread runs
//!    which chunk is scheduling noise; the per-chunk results are slotted
//!    by chunk index, not by worker.
//! 3. **Reductions combine per-chunk partials in ascending chunk order.**
//!    Floating-point addition is reassociated only along chunk
//!    boundaries, which are thread-independent — so sums, dots, norms,
//!    centroids, and rank vectors are bit-identical across thread counts.
//!
//! Inputs below [`MIN_PARALLEL_LEN`] never engage the chunked path at all
//! (including at `threads = 1`), keeping the original serial fast path for
//! small arrays.

use crate::pool;
use crate::simd;
use isp_obs::{SpanKind, Tracer};
use serde::Serialize;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Fixed chunk budget, in input elements of work per chunk. The grid is
/// derived from this and the data shape alone — never from the thread
/// count — which is what keeps chunked results identical at 1..=8 threads.
pub const CHUNK_ELEMS: usize = 4096;

/// Total input elements below which a kernel keeps its untouched serial
/// fast path: chunking, and its reassociated reductions, never engages
/// below this, at any thread count.
pub const MIN_PARALLEL_LEN: usize = 8192;

/// Most threads a policy may request (the submitting thread plus the
/// pool's helper cap).
pub const MAX_THREADS: usize = pool::MAX_HELPERS + 1;

/// Validated data-parallel execution policy for kernel calls.
///
/// Execution-only: like fault and recovery options it is excluded from
/// plan-cache fingerprints, and sampling always runs serial. `threads`
/// decides who executes chunks; [`MIN_PARALLEL_LEN`] and the fixed
/// [`CHUNK_ELEMS`] budget decide what the chunks are — so every policy
/// produces bit-identical values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ParallelPolicy {
    /// Worker count including the calling thread; `1` means serial.
    pub threads: usize,
}

impl Default for ParallelPolicy {
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelPolicy {
    /// The serial policy: one thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A policy with `threads` workers. Not validated; call
    /// [`Self::validate`] at the execution door.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// Checks the policy is executable: `1..=MAX_THREADS` threads.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(format!(
                "parallel policy: threads must be in 1..={MAX_THREADS}, got {}",
                self.threads
            ));
        }
        Ok(())
    }
}

/// Live per-engine counters (atomics so `&ParEngine` can count from any
/// worker). Cloning snapshots the current values into fresh atomics.
#[derive(Debug, Default)]
pub struct ParStats {
    par_calls: AtomicU64,
    serial_calls: AtomicU64,
    chunks: AtomicU64,
}

impl Clone for ParStats {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        Self {
            par_calls: AtomicU64::new(snap.par_calls),
            serial_calls: AtomicU64::new(snap.serial_calls),
            chunks: AtomicU64::new(snap.chunks),
        }
    }
}

impl ParStats {
    fn snapshot(&self) -> ParStatsSnapshot {
        ParStatsSnapshot {
            par_calls: self.par_calls.load(Ordering::Relaxed),
            serial_calls: self.serial_calls.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
        }
    }
}

/// Counter snapshot recorded into run reports.
///
/// Holds only the counters that derive from the thread-independent chunk
/// grid, so `Eq` is derived and two same-input runs compare equal at any
/// thread count. Which thread ran a chunk is never counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub struct ParStatsSnapshot {
    /// Kernel calls that engaged the chunked path.
    pub par_calls: u64,
    /// Kernel calls that stayed on the serial fast path.
    pub serial_calls: u64,
    /// Total chunks executed across all engaged calls.
    pub chunks: u64,
}

/// The chunk size, in work items, for items costing `elems_per_item`
/// input elements each. Depends only on the fixed budget and the
/// per-item cost — never on the thread count.
#[must_use]
pub fn chunk_items(elems_per_item: usize) -> usize {
    (CHUNK_ELEMS / elems_per_item.max(1)).max(1)
}

/// A policy plus counters: the handle kernels execute through.
#[derive(Debug, Clone, Default)]
pub struct ParEngine {
    policy: ParallelPolicy,
    stats: ParStats,
    tracer: Tracer,
}

impl ParEngine {
    /// An engine running `policy`.
    #[must_use]
    pub fn new(policy: ParallelPolicy) -> Self {
        Self {
            policy,
            stats: ParStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; engaged kernel calls then record `kernel.par`
    /// spans (from the submitting thread only — helper scheduling never
    /// touches the trace) and publish `kernel.*` counters.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default). Kernels use it to
    /// publish kernel-level counters — e.g. the decode kernel's
    /// `kernel.decode.*` byte and codec counters — without threading a
    /// second handle through [`crate::builtins::KernelCtx`].
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A fresh serial engine.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(ParallelPolicy::serial())
    }

    /// A shared serial engine for compatibility call sites that have no
    /// engine of their own (its counters are shared and never asserted).
    #[must_use]
    pub fn serial_ref() -> &'static ParEngine {
        static SERIAL: OnceLock<ParEngine> = OnceLock::new();
        SERIAL.get_or_init(ParEngine::serial)
    }

    /// Current deterministic counter values.
    #[must_use]
    pub fn stats(&self) -> ParStatsSnapshot {
        self.stats.snapshot()
    }

    /// Runs `f` once per chunk of `0..items` and returns the per-chunk
    /// results **in ascending chunk order**, or `None` when the total
    /// work (`items × elems_per_item`) is below [`MIN_PARALLEL_LEN`] —
    /// callers then take their untouched serial fast path.
    ///
    /// `f` receives `(chunk_index, item_range)`. The chunk grid depends
    /// only on the data shape; the thread count only decides who runs
    /// the chunks, so the returned vector is identical at any `threads`.
    pub fn map_chunks<R, F>(&self, items: usize, elems_per_item: usize, f: F) -> Option<Vec<R>>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let work = items.saturating_mul(elems_per_item.max(1));
        if items == 0 || work < MIN_PARALLEL_LEN {
            self.stats.serial_calls.fetch_add(1, Ordering::Relaxed);
            self.tracer.counter_add("kernel.serial_calls", 1);
            return None;
        }
        let chunk = chunk_items(elems_per_item);
        let n_chunks = items.div_ceil(chunk);
        self.stats.par_calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .chunks
            .fetch_add(n_chunks as u64, Ordering::Relaxed);
        self.tracer.counter_add("kernel.par_calls", 1);
        self.tracer.counter_add("kernel.chunks", n_chunks as u64);
        let span = self.tracer.begin_with(
            "kernel.par",
            SpanKind::Kernel,
            None,
            self.tracer.attrs(|| {
                vec![
                    ("items".to_string(), items.into()),
                    ("elems_per_item".to_string(), elems_per_item.into()),
                    ("chunks".to_string(), n_chunks.into()),
                    ("threads".to_string(), self.policy.threads.into()),
                ]
            }),
        );
        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let body = || loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk;
            let hi = items.min(lo + chunk);
            let out = f(c, lo..hi);
            *slots[c].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        };
        let helpers = self.policy.threads.saturating_sub(1).min(n_chunks - 1);
        pool::run_parallel(helpers, &body);
        self.tracer.end(span, None);
        Some(
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .expect("the cursor hands every chunk to exactly one worker")
                })
                .collect(),
        )
    }

    /// Chunk-ordered sum of `f(x)` over `data` (serial fallback below
    /// the engagement threshold). The engaged in-chunk body runs the
    /// [`crate::simd`] lane kernel — bit-identical at every thread count
    /// because the chunk grid and the in-chunk lane order are both fixed
    /// by shape alone.
    pub fn sum_by<F>(&self, data: &[f64], f: F) -> f64
    where
        F: Fn(f64) -> f64 + Sync,
    {
        match self.map_chunks(data.len(), 1, |_, r| simd::sum8_by(&data[r], &f)) {
            Some(partials) => partials.into_iter().sum(),
            None => data.iter().map(|x| f(*x)).sum(),
        }
    }

    /// Chunk-ordered sum of `data`.
    pub fn sum(&self, data: &[f64]) -> f64 {
        self.sum_by(data, |x| x)
    }

    /// Chunk-ordered fold of `data` with `g` starting from `init`
    /// (`g` must be associative-enough for the caller, e.g. min/max).
    pub fn fold<G>(&self, data: &[f64], init: f64, g: G) -> f64
    where
        G: Fn(f64, f64) -> f64 + Sync,
    {
        match self.map_chunks(data.len(), 1, |_, r| {
            data[r].iter().fold(init, |acc, x| g(acc, *x))
        }) {
            Some(partials) => partials.into_iter().fold(init, &g),
            None => data.iter().fold(init, |acc, x| g(acc, *x)),
        }
    }

    /// Chunk-ordered dot product; caller guarantees equal lengths. The
    /// engaged in-chunk body runs the [`crate::simd`] lane kernel.
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self.map_chunks(a.len(), 1, |_, r| simd::dot8(&a[r.clone()], &b[r])) {
            Some(partials) => partials.into_iter().sum(),
            None => a.iter().zip(b).map(|(x, y)| x * y).sum(),
        }
    }

    /// Chunk-ordered minimum of `data` (`+inf` on empty input). The
    /// engaged path runs the [`crate::simd`] lane kernel per chunk and
    /// combines chunk partials with `f64::min` in chunk order; the
    /// serial fallback is the exact `fold(+inf, f64::min)` this call
    /// replaces at `reduce("minv")` call sites, so below-threshold
    /// results are byte-for-byte unchanged.
    #[must_use]
    pub fn min(&self, data: &[f64]) -> f64 {
        match self.map_chunks(data.len(), 1, |_, r| simd::min8(&data[r], f64::INFINITY)) {
            Some(partials) => partials.into_iter().fold(f64::INFINITY, f64::min),
            None => data.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        }
    }

    /// Chunk-ordered maximum of `data` (`-inf` on empty input); the
    /// mirror of [`Self::min`].
    #[must_use]
    pub fn max(&self, data: &[f64]) -> f64 {
        match self.map_chunks(data.len(), 1, |_, r| {
            simd::max8(&data[r], f64::NEG_INFINITY)
        }) {
            Some(partials) => partials.into_iter().fold(f64::NEG_INFINITY, f64::max),
            None => data.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
        }
    }

    /// `f` over `0..items` as one vector: the chunk-ordered concatenation
    /// of `f` over each chunk's range when [`Self::map_chunks`] engages,
    /// `f(0..items)` once when it does not. For a row-local `f` the two
    /// are equal, so the result is the serial loop's at any thread count.
    pub fn concat_chunks<T, F>(&self, items: usize, elems_per_item: usize, f: F) -> Vec<T>
    where
        T: Clone + Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        match self.map_chunks(items, elems_per_item, |_, range| f(range)) {
            Some(parts) => parts.concat(),
            None => f(0..items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 97) as f64 * 0.25 - 11.0).collect()
    }

    fn engine(threads: usize) -> ParEngine {
        ParEngine::new(ParallelPolicy::with_threads(threads))
    }

    #[test]
    fn policy_validation_rejects_bad_values() {
        let valid = |threads| ParallelPolicy::with_threads(threads).validate();
        assert!(valid(0).is_err());
        assert!(valid(MAX_THREADS + 1).is_err());
        assert!(valid(1).is_ok());
        assert!(valid(MAX_THREADS).is_ok());
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::serial());
    }

    #[test]
    fn chunk_grid_depends_only_on_shape() {
        assert_eq!(chunk_items(1), CHUNK_ELEMS);
        assert_eq!(chunk_items(0), CHUNK_ELEMS);
        assert_eq!(chunk_items(64), CHUNK_ELEMS / 64);
        assert_eq!(chunk_items(CHUNK_ELEMS * 10), 1);
        // Same shape → same number of chunks, at any thread count.
        for threads in [1, 2, 4, 8] {
            let e = engine(threads);
            let parts = e.map_chunks(10_000, 1, |c, r| (c, r)).expect("engaged");
            assert_eq!(parts.len(), 10_000usize.div_ceil(CHUNK_ELEMS));
            for (i, (c, r)) in parts.iter().enumerate() {
                assert_eq!(*c, i);
                assert_eq!(r.start, i * CHUNK_ELEMS);
            }
        }
    }

    #[test]
    fn below_threshold_returns_none_and_counts_serial() {
        let e = engine(8);
        assert!(e.map_chunks::<(), _>(100, 1, |_, _| ()).is_none());
        let stats = e.stats();
        assert_eq!(stats.par_calls, 0);
        assert_eq!(stats.serial_calls, 1);
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn reductions_are_bit_identical_across_thread_counts() {
        let xs = data(50_000);
        let ys = data(50_000);
        let reference = engine(1);
        let r_sum = reference.sum(&xs);
        let r_dot = reference.dot(&xs, &ys);
        let r_min = reference.fold(&xs, f64::INFINITY, f64::min);
        let r_sq = reference.sum_by(&xs, |x| x * x);
        for threads in [2, 4, 8] {
            let e = engine(threads);
            assert_eq!(e.sum(&xs).to_bits(), r_sum.to_bits(), "sum @ {threads}");
            assert_eq!(
                e.dot(&xs, &ys).to_bits(),
                r_dot.to_bits(),
                "dot @ {threads}"
            );
            assert_eq!(
                e.fold(&xs, f64::INFINITY, f64::min).to_bits(),
                r_min.to_bits(),
                "min @ {threads}"
            );
            assert_eq!(
                e.sum_by(&xs, |x| x * x).to_bits(),
                r_sq.to_bits(),
                "sumsq @ {threads}"
            );
        }
    }

    #[test]
    fn concat_chunks_matches_serial_map_exactly() {
        let xs = data(20_000);
        let serial: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        let exp = |r: Range<usize>| xs[r].iter().map(|x| x.exp()).collect::<Vec<f64>>();
        for threads in [1, 2, 8] {
            let e = engine(threads);
            assert_eq!(
                e.concat_chunks(xs.len(), 1, exp),
                serial,
                "threads={threads}"
            );
            assert_eq!(e.stats().par_calls, 1, "threads={threads}: engaged");
            assert_eq!(
                e.concat_chunks(100, 1, exp),
                serial[..100],
                "below the threshold"
            );
            assert_eq!(e.stats().serial_calls, 1, "threads={threads}: serial");
        }
    }

    #[test]
    fn snapshots_compare_equal_across_thread_counts() {
        // The snapshot holds only grid-derived counters, so the derived
        // `Eq` (and `Hash`) hold across 1, 2, and 8 threads.
        let xs = data(200_000);
        let run = |threads: usize| {
            let e = engine(threads);
            let _ = e.sum(&xs);
            let _ = e.dot(&xs, &xs);
            let _ = e.concat_chunks(xs.len(), 1, |r| xs[r].iter().map(|x| x + 1.0).collect());
            e.stats()
        };
        let ref_stats = run(1);
        assert!(ref_stats.par_calls >= 3);
        let mut keyed = std::collections::HashSet::new();
        for threads in [1, 2, 8] {
            let stats = run(threads);
            assert_eq!(stats, ref_stats, "threads={threads}");
            keyed.insert(stats);
        }
        // Eq/Hash consistency: all three snapshots collapse to one key.
        assert_eq!(keyed.len(), 1);
    }

    #[test]
    fn worker_panic_propagates_to_the_submitter() {
        let e = engine(2);
        let xs = data(30_000);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.map_chunks(xs.len(), 1, |c, _| {
                assert!(c != 1, "chunk 1 detonates");
                0u8
            })
        }));
        assert!(caught.is_err());
        // The engine (and shared pool) keep working afterwards.
        assert!(e.sum(&xs).is_finite());
    }

    #[test]
    fn cloned_stats_are_independent() {
        let e = engine(1);
        let _ = e.sum(&data(30_000));
        let cloned = e.clone();
        let before = cloned.stats();
        let _ = e.sum(&data(30_000));
        assert_eq!(cloned.stats(), before);
        assert!(e.stats().par_calls > before.par_calls);
    }
}
