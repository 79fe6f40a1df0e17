//! A generic order-preserving sweep engine for experiment grids.
//!
//! Every figure in the paper is a grid — workloads × availability levels,
//! platforms × bandwidths — whose cells are independent deterministic
//! simulations. [`run_grid`] fans the cells out over scoped worker
//! threads (bounded by the host's available parallelism), pulling work
//! from a shared atomic cursor and writing each result into the slot
//! matching its input index, so the output order — and therefore every
//! byte of downstream output — is identical to a serial `map`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `cells` on up to `available_parallelism` worker threads,
/// returning results in input order.
///
/// `f` must be deterministic per cell for the parallel sweep to be
/// output-equivalent to the serial one; all experiment cells are (they
/// advance a virtual clock, not the host's). With a single hardware
/// thread (or a single cell) the sweep degrades to a plain serial map
/// with no thread or lock traffic.
///
/// # Panics
///
/// Propagates a panic from any worker (the grid is aborted).
pub fn run_grid<T, R, F>(cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_grid_with_threads(cells, threads, f)
}

/// [`run_grid`] with an explicit worker-thread bound (primarily for tests
/// that must exercise the parallel path regardless of host core count).
///
/// # Panics
///
/// Propagates a panic from any worker (the grid is aborted).
pub fn run_grid_with_threads<T, R, F>(cells: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = cells.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return cells.into_iter().map(f).collect();
    }

    let work: Vec<Mutex<Option<T>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    // `f` runs outside both locks, so a panicking cell poisons neither; the
    // scope re-raises the panic once every worker has been joined.
    const UNPOISONED: &str = "no lock is held across a cell";
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = work[i].lock().expect(UNPOISONED).take();
                let result = f(cell.expect("each cell is claimed once"));
                *slots[i].lock().expect(UNPOISONED) = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect(UNPOISONED))
        .map(|result| result.expect("every slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = run_grid_with_threads((0..100).collect(), 4, |i: usize| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton_grids() {
        let empty: Vec<usize> = run_grid(Vec::<usize>::new(), |i| i);
        assert!(empty.is_empty());
        assert_eq!(run_grid(vec![7usize], |i| i + 1), vec![8]);
    }

    #[test]
    fn parallel_matches_serial_map_on_non_trivial_cells() {
        let cells: Vec<u64> = (1..50).collect();
        let f = |x: u64| -> u64 { (0..x).map(|i| i.wrapping_mul(x)).sum() };
        let serial: Vec<u64> = cells.clone().into_iter().map(f).collect();
        assert_eq!(run_grid_with_threads(cells.clone(), 4, f), serial);
        assert_eq!(run_grid(cells, f), serial);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = run_grid_with_threads(vec![0usize, 1, 2, 3], 2, |i| {
            assert!(i != 2, "cell failure");
            i
        });
    }
}
