//! A small shared worker pool for the data-parallel kernel engine.
//!
//! One process-wide pool, spawned lazily on first parallel submission and
//! shared by every [`crate::par::ParEngine`] — the reproduction's analog of
//! the CSD firmware's fixed worker threads pinned to the 8× A72 CSE cores.
//! Workers live for the process lifetime and sleep on a condvar between
//! jobs, so a kernel call's cost is one lock + notify, not a thread spawn.
//!
//! The pool intentionally knows nothing about chunks or determinism: it
//! only fans a single `Fn()` job out to the submitter plus N helpers.
//! All result placement happens inside the job closure (the engine's
//! atomic-cursor loop), which is what keeps results independent of which
//! thread ran which chunk.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

/// Hard cap on pool helpers (the submitting thread is participant #0, so
/// this supports policies up to 16 threads).
pub(crate) const MAX_HELPERS: usize = 15;

type RawJob = *const (dyn Fn() + Sync + 'static);

/// A lifetime-erased pointer to the in-flight job closure. Sound to hand
/// to workers because [`run_parallel`] does not return — not even on a
/// panic — until every helper that picked the job up has left it.
#[derive(Clone, Copy)]
struct Job(RawJob);

// SAFETY: the pointee is `Sync` (required by `run_parallel`'s signature)
// and outlives all uses (see `Job` docs), so sharing the pointer across
// threads is sound.
unsafe impl Send for Job {}

#[derive(Default)]
struct State {
    /// Job sequence number, bumped once per submission so a worker can
    /// tell a fresh job from the one it just finished.
    seq: u64,
    job: Option<Job>,
    /// Helpers wanted for the current job.
    want: usize,
    /// Helpers that picked the current job up.
    started: usize,
    /// Helpers currently inside the current job.
    active: usize,
    /// First helper panic payload; re-raised by the submitter.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Workers spawned so far.
    workers: usize,
}

struct Pool {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Serializes submissions: exactly one job is in flight at a time, so
    /// `seq`/`want`/`started`/`active` always describe that job.
    submit: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State::default()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        submit: Mutex::new(()),
    })
}

fn worker_loop(pool: &'static Pool) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.seq != last_seq {
                    // A job this worker has not seen yet. Join it if it
                    // still wants helpers; otherwise remember it as seen
                    // and keep sleeping.
                    last_seq = st.seq;
                    if st.started < st.want {
                        st.started += 1;
                        st.active += 1;
                        break st
                            .job
                            .expect("a published job outlives its sequence number");
                    }
                }
                st = pool
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the submitter blocks in `run_parallel` until `active`
        // returns to zero, so the closure behind the raw pointer is alive
        // for the whole call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
        let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 && st.started == st.want {
            pool.done_cv.notify_all();
        }
    }
}

/// Runs `job` on the calling thread plus up to `helpers` pool workers:
/// those that join before the calling thread's own run of `job` returns.
///
/// Blocks until every participant has returned; a panic — the caller's
/// own or any helper's — is re-raised only after the job has fully
/// quiesced, so the closure is never used after its frame dies.
pub(crate) fn run_parallel(helpers: usize, job: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        job();
        return;
    }
    let pool = pool();
    let token = pool.submit.lock().unwrap_or_else(PoisonError::into_inner);
    {
        let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
        let target = helpers.min(MAX_HELPERS);
        while st.workers < target {
            std::thread::Builder::new()
                .name(format!("alang-par-{}", st.workers))
                .spawn(move || worker_loop(pool))
                .expect("pool worker thread spawns");
            st.workers += 1;
        }
        // SAFETY (lifetime erasure): `job`'s non-'static borrow is erased
        // here and reconstructed in `worker_loop`; the wait below keeps
        // the borrow live past every dereference.
        let erased =
            unsafe { std::mem::transmute::<*const (dyn Fn() + Sync), RawJob>(job as *const _) };
        st.seq = st.seq.wrapping_add(1);
        st.job = Some(Job(erased));
        st.want = target.min(st.workers);
        st.started = 0;
        st.active = 0;
        st.panic = None;
        pool.work_cv.notify_all();
    }
    // The submitter participates instead of idling.
    let own = catch_unwind(AssertUnwindSafe(job));
    let helper_panic = {
        let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
        // The job is done once the submitter's own part returns (the work
        // is claimed from inside it), so a helper that has not joined yet
        // would only find nothing left: it no longer may, and only the
        // helpers inside the job are waited for.
        st.want = st.started;
        while st.active > 0 {
            st = pool
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        st.panic.take()
    };
    drop(token);
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_helpers_runs_inline() {
        let calls = AtomicUsize::new(0);
        let caller = std::thread::current().id();
        run_parallel(0, &|| {
            assert_eq!(std::thread::current().id(), caller);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn helpers_participate_and_all_work_completes() {
        let cursor = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        run_parallel(3, &|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= 1000 {
                break;
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn submissions_can_repeat_and_nest_sequentially() {
        for round in 0..20 {
            let sum = AtomicUsize::new(0);
            run_parallel(2, &|| {
                sum.fetch_add(1, Ordering::Relaxed);
            });
            // Submitter + up to 2 helpers each ran the closure once.
            let n = sum.load(Ordering::Relaxed);
            assert!((1..=3).contains(&n), "round {round}: {n} participants");
        }
    }

    #[test]
    fn no_participant_runs_after_its_submission_returns() {
        // Tiny jobs back to back: the submitter drains each before a
        // parked helper has woken, so late joiners are the common case.
        let finished = AtomicUsize::new(0);
        let late = AtomicUsize::new(0);
        for round in 1..=10_000 {
            run_parallel(2, &|| {
                if finished.load(Ordering::SeqCst) >= round {
                    late.fetch_add(1, Ordering::SeqCst);
                }
            });
            finished.store(round, Ordering::SeqCst);
        }
        assert_eq!(late.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn submitter_panic_is_reraised_after_quiescence() {
        let submitter = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            run_parallel(2, &|| {
                if std::thread::current().id() == submitter {
                    panic!("submitter boom");
                }
            });
        });
        assert!(caught.is_err());
        // Pool is still usable afterwards.
        let ok = AtomicUsize::new(0);
        run_parallel(2, &|| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }
}
