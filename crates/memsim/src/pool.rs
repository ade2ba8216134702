//! Persistent worker-thread pool for fragment replay.
//!
//! [`crate::FragmentReplayer`] fans a recording's fragments out over host
//! threads, and a figure sweep replays hundreds of recordings. This module
//! keeps the workers alive between replays: a replay *leases* the workers
//! it needs (spawning only when the idle set runs short), dispatches one
//! job per worker, and returns the workers once every job has signalled
//! completion. Workers park in a condvar wait between jobs, so an idle
//! pool costs nothing but address space. (Live runs use no thread but the
//! caller's: simulated processors are coroutines, see [`simcore::coro`].)
//!
//! Jobs borrow the caller's stack (the recording and the outcome cells live
//! in the replayer's frame), which is why `Lease::dispatch` is `unsafe`:
//! the caller must not drop anything a job borrows — nor return the lease —
//! until the job has signalled completion through its own channel (the
//! replayer uses a `Latch` counted down as each job's last action).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Handoff cell a worker thread waits on between jobs.
struct WorkerShared {
    job: Mutex<Option<Job>>,
    available: Condvar,
}

fn worker_loop(shared: Arc<WorkerShared>) {
    loop {
        let job = {
            let mut slot = shared.job.lock().expect("worker job mutex poisoned");
            loop {
                match slot.take() {
                    Some(job) => break job,
                    None => {
                        slot = shared
                            .available
                            .wait(slot)
                            .expect("worker job mutex poisoned");
                    }
                }
            }
        };
        // Jobs wrap user code in their own catch_unwind; this outer catch
        // only protects the pool from bugs in the job plumbing itself.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Counts outstanding worker jobs; the lease may end when it hits zero.
///
/// `count_down` notifies while still holding the lock and touches nothing
/// afterwards, so the waiter cannot observe zero — and free the latch —
/// before the last worker is done with it.
pub(crate) struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    pub(crate) fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    pub(crate) fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch mutex poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    pub(crate) fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch mutex poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch mutex poisoned");
        }
    }
}

/// Counters exposed for diagnostics and the pool-reuse regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads ever spawned by this pool.
    pub spawned: usize,
    /// Times an already-spawned worker was handed out again.
    pub reused: usize,
}

/// A set of reusable worker threads.
pub(crate) struct Pool {
    idle: Mutex<Vec<Arc<WorkerShared>>>,
    spawned: AtomicUsize,
    reused: AtomicUsize,
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool every fragment replay leases from.
    pub(crate) fn global() -> &'static Pool {
        static GLOBAL: Pool = Pool::new();
        &GLOBAL
    }

    /// Takes `n` workers out of the pool, spawning any shortfall.
    pub(crate) fn lease(&self, n: usize) -> Lease<'_> {
        let mut workers = {
            let mut idle = self.idle.lock().expect("pool mutex poisoned");
            let keep = idle.len().saturating_sub(n);
            idle.split_off(keep)
        };
        self.reused.fetch_add(workers.len(), Ordering::Relaxed);
        while workers.len() < n {
            let shared = Arc::new(WorkerShared {
                job: Mutex::new(None),
                available: Condvar::new(),
            });
            let for_thread = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("memsim-worker".into())
                .spawn(move || worker_loop(for_thread))
                .expect("failed to spawn simulator worker thread");
            self.spawned.fetch_add(1, Ordering::Relaxed);
            workers.push(shared);
        }
        Lease {
            pool: self,
            workers,
        }
    }

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

/// Counters for the process-wide pool (see [`PoolStats`]).
pub fn pool_stats() -> PoolStats {
    Pool::global().stats()
}

/// Workers checked out for one replay. Dropping the lease returns them to
/// the pool.
pub(crate) struct Lease<'a> {
    pool: &'a Pool,
    workers: Vec<Arc<WorkerShared>>,
}

impl Lease<'_> {
    /// Hands `job` to worker `idx`.
    ///
    /// # Safety
    ///
    /// The job's borrows are erased to `'static`. The caller must keep
    /// everything the job borrows alive — and must not drop this lease —
    /// until the job has observably finished (e.g. counted down a latch as
    /// its final statement). Dropping the lease early would let another
    /// replay dispatch to a worker that is still executing this job.
    pub(crate) unsafe fn dispatch<'env>(&self, idx: usize, job: Box<dyn FnOnce() + Send + 'env>) {
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        let worker = &self.workers[idx];
        let mut slot = worker.job.lock().expect("worker job mutex poisoned");
        debug_assert!(slot.is_none(), "dispatch to a busy worker");
        *slot = Some(job);
        worker.available.notify_one();
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let mut idle = self.pool.idle.lock().expect("pool mutex poisoned");
        idle.append(&mut self.workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn lease_runs_jobs_and_reuses_workers() {
        let pool = Pool::new();
        let ran = AtomicBool::new(false);
        {
            let lease = pool.lease(1);
            let latch = Latch::new(1);
            unsafe {
                lease.dispatch(
                    0,
                    Box::new(|| {
                        ran.store(true, Ordering::SeqCst);
                        latch.count_down();
                    }),
                );
            }
            latch.wait();
        }
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(
            pool.stats(),
            PoolStats {
                spawned: 1,
                reused: 0
            }
        );

        // Second lease of the same size spawns nothing new.
        {
            let lease = pool.lease(1);
            let latch = Latch::new(1);
            unsafe {
                lease.dispatch(0, Box::new(|| latch.count_down()));
            }
            latch.wait();
        }
        assert_eq!(
            pool.stats(),
            PoolStats {
                spawned: 1,
                reused: 1
            }
        );
    }

    #[test]
    fn lease_grows_on_demand() {
        let pool = Pool::new();
        {
            let lease = pool.lease(3);
            let latch = Latch::new(3);
            for i in 0..3 {
                unsafe { lease.dispatch(i, Box::new(|| latch.count_down())) };
            }
            latch.wait();
        }
        let s = pool.stats();
        assert_eq!(s.spawned, 3);
        // A bigger lease reuses all three and spawns the shortfall only.
        {
            let lease = pool.lease(5);
            let latch = Latch::new(5);
            for i in 0..5 {
                unsafe { lease.dispatch(i, Box::new(|| latch.count_down())) };
            }
            latch.wait();
        }
        let s = pool.stats();
        assert_eq!(s.spawned, 5);
        assert_eq!(s.reused, 3);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = Pool::new();
        let lease = pool.lease(1);
        let latch = Latch::new(1);
        unsafe {
            lease.dispatch(
                0,
                Box::new(|| {
                    // count down first: the panic unwinds past the rest.
                    latch.count_down();
                    std::panic::panic_any(crate::proc::SimAbort);
                }),
            );
        }
        latch.wait();
        drop(lease);
        // The same worker must still accept a job.
        let lease = pool.lease(1);
        let latch = Latch::new(1);
        unsafe { lease.dispatch(0, Box::new(|| latch.count_down())) };
        latch.wait();
        drop(lease);
        assert_eq!(
            pool.stats(),
            PoolStats {
                spawned: 1,
                reused: 1
            }
        );
    }
}
