//! The correctness theorem sweep: every lock and barrier in the kernel
//! registry is model-checked by the interleave explorer.
//!
//! Budgets are preemption-bounded (bound 2, the setting that exposes
//! virtually all synchronization bugs) so the full sweep stays fast enough
//! for CI; the per-algorithm exhaustive checks live in the `interleave`
//! crate's own tests, except the paper's lock over three threads.

use interleave::harness::{check_barrier, check_lock};
use interleave::{Explorer, Program};
use kernels::barriers::all_barriers;
use kernels::locks::all_locks;
use kernels::rwlock::RwKernel;
use kernels::{ProcCtx, Region, SyncCtx};
use std::sync::Arc;

fn lock_explorer() -> Explorer {
    Explorer::bounded(2).with_max_steps(60).with_max_runs(4000)
}

#[test]
fn every_lock_preserves_mutual_exclusion_two_threads() {
    for lock in all_locks() {
        let name = lock.name();
        let lock: Arc<dyn kernels::locks::LockKernel + Send + Sync> = Arc::from(lock);
        check_lock(lock, 2, 1, lock_explorer()).expect_pass(name);
    }
}

#[test]
fn every_lock_preserves_mutual_exclusion_two_threads_two_iters() {
    for lock in all_locks() {
        let name = lock.name();
        let lock: Arc<dyn kernels::locks::LockKernel + Send + Sync> = Arc::from(lock);
        check_lock(lock, 2, 2, lock_explorer()).expect_pass(name);
    }
}

#[test]
fn queue_locks_hold_with_three_threads() {
    // The queue-handoff algorithms have the interesting 3-party races
    // (mid-enqueue release). Bounded exploration over three threads.
    for name in ["anderson", "graunke-thakkar", "clh", "mcs", "qsm"] {
        let lock = kernels::locks::lock_by_name(name).unwrap();
        let lock: Arc<dyn kernels::locks::LockKernel + Send + Sync> = Arc::from(lock);
        check_lock(lock, 3, 1, lock_explorer()).expect_pass(name);
    }
}

/// The paper's lock over three threads with no bound at all: every
/// schedule up to source-set equivalence passes, in the run count the CLI
/// prints for `check lock:qsm --threads 3`.
#[test]
fn qsm_holds_exhaustively_with_three_threads() {
    let lock = kernels::locks::lock_by_name("qsm").unwrap();
    let verdict = check_lock(Arc::from(lock), 3, 1, Explorer::exhaustive());
    verdict.expect_pass("qsm 3x1");
    assert!(verdict.stats().complete);
    assert_eq!(verdict.stats().runs, 1709);
}

/// The reader-writer kernel (table3's extension): writers exclude writers
/// and readers, reads see completed writes, and the bump/retreat entry
/// protocol neither deadlocks nor livelocks under bounded exploration.
#[test]
fn rwlock_kernel_is_safe_two_threads() {
    let region = Region::new(0, 2, RwKernel.lines_needed(2));
    let counter = region.end();
    let program = Program::new(2, counter + 1, move |ctx| {
        let mut ps = RwKernel.proc_init(ctx.pid(), &region);
        let token = RwKernel.write_acquire(ctx, &region, &mut ps);
        let c = ctx.load(counter);
        ctx.store(counter, c + 1);
        RwKernel.write_release(ctx, &region, &mut ps, token);

        RwKernel.read_acquire(ctx, &region);
        let seen = ctx.load(counter);
        assert!(seen >= 1, "read section saw no completed write");
        RwKernel.read_release(ctx, &region);
    });
    let verdict = lock_explorer().check(&program, move |mem| {
        if mem[counter] == 2 {
            Ok(())
        } else {
            Err(format!("write lost: counter {}", mem[counter]))
        }
    });
    verdict.expect_pass("rwlock 2 threads");
}

/// Three threads: two writers and one reader, exercising drain + retreat.
#[test]
fn rwlock_kernel_mixed_three_threads() {
    let region = Region::new(0, 2, RwKernel.lines_needed(3));
    let counter = region.end();
    let program = Program::new(3, counter + 1, move |ctx| {
        let mut ps = RwKernel.proc_init(ctx.pid(), &region);
        if ctx.pid() == 2 {
            RwKernel.read_acquire(ctx, &region);
            let _ = ctx.load(counter);
            RwKernel.read_release(ctx, &region);
        } else {
            let token = RwKernel.write_acquire(ctx, &region, &mut ps);
            let c = ctx.load(counter);
            ctx.store(counter, c + 1);
            RwKernel.write_release(ctx, &region, &mut ps, token);
        }
    });
    let verdict = Explorer::bounded(2)
        .with_max_steps(80)
        .with_max_runs(8000)
        .check(&program, move |mem| {
            if mem[counter] == 2 {
                Ok(())
            } else {
                Err(format!("write lost: counter {}", mem[counter]))
            }
        });
    verdict.expect_pass("rwlock 3 threads mixed");
}

#[test]
fn every_barrier_is_safe_two_threads() {
    for barrier in all_barriers() {
        let name = barrier.name();
        let barrier: Arc<dyn kernels::barriers::BarrierKernel + Send + Sync> = Arc::from(barrier);
        check_barrier(barrier, 2, 2, lock_explorer()).expect_pass(name);
    }
}

#[test]
fn every_barrier_is_safe_three_threads_one_episode() {
    for barrier in all_barriers() {
        let name = barrier.name();
        let barrier: Arc<dyn kernels::barriers::BarrierKernel + Send + Sync> = Arc::from(barrier);
        check_barrier(barrier, 3, 1, Explorer::bounded(2).with_max_runs(6000)).expect_pass(name);
    }
}
