//! Prebuilt checks binding the kernels to the explorer.
//!
//! These are the reproduction's correctness theorems, stated once and run
//! over every lock and barrier in the registry (see `tests/` at the
//! workspace root for the full sweep):
//!
//! * **mutual exclusion** — no schedule lets two threads overlap in the
//!   critical section. The workload's counter accesses are *data* accesses
//!   ([`kernels::ProcCtx::data_load`] / `data_store`), so the vector-clock
//!   race detector reports any overlap as [`crate::Failure::Race`] the
//!   moment it is possible — even on schedules whose final counter is
//!   correct — and the final counter total is kept as a second,
//!   independent witness;
//! * **barrier safety** — no schedule releases a thread from episode *k*
//!   before every peer has arrived at episode *k*; the arrival stamps are
//!   data accesses, so an unsafe barrier is also a race;
//! * **bounded bypass** — with an instrumented lock and
//!   [`Explorer::with_bypass_bound`], no schedule lets the lock bypass a
//!   waiter more than the bound allows (FIFO locks pass, retry locks
//!   starve).

use crate::explorer::{Explorer, Verdict};
use crate::fuzz::{FuzzReport, Fuzzer};
use crate::program::Program;
use kernels::barriers::BarrierKernel;
use kernels::locks::{InstrumentedLock, LockKernel};
use kernels::{ProcCtx, Region, Word};
use std::sync::Arc;

/// Builds the mutual-exclusion program for a lock: each thread performs
/// `iters` critical sections, each a deliberately non-atomic counter
/// increment (separate data load and data store).
///
/// Why this suffices: if mutual exclusion can be violated at all, some
/// schedule interleaves two critical sections, and the two increments are
/// then happens-before concurrent — the race detector flags the first such
/// schedule. The final counter total independently catches lost updates.
/// Keeping the critical section at two operations keeps exhaustive
/// exploration tractable.
pub fn lock_program(
    lock: Arc<dyn LockKernel + Send + Sync>,
    nthreads: usize,
    iters: usize,
) -> Program {
    // The checker does not model cache lines; two words per slot is the
    // densest layout that still fits the node-based kernels (next + grant).
    let region = Region::new(0, 2, lock.lines_needed(nthreads));
    let counter = region.end();
    let init = lock.init(nthreads, &region);
    let body_lock = Arc::clone(&lock);
    Program::new(nthreads, counter + 1, move |ctx| {
        let mut ps = body_lock.proc_init(ctx.pid(), &region);
        for _ in 0..iters {
            let token = body_lock.acquire(ctx, &region, &mut ps);
            let c = ctx.data_load(counter);
            ctx.data_store(counter, c + 1);
            body_lock.release(ctx, &region, &mut ps, token);
        }
    })
    .with_init(init)
}

/// [`lock_program`] as [`check_lock`] and [`fuzz_lock`] run it: over the
/// lock wrapped in [`InstrumentedLock`] when `bypass_bound` is set, since
/// only its lock events feed the bypass accounting.
pub fn checked_lock_program(
    lock: Arc<dyn LockKernel + Send + Sync>,
    nthreads: usize,
    iters: usize,
    bypass_bound: Option<usize>,
) -> Program {
    let lock: Arc<dyn LockKernel + Send + Sync> = match bypass_bound {
        Some(_) => Arc::new(InstrumentedLock::new(lock, 0)),
        None => lock,
    };
    lock_program(lock, nthreads, iters)
}

/// The final-state invariant of a [`lock_program`] of `nthreads × iters`
/// critical sections: none was lost.
fn sections_counted(
    program: &Program,
    nthreads: usize,
    iters: usize,
) -> impl Fn(&[Word]) -> Result<(), String> {
    let expected = (nthreads * iters) as u64;
    let counter = program.initial_memory().len() - 1;
    move |mem: &[Word]| {
        if mem[counter] == expected {
            Ok(())
        } else {
            Err(format!(
                "critical sections lost: counter {} != {expected}",
                mem[counter]
            ))
        }
    }
}

/// Checks a lock's mutual exclusion and progress under the explorer, and —
/// when the explorer carries a bypass bound
/// ([`Explorer::with_bypass_bound`]) — its bounded bypass. FIFO locks
/// (ticket, Anderson, Graunke–Thakkar, CLH, MCS, QSM) satisfy bounded
/// bypass; retry locks (test-and-set variants) do not.
pub fn check_lock(
    lock: Arc<dyn LockKernel + Send + Sync>,
    nthreads: usize,
    iters: usize,
    explorer: Explorer,
) -> Verdict {
    let program = checked_lock_program(lock, nthreads, iters, explorer.bypass_bound);
    explorer.check(&program, sections_counted(&program, nthreads, iters))
}

/// Fuzzes a lock's mutual exclusion under random schedules: the same
/// program and final-state invariant as [`check_lock`], sampled by the
/// fuzzer instead of searched.
pub fn fuzz_lock(
    lock: Arc<dyn LockKernel + Send + Sync>,
    nthreads: usize,
    iters: usize,
    fuzzer: &Fuzzer,
) -> FuzzReport {
    let program = checked_lock_program(lock, nthreads, iters, fuzzer.bypass_bound);
    fuzzer.run(&program, sections_counted(&program, nthreads, iters))
}

/// Fuzzes a barrier's safety under random schedules: the same program as
/// [`check_barrier`], sampled by the fuzzer instead of searched.
pub fn fuzz_barrier(
    barrier: Arc<dyn BarrierKernel + Send + Sync>,
    nthreads: usize,
    episodes: u64,
    fuzzer: &Fuzzer,
) -> FuzzReport {
    let program = barrier_program(barrier, nthreads, episodes);
    fuzzer.run(&program, |_| Ok(()))
}

/// Builds the barrier-safety program: each thread stamps its arrival count,
/// crosses, and asserts every peer has stamped; a second crossing separates
/// episodes (as in [`kernels::barriers::episode_trial`]). Stamps are data
/// accesses: a barrier that releases early makes the unstamped peer's next
/// write race with the released thread's read.
pub fn barrier_program(
    barrier: Arc<dyn BarrierKernel + Send + Sync>,
    nthreads: usize,
    episodes: u64,
) -> Program {
    let region = Region::new(0, 2, barrier.lines_needed(nthreads));
    let stamps = region.end();
    let init = barrier.init(nthreads, &region);
    let body_barrier = Arc::clone(&barrier);
    Program::new(nthreads, stamps + nthreads, move |ctx| {
        let mut st = body_barrier.make_state(ctx.pid(), nthreads);
        for ep in 0..episodes {
            ctx.data_store(stamps + ctx.pid(), ep + 1);
            body_barrier.arrive(ctx, &region, &mut st);
            for j in 0..nthreads {
                let stamp = ctx.data_load(stamps + j);
                assert!(
                    stamp > ep,
                    "barrier unsafe: released from episode {ep} before thread {j} arrived"
                );
            }
            body_barrier.arrive(ctx, &region, &mut st);
        }
    })
    .with_init(init)
}

/// Checks a barrier's safety (and deadlock-freedom) under the explorer.
pub fn check_barrier(
    barrier: Arc<dyn BarrierKernel + Send + Sync>,
    nthreads: usize,
    episodes: u64,
    explorer: Explorer,
) -> Verdict {
    let program = barrier_program(barrier, nthreads, episodes);
    explorer.check(&program, |_| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Failure;
    use kernels::barriers::central::CentralBarrier;
    use kernels::barriers::qsm_tree::QsmTreeBarrier;
    use kernels::locks::{mcs::McsLock, qsm::QsmLock, tas::TasLock, ticket::TicketLock};
    use kernels::{Addr, Word};

    #[test]
    fn tas_lock_bounded_two_threads() {
        // Plain test-and-set has an unbounded retry loop, so its schedule
        // tree is infinite; a preemption bound plus a short step limit
        // still explores every 2-preemption interleaving of the lock path.
        let explorer = Explorer::bounded(2).with_max_steps(40).with_max_runs(4000);
        check_lock(Arc::new(TasLock), 2, 1, explorer).expect_pass("tas 2x1");
    }

    #[test]
    fn qsm_lock_exhaustive_two_threads() {
        let v = check_lock(Arc::new(QsmLock::spin()), 2, 1, Explorer::exhaustive());
        v.expect_pass("qsm 2x1");
        assert!(v.stats().complete, "qsm 2x1 space must be fully explored");
        // Contended paths were actually explored.
        assert!(v.stats().runs > 10);
    }

    #[test]
    fn mcs_lock_exhaustive_two_threads() {
        let v = check_lock(Arc::new(McsLock), 2, 1, Explorer::exhaustive());
        v.expect_pass("mcs 2x1");
        assert!(v.stats().complete);
    }

    #[test]
    fn ticket_lock_exhaustive_two_threads() {
        let v = check_lock(Arc::new(TicketLock), 2, 1, Explorer::exhaustive());
        v.expect_pass("ticket 2x1");
        assert!(v.stats().complete);
    }

    #[test]
    fn qsm_lock_bounded_three_threads() {
        let explorer = Explorer::bounded(2).with_max_runs(6000);
        check_lock(Arc::new(QsmLock::spin()), 3, 1, explorer).expect_pass("qsm 3x1");
    }

    #[test]
    fn central_barrier_exhaustive_two_threads() {
        let v = check_barrier(Arc::new(CentralBarrier), 2, 1, Explorer::exhaustive());
        v.expect_pass("central 2x1");
        assert!(v.stats().complete);
    }

    /// At fan-in 4 the three threads share one node; at fan-in 2 the tree
    /// has two levels, so the last arriver at a leaf ascends. Run counts
    /// pinned.
    #[test]
    fn qsm_barrier_bounded_three_threads() {
        for (fan_in, episodes, explorer, runs) in [
            (4, 2, Explorer::bounded(2), 890),
            (2, 1, Explorer::exhaustive(), 265),
            (2, 2, Explorer::bounded(2), 770),
        ] {
            let what = format!("qsm-tree fan-in {fan_in} 3x{episodes}");
            let v = check_barrier(Arc::new(QsmTreeBarrier { fan_in }), 3, episodes, explorer);
            v.expect_pass(&what);
            assert!(v.stats().complete, "{what}: search incomplete");
            assert_eq!(v.stats().runs, runs, "{what}: run count moved");
        }
    }

    /// A deliberately broken lock proves the harness can actually fail:
    /// "acquire" is a plain store, so exclusion is violated under some
    /// schedule — and because the counter increments are data accesses,
    /// the race detector is the layer that catches it.
    #[test]
    fn harness_detects_broken_lock() {
        #[derive(Debug)]
        struct BrokenLock;
        impl kernels::locks::LockKernel for BrokenLock {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn lines_needed(&self, _p: usize) -> usize {
                1
            }
            fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
                // No atomicity, no waiting: anyone can "acquire".
                ctx.store(region.slot(0), 1);
                0
            }
            fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _token: u64) {
                ctx.store(region.slot(0), 0);
            }
        }
        let v = check_lock(Arc::new(BrokenLock), 2, 1, Explorer::exhaustive());
        assert!(v.is_violation(), "broken lock must be caught");
        assert!(
            matches!(v.failure(), Some(Failure::Race(_))),
            "the race detector should catch it first, got {v:?}"
        );
    }

    /// A barrier that releases immediately must be caught as unsafe.
    #[test]
    fn harness_detects_broken_barrier() {
        #[derive(Debug)]
        struct NoBarrier;
        impl BarrierKernel for NoBarrier {
            fn name(&self) -> &'static str {
                "none"
            }
            fn lines_needed(&self, _p: usize) -> usize {
                1
            }
            fn arrive(
                &self,
                ctx: &mut dyn ProcCtx,
                region: &Region,
                st: &mut kernels::barriers::BarrierState,
            ) {
                // Touch shared memory so schedules diverge, but never wait.
                let _ = ctx.load(region.slot(0));
                st.round += 1;
            }
        }
        let v = check_barrier(Arc::new(NoBarrier), 2, 1, Explorer::exhaustive());
        assert!(v.is_violation(), "non-barrier must be caught");
    }

    #[test]
    fn lock_program_layout_is_dense() {
        let p = lock_program(Arc::new(TasLock), 2, 1);
        // 1 two-word lock slot + counter.
        assert_eq!(p.initial_memory().len(), 3);
    }

    #[test]
    fn init_words_are_applied() {
        let lock: Arc<dyn kernels::locks::LockKernel + Send + Sync> =
            Arc::new(kernels::locks::anderson::AndersonLock);
        let p = lock_program(lock, 2, 1);
        let mem = p.initial_memory();
        // Anderson's first flag starts at 1 (slot 1 with line_words = 2).
        let flag_addr: Addr = 2;
        assert_eq!(mem[flag_addr], 1 as Word);
    }

    #[test]
    fn tas_starves_a_waiter() {
        let explorer = Explorer::bounded(2).with_max_steps(60).with_max_runs(8000);
        let v = check_lock(Arc::new(TasLock), 2, 2, explorer.with_bypass_bound(1));
        assert!(
            matches!(v.failure(), Some(Failure::Starvation(_))),
            "tas must admit unbounded bypass, got {v:?}"
        );
    }

    #[test]
    fn ticket_lock_has_bounded_bypass() {
        let explorer = Explorer::bounded(2).with_max_runs(8000);
        check_lock(Arc::new(TicketLock), 2, 2, explorer.with_bypass_bound(1))
            .expect_pass("ticket bounded bypass");
    }

    #[test]
    fn fuzzed_qsm_lock_passes_its_budget() {
        let fuzzer = crate::fuzz::Fuzzer::new(11, 60, crate::fuzz::Strategy::default());
        fuzz_lock(Arc::new(QsmLock::spin()), 2, 1, &fuzzer).expect_pass("fuzzed qsm 2x1");
    }

    #[test]
    fn fuzzed_central_barrier_passes_its_budget() {
        let fuzzer = crate::fuzz::Fuzzer::new(13, 40, crate::fuzz::Strategy::default());
        fuzz_barrier(Arc::new(CentralBarrier), 2, 1, &fuzzer).expect_pass("fuzzed central 2x1");
    }

    #[test]
    fn fuzz_harness_detects_a_broken_lock() {
        // Same broken lock as the exhaustive harness test: "acquire" is a
        // plain store, so the race detector must fire under sampling too,
        // and the shrunk schedule must replay to the same race.
        #[derive(Debug)]
        struct BrokenLock;
        impl kernels::locks::LockKernel for BrokenLock {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn lines_needed(&self, _p: usize) -> usize {
                1
            }
            fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
                ctx.store(region.slot(0), 1);
                0
            }
            fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _t: u64) {
                ctx.store(region.slot(0), 0);
            }
        }
        let fuzzer = crate::fuzz::Fuzzer::new(17, 200, crate::fuzz::Strategy::default());
        let report = fuzz_lock(Arc::new(BrokenLock), 2, 1, &fuzzer);
        assert!(
            matches!(report.verdict.failure(), Some(Failure::Race(_))),
            "fuzzing must catch the broken lock as a race, got {:?}",
            report.verdict
        );
        let shrunk = report
            .shrunk
            .expect("a failed campaign carries its shrunk schedule");
        let program = lock_program(Arc::new(BrokenLock), 2, 1);
        let replay = fuzzer.explorer().replay(&program, &shrunk.schedule);
        assert!(
            matches!(replay.end.failure(&|_| Ok(())), Some(Failure::Race(_))),
            "shrunk schedule must still race, got {:?}",
            replay.end
        );
    }
}
