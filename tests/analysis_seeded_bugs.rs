//! Seeded-bug regression suite for the analysis layer.
//!
//! Each detector in the interleave checker is pinned against a kernel with
//! a deliberately planted bug of the class it exists to catch — and against
//! the shipped (correct) kernels, which must stay clean:
//!
//! * **race detector** — a check-then-set lock whose acquire is a separate
//!   observe and claim (the classic missing-atomicity bug) must surface as
//!   [`Failure::Race`] on the critical-section data accesses;
//! * **deadlock detector** — a sense-reversing barrier whose release
//!   condition is off by one (waits for an arrival count the counter never
//!   reaches) must surface as [`Failure::Deadlock`], and so must an AB/BA
//!   two-lock program, under every reduction (source sets, sleep sets,
//!   none) and under a preemption bound of one: the search runs the
//!   inverted schedule itself, so no lock-order prediction is needed;
//! * **bounded-bypass** — the test-and-set family must starve a waiter;
//!   every FIFO lock in the registry must pass the same bound;
//! * **sleep-set reduction** — must cut run counts at least 2× on the lock
//!   suite while reaching the same (complete, passing) verdict;
//! * **lost-wakeup detector** — a flag handshake that wakes *before*
//!   publishing, and the service eventcount's advance with its wake
//!   rewritten away, must both surface as [`Failure::LostWakeup`]; the
//!   corrected versions of the same programs must pass exhaustively.

// Seeded bugs #1, #3 and #4 are the corpus's: `CheckThenSetLock`, the flag
// handshake that wakes before it publishes, and the eventcount's advance
// with its wake rewritten away.
use interleave::corpus::{eventcount_wrap_program, flag_handshake_program, CheckThenSetLock};
use interleave::harness::{check_barrier, check_lock};
use interleave::{DporMode, Explorer, Failure, Program};
use kernels::barriers::{BarrierKernel, BarrierState};
use kernels::locks::ticket::TicketLock;
use kernels::locks::{lock_by_name, InstrumentedLock, LockKernel};
use kernels::{ProcCtx, Region};
use std::sync::Arc;

/// Seeded bug #2: central sense-reversing barrier whose gate condition is
/// off by one — it waits for `nprocs` *prior* arrivals, but the last
/// arriver only ever sees `nprocs - 1`. Nobody opens the gate.
#[derive(Debug)]
struct OffByOneBarrier;

impl BarrierKernel for OffByOneBarrier {
    fn name(&self) -> &'static str {
        "central-off-by-one"
    }
    fn lines_needed(&self, _nprocs: usize) -> usize {
        2
    }
    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState) {
        let p = ctx.nprocs() as u64;
        let next_epoch = st.round + 1;
        let arrived = ctx.fetch_add(region.slot(0), 1);
        if arrived == p {
            // Unreachable: `arrived` is the count *before* this arrival,
            // so it tops out at p - 1. The correct condition is p - 1.
            ctx.store(region.slot(0), 0);
            ctx.store(region.slot(1), next_epoch);
        } else {
            ctx.spin_until(region.slot(1), next_epoch);
        }
        st.round = next_epoch;
    }
}

#[test]
fn lost_wakeup_detector_flags_wake_before_publish() {
    let verdict = Explorer::exhaustive().check(&flag_handshake_program(false), |_| Ok(()));
    // The waiter sleeps on word 0.
    let hang = Failure::LostWakeup(vec![(0, 0)]);
    assert_eq!(verdict.failure(), Some(&hang), "{verdict:?}");
    // The recorded schedule must replay to the same end state.
    let schedule = verdict.schedule().unwrap();
    let replay = Explorer::exhaustive().replay(&flag_handshake_program(false), schedule);
    assert_eq!(
        replay.end.failure(&|_| Ok(())),
        Some(hang),
        "replay must reproduce the lost wakeup"
    );
}

#[test]
fn fixed_flag_handshake_passes_exhaustively() {
    let verdict = Explorer::exhaustive().check(&flag_handshake_program(true), |_| Ok(()));
    verdict.expect_pass("publish-then-wake handshake");
    assert!(verdict.stats().complete, "search must be exhaustive");
}

/// Seeded bug #4: the service eventcount (`service::protocol`), two
/// awaiters and an advancer whose wake is rewritten away — the
/// missed-advance bug. Waiters that parked on the old count have no spin
/// fallback; only the wake the advancer never sends could release them.
#[test]
fn lost_wakeup_detector_flags_missed_advance() {
    let verdict = Explorer::exhaustive().check(&eventcount_wrap_program(3, false), |_| Ok(()));
    match verdict.failure() {
        Some(Failure::LostWakeup(parked)) => {
            assert!(!parked.is_empty());
            for &(pid, addr) in parked {
                assert!(pid < 2, "only awaiters can be stranded, got thread {pid}");
                assert_eq!(addr, 0, "awaiters sleep on the count word");
            }
        }
        other => panic!("wakeless advance must strand its waiters, got {other:?}"),
    }
}

#[test]
fn fixed_eventcount_advance_passes_exhaustively() {
    let verdict = Explorer::exhaustive().check(&eventcount_wrap_program(3, true), |_| Ok(()));
    verdict.expect_pass("advance with wake-all");
    assert!(verdict.stats().complete, "search must be exhaustive");
}

#[test]
fn race_detector_flags_check_then_set_lock() {
    let v = check_lock(Arc::new(CheckThenSetLock), 2, 1, Explorer::exhaustive());
    match v.failure() {
        Some(Failure::Race(report)) => {
            assert!(
                !v.schedule().unwrap().is_empty(),
                "race must carry its schedule"
            );
            // The racing accesses are the two threads' counter increments.
            assert_ne!(report.prior.pid, report.current.pid);
        }
        other => panic!("check-then-set must be a data race, got {other:?}"),
    }
}

#[test]
fn race_schedule_replays_deterministically() {
    let explorer = Explorer::exhaustive();
    let v = check_lock(Arc::new(CheckThenSetLock), 2, 1, explorer);
    let schedule = v.schedule().expect("violation carries schedule").to_vec();
    let program = interleave::harness::lock_program(Arc::new(CheckThenSetLock), 2, 1);
    let replay = explorer.replay(&program, &schedule);
    assert_eq!(
        replay.end.failure(&|_| Ok(())).as_ref(),
        v.failure(),
        "replaying the recorded schedule must reproduce the race"
    );
    assert!(!replay.ops.is_empty());
}

#[test]
fn deadlock_detector_flags_off_by_one_barrier() {
    let v = check_barrier(Arc::new(OffByOneBarrier), 2, 1, Explorer::exhaustive());
    match v.failure() {
        Some(Failure::Deadlock(blocked)) => {
            assert_eq!(blocked.len(), 2, "both threads wedge at the gate");
        }
        other => panic!("off-by-one barrier must deadlock, got {other:?}"),
    }
}

/// Builds the AB/BA program: two ticket locks, thread 0 nests A→B,
/// thread 1 nests B→A.
fn ab_ba_program() -> Program {
    let region_a = Region::new(0, 2, TicketLock.lines_needed(2));
    let region_b = Region::new(region_a.end(), 2, TicketLock.lines_needed(2));
    Program::new(2, region_b.end(), move |ctx| {
        let mut ps = 0u64;
        let (r1, r2) = if ctx.pid() == 0 {
            (&region_a, &region_b)
        } else {
            (&region_b, &region_a)
        };
        let t1 = TicketLock.acquire(ctx, r1, &mut ps);
        let t2 = TicketLock.acquire(ctx, r2, &mut ps);
        TicketLock.release(ctx, r2, &mut ps, t2);
        TicketLock.release(ctx, r1, &mut ps, t1);
    })
}

#[test]
fn deadlock_detector_finds_the_ab_ba_deadlock_with_preemption() {
    // Each search stops at its first deadlock; a search is one host
    // thread, so the runs it takes to get there are fixed.
    let program = ab_ba_program();
    let runs = |explorer: Explorer| {
        let v = explorer.check(&program, |_| Ok(()));
        match v.failure() {
            Some(Failure::Deadlock(blocked)) => assert_eq!(blocked.len(), 2),
            other => panic!("AB/BA must deadlock, got {other:?}"),
        }
        v.stats().runs
    };
    let exhaustive = Explorer::exhaustive(); // source sets
    assert_eq!(runs(exhaustive), 5);
    assert_eq!(runs(exhaustive.with_dpor(DporMode::Sleep)), 6);
    assert_eq!(runs(exhaustive.with_dpor(DporMode::None)), 26);
    assert_eq!(runs(Explorer::bounded(1)), 5);
}

#[test]
fn test_and_set_family_starves_a_waiter() {
    for name in ["tas", "tas-backoff", "ttas"] {
        let lock: Arc<dyn LockKernel + Send + Sync> = lock_by_name(name).unwrap().into();
        let explorer = Explorer::bounded(2)
            .with_max_steps(80)
            .with_max_runs(20_000);
        // Three iterations: the bypass count only arms once the waiter is
        // past its doorway, so the overtaker needs three wins to exceed a
        // bound of one from the victim's perspective.
        let v = check_lock(lock, 2, 3, explorer.with_bypass_bound(1));
        assert!(
            matches!(v.failure(), Some(Failure::Starvation(_))),
            "{name} must admit unbounded bypass, got {v:?}"
        );
    }
}

#[test]
fn fifo_locks_satisfy_bounded_bypass() {
    for name in [
        "ticket",
        "ticket-prop",
        "anderson",
        "graunke-thakkar",
        "clh",
        "mcs",
        "qsm",
    ] {
        let lock: Arc<dyn LockKernel + Send + Sync> = lock_by_name(name).unwrap().into();
        let explorer = Explorer::bounded(2)
            .with_max_steps(80)
            .with_max_runs(20_000);
        let v = check_lock(lock, 2, 2, explorer.with_bypass_bound(1));
        v.expect_pass(&format!("{name} bounded bypass"));
    }
}

#[test]
fn every_shipped_lock_is_race_free_while_instrumented() {
    // The counter workload over each registry lock wrapped in
    // `InstrumentedLock`: its lock events must not change the verdict.
    for lock in kernels::locks::all_locks() {
        let name = lock.name();
        let lock: Arc<dyn LockKernel + Send + Sync> = lock.into();
        let explorer = Explorer::bounded(2).with_max_steps(60).with_max_runs(6_000);
        let v = check_lock(Arc::new(InstrumentedLock::new(lock, 0)), 2, 1, explorer);
        v.expect_pass(&format!("{name} under instrumentation"));
    }
}

#[test]
fn sleep_sets_halve_the_lock_suite_run_counts() {
    // The acceptance bar: ≥2× fewer runs at equal (complete) coverage on
    // exhaustively explorable members of the lock suite.
    for name in ["ticket", "mcs", "qsm"] {
        let reduced = check_lock(
            lock_by_name(name).unwrap().into(),
            2,
            1,
            Explorer::exhaustive(),
        );
        let full = check_lock(
            lock_by_name(name).unwrap().into(),
            2,
            1,
            Explorer::exhaustive().with_dpor(DporMode::None),
        );
        reduced.expect_pass(&format!("{name} reduced"));
        full.expect_pass(&format!("{name} unreduced"));
        assert!(
            reduced.stats().complete && full.stats().complete,
            "{name}: both searches must be complete"
        );
        assert!(
            reduced.stats().runs * 2 <= full.stats().runs,
            "{name}: expected ≥2× reduction, got {} vs {} runs",
            reduced.stats().runs,
            full.stats().runs
        );
    }
}
