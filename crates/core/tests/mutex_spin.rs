//! What a contended `Qsm::lock` costs against one hand-off:
//! nothing but CPU when the holder releases inside the spin budget — the
//! process-global lot's `park_cost()` — and exactly one park when it does
//! not.
//!
//! This file is a test binary of its own, so nothing but its tests parks in
//! the global lot and the ledger deltas below are equalities. The tests are
//! serialised all the same, because they are about timing: each is two
//! threads, and a neighbour test taking a core turns "inside the budget"
//! into a preemption.

use parking::futex::{global_lot, FutexTotals, PARK_COST_CEIL, PARK_COST_FLOOR};
use qsm::Qsm;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Serialises the tests of this file.
fn alone() -> MutexGuard<'static, ()> {
    static HOST: Mutex<()> = Mutex::new(());
    HOST.lock().unwrap_or_else(|e| e.into_inner())
}

/// `n` parks, each ended by one wake and one resume.
fn balanced_at(n: u64) -> FutexTotals {
    FutexTotals {
        parks: n,
        wakes: n,
        resumes: n,
    }
}

/// What one hand-off came to.
struct Handoff {
    /// From just before the waiter's `lock` call to just after the holder's
    /// `unlock` returned.
    released_after: Duration,
    /// From just before the waiter's `lock` call to this thread first
    /// seeing a park on the ledger, if it saw one before it released.
    parked_after: Option<Duration>,
    /// The global lot's ledger across the hand-off.
    ledger: FutexTotals,
}

/// This thread holds a fresh lock while another calls `lock` on it, and
/// releases once `hold_off` — given the ledger so far and the time since
/// the waiter entered — says so.
fn one_handoff(hold_off: impl Fn(FutexTotals, Duration) -> bool) -> Handoff {
    let lock = Qsm::new();
    let held = lock.lock();
    let entered = OnceLock::new();
    let before = global_lot().totals();
    thread::scope(|s| {
        let waiter = s.spawn(|| {
            entered.set(Instant::now()).unwrap();
            let token = lock.lock();
            // SAFETY: `token` is this thread's acquisition of `lock`.
            unsafe { lock.unlock(token) };
        });
        let entered = loop {
            match entered.get() {
                Some(at) => break *at,
                None => std::hint::spin_loop(),
            }
        };
        let mut parked_after = None;
        loop {
            let (ledger, since) = (global_lot().totals().since(&before), entered.elapsed());
            if ledger.parks > 0 {
                parked_after.get_or_insert(since);
            }
            if !hold_off(ledger, since) {
                break;
            }
            std::hint::spin_loop();
        }
        // SAFETY: `held` is this thread's acquisition of `lock`.
        unsafe { lock.unlock(held) };
        let released_after = entered.elapsed();
        waiter.join().unwrap();
        Handoff {
            released_after,
            parked_after,
            ledger: global_lot().totals().since(&before),
        }
    })
}

/// A release that has returned before even the smallest budget is up is
/// seen by the waiter's spin, or at the latest by the read of its grant
/// that follows it: no park, no wake, whatever the scheduler did in
/// between.
#[test]
fn a_handoff_inside_the_budget_is_taken_without_a_park() {
    let _alone = alone();
    let mut inside = 0;
    for _ in 0..2_000 {
        let handoff = one_handoff(|_, since| since < Duration::from_micros(2));
        // Later than the floor means this thread lost its core on the way.
        if handoff.released_after < PARK_COST_FLOOR {
            assert_eq!(handoff.ledger, balanced_at(0), "parked inside its budget");
            inside += 1;
            if inside == 16 {
                break;
            }
        }
    }
    assert!(inside > 0, "no release ever landed inside the budget");
}

/// A waiter nobody releases watches its grant word for the global lot's
/// `park_cost()` — seeded at the floor, then the clamped average of this
/// very test's parks — before it blocks, and the release that comes well
/// past the ceiling then costs exactly one park.
#[test]
fn a_handoff_past_the_budget_costs_exactly_one_park() {
    let _alone = alone();
    for _ in 0..16 {
        // Nothing parks in the lot between this read and the waiter's own.
        let budget = global_lot().park_cost();
        assert!(
            (PARK_COST_FLOOR..=PARK_COST_CEIL).contains(&budget),
            "{budget:?}"
        );
        let handoff = one_handoff(|ledger, since| ledger.parks == 0 || since < 2 * PARK_COST_CEIL);
        let spun = handoff.parked_after.unwrap();
        assert!(
            spun >= budget,
            "parked after {spun:?} of a {budget:?} budget"
        );
        assert_eq!(
            handoff.ledger,
            balanced_at(1),
            "a missed budget costs one park"
        );
    }
}
