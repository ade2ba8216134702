//! The `qsm` barrier and eventcount block on real threads: with twice as
//! many threads as cores, some waiter outlasts its spin and parks in the
//! process-global lot, and every park is ended by exactly one wake and one
//! resume.
//!
//! This file is a test binary of its own, so nothing but its one test parks
//! in the global lot and the ledger delta below is exact.

use parking::futex::global_lot;
use qsm::{EventCount, QsmBarrier};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

#[test]
fn barrier_rounds_and_an_eventcount_ring_park_and_balance() {
    const ROUNDS: u64 = 200;
    const LAPS: u64 = 100;
    let threads = 2 * thread::available_parallelism().map_or(2, |n| n.get());
    let before = global_lot().totals();

    let barrier = QsmBarrier::new(threads);
    let leaders = AtomicU64::new(0);
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for round in 1..=ROUNDS {
                    let crossed = barrier.wait();
                    assert_eq!(crossed.epoch(), round);
                    if crossed.is_leader() {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        leaders.load(Ordering::Relaxed),
        ROUNDS,
        "one leader a round"
    );

    // A token passed around a ring: thread `me` takes the turns congruent
    // to it, and nobody else advances until it does, so every await sees
    // exactly its own turn.
    let ring = EventCount::new();
    thread::scope(|s| {
        for me in 0..threads as u64 {
            let ring = &ring;
            s.spawn(move || {
                for lap in 0..LAPS {
                    let turn = lap * threads as u64 + me;
                    assert_eq!(ring.await_at_least(turn), turn);
                    assert_eq!(ring.advance(), turn + 1);
                }
            });
        }
    });
    assert_eq!(ring.read(), LAPS * threads as u64);

    let ledger = global_lot().totals().since(&before);
    assert!(
        ledger.parks > 0,
        "no waiter parked at {threads} threads: {ledger:?}"
    );
    assert!(
        ledger.balanced(),
        "a park without one wake and one resume: {ledger:?}"
    );
}
