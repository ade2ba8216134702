//! Integration tests for the real-hardware blocking runtime (`parking`):
//! the word-sized futex, the service's eventcount protocol on a plain word,
//! and the QSM mutex that parks in it, exercised with real host threads.
//!
//! These are the hardware counterparts of the interleave-model futex tests
//! (`crates/interleave` and `tests/analysis_seeded_bugs.rs`): the model
//! proves the discipline has no lost-wakeup window under every schedule,
//! and these tests check that the `std::thread`-backed implementation
//! honours the same contract under a real scheduler.

use parking::futex::{addr_of, global_lot, ParkingLot};
use service::protocol;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Spins (with sleeps) until `cond` holds or a generous deadline passes —
/// real-thread tests can't assert on instantaneous scheduler behavior.
fn eventually(cond: impl Fn() -> bool, what: &str) {
    for _ in 0..2_000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn futex_wake_n_of_m_wakes_exactly_n() {
    const M: usize = 6;
    const N: usize = 2;
    let word = Arc::new(AtomicU64::new(0));
    let released = Arc::new(AtomicU64::new(0));
    let (lot, addr) = (global_lot(), addr_of(&word));

    let waiters: Vec<_> = (0..M)
        .map(|_| {
            let word = Arc::clone(&word);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                // Futex discipline: re-check the word after every return;
                // only a published word change ends the wait.
                while word.load(Ordering::SeqCst) == 0 {
                    global_lot().wait(&word, 0);
                }
                released.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();

    eventually(|| lot.parked_count(&word) == M, "all waiters parked");

    // Waking N without changing the word releases nobody for good: exactly
    // N are woken, re-check, see 0, and park again.
    assert_eq!(lot.wake_addr(addr, N), N);
    eventually(|| lot.parked_count(&word) == M, "spuriously woken waiters re-parked");
    assert_eq!(released.load(Ordering::SeqCst), 0);

    // Publish the change, then wake exactly N: exactly N get out.
    word.store(1, Ordering::SeqCst);
    assert_eq!(lot.wake_addr(addr, N), N);
    eventually(
        || released.load(Ordering::SeqCst) == N as u64,
        "exactly n waiters released",
    );
    assert_eq!(lot.parked_count(&word), M - N, "the rest must still be parked");

    // Wake the remainder; everyone finishes.
    assert_eq!(lot.wake_addr(addr, usize::MAX), M - N);
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(released.load(Ordering::SeqCst), M as u64);
    assert_eq!(lot.parked_count(&word), 0);
}

#[test]
fn eventcount_advance_and_await_survive_wraparound() {
    // The service's eventcount protocol on a plain word and a lot of its
    // own, started two ticks below wraparound so the watched sequence
    // crosses u64::MAX -> 0 while a waiter waits on the far side.
    let lot = ParkingLot::with_buckets(1);
    let count = AtomicU64::new(u64::MAX - 1);
    std::thread::scope(|s| {
        let waiter = s.spawn(|| protocol::await_at_least(&mut &lot, &count, 1));
        // Three advances: MAX-1 -> MAX -> 0 -> 1. The signed-distance
        // compare must treat 1 as "at or past" the target despite
        // 1 < u64::MAX - 1.
        assert_eq!(protocol::advance(&mut &lot, &count), u64::MAX);
        assert_eq!(protocol::advance(&mut &lot, &count), 0);
        assert_eq!(protocol::advance(&mut &lot, &count), 1);
        assert_eq!(waiter.join().unwrap(), 1);
    });
    assert!(lot.totals().balanced());
}

#[test]
fn simulated_blocking_run_balances_parks_and_wakes() {
    // Machine-wide futex accounting: a completed run must have woken every
    // parked waiter. The engine debug_asserts this at teardown; this is
    // the explicit release-mode check on the configuration that parks the
    // most (always-park QSM, 2 threads per simulated core).
    let lock = kernels::locks::lock_by_name("qsm-block-park").unwrap();
    let (nprocs, cores) = (8, 4);
    let machine = workloads::oversub::oversub_machine(nprocs, cores);
    let (count, report) =
        kernels::locks::counter_trial(&machine, &*lock, nprocs, 4, 10).unwrap();
    assert_eq!(count, (nprocs * 4) as u64);
    assert!(
        report.metrics.futex_parks() > 0,
        "always-park lock never parked; the check is vacuous"
    );
    assert_eq!(report.metrics.futex_parks(), report.metrics.futex_woken());
}

#[test]
fn blocking_mutex_counts_correctly_oversubscribed() {
    // More threads than host cores: the configuration the park path is
    // for. A lost wakeup here shows up as a hang (caught by test timeout).
    let threads = 2 * std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let iters = 300;
    let mutex: Arc<qsm::Mutex<u64>> = Arc::new(qsm::Mutex::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let mutex = Arc::clone(&mutex);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    let mut g = mutex.lock();
                    let v = *g; // non-atomic read-modify-write: only mutual
                    *g = v + 1; // exclusion keeps the count exact.
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*mutex.lock(), (threads * iters) as u64);
}
