//! One release, one waker: what a grant of `WaitingArraySemaphore` costs on
//! a slot several tickets share, and what a waiter pays before it parks.
//!
//! Semaphore waiters park in the process-global lot, whose ledger
//! (`parking::futex::global_lot().totals()`) is exact only while nothing
//! else parks there. This file is a process of its own for that reason, and
//! every test in it holds [`ledger`]'s lock from its first park to its last
//! resume, so the deltas below are equalities.

use parking::futex::{global_lot, FutexTotals, PARK_COST_CEIL, PARK_COST_FLOOR};
use service::WaitingArraySemaphore;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::Instant;

/// Serialises the tests of this file and snapshots the lot's ledger.
fn ledger() -> (MutexGuard<'static, ()>, FutexTotals) {
    static LEDGER: Mutex<()> = Mutex::new(());
    let guard = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    (guard, global_lot().totals())
}

/// `n` parks, each ended by one wake and one resume.
fn balanced_at(n: u64) -> FutexTotals {
    FutexTotals {
        parks: n,
        wakes: n,
        resumes: n,
    }
}

/// Counts how often it is woken.
#[derive(Default)]
struct CountingWaker(AtomicUsize);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A future with the waker it is polled with.
struct Polled<'a> {
    fut: Pin<Box<service::AcquireFuture<'a>>>,
    count: Arc<CountingWaker>,
}

impl<'a> Polled<'a> {
    /// A fresh acquirer, polled once.
    fn first_poll(sem: &'a WaitingArraySemaphore) -> (Self, Poll<()>) {
        let mut this = Polled {
            fut: Box::pin(sem.acquire_async()),
            count: Arc::default(),
        };
        let polled = this.poll();
        (this, polled)
    }

    fn poll(&mut self) -> Poll<()> {
        let waker = Waker::from(Arc::clone(&self.count));
        self.fut.as_mut().poll(&mut Context::from_waker(&waker))
    }

    fn wakes(&self) -> usize {
        self.count.0.load(Ordering::SeqCst)
    }
}

/// Six futures whose tickets all share the one slot: `release()` invokes the
/// oldest ticket's waker, `release_n(3)` the next three, and a future whose
/// grant is not published never hears of either. (While a grant woke every
/// sharer of its slot, each release invoked all the wakers still parked.)
#[test]
fn a_release_invokes_the_granted_tickets_waker_and_no_other() {
    let (_serial, before) = ledger();
    let sem = WaitingArraySemaphore::new(0, 1);
    let mut waiting: Vec<Polled> = (0..6)
        .map(|_| {
            let (polled, first) = Polled::first_poll(&sem);
            assert!(first.is_pending());
            polled
        })
        .collect();
    let wakes = |waiting: &[Polled]| waiting.iter().map(Polled::wakes).collect::<Vec<_>>();

    assert_eq!(sem.release_n(1), 1);
    assert_eq!(wakes(&waiting), [1, 0, 0, 0, 0, 0]);
    assert_eq!(sem.release_n(3), 3);
    assert_eq!(wakes(&waiting), [1, 1, 1, 1, 0, 0]);

    // The four granted futures are admitted by their next poll; the two
    // others are cancelled unwoken and their tickets recycled.
    let cancelled = waiting.split_off(4);
    assert!(waiting.iter_mut().all(|w| w.poll().is_ready()));
    assert_eq!(cancelled.iter().map(Polled::wakes).sum::<usize>(), 0);
    drop(cancelled);
    assert_eq!(sem.release_n(2), 0, "both tickets were abandoned");
    assert_eq!(sem.permits(), 2, "the two permits nobody was left to take");
    assert_eq!(global_lot().totals().since(&before), balanced_at(6));
}

/// Eight threads parked on two slots — four tickets a slot — released one
/// at a time and then by `release_n(3)`: every release ends exactly as many
/// parks as it grants, nobody parks twice, everybody gets through.
#[test]
fn parked_sharers_of_a_slot_are_woken_one_grant_at_a_time() {
    let (_serial, before) = ledger();
    let sem = WaitingArraySemaphore::new(0, 2);
    let through = AtomicUsize::new(0);
    let delta = || global_lot().totals().since(&before);
    thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                sem.acquire();
                through.fetch_add(1, Ordering::SeqCst);
            });
        }
        // All eight spin their budgets out and park, each under its ticket.
        while delta().parks < 8 {
            thread::yield_now();
        }
        let mut tags: Vec<_> = global_lot()
            .parked_waiters()
            .iter()
            .map(|w| w.tag)
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..8).map(Some).collect::<Vec<_>>());

        let mut granted = 0;
        for n in [1, 1, 1, 1, 1, 3] {
            assert_eq!(sem.release_n(n), n);
            granted += n;
            assert_eq!(delta().wakes, granted as u64, "one wake per grant");
            while through.load(Ordering::SeqCst) < granted {
                thread::yield_now();
            }
            assert_eq!(global_lot().parked_waiters().len(), 8 - granted);
        }
    });
    assert_eq!(through.load(Ordering::SeqCst), 8);
    assert_eq!(sem.permits(), 0);
    assert_eq!(delta(), balanced_at(8), "a waiter parked more than once");
}

/// Parks a thread in the process-global lot and wakes it: one sample for
/// the lot's park-cost average.
fn park_and_wake_once() {
    let word = AtomicU64::new(0);
    thread::scope(|s| {
        s.spawn(|| {
            while word.load(Ordering::SeqCst) == 0 {
                parking::futex::futex_wait(&word, 0);
            }
        });
        while parking::futex::parked_count(&word) == 0 {
            thread::yield_now();
        }
        word.store(1, Ordering::SeqCst);
        parking::futex::futex_wake(&word, 1);
    });
}

/// The pre-park spin is budgeted by the lot the waiter is about to park in:
/// a waiter nobody releases watches its slot for `park_cost()` — the clamped
/// 8–64 µs average, here after sixteen real samples, not a constant of the
/// semaphore — before it parks, and its grant then costs exactly one park;
/// a grant that lands inside the budget is taken without any.
#[test]
fn a_waiter_spins_for_the_lots_park_cost_and_then_parks_once() {
    let (_serial, _) = ledger();
    for _ in 0..16 {
        park_and_wake_once();
    }
    let before = global_lot().totals();
    let delta = || global_lot().totals().since(&before);
    // Nothing parks in the lot between this read and the waiter's own.
    let budget = global_lot().park_cost();
    assert!(
        (PARK_COST_FLOOR..=PARK_COST_CEIL).contains(&budget),
        "{budget:?}"
    );

    let sem = WaitingArraySemaphore::new(0, 2);
    let started = OnceLock::new();
    thread::scope(|s| {
        s.spawn(|| {
            started.set(Instant::now()).unwrap();
            sem.acquire();
        });
        while delta().parks == 0 {
            std::hint::spin_loop();
        }
        let spun = started.get().unwrap().elapsed();
        assert!(
            spun >= budget,
            "parked after {spun:?} of a {budget:?} budget"
        );
        sem.release();
    });
    assert_eq!(delta(), balanced_at(1), "a missed budget costs one park");

    // A release issued the moment the waiter has its ticket lands inside
    // any budget unless this thread loses its core in between, so some
    // attempt among many sees the grant taken with no park at all.
    let taken_spinning = (0..1_000).any(|_| {
        let before = global_lot().totals();
        thread::scope(|s| {
            s.spawn(|| sem.acquire());
            while sem.permits() != -1 {
                std::hint::spin_loop();
            }
            sem.release();
        });
        let attempt = global_lot().totals().since(&before);
        assert!(attempt.balanced() && attempt.parks <= 1, "{attempt:?}");
        attempt.parks == 0
    });
    assert!(taken_spinning, "no grant was ever picked up by the spin");
    assert_eq!(sem.permits(), 0);
}

/// A future dropped after its grant's wake fired but before the re-poll:
/// the wake was addressed to its ticket, so the grant is published, the
/// drop takes `cancel_ticket`'s published branch and the permit goes to the
/// next ticket — the sharer of the slot that the first wake left alone.
#[test]
fn a_future_dropped_after_its_wake_hands_the_grant_to_the_next_ticket() {
    let (_serial, before) = ledger();
    let sem = WaitingArraySemaphore::new(0, 1);
    let (first, polled) = Polled::first_poll(&sem);
    assert!(polled.is_pending());
    let (mut second, polled) = Polled::first_poll(&sem);
    assert!(polled.is_pending());

    assert_eq!(sem.release_n(1), 1);
    assert_eq!((first.wakes(), second.wakes()), (1, 0));
    drop(first);
    assert_eq!(
        second.wakes(),
        1,
        "the dropped future's permit was not handed on"
    );
    assert!(second.poll().is_ready());
    assert_eq!(sem.permits(), 0);
    assert_eq!(global_lot().totals().since(&before), balanced_at(2));
}
