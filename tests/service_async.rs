//! Real-thread stress of the **async** lock service: million-key churn
//! through future-returning locks, then cancellation storms — randomly
//! timed-out/dropped futures racing blocking threads on the *same* hot
//! keys — asserting after every storm round that
//!
//!   - the service's futex ledger balances (`parks == wakes == resumes`):
//!     a dropped future either removed its waiter (cancel self-accounts
//!     the wake) or inherited a published grant and passed the baton on,
//!     never stranding a count,
//!   - the table drains to zero live keys: every future's slot pin was
//!     released, including futures dropped mid-wait,
//!
//! and at teardown that slab capacity stayed bounded by peak liveness.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// A waker that records the wake in a flag — the manual-polling harness
/// the cancellation storms use to abandon futures at arbitrary protocol
/// stages.
struct FlagWaker(AtomicBool);

impl std::task::Wake for FlagWaker {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn flag_waker() -> (Waker, Arc<FlagWaker>) {
    let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
    (Waker::from(Arc::clone(&flag)), flag)
}

/// Cheap deterministic per-thread randomness without pulling in a
/// generator: full-avalanche hash of a counter.
fn rnd(seed: u64, i: u64) -> u64 {
    parking::futex::mix64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(i))
}

#[test]
fn async_churn_and_cancellation_storms_balance() {
    // ---- Phase 1: million-key churn through the async fast path ----
    // A fresh key per request, driven to completion with `block_on`:
    // attach → first-poll CAS → detach, a million times over, mixed with
    // a shared band where async and blocking lockers actually park.
    let threads = 8u64;
    let private_keys = 128 * 1024u64;
    let shared_keys = 16u64;
    let shared_rounds = 1_000u64;
    let svc = Arc::new(service::AsyncLockService::with_shards(64));
    let hits = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for id in 0..threads {
            let svc = Arc::clone(&svc);
            let hits = Arc::clone(&hits);
            s.spawn(move || {
                let base = 1 + id * private_keys;
                for k in 0..private_keys {
                    let key = parking::futex::mix64(base + k);
                    let _g = service::block_on(svc.lock(key));
                    hits.fetch_add(1, Ordering::Relaxed);
                }
                for i in 0..shared_rounds {
                    let key = u64::MAX - (i.wrapping_mul(id + 1) % shared_keys);
                    // Alternate the protocol: even iterations async,
                    // odd ones through the sync front end on the same
                    // slot words.
                    if i % 2 == 0 {
                        let g = service::block_on(svc.lock(key));
                        std::hint::black_box(&g);
                    } else {
                        let g = svc.sync().lock(key);
                        std::hint::black_box(&g);
                    }
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(
        hits.load(Ordering::Relaxed),
        threads * (private_keys + shared_rounds)
    );
    assert!(
        threads * private_keys >= 1_000_000,
        "stress must churn at least a million distinct keys"
    );
    let stats = svc.sync().stats();
    assert_eq!(stats.live, 0, "all keys must detach after churn: {stats:?}");
    let futex = svc.sync().futex_totals();
    assert!(
        futex.balanced(),
        "churn accounting unbalanced: parks {} wakes {} resumes {}",
        futex.parks,
        futex.wakes,
        futex.resumes
    );

    // ---- Phase 2: 100 cancellation-storm rounds ----
    // Each round mixes blocking lockers, completing async lockers, and
    // manually-polled futures that are dropped after a bounded number of
    // polls (a timeout) at whatever protocol stage they reached —
    // unpolled, spinning, parked, or woken-but-not-resumed — all on the
    // same hot keys, plus the same treatment for semaphore tickets.
    // Every round must end balanced with the table drained.
    for round in 0..100u64 {
        let sem = Arc::new(svc.sync().semaphore(2, 4));
        std::thread::scope(|s| {
            // Blocking lockers on the hot keys.
            for id in 0..2u64 {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let key = u64::MAX - (rnd(round * 10 + id, i) % 8);
                        let g = svc.sync().lock(key);
                        std::hint::black_box(&g);
                    }
                });
            }
            // Async lockers that run to completion.
            {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let key = u64::MAX - (rnd(round * 10 + 2, i) % 8);
                        drop(service::block_on(svc.lock(key)));
                    }
                });
            }
            // Async lockers that time out: poll a few times, then drop.
            for id in 3..5u64 {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let r = rnd(round * 10 + id, i);
                        let key = u64::MAX - (r % 8);
                        let mut fut = svc.lock(key);
                        let polls = (r >> 8) % 3; // 0 = dropped unpolled
                        let mut granted = None;
                        for _ in 0..polls {
                            let (waker, _flag) = flag_waker();
                            let poll = Pin::new(&mut fut).poll(&mut Context::from_waker(&waker));
                            if let Poll::Ready(g) = poll {
                                granted = Some(g);
                                break;
                            }
                            std::thread::yield_now();
                        }
                        drop(fut);
                        drop(granted);
                    }
                });
            }
            // Semaphore: a blocking acquire/release pairer...
            {
                let sem = Arc::clone(&sem);
                s.spawn(move || {
                    for _ in 0..100 {
                        sem.acquire();
                        std::hint::black_box(&sem);
                        sem.release();
                    }
                });
            }
            // ...racing async tickets that are cancelled on "timeout",
            // and a batch releaser sweeping grants over them.
            {
                let sem = Arc::clone(&sem);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let mut fut = sem.acquire_async();
                        let polls = rnd(round * 10 + 5, i) % 3;
                        let mut admitted = false;
                        for _ in 0..polls {
                            let (waker, _flag) = flag_waker();
                            if Pin::new(&mut fut)
                                .poll(&mut Context::from_waker(&waker))
                                .is_ready()
                            {
                                admitted = true;
                                break;
                            }
                            std::thread::yield_now();
                        }
                        drop(fut);
                        if admitted {
                            sem.release();
                        }
                    }
                });
            }
        });
        // Every admitted acquirer released and every cancelled ticket was
        // recycled by one side or the other: both permits are back.
        assert_eq!(
            sem.permits(),
            2,
            "round {round}: a cancelled semaphore ticket was not restored"
        );
        let stats = svc.sync().stats();
        assert_eq!(
            stats.live, 0,
            "round {round}: slots leaked after the cancellation storm: {stats:?}"
        );
        let futex = svc.sync().futex_totals();
        assert!(
            futex.balanced(),
            "round {round}: unbalanced after the storm: parks {} wakes {} resumes {}",
            futex.parks,
            futex.wakes,
            futex.resumes
        );
    }

    // Capacity stayed bounded by peak concurrent liveness (rounded up to
    // whole slabs per shard), not by the million keys churned.
    let stats = svc.sync().stats();
    assert!(
        stats.capacity <= stats.peak_live + 64 * stats.shards,
        "slab capacity {} not bounded by peak liveness {} ({} shards)",
        stats.capacity,
        stats.peak_live,
        stats.shards
    );
}
