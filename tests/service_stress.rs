//! Real-thread stress of the sharded lock service: churn far more
//! distinct keys through one `LockService` than the slab will ever hold
//! live, with enough cross-thread overlap to force real parking, then
//! assert the teardown invariants the service promises:
//!
//!   - the table drains to zero live keys (every attach was detached),
//!   - slab capacity stayed bounded by peak liveness, not by the number
//!     of distinct keys (slots were recycled),
//!   - the service's **lot-local** futex ledger balances *exactly*:
//!     every park this service caused was matched by a wake and a
//!     resume, with no `since()` delta and no slack for other parkers
//!     in the process ([`service::LockService::futex_totals`] reads the
//!     table's own lot, so the counts are this run's and nothing else's),
//!   - the telemetry counters account for every single acquisition.
//!
//! The service's eventcount gets the same treatment on a service of its
//! own: a ring of threads each waiting for its neighbour's count, then one
//! advancer against awaiters with staggered targets. `await_at_least`
//! spins for what a park costs before it blocks, so both the spin and the
//! park path run here; whichever took a given wait, the count returned
//! reaches its target, the table drains and the ledger balances. So does
//! a semaphore of the churned service, which parks in the same lot.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One advancer, `awaiters` awaiters of one count: awaiter `k` waits for
/// `k + 1`, then every `awaiters`-th count after it, so at any moment the
/// awaiters want different counts and most of `advance`'s wake-alls find
/// some target still ahead. The advancer stops for longer than any spin
/// budget now and then, so awaiters park as well as spin.
fn eventcount_broadcast(svc: &service::LockService, awaiters: u64, advances: u64) {
    const KEY: u64 = 0xb0ad << 32;
    let count = svc.eventcount(KEY);
    std::thread::scope(|s| {
        for k in 0..awaiters {
            let count = &count;
            s.spawn(move || {
                for target in (k + 1..=advances).step_by(awaiters as usize) {
                    let seen = count.await_at_least(target);
                    assert!(
                        (target..=advances).contains(&seen),
                        "awaiter {k} asked for {target} and was handed {seen}"
                    );
                }
            });
        }
        for n in 1..=advances {
            assert_eq!(count.advance(), n);
            if n % 256 == 0 {
                std::thread::sleep(2 * parking::futex::PARK_COST_CEIL);
            }
        }
    });
}

/// The eventcount phase: ring, then broadcast, on a service of their own so
/// that its lot-local ledger is theirs alone.
fn eventcount_ring_and_broadcast_drain_and_balance(threads: usize) {
    let svc = service::LockService::with_shards(64);
    common::eventcount_ring(&svc, threads, 20_000);
    eventcount_broadcast(&svc, threads as u64, 20_000);
    let stats = svc.stats();
    assert_eq!(stats.live, 0, "every handle dropped: {stats:?}");
    let futex = svc.futex_totals();
    assert!(futex.balanced(), "eventcount ledger unbalanced: {futex:?}");
}

#[test]
fn million_key_churn_drains_and_balances() {
    let threads = 8usize;
    // 8 threads x 128k keys + the shared band = >1M distinct keys.
    let private_keys = 128 * 1024u64;
    let shared_keys = 64u64;
    let shared_rounds = 2_000u64;

    let svc = Arc::new(service::LockService::with_shards(64));
    let hits = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for id in 0..threads as u64 {
            let svc = Arc::clone(&svc);
            let hits = Arc::clone(&hits);
            s.spawn(move || {
                // Private band: a fresh key per request. Nothing ever
                // contends here, so this measures pure attach/detach
                // churn and slot recycling.
                let base = 1 + id * private_keys;
                for k in 0..private_keys {
                    let key = parking::futex::mix64(base + k);
                    let _g = svc.lock(key);
                    hits.fetch_add(1, Ordering::Relaxed);
                }
                // Shared band: a small hot set all threads hammer, so
                // the slow path actually parks and wakes.
                for i in 0..shared_rounds {
                    let key = u64::MAX - (i.wrapping_mul(id + 1) % shared_keys);
                    let g = svc.lock(key);
                    hits.fetch_add(1, Ordering::Relaxed);
                    std::hint::black_box(&g);
                }
            });
        }
    });

    let total = threads as u64 * (private_keys + shared_rounds);
    assert_eq!(hits.load(Ordering::Relaxed), total);
    assert!(
        threads as u64 * private_keys >= 1_000_000,
        "stress must churn at least a million distinct keys"
    );

    let stats = svc.stats();
    assert_eq!(stats.live, 0, "all keys must detach at teardown: {stats:?}");
    // Capacity tracks peak concurrent liveness (rounded up to whole
    // 64-slot slabs per shard), not the million distinct keys churned.
    assert!(
        stats.capacity <= stats.peak_live + 64 * stats.shards,
        "slab capacity {} not bounded by peak liveness {} ({} shards)",
        stats.capacity,
        stats.peak_live,
        stats.shards
    );
    assert!(
        stats.capacity < 100_000,
        "capacity {} suggests slots leaked instead of recycling",
        stats.capacity
    );

    // Lot-local ledger: the service's table parks on its own lot, so
    // these are exactly this run's events — no baseline subtraction, no
    // tolerance for unrelated parkers.
    let futex = svc.futex_totals();
    assert!(
        futex.balanced(),
        "futex accounting unbalanced at teardown: parks {} wakes {} resumes {}",
        futex.parks,
        futex.wakes,
        futex.resumes
    );
    assert_eq!(futex.parks, futex.resumes, "every park resumed exactly once");

    // Telemetry (default `counters` mode) must account for every one of
    // the million-plus acquisitions, and fast/parked must partition
    // consistently.
    let snap = svc.metrics_snapshot();
    assert_eq!(snap.acquires, total, "telemetry lost acquisitions");
    assert!(
        snap.fast_path + snap.parked <= snap.acquires,
        "fast {} + parked {} exceed acquires {}",
        snap.fast_path,
        snap.parked,
        snap.acquires
    );
    // Every drained slot lifetime returned its slot to a free list; with
    // over a million single-holder keys that is most of the traffic.
    assert!(
        snap.slot_recycles >= threads as u64 * private_keys && snap.slot_recycles <= total,
        "slot recycles {} out of range for {} acquisitions",
        snap.slot_recycles,
        total
    );

    eventcount_ring_and_broadcast_drain_and_balance(threads);

    // The waiting-array semaphore parks in the same lot: overflowing a
    // small array with more waiters than slots must still balance.
    let sem = svc.semaphore(2, 4);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..2_000 {
                    sem.acquire();
                    std::hint::black_box(&sem);
                    sem.release();
                }
            });
        }
    });
    assert_eq!(sem.permits(), 2);
    let futex = svc.futex_totals();
    assert!(
        futex.balanced(),
        "semaphore futex accounting unbalanced: {futex:?}"
    );
}
