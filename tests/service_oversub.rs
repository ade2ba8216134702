//! Oversubscription regression for the per-key mutex's spin-then-park:
//! eight times as many threads as the host has cores, all on two keys,
//! each holding for about ten microseconds.
//!
//! This is the regime where pure spinning collapses (fig9) — a spinner
//! burns the quantum the preempted holder needs — and where a spin budget
//! that only ever grew would too. The service spins for what a park costs
//! and no longer, so with eight waiters queued per core most waits outlast
//! the budget and must still block. The test asserts the invariants that
//! make that safe (mutual exclusion, a drained table, an exactly balanced
//! lot-local futex ledger, a calibrated budget inside its clamp) and that
//! waiters really parked; run it with `--nocapture` for the throughput
//! line EXPERIMENTS.md quotes.
//!
//! The eventcount follows the same rule, so it gets the same regime: a ring
//! of eight threads per core, each waiting for a neighbour that is most
//! likely not running. It must finish, in order, with an exact ledger — and
//! with parks on it: `await_at_least` spins for what a park costs *and then
//! still blocks*.
//!
//! Each test is eight threads per core on its own, so the two take turns.

mod common;

use parking::futex::{mix64, PARK_COST_CEIL, PARK_COST_FLOOR};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Eight threads per core, once this test has the host to itself.
fn oversubscribed() -> (MutexGuard<'static, ()>, usize, usize) {
    static HOST: Mutex<()> = Mutex::new(());
    let alone = HOST.lock().unwrap_or_else(|e| e.into_inner());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (alone, cores, 8 * cores)
}

/// Links of the dependent `mix64` chain run under the lock: ~10 µs on the
/// reference host (4.5 ns a link). Work, not wall time, so a preempted
/// holder does not get a shorter hold.
const HOLD_LINKS: u32 = 2200;
const KEYS: usize = 2;
const RUN: Duration = Duration::from_millis(1500);

#[test]
fn oversubscribed_convoy_stays_exclusive_and_still_parks() {
    let (_alone, cores, threads) = oversubscribed();
    let svc = service::LockService::with_metrics_mode(64, service::MetricsMode::Counters);
    // One plain counter per key, bumped by a load and a later store under
    // that key's lock: two holders at once lose an update.
    let counters: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);

    let (ops, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (svc, counters, stop, start) = (&svc, &counters, &stop, &start);
                s.spawn(move || {
                    let mut ops = 0u64;
                    let mut x = tid as u64;
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        x = mix64(x);
                        let key = x as usize % KEYS;
                        let _g = svc.lock(key as u64);
                        let seen = counters[key].load(Ordering::Relaxed);
                        let mut h = seen;
                        for _ in 0..HOLD_LINKS {
                            h = mix64(h);
                        }
                        black_box(h);
                        counters[key].store(seen + 1, Ordering::Relaxed);
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Relaxed);
        let ops: u64 = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .sum();
        (ops, t0.elapsed())
    });

    let counted: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(
        counted, ops,
        "lost updates: two holders of one key overlapped"
    );
    assert_eq!(svc.stats().live, 0, "every guard dropped, table must drain");

    let futex = svc.futex_totals();
    assert!(futex.balanced(), "lot-local ledger unbalanced: {futex:?}");
    let snap = svc.metrics_snapshot();
    assert_eq!(snap.acquires, ops);
    assert!(
        snap.parked > 0 && futex.parks > 0,
        "{threads} threads on {KEYS} keys never blocked: spinning cannot win here"
    );
    let park_cost = Duration::from_nanos(snap.park_cost_ns.expect("service snapshot"));
    assert!(
        (PARK_COST_FLOOR..=PARK_COST_CEIL).contains(&park_cost),
        "calibrated park cost {park_cost:?} left its clamp"
    );

    println!(
        "service_oversub: {threads} threads / {cores} cores, {KEYS} keys, {HOLD_LINKS}-link hold: \
         {:.0} ops/s, parked share {:.3}, respin wins {:.3} of parked, {:.2} parks/op, \
         park_cost {park_cost:?}",
        ops as f64 / elapsed.as_secs_f64(),
        snap.parked as f64 / ops as f64,
        snap.respin_wins as f64 / snap.parked.max(1) as f64,
        futex.parks as f64 / ops as f64,
    );
}

#[test]
fn oversubscribed_eventcount_ring_finishes_and_still_parks() {
    const STEPS: u64 = 2_000;
    let (_alone, cores, threads) = oversubscribed();
    let svc = service::LockService::with_shards(64);
    let t0 = Instant::now();
    common::eventcount_ring(&svc, threads, STEPS);
    let elapsed = t0.elapsed();

    assert_eq!(
        svc.stats().live,
        0,
        "every handle dropped, table must drain"
    );
    let futex = svc.futex_totals();
    assert!(futex.balanced(), "lot-local ledger unbalanced: {futex:?}");
    assert!(
        futex.parks > 0,
        "{threads} threads on {cores} cores never blocked: spinning cannot win here"
    );
    let park_cost = svc
        .metrics_snapshot()
        .park_cost_ns
        .expect("service snapshot");
    let park_cost = Duration::from_nanos(park_cost);
    println!(
        "service_oversub: eventcount ring, {threads} threads / {cores} cores, {STEPS} steps each: \
         {:.0} steps/s, {:.2} parks/step, park_cost {park_cost:?}",
        (threads as u64 * STEPS) as f64 / elapsed.as_secs_f64(),
        futex.parks as f64 / (threads as u64 * STEPS) as f64,
    );
}
