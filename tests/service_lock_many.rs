//! Deadlock-freedom of `AsyncLockService::lock_many`, checked
//! exhaustively on the deterministic executor.
//!
//! `lock_many` sorts its keys into the canonical (shard, key) order and
//! two-phase-acquires, so *any* assignment of key orders to tasks must
//! complete: the caller's order is irrelevant. The tests enumerate every
//! assignment of 2-key and 3-key acquisition orders across 3 concurrent
//! tasks — with staggered virtual sleeps so lock interleavings actually
//! overlap — and require [`workloads::executor::Outcome::Completed`]
//! from each run.
//!
//! The control: the same reversed-order scenario acquired *sequentially*
//! (what `lock_many` exists to prevent) must report `Stalled` — a
//! detected deadlock, not a hang — and dropping the executor must drain
//! the table through the futures' cancellation paths.

use service::AsyncLockService;
use workloads::executor::{Executor, Outcome};

/// Runs one combo: three tasks, each `lock_many`-ing its own key order,
/// staggered so the windows overlap. Returns the outcome; the service is
/// asserted drained afterwards.
fn run_combo(orders: [&[u64]; 3]) -> Outcome {
    let svc = AsyncLockService::with_shards(4);
    let mut ex = Executor::new(40);
    let h = ex.handle();
    for (i, keys) in orders.into_iter().enumerate() {
        let (h, svc) = (h.clone(), &svc);
        ex.spawn(async move {
            // Stagger and repeat: the second round runs with every task
            // alive, so partially-overlapped holds actually occur.
            h.sleep(i as u64 * 3).await;
            for _ in 0..2 {
                let guards = svc.lock_many(keys).await;
                assert_eq!(guards.len(), keys.len());
                h.sleep(10).await;
                drop(guards);
                h.sleep(1).await;
            }
        });
    }
    let outcome = ex.run();
    drop(ex);
    assert_eq!(
        svc.sync().stats().live,
        0,
        "table must drain after {orders:?}"
    );
    outcome
}

#[test]
fn all_two_key_order_assignments_complete() {
    const A: u64 = 11;
    const B: u64 = 22;
    let orders: [&[u64]; 2] = [&[A, B], &[B, A]];
    for x in 0..2 {
        for y in 0..2 {
            for z in 0..2 {
                let combo = [orders[x], orders[y], orders[z]];
                assert_eq!(
                    run_combo(combo),
                    Outcome::Completed,
                    "2-key combo {combo:?} deadlocked"
                );
            }
        }
    }
}

#[test]
fn all_three_key_order_assignments_complete() {
    const A: u64 = 11;
    const B: u64 = 22;
    const C: u64 = 33;
    let perms: [&[u64]; 6] = [
        &[A, B, C],
        &[A, C, B],
        &[B, A, C],
        &[B, C, A],
        &[C, A, B],
        &[C, B, A],
    ];
    for x in 0..6 {
        for y in 0..6 {
            for z in 0..6 {
                let combo = [perms[x], perms[y], perms[z]];
                assert_eq!(
                    run_combo(combo),
                    Outcome::Completed,
                    "3-key combo {combo:?} deadlocked"
                );
            }
        }
    }
}

/// The baseline `lock_many` is measured against: two tasks acquiring the
/// same two keys sequentially in *opposite* orders, staged with sleeps so
/// each holds its first key before wanting the second. This must
/// deadlock — reported as a stall, never a hang — and the sorted
/// `lock_many` path above must never exhibit it.
#[test]
fn reversed_sequential_orders_deadlock_and_cancel_cleanly() {
    const A: u64 = 11;
    const B: u64 = 22;
    let svc = AsyncLockService::with_shards(4);
    let mut ex = Executor::new(40);
    let h = ex.handle();
    {
        let (h, svc) = (h.clone(), &svc);
        ex.spawn(async move {
            let _a = svc.lock(A).await;
            h.sleep(10).await;
            let _b = svc.lock(B).await;
        });
    }
    {
        let (h, svc) = (h.clone(), &svc);
        ex.spawn(async move {
            let _b = svc.lock(B).await;
            h.sleep(10).await;
            let _a = svc.lock(A).await;
        });
    }
    assert_eq!(
        ex.run(),
        Outcome::Stalled {
            unfinished: vec![0, 1]
        }
    );
    // Dropping the executor drops both deadlocked tasks: their held
    // guards release and their parked futures cancel, so nothing leaks.
    drop(ex);
    assert_eq!(
        svc.sync().stats().live,
        0,
        "cancellation must drain the table"
    );
}
