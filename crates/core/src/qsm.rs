//! **QSM** — the Queueing Synchronization Mechanism, real-hardware edition.
//!
//! The lock half of the paper's unified mechanism. Differences from the
//! MCS lock (`kernels::locks::mcs`), mirroring the `kernels` reconstruction:
//!
//! * the hand-off is an *increment* of the successor's **grant word**
//!   (an eventcount) rather than clearing a boolean — the operation shared
//!   with [`crate::EventCount::advance`] and [`crate::QsmBarrier`];
//! * a waiter is granted when its grant word moves past the value it
//!   recorded at enqueue, which is immune to missed-wakeup races by
//!   arithmetic: counts never return to a recorded value;
//! * acquire attempts a single-CAS fast path before enqueueing.
//!
//! In this per-acquisition-node edition each node's grant starts at zero
//! and receives exactly one increment; the monotone-count behaviour across
//! acquisitions is carried by the persistent-node variant in `kernels` and
//! by [`crate::QsmBarrier`]'s reset-free counters.

use crate::backoff::Backoff;
use crate::raw::RawLock;
use crate::sync::{spin_hint, AtomicPtr, AtomicU64, Ordering};
use crate::CachePadded;

/// One queue node: explicit link + grant eventcount.
#[derive(Debug)]
#[repr(align(128))]
struct QsmNode {
    next: AtomicPtr<QsmNode>,
    grant: AtomicU64,
}

/// The QSM lock.
///
/// Tail states: null = free; otherwise the last enqueued node (which is the
/// holder when the queue has length one).
///
/// # Memory reclamation
///
/// Per-acquisition heap nodes, freed at the end of `unlock`, which is sound
/// because by then no other thread can hold a reference: a mid-enqueue
/// successor has finished writing `next` (we waited for it), and the tail
/// no longer points at us (our CAS either succeeded or the tail had already
/// moved on).
#[derive(Debug)]
pub struct Qsm {
    tail: CachePadded<AtomicPtr<QsmNode>>,
}

impl Qsm {
    /// Creates an unlocked mechanism.
    pub fn new() -> Self {
        Qsm {
            tail: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// Attempts the uncontended fast path once; on success the caller holds
    /// the lock and receives the token.
    pub fn try_lock(&self) -> Option<usize> {
        let node = Box::into_raw(Box::new(QsmNode {
            next: AtomicPtr::new(std::ptr::null_mut()),
            grant: AtomicU64::new(0),
        }));
        // AcqRel: Acquire for the lock edge, Release to publish the node's
        // initialization to the successor that will write `next` into it.
        match self.tail.compare_exchange(
            std::ptr::null_mut(),
            node,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => Some(node as usize),
            Err(_) => {
                // SAFETY: the node was never published.
                unsafe { drop(Box::from_raw(node)) };
                None
            }
        }
    }
}

impl Default for Qsm {
    fn default() -> Self {
        Qsm::new()
    }
}

impl RawLock for Qsm {
    fn lock(&self) -> usize {
        let node = Box::into_raw(Box::new(QsmNode {
            next: AtomicPtr::new(std::ptr::null_mut()),
            grant: AtomicU64::new(0),
        }));
        // Fast path: free lock, single CAS.
        // AcqRel, not Acquire: the successful exchange also publishes the
        // node's initialization to whichever thread later links into it.
        if self
            .tail
            .compare_exchange(
                std::ptr::null_mut(),
                node,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            return node as usize;
        }
        // Slow path: enqueue behind the observed tail.
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if pred.is_null() {
            // The holder released between our CAS and swap.
            return node as usize;
        }
        // SAFETY: `pred` is alive until its owner's unlock, which waits for
        // this link before freeing.
        unsafe { (*pred).next.store(node, Ordering::Release) };
        // Await our grant: the recorded value is 0, so any increment ends
        // the wait — and can never be "un-signalled".
        // SAFETY: our own node.
        // FIFO hand-off convoys badly on an oversubscribed host if waiters
        // never yield (the next holder may be descheduled), so the wait
        // escalates from pause hints to yields.
        let mut backoff = Backoff::new();
        unsafe {
            while (*node).grant.load(Ordering::Acquire) == 0 {
                backoff.snooze();
            }
        }
        node as usize
    }

    unsafe fn unlock(&self, token: usize) {
        let node = token as *mut QsmNode;
        // SAFETY: `token` came from `lock`; alive until the final free.
        unsafe {
            let mut succ = (*node).next.load(Ordering::Acquire);
            if succ.is_null() {
                // Fast path: close a queue of one with a single CAS.
                if self
                    .tail
                    .compare_exchange(
                        node,
                        std::ptr::null_mut(),
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    drop(Box::from_raw(node));
                    return;
                }
                loop {
                    succ = (*node).next.load(Ordering::Acquire);
                    if !succ.is_null() {
                        break;
                    }
                    spin_hint();
                }
            }
            // Hand off by advancing the successor's grant eventcount.
            (*succ).grant.fetch_add(1, Ordering::Release);
            drop(Box::from_raw(node));
        }
    }

    fn name(&self) -> &'static str {
        "qsm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn solo_lock_unlock_cycles() {
        let l = Qsm::new();
        for _ in 0..100 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn try_lock_succeeds_only_when_free() {
        let l = Qsm::new();
        let t = l.try_lock().expect("free lock must be acquirable");
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        let t2 = l.try_lock().expect("released lock must be acquirable");
        unsafe { l.unlock(t2) };
    }

    #[test]
    fn tail_returns_to_null_when_idle() {
        let l = Qsm::new();
        let t = l.lock();
        unsafe { l.unlock(t) };
        assert!(l.tail.load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn excludes_across_threads() {
        let l = Arc::new(Qsm::new());
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let sum = Arc::clone(&sum);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let t = l.lock();
                        sum.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 2000);
    }

    #[test]
    fn heavy_mixed_try_and_lock() {
        use std::sync::atomic::Ordering::AcqRel;
        let l = Arc::new(Qsm::new());
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let holders = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                let sum = Arc::clone(&sum);
                let holders = Arc::clone(&holders);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let token = if i % 2 == 0 {
                            l.lock()
                        } else {
                            match l.try_lock() {
                                Some(t) => t,
                                None => l.lock(),
                            }
                        };
                        // However the token was won, nobody else holds one.
                        assert_eq!(holders.fetch_add(1, AcqRel), 0, "two holders");
                        sum.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        holders.fetch_sub(1, AcqRel);
                        unsafe { l.unlock(token) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 800);
    }
}
