//! The MCS explicit-queue lock for real hardware.

use crate::backoff::Backoff;
use crate::raw::RawLock;
use crate::sync::{spin_hint, AtomicBool, AtomicPtr, Ordering};
use crate::CachePadded;

/// One queue node; the waiter spins on its **own** `locked` word.
#[derive(Debug)]
#[repr(align(128))]
struct McsNode {
    next: AtomicPtr<McsNode>,
    locked: AtomicBool,
}

/// MCS queue lock: explicit `next` links, local-only spinning, O(1)
/// hand-off traffic — the 1991 state of the art the paper's mechanism is
/// measured against.
///
/// # Memory reclamation
///
/// Nodes are heap-allocated per acquisition and freed at the end of
/// `unlock`, which is sound because by then no other thread can hold a
/// reference: a mid-enqueue successor has finished writing `next` (we
/// waited for it), and the tail no longer points at us (our CAS either
/// succeeded or the tail had already moved on).
#[derive(Debug)]
pub struct McsLock {
    tail: CachePadded<AtomicPtr<McsNode>>,
}

impl McsLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        McsLock {
            tail: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
        }
    }
}

impl Default for McsLock {
    fn default() -> Self {
        McsLock::new()
    }
}

impl RawLock for McsLock {
    fn lock(&self) -> usize {
        let node = Box::into_raw(Box::new(McsNode {
            next: AtomicPtr::new(std::ptr::null_mut()),
            // Armed before publication, so a hand-off can never be missed.
            locked: AtomicBool::new(true),
        }));
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` is kept alive by its owner until it has seen
            // our link (its unlock waits for `next` to become non-null).
            unsafe { (*pred).next.store(node, Ordering::Release) };
            // SAFETY: our own node; freed only by our unlock.
            // Escalating wait: see TicketLock on FIFO convoying.
            let mut backoff = Backoff::new();
            unsafe {
                while (*node).locked.load(Ordering::Acquire) {
                    backoff.snooze();
                }
            }
        }
        node as usize
    }

    unsafe fn unlock(&self, token: usize) {
        let node = token as *mut McsNode;
        // SAFETY: `token` came from `lock`; the node is alive until the
        // `Box::from_raw` below.
        unsafe {
            let mut succ = (*node).next.load(Ordering::Acquire);
            if succ.is_null() {
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
                // A successor is mid-enqueue; wait for its link.
                loop {
                    succ = (*node).next.load(Ordering::Acquire);
                    if !succ.is_null() {
                        break;
                    }
                    spin_hint();
                }
            }
            (*succ).locked.store(false, Ordering::Release);
            drop(Box::from_raw(node));
        }
    }

    fn name(&self) -> &'static str {
        "mcs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn solo_lock_unlock_cycles() {
        let l = McsLock::new();
        for _ in 0..100 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn tail_returns_to_null_when_idle() {
        let l = McsLock::new();
        let t = l.lock();
        unsafe { l.unlock(t) };
        assert!(l.tail.load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn excludes_across_threads() {
        let l = Arc::new(McsLock::new());
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let sum = Arc::clone(&sum);
                std::thread::spawn(move || {
                    for _ in 0..250 {
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
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 1000);
    }
}
