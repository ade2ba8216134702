//! The CLH implicit-queue lock for real hardware.

use crate::backoff::Backoff;
use crate::raw::RawLock;
use crate::sync::{AtomicBool, AtomicPtr, Ordering};
use crate::CachePadded;

/// One queue node: the word a successor spins on.
#[derive(Debug)]
#[repr(align(128))]
struct ClhNode {
    locked: AtomicBool,
}

/// CLH queue lock: each arrival swaps its node into the tail and spins on
/// the *predecessor's* node, so all waiting is on a line that only the
/// predecessor writes.
///
/// # Memory reclamation
///
/// The textbook CLH recycles nodes through thread-local storage. This
/// implementation instead frees the predecessor's node in `lock` — sound
/// because once a waiter observes `locked == false` (an acquire load of the
/// releaser's final store), the releasing thread never touches that node
/// again.
#[derive(Debug)]
pub struct ClhLock {
    tail: CachePadded<AtomicPtr<ClhNode>>,
}

impl ClhLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        let dummy = Box::into_raw(Box::new(ClhNode {
            locked: AtomicBool::new(false),
        }));
        ClhLock {
            tail: CachePadded::new(AtomicPtr::new(dummy)),
        }
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        ClhLock::new()
    }
}

impl RawLock for ClhLock {
    fn lock(&self) -> usize {
        let node = Box::into_raw(Box::new(ClhNode {
            locked: AtomicBool::new(true),
        }));
        let pred = self.tail.swap(node, Ordering::AcqRel);
        // SAFETY: `pred` stays valid until we free it below; only we (the
        // unique successor) may do so, and only after observing the release.
        // Escalating wait: see TicketLock on FIFO convoying.
        let mut backoff = Backoff::new();
        unsafe {
            while (*pred).locked.load(Ordering::Acquire) {
                backoff.snooze();
            }
            drop(Box::from_raw(pred));
        }
        node as usize
    }

    unsafe fn unlock(&self, token: usize) {
        let node = token as *const ClhNode;
        // SAFETY: `token` came from `lock`, so the node is alive; the
        // successor frees it only after seeing this store.
        unsafe { (*node).locked.store(false, Ordering::Release) };
    }

    fn name(&self) -> &'static str {
        "clh"
    }
}

impl Drop for ClhLock {
    fn drop(&mut self) {
        // No contenders can exist during drop; the tail node is quiescent.
        let last = self.tail.load(Ordering::Relaxed);
        // SAFETY: exclusive access; `last` was allocated by new() or lock().
        unsafe { drop(Box::from_raw(last)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn solo_lock_unlock_cycles() {
        let l = ClhLock::new();
        for _ in 0..100 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn drop_without_use_does_not_leak_or_crash() {
        for _ in 0..10 {
            let _ = ClhLock::new();
        }
    }

    #[test]
    fn excludes_across_threads() {
        let l = Arc::new(ClhLock::new());
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
