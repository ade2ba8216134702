//! Anderson's array-based queue lock for real hardware.

use crate::backoff::Backoff;
use crate::raw::RawLock;
use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use crate::CachePadded;

/// Anderson's array queue lock: each waiter spins on its own cache-line
/// padded slot; a release writes exactly one slot.
///
/// The slot array is sized at construction: **at most `capacity` threads
/// may contend simultaneously** (more would alias slots and corrupt the
/// queue). Each slot holds 1 ("has lock") or 0 ("must wait").
#[derive(Debug)]
pub struct AndersonLock {
    tail: CachePadded<AtomicUsize>,
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl AndersonLock {
    /// Creates a lock admitting up to `capacity` concurrent lockers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        let slots: Vec<CachePadded<AtomicU64>> = (0..capacity)
            .map(|i| CachePadded::new(AtomicU64::new(u64::from(i == 0))))
            .collect();
        AndersonLock {
            tail: CachePadded::new(AtomicUsize::new(0)),
            slots: slots.into_boxed_slice(),
        }
    }

    /// The maximum number of simultaneous contenders.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl RawLock for AndersonLock {
    fn lock(&self) -> usize {
        let slot = self.tail.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        // Escalating wait: see TicketLock on FIFO convoying.
        let mut backoff = Backoff::new();
        while self.slots[slot].load(Ordering::Acquire) == 0 {
            backoff.snooze();
        }
        // Reset our slot for its next user; we are its only writer now.
        self.slots[slot].store(0, Ordering::Relaxed);
        slot
    }

    unsafe fn unlock(&self, token: usize) {
        let next = (token + 1) % self.slots.len();
        self.slots[next].store(1, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "anderson"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slots_rotate() {
        let l = AndersonLock::new(3);
        for expected in [0usize, 1, 2, 0, 1] {
            let t = l.lock();
            assert_eq!(t, expected);
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(AndersonLock::new(7).capacity(), 7);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        AndersonLock::new(0);
    }

    #[test]
    fn excludes_across_threads() {
        let l = Arc::new(AndersonLock::new(4));
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
