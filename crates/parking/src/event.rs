//! A blocking Reed–Kanodia eventcount.
//!
//! `advance` bumps a monotone (wrapping) counter and wakes every thread
//! parked on it; `await_at_least` blocks until the count has reached a
//! target, probing for an adaptive budget before parking on the count word
//! with [`crate::futex::futex_wait`]. Because the futex compares against
//! the exact count the waiter last observed, an `advance` that lands
//! between the waiter's read and its park defeats the park — the classic
//! missed-advance window is closed by the compare-and-block, not by luck.
//!
//! Comparisons use wraparound-safe sequence arithmetic (`count - target`
//! as a signed distance), so the eventcount keeps working after the
//! counter passes `u64::MAX` — the same fix the simulated
//! `kernels::EventCount` carries, verified here on real threads.

use crate::futex;
use crate::AdaptiveSpin;
use qsm::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone eventcount whose waiters park.
pub struct EventcountBlocking {
    count: CachePadded<AtomicU64>,
    spin: AdaptiveSpin,
}

impl Default for EventcountBlocking {
    fn default() -> Self {
        EventcountBlocking::new()
    }
}

impl EventcountBlocking {
    /// A fresh eventcount at 0 with the adaptive spin-then-park wait.
    pub fn new() -> Self {
        EventcountBlocking::with_initial(0)
    }

    /// An eventcount starting at `initial` — primarily for wraparound
    /// tests, which start just below `u64::MAX`.
    pub fn with_initial(initial: u64) -> Self {
        EventcountBlocking {
            count: CachePadded::new(AtomicU64::new(initial)),
            spin: AdaptiveSpin::new(64, true),
        }
    }

    /// The current count.
    pub fn read(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Advances the count by one (wrapping) and wakes all parked waiters,
    /// returning the value after the advance. Waking everyone is the
    /// eventcount contract: waiters await *different* targets, and each
    /// re-evaluates its own on wake.
    pub fn advance(&self) -> u64 {
        let new = self.count.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        futex::futex_wake(&self.count, usize::MAX);
        new
    }

    /// Blocks until the count has reached `target` in sequence order,
    /// returning the count observed. "Reached" is the wraparound-safe
    /// condition: the signed distance `count - target` is non-negative.
    pub fn await_at_least(&self, target: u64) -> u64 {
        let budget = self.spin.budget();
        let mut probes = 0;
        let mut parked = false;
        loop {
            let cur = self.count.load(Ordering::SeqCst);
            if (cur.wrapping_sub(target) as i64) >= 0 {
                self.spin.record(parked);
                return cur;
            }
            if probes < budget {
                probes += 1;
                std::hint::spin_loop();
            } else {
                parked = true;
                futex::futex_wait(&self.count, cur);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn advance_and_read() {
        let ec = EventcountBlocking::new();
        assert_eq!(ec.read(), 0);
        assert_eq!(ec.advance(), 1);
        assert_eq!(ec.advance(), 2);
        assert_eq!(ec.await_at_least(1), 2);
    }

    /// The eventcount as a publication barrier: what the advancer wrote
    /// to a plain cell before the third `advance` is what the waiter reads
    /// after `await_at_least(3)`, whether it parked or caught the count
    /// mid-probe.
    #[test]
    fn waiter_parks_until_advanced() {
        struct Plain(std::cell::UnsafeCell<u64>);
        // SAFETY: written before the last advance, read after the await
        // that advance satisfies — the ordering under test.
        unsafe impl Sync for Plain {}
        let ec = Arc::new(EventcountBlocking::new());
        let cell = Arc::new(Plain(std::cell::UnsafeCell::new(0)));
        let handle = {
            let (ec, cell) = (Arc::clone(&ec), Arc::clone(&cell));
            thread::spawn(move || {
                let seen = ec.await_at_least(3);
                (seen, unsafe { *cell.0.get() })
            })
        };
        ec.advance();
        ec.advance();
        unsafe { *cell.0.get() = 42 };
        ec.advance();
        let (seen, published) = handle.join().unwrap();
        assert!(seen >= 3);
        assert_eq!(published, 42, "await returned before the publication");
    }

    #[test]
    fn await_survives_wraparound() {
        let ec = Arc::new(EventcountBlocking::with_initial(u64::MAX - 1));
        let handle = {
            let ec = Arc::clone(&ec);
            // Await the post-wrap value 1: a naive `<` would see MAX-1 as
            // already past 1 and return immediately with the pre-wrap count.
            thread::spawn(move || ec.await_at_least(1))
        };
        assert_eq!(ec.advance(), u64::MAX);
        assert_eq!(ec.advance(), 0);
        assert_eq!(ec.advance(), 1);
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn many_waiters_all_release() {
        let ec = Arc::new(EventcountBlocking::new());
        let handles: Vec<_> = (1..=6u64)
            .map(|target| {
                let ec = Arc::clone(&ec);
                thread::spawn(move || ec.await_at_least(target))
            })
            .collect();
        for _ in 0..6 {
            ec.advance();
        }
        for h in handles {
            assert!(h.join().unwrap() <= 6);
        }
    }
}
