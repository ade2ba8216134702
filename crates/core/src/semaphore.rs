//! A FIFO counting semaphore from a sequencer and an eventcount — the
//! textbook Reed–Kanodia construction, and the cleanest demonstration that
//! QSM's two counter primitives subsume general resource counting.
//!
//! `acquire` takes turn number `t` from the sequencer and awaits
//! `releases + permits > t`; `release` advances the eventcount. Because
//! turn numbers are handed out in order and each waiter waits on a distinct
//! threshold, service is strictly FIFO and no wakeup can be lost.

use crate::event::{EventCount, Sequencer};

/// A FIFO counting semaphore (busy-waiting, like every primitive here).
#[derive(Debug)]
pub struct Semaphore {
    turns: Sequencer,
    releases: EventCount,
    permits: u64,
}

/// RAII permit; released on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    sem: &'a Semaphore,
    /// The turn number that claimed this permit (diagnostics).
    pub turn: u64,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits (≥ 1).
    pub fn new(permits: usize) -> Self {
        assert!(permits >= 1, "semaphore needs at least one permit");
        Semaphore {
            turns: Sequencer::new(),
            releases: EventCount::new(),
            permits: permits as u64,
        }
    }

    /// Number of permits the semaphore was created with.
    pub fn capacity(&self) -> u64 {
        self.permits
    }

    /// Acquires a permit, waiting FIFO behind earlier arrivals.
    pub fn acquire(&self) -> Permit<'_> {
        let turn = self.turns.ticket();
        if turn >= self.permits {
            // Permit `turn` frees up after `turn - permits + 1` releases.
            self.releases.await_at_least(turn - self.permits + 1);
        }
        Permit { sem: self, turn }
    }

    /// Current number of threads that could acquire without waiting
    /// (snapshot; racy by nature).
    pub fn available(&self) -> u64 {
        let taken = self.turns.issued();
        let freed = self.releases.read();
        (self.permits + freed).saturating_sub(taken)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.sem.releases.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn capacity_and_availability() {
        let s = Semaphore::new(3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.available(), 3);
        let p1 = s.acquire();
        let p2 = s.acquire();
        assert_eq!(s.available(), 1);
        drop(p1);
        assert_eq!(s.available(), 2);
        drop(p2);
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn turns_are_fifo() {
        let s = Semaphore::new(2);
        let a = s.acquire();
        let b = s.acquire();
        assert_eq!(a.turn, 0);
        assert_eq!(b.turn, 1);
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        Semaphore::new(0);
    }

    #[test]
    fn bounds_concurrency() {
        // N threads through a semaphore of one permit (a FIFO mutex) and
        // of two: the in-section count must never exceed the permits, and
        // everyone gets through.
        for permits in [1, 2] {
            let sem = Arc::new(Semaphore::new(permits));
            let inside = Arc::new(AtomicU64::new(0));
            let done = Arc::new(AtomicU64::new(0));
            let threads: Vec<_> = (0..5)
                .map(|_| {
                    let sem = Arc::clone(&sem);
                    let inside = Arc::clone(&inside);
                    let done = Arc::clone(&done);
                    std::thread::spawn(move || {
                        for _ in 0..100 {
                            let permit = sem.acquire();
                            let now = inside.fetch_add(1, Ordering::AcqRel) + 1;
                            assert!(now <= permits as u64, "semaphore overadmitted: {now}");
                            inside.fetch_sub(1, Ordering::AcqRel);
                            drop(permit);
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(done.load(Ordering::Relaxed), 500);
        }
    }
}
