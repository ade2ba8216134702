//! Ticket lock: FIFO service from a dispenser and a display.

use crate::backoff::Backoff;
use crate::raw::RawLock;
use crate::sync::{AtomicU64, Ordering};
use crate::CachePadded;

/// Classic ticket lock. The dispenser and display are cache-line padded so
/// ticket draws do not disturb the spinners.
#[derive(Debug)]
pub struct TicketLock {
    next_ticket: CachePadded<AtomicU64>,
    now_serving: CachePadded<AtomicU64>,
}

impl TicketLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        TicketLock {
            next_ticket: CachePadded::new(AtomicU64::new(0)),
            now_serving: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of lockers currently waiting or holding (a snapshot).
    pub fn queue_length(&self) -> u64 {
        self.next_ticket
            .load(Ordering::Relaxed)
            .saturating_sub(self.now_serving.load(Ordering::Relaxed))
    }
}

impl Default for TicketLock {
    fn default() -> Self {
        TicketLock::new()
    }
}

impl RawLock for TicketLock {
    fn lock(&self) -> usize {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        // FIFO hand-off convoys badly on oversubscribed hosts if waiters
        // never yield (the next holder may be descheduled), so the wait
        // escalates from pause hints to yields.
        let mut backoff = Backoff::new();
        while self.now_serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        ticket as usize
    }

    unsafe fn unlock(&self, token: usize) {
        // Only the holder writes the display; a plain release store suffices.
        self.now_serving.store(token as u64 + 1, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "ticket"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tickets_are_sequential() {
        let l = TicketLock::new();
        for expected in 0..5 {
            let t = l.lock();
            assert_eq!(t, expected);
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn queue_length_snapshot() {
        let l = TicketLock::new();
        assert_eq!(l.queue_length(), 0);
        let t = l.lock();
        assert_eq!(l.queue_length(), 1);
        unsafe { l.unlock(t) };
        assert_eq!(l.queue_length(), 0);
    }

    #[test]
    fn excludes_across_threads() {
        let l = Arc::new(TicketLock::new());
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
