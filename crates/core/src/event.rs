//! Eventcounts and sequencers — the condition-synchronization service.

use crate::CachePadded;
use parking::futex::global_lot;
use service::protocol;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// A monotone eventcount (Reed & Kanodia): producers `advance`, consumers
/// `await_at_least`. The count never decreases, so a waiter can never miss
/// a wakeup — the arithmetic property at the heart of QSM.
///
/// Both operations are `service::protocol`'s, the steps the checker runs
/// (`interleave::corpus`), over the process-global lot
/// ([`parking::futex::global_lot`]): a waiter spins for what a park there
/// costs, then parks until the count reaches its target, and every
/// `advance` wakes the word's waiters.
#[derive(Debug)]
pub struct EventCount {
    count: CachePadded<AtomicU64>,
}

impl EventCount {
    /// Creates a count at zero.
    pub fn new() -> Self {
        EventCount {
            count: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Current value.
    pub fn read(&self) -> u64 {
        self.count.load(SeqCst)
    }

    /// Increments the count, releasing everything written before the
    /// advance to subsequent awaiters, and wakes them. Returns the new
    /// value.
    pub fn advance(&self) -> u64 {
        protocol::advance(&mut global_lot(), &*self.count)
    }

    /// Blocks until the count is at least `value` — compared by signed
    /// distance, so a count that wraps past `u64::MAX` still reaches a
    /// target just beyond it; returns the first satisfying value observed.
    pub fn await_at_least(&self, value: u64) -> u64 {
        protocol::await_at_least(&mut global_lot(), &*self.count, value)
    }
}

impl Default for EventCount {
    fn default() -> Self {
        EventCount::new()
    }
}

/// A sequencer: hands out unique, ordered turn numbers, pairing with an
/// [`EventCount`] to serialize producers (ticket = `sequencer.ticket()`,
/// then `eventcount.await_at_least(ticket)` before acting).
#[derive(Debug)]
pub struct Sequencer {
    next: CachePadded<AtomicU64>,
}

impl Sequencer {
    /// Creates a sequencer at zero.
    pub fn new() -> Self {
        Sequencer {
            next: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Takes the next turn number (starting from 0).
    pub fn ticket(&self) -> u64 {
        self.next.fetch_add(1, SeqCst)
    }

    /// Turn numbers handed out so far.
    pub fn issued(&self) -> u64 {
        self.next.load(SeqCst)
    }
}

impl Default for Sequencer {
    fn default() -> Self {
        Sequencer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn advance_and_read() {
        let ec = EventCount::new();
        assert_eq!(ec.read(), 0);
        assert_eq!(ec.advance(), 1);
        assert_eq!(ec.advance(), 2);
        assert_eq!(ec.read(), 2);
    }

    #[test]
    fn await_returns_immediately_when_past() {
        let ec = EventCount::new();
        ec.advance();
        ec.advance();
        assert_eq!(ec.await_at_least(1), 2);
    }

    #[test]
    fn await_blocks_until_advance() {
        let ec = Arc::new(EventCount::new());
        let signaller = {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ec.advance();
            })
        };
        let seen = ec.await_at_least(1);
        assert!(seen >= 1);
        signaller.join().unwrap();
    }

    #[test]
    fn ordering_transfers_data() {
        // The classic publish pattern: write data, advance; await, read data.
        let ec = Arc::new(EventCount::new());
        let data = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let producer = {
            let ec = Arc::clone(&ec);
            let data = Arc::clone(&data);
            std::thread::spawn(move || {
                data.store(99, std::sync::atomic::Ordering::Relaxed);
                ec.advance();
            })
        };
        ec.await_at_least(1);
        assert_eq!(data.load(std::sync::atomic::Ordering::Relaxed), 99);
        producer.join().unwrap();
    }

    #[test]
    fn sequencer_dense_under_contention() {
        let seq = Arc::new(Sequencer::new());
        let taken = Arc::new(std::sync::Mutex::new(Vec::new()));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let seq = Arc::clone(&seq);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..100 {
                        mine.push(seq.ticket());
                    }
                    taken.lock().unwrap().extend(mine);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut all = taken.lock().unwrap().clone();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<u64>>());
        assert_eq!(seq.issued(), 400);
    }
}
