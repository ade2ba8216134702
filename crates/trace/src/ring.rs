//! A fixed-capacity, single-writer event ring.
//!
//! The recorder must never perturb what it observes: a push is five
//! relaxed word stores and one release store, with no allocation, locking,
//! or branching on occupancy — when the ring is full the oldest event is
//! overwritten and a drop counter (derivable from the monotonic push count)
//! says how many were lost.
//!
//! # Writer discipline
//!
//! Each ring has **one writing thread at a time** — two racing pushes
//! would claim the same slot and lose an event — and a change of writer is
//! ordered by whoever arranges it. In the simulator that is structural: a
//! simulation's processors are coroutines on the one host thread that runs
//! the machine, so every ring of its tracer is written by that thread
//! alone. On real threads the [`crate::Tracer`] leases each ring to one
//! live thread ([`crate::Tracer::record_thread`]) and passes it on only
//! after that thread has exited, through a release/acquire pair on the
//! tracer's lease word.
//!
//! Readers need no discipline: the slots are atomic words, and
//! [`EventRing::snapshot`] may run while the writer pushes (the stall
//! watchdog reads a live service's rings). It leaves out the one slot a
//! push in flight may be overwriting, so every event it returns is one the
//! writer pushed, whole.

use crate::event::Event;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Fixed-capacity overwrite-oldest ring of [`Event`]s.
pub struct EventRing {
    /// Each event as [`Event::to_words`] spells it.
    slots: Box<[[AtomicU64; 4]]>,
    /// Twice the pushes ever completed (not clamped to capacity), plus one
    /// while a push is in flight.
    seq: AtomicUsize,
}

impl EventRing {
    /// Creates a ring holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventRing capacity must be nonzero");
        EventRing {
            slots: (0..capacity).map(|_| Default::default()).collect(),
            seq: AtomicUsize::new(0),
        }
    }

    /// Appends an event, overwriting the oldest once full. Wait-free.
    pub fn push(&self, ev: Event) {
        let n = self.seq.load(Ordering::Relaxed) / 2;
        self.seq.store(2 * n + 1, Ordering::Relaxed);
        // Orders the in-flight mark before the slot writes: a reader that
        // sees any of them also sees the mark (the fence pair in `snapshot`).
        fence(Ordering::Release);
        for (slot, word) in self.slots[n % self.slots.len()].iter().zip(ev.to_words()) {
            slot.store(word, Ordering::Relaxed);
        }
        self.seq.store(2 * n + 2, Ordering::Release);
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn pushed(&self) -> usize {
        self.seq.load(Ordering::Acquire) / 2
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> usize {
        self.pushed().saturating_sub(self.capacity())
    }

    /// The retained events, oldest first. Exact once the writer has
    /// quiesced; while it pushes, the oldest retained event may be missing.
    pub fn snapshot(&self) -> Vec<Event> {
        let cap = self.capacity();
        let end = self.pushed();
        let words: Vec<[u64; 4]> = (end.saturating_sub(cap)..end)
            .map(|i| {
                self.slots[i % cap]
                    .each_ref()
                    .map(|w| w.load(Ordering::Relaxed))
            })
            .collect();
        fence(Ordering::Acquire);
        // Push `k` rewrites the slot of event `k - cap`, and any word read
        // above that a push wrote shows up here as that push begun. Keep
        // the events no begun push could have reached.
        let begun = self.seq.load(Ordering::Relaxed).div_ceil(2);
        let first_whole = begun.saturating_sub(cap);
        let start = end.saturating_sub(cap);
        words
            .into_iter()
            .skip(first_whole.saturating_sub(start))
            .map(Event::from_words)
            .collect()
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: u64) -> Event {
        Event {
            t,
            kind: EventKind::SpinBegin { addr: t as usize },
        }
    }

    #[test]
    fn retains_in_order_below_capacity() {
        let ring = EventRing::new(8);
        assert_eq!(ring.pushed(), 0);
        for t in 0..5 {
            ring.push(ev(t));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.t).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = EventRing::new(4);
        for t in 0..10 {
            ring.push(ev(t));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.t).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = EventRing::new(0);
    }

    /// A reader snapshotting while the writer laps the ring sees only whole
    /// events (each `ev(t)` carries its time twice), consecutive and in
    /// order, never more than the capacity.
    #[test]
    fn live_snapshots_hold_only_whole_events() {
        const CAP: usize = 8;
        const PUSHES: u64 = 200_000;
        let ring = EventRing::new(CAP);
        std::thread::scope(|s| {
            s.spawn(|| (0..PUSHES).for_each(|t| ring.push(ev(t))));
            while ring.pushed() < PUSHES as usize {
                let events = ring.snapshot();
                assert!(events.len() <= CAP);
                for (i, e) in events.iter().enumerate() {
                    assert_eq!(e.kind, EventKind::SpinBegin { addr: e.t as usize }, "torn");
                    assert_eq!(e.t, events[0].t + i as u64, "{events:?}");
                }
            }
        });
        assert_eq!(ring.snapshot().len(), CAP);
    }
}
