//! A fixed-capacity, single-writer event ring.
//!
//! The recorder must never perturb what it observes: a push is two plain
//! slot writes and one atomic store, with no allocation, locking, or
//! branching on occupancy — when the ring is full the oldest event is
//! overwritten and a drop counter (derivable from the monotonic push count)
//! says how many were lost.
//!
//! # Writer discipline
//!
//! Each ring has **one writing thread at a time**, and a change of writer
//! is ordered by whoever arranges it. In the simulator that is structural:
//! a simulation's processors are coroutines on the one host thread that
//! runs the machine, so every ring of its tracer is written by that thread
//! alone. On real hardware `parking::trace_hooks` leases each ring to one
//! live thread and passes it on only after that thread has exited, through
//! a release/acquire pair on its lease word. Readers call
//! [`EventRing::snapshot`] only after the run has quiesced (simulation
//! finished, threads joined), so they never race a writer.

use crate::event::Event;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fixed-capacity overwrite-oldest ring of [`Event`]s.
pub struct EventRing {
    slots: Box<[UnsafeCell<Event>]>,
    /// Monotonic number of pushes ever performed (not clamped to capacity).
    pushed: AtomicUsize,
}

// SAFETY: see the module-level writer discipline. `slots` cells are written
// by exactly one thread at a time, a change of writer is ordered by the
// release/acquire hand-off of whoever leases the ring out, and they are read
// only after all writers have quiesced; `pushed` is atomic.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    /// Creates a ring holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventRing capacity must be nonzero");
        EventRing {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(Event::default()))
                .collect(),
            pushed: AtomicUsize::new(0),
        }
    }

    /// Appends an event, overwriting the oldest once full. Wait-free.
    pub fn push(&self, ev: Event) {
        let n = self.pushed.load(Ordering::Relaxed);
        let slot = &self.slots[n % self.slots.len()];
        // SAFETY: single writer (module discipline); no reader is active
        // while a writer exists.
        unsafe { *slot.get() = ev };
        self.pushed.store(n + 1, Ordering::Release);
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn pushed(&self) -> usize {
        self.pushed.load(Ordering::Acquire)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.pushed().min(self.capacity())
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pushed() == 0
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> usize {
        self.pushed().saturating_sub(self.capacity())
    }

    /// The retained events, oldest first. Call only after writers quiesce.
    pub fn snapshot(&self) -> Vec<Event> {
        let n = self.pushed();
        let cap = self.capacity();
        let start = n.saturating_sub(cap);
        (start..n)
            // SAFETY: all writers have quiesced (module discipline), so the
            // cells are stable.
            .map(|i| unsafe { *self.slots[i % cap].get() })
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
        assert!(ring.is_empty());
        for t in 0..5 {
            ring.push(ev(t));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.t).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.len(), 5);
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
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = EventRing::new(0);
    }
}
