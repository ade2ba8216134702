//! Per-thread ring leases: how real threads keep [`crate::ring`]'s
//! one-writer rule.
//!
//! A simulator's processors are numbered; real threads are not. A thread
//! that records into a [`crate::Tracer`] leases one of its first
//! [`THREAD_SLOTS`] rings at its first event and keeps it until it exits,
//! so a ring has one owning thread at a time, and a thread's events — a
//! park and the resume that ends it — land on one track. The free mask is
//! the tracer's own, so every tracer leases independently. With all of a
//! tracer's rings leased to live threads, a further thread's events are
//! counted ([`crate::Tracer::unleased`]) instead of recorded.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Rings a tracer can lease to live threads: the bits of its lease word.
pub const THREAD_SLOTS: usize = 64;

/// A tracer's lease state.
pub(crate) struct Leases {
    /// Bit `s` set: ring `s` is leased to no live thread.
    free: AtomicU64,
    /// Events of threads that found every ring leased (a statistic).
    pub(crate) unleased: AtomicU64,
}

impl Leases {
    /// Lease state for a tracer of `rings` rings.
    pub(crate) fn new(rings: usize) -> Arc<Leases> {
        Arc::new(Leases {
            free: AtomicU64::new(u64::MAX >> (64 - rings.min(THREAD_SLOTS))),
            unleased: AtomicU64::new(0),
        })
    }

    fn claim(&self) -> Option<usize> {
        let mut free = self.free.load(Ordering::Relaxed);
        while free != 0 {
            let slot = free.trailing_zeros() as usize;
            // Acquire: pairs with the Release of the exit that freed the
            // ring, so the previous owner's pushes happen before ours.
            match self.free.compare_exchange_weak(
                free,
                free & !(1 << slot),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(slot),
                Err(now) => free = now,
            }
        }
        None
    }
}

/// The leases a thread holds, one per tracer it has recorded into; they go
/// back to their tracers when the thread's locals are destroyed.
struct Held(RefCell<Vec<(Weak<Leases>, usize)>>);

impl Drop for Held {
    fn drop(&mut self) {
        for (leases, slot) in self.0.get_mut().drain(..) {
            if let Some(leases) = leases.upgrade() {
                leases.free.fetch_or(1 << slot, Ordering::Release);
            }
        }
    }
}

/// The calling thread's ring in the tracer owning `leases`, leased at the
/// first call; `None` while every ring is leased to another live thread (a
/// thread without one asks again at its next event), or once this thread's
/// locals are gone.
pub(crate) fn thread_slot(leases: &Arc<Leases>) -> Option<usize> {
    thread_local! {
        static HELD: Held = const { Held(RefCell::new(Vec::new())) };
    }
    HELD.try_with(|held| {
        let mut held = held.0.borrow_mut();
        if let Some(&(_, slot)) = held.iter().find(|(l, _)| l.as_ptr() == Arc::as_ptr(leases)) {
            return Some(slot);
        }
        // Forget the leases of tracers that are gone before taking a new one.
        held.retain(|(l, _)| l.strong_count() > 0);
        let slot = leases.claim()?;
        held.push((Arc::downgrade(leases), slot));
        Some(slot)
    })
    .ok()
    .flatten()
}

#[cfg(test)]
mod tests {
    use super::thread_slot;
    use crate::{EventKind, Tracer};
    use std::sync::Barrier;

    /// More live recording threads than rings: no two share a ring, the
    /// ones left without count their events as unleased, and the rings come
    /// back when their threads exit. The tracer is this test's own, so every
    /// count is exact; it has fewer rings than the lease word has bits.
    #[test]
    fn live_threads_never_share_a_slot() {
        const RINGS: usize = 8;
        const THREADS: usize = RINGS + 6;
        let tracer = Tracer::new(RINGS, 4);
        let all_recorded = Barrier::new(THREADS);
        let slots: Vec<Option<usize>> = std::thread::scope(|s| {
            let recorders: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        tracer.record_thread(0, EventKind::FutexPark { addr: 0 });
                        let slot = thread_slot(&tracer.leases);
                        all_recorded.wait(); // every lease is live at once
                        slot
                    })
                })
                .collect();
            recorders.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut leased: Vec<usize> = slots.iter().flatten().copied().collect();
        let slotless = THREADS - leased.len();
        assert_eq!(slotless, THREADS - RINGS, "threads without a slot");
        assert_eq!(tracer.unleased(), slotless as u64);
        leased.sort_unstable();
        leased.dedup();
        assert_eq!(
            leased,
            Vec::from_iter(0..RINGS),
            "two live threads shared a slot"
        );
        // Every lease has been returned: a second wave the size of the
        // first one's slotless remainder finds slots.
        std::thread::scope(|s| {
            let wave: Vec<_> = (0..THREADS - RINGS)
                .map(|_| s.spawn(|| thread_slot(&tracer.leases)))
                .collect();
            for h in wave {
                let slot = h.join().unwrap();
                assert!(slot.is_some(), "an exited thread's slot was not reused");
            }
        });
    }
}
