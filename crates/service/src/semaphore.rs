//! A counting semaphore augmented with a **waiting array**, after Dice &
//! Kogan.
//!
//! A classic semaphore keeps an explicit waiter list the releaser must
//! lock and scan. Here the waiters index themselves: an acquirer that
//! finds no permit takes a ticket from an *enqueue* counter and waits on
//! `slots[ticket mod W]`; a releaser that owes a grant takes a ticket from
//! a *dequeue* counter and **publishes** the grant as `ticket + 1` in the
//! same slot (a sequence-max CAS, wraparound-safe). Acquirers and
//! releasers pair up through the ticket sequence alone — no list, no scan.
//!
//! **A grant wakes its own ticket and nobody else.** Tickets `t` and
//! `t + W` park on the same word, so a wake-one addressed to the word could
//! dequeue the sharer whose grant is still pending — which re-parks,
//! having swallowed the wake — and a wake-all costs every release one
//! spurious wake per sharer. So a waiter parks carrying its ticket as a tag
//! (`SyncCtx::wait` with `Some(ticket)`) and a release publishes
//! its whole batch, then wakes `(slot, ticket)` per grant in one
//! [`parking::futex::ParkingLot::wake_tagged`] sweep. Before it parks, a
//! waiter spins for the `park_cost()` of the process-global lot
//! ([`parking::futex::global_lot`]), where every semaphore's waiters park.
//!
//! **Cancellation.** A dropped [`WaitingArraySemaphore::acquire_async`]
//! future already holds a ticket. If its grant is published, the grant is
//! addressed to it alone and is handed onward as a release; if not, the
//! ticket goes into the *abandoned set*, and the releaser that reaches it
//! recycles the permit instead of waking a ghost. The releaser checks the
//! set *after* publishing, the canceller re-checks publication *inside* the
//! set's lock, so exactly one side recycles.
//!
//! The protocol is [`crate::protocol`]'s, run here on this struct's atomics
//! and the global lot; `interleave::corpus` checks the same code.

use crate::protocol::{self, WaitingArray};
use crate::telemetry::{Primitive, ServiceMetrics};
use parking::futex::{global_lot, ParkingLot, WaitEntry};
use qsm::CachePadded;
use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{ready, Context, Poll};
use std::time::Instant;

/// The waiting-array semaphore. See the module docs for the protocol.
pub struct WaitingArraySemaphore {
    /// Available permits, an `i64`; negative values count waiters owed a
    /// grant.
    permits: CachePadded<AtomicU64>,
    /// Next acquire ticket.
    enq: CachePadded<AtomicU64>,
    /// Next grant ticket.
    deq: CachePadded<AtomicU64>,
    /// The waiting array: `slots[t & mask]` holds the sequence of the
    /// latest grant published for tickets congruent to `t`.
    slots: Box<[CachePadded<AtomicU64>]>,
    mask: u64,
    /// Tickets whose waiters cancelled before their grant was published;
    /// the releaser that publishes such a grant recycles the permit. Cold:
    /// touched only on cancellation and (briefly) per grant.
    abandoned: Mutex<HashSet<u64>>,
    /// Telemetry sink; semaphores have no table, so they default to the
    /// process-global instance (see [`crate::telemetry::global`]). Events
    /// stripe by ticket, which spreads concurrent acquirers/releasers
    /// across counter lines for free.
    metrics: Arc<ServiceMetrics>,
}

impl WaitingArraySemaphore {
    /// A semaphore with `permits` initial permits and a waiting array of
    /// at least `slots` slots (rounded up to a power of two). The array
    /// bounds *slot sharing*, not waiter count: more waiters than slots
    /// simply share slots, and since a grant wakes the waiter that parked
    /// with its ticket (see the module docs), sharing costs the sharers
    /// nothing — no lost wake and no spurious one.
    ///
    /// # Panics
    ///
    /// If `slots` is zero, or `permits` exceeds `i64::MAX`.
    pub fn new(permits: usize, slots: usize) -> Self {
        Self::with_ticket_origin(permits, slots, 0)
    }

    /// [`WaitingArraySemaphore::new`] recording into an explicit telemetry
    /// instance instead of the process-global one — e.g. the instance of
    /// the service the semaphore guards keys for
    /// ([`crate::LockService::metrics`]).
    pub fn with_metrics(permits: usize, slots: usize, metrics: Arc<ServiceMetrics>) -> Self {
        Self::build(permits, slots, 0, metrics)
    }

    /// [`WaitingArraySemaphore::new`] with the ticket counters starting at
    /// `origin` instead of 0 — a test hook that lets the wraparound suite
    /// start tickets near `u64::MAX` without issuing 2^64 operations.
    pub fn with_ticket_origin(permits: usize, slots: usize, origin: u64) -> Self {
        Self::build(permits, slots, origin, crate::telemetry::global())
    }

    fn build(permits: usize, slots: usize, origin: u64, metrics: Arc<ServiceMetrics>) -> Self {
        assert!(slots > 0, "a waiting array needs at least one slot");
        let permits = i64::try_from(permits).expect("permit count fits in i64");
        let w = slots.next_power_of_two() as u64;
        let slots: Box<[CachePadded<AtomicU64>]> = (0..w)
            .map(|i| CachePadded::new(AtomicU64::new(protocol::empty_slot(origin, w, i))))
            .collect();
        WaitingArraySemaphore {
            permits: CachePadded::new(AtomicU64::new(permits as u64)),
            enq: CachePadded::new(AtomicU64::new(origin)),
            deq: CachePadded::new(AtomicU64::new(origin)),
            slots,
            mask: w - 1,
            abandoned: Mutex::new(HashSet::new()),
            metrics,
        }
    }

    /// Currently available permits (negative: waiters owed a grant). A
    /// racy observability hook, like the futex totals.
    pub fn permits(&self) -> i64 {
        self.permits.load(Ordering::SeqCst) as i64
    }

    /// Number of waiting-array slots (a power of two).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Acquires one permit, taking a ticket and waiting on its
    /// waiting-array slot if none is available: spinning for as long as a
    /// park would cost, then parked under the ticket.
    pub fn acquire(&self) {
        if let Some(ticket) = protocol::take_ticket(&mut self.lot(), &self) {
            let started = self.metrics.wait_timer(ticket as usize);
            protocol::wait_for_grant(&mut self.lot(), &self, ticket);
            self.metrics.record_wait(Primitive::Semaphore, started);
        }
    }

    /// Acquires one permit iff one is available right now.
    pub fn try_acquire(&self) -> bool {
        protocol::try_acquire(&mut self.lot(), &self)
    }

    /// Releases one permit; equivalent to `release_n(1)`.
    pub fn release(&self) {
        self.release_n(1);
    }

    /// Releases `n` permits ([`protocol::release_n`]: each grant wakes its
    /// own ticket, an abandoned ticket's permit goes round again); returns
    /// how many went to waiters, the rest raising the permit count.
    pub fn release_n(&self, n: usize) -> usize {
        protocol::release_n(&mut self.lot(), &self, n)
    }

    /// Acquires one permit asynchronously. The future takes no ticket until
    /// first polled; dropped mid-wait, it restores its ticket (see the
    /// module docs), so cancellation never leaks a permit.
    pub fn acquire_async(&self) -> AcquireFuture<'_> {
        AcquireFuture {
            sem: Some(self),
            ticket: None,
            entry: None,
            started: None,
        }
    }

    /// The lot every semaphore's waiters park in: the word operations its
    /// protocol runs on.
    fn lot(&self) -> &ParkingLot {
        global_lot()
    }
}

/// The semaphore's words for [`protocol`], and its abandoned set: a
/// `HashSet` under a mutex, cold — touched on cancellation and, briefly,
/// once per grant.
impl<'s> WaitingArray<&'s AtomicU64, &'s ParkingLot> for &'s WaitingArraySemaphore {
    fn permits(&self) -> &'s AtomicU64 {
        &self.permits
    }
    fn enq(&self) -> &'s AtomicU64 {
        &self.enq
    }
    fn deq(&self) -> &'s AtomicU64 {
        &self.deq
    }
    fn slot(&self, ticket: u64) -> &'s AtomicU64 {
        &self.slots[(ticket & self.mask) as usize]
    }
    fn take_abandoned(&self, _: &mut &'s ParkingLot, ticket: u64) -> bool {
        self.abandoned.lock().unwrap().remove(&ticket)
    }
    fn abandon_if(
        &self,
        lot: &mut &'s ParkingLot,
        ticket: u64,
        unpublished: impl FnOnce(&mut &'s ParkingLot) -> bool,
    ) -> bool {
        let mut abandoned = self.abandoned.lock().unwrap();
        let unpublished = unpublished(lot);
        if unpublished {
            abandoned.insert(ticket);
        }
        unpublished
    }
    fn count(&self, ticket: u64, granted: bool) {
        if granted {
            self.metrics.count_sem_grants(ticket as usize, 1);
        } else {
            self.metrics.count_sem_abandon(ticket as usize);
        }
    }
}

/// Future returned by [`WaitingArraySemaphore::acquire_async`]; resolves
/// once a permit is held. Dropping it mid-wait cancels cleanly: the waker
/// registration is withdrawn and the ticket restored (or its
/// already-published grant handed to the next waiter).
#[must_use = "futures do nothing unless polled"]
pub struct AcquireFuture<'a> {
    /// The semaphore; released on completion.
    sem: Option<&'a WaitingArraySemaphore>,
    /// The ticket the first poll took, if it found no permit.
    ticket: Option<u64>,
    entry: Option<WaitEntry>,
    /// Sampled wait-timing start, taken when the ticket is.
    started: Option<Instant>,
}

impl Future for AcquireFuture<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let sem = this.sem.expect("AcquireFuture polled after completion");
        let ticket = match this.ticket {
            Some(ticket) => ticket,
            None => {
                let Some(ticket) = protocol::take_ticket(&mut sem.lot(), &sem) else {
                    this.sem = None;
                    return Poll::Ready(());
                };
                this.started = sem.metrics.wait_timer(ticket as usize);
                *this.ticket.insert(ticket)
            }
        };
        ready!(protocol::poll_step(sem.lot(), &mut this.entry, cx.waker(), |c| {
            protocol::grant_step(c, &sem, ticket)
        }));
        sem.metrics.record_wait(Primitive::Semaphore, this.started.take());
        this.sem = None;
        Poll::Ready(())
    }
}

impl Drop for AcquireFuture<'_> {
    fn drop(&mut self) {
        let (Some(sem), Some(ticket)) = (self.sem, self.ticket) else {
            return;
        };
        sem.metrics.count_cancellation(ticket as usize);
        if let Some(e) = self.entry.take() {
            // A wake that had already dequeued the entry was addressed to
            // its ticket, whose grant is then published: `cancel_ticket`
            // reads that off the slot and hands the permit onward.
            let _ = sem.lot().cancel(e);
        }
        protocol::cancel_ticket(&mut sem.lot(), &sem, ticket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_lock::tests::poll_once;
    use crate::protocol::seq_ge;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn permits_bound_concurrent_holders() {
        let sem = Arc::new(WaitingArraySemaphore::new(3, 8));
        let holders = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let sem = Arc::clone(&sem);
                let holders = Arc::clone(&holders);
                let peak = Arc::clone(&peak);
                thread::spawn(move || {
                    for _ in 0..50 {
                        sem.acquire();
                        let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        thread::yield_now();
                        holders.fetch_sub(1, Ordering::SeqCst);
                        sem.release();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(sem.permits(), 3);
    }

    #[test]
    fn try_acquire_never_blocks() {
        let sem = WaitingArraySemaphore::new(1, 2);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
    }

    /// `release_n` with more waiters than permits wakes exactly n — the
    /// others stay parked until their own grant is published.
    #[test]
    fn release_n_grants_exactly_n() {
        let sem = Arc::new(WaitingArraySemaphore::new(0, 4));
        let through = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..5)
            .map(|_| {
                let sem = Arc::clone(&sem);
                let through = Arc::clone(&through);
                thread::spawn(move || {
                    sem.acquire();
                    through.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        while sem.permits() != -5 {
            thread::yield_now();
        }
        assert_eq!(sem.release_n(3), 3);
        while through.load(Ordering::SeqCst) < 3 {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(10));
        assert_eq!(through.load(Ordering::SeqCst), 3);
        assert_eq!(sem.release_n(2), 2);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(through.load(Ordering::SeqCst), 5);
        assert_eq!(sem.permits(), 0);
    }

    /// Ticket wraparound: with the counters starting a few tickets before
    /// u64::MAX and a tiny array, grants published across the wrap still
    /// reach their waiters.
    #[test]
    fn tickets_survive_wraparound() {
        let sem = Arc::new(WaitingArraySemaphore::with_ticket_origin(
            0,
            2,
            u64::MAX - 3,
        ));
        let through = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let sem = Arc::clone(&sem);
                let through = Arc::clone(&through);
                thread::spawn(move || {
                    sem.acquire();
                    through.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        while sem.permits() != -8 {
            thread::yield_now();
        }
        for _ in 0..8 {
            sem.release();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(through.load(Ordering::SeqCst), 8);
        assert_eq!(sem.permits(), 0);
    }

    /// Lost-wakeup regression: with more waiters than slots, tickets `t`
    /// and `t + W` park on the same word, and a wake-one release could
    /// dequeue the un-granted sharer (which re-parks, swallowing the
    /// wake) while the granted waiter slept forever. One-at-a-time
    /// releases into a single shared slot are the worst case; each must
    /// admit a waiter — and publish to it: what the releaser wrote to a
    /// plain cell before `release()` is what the admitted waiter reads
    /// after `acquire()`, with the waiters given time to park first and
    /// with the grant landing wherever it lands, mid-spin included.
    #[test]
    fn shared_slot_releases_reach_their_waiters() {
        struct Plain(std::cell::UnsafeCell<usize>);
        // SAFETY: written before a release, read by the one waiter that
        // release admits, and not written again until that waiter has
        // counted itself through — the ordering under test.
        unsafe impl Sync for Plain {}
        for settle in [Duration::from_millis(1), Duration::ZERO] {
            let sem = Arc::new(WaitingArraySemaphore::new(0, 1));
            let through = Arc::new(AtomicUsize::new(0));
            let cell = Arc::new(Plain(std::cell::UnsafeCell::new(0)));
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let sem = Arc::clone(&sem);
                    let through = Arc::clone(&through);
                    let cell = Arc::clone(&cell);
                    thread::spawn(move || {
                        sem.acquire();
                        let seen = unsafe { *cell.0.get() };
                        let nth = through.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(seen, nth + 1, "acquire returned before the publication");
                    })
                })
                .collect();
            while sem.permits() != -8 {
                thread::yield_now();
            }
            for i in 0..8 {
                // With `settle`, the waiters exhaust their spin budgets and
                // actually park, so the wake path (not the spin path)
                // admits them.
                thread::sleep(settle);
                unsafe { *cell.0.get() = i + 1 };
                sem.release();
                while through.load(Ordering::SeqCst) <= i {
                    thread::yield_now();
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(through.load(Ordering::SeqCst), 8);
            assert_eq!(sem.permits(), 0);
        }
    }

    #[test]
    fn fresh_slots_grant_nobody() {
        // Regression for the waiting-array init: at any ticket origin, a
        // brand-new slot must read as "behind" its first waiter's ticket.
        for origin in [0u64, 1, 63, u64::MAX - 1, u64::MAX] {
            let sem = WaitingArraySemaphore::with_ticket_origin(0, 4, origin);
            assert!(!sem.try_acquire(), "origin {origin:#x}");
            for (i, slot) in sem.slots.iter().enumerate() {
                let w = sem.slots.len() as u64;
                let t0 = origin.wrapping_add((i as u64).wrapping_sub(origin) & (w - 1));
                assert!(
                    !seq_ge(slot.load(Ordering::SeqCst), t0.wrapping_add(1)),
                    "origin {origin:#x} slot {i} already shows a grant"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_array_rejected() {
        WaitingArraySemaphore::new(1, 0);
    }

    #[test]
    fn acquire_async_fast_path_completes_on_first_poll() {
        let sem = WaitingArraySemaphore::new(2, 2);
        let mut fut = sem.acquire_async();
        assert!(matches!(poll_once(&mut fut).0, Poll::Ready(())));
        assert_eq!(sem.permits(), 1);
        drop(fut); // completed future: drop must not restore anything
        assert_eq!(sem.permits(), 1);
        sem.release();
        assert_eq!(sem.permits(), 2);
    }

    #[test]
    fn unpolled_future_drop_has_no_effect() {
        let sem = WaitingArraySemaphore::new(1, 2);
        drop(sem.acquire_async());
        assert_eq!(sem.permits(), 1);
        assert!(sem.try_acquire());
    }

    #[test]
    fn cancelled_waiter_restores_its_ticket() {
        let sem = WaitingArraySemaphore::new(1, 2);
        sem.acquire();
        let mut fut = sem.acquire_async();
        assert!(matches!(poll_once(&mut fut).0, Poll::Pending));
        assert_eq!(sem.permits(), -1);
        drop(fut); // abandoned before any grant is published
        // The release stream recycles the abandoned ticket: the permit
        // lands back on the counter instead of waking a ghost.
        assert_eq!(sem.release_n(1), 0);
        assert_eq!(sem.permits(), 1);
        assert!(sem.try_acquire());
    }

    #[test]
    fn cancelled_waiter_hands_published_grant_onward() {
        let sem = WaitingArraySemaphore::new(0, 2);
        let mut fut = sem.acquire_async();
        let (polled, flag) = poll_once(&mut fut);
        assert!(matches!(polled, Poll::Pending));
        // Publish the grant: the future is woken but never re-polled.
        assert_eq!(sem.release_n(1), 1);
        assert!(flag.0.load(Ordering::SeqCst), "waker not invoked");
        drop(fut);
        // The already-published grant was handed onward as a fresh permit.
        assert_eq!(sem.permits(), 1);
        assert!(sem.try_acquire());
    }

    #[test]
    fn woken_future_admits_on_next_poll() {
        let sem = WaitingArraySemaphore::new(0, 2);
        let mut fut = sem.acquire_async();
        assert!(matches!(poll_once(&mut fut).0, Poll::Pending));
        sem.release();
        assert!(matches!(poll_once(&mut fut).0, Poll::Ready(())));
        assert_eq!(sem.permits(), 0);
    }

    /// Async and blocking acquirers interleave on the same ticket stream;
    /// a mid-stream cancellation must not strand the blocking waiters.
    #[test]
    fn cancellation_between_blocking_waiters_strands_nobody() {
        let sem = Arc::new(WaitingArraySemaphore::new(0, 2));
        let through = Arc::new(AtomicUsize::new(0));
        let t1 = {
            let (sem, through) = (Arc::clone(&sem), Arc::clone(&through));
            thread::spawn(move || {
                sem.acquire();
                through.fetch_add(1, Ordering::SeqCst);
            })
        };
        while sem.permits() != -1 {
            thread::yield_now();
        }
        let mut fut = sem.acquire_async();
        assert!(matches!(poll_once(&mut fut).0, Poll::Pending));
        let t2 = {
            let (sem, through) = (Arc::clone(&sem), Arc::clone(&through));
            thread::spawn(move || {
                sem.acquire();
                through.fetch_add(1, Ordering::SeqCst);
            })
        };
        while sem.permits() != -3 {
            thread::yield_now();
        }
        drop(fut); // the middle ticket is abandoned
        // Two permits must admit both blocking waiters, recycling the
        // abandoned middle ticket along the way.
        sem.release_n(2);
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(through.load(Ordering::SeqCst), 2);
        assert_eq!(sem.permits(), 0);
    }
}
