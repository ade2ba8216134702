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
//! [`parking::futex::ParkingLot::wake_tagged`] sweep. A semaphore comes
//! from [`crate::LockService::semaphore`] and parks in the service table's
//! lot; before it parks, a waiter spins for that lot's `park_cost()`, as
//! the service's mutex does.
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
//! and the table's lot; `interleave::corpus` checks the same code.

use crate::protocol::{self, WaitingArray};
use crate::telemetry::{MetricsMode, Primitive, ServiceMetrics};
use parking::futex::{ParkingLot, WaitEntry};
use parking::CachePadded;
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
    /// The lot its waiters park in: the service table's, so the table's
    /// ledger, flight recorder, stall watchdog and park-cost estimate
    /// cover them (a lot of its own if built without a service).
    lot: Arc<ParkingLot>,
    /// Telemetry sink, normally the service's. Events stripe by ticket,
    /// which spreads concurrent acquirers/releasers across counter lines
    /// for free.
    metrics: Arc<ServiceMetrics>,
}

impl WaitingArraySemaphore {
    /// [`crate::LockService::semaphore`] recording into `metrics` and
    /// parking in a lot of its own, shaped like the process-global one.
    pub fn with_metrics(permits: usize, slots: usize, metrics: Arc<ServiceMetrics>) -> Self {
        let lot = Arc::new(ParkingLot::with_buckets(64));
        Self::build(permits, slots, 0, lot, metrics)
    }

    /// A semaphore on a lot of its own whose ticket counters start at
    /// `origin` instead of 0 — a test hook that lets the wraparound suite
    /// start tickets near `u64::MAX` without issuing 2^64 operations.
    pub fn with_ticket_origin(permits: usize, slots: usize, origin: u64) -> Self {
        let lot = Arc::new(ParkingLot::with_buckets(64));
        let metrics = Arc::new(ServiceMetrics::new(MetricsMode::default()));
        Self::build(permits, slots, origin, lot, metrics)
    }

    /// See [`crate::LockService::semaphore`] for the contract.
    pub(crate) fn build(
        permits: usize,
        slots: usize,
        origin: u64,
        lot: Arc<ParkingLot>,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
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
            lot,
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

    /// The lot its waiters park in: the word operations its protocol runs
    /// on.
    fn lot(&self) -> &ParkingLot {
        &self.lot
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
        ready!(protocol::poll_step(
            sem.lot(),
            &mut this.entry,
            cx.waker(),
            |c| { protocol::grant_step(c, &sem, ticket) }
        ));
        sem.metrics
            .record_wait(Primitive::Semaphore, this.started.take());
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
    use parking::futex::{addr_of, FutexTotals, PARK_COST_CEIL, PARK_COST_FLOOR};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, OnceLock};
    use std::task::{Wake, Waker};
    use std::thread;
    use std::time::Duration;

    /// A semaphore on a service of its own, so its lot's ledger is its own.
    fn sem(permits: usize, slots: usize) -> WaitingArraySemaphore {
        crate::LockService::with_shards(1).semaphore(permits, slots)
    }

    #[test]
    fn permits_bound_concurrent_holders() {
        let sem = Arc::new(sem(3, 8));
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
        let sem = sem(1, 2);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
    }

    /// `release_n` with more waiters than permits wakes exactly n — the
    /// others stay parked until their own grant is published.
    #[test]
    fn release_n_grants_exactly_n() {
        let sem = Arc::new(sem(0, 4));
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
            let sem = Arc::new(sem(0, 1));
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
        sem(1, 0);
    }

    #[test]
    fn acquire_async_fast_path_completes_on_first_poll() {
        let sem = sem(2, 2);
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
        let sem = sem(1, 2);
        drop(sem.acquire_async());
        assert_eq!(sem.permits(), 1);
        assert!(sem.try_acquire());
    }

    #[test]
    fn cancelled_waiter_restores_its_ticket() {
        let sem = sem(1, 2);
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
        let sem = sem(0, 2);
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
        let sem = sem(0, 2);
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
        let sem = Arc::new(sem(0, 2));
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

    /// `n` parks, each ended by one wake and one resume.
    fn balanced_at(n: u64) -> FutexTotals {
        FutexTotals {
            parks: n,
            wakes: n,
            resumes: n,
        }
    }

    /// Counts how often it is woken.
    #[derive(Default)]
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A future and the waker it is polled with.
    struct Polled<'a>(AcquireFuture<'a>, Arc<CountingWaker>);

    impl<'a> Polled<'a> {
        /// A fresh acquirer, polled once and left pending.
        fn pending(sem: &'a WaitingArraySemaphore) -> Self {
            let mut polled = Polled(sem.acquire_async(), Arc::default());
            assert!(polled.poll().is_pending());
            polled
        }

        fn poll(&mut self) -> Poll<()> {
            let waker = Waker::from(Arc::clone(&self.1));
            Pin::new(&mut self.0).poll(&mut Context::from_waker(&waker))
        }

        fn wakes(&self) -> usize {
            self.1 .0.load(Ordering::SeqCst)
        }
    }

    /// Six futures whose tickets all share the one slot: `release()` invokes
    /// the oldest ticket's waker, `release_n(3)` the next three, and a future
    /// whose grant is not published never hears of either. (While a grant
    /// woke every sharer of its slot, each release invoked all the wakers
    /// still parked.)
    #[test]
    fn a_release_invokes_the_granted_tickets_waker_and_no_other() {
        let sem = sem(0, 1);
        let mut waiting: Vec<Polled> = (0..6).map(|_| Polled::pending(&sem)).collect();
        let wakes = |waiting: &[Polled]| waiting.iter().map(Polled::wakes).collect::<Vec<_>>();

        assert_eq!(sem.release_n(1), 1);
        assert_eq!(wakes(&waiting), [1, 0, 0, 0, 0, 0]);
        assert_eq!(sem.release_n(3), 3);
        assert_eq!(wakes(&waiting), [1, 1, 1, 1, 0, 0]);

        // The four granted futures are admitted by their next poll; the two
        // others are cancelled unwoken and their tickets recycled.
        let cancelled = waiting.split_off(4);
        assert!(waiting.iter_mut().all(|w| w.poll().is_ready()));
        assert_eq!(cancelled.iter().map(Polled::wakes).sum::<usize>(), 0);
        drop(cancelled);
        assert_eq!(sem.release_n(2), 0, "both tickets were abandoned");
        assert_eq!(sem.permits(), 2, "the two permits nobody was left to take");
        assert_eq!(sem.lot.totals(), balanced_at(6));
    }

    /// Eight threads parked on two slots — four tickets a slot — released one
    /// at a time and then by `release_n(3)`: every release ends exactly as
    /// many parks as it grants, nobody parks twice, everybody gets through.
    #[test]
    fn parked_sharers_of_a_slot_are_woken_one_grant_at_a_time() {
        let sem = sem(0, 2);
        let through = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    sem.acquire();
                    through.fetch_add(1, Ordering::SeqCst);
                });
            }
            // All eight spin their budgets out and park, each under its ticket.
            while sem.lot.totals().parks < 8 {
                thread::yield_now();
            }
            let mut tags: Vec<_> = sem.lot.parked_waiters().iter().map(|w| w.tag).collect();
            tags.sort_unstable();
            assert_eq!(tags, (0..8).map(Some).collect::<Vec<_>>());

            let mut granted = 0;
            for n in [1, 1, 1, 1, 1, 3] {
                assert_eq!(sem.release_n(n), n);
                granted += n;
                assert_eq!(sem.lot.totals().wakes, granted as u64, "one wake per grant");
                while through.load(Ordering::SeqCst) < granted {
                    thread::yield_now();
                }
                assert_eq!(sem.lot.parked_waiters().len(), 8 - granted);
            }
        });
        assert_eq!(through.load(Ordering::SeqCst), 8);
        assert_eq!(sem.permits(), 0);
        assert_eq!(
            sem.lot.totals(),
            balanced_at(8),
            "a waiter parked more than once"
        );
    }

    /// Parks a thread in `lot` and wakes it: one sample for the lot's
    /// park-cost average.
    fn park_and_wake_once(lot: &ParkingLot) {
        let word = AtomicU64::new(0);
        thread::scope(|s| {
            s.spawn(|| {
                while word.load(Ordering::SeqCst) == 0 {
                    lot.wait(&word, 0);
                }
            });
            while lot.parked_count(&word) == 0 {
                thread::yield_now();
            }
            word.store(1, Ordering::SeqCst);
            lot.wake_addr(addr_of(&word), 1);
        });
    }

    /// The pre-park spin is budgeted by the lot the waiter is about to park
    /// in: a waiter nobody releases watches its slot for `park_cost()` — the
    /// clamped 8–64 µs average, here after sixteen real samples, not a
    /// constant of the semaphore — before it parks, and its grant then costs
    /// exactly one park; a grant that lands inside the budget is taken
    /// without any.
    #[test]
    fn a_waiter_spins_for_the_lots_park_cost_and_then_parks_once() {
        let sem = sem(0, 2);
        for _ in 0..16 {
            park_and_wake_once(&sem.lot);
        }
        assert_eq!(sem.lot.totals(), balanced_at(16));
        // Nothing parks in the lot between this read and the waiter's own.
        let budget = sem.lot.park_cost();
        assert!(
            (PARK_COST_FLOOR..=PARK_COST_CEIL).contains(&budget),
            "{budget:?}"
        );

        let started = OnceLock::new();
        thread::scope(|s| {
            s.spawn(|| {
                started.set(Instant::now()).unwrap();
                sem.acquire();
            });
            while sem.lot.totals().parks == 16 {
                std::hint::spin_loop();
            }
            let spun = started.get().unwrap().elapsed();
            assert!(
                spun >= budget,
                "parked after {spun:?} of a {budget:?} budget"
            );
            sem.release();
        });
        assert_eq!(
            sem.lot.totals(),
            balanced_at(17),
            "a missed budget costs one park"
        );

        // A release issued the moment the waiter has its ticket lands inside
        // any budget unless this thread loses its core in between, so some
        // attempt among many sees the grant taken with no park at all.
        let taken_spinning = (0..1_000).any(|_| {
            let before = sem.lot.totals();
            thread::scope(|s| {
                s.spawn(|| sem.acquire());
                while sem.permits() != -1 {
                    std::hint::spin_loop();
                }
                sem.release();
            });
            let attempt = sem.lot.totals().since(&before);
            assert!(attempt.balanced() && attempt.parks <= 1, "{attempt:?}");
            attempt.parks == 0
        });
        assert!(taken_spinning, "no grant was ever picked up by the spin");
        assert_eq!(sem.permits(), 0);
    }

    /// A future dropped after its grant's wake fired but before the re-poll:
    /// the wake was addressed to its ticket, so the grant is published, the
    /// drop takes `cancel_ticket`'s published branch and the permit goes to
    /// the next ticket — the sharer of the slot that the first wake left
    /// alone.
    #[test]
    fn a_future_dropped_after_its_wake_hands_the_grant_to_the_next_ticket() {
        let sem = sem(0, 1);
        let first = Polled::pending(&sem);
        let mut second = Polled::pending(&sem);

        assert_eq!(sem.release_n(1), 1);
        assert_eq!((first.wakes(), second.wakes()), (1, 0));
        drop(first);
        assert_eq!(
            second.wakes(),
            1,
            "the dropped future's permit was not handed on"
        );
        assert!(second.poll().is_ready());
        assert_eq!(sem.permits(), 0);
        assert_eq!(sem.lot.totals(), balanced_at(2));
    }
}
