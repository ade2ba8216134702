//! The async front end: poll-based futures over the *same*
//! [`ShardedTable`](crate::table::ShardedTable) the blocking service
//! uses.
//!
//! Each future's `poll` is its telemetry around one
//! [`protocol::poll_step`] of the step the blocking call runs through
//! [`protocol::block`]: the same look at the same word, a park in the same
//! per-table [`parking::futex::ParkingLot`] — as a *waker* entry instead of
//! a blocked thread — and the same FIFO dequeue, so one key can serve
//! blocking threads and async tasks simultaneously and neither side can
//! starve the other by protocol mismatch. Every future holds its slot
//! reference until it completes: every parked waiter holds a reference,
//! the rule that makes slot recycling sound.
//!
//! ## Cancellation
//!
//! Dropping a future mid-wait withdraws its registration
//! ([`parking::futex::ParkingLot::cancel`], which keeps the lot's ledger
//! balanced) and runs its primitive's repair from [`protocol`]: the
//! mutex's [`protocol::lock_cancelled`] passes on a wake that had already
//! chosen it, the barrier's [`protocol::barrier_unarrive`] withdraws its
//! arrival from a round still open, the semaphore's
//! [`protocol::cancel_ticket`] restores its ticket. The eventcount owes
//! nothing: `advance` wakes every waiter.
//!
//! ## Multi-key locking
//!
//! [`AsyncLockService::lock_many`] acquires a key *set* deadlock-free by
//! sorting the keys into the table's canonical order — shard index, then
//! key — and two-phase-acquiring: all locks are taken in that order
//! (growing phase) and released together when the [`MultiGuard`] drops
//! (shrinking phase). Any two tasks acquire their common keys in the same
//! global order, so the wait-for graph cannot cycle.

use crate::protocol::{self, CONTENDED, HELD};
use crate::table::{SlotKind, SlotRef};
use crate::telemetry::{MetricsMode, Primitive, ServiceMetrics};
use crate::{EventKey, KeyGuard, LockService};
use parking::futex::WaitEntry;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{ready, Context, Poll, Waker};
use std::time::Instant;

/// The async lock service: a thin view over a [`LockService`] whose
/// futures and blocking calls share one table, one parking lot, and one
/// protocol per key.
pub struct AsyncLockService {
    sync: LockService,
}

impl Default for AsyncLockService {
    fn default() -> Self {
        Self::new()
    }
}

impl AsyncLockService {
    /// A service with [`crate::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(crate::DEFAULT_SHARDS)
    }

    /// A service with an explicit shard count (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// If `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        AsyncLockService {
            sync: LockService::with_shards(shards),
        }
    }

    /// [`AsyncLockService::with_shards`] with an explicit telemetry mode;
    /// see [`LockService::with_metrics_mode`].
    pub fn with_metrics_mode(shards: usize, mode: MetricsMode) -> Self {
        AsyncLockService {
            sync: LockService::with_metrics_mode(shards, mode),
        }
    }

    /// The blocking half, sharing every key: table stats, telemetry
    /// snapshots, `try_lock`, eventcount handles (their async wait is
    /// [`EventKey::wait_for`]), and threads living alongside the tasks.
    pub fn sync(&self) -> &LockService {
        &self.sync
    }

    /// The telemetry instance this service records into.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        self.sync.metrics()
    }

    /// Acquires the mutex for `key` asynchronously. The future attaches
    /// the key's slot at once but contends for the word only when polled;
    /// dropping it mid-wait cancels cleanly (see the module docs).
    pub fn lock(&self, key: u64) -> LockFuture<'_> {
        LockFuture {
            slot: Some(self.sync.table().attach(key, SlotKind::Mutex)),
            entry: None,
            parked: false,
            contended: false,
            started: None,
        }
    }

    /// Acquires every key in `keys` without deadlock risk: the keys are
    /// sorted into the table's canonical order (shard index, then key)
    /// and locked in that order, whatever order the caller listed them
    /// in. Resolves to a [`MultiGuard`] holding all of them; dropping the
    /// future mid-acquisition releases the prefix already held and
    /// cancels the in-flight lock.
    ///
    /// # Panics
    ///
    /// If `keys` contains a duplicate (locking one key twice in a set
    /// self-deadlocks by construction).
    pub fn lock_many(&self, keys: &[u64]) -> LockManyFuture<'_> {
        let mut sorted: Vec<u64> = keys.to_vec();
        sorted.sort_unstable_by_key(|&k| (self.sync.table().shard_of(k), k));
        for pair in sorted.windows(2) {
            assert!(
                pair[0] != pair[1],
                "lock_many keys must be distinct; key {:#x} appears twice",
                pair[0]
            );
        }
        LockManyFuture {
            svc: self,
            keys: sorted,
            acquired: Vec::new(),
            current: None,
        }
    }

    /// Waits at the barrier for `key` asynchronously until `parties`
    /// tasks (or threads — the barrier is shared with the blocking
    /// [`LockService::barrier_wait`]) have arrived; resolves to `true` on
    /// exactly one of them. The future arrives when first polled;
    /// dropping it mid-wait withdraws the arrival.
    ///
    /// # Panics
    ///
    /// When polled: if `parties` is zero, or more than `parties` arrive
    /// in one round.
    pub fn barrier_wait(&self, key: u64, parties: u32) -> BarrierFuture<'_> {
        BarrierFuture {
            slot: Some(self.sync.table().attach(key, SlotKind::Barrier)),
            parties,
            round: None,
            entry: None,
            started: None,
        }
    }
}

/// Future returned by [`AsyncLockService::lock`]; resolves to the same
/// [`KeyGuard`] the blocking path returns.
#[must_use = "futures do nothing unless polled"]
pub struct LockFuture<'a> {
    /// The pinned slot; taken (moved into the guard) on completion.
    slot: Option<SlotRef<'a>>,
    entry: Option<WaitEntry>,
    /// Whether this future ever parked: from then on it takes the word as
    /// CONTENDED, as the blocking slow path does, for others may be parked.
    parked: bool,
    /// Whether it ever found the word held (else it took the fast path).
    contended: bool,
    /// Sampled wait-timing start, taken at first contact with a held word.
    started: Option<Instant>,
}

impl<'a> Future for LockFuture<'a> {
    type Output = KeyGuard<'a>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<KeyGuard<'a>> {
        let this = self.get_mut();
        let slot = this
            .slot
            .as_ref()
            .expect("LockFuture polled after completion");
        let (word, locked) = (slot.word(), if this.parked { CONTENDED } else { HELD });
        let mut retries = 0;
        let polled = protocol::poll_step(slot.lot(), &mut this.entry, cx.waker(), |c| {
            protocol::lock_step(c, word, locked, &mut retries)
        });
        slot.metrics().count_cas_retries(slot.shard(), retries);
        if !this.contended && polled != Poll::Ready(true) {
            // First contact with a held word: maybe start a sampled wait
            // measurement, like the blocking slow path.
            this.contended = true;
            this.started = slot.metrics().wait_timer(slot.shard());
        }
        if polled.is_pending() {
            this.parked = true;
            return Poll::Pending;
        }
        let slot = this.slot.take().expect("slot present until completion");
        slot.metrics()
            .count_acquire(slot.shard(), !this.contended, this.parked);
        Poll::Ready(KeyGuard::acquired(
            slot,
            Primitive::AsyncMutex,
            this.started.take(),
        ))
    }
}

impl Drop for LockFuture<'_> {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            let chosen = withdraw(slot, self.entry.take());
            protocol::lock_cancelled(&mut slot.lot(), slot.word(), chosen);
        }
    }
}

/// Withdraws a dropped future's registration in `slot`'s lot, if it has
/// one, counting the cancellation: whether a wake had already chosen it.
fn withdraw(slot: &SlotRef<'_>, entry: Option<WaitEntry>) -> bool {
    let Some(entry) = entry else {
        return false;
    };
    slot.metrics().count_cancellation(slot.shard());
    !slot.lot().cancel(entry)
}

/// Holds every key of a [`AsyncLockService::lock_many`] set; all released
/// together on drop (the two-phase shrink).
pub struct MultiGuard<'a> {
    guards: Vec<KeyGuard<'a>>,
}

impl<'a> MultiGuard<'a> {
    /// The held guards, in acquisition (canonical) order.
    pub fn guards(&self) -> &[KeyGuard<'a>] {
        &self.guards
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.guards.len()
    }

    /// True iff the set was empty.
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }
}

/// Future returned by [`AsyncLockService::lock_many`]: the growing phase
/// of the two-phase acquisition, one key at a time in canonical order.
#[must_use = "futures do nothing unless polled"]
pub struct LockManyFuture<'a> {
    svc: &'a AsyncLockService,
    keys: Vec<u64>,
    acquired: Vec<KeyGuard<'a>>,
    current: Option<LockFuture<'a>>,
}

impl<'a> Future for LockManyFuture<'a> {
    type Output = MultiGuard<'a>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<MultiGuard<'a>> {
        let this = self.get_mut();
        loop {
            if this.acquired.len() == this.keys.len() {
                return Poll::Ready(MultiGuard {
                    guards: std::mem::take(&mut this.acquired),
                });
            }
            let fut = this
                .current
                .get_or_insert_with(|| this.svc.lock(this.keys[this.acquired.len()]));
            match Pin::new(fut).poll(cx) {
                Poll::Ready(guard) => {
                    this.current = None;
                    this.acquired.push(guard);
                }
                Poll::Pending => return Poll::Pending,
            }
        }
    }
}

// No Drop impl needed: dropping the fields releases the already-acquired
// prefix (each KeyGuard unlocks) and cancels the in-flight LockFuture.

/// Future returned by [`EventKey::wait_for`]; resolves to the observed
/// count once it reaches the target.
#[must_use = "futures do nothing unless polled"]
pub struct EventWaitFuture<'k, 'a> {
    key: &'k EventKey<'a>,
    target: u64,
    entry: Option<WaitEntry>,
    /// Sampled wait-timing start, taken at the first park.
    started: Option<Instant>,
}

impl<'a> EventKey<'a> {
    /// The async counterpart of [`EventKey::await_at_least`]: resolves
    /// once the count reaches at least `target` (wraparound-safe),
    /// yielding the count observed. Dropping the future mid-wait just
    /// withdraws its registration — `advance` wakes all waiters, so no
    /// grant hand-off is owed.
    pub fn wait_for(&self, target: u64) -> EventWaitFuture<'_, 'a> {
        EventWaitFuture {
            key: self,
            target,
            entry: None,
            started: None,
        }
    }
}

impl Future for EventWaitFuture<'_, '_> {
    type Output = u64;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
        let this = self.get_mut();
        let (slot, target) = (this.key.slot(), this.target);
        let polled = protocol::poll_step(slot.lot(), &mut this.entry, cx.waker(), |c| {
            protocol::await_step(c, slot.word(), target)
        });
        if polled.is_pending() && this.started.is_none() {
            this.started = slot.metrics().wait_timer(slot.shard());
        }
        let cur = ready!(polled);
        slot.metrics()
            .record_wait(Primitive::EventCount, this.started.take());
        Poll::Ready(cur)
    }
}

impl Drop for EventWaitFuture<'_, '_> {
    fn drop(&mut self) {
        // `advance` wakes every waiter: a consumed wake deprived nobody.
        withdraw(self.key.slot(), self.entry.take());
    }
}

/// Future returned by [`AsyncLockService::barrier_wait`]; resolves to
/// `true` on the task whose arrival released the round.
#[must_use = "futures do nothing unless polled"]
pub struct BarrierFuture<'a> {
    /// The pinned slot; released on completion.
    slot: Option<SlotRef<'a>>,
    parties: u32,
    /// The round this future arrived in, once it has.
    round: Option<u64>,
    entry: Option<WaitEntry>,
    /// Sampled wait-timing start, taken when the arrival is recorded.
    started: Option<Instant>,
}

impl Future for BarrierFuture<'_> {
    type Output = bool;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let this = self.get_mut();
        let slot = this
            .slot
            .as_ref()
            .expect("BarrierFuture polled after completion");
        let round = match this.round {
            Some(round) => round,
            None => {
                let arrived = protocol::barrier_arrive(&mut slot.lot(), slot.word(), this.parties);
                let Some(round) = arrived else {
                    this.slot = None;
                    return Poll::Ready(true);
                };
                this.started = slot.metrics().wait_timer(slot.shard());
                *this.round.insert(round)
            }
        };
        ready!(protocol::poll_step(
            slot.lot(),
            &mut this.entry,
            cx.waker(),
            |c| { protocol::barrier_step(c, slot.word(), round) }
        ));
        slot.metrics()
            .record_wait(Primitive::Barrier, this.started.take());
        this.slot = None;
        Poll::Ready(false)
    }
}

impl Drop for BarrierFuture<'_> {
    fn drop(&mut self) {
        let (Some(slot), Some(round)) = (&self.slot, self.round) else {
            return;
        };
        // Round completion wakes every waiter: no wake is owed.
        withdraw(slot, self.entry.take());
        protocol::barrier_unarrive(&mut slot.lot(), slot.word(), round);
    }
}

/// Drives a future to completion on the calling thread, parking between
/// polls — the smallest possible executor, for tests and for blocking
/// callers that want to reuse an async code path. The deterministic
/// virtual-time executor lives in `workloads::executor`.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    struct ThreadWaker(std::thread::Thread);

    impl std::task::Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }

    let mut fut = std::pin::pin!(fut);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            // thread::park can return spuriously; the poll loop is the
            // re-check.
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    pub(crate) struct FlagWaker(pub(crate) AtomicBool);

    impl std::task::Wake for FlagWaker {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Polls `fut` once with a waker that raises the returned flag.
    pub(crate) fn poll_once<F: Future + Unpin>(fut: &mut F) -> (Poll<F::Output>, Arc<FlagWaker>) {
        let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        (Pin::new(fut).poll(&mut cx), flag)
    }

    #[test]
    fn uncontended_async_lock_round_trip() {
        let svc = AsyncLockService::with_shards(4);
        {
            let g = block_on(svc.lock(7));
            assert_eq!(g.key(), 7);
            assert!(svc.sync().try_lock(7).is_none());
        }
        assert!(svc.sync().try_lock(7).is_some());
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn async_and_blocking_lockers_exclude_each_other() {
        let svc = Arc::new(AsyncLockService::with_shards(8));
        let counter = Arc::new(AtomicUsize::new(0));
        let threads = 6;
        let iters = 300;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let svc = Arc::clone(&svc);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    for _ in 0..iters {
                        // Alternate halves: async tasks and blocking
                        // threads contend the same key.
                        let _g = if i % 2 == 0 {
                            block_on(svc.lock(42))
                        } else {
                            svc.sync().lock(42)
                        };
                        let v = counter.load(Ordering::SeqCst);
                        thread::yield_now();
                        counter.store(v + 1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), threads * iters);
        assert_eq!(svc.sync().stats().live, 0);
    }

    /// The baton-pass on cancel: a release chooses waiter A (wake-one);
    /// A's future is dropped before it runs; waiter B must inherit the
    /// grant, not sleep over a free lock.
    #[test]
    fn dropped_woken_future_hands_the_baton_on() {
        let svc = AsyncLockService::with_shards(1);
        let holder = svc.sync().lock(9);
        let mut fut_a = svc.lock(9);
        let mut fut_b = svc.lock(9);
        assert!(matches!(poll_once(&mut fut_a).0, Poll::Pending));
        assert!(matches!(poll_once(&mut fut_b).0, Poll::Pending));
        drop(holder); // wakes exactly one waiter: A (FIFO)
        drop(fut_a); // cancel-after-wake: must re-wake the slot
        let (polled, _) = poll_once(&mut fut_b);
        assert!(
            matches!(polled, Poll::Ready(_)),
            "B did not inherit A's grant"
        );
        drop(polled);
        assert_eq!(svc.sync().stats().live, 0);
    }

    /// Cancelling a never-woken waiter just removes it; the next release
    /// still reaches the remaining waiter.
    #[test]
    fn dropped_parked_future_leaves_queue_intact() {
        let svc = AsyncLockService::with_shards(1);
        let holder = svc.sync().lock(5);
        let mut fut_a = svc.lock(5);
        let mut fut_b = svc.lock(5);
        assert!(matches!(poll_once(&mut fut_a).0, Poll::Pending));
        assert!(matches!(poll_once(&mut fut_b).0, Poll::Pending));
        drop(fut_a); // cancel-before-wake
        drop(holder);
        let (polled, _) = poll_once(&mut fut_b);
        assert!(matches!(polled, Poll::Ready(_)));
        drop(polled);
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn lock_many_acquires_all_keys_in_canonical_order() {
        let svc = AsyncLockService::with_shards(4);
        let guard = block_on(svc.lock_many(&[30, 10, 20]));
        assert_eq!(guard.len(), 3);
        let mut keys: Vec<u64> = guard.guards().iter().map(|g| g.key()).collect();
        for k in [10, 20, 30] {
            assert!(svc.sync().try_lock(k).is_none(), "key {k} not held");
            assert!(keys.contains(&k));
        }
        // Canonical order is (shard, key): stable across runs for a fixed
        // shard count, and sorted by key within a shard.
        keys.sort_unstable();
        assert_eq!(keys, vec![10, 20, 30]);
        drop(guard);
        assert_eq!(svc.sync().stats().live, 0);
        assert!(svc.sync().try_lock(20).is_some());
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn lock_many_rejects_duplicate_keys() {
        let svc = AsyncLockService::with_shards(4);
        drop(svc.lock_many(&[1, 2, 1]));
    }

    #[test]
    fn lock_many_cancel_releases_held_prefix() {
        let svc = AsyncLockService::with_shards(4);
        // Hold one key so the multi-lock stalls partway.
        let blocker = svc.sync().lock(20);
        let mut fut = svc.lock_many(&[10, 20, 30]);
        assert!(matches!(poll_once(&mut fut).0, Poll::Pending));
        // Some prefix is held; cancelling must release it all.
        drop(fut);
        drop(blocker);
        for k in [10, 20, 30] {
            assert!(
                svc.sync().try_lock(k).is_some(),
                "key {k} still held after cancel"
            );
        }
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn event_wait_for_resolves_on_advance() {
        let svc = AsyncLockService::with_shards(4);
        let ec = svc.sync().eventcount(99);
        let mut fut = ec.wait_for(2);
        assert!(matches!(poll_once(&mut fut).0, Poll::Pending));
        ec.advance();
        assert!(matches!(poll_once(&mut fut).0, Poll::Pending));
        ec.advance();
        assert!(matches!(poll_once(&mut fut).0, Poll::Ready(2)));
        drop(fut);
        drop(ec);
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn async_barrier_mixes_with_blocking_parties() {
        let svc = Arc::new(AsyncLockService::with_shards(4));
        let parties = 4u32;
        let handles: Vec<_> = (0..parties)
            .map(|i| {
                let svc = Arc::clone(&svc);
                thread::spawn(move || {
                    if i % 2 == 0 {
                        block_on(svc.barrier_wait(77, parties))
                    } else {
                        svc.sync().barrier_wait(77, parties)
                    }
                })
            })
            .collect();
        let leaders = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&l| l)
            .count();
        assert_eq!(leaders, 1);
        assert_eq!(svc.sync().stats().live, 0);
    }

    /// A cancelled barrier arrival un-arrives: the round completes with a
    /// replacement party instead of hanging one short.
    #[test]
    fn cancelled_barrier_arrival_is_withdrawn() {
        let svc = AsyncLockService::with_shards(1);
        let mut ghost = svc.barrier_wait(3, 2);
        assert!(matches!(poll_once(&mut ghost).0, Poll::Pending));
        drop(ghost); // un-arrives
        let mut a = svc.barrier_wait(3, 2);
        assert!(matches!(poll_once(&mut a).0, Poll::Pending));
        // If the ghost arrival had leaked, this second arrival would
        // complete the round as the third party and trip the assert; with
        // the withdrawal it is the releasing second arrival.
        let mut b = svc.barrier_wait(3, 2);
        assert!(matches!(poll_once(&mut b).0, Poll::Ready(true)));
        assert!(matches!(poll_once(&mut a).0, Poll::Ready(false)));
        drop(a);
        drop(b);
        assert_eq!(svc.sync().stats().live, 0);
    }
}
