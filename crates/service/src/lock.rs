//! The service front end: per-key mutex, eventcount and barrier over a
//! [`ShardedTable`].
//!
//! Each primitive is a protocol over a single slot word:
//!
//! - **Mutex** — the three-state futex lock (0 free, 1 held, 2 held with
//!   waiters). The uncontended path is one CAS. A contender follows the
//!   competitive rule *spin for as long as blocking would cost*: it
//!   watches the word test-and-test-and-set (plain loads, a CAS only on
//!   FREE) for [`parking::futex::ParkingLot::park_cost`] — the
//!   wake-to-running latency the table's lot **measures** on every real
//!   park, a moving average clamped to 8–64 µs, not a constant and not a
//!   knob — and only then announces itself by driving the word to 2 and
//!   parks. A hold shorter than a park/wake round trip is thus waited out
//!   on the CPU; a longer one costs the waiter at most twice what parking
//!   at once would have. Release stores FREE and wakes the *oldest* parked
//!   waiter (the lot's FIFO dequeue), so grants are FIFO **among parked
//!   waiters** — but there is no hand-off, so a fresh arrival's fast-path
//!   CAS can barge ahead of the woken waiter. That is the usual futex-mutex throughput/fairness
//!   trade, not the paper's strict QSM queue discipline (the QSM-faithful
//!   handoff lock lives in `parking::QsmMutexBlocking`), and it only pays
//!   if the loser of a barge does not go straight back to sleep: a woken
//!   waiter that finds the word re-taken **spins one more budget**,
//!   acquiring as 2 — others may still be parked behind it, and only a
//!   release from 2 wakes them — before it pays for a second park. The
//!   async `LockFuture` shares the word and the queue but never spins: a
//!   future that spun would stall every other task on its executor thread,
//!   so it registers its waker at once and the executor runs something
//!   else. `interleave::corpus::SpinThenParkLock` is this path as a
//!   checker model (exhaustive at 3 threads, seeded bug in the corpus).
//! - **Eventcount** — the word is a monotone sequence number;
//!   [`EventKey::advance`] bumps it and wakes every waiter (the waiters of
//!   one count want different targets, and the queue is ordered by
//!   arrival); [`EventKey::await_at_least`] waits until the count passes a
//!   target, with wraparound-safe comparison, by the mutex's rule: it
//!   watches the word for the same lot's `park_cost()` and parks only past
//!   that, so an advance a cache miss away never costs a scheduler round
//!   trip. It spins once — a waiter that a wake-all resumes with its target
//!   still ahead is several advances away and goes back to sleep — and the
//!   async `EventWaitFuture` never does, for the `LockFuture`'s reason.
//!   `interleave::corpus::eventcount_staggered_targets_program` is the
//!   wake-all as a checker model. Counts are *ephemeral*: they live
//!   only while some [`EventKey`] handle keeps the slot attached, which is
//!   why the API hands out a handle instead of taking bare keys.
//! - **Barrier** — arrivals in the low 32 bits, a round counter in the
//!   high 32. The last arrival resets arrivals and bumps the round in one
//!   store, then wakes all; waiters wait for the *round* to change, which
//!   dodges the classic sense-reversal ABA (a waiter sleeping through an
//!   entire round still sees a different round number, not a flipped-back
//!   sense bit). A barrier waiter still parks at once: the same spin is
//!   measured and waiting for the benchmark harness to admit it (ROADMAP
//!   item 4).

use crate::table::{ShardedTable, SlotKind, SlotRef, TableStats};
use crate::telemetry::{MetricsMode, MetricsSnapshot, Primitive, ServiceMetrics};
use crate::{seq_ge, DEFAULT_SHARDS};
use parking::futex::FutexTotals;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Mutex word states (shared with the async front end in `async_lock`).
pub(crate) const FREE: u64 = 0;
pub(crate) const HELD: u64 = 1;
pub(crate) const CONTENDED: u64 = 2;

/// The sharded per-key lock service. See the crate docs for the design.
pub struct LockService {
    table: ShardedTable,
}

impl Default for LockService {
    fn default() -> Self {
        Self::new()
    }
}

impl LockService {
    /// A service with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A service with an explicit shard count (rounded up to a power of
    /// two) and the default `counters` telemetry mode.
    ///
    /// # Panics
    ///
    /// If `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        LockService {
            table: ShardedTable::new(shards),
        }
    }

    /// [`LockService::with_shards`] with an explicit telemetry mode.
    pub fn with_metrics_mode(shards: usize, mode: MetricsMode) -> Self {
        LockService {
            table: ShardedTable::with_metrics(shards, Arc::new(ServiceMetrics::new(mode))),
        }
    }

    /// [`LockService::with_metrics_mode`] whose table's lot records its
    /// parks, wakes and resumes into `tracer` — in place of the flight
    /// recorder, which the stall watchdog then reads from `tracer` — and
    /// into no other lot's. `service_load --trace-out` builds its service
    /// this way.
    pub fn with_tracer(shards: usize, mode: MetricsMode, tracer: Arc<Tracer>) -> Self {
        let metrics = Arc::new(ServiceMetrics::new(mode));
        LockService {
            table: ShardedTable::with_tracer(shards, metrics, Some(tracer)),
        }
    }

    /// The backing table, for occupancy checks.
    pub fn stats(&self) -> TableStats {
        self.table.stats()
    }

    /// The telemetry instance this service records into.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        self.table.metrics()
    }

    /// A [`MetricsSnapshot`] with the table occupancy, the lot-local
    /// futex ledger and the lot's calibrated spin budget filled in — the
    /// full export surface.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.table.metrics().snapshot();
        snap.table = Some(self.table.stats());
        snap.futex = Some(self.table.lot().totals());
        snap.park_cost_ns = Some(self.table.lot().park_cost().as_nanos() as u64);
        snap
    }

    /// This service's lot-local futex ledger (parks/wakes/resumes of the
    /// table's embedded lot only — unrelated lots in the process don't
    /// show up here).
    pub fn futex_totals(&self) -> FutexTotals {
        self.table.lot().totals()
    }

    /// The backing table itself — the async front end attaches its slots
    /// here so sync and async callers share one waiter population per key.
    pub(crate) fn table(&self) -> &ShardedTable {
        &self.table
    }

    /// Acquires the mutex for `key`, blocking (spin-then-park) while a
    /// holder is live. Parked waiters are woken oldest-first, though a
    /// concurrent fast-path acquirer can barge ahead of a woken waiter
    /// (see the module docs).
    pub fn lock(&self, key: u64) -> KeyGuard<'_> {
        let slot = self.table.attach(key, SlotKind::Mutex);
        let word = slot.word();
        if Self::try_acquire(word) {
            slot.metrics().count_acquire(slot.shard(), true, false);
            return KeyGuard::acquired(slot, None);
        }
        self.lock_contended(slot)
    }

    /// [`LockService::lock`] after the first CAS failed. Kept out of line:
    /// its clock reads and loops would otherwise cost the one-CAS fast path
    /// a larger frame (`mutex_disjoint`'s acquiring call measured ~5 %
    /// slower with this inlined).
    #[inline(never)]
    fn lock_contended<'a>(&'a self, slot: SlotRef<'a>) -> KeyGuard<'a> {
        let word = slot.word();
        // Maybe start a sampled wait measurement, and feed the hot-key
        // sketch at the sampling rate.
        let started = slot.metrics().wait_timer(slot.shard());
        if started.is_some() {
            slot.metrics().note_hot_key(slot.key());
        }
        // Spin for as long as parking would cost: a holder that releases
        // within that time hands over without a park/wake round trip, and
        // one that does not costs us at most twice the better choice.
        let budget = slot.park_cost();
        if Self::spin_acquire(&slot, HELD, budget) {
            slot.metrics().count_acquire(slot.shard(), false, false);
            return KeyGuard::acquired(slot, started);
        }
        // Slow path: hold the word at CONTENDED while waiting so the
        // releaser knows to wake, and acquire *as* CONTENDED — we cannot
        // know whether other waiters remain, so the release after our
        // critical section must wake too.
        let mut parked = false;
        loop {
            match word.load(Ordering::SeqCst) {
                FREE => {
                    if word
                        .compare_exchange(FREE, CONTENDED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        slot.metrics().count_acquire(slot.shard(), false, parked);
                        return KeyGuard::acquired(slot, started);
                    }
                    slot.metrics().count_cas_retry(slot.shard());
                }
                HELD => {
                    // Announce waiters; whoever holds it will wake us.
                    let _ =
                        word.compare_exchange(HELD, CONTENDED, Ordering::SeqCst, Ordering::SeqCst);
                }
                _ => {
                    if !slot.wait(CONTENDED) {
                        continue;
                    }
                    parked = true;
                    // Woken, but release stored FREE before waking, so a
                    // barger may hold the word again by now. Going straight
                    // back to sleep would pay a second park for a hold we
                    // can outlast: spin one more budget first. Still as
                    // CONTENDED — others may be parked behind us, and only
                    // a CONTENDED release wakes them.
                    if Self::spin_acquire(&slot, CONTENDED, budget) {
                        slot.metrics().count_acquire(slot.shard(), false, true);
                        slot.metrics().count_respin_win(slot.shard());
                        return KeyGuard::acquired(slot, started);
                    }
                }
            }
        }
    }

    /// Test-and-test-and-set for up to `budget`: watches the word with
    /// plain loads and tries `FREE -> locked` only when it reads FREE, so
    /// spinners share the line instead of bouncing it with failing CASes.
    fn spin_acquire(slot: &SlotRef<'_>, locked: u64, budget: Duration) -> bool {
        let word = slot.word();
        crate::spin_for(budget, || {
            if word.load(Ordering::SeqCst) != FREE {
                return false;
            }
            let won = word
                .compare_exchange(FREE, locked, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            if !won {
                slot.metrics().count_cas_retry(slot.shard());
            }
            won
        })
    }

    /// Acquires the mutex for `key` iff it is free right now.
    pub fn try_lock(&self, key: u64) -> Option<KeyGuard<'_>> {
        let slot = self.table.attach(key, SlotKind::Mutex);
        if Self::try_acquire(slot.word()) {
            slot.metrics().count_acquire(slot.shard(), true, false);
            Some(KeyGuard::acquired(slot, None))
        } else {
            None
        }
    }

    fn try_acquire(word: &AtomicU64) -> bool {
        word.compare_exchange(FREE, HELD, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// A handle to `key`'s eventcount. The count starts at 0 when the
    /// first handle attaches and persists only while at least one handle
    /// (or parked waiter) is live.
    pub fn eventcount(&self, key: u64) -> EventKey<'_> {
        EventKey {
            slot: self.table.attach(key, SlotKind::Event),
        }
    }

    /// Waits at the barrier for `key` until `parties` threads have
    /// arrived; returns `true` on exactly one of them (the last arrival,
    /// which released the round). The barrier is reusable: the next
    /// `parties` arrivals form the next round.
    ///
    /// # Panics
    ///
    /// If `parties` is zero, or more than `parties` threads arrive in one
    /// round (callers disagreeing on `parties`).
    pub fn barrier_wait(&self, key: u64, parties: u32) -> bool {
        let slot = self.table.attach(key, SlotKind::Barrier);
        let Some(round) = barrier_arrive(&slot, parties) else {
            return true;
        };
        let word = slot.word();
        let started = slot.metrics().wait_timer(slot.shard());
        loop {
            let now = word.load(Ordering::SeqCst);
            if now >> 32 != round {
                slot.metrics().record_wait(Primitive::Barrier, started);
                return false;
            }
            slot.wait(now);
        }
    }
}

/// One arrival at the barrier on `slot`'s word, shared by the blocking
/// and the async front end: `None` when this arrival completed the round
/// (arrivals reset and the round bumped in one store, every waiter woken),
/// otherwise `Some(round)` — the round the caller now waits to see end.
///
/// # Panics
///
/// If `parties` is zero, or `parties` arrivals are already recorded in
/// this round (callers disagreeing on `parties`).
pub(crate) fn barrier_arrive(slot: &SlotRef<'_>, parties: u32) -> Option<u64> {
    assert!(parties > 0, "a barrier needs at least one party");
    let word = slot.word();
    loop {
        let cur = word.load(Ordering::SeqCst);
        let arrivals = (cur & u32::MAX as u64) as u32;
        assert!(
            arrivals < parties,
            "barrier key {:#x}: more than {parties} parties arrived in one round",
            slot.key()
        );
        let last = arrivals + 1 == parties;
        let next = if last {
            (cur >> 32).wrapping_add(1) << 32
        } else {
            cur + 1
        };
        if word
            .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            if last {
                slot.wake(usize::MAX);
                return None;
            }
            return Some(cur >> 32);
        }
    }
}

/// Holds the per-key mutex; released (and the slot reference dropped) on
/// drop.
pub struct KeyGuard<'a> {
    slot: SlotRef<'a>,
    /// Sampled hold-timing start, recorded on release.
    hold: Option<Instant>,
}

impl<'a> KeyGuard<'a> {
    /// Finishes an acquisition: records the sampled wait (if `started`),
    /// and maybe starts a sampled hold measurement.
    fn acquired(slot: SlotRef<'a>, started: Option<Instant>) -> Self {
        let metrics = slot.metrics();
        metrics.record_wait(Primitive::Mutex, started);
        let hold = metrics.wait_timer(slot.shard());
        KeyGuard { slot, hold }
    }

    /// Wraps a slot whose mutex word the caller has already driven to
    /// HELD or CONTENDED — the async lock future's acquisition path.
    pub(crate) fn from_acquired(slot: SlotRef<'a>) -> Self {
        debug_assert!(slot.word().load(Ordering::SeqCst) != FREE);
        let hold = slot.metrics().wait_timer(slot.shard());
        KeyGuard { slot, hold }
    }

    /// The key this guard locks.
    pub fn key(&self) -> u64 {
        self.slot.key()
    }
}

impl Drop for KeyGuard<'_> {
    fn drop(&mut self) {
        let prev = self.slot.word().swap(FREE, Ordering::SeqCst);
        debug_assert!(prev == HELD || prev == CONTENDED, "unlock of a free lock");
        self.slot.metrics().record_hold(self.hold.take());
        if prev == CONTENDED {
            // Wake the oldest parked waiter (no direct handoff: the word
            // is already FREE, so a newcomer may beat the wakee to it).
            // Waking exactly one is enough: the wakee re-acquires as
            // CONTENDED, so its own release wakes the next in line.
            self.slot.wake(1);
        }
    }
}

/// A handle to one key's eventcount; see [`LockService::eventcount`].
pub struct EventKey<'a> {
    slot: SlotRef<'a>,
}

impl<'a> EventKey<'a> {
    /// The slot behind this handle, for the async wait future.
    pub(crate) fn slot(&self) -> &SlotRef<'a> {
        &self.slot
    }

    /// The current count.
    pub fn read(&self) -> u64 {
        self.slot.word().load(Ordering::SeqCst)
    }

    /// Bumps the count and wakes every waiter; returns the new count.
    pub fn advance(&self) -> u64 {
        let new = self
            .slot
            .word()
            .fetch_add(1, Ordering::SeqCst)
            .wrapping_add(1);
        self.slot.wake(usize::MAX);
        new
    }

    /// Waits until the count reaches at least `target` (wraparound-safe),
    /// returning the count observed: on the CPU for as long as a park in
    /// the table's lot costs ([`SlotRef::park_cost`]), parked from then on.
    /// An `advance` a cache miss away is thus taken without leaving the
    /// processor, and one that is not costs at most twice what parking at
    /// once would have.
    pub fn await_at_least(&self, target: u64) -> u64 {
        let cur = self.read();
        if seq_ge(cur, target) {
            return cur;
        }
        let started = self.slot.metrics().wait_timer(self.slot.shard());
        // One spin, before the first park only: a waiter that `advance`'s
        // wake-all resumes with its target still ahead is several advances
        // away, which is what parking is for.
        crate::spin_for(self.slot.park_cost(), || seq_ge(self.read(), target));
        loop {
            let cur = self.read();
            if seq_ge(cur, target) {
                self.slot.metrics().record_wait(Primitive::EventCount, started);
                return cur;
            }
            self.slot.wait(cur);
        }
    }
}

impl Clone for EventKey<'_> {
    fn clone(&self) -> Self {
        EventKey {
            slot: self.slot.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn uncontended_lock_round_trip() {
        let svc = LockService::with_shards(4);
        {
            let _g = svc.lock(7);
            assert!(svc.try_lock(7).is_none());
            // A different key is independent.
            assert!(svc.try_lock(8).is_some());
        }
        assert!(svc.try_lock(7).is_some());
        // All guards dropped: the table is empty again.
        assert_eq!(svc.stats().live, 0);
    }

    #[test]
    fn contended_lock_is_mutually_exclusive() {
        let svc = Arc::new(LockService::with_shards(8));
        // One non-atomic-style counter per key: a racy read-yield-write
        // that only a correct per-key mutex keeps exact.
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
        let threads: usize = 8;
        let iters: usize = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let counters = Arc::clone(&counters);
                thread::spawn(move || {
                    for i in 0..iters {
                        let key = i % 3;
                        let _g = svc.lock(key as u64);
                        let v = counters[key].load(Ordering::SeqCst);
                        thread::yield_now();
                        counters[key].store(v + 1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = counters.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        assert_eq!(total, threads * iters);
        assert_eq!(svc.stats().live, 0);
    }

    #[test]
    fn eventcount_advance_releases_waiters() {
        let svc = Arc::new(LockService::with_shards(4));
        let ec = svc.eventcount(99);
        assert_eq!(ec.read(), 0);
        let waiter = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || svc.eventcount(99).await_at_least(3))
        };
        for _ in 0..3 {
            ec.advance();
        }
        assert_eq!(waiter.join().unwrap(), 3);
        assert_eq!(ec.read(), 3);
    }

    #[test]
    fn eventcount_resets_when_all_handles_drop() {
        let svc = LockService::with_shards(4);
        {
            let ec = svc.eventcount(5);
            ec.advance();
            ec.advance();
            assert_eq!(ec.read(), 2);
            let ec2 = ec.clone();
            drop(ec);
            assert_eq!(ec2.read(), 2);
        }
        // Slot recycled: a fresh handle starts from zero.
        assert_eq!(svc.eventcount(5).read(), 0);
    }

    #[test]
    fn barrier_releases_all_parties_with_one_leader() {
        let svc = Arc::new(LockService::with_shards(4));
        let parties = 6u32;
        for _round in 0..4 {
            let handles: Vec<_> = (0..parties)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    thread::spawn(move || svc.barrier_wait(1234, parties))
                })
                .collect();
            let leaders = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&leader| leader)
                .count();
            assert_eq!(leaders, 1);
        }
        assert_eq!(svc.stats().live, 0);
    }

    #[test]
    #[should_panic(expected = "cannot attach it as a")]
    fn mixing_primitives_on_one_key_panics() {
        let svc = LockService::with_shards(1);
        let _g = svc.lock(7);
        let _e = svc.eventcount(7);
    }
}
